"""How the async front end reads a request head and body off the wire.

The request line waits under the idle timeout (first request: the
header timeout), the rest of the head under one ``header_timeout_s``
timer, the body under ``body_timeout_s``.  These tests pin the
meanings of those timeouts and the two ways a client can end a request
badly: a head line longer than the stream's buffer limit (answered
``400``) and a close in the middle of the body (a quiet disconnect,
not an unhandled exception on the loop).
"""

import logging
import select
import socket
import time

import pytest

from repro.engine import AsyncPrometheusServer, PrometheusDB


def _read_http_response(sock_file):
    """(status, body) of one HTTP/1.1 response, or None on EOF."""
    status_line = sock_file.readline()
    if not status_line:
        return None
    headers = {}
    while True:
        line = sock_file.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length = int(headers.get("content-length", "0"))
    return int(status_line.split()[1]), sock_file.read(length)


@pytest.fixture
def server():
    with AsyncPrometheusServer(PrometheusDB(), header_timeout_s=0.4) as server:
        yield server


def _wait_for_no_connections(server, timeout_s=5.0):
    deadline = time.monotonic() + timeout_s
    while server._connections and time.monotonic() < deadline:
        time.sleep(0.01)
    return server._connections


class TestOversizedHeadLines:
    @pytest.mark.parametrize(
        "head",
        [
            b"GET /" + b"a" * 70_000 + b" HTTP/1.1\r\nHost: x\r\n\r\n",
            b"GET /schema HTTP/1.1\r\nX-Big: " + b"a" * 70_000 + b"\r\n\r\n",
        ],
        ids=["request-line", "header"],
    )
    def test_line_past_the_stream_limit_gets_400(self, server, head, caplog):
        with caplog.at_level(logging.ERROR, logger="asyncio"):
            with socket.create_connection(server.address, timeout=10) as sock:
                sock.sendall(head)
                result = _read_http_response(sock.makefile("rb"))
            assert result is not None, "connection dropped with no response"
            status, body = result
            assert status == 400
            assert b"request head too large" in body
            assert _wait_for_no_connections(server) == 0
        assert not [r for r in caplog.records if r.name == "asyncio"]


def test_close_mid_body_is_a_clean_disconnect(server, caplog):
    with caplog.at_level(logging.ERROR, logger="asyncio"):
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(
                b"POST /query HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: 500\r\n\r\n{\"q"  # 3 of 500 bytes
            )
            sock.shutdown(socket.SHUT_WR)
            assert sock.makefile("rb").read() == b""
        assert _wait_for_no_connections(server) == 0
    assert not [r for r in caplog.records if r.name == "asyncio"]


class TestTimeoutsKeepTheirMeaning:
    def test_head_dribbled_past_header_timeout_gets_408(self, server):
        """Every header line arrives well inside 0.4 s of the previous
        one; the head as a whole does not, and that is what counts."""
        timeouts = server.timeouts
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b"GET /schema HTTP/1.1\r\n")
            for n in range(20):
                readable, _, _ = select.select([sock], [], [], 0.15)
                if readable:
                    break
                sock.sendall(f"X-Drip-{n}: x\r\n".encode())
            status, _ = _read_http_response(sock.makefile("rb"))
        assert status == 408
        assert server.timeouts == timeouts + 1

    def test_keep_alive_pause_is_idle_time(self, server):
        """A pause between two requests on one connection longer than
        the header timeout is idle time, not a slow head."""
        request = b"GET /schema HTTP/1.1\r\nHost: x\r\n\r\n"
        with socket.create_connection(server.address, timeout=10) as sock:
            sock_file = sock.makefile("rb")
            sock.sendall(request)
            assert _read_http_response(sock_file)[0] == 200
            time.sleep(0.6)
            sock.sendall(request)
            assert _read_http_response(sock_file)[0] == 200
        assert server.timeouts == 0
