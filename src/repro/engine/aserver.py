"""The HTTP front end (thesis §6.1.7): keep-alive, pipelining, backpressure.

Remote clients — the thesis's taxonomic front-ends — browse the schema,
fetch objects, run POOL queries and inspect classifications over HTTP
without linking the database; the route reference is
``docs/SERVER.md``.  All routing, serialization, tracing and metrics
live in the transport-agnostic :class:`~repro.engine.handlers.
HttpHandlers` core; this module is only its transport — every route,
byte-identical to calling the core in process, proven by the
differential conformance suite — on a single-threaded ``asyncio``
event loop:

* **Keep-alive + pipelining** (HTTP/1.1): one connection carries many
  requests; a client may send the next request before the previous
  response arrives.  Responses are written strictly in request order
  (a reader coroutine parses and dispatches, a writer coroutine drains
  an ordered queue), so a pipelined client can never observe a
  reordering.
* **Cache hits on the loop, everything else on a bounded worker
  pool**: a request whose pre-serialized response is in the
  handlers' response cache is answered on the loop thread — a cache
  probe, the shared trace/access-log/metrics envelope, one socket
  write (:meth:`~repro.engine.handlers.HttpHandlers.serve_cached`).
  The engine is synchronous, so misses and uncacheable routes are
  bridged onto a ``ThreadPoolExecutor``, carrying the cache slot the
  loop armed.  The loop never runs a route, a query or a serializer,
  which is what keeps loop stalls bounded (the watchdog below
  measures them; the regression test asserts <50 ms under soak).
* **Backpressure instead of collapse**: when ``queue_cap`` requests
  are already queued-or-running on the pool, new pool-bound requests
  are answered ``503`` with a ``Retry-After`` header *immediately* —
  the loop stays responsive and the engine's latency stays flat while
  clients back off; cache hits never queue and are never shed.  A
  connection cap bounds file descriptors the same way.  Rejections
  are counted authoritatively on the loop thread and reconciled into
  ``repro_server_rejected_total`` at ``/metrics`` scrape time.
* **Slow-loris defense**: a request that dribbles its head or body is
  cut off by ``header_timeout_s``/``body_timeout_s`` (408) — one timer
  for everything after the request line, one for the body; an idle
  keep-alive connection is closed quietly after ``idle_timeout_s``.
  A stuck client holds one connection, never a worker thread.  A head
  line past the stream's buffer limit is answered ``400``; a client
  that closes mid-body is a plain disconnect.

The event-loop watchdog reschedules itself every 10 ms and records the
worst observed scheduling drift in ``max_stall_ms`` (exported as the
``repro_server_loop_max_stall_ms`` gauge) — if blocking work ever
creeps back onto the loop, the soak regression test catches it.
"""

from __future__ import annotations

import asyncio
import json
import logging
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from http.client import responses as _REASONS
from typing import Any, Awaitable

from .database import PrometheusDB
from .federation import Federation
from .handlers import HttpHandlers, Request, Response

_server_logger = logging.getLogger("repro.server")

#: Watchdog self-reschedule period (seconds); drift beyond this is stall.
_WATCH_INTERVAL = 0.01

#: Per-connection cap on pipelined requests parsed ahead of the writer.
_PIPELINE_DEPTH = 64

#: Longest request head (request line + headers) we accept, in bytes.
_MAX_HEAD_BYTES = 32 * 1024

#: Largest request body we accept, in bytes.
_MAX_BODY_BYTES = 64 * 1024 * 1024


class AsyncPrometheusServer:
    """Selector/asyncio HTTP server over the shared request handlers.

    The positional arguments are the node's wiring, passed through to
    :class:`~repro.engine.handlers.HttpHandlers`: ``federation``
    (the client-side view of peers; ``/health`` reports each peer's
    circuit breaker), the replication roles, the HA controller and
    the failover supervisor.  The transport knobs are keyword-only::

        workers          worker threads bridging to the sync engine (8)
        queue_cap        max pool requests queued-or-running before 503 (64)
        max_connections  max open client connections (256)
        header_timeout_s slow-loris cutoff for a request head (5.0)
        body_timeout_s   slow-loris cutoff for a request body (10.0)
        idle_timeout_s   keep-alive idle cutoff (30.0)
        retry_after_s    Retry-After hint on 503 rejections (1)
    """

    def __init__(
        self,
        db: PrometheusDB,
        host: str = "127.0.0.1",
        port: int = 0,
        federation: Federation | None = None,
        shipper: Any = None,
        replica_client: Any = None,
        primary_url: str | None = None,
        ha: Any = None,
        supervisor: Any = None,
        *,
        workers: int = 8,
        queue_cap: int = 64,
        max_connections: int = 256,
        header_timeout_s: float = 5.0,
        body_timeout_s: float = 10.0,
        idle_timeout_s: float = 30.0,
        retry_after_s: int = 1,
    ):
        self.handlers = HttpHandlers(
            db,
            federation=federation,
            shipper=shipper,
            replica_client=replica_client,
            primary_url=primary_url,
            ha=ha,
            supervisor=supervisor,
            started_at=time.time(),
        )
        self.ha = ha
        self.workers = workers
        self.queue_cap = queue_cap
        self.max_connections = max_connections
        self.header_timeout_s = header_timeout_s
        self.body_timeout_s = body_timeout_s
        self.idle_timeout_s = idle_timeout_s
        self.retry_after_s = retry_after_s
        self._host = host
        self._port = port
        # Loop-thread-only state (no locks needed: the event loop is the
        # single writer; other threads only read for telemetry).
        self.rejected = 0  # requests answered 503 by backpressure
        self.connections_rejected = 0  # connections refused at the cap
        self.timeouts = 0  # slow-loris / idle cutoffs
        self.max_stall_ms = 0.0  # worst watchdog scheduling drift
        self._inflight = 0
        self._connections = 0
        self._loop: asyncio.AbstractEventLoop | None = None
        self._thread: threading.Thread | None = None
        self._server: asyncio.AbstractServer | None = None
        self._pool: ThreadPoolExecutor | None = None
        self._closing = False
        self._address: tuple[str, int] | None = None
        self._started = threading.Event()
        self._startup_error: BaseException | None = None
        if db.telemetry.enabled:
            db.telemetry.registry.add_collector(self._collect)

    # -- telemetry ---------------------------------------------------------

    def _collect(self, registry: Any) -> None:
        registry.counter(
            "repro_server_rejected_total",
            help="Requests and connections refused by backpressure (503)",
        ).value = self.rejected + self.connections_rejected
        registry.counter(
            "repro_server_timeouts_total",
            help="Connections cut off by slow-loris or idle timeouts",
        ).value = self.timeouts
        registry.gauge(
            "repro_server_connections",
            help="Open client connections on the async front end",
        ).set(self._connections)
        registry.gauge(
            "repro_server_inflight_requests",
            help="Requests queued or running on the worker pool",
        ).set(self._inflight)
        registry.gauge(
            "repro_server_loop_max_stall_ms",
            help="Worst event-loop scheduling drift observed (ms)",
        ).set(round(self.max_stall_ms, 3))

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        if self._address is None:
            raise RuntimeError("server not started")
        return self._address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> None:
        self._pool = ThreadPoolExecutor(
            max_workers=self.workers, thread_name_prefix="prometheus-worker"
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run, name="prometheus-aio", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=10):
            raise RuntimeError("async server failed to start in 10s")
        if self._startup_error is not None:
            raise RuntimeError(
                f"async server failed to start: {self._startup_error}"
            )

    def _run(self) -> None:
        loop = self._loop
        assert loop is not None
        asyncio.set_event_loop(loop)
        try:
            self._server = loop.run_until_complete(
                asyncio.start_server(self._client, self._host, self._port)
            )
        except BaseException as exc:  # bind failure, bad host, ...
            self._startup_error = exc
            self._started.set()
            loop.close()
            return
        sock = self._server.sockets[0]
        self._address = sock.getsockname()[:2]
        self._watch_last = loop.time()
        loop.call_later(_WATCH_INTERVAL, self._watchdog)
        self._started.set()
        try:
            loop.run_forever()
        finally:
            self._server.close()
            loop.run_until_complete(self._server.wait_closed())
            pending = asyncio.all_tasks(loop)
            for task in pending:
                task.cancel()
            if pending:
                loop.run_until_complete(
                    asyncio.gather(*pending, return_exceptions=True)
                )
            loop.close()

    def _watchdog(self) -> None:
        """Measure the loop's scheduling drift (== time the loop was
        blocked by something that should have been on a worker)."""
        loop = self._loop
        assert loop is not None
        now = loop.time()
        stall_ms = (now - self._watch_last - _WATCH_INTERVAL) * 1000.0
        if stall_ms > self.max_stall_ms:
            self.max_stall_ms = stall_ms
        self._watch_last = now
        if not self._closing:
            loop.call_later(_WATCH_INTERVAL, self._watchdog)

    def stop(self) -> None:
        loop = self._loop
        if loop is None or self._closing:
            return
        self._closing = True

        def _shutdown() -> None:
            for task in asyncio.all_tasks(loop):
                task.cancel()
            loop.call_soon(loop.stop)

        loop.call_soon_threadsafe(_shutdown)
        if self._thread is not None:
            self._thread.join(timeout=5)
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)

    def __enter__(self) -> "AsyncPrometheusServer":
        self.start()
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()

    # -- per-connection protocol -------------------------------------------

    async def _client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._connections >= self.max_connections:
            self.connections_rejected += 1
            try:
                writer.write(
                    _render(
                        _overloaded(self.retry_after_s), keep_alive=False
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        self._connections += 1
        queue: asyncio.Queue = asyncio.Queue(_PIPELINE_DEPTH)
        writer_task = asyncio.ensure_future(self._writer(queue, writer))
        try:
            first = True
            while not self._closing:
                try:
                    item = await self._read_request(reader, first=first)
                except asyncio.TimeoutError:
                    self.timeouts += 1
                    if not first or not reader.at_eof():
                        await queue.put((_completed(_timeout_408()), False))
                    break
                except (
                    ConnectionError, OSError, asyncio.IncompleteReadError
                ):
                    break  # the client went away, mid-request or not
                first = False
                if item is None:  # clean EOF between requests
                    break
                request, keep_alive = item
                if isinstance(request, Response):  # parse-level rejection
                    await queue.put((_completed(request), False))
                    break
                await queue.put((self._dispatch(request), keep_alive))
                if not keep_alive:
                    break
        except asyncio.CancelledError:
            pass
        finally:
            try:
                await queue.put(None)
                await writer_task
            except asyncio.CancelledError:
                writer_task.cancel()
            try:
                writer.close()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
            self._connections -= 1

    async def _read_request(
        self, reader: asyncio.StreamReader, first: bool
    ) -> "tuple[Request | Response, bool] | None":
        """Parse one HTTP request off the stream.

        Returns ``None`` on clean EOF, a ``(Request, keep_alive)`` pair
        normally, or a ``(Response, False)`` pair when the bytes are
        unserviceable (parse error, oversized).  Raises
        ``asyncio.TimeoutError`` on idle or slow-loris cutoff and
        ``asyncio.IncompleteReadError`` when the body is cut short.
        """
        headers: dict[str, str] = {}
        try:
            # The request line may take a while to *start* (keep-alive
            # reuse is idle time, not an attack) but once a request is
            # in flight its whole head must complete promptly.
            with _Deadline(
                self.idle_timeout_s if not first else self.header_timeout_s
            ):
                line = await reader.readline()
            if not line:
                return None
            if len(line) > _MAX_HEAD_BYTES:
                return _bad_request("request line too long"), False
            parts = line.decode("latin-1").split()
            if len(parts) != 3:
                return _bad_request("malformed request line"), False
            method, target, version = parts
            head_bytes = len(line)
            with _Deadline(self.header_timeout_s):
                while True:
                    raw = await reader.readline()
                    if raw in (b"\r\n", b"\n", b""):
                        break
                    head_bytes += len(raw)
                    if head_bytes > _MAX_HEAD_BYTES:
                        return _bad_request("request head too large"), False
                    text = raw.decode("latin-1").rstrip("\r\n")
                    name, sep, value = text.partition(":")
                    if sep:
                        headers[name.strip().lower()] = value.strip()
        except ValueError:  # a line longer than the StreamReader's limit
            return _bad_request("request head too large"), False
        try:
            length = int(headers.get("content-length", "0") or 0)
        except ValueError:
            return _bad_request("invalid Content-Length"), False
        if length < 0 or length > _MAX_BODY_BYTES:
            return _bad_request("request body too large"), False
        body = b""
        if length:
            with _Deadline(self.body_timeout_s):
                body = await reader.readexactly(length)
        connection = headers.get("connection", "").lower()
        if version.upper() == "HTTP/1.0":
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        return Request(method, target, headers, body), keep_alive

    def _dispatch(self, request: Request) -> Awaitable[Response]:
        """Answer a response-cache hit right here on the loop; bridge
        anything else onto the worker pool — or reject it now."""
        hit = self.handlers.serve_cached(request)
        if hit is not None:
            return _completed(hit)
        if self._inflight >= self.queue_cap:
            self.rejected += 1
            return _completed(_overloaded(self.retry_after_s))
        self._inflight += 1
        loop = self._loop
        assert loop is not None and self._pool is not None
        future = loop.run_in_executor(
            self._pool, self.handlers.handle, request
        )
        future.add_done_callback(self._request_done)
        return future

    def _request_done(self, _future: "asyncio.Future[Response]") -> None:
        self._inflight -= 1

    async def _writer(
        self, queue: asyncio.Queue, writer: asyncio.StreamWriter
    ) -> None:
        """Drain responses in request order (the pipelining contract)."""
        try:
            while True:
                item = await queue.get()
                if item is None:
                    return
                awaitable, keep_alive = item
                try:
                    response = await awaitable
                except asyncio.CancelledError:
                    raise
                except Exception as exc:  # pragma: no cover - defensive
                    response = Response(
                        status=500,
                        body=json.dumps(
                            {"error": f"{type(exc).__name__}: {exc}"},
                            indent=2,
                        ).encode("utf-8"),
                    )
                writer.write(_render(response, keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionError, OSError):
            return  # client went away mid-response


class _Deadline:
    """Cut the awaits of one ``with`` block off after ``seconds``.

    ``asyncio.timeout`` for Python 3.10: a timer cancels the current
    task and the block turns that cancellation into
    ``asyncio.TimeoutError``.  Unlike ``asyncio.wait_for`` it starts no
    Task, so a whole request head costs one timer however many lines
    it has.
    """

    def __init__(self, seconds: float) -> None:
        self._seconds = seconds
        self._expired = False

    def __enter__(self) -> None:
        self._task = asyncio.current_task()
        self._timer = asyncio.get_running_loop().call_later(
            self._seconds, self._expire
        )

    def _expire(self) -> None:
        self._expired = True
        self._task.cancel()

    def __exit__(self, exc_type: Any, *_: object) -> None:
        self._timer.cancel()
        if self._expired and exc_type is asyncio.CancelledError:
            # Ours alone becomes a timeout; if the task was also
            # cancelled from outside (3.11+ can tell), that one wins.
            uncancel = getattr(self._task, "uncancel", None)
            if uncancel is None or uncancel() == 0:
                raise asyncio.TimeoutError from None


def _completed(response: Response) -> "asyncio.Future[Response]":
    future: asyncio.Future = asyncio.get_running_loop().create_future()
    future.set_result(response)
    return future


def _overloaded(retry_after_s: int) -> Response:
    return Response(
        status=503,
        body=json.dumps(
            {"error": "server overloaded; retry later"}, indent=2
        ).encode("utf-8"),
        headers=[("Retry-After", str(retry_after_s))],
    )


def _bad_request(message: str) -> Response:
    return Response(
        status=400,
        body=json.dumps({"error": message}, indent=2).encode("utf-8"),
    )


def _timeout_408() -> Response:
    return Response(
        status=408,
        body=json.dumps(
            {"error": "request timed out before it completed"}, indent=2
        ).encode("utf-8"),
    )


def _render(response: Response, keep_alive: bool) -> bytes:
    reason = _REASONS.get(response.status, "Unknown")
    head = [
        f"HTTP/1.1 {response.status} {reason}",
        f"Content-Type: {response.content_type}",
        f"Content-Length: {len(response.body)}",
        f"Connection: {'keep-alive' if keep_alive else 'close'}",
    ]
    head.extend(f"{name}: {value}" for name, value in response.headers)
    return (
        ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + response.body
    )
