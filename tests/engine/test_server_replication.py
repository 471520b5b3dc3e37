"""HTTP wire surface of replication: a primary and a replica server.

A real two-server topology over loopback: the primary serves
``/replicate/pull`` from its :class:`LogShipper`; the replica runs a
:class:`ReplicationClient` over :class:`RemoteDatabase` and serves
read-only queries.  These tests pin the endpoints (frame/204/409
responses, role reporting, 403 on replica writes, LSN-stamped reads)
— transport-free replication semantics live in ``tests/replication``.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.engine import AsyncPrometheusServer, PrometheusDB
from repro.engine.federation import RemoteDatabase
from repro.replication import (
    BASE_LSN,
    LogShipper,
    ReplicaApplier,
    ReplicationClient,
    decode_frame,
)


def declare(db):
    db.schema.define_class(
        "Entry", [Attribute("key", T.STRING), Attribute("value", T.INTEGER)]
    )


def request(url, method="GET", payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=10) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def write_entry(db, key, value):
    txn = db.transactions.begin()
    txn.create("Entry", key=key, value=value)
    txn.commit()
    return txn.commit_lsn


@pytest.fixture
def topology(tmp_path):
    primary = PrometheusDB(tmp_path / "primary.plog")
    declare(primary)
    primary.load()
    shipper = LogShipper(primary.store)

    replica = PrometheusDB(tmp_path / "replica.plog", read_only=True)
    declare(replica)
    replica.load()
    applier = ReplicaApplier(replica)

    with AsyncPrometheusServer(primary, shipper=shipper) as pserver:
        client = ReplicationClient(
            applier, RemoteDatabase(pserver.url), name="r1",
            poll_wait_s=0.5,
        )
        with AsyncPrometheusServer(
            replica,
            replica_client=client,
            primary_url=pserver.url,
        ) as rserver:
            try:
                yield pserver, rserver, primary, replica, client
            finally:
                client.stop()
    replica.close()
    primary.close()


class TestPullEndpoint:
    def test_pull_returns_frame_bytes(self, topology):
        pserver, _, primary, *_ = topology
        write_entry(primary, "a", 1)
        body = json.dumps({"from_lsn": BASE_LSN, "replica": "r1"}).encode()
        req = urllib.request.Request(
            pserver.url + "/replicate/pull",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=10) as response:
            assert response.status == 200
            frame = response.read()
        from_lsn, to_lsn, payload, _ = decode_frame(frame)
        assert from_lsn == BASE_LSN
        assert to_lsn == primary.store.commit_lsn
        assert payload == primary.store.read_log_bytes(from_lsn, to_lsn)

    def test_pull_caught_up_is_204(self, topology):
        pserver, _, primary, *_ = topology
        body = json.dumps({"from_lsn": primary.store.commit_lsn}).encode()
        req = urllib.request.Request(
            pserver.url + "/replicate/pull",
            data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(req, timeout=10) as response:
            assert response.status == 204

    def test_pull_ahead_cursor_is_409(self, topology):
        pserver, _, primary, *_ = topology
        status, body = request(
            pserver.url + "/replicate/pull",
            "POST",
            {"from_lsn": primary.store.commit_lsn + 999},
        )
        assert status == 409
        assert body["status"] == "diverged"

    def test_pull_without_shipper_is_404(self, topology):
        _, rserver, *_ = topology
        status, _ = request(
            rserver.url + "/replicate/pull", "POST", {"from_lsn": BASE_LSN}
        )
        assert status == 404

    def test_pull_rejects_garbage_fields(self, topology):
        pserver, *_ = topology
        status, _ = request(
            pserver.url + "/replicate/pull", "POST", {"from_lsn": "soon"}
        )
        assert status == 400

    def test_max_bytes_never_splits_an_entry(self, topology, tmp_path):
        pserver, _, primary, *_ = topology
        write_entry(primary, "x" * 5000, 1)

        class SmallFrames(RemoteDatabase):
            def pull(self, from_lsn, **kwargs):
                return super().pull(from_lsn, **{**kwargs, "max_bytes": 1024})

        wide = PrometheusDB(tmp_path / "wide.plog", read_only=True)
        declare(wide)
        wide.load()
        transport = SmallFrames(pserver.url)
        try:
            ReplicationClient(
                ReplicaApplier(wide), transport, name="wide"
            ).catch_up(deadline_s=10.0)
            assert wide.store.fingerprint() == primary.store.fingerprint()
            assert wide.query("select count(e) from e in Entry") == [1]
        finally:
            transport.close()
            wide.close()


class TestEndToEnd:
    def test_replica_follows_and_serves_reads(self, topology):
        pserver, rserver, primary, replica, client = topology
        write_entry(primary, "shipped", 42)
        client.catch_up()
        assert replica.store.fingerprint() == primary.store.fingerprint()
        status, body = request(
            rserver.url + "/query",
            "POST",
            {"query": 'select e.value from e in Entry where e.key = "shipped"'},
        )
        assert status == 200
        assert body["result"] == [42]
        # Reads carry the LSN they reflect, on both roles.
        assert body["lsn"] == replica.store.commit_lsn
        status, body = request(
            pserver.url + "/query",
            "POST",
            {"query": "select count(e) from e in Entry"},
        )
        assert body["lsn"] == primary.store.commit_lsn

    def test_replica_refuses_writes_with_redirect(self, topology):
        pserver, rserver, *_ = topology
        status, body = request(rserver.url + "/session", "POST", {})
        sid = body["session"]
        for action in ("apply", "commit"):
            payload = {"ops": []} if action == "apply" else {}
            status, body = request(
                f"{rserver.url}/session/{sid}/{action}", "POST", payload
            )
            assert status == 403, action
            assert "read replica" in body["error"]
            assert body["primary_url"] == pserver.url

    def test_primary_commit_reports_lsn(self, topology):
        pserver, _, primary, *_ = topology
        _, body = request(pserver.url + "/session", "POST", {})
        sid = body["session"]
        request(
            f"{pserver.url}/session/{sid}/apply",
            "POST",
            {"ops": [{"op": "create", "class": "Entry",
                      "attrs": {"key": "s", "value": 7}}]},
        )
        status, body = request(
            f"{pserver.url}/session/{sid}/commit", "POST", {}
        )
        assert status == 200 and body["committed"]
        assert body["commit_lsn"] == primary.store.commit_lsn


class TestStatusSurfaces:
    def test_roles(self, topology):
        pserver, rserver, *_ = topology
        _, body = request(pserver.url + "/replicate/status")
        assert body["role"] == "primary"
        assert "shipping" in body
        _, body = request(rserver.url + "/replicate/status")
        assert body["role"] == "replica"
        assert body["primary_url"] == pserver.url
        assert "applying" in body

    def test_primary_health_reports_lag(self, topology):
        pserver, _, primary, _, client = topology
        write_entry(primary, "lagged", 1)
        client.catch_up()
        _, body = request(pserver.url + "/health")
        replication = body["replication"]
        assert replication["role"] == "primary"
        assert replication["lag_bytes"]["r1"] == 0
        assert replication["replicas"]["r1"]["pulls"] >= 1

    def test_replica_health_degraded_until_loop_runs(self, topology):
        _, rserver, _, _, client = topology
        _, body = request(rserver.url + "/health")
        assert body["status"] == "degraded"  # pull loop not started
        client.start()
        try:
            _, body = request(rserver.url + "/health")
            assert body["status"] == "ok"
            assert body["replication"]["applying"]["running"] is True
        finally:
            client.stop()

    def test_background_loop_end_to_end(self, topology):
        import time

        _, rserver, primary, replica, client = topology
        client.start()
        try:
            write_entry(primary, "live", 9)
            target = primary.store.commit_lsn
            for _ in range(200):
                if replica.store.commit_lsn >= target:
                    break
                time.sleep(0.05)
            status, body = request(
                rserver.url + "/query",
                "POST",
                {"query": 'select e.value from e in Entry '
                          'where e.key = "live"'},
            )
            assert body["result"] == [9]
        finally:
            client.stop()
