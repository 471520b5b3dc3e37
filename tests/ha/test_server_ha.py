"""HTTP surface of the HA subsystem: health probes, /ha/*, fenced 409s.

A real primary + replica over loopback, each with an
:class:`HAController` wired into its server.  Pins the liveness and
readiness probes, the promotion/demotion endpoints, the 409 fencing
answers (stale pull, fenced write, demoted session) and the
semi-synchronous ``wait_replicated`` commit option.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.engine import AsyncPrometheusServer, PrometheusDB
from repro.engine.federation import RemoteDatabase
from repro.ha import HAController
from repro.replication import (
    BASE_LSN,
    LogShipper,
    ReplicaApplier,
    ReplicationClient,
)

from .conftest import declare, make_primary, write_entry


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


def commit_via_sessions(url, key, value, extra=None):
    _, body = request(url + "/session", "POST", {})
    sid = body["session"]
    status, body = request(
        f"{url}/session/{sid}/apply",
        "POST",
        {"ops": [{"op": "create", "class": "Entry",
                  "attrs": {"key": key, "value": value}}]},
    )
    if status != 200:
        return status, body
    return request(f"{url}/session/{sid}/commit", "POST", extra or {})


@pytest.fixture
def topology(tmp_path):
    primary = make_primary(tmp_path)
    shipper = LogShipper(primary.store)
    pha = HAController(primary, "p", shipper=shipper)

    replica = PrometheusDB(tmp_path / "replica.plog", read_only=True)
    declare(replica)
    replica.load()
    applier = ReplicaApplier(replica)

    with AsyncPrometheusServer(primary, ha=pha) as pserver:
        client = ReplicationClient(
            applier,
            RemoteDatabase(pserver.url),
            name="r1",
            poll_wait_s=0.5,
        )
        rha = HAController(
            replica,
            "r1",
            replica_client=client,
            primary_url=pserver.url,
            make_transport=RemoteDatabase,
        )
        with AsyncPrometheusServer(replica, ha=rha) as rserver:
            try:
                yield pserver, rserver, primary, replica, pha, rha
            finally:
                if rha.replica_client is not None:
                    rha.replica_client.stop()
                client.stop()
    replica.close()
    primary.close()


class TestHealthProbes:
    def test_liveness_is_cheap_and_role_aware(self, topology):
        pserver, rserver, *_ = topology
        status, body = request(pserver.url + "/health/liveness")
        assert status == 200
        assert body["status"] == "alive"
        assert body["role"] == "primary"
        assert body["epoch"] == 0
        assert body["uptime_s"] >= 0
        _, body = request(rserver.url + "/health/liveness")
        assert body["role"] == "replica"

    def test_readiness_splits_from_liveness(self, topology):
        pserver, rserver, _, _, _, rha = topology
        status, body = request(pserver.url + "/health/readiness")
        assert status == 200 and body["ready"] is True
        # The replica's pull loop has not started: alive, NOT ready.
        status, body = request(rserver.url + "/health/liveness")
        assert status == 200
        status, body = request(rserver.url + "/health/readiness")
        assert status == 503
        assert body["reasons"] == ["pull-loop-stopped"]
        rha.replica_client.start()
        status, body = request(rserver.url + "/health/readiness")
        assert status == 200 and body["ready"] is True

    def test_fenced_node_is_alive_but_not_ready(self, topology):
        pserver, *_ = topology
        request(
            pserver.url + "/ha/demote",
            "POST",
            {"epoch": 1, "primary_url": "http://next"},
        )
        status, body = request(pserver.url + "/health/liveness")
        assert status == 200 and body["role"] == "fenced"
        status, body = request(pserver.url + "/health/readiness")
        assert status == 503 and "fenced" in body["reasons"]

    def test_ha_status_endpoint(self, topology):
        pserver, *_ = topology
        status, body = request(pserver.url + "/ha/status")
        assert status == 200
        assert body["name"] == "p"
        assert body["role"] == "primary"
        assert body["writes_allowed"] is True

    def test_ha_routes_404_without_controller(self, tmp_path):
        db = make_primary(tmp_path, "plain")
        try:
            with AsyncPrometheusServer(db) as server:
                status, _ = request(server.url + "/ha/status")
                assert status == 404
                status, _ = request(
                    server.url + "/ha/promote", "POST", {"epoch": 1}
                )
                assert status == 404
        finally:
            db.close()


class TestFailoverOverHttp:
    def test_promote_demote_roundtrip(self, topology):
        pserver, rserver, primary, replica, pha, rha = topology
        write_entry(primary, "pre", 1)
        rha.replica_client.catch_up()

        status, body = request(
            rserver.url + "/ha/promote", "POST", {"epoch": 1}
        )
        assert status == 200
        assert body["promoted"] is True and body["epoch"] == 1
        # The ex-replica now accepts writes over its session API.
        status, body = commit_via_sessions(rserver.url, "post", 2)
        assert status == 200 and body["committed"] is True

        status, body = request(
            pserver.url + "/ha/demote",
            "POST",
            {"epoch": 1, "primary_url": rserver.url},
        )
        assert status == 200
        # The deposed primary answers writes with the typed 409.
        status, body = commit_via_sessions(pserver.url, "rejected", 3)
        assert status == 409
        assert body["stale_primary"] is True
        assert body["epoch"] == 1
        assert body["primary_url"] == rserver.url
        assert body["retry"] is True

    def test_promote_rejects_stale_epoch_with_409(self, topology):
        _, rserver, _, _, _, rha = topology
        request(rserver.url + "/ha/promote", "POST", {"epoch": 3})
        status, body = request(
            rserver.url + "/ha/promote", "POST", {"epoch": 2}
        )
        assert status == 409
        assert body["status"] == "stale-primary"
        assert body["epoch"] == 3

    def test_stale_pull_gets_409_and_fences(self, topology):
        pserver, _, primary, *_ = topology
        write_entry(primary, "a", 1)
        status, body = request(
            pserver.url + "/replicate/pull",
            "POST",
            {"from_lsn": BASE_LSN, "epoch": 5},
        )
        assert status == 409
        assert body["status"] == "stale-primary"
        assert body["epoch"] == 5
        # Hearing from a higher reign is proof of deposition: the
        # primary self-fences rather than keep accepting writes.
        _, body = request(pserver.url + "/health/liveness")
        assert body["role"] == "fenced"

    def test_bad_ha_fields_are_400(self, topology):
        pserver, *_ = topology
        status, _ = request(
            pserver.url + "/ha/promote", "POST", {"epoch": "soon"}
        )
        assert status == 400


class TestDemotedSessions:
    def test_demoted_session_gets_typed_409(self, tmp_path):
        # No HA controller here: the writes_allowed() gate is absent, so
        # a poisoned session reaches commit and the typed demotion
        # answer (rather than a generic unknown-session error) is what
        # the client sees.
        db = make_primary(tmp_path, "solo")
        try:
            with AsyncPrometheusServer(db) as server:
                _, body = request(server.url + "/session", "POST", {})
                sid = body["session"]
                request(
                    f"{server.url}/session/{sid}/apply",
                    "POST",
                    {"ops": [{"op": "create", "class": "Entry",
                              "attrs": {"key": "k", "value": 1}}]},
                )
                db.sessions.demote_all(4, "http://successor")
                status, body = request(
                    f"{server.url}/session/{sid}/commit", "POST", {}
                )
                assert status == 409
                assert body["demoted"] is True
                assert body["epoch"] == 4
                assert body["primary_url"] == "http://successor"
                assert body["retry"] is True
        finally:
            db.close()


class TestSemiSyncCommit:
    def test_wait_replicated_acks_after_pull(self, topology):
        pserver, _, _, replica, _, rha = topology
        rha.replica_client.start()
        status, body = commit_via_sessions(
            pserver.url,
            "acked",
            1,
            extra={"wait_replicated": 1, "wait_timeout_s": 10.0},
        )
        assert status == 200
        assert body["replicated"] is True
        assert replica.store.commit_lsn >= body["commit_lsn"]

    def test_wait_replicated_times_out_without_replicas(self, topology):
        pserver, *_ = topology
        status, body = commit_via_sessions(
            pserver.url,
            "unacked",
            1,
            extra={"wait_replicated": 1, "wait_timeout_s": 0.3},
        )
        assert status == 200
        assert body["committed"] is True  # durable locally either way
        assert body["replicated"] is False
