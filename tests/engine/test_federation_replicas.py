"""Replica-aware federation reads: off-load, staleness floors, breakers.

Stub clients (duck-typed :class:`RemoteDatabase`) make every routing
decision deterministic: who answered (``served_by``), why a replica was
skipped (stale, lagging the caller's ``min_lsn``, no LSN at all,
failing), that a failing replica trips only its *own*
``node/replica`` breaker while the primary keeps serving, and how a
followed promotion rewires the node.  One real primary/replica pair
pins the LSN a replica's ``/query`` reports.
"""

import pytest

from repro.engine import AsyncPrometheusServer
from repro.engine.federation import (
    Federation,
    FederationError,
    RemoteDatabase,
)
from repro.replication import LogShipper
from tests.replication.conftest import make_primary, make_replica


class StubPrimary:
    def __init__(self, name: str, commit_lsn: int = 1000) -> None:
        self.name = name
        self.commit_lsn = commit_lsn
        self.queries = 0
        self.status_calls = 0

    def query(self, text, params=None):
        self.queries += 1
        return f"{self.name}:primary"

    def replication_status(self):
        self.status_calls += 1
        return {"role": "primary", "commit_lsn": self.commit_lsn}

    def query_with_lsn(self, text, params=None):
        # Registered as a read replica, a node about to be promoted.
        return self.query(text, params), self.commit_lsn


class StubReplica:
    def __init__(self, name: str, lsn: int | None, fail: bool = False) -> None:
        self.name = name
        self.lsn = lsn
        self.fail = fail
        self.queries = 0

    def query_with_lsn(self, text, params=None):
        self.queries += 1
        if self.fail:
            raise FederationError(f"{self.name}: connection refused")
        return f"{self.name}:replica", self.lsn


@pytest.fixture
def fed():
    federation = Federation(retry=None)
    federation.primary = StubPrimary("alpha", commit_lsn=1000)
    federation.add_node("alpha", federation.primary)  # type: ignore[arg-type]
    return federation


def one(results):
    assert len(results) == 1
    assert results[0].ok, results[0].error
    return results[0]


class TestRegistration:
    def test_replica_for_unknown_node_rejected(self, fed):
        with pytest.raises(FederationError, match="unknown federation node"):
            fed.add_read_replica("omega", "r1", StubReplica("r1", 10))

    def test_remove_node_clears_replica_breakers(self, fed):
        replica = StubReplica("r1", lsn=None, fail=True)
        fed.add_read_replica("alpha", "r1", replica)
        fed.query_all_reads("q")  # trips a failure on alpha/r1
        assert fed.breaker("alpha/r1").consecutive_failures == 1
        fed.remove_node("alpha")
        assert "alpha" not in fed.nodes
        assert "alpha/r1" not in fed._breakers
        # Re-adding the node starts its replicas from a clean slate.
        fed.add_node("alpha", fed.primary)
        assert fed.breaker("alpha/r1").consecutive_failures == 0


class TestRouting:
    def test_fresh_replica_serves_the_read(self, fed):
        replica = StubReplica("r1", lsn=1000)
        fed.add_read_replica("alpha", "r1", replica)
        result = one(fed.query_all_reads("q"))
        assert result.result == "r1:replica"
        assert result.served_by == "alpha/r1"
        assert fed.primary.queries == 0

    def test_no_replicas_means_primary(self, fed):
        result = one(fed.query_all_reads("q"))
        assert result.result == "alpha:primary"
        assert result.served_by == "alpha"

    def test_stale_replica_falls_back_under_bound(self, fed):
        replica = StubReplica("r1", lsn=100)
        fed.add_read_replica("alpha", "r1", replica)
        # Unbounded: any LSN is fine, the replica serves, and no probe
        # of the primary's head is needed.
        for unbounded in (None, float("inf")):
            result = one(fed.query_all_reads("q", staleness_bytes=unbounded))
            assert result.served_by == "alpha/r1"
        assert fed.primary.status_calls == 0
        # Bounded: floor = 1000 - 50 = 950 > 100 — the primary serves,
        # and the healthy-but-stale replica's breaker is untouched.
        result = one(fed.query_all_reads("q", staleness_bytes=50))
        assert result.served_by == "alpha"
        assert result.result == "alpha:primary"
        assert fed.breaker("alpha/r1").consecutive_failures == 0
        assert fed.primary.status_calls >= 1

    def test_min_lsn_floor_enforces_read_your_writes(self, fed):
        replica = StubReplica("r1", lsn=100)
        fed.add_read_replica("alpha", "r1", replica)
        assert one(fed.query_all_reads("q", min_lsn=500)).served_by == "alpha"
        assert one(fed.query_all_reads("q", min_lsn=80)).served_by == "alpha/r1"
        # A floor beyond even the primary's head (a commit LSN from a
        # newer primary, mid-failover) still gets the primary's answer.
        result = one(fed.query_all_reads("q", min_lsn=10_000))
        assert result.served_by == "alpha"
        assert result.result == "alpha:primary"

    def test_lsn_less_replica_never_serves_bounded_reads(self, fed):
        # A node predating replication reports no LSN; it cannot prove
        # freshness, so the primary answers.
        fed.add_read_replica("alpha", "r1", StubReplica("r1", lsn=None))
        assert one(fed.query_all_reads("q")).served_by == "alpha"

    def test_replica_order_and_fallback_across_replicas(self, fed):
        r1 = StubReplica("r1", lsn=100)
        fed.add_read_replica("alpha", "r1", r1)
        fed.add_read_replica("alpha", "r2", StubReplica("r2", lsn=1000))
        # r1 is tried first (name order) but is too stale; r2 serves.
        result = one(fed.query_all_reads("q", staleness_bytes=50))
        assert result.served_by == "alpha/r2"
        assert result.result == "r2:replica"
        # A zero bound demands exact catch-up: one byte behind is stale.
        r1.lsn = 999
        result = one(fed.query_all_reads("q", staleness_bytes=0))
        assert result.served_by == "alpha/r2"


class TestBreakerIsolation:
    def test_failing_replica_trips_own_breaker_only(self, fed):
        replica = StubReplica("r1", lsn=1000, fail=True)
        fed.add_read_replica("alpha", "r1", replica)
        for _ in range(fed.breaker_threshold):
            result = one(fed.query_all_reads("q"))
            assert result.served_by == "alpha"  # fell back every time
        assert fed.breaker("alpha/r1").state == "open"
        assert fed.breaker("alpha").state == "closed"
        # With the breaker open the replica is not even called.
        calls = replica.queries
        assert one(fed.query_all_reads("q")).served_by == "alpha"
        assert replica.queries == calls
        # Every replica failing (r1 refused, r2 erroring) still serves.
        erroring = StubReplica("r2", lsn=1000, fail=True)
        fed.add_read_replica("alpha", "r2", erroring)
        assert one(fed.query_all_reads("q")).served_by == "alpha"
        assert erroring.queries == 1

    def test_recovered_replica_resumes_serving(self, fed):
        replica = StubReplica("r1", lsn=1000, fail=True)
        fed.add_read_replica("alpha", "r1", replica)
        fed.query_all_reads("q")
        assert fed.breaker("alpha/r1").consecutive_failures == 1
        replica.fail = False
        result = one(fed.query_all_reads("q"))
        assert result.served_by == "alpha/r1"
        assert fed.breaker("alpha/r1").consecutive_failures == 0


class TestFollowPromotion:
    def test_promoted_replica_takes_the_node_slot(self, fed):
        deposed = fed.primary
        promoted = StubPrimary("r1", commit_lsn=1000)
        fed.add_read_replica("alpha", "r1", promoted)
        fed.add_read_replica("alpha", "r2", StubReplica("r2", lsn=1000))
        fed.breaker("alpha").record_failure()
        fed.breaker("alpha/r1").record_failure()

        fed.follow_promotion("alpha", "r1")

        assert fed.nodes["alpha"] is promoted
        assert sorted(fed.replicas["alpha"]) == ["r2"]
        assert fed.breaker("alpha").consecutive_failures == 0
        assert fed.breaker("alpha/r1").consecutive_failures == 0
        assert deposed not in fed.endpoints().values()
        # Reads go to the remaining replica or, past its LSN, to the
        # promoted node; the deposed primary is never asked again.
        assert one(fed.query_all_reads("q")).served_by == "alpha/r2"
        result = one(fed.query_all_reads("q", min_lsn=2000))
        assert (result.served_by, result.result) == ("alpha", "r1:primary")
        assert deposed.queries == 0
        with pytest.raises(FederationError, match="no read replica"):
            fed.follow_promotion("alpha", "r1")


def commit_entry(db, key):
    txn = db.transactions.begin()
    txn.create("Entry", key=key, value=0)
    txn.commit()
    return txn.commit_lsn


class TestReportedLsn:
    def test_replica_query_reports_an_lsn_its_answer_is_not_older_than(
        self, tmp_path
    ):
        primary = make_primary(tmp_path)
        with AsyncPrometheusServer(
            primary, shipper=LogShipper(primary.store)
        ) as pserver:
            rdb, applier, client = make_replica(
                tmp_path, RemoteDatabase(pserver.url), "r1"
            )
            try:
                with AsyncPrometheusServer(
                    rdb, replica_client=client, primary_url=pserver.url
                ) as rserver:
                    commit_entry(primary, "a")
                    client.catch_up()
                    frame_lsn = commit_entry(primary, "b")  # one frame behind
                    read = applier.query

                    def read_then_pull(*args, **kwargs):
                        result = read(*args, **kwargs)
                        client.pull_once()  # lands once the read is done
                        return result

                    applier.query = read_then_pull
                    result, lsn = RemoteDatabase(rserver.url).query_with_lsn(
                        "select e.key from e in Entry order by e.key"
                    )
                    assert result == ["a"]
                    assert applier.applied_lsn == frame_lsn
                    assert lsn < frame_lsn
            finally:
                rdb.close()
        primary.close()
