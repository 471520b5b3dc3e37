"""Every multi-node federation call is bounded by one deadline.

A stub node whose every call blocks on a :class:`threading.Event` stands
in for a herbarium machine that hangs mid-request.  Each fan-out —
queries, replica-aware reads, counts, the cluster metrics merge, the
classification inventory and the health report — must return while the
node is still stuck, report it with the marker that call has always
used, and count the miss against the node's circuit breaker only when
the call is breaker-guarded.  A timer releases the node after a few
seconds, so a call that waits for it fails instead of hanging.
"""

from __future__ import annotations

import threading

import pytest

from repro.engine.federation import Federation, FederationError

DEADLINE = 0.2
#: Long enough that a call which waited for the stuck node is obvious.
RELEASE_AFTER_S = 3.0


class LiveNode:
    url = "stub://live"

    def query(self, text, params=None):
        return [3]

    def query_with_lsn(self, text, params=None):
        return [3], 100

    def replication_status(self):
        return {"role": "primary", "commit_lsn": 100}

    def ha_status(self):
        raise FederationError("no HA controller")

    def metrics_text(self):
        return "repro_requests_total 2\n"

    def classifications(self):
        return ["live flora"]

    def ping(self):
        return True


class StuckNode:
    """Every call parks until ``release`` is set."""

    url = "stub://stuck"

    def __init__(self, release: threading.Event) -> None:
        self.release = release

    def _stuck(self, value):
        self.release.wait()
        return value

    def query(self, text, params=None):
        return self._stuck([5])

    def query_with_lsn(self, text, params=None):
        return self._stuck(([5], 100))

    def replication_status(self):
        return self._stuck({"role": "primary", "commit_lsn": 100})

    def metrics_text(self):
        return self._stuck("")

    def classifications(self):
        return self._stuck(["late flora"])

    def ping(self):
        return self._stuck(True)


@pytest.fixture
def stuck():
    """``(federation, release)`` — a live node and a stuck one."""
    release = threading.Event()
    timer = threading.Timer(RELEASE_AFTER_S, release.set)
    timer.start()
    federation = Federation(retry=None, deadline=DEADLINE)
    federation.add_node("live", LiveNode())  # type: ignore[arg-type]
    federation.add_node("stuck", StuckNode(release))  # type: ignore[arg-type]
    try:
        yield federation, release
    finally:
        timer.cancel()
        release.set()


def misses(federation: Federation) -> int:
    return federation.breaker("stuck").consecutive_failures


class TestGuardedCallsCountTheMiss:
    def test_query_all(self, stuck):
        federation, release = stuck
        results = {r.node: r for r in federation.query_all("q")}
        assert not release.is_set()
        assert results["live"].ok and results["live"].result == [3]
        assert not results["stuck"].ok
        assert results["stuck"].error == f"deadline exceeded after {DEADLINE}s"
        assert results["stuck"].elapsed == DEADLINE
        assert misses(federation) == 1
        assert federation.breaker("live").consecutive_failures == 0

    def test_query_all_reads(self, stuck):
        federation, release = stuck
        replica = LiveNode()
        federation.add_read_replica("live", "r1", replica)  # type: ignore[arg-type]
        results = {
            r.node: r
            for r in federation.query_all_reads("q", staleness_bytes=50)
        }
        assert not release.is_set()
        assert results["live"].served_by == "live/r1"
        assert not results["stuck"].ok
        assert "deadline exceeded" in results["stuck"].error
        assert results["stuck"].served_by == ""
        assert misses(federation) == 1

    def test_count_all(self, stuck):
        federation, release = stuck
        counts = federation.count_all("Taxon")
        assert not release.is_set()
        assert counts["live"] == 3
        assert counts["stuck"] == 0
        assert counts["__total__"] == 3
        assert counts["__partial__"] is True
        assert "deadline exceeded" in counts["__errors__"]["stuck"]
        assert misses(federation) == 1

    def test_classification_inventory(self, stuck):
        federation, release = stuck
        inventory = federation.classification_inventory()
        assert not release.is_set()
        assert inventory == {"live": ["live flora"], "stuck": []}
        assert misses(federation) == 1


class TestProbesBypassBreakers:
    def test_cluster_metrics(self, stuck):
        federation, release = stuck
        merged = federation.cluster_metrics()
        assert not release.is_set()
        assert merged["partial"] is True
        assert "deadline exceeded" in merged["errors"]["stuck"]
        assert merged["totals"] == {"repro_requests_total": 2.0}
        assert misses(federation) == 0

    def test_cluster_overview(self, stuck):
        federation, release = stuck
        overview = federation.cluster_overview()
        assert not release.is_set()
        assert "deadline exceeded" in overview["nodes"]["stuck"]["error"]
        assert overview["summary"]["primaries"] == ["live"]
        assert overview["summary"]["partial"] is True
        assert misses(federation) == 0

    def test_health_report(self, stuck):
        federation, release = stuck
        report = federation.health_report()
        assert not release.is_set()
        assert report["live"]["alive"] is True
        assert report["stuck"] == {
            "url": "stub://stuck",
            "alive": False,
            "breaker": "closed",
            "consecutive_failures": 0,
        }

    def test_alive(self, stuck):
        federation, release = stuck
        assert federation.alive() == {"live": True, "stuck": False}
        assert not release.is_set()
        assert misses(federation) == 0
