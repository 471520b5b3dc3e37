"""Threaded stress: lost updates rejected, history serial-equivalent.

The acceptance scenario for the concurrency subsystem: ≥8 concurrent
writer sessions hammer shared counters; every lost-update attempt must
be rejected with ConflictError, the committed state must equal what a
serial execution of the successful commits would produce, and /metrics
must report the conflicts.
"""

import json
import threading
import time
import urllib.request

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.engine import AsyncPrometheusServer, PrometheusDB
from repro.errors import ConflictError

WRITERS = 8
INCREMENTS = 20


def make_db(path=None, sync=False):
    db = PrometheusDB(path, sync=sync)
    db.schema.define_class(
        "Counter", [Attribute("label", T.STRING), Attribute("n", T.INTEGER)]
    )
    return db


def increment_with_retry(db, oid, stats, lock, delay=0.0):
    """The canonical optimistic-concurrency client loop.

    ``delay`` widens the read-to-commit window: real clients do work
    between reading and writing, and without it the GIL serializes the
    tiny windows so well that contention barely occurs.
    """
    while True:
        txn = db.begin()
        value = txn.get(oid)["n"]
        if delay:
            time.sleep(delay)
        txn.set(oid, "n", value + 1)
        try:
            txn.commit()
        except ConflictError:
            with lock:
                stats["conflicts"] += 1
            continue
        with lock:
            stats["commits"] += 1
        return


class TestLostUpdates:
    def test_shared_counter_serial_equivalence(self):
        """8 writers × 20 increments on ONE counter: the classic
        lost-update anvil.  Unserialized, the final value would fall
        short; with first-committer-wins + retry it lands exactly."""
        db = make_db()
        oid = db.schema.create("Counter", label="shared", n=0).oid
        db.commit()
        stats = {"commits": 0, "conflicts": 0}
        lock = threading.Lock()
        barrier = threading.Barrier(WRITERS)

        def worker():
            barrier.wait()
            for _ in range(INCREMENTS):
                increment_with_retry(db, oid, stats, lock, delay=0.0003)

        threads = [threading.Thread(target=worker) for _ in range(WRITERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = WRITERS * INCREMENTS
        assert db.schema.get_object(oid).get("n") == expected
        assert stats["commits"] == expected
        # With 8 writers interleaving on one object, contention is
        # certain — and every lost update must have been rejected.
        assert stats["conflicts"] > 0
        assert db.transactions.stats.conflicts == stats["conflicts"]
        assert db.transactions.stats.committed >= expected
        assert db.transactions.active_count == 0
        assert not db.schema.in_txn_scope
        assert db.rules.deferred_depth == 0
        assert db.check_integrity() == []

    def test_multi_object_stress(self):
        """Writers spread over a handful of objects: partial contention,
        same invariant — no increment may ever be silently lost."""
        db = make_db()
        oids = [
            db.schema.create("Counter", label=str(i), n=0).oid
            for i in range(3)
        ]
        db.commit()
        stats = {"commits": 0, "conflicts": 0}
        lock = threading.Lock()
        barrier = threading.Barrier(WRITERS)

        def worker(worker_id):
            barrier.wait()
            for i in range(INCREMENTS):
                increment_with_retry(
                    db, oids[(worker_id + i) % len(oids)], stats, lock
                )

        threads = [
            threading.Thread(target=worker, args=(w,))
            for w in range(WRITERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        total = sum(db.schema.get_object(o).get("n") for o in oids)
        assert total == WRITERS * INCREMENTS
        assert db.check_integrity() == []

    def test_durable_stress_survives_reload(self, tmp_path):
        """Same anvil with sync=True: group commit must not trade away
        correctness — a reload sees every committed increment."""
        path = tmp_path / "stress.plog"
        db = make_db(path, sync=True)
        oid = db.schema.create("Counter", label="shared", n=0).oid
        db.commit()
        stats = {"commits": 0, "conflicts": 0}
        lock = threading.Lock()
        barrier = threading.Barrier(WRITERS)

        def worker():
            barrier.wait()
            for _ in range(5):
                increment_with_retry(db, oid, stats, lock)

        threads = [threading.Thread(target=worker) for _ in range(WRITERS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        expected = WRITERS * 5
        assert db.schema.get_object(oid).get("n") == expected
        db.close()

        db2 = make_db(path)
        db2.load()
        assert db2.schema.get_object(oid).get("n") == expected
        assert db2.check_integrity() == []
        db2.close()


class TestSessionsOverHttp:
    def test_conflicts_visible_in_metrics(self):
        """Concurrent HTTP sessions racing on one object: the losers
        get 409s and /metrics reports the conflict count."""
        db = make_db()
        oid = db.schema.create("Counter", label="shared", n=0).oid
        db.commit()
        conflicts = {"n": 0}
        lock = threading.Lock()

        with AsyncPrometheusServer(db) as server:
            url = server.url

            def post(path, payload=None):
                request = urllib.request.Request(
                    url + path,
                    data=json.dumps(payload or {}).encode(),
                    headers={"Content-Type": "application/json"},
                )
                try:
                    with urllib.request.urlopen(request, timeout=10) as r:
                        return r.status, json.load(r)
                except urllib.error.HTTPError as err:
                    return err.code, json.loads(err.read())

            barrier = threading.Barrier(WRITERS)

            def worker():
                status, body = post("/session")
                assert status == 201
                sid = body["session"]
                barrier.wait()
                for i in range(3):
                    while True:
                        status, body = post(
                            f"/session/{sid}/apply",
                            {"ops": [{"op": "get", "oid": oid}]},
                        )
                        assert status == 200
                        n = body["results"][0]["values"]["n"]
                        status, body = post(
                            f"/session/{sid}/apply",
                            {
                                "ops": [
                                    {
                                        "op": "set",
                                        "oid": oid,
                                        "attr": "n",
                                        "value": n + 1,
                                    }
                                ]
                            },
                        )
                        assert status == 200
                        status, body = post(f"/session/{sid}/commit")
                        if status == 200:
                            break
                        assert status == 409
                        assert body["conflict"] is True
                        with lock:
                            conflicts["n"] += 1

            threads = [
                threading.Thread(target=worker) for _ in range(WRITERS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()

            expected = WRITERS * 3
            assert db.schema.get_object(oid).get("n") == expected
            assert conflicts["n"] > 0

            with urllib.request.urlopen(url + "/metrics", timeout=5) as r:
                text = r.read().decode()
            lines = {
                line.split(" ")[0]: line.split(" ")[-1]
                for line in text.splitlines()
                if line and not line.startswith("#")
            }
            assert int(lines["repro_txn_conflicts_total"]) == conflicts["n"]
            assert int(lines["repro_txn_commits_total"]) >= expected
            assert int(lines["repro_sessions_active"]) == WRITERS
