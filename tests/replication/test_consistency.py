"""Seeded consistency stress: 4 writers + 8 readers across replicas.

Each seed serves a primary and two live pull-replicating replicas
through :class:`~repro.engine.aserver.AsyncPrometheusServer`; the
replicas pull over HTTP with :meth:`RemoteDatabase.pull
<repro.engine.federation.RemoteDatabase.pull>`, and every read goes
through :meth:`Federation.query_all_reads
<repro.engine.federation.Federation.query_all_reads>` over
``RemoteDatabase`` clients — the production read path.  Rounds of 4
writer threads (disjoint key sets, so per-key order is total) and 8
reader threads (random staleness bounds; some write first and then
demand read-your-writes via ``min_lsn``) record every client-visible
operation into a :class:`~tests.replication.checker.History`, which
:func:`~tests.replication.checker.verify` judges after the round joins.
Any violation is shrunk to its minimal core before failing.

3 fixed seeds x 70 rounds = 210 verified histories per run (+70 more
from the ``GITHUB_RUN_ID``-derived seed in CI).
"""

import os
import threading

import pytest

from . import checker
from .checker import History, ReadRec, Violation, WriteRec, UNBOUNDED
from .conftest import make_primary, make_replica
from repro.engine import AsyncPrometheusServer
from repro.engine.federation import Federation, RemoteDatabase
from repro.replication import LogShipper

FIXED_SEEDS = (20260806, 1337, 424242)
ROUNDS = 70
SEEDS = checker.derive_seeds(FIXED_SEEDS, os.environ.get("GITHUB_RUN_ID"))
BOUNDS = (0.0, 64.0, 256.0, 4096.0, UNBOUNDED)


class TestCheckerSelfTest:
    """The checker must catch planted violations and shrink to them."""

    def _clean_history(self):
        return History(
            writes=[
                WriteRec("k", 1, lsn=100, writer="w0"),
                WriteRec("k", 2, lsn=200, writer="w0"),
                WriteRec("j", 9, lsn=150, writer="w1"),
            ],
            reads=[
                ReadRec("k", 2, "r1", 210, 210, 220),
                ReadRec("k", 1, "r2", 150, 160, 170, bound=UNBOUNDED),
                ReadRec("j", None, "r1", 120, 130, 140, bound=UNBOUNDED),
            ],
        )

    def test_consistent_history_has_no_violations(self):
        assert checker.verify(self._clean_history()) == []

    def test_stale_node_detected(self):
        h = self._clean_history()
        h.reads.append(ReadRec("k", 2, "r1", 90, 210, 220, bound=50.0))
        kinds = [v.kind for v in checker.verify(h)]
        assert "stale-node" in kinds

    def test_stale_read_detected(self):
        # Bound 10 around primary LSN 250 admits only value 2; seeing 1
        # violates the staleness bound.
        h = self._clean_history()
        h.reads.append(ReadRec("k", 1, "r1", 245, 250, 260, bound=10.0))
        kinds = [v.kind for v in checker.verify(h)]
        assert kinds == ["stale-read"]

    def test_read_your_writes_detected(self):
        # The session committed value 2 at LSN 200 and said min_lsn=200;
        # seeing value 1 afterwards breaks read-your-writes.
        h = self._clean_history()
        h.reads.append(ReadRec("k", 1, "r1", 205, 210, 220, min_lsn=200))
        report = checker.verify(h)
        assert [v.kind for v in report] == ["stale-read"]

    def test_phantom_detected(self):
        h = self._clean_history()
        h.reads.append(ReadRec("k", 777, "r1", 210, 210, 220))
        kinds = [v.kind for v in checker.verify(h)]
        assert kinds == ["phantom"]

    def test_future_read_detected(self):
        # Value 2 only exists from LSN 200, but the read's window closed
        # at 180 — the replica served data from the future of its own
        # reported LSN (e.g. a torn batch became visible early).
        h = self._clean_history()
        h.reads.append(ReadRec("k", 2, "r1", 150, 160, 180, bound=UNBOUNDED))
        kinds = [v.kind for v in checker.verify(h)]
        assert kinds == ["future-read"]

    def test_missing_write_detected_for_none_read(self):
        # Bound 50 around primary LSN 250 puts the floor at 200, past
        # the key's first write — "not found" is no longer an answer.
        h = self._clean_history()
        h.reads.append(ReadRec("k", None, "r1", 250, 250, 260, bound=50.0))
        kinds = [v.kind for v in checker.verify(h)]
        assert kinds == ["stale-read"]

    def test_unbounded_none_read_is_legal(self):
        # With no staleness bound and no read-your-writes floor, an
        # empty replica may legally answer "not found".
        h = self._clean_history()
        h.reads.append(ReadRec("k", None, "r1", 250, 250, 260))
        assert checker.verify(h) == []

    def test_shrinker_reduces_to_minimal_core(self):
        h = self._clean_history()
        h.reads.append(ReadRec("k", 777, "r1", 210, 210, 220))
        minimal = checker.shrink(h, lambda c: bool(checker.verify(c)))
        # One phantom read, zero supporting writes, is the whole story.
        assert len(minimal.reads) == 1
        assert minimal.reads[0].value == 777
        assert minimal.writes == []
        assert "phantom" in checker.minimal_violation(h)

    def test_shrinker_keeps_required_writes(self):
        # A stale read needs the two writes that bracket the window to
        # stay violating; the shrinker must keep the newer write (which
        # ends value 1's validity) and may drop everything else.
        h = History(
            writes=[
                WriteRec("k", 1, lsn=100),
                WriteRec("k", 2, lsn=200),
                WriteRec("unrelated", 5, lsn=120),
            ],
            reads=[
                ReadRec("k", 1, "r1", 245, 250, 260, bound=10.0),
                ReadRec("k", 2, "r1", 255, 250, 260),
            ],
        )
        still_stale = lambda c: any(  # noqa: E731 - tiny predicate
            v.kind == "stale-read" for v in checker.verify(c)
        )
        minimal = checker.shrink(h, still_stale)
        assert len(minimal.reads) == 1
        assert minimal.reads[0].value == 1
        # Both writes are load-bearing: the first creates value 1, the
        # second ends its validity before the window; only the
        # unrelated-key write gets dropped.
        assert [(w.key, w.value) for w in sorted(minimal.writes, key=lambda w: w.lsn)] == [
            ("k", 1),
            ("k", 2),
        ]


class RecordingClient(RemoteDatabase):
    """A federation client whose query answers carry the LSN the
    endpoint reported: the federation passes results through untouched,
    so the harness can record the serving endpoint's LSN as evidence."""

    def query_with_lsn(self, text, params=None):
        result, lsn = super().query_with_lsn(text, params)
        return (result, lsn), lsn

    def query(self, text, params=None):
        return self.query_with_lsn(text, params)[0]


class Harness:
    """One seed's topology: a primary and two live replicas, each behind
    its own HTTP server, read through one :class:`Federation` node."""

    WRITERS = 4
    READERS = 8
    KEYS_PER_WRITER = 3

    def __init__(self, tmp_path, seed: int) -> None:
        self.rng = checker.make_rng(seed)
        self.seed = seed
        self.primary = make_primary(tmp_path, f"primary-{seed}")
        self.servers = [
            AsyncPrometheusServer(
                self.primary, shipper=LogShipper(self.primary.store)
            )
        ]
        self.servers[0].start()
        primary_url = self.servers[0].url
        self.federation = Federation()
        self.federation.add_node("primary", RecordingClient(primary_url))
        self.replicas = []
        for i in range(2):
            rdb, applier, client = make_replica(
                tmp_path, RemoteDatabase(primary_url), f"replica-{i}"
            )
            client.poll_wait_s = 0.2
            client.start()
            server = AsyncPrometheusServer(
                rdb, replica_client=client, primary_url=primary_url
            )
            server.start()
            self.servers.append(server)
            self.federation.add_read_replica(
                "primary", f"replica-{i}", RecordingClient(server.url)
            )
            self.replicas.append((rdb, applier, client))
        self.replica_reads = 0
        self.oids: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.writes: list[WriteRec] = []

    def close(self) -> None:
        for _, _, client in self.replicas:
            client.stop()
            client.transport.close()
        for endpoint in self.federation.endpoints().values():
            endpoint.close()
        for server in self.servers:
            server.stop()
        for rdb, _, _ in self.replicas:
            rdb.close()
        self.primary.close()

    # -- one recorded write -------------------------------------------------

    def write(self, key: str, who: str) -> WriteRec:
        value = self.counters.get(key, 0) + 1
        self.counters[key] = value
        txn = self.primary.transactions.begin()
        oid = self.oids.get(key)
        if oid is None:
            oid = txn.create("Entry", key=key, value=value)
        else:
            txn.set(oid, "value", value)
        txn.commit()
        self.oids[key] = oid
        record = WriteRec(key, value, lsn=txn.commit_lsn, writer=who)
        self.writes.append(record)
        return record

    # -- one recorded, routed read -----------------------------------------

    def read(self, rng, key: str, who: str, min_lsn: int = 0) -> ReadRec:
        bound = rng.choice(BOUNDS)
        # Read before the call: the federation probes the primary's head
        # later, so its staleness floor is never below the checker's.
        pre = self.primary.store.commit_lsn
        [answer] = self.federation.query_all_reads(
            f'select e.value from e in Entry where e.key = "{key}"',
            None,
            staleness_bytes=bound,
            min_lsn=min_lsn,
        )
        post = self.primary.store.commit_lsn
        assert answer.ok, answer.error
        rows, node_lsn = answer.result
        if answer.served_by != "primary":
            self.replica_reads += 1
        return ReadRec(
            key=key,
            value=rows[0] if rows else None,
            node=answer.served_by,
            node_lsn=node_lsn,
            primary_lsn=pre,
            post_lsn=post,
            bound=bound,
            min_lsn=min_lsn,
            reader=who,
        )

    # -- one round: 4 writers + 8 readers, then verify ----------------------

    def round(self, round_no: int) -> History:
        reads: list[ReadRec] = []
        failures: list[BaseException] = []
        writer_keys = [
            [f"w{w}-k{j}" for j in range(self.KEYS_PER_WRITER)]
            for w in range(self.WRITERS)
        ]
        all_keys = [k for keys in writer_keys for k in keys]

        def writer(w: int, rng) -> None:
            try:
                for _ in range(rng.randint(1, 3)):
                    self.write(rng.choice(writer_keys[w]), who=f"w{w}")
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        def reader(r: int, rng) -> None:
            try:
                name = f"r{r}"
                for _ in range(rng.randint(1, 3)):
                    min_lsn = 0
                    key = rng.choice(all_keys)
                    if rng.random() < 0.25:
                        # Write through our own key, then insist on
                        # reading our own write back (min_lsn floor).
                        key = f"{name}-own"
                        min_lsn = self.write(key, who=name).lsn
                    reads.append(self.read(rng, key, name, min_lsn=min_lsn))
            except BaseException as exc:  # noqa: BLE001 - reported below
                failures.append(exc)

        threads = [
            threading.Thread(
                target=writer,
                args=(w, checker.make_rng(self.rng.getrandbits(64))),
            )
            for w in range(self.WRITERS)
        ] + [
            threading.Thread(
                target=reader,
                args=(r, checker.make_rng(self.rng.getrandbits(64))),
            )
            for r in range(self.READERS)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive(), f"round {round_no} wedged"
        if failures:
            raise failures[0]
        return History(writes=list(self.writes), reads=reads)


@pytest.mark.parametrize("seed", SEEDS)
def test_seeded_consistency(tmp_path, seed):
    harness = Harness(tmp_path, seed)
    try:
        for round_no in range(ROUNDS):
            history = harness.round(round_no)
            violations = checker.verify(history)
            if violations:
                pytest.fail(
                    f"seed {seed} round {round_no}: "
                    f"{len(violations)} violation(s)\n"
                    + checker.minimal_violation(history)
                )
        # Quiesce: after a final catch-up every replica is a
        # byte-identical copy of the primary.
        want = harness.primary.store.fingerprint()
        for rdb, _, client in harness.replicas:
            client.stop()
            client.catch_up()
            assert rdb.store.fingerprint() == want
        assert harness.replica_reads > 0, "no read was ever served by a replica"
    finally:
        harness.close()


def test_history_volume_meets_floor():
    """The suite verifies >= 200 seeded histories per full run."""
    assert len(FIXED_SEEDS) * ROUNDS >= 200
