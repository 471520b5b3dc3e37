"""Replica-side replication: apply shipped batches, serve reads.

A replica is a normal :class:`~repro.engine.database.PrometheusDB` whose
store was opened ``read_only`` and whose log grows only by
:meth:`~repro.storage.store.ObjectStore.apply_replicated`.  Three pieces
live here:

* :class:`RWLock` — many concurrent readers (POOL queries) or one
  writer (the applier).  Queries therefore always see a commit-boundary
  snapshot: a half-applied batch is never query-visible.
* :class:`ReplicaApplier` — splices a decoded frame into the store and
  refreshes the object layer *incrementally*: each changed record goes
  through the schema's event-free ``install`` / ``evict`` (the boot
  loader's own path), so no rules fire — they already fired on the
  primary — and attribute indexes are patched in place.
* :class:`ReplicationClient` — the pull loop: long-polls the primary
  (via any transport with the shipper's ``pull`` signature — a
  :class:`~repro.engine.federation.RemoteDatabase` over HTTP or an
  in-process :class:`~repro.replication.stream.LogShipper`), applies
  frames, resets and re-syncs from scratch when the primary reports
  divergence (e.g. it compacted).
"""

from __future__ import annotations

import random
import threading
import time
import zlib
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from ..errors import DivergedError, ReplicationError, StalePrimaryError
from ..storage.store import AppliedBatch
from ..telemetry import NULL_SPAN, Telemetry
from .stream import BASE_LSN, PREFIX_CRC_WINDOW, decode_frame

if TYPE_CHECKING:  # pragma: no cover
    from ..engine.database import PrometheusDB


class RWLock:
    """Readers-writer lock: queries share, the applier excludes."""

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False

    @contextmanager
    def read(self) -> Iterator[None]:
        with self._cond:
            while self._writer:
                self._cond.wait()
            self._readers += 1
        try:
            yield
        finally:
            with self._cond:
                self._readers -= 1
                if self._readers == 0:
                    self._cond.notify_all()

    @contextmanager
    def write(self) -> Iterator[None]:
        with self._cond:
            while self._writer or self._readers:
                self._cond.wait()
            self._writer = True
        try:
            yield
        finally:
            with self._cond:
                self._writer = False
                self._cond.notify_all()


class ReplicaApplier:
    """Applies replicated batches to a replica database in place."""

    def __init__(
        self, db: "PrometheusDB", telemetry: Telemetry | None = None
    ) -> None:
        if db.store is None:
            raise ReplicationError("a replica needs a persistent store")
        self.db = db
        self.telemetry = (
            telemetry if telemetry is not None else db.telemetry
        )
        self.lock = RWLock()
        self.batches_applied = 0
        self.bytes_applied = 0
        self.resyncs = 0
        self.last_apply_at = 0.0
        self._epoch_seen = 0

    @property
    def known_epoch(self) -> int:
        """Highest cluster epoch this replica has witnessed.

        The max of what the log itself records (epoch stamps replicate
        as META entries) and what frames/promotions have told us — the
        latter can lead the former while a promotion's stamp is still
        in flight.
        """
        store = self.db.store
        assert store is not None
        return max(store.cluster_epoch, self._epoch_seen)

    def observe_epoch(self, epoch: int) -> None:
        if epoch > self._epoch_seen:
            self._epoch_seen = epoch

    # -- reads -------------------------------------------------------------

    @contextmanager
    def read_lock(self) -> Iterator[None]:
        """Hold this around queries for a commit-boundary snapshot."""
        with self.lock.read():
            yield

    def query(
        self,
        text: str,
        params: dict[str, Any] | None = None,
        as_of: int | None = None,
    ) -> Any:
        """Evaluate a query at a commit boundary (or at ``as_of``).

        Live reads take the RWLock so a half-applied batch is never
        visible.  ``as_of`` reads skip the lock entirely: version
        chains at a pinned LSN are immutable, so the applier can keep
        splicing while the query runs — and the same LSN returns
        byte-identical results here and on the primary.
        """
        if as_of is not None:
            return self.db.query(text, params=params, as_of=as_of)
        with self.lock.read():
            return self.db.query(text, params=params, as_of=as_of)

    @property
    def applied_lsn(self) -> int:
        return self.db.store.commit_lsn  # type: ignore[union-attr]

    # -- applying ----------------------------------------------------------

    def apply_frame(self, frame: bytes) -> AppliedBatch | None:
        """Decode, validate and apply one shipped frame.

        Duplicate delivery is tolerated (the overlap is trimmed); a gap
        — the frame starts past this log's end — raises, because
        splicing it would corrupt byte identity.  A frame from a cluster
        epoch *older* than the highest this replica has witnessed is a
        deposed primary still shipping: it is rejected with
        :class:`~repro.errors.StalePrimaryError` (fencing).
        """
        from_lsn, to_lsn, payload, epoch = decode_frame(frame)
        known = self.known_epoch
        if epoch < known:
            raise StalePrimaryError(
                f"frame from epoch {epoch} rejected: this replica has "
                f"witnessed epoch {known}",
                epoch=known,
            )
        self.observe_epoch(epoch)
        store = self.db.store
        assert store is not None
        started = time.perf_counter_ns()
        with self.lock.write():
            position = store.replication_position
            if to_lsn <= position:
                return None  # duplicate; already applied
            if from_lsn > position:
                raise ReplicationError(
                    f"replication gap: frame starts at {from_lsn}, "
                    f"log ends at {position}"
                )
            if from_lsn < position:
                payload = payload[position - from_lsn:]
            batch = store.apply_replicated(payload)
            self._refresh_model(batch)
            self._feed_mvcc(batch)
        self.batches_applied += 1
        self.bytes_applied += len(payload)
        self.last_apply_at = time.monotonic()
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter(
                "repro_replication_batches_applied_total",
                help="Shipped batches applied by this replica",
            ).inc()
            tel.registry.counter(
                "repro_replication_bytes_applied_total",
                help="Log payload bytes applied by this replica",
            ).inc(len(payload))
            tel.registry.histogram(
                "repro_replication_apply_ms",
                help="Batch apply latency, model refresh included (ms)",
            ).observe((time.perf_counter_ns() - started) / 1e6)
        return batch

    def _refresh_model(self, batch: AppliedBatch) -> None:
        """Patch the object layer to match the newly applied commits.

        Every changed record goes through the object layer's event-free
        ``install`` / ``evict`` — the same pair a booting database loads
        with — so rules do not re-fire for changes that already ran
        their course on the primary, and nothing is marked dirty (a
        replica has nothing to flush).  Attribute indexes follow through
        ``note_removed`` / ``note_installed``, and a batch that carries
        the metadata record re-reads the classifications and trace log.
        """
        schema = self.db.schema
        indexes = self.db.indexes
        meta = False
        for oid, fields in batch.changes:
            if schema.has_object(oid):
                indexes.note_removed(schema.get_object(oid))
            if fields is None:
                schema.evict(oid)
                continue
            obj = schema.install(oid, fields)
            if obj is None:
                meta = True
            else:
                indexes.note_installed(obj)
        if meta:
            self.db.reread_metadata()

    def _feed_mvcc(self, batch: AppliedBatch) -> None:
        """Stamp the replica's version chains with the batch's commits.

        Each commit is appended at the *primary's* LSN for it (the
        marker's end offset — identical here because the log is a
        byte-identical prefix), so ``as_of`` time travel resolves the
        same versions on every node.  Called under the write lock.
        """
        mvcc = self.db.mvcc
        for lsn, commit_changes in batch.commits:
            writes: dict[int, dict[str, Any]] = {}
            deletes: list[int] = []
            for oid, fields in commit_changes:
                if fields is None:
                    deletes.append(oid)
                else:
                    writes[oid] = fields
            mvcc.apply_commit(lsn, writes, deletes)
        if batch.commits:
            self.db.transactions.publish_floor(batch.commit_lsn)
            mvcc.maybe_gc()

    def reset(self) -> None:
        """Divergence recovery: drop all replicated state, start empty.

        The primary rewrote its log (compaction), so byte offsets no
        longer line up; the only safe move for a prefix-replica is a
        full re-sync from LSN :data:`~repro.replication.stream.BASE_LSN`.
        MVCC history is dropped with it — old LSNs name offsets in a
        log that no longer exists.
        """
        schema = self.db.schema
        store = self.db.store
        assert store is not None
        self.db.release_snapshots()
        with self.lock.write():
            schema.clear()
            for index in self.db.indexes.indexes():
                index.fill(())
            store.reset_for_resync()
            self.db.mvcc.reset(store.commit_lsn)
        self.resyncs += 1
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter(
                "repro_replication_resyncs_total",
                help="Full re-syncs forced by primary divergence",
            ).inc()
            tel.events.record(
                "replication.reset",
                epoch=self.known_epoch,
                lsn=store.replication_position,
                resyncs=self.resyncs,
            )

    def status(self) -> dict[str, Any]:
        store = self.db.store
        assert store is not None
        return {
            "applied_lsn": store.commit_lsn,
            "replication_position": store.replication_position,
            "epoch": self.known_epoch,
            "batches_applied": self.batches_applied,
            "bytes_applied": self.bytes_applied,
            "resyncs": self.resyncs,
            "last_apply_age_s": (
                round(time.monotonic() - self.last_apply_at, 3)
                if self.last_apply_at
                else None
            ),
        }


class ReplicationClient:
    """The replica's pull loop: catch up, then long-poll forever.

    ``transport`` is anything with the shipper's ``pull`` signature,
    ``epoch`` included — a :class:`~repro.engine.federation.
    RemoteDatabase` against a remote primary, or a local
    :class:`~repro.replication.stream.LogShipper` for in-process tests
    (which is also how the fault-injection sweep drives torn batches
    deterministically).  Every pull carries this replica's known epoch,
    so a deposed primary is fenced on the first pull it serves.

    Failover: when the primary is fenced (``StalePrimaryError``) or
    stays unreachable for ``rediscover_after`` consecutive pulls, the
    loop calls the optional ``rediscover`` callback, which may return a
    new transport pointed at the promoted primary.  Error backoff is
    full-jitter (seeded deterministically from the replica name, or
    ``jitter_seed``) so a fleet of replicas does not stampede a
    recovering primary in lockstep.
    """

    def __init__(
        self,
        applier: ReplicaApplier,
        transport: Any,
        name: str = "replica",
        poll_wait_s: float = 10.0,
        error_backoff_s: float = 0.05,
        max_backoff_s: float = 2.0,
        rediscover: Any = None,
        rediscover_after: int = 3,
        jitter_seed: int | None = None,
    ) -> None:
        self.applier = applier
        self.transport = transport
        self.name = name
        self.poll_wait_s = poll_wait_s
        self.error_backoff_s = error_backoff_s
        self.max_backoff_s = max_backoff_s
        self.rediscover = rediscover
        self.rediscover_after = rediscover_after
        self.pull_errors = 0
        self.stale_primary_seen = 0
        self.failovers_followed = 0
        self.last_error: str | None = None
        if jitter_seed is None:
            jitter_seed = zlib.crc32(name.encode("utf-8"))
        self._rng = random.Random(jitter_seed)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._trace_handle: Any = None

    # -- one pull ----------------------------------------------------------

    def _position(self) -> int:
        store = self.applier.db.store
        assert store is not None
        return store.replication_position

    def _prefix_crc(self) -> int | None:
        position = self._position()
        if position <= BASE_LSN:
            return None
        store = self.applier.db.store
        assert store is not None
        window_start = max(BASE_LSN, position - PREFIX_CRC_WINDOW)
        return zlib.crc32(store.read_log_bytes(window_start, position))

    def pull_once(self, wait_s: float = 0.0) -> AppliedBatch | None:
        """One pull + apply; handles divergence by resetting.

        Returns the applied batch, or None when the primary had nothing
        new.  Raises :class:`~repro.errors.ReplicationError` on
        transport or frame errors (the loop retries; callers of the
        synchronous API see the failure).
        """
        tel = self.applier.telemetry
        span = (
            tel.tracer.span("replication.pull", replica=self.name)
            if tel.enabled
            else NULL_SPAN
        )
        with span:
            batch = self._pull_once_inner(wait_s, span)
        return batch

    def _pull_once_inner(self, wait_s: float, span: Any) -> AppliedBatch | None:
        status, frame = self.transport.pull(
            self._position(),
            prefix_crc=self._prefix_crc(),
            wait_s=wait_s,
            replica=self.name,
            epoch=self.applier.known_epoch,
        )
        span.set("status", status)
        if status == "empty":
            return None
        if status == "diverged":
            self.applier.reset()
            raise DivergedError(
                f"replica {self.name}: primary log diverged; "
                "reset for full re-sync"
            )
        if status == "stale-primary":
            # In-process shipper path: the peer detected it is deposed.
            raise StalePrimaryError(
                f"replica {self.name}: pull peer is fenced (deposed "
                "primary); rediscover the current primary",
                epoch=self.applier.known_epoch,
            )
        if status != "frame" or frame is None:
            raise ReplicationError(f"unexpected pull status {status!r}")
        position = self._position()
        batch = self.applier.apply_frame(frame)
        if self._position() == position:
            # A frame was shipped but nothing could be spliced: the
            # shipper cut the next log entry short, and retrying the
            # same pull would spin forever.
            raise ReplicationError(
                f"replica {self.name}: frame from {position} made no "
                "progress (the shipper split a log entry?)"
            )
        return batch

    def catch_up(self, deadline_s: float = 30.0) -> int:
        """Pull until the primary reports no new data; returns the
        applied LSN.  Divergence resets and keeps pulling."""
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline:
            try:
                if self.pull_once(wait_s=0.0) is None:
                    return self.applier.applied_lsn
            except DivergedError:
                continue  # reset already happened; restart from empty
        raise ReplicationError(
            f"replica {self.name}: catch-up exceeded {deadline_s}s"
        )

    # -- failover ----------------------------------------------------------

    def set_transport(self, transport: Any) -> None:
        """Re-point the pull loop at a different primary (promotion)."""
        self.transport = transport

    def _try_rediscover(self, reason: str) -> bool:
        """Ask ``rediscover`` for a fresh transport; True when re-pointed."""
        if self.rediscover is None:
            return False
        try:
            transport = self.rediscover(self)
        except Exception as exc:  # rediscovery must never kill the loop
            self.last_error = f"rediscovery failed ({reason}): {exc}"
            return False
        if transport is None:
            return False
        self.set_transport(transport)
        self.failovers_followed += 1
        tel = self.applier.telemetry
        if tel.enabled:
            tel.registry.counter(
                "repro_ha_failovers_followed_total",
                help="Times this replica re-pointed its pull loop at a "
                "newly discovered primary",
            ).inc()
        return True

    # -- the background loop ----------------------------------------------

    def start(self) -> None:
        if self._thread is not None and self._thread.is_alive():
            return
        self._stop.clear()
        # Capture the starter's trace position (a /ha/repoint request,
        # the CLI boot) so the loop's spans hang under it instead of
        # orphaning into per-pull root traces.
        self._trace_handle = self.applier.telemetry.tracer.capture()
        self._thread = threading.Thread(
            target=self._run, name=f"replication-{self.name}", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def _run(self) -> None:
        with self.applier.telemetry.tracer.attach(self._trace_handle):
            self._run_loop()

    def _run_loop(self) -> None:
        consecutive = 0
        while not self._stop.is_set():
            try:
                self.pull_once(wait_s=self.poll_wait_s)
            except DivergedError:
                consecutive = 0  # reset is progress
            except StalePrimaryError as exc:
                # The peer we pull from was deposed: rediscover NOW,
                # don't wait out a backoff ladder against a dead node.
                self.stale_primary_seen += 1
                self.last_error = str(exc)
                tel = self.applier.telemetry
                if tel.enabled:
                    tel.registry.counter(
                        "repro_ha_stale_primary_total",
                        help="Pulls rejected because the peer was a "
                        "deposed (fenced) primary",
                    ).inc()
                if exc.epoch:
                    self.applier.observe_epoch(exc.epoch)
                if not self._try_rediscover("stale-primary"):
                    if self._stop.wait(self._backoff(consecutive)):
                        return
                    consecutive += 1
            except ReplicationError as exc:
                self.pull_errors += 1
                consecutive += 1
                self.last_error = str(exc)
                tel = self.applier.telemetry
                if tel.enabled:
                    tel.registry.counter(
                        "repro_replication_pull_errors_total",
                        help="Failed pull attempts (transport or frame)",
                    ).inc()
                if (
                    consecutive >= self.rediscover_after
                    and self._try_rediscover("unreachable")
                ):
                    consecutive = 0
                    continue
                # Mid-stream reconnect: back off, then resume from our
                # own log end — the cursor is the file, nothing to redo.
                if self._stop.wait(self._backoff(consecutive - 1)):
                    return
            else:
                consecutive = 0
                self.last_error = None

    def _backoff(self, attempt: int) -> float:
        """Full-jitter backoff: uniform in [0, min(cap, base·2^n)]."""
        ceiling = min(
            self.max_backoff_s, self.error_backoff_s * (2 ** max(attempt, 0))
        )
        return self._rng.uniform(0, ceiling)

    def status(self) -> dict[str, Any]:
        return self.applier.status() | {
            "name": self.name,
            "running": self.running,
            "pull_errors": self.pull_errors,
            "stale_primary_seen": self.stale_primary_seen,
            "failovers_followed": self.failovers_followed,
            "last_error": self.last_error,
        }
