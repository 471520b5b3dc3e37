"""The transaction manager: validation, serialization, group commit.

One :class:`TransactionManager` guards one schema.  It owns

* the **commit lock** — replays are applied to the shared object layer
  one transaction at a time, which is what makes the committed history
  serial-equivalent;
* the **version table** — per-OID commit timestamps backing snapshot
  validation: a committing transaction conflicts exactly when some OID
  in its *write set* was committed after the transaction's snapshot
  (write-write, first committer wins — raises
  :class:`~repro.errors.ConflictError`; reads never conflict unless
  the transaction opted into ``validate_reads=True``);
* the **commit clock** — monotonic commit timestamps, published
  atomically with the commit LSN as the ``(ts, lsn)`` snapshot pair
  new transactions begin at;
* the **MVCC store** (:mod:`repro.mvcc`) — every commit appends its
  records to per-OID version chains at the commit LSN, so snapshot
  reads resolve lock-free and ``as_of`` time travel works;
* the **group-commit handoff** — with a durable store, the fsync is
  deferred to the store's shared gate and awaited *outside* the commit
  lock, so concurrent committers share one fsync while the next
  transaction is already replaying.

Commit pipeline (per transaction, under the commit lock):

1. validate the write set (and read set when requested) against the
   transaction's snapshot timestamp;
2. open a journal scope on the schema + a deferred-rule scope on the
   rule engine, then replay the op log — immediate rules veto exactly
   as they would for direct mutations;
3. publish ``BEFORE_COMMIT``: the transaction's own deferred rules run;
   a violation rolls back just this scope ("abort the whole
   transaction", §5.2.2) and re-raises;
4. flush the touched objects through :meth:`Schema.flush` (commit
   marker appended, fsync deferred), stamp versions with a fresh
   commit timestamp, append the flushed records to the version chains
   at the commit LSN and publish the new ``(ts, lsn)`` snapshot pair
   (:meth:`_publish`), then ``AFTER_COMMIT``;
5. release the lock, then wait on the group-commit gate for
   durability.

The *implicit session* (direct schema mutations + ``db.commit()``)
stays supported: :meth:`commit_implicit` routes it through the same
commit lock, version table, flush and :meth:`_publish`, so managed
transactions detect conflicts with it too.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import TYPE_CHECKING, Any, Iterator

from ..core.events import Event, EventKind
from ..core.schema import Flushed, Schema
from ..errors import ConflictError, TransactionError
from ..telemetry import DISABLED, NULL_SPAN, Telemetry
from .transaction import Transaction, TxnState

if TYPE_CHECKING:  # pragma: no cover
    from ..mvcc import MvccStore
    from ..rules.engine import RuleEngine
    from ..storage.store import ObjectStore


class TxnStats:
    """Authoritative counters, maintained under the manager's locks."""

    def __init__(self) -> None:
        self.begun = 0
        self.committed = 0
        self.aborted = 0
        self.conflicts = 0
        self.empty_commits = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "begun": self.begun,
            "committed": self.committed,
            "aborted": self.aborted,
            "conflicts": self.conflicts,
            "empty_commits": self.empty_commits,
        }


class TransactionManager:
    """Session-scoped MVCC-style transactions over one schema.

    Args:
        schema: the shared object layer.
        rules: the schema's rule engine, if any — used to scope the
            deferred-rule queue to the committing transaction.
        store: the persistent store, if any — used for group commit.
        telemetry: facade for txn metrics and ``txn.commit`` spans.
        mvcc: the version chains every commit appends to.
    """

    def __init__(
        self,
        schema: Schema,
        mvcc: "MvccStore",
        rules: "RuleEngine | None" = None,
        store: "ObjectStore | None" = None,
        telemetry: Telemetry | None = None,
    ) -> None:
        self.schema = schema
        self.rules = rules
        self.store = store
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self.mvcc = mvcc
        self._commit_lock = threading.RLock()
        self._state_lock = threading.Lock()
        self._versions: dict[int, int] = {}
        self._clock = 0
        self._txn_counter = 0
        self._active = 0
        self.stats = TxnStats()
        # The (commit ts, commit LSN) pair new transactions snapshot at.
        # Written as the last step of every commit (chains already hold
        # that commit's versions), read without the commit lock —
        # single-reference tuple swaps are atomic, so a beginner either
        # sees the whole commit or none of it.
        base_lsn = store.commit_lsn if store is not None else 0
        self._published: tuple[int, int] = (0, base_lsn)
        if store is not None:
            mvcc.gc.note_head(base_lsn)
        # A bare ``schema.commit()`` is this manager's implicit commit.
        schema.committer = self.commit_implicit

    # -- bookkeeping --------------------------------------------------------

    @property
    def active_count(self) -> int:
        return self._active

    @property
    def commit_ts(self) -> int:
        """Timestamp of the most recent commit (0 before any)."""
        return self._clock

    @property
    def published_snapshot(self) -> tuple[int, int]:
        """The ``(commit ts, LSN)`` pair new transactions begin at."""
        return self._published

    def publish_floor(self, lsn: int) -> None:
        """Reset the published LSN (bootstrap seed / resync point)."""
        self._published = (self._clock, lsn)

    def version_of(self, oid: int) -> int:
        """Commit timestamp of the last transaction that wrote ``oid``."""
        return self._versions.get(oid, 0)

    @contextmanager
    def read_lock(self) -> Iterator[None]:
        """Serialize a read of committed state against commit replays.

        Held only per-operation, never for a transaction's lifetime —
        this is what keeps the design optimistic rather than coarse.
        """
        with self._commit_lock:
            yield

    # -- beginning ----------------------------------------------------------

    def begin(self, validate_reads: bool = False) -> Transaction:
        """Start a managed transaction over a pinned snapshot.

        The snapshot is the last atomically-published ``(ts, lsn)``
        commit pair; pinning it keeps the version-chain GC from
        collecting anything this transaction can still read.  No lock
        is shared with committers on this path beyond the pin table's
        own mutex.
        """
        with self._state_lock:
            self._txn_counter += 1
            txn_id = self._txn_counter
            self._active += 1
            self.stats.begun += 1
        while True:
            snapshot_ts, snapshot_lsn = self._published
            pin = self.mvcc.pin(snapshot_lsn)
            if pin is not None:
                break
            # GC advanced its floor past the pair we read — only
            # possible when commits raced us, so a fresh read of the
            # published pair makes progress.
        tel = self.telemetry
        if tel.enabled:
            tel.registry.gauge(
                "repro_txn_active", help="Managed transactions in flight"
            ).set(self._active)
            tel.registry.counter(
                "repro_txn_begun_total", help="Managed transactions begun"
            ).inc()
        txn = Transaction(
            self,
            txn_id,
            validate_reads=validate_reads,
            snapshot_ts=snapshot_ts,
            snapshot_lsn=snapshot_lsn,
        )
        txn._pin = pin
        return txn

    def _note_finished(
        self, txn: Transaction, committed: bool, conflict: bool
    ) -> None:
        if txn._pin is not None:
            txn._pin.release()
            txn._pin = None
        with self._state_lock:
            self._active -= 1
            if committed:
                self.stats.committed += 1
            else:
                self.stats.aborted += 1
                if conflict:
                    self.stats.conflicts += 1
        tel = self.telemetry
        if tel.enabled:
            tel.registry.gauge("repro_txn_active").set(self._active)
            if committed:
                tel.registry.counter(
                    "repro_txn_commits_total",
                    help="Managed transactions committed",
                ).inc()
            else:
                tel.registry.counter(
                    "repro_txn_aborts_total",
                    help="Managed transactions aborted",
                ).inc()
                if conflict:
                    tel.registry.counter(
                        "repro_txn_conflicts_total",
                        help="Commits rejected by write-set validation",
                    ).inc()

    # -- committing ---------------------------------------------------------

    def commit(self, txn: Transaction) -> int:
        """Validate + replay + flush ``txn``; returns its commit ts."""
        tel = self.telemetry
        started = time.perf_counter_ns()
        span = (
            tel.tracer.span("txn.commit", txn=str(txn.txn_id))
            if tel.enabled
            else None
        )
        try:
            if span is not None:
                with span:
                    ts = self._commit_inner(txn)
            else:
                ts = self._commit_inner(txn)
        finally:
            if tel.enabled:
                tel.registry.histogram(
                    "repro_txn_commit_ms",
                    help="Managed-transaction commit latency (ms)",
                ).observe((time.perf_counter_ns() - started) / 1e6)
        return ts

    def _commit_inner(self, txn: Transaction) -> int:
        durability_token: int | None = None
        with self._commit_lock:
            if not txn.active:
                # An abort (e.g. session eviction) won the race to the
                # commit lock: the op log is gone.  Without this check
                # the empty-commit fast path would report success for a
                # transaction whose writes were just discarded.
                raise TransactionError(
                    f"transaction {txn.txn_id} is {txn.state.value}"
                )
            self._validate(txn)
            if txn.op_count == 0:
                # Read-only transaction: nothing to replay or flush.
                txn.state = TxnState.COMMITTED
                txn.commit_ts = self._clock
                self._note_finished(txn, committed=True, conflict=False)
                self.stats.empty_commits += 1
                return self._clock
            scope = self.schema.begin_txn_scope()
            if self.rules is not None:
                self.rules.push_deferred_scope()
            try:
                self._replay(txn)
                # The transaction's own deferred rules run now; an
                # ABORT-class violation calls schema.abort() (scope
                # rollback) inside the engine, then propagates.
                self.schema.events.publish(
                    Event(kind=EventKind.BEFORE_COMMIT)
                )
            except BaseException:
                scope.journal.rollback()  # a no-op if the engine did
                self.schema.events.publish(Event(kind=EventKind.AFTER_ABORT))
                self._finish_scope()
                txn.state = TxnState.ABORTED
                self._note_finished(txn, committed=False, conflict=False)
                raise
            try:
                self._clock += 1
                ts = self._clock
                durability_token, records, deletes, _ = self.schema.flush(
                    scope.touched
                )
                # Stamp both what the replay journalled AND the txn's
                # declared write set: relationship endpoints are written
                # logically (their edge sets change) without their own
                # undo entries, and shared-endpoint writers must still
                # conflict.
                for oid in set(scope.touched) | set(txn._write_versions):
                    self._versions[oid] = ts
                lsn = self._publish(ts, records, deletes)
                if self.store is not None:
                    # Still under the commit lock, so this is exactly
                    # this transaction's marker offset — the LSN a
                    # session needs for read-your-writes routing.
                    txn.commit_lsn = lsn
                self.schema.events.publish(Event(kind=EventKind.AFTER_COMMIT))
            finally:
                self._finish_scope()
            txn.state = TxnState.COMMITTED
            txn.commit_ts = ts
            self._note_finished(txn, committed=True, conflict=False)
        if durability_token is not None:
            # Outside the commit lock: the group-commit leader fsyncs
            # for every marker appended so far while the next committer
            # is already replaying.  The wait gets its own child span so
            # a slow trace distinguishes replay time from fsync time.
            tel = self.telemetry
            wait_span = (
                tel.tracer.span("txn.wait_durable")
                if tel.enabled
                else NULL_SPAN
            )
            with wait_span:
                self.store.wait_durable(durability_token)
        # Amortized GC outside the commit lock: prune versions no
        # pinned snapshot can reach anymore.
        self.mvcc.maybe_gc()
        return ts

    def _finish_scope(self) -> None:
        if self.rules is not None:
            self.rules.pop_deferred_scope()
        self.schema.end_txn_scope()

    def _validate(self, txn: Transaction) -> None:
        """Write-write snapshot validation (first committer wins).

        A conflict is an OID in the write set committed by someone else
        *after this transaction's snapshot*.  Reads never conflict —
        snapshot reads are consistent by construction — unless the
        transaction opted into ``validate_reads=True``, which applies
        the same post-snapshot test to the read set.
        """
        snapshot_ts = txn.snapshot_ts
        versions = self._versions
        stale = [
            oid
            for oid in txn._write_versions
            if versions.get(oid, 0) > snapshot_ts
        ]
        if txn.validate_reads:
            stale.extend(
                oid
                for oid in txn._read_versions
                if oid not in txn._write_versions
                and versions.get(oid, 0) > snapshot_ts
            )
        if stale:
            txn.state = TxnState.ABORTED
            self._note_finished(txn, committed=False, conflict=True)
            raise ConflictError(stale)

    def _replay(self, txn: Transaction) -> None:
        """Apply the op log to the shared schema, events and all."""
        schema = self.schema
        for op in txn.ops:
            op.apply(schema)

    def _publish(
        self,
        ts: int,
        records: "dict[int, dict[str, Any]]",
        deletes: "list[int]",
        meta: "dict[str, Any] | None" = None,
    ) -> int:
        """Append one commit's flushed records to the version chains and
        publish its ``(ts, lsn)`` pair; returns the LSN.

        The only place either happens, for managed and implicit commits
        alike.  Chains first, then the atomic publish: a transaction
        beginning at this snapshot must be able to resolve every
        version the pair implies.  The metadata record rides along when
        the flush wrote one — that is how classification membership
        gets its version history.  Caller holds the commit lock.
        """
        # In-memory databases have no log: the clock is the LSN domain.
        lsn = self.store.commit_lsn if self.store is not None else ts
        if meta is not None:
            records = {**records, self.schema.meta_oid: meta}
        self.mvcc.apply_commit(lsn, records, deletes)
        self._published = (ts, lsn)
        return lsn

    # -- the implicit session ----------------------------------------------

    def commit_implicit(self) -> Flushed:
        """Commit direct (non-managed) schema mutations.

        Runs :meth:`Schema.commit` under the commit lock and stamps
        versions for everything it flushed, so managed transactions
        racing the implicit session still conflict.  Also what a bare
        ``schema.commit()`` runs (``Schema.committer``).  Returns what
        was flushed.
        """
        with self._commit_lock:
            flushed = self.schema.commit(_locked=True)
            _, records, deletes, meta = flushed
            # Meta-only commits (classification edits, synonym changes)
            # must advance the clock too: the in-memory LSN domain *is*
            # the clock, and two different meta states may never share
            # one LSN in the version chains.
            if records or deletes or meta is not None:
                self._clock += 1
            ts = self._clock
            for oid in (*records, *deletes):
                self._versions[oid] = ts
            self._publish(ts, records, deletes, meta)
        self.mvcc.maybe_gc()
        return flushed

    # -- introspection ------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        return self.stats.snapshot() | {
            "active": self._active,
            "commit_ts": self._clock,
            "versioned_oids": len(self._versions),
            "snapshot_lsn": self._published[1],
        }
