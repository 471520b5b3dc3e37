"""The persistent object store: OID-addressed records with transactions.

This is the *underlying storage system* in the sense of the thesis's
performance evaluation (§7.2): the Prometheus model layers (objects,
relationships, classifications, rules) are built on top of it, and the
benchmark suite measures the cost those layers add over the bare store.

Design
------
* One append-only :class:`~repro.storage.log.RecordLog` file holds all
  state.  An in-memory index maps each live OID to the file offset of its
  most recent record.
* Transactions are strictly serial (single-writer).  A transaction appends
  its data records immediately, but the index is only updated when the
  commit marker is durably appended; recovery replays the log and ignores
  any entries not followed by their commit marker, so a torn tail is safe.
* Records are plain dicts of storable values (see
  :mod:`repro.storage.serialization`); the store knows nothing about the
  object model above it.
"""

from __future__ import annotations

import copy
import hashlib
import os
import struct
import threading
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator

from ..core.identity import OidAllocator
from ..errors import StorageError, TransactionError, UnknownOidError
from .cache import LruCache
from .faults import FaultPlan, InjectedFault
from .log import (
    HEADER,
    KIND_COMMIT,
    KIND_DATA,
    KIND_META,
    KIND_TOMBSTONE,
    LogEntry,
    RecordLog,
)
from .serialization import decode_record, encode_record

_TOMB_STRUCT = struct.Struct(">QQ")  # (txn_id, oid)

#: KIND_META payload tag for a cluster-epoch stamp (HA fencing).  The
#: epoch lives *inside* the log rather than in the file header so that
#: replicas — whose logs are byte-identical prefixes of the primary's —
#: learn it through ordinary replication, at the exact log position the
#: promotion happened.
_EPOCH_TAG = b"EPOCH\x00"
_EPOCH_STRUCT = struct.Struct(">Q")


def _decode_epoch_meta(payload: bytes) -> int | None:
    """The epoch carried by a META payload, or None for other metadata."""
    if (
        payload.startswith(_EPOCH_TAG)
        and len(payload) == len(_EPOCH_TAG) + _EPOCH_STRUCT.size
    ):
        return _EPOCH_STRUCT.unpack_from(payload, len(_EPOCH_TAG))[0]
    return None


#: KIND_META payload tag for a shard-map stamp.  Like the cluster
#: epoch it travels in the log so replicas learn topology changes at
#: the exact position the rebalance committed: big-endian epoch, then
#: the JSON shard-map blob.
_SHARD_TAG = b"SHARD\x00"


def _decode_shard_meta(payload: bytes) -> tuple[int, bytes] | None:
    """(epoch, blob) from a shard-map META payload, or None."""
    head = len(_SHARD_TAG) + _EPOCH_STRUCT.size
    if payload.startswith(_SHARD_TAG) and len(payload) >= head:
        epoch = _EPOCH_STRUCT.unpack_from(payload, len(_SHARD_TAG))[0]
        return epoch, bytes(payload[head:])
    return None


@dataclass(frozen=True)
class RecoveryReport:
    """What recovery found and did — the store's inspectable contract.

    ``corrupt_regions`` lists the (start, end) byte ranges the salvage
    scan skipped mid-log; ``salvaged_entries`` counts entries recovered
    *after* the first such region (zero under prefix-only recovery).
    ``bytes_truncated`` is the torn/corrupt tail physically removed.
    """

    entries_scanned: int = 0
    commits_applied: int = 0
    uncommitted_dropped: int = 0
    bytes_truncated: int = 0
    salvaged_entries: int = 0
    corrupt_regions: tuple[tuple[int, int], ...] = ()

    @property
    def clean(self) -> bool:
        """True when the log replayed without loss of any kind."""
        return (
            not self.corrupt_regions
            and self.bytes_truncated == 0
            and self.uncommitted_dropped == 0
        )

    @property
    def salvaged(self) -> bool:
        return bool(self.corrupt_regions)

    def as_dict(self) -> dict[str, Any]:
        return {
            "entries_scanned": self.entries_scanned,
            "commits_applied": self.commits_applied,
            "uncommitted_dropped": self.uncommitted_dropped,
            "bytes_truncated": self.bytes_truncated,
            "salvaged_entries": self.salvaged_entries,
            "corrupt_regions": [list(r) for r in self.corrupt_regions],
            "clean": self.clean,
        }


@dataclass
class StoreStats:
    """Operation counters, reset with :meth:`ObjectStore.reset_stats`."""

    reads: int = 0
    writes: int = 0
    deletes: int = 0
    commits: int = 0
    aborts: int = 0
    cache_hits: int = 0
    cache_misses: int = 0

    def snapshot(self) -> dict[str, int]:
        return {
            "reads": self.reads,
            "writes": self.writes,
            "deletes": self.deletes,
            "commits": self.commits,
            "aborts": self.aborts,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
        }


#: One committed change: ``(oid, fields)``, fields None for a delete.
Change = tuple[int, "dict[str, Any] | None"]
#: One applied commit: ``(marker end offset, its changes in order)``.
Commit = tuple[int, tuple[Change, ...]]


@dataclass(frozen=True)
class AppliedBatch:
    """Result of splicing one replicated byte range onto the local log.

    ``changes`` lists ``(oid, fields-or-None)`` for every object whose
    committed state changed, in commit order — the replica's model layer
    uses it to refresh schema objects and indexes incrementally instead
    of reloading the whole store.

    ``commits`` breaks the same stream down per commit marker:
    ``(lsn, ((oid, fields-or-None), ...))`` where ``lsn`` is the marker's
    end offset — the *same* number the primary published as
    ``commit_lsn`` for that commit, because the log is a byte-identical
    prefix.  The replica's MVCC applier stamps version chains with these,
    which is what makes ``as_of`` reads byte-identical across nodes.
    """

    start: int
    end: int
    commit_lsn: int
    entries: int = 0
    commits_applied: int = 0
    changes: tuple[Change, ...] = ()
    commits: tuple[Commit, ...] = ()


@dataclass
class _PendingTxn:
    """Index deltas accumulated by an in-flight transaction."""

    txn_id: int
    # oid -> offset for writes, None for deletes, in application order
    updates: dict[int, int | None] = field(default_factory=dict)
    # decoded record copies for read-your-writes
    staged: dict[int, dict[str, Any] | None] = field(default_factory=dict)


class _GroupCommitGate:
    """Shared-fsync coordinator: the group-commit half of durability.

    Committers append their commit marker (under the store lock), flush
    the file buffer without fsyncing, register a *generation* with the
    gate, and then — outside the store lock — wait for that generation
    to be durable.  The first waiter becomes the leader: it issues ONE
    fsync covering every generation appended so far, then wakes all
    waiters whose generation it covered.  Concurrent committers in
    ``sync=True`` mode therefore share fsyncs instead of queuing one
    each; a lone committer degenerates to exactly one fsync, same as
    the serial path.

    A failed fsync is reported to every waiter it strands; a later
    successful fsync (durability is cumulative for an append-only file)
    clears the error for the generations it covers.
    """

    def __init__(self, log: RecordLog) -> None:
        self._log = log
        self._cond = threading.Condition()
        self._appended = 0  # generations appended (one per commit marker)
        self._synced = 0    # highest generation known durable
        self._leader = False
        self._error: tuple[int, BaseException] | None = None
        #: fsync batches performed / commits those batches covered —
        #: scraped by telemetry; batched_commits / batches > 1 means
        #: group commit actually grouped something.
        self.batches = 0
        self.batched_commits = 0
        #: Highest commit LSN covered by a successful fsync (replication
        #: ships only durable prefixes on a ``sync=True`` primary).
        self.durable_lsn = 0
        self._gen_lsns: dict[int, int] = {}

    def note_append(self, lsn: int = 0) -> int:
        """Register one appended commit marker; returns its generation.

        ``lsn`` is the end offset of the marker just appended — once the
        generation's fsync lands, every log byte below it is durable and
        :attr:`durable_lsn` advances to it.
        """
        with self._cond:
            self._appended += 1
            if lsn:
                self._gen_lsns[self._appended] = lsn
            return self._appended

    def wait_durable(self, gen: int) -> None:
        """Block until generation ``gen`` is covered by an fsync."""
        while True:
            with self._cond:
                while True:
                    if self._synced >= gen:
                        return
                    error = self._error
                    if error is not None and error[0] >= gen:
                        raise error[1]
                    if not self._leader:
                        self._leader = True
                        target = self._appended
                        break  # become the leader, fsync outside the lock
                    self._cond.wait()
            failure: BaseException | None = None
            try:
                self._log.fsync_now()
            except BaseException as exc:
                failure = exc
            with self._cond:
                self._leader = False
                if failure is None:
                    self.batches += 1
                    self.batched_commits += target - self._synced
                    self._synced = max(self._synced, target)
                    for gen in [g for g in self._gen_lsns if g <= target]:
                        self.durable_lsn = max(
                            self.durable_lsn, self._gen_lsns.pop(gen)
                        )
                    if self._error is not None and self._error[0] <= target:
                        self._error = None
                else:
                    self._error = (target, failure)
                self._cond.notify_all()
            if failure is not None:
                raise failure
            # Loop: our gen may exceed the target we just synced (another
            # committer appended after we sampled) — wait again.


class Transaction:
    """Handle for one serial transaction.

    Obtained from :meth:`ObjectStore.begin`; usable as a context manager
    (commits on clean exit, aborts on exception)::

        with store.begin() as txn:
            txn.write(oid, {"name": "Apium"})
    """

    def __init__(self, store: "ObjectStore", pending: _PendingTxn) -> None:
        self._store = store
        self._pending = pending
        self._done = False

    @property
    def txn_id(self) -> int:
        return self._pending.txn_id

    @property
    def active(self) -> bool:
        return not self._done

    def _require_active(self) -> None:
        if self._done:
            raise TransactionError("transaction already finished")

    def write(self, oid: int, record: dict[str, Any]) -> None:
        """Stage a full new state for ``oid`` (insert or overwrite)."""
        self._require_active()
        self._store._txn_write(self._pending, oid, record)

    def delete(self, oid: int) -> None:
        """Stage deletion of ``oid``."""
        self._require_active()
        self._store._txn_delete(self._pending, oid)

    def read(self, oid: int) -> dict[str, Any]:
        """Read ``oid`` seeing this transaction's own staged writes."""
        self._require_active()
        if oid in self._pending.staged:
            staged = self._pending.staged[oid]
            if staged is None:
                raise UnknownOidError(oid)
            return copy.deepcopy(staged)
        return self._store.read(oid)

    def commit(self, defer_sync: bool = False) -> int | None:
        """Commit; with ``defer_sync`` on a durable store, the commit
        marker is appended and flushed but the fsync is deferred to the
        group-commit gate — the returned durability token must then be
        passed to :meth:`ObjectStore.wait_durable` (outside any lock the
        caller holds) before durability may be assumed."""
        self._require_active()
        try:
            token = self._store._commit(self._pending, defer_sync=defer_sync)
        except BaseException:
            if self._store._active is not self._pending:
                self._done = True  # the store already rolled this txn back
            raise
        self._done = True
        return token

    def abort(self) -> None:
        self._require_active()
        self._store._abort(self._pending)
        self._done = True

    def __enter__(self) -> "Transaction":
        return self

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        if self._done:
            return
        if exc_type is None:
            self.commit()
        else:
            self.abort()


class ObjectStore:
    """OID-addressed, log-structured, transactional record store."""

    def __init__(
        self,
        path: str | os.PathLike[str],
        cache_size: int = 4096,
        sync: bool = False,
        salvage: bool = True,
        faults: FaultPlan | None = None,
        read_only: bool = False,
    ) -> None:
        self._sync = sync
        self._salvage = salvage
        self._faults = faults
        self._read_only = read_only
        self._log = RecordLog(path, sync=sync, faults=faults)
        self._cache = LruCache(cache_size)
        self._index: dict[int, int] = {}  # oid -> offset of live record
        self._allocator = OidAllocator()
        self._txn_counter = 0
        self._active: _PendingTxn | None = None
        self._lock = threading.RLock()
        self._lsn_cond = threading.Condition(self._lock)
        self._commit_lsn = len(HEADER)
        self._gate = _GroupCommitGate(self._log)
        #: Highest cluster epoch stamped into this log (0 = never
        #: promoted).  Replicated like any other entry, so every node at
        #: the same LSN agrees on it — the HA fencing invariant.
        self.cluster_epoch = 0
        #: Newest shard-map stamp in the log: (epoch, JSON blob).
        #: (0, b"") means the store has never seen a shard map.
        self.shard_map_epoch = 0
        self.shard_map_blob: bytes = b""
        self.stats = StoreStats()
        self.last_recovery: RecoveryReport = RecoveryReport()
        self._recover()

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        with self._lock:
            if self._active is not None:
                self._abort(self._active)
            self._log.close()

    def __enter__(self) -> "ObjectStore":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def path(self) -> str:
        return self._log.path

    @property
    def file_size(self) -> int:
        return self._log.size

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, oid: int) -> bool:
        return oid in self._index

    # -- recovery -----------------------------------------------------------

    def _replay(
        self,
        entries: Iterable[LogEntry],
        end: int,
        commits: list[Commit] | None = None,
    ) -> tuple[int, int, int, int]:
        """Apply scanned log entries to the index: THE entry state machine.

        Data and tombstone entries accumulate per transaction and the
        index only moves when that transaction's commit marker arrives
        (so a torn tail or an aborted transaction's dead weight is
        ignored); META stamps raise the cluster / shard-map epochs; the
        OID and transaction counters fast-forward past everything seen.
        Recovery runs this over the whole log, replication over each
        spliced byte range.

        ``end`` is the offset the scan starts at.  With ``commits``, each
        applied commit is appended as ``(marker end offset, ((oid,
        fields-or-None), ...))`` — recovery passes None and never keeps
        decoded fields alive.

        Returns ``(end offset of the last entry, entries scanned,
        commits applied, transactions left without a marker)``.
        """
        # txn -> oid -> (offset, fields); offset None marks a tombstone
        pending: dict[
            int, dict[int, tuple[int | None, dict[str, Any] | None]]
        ] = {}
        max_oid = 0
        max_txn = 0
        scanned = 0
        applied = 0
        for entry in entries:
            end = entry.end_offset
            scanned += 1
            if entry.kind == KIND_DATA:
                record = decode_record(entry.payload)
                txn_id = int(record["t"])
                oid = int(record["o"])
                pending.setdefault(txn_id, {})[oid] = (
                    entry.offset,
                    record["f"] if commits is not None else None,
                )
                max_oid = max(max_oid, oid)
                max_txn = max(max_txn, txn_id)
            elif entry.kind == KIND_TOMBSTONE:
                txn_id, oid = _TOMB_STRUCT.unpack(entry.payload)
                pending.setdefault(txn_id, {})[oid] = (None, None)
                max_oid = max(max_oid, oid)
                max_txn = max(max_txn, txn_id)
            elif entry.kind == KIND_COMMIT:
                txn_id = RecordLog.decode_oid_payload(entry.payload)
                max_txn = max(max_txn, txn_id)
                applied += 1
                self._commit_lsn = end
                changed = pending.pop(txn_id, {})
                for oid, (offset, _) in changed.items():
                    if offset is None:
                        self._index.pop(oid, None)
                    else:
                        self._index[oid] = offset
                    self._cache.invalidate(oid)
                if commits is not None:
                    commits.append(
                        (
                            end,
                            tuple(
                                (oid, fields)
                                for oid, (_, fields) in changed.items()
                            ),
                        )
                    )
            elif entry.kind == KIND_META:
                epoch = _decode_epoch_meta(entry.payload)
                if epoch is not None:
                    self.cluster_epoch = max(self.cluster_epoch, epoch)
                shard_meta = _decode_shard_meta(entry.payload)
                if shard_meta is not None and (
                    shard_meta[0] > self.shard_map_epoch
                ):
                    self.shard_map_epoch, self.shard_map_blob = shard_meta
                # other META payloads: reserved for schema snapshots
        self._allocator.fast_forward(max_oid)
        self._txn_counter = max(self._txn_counter, max_txn)
        return end, scanned, applied, len(pending)

    def _recover(self) -> None:
        """Rebuild index/allocator state by replaying the log.

        With ``salvage`` (the default) the scan resynchronises past
        corrupt mid-log regions, so committed transactions located
        *after* bit rot are recovered; only a corrupt *tail* is
        physically truncated (mid-file bytes cannot be removed without
        shifting offsets).  With ``salvage=False`` recovery keeps the
        valid prefix only — the pre-resilience behaviour.

        Either way the outcome is published as :attr:`last_recovery`.
        """
        salvaged_entries = 0
        corrupt_regions: list[tuple[int, int]] = []

        def scan() -> Iterator[LogEntry]:
            nonlocal salvaged_entries
            expected = len(HEADER)
            for entry in (
                self._log.scan_salvage() if self._salvage else self._log.scan()
            ):
                if entry.offset > expected:
                    corrupt_regions.append((expected, entry.offset))
                if corrupt_regions:
                    salvaged_entries += 1
                expected = entry.end_offset
                yield entry

        end, scanned, applied, dropped = self._replay(scan(), len(HEADER))
        bytes_truncated = self._log.size - end
        if bytes_truncated:
            self._log.truncate(end)
        self.last_recovery = RecoveryReport(
            entries_scanned=scanned,
            commits_applied=applied,
            uncommitted_dropped=dropped,
            bytes_truncated=bytes_truncated,
            salvaged_entries=salvaged_entries,
            corrupt_regions=tuple(corrupt_regions),
        )

    # -- OID allocation -----------------------------------------------------

    def new_oid(self) -> int:
        """Allocate a fresh OID (never reused, even across reopen)."""
        return self._allocator.allocate()

    def new_oids(self, n: int) -> range:
        return self._allocator.allocate_many(n)

    # -- transactions -------------------------------------------------------

    def begin(self) -> Transaction:
        """Start the (single) active transaction."""
        with self._lock:
            if self._read_only:
                raise TransactionError(
                    "store is read-only (replica): writes go to the primary"
                )
            if self._active is not None:
                raise TransactionError("a transaction is already active")
            self._txn_counter += 1
            self._active = _PendingTxn(txn_id=self._txn_counter)
            return Transaction(self, self._active)

    @property
    def in_transaction(self) -> bool:
        return self._active is not None

    def _require_is_active(self, pending: _PendingTxn) -> None:
        if self._active is not pending:
            raise TransactionError("transaction is not the active one")

    def _txn_write(
        self, pending: _PendingTxn, oid: int, record: dict[str, Any]
    ) -> None:
        with self._lock:
            self._require_is_active(pending)
            payload = encode_record(
                {"t": pending.txn_id, "o": oid, "f": dict(record)}
            )
            offset = self._log.append(KIND_DATA, payload)
            pending.updates[oid] = offset
            pending.staged[oid] = copy.deepcopy(record)
            self.stats.writes += 1

    def _txn_delete(self, pending: _PendingTxn, oid: int) -> None:
        with self._lock:
            self._require_is_active(pending)
            visible = oid in self._index or pending.staged.get(oid) is not None
            if oid in pending.staged and pending.staged[oid] is None:
                visible = False
            if not visible:
                raise UnknownOidError(oid)
            self._log.append(
                KIND_TOMBSTONE, _TOMB_STRUCT.pack(pending.txn_id, oid)
            )
            pending.updates[oid] = None
            pending.staged[oid] = None
            self.stats.deletes += 1

    def _commit(
        self, pending: _PendingTxn, defer_sync: bool = False
    ) -> int | None:
        deferred = defer_sync and self._sync
        with self._lock:
            self._require_is_active(pending)
            marker_offset: int | None = None
            try:
                marker_offset = self._log.append(
                    KIND_COMMIT, struct.pack(">Q", pending.txn_id)
                )
                self._log.flush(fsync=False if deferred else None)
            except InjectedFault:
                raise  # simulated process death: recovery decides the outcome
            except Exception:
                # The marker may have hit the file without being durable;
                # physically retract it so disk and memory agree the
                # transaction rolled back, then surface the failure.
                if marker_offset is not None:
                    try:
                        self._log.truncate(marker_offset)
                    except (OSError, StorageError):
                        pass
                self._active = None
                self.stats.aborts += 1
                raise
            for oid, offset in pending.updates.items():
                if offset is None:
                    self._index.pop(oid, None)
                    self._cache.invalidate(oid)
                else:
                    self._index[oid] = offset
                    staged = pending.staged.get(oid)
                    if staged is not None:
                        self._cache.put(oid, copy.deepcopy(staged))
            self._active = None
            self.stats.commits += 1
            # The marker was the last append under this lock, so the log
            # end IS the commit LSN; publish it to long-poll waiters.
            self._commit_lsn = self._log.size
            self._lsn_cond.notify_all()
            if deferred:
                return self._gate.note_append(self._commit_lsn)
            return None

    def wait_durable(self, token: int) -> None:
        """Block until the deferred-sync commit ``token`` is fsynced.

        Must be called WITHOUT holding locks that other committers need:
        the whole point is that while the group leader fsyncs, the next
        committer appends.  A failed shared fsync raises here; in-memory
        state is then ahead of disk exactly as it would be after a
        crash — recovery decides the outcome on reopen.
        """
        self._gate.wait_durable(token)

    def _abort(self, pending: _PendingTxn) -> None:
        with self._lock:
            self._require_is_active(pending)
            # Appended data entries become dead weight; compaction drops them.
            self._active = None
            self.stats.aborts += 1

    # -- replication ---------------------------------------------------------

    @property
    def read_only(self) -> bool:
        return self._read_only

    def make_writable(self) -> None:
        """Promotion: lift the replica's read-only guard so local
        transactions may begin.  The caller (the HA controller) stamps
        the new cluster epoch immediately after."""
        with self._lock:
            self._read_only = False

    def make_read_only(self) -> None:
        """Demotion: refuse new local transactions (writes go to the new
        primary).  An in-flight transaction is not interrupted — the
        session layer aborts those before calling this."""
        with self._lock:
            self._read_only = True

    def stamp_epoch(self, epoch: int) -> int:
        """Durably record a new cluster epoch; returns its commit LSN.

        The stamp is a META entry followed by its own commit marker, so
        ``commit_lsn`` advances past it and the shipper replicates it to
        every follower immediately — a re-pointed replica learns the
        promotion through the ordinary pull path.  Epochs are strictly
        monotonic; stamping a stale one raises.
        """
        with self._lock:
            if self._read_only:
                raise TransactionError(
                    "cannot stamp an epoch on a read-only store; "
                    "promote (make_writable) first"
                )
            if self._active is not None:
                raise TransactionError(
                    "cannot stamp an epoch inside a transaction"
                )
            if epoch <= self.cluster_epoch:
                raise StorageError(
                    f"epoch {epoch} is not newer than the stamped "
                    f"epoch {self.cluster_epoch}"
                )
            self._txn_counter += 1
            self._log.append(
                KIND_META, _EPOCH_TAG + _EPOCH_STRUCT.pack(epoch)
            )
            self._log.append_commit(self._txn_counter)
            self.cluster_epoch = epoch
            self.stats.commits += 1
            self._commit_lsn = self._log.size
            self._lsn_cond.notify_all()
            return self._commit_lsn

    def stamp_shard_map(self, epoch: int, blob: bytes) -> int:
        """Durably record a shard-map change; returns its commit LSN.

        Same mechanics as :meth:`stamp_epoch`: a META entry plus its own
        commit marker, replicated through the ordinary pull path so a
        shard's replicas learn the new placement at the exact log
        position the rebalance committed.  Epochs are strictly
        monotonic.
        """
        with self._lock:
            if self._read_only:
                raise TransactionError(
                    "cannot stamp a shard map on a read-only store"
                )
            if self._active is not None:
                raise TransactionError(
                    "cannot stamp a shard map inside a transaction"
                )
            if epoch <= self.shard_map_epoch:
                raise StorageError(
                    f"shard-map epoch {epoch} is not newer than the "
                    f"stamped epoch {self.shard_map_epoch}"
                )
            self._txn_counter += 1
            self._log.append(
                KIND_META,
                _SHARD_TAG + _EPOCH_STRUCT.pack(epoch) + blob,
            )
            self._log.append_commit(self._txn_counter)
            self.shard_map_epoch = epoch
            self.shard_map_blob = bytes(blob)
            self.stats.commits += 1
            self._commit_lsn = self._log.size
            self._lsn_cond.notify_all()
            return self._commit_lsn

    @property
    def commit_lsn(self) -> int:
        """End offset of the last applied commit marker.

        LSNs in Prometheus replication are plain byte offsets into the
        primary's log file; a replica's log is a byte-identical prefix,
        so the same number means the same state on every node.
        """
        return self._commit_lsn

    @property
    def durable_lsn(self) -> int:
        """Highest commit LSN known to be fsynced.

        On a ``sync=False`` store OS buffering is the declared contract,
        so every committed LSN counts as durable; with deferred group
        commit the gate's shared fsync advances this lazily.
        """
        if not self._sync:
            return self._commit_lsn
        return max(self._gate.durable_lsn, len(HEADER))

    @property
    def replication_position(self) -> int:
        """Byte offset a replica should pull from next: its raw log end.

        This can exceed :attr:`commit_lsn` by the trailing entries of an
        aborted transaction — those bytes were shipped as part of a
        committed range and are dead weight here exactly as they are on
        the primary, preserving byte-identity.
        """
        return self._log.size

    def wait_for_commit_lsn(self, min_lsn: int, timeout: float | None = None) -> int:
        """Block until ``commit_lsn >= min_lsn`` (or timeout); return it.

        The shipper's long-poll: a replica that is already caught up
        parks here until the next commit instead of busy-polling.
        """
        deadline = None if timeout is None else (timeout)
        with self._lsn_cond:
            if self._commit_lsn >= min_lsn:
                return self._commit_lsn
            self._lsn_cond.wait_for(
                lambda: self._commit_lsn >= min_lsn, timeout=deadline
            )
            return self._commit_lsn

    def apply_replicated(self, data: bytes) -> AppliedBatch:
        """Splice a shipped byte range onto the log and apply its commits.

        Apply is recovery run incrementally, by the same code: the bytes
        are appended verbatim (keeping the file a byte-identical prefix
        of the primary's) and handed to :meth:`_replay`.  A structurally
        torn shipment — which frame checksums should have caught
        upstream — is truncated away so the next pull re-requests it.
        """
        with self._lock:
            if self._active is not None:
                raise TransactionError(
                    "cannot apply replicated bytes inside a transaction"
                )
            start = self._log.size
            self._log.append_raw(data)
            # Scan from the last commit marker, not from the appended
            # bytes: a transaction can straddle frames, and its data
            # entries — already on disk from an earlier apply but not
            # yet committed — must be back in the pending map when this
            # frame delivers the commit marker.
            scan_from = min(self._commit_lsn, start)
            commits: list[Commit] = []
            end, scanned, applied, _ = self._replay(
                self._log.scan(scan_from), scan_from, commits
            )
            if end < self._log.size:
                self._log.truncate(end)
            self._lsn_cond.notify_all()
            return AppliedBatch(
                start=start,
                end=self._log.size,
                commit_lsn=self._commit_lsn,
                entries=scanned,
                commits_applied=applied,
                changes=tuple(
                    change for _, changes in commits for change in changes
                ),
                commits=tuple(commits),
            )

    def reset_for_resync(self) -> None:
        """Drop every replicated byte; divergence recovery on a replica.

        After the primary compacts, byte offsets no longer line up and a
        prefix-replica cannot patch itself — the only convergent move is
        to truncate back to the bare file header and re-pull from LSN 0.
        The OID allocator is deliberately left alone (it only ever moves
        forward and will fast-forward again during re-apply).
        """
        with self._lock:
            if self._active is not None:
                raise TransactionError(
                    "cannot reset the store inside a transaction"
                )
            self._log.truncate(len(HEADER))
            self._index.clear()
            self._cache.clear()
            self._commit_lsn = len(HEADER)
            # cluster_epoch is deliberately KEPT: it is fencing knowledge,
            # not log content.  A reset replica must still refuse frames
            # from a primary of an older epoch while it re-syncs.
            self._lsn_cond.notify_all()

    def read_log_bytes(self, start: int, end: int) -> bytes:
        """Raw log bytes ``[start, min(end, log end))`` — the shipper's
        read path, taken under the store lock so a concurrent commit's
        partially appended entries are never visible."""
        with self._lock:
            return self._log.read_bytes(start, end)

    def entry_end(self, lsn: int) -> int:
        """Where the log entry starting at ``lsn`` ends — the smallest
        range the shipper may frame from there, so a frame never splits
        an entry.  Read under the store lock, like
        :meth:`read_log_bytes`."""
        with self._lock:
            return self._log.entry_end(lsn)

    def fingerprint(self, upto: int | None = None) -> str:
        """SHA-256 over log bytes ``[0, upto)`` (default: the commit LSN).

        Because replicas splice raw primary bytes, two stores at the
        same commit LSN hash identically — this is the equivalence check
        used by the crash-recovery sweep and the traversal tests.
        """
        with self._lock:
            end = self._commit_lsn if upto is None else upto
            digest = hashlib.sha256()
            digest.update(self._log.read_bytes(0, end))
            return digest.hexdigest()

    # -- autocommit convenience ----------------------------------------------

    def put(self, oid: int, record: dict[str, Any]) -> None:
        """Write one record in its own transaction."""
        with self.begin() as txn:
            txn.write(oid, record)

    def insert(self, record: dict[str, Any]) -> int:
        """Allocate an OID, write the record, return the OID."""
        oid = self.new_oid()
        self.put(oid, record)
        return oid

    def remove(self, oid: int) -> None:
        """Delete one record in its own transaction."""
        with self.begin() as txn:
            txn.delete(oid)

    # -- reading --------------------------------------------------------------

    def read(self, oid: int) -> dict[str, Any]:
        """Return a fresh copy of the committed state of ``oid``."""
        with self._lock:
            self.stats.reads += 1
            cached = self._cache.get(oid)
            if cached is not None:
                self.stats.cache_hits += 1
                return copy.deepcopy(cached)
            self.stats.cache_misses += 1
            try:
                offset = self._index[oid]
            except KeyError:
                raise UnknownOidError(oid) from None
            entry = self._log.read_entry(offset)
            record = decode_record(entry.payload)
            fields = record["f"]
            if not isinstance(fields, dict):
                raise StorageError(f"record {oid} has malformed fields")
            self._cache.put(oid, copy.deepcopy(fields))
            return fields

    def oids(self) -> Iterator[int]:
        """Iterate live OIDs (snapshot order not guaranteed)."""
        with self._lock:
            return iter(list(self._index.keys()))

    def items(self) -> Iterator[tuple[int, dict[str, Any]]]:
        for oid in self.oids():
            try:
                yield oid, self.read(oid)
            except UnknownOidError:
                continue

    # -- maintenance ----------------------------------------------------------

    def reset_stats(self) -> None:
        self.stats = StoreStats()
        self._cache.hits = 0
        self._cache.misses = 0

    def telemetry_snapshot(self) -> dict[str, Any]:
        """Everything the telemetry storage collector scrapes, in one
        dict: op counters, log append/flush/fsync counters, cache state.

        All numbers here are maintained anyway (plain int increments),
        so storage observability costs nothing on the hot path.
        """
        log = self._log
        cache = self._cache
        return self.stats.snapshot() | {
            "log_appends": log.appends,
            "log_flushes": log.flushes,
            "log_fsyncs": log.fsyncs,
            "cache_size": len(cache),
            "cache_capacity": cache.capacity,
            "cache_hit_rate": cache.hit_rate,
            "file_size": self.file_size,
            "live_records": len(self._index),
            "group_commit_batches": self._gate.batches,
            "group_commit_batched": self._gate.batched_commits,
            "commit_lsn": self._commit_lsn,
            "cluster_epoch": self.cluster_epoch,
            "shard_map_epoch": self.shard_map_epoch,
        }

    def compact(self) -> None:
        """Rewrite the log keeping only live records.

        Aborted and overwritten entries are dropped.  The store must not
        have an active transaction.

        Crash-atomic: the replacement log is fully written, flushed
        (and fsynced when the store is durable) *before* the single
        ``os.replace`` that installs it, so a crash at any step leaves
        either the old complete log or the new complete log on disk —
        never a mix.  The replacement preserves the store's durability
        setting instead of silently reopening with ``sync=False``.
        """
        with self._lock:
            if self._read_only:
                raise StorageError(
                    "cannot compact a read-only replica store"
                )
            if self._active is not None:
                raise TransactionError("cannot compact inside a transaction")
            tmp_path = self.path + ".compact"
            if os.path.exists(tmp_path):
                os.remove(tmp_path)
            new_log = RecordLog(tmp_path, sync=self._sync, faults=self._faults)
            txn_id = self._txn_counter + 1
            new_index: dict[int, int] = {}
            try:
                for oid in sorted(self._index):
                    fields = self.read(oid)
                    payload = encode_record({"t": txn_id, "o": oid, "f": fields})
                    new_index[oid] = new_log.append(KIND_DATA, payload)
                if self.cluster_epoch:
                    # The epoch stamp lives in the log; re-stamp it or the
                    # compacted log would forget which epoch it belongs to.
                    new_log.append(
                        KIND_META,
                        _EPOCH_TAG + _EPOCH_STRUCT.pack(self.cluster_epoch),
                    )
                if self.shard_map_epoch:
                    # Same story for the shard map: placement knowledge
                    # must survive compaction.
                    new_log.append(
                        KIND_META,
                        _SHARD_TAG
                        + _EPOCH_STRUCT.pack(self.shard_map_epoch)
                        + self.shard_map_blob,
                    )
                new_log.append_commit(txn_id)  # flush (+fsync when durable)
                new_log.close()
            except InjectedFault:
                raise  # simulated process death: the stale tmp stays behind
            except Exception:
                # The old log was only read; discard the half-built
                # replacement and keep serving from the old one.
                new_log.close()
                try:
                    os.remove(tmp_path)
                except OSError:
                    pass
                raise
            self._log.close()
            os.replace(tmp_path, self.path)
            if self._sync:
                self._fsync_directory(os.path.dirname(self.path) or ".")
            old_log = self._log
            self._log = RecordLog(self.path, sync=self._sync, faults=self._faults)
            # Op counters survive compaction: they describe the store's
            # lifetime, not one log file's.
            self._log.appends += old_log.appends + new_log.appends
            self._log.flushes += old_log.flushes + new_log.flushes
            self._log.fsyncs += old_log.fsyncs + new_log.fsyncs
            old_gate = self._gate
            self._gate = _GroupCommitGate(self._log)
            self._gate.batches = old_gate.batches
            self._gate.batched_commits = old_gate.batched_commits
            self._index = new_index
            self._txn_counter = txn_id
            self._cache.clear()
            # Offsets changed wholesale: the new log ends at its commit
            # marker.  Replicas detect this as prefix divergence and
            # re-sync from scratch.
            self._commit_lsn = self._log.size
            self._lsn_cond.notify_all()

    @staticmethod
    def _fsync_directory(directory: str) -> None:
        """Make a rename durable (no-op where directories can't be opened)."""
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - platform-dependent
            return
        try:
            os.fsync(fd)
        finally:
            os.close(fd)
