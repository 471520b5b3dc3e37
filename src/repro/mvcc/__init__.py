"""MVCC snapshot store: version chains, pinned snapshots, GC, views.

The subsystem that turns the first-committer-wins concurrency layer
into snapshot isolation (docs/CONCURRENCY.md):

* :mod:`~repro.mvcc.chains` — per-OID version chains stamped with
  commit LSNs; lock-free reads;
* :mod:`~repro.mvcc.snapshots` — refcounted snapshot pins;
* :mod:`~repro.mvcc.gc` — the oldest-pin watermark and chain pruning;
* :mod:`~repro.mvcc.view` — :class:`SnapshotSchema`, a read-only object
  layer materialized as of one LSN (the time-travel API's engine).

:class:`MvccStore` is the facade the transaction manager, engine,
replica applier and HTTP layer share.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterable

from .chains import VersionChain, VersionStore
from .gc import VersionGC
from .snapshots import Snapshot, SnapshotRegistry
from .view import SnapshotSchema, record_values

if TYPE_CHECKING:  # pragma: no cover
    from ..core.schema import Schema

__all__ = [
    "MvccStore",
    "Snapshot",
    "SnapshotRegistry",
    "SnapshotSchema",
    "VersionChain",
    "VersionGC",
    "VersionStore",
    "record_values",
]


class MvccStore:
    """One node's multi-version state: chains + pins + GC watermark.

    Writers (the transaction manager on a primary, the log applier on a
    replica) call :meth:`seed` once and :meth:`apply_commit` per commit;
    readers call :meth:`pin` / :meth:`lookup` / :meth:`view` without
    ever blocking a writer.
    """

    def __init__(self, gc_interval_commits: int = 128) -> None:
        self.versions = VersionStore()
        self.registry = SnapshotRegistry()
        self.gc = VersionGC(
            self.versions, self.registry, interval_commits=gc_interval_commits
        )
        self.snapshot_reads = 0

    # -- write side ----------------------------------------------------------

    def seed(
        self, items: Iterable[tuple[int, dict[str, Any]]], lsn: int
    ) -> int:
        """Bootstrap chains from the full current state at ``lsn``.

        History before the seed point is not reconstructable (the log
        may predate this process), so the GC floor starts here too.
        """
        seeded = self.versions.seed(items, lsn)
        self.gc.set_floor(lsn)
        return seeded

    def apply_commit(
        self,
        lsn: int,
        writes: dict[int, dict[str, Any]],
        deletes: Iterable[int] = (),
    ) -> None:
        """Append one commit's versions; called under the writer lock."""
        append = self.versions.append
        for oid, record in writes.items():
            append(oid, lsn, record)
        for oid in deletes:
            append(oid, lsn, None)
        self.gc.note_head(lsn)

    def reset(self, floor: int = 0) -> None:
        """History is gone (resync or compaction rewrote the log)."""
        self.versions.reset()
        self.gc.reset(floor)

    # -- read side -----------------------------------------------------------

    @property
    def head(self) -> int:
        return self.gc.head

    @property
    def floor(self) -> int:
        return self.gc.floor

    def pin(self, lsn: int) -> Snapshot | None:
        """Pin a snapshot; None when GC already reclaimed that LSN."""
        return self.gc.try_pin(lsn)

    def lookup(self, oid: int, lsn: int) -> tuple[bool, dict[str, Any] | None]:
        return self.versions.lookup(oid, lsn)

    def view(self, live: "Schema", lsn: int) -> SnapshotSchema:
        """Materialize the object layer as of ``lsn``."""
        self.snapshot_reads += 1
        return SnapshotSchema(live, self.versions.items_at(lsn), lsn)

    # -- maintenance ---------------------------------------------------------

    def run_gc(self) -> int:
        return self.gc.run()

    def maybe_gc(self) -> int:
        return self.gc.maybe_run()

    # -- introspection -------------------------------------------------------

    def telemetry_snapshot(self) -> dict[str, int]:
        return {
            "pinned_snapshots": self.registry.count,
            "watermark_lsn": self.gc.watermark(),
            "floor_lsn": self.gc.floor,
            "head_lsn": self.gc.head,
            "chains": len(self.versions),
            "versions_live": self.versions.live_versions(),
            "versions_appended": self.versions.versions_appended,
            "versions_collected": self.versions.versions_collected,
            "gc_runs": self.gc.runs,
            "snapshot_reads": self.snapshot_reads,
        }
