"""Version chains: per-OID multi-version record history.

Every committed write appends one :class:`Version` — the storage record
(the same dict :meth:`Schema.to_record` produces, ``None`` for a
tombstone) stamped with the commit LSN — to its OID's
:class:`VersionChain`.  LSNs are byte offsets into the append-only log,
so the stamp domain is shared with replication: a replica that applied
the same log prefix resolves exactly the same version for the same LSN,
which is what makes ``as_of`` reads byte-identical across nodes.  For
purely in-memory databases the transaction manager stamps with its
commit clock instead; the ordering properties are identical.

Reader model (the point of the subsystem): chains are append-only lists
mutated only under the writer's commit lock, and readers binary-search a
*reference* to the list without any lock.  A concurrent append can only
grow the list past the length the search captured, and appended versions
carry LSNs newer than any pinned snapshot — so a lock-free reader can
never observe a version it should not.  GC never mutates a list in
place either: it builds the surviving suffix and swaps the attribute,
which is a single atomic store.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator


class VersionChain:
    """Ascending-LSN history of one OID's committed records."""

    __slots__ = ("_versions",)

    def __init__(self) -> None:
        # list of (lsn, record-or-None); ascending lsn; never mutated in
        # place except by append — GC replaces the whole list.
        self._versions: list[tuple[int, dict[str, Any] | None]] = []

    def append(self, lsn: int, record: dict[str, Any] | None) -> None:
        """Add the version committed at ``lsn`` (``None`` = tombstone).

        Called under the owning side's commit lock.  A re-append at the
        chain's newest LSN replaces it (an implicit-session commit can
        stamp several mutations of one object with one LSN); an older
        LSN is ignored rather than spliced, keeping reads lock-free.
        """
        versions = self._versions
        if versions:
            tail_lsn = versions[-1][0]
            if lsn == tail_lsn:
                versions[-1] = (lsn, record)
                return
            if lsn < tail_lsn:
                return
        versions.append((lsn, record))

    def visible_at(self, lsn: int) -> tuple[bool, dict[str, Any] | None]:
        """Newest version with ``version.lsn <= lsn``.

        Returns ``(True, record)`` — record ``None`` for a tombstone —
        or ``(False, None)`` when the object did not exist yet at the
        snapshot.  Lock-free: operates on one captured list reference.
        """
        versions = self._versions
        lo, hi = 0, len(versions)
        while lo < hi:
            mid = (lo + hi) // 2
            if versions[mid][0] <= lsn:
                lo = mid + 1
            else:
                hi = mid
        if lo == 0:
            return (False, None)
        return (True, versions[lo - 1][1])

    def collect_below(self, watermark: int) -> int:
        """Drop versions older than the newest version ``<= watermark``.

        That newest-at-watermark version must survive: it is exactly
        what a snapshot pinned at the watermark resolves.  Returns the
        number of versions dropped.  The surviving suffix is swapped in
        atomically, so concurrent readers keep a consistent list.
        """
        versions = self._versions
        lo, hi = 0, len(versions)
        while lo < hi:
            mid = (lo + hi) // 2
            if versions[mid][0] <= watermark:
                lo = mid + 1
            else:
                hi = mid
        keep_from = max(lo - 1, 0)
        if keep_from == 0:
            return 0
        self._versions = versions[keep_from:]
        return keep_from

    def __len__(self) -> int:
        return len(self._versions)

    @property
    def newest_lsn(self) -> int | None:
        versions = self._versions
        return versions[-1][0] if versions else None

    def is_dead_at(self, watermark: int) -> bool:
        """True when the whole chain is just one tombstone at or below
        the watermark — no snapshot can resolve the object anymore."""
        versions = self._versions
        return (
            len(versions) == 1
            and versions[0][1] is None
            and versions[0][0] <= watermark
        )


class VersionStore:
    """The chain table: OID → :class:`VersionChain`.

    Appends are serialized by the caller (the transaction manager's
    commit lock on a primary, the applier's write lock on a replica);
    the internal lock only guards the chain-map itself so lock-free
    readers never race a rehash observable mid-write.
    """

    def __init__(self) -> None:
        self._chains: dict[int, VersionChain] = {}
        self._lock = threading.Lock()
        self.versions_appended = 0
        self.versions_collected = 0

    def __len__(self) -> int:
        return len(self._chains)

    def __contains__(self, oid: int) -> bool:
        return oid in self._chains

    def append(self, oid: int, lsn: int, record: dict[str, Any] | None) -> None:
        chain = self._chains.get(oid)
        if chain is None:
            with self._lock:
                chain = self._chains.setdefault(oid, VersionChain())
        chain.append(lsn, record)
        self.versions_appended += 1

    def lookup(self, oid: int, lsn: int) -> tuple[bool, dict[str, Any] | None]:
        """Resolve ``oid`` at snapshot ``lsn``.

        ``(False, None)`` — the OID has no chain at all (untracked);
        ``(True, None)`` — tracked, but deleted or not yet created at
        the snapshot; ``(True, record)`` — visible.
        """
        chain = self._chains.get(oid)
        if chain is None:
            return (False, None)
        found, record = chain.visible_at(lsn)
        if not found:
            return (True, None)
        return (True, record)

    def items_at(self, lsn: int) -> Iterator[tuple[int, dict[str, Any]]]:
        """All (oid, record) pairs visible at snapshot ``lsn``."""
        for oid in list(self._chains):
            chain = self._chains.get(oid)
            if chain is None:
                continue
            found, record = chain.visible_at(lsn)
            if found and record is not None:
                yield oid, record

    def seed(
        self, items: Iterable[tuple[int, dict[str, Any]]], lsn: int
    ) -> int:
        """Bootstrap chains from a full state snapshot at ``lsn``."""
        seeded = 0
        for oid, record in items:
            self.append(oid, lsn, record)
            seeded += 1
        return seeded

    def live_versions(self) -> int:
        return sum(len(chain) for chain in self._chains.values())

    def collect(self, watermark: int) -> int:
        """Drop every version unreachable from snapshots ``>= watermark``.

        Per chain the newest version at or below the watermark survives
        (it is the watermark's visible version); chains reduced to a
        lone tombstone at/below the watermark are removed entirely.
        """
        collected = 0
        for oid in list(self._chains):
            chain = self._chains.get(oid)
            if chain is None:
                continue
            collected += chain.collect_below(watermark)
            if chain.is_dead_at(watermark):
                with self._lock:
                    live = self._chains.get(oid)
                    if live is chain and chain.is_dead_at(watermark):
                        del self._chains[oid]
                        collected += len(chain)
        self.versions_collected += collected
        return collected

    def reset(self) -> None:
        """Discard all history (resync / compaction rewrote the log)."""
        with self._lock:
            self._chains = {}
