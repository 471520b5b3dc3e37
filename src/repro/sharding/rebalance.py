"""Extent rebalancing: move a key range between shards.

A rebalance moves every object whose shard-key falls in a half-open
range ``[lo, hi)`` — plus the outgoing relationship instances that ride
with their origin — to a target shard, then installs a new shard map
whose epoch has risen.  Each object goes through
:meth:`ShardedDatabase.move_object`, the same record move a key-attribute
relocation makes: no event fires on either shard.

The epoch bump is the cache-safety handshake: the response cache stamps
every pre-serialized body with the shard-map epoch (see
``HttpHandlers._stamp``), so no client can be served a body computed
against the old placement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from .coordinator import ShardedDatabase, ShardingError


@dataclass
class RebalanceReport:
    """What one :meth:`ExtentRebalancer.move_range` call did."""

    lo: str | None
    hi: str | None
    target: str
    moved_objects: int = 0
    moved_edges: int = 0
    old_epoch: int = 0
    new_epoch: int = 0
    rehomed: int = 0
    sources: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return {
            "range": [self.lo, self.hi],
            "target": self.target,
            "sources": self.sources,
            "moved_objects": self.moved_objects,
            "moved_edges": self.moved_edges,
            "rehomed": self.rehomed,
            "epoch": [self.old_epoch, self.new_epoch],
        }


class ExtentRebalancer:
    """Moves key ranges between the shards of a :class:`ShardedDatabase`."""

    def __init__(self, db: ShardedDatabase) -> None:
        self.db = db

    def move_range(
        self, lo: str | None, hi: str | None, target: str
    ) -> RebalanceReport:
        """Move ``[lo, hi)`` to ``target`` and install the bumped map.

        The range must exactly match one range of the current map
        (split first if needed)."""
        db = self.db
        if target not in db.shards:
            raise ShardingError(f"unknown target shard {target!r}")
        new_map = db.map.reassign(lo, hi, target)
        report = RebalanceReport(
            lo=lo,
            hi=hi,
            target=target,
            old_epoch=db.map.epoch,
            new_epoch=new_map.epoch,
        )
        for source in sorted(db.shards):
            if source == target:
                continue
            client = db.shards[source]
            oids = client.oids_in_key_range(db.map.key_attr, lo, hi)
            if not oids:
                continue
            report.sources.append(source)
            for oid in oids:
                report.moved_edges += db.move_object(oid, source, target) - 1
            report.moved_objects += len(oids)
        db.adopt_map(new_map)
        # Range ownership changed, so the hash-fallback ring may have
        # too: re-home unclassified objects whose hash slot moved.
        report.rehomed = db.rehome_misplaced()
        if db.telemetry.enabled:
            db.telemetry.registry.counter(
                "repro_shard_rebalance_total",
                help="Completed shard rebalance operations",
            ).inc()
        db.commit()
        return report
