"""Extent rebalancing: moves, reports, and the record move under them.

A rebalance moves each object in the range through
``ShardedDatabase.move_object``: its stored records (and those of its
outgoing edges) leave the source and enter the target unchanged, and no
event fires on either shard, because a move is neither a create nor a
delete.
"""

from __future__ import annotations

import pytest

from repro.core.events import EventKind
from repro.sharding import ExtentRebalancer, ShardingError

from .topo import CHECKS, build_topology, observe, pair


class TestMoveRange:
    def test_report_accounts_for_every_move(self):
        _, sharded = pair(23)
        placement_before = dict(sharded.router.counts())
        report = ExtentRebalancer(sharded).move_range(None, "genus", "s2")
        assert report.target == "s2"
        assert report.sources == ["s0"]
        assert report.moved_objects > 0
        assert report.new_epoch == report.old_epoch + 1
        # Everything s0 owned moved off (its range is gone and the
        # fallback ring no longer includes it).
        assert sharded.router.counts().get("s0", 0) == 0
        moved_total = report.moved_objects + report.moved_edges
        assert moved_total + report.rehomed >= placement_before.get(
            "s0", 0
        )
        d = report.as_dict()
        assert d["epoch"] == [report.old_epoch, report.new_epoch]

    def test_unknown_target_rejected(self):
        _, sharded = pair(24)
        with pytest.raises(ShardingError):
            ExtentRebalancer(sharded).move_range(None, "genus", "nope")

    def test_queries_agree_after_chained_rebalances(self):
        single, sharded = pair(25)
        rebalancer = ExtentRebalancer(sharded)
        rebalancer.move_range(None, "genus", "s3")
        rebalancer.move_range("kingdom", "species", "s1")
        for text in CHECKS:
            assert observe(single, text) == observe(sharded, text), text


def _records(db):
    """Every stored record of a sharded database, by OID."""
    return {
        obj.oid: client.db.schema.to_record(obj)
        for client in db.shards.values()
        for obj in client.db.schema.all_objects()
    }


class TestRecordMove:
    def test_move_range_fires_no_event_on_any_shard(self):
        _, sharded = pair(28)
        seen = {name: [] for name in sharded.shards}
        before = {}
        for name, client in sharded.shards.items():
            client.db.schema.events.subscribe(seen[name].append)
            before[name] = client.db.schema.events.published
        report = ExtentRebalancer(sharded).move_range(None, "genus", "s3")
        assert report.moved_objects > 0
        for name, client in sharded.shards.items():
            # The closing commit's own two events, nothing else.
            assert [e.kind for e in seen[name]] == [
                EventKind.BEFORE_COMMIT, EventKind.AFTER_COMMIT
            ]
            published = client.db.schema.events.published - before[name]
            assert published == len(seen[name]), name

    def test_moved_records_arrive_unchanged(self):
        _, sharded = pair(29)
        before = _records(sharded)
        report = ExtentRebalancer(sharded).move_range(None, "genus", "s2")
        assert report.moved_objects + report.rehomed > 0
        after = {}
        for oid in before:
            shard = sharded.router.shard_of(oid)
            schema = sharded.shards[shard].db.schema
            after[oid] = schema.to_record(schema.get_object(oid))
        assert after == before
        assert _records(sharded) == before

    @pytest.mark.parametrize("shards", [1, 4])
    def test_there_and_back_stays_visible_as_of(self, shards):
        db = build_topology(shards)
        oid = db.create(
            "Base", name="mover", rank="genus", size=1, score=0.0,
            flag=True,
        )
        db.commit()
        db.set(oid, "rank", "species")
        db.set(oid, "rank", "genus")
        seq = db.commit()
        text = 'select a.name from a in Base where a.name = "mover"'
        assert db.query(text, check=False) == ["mover"]
        assert db.query(text, check=False, as_of=seq) == ["mover"]
        owner = db.shards[db.router.shard_of(oid)].db
        assert not owner.schema.is_pending(oid)
