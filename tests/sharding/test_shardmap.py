"""Shard-map unit tests: routing, pruning, evolution, persistence.

The map is the sharding layer's single source of placement truth, so
these tests pin its invariants directly: full keyspace coverage,
deterministic routing (range for string keys, hash ring otherwise),
sound pruning (a pruned-out shard can never hold a matching object),
monotonic epochs, and durability — the stamp survives crash recovery,
log compaction, and byte-replication to a replica store.
"""

from __future__ import annotations

import os

import pytest

from repro.sharding import ShardMap, ShardMapError, ShardRange
from repro.sharding.shardmap import _prefix_upper
from repro.storage.store import ObjectStore


def four_shard() -> ShardMap:
    return ShardMap.uniform(
        ("s0", "s1", "s2", "s3"), "rank", ("genus", "kingdom", "species")
    )


class TestConstruction:
    def test_single_covers_everything(self):
        m = ShardMap.single("only")
        assert m.route("anything", 1) == "only"
        assert m.route(None, 1) == "only"
        assert m.shards == ("only",)

    def test_rejects_gap(self):
        with pytest.raises(ShardMapError):
            ShardMap("rank", [
                ShardRange("a", None, "g"),
                ShardRange("b", "h", None),  # gap [g, h)
            ])

    def test_rejects_unbounded_interior(self):
        with pytest.raises(ShardMapError):
            ShardMap("rank", [ShardRange("a", None, "g"),
                              ShardRange("b", "g", "x")])

    def test_rejects_empty_map(self):
        with pytest.raises(ShardMapError):
            ShardMap("rank", [])

    def test_uniform_needs_matching_split_points(self):
        with pytest.raises(ShardMapError):
            ShardMap.uniform(("a", "b", "c"), "rank", ("m",))


class TestRouting:
    def test_keys_route_by_range(self):
        m = four_shard()
        assert m.route("family", 1) == "s0"
        assert m.route("genus", 1) == "s1"
        assert m.route("kingdom", 1) == "s2"
        assert m.route("species", 1) == "s3"
        assert m.route("zzz", 1) == "s3"

    def test_non_string_keys_hash_deterministically(self):
        m = four_shard()
        for key in (None, 7, 3.5, True):
            assert m.route(key, 42) == m.route(key, 42)
            assert m.route(key, 42) in m.shards
        # Different OIDs spread across the ring.
        homes = {m.route(None, oid) for oid in range(200)}
        assert len(homes) > 1

    def test_ring_changes_with_membership(self):
        m = four_shard()
        shrunk = m.reassign(None, "genus", "s1")
        assert "s0" not in shrunk.shards
        # Pruning soundness for hash-placed objects relies on the ring
        # being exactly the range-owning shards.
        assert set(shrunk.shards) == {r.shard for r in shrunk.ranges}


class TestPruning:
    def test_equality_prunes_to_one_shard(self):
        m = four_shard()
        assert m.shards_for_equality("genus") == ("s1",)
        assert m.shards_for_equality("abc") == ("s0",)

    def test_non_string_equality_cannot_prune(self):
        m = four_shard()
        assert m.shards_for_equality(None) == m.shards
        assert m.shards_for_equality(5) == m.shards

    def test_prefix_prunes_to_overlapping_ranges(self):
        m = four_shard()
        # "k*" straddles the "kingdom" boundary: "k" itself sorts into
        # [genus, kingdom) while "kingdom…" sorts into [kingdom, species).
        assert m.shards_for_prefix("k") == ("s1", "s2")
        assert m.shards_for_prefix("king") == ("s1", "s2")
        assert m.shards_for_prefix("kingdom") == ("s2",)
        assert m.shards_for_prefix("gen") == ("s0", "s1")
        assert m.shards_for_prefix("genus") == ("s1",)
        assert m.shards_for_prefix("t") == ("s3",)
        assert m.shards_for_prefix("") == m.shards

    def test_prefix_upper_is_a_string_successor(self):
        assert _prefix_upper("abc") == "abd"
        assert "abc" < "abcz" < _prefix_upper("abc")
        assert _prefix_upper(chr(0x10FFFF)) is None


class TestEvolution:
    def test_split_bumps_epoch_and_stays_covering(self):
        m = four_shard()
        split = m.split("s3", "x", "s4")
        assert split.epoch == m.epoch + 1
        assert split.route("w", 1) == "s3"
        assert split.route("x", 1) == "s4"
        # Old map untouched (maps are immutable values).
        assert m.route("x", 1) == "s3"

    def test_split_rejects_point_outside_range(self):
        with pytest.raises(ShardMapError):
            four_shard().split("s0", "zzz", "s9")

    def test_reassign_requires_exact_range(self):
        with pytest.raises(ShardMapError):
            four_shard().reassign("a", "b", "s1")

    def test_blob_roundtrip(self):
        m = four_shard().split("s1", "h", "s5")
        again = ShardMap.from_blob(m.to_blob())
        assert (again.epoch, again.key_attr, again.ranges) == (
            m.epoch, m.key_attr, m.ranges
        )

    def test_bad_blob_raises(self):
        with pytest.raises(ShardMapError):
            ShardMap.from_blob(b"not json at all")
        with pytest.raises(ShardMapError):
            ShardMap.from_blob(b'{"epoch": 1}')


class TestPersistence:
    def test_stamp_survives_recovery_and_compaction(self, tmp_path):
        path = os.path.join(tmp_path, "shard.db")
        blob = four_shard().to_blob()
        store = ObjectStore(path)
        store.put(1, {"a": 1})
        store.stamp_shard_map(2, blob)
        store.close()

        recovered = ObjectStore(path)
        assert recovered.shard_map_epoch == 2
        assert ShardMap.from_blob(recovered.shard_map_blob).shards == (
            "s0", "s1", "s2", "s3",
        )
        recovered.compact()
        recovered.close()

        compacted = ObjectStore(path)
        assert compacted.shard_map_epoch == 2
        assert compacted.shard_map_blob == blob
        assert compacted.telemetry_snapshot()["shard_map_epoch"] == 2
        compacted.close()

    def test_stamp_is_monotonic(self, tmp_path):
        store = ObjectStore(os.path.join(tmp_path, "s.db"))
        store.stamp_shard_map(3, b"{}")
        with pytest.raises(Exception):
            store.stamp_shard_map(3, b"{}")
        with pytest.raises(Exception):
            store.stamp_shard_map(2, b"{}")
        store.stamp_shard_map(4, b"{}")
        assert store.shard_map_epoch == 4
        store.close()

    def test_stamp_replicates_byte_for_byte(self, tmp_path):
        blob = four_shard().to_blob()
        primary = ObjectStore(os.path.join(tmp_path, "p.db"))
        primary.put(5, {"x": 1})
        primary.stamp_shard_map(7, blob)
        replica = ObjectStore(
            os.path.join(tmp_path, "r.db"), read_only=True
        )
        data = primary.read_log_bytes(
            replica.replication_position, primary.replication_position
        )
        replica.apply_replicated(data)
        assert replica.shard_map_epoch == 7
        assert replica.shard_map_blob == blob
        assert replica.fingerprint() == primary.fingerprint()
        primary.close()
        replica.close()
