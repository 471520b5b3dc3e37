"""Coordinator unit tests: plan classification, pruning, fan-out
failure handling, distributed EXPLAIN, and shard telemetry.

The differential suite proves the *answers* are right; this file pins
the *mechanisms* — which physical mode each query shape takes, that
pruning narrows fan-out exactly when the key predicate allows, and
that shard failures surface as one deterministic error (semantic
failures by exception kind, infrastructure failures as ``__infra__``
with federation's breakers engaged).
"""

from __future__ import annotations

import threading

import pytest

from repro.errors import PrometheusError
from repro.sharding import ShardedDatabase, ShardExecutionError
from repro.telemetry import Telemetry

from .topo import build_topology, pair, populate


class TestPlanModes:
    @pytest.fixture(scope="class")
    def db(self):
        db = build_topology(4)
        populate(db, 31)
        return db

    def _mode(self, db, text, **kwargs):
        return db.explain(text, **kwargs)

    def test_single_extent_scan_scatters(self, db):
        plan = self._mode(db, "select a from a in Base")
        assert plan["mode"] == "scatter"
        assert plan["shards"] == ["s0", "s1", "s2", "s3"]
        assert not plan["pruned"]
        assert plan["total_shards"] == 4
        assert plan["shard_map_epoch"] == db.map.epoch

    def test_bare_count_takes_count_pushdown(self, db):
        plan = self._mode(db, "select count(a) from a in Base")
        assert plan["mode"] == "scatter_count"
        assert "count" in plan["pushed_query"]

    def test_order_limit_pushes_topn(self, db):
        plan = self._mode(
            db, "select a from a in Base order by a.size limit 5"
        )
        assert plan["mode"] == "scatter"
        assert plan["push_order"] and plan["push_limit"]
        assert "limit 5" in plan["pushed_query"]

    def test_distinct_blocks_limit_pushdown(self, db):
        plan = self._mode(
            db,
            "select distinct a.name from a in Base "
            "order by a.name limit 5",
        )
        assert plan["mode"] == "scatter"
        assert not plan["push_limit"]
        assert "limit" not in plan["pushed_query"]

    @pytest.mark.parametrize(
        "text,why",
        [
            ("select b from a in Base, b in a->Links", "Traversal"),
            ("select a from a in Base, b in Base where a.size = b.size",
             "extent"),
            ("select sum(a.size) from a in Base", "aggregate"),
            ("select a.rank from a in Base group by a.rank", "group"),
            ("select l from l in Links", "relationship"),
        ],
    )
    def test_cross_shard_shapes_gather(self, db, text, why):
        plan = self._mode(db, text)
        assert plan["mode"] == "gather", text
        assert plan["reason"]

    def test_as_of_always_gathers(self, db):
        seq = db.commit()
        plan = self._mode(db, "select a from a in Base", as_of=seq)
        assert plan["mode"] == "gather"
        assert "as_of" in plan["reason"]


class TestGatherShipping:
    """Distributed EXPLAIN of a gather names what it ships."""

    @pytest.fixture(scope="class")
    def db(self):
        db = build_topology(4)
        populate(db, 31)
        return db

    @pytest.mark.parametrize(
        "text,extents,traversed,pushed,hop_bound",
        [
            (
                "select a.rank as r, count(a) as n from a in Base "
                "where a.size = 3 and a.flag group by a.rank",
                [], [],
                "select a from a in Base where ((a.size = 3) and a.flag)",
                None,
            ),
            (
                "select b from a in Base, b in a->Links where a.oid = $oid "
                "and b.size > 1",
                [], ["Links"],
                "select a from a in Base where (a.oid = $oid)",
                1,
            ),
            (
                "select c from a in Base, b in a<-Links{1,2}, "
                "c in b->Bridges",
                ["Base"], ["Bridges", "Links"], None, 3,
            ),
            (
                "select b from a in Base, b in a->Links+ where a.flag",
                ["Links"], [], "select a from a in Base where a.flag", None,
            ),
            (
                "select a from a in Base, c in Cat where a.size > 1",
                ["Base", "Cat"], [], None, None,
            ),
            (
                "select roles(a) from a in Base where a.flag",
                ["Base", "Bridges", "Links"], [], None, None,
            ),
        ],
    )
    def test_gather_names_what_it_ships(
        self, db, text, extents, traversed, pushed, hop_bound
    ):
        plan = db.explain(text)
        assert plan["mode"] == "gather"
        assert plan["extents"] == extents
        assert plan["traversed"] == traversed
        assert plan["pushed_query"] == pushed
        assert plan["hop_bound"] == hop_bound


class TestPruning:
    @pytest.fixture(scope="class")
    def db(self):
        db = build_topology(4)
        populate(db, 37)
        return db

    def test_key_equality_prunes_to_one_shard(self, db):
        plan = db.explain(
            'select a from a in Base where a.rank = "genus"'
        )
        assert plan["pruned"]
        assert plan["shards"] == ["s1"]

    def test_like_prefix_prunes(self, db):
        plan = db.explain(
            'select a from a in Base where a.rank like "kingdom%"'
        )
        assert plan["pruned"]
        assert plan["shards"] == ["s2"]

    def test_or_disables_pruning(self, db):
        plan = db.explain(
            'select a from a in Base '
            'where (a.rank = "genus" or a.flag)'
        )
        assert not plan["pruned"]
        assert len(plan["shards"]) == 4

    def test_contradictory_conjuncts_prune_to_nothing(self, db):
        plan = db.explain(
            'select a from a in Base '
            'where a.rank = "genus" and a.rank = "species"'
        )
        assert plan["pruned"]
        assert plan["shards"] == []
        # And the scatter over zero shards returns an empty result.
        assert db.query(
            'select a from a in Base '
            'where a.rank = "genus" and a.rank = "species"',
            check=False,
        ) == []

    def test_underscore_wildcard_blocks_prefix_pruning(self, db):
        plan = db.explain(
            'select a from a in Base where a.rank like "gen_s%"'
        )
        assert not plan["pruned"]


class TestFanoutFailures:
    def test_semantic_failures_dedupe_by_kind(self):
        db = build_topology(4)
        populate(db, 41)

        def boom(text, params=None, as_of=None):
            raise PrometheusError("shard-side failure")

        for name in ("s1", "s3"):
            db.shards[name].query = boom
        with pytest.raises(ShardExecutionError) as err:
            db.query("select a from a in Base", check=False)
        assert err.value.kinds == ["PrometheusError"]

    def test_infra_failure_surfaces_and_trips_breaker(self):
        db = build_topology(4)
        populate(db, 43)

        def dead(text, params=None, as_of=None):
            raise ConnectionError("")  # empty message on purpose

        db.shards["s2"].query = dead
        for _ in range(db.federation.breaker_threshold):
            with pytest.raises(ShardExecutionError) as err:
                db.query("select a from a in Base", check=False)
            assert err.value.kinds == ["__infra__"]
        assert db.federation.breaker("s2").state == "open"
        # Breaker-open is still a deterministic infra failure, not a
        # silent partial result.
        with pytest.raises(ShardExecutionError) as err:
            db.query("select a from a in Base", check=False)
        assert err.value.kinds == ["__infra__"]

    def test_incomparable_values_are_refused_without_tripping_breakers(self):
        """An int attribute compared with a string, or a string
        negated, is a per-shard EvaluationError — an answer, so no
        breaker moves and a healthy query still runs after more bad ones
        than the threshold."""
        db = build_topology(4)
        populate(db, 53)
        for bad in (
            "select a from a in Base where a.size > $p",
            "select a from a in Base where a.size > -$p",
        ):
            for _ in range(db.federation.breaker_threshold + 1):
                with pytest.raises(ShardExecutionError) as err:
                    db.query(bad, params={"p": "x"})
                assert err.value.kinds == ["EvaluationError"]
        for name in sorted(db.shards):
            breaker = db.federation.breaker(name)
            assert breaker.state == "closed"
            assert breaker.consecutive_failures == 0
        count = db.query("select count(a) from a in Base")
        assert count == [len(db.query("select a from a in Base"))]

    def test_pruned_query_avoids_the_dead_shard(self):
        db = build_topology(4)
        populate(db, 47)

        def dead(text, params=None, as_of=None):
            raise ConnectionError("down")

        db.shards["s0"].query = dead
        # rank="genus" routes to s1 only: the dead shard is never asked.
        rows = db.query(
            'select a.name from a in Base where a.rank = "genus"',
            check=False,
        )
        assert isinstance(rows, list)

    def test_shard_queries_start_no_thread(self, monkeypatch):
        """In-process shards are called on the caller's thread: under
        the GIL a thread per shard overlaps nothing."""
        db = build_topology(4)
        populate(db, 61)
        texts = {
            "scatter": "select a from a in Base order by a.size",
            "scatter_count": "select count(a) from a in Base",
            "gather": "select b.label from a in Base, b in a->Bridges",
        }
        for mode, text in texts.items():
            assert db.explain(text)["mode"] == mode
        started = []
        original = threading.Thread.start

        def counting_start(thread):
            started.append(thread.name)
            return original(thread)

        monkeypatch.setattr(threading.Thread, "start", counting_start)
        for text in texts.values():
            assert db.query(text, check=False)
        assert started == []

    def test_open_breaker_and_lost_shard_are_infra(self):
        """A shard whose breaker is open and one that loses its
        connection both read ``__infra__``; every other shard is still
        asked, and only the called shards' breakers move."""
        db = build_topology(4)
        populate(db, 67)
        federation = db.federation
        opened = federation.breaker("s0")
        for _ in range(federation.breaker_threshold):
            opened.record_failure()
        failures_before = opened.consecutive_failures
        asked = []

        def dead(text, params=None, as_of=None):
            raise ConnectionError("")

        def answering(name, query):
            def answer(text, params=None, as_of=None):
                asked.append(name)
                return query(text, params, as_of)

            return answer

        db.shards["s2"].query = dead
        for name in ("s1", "s3"):
            db.shards[name].query = answering(name, db.shards[name].query)
        with pytest.raises(ShardExecutionError) as err:
            db.query("select a from a in Base", check=False)
        assert err.value.kinds == ["__infra__"]
        assert "s0: " in str(err.value) and "s2: ConnectionError" in str(
            err.value
        )
        assert sorted(asked) == ["s1", "s3"]
        assert opened.state == "open"
        assert opened.consecutive_failures == failures_before
        assert federation.breaker("s2").consecutive_failures == 1
        assert federation.breaker("s1").consecutive_failures == 0
        assert federation.breaker("s3").consecutive_failures == 0


class TestTelemetry:
    def test_query_and_prune_counters_advance(self):
        telemetry = Telemetry()
        from .topo import fuzz_ddl, index_ddl, make_map

        db = ShardedDatabase(
            make_map(4), fuzz_ddl, index_ddl=index_ddl,
            telemetry=telemetry,
        )
        populate(db, 53)
        db.query("select a from a in Base", check=False)
        db.query(
            'select a from a in Base where a.rank = "genus"',
            check=False,
        )
        text = telemetry.registry.render_prometheus()
        assert 'repro_shard_queries_total{mode="scatter"}' in text
        assert "repro_shard_pruned_total 1" in text
        assert "repro_shard_map_epoch 1" in text

    def test_rebalance_metrics(self):
        from repro.sharding import ExtentRebalancer
        from .topo import fuzz_ddl, index_ddl, make_map

        telemetry = Telemetry()
        db = ShardedDatabase(
            make_map(4), fuzz_ddl, index_ddl=index_ddl,
            telemetry=telemetry,
        )
        populate(db, 59)
        ExtentRebalancer(db).move_range(None, "genus", "s2")
        text = telemetry.registry.render_prometheus()
        assert "repro_shard_rebalance_total 1" in text
        assert "repro_shard_moved_objects_total" in text
        assert "repro_shard_map_epoch 2" in text
