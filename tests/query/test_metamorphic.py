"""Metamorphic planner invariants.

Three transformations that must never change query *results*, only
(possibly) the EXPLAIN access path:

1. adding a matching index;
2. serving a query from the plan cache instead of cold-planning it;
3. adding ``LIMIT k`` (the limited rows must be a prefix/subset).
"""

from __future__ import annotations

import json
from collections import Counter

import pytest

from .qgen import QueryGen
from .test_differential import build_db, canon


def _multiset(rows):
    return Counter(canon(v) for v in rows)


class TestIndexInvariance:
    """Adding an index changes the access path, never the results."""

    def test_fuzzed_queries_survive_index_addition(self):
        seed = 404
        db = build_db(seed)
        for pair in [("Base", "name"), ("Base", "size"),
                     ("Base", "year"), ("Base", "rank")]:
            db.indexes.drop_index(*pair)
        gen = QueryGen(seed)
        cases = [gen.spec() for _ in range(60)]
        before = {}
        for i, spec in enumerate(cases):
            before[i] = db.query(spec.text(), check=False)
        db.indexes.create_index("Base", "name", kind="hash")
        db.indexes.create_index("Base", "size", kind="btree")
        db.indexes.create_index("Base", "year", kind="btree")
        db.indexes.create_index("Base", "rank", kind="hash")
        for i, spec in enumerate(cases):
            after = db.query(spec.text(), check=False)
            if spec.order_by:
                assert [canon(v) for v in before[i]] == [
                    canon(v) for v in after
                ], spec.text()
            else:
                assert _multiset(before[i]) == _multiset(after), spec.text()

    def test_access_path_flips_but_rows_do_not(self):
        db = build_db(17)
        query = "explain select x from x in Base where x.size = 3"
        db.indexes.drop_index("Base", "size")
        cold = db.query(query, check=False)
        assert cold["plan"]["access_paths"] == ["scan:Base"]
        db.indexes.create_index("Base", "size", kind="btree")
        warm = db.query(query, check=False)
        assert warm["plan"]["access_paths"] == ["index:Base.size"]
        assert warm["rows"] == cold["rows"]

    def test_index_epoch_invalidates_cached_plan(self):
        db = build_db(18)
        query = "explain select x from x in Base where x.rank = \"genus\""
        first = db.query(query, check=False)
        assert first["plan"]["cache"] == "miss"
        again = db.query(query, check=False)
        assert again["plan"]["cache"] == "hit"
        db.indexes.drop_index("Base", "rank")
        after_drop = db.query(query, check=False)
        # The epoch moved: the stale index_eq plan must not be served.
        assert after_drop["plan"]["cache"] == "miss"
        assert after_drop["plan"]["access_paths"] == ["scan:Base"]
        assert after_drop["rows"] == first["rows"]


class TestPlanCacheInvariance:
    """A plan-cache hit returns byte-identical results to a cold plan."""

    def test_hit_equals_cold_for_fuzzed_queries(self):
        db = build_db(505)
        gen = QueryGen(505)
        for _ in range(40):
            spec = gen.spec()
            text = spec.text()
            cold = db.query(text, check=False)
            hit = db.query(text, check=False)
            assert json.dumps([canon(v) for v in cold], sort_keys=True) == \
                json.dumps([canon(v) for v in hit], sort_keys=True), text

    def test_literal_normalisation_shares_one_plan(self):
        """Queries differing only in constants reuse the same plan."""
        db = build_db(506)
        db.query("select x from x in Base where x.size = 1", check=False)
        built_before = db.planner.built
        for size in (2, 3, 4, 5):
            report = db.query(
                f"explain select x from x in Base where x.size = {size}",
                check=False,
            )
            assert report["plan"]["cache"] == "hit"
        assert db.planner.built == built_before
        # ... but the answers still track the literal.
        one = db.query("select x.size from x in Base where x.size = 1",
                       check=False)
        two = db.query("select x.size from x in Base where x.size = 2",
                       check=False)
        assert set(one) <= {1} and set(two) <= {2}


class TestLimitInvariance:
    """LIMIT k results are always contained in the unlimited results."""

    def test_limit_is_subset_of_unlimited(self):
        db = build_db(606)
        gen = QueryGen(606)
        checked = 0
        for _ in range(80):
            spec = gen.spec()
            spec.limit = None
            unlimited = db.query(spec.text(), check=False)
            for k in (1, 3, 7):
                spec.limit = k
                limited = db.query(spec.text(), check=False)
                assert len(limited) <= k
                if spec.order_by:
                    # Deterministic order: LIMIT is an exact prefix.
                    assert [canon(v) for v in limited] == [
                        canon(v) for v in unlimited
                    ][:k], spec.text()
                else:
                    assert not (_multiset(limited) - _multiset(unlimited)), \
                        spec.text()
            checked += 1
        assert checked == 80


class TestPlannerFallbackParity:
    """A query the planner cannot compile lands on the naive interpreter."""

    def test_engine_marker(self, monkeypatch):
        from repro.engine import PrometheusDB
        from repro.core.attributes import Attribute
        from repro.core import types as T

        db = PrometheusDB()
        db.schema.define_class("C", [Attribute("n", T.INTEGER)])
        db.schema.create("C", n=1)

        def refuse(*args, **kwargs):
            raise NotImplementedError("forced planner failure")

        monkeypatch.setattr(db.planner, "_build", refuse)
        report = db.query("explain select c from c in C")
        assert report["plan"]["engine"] == "naive"
        assert report["plan"]["plan_tree"] is None
        assert report["rows"] == 1
        assert db.planner.failures == 1
