"""EXPLAIN/PROFILE and the plan cache under transactions.

An abort undoes index entries through the undo journal and publishes
``AFTER_ABORT``, which evicts every cached plan, so post-rollback
EXPLAIN reports both a fresh plan (cache miss) and correct rows.
"""

from __future__ import annotations

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.engine import PrometheusDB


@pytest.fixture()
def db():
    db = PrometheusDB()
    db.schema.define_class(
        "Taxon",
        [Attribute("name", T.STRING), Attribute("rank", T.STRING)],
    )
    for i in range(10):
        db.schema.create(
            "Taxon", name=f"t{i}", rank="genus" if i % 2 else "species"
        )
    db.indexes.create_index("Taxon", "rank", kind="hash")
    db.commit()
    return db


QUERY = 'explain select t from t in Taxon where t.rank = "genus"'


class TestImplicitTransactionVisibility:
    def test_plan_reflects_uncommitted_implicit_writes(self, db):
        """Queries read the live object layer: implicit (unstaged)
        mutations are visible to the plan's index probe before commit."""
        before = db.query(QUERY)
        assert before["rows"] == 5
        db.schema.create("Taxon", name="new", rank="genus")
        report = db.query(QUERY)
        assert report["plan"]["access_paths"] == ["index:Taxon.rank"]
        assert report["rows"] == 6
        assert report["plan"]["rows_from_index"] == 6

    def test_abort_restores_rows_and_evicts_plans(self, db):
        db.query(QUERY)  # populate the cache
        assert db.planner.snapshot()["cache_size"] >= 1
        db.schema.create("Taxon", name="doomed", rank="genus")
        assert db.query(QUERY)["rows"] == 6
        db.abort()
        # Index entries undone AND (AFTER_ABORT) plan cache emptied.
        assert db.planner.snapshot()["cache_size"] == 0
        report = db.query(QUERY)
        assert report["plan"]["cache"] == "miss"
        assert report["plan"]["access_paths"] == ["index:Taxon.rank"]
        assert report["rows"] == 5
        assert report["plan"]["rows_from_index"] == 5

    def test_post_commit_cache_hit_serves_fresh_rows(self, db):
        assert db.query(QUERY)["plan"]["cache"] == "miss"
        db.schema.create("Taxon", name="kept", rank="genus")
        db.commit()
        report = db.query(QUERY)
        # Data changes don't invalidate plans — plans hold access
        # paths, not rows — so this is a hit with up-to-date results.
        assert report["plan"]["cache"] == "hit"
        assert report["rows"] == 6


class TestManagedTransactionIsolation:
    def test_staged_writes_invisible_to_planned_queries(self, db):
        """db.query is read-committed: a managed transaction's staged
        rows must not appear in results or index counters."""
        txn = db.begin()
        txn.create("Taxon", name="staged", rank="genus")
        report = db.query(QUERY)
        assert report["rows"] == 5
        assert report["plan"]["rows_from_index"] == 5
        txn.abort()
        assert db.query(QUERY)["rows"] == 5

    def test_committed_txn_rows_visible_through_cached_plan(self, db):
        db.query(QUERY)
        txn = db.begin()
        txn.create("Taxon", name="added", rank="genus")
        txn.commit()
        report = db.query(QUERY)
        assert report["plan"]["cache"] == "hit"
        assert report["rows"] == 6

    def test_failed_commit_rollback_evicts_plans(self, db):
        """A conflict abort goes through the same AFTER_ABORT path."""
        db.query(QUERY)
        size_before = db.planner.snapshot()["cache_size"]
        assert size_before >= 1
        db.schema.create("Taxon", name="x", rank="genus")
        db.abort()  # the implicit rollback everyone shares
        assert db.planner.snapshot()["cache_size"] == 0


class TestProfileUnderTransactions:
    def test_profile_spans_present_with_planner(self, db):
        report = db.query(
            'profile select t from t in Taxon where t.rank = "genus"'
        )
        assert report["mode"] == "profile"
        assert "elapsed_ms" in report
        names = [s["name"] for s in _walk_spans(report["spans"])]
        assert "pool.select" in names
        assert report["plan"]["engine"] == "cost"
        assert report["plan"]["plan_tree"] is not None

    def test_profile_mid_transaction_counts_committed_rows_only(self, db):
        txn = db.begin()
        txn.create("Taxon", name="staged", rank="genus")
        report = db.query(
            'profile select t from t in Taxon where t.rank = "genus"'
        )
        assert report["rows"] == 5
        txn.abort()


def _walk_spans(spans):
    for span in spans:
        yield span
        yield from _walk_spans(span.get("children", ()))
