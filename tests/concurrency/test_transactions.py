"""Managed transactions: staging, isolation, conflict detection."""

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.engine import PrometheusDB
from repro.errors import (
    AttributeUnknownError,
    ConflictError,
    InstanceDeletedError,
    SchemaError,
    TransactionError,
)


@pytest.fixture
def db():
    database = PrometheusDB()
    database.schema.define_class(
        "Taxon",
        [
            Attribute("name", T.STRING),
            Attribute("rank", T.STRING),
            Attribute("count", T.INTEGER),
        ],
    )
    database.schema.define_relationship("ChildOf", "Taxon", "Taxon")
    return database


@pytest.fixture
def taxon(db):
    obj = db.schema.create("Taxon", name="Quercus", rank="genus", count=0)
    db.commit()
    return obj.oid


class TestStaging:
    def test_writes_invisible_until_commit(self, db, taxon):
        txn = db.begin()
        txn.set(taxon, "rank", "subgenus")
        assert db.schema.get_object(taxon).get("rank") == "genus"
        txn.commit()
        assert db.schema.get_object(taxon).get("rank") == "subgenus"

    def test_read_your_writes(self, db, taxon):
        txn = db.begin()
        txn.set(taxon, "rank", "subgenus")
        assert txn.get(taxon)["rank"] == "subgenus"
        assert txn.get_value(taxon, "name") == "Quercus"
        txn.abort()

    def test_create_allocates_final_oid(self, db, taxon):
        txn = db.begin()
        oid = txn.create("Taxon", name="Fagus", rank="genus")
        assert oid > taxon
        assert not db.schema.has_object(oid)
        txn.commit()
        assert db.schema.get_object(oid).get("name") == "Fagus"

    def test_set_on_staged_create_folds_in(self, db):
        txn = db.begin()
        oid = txn.create("Taxon", name="Fagus")
        txn.set(oid, "rank", "genus")
        assert txn.get(oid)["rank"] == "genus"
        txn.commit()
        assert db.schema.get_object(oid).get("rank") == "genus"

    def test_create_then_delete_is_noop(self, db):
        txn = db.begin()
        oid = txn.create("Taxon", name="Ghost")
        txn.delete(oid)
        txn.commit()
        assert not db.schema.has_object(oid)

    def test_delete_visible_only_inside(self, db, taxon):
        txn = db.begin()
        txn.delete(taxon)
        with pytest.raises(InstanceDeletedError):
            txn.get(taxon)
        assert db.schema.has_object(taxon)
        txn.commit()
        assert not db.schema.has_object(taxon)

    def test_unknown_attribute_fails_at_staging(self, db, taxon):
        txn = db.begin()
        with pytest.raises(AttributeUnknownError):
            txn.set(taxon, "nonsense", 1)
        txn.abort()

    def test_abstract_and_relationship_classes_rejected(self, db):
        db.schema.define_class("Abstract", [], abstract=True)
        txn = db.begin()
        with pytest.raises(SchemaError):
            txn.create("Abstract")
        with pytest.raises(SchemaError):
            txn.create("ChildOf")
        txn.abort()

    def test_relate_and_unrelate(self, db, taxon):
        child = db.schema.create("Taxon", name="Fagus").oid
        db.commit()
        txn = db.begin()
        rel = txn.relate("ChildOf", child, taxon)
        txn.commit()
        assert db.schema.get_object(rel).origin_oid == child
        txn2 = db.begin()
        txn2.unrelate(rel)
        txn2.commit()
        assert not db.schema.has_object(rel)

    def test_relate_then_unrelate_in_same_txn(self, db, taxon):
        child = db.schema.create("Taxon", name="Fagus").oid
        db.commit()
        txn = db.begin()
        rel = txn.relate("ChildOf", child, taxon)
        txn.unrelate(rel)
        txn.commit()
        assert not db.schema.has_object(rel)

    def test_finished_txn_rejects_everything(self, db, taxon):
        txn = db.begin()
        txn.commit()
        with pytest.raises(TransactionError):
            txn.set(taxon, "rank", "x")
        with pytest.raises(TransactionError):
            txn.commit()


class TestConflicts:
    def test_first_committer_wins(self, db, taxon):
        t1, t2 = db.begin(), db.begin()
        t1.set(taxon, "rank", "one")
        t2.set(taxon, "rank", "two")
        t1.commit()
        with pytest.raises(ConflictError) as err:
            t2.commit()
        assert taxon in err.value.oids
        assert db.schema.get_object(taxon).get("rank") == "one"

    def test_get_then_set_validates_read_version(self, db, taxon):
        """A commit landing between a txn's read and its write is a
        lost update and must be rejected."""
        t2 = db.begin()
        value = t2.get(taxon)["count"]
        with db.begin() as t1:
            t1.set(taxon, "count", 100)
        t2.set(taxon, "count", value + 1)
        with pytest.raises(ConflictError):
            t2.commit()
        assert db.schema.get_object(taxon).get("count") == 100

    def test_disjoint_writes_do_not_conflict(self, db, taxon):
        other = db.schema.create("Taxon", name="Fagus").oid
        db.commit()
        t1, t2 = db.begin(), db.begin()
        t1.set(taxon, "rank", "one")
        t2.set(other, "rank", "two")
        t1.commit()
        t2.commit()  # no conflict

    def test_conflict_with_implicit_session(self, db, taxon):
        txn = db.begin()
        txn.set(taxon, "rank", "managed")
        db.schema.get_object(taxon).set("rank", "implicit")
        db.commit()
        with pytest.raises(ConflictError):
            txn.commit()
        assert db.schema.get_object(taxon).get("rank") == "implicit"

    def test_shared_relationship_endpoint_conflicts(self, db, taxon):
        a = db.schema.create("Taxon", name="A").oid
        b = db.schema.create("Taxon", name="B").oid
        db.commit()
        t1, t2 = db.begin(), db.begin()
        t1.relate("ChildOf", a, taxon)
        t2.relate("ChildOf", b, taxon)  # same destination endpoint
        t1.commit()
        with pytest.raises(ConflictError):
            t2.commit()

    def test_validate_reads_rejects_stale_read(self, db, taxon):
        t2 = db.begin(validate_reads=True)
        t2.get(taxon)
        with db.begin() as t1:
            t1.set(taxon, "rank", "moved")
        other = t2.create("Taxon", name="New")
        with pytest.raises(ConflictError):
            t2.commit()
        assert not db.schema.has_object(other)

    def test_empty_commit_never_conflicts(self, db, taxon):
        t2 = db.begin()
        t2.get(taxon)
        with db.begin() as t1:
            t1.set(taxon, "rank", "moved")
        t2.commit()  # read-only, default validation: fine

    def test_retry_after_conflict_succeeds(self, db, taxon):
        t1, t2 = db.begin(), db.begin()
        t1.set(taxon, "count", 1)
        t2.set(taxon, "count", 2)
        t1.commit()
        with pytest.raises(ConflictError):
            t2.commit()
        retry = db.begin()
        retry.set(taxon, "count", retry.get(taxon)["count"] + 1)
        retry.commit()
        assert db.schema.get_object(taxon).get("count") == 2


class TestContextManager:
    def test_clean_exit_commits(self, db, taxon):
        with db.begin() as txn:
            txn.set(taxon, "rank", "cm")
        assert db.schema.get_object(taxon).get("rank") == "cm"

    def test_exception_aborts(self, db, taxon):
        with pytest.raises(RuntimeError):
            with db.begin() as txn:
                txn.set(taxon, "rank", "cm")
                raise RuntimeError("boom")
        assert db.schema.get_object(taxon).get("rank") == "genus"


class TestManagerBookkeeping:
    def test_commit_timestamps_are_monotonic(self, db, taxon):
        stamps = []
        for i in range(3):
            txn = db.begin()
            txn.set(taxon, "count", i)
            stamps.append(txn.commit())
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 3

    def test_stats_snapshot(self, db, taxon):
        with db.begin() as txn:
            txn.set(taxon, "count", 1)
        bad = db.begin()
        bad.set(taxon, "count", 0)
        db.begin().abort()
        with db.begin() as winner:
            winner.set(taxon, "count", 2)
        with pytest.raises(ConflictError):
            bad.commit()
        snap = db.transactions.snapshot()
        assert snap["committed"] == 2
        assert snap["conflicts"] == 1
        assert snap["aborted"] == 2  # voluntary abort + conflict
        assert snap["active"] == 0

    def test_implicit_commit_bumps_versions(self, db, taxon):
        before = db.transactions.version_of(taxon)
        db.schema.get_object(taxon).set("rank", "bumped")
        db.commit()
        assert db.transactions.version_of(taxon) > before

    @pytest.mark.parametrize("cancel", ["delete", "unrelate"])
    def test_all_cancelled_is_an_empty_commit(self, db, taxon, cancel):
        manager = db.transactions
        published = manager.published_snapshot
        empty = manager.stats.empty_commits
        txn = db.begin()
        if cancel == "delete":
            txn.delete(txn.create("Taxon", name="Ghost"))
        else:
            txn.unrelate(txn.relate("ChildOf", taxon, taxon))
        assert txn.op_count == 0 and list(txn.ops) == []
        assert txn.commit() == published[0]
        assert txn.commit_ts == published[0]
        assert manager.published_snapshot == published
        assert manager.stats.empty_commits == empty + 1
