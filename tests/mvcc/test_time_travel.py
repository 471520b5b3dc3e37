"""Time travel: ``as_of`` queries, pinned snapshots, classifications."""

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.engine import PrometheusDB
from repro.errors import SchemaError, SnapshotError


def declare(db):
    db.schema.define_class(
        "Taxon",
        [Attribute("name", T.STRING), Attribute("rank", T.STRING)],
    )
    db.schema.define_relationship("ChildOf", "Taxon", "Taxon")


@pytest.fixture(params=["memory", "store"])
def db(request, tmp_path):
    database = PrometheusDB(
        tmp_path / "tt.plog" if request.param == "store" else None
    )
    declare(database)
    database.load()
    yield database
    database.close()


@pytest.fixture
def history(db):
    """Three commits; returns [(lsn, expected name set)] per commit."""
    steps = []
    a = db.schema.create("Taxon", name="Quercus", rank="genus")
    db.commit()
    steps.append((db.lsn, {"Quercus"}))
    b = db.schema.create("Taxon", name="Fagus", rank="genus")
    db.commit()
    steps.append((db.lsn, {"Quercus", "Fagus"}))
    a.set("name", "Quercus_sensu_lato")
    db.schema.delete(b)
    db.commit()
    steps.append((db.lsn, {"Quercus_sensu_lato"}))
    return steps


QUERY = "select t.name from t in Taxon"


class TestAsOfQueries:
    def test_every_commit_lsn_is_queryable(self, db, history):
        for lsn, expected in history:
            assert set(db.query(QUERY, as_of=lsn)) == expected

    def test_as_of_head_equals_live(self, db, history):
        assert set(db.query(QUERY, as_of=db.lsn)) == set(db.query(QUERY))

    def test_future_lsn_rejected(self, db, history):
        with pytest.raises(SnapshotError, match="not yet available"):
            db.query(QUERY, as_of=history[-1][0] + 10_000)

    def test_collected_lsn_rejected(self, db, history):
        first_lsn = history[0][0]
        db.mvcc_gc()  # nothing pinned: floor advances to head
        with pytest.raises(SnapshotError, match="retained history"):
            db.query(QUERY, as_of=first_lsn - 1 if first_lsn > 0 else -1)

    def test_non_integer_as_of_rejected(self, db, history):
        with pytest.raises(SnapshotError, match="integer"):
            db.query(QUERY, as_of="yesterday")

    def test_explain_as_of_is_scan_only(self, db, history):
        db.indexes.create_index("Taxon", "name")
        lsn, _ = history[1]
        live = db.query(
            "EXPLAIN select t from t in Taxon where t.name = 'Fagus'"
        )
        assert live["plan"]["indexes_considered"] == ["Taxon.name"]
        report = db.query(
            "EXPLAIN select t from t in Taxon where t.name = 'Fagus'",
            as_of=lsn,
        )
        # Snapshot plans compile without the index catalog: live index
        # state must never leak into a historical read.
        assert report["plan"]["indexes_considered"] == []
        assert report["plan"]["index_used"] is None
        assert all(
            not p.startswith("index:")
            for p in report["plan"]["access_paths"]
        )
        assert report["rows"] == 1

    def test_plan_cache_never_crosses_the_as_of_boundary(self, db, history):
        """A live plan and an as_of plan for the same text are distinct
        cache entries — the snapshot LSN is part of the stamp."""
        planner = db.planner
        text = "select t from t in Taxon where t.rank = 'genus'"
        db.query(text)
        misses_before = planner.misses
        db.query(text)  # warm: live plan now cached
        assert planner.misses == misses_before
        db.query(text, as_of=history[0][0])  # must compile its own plan
        assert planner.misses == misses_before + 1
        db.query(text, as_of=history[0][0])  # …which is itself cached
        assert planner.misses == misses_before + 1


class TestDatabaseSnapshot:
    def test_snapshot_pins_against_gc(self, db, history):
        first_lsn, expected = history[0]
        snap = db.snapshot(as_of=first_lsn)
        db.mvcc_gc()
        # The pin held the floor: the old version is still resolvable.
        assert set(snap.query(QUERY)) == expected
        snap.release()
        db.release_snapshots()  # drop the view cache's own pin too
        db.mvcc_gc()
        with pytest.raises(SnapshotError):
            db.query(QUERY, as_of=first_lsn)

    def test_snapshot_default_is_now(self, db, history):
        with db.snapshot() as snap:
            assert snap.lsn == db.lsn
            assert set(snap.query(QUERY)) == history[-1][1]

    def test_released_snapshot_refuses_reads(self, db, history):
        snap = db.snapshot()
        snap.release()
        with pytest.raises(SnapshotError, match="released"):
            snap.query(QUERY)

    def test_snapshot_schema_is_read_only(self, db, history):
        with db.snapshot(as_of=history[0][0]) as snap:
            view = snap.schema
            obj = next(iter(view.all_objects()))
            with pytest.raises(SchemaError):
                obj.set("name", "mutated-the-past")

    def test_snapshot_relationships_materialized(self, db, history):
        parent = db.schema.create("Taxon", name="Fagaceae", rank="family")
        child = db.schema.create("Taxon", name="Castanea", rank="genus")
        db.schema.relate("ChildOf", child, parent)
        db.commit()
        lsn = db.lsn
        db.schema.delete(child)
        db.commit()
        traversal = (
            "select c.name from c in Taxon, p in c->ChildOf "
            "where p.name = 'Fagaceae'"
        )
        assert db.query(traversal, as_of=lsn) == ["Castanea"]
        assert db.query(traversal) == []


class TestTimeTravelClassifications:
    def test_classifications_as_of(self, db):
        """The paper's revision scenario: ask what a classification
        looked like before the taxonomist reworked it."""
        fam = db.schema.create("Taxon", name="Fagaceae", rank="family")
        quercus = db.schema.create("Taxon", name="Quercus", rank="genus")
        fagus = db.schema.create("Taxon", name="Fagus", rank="genus")
        e1 = db.schema.relate("ChildOf", quercus, fam)
        e2 = db.schema.relate("ChildOf", fagus, fam)
        linnaeus = db.classifications.create("linnaeus-1753", author="L.")
        linnaeus.add_edge(e1)
        db.commit()
        old_lsn = db.lsn

        linnaeus.add_edge(e2)
        revised = db.classifications.create("engler-1924", author="Engler")
        revised.add_edge(e2)
        db.commit()

        assert db.classifications.names() == ["engler-1924", "linnaeus-1753"]
        with db.snapshot(as_of=old_lsn) as snap:
            then = snap.classifications
            assert then.names() == ["linnaeus-1753"]
            assert len(then.get("linnaeus-1753")) == 1
        # Live state is untouched by the excursion.
        assert len(db.classifications.get("linnaeus-1753")) == 2


class TestWatermarkMetrics:
    def test_mvcc_metrics_exported(self, db, history):
        db.query(QUERY, as_of=history[0][0])
        pinned = db.snapshot(as_of=history[1][0])
        text = db.telemetry.registry.render_prometheus()
        assert "repro_mvcc_pinned_snapshots" in text
        assert "repro_mvcc_watermark_lsn" in text
        assert "repro_mvcc_versions_appended_total" in text
        snap = db.mvcc.telemetry_snapshot()
        assert snap["pinned_snapshots"] >= 1
        assert snap["watermark_lsn"] <= history[1][0]
        assert snap["snapshot_reads"] >= 1
        pinned.release()

    def test_gc_interval_runs_automatically(self, tmp_path):
        database = PrometheusDB()
        declare(database)
        database.mvcc.gc.interval_commits = 10
        obj = database.schema.create("Taxon", name="x", rank="genus")
        database.commit()
        for i in range(25):
            obj.set("rank", f"rank-{i}")
            database.commit()
        assert database.mvcc.gc.runs >= 2
        assert database.mvcc.telemetry_snapshot()["versions_collected"] > 0


class TestBareSchemaCommit:
    """``db.schema.commit()`` is the same commit as ``db.commit()``."""

    def test_visible_to_as_of_snapshot_and_transactions(self, db):
        obj = db.schema.create("Taxon", name="Quercus", rank="genus")
        db.commit()
        before = db.lsn
        obj.set("name", "Fagus")
        db.schema.commit()
        assert db.lsn > before
        assert db.transactions.published_snapshot[1] == db.lsn
        assert db.query(QUERY) == ["Fagus"]
        assert db.query(QUERY, as_of=db.lsn) == ["Fagus"]
        assert db.query(QUERY, as_of=before) == ["Quercus"]
        with db.snapshot() as snap:
            assert snap.query(QUERY) == ["Fagus"]
        with db.begin() as txn:
            assert txn.get_value(obj.oid, "name") == "Fagus"

    def test_conflicts_with_a_racing_transaction(self, db):
        from repro.errors import ConflictError

        obj = db.schema.create("Taxon", name="Quercus", rank="genus")
        db.commit()
        txn = db.begin()
        txn.set(obj.oid, "name", "from-txn")
        obj.set("name", "from-session")
        db.schema.commit()
        with pytest.raises(ConflictError):
            txn.commit()


class TestSnapshotViewConstruction:
    def test_record_of_an_unregistered_class_is_refused(self, db):
        """A view installs like the boot does: an unknown class is an
        error, not a silently smaller extent."""
        from repro.mvcc.view import SnapshotSchema

        obj = db.schema.create("Taxon", name="Quercus", rank="genus")
        records = [
            (obj.oid, db.schema.to_record(obj)),
            (10_001, {"class": "NeverRegistered", "values": {"x": 1}}),
        ]
        with pytest.raises(SchemaError, match="NeverRegistered"):
            SnapshotSchema(db.schema, records, 7)
