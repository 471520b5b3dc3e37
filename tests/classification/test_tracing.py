"""Traceability: the trace log (requirement 4)."""

from repro.classification import ClassificationManager, TraceLog
from repro.storage.store import ObjectStore
from tests.classification.conftest import make_graph_schema


class TestTraceLog:
    def test_record_and_query(self, graph_schema, nodes):
        log = TraceLog(graph_schema)
        log.record(
            TraceLog.PLACE,
            "c1",
            actor="Linnaeus",
            reason="leaf shape",
            subject_oid=nodes[1].oid,
            object_oid=nodes[0].oid,
        )
        log.record(TraceLog.MOVE, "c2", actor="Koch", subject_oid=nodes[1].oid)
        assert len(log) == 2
        assert [e.operation for e in log] == ["place", "move"]
        assert len(log.for_classification("c1")) == 1
        assert len(log.for_object(nodes[1].oid)) == 2
        assert len(log.by_actor("Koch")) == 1

    def test_sequence_numbers(self, graph_schema):
        log = TraceLog(graph_schema)
        entries = [log.record("place", "c") for _ in range(3)]
        assert [e.sequence for e in entries] == [1, 2, 3]

    def test_explain(self, graph_schema, nodes):
        log = TraceLog(graph_schema)
        log.record(
            "place", "c1", actor="L.", reason="shape", subject_oid=nodes[0].oid
        )
        lines = log.explain(nodes[0].oid)
        assert len(lines) == 1
        assert "by L." in lines[0]
        assert "shape" in lines[0]

    def test_details_payload(self, graph_schema):
        log = TraceLog(graph_schema)
        entry = log.record("derive-names", "c", epithet="Apium", year=1753)
        assert entry.details == {"epithet": "Apium", "year": 1753}

    def test_persistence(self, tmp_path):
        path = tmp_path / "t.plog"
        store = ObjectStore(path)
        schema = make_graph_schema(store)
        log = TraceLog(schema)
        log.record("place", "c1", actor="A", subject_oid=5)
        schema.commit()
        store.close()

        store2 = ObjectStore(path)
        schema2 = make_graph_schema(store2)
        schema2.load_all()
        log2 = TraceLog(schema2)
        assert len(log2) == 1
        entry = next(iter(log2))
        assert entry.actor == "A"
        assert entry.subject_oid == 5
        assert entry.timestamp  # preserved
        store2.close()


class TestTraceRollback:
    def test_aborted_placement_leaves_no_entry(self, tmp_path):
        from repro.engine import PrometheusDB
        from repro.taxonomy import TaxonomyDatabase, define_taxonomy_schema

        path = tmp_path / "trace.plog"
        db = PrometheusDB(path)
        taxdb = TaxonomyDatabase.over_engine(db)
        c = taxdb.new_classification("c")
        genus = taxdb.new_taxon("Genus")
        species = taxdb.new_taxon("Species")
        db.commit()
        taxdb.place(c, genus, species, motivation="petals")
        assert len(taxdb.trace) == 1
        db.abort()
        assert len(taxdb.trace) == 0
        assert len(c) == 0
        db.commit()
        db.close()

        again = PrometheusDB(path)
        define_taxonomy_schema(again.schema)
        again.load()
        assert len(again.classifications.get("c")) == 0
        assert len(again.trace) == 0
        assert again.schema.meta_extras["trace_log"] == []
        again.close()
