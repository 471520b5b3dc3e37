"""Database export/import (dump/load with OID remapping)."""

import pytest

from repro.engine.dump import dump_json, dump_schema, load_dump
from repro.errors import SchemaError
from repro.taxonomy import (
    NameDeriver,
    TaxonomyDatabase,
    build_apium_scenario,
    compare_taxonomic,
)


@pytest.fixture
def scenario():
    return build_apium_scenario()


class TestDump:
    def test_document_shape(self, scenario):
        taxdb = scenario.taxdb
        document = dump_schema(taxdb.schema, taxdb.classifications)
        assert document["format"] == "prometheus-dump-v1"
        assert len(document["objects"]) > 0
        assert len(document["relationships"]) > 0
        assert document["classifications"][0]["name"] == "Raguenaud revision"

    def test_json_serialisable(self, scenario):
        import json

        taxdb = scenario.taxdb
        text = dump_json(taxdb.schema, taxdb.classifications, indent=1)
        parsed = json.loads(text)
        assert parsed["format"] == "prometheus-dump-v1"


class TestLoad:
    def test_round_trip_into_fresh_database(self, scenario):
        source = scenario.taxdb
        document = dump_schema(source.schema, source.classifications)
        target = TaxonomyDatabase()
        oid_map = load_dump(target.schema, document, target.classifications)
        assert len(oid_map) == len(list(source.schema.all_objects()))
        # Same extents...
        for class_name in ("Specimen", "NomenclaturalTaxon",
                           "CircumscriptionTaxon"):
            assert target.schema.count(class_name) == source.schema.count(
                class_name
            )
        # ...same nomenclature, with working relationships.
        apium = target.find_names(epithet="Apium")[0]
        assert target.full_name(apium) == "Apium L."
        graveolens = target.find_names(epithet="graveolens")[0]
        assert target.placement_of(graveolens).oid == apium.oid
        assert target.primary_type(graveolens) is not None

    def test_derivation_works_after_load(self, scenario):
        """The acid test: the Figure 3 derivation must reproduce on the
        imported copy."""
        source = scenario.taxdb
        document = dump_schema(source.schema, source.classifications)
        target = TaxonomyDatabase()
        load_dump(target.schema, document, target.classifications)
        classification = target.classifications.get("Raguenaud revision")
        results = NameDeriver(target, author="Raguenaud", year=2000).derive(
            classification
        )
        names = sorted(r.full_name for r in results)
        assert names == [
            "Heliosciadium W.D.J.Koch",
            "Heliosciadium repens (Jacq.)Raguenaud",
        ]

    def test_merge_into_nonempty_database(self, scenario):
        """OID remapping lets a dump merge with pre-existing data."""
        source = scenario.taxdb
        document = dump_schema(source.schema, source.classifications)
        target = TaxonomyDatabase()
        resident = target.publish_name("Residentia", "Genus", year=1800)
        load_dump(target.schema, document, target.classifications)
        assert target.schema.has_object(resident.oid)
        assert len(target.find_names(epithet="Apium")) == 1
        assert len(target.names()) == 8  # 7 imported + 1 resident

    def test_synonyms_remapped(self):
        taxdb = TaxonomyDatabase()
        a = taxdb.new_specimen(field_name="a")
        b = taxdb.new_specimen(field_name="b")
        taxdb.schema.synonyms.declare(a.oid, b.oid)
        document = dump_schema(taxdb.schema, taxdb.classifications)
        target = TaxonomyDatabase()
        oid_map = load_dump(target.schema, document, target.classifications)
        assert target.schema.synonyms.are_synonyms(
            oid_map[a.oid], oid_map[b.oid]
        )

    def test_participants_remapped(self):
        from repro.core.attributes import Attribute
        from repro.core.schema import Schema
        from repro.core import types as T

        def declare(schema):
            schema.define_class("Thing", [Attribute("label", T.STRING)])
            schema.define_relationship(
                "Deal", "Thing", "Thing",
                participants={"witness": "Thing"},
                attributes=[Attribute("year", T.INTEGER)],
            )

        source = Schema()
        declare(source)
        a, b, w = (source.create("Thing", label=x) for x in "abw")
        source.relate("Deal", a, b, participants={"witness": w}, year=2020)
        document = dump_schema(source)
        target = Schema()
        declare(target)
        load_dump(target.schema if hasattr(target, "schema") else target,
                  document)
        rel = target.relationships.instances_of("Deal")[0]
        assert rel.participant("witness").get("label") == "w"
        assert rel.get("year") == 2020

    def test_wrong_format_rejected(self):
        target = TaxonomyDatabase()
        with pytest.raises(SchemaError):
            load_dump(target.schema, {"format": "something-else"})

    def test_loaded_copy_comparable_with_itself(self, scenario):
        """A dump-loaded classification compares as a full synonym set of
        the original structure (same working names, same shapes)."""
        source = scenario.taxdb
        document = dump_schema(source.schema, source.classifications)
        target = TaxonomyDatabase()
        load_dump(target.schema, document, target.classifications)
        # Load a second copy into the same database and compare.
        load_again = dict(document)
        load_again["classifications"] = [
            {**c, "name": c["name"] + " (copy)"}
            for c in document["classifications"]
        ]
        load_dump(target.schema, load_again, target.classifications)
        a = target.classifications.get("Raguenaud revision")
        b = target.classifications.get("Raguenaud revision (copy)")
        report = compare_taxonomic(target, a, b)
        # Disjoint specimen copies: structures match but no specimens are
        # shared, so no synonym pairs arise — the copies are independent.
        assert report.shared_leaf_oids == frozenset()
        assert len(a) == len(b)


class TestLoadAbort:
    def test_abort_then_load_again(self, scenario):
        source = scenario.taxdb
        document = dump_schema(source.schema, source.classifications)
        target = TaxonomyDatabase()
        load_dump(target.schema, document, target.classifications)
        target.schema.abort()
        assert len(target.classifications) == 0
        load_dump(target.schema, document, target.classifications)
        assert target.classifications.names() == (
            source.classifications.names()
        )
        for name in source.classifications.names():
            assert len(target.classifications.get(name)) == len(
                source.classifications.get(name)
            )


class TestLoadKeepsIndexesCurrent:
    """A load is a bulk create: the indexes follow it, and an ``abort()``
    takes it back out of them, so planned answers equal naive ones."""

    POINT = "select i.name from i in Item where i.v = 3"
    EDGE = "select l.year from l in Link where l.year = 2003"

    @staticmethod
    def _declare(schema):
        from repro.core import types as T
        from repro.core.attributes import Attribute

        schema.define_class(
            "Item", [Attribute("name", T.STRING), Attribute("v", T.INTEGER)]
        )
        schema.define_relationship(
            "Link", "Item", "Item", attributes=[Attribute("year", T.INTEGER)]
        )

    def _loaded(self):
        from repro.core.schema import Schema
        from repro.engine import PrometheusDB

        source = Schema()
        self._declare(source)
        items = [source.create("Item", name=f"n{i}", v=i) for i in range(5)]
        for i in range(4):
            source.relate("Link", items[i], items[i + 1], year=2000 + i)
        db = PrometheusDB()
        self._declare(db.schema)
        db.indexes.create_index("Item", "v")
        db.indexes.create_index("Link", "year")
        db.commit()
        load_dump(db.schema, dump_schema(source))
        return db

    def _planned_equals_naive(self, db):
        from repro.query import execute

        for text in (self.POINT, self.EDGE):
            assert db.query(text) == execute(db.schema, text), text

    def test_after_commit(self):
        db = self._loaded()
        db.commit()
        assert db.query(self.POINT) == ["n3"]
        assert db.query(self.EDGE) == [2003]
        self._planned_equals_naive(db)

    def test_after_abort(self):
        db = self._loaded()
        db.abort()
        assert db.query(self.POINT) == []
        assert all(len(index) == 0 for index in db.indexes.indexes())
        self._planned_equals_naive(db)

    def test_rules_stand_down_during_the_load(self):
        from repro.errors import ConstraintViolation
        from repro.rules import Rule, on_create, on_relate

        db = self._loaded()  # indexes the load; now veto every create
        for name, event in (("no_items", on_create("Item")),
                            ("no_links", on_relate("Link"))):
            db.rules.register(
                Rule(name=name, event=event, condition=lambda ctx: False)
            )
        load_dump(db.schema, dump_schema(db.schema))
        assert db.schema.count("Item") == 10
        with pytest.raises(ConstraintViolation):
            db.schema.create("Item", name="n", v=0)
