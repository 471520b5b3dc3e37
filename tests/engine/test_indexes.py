"""Index layer: declaration, event-driven maintenance, probing."""

import pytest

from repro.engine.indexes import IndexManager
from repro.errors import SchemaError


@pytest.fixture
def indexes(schema):
    return IndexManager(schema)


class TestDeclaration:
    def test_create_hash_index(self, schema, indexes):
        schema.create("Person", name="Alice")
        index = indexes.create_index("Person", "name")
        assert len(index) == 1  # existing objects indexed at creation

    def test_unknown_attribute(self, schema, indexes):
        with pytest.raises(SchemaError):
            indexes.create_index("Person", "height")

    def test_duplicate_rejected(self, schema, indexes):
        indexes.create_index("Person", "name")
        with pytest.raises(SchemaError):
            indexes.create_index("Person", "name")

    def test_drop(self, schema, indexes):
        indexes.create_index("Person", "name")
        indexes.drop_index("Person", "name")
        assert indexes.probe("Person", "name", "x") is None


class TestMaintenance:
    def test_create_indexes_new_objects(self, schema, indexes):
        indexes.create_index("Person", "name")
        alice = schema.create("Person", name="Alice")
        assert indexes.probe("Person", "name", "Alice") == [alice]

    def test_update_moves_entry(self, schema, indexes):
        indexes.create_index("Person", "name")
        alice = schema.create("Person", name="Alice")
        alice.set("name", "Alicia")
        assert indexes.probe("Person", "name", "Alice") == []
        assert indexes.probe("Person", "name", "Alicia") == [alice]

    def test_delete_removes_entry(self, schema, indexes):
        indexes.create_index("Person", "name")
        alice = schema.create("Person", name="Alice")
        schema.delete(alice)
        assert indexes.probe("Person", "name", "Alice") == []

    def test_subclass_instances_indexed(self, schema, indexes):
        indexes.create_index("Person", "name")
        employee = schema.create("Employee", name="Bob", salary=1.0)
        assert indexes.probe("Person", "name", "Bob") == [employee]

    def test_relationship_attribute_index(self, schema, indexes):
        indexes.create_index("WorksFor", "since")
        alice = schema.create("Person", name="A")
        acme = schema.create("Company", title="C")
        rel = schema.relate("WorksFor", alice, acme, since=1999)
        assert indexes.probe("WorksFor", "since", 1999) == [rel]
        schema.unrelate(rel)
        assert indexes.probe("WorksFor", "since", 1999) == []

    def test_unindexed_probe_returns_none(self, schema, indexes):
        assert indexes.probe("Person", "name", "x") is None


class TestBTreeIndexes:
    def test_range_query(self, schema, indexes):
        indexes.create_index("Person", "age", kind="btree")
        people = [
            schema.create("Person", name=f"p{i}", age=i * 10)
            for i in range(6)
        ]
        result = indexes.range("Person", "age", 15, 40)
        assert result == [people[2], people[3], people[4]]

    def test_range_requires_btree(self, schema, indexes):
        indexes.create_index("Person", "name", kind="hash")
        with pytest.raises(SchemaError):
            indexes.range("Person", "name", "a", "z")

    def test_null_values_probed(self, schema, indexes):
        indexes.create_index("Person", "age", kind="btree")
        ageless = schema.create("Person", name="x")
        assert indexes.probe("Person", "age", None) == [ageless]

    def test_btree_update(self, schema, indexes):
        indexes.create_index("Person", "age", kind="btree")
        p = schema.create("Person", name="x", age=10)
        p.set("age", 20)
        assert indexes.probe("Person", "age", 10) == []
        assert indexes.probe("Person", "age", 20) == [p]


class TestStatistics:
    def test_probe_counter(self, schema, indexes):
        index = indexes.create_index("Person", "name")
        indexes.probe("Person", "name", "a")
        indexes.probe("Person", "name", "b")
        assert index.probes == 2

    def test_index_listing(self, schema, indexes):
        indexes.create_index("Person", "name")
        indexes.create_index("Person", "age", kind="btree")
        names = [i.name for i in indexes.indexes()]
        assert names == ["Person.age[btree]", "Person.name[hash]"]


class TestUnorderableKeys:
    """A B-tree over values that do not order together is refused with
    SchemaError naming the index and both types, and leaves the
    extent, the index and queries in agreement."""

    @staticmethod
    def build(*values):
        from repro.core import types as T
        from repro.core.attributes import Attribute
        from repro.engine import PrometheusDB

        db = PrometheusDB()
        db.schema.define_class("Thing", [Attribute("v", T.ANY)])
        objs = [db.schema.create("Thing", v=v) for v in values]
        return db, objs

    def test_create_index_refused_and_registers_nothing(self):
        db, _ = self.build(1, "a")
        epoch = db.indexes.epoch
        with pytest.raises(SchemaError, match=r"Thing\.v\[btree\].*str.*int"):
            db.indexes.create_index("Thing", "v", "btree")
        assert db.indexes.indexes() == []
        assert db.indexes.epoch == epoch
        assert db.query('select t.v from t in Thing where t.v = "a"') == ["a"]

    def test_create_into_index_refused(self):
        db, (one,) = self.build(1)
        index = db.indexes.create_index("Thing", "v", "btree")
        with pytest.raises(SchemaError, match=r"Thing\.v\[btree\].*str.*int"):
            db.schema.create("Thing", v="a")
        assert [obj.oid for obj in db.schema.extent("Thing")] == [one.oid]
        assert len(index) == 1 and index.impl.nulls == frozenset()
        assert db.query("select t.v from t in Thing") == [1]
        assert db.query("select t.v from t in Thing where t.v >= 0") == [1]

    def test_update_refused_keeps_old_entry(self):
        db, (one, two) = self.build(1, 2)
        db.indexes.create_index("Thing", "v", "btree")
        with pytest.raises(SchemaError, match=r"Thing\.v\[btree\]"):
            one.set("v", "a")
        assert one.get("v") == 1
        assert db.indexes.probe("Thing", "v", 1) == [one]
        assert db.indexes.range_probe("Thing", "v", 1) == [one, two]
        assert db.query("select t.v from t in Thing where t.v >= 1") == [1, 2]
