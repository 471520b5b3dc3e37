"""Schema: extents, transactions (journal), persistence round-trips."""

import pytest

from repro.core.schema import Schema
from repro.errors import InstanceDeletedError, UnknownOidError
from repro.storage.store import ObjectStore
from tests.conftest import make_people_schema


class TestExtents:
    def test_polymorphic_extent(self, schema):
        schema.create("Person", name="P")
        schema.create("Employee", name="E")
        assert schema.count("Person") == 2
        assert schema.count("Person", polymorphic=False) == 1
        assert schema.count("Employee") == 1

    def test_extent_sorted_by_oid(self, schema):
        objs = [schema.create("Person", name=f"p{i}") for i in range(5)]
        extent = schema.extent("Person")
        assert [o.oid for o in extent] == sorted(o.oid for o in objs)

    def test_deleted_objects_leave_extent(self, schema):
        p = schema.create("Person", name="P")
        schema.delete(p)
        assert schema.count("Person") == 0

    def test_object_root_extent_covers_everything(self, schema):
        schema.create("Person", name="P")
        schema.create("Company", title="C")
        assert schema.count("Object") == 2


class TestAbort:
    def test_abort_undoes_creation(self, schema):
        p = schema.create("Person", name="P")
        schema.abort()
        assert schema.count("Person") == 0
        assert not schema.has_object(p.oid)

    def test_abort_undoes_updates(self, schema):
        p = schema.create("Person", name="P", age=1)
        schema.commit()
        p.set("age", 99)
        p.set("name", "Q")
        schema.abort()
        assert p.get("age") == 1
        assert p.get("name") == "P"

    def test_abort_undoes_deletion(self, schema):
        p = schema.create("Person", name="P")
        schema.commit()
        schema.delete(p)
        schema.abort()
        assert schema.has_object(p.oid)
        assert p.get("name") == "P"

    def test_abort_undoes_relationships(self, schema):
        alice = schema.create("Person", name="A")
        acme = schema.create("Company", title="C")
        schema.commit()
        schema.relate("WorksFor", alice, acme)
        schema.abort()
        assert alice.related("WorksFor") == []

    def test_abort_undoes_unrelate(self, schema):
        alice = schema.create("Person", name="A")
        acme = schema.create("Company", title="C")
        rel = schema.relate("WorksFor", alice, acme)
        schema.commit()
        schema.unrelate(rel)
        schema.abort()
        assert alice.related("WorksFor") == [acme]

    def test_abort_mixed_sequence(self, schema):
        a = schema.create("Person", name="A", age=1)
        schema.commit()
        b = schema.create("Person", name="B")
        a.set("age", 2)
        schema.delete(a)
        schema.abort()
        assert not schema.has_object(b.oid)
        assert schema.has_object(a.oid)
        assert a.get("age") == 1

    def test_commit_clears_journal(self, schema):
        p = schema.create("Person", name="P")
        schema.commit()
        schema.abort()  # nothing pending: must not undo the commit
        assert schema.has_object(p.oid)


class TestPersistence:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "db.plog"
        store = ObjectStore(path)
        schema = make_people_schema(store)
        alice = schema.create("Person", name="Alice", age=30)
        acme = schema.create("Company", title="ACME")
        schema.relate("WorksFor", alice, acme, since=2001)
        schema.synonyms.declare(alice.oid, acme.oid)  # arbitrary pair
        schema.commit()
        store.close()

        store2 = ObjectStore(path)
        schema2 = make_people_schema(store2)
        assert schema2.load_all() == 3
        people = schema2.extent("Person")
        assert [p.get("name") for p in people] == ["Alice"]
        alice2 = people[0]
        assert alice2.related("WorksFor")[0].get("title") == "ACME"
        assert alice2.outgoing("WorksFor")[0].get("since") == 2001
        assert schema2.synonyms.are_synonyms(alice.oid, acme.oid)
        store2.close()

    def test_uncommitted_not_persisted(self, tmp_path):
        path = tmp_path / "db.plog"
        store = ObjectStore(path)
        schema = make_people_schema(store)
        schema.create("Person", name="ghost")
        store.close()  # no commit
        store2 = ObjectStore(path)
        schema2 = make_people_schema(store2)
        assert schema2.load_all() == 0
        store2.close()

    def test_delete_persisted(self, tmp_path):
        path = tmp_path / "db.plog"
        store = ObjectStore(path)
        schema = make_people_schema(store)
        p = schema.create("Person", name="P")
        q = schema.create("Person", name="Q")
        schema.commit()
        schema.delete(p)
        schema.commit()
        store.close()
        store2 = ObjectStore(path)
        schema2 = make_people_schema(store2)
        assert schema2.load_all() == 1
        assert schema2.extent("Person")[0].get("name") == "Q"
        store2.close()

    def test_meta_extras_roundtrip(self, tmp_path):
        path = tmp_path / "db.plog"
        store = ObjectStore(path)
        schema = make_people_schema(store)
        schema.meta_extras["custom"] = {"key": [1, 2, 3]}
        schema.create("Person", name="x")
        schema.commit()
        store.close()
        store2 = ObjectStore(path)
        schema2 = make_people_schema(store2)
        schema2.load_all()
        assert schema2.meta_extras["custom"] == {"key": [1, 2, 3]}
        store2.close()

    def test_dirty_tracking(self, persistent_schema):
        schema = persistent_schema
        p = schema.create("Person", name="P")
        assert schema.dirty_count == 1
        schema.commit()
        assert schema.dirty_count == 0
        assert not p.dirty
        p.set("age", 3)
        assert p.dirty
        assert schema.dirty_count == 1

    def test_standalone_schema_serialises_nothing(self, schema):
        """No store and no committer: nobody reads flushed records, so
        a commit builds none and deletions are not kept for it."""
        p = schema.create("Person", name="P")
        assert schema.commit() == (None, {}, [], None)
        assert not p.dirty
        schema.delete(p)
        assert not schema.is_pending(p.oid)
        assert schema.commit() == (None, {}, [], None)


class TestObjectTable:
    def test_get_object_unknown(self, schema):
        with pytest.raises(UnknownOidError):
            schema.get_object(999999)

    def test_get_object_deleted(self, schema):
        p = schema.create("Person", name="P")
        oid = p.oid
        schema.delete(p)
        assert not schema.has_object(oid)
        with pytest.raises(UnknownOidError):
            schema.get_object(oid)

    def test_all_objects_sorted(self, schema):
        schema.create("Person", name="a")
        schema.create("Company", title="b")
        oids = [o.oid for o in schema.all_objects()]
        assert oids == sorted(oids)


class TestIntegrity:
    def test_clean_schema_has_no_problems(self, schema):
        alice = schema.create("Person", name="A")
        acme = schema.create("Company", title="C")
        schema.relate("WorksFor", alice, acme)
        assert schema.check_integrity() == []

    def test_delete_removes_touching_edges(self, schema):
        alice = schema.create("Person", name="A")
        acme = schema.create("Company", title="C")
        rel = schema.relate("WorksFor", alice, acme)
        schema.delete(acme)
        assert rel.deleted
        assert schema.check_integrity() == []
