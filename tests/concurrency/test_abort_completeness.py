"""Abort must be total: every layer byte-identical after rollback.

A failed managed commit (deferred ABORT rule firing at BEFORE_COMMIT)
and an implicit-session ``schema.abort()`` must both leave extents,
object records, relationship endpoints, and index entries exactly as
they were — compared via a full-state fingerprint, not spot checks.
"""

import json

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.engine import PrometheusDB
from repro.errors import ConstraintViolation
from repro.rules import Mode, Rule
from repro.rules.events import on_update


def fingerprint(db):
    """Canonical digest of every user-visible layer of the database."""
    schema = db.schema
    state = {}
    for pclass in schema.classes():
        oids = sorted(obj.oid for obj in schema.extent(pclass.name))
        state[f"extent:{pclass.name}"] = oids
    records = {}
    for pclass in schema.classes():
        for obj in schema.extent(pclass.name, polymorphic=False):
            records[obj.oid] = schema.to_record(obj)
    state["records"] = {
        str(oid): records[oid] for oid in sorted(records)
    }
    rels = []
    for pclass in schema.classes():
        if not pclass.is_relationship_class:
            continue
        for rel in schema.extent(pclass.name, polymorphic=False):
            rels.append(
                (pclass.name, rel.oid, rel.origin_oid, rel.destination_oid)
            )
    state["relationships"] = sorted(rels)
    for index in db.indexes.indexes():
        entries = []
        for obj in schema.extent(index.class_name):
            value = obj.get(index.attribute)
            entries.append(
                (obj.oid, str(value), sorted(index.impl.get(value)))
            )
        state[f"index:{index.name}"] = {
            "size": len(index),
            "entries": sorted(entries),
        }
    return json.dumps(state, sort_keys=True, default=str)


@pytest.fixture
def db():
    database = PrometheusDB()
    database.schema.define_class(
        "Taxon",
        [
            Attribute("name", T.STRING),
            Attribute("rank", T.STRING),
            Attribute("status", T.STRING),
        ],
    )
    database.schema.define_relationship("ChildOf", "Taxon", "Taxon")
    database.indexes.create_index("Taxon", "name", "hash")
    genus = database.schema.create(
        "Taxon", name="Quercus", rank="genus", status="accepted"
    )
    species = database.schema.create(
        "Taxon", name="Quercus robur", rank="species", status="accepted"
    )
    database.schema.relate("ChildOf", species, genus)
    database.commit()
    return database


def forbidden_rule():
    """Deferred ABORT rule: no taxon may ever reach status='forbidden'."""
    return Rule(
        name="no_forbidden_status",
        event=on_update("Taxon", attribute="status"),
        condition=lambda ctx: ctx.event.new_value != "forbidden",
        mode=Mode.DEFERRED,
        message="status 'forbidden' is not allowed",
    )


class TestManagedTxnAbort:
    def test_deferred_rule_failure_rolls_back_everything(self, db):
        db.rules.register(forbidden_rule())
        genus = next(iter(db.schema.extent("Taxon"))).oid
        before = fingerprint(db)

        txn = db.begin()
        new_taxon = txn.create("Taxon", name="Fagus", rank="genus")
        txn.set(genus, "status", "forbidden")  # deferred rule will veto
        txn.relate("ChildOf", new_taxon, genus)
        with pytest.raises(ConstraintViolation):
            txn.commit()

        assert fingerprint(db) == before
        assert not db.schema.has_object(new_taxon)
        assert db.check_integrity() == []
        # The engine is reusable: a clean transaction commits fine.
        with db.begin() as ok:
            ok.set(genus, "status", "reviewed")
        assert db.schema.get_object(genus).get("status") == "reviewed"

    def test_rollback_covers_index_entries(self, db):
        db.rules.register(forbidden_rule())
        objs = {o.get("name"): o.oid for o in db.schema.extent("Taxon")}
        before = fingerprint(db)
        txn = db.begin()
        txn.set(objs["Quercus"], "name", "Renamed")  # index-maintained attr
        txn.set(objs["Quercus robur"], "status", "forbidden")
        with pytest.raises(ConstraintViolation):
            txn.commit()
        assert fingerprint(db) == before
        assert [
            o.oid for o in db.indexes.probe("Taxon", "name", "Quercus")
        ] == [objs["Quercus"]]
        assert db.indexes.probe("Taxon", "name", "Renamed") == []

    def test_rollback_covers_relationship_endpoints(self, db):
        rel = next(iter(db.schema.extent("ChildOf")))
        before = fingerprint(db)
        txn = db.begin()
        txn.unrelate(rel.oid)
        txn.set(rel.origin_oid, "status", "orphaned")
        txn.abort()  # voluntary abort: overlay never touched the schema
        assert fingerprint(db) == before

        db.rules.register(forbidden_rule())
        txn2 = db.begin()
        txn2.unrelate(rel.oid)
        txn2.set(rel.origin_oid, "status", "forbidden")
        with pytest.raises(ConstraintViolation):
            txn2.commit()
        assert fingerprint(db) == before
        assert db.schema.has_object(rel.oid)

    def test_failed_commit_does_not_disturb_implicit_session(self, db):
        """The scoped journal must roll back ONLY the replayed ops, not
        the implicit session's unrelated pending changes."""
        db.rules.register(forbidden_rule())
        objs = {o.get("name"): o.oid for o in db.schema.extent("Taxon")}
        # Implicit-session dirt on one object, uncommitted...
        db.schema.get_object(objs["Quercus"]).set("rank", "subgenus")
        # ...while a managed txn on a DIFFERENT object fails its commit.
        txn = db.begin()
        txn.set(objs["Quercus robur"], "status", "forbidden")
        with pytest.raises(ConstraintViolation):
            txn.commit()
        assert (
            db.schema.get_object(objs["Quercus"]).get("rank") == "subgenus"
        )
        db.commit()
        assert (
            db.schema.get_object(objs["Quercus"]).get("rank") == "subgenus"
        )


class TestImplicitAbort:
    def test_schema_abort_still_total(self, db):
        before = fingerprint(db)
        genus = next(
            o for o in db.schema.extent("Taxon") if o.get("rank") == "genus"
        )
        created = db.schema.create("Taxon", name="Temp", rank="genus")
        db.schema.relate("ChildOf", created, genus)
        created.set("status", "draft")
        db.abort()
        assert fingerprint(db) == before
        assert db.check_integrity() == []

    def test_abort_then_managed_txn(self, db):
        genus = next(
            o for o in db.schema.extent("Taxon") if o.get("rank") == "genus"
        )
        db.schema.create("Taxon", name="Temp")
        db.abort()
        with db.begin() as txn:
            txn.set(genus.oid, "status", "checked")
        assert db.schema.get_object(genus.oid).get("status") == "checked"
        assert db.check_integrity() == []
