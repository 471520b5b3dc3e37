"""Index entries roll back through the undo journal, entry by entry.

Every entry the index manager adds or drops journals its exact inverse,
so a vetoed set or create, an ``abort()`` and a refused managed commit
leave each index equal to one built afresh from the extents — and the
planner, which reads those indexes, answers what the naive evaluator
answers.  A refusal costs what it refuses: undoing one rejected move
makes a constant number of index calls, whatever the database's size.
"""

from __future__ import annotations

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.core.events import EventKind
from repro.engine import PrometheusDB
from repro.engine.indexes import _BTreeIndex, _HashIndex
from repro.errors import SchemaError
from repro.query import execute

PROBE = "select i.name from i in Item where i.v = 7 order by i.name"
RANGE = "select i.name from i in Item where i.v > 7 order by i.name"


def assert_indexes_match_rebuild(db: PrometheusDB) -> None:
    """Every index holds exactly the entries a build from the extent
    would: one per member, under the member's current value."""
    for index in db.indexes.indexes():
        expected: dict = {}
        for obj in db.schema.extent(index.class_name):
            expected.setdefault(obj.get(index.attribute), set()).add(obj.oid)
        assert len(index) == sum(map(len, expected.values())), index.name
        assert index.impl.distinct == len(expected), index.name
        for key, oids in expected.items():
            assert index.impl.get(key) == oids, (index.name, key)


def assert_planned_equals_naive(db: PrometheusDB, *texts: str) -> None:
    for text in texts:
        assert db.query(text) == execute(db.schema, text), text


def subclass_db(btree_on_sub: bool) -> tuple[PrometheusDB, list]:
    """``Sub(Item)``: a hash index on ``Item.v`` and, optionally, a
    B-tree on ``Sub.v``; ten committed ``Sub`` rows with ``v = i``."""
    db = PrometheusDB()
    db.schema.define_class(
        "Item", [Attribute("name", T.STRING), Attribute("v", T.ANY)]
    )
    db.schema.define_class("Sub", [], superclasses=["Item"])
    objs = [db.schema.create("Sub", name=f"n{i}", v=i) for i in range(10)]
    db.indexes.create_index("Item", "v", kind="hash")
    if btree_on_sub:
        db.indexes.create_index("Sub", "v", kind="btree")
    db.commit()
    return db, objs


class TestVetoedSet:
    def test_btree_refusal_undoes_the_hash_move_too(self):
        db, objs = subclass_db(btree_on_sub=True)
        with pytest.raises(SchemaError, match="cannot order"):
            objs[7].set("v", "x")
        assert objs[7].get("v") == 7
        assert_indexes_match_rebuild(db)
        assert db.query(PROBE) == ["n7"]
        assert_planned_equals_naive(db, PROBE, RANGE)
        db.commit()
        assert db.query(PROBE) == ["n7"]
        assert_planned_equals_naive(db, PROBE, RANGE)
        assert_indexes_match_rebuild(db)

    def test_later_subscriber_veto_undoes_the_index_move(self):
        db, objs = subclass_db(btree_on_sub=False)

        def veto(event):
            if event.new_value == "x":
                raise SchemaError("vetoed")

        db.schema.events.subscribe(veto, kinds={EventKind.AFTER_UPDATE})
        with pytest.raises(SchemaError, match="vetoed"):
            objs[7].set("v", "x")
        assert objs[7].get("v") == 7
        assert_indexes_match_rebuild(db)
        db.commit()
        assert db.query(PROBE) == ["n7"]
        assert_planned_equals_naive(db, PROBE)
        assert_indexes_match_rebuild(db)


def test_vetoed_delete_keeps_its_entries():
    db, objs = subclass_db(btree_on_sub=True)

    def veto(event):
        raise SchemaError("kept")

    db.schema.events.subscribe(veto, kinds={EventKind.BEFORE_DELETE})
    with pytest.raises(SchemaError, match="kept"):
        db.schema.delete(objs[7])
    assert not objs[7].deleted
    assert_indexes_match_rebuild(db)
    assert db.query(PROBE) == ["n7"]
    assert_planned_equals_naive(db, PROBE, RANGE)


def test_vetoed_create_leaves_no_ghost_entry():
    db = PrometheusDB()
    db.schema.define_class(
        "R",
        [
            Attribute("a", T.STRING, required=True),
            Attribute("b", T.INTEGER),
        ],
    )
    db.indexes.create_index("R", "a", kind="hash")
    db.indexes.create_index("R", "b", kind="hash")
    db.schema.create("R", a="kept", b=1)

    def sizes():
        return {index.name: len(index) for index in db.indexes.indexes()}

    before = sizes()
    with pytest.raises(SchemaError, match="required"):
        db.schema.create("R", b=5)
    assert sizes() == before
    assert db.schema.count("R") == 1
    assert_indexes_match_rebuild(db)
    assert_planned_equals_naive(db, "select r.a from r in R where r.b = 5")


def _count_index_calls(monkeypatch: pytest.MonkeyPatch) -> list[int]:
    """Count every insert/remove call on an index implementation."""
    calls = [0]
    for impl in (_HashIndex, _BTreeIndex):
        for name in ("insert", "remove"):

            def counted(index, key, oid, method=getattr(impl, name)):
                calls[0] += 1
                return method(index, key, oid)

            monkeypatch.setattr(impl, name, counted)
    return calls


def _refused_commit_calls(n: int, monkeypatch: pytest.MonkeyPatch) -> int:
    db = PrometheusDB()
    db.schema.define_class(
        "Item", [Attribute("name", T.STRING), Attribute("v", T.ANY)]
    )
    objs = [db.schema.create("Item", name=f"n{i}", v=i) for i in range(n)]
    db.indexes.create_index("Item", "name", kind="hash")
    db.indexes.create_index("Item", "v", kind="btree")
    db.commit()
    with monkeypatch.context() as patch:
        calls = _count_index_calls(patch)
        txn = db.begin()
        txn.set(objs[n // 2].oid, "v", "x")
        with pytest.raises(SchemaError, match="cannot order"):
            txn.commit()
    assert objs[n // 2].get("v") == n // 2
    assert_indexes_match_rebuild(db)
    return calls[0]


def test_refused_managed_commit_costs_a_constant_number_of_index_calls(
    monkeypatch,
):
    small = _refused_commit_calls(1_000, monkeypatch)
    large = _refused_commit_calls(16_000, monkeypatch)
    # Remove the old entry, fail the insert, put the old entry back.
    assert small == large == 3


class TestIndexCreatedOverPendingChanges:
    """An index built over uncommitted changes refills itself from the
    restored extent when those changes roll back."""

    def pending_db(self) -> PrometheusDB:
        db = PrometheusDB()
        db.schema.define_class(
            "Item", [Attribute("name", T.STRING), Attribute("v", T.ANY)]
        )
        objs = [
            db.schema.create("Item", name=f"n{i}", v=i) for i in range(10)
        ]
        db.commit()
        db.schema.create("Item", name="pending", v=7)
        objs[3].set("v", 7)
        db.schema.delete(objs[8])
        db.indexes.create_index("Item", "v", kind="btree")
        db.indexes.create_index("Item", "name", kind="hash")
        return db

    def test_abort_after_create_index(self):
        db = self.pending_db()
        assert db.query(PROBE) == ["n3", "n7", "pending"]
        db.abort()
        assert db.query(PROBE) == ["n7"]
        assert_planned_equals_naive(db, PROBE, RANGE)
        assert_indexes_match_rebuild(db)

    def test_refused_managed_replay_after_create_index(self):
        db = self.pending_db()
        n5 = db.query('select i from i in Item where i.name = "n5"')[0]
        txn = db.begin()
        txn.set(n5.oid, "v", 7)
        txn.create("Item", name="staged", v=7)
        txn.set(n5.oid, "name", "x")
        txn.set(n5.oid, "v", "x")
        with pytest.raises(SchemaError, match="cannot order"):
            txn.commit()
        assert db.query(PROBE) == ["n3", "n7", "pending"]
        assert_planned_equals_naive(db, PROBE, RANGE)
        assert_indexes_match_rebuild(db)
        db.abort()
        assert_planned_equals_naive(db, PROBE, RANGE)
        assert_indexes_match_rebuild(db)
