"""Deleting an object created in the same transaction.

The create never reaches the shared schema, so neither may anything
staged against it: its staged edges are dropped with it, and the parts
its lifetime-dependent edges hold are deleted, as ``Schema.delete``
does.  Each scenario stages the same ops in a transaction and runs them
on a plain schema, then compares the committed objects record for
record (OIDs line up: both allocate from the same counter in the same
order).
"""

from __future__ import annotations

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.core.ops import Op
from repro.core.schema import Schema
from repro.core.semantics import RelationshipSemantics, RelKind
from repro.engine import PrometheusDB
from repro.errors import InstanceDeletedError, SchemaError


def ddl(schema: Schema) -> None:
    schema.define_class("Taxon", [Attribute("name", T.STRING)])
    schema.define_relationship("ChildOf", "Taxon", "Taxon")
    schema.define_relationship(
        "HasPart",
        "Taxon",
        "Taxon",
        semantics=RelationshipSemantics(
            kind=RelKind.AGGREGATION, lifetime_dependent=True
        ),
    )
    schema.define_relationship(
        "Cites", "Taxon", "Taxon", participants={"by": "Taxon"}
    )


def create(name: str) -> Op:
    return Op("create", 0, "Taxon", {"name": name})


def relate(name: str, origin: int, destination: int, **participants) -> Op:
    return Op(
        "relate", 0, name, origin=origin, destination=destination,
        participants=participants,
    )


def state(schema: Schema) -> dict[int, dict]:
    return {obj.oid: schema.to_record(obj) for obj in schema.all_objects()}


def run_both(scenario):
    """Committed state after ``scenario`` staged in a transaction, and
    after the same ops run directly on a plain schema."""
    db = PrometheusDB()
    ddl(db.schema)
    plain = Schema()
    ddl(plain)
    for schema in (db.schema, plain):
        schema.create("Taxon", name="Committed")  # OID 1 on both
    db.commit()

    def direct(op: Op) -> int:
        if op.kind in ("create", "relate"):
            op = op._replace(oid=plain._new_oid())
        op.apply(plain)
        return op.oid

    txn = db.begin()
    scenario(lambda op: txn.stage(op))
    txn.commit()
    scenario(direct)
    return state(db.schema), state(plain)


def test_staged_edge_goes_with_its_origin():
    def scenario(stage):
        a = stage(create("A"))
        b = stage(create("B"))
        stage(relate("ChildOf", a, b))
        stage(relate("ChildOf", 1, a))
        stage(relate("ChildOf", b, 1))
        stage(Op("delete", a))

    staged, plain = run_both(scenario)
    assert staged == plain
    assert sorted(record["class"] for record in staged.values()) == [
        "ChildOf", "Taxon", "Taxon",
    ]


def test_staged_participant_edge_goes_too():
    def scenario(stage):
        a = stage(create("A"))
        stage(relate("Cites", 1, 1, by=a))
        stage(Op("delete", a))

    staged, plain = run_both(scenario)
    assert staged == plain
    assert list(staged) == [1]


@pytest.mark.parametrize("committed_part", [False, True])
def test_lifetime_dependent_parts_cascade(committed_part):
    def scenario(stage):
        whole = stage(create("Whole"))
        part = 1 if committed_part else stage(create("Part"))
        sub = stage(create("Sub"))
        stage(relate("HasPart", whole, part))
        stage(relate("HasPart", part, sub))
        stage(relate("ChildOf", sub, whole))
        stage(Op("delete", whole))

    staged, plain = run_both(scenario)
    assert staged == plain
    assert list(staged) == ([] if committed_part else [1])


def test_cascade_false_refuses_and_keeps_the_staged_ops():
    db = PrometheusDB()
    ddl(db.schema)
    txn = db.begin()
    whole = txn.stage(create("Whole"))
    part = txn.stage(create("Part"))
    txn.stage(relate("HasPart", whole, part))
    with pytest.raises(SchemaError, match="lifetime-dependent parts"):
        txn.stage(Op("delete", whole, cascade=False))
    assert [op.kind for op in txn.ops] == ["create", "create", "relate"]
    txn.commit()
    assert len(db.schema.relationships.outgoing(whole, "HasPart")) == 1


def test_dropped_create_refuses_later_edges():
    db = PrometheusDB()
    ddl(db.schema)
    txn = db.begin()
    a = txn.stage(create("A"))
    txn.stage(Op("delete", a))
    with pytest.raises(InstanceDeletedError):
        txn.stage(relate("ChildOf", a, a))
    txn.commit()
    assert state(db.schema) == {}
