"""The relationship registry holds keys for live edges only.

An endpoint key whose last edge is unindexed goes with it, and a
semantic check before a relate reads without inserting keys, so churn
(deletes, unrelates, shard moves) cannot grow the registry.
"""

from repro.core.attributes import Attribute
from repro.core.schema import Schema
from repro.core.semantics import Cardinality, RelationshipSemantics, RelKind
from repro.core import types as T


def _schema() -> Schema:
    schema = Schema()
    schema.define_class("Node", [Attribute("n", T.INTEGER)])
    schema.define_relationship("L", "Node", "Node")
    schema.define_relationship(
        "One",
        "Node",
        "Node",
        semantics=RelationshipSemantics(
            kind=RelKind.AGGREGATION,
            exclusive=True,
            cardinality=Cardinality(max_out=1),
        ),
    )
    return schema


def _keys(schema: Schema) -> tuple[int, int, int]:
    registry = schema.relationships
    return len(registry._out), len(registry._in), len(registry._touching)


def test_deleted_objects_leave_no_keys():
    schema = _schema()
    nodes = [schema.create("Node", n=i) for i in range(1000)]
    for origin, destination in zip(nodes, nodes[1:]):
        schema.relate("L", origin, destination)
    schema.commit()
    assert _keys(schema) == (999, 999, 1000)
    for node in nodes:
        schema.delete(node)
    schema.commit()
    assert _keys(schema) == (0, 0, 0)


def test_unrelate_leaves_no_keys_and_keeps_shared_ones():
    schema = _schema()
    a, b, c = (schema.create("Node", n=i) for i in range(3))
    ab = schema.relate("L", a, b)
    schema.relate("L", a, c)
    schema.unrelate(ab)
    registry = schema.relationships
    assert set(registry._out) == {(a.oid, "L")}
    assert set(registry._in) == {(c.oid, "L")}
    assert set(registry._touching) == {a.oid, c.oid}
    assert [rel.destination_oid for rel in registry.outgoing(a.oid)] == [
        c.oid
    ]


def test_self_loop_unindexes_cleanly():
    schema = _schema()
    a = schema.create("Node", n=0)
    schema.unrelate(schema.relate("L", a, a))
    assert _keys(schema) == (0, 0, 0)


def test_creation_checks_insert_no_keys():
    schema = _schema()
    a, b = schema.create("Node", n=0), schema.create("Node", n=1)
    schema.relationships.check_creation(schema.get_class("One"), a, b)
    assert _keys(schema) == (0, 0, 0)


def test_rollback_restores_the_keys():
    schema = _schema()
    a, b = schema.create("Node", n=0), schema.create("Node", n=1)
    schema.relate("L", a, b)
    schema.commit()
    schema.delete(a)
    assert _keys(schema) == (0, 0, 0)
    schema.abort()
    assert _keys(schema) == (1, 1, 2)
    assert [rel.destination_oid for rel in schema.relationships.outgoing(
        a.oid
    )] == [b.oid]
