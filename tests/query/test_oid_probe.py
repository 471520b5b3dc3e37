"""The OID probe: ``v.oid = key`` reads one object, not an extent.

A pinned OID is an access path (``oid_probe``): the planner reads the
extent member whose OID equals the key straight from the object table,
on one database and through an ``as_of`` snapshot alike, and the shard
coordinator exports a live pinned gather's first binding from the one
shard the router places that OID on.  Every answer must stay exactly
the naive evaluator's, whose ``=`` is Python ``==`` — so ``3.0`` and
``true`` find objects, and an unhashable key finds none.
"""

from __future__ import annotations

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.engine import PrometheusDB
from repro.query import execute
from repro.sharding import LocalShardClient
from repro.telemetry import Telemetry

from tests.sharding.topo import build_topology, populate

from .test_differential import build_db, canon

#: Keys whose answers differ from a bare-int test: floats and bools
#: equal ints, strings and null never do, a list cannot be hashed.
KEYS = (3, 3.0, 3.5, True, False, "3", None, 0, -1, 10**6, [3], {"a": 3})


def both(db: PrometheusDB, text: str, params=None):
    ref = [canon(v) for v in execute(db.schema, text, params=params)]
    got = [canon(v) for v in db.query(text, params=params, check=False)]
    return ref, got


def paths(db: PrometheusDB, text: str, params=None, **kw) -> dict:
    return db.query("explain " + text, params=params, check=False, **kw)


class TestExactness:
    @pytest.mark.parametrize("key", KEYS, ids=repr)
    @pytest.mark.parametrize("extent", ["Base", "Leaf", "Cat", "Links"])
    def test_every_key_answers_as_naive(self, key, extent):
        db = build_db(7)
        text = f"select x from x in {extent} where x.oid = $k"
        ref, got = both(db, text, {"k": key})
        assert ref == got

    def test_float_and_bool_keys_find_objects(self):
        db = build_db(7)
        text = "select x from x in Base where x.oid = $k"
        assert [o.oid for o in db.query(text, {"k": 3.0}, check=False)] == [3]
        assert [o.oid for o in db.query(text, {"k": True}, check=False)] == [1]
        assert db.query(text, {"k": [3]}, check=False) == []

    def test_key_from_an_outer_binding(self):
        db = build_db(7)
        ref, got = both(
            db,
            "select a.name, b.name from a in Base, b in Base "
            "where b.oid = a.size and a.flag",
        )
        assert ref == got and ref
        report = paths(
            db, "select b from a in Base, b in Base where b.oid = a.size"
        )
        assert report["plan"]["access_paths"] == ["scan:Base", "oid:Base"]

    def test_swapped_operands_and_literals(self):
        db = build_db(7)
        for text in (
            "select x from x in Base where 4 = x.oid",
            "select x from x in Base where x.oid = 4.0 and x.size > -5",
            "select x from x in Leaf where x.oid = true",
        ):
            ref, got = both(db, text)
            assert ref == got, text
            assert paths(db, text)["plan"]["access_paths"] == [
                f"oid:{text.split(' in ')[1].split()[0]}"
            ]

    def test_shadowed_class_name_binds_the_outer_value(self):
        db = build_db(7)
        text = (
            "select y from Cat in Base, "
            "y in (select x from x in Cat where x.oid = 5)"
        )
        ref, got = both(db, text)
        assert ref == got == [("obj", 5)]

    def test_participant_role_named_oid_gets_no_probe(self):
        db = PrometheusDB()
        db.schema.define_class("Node", [Attribute("name", T.STRING)])
        db.schema.define_relationship(
            "Edge", "Node", "Node", participants={"oid": "Node"}
        )
        a, b, c = (db.schema.create("Node", name=n) for n in "abc")
        db.schema.relate("Edge", a, b, participants={"oid": c})
        text = "select e from e in Edge where e.oid = $k"
        for key in (c, c.oid, 4):
            ref, got = both(db, text, {"k": key})
            assert ref == got
        assert both(db, text, {"k": c})[0] == [("obj", 4)]
        assert paths(db, text, {"k": c})["plan"]["access_paths"] == [
            "scan:Edge"
        ]


class TestExplain:
    def test_probe_replaces_the_scan(self):
        db = build_db(7)
        report = paths(db, "select x from x in Base where x.oid = 3")
        plan = report["plan"]
        assert plan["access_paths"] == ["oid:Base"]
        assert plan["extent_scans"] == 0
        assert plan["rows_examined"] == 1
        assert "Base.oid" not in plan["indexes_considered"]
        assert not any("Base.oid" in note for note in plan["notes"])
        probe = plan["plan_tree"]["children"][0]["children"][0]
        assert probe["op"] == "oid_probe"
        assert probe["rows_out"] == 1

    def test_access_path_counter(self):
        db = PrometheusDB(telemetry=Telemetry())
        db.schema.define_class("Node", [Attribute("name", T.STRING)])
        db.schema.create("Node", name="a")
        db.query("select x from x in Node where x.oid = 1", check=False)
        counter = db.telemetry.registry.counter(
            "repro_planner_access_paths_total", {"path": "oid_probe"}
        )
        assert counter.value == 1

    def test_as_of_plans_probe_the_snapshot(self):
        db = build_db(7)
        db.commit()
        lsn = db.lsn
        db.schema.get_object(3).delete()
        db.commit()
        text = "select x from x in Base where x.oid = $k"
        assert db.query(text, {"k": 3}, check=False) == []
        old = db.query(text, {"k": 3.0}, check=False, as_of=lsn)
        assert [o.oid for o in old] == [3]
        report = paths(db, text, {"k": 3}, as_of=lsn)
        assert report["plan"]["access_paths"] == ["oid:Base"]


GATHER = "select b from a in Base, b in a->Links where a.oid = $k"


@pytest.fixture(scope="module")
def topologies():
    single, sharded = build_topology(1), build_topology(4)
    handles = populate(single, 31)
    populate(sharded, 31)
    return single, sharded, handles


def linked_root(single, handles) -> int:
    """A Base OID with an outgoing Links edge."""
    outgoing = single.shards["s0"].db.schema.relationships.outgoing
    return next(oid for oid in handles["bases"] if outgoing(oid, "Links"))


def first_binding_exports(monkeypatch, db, text, params, as_of=None):
    """(answer, shards asked for first-binding rows) of one query."""
    asked: list[str] = []
    export = LocalShardClient.export_records

    def counted(client, class_names, lsn=None, query=None, params=None,
                incident=None):
        if incident is None:
            asked.append(client.name)
        return export(client, class_names, lsn, query, params, incident)

    monkeypatch.setattr(LocalShardClient, "export_records", counted)
    result = db.query(text, params, check=False, as_of=as_of)
    monkeypatch.undo()
    return db.jsonable_result(result), asked


class TestPinnedGather:
    def test_live_pin_asks_one_shard(self, monkeypatch, topologies):
        single, sharded, handles = topologies
        root = linked_root(single, handles)
        plain = single.shards["s0"].db.schema
        answers = {}
        for key in (root, float(root), True, 10**6, -1):
            params = {"k": key}
            got, asked = first_binding_exports(
                monkeypatch, sharded, GATHER, params
            )
            want, _ = first_binding_exports(
                monkeypatch, single, GATHER, params
            )
            assert got == want, key
            assert got == single.jsonable_result(
                execute(plain, GATHER, params=params)
            ), key
            routed = sharded.router.shard_of(key)
            assert asked == ([] if routed is None else [routed]), key
            answers[repr(key)] = got
        assert answers[repr(root)] == answers[repr(float(root))] != "[]"
        assert sharded.router.shard_of(True) is not None
        assert answers["1000000"] == answers["-1"] == "[]"

    def test_unhashable_key_keeps_the_fan_out(self, monkeypatch, topologies):
        _, sharded, _ = topologies
        got, asked = first_binding_exports(
            monkeypatch, sharded, GATHER, {"k": [3]}
        )
        assert got == "[]"
        assert asked == sorted(sharded.shards)

    def test_as_of_fans_out(self, monkeypatch, topologies):
        single, sharded, handles = topologies
        params = {"k": linked_root(single, handles)}
        got, asked = first_binding_exports(
            monkeypatch, sharded, GATHER, params, as_of=1
        )
        want, _ = first_binding_exports(
            monkeypatch, single, GATHER, params, as_of=1
        )
        assert got == want != "[]"
        assert asked == sorted(sharded.shards)
