"""The JSON op forms of ``/session/<id>/apply`` are the ``Transaction``
writes.

Each body is parsed by :meth:`Op.from_json` and staged, so a session
driven over HTTP and a transaction driven in process with the same ops
return the same results and commit the same state.  The refusals keep
their exact 400 bodies.
"""

from __future__ import annotations

import json

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.core.ops import Op
from repro.engine import PrometheusDB
from repro.engine.handlers import HttpHandlers, Request, jsonable
from repro.errors import SchemaError


def _db() -> tuple[PrometheusDB, dict[str, int]]:
    db = PrometheusDB()
    schema = db.schema
    schema.define_class(
        "Taxon", [Attribute("name", T.STRING), Attribute("rank", T.STRING)]
    )
    schema.define_class("Person", [Attribute("abbrev", T.STRING)])
    schema.define_relationship(
        "ChildOf", "Taxon", "Taxon", attributes=[Attribute("note", T.STRING)]
    )
    schema.define_relationship(
        "Determined", "Taxon", "Taxon", participants={"by": "Person"}
    )
    genus = schema.create("Taxon", name="Quercus", rank="genus")
    oak = schema.create("Taxon", name="Q. robur", rank="species")
    person = schema.create("Person", abbrev="L.")
    edge = schema.relate("ChildOf", oak, genus, note="seed")
    db.commit()
    return db, {
        "genus": genus.oid, "oak": oak.oid, "person": person.oid,
        "edge": edge.oid,
    }


def _post(core: HttpHandlers, path: str, payload) -> tuple[int, bytes]:
    response = core.handle(
        Request("POST", path, {}, json.dumps(payload).encode())
    )
    return response.status, response.body


def _stage_in_process(txn, body: dict):
    """The same op through the ``Transaction`` methods themselves."""
    kind = body["op"]
    if kind == "get":
        return {"values": jsonable(txn.get(body["oid"]))}
    if kind == "create":
        return {"oid": txn.create(body["class"], **body.get("attrs", {}))}
    if kind == "relate":
        oid = txn.relate(
            body["class"], body["origin"], body["destination"],
            participants=body.get("participants"), **body.get("attrs", {}),
        )
        return {"oid": oid}
    if kind == "set":
        txn.set(body["oid"], body["attr"], body.get("value"))
    elif kind == "update":
        txn.update(body["oid"], **body["attrs"])
    elif kind == "delete":
        txn.delete(body["oid"], cascade=body.get("cascade", True))
    else:
        txn.unrelate(body["oid"])
    return {"ok": True}


def _state(db: PrometheusDB) -> list:
    schema = db.schema
    return sorted(
        (obj.oid, schema.to_record(obj)) for obj in schema.all_objects()
    )


def _rounds(seed: dict[str, int]) -> list[list[dict]]:
    """Two transactions' worth of bodies covering every JSON kind.
    OIDs the first round creates are known in advance: allocation is
    sequential and both databases start equal."""
    new = max(seed.values()) + 1
    first = [
        {"op": "create", "class": "Taxon",
         "attrs": {"name": "Fagus", "rank": "genus"}},
        {"op": "create", "class": "Taxon", "attrs": {"name": "ghost"}},
        {"op": "set", "oid": new, "attr": "rank", "value": "subgenus"},
        {"op": "update", "oid": seed["genus"],
         "attrs": {"rank": "section", "name": "Quercus L."}},
        {"op": "get", "oid": seed["genus"]},
        {"op": "get", "oid": new},
        {"op": "relate", "class": "ChildOf", "origin": new,
         "destination": seed["genus"], "attrs": {"note": "moved"}},
        {"op": "relate", "class": "Determined", "origin": seed["oak"],
         "destination": new, "participants": {"by": seed["person"]}},
        {"op": "relate", "class": "ChildOf", "origin": new + 1,
         "destination": seed["genus"]},
        {"op": "unrelate", "oid": new + 4},
        {"op": "delete", "oid": new + 1},
        {"op": "unrelate", "oid": seed["edge"]},
    ]
    second = [
        {"op": "unrelate", "oid": new + 3},
        {"op": "delete", "oid": seed["person"], "cascade": False},
        {"op": "delete", "oid": new},
        {"op": "get", "oid": seed["oak"]},
    ]
    return [first, second]


class TestWireEqualsTransaction:
    def test_every_kind_gives_equal_results_and_state(self):
        served, seed = _db()
        local, same = _db()
        assert seed == same
        core = HttpHandlers(served)
        for bodies in _rounds(seed):
            status, body = _post(core, "/session", {})
            sid = json.loads(body)["session"]
            status, body = _post(
                core, f"/session/{sid}/apply", {"ops": bodies}
            )
            assert status == 200, body
            txn = local.begin()
            expected = [_stage_in_process(txn, op) for op in bodies]
            assert json.loads(body)["results"] == expected
            status, body = _post(core, f"/session/{sid}/commit", {})
            assert status == 200, body
            txn.commit()
            assert _state(served) == _state(local)
        kinds = {op["op"] for bodies in _rounds(seed) for op in bodies}
        assert kinds == {
            "create", "set", "update", "get", "relate", "unrelate", "delete",
        }

    def test_cancelled_ops_commit_nothing(self):
        served, seed = _db()
        before = _state(served)
        core = HttpHandlers(served)
        sid = json.loads(_post(core, "/session", {})[1])["session"]
        new = max(seed.values()) + 1
        status, body = _post(core, f"/session/{sid}/apply", {"ops": [
            {"op": "create", "class": "Taxon", "attrs": {"name": "x"}},
            {"op": "relate", "class": "ChildOf", "origin": seed["oak"],
             "destination": seed["genus"]},
            {"op": "unrelate", "oid": new + 1},
            {"op": "delete", "oid": new},
        ]})
        assert json.loads(body)["results"] == [
            {"oid": new}, {"oid": new + 1}, {"ok": True}, {"ok": True},
        ]
        ts = served.transactions.published_snapshot
        status, body = _post(core, f"/session/{sid}/commit", {})
        assert status == 200
        assert served.transactions.published_snapshot == ts
        assert _state(served) == before


class TestRefusals:
    """The same 400 bodies as before ``Op``; ops before the refused one
    stay staged."""

    @pytest.mark.parametrize(
        "op, message",
        [
            (5, "each op must be an object"),
            (["create"], "each op must be an object"),
            ({"op": "set", "oid": 1}, "op 'set' is missing field 'attr'"),
            ({"op": "create"}, "op 'create' is missing field 'class'"),
            ({"op": "relate", "class": "ChildOf", "origin": 1},
             "op 'relate' is missing field 'destination'"),
            ({"op": "update"}, "op 'update' is missing field 'oid'"),
            ({"op": "get"}, "op 'get' is missing field 'oid'"),
            ({"op": "create", "class": "Taxon", "attrs": []},
             "op field 'attrs' must be an object"),
            ({"op": "create", "class": "Taxon", "attrs": ["name"]},
             "op field 'attrs' must be an object"),
            ({"op": "relate", "class": "ChildOf", "origin": 1,
              "destination": 2, "participants": [3]},
             "op field 'participants' must be an object"),
            ({"op": "frobnicate"}, "unknown op 'frobnicate'"),
            ({"oid": 1}, "unknown op None"),
            ({"op": "set", "oid": 999, "attr": "rank", "value": 1},
             "unknown oid: 999"),
            ({"op": "delete", "oid": 999}, "unknown oid: 999"),
        ],
    )
    def test_exact_400_body(self, op, message):
        served, seed = _db()
        core = HttpHandlers(served)
        sid = json.loads(_post(core, "/session", {})[1])["session"]
        first = {"op": "set", "oid": seed["oak"], "attr": "rank",
                 "value": "x"}
        status, body = _post(
            core, f"/session/{sid}/apply", {"ops": [first, op]}
        )
        assert status == 400
        payload = json.loads(body)
        payload.pop("trace_id", None)  # per request, when tracing is on
        assert payload == {"error": message}
        assert _post(core, f"/session/{sid}/commit", {})[0] == 200
        assert served.schema.get_object(seed["oak"]).get("rank") == "x"


class TestOp:
    def test_from_json_is_the_parser(self):
        assert Op.from_json(
            {"op": "relate", "class": "R", "origin": "3", "destination": 4,
             "participants": {"by": "5"}, "attrs": {"n": 1}}
        ) == Op("relate", 0, "R", {"n": 1}, origin=3, destination=4,
                participants={"by": 5})
        assert Op.from_json({"op": "delete", "oid": 7, "cascade": False}) == (
            Op("delete", 7, cascade=False)
        )
        with pytest.raises(SchemaError, match="unknown op 'get'"):
            Op.from_json({"op": "get", "oid": 1})

    def test_parsed_op_does_not_alias_the_body(self):
        body = {"op": "create", "class": "Taxon", "attrs": {"name": "a"}}
        op = Op.from_json(body)
        body["attrs"]["name"] = "b"
        assert op.attrs == {"name": "a"}

    def test_unknown_kind_is_refused_by_stage_and_apply(self):
        db, seed = _db()
        txn = db.begin()
        with pytest.raises(SchemaError, match="unknown op 'Delete'"):
            txn.stage(Op("Delete", seed["oak"]))
        assert list(txn.ops) == []
        txn.abort()
        with pytest.raises(SchemaError, match="unknown op 'Delete'"):
            Op("Delete", seed["oak"]).apply(db.schema)
        assert db.schema.has_object(seed["oak"])

    def test_ops_are_immutable(self):
        op = Op("create", 1, "Taxon", {"name": "a"})
        with pytest.raises(AttributeError):
            op.oid = 2  # type: ignore[misc]

    def test_transaction_exposes_its_ops(self):
        db, seed = _db()
        txn = db.begin()
        new = txn.create("Taxon", name="a")
        txn.set(new, "rank", "genus")
        txn.set(seed["oak"], "rank", "x")
        assert list(txn.ops) == [
            Op("create", new, "Taxon", {"name": "a", "rank": "genus"}),
            Op("set", seed["oak"], attr="rank", value="x"),
        ]
        txn.delete(new)
        assert list(txn.ops) == [
            Op("set", seed["oak"], attr="rank", value="x"),
        ]
        txn.abort()
