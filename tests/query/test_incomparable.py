"""Values that do not order or combine are a typed refusal.

``3 < "x"`` raises :class:`EvaluationError` — planned (with or without a
B-tree on the compared attribute) and naive alike — never a bare
``TypeError``, which HTTP ``/query`` would answer with a 500.
"""

from __future__ import annotations

import json

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.engine import PrometheusDB
from repro.engine.handlers import HttpHandlers, Request
from repro.errors import EvaluationError
from repro.query import execute

RANGE = "select i from i in Item where i.size > $p"


def build(btree: bool) -> PrometheusDB:
    db = PrometheusDB()
    db.schema.define_class(
        "Item", [Attribute("name", T.STRING), Attribute("size", T.INTEGER)]
    )
    for name, size in (("a", 1), ("b", 3), ("c", None)):
        db.schema.create("Item", name=name, size=size)
    if btree:
        db.indexes.create_index("Item", "size", kind="btree")
    return db


@pytest.mark.parametrize("btree", [False, True])
def test_ordering_an_int_against_a_string_is_refused(btree):
    db = build(btree)
    with pytest.raises(EvaluationError, match="'>' to int and str"):
        db.query(RANGE, params={"p": "x"})
    with pytest.raises(EvaluationError):
        execute(db.schema, RANGE, params={"p": "x"})
    if btree:
        paths = db.explain(RANGE, params={"p": 2}).access_paths
        assert paths == ["range:Item.size"]


@pytest.mark.parametrize("op", ["<", "<=", ">", ">=", "+", "-", "*", "/", "%"])
def test_every_ordering_and_arithmetic_operator_is_refused(op):
    # A mapping: an int neither orders nor combines with it (unlike a
    # str, which ``*`` would repeat).
    params = {"p": {"k": 1}}
    db = build(btree=False)
    text = f"select i.size {op} $p from i in Item"
    with pytest.raises(EvaluationError):
        db.query(text, params=params)
    with pytest.raises(EvaluationError):
        execute(db.schema, text, params=params)


def test_an_earlier_conjunct_still_answers_with_a_btree():
    """The refusal is the comparison's, not the index's: where an earlier
    conjunct rules every row out, planned and naive both answer."""
    db = build(btree=True)
    text = 'select i from i in Item where i.name like "zz%" and i.size > $p'
    assert db.explain(text, params={"p": 2}).access_paths == [
        "range:Item.size"
    ]
    assert db.query(text, params={"p": "x"}) == []
    assert execute(db.schema, text, params={"p": "x"}) == []


def test_http_query_answers_400_not_500():
    db = build(btree=True)
    body = json.dumps({"query": RANGE, "params": {"p": "x"}}).encode()
    response = HttpHandlers(db).handle(Request("POST", "/query", {}, body))
    assert response.status == 400
    assert "cannot apply '>' to int and str" in json.loads(response.body)["error"]


@pytest.mark.parametrize(
    "text",
    [
        "select -$p from i in Item",
        "select i.name, -$p from i in Item group by i.name",
    ],
)
def test_unary_minus_without_a_negative_is_refused(text):
    """``-"x"`` is the same typed refusal, per row and per group."""
    db = build(btree=True)
    with pytest.raises(EvaluationError, match="unary '-' to str"):
        db.query(text, params={"p": "x"})
    with pytest.raises(EvaluationError, match="unary '-' to str"):
        execute(db.schema, text, params={"p": "x"})
    body = json.dumps({"query": text, "params": {"p": "x"}}).encode()
    response = HttpHandlers(db).handle(Request("POST", "/query", {}, body))
    assert response.status == 400
    assert "unary '-' to str" in json.loads(response.body)["error"]
