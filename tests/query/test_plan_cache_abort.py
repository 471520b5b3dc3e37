"""A plan cached before a rollback still answers right after it.

An abort undoes index entries through the undo journal but never adds
or drops an index, and plans probe their indexes by ``(class,
attribute)`` when they run.  So the database's ``AFTER_ABORT`` plan
eviction is for EXPLAIN (a fresh plan from restored statistics), not
for answers: a planner that is *not* attached to the event bus keeps
its plans across the abort, and they must agree with the naive
evaluator.
"""

from __future__ import annotations

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.engine import PrometheusDB
from repro.query import execute, parse
from repro.query.evaluator import Evaluator, QueryContext
from repro.query.planner import Planner
from repro.query.plans import AdjacencyCache

RANGE = "select i.name from i in Item where i.size > 2 order by i.name"
PROBE = 'select i.size from i in Item where i.name = "b" order by i.size'


def build() -> PrometheusDB:
    db = PrometheusDB()
    db.schema.define_class(
        "Item", [Attribute("name", T.STRING), Attribute("size", T.INTEGER)]
    )
    for name, size in (("a", 1), ("b", 3), ("c", 5)):
        db.schema.create("Item", name=name, size=size)
    db.commit()
    db.indexes.create_index("Item", "name", kind="hash")
    db.indexes.create_index("Item", "size", kind="btree")
    return db


def planned(db: PrometheusDB, planner: Planner, text: str):
    """``(rows, access paths)`` of ``text`` planned by ``planner``."""
    context = QueryContext(
        schema=db.schema,
        index_probe=db.indexes.probe,
        planner=planner,
        adjacency=AdjacencyCache(db.schema),
    )
    rows = Evaluator(context).run(parse(text))
    return rows, context.plan.access_paths


def test_cached_plans_read_rebuilt_indexes_after_abort():
    db = build()
    planner = Planner(db.schema, catalog=db.indexes)  # never attached
    assert planned(db, planner, RANGE) == (["b", "c"], ["range:Item.size"])
    assert planned(db, planner, PROBE) == ([3], ["index:Item.name"])

    # Creates, a delete and an update, all undone by the abort: the
    # rebuilt indexes must hold the restored rows again.
    items = {obj.get("name"): obj for obj in db.schema.extent("Item")}
    db.schema.create("Item", name="b", size=9)
    db.schema.create("Item", name="d", size=4)
    db.schema.delete(items["c"])
    items["b"].set("size", 0)
    assert planned(db, planner, RANGE)[0] == ["b", "d"]
    assert planned(db, planner, PROBE)[0] == [0, 9]

    db.abort()
    hits = planner.snapshot()["hits"]
    assert planned(db, planner, RANGE) == (["b", "c"], ["range:Item.size"])
    assert planned(db, planner, PROBE) == ([3], ["index:Item.name"])
    assert planner.snapshot()["hits"] == hits + 2  # both plans reused
    for text in (RANGE, PROBE):
        assert planned(db, planner, text)[0] == execute(db.schema, text)
        assert db.query(text) == execute(db.schema, text)
