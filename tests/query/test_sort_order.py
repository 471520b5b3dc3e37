"""ORDER BY order over mixed values: the sort keys against a stated rule.

POOL sorts any mix of values.  The rule, per ORDER BY key:

* categories order ``None < bool < number < str < PObject < other``;
* within a category, numbers and strings compare by value, PObjects by
  OID, anything else (lists, ...) by ``repr``;
* two values that are equal (``==``) tie, and the next key decides;
* two values neither equal nor ordered (NaN against a number) tie and
  end the comparison: later keys are not consulted;
* ``desc`` reverses one key; the sort is stable, so full ties keep the
  input (OID) order.

Each seeded case sorts rows of mixed values with the evaluator's sort
keys and with a :func:`functools.cmp_to_key` reference that states the
rule above, and the two orders must match.  The same rows, stored as
objects, are then sorted by ``db.query`` (planned, with and without a
B-tree over the bool/number key ``n``) and by the naive
:func:`repro.query.evaluator.execute`, which must agree with the
reference too.

Fixed seeds always run, plus ``QUERY_FUZZ_SEED`` when set (or the CI
run-derived seed):

    QUERY_FUZZ_SEED=12345 pytest tests/query/test_sort_order.py
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.core.instances import PObject
from repro.engine import PrometheusDB
from repro.query.evaluator import _sort_key, execute

from tests import fuzzseeds

SEED_ENV = "QUERY_FUZZ_SEED"
PATH = "tests/query/test_sort_order.py"
FIXED_SEEDS = (101, 202, 303)
ROWS = 48
CASES = 60
#: ``n`` holds only None, bools and numbers: a B-tree can index it.
KEYS = ("k1", "k2", "k3", "n")


def category(value):
    if value is None:
        return 0
    if isinstance(value, bool):
        return 1
    if isinstance(value, (int, float)):
        return 2
    if isinstance(value, str):
        return 3
    if isinstance(value, PObject):
        return 4
    return 5


def comparable(value):
    kind = category(value)
    if kind == 4:
        return value.oid
    if kind == 5:
        return repr(value)
    return value


def reference_cmp(directions):
    """The rule in the module docstring, as a three-way comparison of
    two rows' key values."""

    def cmp(a, b):
        for x, y, descending in zip(a, b, directions):
            cx, cy = category(x), category(y)
            if cx != cy:
                order = -1 if cx < cy else 1
            else:
                x, y = comparable(x), comparable(y)
                if x == y:
                    continue
                order = -1 if x < y else 1 if y < x else 0
            return -order if descending else order
        return 0

    return cmp


def build(seed: int):
    """A database of ``Row`` objects holding mixed values in ``KEYS``,
    plus the value pool's ``Thing`` objects; returns (db, rows) where
    each row is ``{"pos": i, "k1": ..., ...}`` in OID order."""
    rng = random.Random(seed * 7919 + 29)
    db = PrometheusDB()
    db.schema.define_class("Thing", [Attribute("tag", T.STRING)])
    db.schema.define_class(
        "Row",
        [Attribute("pos", T.INTEGER)]
        + [Attribute(k, T.ANY, required=False) for k in KEYS],
    )
    things = [db.schema.create("Thing", tag=f"t{i}") for i in range(4)]
    # Factories, so every NaN drawn is its own object.  The first 13
    # are None, bools and numbers.
    pool = [
        lambda: None,
        lambda: True,
        lambda: False,
        lambda: 0,
        lambda: 1,
        lambda: -3,
        lambda: 10**20,
        lambda: -0.0,
        lambda: 0.0,
        lambda: 1.5,
        lambda: -2.25,
        lambda: float("inf"),
        lambda: float("nan"),
        lambda: "",
        lambda: "a",
        lambda: "B",
        lambda: "ab",
        lambda: [],
        lambda: [1],
        lambda: ["a", None],
    ] + [lambda thing=thing: thing for thing in things]
    numeric = pool[:13]
    # A narrow slice of the pool per key makes ties (and so the later
    # keys and stability) matter.  ``n`` always mixes bools and
    # numbers, so its B-tree is never order-safe.
    slices = [
        rng.sample(pool, rng.randrange(3, len(pool))) for _ in KEYS[:3]
    ]
    slices.append(pool[:3] + rng.sample(numeric[3:], 4))
    rows = []
    for pos in range(ROWS):
        row = {"pos": pos}
        for key, choices in zip(KEYS, slices):
            row[key] = rng.choice(choices)()
        db.schema.create("Row", **row)
        rows.append(row)
    return db, rows


def cases(seed: int):
    rng = random.Random(seed)
    for _ in range(CASES):
        keys = rng.sample(KEYS, rng.randrange(1, 4))
        yield [(key, rng.random() < 0.5) for key in keys]


def expected(rows, order):
    directions = [descending for _, descending in order]
    cmp = reference_cmp(directions)
    ranked = sorted(
        rows,
        key=functools.cmp_to_key(
            lambda a, b: cmp(
                [a[k] for k, _ in order], [b[k] for k, _ in order]
            )
        ),
    )
    return [row["pos"] for row in ranked]


def pool_text(order) -> str:
    keys = ", ".join(
        f"r.{key} desc" if descending else f"r.{key}"
        for key, descending in order
    )
    return f"select r.pos from r in Row order by {keys}"


@pytest.mark.parametrize(
    "seed", fuzzseeds.derive_seeds(FIXED_SEEDS, SEED_ENV)
)
def test_sort_keys_match_the_rule(seed):
    _, rows = build(seed)
    for order in cases(seed):
        got = sorted(
            rows,
            key=lambda row: tuple(
                _sort_key(row[key], descending) for key, descending in order
            ),
        )
        assert [row["pos"] for row in got] == expected(rows, order), (
            f"seed {seed}: {pool_text(order)}\n"
            + fuzzseeds.repro_line(SEED_ENV, seed, PATH)
        )


@pytest.mark.parametrize(
    "seed", fuzzseeds.derive_seeds(FIXED_SEEDS, SEED_ENV)
)
def test_queries_sort_by_the_rule(seed):
    db, rows = build(seed)
    orders = list(cases(seed))
    fallbacks = 0
    for indexed in (False, True):
        if indexed:
            # Bools beside numbers are not order-safe, so an ordered
            # scan over this index sorts the extent itself.
            db.indexes.create_index("Row", "n", kind="btree")
        for order in orders:
            text = pool_text(order)
            want = expected(rows, order)
            context = (
                f"seed {seed} indexed={indexed}: {text}\n"
                + fuzzseeds.repro_line(SEED_ENV, seed, PATH)
            )
            assert db.query(text, check=False) == want, context
            fallbacks += "sorted_scan:Row" in db._last_plan.access_paths
            assert execute(db.schema, text) == want, context
    assert fallbacks, "no case took the ordered-scan fallback"
