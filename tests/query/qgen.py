"""Seeded random POOL query generator + reducing shrinker.

Used by the differential harness (``test_differential.py``): every
generated query is executed through the cost-based planner *and* the
retained naive reference evaluator, and the result sets must agree.
Queries are built as a structured :class:`QuerySpec` (not raw text) so
a failing case can be *shrunk* — conjuncts dropped, clauses stripped,
bindings removed — down to a minimal still-failing query before it is
reported.

The fuzz schema spans **two categories** (in the paper's sense of
parallel taxonomic hierarchies): ``Base``/``Leaf`` with the
``Links`` Base-to-Base digraph, and ``Cat`` reached through the
cross-category ``Bridges`` (Base-to-Cat) relationship.  The generator
tracks which category each bound variable ranges over, so predicates,
projections and ORDER BY clauses always name attributes the variable
actually has — the interesting behaviour stays access-path selection
and traversal semantics, never trivial type errors.

The generator deliberately avoids arithmetic that can raise
(division/modulo) and type-mismatched comparisons (``size = "x"``), so
every query is deterministic.  Nulls, on the other hand, are generated
aggressively: the fuzz schema's ``year`` attribute is None for ~30% of
rows, which exercises the None-safe range-probe and null-ordering
paths.  ``rank`` comparisons draw from the real :data:`RANKS` pool (a
sharded deployment keys placement on ``rank``, so these are the
predicates that exercise shard pruning), and roughly a third of the
specs are forced into the ORDER BY + LIMIT + predicate shape that
stresses top-n pushdown.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

#: Base/Leaf attribute name -> kind, shared by predicate and value
#: generators.
ATTRS = {
    "name": "str",
    "rank": "str",
    "size": "int",
    "score": "float",
    "flag": "bool",
    "year": "nullable_int",
}

#: Cat (the second category) attribute name -> kind.
CAT_ATTRS = {
    "label": "str",
    "region": "str",
    "area": "int",
    "wet": "bool",
}

RANKS = ("kingdom", "family", "genus", "species")

REGIONS = ("arctic", "boreal", "temperate", "tropical")

#: category -> (attr table, bare-bool attr, int attr, str attr,
#:              orderable attrs)
_CATEGORIES = {
    "base": (ATTRS, "flag", "size", "rank", ("size", "name", "year", "score")),
    "cat": (CAT_ATTRS, "wet", "area", "region", ("area", "label", "region")),
}


@dataclass
class QuerySpec:
    """One generated SELECT, structured for shrinking."""

    bindings: list[tuple[str, str]]  # (variable, source text)
    conjuncts: list[str] = field(default_factory=list)  # ANDed predicates
    projection: str | None = None  # None = bare first variable
    order_by: str | None = None
    limit: int | None = None
    distinct: bool = False

    def text(self) -> str:
        proj = self.projection or self.bindings[0][0]
        parts = ["select"]
        if self.distinct:
            parts.append("distinct")
        parts.append(proj)
        parts.append("from")
        parts.append(
            ", ".join(f"{var} in {source}" for var, source in self.bindings)
        )
        if self.conjuncts:
            parts.append("where")
            parts.append(" and ".join(self.conjuncts))
        if self.order_by:
            parts.append(f"order by {self.order_by}")
        if self.limit is not None:
            parts.append(f"limit {self.limit}")
        return " ".join(parts)


class QueryGen:
    """Seeded generator over the fuzz schema (Base/Leaf/Links + Cat/Bridges)."""

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    # -- value pools (type-correct by construction) ---------------------

    def _value(self, kind: str, attr: str | None = None) -> str:
        rng = self.rng
        if kind == "str":
            if attr == "rank":
                # Real rank values (plus one miss) so equality predicates
                # actually select rows — and, on a sharded deployment
                # keyed on rank, actually prune shards.
                return f'"{rng.choice(RANKS + ("variety",))}"'
            if attr == "region":
                return f'"{rng.choice(REGIONS + ("abyssal",))}"'
            return f'"{rng.choice(["n", "m"])}{rng.randrange(0, 40)}"'
        if kind == "int":
            return str(rng.randrange(-2, 12))
        if kind == "float":
            return f"{rng.randrange(0, 100) / 10.0}"
        if kind == "bool":
            return rng.choice(("true", "false"))
        if kind == "nullable_int":
            return str(rng.randrange(1750, 1760))
        raise AssertionError(kind)

    def _attr(self, category: str) -> tuple[str, str]:
        table = _CATEGORIES[category][0]
        name = self.rng.choice(list(table))
        return name, table[name]

    # -- predicates -----------------------------------------------------

    def _comparison(self, var: str, category: str) -> str:
        attr, kind = self._attr(category)
        value = self._value(kind, attr)
        if kind in ("str", "bool"):
            op = self.rng.choice(("=", "!=", "="))
        else:
            op = self.rng.choice(("=", "!=", "<", "<=", ">", ">="))
        if kind == "str" and self.rng.random() < 0.25:
            if attr == "rank":
                prefix = self.rng.choice(("k", "f", "g", "s", "gen", "spec"))
            elif attr == "region":
                prefix = self.rng.choice(("a", "b", "t", "tro"))
            else:
                prefix = self.rng.choice(("n", "m", "n1"))
            return f'{var}.{attr} like "{prefix}%"'
        if self.rng.random() < 0.15:  # reversed operand order
            flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
            return f"{value} {flipped} {var}.{attr}"
        return f"{var}.{attr} {op} {value}"

    def _oid_key(self, category: str) -> str:
        """A key for ``v.oid = key``.  Objects are created Base/Leaf
        first (30–44 of them), then Cat (8–15), then edges, so small
        OIDs are Base rows and the 31–60 band is mostly Cat or edges."""
        rng = self.rng
        own, other = ((1, 30), (31, 61)) if category == "base" else (
            (31, 61), (1, 30)
        )
        roll = rng.random()
        if roll < 0.30:
            return str(rng.randrange(*own))  # usually an existing member
        if roll < 0.50:
            return f"{rng.randrange(*own)}.{rng.choice((0, 0, 5))}"  # float
        if roll < 0.65:
            return rng.choice(("true", "true", "false"))  # bool == 1 / 0
        if roll < 0.75:
            return str(rng.randrange(*other))  # another class's object
        if roll < 0.85:
            return str(rng.choice((0, -1, 10**6)))  # no such object
        if roll < 0.93:
            return f'"{rng.randrange(*own)}"'  # a string never equals
        return "null"

    def _oid_comparison(self, var: str, cats: dict[str, str]) -> str:
        """``v.oid = key``: the predicate the OID probe serves."""
        rng = self.rng
        others = [v for v in cats if v != var]
        if others and rng.random() < 0.25:
            # Keyed by another binding's int attribute (a join key).
            other = rng.choice(others)
            key = f"{other}.{_CATEGORIES[cats[other]][2]}"
        else:
            key = self._oid_key(cats[var])
        op = rng.choice(("=", "=", "=", "!="))
        if rng.random() < 0.2:
            return f"{key} {op} {var}.oid"
        return f"{var}.oid {op} {key}"

    def _predicate(
        self, cats: dict[str, str], depth: int = 0
    ) -> str:
        rng = self.rng
        variables = list(cats)
        var = rng.choice(variables)
        roll = rng.random()
        if depth < 2 and roll < 0.18:
            left = self._predicate(cats, depth + 1)
            right = self._predicate(cats, depth + 1)
            return f"({left} or {right})"
        if depth < 2 and roll < 0.26:
            return f"(not {self._predicate(cats, depth + 1)})"
        if roll < 0.32:
            return f"{var}.{_CATEGORIES[cats[var]][1]}"
        if roll < 0.36:
            return self._oid_comparison(var, cats)
        if len(variables) > 1 and roll < 0.44:
            # Cross-variable (possibly cross-category) comparison on a
            # type-compatible attribute pair: size/area or rank/region.
            a, b = rng.sample(variables, 2)
            slot = rng.choice((2, 3))  # int attr or str attr
            op = rng.choice(("=", "!="))
            attr_a = _CATEGORIES[cats[a]][slot]
            attr_b = _CATEGORIES[cats[b]][slot]
            return f"{a}.{attr_a} {op} {b}.{attr_b}"
        return self._comparison(var, cats[var])

    # -- whole queries --------------------------------------------------

    def _source(self, prev: tuple[str, str] | None) -> tuple[str, str]:
        """(source text, category) for the next binding."""
        rng = self.rng
        if prev is None or rng.random() < 0.5:
            return rng.choice(
                (("Base", "base"), ("Base", "base"), ("Leaf", "base"),
                 ("Cat", "cat"))
            )
        prev_var, prev_cat = prev
        if prev_cat == "cat":
            # The only relationship touching Cat is Bridges (Base->Cat).
            return f"{prev_var}<-Bridges", "base"
        if rng.random() < 0.3:
            return f"{prev_var}->Bridges", "cat"
        arrow = rng.choice(("->", "<-"))
        closure = rng.choice(("", "", "+", "*", "{1,2}", "{0,2}", "{2,3}"))
        return f"{prev_var}{arrow}Links{closure}", "base"

    def spec(self) -> QuerySpec:
        rng = self.rng
        source, category = self._source(None)
        bindings = [("a", source)]
        cats = {"a": category}
        if rng.random() < 0.45:
            source, category = self._source(("a", cats["a"]))
            bindings.append(("b", source))
            cats["b"] = category
        variables = list(cats)
        # ~1/3 of specs force the full ORDER BY + LIMIT + predicate
        # combination — the shape that exercises top-n pushdown.
        combo = rng.random() < 0.3
        n_conjuncts = rng.choice((0, 1, 1, 1, 2, 2, 3))
        if combo:
            n_conjuncts = max(1, n_conjuncts)
        conjuncts = [self._predicate(cats) for _ in range(n_conjuncts)]
        if rng.random() < 0.15:
            # A top-level ``v.oid = key`` conjunct: the OID-probe shape.
            conjuncts.insert(0, self._oid_comparison(
                rng.choice(variables), cats
            ))
        projection: str | None = None
        roll = rng.random()
        proj_var = rng.choice(variables)
        if roll < 0.35:
            attr = rng.choice(list(_CATEGORIES[cats[proj_var]][0]))
            projection = f"{proj_var}.{attr}"
        elif roll < 0.45 and cats[proj_var] == "base":
            projection = f"(Leaf) {proj_var}"
        elif roll < 0.55 and len(variables) > 1:
            projection = ", ".join(
                f"{v}.{_CATEGORIES[cats[v]][2]}" for v in variables
            )
        order_by = None
        if combo or rng.random() < 0.4:
            order_var = rng.choice(variables)
            attr = rng.choice(_CATEGORIES[cats[order_var]][4])
            direction = rng.choice(("", " desc", " asc"))
            order_by = f"{order_var}.{attr}{direction}"
        limit = rng.choice((None, None, None, 1, 2, 5, 10))
        if combo and limit is None:
            limit = rng.choice((1, 2, 5, 10))
        distinct = rng.random() < 0.25
        return QuerySpec(
            bindings=bindings,
            conjuncts=conjuncts,
            projection=projection,
            order_by=order_by,
            limit=limit,
            distinct=distinct,
        )


def shrink(spec: QuerySpec, still_fails) -> QuerySpec:
    """Greedy reducing shrinker.

    Repeatedly tries structural reductions, keeping any that still
    reproduce the failure (``still_fails(spec) -> bool``), until no
    reduction applies.  Returns the minimal failing spec.
    """
    changed = True
    while changed:
        changed = False
        for candidate in _reductions(spec):
            if still_fails(candidate):
                spec = candidate
                changed = True
                break
    return spec


def _reductions(spec: QuerySpec):
    for index in range(len(spec.conjuncts)):
        rest = spec.conjuncts[:index] + spec.conjuncts[index + 1:]
        yield replace(spec, conjuncts=rest)
    if spec.order_by:
        yield replace(spec, order_by=None)
    if spec.limit is not None:
        yield replace(spec, limit=None)
    if spec.distinct:
        yield replace(spec, distinct=False)
    if spec.projection is not None:
        yield replace(spec, projection=None)
    if len(spec.bindings) > 1:
        # Dropping binding b requires nothing else to mention it.
        survivor = spec.bindings[0][0]
        dropped = {var for var, _ in spec.bindings[1:]}
        mentions = " ".join(spec.conjuncts) + " " + (spec.projection or "") + \
            " " + (spec.order_by or "")
        if not any(f"{var}." in mentions or f"{var}-" in mentions
                   or f"{var}<" in mentions or f" {var} " in f" {mentions} "
                   for var in dropped):
            yield replace(
                spec, bindings=spec.bindings[:1], projection=spec.projection
                if spec.projection and survivor in spec.projection
                else None,
            )
