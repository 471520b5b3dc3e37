"""Physical plan operators for POOL (§6.1.5.2–6.1.5.3 made explicit).

The cost-based planner (:mod:`repro.query.planner`) compiles a parsed
``SELECT`` into a tree of the operators in this module; the evaluator
then *executes the plan* instead of interpreting the AST.  Operators are
lazy generator pipelines over binding environments (dicts mapping
variable names to values), so ``LIMIT`` stops pulling as soon as it is
satisfied and nothing is materialised before it has to be.

Access-path operators (the leaves of a binding chain):

* :class:`BindExtent` — full extent scan of a class;
* :class:`BindOid` — the one object a ``var.oid = key`` conjunct pins,
  read from the object table (no index needed; the conjunct is still
  applied);
* :class:`BindIndexEq` — hash/B-tree equality probe seeding the
  candidate set from an index (the probed conjunct is *not* elided: the
  WHERE clause is still applied in full, exactly like the naive
  evaluator, so a probe can only ever narrow, never change, a result);
* :class:`BindIndexRange` — B-tree range probe for ``<``/``<=``/``>``/
  ``>=`` conjuncts, None-safe (objects whose indexed attribute is null
  are never produced by a range, matching three-valued comparison
  semantics);
* :class:`BindOrderedScan` — B-tree key-ordered extent scan that lets
  the planner elide an ``ORDER BY`` sort;
* :class:`BindTraverse` — relationship traversal source executed as a
  memoized breadth-first walk through an :class:`AdjacencyCache`;
* :class:`BindExpr` — any other source expression, re-evaluated per
  outer row (dependent join).

``Filter`` applies pushed-down or residual WHERE conjuncts; the final
(residual) filter also maintains the ``rows_examined``/``rows_matched``
counters of :class:`~repro.query.nodes.QueryPlanInfo` so EXPLAIN output
stays comparable with the naive evaluator's.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Iterator

from .nodes import (
    AttributeAccess,
    Binary,
    Downcast,
    ExistsExpr,
    FunctionCall,
    Literal,
    MethodCall,
    Node,
    Parameter,
    SelectQuery,
    SetOperation,
    Traversal,
    Unary,
    Variable,
)

if TYPE_CHECKING:  # pragma: no cover
    from .evaluator import Evaluator

Env = dict[str, Any]

#: Aggregates that, projected alone over a query, fold all rows
#: (shared with the evaluator; kept here so the planner can detect
#: aggregate queries without importing the evaluator).
AGGREGATES = ("count", "size", "sum", "avg", "min", "max")


def aggregate_projection(query: SelectQuery) -> FunctionCall | None:
    """``select count(expr) from ...``-style whole-query aggregation."""
    if len(query.projection) != 1 or query.projection[0].alias is not None:
        return None
    expr = query.projection[0].expression
    if isinstance(expr, FunctionCall) and expr.name in AGGREGATES:
        if len(expr.args) == 1:
            return expr
    return None


def split_conjuncts(condition: Node | None) -> list[Node]:
    """Flatten the top-level AND chain of a WHERE clause."""
    if condition is None:
        return []
    if isinstance(condition, Binary) and condition.op == "and":
        return split_conjuncts(condition.left) + split_conjuncts(
            condition.right
        )
    return [condition]


def free_variables(node: Node) -> frozenset[str]:
    """Variable names ``node`` reads from its environment.

    Sub-select bindings bind locally; an extent name used as a source is
    still *reported* as free (the caller subtracts known class names).
    """
    if isinstance(node, (Literal, Parameter)):
        return frozenset()
    if isinstance(node, Variable):
        return frozenset((node.name,))
    if isinstance(node, AttributeAccess):
        return free_variables(node.target)
    if isinstance(node, (Downcast, Traversal)):
        return free_variables(node.target)
    if isinstance(node, Unary):
        return free_variables(node.operand)
    if isinstance(node, Binary):
        return free_variables(node.left) | free_variables(node.right)
    if isinstance(node, MethodCall):
        out = free_variables(node.target)
        for arg in node.args:
            out |= free_variables(arg)
        return out
    if isinstance(node, FunctionCall):
        out: frozenset[str] = frozenset()
        for arg in node.args:
            out |= free_variables(arg)
        return out
    if isinstance(node, ExistsExpr):
        return free_variables(node.subquery)
    if isinstance(node, SetOperation):
        return free_variables(node.left) | free_variables(node.right)
    if isinstance(node, SelectQuery):
        bound: set[str] = set()
        out = frozenset()
        for binding in node.bindings:
            out |= free_variables(binding.source) - frozenset(bound)
            bound.add(binding.variable)
        locals_ = frozenset(bound)
        for clause in (node.where, node.having):
            if clause is not None:
                out |= free_variables(clause) - locals_
        for item in node.projection:
            out |= free_variables(item.expression) - locals_
        for expr in node.group_by:
            out |= free_variables(expr) - locals_
        for order in node.order_by:
            out |= free_variables(order.expression) - locals_
        return out
    return frozenset()


class AdjacencyCache:
    """Per-query memo of relationship adjacency (edge lists per node).

    ``RelationshipRegistry.outgoing``/``incoming`` expand the
    relationship-class hierarchy and rebuild a sorted edge list on every
    call; recursive closures and join-shaped traversals ask for the same
    node's edges over and over.  The cache lives for one query execution
    (it is hung on the :class:`~repro.query.evaluator.QueryContext`), so
    it can never serve stale adjacency across mutations.
    """

    __slots__ = ("schema", "_edges", "hits", "misses")

    def __init__(self, schema: Any) -> None:
        self.schema = schema
        self._edges: dict[tuple[int, str, bool], tuple[Any, ...]] = {}
        self.hits = 0
        self.misses = 0

    def edges(
        self, oid: int, relationship: str, inverse: bool
    ) -> tuple[Any, ...]:
        key = (oid, relationship, inverse)
        got = self._edges.get(key)
        if got is None:
            self.misses += 1
            registry = self.schema.relationships
            found = (
                registry.incoming(oid, relationship)
                if inverse
                else registry.outgoing(oid, relationship)
            )
            got = tuple(found)
            self._edges[key] = got
        else:
            self.hits += 1
        return got


class _Run:
    """Per-execution operator counters (plans are shared via the cache,
    so actual row counts must not live on the plan nodes themselves)."""

    __slots__ = ("counts", "paths_seen")

    def __init__(self) -> None:
        self.counts: dict[int, int] = {}
        self.paths_seen: set[int] = set()

    def bump(self, op: "PlanOp", n: int = 1) -> None:
        key = id(op)
        self.counts[key] = self.counts.get(key, 0) + n


class PlanOp:
    """Base physical operator: a lazy generator of binding environments."""

    op = "op"

    def __init__(self, children: tuple["PlanOp", ...] = ()) -> None:
        self.children = children
        self.est_rows = 1.0
        self.est_cost = 0.0

    def describe(self) -> dict[str, Any]:
        return {}

    def tree(self, run: _Run | None = None) -> dict[str, Any]:
        out: dict[str, Any] = {"op": self.op}
        out.update(self.describe())
        out["est_rows"] = round(self.est_rows, 1)
        out["est_cost"] = round(self.est_cost, 1)
        if run is not None and id(self) in run.counts:
            out["rows_out"] = run.counts[id(self)]
        if self.children:
            out["children"] = [c.tree(run) for c in self.children]
        return out

    def rows(self, ev: "Evaluator", env: Env, run: _Run) -> Iterator[Env]:
        raise NotImplementedError


class ConstRow(PlanOp):
    """The root of a binding chain: one row, the outer environment."""

    op = "start"

    def rows(self, ev: "Evaluator", env: Env, run: _Run) -> Iterator[Env]:
        yield dict(env)


class BindExtent(PlanOp):
    """Nested-loop bind of ``var`` over a full class extent."""

    op = "extent_scan"

    def __init__(
        self, child: PlanOp, variable: str, class_name: str
    ) -> None:
        super().__init__((child,))
        self.variable = variable
        self.class_name = class_name

    def describe(self) -> dict[str, Any]:
        return {"bind": self.variable, "class": self.class_name}

    def rows(self, ev: "Evaluator", env: Env, run: _Run) -> Iterator[Env]:
        for parent in self.children[0].rows(ev, env, run):
            if self.class_name in parent:
                # A (sub)query variable shadows the class name: the
                # source is that value, exactly as in naive evaluation.
                values = _as_collection(parent[self.class_name])
            else:
                values = self._read(ev, parent, run)
            counts, key = run.counts, id(self)
            for value in values:
                counts[key] = counts.get(key, 0) + 1
                child = dict(parent)
                child[self.variable] = value
                yield child

    def _read(self, ev: "Evaluator", parent: Env, run: _Run) -> list[Any]:
        info = ev.context.plan
        info.extent_scans += 1
        if id(self) not in run.paths_seen:
            run.paths_seen.add(id(self))
            info.access_paths.append(f"scan:{self.class_name}")
        return ev.context.schema.extent(self.class_name)


class BindOid(BindExtent):
    """Bind ``var`` to the extent member whose OID equals a key.

    Exact by construction: :meth:`ObjectTable.member` compares with
    Python ``==``, as the naive ``v.oid = key`` filter does, and the
    conjunct stays in the WHERE clause.
    """

    op = "oid_probe"

    def __init__(
        self, child: PlanOp, variable: str, class_name: str, value_node: Node
    ) -> None:
        super().__init__(child, variable, class_name)
        self.value_node = value_node

    def describe(self) -> dict[str, Any]:
        return {**super().describe(), "key": self.value_node.unparse()}

    def _read(self, ev: "Evaluator", parent: Env, run: _Run) -> list[Any]:
        if id(self) not in run.paths_seen:
            run.paths_seen.add(id(self))
            ev.context.plan.access_paths.append(f"oid:{self.class_name}")
        key = ev._eval(self.value_node, parent)
        hit = ev.context.schema.member(key, self.class_name)
        return [] if hit is None else [hit]


class BindIndexEq(PlanOp):
    """Bind ``var`` from an index equality probe.

    The probe only *seeds* the candidate set — every WHERE conjunct is
    still applied downstream, so a dropped index (or a probe miss)
    degrades to a scan-plus-filter with identical results.
    """

    op = "index_eq"

    def __init__(
        self,
        child: PlanOp,
        variable: str,
        class_name: str,
        attribute: str,
        value_node: Node,
    ) -> None:
        super().__init__((child,))
        self.variable = variable
        self.class_name = class_name
        self.attribute = attribute
        self.value_node = value_node

    def describe(self) -> dict[str, Any]:
        return {
            "bind": self.variable,
            "index": f"{self.class_name}.{self.attribute}",
            "key": self.value_node.unparse(),
        }

    def rows(self, ev: "Evaluator", env: Env, run: _Run) -> Iterator[Env]:
        ctx = ev.context
        info = ctx.plan
        probe = ctx.index_probe
        for parent in self.children[0].rows(ev, env, run):
            if self.class_name in parent:
                values = _as_collection(parent[self.class_name])
            else:
                value = ev._eval(self.value_node, parent)
                try:
                    hit = (
                        probe(self.class_name, self.attribute, value)
                        if probe is not None
                        else None
                    )
                except TypeError:
                    # Key type incomparable with the B-tree's keys
                    # (``size = "x"``): the naive filter just evaluates
                    # to false, so degrade to scan-plus-filter.
                    hit = None
                if hit is None:
                    # Index vanished between planning and execution
                    # (the epoch-keyed cache makes this unlikely);
                    # degrade to a scan, results unchanged.
                    info.extent_scans += 1
                    if id(self) not in run.paths_seen:
                        run.paths_seen.add(id(self))
                        info.access_paths.append(f"scan:{self.class_name}")
                    values = ctx.schema.extent(self.class_name)
                else:
                    name = f"{self.class_name}.{self.attribute}"
                    if info.index_used is None:
                        info.index_used = name
                    if id(self) not in run.paths_seen:
                        run.paths_seen.add(id(self))
                        info.access_paths.append(f"index:{name}")
                    info.rows_from_index += len(hit)
                    values = hit
            for obj in values:
                run.bump(self)
                child = dict(parent)
                child[self.variable] = obj
                yield child


class BindIndexRange(PlanOp):
    """Bind ``var`` from a B-tree range probe (None-safe).

    Bounds are expressions evaluated per outer row; a bound that
    evaluates to null produces no rows (three-valued comparison: the
    naive filter ``attr > null`` is never truthy).  Objects whose
    indexed attribute is null are never produced (they live outside the
    B-tree's key order), matching the naive filter's behaviour.
    """

    op = "index_range"

    def __init__(
        self,
        child: PlanOp,
        variable: str,
        class_name: str,
        attribute: str,
        low_node: Node | None,
        high_node: Node | None,
        include_low: bool,
        include_high: bool,
    ) -> None:
        super().__init__((child,))
        self.variable = variable
        self.class_name = class_name
        self.attribute = attribute
        self.low_node = low_node
        self.high_node = high_node
        self.include_low = include_low
        self.include_high = include_high

    def describe(self) -> dict[str, Any]:
        low = self.low_node.unparse() if self.low_node is not None else None
        high = self.high_node.unparse() if self.high_node is not None else None
        return {
            "bind": self.variable,
            "index": f"{self.class_name}.{self.attribute}",
            "low": low,
            "high": high,
            "include_low": self.include_low,
            "include_high": self.include_high,
        }

    def rows(self, ev: "Evaluator", env: Env, run: _Run) -> Iterator[Env]:
        ctx = ev.context
        info = ctx.plan
        catalog = ctx.planner.catalog if ctx.planner is not None else None
        name = f"{self.class_name}.{self.attribute}"
        for parent in self.children[0].rows(ev, env, run):
            if self.class_name in parent:
                values: list[Any] = _as_collection(parent[self.class_name])
            else:
                low = high = None
                if self.low_node is not None:
                    low = ev._eval(self.low_node, parent)
                    if low is None:
                        continue  # attr > null matches nothing
                if self.high_node is not None:
                    high = ev._eval(self.high_node, parent)
                    if high is None:
                        continue
                hit = (
                    catalog.range_probe(
                        self.class_name,
                        self.attribute,
                        low,
                        high,
                        self.include_low,
                        self.include_high,
                    )
                    if catalog is not None
                    else None
                )
                if hit is None:
                    info.extent_scans += 1
                    if id(self) not in run.paths_seen:
                        run.paths_seen.add(id(self))
                        info.access_paths.append(f"scan:{self.class_name}")
                    values = ctx.schema.extent(self.class_name)
                else:
                    if id(self) not in run.paths_seen:
                        run.paths_seen.add(id(self))
                        info.access_paths.append(f"range:{name}")
                    info.rows_from_index += len(hit)
                    values = hit
            for obj in values:
                run.bump(self)
                child = dict(parent)
                child[self.variable] = obj
                yield child


class BindOrderedScan(PlanOp):
    """Bind ``var`` over a class extent in B-tree key order.

    Chosen only when the plan's single ``ORDER BY`` key is the indexed
    attribute and the index holds keys of one comparison category, so
    index order provably equals the evaluator's sort order (nulls first
    ascending, last descending; ties in OID order — the stable-sort
    order of the naive evaluator).
    """

    op = "index_ordered_scan"

    def __init__(
        self,
        child: PlanOp,
        variable: str,
        class_name: str,
        attribute: str,
        descending: bool,
    ) -> None:
        super().__init__((child,))
        self.variable = variable
        self.class_name = class_name
        self.attribute = attribute
        self.descending = descending

    def describe(self) -> dict[str, Any]:
        return {
            "bind": self.variable,
            "index": f"{self.class_name}.{self.attribute}",
            "descending": self.descending,
        }

    def rows(self, ev: "Evaluator", env: Env, run: _Run) -> Iterator[Env]:
        from .evaluator import _sort_key

        ctx = ev.context
        info = ctx.plan
        catalog = ctx.planner.catalog if ctx.planner is not None else None
        name = f"{self.class_name}.{self.attribute}"
        for parent in self.children[0].rows(ev, env, run):
            if self.class_name in parent:
                values: Any = _as_collection(parent[self.class_name])
            else:
                ordered = (
                    catalog.ordered_scan(
                        self.class_name, self.attribute, self.descending
                    )
                    if catalog is not None
                    else None
                )
                if ordered is None:
                    # Index vanished or went heterogeneous since
                    # planning: the sort was elided, so the fallback
                    # must itself produce sorted order.
                    info.extent_scans += 1
                    if id(self) not in run.paths_seen:
                        run.paths_seen.add(id(self))
                        info.access_paths.append(f"sorted_scan:{self.class_name}")
                    values = sorted(
                        ctx.schema.extent(self.class_name),
                        key=lambda o: _sort_key(
                            ev._attribute(o, self.attribute), self.descending
                        ),
                    )
                else:
                    if id(self) not in run.paths_seen:
                        run.paths_seen.add(id(self))
                        info.access_paths.append(f"ordered:{name}")
                    values = ordered
            for obj in values:
                run.bump(self)
                child = dict(parent)
                child[self.variable] = obj
                yield child


class BindTraverse(PlanOp):
    """Bind ``var`` from a relationship traversal of an earlier binding.

    Executes through the evaluator's breadth-first closure walk, which
    reads adjacency through the per-query :class:`AdjacencyCache` when
    the planner is active — repeated walks over shared substructure
    (joins, deep closures) fetch each node's edge list exactly once.
    """

    op = "traverse"

    def __init__(
        self, child: PlanOp, variable: str, traversal: Traversal
    ) -> None:
        super().__init__((child,))
        self.variable = variable
        self.traversal = traversal

    def describe(self) -> dict[str, Any]:
        t = self.traversal
        return {
            "bind": self.variable,
            "relationship": t.relationship,
            "inverse": t.inverse,
            "depth": [t.min_depth, t.max_depth],
            "scope": t.scope,
        }

    def rows(self, ev: "Evaluator", env: Env, run: _Run) -> Iterator[Env]:
        for parent in self.children[0].rows(ev, env, run):
            for value in ev._traverse(self.traversal, parent):
                run.bump(self)
                child = dict(parent)
                child[self.variable] = value
                yield child


class BindExpr(PlanOp):
    """Bind ``var`` from an arbitrary source expression (dependent join,
    sub-select, downcast source, collection-valued attribute, ...)."""

    op = "bind"

    def __init__(self, child: PlanOp, variable: str, source: Node) -> None:
        super().__init__((child,))
        self.variable = variable
        self.source = source

    def describe(self) -> dict[str, Any]:
        return {"bind": self.variable, "source": self.source.unparse()[:80]}

    def rows(self, ev: "Evaluator", env: Env, run: _Run) -> Iterator[Env]:
        for parent in self.children[0].rows(ev, env, run):
            value = ev._eval(self.source, parent)
            for item in _as_collection(value):
                run.bump(self)
                child = dict(parent)
                child[self.variable] = item
                yield child


class Filter(PlanOp):
    """Apply WHERE conjuncts; the residual (``counting=True``) filter
    also maintains rows_examined / rows_matched for EXPLAIN parity."""

    op = "filter"

    def __init__(
        self, child: PlanOp, conjuncts: tuple[Node, ...], counting: bool
    ) -> None:
        super().__init__((child,))
        self.conjuncts = conjuncts
        self.counting = counting

    def describe(self) -> dict[str, Any]:
        return {
            "predicate": " and ".join(c.unparse() for c in self.conjuncts)
            or "true",
            "pushed_down": not self.counting,
        }

    def rows(self, ev: "Evaluator", env: Env, run: _Run) -> Iterator[Env]:
        from .evaluator import _truthy  # local import: no cycle at module load

        info = ev.context.plan
        counting = self.counting
        conjuncts = self.conjuncts
        for row in self.children[0].rows(ev, env, run):
            if counting:
                info.rows_examined += 1
            ok = True
            for conjunct in conjuncts:
                if not _truthy(ev._eval(conjunct, row)):
                    ok = False
                    break
            if not ok:
                continue
            if counting:
                info.rows_matched += 1
            run.bump(self)
            yield row


class _Describe(PlanOp):
    """Display-only tail operator (project / sort / distinct / limit):
    present in the EXPLAIN tree, executed by :class:`SelectPlan`."""

    def __init__(
        self, op: str, child: PlanOp, **extra: Any
    ) -> None:
        super().__init__((child,))
        self.op = op
        self.extra = extra

    def describe(self) -> dict[str, Any]:
        return dict(self.extra)


class SelectPlan:
    """A compiled SELECT: source pipeline plus result-shaping tail.

    ``source`` yields post-WHERE binding environments; :meth:`execute`
    applies projection, ordering (unless ``order_elided``), DISTINCT and
    LIMIT with the exact semantics of the naive evaluator.  Grouped and
    whole-query-aggregate selects consume :meth:`stream` instead and
    reuse the evaluator's folding logic.
    """

    def __init__(
        self,
        query: SelectQuery,
        source: PlanOp,
        display: PlanOp,
        order_elided: bool,
        considered: tuple[str, ...],
        notes: tuple[str, ...],
        est_cost: float,
    ) -> None:
        self.query = query
        self.source = source
        self.display = display
        self.order_elided = order_elided
        self.considered = considered
        self.notes = notes
        self.est_cost = est_cost

    # -- execution -----------------------------------------------------

    def stream(
        self, ev: "Evaluator", outer_env: Env, run: _Run | None = None
    ) -> Iterator[Env]:
        """Post-WHERE binding environments (for grouped/aggregate use)."""
        run = run if run is not None else _Run()
        return self.source.rows(ev, outer_env, run)

    def execute(self, ev: "Evaluator", outer_env: Env) -> list[Any]:
        query = self.query
        run = _Run()
        self.annotate(ev)
        rows = self.source.rows(ev, outer_env, run)
        if query.order_by and not self.order_elided:
            results = ev.fold(query, rows)
        else:
            out: Iterator[Any] = (
                ev._project(query, env) for env in rows
            )
            if query.distinct:
                out = _distinct_iter(out)
            if query.limit is not None:
                out = itertools.islice(out, query.limit)
            results = list(out)
        self._finish(ev, run)
        return results

    def annotate(self, ev: "Evaluator") -> None:
        info = ev.context.plan
        info.engine = "cost"
        info.est_cost = round(self.est_cost, 2)
        info.indexes_considered.extend(self.considered)
        info.notes.extend(self.notes)

    def finish_stream(self, ev: "Evaluator", run: _Run) -> None:
        """Record the plan tree after a stream consumer finished."""
        self._finish(ev, run)

    def _finish(self, ev: "Evaluator", run: _Run) -> None:
        # Re-assert engine/cost: a planned subquery executed mid-stream
        # overwrote them with its own, and the outer plan finishes last.
        info = ev.context.plan
        info.engine = "cost"
        info.est_cost = round(self.est_cost, 2)
        info.plan_tree = self.display.tree(run)


def _distinct_iter(values: Iterator[Any]) -> Iterator[Any]:
    from .evaluator import _result_key

    seen: set[Any] = set()
    for value in values:
        key = _result_key(value)
        if key in seen:
            continue
        seen.add(key)
        yield value


def _as_collection(value: Any) -> list[Any]:
    if value is None:
        return []
    if isinstance(value, (list, tuple, set, frozenset)):
        return list(value)
    return [value]
