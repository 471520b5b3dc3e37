"""Cost-based POOL query planner with an LRU plan cache.

The planner compiles a parsed ``SELECT`` into a physical plan tree
(:mod:`repro.query.plans`), choosing per-binding access paths — extent
scan, OID probe, index equality probe, B-tree range probe, index-ordered
scan that elides the sort — from a simple cost model fed by live extent
and index cardinality statistics.  WHERE conjuncts are pushed down to
the earliest binding that can evaluate them; everything downstream of
the bindings is a lazy generator pipeline, so ``LIMIT`` stops pulling
early.

Plan caching: the AST is *normalized* — every literal is replaced by a
synthetic parameter slot (``$__plan_lit_N``) — so queries differing only
in constants share one cached plan.  The cache key is the normalized
AST; each entry is stamped with ``(schema.version, catalog.epoch,
as_of)`` and is rebuilt when either stat component moves (class
registration, index create/drop).  The ``as_of`` component keeps
time-travel evaluation honest: a snapshot query is compiled (and cached)
under its own snapshot LSN, with live-index access paths disabled —
it can never hit a plan compiled against newer index statistics, and a
live query can never hit a scan-only snapshot plan.
``AFTER_ABORT`` on the event bus evicts the whole cache, so the first
query after a rollback is planned afresh (EXPLAIN reports a cache miss)
from the restored statistics.  The eviction is not needed for right
answers: a rollback undoes index *entries* through the schema's undo
journal but never adds or drops an index, and a plan probes its indexes
by ``(class, attribute)`` when it runs, so a plan cached before the
abort reads the restored index (``tests/query/test_plan_cache_abort.py``).

Plan choice never affects results, only speed: index probes seed
candidate sets but the full WHERE clause is still applied, and the
ordered scan is only chosen when index order provably equals the sort
order.  ``tests/query/test_differential.py`` fuzzes this claim against
the retained naive evaluator.
"""

from __future__ import annotations

import dataclasses
import math
import threading
from collections import OrderedDict
from typing import Any

from ..core.events import EventKind
from ..telemetry import DISABLED, Telemetry
from .nodes import (
    AttributeAccess,
    Binary,
    Literal,
    Node,
    OrderItem,
    Parameter,
    SelectQuery,
    Traversal,
    Variable,
)
from .plans import (
    BindExpr,
    BindExtent,
    BindIndexEq,
    BindIndexRange,
    BindOid,
    BindOrderedScan,
    BindTraverse,
    ConstRow,
    Filter,
    PlanOp,
    SelectPlan,
    _Describe,
    aggregate_projection,
    free_variables,
    split_conjuncts,
)

__all__ = ["Planner", "normalize_query"]

#: Cost units (arbitrary; only the ranking matters).
_PROBE_COST = 2.0
_ROW_COST = 1.0
_FILTER_COST = 0.05
_SORT_FACTOR = 0.2

_LIT_PREFIX = "__plan_lit_"

_RANGE_OPS = {"<", "<=", ">", ">="}
#: Mirror of an operator when its operands are swapped (5 < x  ⇔  x > 5).
_SWAPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}


# ---------------------------------------------------------------------------
# AST normalization (literals -> parameter slots)
# ---------------------------------------------------------------------------

def normalize_query(query: Node) -> tuple[Node, dict[str, Any]]:
    """Replace every literal with a synthetic parameter slot.

    Returns ``(skeleton, literals)``: the skeleton is the cache key and
    the AST the plan is built from; ``literals`` maps slot names to the
    original constants and is overlaid on the query parameters for the
    duration of one execution.  Traversal order is deterministic
    (dataclass field order), so equal-shaped queries produce equal
    skeletons.
    """
    values: list[Any] = []
    skeleton = _normalize_node(query, values)
    literals = {f"{_LIT_PREFIX}{i}": v for i, v in enumerate(values)}
    return skeleton, literals


def _normalize_node(node: Node, values: list[Any]) -> Node:
    if isinstance(node, Literal):
        name = f"{_LIT_PREFIX}{len(values)}"
        values.append(node.value)
        return Parameter(name)
    kwargs: dict[str, Any] = {}
    for field in dataclasses.fields(node):  # all concrete nodes are dataclasses
        kwargs[field.name] = _normalize_field(getattr(node, field.name), values)
    return type(node)(**kwargs)


def _normalize_field(value: Any, values: list[Any]) -> Any:
    if isinstance(value, Node):
        return _normalize_node(value, values)
    if isinstance(value, tuple):
        return tuple(_normalize_field(item, values) for item in value)
    return value


# ---------------------------------------------------------------------------
# the planner
# ---------------------------------------------------------------------------

class Planner:
    """Compiles SELECT ASTs to physical plans, with an LRU plan cache.

    Args:
        schema: live schema (extent cardinalities, class registry).
        catalog: the index layer (duck-typed: ``lookup`` / ``probe`` /
            ``range_probe`` / ``ordered_scan`` / ``epoch``), or None to
            plan without index access paths.
        telemetry: facade for planner counters (cache hit/miss, plans
            built, access-path histogram); defaults to disabled.
        cache_size: LRU capacity in plans.
    """

    def __init__(
        self,
        schema: Any,
        catalog: Any = None,
        telemetry: Telemetry | None = None,
        cache_size: int = 256,
    ) -> None:
        self.schema = schema
        self.catalog = catalog
        self.telemetry = telemetry if telemetry is not None else DISABLED
        self.cache_size = cache_size
        self._cache: OrderedDict[
            Node, tuple[tuple[Any, int, int | None], SelectPlan]
        ] = OrderedDict()
        # Front cache keyed on the *raw* AST: equal queries carry equal
        # literals, so a front hit skips normalization entirely.  Cleared
        # with every main-cache eviction so it can never outlive an entry.
        self._front: OrderedDict[
            Node,
            tuple[tuple[Any, int, int | None], SelectPlan, dict[str, Any], Node],
        ] = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.built = 0
        self.evictions = 0
        self.failures = 0

    # -- cache plumbing -------------------------------------------------

    def attach(self, bus: Any) -> None:
        """Subscribe to the event bus: a rollback evicts every cached plan.

        Not for correctness — a cached plan reads the restored indexes
        — but so that a post-rollback query is planned from the restored
        statistics and EXPLAIN reports that fresh plan, as
        ``tests/query/test_explain_txn.py`` pins.
        """
        bus.subscribe(self._on_event, kinds={EventKind.AFTER_ABORT})

    def _on_event(self, event: Any) -> None:
        self.invalidate()

    def invalidate(self) -> None:
        """Drop every cached plan (schema rollback, manual reset)."""
        with self._lock:
            dropped = len(self._cache)
            self._cache.clear()
            self._front.clear()
            self.evictions += dropped
        tel = self.telemetry
        if tel.enabled and dropped:
            tel.registry.counter(
                "repro_planner_cache_evictions_total",
                help="Cached plans evicted (rollbacks, capacity)",
            ).inc(dropped)

    def _stamp(self, as_of: int | None = None) -> tuple[Any, int, int | None]:
        version = getattr(self.schema, "version", 0)
        epoch = getattr(self.catalog, "epoch", 0) if self.catalog else 0
        return (version, epoch, as_of)

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            size = len(self._cache)
        return {
            "cache_size": size,
            "cache_capacity": self.cache_size,
            "hits": self.hits,
            "misses": self.misses,
            "built": self.built,
            "evictions": self.evictions,
            "failures": self.failures,
        }

    # -- entry point ----------------------------------------------------

    def plan_select(
        self, query: SelectQuery, as_of: int | None = None
    ) -> tuple[SelectPlan, dict[str, Any], str] | None:
        """Plan (or fetch from cache) one SELECT.

        Returns ``(plan, literal_bindings, "hit" | "miss")``, or None
        when the query cannot be planned — the caller falls back to the
        naive evaluator, so planning failures can never lose results.

        ``as_of`` marks a time-travel compilation: the snapshot LSN
        becomes part of the cache stamp and index access paths are not
        considered (live indexes describe current state, not the
        snapshot's).
        """
        tel = self.telemetry
        try:
            stamp = self._stamp(as_of)
            with self._lock:
                front = self._front.get(query)
                if front is not None and front[0] == stamp:
                    self._front.move_to_end(query)
                    if front[3] in self._cache:  # keep main LRU order honest
                        self._cache.move_to_end(front[3])
                    self.hits += 1
                else:
                    front = None
            if front is not None:
                if tel.enabled:
                    tel.registry.counter(
                        "repro_planner_cache_hits_total",
                        help="Plan-cache hits",
                    ).inc()
                return front[1], front[2], "hit"
            skeleton, literals = normalize_query(query)
            with self._lock:
                entry = self._cache.get(skeleton)
                if entry is not None and entry[0] == stamp:
                    self._cache.move_to_end(skeleton)
                    self.hits += 1
                    hit_plan = entry[1]
                    self._front[query] = (stamp, hit_plan, literals, skeleton)
                    while len(self._front) > self.cache_size:
                        self._front.popitem(last=False)
                else:
                    hit_plan = None
            if hit_plan is not None:
                if tel.enabled:
                    tel.registry.counter(
                        "repro_planner_cache_hits_total",
                        help="Plan-cache hits",
                    ).inc()
                return hit_plan, literals, "hit"
            plan = self._build(skeleton, as_of=as_of)
            with self._lock:
                self.misses += 1
                self.built += 1
                self._cache[skeleton] = (stamp, plan)
                self._cache.move_to_end(skeleton)
                evicted = False
                while len(self._cache) > self.cache_size:
                    self._cache.popitem(last=False)
                    self.evictions += 1
                    evicted = True
                if evicted:
                    self._front.clear()
                else:
                    self._front[query] = (stamp, plan, literals, skeleton)
                    while len(self._front) > self.cache_size:
                        self._front.popitem(last=False)
            if tel.enabled:
                registry = tel.registry
                registry.counter(
                    "repro_planner_cache_misses_total", help="Plan-cache misses"
                ).inc()
                registry.counter(
                    "repro_planner_plans_built_total", help="Plans compiled"
                ).inc()
            return plan, literals, "miss"
        except Exception:
            self.failures += 1
            if tel.enabled:
                tel.registry.counter(
                    "repro_planner_failures_total",
                    help="Queries the planner could not compile "
                    "(naive fallback)",
                ).inc()
            return None

    # -- plan construction ----------------------------------------------

    def _build(
        self, query: SelectQuery, as_of: int | None = None
    ) -> SelectPlan:
        schema = self.schema
        # Time-travel plans are scan-only: the live catalog's indexes
        # describe current state, not the snapshot's.
        catalog = self.catalog if as_of is None else None
        binding_vars = {b.variable for b in query.bindings}

        def needed(node: Node) -> frozenset[str]:
            """Env names a conjunct needs: binding vars plus names that
            are neither bindings nor extents (outer/unknown)."""
            return frozenset(
                v
                for v in free_variables(node)
                if v in binding_vars or not schema.has_class(v)
            )

        pending = list(split_conjuncts(query.where))
        considered: list[str] = []
        notes: list[str] = []
        bound: set[str] = set()

        def pull_applicable() -> list[Node]:
            got = [c for c in pending if needed(c) <= bound]
            for c in got:
                pending.remove(c)
            return got

        op: PlanOp = ConstRow()
        op.est_rows = 1.0
        op.est_cost = 0.0
        pre = pull_applicable()
        if pre:
            op = self._filter(op, pre, counting=False)

        grouped = bool(query.group_by) or aggregate_projection(query) is not None
        order_elided = False
        last = len(query.bindings) - 1
        for i, binding in enumerate(query.bindings):
            elide_wanted = (
                i == 0
                and last == 0
                and not grouped
                and self._order_key(query) is not None
            )
            op, elided = self._bind(
                op, binding, bound, pending, considered, notes, query,
                try_ordered=elide_wanted, catalog=catalog,
            )
            order_elided = order_elided or elided
            bound.add(binding.variable)
            if i < last:
                got = pull_applicable()
                if got:
                    op = self._filter(op, got, counting=False)
        # Residual filter: everything left, including conjuncts that
        # reference outer-scope variables.  Always present — it owns the
        # rows_examined / rows_matched counters.
        op = self._filter(op, pending, counting=True)

        display, total_cost = self._tail(query, op, order_elided)
        return SelectPlan(
            query=query,
            source=op,
            display=display,
            order_elided=order_elided,
            considered=tuple(considered),
            notes=tuple(notes),
            est_cost=total_cost,
        )

    def _filter(
        self, child: PlanOp, conjuncts: list[Node], counting: bool
    ) -> PlanOp:
        op = Filter(child, tuple(conjuncts), counting)
        selectivity = 1.0
        for conjunct in conjuncts:
            if isinstance(conjunct, Binary) and conjunct.op == "=":
                selectivity *= 0.25
            elif isinstance(conjunct, Binary) and conjunct.op in _RANGE_OPS:
                selectivity *= 0.4
            else:
                selectivity *= 0.6
        op.est_rows = max(child.est_rows * selectivity, 0.1)
        op.est_cost = child.est_cost + child.est_rows * _FILTER_COST * max(
            len(conjuncts), 1
        )
        return op

    def _order_key(self, query: SelectQuery) -> OrderItem | None:
        """The single ``var.attr`` ORDER BY key, if that is the shape."""
        if len(query.order_by) != 1:
            return None
        item = query.order_by[0]
        expr = item.expression
        if (
            isinstance(expr, AttributeAccess)
            and isinstance(expr.target, Variable)
            and expr.target.name == query.bindings[0].variable
        ):
            return item
        return None

    def _bind(
        self,
        child: PlanOp,
        binding: Any,
        bound: set[str],
        pending: list[Node],
        considered: list[str],
        notes: list[str],
        query: SelectQuery,
        try_ordered: bool,
        catalog: Any = None,
    ) -> tuple[PlanOp, bool]:
        """Choose the cheapest access path for one FROM binding."""
        source = binding.source
        var = binding.variable
        schema = self.schema
        if (
            isinstance(source, Variable)
            and source.name not in bound
            and schema.has_class(source.name)
        ):
            return self._bind_extent(
                child, var, source.name, bound, pending, considered, notes,
                query, try_ordered, catalog,
            )
        if isinstance(source, Traversal):
            op: PlanOp = BindTraverse(child, var, source)
            op.est_rows = child.est_rows * 4.0
            op.est_cost = child.est_cost + child.est_rows * 4.0 * _ROW_COST
            self._count_path("traverse")
            return op, False
        op = BindExpr(child, var, source)
        fanout = 8.0 if isinstance(source, SelectQuery) else 2.0
        op.est_rows = child.est_rows * fanout
        op.est_cost = child.est_cost + child.est_rows * fanout * _ROW_COST
        self._count_path("expr")
        return op, False

    def _bind_extent(
        self,
        child: PlanOp,
        var: str,
        class_name: str,
        bound: set[str],
        pending: list[Node],
        considered: list[str],
        notes: list[str],
        query: SelectQuery,
        try_ordered: bool,
        catalog: Any = None,
    ) -> tuple[PlanOp, bool]:
        schema = self.schema
        binding_vars = {b.variable for b in query.bindings}

        def seed_value_ok(value: Node) -> bool:
            """A seed value must be computable before this binding."""
            for name in free_variables(value):
                if name in binding_vars and name not in bound:
                    return False
                if name not in bound and not schema.has_class(name):
                    # outer/unknown variable: not available at seed time
                    # from a cached, context-free plan
                    return False
            return True

        extent_rows = float(max(schema.count(class_name), 1))
        candidates: list[tuple[float, float, str, PlanOp]] = []
        scan = BindExtent(child, var, class_name)
        scan_rows = child.est_rows * extent_rows
        scan_cost = child.est_cost + _ROW_COST + scan_rows
        candidates.append((scan_cost, scan_rows, "extent_scan", scan))

        # ``v.oid`` reads a participant instead when a relationship
        # class under ``class_name`` names a role ``oid``.
        oid_probe_ok = not any(
            "oid" in getattr(schema.get_class(name), "participant_roles", ())
            for name in schema.get_class(class_name).subtree_names
        )
        oid_keys: list[Node] = []
        eq_seeds: list[tuple[str, Node]] = []
        bounds: dict[str, dict[str, tuple[Node, bool]]] = {}
        for conjunct in pending:
            if not isinstance(conjunct, Binary):
                continue
            sides = (
                (conjunct.op, conjunct.left, conjunct.right),
                (_SWAPPED.get(conjunct.op, conjunct.op), conjunct.right,
                 conjunct.left),
            )
            for op_name, attr_side, value_side in sides:
                if not (
                    isinstance(attr_side, AttributeAccess)
                    and isinstance(attr_side.target, Variable)
                    and attr_side.target.name == var
                ):
                    continue
                if not seed_value_ok(value_side):
                    continue
                if conjunct.op == "=":
                    if attr_side.name == "oid" and oid_probe_ok:
                        oid_keys.append(value_side)
                    else:
                        eq_seeds.append((attr_side.name, value_side))
                    break
                if op_name in _RANGE_OPS:
                    slot = bounds.setdefault(attr_side.name, {})
                    if op_name in (">", ">="):
                        slot.setdefault("low", (value_side, op_name == ">="))
                    else:
                        slot.setdefault("high", (value_side, op_name == "<="))
                    break

        if oid_keys:
            probe = BindOid(child, var, class_name, oid_keys[0])
            cost = child.est_cost + child.est_rows * _ROW_COST
            candidates.append((cost, child.est_rows, "oid_probe", probe))

        if catalog is not None:
            for attr, value_node in eq_seeds:
                considered.append(f"{class_name}.{attr}")
                stats = catalog.lookup(class_name, attr)
                if stats is None:
                    notes.append(f"no index on {class_name}.{attr}")
                    continue
                per_key = max(stats["entries"] / max(stats["distinct"], 1), 1.0)
                rows = child.est_rows * per_key
                cost = child.est_cost + child.est_rows * (_PROBE_COST + per_key)
                probe = BindIndexEq(child, var, class_name, attr, value_node)
                candidates.append((cost, rows, "index_eq", probe))
            for attr, slot in bounds.items():
                considered.append(f"{class_name}.{attr}")
                stats = catalog.lookup(class_name, attr)
                if stats is None or stats["kind"] != "btree":
                    notes.append(
                        f"no btree index on {class_name}.{attr} for range"
                    )
                    continue
                est = max(extent_rows * 0.3, 1.0)
                rows = child.est_rows * est
                cost = child.est_cost + child.est_rows * (_PROBE_COST + est)
                low = slot.get("low")
                high = slot.get("high")
                probe = BindIndexRange(
                    child,
                    var,
                    class_name,
                    attr,
                    low[0] if low else None,
                    high[0] if high else None,
                    low[1] if low else True,
                    high[1] if high else True,
                )
                candidates.append((cost, rows, "index_range", probe))
        elif eq_seeds or bounds:
            notes.append(f"{class_name}: no index layer attached")

        cost, rows, kind, best = min(candidates, key=lambda c: c[0])

        # Sort elision: only worth replacing a full scan — a seeded
        # candidate set is small enough that sorting it is cheap.
        if try_ordered and kind == "extent_scan" and catalog is not None:
            item = self._order_key(query)
            if item is not None:
                attr = item.expression.name  # type: ignore[union-attr]
                stats = catalog.lookup(class_name, attr)
                if stats is not None and stats["kind"] == "btree":
                    ordered = BindOrderedScan(
                        child, var, class_name, attr, item.descending
                    )
                    ordered.est_rows = scan_rows
                    ordered.est_cost = scan_cost + scan_rows * 0.2
                    notes.append(
                        f"order by {class_name}.{attr} satisfied by index"
                    )
                    self._count_path("index_ordered")
                    return ordered, True

        best.est_rows = rows
        best.est_cost = cost
        self._count_path(kind)
        return best, False

    def _tail(
        self, query: SelectQuery, source: PlanOp, order_elided: bool
    ) -> tuple[PlanOp, float]:
        """Wrap the source in display-only result-shaping operators and
        finish the cost estimate."""
        display = source
        cost = source.est_cost
        rows = source.est_rows

        def wrap(op_name: str, **extra: Any) -> None:
            nonlocal display
            display = _Describe(op_name, display, **extra)
            display.est_rows = rows
            display.est_cost = cost

        aggregate = aggregate_projection(query)
        if query.group_by:
            cost += rows * _ROW_COST
            wrap("group", keys=", ".join(g.unparse() for g in query.group_by))
        elif aggregate is not None:
            cost += rows * _ROW_COST
            wrap("aggregate", fn=aggregate.name)
        else:
            if query.order_by and not order_elided:
                cost += rows * max(math.log2(max(rows, 2.0)), 1.0) * _SORT_FACTOR
                wrap("sort", keys=", ".join(o.unparse() for o in query.order_by))
            cost += rows * _FILTER_COST
            wrap(
                "project",
                items=", ".join(p.unparse() for p in query.projection) or "*",
            )
        if query.distinct:
            wrap("distinct")
        if query.limit is not None:
            rows = min(rows, float(query.limit))
            wrap("limit", n=query.limit)
        return display, cost

    def _count_path(self, kind: str) -> None:
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter(
                "repro_planner_access_paths_total",
                {"path": kind},
                help="Access paths chosen by the planner, by kind",
            ).inc()
