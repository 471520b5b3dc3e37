"""POOL evaluator: executes a parsed query against a schema.

Semantics highlights (thesis §5.1):

* **uniform treatment of relationships and objects** — relationship
  classes are extents like any other; ``r.origin`` / ``r.destination``
  navigate an edge's endpoints; object attributes and edge attributes
  read identically;
* **traversal** — ``x->Rel`` yields the destination objects of Rel edges
  leaving ``x``; ``x<-Rel`` the origins of edges arriving at ``x``;
  closures ``*``, ``+`` and ``{m,n}`` walk transitively with depth
  control; ``->Rel["name"]`` restricts edges to one classification;
* **selective downcast** — ``(Species) x`` filters a value or collection
  to instances of a class;
* **object conservation** (§5.1.2.2) — queries return the objects
  themselves, never copies, so results can be fed to further operations;
* **select-only** (§5.1.2.1) — evaluation never mutates the database.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator

from ..classification import ClassificationManager, GraphView
from ..core.instances import PObject
from ..core.relationships import RelationshipInstance
from ..core.schema import Schema
from ..errors import AttributeUnknownError, EvaluationError
from ..telemetry import DISABLED, Telemetry
from .functions import FUNCTIONS, call_value_method
from .nodes import (
    AttributeAccess,
    Binary,
    Downcast,
    ExistsExpr,
    ExtractGraphQuery,
    FunctionCall,
    Literal,
    MethodCall,
    Node,
    Parameter,
    QueryPlanInfo,
    SelectQuery,
    SetOperation,
    Traversal,
    Unary,
    Variable,
)
from .parser import parse
from .plans import _Run as _PlanRun

if TYPE_CHECKING:  # pragma: no cover
    pass

#: Optional fast path: (class_name, attribute, value) -> objects or None.
IndexProbe = Callable[[str, str, Any], "list[PObject] | None"]


@dataclass
class QueryContext:
    """Everything a query evaluation needs besides the AST."""

    schema: Schema
    classifications: ClassificationManager | None = None
    params: dict[str, Any] = field(default_factory=dict)
    index_probe: IndexProbe | None = None
    plan: QueryPlanInfo = field(default_factory=QueryPlanInfo)
    telemetry: Telemetry = DISABLED
    #: Cost-based planner (repro.query.planner.Planner); None selects
    #: the naive AST interpreter — the differential-testing reference.
    planner: Any = None
    #: Per-query adjacency memo (repro.query.plans.AdjacencyCache);
    #: populated by the database layer alongside the planner.
    adjacency: Any = None
    #: Snapshot LSN for time-travel evaluation; ``schema`` is then a
    #: read-only SnapshotSchema and plan-cache keys must include it so
    #: an as_of query never reuses a plan compiled against live stats.
    as_of: int | None = None


class Evaluator:
    """Evaluates POOL ASTs within a :class:`QueryContext`."""

    def __init__(self, context: QueryContext) -> None:
        self.context = context
        # Resolved once so every hot-path hook is one load + one branch;
        # None when telemetry is off, the live tracer when on.
        tel = context.telemetry
        self._tracer = tel.tracer if tel.enabled else None

    # ------------------------------------------------------------------
    # public entry points
    # ------------------------------------------------------------------

    def run(self, query: "SelectQuery | ExtractGraphQuery | SetOperation") -> Any:
        if isinstance(query, SelectQuery):
            return self._run_select(query, {})
        if isinstance(query, ExtractGraphQuery):
            return self._run_extract(query, {})
        if isinstance(query, SetOperation):
            return self._run_setop(query, {})
        raise EvaluationError(f"not a query: {query!r}")

    def _run_setop(
        self, query: "SetOperation", env: dict[str, Any]
    ) -> list[Any]:
        """OQL set operators with identity semantics on objects."""
        def results(side: Any) -> list[Any]:
            if isinstance(side, SetOperation):
                return self._run_setop(side, env)
            return self._run_select(side, env)

        left = results(query.left)
        right = results(query.right)
        right_keys = {_result_key(item) for item in right}
        if query.op == "union":
            out = list(left)
            seen = {_result_key(item) for item in left}
            for item in right:
                key = _result_key(item)
                if key not in seen:
                    seen.add(key)
                    out.append(item)
            return out
        if query.op == "intersect":
            return _distinct(
                [item for item in left if _result_key(item) in right_keys]
            )
        if query.op == "except":
            return _distinct(
                [item for item in left if _result_key(item) not in right_keys]
            )
        raise EvaluationError(f"unknown set operator {query.op!r}")

    def evaluate(self, node: Node, env: dict[str, Any] | None = None) -> Any:
        return self._eval(node, env or {})

    # ------------------------------------------------------------------
    # SELECT
    # ------------------------------------------------------------------

    #: Aggregates that, projected alone over a query, fold all rows.
    _AGGREGATES = ("count", "size", "sum", "avg", "min", "max")

    def _run_select(
        self, query: SelectQuery, outer_env: dict[str, Any]
    ) -> list[Any]:
        planner = self.context.planner
        if planner is not None:
            planned = planner.plan_select(query, as_of=self.context.as_of)
            if planned is not None:
                return self._run_planned(planned, outer_env)
        return self._run_select_naive(query, outer_env)

    def _run_planned(
        self, planned: tuple[Any, dict[str, Any], str], outer_env: dict[str, Any]
    ) -> list[Any]:
        """Execute a compiled plan (see :mod:`repro.query.planner`).

        The plan is cached and literal-free; its literals travel in
        ``literals`` and are overlaid on the query parameters for the
        duration of this execution (save/restore, so nested planned
        subqueries compose).
        """
        plan, literals, cache_status = planned
        ctx = self.context
        info = ctx.plan
        info.cache = cache_status
        saved = ctx.params
        if literals:
            ctx.params = {**saved, **literals}
        try:
            query = plan.query
            if query.group_by:
                plan.annotate(self)
                run = _PlanRun()
                result = self._run_grouped(
                    query, plan.stream(self, dict(outer_env), run)
                )
                plan.finish_stream(self, run)
                return result
            aggregate = self._aggregate_projection(query)
            if aggregate is not None:
                plan.annotate(self)
                run = _PlanRun()
                result = self._run_aggregate(
                    query, aggregate, plan.stream(self, dict(outer_env), run)
                )
                plan.finish_stream(self, run)
                return result if isinstance(result, list) else [result]
            tracer = self._tracer
            span = (
                tracer.span("pool.select", clause=query.unparse()[:120])
                if tracer is not None
                else None
            )
            if span is not None:
                span.__enter__()
            try:
                return plan.execute(self, dict(outer_env))
            finally:
                if span is not None:
                    span.set("rows_examined", info.rows_examined)
                    span.set("rows_matched", info.rows_matched)
                    span.__exit__(None, None, None)
        finally:
            ctx.params = saved

    def _run_select_naive(
        self, query: SelectQuery, outer_env: dict[str, Any]
    ) -> list[Any]:
        if query.group_by:
            return self._run_grouped(query, self._naive_rows(query, outer_env))
        aggregate = self._aggregate_projection(query)
        if aggregate is not None:
            result = self._run_aggregate(
                query, aggregate, self._naive_rows(query, outer_env)
            )
            return result if isinstance(result, list) else [result]
        tracer = self._tracer
        span = (
            tracer.span("pool.select", clause=query.unparse()[:120])
            if tracer is not None
            else None
        )
        if span is not None:
            span.__enter__()
        plan = self.context.plan
        try:
            return self.fold(query, self._naive_rows(query, outer_env))
        finally:
            if span is not None:
                span.set("rows_examined", plan.rows_examined)
                span.set("rows_matched", plan.rows_matched)
                span.__exit__(None, None, None)

    def fold(
        self, query: SelectQuery, envs: Iterable[dict[str, Any]]
    ) -> list[Any]:
        """A select's result from its post-WHERE binding environments,
        in binding order: ORDER BY keys and projection per row, stable
        sort, DISTINCT, LIMIT.  The naive select, a planned select that
        must sort, and the coordinator's scatter merge share it."""
        kept: list[tuple[tuple[Any, ...], Any]] = []
        for env in envs:
            # ORDER BY keys are computed against the binding environment,
            # before projection, so they may use any bound variable.
            keys = tuple(
                _sort_key(self._eval(item.expression, env), item.descending)
                for item in query.order_by
            )
            kept.append((keys, self._project(query, env)))
        return _fold_tail(query, kept)

    def _naive_rows(
        self, query: SelectQuery, outer_env: dict[str, Any]
    ) -> Iterator[dict[str, Any]]:
        """Post-WHERE binding environments, naive interpretation."""
        plan = self.context.plan
        for env in self._bind_rows(query, outer_env):
            plan.rows_examined += 1
            if query.where is not None and not _truthy(
                self._eval(query.where, env)
            ):
                continue
            plan.rows_matched += 1
            yield env

    def _run_grouped(
        self, query: SelectQuery, rows_in: Iterator[dict[str, Any]]
    ) -> list[Any]:
        """GROUP BY evaluation (OQL-flavoured subset).

        Rows surviving the WHERE clause are partitioned by the group-key
        expressions.  In the projection, HAVING and ORDER BY clauses,
        top-level aggregate calls fold over each group's rows; any other
        expression is evaluated against a representative row (so it
        should be functionally dependent on the group keys).
        """
        if not query.projection:
            raise EvaluationError("group by requires an explicit projection")
        groups: dict[tuple[Any, ...], list[dict[str, Any]]] = {}
        order: list[tuple[Any, ...]] = []
        for env in rows_in:
            key = tuple(
                _result_key(self._eval(expr, env)) for expr in query.group_by
            )
            if key not in groups:
                groups[key] = []
                order.append(key)
            groups[key].append(env)
        kept: list[tuple[tuple[Any, ...], Any]] = []
        for key in order:
            rows = groups[key]
            if query.having is not None and not _truthy(
                self._eval_grouped(query.having, rows)
            ):
                continue
            alias_values: dict[str, Any] = {}
            if len(query.projection) == 1 and query.projection[0].alias is None:
                projected: Any = self._eval_grouped(
                    query.projection[0].expression, rows
                )
            else:
                projected = {}
                for index, item in enumerate(query.projection):
                    label = item.alias or f"col{index}"
                    projected[label] = self._eval_grouped(item.expression, rows)
                alias_values = projected
            # ORDER BY may name projection aliases or group expressions.
            sort_keys = tuple(
                _sort_key(
                    alias_values[item.expression.name]
                    if isinstance(item.expression, Variable)
                    and item.expression.name in alias_values
                    else self._eval_grouped(item.expression, rows),
                    item.descending,
                )
                for item in query.order_by
            )
            kept.append((sort_keys, projected))
        return _fold_tail(query, kept)

    def _eval_grouped(
        self, expr: Node, rows: list[dict[str, Any]]
    ) -> Any:
        """Evaluate one expression over a group of rows.

        Aggregate calls anywhere in the expression fold the per-row
        values of their argument (``having count(t) > 5``,
        ``max(n.year) - min(n.year)``); non-aggregate subexpressions use
        the group's first row.
        """
        if not rows:
            return None
        if (
            isinstance(expr, FunctionCall)
            and expr.name in self._AGGREGATES
            and len(expr.args) == 1
        ):
            values = [self._eval(expr.args[0], env) for env in rows]
            return FUNCTIONS[expr.name](values)
        if isinstance(expr, Binary):
            if expr.op == "and":
                return _truthy(self._eval_grouped(expr.left, rows)) and _truthy(
                    self._eval_grouped(expr.right, rows)
                )
            if expr.op == "or":
                return _truthy(self._eval_grouped(expr.left, rows)) or _truthy(
                    self._eval_grouped(expr.right, rows)
                )
            return _apply_binary(
                expr.op,
                self._eval_grouped(expr.left, rows),
                self._eval_grouped(expr.right, rows),
            )
        if isinstance(expr, Unary):
            value = self._eval_grouped(expr.operand, rows)
            return not _truthy(value) if expr.op == "not" else _negate(value)
        return self._eval(expr, rows[0])

    def _aggregate_projection(self, query: SelectQuery) -> FunctionCall | None:
        """Detect ``select count(expr) from ...``-style aggregation.

        A single, unaliased projection that is a call to an aggregate
        function folds the whole result set (OQL semantics) rather than
        mapping per row.
        """
        if len(query.projection) != 1 or query.projection[0].alias is not None:
            return None
        expr = query.projection[0].expression
        if isinstance(expr, FunctionCall) and expr.name in self._AGGREGATES:
            if len(expr.args) == 1:
                return expr
        return None

    def _run_aggregate(
        self,
        query: SelectQuery,
        aggregate: FunctionCall,
        rows_in: Iterator[dict[str, Any]],
    ) -> Any:
        """Aggregate projection semantics.

        ``select count(x) ...`` / ``select min(x.year) ...`` fold all
        rows to one value (OQL).  When the argument evaluates to a
        *collection* per row (``count(t->Includes)``), the aggregate maps
        per row instead — the per-node fan-out question.
        """
        values: list[Any] = []
        for env in rows_in:
            values.append(self._eval(aggregate.args[0], env))
        if query.distinct:
            values = _distinct(values)
        fn = FUNCTIONS[aggregate.name]
        if values and all(isinstance(v, (list, tuple)) for v in values):
            return [fn(v) for v in values]
        return fn(values)

    def _bind_rows(
        self, query: SelectQuery, outer_env: dict[str, Any]
    ) -> Iterator[dict[str, Any]]:
        """Generate variable environments from the FROM clause.

        Bindings may reference earlier binding variables, so the product
        is built left-to-right, re-evaluating dependent sources per row.
        """
        def expand(
            index: int, env: dict[str, Any]
        ) -> Iterator[dict[str, Any]]:
            if index == len(query.bindings):
                yield env
                return
            binding = query.bindings[index]
            source = self._eval_source(binding.source, env)
            for value in source:
                child = dict(env)
                child[binding.variable] = value
                yield from expand(index + 1, child)

        yield from expand(0, dict(outer_env))

    def _eval_source(self, source: Node, env: dict[str, Any]) -> list[Any]:
        # The naive interpreter only ever scans: index access paths are
        # the planner's business (repro.query.plans).
        if isinstance(source, Variable) and source.name not in env:
            if self.context.schema.has_class(source.name):
                plan = self.context.plan
                plan.extent_scans += 1
                plan.access_paths.append(f"scan:{source.name}")
                return list(self.context.schema.extent(source.name))
        value = self._eval(source, env)
        if value is None:
            return []
        if isinstance(value, (list, tuple, set, frozenset)):
            return list(value)
        return [value]

    def _project(self, query: SelectQuery, env: dict[str, Any]) -> Any:
        if not query.projection:
            # '*': the whole binding environment (single var → the object).
            if len(query.bindings) == 1:
                return env[query.bindings[0].variable]
            return {b.variable: env[b.variable] for b in query.bindings}
        if len(query.projection) == 1 and query.projection[0].alias is None:
            return self._eval(query.projection[0].expression, env)
        row: dict[str, Any] = {}
        for index, item in enumerate(query.projection):
            key = item.alias or f"col{index}"
            row[key] = self._eval(item.expression, env)
        return row

    # ------------------------------------------------------------------
    # EXTRACT GRAPH
    # ------------------------------------------------------------------

    def _run_extract(
        self, query: ExtractGraphQuery, env: dict[str, Any]
    ) -> GraphView:
        start = self._eval(query.start, env)
        starts: list[PObject] = []
        for value in start if isinstance(start, list) else [start]:
            if not isinstance(value, PObject):
                raise EvaluationError(
                    "extract graph: start must evaluate to object(s)"
                )
            starts.append(value)
        view = GraphView(name=f"extract via {query.relationship}")
        schema = self.context.schema
        edges_allowed: set[int] | None = None
        if query.classification is not None:
            manager = self._manager()
            classification = manager.get(query.classification)
            edges_allowed = {e.oid for e in classification.edges()}
            view.name += f" in {query.classification!r}"
        seen_edges: set[int] = set()
        frontier = [(obj, 0) for obj in starts]
        seen_nodes = {obj.oid for obj in starts}
        adjacency = self.context.adjacency
        for obj in starts:
            view.nodes[obj.oid] = {"class": obj.pclass.name, **obj.to_dict()}
        while frontier:
            obj, depth = frontier.pop()
            if query.depth is not None and depth >= query.depth:
                continue
            outgoing = (
                adjacency.edges(obj.oid, query.relationship, False)
                if adjacency is not None
                else schema.relationships.outgoing(obj.oid, query.relationship)
            )
            for edge in outgoing:
                if edges_allowed is not None and edge.oid not in edges_allowed:
                    continue
                if edge.oid in seen_edges:
                    continue
                seen_edges.add(edge.oid)
                dest_oid = edge.destination_oid
                if schema.has_object(dest_oid) and dest_oid not in view.nodes:
                    dest = schema.get_object(dest_oid)
                    view.nodes[dest_oid] = {
                        "class": dest.pclass.name,
                        **dest.to_dict(),
                    }
                view.edges.append(
                    (edge.origin_oid, dest_oid, edge.pclass.name, edge.to_dict())
                )
                if dest_oid not in seen_nodes and schema.has_object(dest_oid):
                    seen_nodes.add(dest_oid)
                    frontier.append((schema.get_object(dest_oid), depth + 1))
        return view

    def _manager(self) -> ClassificationManager:
        if self.context.classifications is None:
            raise EvaluationError(
                "query uses classification scope but no ClassificationManager "
                "was provided"
            )
        return self.context.classifications

    # ------------------------------------------------------------------
    # expressions
    # ------------------------------------------------------------------

    def _eval(self, node: Node, env: dict[str, Any]) -> Any:
        # Node classes are leaves, so an exact type test stands in for
        # isinstance; the kinds a WHERE clause is made of come first.
        kind = type(node)
        if kind is Binary:
            return self._binary(node, env)
        if kind is AttributeAccess:
            return self._attribute(self._eval(node.target, env), node.name)
        if kind is Variable:
            if node.name in env:
                return env[node.name]
            if self.context.schema.has_class(node.name):
                self.context.plan.extent_scans += 1
                return list(self.context.schema.extent(node.name))
            raise EvaluationError(f"unbound variable {node.name!r}")
        if kind is Literal:
            return node.value
        if kind is Parameter:
            try:
                return self.context.params[node.name]
            except KeyError:
                raise EvaluationError(
                    f"missing query parameter ${node.name}"
                ) from None
        if kind is MethodCall:
            target = self._eval(node.target, env)
            args = tuple(self._eval(a, env) for a in node.args)
            return self._method(target, node.name, args)
        if kind is FunctionCall:
            args = tuple(self._eval(a, env) for a in node.args)
            return self._function(node.name, args)
        if kind is Traversal:
            return self._traverse(node, env)
        if kind is Downcast:
            return self._downcast(node.class_name, self._eval(node.target, env))
        if kind is Unary:
            value = self._eval(node.operand, env)
            return not _truthy(value) if node.op == "not" else _negate(value)
        if kind is SelectQuery:
            return self._run_select(node, env)
        if kind is ExistsExpr:
            return len(self._run_select(node.subquery, env)) > 0
        raise EvaluationError(f"cannot evaluate node {kind.__name__}")

    def _attribute(self, target: Any, name: str) -> Any:
        if target is None:
            return None
        if isinstance(target, PObject):
            if isinstance(target, RelationshipInstance):
                if name == "origin":
                    return target.origin_object()
                if name == "destination":
                    return target.destination_object()
                if name in target.relationship_class.participant_roles:
                    return target.participant(name)
            if name == "oid":
                return target.oid
            try:
                return target.get(name)
            except AttributeUnknownError:
                # Null semantics for polymorphic navigation: a member of a
                # mixed collection that lacks the attribute yields null
                # (static typos are the type checker's job, §5.1.2.4).
                return None
        if isinstance(target, (list, tuple, set, frozenset)):
            return [self._attribute(item, name) for item in target]
        if isinstance(target, dict):
            if name in target:
                return target[name]
            raise EvaluationError(f"row has no column {name!r}")
        if isinstance(target, GraphView):
            if name == "nodes":
                return list(target.nodes)
            if name == "edges":
                return target.edges
            if name == "name":
                return target.name
        raise EvaluationError(
            f"cannot read attribute {name!r} of {type(target).__name__}"
        )

    def _method(self, target: Any, name: str, args: tuple[Any, ...]) -> Any:
        if target is None:
            return None
        if isinstance(target, PObject) and target.pclass.has_method(name):
            return target.call(name, *args)
        return call_value_method(target, name, args)

    def _function(self, name: str, args: tuple[Any, ...]) -> Any:
        if name == "roles":
            obj = args[0] if args else None
            if not isinstance(obj, PObject):
                raise EvaluationError("roles(): argument must be an object")
            return self.context.schema.relationships.roles_of(obj)
        if name == "synonyms_of":
            obj = args[0] if args else None
            if not isinstance(obj, PObject):
                raise EvaluationError("synonyms_of(): argument must be an object")
            schema = self.context.schema
            return [
                schema.get_object(oid)
                for oid in sorted(schema.synonyms.synonyms_of(obj.oid))
                if schema.has_object(oid)
            ]
        try:
            fn = FUNCTIONS[name]
        except KeyError:
            raise EvaluationError(f"unknown function {name!r}") from None
        return fn(*args)

    def _traverse(self, node: Traversal, env: dict[str, Any]) -> list[PObject]:
        value = self._eval(node.target, env)
        starts: list[PObject] = []
        for item in value if isinstance(value, (list, tuple)) else [value]:
            if item is None:
                continue
            if not isinstance(item, PObject):
                raise EvaluationError(
                    f"traversal ->{node.relationship} on non-object "
                    f"{type(item).__name__}"
                )
            starts.append(item)
        schema = self.context.schema
        if not schema.has_class(node.relationship):
            raise EvaluationError(
                f"unknown relationship class {node.relationship!r}"
            )
        allowed: set[int] | None = None
        if node.scope is not None:
            classification = self._manager().get(node.scope)
            allowed = classification._edge_oids

        adjacency = self.context.adjacency

        def neighbours(obj: PObject) -> list[PObject]:
            if adjacency is not None:
                edges = adjacency.edges(obj.oid, node.relationship, node.inverse)
            elif node.inverse:
                edges = schema.relationships.incoming(obj.oid, node.relationship)
            else:
                edges = schema.relationships.outgoing(obj.oid, node.relationship)
            out = []
            for edge in edges:
                if allowed is not None and edge.oid not in allowed:
                    continue
                other = edge.other_end(obj.oid)
                if schema.has_object(other):
                    out.append(schema.get_object(other))
            return out

        result: list[PObject] = []
        result_oids: set[int] = set()
        max_depth = node.max_depth
        plan = self.context.plan
        tracer = self._tracer
        span = (
            tracer.span(
                "pool.traverse",
                relationship=node.relationship,
                inverse=node.inverse,
            )
            if tracer is not None
            else None
        )
        if span is not None:
            span.__enter__()

        def collect(obj: PObject) -> None:
            if obj.oid not in result_oids:
                result_oids.add(obj.oid)
                result.append(obj)

        deepest = 0
        visited_total = 0
        for start in starts:
            if node.min_depth == 0:
                collect(start)
            frontier = [start]
            visited = {start.oid}
            depth = 0
            while frontier and (max_depth is None or depth < max_depth):
                depth += 1
                next_frontier: list[PObject] = []
                for obj in frontier:
                    for nb in neighbours(obj):
                        if nb.oid in visited:
                            continue
                        visited.add(nb.oid)
                        next_frontier.append(nb)
                        if depth >= node.min_depth:
                            collect(nb)
                if next_frontier and depth > deepest:
                    deepest = depth
                frontier = next_frontier
            visited_total += len(visited)
        if deepest > plan.traversal_max_depth:
            plan.traversal_max_depth = deepest
        plan.traversal_nodes_visited += visited_total
        if span is not None:
            span.set("depth_reached", deepest)
            span.set("nodes_visited", visited_total)
            span.set("results", len(result))
            span.__exit__(None, None, None)
        return result

    def _downcast(self, class_name: str, value: Any) -> Any:
        schema = self.context.schema
        target_class = schema.get_class(class_name)

        def keep(item: Any) -> bool:
            return isinstance(item, PObject) and item.pclass.is_subclass_of(
                target_class
            )

        if isinstance(value, (list, tuple)):
            return [item for item in value if keep(item)]
        return value if keep(value) else None

    def _binary(self, node: Binary, env: dict[str, Any]) -> Any:
        op = node.op
        if op == "and":
            left = self._eval(node.left, env)
            if not _truthy(left):
                return False
            return _truthy(self._eval(node.right, env))
        if op == "or":
            left = self._eval(node.left, env)
            if _truthy(left):
                return True
            return _truthy(self._eval(node.right, env))
        left = self._eval(node.left, env)
        right = self._eval(node.right, env)
        return _apply_binary(op, left, right)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def _sort_key(value: Any, descending: bool) -> Any:
    """ORDER BY key of one value, ranked once per row.

    The rank ``(category, value)`` totally orders mixed types — None <
    bool < number < str < PObject (by oid) < anything else (by repr) —
    and compares as a plain tuple, in C.  A descending key wraps the
    rank in :class:`_Descending`.
    """
    if value is None:
        rank: tuple[int, Any] = (0, 0)
    elif isinstance(value, bool):
        rank = (1, value)
    elif isinstance(value, (int, float)):
        rank = (2, value)
    elif isinstance(value, str):
        rank = (3, value)
    elif isinstance(value, PObject):
        rank = (4, value.oid)
    else:
        rank = (5, repr(value))
    return _Descending(rank) if descending else rank


class _Descending:
    """A rank with its order reversed; equality is the rank's own."""

    __slots__ = ("rank",)

    def __init__(self, rank: tuple[int, Any]) -> None:
        self.rank = rank

    def __lt__(self, other: "_Descending") -> bool:
        return other.rank < self.rank

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Descending) and self.rank == other.rank


def _negate(value: Any) -> Any:
    """Unary minus; a value with no negative is a typed refusal."""
    try:
        return None if value is None else -value
    except TypeError:
        raise EvaluationError(
            f"cannot apply unary '-' to {type(value).__name__}"
        ) from None


def _apply_binary(op: str, left: Any, right: Any) -> Any:
    """Value-level binary operator semantics (no short-circuit ops).

    Operands that do not order or combine (``3 < "x"``) are a typed
    refusal: :class:`EvaluationError`, never a bare ``TypeError``.
    """
    try:
        if op == "in":
            if right is None:
                return False
            if isinstance(right, str):
                return isinstance(left, str) and left in right
            return left in list(right)
        if op == "like":
            return _like(left, right)
        if op in ("=", "!="):
            equal = _equal(left, right)
            return equal if op == "=" else not equal
        if left is None or right is None:
            return None
        if op == "<":
            return left < right
        if op == "<=":
            return left <= right
        if op == ">":
            return left > right
        if op == ">=":
            return left >= right
        if op == "+":
            return left + right
        if op == "-":
            return left - right
        if op == "*":
            return left * right
        if op == "/":
            if right == 0:
                raise EvaluationError("division by zero")
            return left / right
        if op == "%":
            if right == 0:
                raise EvaluationError("modulo by zero")
            return left % right
    except TypeError:
        raise EvaluationError(
            f"cannot apply {op!r} to {type(left).__name__} "
            f"and {type(right).__name__}"
        ) from None
    raise EvaluationError(f"unknown operator {op!r}")


def _truthy(value: Any) -> bool:
    if value is True or value is False:
        return value
    if value is None:
        return False
    if isinstance(value, (list, tuple, set, frozenset, dict, str)):
        return len(value) > 0
    return bool(value)


def _equal(left: Any, right: Any) -> bool:
    if isinstance(left, PObject) and isinstance(right, PObject):
        return left.oid == right.oid
    return left == right


def _like(value: Any, pattern: Any) -> bool:
    """SQL-style LIKE: ``%`` any run, ``_`` one char."""
    if not isinstance(value, str) or not isinstance(pattern, str):
        return False
    import re

    regex = "^"
    for ch in pattern:
        if ch == "%":
            regex += ".*"
        elif ch == "_":
            regex += "."
        else:
            regex += re.escape(ch)
    regex += "$"
    return re.match(regex, value) is not None


def _result_key(value: Any) -> Any:
    """Hashable identity key: OID for objects, value for scalars."""
    if isinstance(value, PObject):
        return ("obj", value.oid)
    try:
        hash(value)
        return value
    except TypeError:
        return repr(value)


def _fold_tail(
    query: SelectQuery, kept: list[tuple[tuple[Any, ...], Any]]
) -> list[Any]:
    """A select's ``(sort keys, projected)`` rows → its result: stable
    sort on the keys, DISTINCT, LIMIT."""
    if query.order_by:
        kept.sort(key=lambda pair: pair[0])
    results = [value for _, value in kept]
    if query.distinct:
        results = _distinct(results)
    if query.limit is not None:
        results = results[: query.limit]
    return results


def _distinct(values: list[Any]) -> list[Any]:
    out: list[Any] = []
    seen: set[Any] = set()
    for value in values:
        key = _result_key(value)
        if key in seen:
            continue
        seen.add(key)
        out.append(value)
    return out


def execute(
    schema: Schema,
    text: str,
    classifications: ClassificationManager | None = None,
    params: dict[str, Any] | None = None,
    telemetry: Telemetry | None = None,
) -> Any:
    """Parse and evaluate POOL ``text`` against ``schema``.

    Returns a list of results for SELECT queries, a
    :class:`~repro.classification.GraphView` for EXTRACT GRAPH queries.

    This entry point always uses the *naive*, scan-only AST interpreter
    — it is the reference implementation the differential query-fuzzing
    harness checks the cost-based planner against, and what a query the
    planner cannot compile falls back to.  Planned execution is wired
    up by :class:`~repro.engine.database.PrometheusDB`.
    """
    context = QueryContext(
        schema=schema,
        classifications=classifications,
        params=params or {},
        telemetry=telemetry if telemetry is not None else DISABLED,
    )
    return Evaluator(context).run(parse(text))
