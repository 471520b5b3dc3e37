"""Distributed physical plans for POOL queries over a sharded flora.

The classifier is deliberately conservative: a query is *pushed down*
(``scatter``) only when per-shard execution plus a deterministic
central merge provably reproduces the single-database answer.
Everything else routes through ``gather`` — the coordinator builds a
snapshot view holding only the records the query can reach and runs
the retained naive evaluator over it, which is correct for every
construct by definition.  The classification depends only on the
query AST and the shard map, so 1-shard and 4-shard topologies always
agree on the mode.

Why scatter-merge is exact (the pushdown proof, relied on by the
topology differential suite):

- Extents iterate in OID order and the evaluator's sort is *stable*,
  so a single-database ``order by K`` result is ordered by ``(K, oid)``.
- Each shard, given the same query, returns its rows ordered by
  ``(K, oid)`` restricted to its objects.  The union of per-shard
  ``limit n`` prefixes under ``(K, oid)`` is a superset of the global
  first ``n`` rows under ``(K, oid)``.
- The coordinator therefore concatenates shard rows, re-sorts by OID,
  recomputes the sort keys and projection exactly as the naive
  evaluator would, stable-sorts, and applies distinct/limit centrally.

Constructs excluded from scatter (routed to gather) and why:

- Traversals, ``exists``, subqueries, extra class extents: touch
  objects that may live on other shards.
- Downcast: class identity is per-schema, so a coordinator-side
  downcast over shard-born objects would silently filter everything.
- ``roles()`` / ``synonyms_of()`` and role attributes (§4.4.5): read
  relationship instances that may live on other shards.
- Aggregates other than ``count(<scalar>)``: float sums are not
  associative bytewise; per-row collection mapping changes semantics.
- ``group by`` / set operations / ``extract graph``: need the whole
  extent in one place.

What a gather ships (why the view it builds is exact):

- The class extents the query names, whole — except that when the
  first binding's class is the *only* extent named, it ships filtered
  by the top-level ``and`` conjuncts that mention only the binding
  variable and pass the same shard-safety walk scatter uses.  A row
  those conjuncts reject can never reach the result.  When one of them
  pins ``v.oid``, a live read asks only the shard the router places
  that OID on: a live object is on exactly one shard.
- The relationship classes its traversals name.  When every traversal
  has a finite ``max_depth``, no evaluation path takes more than H
  hops (H = the sum of those depths: the AST is a tree, so a path
  crosses each traversal node at most once).  H rounds of "edges
  incident to the frontier, then their endpoints" therefore give every
  object the evaluator can traverse from its complete edge set.  An
  unbounded closure ships its classes whole instead.
- Method calls, ``extract graph``, classification-scoped traversals
  and ``roles()``/``synonyms_of()``/role attributes can read any edge:
  those queries ship every relationship extent (the full union).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

from ..core.schema import Schema
from ..query.nodes import (
    AttributeAccess,
    Binary,
    Binding,
    Downcast,
    ExistsExpr,
    ExtractGraphQuery,
    FunctionCall,
    Literal,
    MethodCall,
    Node,
    OrderItem,
    Parameter,
    ProjectionItem,
    SelectQuery,
    SetOperation,
    Traversal,
    Variable,
)
from .shardmap import ShardMap

#: Context-registry functions that cannot run shard-side.
_CONTEXT_FUNCTIONS = frozenset({"roles", "synonyms_of"})


def _walk(root: Any) -> list[Node]:
    """Every AST node in the tree, pre-order, left to right (generic
    dataclass traversal)."""
    out: list[Node] = []
    stack = [root]
    while stack:
        node = stack.pop()
        if not isinstance(node, Node):
            continue
        out.append(node)
        children: list[Any] = []
        for name in node.__dataclass_fields__:  # type: ignore[attr-defined]
            value = getattr(node, name)
            if isinstance(value, (tuple, list)):
                children.extend(value)
            else:
                children.append(value)
        stack.extend(reversed(children))
    return out


@dataclass(frozen=True)
class DistributedPlan:
    """A physical plan for one query over the current shard map."""

    mode: str  # "scatter" | "scatter_count" | "gather"
    shards: tuple[str, ...]  # fan-out targets (pruned for scatter)
    #: Per-shard POOL text: the pushed scan (scatter modes), or the
    #: filter the first binding's extent ships through (gather).
    pushed_text: str | None = None
    push_order: bool = False  # ORDER BY shipped with the pushdown
    push_limit: bool = False  # LIMIT shipped with the pushdown
    pruned: bool = False  # shard set narrowed by the key predicate
    reason: str = ""  # why this mode was chosen
    #: Gather: class extents shipped whole.
    extents: tuple[str, ...] = ()
    #: Gather: relationship classes shipped hop by hop, ``hop_bound``
    #: rounds from the shipped objects.
    traversed: tuple[str, ...] = ()
    hop_bound: int | None = None
    #: Gather: the key of a pushed ``v.oid = <literal or $param>``
    #: conjunct — a live read exports the first binding from the one
    #: shard the router places that OID on.
    pin: Node | None = None

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly shape for distributed EXPLAIN output."""
        out: dict[str, Any] = {
            "mode": self.mode,
            "shards": list(self.shards),
            "pruned": self.pruned,
            "reason": self.reason,
        }
        if self.mode == "gather":
            out["extents"] = list(self.extents)
            out["traversed"] = list(self.traversed)
            out["pushed_query"] = self.pushed_text
            out["hop_bound"] = self.hop_bound
        elif self.pushed_text is not None:
            out["pushed_query"] = self.pushed_text
            out["push_order"] = self.push_order
            out["push_limit"] = self.push_limit
        return out


class DistributedPlanner:
    """Classify a parsed query into a :class:`DistributedPlan`."""

    def __init__(self, schema: Schema, shard_map: ShardMap) -> None:
        self.schema = schema
        self.map = shard_map
        #: Role attributes (§4.4.5): read through whatever relationship
        #: instances touch the object, wherever they live.
        self._roles = frozenset(
            name
            for rc in schema.relationship_classes()
            for name in rc.semantics.inherited_attributes
        )

    # -- public --------------------------------------------------------------

    def plan(self, query: Node, as_of: int | None = None) -> DistributedPlan:
        gather = self._gather_reason(query, as_of)
        if gather is not None:
            return self._gather_plan(query, gather)
        assert isinstance(query, SelectQuery)
        binding = query.bindings[0]
        shards, pruned = self._prune(query, binding)
        if self._count_pushdown(query):
            pushed = dataclasses.replace(
                query, order_by=(), limit=None
            )
            return DistributedPlan(
                mode="scatter_count",
                shards=shards,
                pushed_text=pushed.unparse(),
                pruned=pruned,
                reason="count pushdown: per-shard counts sum exactly",
            )
        push_order = bool(query.order_by) and (
            query.limit is not None and not query.distinct
        )
        push_limit = (
            query.limit is not None
            and not query.distinct
            and (push_order or not query.order_by)
        )
        pushed = dataclasses.replace(
            query,
            projection=(
                ProjectionItem(Variable(binding.variable), None),
            ),
            distinct=False,
            order_by=query.order_by if push_order else (),
            limit=query.limit if push_limit else None,
        )
        return DistributedPlan(
            mode="scatter",
            shards=shards,
            pushed_text=pushed.unparse(),
            push_order=push_order,
            push_limit=push_limit,
            pruned=pruned,
            reason="single-extent scan: merge by (key, oid) is exact",
        )

    # -- classification ------------------------------------------------------

    def _gather_reason(
        self, query: Node, as_of: int | None
    ) -> str | None:
        """Why this query must gather — or None if scatter is safe."""
        if as_of is not None:
            return "as_of: time travel reads a coordinator union snapshot"
        if isinstance(query, (SetOperation, ExtractGraphQuery)):
            return "set operation / graph extraction needs the whole extent"
        if not isinstance(query, SelectQuery):
            return f"unknown query form {type(query).__name__}"
        if query.group_by or query.having is not None:
            return "group by partitions rows across shards"
        if len(query.bindings) != 1:
            return "multi-binding product may join across shards"
        binding = query.bindings[0]
        source = binding.source
        if not isinstance(source, Variable):
            return "binding source is not a class extent"
        if not self.schema.has_class(source.name):
            # Let shard-side/naive execution produce the real error.
            return f"unknown extent {source.name!r}"
        if self.schema.get_class(source.name).is_relationship_class:
            return "relationship extents span shard boundaries"
        unsafe = self._shard_unsafe(query, binding.variable, skip=source)
        if unsafe is not None:
            return unsafe
        if self._has_non_count_aggregate(query):
            return "non-count aggregate needs a single-site fold"
        return None

    def _shard_unsafe(
        self, root: Node, variable: str, skip: Node | None = None
    ) -> str | None:
        """Why ``root`` cannot run on one shard over rows bound to
        ``variable`` — or None when it only reads that row's own
        attributes."""
        for node in _walk(root):
            if node is skip:
                continue
            if isinstance(node, (Traversal, ExistsExpr, Downcast)):
                return (
                    f"{type(node).__name__} may cross shard boundaries"
                )
            if isinstance(node, MethodCall):
                return "method calls may traverse relationships"
            if isinstance(node, SelectQuery) and node is not root:
                return "subquery may scan other shards"
            if (
                isinstance(node, FunctionCall)
                and node.name in _CONTEXT_FUNCTIONS
            ):
                return f"{node.name}() reads coordinator registries"
            if isinstance(node, AttributeAccess) and node.name in self._roles:
                return f"role attribute {node.name!r} reads relationships"
            if (
                isinstance(node, Variable)
                and node.name != variable
                and self.schema.has_class(node.name)
            ):
                return f"references extent {node.name!r}"
        return None

    # -- what a gather ships -------------------------------------------------

    def _gather_plan(self, query: Node, reason: str) -> DistributedPlan:
        nodes = _walk(query)
        named = [
            node
            for node in nodes
            if isinstance(node, Variable) and self.schema.has_class(node.name)
        ]
        extents = {node.name for node in named}
        if self._reads_any_edge(nodes):
            return DistributedPlan(
                mode="gather",
                shards=self.map.shards,
                reason=reason,
                extents=tuple(
                    sorted(
                        extents
                        | {rc.name for rc in self.schema.relationship_classes()}
                    )
                ),
            )
        traversals = [node for node in nodes if isinstance(node, Traversal)]
        traversed = {
            node.relationship
            for node in traversals
            if self.schema.has_class(node.relationship)
            and self.schema.get_class(node.relationship).is_relationship_class
        }
        hop_bound = None
        if any(node.max_depth is None for node in traversals):
            extents |= traversed
            traversed = set()
        elif traversed:
            hop_bound = sum(node.max_depth or 0 for node in traversals)
        pushed = pin = None
        if len(named) == 1 and isinstance(query, SelectQuery):
            pushed, pin = self._first_binding_filter(query, named[0])
            if pushed is not None:
                extents.discard(named[0].name)
        return DistributedPlan(
            mode="gather",
            shards=self.map.shards,
            reason=reason,
            pushed_text=pushed,
            extents=tuple(sorted(extents)),
            traversed=tuple(sorted(traversed)),
            hop_bound=hop_bound,
            pin=pin,
        )

    def _reads_any_edge(self, nodes: list[Node]) -> bool:
        """Constructs that may read relationship instances no traversal
        names: they ship the full union."""
        for node in nodes:
            if isinstance(node, (MethodCall, ExtractGraphQuery)):
                return True
            if isinstance(node, Traversal) and node.scope is not None:
                return True
            if (
                isinstance(node, FunctionCall)
                and node.name in _CONTEXT_FUNCTIONS
            ):
                return True
            if isinstance(node, AttributeAccess) and node.name in self._roles:
                return True
        return False

    def _first_binding_filter(
        self, query: SelectQuery, extent: Variable
    ) -> tuple[str | None, Node | None]:
        """Per-shard POOL text selecting the first binding's rows that
        can reach the result (None when nothing narrows them), and the
        key of a ``v.oid = <literal or $param>`` conjunct among them."""
        if not query.bindings or query.bindings[0].source is not extent:
            return None, None
        if self.schema.get_class(extent.name).is_relationship_class:
            return None, None
        variable = query.bindings[0].variable
        kept = [
            conjunct
            for conjunct in self._conjuncts(query.where)
            if self._shard_unsafe(conjunct, variable) is None
            and all(
                node.name == variable
                for node in _walk(conjunct)
                if isinstance(node, Variable)
            )
        ]
        if not kept:
            return None, None
        where = kept[0]
        for conjunct in kept[1:]:
            where = Binary("and", where, conjunct)
        pinned = AttributeAccess(Variable(variable), "oid")
        pins = [
            value
            for c in kept if isinstance(c, Binary) and c.op == "="
            for side, value in ((c.left, c.right), (c.right, c.left))
            if side == pinned and isinstance(value, (Literal, Parameter))
        ]
        text = SelectQuery(
            projection=(ProjectionItem(Variable(variable), None),),
            bindings=(query.bindings[0],),
            where=where,
        ).unparse()
        return text, (pins[0] if pins else None)

    def _has_non_count_aggregate(self, query: SelectQuery) -> bool:
        aggregate = self._aggregate_call(query)
        if aggregate is None:
            return False
        return not self._count_pushdown(query)

    @staticmethod
    def _aggregate_call(query: SelectQuery) -> FunctionCall | None:
        """Mirror the evaluator's aggregate-projection detection."""
        if len(query.projection) != 1:
            return None
        item = query.projection[0]
        if item.alias is not None:
            return None
        expr = item.expression
        if not isinstance(expr, FunctionCall):
            return None
        if expr.name not in ("count", "size", "sum", "avg", "min", "max"):
            return None
        if len(expr.args) != 1:
            return None
        return expr

    def _count_pushdown(self, query: SelectQuery) -> bool:
        """``count(x)`` over the binding variable: per-shard sum is exact.

        Restricted to a bare-variable argument so the evaluator's
        per-row collection mapping (triggered when every value is a
        list) can never engage.
        """
        if query.distinct or query.order_by or query.limit is not None:
            return False
        call = self._aggregate_call(query)
        if call is None or call.name not in ("count", "size"):
            return False
        arg = call.args[0]
        return (
            isinstance(arg, Variable)
            and arg.name == query.bindings[0].variable
        )

    # -- pruning -------------------------------------------------------------

    def _prune(
        self, query: SelectQuery, binding: Binding
    ) -> tuple[tuple[str, ...], bool]:
        """Narrow the fan-out using key-attribute predicates.

        Mirrors the evaluator's index matcher: only top-level AND-chain
        conjuncts are considered, so pruning can never drop a row that
        an OR branch might admit.
        """
        candidates: set[str] | None = None
        for conjunct in self._conjuncts(query.where):
            shards = self._conjunct_shards(conjunct, binding.variable)
            if shards is None:
                continue
            candidates = (
                set(shards)
                if candidates is None
                else candidates & set(shards)
            )
        if candidates is None:
            return self.map.shards, False
        kept = tuple(s for s in self.map.shards if s in candidates)
        return kept, len(kept) < len(self.map.shards)

    @staticmethod
    def _conjuncts(where: Node | None):
        """Top-level AND-chain conjuncts, left to right."""
        stack = [where] if where is not None else []
        while stack:
            node = stack.pop()
            if isinstance(node, Binary) and node.op == "and":
                stack.append(node.right)
                stack.append(node.left)
            elif node is not None:
                yield node

    def _conjunct_shards(
        self, node: Node, variable: str
    ) -> tuple[str, ...] | None:
        if not isinstance(node, Binary):
            return None
        sides = [(node.left, node.right), (node.right, node.left)]
        if node.op == "=":
            for attr_side, value_side in sides:
                if self._is_key_attr(attr_side, variable) and isinstance(
                    value_side, Literal
                ):
                    return self.map.shards_for_equality(value_side.value)
        elif node.op == "like":
            if self._is_key_attr(node.left, variable) and isinstance(
                node.right, Literal
            ):
                prefix = self._like_prefix(node.right.value)
                if prefix:
                    return self.map.shards_for_prefix(prefix)
        return None

    def _is_key_attr(self, node: Node, variable: str) -> bool:
        return (
            isinstance(node, AttributeAccess)
            and node.name == self.map.key_attr
            and isinstance(node.target, Variable)
            and node.target.name == variable
        )

    @staticmethod
    def _like_prefix(pattern: object) -> str | None:
        """Literal prefix of a LIKE pattern shaped ``prefix%``."""
        if not isinstance(pattern, str) or "_" in pattern:
            return None
        if not pattern.endswith("%"):
            return None
        prefix = pattern[:-1]
        if "%" in prefix or not prefix:
            return None
        return prefix
