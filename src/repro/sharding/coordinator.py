"""Coordinator-side execution of distributed POOL plans.

The coordinator owns the global OID allocator (placement must not
change object identity: the same logical database built on a 1-shard
and a 4-shard topology assigns identical OIDs, which is what lets the
topology differential suite demand byte-identical responses), the
OID → shard router, the shard map, and a :class:`~repro.engine.
federation.Federation` whose nodes are the shards — every shard call
goes through federation's circuit breakers, on the caller's thread
(shards are in-process, so threads would overlap nothing).

Every mutation is one :class:`~repro.core.ops.Op` through one applier,
:meth:`ShardedDatabase._apply_op`, so both topologies and both write
paths take the *same* code path: creates go through the owning shard's
normal ``schema.create`` (events, rules, MVCC ingestion all fire),
while relationship instances are always installed through
:meth:`LocalShardClient.install_edge` — even when both endpoints are
co-located — because a cross-shard edge cannot run endpoint liveness or
cardinality validation and the two topologies must not diverge on
validation side effects.  Sets, deletes and unrelates run
:meth:`Op.apply` on the owner shard; a delete whose cascade would cross
shards is refused.  Each op is atomic on the one shard it lands on; a
route is assigned only once its op is in and dropped with the object,
so the router is the liveness check a relate's endpoints pass.

Writes to the shard-key attribute relocate the object (and its
outgoing edges) to the shard the map now assigns, keeping the pruning
invariant: a predicate that pins a key range only needs the shards
whose ranges intersect it.  :meth:`ShardedDatabase.move_object` is the
one mover, for relocations and rebalances alike: the stored records
leave one shard and enter the other, with no event on either.

A :class:`ShardedSession` runs the same applier inside every shard's
undo journal, so a refused op takes the whole session back out.
"""

from __future__ import annotations

import json
from contextlib import ExitStack
from functools import partial
from operator import attrgetter
from typing import Any, Callable

from ..core.identity import OidAllocator
from ..core.instances import PObject
from ..core.ops import Op
from ..core.relationships import RelationshipInstance
from ..core.schema import Schema
from ..engine.database import PrometheusDB
from ..engine.federation import Federation
from ..errors import PrometheusError, SnapshotError, UnknownOidError
from ..mvcc.view import SnapshotSchema
from ..query import parse, typecheck
from ..query.evaluator import Evaluator, QueryContext
from ..query.nodes import Literal, Parameter, QueryPlanInfo, SelectQuery
from ..telemetry import DISABLED, Telemetry
from .planner import DistributedPlan, DistributedPlanner
from .router import OidRouter
from .shardmap import ShardMap


class ShardingError(PrometheusError):
    """Coordinator-level sharding failure (routing, topology)."""


class ShardExecutionError(ShardingError):
    """One or more shards failed during a fan-out.

    ``kinds`` carries the sorted, de-duplicated *exception type names*
    from the shards.  Messages may legitimately differ between
    topologies (a 4-shard layout can trip on a different row first),
    so deterministic comparisons use the kinds, not the text.
    """

    def __init__(self, kinds: list[str], detail: str = "") -> None:
        self.kinds = sorted(set(kinds))
        message = f"shard execution failed: {'/'.join(self.kinds)}"
        if detail:
            message += f" ({detail})"
        super().__init__(message)


class LocalShardClient:
    """In-process shard: ``query`` plus the admin surface the
    coordinator needs.

    Shards sit in ``Federation.nodes`` so every coordinator fan-out
    inherits their breakers; the coordinator reaches them
    only through :meth:`ShardedDatabase._fanout` thunks, never through
    federation's node-shaped calls.
    """

    def __init__(self, name: str, db: PrometheusDB) -> None:
        self.name = name
        self.db = db

    def query(
        self,
        text: str,
        params: dict[str, Any] | None = None,
        as_of: int | None = None,
    ) -> Any:
        return self.db.query(text, params=params, check=False, as_of=as_of)

    # -- shard admin surface -------------------------------------------------

    @property
    def lsn(self) -> int:
        return self.db.lsn

    def commit(self) -> None:
        self.db.commit()

    def get_attr(self, oid: int, name: str) -> Any:
        return self.db.schema.get_object(oid).get(name)

    def install_object(
        self, class_name: str, oid: int, attrs: dict[str, Any]
    ) -> None:
        """Create with a coordinator-assigned OID via the normal path
        (events fire, rules run, indexes and MVCC stay current)."""
        self.db.schema.create(class_name, _oid=oid, **attrs)

    def install_edge(
        self,
        rel_name: str,
        oid: int,
        origin_oid: int,
        destination_oid: int,
        attrs: dict[str, Any],
    ) -> None:
        """Install a relationship instance as ``Schema.relate`` does —
        ``adopt``, one journalled uninstall, then the initial attributes
        through ``PObject.set`` (a constant class still takes them) —
        but without endpoint liveness and cardinality validation, which
        cannot see across shards.  The destination may live elsewhere;
        the evaluator treats missing endpoints as null.  One
        ``with schema.journal:`` block, so a refused attribute takes
        the edge back out."""
        schema = self.db.schema
        relclass = schema.get_class(rel_name)
        rel = RelationshipInstance(
            oid,
            relclass,
            schema,
            relclass.defaults(),
            origin_oid=origin_oid,
            destination_oid=destination_oid,
        )
        with schema.journal:
            schema.adopt(rel)
            self.db.indexes.note_installed(rel)
            schema.journal.record(partial(self._uninstall, rel))
            for name, value in attrs.items():
                PObject.set(rel, name, value)

    def _uninstall(self, obj: PObject) -> None:
        self.db.indexes.note_removed(obj)
        self.db.schema.evict(obj.oid)

    def oids_in_key_range(
        self, key_attr: str, lo: str | None, hi: str | None
    ) -> list[int]:
        """Non-relationship objects whose shard key falls in ``[lo, hi)``
        (hash-placed objects — null or non-string keys — never match)."""
        out = []
        for obj in self.db.schema.all_objects():
            if isinstance(obj, RelationshipInstance):
                continue
            if key_attr not in obj.pclass.all_attributes():
                continue
            value = obj.get(key_attr)
            if not isinstance(value, str):
                continue
            if lo is not None and value < lo:
                continue
            if hi is not None and value >= hi:
                continue
            out.append(obj.oid)
        return out

    def export_records(
        self,
        class_names: list[str],
        lsn: int | None = None,
        query: str | None = None,
        params: dict[str, Any] | None = None,
        incident: list[int] | None = None,
    ) -> list[tuple[int, dict[str, Any]]]:
        """OID-sorted ``(oid, record)`` pairs for the polymorphic
        extents of ``class_names`` — live, or at a snapshot LSN.

        ``incident`` narrows those (relationship) extents to the edges
        with an endpoint among the given OIDs.  ``query`` adds the
        objects a per-shard POOL select returns, run by this shard's
        planner (or over its snapshot at ``lsn``)."""
        schema = self._schema_at(lsn)
        if schema is None:
            return []
        out: dict[int, dict[str, Any]] = {}
        if incident is None:
            for name in class_names:
                if not schema.has_class(name):
                    continue
                for obj in schema.extent(name):
                    out[obj.oid] = schema.to_record(obj)
        else:
            relationships = schema.relationships
            for oid in incident:
                for name in class_names:
                    for rel in relationships.outgoing(oid, name):
                        out[rel.oid] = schema.to_record(rel)
                    for rel in relationships.incoming(oid, name):
                        out[rel.oid] = schema.to_record(rel)
        if query is not None:
            for obj in self.db.query(
                query, params=params, check=False, as_of=lsn
            ):
                out[obj.oid] = schema.to_record(obj)
        return sorted(out.items())

    def resolve_oids(
        self, oids: list[int], lsn: int | None = None
    ) -> list[tuple[int, dict[str, Any]]]:
        """Batched OID resolution (the in-process analog of the HTTP
        ``POST /resolve`` ``oids`` fan-out)."""
        schema = self._schema_at(lsn)
        if schema is None:
            return []
        out = []
        for oid in sorted(oids):
            if schema.has_object(oid):
                obj = schema.get_object(oid)
                out.append((oid, schema.to_record(obj)))
        return out

    def _schema_at(self, lsn: int | None):
        if lsn is None:
            return self.db.schema
        if lsn < 0:
            # Sentinel from the coordinator: this shard had no commits
            # at the requested sequence point — nothing to read.
            return None
        view, _ = self.db._snapshot_view(lsn)
        return view


class _OpWriter:
    """The five writes, each handed to :meth:`_write` as one
    :class:`~repro.core.ops.Op`; a create or relate takes a new OID from
    the coordinator's allocator."""

    allocator: OidAllocator
    _write: Callable[[Op], None]

    def create(self, class_name: str, **attrs: Any) -> int:
        oid = self.allocator.allocate()
        self._write(Op("create", oid, class_name, attrs))
        return oid

    def set(self, oid: int, name: str, value: Any) -> None:
        self._write(Op("set", oid, attr=name, value=value))

    def delete(self, oid: int, cascade: bool = True) -> None:
        self._write(Op("delete", oid, cascade=cascade))

    def relate(
        self, rel_name: str, origin_oid: int, destination_oid: int,
        **attrs: Any,
    ) -> int:
        oid = self.allocator.allocate()
        self._write(
            Op("relate", oid, rel_name, attrs, origin=origin_oid,
               destination=destination_oid)
        )
        return oid

    def unrelate(self, rel_oid: int) -> None:
        self._write(Op("unrelate", rel_oid))


class ShardedSession(_OpWriter):
    """Staged multi-op write session applied at commit.

    Operations are staged in call order and applied in that order at
    :meth:`commit` — the same sequence on every topology.  An op that
    refuses takes the whole session back out of every shard; a crash
    between the shard commits that follow is not covered."""

    def __init__(self, db: "ShardedDatabase") -> None:
        self._db = db
        self.allocator = db.allocator
        self._ops: list[Op] = []
        self._write = self._ops.append
        self.closed = False

    def commit(self) -> int:
        """Run the ops through the coordinator's op applier inside every
        shard's undo journal (sorted shard order).  A refusal rolls
        each shard back to where the session began and forgets the
        session's routes; then key relocations, then every commit."""
        if self.closed:
            raise ShardingError("session already closed")
        self.closed = True
        db = self._db
        key_touched: set[int] = set()
        try:
            with ExitStack() as journals:
                for name in sorted(db.shards):
                    journals.enter_context(db.shards[name].db.schema.journal)
                for op in self._ops:
                    touched = db._apply_op(op)
                    if touched is not None:
                        key_touched.add(touched)
        except BaseException:
            for op in self._ops:
                if op.kind == "create" or op.kind == "relate":
                    db.router.forget(op.oid)
            raise
        for oid in sorted(key_touched):
            db._maybe_relocate(oid)
        return db.commit()

    def abort(self) -> None:
        self.closed = True
        self._ops.clear()


class ShardedDatabase(_OpWriter):
    """A set of shard databases behind one query/mutation facade.

    ``ddl`` is a callable applied to every shard schema *and* the
    coordinator's meta schema (used for typechecking, central merge
    evaluation, and the gather view's class registry — sharing the
    registry is what keeps downcasts working on gathered objects).
    ``index_ddl`` optionally receives each shard :class:`PrometheusDB`
    to create per-shard indexes.
    """

    def __init__(
        self,
        shard_map: ShardMap,
        ddl: Callable[[Schema], None],
        index_ddl: Callable[[PrometheusDB], None] | None = None,
        telemetry: Telemetry = DISABLED,
        breaker_threshold: int = 5,
    ) -> None:
        self.map = shard_map
        self.telemetry = telemetry
        self.allocator = OidAllocator()
        self.router = OidRouter()
        self.meta = Schema(None, name="coordinator")
        ddl(self.meta)
        self.shards: dict[str, LocalShardClient] = {}
        for name in shard_map.shards:
            db = PrometheusDB(telemetry=DISABLED)
            ddl(db.schema)
            db.schema.allocator = self.allocator
            if index_ddl is not None:
                index_ddl(db)
            self.shards[name] = LocalShardClient(name, db)
        self.federation = Federation(
            nodes=dict(self.shards),  # type: ignore[arg-type]
            retry=None,
            breaker_threshold=breaker_threshold,
            telemetry=telemetry,
        )
        #: Global commit history: sequence number -> per-shard LSN
        #: vector.  ``as_of`` sequence numbers index into this.
        self._history: list[dict[str, int]] = []
        self._baseline = {
            name: client.lsn for name, client in self.shards.items()
        }
        self._gauge_epoch()

    # -- mutations -----------------------------------------------------------

    def _write(self, op: Op) -> None:
        """A direct write: the op, then a relocation if it set the key."""
        if self._apply_op(op) is not None:
            self._maybe_relocate(op.oid)

    def session(self) -> ShardedSession:
        return ShardedSession(self)

    def commit(self) -> int:
        """Commit every shard (sorted order) and record the global
        sequence point; returns the new sequence number, usable as
        ``as_of``."""
        for name in sorted(self.shards):
            self.shards[name].commit()
        self._history.append(
            {name: client.lsn for name, client in self.shards.items()}
        )
        return len(self._history)

    @property
    def seq(self) -> int:
        return len(self._history)

    def _apply_op(self, op: Op) -> int | None:
        """The one op applier, for direct writes and sessions alike: a
        create installs on its key's shard, a relate on its origin's,
        the rest run :meth:`Op.apply` on their owner's.  Each op is
        atomic on its shard; a new OID is routed once it is in, and a
        removed one unrouted (journalled on its shard).  Returns the
        OID whose shard key the op set, else None."""
        if op.kind == "create":
            shard = self.map.route(op.attrs.get(self.map.key_attr), op.oid)
            self.shards[shard].install_object(op.class_name, op.oid, op.attrs)
        elif op.kind == "relate":
            if not self.meta.has_class(op.class_name):
                raise ShardingError(f"unknown relationship {op.class_name!r}")
            shard = self._owner(op.origin)
            if op.destination not in self.router:  # deleted, or never made
                raise UnknownOidError(op.destination)
            self.shards[shard].install_edge(
                op.class_name, op.oid, op.origin, op.destination, op.attrs
            )
        else:
            shard = self._owner(op.oid)
            gone = [op.oid] if op.kind == "unrelate" else []
            if op.kind == "delete":
                gone = self._check_delete(op.oid, shard)
            schema = self.shards[shard].db.schema
            op.apply(schema)
            for oid in gone:  # the journal routes it again on an undo
                self.router.forget(oid)
                schema.journal.record(partial(self.router.assign, oid, shard))
            return op.oid if op.attr == self.map.key_attr else None
        self.router.assign(op.oid, shard)
        return None

    def _check_delete(self, oid: int, shard: str) -> set[int]:
        """The OIDs a delete removes: the object, the parts its
        lifetime-dependent edges take along (``lifetime_parts``, the
        rule ``Schema.delete`` follows) and every edge touching them.
        Refuses, before anything changes, if one such edge joins an
        object off ``shard``: the cascade would cross shards."""
        registry = self.shards[shard].db.schema.relationships
        todo, seen = [oid], set()
        while todo:
            seen.add(current := todo.pop())
            for client in self.shards.values():
                for rel in client.db.schema.relationships.touching(current):
                    ends = sorted(rel.endpoints().values())
                    if {self.router.shard_of(end) for end in ends} != {shard}:
                        raise ShardingError(
                            f"delete of {oid} crosses shards: edge "
                            f"{rel.oid} joins {ends}"
                        )
                    seen.add(rel.oid)
            parts = registry.lifetime_parts(current)
            todo += [part.oid for part in parts if part.oid not in seen]
        return seen

    def _owner(self, oid: int) -> str:
        shard = self.router.shard_of(oid)
        if shard is None:  # never created, or deleted
            raise UnknownOidError(oid)
        return shard

    # -- relocation ----------------------------------------------------------

    def _maybe_relocate(self, oid: int) -> None:
        """Move an object whose shard key changed to its new home.

        Keeps the pruning invariant — an object's placement always
        matches the current map — without which a key-range predicate
        could silently miss rows on a pruned-out shard."""
        current = self.router.shard_of(oid)
        if current is None:
            return  # deleted after its key was set
        key = self.shards[current].get_attr(oid, self.map.key_attr)
        target = self.map.route(key, oid)
        if target == current:
            return
        self.move_object(oid, current, target)

    def move_object(self, oid: int, source: str, target: str) -> int:
        """Move one object and its outgoing edges between shards: the
        one mover, for key relocations and rebalances alike.

        The stored records move, not the values: each leaves ``source``
        as its ``to_record`` (index entries out, evicted with its next
        commit's tombstone pending) and enters ``target`` through
        ``from_record`` and ``adopt`` (index entries in, written by its
        next commit).  A move is neither a create nor a delete, so no
        event, rule or undo entry fires on either shard.  Returns the
        number of records moved."""
        src = self.shards[source].db
        dst = self.shards[target].db
        schema = src.schema
        edges = sorted(
            schema.relationships.outgoing(oid), key=attrgetter("oid")
        )
        moving = [schema.get_object(oid), *edges]
        records = [(obj.oid, schema.to_record(obj)) for obj in moving]
        for obj in moving:
            src.indexes.note_removed(obj)
            schema.evict(obj.oid, pending=True)
        for moved, record in records:
            obj = dst.schema.from_record(moved, record)
            dst.schema.adopt(obj)
            dst.indexes.note_installed(obj)
            self.router.move(moved, target)
        if self.telemetry.enabled:
            self.telemetry.registry.counter(
                "repro_shard_moved_objects_total",
                help="Objects relocated between shards",
            ).inc(len(records))
        return len(records)

    def rehome_misplaced(self) -> int:
        """Move every object whose placement no longer matches the map.

        A map change can alter more than the reassigned range: when a
        shard gains or loses range ownership the hash-fallback *ring*
        changes too, and unclassified objects re-hash.  Returns the
        number of records moved (objects plus riding edges)."""
        moved = 0
        for name in sorted(self.shards):
            # Materialised first: moving an object rewrites the table.
            for obj in list(self.shards[name].db.schema.all_objects()):
                oid = obj.oid
                if obj.deleted or isinstance(obj, RelationshipInstance):
                    continue
                key = (
                    obj.get(self.map.key_attr)
                    if self.map.key_attr in obj.pclass.all_attributes()
                    else None
                )
                target = self.map.route(key, oid)
                if target != name:
                    moved += self.move_object(oid, name, target)
        return moved

    # -- topology ------------------------------------------------------------

    def adopt_map(self, new_map: ShardMap) -> None:
        """Install an evolved shard map (post-split/rebalance) and stamp
        its epoch into every persistent shard log."""
        if new_map.epoch <= self.map.epoch:
            raise ShardingError(
                f"shard-map epoch must rise: {new_map.epoch} <= "
                f"{self.map.epoch}"
            )
        missing = set(new_map.shards) - set(self.shards)
        if missing:
            raise ShardingError(
                f"map references unknown shards: {sorted(missing)}"
            )
        self.map = new_map
        blob = new_map.to_blob()
        for name in sorted(self.shards):
            store = self.shards[name].db.store
            if store is not None:
                store.stamp_shard_map(new_map.epoch, blob)
        self._gauge_epoch()

    def _gauge_epoch(self) -> None:
        if self.telemetry.enabled:
            self.telemetry.registry.gauge(
                "repro_shard_map_epoch",
                help="Current shard-map epoch on the coordinator",
            ).set(self.map.epoch)

    # -- queries -------------------------------------------------------------

    def query(
        self,
        text: str,
        params: dict[str, Any] | None = None,
        check: bool = True,
        as_of: int | None = None,
    ) -> Any:
        ast = parse(text)
        if check:
            typecheck(self.meta, ast)
        vector = self._vector_at(as_of)
        plan = DistributedPlanner(self.meta, self.map).plan(ast, as_of)
        self._count_query(plan)
        if plan.mode == "scatter":
            return self._run_scatter(ast, plan, params)
        if plan.mode == "scatter_count":
            return self._run_scatter_count(plan, params)
        return self._run_gather(ast, plan, params, vector, as_of)

    def explain(
        self, text: str, as_of: int | None = None
    ) -> dict[str, Any]:
        """Distributed EXPLAIN: the physical plan, not the rows."""
        ast = parse(text)
        self._vector_at(as_of)
        plan = DistributedPlanner(self.meta, self.map).plan(ast, as_of)
        out = plan.as_dict()
        out["shard_map_epoch"] = self.map.epoch
        out["total_shards"] = len(self.map.shards)
        return out

    def _vector_at(self, as_of: int | None) -> dict[str, int] | None:
        if as_of is None:
            return None
        if not isinstance(as_of, int) or isinstance(as_of, bool):
            raise SnapshotError(
                f"as_of must be an integer sequence, got {as_of!r}"
            )
        if as_of < 1 or as_of > len(self._history):
            raise SnapshotError(
                f"sequence {as_of} not available "
                f"(history is 1..{len(self._history)})"
            )
        return self._history[as_of - 1]

    def _count_query(self, plan: DistributedPlan) -> None:
        if not self.telemetry.enabled:
            return
        registry = self.telemetry.registry
        registry.counter(
            "repro_shard_queries_total",
            {"mode": plan.mode},
            help="Distributed queries by physical-plan mode",
        ).inc()
        registry.counter(
            "repro_shard_fanout_total",
            help="Per-shard requests issued by distributed queries",
        ).inc(len(plan.shards))
        if plan.pruned:
            registry.counter(
                "repro_shard_pruned_total",
                help="Queries whose fan-out was narrowed by the shard key",
            ).inc()

    # -- scatter -------------------------------------------------------------

    def _fanout(
        self,
        shard_names: tuple[str, ...],
        call: Callable[[LocalShardClient], Any],
    ) -> dict[str, Any]:
        """Run ``call`` against each shard in sorted order, on the
        caller's thread, through federation's breaker guard.

        Every shard is asked even after one fails.  Semantic
        (PrometheusError) failures are tagged per shard inside the guard
        — an answer, not a breaker failure — and re-raised as one
        deterministic :class:`ShardExecutionError`; anything else,
        including an open breaker, is ``__infra__``."""

        def tagged(client: LocalShardClient) -> tuple[str, Any]:
            try:
                return ("ok", call(client))
            except PrometheusError as exc:
                return ("error", type(exc).__name__)

        call_node = self.federation._call_node
        results: dict[str, Any] = {}
        kinds: list[str] = []
        infra: list[str] = []
        for name in sorted(shard_names):
            try:
                status, value = call_node(
                    name, partial(tagged, self.shards[name])
                )
            except Exception as exc:
                infra.append(f"{name}: {str(exc) or type(exc).__name__}")
                continue
            if status == "error":
                kinds.append(value)
            else:
                results[name] = value
        if infra:
            raise ShardExecutionError(
                ["__infra__"], detail="; ".join(infra)
            )
        if kinds:
            raise ShardExecutionError(kinds)
        return results

    def _run_scatter(
        self,
        ast: SelectQuery,
        plan: DistributedPlan,
        params: dict[str, Any] | None,
    ) -> list[Any]:
        per_shard = self._fanout(
            plan.shards,
            lambda client: client.query(plan.pushed_text, params),
        )
        merged: list[Any] = []
        for name in sorted(per_shard):
            rows = per_shard[name]
            if not isinstance(rows, list):
                raise ShardExecutionError(
                    ["__protocol__"],
                    detail=f"{name} returned {type(rows).__name__}",
                )
            merged.extend(rows)
        # Re-create the single-database iteration order (extents yield
        # OIDs ascending), then fold exactly as the naive evaluator does.
        merged.sort(key=lambda obj: obj.oid)
        evaluator = Evaluator(
            QueryContext(
                schema=self.meta,
                params=params or {},
                plan=QueryPlanInfo(),
            )
        )
        variable = ast.bindings[0].variable
        return evaluator.fold(ast, ({variable: obj} for obj in merged))

    def _run_scatter_count(
        self, plan: DistributedPlan, params: dict[str, Any] | None
    ) -> list[int]:
        per_shard = self._fanout(
            plan.shards,
            lambda client: client.query(plan.pushed_text, params),
        )
        total = 0
        for name in sorted(per_shard):
            rows = per_shard[name]
            if not isinstance(rows, list) or len(rows) != 1:
                raise ShardExecutionError(
                    ["__protocol__"],
                    detail=f"{name} count returned {rows!r}",
                )
            total += int(rows[0])
        return [total]

    # -- gather --------------------------------------------------------------

    def _run_gather(
        self,
        ast: Any,
        plan: DistributedPlan,
        params: dict[str, Any] | None,
        vector: dict[str, int] | None,
        as_of: int | None,
    ) -> Any:
        view = self._union_view(plan, params, vector, as_of)
        context = QueryContext(
            schema=view,  # type: ignore[arg-type]
            params=params or {},
            plan=QueryPlanInfo(),
        )
        return Evaluator(context).run(ast)

    def _union_view(
        self,
        plan: DistributedPlan,
        params: dict[str, Any] | None,
        vector: dict[str, int] | None,
        as_of: int | None,
    ) -> SnapshotSchema:
        """Materialize a coordinator-side snapshot of every record the
        query can reach (see :mod:`repro.sharding.planner` for why it
        suffices): the shipped extents and the first binding's filtered
        rows, their edges' endpoints, then ``plan.hop_bound`` rounds of
        traversed edges incident to the newest objects and those edges'
        endpoints."""
        items: dict[int, dict[str, Any]] = {}
        # Fan out over every *physical* shard, not just the current
        # map's range owners: a snapshot read may predate a rebalance
        # that removed a shard from the ring, and its history lives on.
        shards = tuple(sorted(self.shards))
        pinned = None if vector is not None else self._pinned(plan, params)
        asked = shards if pinned is None else pinned
        exports = self._fanout(
            shards if plan.extents else asked,
            lambda client: client.export_records(
                list(plan.extents),
                self._shard_lsn(client.name, vector),
                query=plan.pushed_text if client.name in asked else None,
                params=params,
            ),
        )
        for name in sorted(exports):
            for oid, record in exports[name]:
                items[oid] = record
        self._resolve_endpoints(items, list(items.values()), vector)
        frontier = set(items)
        for _ in range(plan.hop_bound or 0):
            if not frontier:
                break
            incident = sorted(frontier)
            edges = self._fanout(
                shards,
                lambda client: client.export_records(
                    list(plan.traversed),
                    self._shard_lsn(client.name, vector),
                    incident=incident,
                ),
            )
            added = []
            for name in sorted(edges):
                for oid, record in edges[name]:
                    if oid not in items:
                        items[oid] = record
                        added.append(record)
            frontier = self._resolve_endpoints(items, added, vector)
        return SnapshotSchema(
            self.meta,
            sorted(items.items()),
            as_of if as_of is not None else self.seq,
        )

    def _pinned(
        self, plan: DistributedPlan, params: dict[str, Any] | None
    ) -> tuple[str, ...] | None:
        """Where a live gather's OID-pinned first binding can be: the
        router's owner of the key (none when unrouted).  None — ask
        every shard — without a pin, a parameter or a hashable key."""
        pin = plan.pin
        if isinstance(pin, Literal):
            key = pin.value
        elif isinstance(pin, Parameter) and params and pin.name in params:
            key = params[pin.name]
        else:
            return None
        try:
            shard = self.router.shard_of(key)
        except TypeError:
            return None
        return () if shard is None else (shard,)

    def _shard_lsn(
        self, name: str, vector: dict[str, int] | None
    ) -> int | None:
        """Snapshot LSN for one shard — None for a live read, and a
        pre-first-commit shard exports nothing (sentinel -1 handled by
        the client via the baseline check below)."""
        if vector is None:
            return None
        lsn = vector[name]
        if lsn <= self._baseline[name]:
            # The shard had not committed anything by this sequence
            # point; there is no snapshot to pin, and nothing to read.
            return -1
        return lsn

    def _resolve_endpoints(
        self,
        items: dict[int, dict[str, Any]],
        records: list[dict[str, Any]],
        vector: dict[str, int] | None,
    ) -> set[int]:
        """Fetch the endpoints of ``records`` that ``items`` lacks, in
        one batched fan-out (the OID → shard routed ``/resolve``);
        returns the OIDs added."""
        missing: set[int] = set()
        for record in records:
            for key in ("_origin", "_destination"):
                oid = record.get(key)
                if isinstance(oid, int) and oid not in items:
                    missing.add(oid)
            participants = record.get("_participants")
            if isinstance(participants, dict):
                for oid in participants.values():
                    if isinstance(oid, int) and oid not in items:
                        missing.add(oid)
        if not missing:
            return set()
        if vector is None:
            groups = self.router.group(missing)
        else:
            # Historical read: the router reflects *current* placement,
            # but the record may have lived elsewhere at that sequence
            # point — ask every shard's snapshot.
            ordered = sorted(missing)
            groups = {name: ordered for name in sorted(self.shards)}
        if not groups:
            return set()
        if self.telemetry.enabled:
            self.telemetry.registry.counter(
                "repro_shard_resolve_batches_total",
                help="Batched cross-shard endpoint resolutions",
            ).inc(len(groups))
        resolved = self._fanout(
            tuple(groups),
            lambda client: client.resolve_oids(
                groups[client.name],
                self._shard_lsn(client.name, vector),
            ),
        )
        added: set[int] = set()
        for name in sorted(resolved):
            for oid, record in resolved[name]:
                if oid not in items:
                    items[oid] = record
                    added.add(oid)
        return added

    # -- serialization helpers ----------------------------------------------

    def jsonable_result(self, result: Any) -> str:
        """Canonical JSON for the topology differential suite."""
        from ..engine.handlers import jsonable

        return json.dumps(jsonable(result), sort_keys=True)
