"""The assembled database: every layer of Figure 26 behind one facade.

:class:`PrometheusDB` wires together, bottom-up:

* the **object store** (optional — omit for an in-memory database),
* the **event layer** (owned by the schema),
* the **object layer** (schema: classes, instances, relationships),
* the **views layer**,
* the **index layer**,
* the **query layer** (POOL with type checking and index fast path),
* the **rules layer**,
* the **classification layer** (manager + trace log),

and exposes the operations applications actually call.  The HTTP server
(§6.1.7) wraps an instance of this class.
"""

from __future__ import annotations

import os
import time
from typing import Any, Iterator

from ..classification import ClassificationManager, TraceLog
from ..concurrency import SessionManager, Transaction, TransactionManager
from ..core.metamodel import describe_schema
from ..core.schema import Schema
from ..errors import QueryError, SnapshotError, StorageError
from ..mvcc import MvccStore, SnapshotSchema
from ..query import parse
from ..query.evaluator import Evaluator, QueryContext
from ..query.nodes import QueryPlanInfo
from ..query.planner import Planner
from ..query.plans import AdjacencyCache
from ..query.typecheck import typecheck
from ..rules import RuleEngine
from ..storage.store import ObjectStore
from ..telemetry import Telemetry
from .indexes import IndexManager
from .views import ViewManager


class PrometheusDB:
    """The full Prometheus database system.

    Args:
        path: log file path for persistence, or None for in-memory.
        name: diagnostic label.
        cache_size: object-store record cache capacity.
        sync: fsync after commits (durable but slow).
        telemetry: a :class:`~repro.telemetry.Telemetry` facade to use,
            or None to create an enabled one.  Pass
            ``repro.telemetry.DISABLED`` (or any disabled facade) to
            turn all instrumentation down to one branch per hook.
        slow_query_ms: threshold for the slow-query log (None = off);
            only consulted when building the default facade.
        read_only: open the store as a replica — local writes raise and
            the log only grows through
            :meth:`~repro.storage.store.ObjectStore.apply_replicated`.
        faults: a :class:`~repro.storage.faults.FaultPlan` threaded down
            to the store's log file (crash/torn-write injection for the
            recovery and replication sweeps).
    """

    def __init__(
        self,
        path: str | os.PathLike[str] | None = None,
        name: str = "prometheus",
        cache_size: int = 4096,
        sync: bool = False,
        telemetry: Telemetry | None = None,
        slow_query_ms: float | None = None,
        read_only: bool = False,
        faults: Any | None = None,
    ) -> None:
        self.telemetry = (
            telemetry
            if telemetry is not None
            else Telemetry(enabled=True, slow_query_ms=slow_query_ms)
        )
        self.store: ObjectStore | None = (
            ObjectStore(
                path,
                cache_size=cache_size,
                sync=sync,
                read_only=read_only,
                faults=faults,
            )
            if path is not None
            else None
        )
        if (
            path is not None
            and self.telemetry.enabled
            and self.telemetry.events.path is None
        ):
            # Persist the lifecycle journal beside the store so a
            # failover post-mortem survives the process.
            self.telemetry.events.path = str(
                os.fspath(path)
            ) + ".events.jsonl"
        self.schema = Schema(self.store, name=name)
        self.schema.events.telemetry = self.telemetry
        self.rules = RuleEngine(self.schema, telemetry=self.telemetry)
        self.indexes = IndexManager(self.schema)
        self.planner = Planner(
            self.schema, catalog=self.indexes, telemetry=self.telemetry
        )
        self.planner.attach(self.schema.events)
        #: Per-OID version chains (:mod:`repro.mvcc`): transactions read
        #: lock-free pinned snapshots, ``query(..., as_of=lsn)`` travels.
        self.mvcc = MvccStore()
        self.transactions = TransactionManager(
            self.schema,
            self.mvcc,
            rules=self.rules,
            store=self.store,
            telemetry=self.telemetry,
        )
        #: Small LRU of materialized as_of views; each holds a GC pin.
        self._snapshot_views: dict[
            int, tuple[SnapshotSchema, Any, ClassificationManager]
        ] = {}
        self._classifications: ClassificationManager | None = None
        self._views: ViewManager | None = None
        self._trace: TraceLog | None = None
        self._sessions: SessionManager | None = None
        self._last_plan: QueryPlanInfo | None = None
        self._shard_map_epoch = 0  # in-memory shards: set by coordinator
        if self.telemetry.enabled:
            # A disabled facade (the shared DISABLED singleton included)
            # must not collect a reference to every database ever built.
            self._wire_telemetry()

    def _wire_telemetry(self) -> None:
        """Register scrape-time collectors and seed the metric families.

        Seeding guarantees ``GET /metrics`` always exposes at least one
        counter per layer (events, rules, query, storage, federation),
        even before any traffic arrives.
        """
        registry = self.telemetry.registry
        registry.counter(
            "repro_events_published_total", help="Events published on the bus"
        )
        registry.counter("repro_rules_fired_total", help="Rule evaluations")
        registry.counter(
            "repro_rules_violations_total", help="Rule violations"
        )
        registry.counter("repro_query_total", help="POOL queries executed")
        registry.counter(
            "repro_storage_ops_total", help="Object-store operations"
        )
        registry.counter(
            "repro_federation_requests_total",
            help="Guarded federation calls (all nodes)",
        )
        registry.counter(
            "repro_txn_commits_total", help="Managed transactions committed"
        )
        registry.counter(
            "repro_txn_aborts_total", help="Managed transactions aborted"
        )
        registry.counter(
            "repro_txn_conflicts_total",
            help="Commits rejected by write-set validation",
        )
        registry.gauge(
            "repro_txn_active", help="Managed transactions in flight"
        )
        registry.gauge(
            "repro_sessions_active", help="Live (non-evicted) sessions"
        )
        registry.counter(
            "repro_planner_plans_built_total", help="Plans compiled"
        )
        registry.counter(
            "repro_planner_cache_hits_total", help="Plan-cache hits"
        )
        registry.counter(
            "repro_planner_cache_misses_total", help="Plan-cache misses"
        )
        registry.gauge(
            "repro_mvcc_pinned_snapshots",
            help="Snapshot pins currently held (readers + cached views)",
        )
        registry.gauge(
            "repro_mvcc_watermark_lsn",
            help="Oldest pinned snapshot LSN (GC reclaim boundary)",
        )
        registry.gauge(
            "repro_mvcc_floor_lsn",
            help="Oldest LSN still materializable (history floor)",
        )
        registry.gauge(
            "repro_mvcc_head_lsn", help="Newest committed snapshot LSN"
        )
        registry.gauge(
            "repro_mvcc_chains", help="OIDs with a live version chain"
        )
        registry.gauge(
            "repro_mvcc_versions_live",
            help="Record versions currently held across all chains",
        )
        registry.counter(
            "repro_mvcc_versions_appended_total",
            help="Versions appended to chains since start",
        )
        registry.counter(
            "repro_mvcc_versions_collected_total",
            help="Versions reclaimed by chain GC",
        )
        registry.counter(
            "repro_mvcc_gc_runs_total", help="Version-chain GC passes"
        )
        registry.counter(
            "repro_mvcc_snapshot_reads_total",
            help="Snapshot views materialized (as_of queries)",
        )
        registry.add_collector(self._collect_metrics)

    def _collect_metrics(self, registry: Any) -> None:
        """Scrape-time storage/index/cache metrics: these numbers are
        maintained by the layers anyway, so observing them is free."""
        store = self.store
        if store is not None:
            snap = store.telemetry_snapshot()
            ops = registry.counter("repro_storage_ops_total")
            ops.value = (
                snap["reads"] + snap["writes"] + snap["deletes"]
                + snap["commits"] + snap["aborts"]
            )
            for op in ("reads", "writes", "deletes", "commits", "aborts"):
                registry.counter(
                    "repro_storage_ops_by_kind_total", {"op": op}
                ).value = snap[op]
            registry.counter(
                "repro_storage_cache_hits_total"
            ).value = snap["cache_hits"]
            registry.counter(
                "repro_storage_cache_misses_total"
            ).value = snap["cache_misses"]
            registry.gauge(
                "repro_storage_cache_hit_rate",
                help="Record-cache hit rate since last reset",
            ).set(round(snap["cache_hit_rate"], 6))
            registry.counter(
                "repro_storage_log_appends_total"
            ).value = snap["log_appends"]
            registry.counter(
                "repro_storage_log_fsyncs_total",
                help="fsync calls issued by the record log",
            ).value = snap["log_fsyncs"]
            registry.counter(
                "repro_storage_group_commit_batches_total",
                help="Shared fsync barriers executed by group commit",
            ).value = snap["group_commit_batches"]
            registry.counter(
                "repro_storage_group_commit_commits_total",
                help="Commits whose durability rode a shared fsync",
            ).value = snap["group_commit_batched"]
            registry.gauge("repro_storage_file_bytes").set(snap["file_size"])
            registry.gauge(
                "repro_storage_live_records"
            ).set(snap["live_records"])
        for index in self.indexes.indexes():
            registry.counter(
                "repro_index_probes_total", {"index": index.name}
            ).value = index.probes
            registry.gauge(
                "repro_index_entries", {"index": index.name}
            ).set(len(index))
        registry.gauge(
            "repro_events_bus_published",
            help="Lifetime publish count kept by the bus itself",
        ).set(self.schema.events.published)
        # Transaction counters are reconciled from the manager's
        # authoritative (lock-protected) stats at scrape time — the
        # registry's lock-free counters can under-count under threads.
        txn = self.transactions.stats.snapshot()
        registry.counter("repro_txn_commits_total").value = txn["committed"]
        registry.counter("repro_txn_aborts_total").value = txn["aborted"]
        registry.counter("repro_txn_conflicts_total").value = txn["conflicts"]
        registry.gauge("repro_txn_active").set(
            self.transactions.active_count
        )
        if self._sessions is not None:
            registry.gauge("repro_sessions_active").set(
                self._sessions.active_count
            )
        snap = self.planner.snapshot()
        registry.gauge(
            "repro_planner_cache_plans",
            help="Plans currently held by the LRU plan cache",
        ).set(snap["cache_size"])
        # Reconcile from the planner's lock-protected tallies.
        registry.counter(
            "repro_planner_cache_hits_total"
        ).value = snap["hits"]
        registry.counter(
            "repro_planner_cache_misses_total"
        ).value = snap["misses"]
        registry.counter(
            "repro_planner_plans_built_total"
        ).value = snap["built"]
        snap = self.mvcc.telemetry_snapshot()
        registry.gauge(
            "repro_mvcc_pinned_snapshots"
        ).set(snap["pinned_snapshots"])
        registry.gauge(
            "repro_mvcc_watermark_lsn"
        ).set(snap["watermark_lsn"])
        registry.gauge("repro_mvcc_floor_lsn").set(snap["floor_lsn"])
        registry.gauge("repro_mvcc_head_lsn").set(snap["head_lsn"])
        registry.gauge("repro_mvcc_chains").set(snap["chains"])
        registry.gauge(
            "repro_mvcc_versions_live"
        ).set(snap["versions_live"])
        registry.counter(
            "repro_mvcc_versions_appended_total"
        ).value = snap["versions_appended"]
        registry.counter(
            "repro_mvcc_versions_collected_total"
        ).value = snap["versions_collected"]
        registry.counter(
            "repro_mvcc_gc_runs_total"
        ).value = snap["gc_runs"]
        registry.counter(
            "repro_mvcc_snapshot_reads_total"
        ).value = snap["snapshot_reads"]

    # -- lifecycle --------------------------------------------------------

    def load(self) -> int:
        """Load persisted instances (call after declaring all classes).

        Also seeds the MVCC version chains with the loaded state at the
        current commit LSN: time-travel history starts here (the log's
        earlier offsets are not replayed), and grows with every commit.
        """
        store = self.store
        if store is None:
            return 0
        base = store.commit_lsn
        loaded = 0

        def installed() -> Iterator[tuple[int, dict[str, Any]]]:
            # One walk of the store: each decoded record becomes a live
            # object and the first version of its chain.
            nonlocal loaded
            for oid, record in store.items():
                if self.schema.install(oid, record) is not None:
                    loaded += 1
                yield oid, record

        self.mvcc.seed(installed(), base)
        self.transactions.publish_floor(base)
        # Upper layers built before the load (``TaxonomyDatabase.
        # over_engine(db)`` first, ``db.load()`` second) re-read the
        # metadata record that just arrived.
        self.reread_metadata()
        return loaded

    def reread_metadata(self) -> None:
        """Rebuild the classifications and trace log, where built, from
        the metadata record now installed (after a boot, or a replica
        batch that carried it)."""
        if self._classifications is not None:
            self._classifications.reload()
        if self._trace is not None:
            self._trace.reload()

    def close(self) -> None:
        self.release_snapshots()
        if self.store is not None:
            self.store.close()

    def __enter__(self) -> "PrometheusDB":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    # -- lazily-built upper layers ------------------------------------------
    # (classifications and views want the instance data present, so they
    # are created on first use, after load()).

    @property
    def classifications(self) -> ClassificationManager:
        if self._classifications is None:
            self._classifications = ClassificationManager(self.schema)
        return self._classifications

    @property
    def views(self) -> ViewManager:
        if self._views is None:
            self._views = ViewManager(self)
        return self._views

    @property
    def trace(self) -> TraceLog:
        if self._trace is None:
            self._trace = TraceLog(self.schema)
        return self._trace

    # -- transactions -------------------------------------------------------

    def commit(self) -> None:
        """Commit the implicit session's pending changes.

        Routed through the transaction manager so managed transactions
        racing direct mutations still see version bumps (and conflict).
        """
        self.transactions.commit_implicit()

    def abort(self) -> None:
        self.schema.abort()

    def begin(self, validate_reads: bool = False) -> Transaction:
        """Start a managed transaction (copy-on-write overlay).

        Use as a context manager — commits on clean exit, aborts on
        exception; :class:`~repro.errors.ConflictError` from commit
        means another writer won and the caller should retry.
        """
        return self.transactions.begin(validate_reads=validate_reads)

    @property
    def sessions(self) -> SessionManager:
        """Token-issuing session registry (built on first use)."""
        if self._sessions is None:
            self._sessions = SessionManager(
                self.transactions, telemetry=self.telemetry
            )
        return self._sessions

    # -- time travel (MVCC snapshots) ---------------------------------------

    @property
    def lsn(self) -> int:
        """The newest queryable snapshot LSN (commit log position)."""
        if self.store is not None:
            return self.store.commit_lsn
        return self.transactions.published_snapshot[1]

    @property
    def shard_map_epoch(self) -> int:
        """Newest shard-map epoch this node knows about (0 = unsharded).

        Store-backed nodes read the durable stamp; in-memory shards are
        told theirs by the sharding coordinator via the setter.  The
        response cache folds this into its invalidation stamp so a
        rebalance can never serve bytes computed against old placement.
        """
        if self.store is not None:
            return self.store.shard_map_epoch
        return self._shard_map_epoch

    @shard_map_epoch.setter
    def shard_map_epoch(self, epoch: int) -> None:
        if self.store is not None:
            raise StorageError(
                "store-backed nodes learn the shard-map epoch from the "
                "log (stamp_shard_map), not by assignment"
            )
        self._shard_map_epoch = epoch

    def read_stamp(self) -> tuple[int, int, int, int, int]:
        """Every version a live read can depend on, as one tuple.

        ``schema.version`` (class/index-relevant DDL), the index-catalog
        epoch (plans change), the commit LSN (committed data changes —
        on a replica this advances with every applied batch), the event
        bus's lifetime publish count (direct *uncommitted* mutations on
        the implicit session are query-visible, and an abort publishes
        too) and the shard-map epoch (a rebalance moved objects).  A
        result read while the stamp was ``s`` may be reused exactly as
        long as ``read_stamp() == s``: the response cache and
        materialized views both reuse on this rule.
        """
        return (
            self.schema.version,
            self.indexes.epoch,
            self.lsn,
            self.schema.events.published,
            self.shard_map_epoch,
        )

    def snapshot(self, as_of: int | None = None) -> "DatabaseSnapshot":
        """Pin a consistent point-in-time handle (default: now).

        The handle keeps its LSN's versions safe from GC until
        released; use as a context manager.
        """
        lsn = self.lsn if as_of is None else self._check_as_of(as_of)
        pin = self.mvcc.pin(lsn)
        if pin is None:
            raise SnapshotError(
                f"snapshot lsn {lsn} predates retained history "
                f"(floor {self.mvcc.floor})"
            )
        return DatabaseSnapshot(self, lsn, pin)

    def mvcc_gc(self) -> int:
        """Run one version-chain GC pass; returns versions collected."""
        return self.mvcc.run_gc()

    def release_snapshots(self) -> None:
        """Drop all cached as_of views (and their GC pins)."""
        for _, pin, _ in self._snapshot_views.values():
            pin.release()
        self._snapshot_views.clear()

    def _check_as_of(self, as_of: Any) -> int:
        if isinstance(as_of, bool) or not isinstance(as_of, int):
            raise SnapshotError(f"as_of must be an integer LSN, got {as_of!r}")
        head = self.lsn
        if as_of > head:
            raise SnapshotError(
                f"snapshot lsn {as_of} not yet available (head is {head})"
            )
        if as_of < self.mvcc.floor:
            raise SnapshotError(
                f"snapshot lsn {as_of} predates retained history "
                f"(floor {self.mvcc.floor})"
            )
        return as_of

    def _snapshot_view(
        self, as_of: int
    ) -> tuple[SnapshotSchema, ClassificationManager]:
        """Materialized (cached) schema view + classifications at a LSN."""
        as_of = self._check_as_of(as_of)
        cached = self._snapshot_views.get(as_of)
        if cached is not None:
            view, _, classifications = cached
            return view, classifications
        pin = self.mvcc.pin(as_of)
        if pin is None:
            raise SnapshotError(
                f"snapshot lsn {as_of} predates retained history "
                f"(floor {self.mvcc.floor})"
            )
        view = self.mvcc.view(self.schema, as_of)
        classifications = ClassificationManager(view)  # type: ignore[arg-type]
        self._snapshot_views[as_of] = (view, pin, classifications)
        while len(self._snapshot_views) > 4:
            oldest = next(iter(self._snapshot_views))
            _, old_pin, _ = self._snapshot_views.pop(oldest)
            old_pin.release()
        return view, classifications

    # -- the query layer (§6.1.5) ----------------------------------------------

    def query(
        self,
        text: str,
        params: dict[str, Any] | None = None,
        check: bool = True,
        as_of: int | None = None,
    ) -> Any:
        """Type-check then evaluate POOL ``text``.

        Returns a list for SELECT, a GraphView for EXTRACT GRAPH.

        ``as_of`` evaluates the query against the consistent snapshot
        at that commit LSN (time travel): reads never block writers,
        and the same LSN returns byte-identical results on every node
        that applied the same log prefix.

        The text may be prefixed with ``EXPLAIN`` or ``PROFILE``
        (case-insensitive): instead of the result rows the call then
        returns a plan report dict — ``EXPLAIN`` describes the access
        paths taken (index vs scan, rows examined, traversal depth),
        ``PROFILE`` additionally includes the per-clause span tree and
        wall time.  Both run the query for real (POOL is select-only,
        so this is always safe).
        """
        mode, text = self._strip_mode(text)
        if mode is not None:
            return self._run_plan_report(mode, text, params, as_of=as_of)
        tel = self.telemetry
        if not tel.enabled:
            return self._execute(text, params, check, as_of=as_of)
        registry = tel.registry
        registry.counter(
            "repro_query_total", help="POOL queries executed"
        ).inc()
        started = time.perf_counter_ns()
        try:
            result = self._execute(text, params, check, as_of=as_of)
        except Exception:
            registry.counter(
                "repro_query_errors_total", help="POOL queries that raised"
            ).inc()
            raise
        elapsed_ms = (time.perf_counter_ns() - started) / 1e6
        registry.histogram(
            "repro_query_ms", help="POOL query latency (ms)"
        ).observe(elapsed_ms)
        plan = self._last_plan
        if plan is not None:
            if plan.index_used is not None:
                registry.counter(
                    "repro_query_index_hits_total",
                    help="Queries answered through an index fast path",
                ).inc()
            if plan.extent_scans:
                registry.counter(
                    "repro_query_extent_scans_total",
                    help="Full extent scans performed by queries",
                ).inc(plan.extent_scans)
        tel.record_query(text, elapsed_ms, _result_size(result))
        return result

    def _execute(
        self,
        text: str,
        params: dict[str, Any] | None,
        check: bool,
        as_of: int | None = None,
    ) -> Any:
        ast = parse(text)
        if check:
            report = typecheck(self.schema, ast, self._classifications)
            if not report.ok:
                raise QueryError(
                    "query does not type-check: " + "; ".join(report.errors)
                )
        context = self._context(params, as_of=as_of)
        result = Evaluator(context).run(ast)
        self._last_plan = context.plan
        return result

    def _context(
        self, params: dict[str, Any] | None, as_of: int | None = None
    ) -> QueryContext:
        if as_of is not None:
            # Time travel: evaluate against the materialized snapshot.
            # Live attribute indexes reflect current state, so index
            # probes are disabled; the planner keys/stamps every plan
            # with the snapshot LSN (and builds scan-only plans).
            view, classifications = self._snapshot_view(as_of)
            return QueryContext(
                schema=view,  # type: ignore[arg-type]
                classifications=classifications,
                params=params or {},
                index_probe=None,
                telemetry=self.telemetry,
                planner=self.planner,
                adjacency=AdjacencyCache(view),  # type: ignore[arg-type]
                as_of=as_of,
            )
        return QueryContext(
            schema=self.schema,
            classifications=self._classifications,
            params=params or {},
            index_probe=self.indexes.probe,
            telemetry=self.telemetry,
            planner=self.planner,
            adjacency=AdjacencyCache(self.schema),
        )

    @staticmethod
    def _strip_mode(text: str) -> tuple[str | None, str]:
        head, _, rest = text.lstrip().partition(" ")
        if head.lower() in ("explain", "profile") and rest.strip():
            return head.lower(), rest.strip()
        return None, text

    def _run_plan_report(
        self,
        mode: str,
        text: str,
        params: dict[str, Any] | None,
        as_of: int | None = None,
    ) -> dict[str, Any]:
        """Shared body of EXPLAIN and PROFILE (§6.1.5.3 made visible)."""
        ast = parse(text)
        context = self._context(params, as_of=as_of)
        if mode == "profile":
            # PROFILE always traces, even when telemetry is disabled:
            # the caller asked for this one query's structure.
            local = Telemetry(enabled=True)
            context.telemetry = local
        started = time.perf_counter_ns()
        result = Evaluator(context).run(ast)
        elapsed_ms = (time.perf_counter_ns() - started) / 1e6
        report: dict[str, Any] = {
            "mode": mode,
            "query": text,
            "plan": context.plan.as_dict(),
            "rows": _result_size(result),
        }
        if mode == "profile":
            report["elapsed_ms"] = round(elapsed_ms, 4)
            report["spans"] = local.tracer.snapshot()
        return report

    def explain(
        self, text: str, params: dict[str, Any] | None = None
    ) -> QueryPlanInfo:
        """Evaluate and return the plan info (index use, extent scans)."""
        ast = parse(text)
        context = self._context(params)
        Evaluator(context).run(ast)
        return context.plan

    def profile(
        self, text: str, params: dict[str, Any] | None = None
    ) -> dict[str, Any]:
        """Run ``text`` with tracing forced on; return the full report."""
        return self._run_plan_report("profile", text, params)

    # -- introspection --------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        info = describe_schema(self.schema)
        info["indexes"] = [index.name for index in self.indexes.indexes()]
        info["rules"] = [rule.name for rule in self.rules.rules()]
        info["transactions"] = self.transactions.snapshot()
        info["planner"] = self.planner.snapshot()
        if self._sessions is not None:
            info["sessions"] = self._sessions.snapshot()
        if self._classifications is not None:
            info["classifications"] = self._classifications.names()
        if self._views is not None:
            info["views"] = self._views.names()
        if self.store is not None:
            info["storage"] = self.store.stats.snapshot() | {
                "file_size": self.store.file_size,
                "objects": len(self.store),
            }
        return info

    def check_integrity(self) -> list[str]:
        """Schema-level integrity plus all invariant rules."""
        problems = self.schema.check_integrity()
        problems.extend(
            f"rule {v.rule_name}: {v.message} (oid {v.target_oid})"
            for v in self.rules.check_all_invariants()
        )
        return problems


class DatabaseSnapshot:
    """A pinned, consistent point-in-time handle over one database.

    Holds a GC pin for its LSN so every version reachable at that
    point stays materializable for the handle's lifetime.  All reads
    (queries, object access, classifications) resolve against the
    version chains — writers are never blocked and never observed.
    """

    def __init__(self, db: PrometheusDB, lsn: int, pin: Any) -> None:
        self.db = db
        self.lsn = lsn
        self._pin = pin
        self._released = False

    # -- reads ---------------------------------------------------------------

    def query(
        self, text: str, params: dict[str, Any] | None = None
    ) -> Any:
        self._check_open()
        return self.db.query(text, params, as_of=self.lsn)

    @property
    def schema(self) -> SnapshotSchema:
        """The materialized read-only object layer at this LSN."""
        self._check_open()
        view, _ = self.db._snapshot_view(self.lsn)
        return view

    @property
    def classifications(self) -> ClassificationManager:
        """Classifications as they stood at this LSN (time travel)."""
        self._check_open()
        _, classifications = self.db._snapshot_view(self.lsn)
        return classifications

    # -- lifecycle -----------------------------------------------------------

    def release(self) -> None:
        if not self._released:
            self._released = True
            self._pin.release()

    def _check_open(self) -> None:
        if self._released:
            raise SnapshotError(f"snapshot at lsn {self.lsn} was released")

    def __enter__(self) -> "DatabaseSnapshot":
        return self

    def __exit__(self, *exc: object) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover
        state = "released" if self._released else "pinned"
        return f"<DatabaseSnapshot lsn={self.lsn} {state}>"


def _result_size(result: Any) -> int:
    if isinstance(result, list):
        return len(result)
    return 1 if result is not None else 0
