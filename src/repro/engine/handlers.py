"""Transport-agnostic HTTP request handling (the server's brain).

The front end (:class:`~repro.engine.aserver.AsyncPrometheusServer`)
delegates every request to one :class:`HttpHandlers` instance: it
parses bytes into a :class:`Request`, calls :meth:`HttpHandlers.handle`
(or :meth:`HttpHandlers.serve_cached` for a loop-side hit), and writes
the returned :class:`Response` back to its socket.  Because the
routing, serialization, tracing, access logging and metrics all live
here, the core can be called in process without a socket — the oracle
the differential suite (``tests/engine/test_server_differential.py``)
replays against the served front end, request by request.

Beyond the routes documented in ``docs/SERVER.md``, this layer owns
three throughput features:

* **Content negotiation** — ``Accept: application/x-repb`` answers with
  the compact checksummed REPB v2 binary frame (:mod:`repro.engine.wire`)
  instead of JSON; ``Content-Type: application/x-repb`` submits a
  binary request body.  The payload tree is identical either way.
* **Pre-serialized response cache** — 200-responses of ``POST /query``
  and ``POST /resolve`` are cached as ready-to-send bytes, keyed by the
  raw request (path + body + codec) like the planner's literal-
  normalized plan cache, and stamped with the database's
  ``read_stamp()`` plus the cluster epoch.  Any schema change, commit,
  direct mutation, abort, index change or promotion changes the stamp
  and the entry misses — a cache hit never serves a stale byte.  Hits
  skip parsing, planning, evaluation *and* serialization; the
  ``repro_server_response_cache_*`` counters are reconciled at scrape
  time.  :meth:`HttpHandlers.serve_cached` is the hit half alone, for
  the async front end's event loop: it never runs a route, and on a
  miss it leaves the armed slot on the request so the worker's
  :meth:`HttpHandlers.handle` does not look it up twice.
* **Batched resolution** — ``POST /resolve`` answers many
  name→object/lineage lookups in one round-trip (the set-at-a-time
  access the OverRelational Manifesto argues a storage boundary should
  expose), using attribute indexes when they cover the probe.
"""

from __future__ import annotations

import json
import logging
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Any, Callable
from urllib.parse import parse_qs, unquote, urlparse

from ..classification import GraphView
from ..core.identity import OidRef
from ..core.instances import PObject
from ..core.metamodel import describe_class
from ..core.ops import Op
from ..core.relationships import RelationshipInstance
from ..concurrency import Session
from ..errors import (
    ConflictError,
    NodeDemotedError,
    PrometheusError,
    SchemaError,
    SessionError,
    SnapshotError,
    StalePrimaryError,
    UnknownOidError,
    WireError,
)
from ..telemetry import propagation
from . import wire
from .database import PrometheusDB
from .federation import Federation

_server_logger = logging.getLogger("repro.server")
_access_logger = logging.getLogger("repro.server.access")

#: Routes whose 200-responses are cached pre-serialized.
_CACHEABLE = {("POST", "query"), ("POST", "resolve")}

#: Ceiling on one ``POST /resolve`` batch.
MAX_RESOLVE_NAMES = 1000


def jsonable(value: Any) -> Any:
    """Convert query results / object state to JSON-safe structures."""
    if isinstance(value, PObject):
        data: dict[str, Any] = {
            "oid": value.oid,
            "class": value.pclass.name,
            "values": {k: jsonable(v) for k, v in value.attributes()},
        }
        if isinstance(value, RelationshipInstance):
            data["origin"] = value.origin_oid
            data["destination"] = value.destination_oid
        return data
    if isinstance(value, OidRef):
        return {"ref": value.oid}
    if isinstance(value, GraphView):
        return {
            "name": value.name,
            "nodes": {str(k): jsonable(v) for k, v in value.nodes.items()},
            "edges": [
                {
                    "from": p,
                    "to": c,
                    "relationship": r,
                    "attributes": jsonable(a),
                }
                for p, c, r, a in value.edges
            ],
        }
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


@dataclass
class Request:
    """One parsed HTTP request, as the transport hands it over.

    ``headers`` keys are lower-cased by the transport; ``path`` is the
    raw request target (path plus query string, still percent-encoded).
    """

    method: str
    path: str
    headers: dict[str, str] = field(default_factory=dict)
    body: bytes = b""
    #: The ``(key, stamp)`` response-cache slot armed by a front end
    #: whose one lookup (:meth:`HttpHandlers.serve_cached`) missed:
    #: :meth:`HttpHandlers.handle` fills it instead of probing again.
    cache_slot: tuple[tuple, tuple] | None = None

    def header(self, name: str, default: str | None = None) -> str | None:
        return self.headers.get(name, default)


@dataclass
class Response:
    """What the transport writes back: status, body, extra headers."""

    status: int = 0
    content_type: str = "application/json"
    body: bytes = b""
    headers: list[tuple[str, str]] = field(default_factory=list)


class ResponseCache:
    """LRU of pre-serialized 200-response bodies, with stamp validation.

    Every entry stores the stamp tuple it was built under; a lookup
    whose current stamp differs treats the entry as dead (evicts it and
    misses).  The stamp covers every input a read's bytes can depend
    on, so invalidation is automatic — there is no explicit flush.
    Hit/miss tallies are kept under the cache's own lock (authoritative,
    reconciled into the metrics registry at scrape time).
    """

    def __init__(self, capacity: int = 256) -> None:
        self.capacity = capacity
        self.hits = 0
        self.misses = 0
        self._lock = threading.Lock()
        self._entries: OrderedDict[
            tuple, tuple[tuple, str, bytes]
        ] = OrderedDict()

    def get(self, key: tuple, stamp: tuple) -> tuple[str, bytes] | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            entry_stamp, content_type, body = entry
            if entry_stamp != stamp:
                del self._entries[key]
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return content_type, body

    def put(
        self, key: tuple, stamp: tuple, content_type: str, body: bytes
    ) -> None:
        with self._lock:
            self._entries[key] = (stamp, content_type, body)
            self._entries.move_to_end(key)
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def snapshot(self) -> dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
            }


class HttpHandlers:
    """The shared request brain: route, serialize, trace, count.

    One instance per served node; safe to call from many threads at
    once (the front end's worker pool and its event-loop thread).
    Holds the node wiring: database, federation view, replication
    roles, HA controller, supervisor.
    """

    def __init__(
        self,
        db: PrometheusDB,
        federation: Federation | None = None,
        shipper: Any = None,
        replica_client: Any = None,
        primary_url: str | None = None,
        ha: Any = None,
        supervisor: Any = None,
        started_at: float = 0.0,
        cache_capacity: int = 256,
    ) -> None:
        self.db = db
        self.federation = federation
        self.shipper = shipper
        self.replica_client = replica_client
        self.primary_url = primary_url
        self.ha = ha
        self.supervisor = supervisor
        self.started_at = started_at or time.time()
        self.cache = ResponseCache(cache_capacity)
        if db.telemetry.enabled:
            db.telemetry.registry.add_collector(self._collect)

    def _collect(self, registry: Any) -> None:
        """Scrape-time reconciliation of the response-cache tallies."""
        snap = self.cache.snapshot()
        registry.counter(
            "repro_server_response_cache_hits_total",
            help="Responses served pre-serialized from the cache",
        ).value = snap["hits"]
        registry.counter(
            "repro_server_response_cache_misses_total",
            help="Cacheable requests that had to run and serialize",
        ).value = snap["misses"]
        registry.gauge(
            "repro_server_response_cache_entries",
            help="Pre-serialized responses currently cached",
        ).set(snap["entries"])

    # -- role helpers (HA owns the mutable role state when present) --------

    def _shipper(self) -> Any:
        return self.ha.shipper if self.ha is not None else self.shipper

    def _replica_client(self) -> Any:
        if self.ha is not None:
            return self.ha.replica_client
        return self.replica_client

    def _primary(self) -> str | None:
        if self.ha is not None:
            return self.ha.primary_url
        return self.primary_url

    def _epoch(self) -> int:
        """The cluster epoch this node serves under."""
        if self.ha is not None:
            return self.ha.epoch
        store = self.db.store
        return store.cluster_epoch if store is not None else 0

    # -- the entry point ---------------------------------------------------

    def handle(self, request: Request) -> Response:
        """Serve one request: the response cache, else the route."""
        started = time.perf_counter_ns()
        return self._envelope(_Exchange(self, request), started, serve=True)

    def serve_cached(self, request: Request) -> Response | None:
        """The cache-hit half of :meth:`handle`, for a front end that
        answers hits itself and hands only the rest to workers.

        Returns the hit (through the same envelope as :meth:`handle`),
        or ``None`` — after arming ``request.cache_slot`` on a miss, so
        the later :meth:`handle` neither probes nor counts it again.
        Never runs a route: cheap enough for an event-loop thread.
        """
        started = time.perf_counter_ns()
        exchange = _Exchange(self, request)
        if not self._probe_cache(exchange):
            request.cache_slot = exchange._cache_slot
            return None
        return self._envelope(exchange, started, serve=False)

    def _envelope(
        self, exchange: "_Exchange", started: int, serve: bool
    ) -> Response:
        """Route (when ``serve``) + catch errors + emit the access log
        and HTTP metrics; ``serve=False`` wraps a response the cache
        already filled in.

        Trace propagation happens here, once for every route, hit or
        miss: an inbound ``traceparent`` header is activated
        *as-is* (so the server span's parent is exactly the caller's
        recorded span id — the linkage a cross-node trace join relies
        on), a per-request ``http.request`` span is opened when
        telemetry is enabled, and the trace id is stamped into the
        response header, error payloads and access log.
        """
        request = exchange.request
        method = request.method or "?"
        remote = propagation.parse_traceparent(
            request.header("traceparent")
        )
        if remote is not None:
            propagation.push(remote)
        tel = self.db.telemetry
        span = None
        if tel.enabled:
            span = tel.tracer.span(
                "http.request",
                method=method,
                path=urlparse(request.path or "").path,
            )
            span.__enter__()
            exchange._trace_id = span.trace_id
        else:
            exchange._trace_id = (
                remote.trace_id if remote is not None else None
            )
        try:
            if serve and not self._probe_cache(exchange):
                exchange.dispatch()
        except PrometheusError as exc:
            exchange._error(400, str(exc))
        except Exception as exc:  # pragma: no cover - defensive
            exchange._error(500, f"{type(exc).__name__}: {exc}")
        finally:
            if span is not None:
                span.set("status", exchange.response.status)
                span.__exit__(None, None, None)
            if remote is not None:
                propagation.pop(remote)
            if exchange._trace_id:
                exchange.response.headers.append(
                    ("X-Repro-Trace-Id", exchange._trace_id)
                )
            duration_ms = (time.perf_counter_ns() - started) / 1e6
            # The access line is formatted only when a handler is
            # actually listening: under load the string build and the
            # extra-dict allocation are real costs on the serve path.
            if _access_logger.isEnabledFor(logging.INFO):
                path = request.path or "?"
                _access_logger.info(
                    "%s %s status=%d duration_ms=%.2f trace=%s",
                    method,
                    path,
                    exchange.response.status,
                    duration_ms,
                    exchange._trace_id or "-",
                    extra={
                        "http_method": method,
                        "http_path": path,
                        "http_status": exchange.response.status,
                        "duration_ms": round(duration_ms, 3),
                        "trace_id": exchange._trace_id,
                    },
                )
            if tel.enabled:
                tel.registry.counter(
                    "repro_http_requests_total",
                    {
                        "method": method,
                        "status": str(exchange.response.status),
                    },
                    help="HTTP requests served",
                ).inc()
                tel.registry.histogram(
                    "repro_http_request_ms",
                    help="HTTP request handling latency (ms)",
                ).observe(duration_ms)
        return exchange.response

    # -- the response cache ------------------------------------------------

    def _stamp(self) -> tuple:
        """The invalidation stamp: :meth:`PrometheusDB.read_stamp` (every
        version a read can depend on) plus the cluster epoch this node
        serves under — a promotion must never serve the deposed reign's
        bytes, and under HA the epoch comes from the controller."""
        return self.db.read_stamp() + (self._epoch(),)

    def _cache_key(self, request: Request) -> tuple | None:
        parts = [p for p in urlparse(request.path).path.split("/") if p]
        if len(parts) != 1:
            return None
        if (request.method, parts[0]) not in _CACHEABLE:
            return None
        return (
            request.method,
            request.path,
            request.body,
            wire.accepts_repb(request.header("accept")),
        )

    def _probe_cache(self, exchange: "_Exchange") -> bool:
        """Try the pre-serialized cache; arm insertion on miss."""
        request = exchange.request
        if request.cache_slot is not None:
            # Already looked up (and counted) by the front end.
            exchange._cache_slot = request.cache_slot
            return False
        key = self._cache_key(request)
        if key is None:
            return False
        stamp = self._stamp()
        hit = self.cache.get(key, stamp)
        if hit is None:
            # The route's _send will insert the serialized 200 body
            # under this (key, stamp) — stamped *before* execution, so
            # a mutation racing the read can only under-cache, never
            # poison the entry.
            exchange._cache_slot = (key, stamp)
            return False
        content_type, body = hit
        exchange.response.status = 200
        exchange.response.content_type = content_type
        exchange.response.body = body
        return True


class _Exchange:
    """Per-request state + every route.

    It reads a :class:`Request`, fills in a :class:`Response`, and
    never touches a transport.
    """

    def __init__(self, core: HttpHandlers, request: Request) -> None:
        self.core = core
        self.db = core.db
        self.request = request
        self.path = request.path
        self.response = Response()
        self._trace_id: str | None = None
        self._cache_slot: tuple[tuple, tuple] | None = None
        self._repb_out = wire.accepts_repb(request.header("accept"))

    # -- response plumbing -------------------------------------------------

    def _send(self, status: int, payload: Any) -> None:
        if status >= 400 and isinstance(payload, dict):
            # Error bodies carry the trace id so a client retry loop
            # (conflict, stale-primary) can be correlated with the
            # server-side spans that produced each rejection.
            if self._trace_id and "trace_id" not in payload:
                payload = dict(payload, trace_id=self._trace_id)
        if self._repb_out:
            body = wire.encode_frame(payload)
            content_type = wire.CONTENT_TYPE
        else:
            body = json.dumps(payload, indent=2).encode("utf-8")
            content_type = "application/json"
        self._send_bytes(status, content_type, body)
        if status == 200 and self._cache_slot is not None:
            key, stamp = self._cache_slot
            self.core.cache.put(key, stamp, content_type, body)

    def _send_bytes(
        self, status: int, content_type: str, body: bytes
    ) -> None:
        self.response.status = status
        self.response.content_type = content_type
        self.response.body = body

    def _error(self, status: int, message: str) -> None:
        self._send(status, {"error": message})

    # -- dispatch ----------------------------------------------------------

    def dispatch(self) -> None:
        method = self.request.method
        if method == "GET":
            self._route_get()
        elif method == "POST":
            self._route_post()
        else:
            self._error(501, f"method {method!r} not supported")

    # -- GET routes --------------------------------------------------------

    def _route_get(self) -> None:
        db = self.db
        parsed = urlparse(self.path)
        parts = [unquote(p) for p in parsed.path.split("/") if p]
        if len(parts) == 2 and parts[0] == "trace":
            trace_id = parts[1].lower()
            spans = db.telemetry.traces.spans(trace_id)
            if not spans:
                self._error(404, f"no spans retained for trace {parts[1]!r}")
                return
            self._send(
                200,
                {
                    "trace_id": trace_id,
                    "node": db.telemetry.traces.node,
                    "spans": spans,
                },
            )
            return
        if parts == ["events"]:
            query = parse_qs(parsed.query)
            try:
                since = int(query.get("since", ["0"])[0])
            except ValueError:
                self._error(400, "'since' must be an integer")
                return
            journal = db.telemetry.events
            self._send(
                200,
                {
                    "node": journal.node,
                    "last_seq": journal.last_seq,
                    "events": journal.events(since=since),
                },
            )
            return
        if parts == ["cluster", "metrics"]:
            if self.core.federation is None:
                self._error(404, "this node aggregates no cluster")
                return
            self._send(200, self.core.federation.cluster_metrics())
            return
        if parts == ["cluster", "overview"]:
            if self.core.federation is None:
                self._error(404, "this node aggregates no cluster")
                return
            overview = self.core.federation.cluster_overview()
            if self.core.supervisor is not None:
                overview["supervisor"] = self.core.supervisor.status()
            self._send(200, overview)
            return
        if parts == ["health"]:
            self._send(200, self._health_payload())
            return
        if parts == ["health", "liveness"]:
            # Deliberately minimal: plain attribute reads only, no store
            # or session locks — a node wedged on a lock still answers,
            # and the failure detector measures *process* liveness.
            self._send(
                200,
                {
                    "status": "alive",
                    "role": self._role(),
                    "epoch": self.core._epoch(),
                    "uptime_s": round(
                        time.time() - self.core.started_at, 3
                    )
                    if self.core.started_at
                    else None,
                },
            )
            return
        if parts == ["health", "readiness"]:
            ready, reasons = self._readiness()
            self._send(
                200 if ready else 503,
                {"ready": ready, "reasons": reasons, "role": self._role()},
            )
            return
        if parts == ["ha", "status"]:
            if self.core.ha is None:
                self._error(404, "this node has no HA controller")
                return
            self._send(200, self.core.ha.status())
            return
        if parts == ["metrics"]:
            text = self.db.telemetry.registry.render_prometheus()
            self._send_bytes(
                200,
                "text/plain; version=0.0.4; charset=utf-8",
                text.encode("utf-8"),
            )
            return
        if parts == ["stats"]:
            self._send(200, self.db.telemetry.snapshot())
            return
        if parts == ["schema"]:
            self._send(200, jsonable(db.describe()))
            return
        if len(parts) >= 2 and parts[0] == "classes":
            name = parts[1]
            if not db.schema.has_class(name):
                self._error(404, f"unknown class {name!r}")
                return
            if len(parts) == 2:
                self._send(
                    200, jsonable(describe_class(db.schema.get_class(name)))
                )
                return
            if len(parts) == 3 and parts[2] == "extent":
                self._send(
                    200, [obj.oid for obj in db.schema.extent(name)]
                )
                return
        if len(parts) == 2 and parts[0] == "objects":
            try:
                oid = int(parts[1])
            except ValueError:
                self._error(400, "oid must be an integer")
                return
            if not db.schema.has_object(oid):
                self._error(404, f"no object {oid}")
                return
            self._send(200, jsonable(db.schema.get_object(oid)))
            return
        if len(parts) == 2 and parts[0] == "session":
            try:
                session = db.sessions.get(parts[1])
            except SessionError as exc:
                self._error(404, str(exc))
                return
            self._send(200, session.info())
            return
        if parts == ["replicate", "status"]:
            shipper = self.core._shipper()
            replica_client = self.core._replica_client()
            payload: dict[str, Any] = {
                "role": self._role(),
                "commit_lsn": db.store.commit_lsn
                if db.store is not None
                else None,
                "applied_lsn": db.store.commit_lsn
                if db.store is not None
                else None,
                "epoch": self.core._epoch(),
                # The reign the log's data belongs to — the failover
                # census ranks candidates by this, not the wire epoch.
                "log_epoch": db.store.cluster_epoch
                if db.store is not None
                else 0,
            }
            if shipper is not None:
                payload["shipping"] = shipper.status()
            if replica_client is not None:
                payload["applying"] = replica_client.status()
                payload["primary_url"] = self.core._primary()
            self._send(200, payload)
            return
        if parts == ["classifications"]:
            self._send(200, db.classifications.names())
            return
        if len(parts) == 2 and parts[0] == "classifications":
            name = parts[1]
            if name not in db.classifications:
                self._error(404, f"unknown classification {name!r}")
                return
            classification = db.classifications.get(name)
            self._send(
                200,
                {
                    "name": classification.name,
                    "author": classification.author,
                    "year": classification.year,
                    "edges": [
                        {
                            "oid": e.oid,
                            "from": e.origin_oid,
                            "to": e.destination_oid,
                            "relationship": e.pclass.name,
                        }
                        for e in classification.edges()
                    ],
                    "roots": [r.oid for r in classification.roots()],
                },
            )
            return
        self._error(404, f"no route for {self.path!r}")

    def _health_payload(self) -> dict[str, Any]:
        """Store/recovery status for operators and federation probes.

        ``status`` is ``"ok"`` for an in-memory or cleanly recovered
        database and ``"degraded"`` when the last recovery had to drop,
        truncate, or salvage anything — a node that lost data says so.
        """
        db = self.db
        store = db.store
        payload: dict[str, Any] = {
            "status": "ok",
            "uptime_s": round(time.time() - self.core.started_at, 3)
            if self.core.started_at
            else None,
            "classes": sum(1 for _ in db.schema.classes()),
            "classifications": len(db.classifications.names()),
            "store": None,
            "telemetry": db.telemetry.summary(),
            "transactions": db.transactions.snapshot(),
            "sessions": db._sessions.snapshot()
            if db._sessions is not None
            else None,
        }
        if store is not None:
            report = getattr(store, "last_recovery", None)
            payload["store"] = {
                "path": store.path,
                "file_size": store.file_size,
                "live_records": len(store),
                "in_transaction": store.in_transaction,
                # A store without a recovery report (never recovered, or
                # a minimal store implementation) is not an error: the
                # health check reports the absence and stays "ok".
                "recovery": report.as_dict() if report is not None else None,
            }
            if report is not None and not report.clean:
                payload["status"] = "degraded"
        federation = self.core.federation
        if federation is not None:
            payload["federation"] = {
                name: {
                    "breaker": federation.breaker(name).state,
                    "consecutive_failures": federation.breaker(
                        name
                    ).consecutive_failures,
                }
                for name in sorted(federation.nodes)
            }
        shipper = self.core._shipper()
        replica_client = self.core._replica_client()
        if shipper is not None or replica_client is not None:
            replication: dict[str, Any] = {"role": self._role()}
            if shipper is not None:
                status = shipper.status()
                replication["commit_lsn"] = status["commit_lsn"]
                replication["replicas"] = status["replicas"]
                replication["lag_bytes"] = status["lag_bytes"]
                replication["epoch"] = status.get("epoch", 0)
            if replica_client is not None:
                replication["applying"] = replica_client.status()
                if not replica_client.running:
                    payload["status"] = "degraded"
            payload["replication"] = replication
        if self.core.ha is not None:
            payload["ha"] = self.core.ha.status()
        return payload

    def _readiness(self) -> tuple[bool, list[str]]:
        """May this node serve its role right now?  (reasons when not)

        A fenced node is not ready (clients should go to the successor),
        a replica whose pull loop died is not ready (it only gets
        staler), a store that needed salvage on recovery is not ready
        until an operator looks at it.
        """
        reasons: list[str] = []
        store = self.db.store
        if store is not None:
            report = getattr(store, "last_recovery", None)
            if report is not None and not report.clean:
                reasons.append("recovery-not-clean")
        if self.core.ha is not None and self.core.ha.fenced:
            reasons.append("fenced")
        replica_client = self.core._replica_client()
        if replica_client is not None and not replica_client.running:
            reasons.append("pull-loop-stopped")
        return not reasons, reasons

    def _role(self) -> str:
        ha = self.core.ha
        if ha is not None:
            return ha.role if not ha.fenced else "fenced"
        if self.core._replica_client() is not None:
            return "replica"
        if self.core._shipper() is not None:
            return "primary"
        return "standalone"

    # -- reads -------------------------------------------------------------

    def _run_query(
        self,
        text: str,
        params: dict[str, Any] | None,
        as_of: int | None = None,
    ) -> Any:
        """Run a read at a commit boundary, never over a half-applied
        batch: under the applier's read lock on a replica, under the
        commit lock on a primary (a commit replays into the live object
        layer before it publishes its LSN).  ``as_of`` reads resolve
        against immutable version chains, so they take neither lock —
        time travel never waits behind a splice or a commit."""
        replica_client = self.core._replica_client()
        if replica_client is not None:
            return replica_client.applier.query(
                text, params=params, as_of=as_of
            )
        if as_of is not None:
            return self.db.query(text, params=params, as_of=as_of)
        with self.db.transactions.read_lock():
            return self.db.query(text, params=params)

    def _query_as_of(self, payload: dict[str, Any]) -> int | None:
        """``as_of`` from the JSON body or the ``?as_of=`` query string.

        Anything but an integer (a bool, a float, a non-numeric string)
        is a malformed request, answered 400 — never read as some LSN,
        never reported as an unavailable snapshot."""
        as_of = payload.get("as_of")
        if as_of is None:
            values = parse_qs(urlparse(self.path).query).get("as_of")
            if values:
                try:
                    as_of = int(values[0])
                except ValueError:
                    as_of = values[0]
        if as_of is None:
            return None
        if isinstance(as_of, bool) or not isinstance(as_of, int):
            raise _RequestError(
                400, f"as_of must be an integer LSN, got {as_of!r}"
            )
        return as_of

    def _snapshot_unavailable(self, exc: SnapshotError) -> None:
        self._send(
            404,
            {
                "error": str(exc),
                "snapshot": "unavailable",
                "floor": self.db.mvcc.floor,
                "head": self.db.lsn,
            },
        )

    # -- POST routes ---------------------------------------------------------

    def _route_post(self) -> None:
        raw = self.request.body or b"{}"
        if wire.is_repb(self.request.header("content-type")):
            try:
                payload = wire.decode_frame(raw)
            except WireError as exc:
                self._error(400, f"invalid REPB body: {exc}")
                return
        else:
            try:
                payload = json.loads(raw.decode("utf-8"))
            except (ValueError, UnicodeDecodeError):
                self._error(400, "invalid JSON body")
                return
        parts = [p for p in urlparse(self.path).path.split("/") if p]
        if parts == ["query"]:
            if not isinstance(payload, dict):
                self._error(400, "body must be an object")
                return
            text = payload.get("query", "")
            params = payload.get("params", {})
            if not isinstance(text, str) or not text.strip():
                self._error(400, "missing 'query'")
                return
            # The LSN this read reflects, taken before the query runs so
            # the answer is no older than it: staleness-bounded readers
            # trust it against their floor, and one taken afterwards may
            # include a frame applied after the read lock was released.
            store = self.db.store
            lsn = None if store is None else store.commit_lsn
            try:
                as_of = self._query_as_of(payload)
                result = self._run_query(text, params, as_of=as_of)
            except SnapshotError as exc:
                self._snapshot_unavailable(exc)
                return
            except PrometheusError as exc:
                self._error(400, str(exc))
                return
            body: dict[str, Any] = {"result": jsonable(result)}
            if as_of is not None:
                body["as_of"] = as_of
            if lsn is not None:
                body["lsn"] = lsn
            self._send(200, body)
            return
        if parts == ["resolve"]:
            if not isinstance(payload, dict):
                self._error(400, "body must be an object")
                return
            self._route_resolve(payload)
            return
        if parts == ["replicate", "pull"]:
            self._route_pull(payload)
            return
        if parts and parts[0] == "ha":
            self._route_ha(parts[1:], payload)
            return
        if parts and parts[0] == "session":
            self._route_session(parts[1:], payload)
            return
        self._error(404, f"no route for {self.path!r}")

    # -- batched name resolution ---------------------------------------------

    def _route_resolve(self, payload: dict[str, Any]) -> None:
        """Many name→object/lineage lookups in one round-trip."""
        if "oids" in payload:
            self._route_resolve_oids(payload)
            return
        names = payload.get("names")
        if not isinstance(names, list) or not all(
            isinstance(n, str) for n in names
        ):
            self._error(400, "missing 'names' (a list of strings)")
            return
        if len(names) > MAX_RESOLVE_NAMES:
            self._error(
                400,
                f"too many names: {len(names)} > {MAX_RESOLVE_NAMES} "
                "per batch",
            )
            return
        attr = payload.get("attr", "name")
        if not isinstance(attr, str):
            self._error(400, "'attr' must be a string")
            return
        class_name = payload.get("class")
        want_lineage = bool(payload.get("lineage", False))
        classification_name = payload.get("classification")
        try:
            as_of = self._query_as_of(payload)
        except _RequestError as exc:
            self._error(exc.status, str(exc))
            return
        replica_client = self.core._replica_client()
        try:
            if as_of is not None:
                # Immutable snapshot view: no lock needed, identical on
                # every node that applied the same log prefix.
                schema, classifications = self.db._snapshot_view(as_of)
                body = self._resolve(
                    schema, classifications, None, names, attr,
                    class_name, want_lineage, classification_name,
                )
            elif replica_client is not None:
                with replica_client.applier.read_lock():
                    body = self._resolve(
                        self.db.schema, self.db.classifications,
                        None, names, attr,
                        class_name, want_lineage, classification_name,
                    )
            else:
                body = self._resolve(
                    self.db.schema, self.db.classifications,
                    self.db.indexes.probe, names, attr,
                    class_name, want_lineage, classification_name,
                )
        except SnapshotError as exc:
            self._snapshot_unavailable(exc)
            return
        except _RequestError as exc:
            self._error(exc.status, str(exc))
            return
        if as_of is not None:
            body["as_of"] = as_of
        body["lsn"] = self.db.lsn
        self._send(200, body)

    def _route_resolve_oids(self, payload: dict[str, Any]) -> None:
        """Batched OID→record resolution: the shard coordinator's
        cross-shard endpoint-fetch fan-out (one POST per shard instead
        of one GET per dangling relationship endpoint)."""
        oids = payload.get("oids")
        if not isinstance(oids, list) or not all(
            isinstance(o, int) and not isinstance(o, bool) for o in oids
        ):
            self._error(400, "missing 'oids' (a list of integers)")
            return
        if len(oids) > MAX_RESOLVE_NAMES:
            self._error(
                400,
                f"too many oids: {len(oids)} > {MAX_RESOLVE_NAMES} "
                "per batch",
            )
            return
        try:
            as_of = self._query_as_of(payload)
            if as_of is not None:
                schema, _ = self.db._snapshot_view(as_of)
            else:
                schema = self.db.schema
        except _RequestError as exc:
            self._error(exc.status, str(exc))
            return
        except SnapshotError as exc:
            self._snapshot_unavailable(exc)
            return
        records = []
        for oid in sorted(set(oids)):
            if schema.has_object(oid):
                obj = schema.get_object(oid)
                records.append([oid, schema.to_record(obj)])
        body: dict[str, Any] = {"records": records, "lsn": self.db.lsn}
        if as_of is not None:
            body["as_of"] = as_of
        self._send(200, body)

    def _resolve(
        self,
        schema: Any,
        classifications: Any,
        probe: Callable[[str, str, Any], list[PObject] | None] | None,
        names: list[str],
        attr: str,
        class_name: str | None,
        want_lineage: bool,
        classification_name: Any,
    ) -> dict[str, Any]:
        if class_name is not None:
            if not schema.has_class(class_name):
                raise _RequestError(404, f"unknown class {class_name!r}")
            candidates = [class_name]
        else:
            # Every top-level concrete class declaring the attribute;
            # subclasses are reached through the polymorphic extent.
            candidates = sorted(
                pclass.name
                for pclass in schema.classes()
                if pclass.has_attribute(attr)
                and not pclass.is_relationship_class
                and not any(
                    sup.has_attribute(attr) for sup in pclass.mro[1:]
                )
            )
        lineage_sources: list[Any] = []
        if classification_name is not None:
            if classification_name not in classifications:
                raise _RequestError(
                    404,
                    f"unknown classification {classification_name!r}",
                )
            lineage_sources = [classifications.get(classification_name)]
            want_lineage = True
        elif want_lineage:
            lineage_sources = [
                classifications.get(name)
                for name in classifications.names()
            ]
        membership: list[tuple[Any, set[int]]] = [
            (c, set(c.node_oids())) for c in lineage_sources
        ]
        results: dict[str, list[dict[str, Any]]] = {}
        missing: list[str] = []
        for name in names:
            matches: dict[int, PObject] = {}
            for cls in candidates:
                rows = probe(cls, attr, name) if probe is not None else None
                if rows is None:
                    rows = [
                        obj
                        for obj in schema.extent(cls)
                        if obj.pclass.has_attribute(attr)
                        and obj.get(attr) == name
                    ]
                for obj in rows:
                    matches[obj.oid] = obj
            entries: list[dict[str, Any]] = []
            for oid in sorted(matches):
                entry = jsonable(matches[oid])
                if want_lineage:
                    entry["lineage"] = [
                        {
                            "classification": c.name,
                            "ancestors": [
                                {
                                    "oid": a.oid,
                                    "class": a.pclass.name,
                                    attr: a.get(attr)
                                    if a.pclass.has_attribute(attr)
                                    else None,
                                }
                                for a in c.ancestors(oid)
                            ],
                        }
                        for c, members in membership
                        if oid in members
                    ]
                entries.append(entry)
            if entries:
                results[name] = entries
            else:
                missing.append(name)
        return {
            "results": results,
            "resolved": len(results),
            "missing": missing,
        }

    # -- replication / HA ----------------------------------------------------

    def _route_pull(self, payload: dict[str, Any]) -> None:
        """One replica pull against the local shipper (primary role)."""
        shipper = self.core._shipper()
        if shipper is None:
            self._error(404, "this node does not ship its log")
            return
        try:
            from_lsn = int(payload.get("from_lsn", 0))
            wait_s = float(payload.get("wait_s", 0.0))
            prefix_crc = payload.get("prefix_crc")
            prefix_crc = None if prefix_crc is None else int(prefix_crc)
            max_bytes = payload.get("max_bytes")
            max_bytes = None if max_bytes is None else int(max_bytes)
            epoch = payload.get("epoch")
            epoch = None if epoch is None else int(epoch)
        except (TypeError, ValueError):
            self._error(400, "pull fields must be numeric")
            return
        ha = self.core.ha
        if epoch is not None and ha is not None:
            # A puller reporting a higher epoch is proof of a promotion
            # this node missed: self-fence before even consulting the
            # shipper, so the write path closes in the same breath.
            ha.observe_epoch(epoch)
        status, frame = shipper.pull(
            from_lsn,
            prefix_crc=prefix_crc,
            wait_s=wait_s,
            max_bytes=max_bytes,
            replica=str(payload.get("replica", "")),
            epoch=epoch,
        )
        if status == "stale-primary":
            self._send(
                409,
                {
                    "status": "stale-primary",
                    "conflict_kind": "stale-primary",
                    "epoch": ha.epoch if ha is not None else shipper.epoch,
                    "primary_url": self.core._primary(),
                },
            )
            return
        if status == "diverged":
            self._send(
                409, {"status": "diverged", "conflict_kind": "diverged"}
            )
            return
        if status == "empty":
            self._send_bytes(204, "application/octet-stream", b"")
            return
        self._send_bytes(200, "application/octet-stream", frame or b"")

    def _route_ha(self, parts: list[str], payload: dict[str, Any]) -> None:
        """HA transitions, executed by the node's controller."""
        ha = self.core.ha
        if ha is None:
            self._error(404, "this node has no HA controller")
            return
        action = parts[0] if len(parts) == 1 else None
        try:
            if action == "promote":
                lsn = ha.promote(int(payload.get("epoch", 0)))
                self._send(
                    200,
                    {
                        "promoted": True,
                        "epoch": ha.epoch,
                        "stamp_lsn": lsn,
                    },
                )
                return
            if action == "demote":
                ha.demote(
                    int(payload.get("epoch", 0)),
                    payload.get("primary_url"),
                )
                self._send(200, {"demoted": True, "epoch": ha.epoch})
                return
            if action == "repoint":
                ha.repoint(
                    str(payload.get("primary_url", "")),
                    int(payload.get("epoch", 0)),
                )
                client = ha.replica_client
                if client is not None and not client.running:
                    client.start()
                self._send(
                    200,
                    {
                        "repointed": True,
                        "primary_url": ha.primary_url,
                        "epoch": ha.epoch,
                    },
                )
                return
            if action == "lease":
                ha.grant_lease(
                    int(payload.get("epoch", 0)),
                    float(payload.get("ttl_s", 0.0)),
                )
                self._send(200, {"leased": True, "epoch": ha.epoch})
                return
        except StalePrimaryError as exc:
            self._send(
                409,
                {
                    "error": str(exc),
                    "status": "stale-primary",
                    "conflict_kind": "stale-primary",
                    "epoch": exc.epoch,
                    "primary_url": exc.primary_url or self.core._primary(),
                },
            )
            return
        except (TypeError, ValueError):
            self._error(400, "ha fields must be numeric")
            return
        self._error(404, f"no route for {self.path!r}")

    # -- session-scoped transactions (repro.concurrency) --------------------

    def _route_session(self, parts: list[str], payload: Any) -> None:
        db = self.db
        if not parts:  # POST /session — issue a token
            try:
                session = db.sessions.create()
            except SessionError as exc:
                self._error(429, str(exc))
                return
            self._send(201, {"session": session.session_id})
            return
        try:
            session = db.sessions.get(parts[0])
        except SessionError as exc:
            self._error(404, str(exc))
            return
        action = parts[1] if len(parts) == 2 else None
        if action == "query":
            text = payload.get("query", "")
            if not isinstance(text, str) or not text.strip():
                self._error(400, "missing 'query'")
                return
            # Queries run over committed state (read-committed): the
            # session's staged writes are not yet query-visible — see
            # docs/CONCURRENCY.md.
            try:
                as_of = self._query_as_of(payload)
                result = self._run_query(
                    text, payload.get("params", {}), as_of=as_of
                )
            except _RequestError as exc:
                self._error(exc.status, str(exc))
                return
            except SnapshotError as exc:
                self._snapshot_unavailable(exc)
                return
            self._send(200, {"result": jsonable(result)})
            return
        if action in ("apply", "commit"):
            if self.core._replica_client() is not None:
                self._send(
                    403,
                    {
                        "error": "this node is a read replica; "
                        "writes go to the primary",
                        "primary_url": self.core._primary(),
                    },
                )
                return
            ha = self.core.ha
            if ha is not None and not ha.writes_allowed():
                # Fenced (or lease-expired) ex-primary: 409 + the
                # current epoch, so the client rediscovers instead of
                # retrying against a node that can never accept.
                tel = db.telemetry
                if tel.enabled:
                    tel.registry.counter(
                        "repro_ha_fenced_writes_total",
                        help="Writes refused because this node is "
                        "fenced or lost its lease",
                    ).inc()
                self._send(
                    409,
                    {
                        "error": "this node is fenced: it is not the "
                        "current primary",
                        "conflict_kind": "fenced",
                        "stale_primary": True,
                        "epoch": ha.epoch,
                        "primary_url": self.core._primary(),
                        "retry": True,
                    },
                )
                return
        if action == "apply":
            ops = payload.get("ops")
            if not isinstance(ops, list):
                self._error(400, "missing 'ops' (a list)")
                return
            try:
                results = self._apply_ops(session, ops)
            except NodeDemotedError as exc:
                self._send_demoted(exc)
                return
            self._send(200, {"results": results})
            return
        if action == "commit":
            try:
                ts = session.commit()
            except NodeDemotedError as exc:
                self._send_demoted(exc)
                return
            except ConflictError as exc:
                # Machine-readable rejection: write-write validation
                # lost the race (vs the fencing/demotion 409s, which
                # carry their own conflict_kind).  ``stale_oids`` names
                # the objects another transaction committed first.
                self._send(
                    409,
                    {
                        "error": str(exc),
                        "conflict": True,
                        "conflict_kind": "write-write",
                        "stale_oids": list(exc.oids),
                        "retry": True,
                    },
                )
                return
            body: dict[str, Any] = {
                "committed": True,
                "commit_ts": ts,
                # For read-your-writes routing: reads bounded by this
                # LSN must go to nodes that have applied it.
                "commit_lsn": session.last_commit_lsn,
            }
            min_acks = payload.get("wait_replicated")
            shipper = self.core._shipper()
            if min_acks and shipper is not None:
                # Semi-synchronous ack: only report replicated=True once
                # the commit's bytes were pulled by that many replicas.
                body["replicated"] = shipper.wait_replicated(
                    session.last_commit_lsn or 0,
                    min_acks=int(min_acks),
                    timeout_s=float(payload.get("wait_timeout_s", 5.0)),
                )
            self._send(200, body)
            return
        if action == "abort":
            session.abort()
            self._send(200, {"aborted": True})
            return
        if action == "release":
            db.sessions.release(session.session_id)
            self._send(200, {"released": True})
            return
        self._error(404, f"no route for {self.path!r}")

    def _send_demoted(self, exc: NodeDemotedError) -> None:
        """The typed demotion answer: 409 + the successor's address."""
        self._send(
            409,
            {
                "error": str(exc),
                "demoted": True,
                "conflict_kind": "demoted",
                "epoch": exc.epoch,
                "primary_url": exc.primary_url or self.core._primary(),
                "retry": True,
            },
        )

    def _apply_ops(self, session: Session, ops: list[Any]) -> list[Any]:
        """Stage each op on the session's transaction, in order.

        ``get`` reads and ``update`` is a run of sets; every other body
        is parsed by :meth:`Op.from_json` and staged.  Staging is
        fail-fast: an invalid op raises (→ 400) and ops after it are not
        staged; ops before it remain staged — the client decides whether
        to commit, abort, or re-send.
        """
        txn = session.txn
        results: list[Any] = []
        for body in ops:
            kind = body.get("op") if isinstance(body, dict) else None
            try:
                if kind == "get":
                    values = txn.get(int(body["oid"]))
                    results.append({"values": jsonable(values)})
                    continue
                if kind == "update":
                    txn.update(int(body["oid"]), **body.get("attrs", {}))
                    oid = None
                else:
                    oid = txn.stage(Op.from_json(body))
            except UnknownOidError:
                raise  # a KeyError too, but it names an OID, not a field
            except KeyError as exc:
                raise SchemaError(
                    f"op {kind!r} is missing field {exc.args[0]!r}"
                ) from None
            results.append({"ok": True} if oid is None else {"oid": oid})
        return results


class _RequestError(PrometheusError):
    """Internal: a request failed with a specific status."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status
