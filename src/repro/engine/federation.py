"""Federation over localised taxonomic databases (thesis chapter 8).

The thesis closes by naming, as further work, "distribution of the
system over many localised taxonomic database systems" — the vision of
herbarium-local Prometheus installations queried as one.  This module
implements that layer on top of the HTTP access layer (§6.1.7):

* :class:`RemoteDatabase` — the keep-alive HTTP client for one node
  (queries, HA control calls, replication pulls);
* :class:`Federation` — fans a POOL query out to every node, collects
  per-node results, routes reads to replicas under a staleness bound,
  and offers the cross-herbarium conveniences the thesis motivates
  (find a name anywhere; which nodes classify a given epithet;
  aggregate counts).

The federation is read-only: each node stays autonomous (its own rules,
its own classifications), which is exactly the multiple-overlapping-
classifications stance — no global merged hierarchy is ever fabricated.

Resilience
----------
Herbarium nodes are expected to be flaky — dial-up era links, machines
under desks.  The fan-out therefore degrades rather than fails, and the
degradation is *visible*:

* per-node **retry** with exponential backoff and seeded jitter
  (:class:`RetryPolicy`);
* a per-node **circuit breaker** (:class:`CircuitBreaker`): after N
  consecutive failures the node is skipped outright until a cooldown
  elapses, then a single half-open probe decides whether to close the
  circuit again;
* **concurrent fan-out with an overall deadline** in
  :meth:`Federation._scatter`, the one routine every multi-node call to
  remote nodes goes through: a hung node costs the deadline, not the
  sum of every node's timeout, and is reported as failed;
* aggregates such as :meth:`Federation.count_all` carry ``__errors__``
  and ``__partial__`` markers so a degraded answer can never be
  mistaken for a complete one.
"""

from __future__ import annotations

import concurrent.futures
import http.client
import json
import math
import random
import threading
import time
import urllib.parse
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable

from ..errors import (
    PrometheusError,
    ReplicationError,
    StalePrimaryError,
    WireError,
)
from ..telemetry import DISABLED, Telemetry, propagation
from ..telemetry.metrics import parse_prometheus
from . import wire


class FederationError(PrometheusError):
    """A remote node failed or answered malformed data."""


class CircuitOpenError(FederationError):
    """The node's circuit breaker is open; the call was not attempted."""


def _decode(content_type: str | None, raw: bytes) -> Any:
    """A response body by its ``Content-Type``: REPB, text, or JSON."""
    if wire.is_repb(content_type):
        return wire.decode_frame(raw)
    if content_type and content_type.startswith("text/plain"):
        return raw.decode("utf-8")
    return json.loads(raw.decode("utf-8"))


class RemoteDatabase:
    """HTTP client for one Prometheus node — the one client of the wire.

    Connections are kept alive: idle ones sit on a lock-guarded stack;
    a call takes one (or opens one) and puts it back after a complete
    response the server did not mark ``Connection: close``.  A
    connection that raised or timed out is closed, never returned.  A
    *reused* connection that fails before a status line (the server
    closed it while idle) is retried once on a fresh one.

    Every request asks for REPB response bodies (:mod:`repro.engine.wire`
    decodes them to the same payload tree as JSON) and carries the
    caller's ``traceparent``.  :meth:`pull` has the shipper's signature,
    so a ``RemoteDatabase`` is also a replica's pull transport.
    """

    def __init__(self, url: str, timeout: float = 10.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout
        parsed = urllib.parse.urlsplit(self.url)
        if parsed.scheme != "http":
            raise FederationError(f"{url}: only http:// URLs are supported")
        self._host = parsed.hostname or "127.0.0.1"
        self._port = parsed.port
        self._prefix = parsed.path
        self._idle: list[http.client.HTTPConnection] = []
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close the idle kept-alive connections (idempotent)."""
        with self._lock:
            idle, self._idle = self._idle, []
        for conn in idle:
            conn.close()

    # -- raw HTTP ---------------------------------------------------------

    def _request(
        self,
        method: str,
        path: str,
        payload: dict[str, Any] | None = None,
        timeout: float | None = None,
    ) -> tuple[int, str, str | None, bytes]:
        """One request on a pooled connection: ``(status, reason,
        content type, body)``.  Transport failures raise
        ``http.client.HTTPException`` or ``OSError``."""
        headers = {"Accept": wire.CONTENT_TYPE}
        body = None
        if payload is not None:
            body = json.dumps(payload).encode("utf-8")
            headers["Content-Type"] = "application/json"
        ctx = propagation.current()
        if ctx is not None:
            headers[propagation.TRACEPARENT_HEADER] = (
                propagation.format_traceparent(ctx)
            )
        if timeout is None:
            timeout = self.timeout
        for attempt in (0, 1):
            with self._lock:
                conn = self._idle.pop() if self._idle else None
            reused = conn is not None
            if conn is None:
                conn = http.client.HTTPConnection(
                    self._host, self._port, timeout=timeout
                )
            else:
                conn.timeout = timeout
                if conn.sock is not None:
                    conn.sock.settimeout(timeout)
            response = None
            try:
                conn.request(
                    method, self._prefix + path, body=body, headers=headers
                )
                response = conn.getresponse()
                raw = response.read()
            except BaseException as exc:
                conn.close()
                if (
                    reused
                    and not attempt
                    and response is None
                    and isinstance(exc, (http.client.HTTPException, OSError))
                    and not isinstance(exc, TimeoutError)
                ):
                    continue  # the idle socket had died; retry once
                raise
            if response.will_close:
                conn.close()
            else:
                with self._lock:
                    self._idle.append(conn)
            return (
                response.status,
                response.reason,
                response.getheader("Content-Type"),
                raw,
            )
        raise AssertionError("unreachable")  # pragma: no cover

    def _open(
        self, method: str, path: str, payload: dict[str, Any] | None = None
    ) -> Any:
        try:
            status, reason, content_type, raw = self._request(
                method, path, payload
            )
            if 200 <= status < 300:
                return _decode(content_type, raw)
        except (http.client.HTTPException, OSError, ValueError, WireError) as exc:
            raise FederationError(f"{self.url}{path}: {exc}") from exc
        raise FederationError(f"{self.url}{path}: HTTP {status} {reason}")

    def _get(self, path: str) -> Any:
        return self._open("GET", path)

    def _post(self, path: str, payload: dict[str, Any]) -> Any:
        return self._open("POST", path, payload)

    # -- API ------------------------------------------------------------------

    def describe(self) -> dict[str, Any]:
        return self._get("/schema")

    def health(self) -> dict[str, Any]:
        return self._get("/health")

    def classifications(self) -> list[str]:
        return self._get("/classifications")

    def classification(self, name: str) -> dict[str, Any]:
        return self._get(
            "/classifications/" + urllib.parse.quote(name, safe="")
        )

    def extent(self, class_name: str) -> list[int]:
        return self._get(f"/classes/{class_name}/extent")

    def object(self, oid: int) -> dict[str, Any]:
        return self._get(f"/objects/{oid}")

    def query(self, text: str, params: dict[str, Any] | None = None) -> Any:
        body = self._post("/query", {"query": text, "params": params or {}})
        return body["result"]

    def resolve(
        self,
        names: "list[str]",
        attr: str = "name",
        class_name: "str | None" = None,
        lineage: bool = False,
        classification: "str | None" = None,
        as_of: "int | None" = None,
    ) -> dict[str, Any]:
        """Batched name→object/lineage resolution (``POST /resolve``).

        One round-trip answers every name in ``names`` — the set-at-a-
        time access pattern a federation fan-out wants, instead of one
        ``/query`` per name per node.
        """
        payload: dict[str, Any] = {"names": list(names), "attr": attr}
        if class_name is not None:
            payload["class"] = class_name
        if lineage:
            payload["lineage"] = True
        if classification is not None:
            payload["classification"] = classification
        if as_of is not None:
            payload["as_of"] = as_of
        return self._post("/resolve", payload)

    def query_with_lsn(
        self, text: str, params: dict[str, Any] | None = None
    ) -> tuple[Any, int | None]:
        """Run a query and return ``(result, serving node's commit LSN)``.

        The LSN is None for in-memory nodes (or servers predating
        replication); staleness-bounded routing then cannot use them as
        replicas.
        """
        body = self._post("/query", {"query": text, "params": params or {}})
        lsn = body.get("lsn")
        return body["result"], (None if lsn is None else int(lsn))

    def replication_status(self) -> dict[str, Any]:
        return self._get("/replicate/status")

    def pull(
        self,
        from_lsn: int,
        prefix_crc: int | None = None,
        wait_s: float = 0.0,
        max_bytes: int | None = None,
        replica: str = "",
        epoch: int | None = None,
    ) -> tuple[str, bytes | None]:
        """``POST /replicate/pull`` with the
        :class:`~repro.replication.stream.LogShipper` signature.

        The socket timeout is the server-side long-poll budget
        ``wait_s`` plus this client's ``timeout``, so a hung primary
        stalls one pull, never the pull loop.  A 409 from a fenced peer
        raises :class:`~repro.errors.StalePrimaryError`; transport
        failures raise :class:`~repro.errors.ReplicationError`.
        """
        body: dict[str, Any] = {
            "from_lsn": from_lsn,
            "wait_s": wait_s,
            "replica": replica,
        }
        if prefix_crc is not None:
            body["prefix_crc"] = prefix_crc
        if max_bytes is not None:
            body["max_bytes"] = max_bytes
        if epoch is not None:
            body["epoch"] = epoch
        try:
            status, reason, content_type, payload = self._request(
                "POST", "/replicate/pull", body, timeout=wait_s + self.timeout
            )
        except (http.client.HTTPException, OSError) as exc:
            raise ReplicationError(f"pull failed: {exc}") from exc
        if status == 204:
            return "empty", None
        if status == 200:
            return "frame", payload
        if status == 409:
            try:
                detail = _decode(content_type, payload)
            except (ValueError, WireError):
                detail = {}
            if detail.get("status") == "stale-primary" or detail.get(
                "stale_primary"
            ):
                raise StalePrimaryError(
                    "pull rejected: peer fenced at epoch "
                    f"{detail.get('epoch', 0)}",
                    epoch=int(detail.get("epoch", 0) or 0),
                    primary_url=detail.get("primary_url"),
                )
            return "diverged", None
        raise ReplicationError(f"pull failed: HTTP {status} {reason}")

    def metrics_text(self) -> str:
        """Raw Prometheus exposition text from ``GET /metrics``."""
        return self._get("/metrics")

    def trace(self, trace_id: str) -> dict[str, Any]:
        """This node's retained spans of one trace."""
        return self._get(f"/trace/{trace_id}")

    def events(self, since: int = 0) -> dict[str, Any]:
        """The node's lifecycle event journal after ``since``."""
        return self._get(f"/events?since={int(since)}")

    def ping(self) -> bool:
        try:
            self._get("/schema")
            return True
        except FederationError:
            return False

    # -- high availability --------------------------------------------------

    def liveness(self) -> dict[str, Any]:
        """The cheap ``/health/liveness`` probe (no store locks held)."""
        return self._get("/health/liveness")

    def readiness(self) -> dict[str, Any]:
        return self._get("/health/readiness")

    def ha_status(self) -> dict[str, Any]:
        return self._get("/ha/status")

    def ha_promote(self, epoch: int) -> dict[str, Any]:
        return self._post("/ha/promote", {"epoch": epoch})

    def ha_demote(
        self, epoch: int, primary_url: str | None = None
    ) -> dict[str, Any]:
        body: dict[str, Any] = {"epoch": epoch}
        if primary_url:
            body["primary_url"] = primary_url
        return self._post("/ha/demote", body)

    def ha_repoint(self, primary_url: str, epoch: int) -> dict[str, Any]:
        return self._post(
            "/ha/repoint", {"primary_url": primary_url, "epoch": epoch}
        )

    def ha_lease(self, epoch: int, ttl_s: float) -> dict[str, Any]:
        return self._post("/ha/lease", {"epoch": epoch, "ttl_s": ttl_s})


@dataclass
class RetryPolicy:
    """Exponential backoff with deterministic (seeded) jitter.

    Delay before retry *k* (0-based) is
    ``min(base_delay * 2**k, max_delay)`` plus a uniform jitter of up to
    ``jitter`` times that value, drawn from a :class:`random.Random`
    seeded per :meth:`call` — so a test re-running a policy sees the
    same delays.
    """

    attempts: int = 2
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.5
    seed: int = 0

    def delays(self) -> Iterable[float]:
        """The backoff schedule (one delay per retry, jitter included)."""
        rng = random.Random(self.seed)
        for attempt in range(max(0, self.attempts - 1)):
            delay = min(self.base_delay * (2 ** attempt), self.max_delay)
            yield delay + delay * self.jitter * rng.random()

    def call(
        self,
        fn: Callable[[], Any],
        *,
        sleep: Callable[[float], None] = time.sleep,
        retry_on: tuple[type[BaseException], ...] = (FederationError,),
    ) -> Any:
        last: BaseException | None = None
        schedule = list(self.delays())
        for attempt in range(max(1, self.attempts)):
            try:
                return fn()
            except retry_on as exc:
                last = exc
                if attempt < len(schedule):
                    sleep(schedule[attempt])
        assert last is not None
        raise last


class CircuitBreaker:
    """Classic three-state breaker guarding one remote node.

    * **closed** — calls flow; ``failure_threshold`` *consecutive*
      failures trip it open.
    * **open** — calls are refused without touching the network until
      ``reset_timeout`` seconds pass.
    * **half-open** — one probe call is admitted; success closes the
      circuit, failure re-opens it with a fresh cooldown.

    The clock is injectable for deterministic tests.
    """

    def __init__(
        self,
        failure_threshold: int = 5,
        reset_timeout: float = 30.0,
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError("failure_threshold must be >= 1")
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self._clock = clock
        self._lock = threading.Lock()
        self._failures = 0
        self._state = "closed"
        self._opened_at = 0.0
        self._probing = False
        #: Optional ``listener(old_state, new_state)`` fired (outside
        #: the breaker lock) on every open/close transition — the
        #: federation journals these as ``federation.breaker`` events.
        self.listener: Callable[[str, str], None] | None = None

    @property
    def state(self) -> str:
        with self._lock:
            return self._current_state()

    @property
    def consecutive_failures(self) -> int:
        return self._failures

    def _current_state(self) -> str:
        if self._state == "open" and (
            self._clock() - self._opened_at >= self.reset_timeout
        ):
            return "half_open"
        return self._state

    def allow(self) -> bool:
        """May a call proceed right now?  (Claims the half-open probe.)"""
        with self._lock:
            state = self._current_state()
            if state == "closed":
                return True
            if state == "half_open" and not self._probing:
                self._probing = True
                return True
            return False

    def record_success(self) -> None:
        with self._lock:
            old = self._current_state()
            self._failures = 0
            self._state = "closed"
            self._probing = False
        if old != "closed":
            self._notify(old, "closed")

    def record_failure(self) -> None:
        with self._lock:
            old = self._current_state()
            self._failures += 1
            probe_failed = old == "half_open"
            self._probing = False
            opened = probe_failed or self._failures >= self.failure_threshold
            if opened:
                self._state = "open"
                self._opened_at = self._clock()
        if opened and old != "open":
            self._notify(old, "open")

    def _notify(self, old: str, new: str) -> None:
        listener = self.listener
        if listener is not None:
            try:
                listener(old, new)
            except Exception:  # pragma: no cover - observers never break calls
                pass


@dataclass
class NodeResult:
    """One node's answer (or failure) to a federated query.

    ``served_by`` names which physical endpoint answered — the node
    itself, or one of its read replicas when
    :meth:`Federation.query_all_reads` off-loaded the read.
    """

    node: str
    result: Any = None
    error: str = ""
    elapsed: float = 0.0
    served_by: str = ""

    @property
    def ok(self) -> bool:
        return not self.error


@dataclass
class Federation:
    """A named set of remote Prometheus nodes queried together.

    ``deadline`` bounds the *whole* fan-out of every multi-node call;
    nodes that have not answered by then are reported failed (and, for
    breaker-guarded calls, count against their circuit breaker).
    ``retry`` is applied per node *inside* the fan-out; set it to
    ``None`` to disable retries.
    """

    nodes: dict[str, RemoteDatabase] = field(default_factory=dict)
    #: Per-node read replicas: node name -> {replica name -> client}.
    #: Reads through :meth:`query_all_reads` prefer these; writes and
    #: :meth:`query_all` never touch them.
    replicas: dict[str, dict[str, RemoteDatabase]] = field(
        default_factory=dict
    )
    retry: RetryPolicy | None = field(default_factory=RetryPolicy)
    deadline: float | None = 30.0
    breaker_threshold: int = 5
    breaker_reset: float = 30.0
    max_workers: int = 8
    telemetry: Telemetry = field(default=DISABLED, repr=False)
    _breakers: dict[str, CircuitBreaker] = field(
        default_factory=dict, repr=False
    )

    #: Breaker-state gauge encoding (scraped by the telemetry collector).
    _BREAKER_STATES = {"closed": 0, "half_open": 1, "open": 2}

    def attach_telemetry(self, telemetry: Telemetry) -> None:
        """Wire a live facade in and register the breaker-state collector.

        Request counts, latency, retries and errors are recorded on the
        hot path (one branch when disabled); breaker states are scraped
        for free at exposition time.
        """
        self.telemetry = telemetry
        telemetry.registry.add_collector(self._collect_breakers)

    def _collect_breakers(self, registry: Any) -> None:
        for name in sorted(self.nodes):
            breaker = self.breaker(name)
            registry.gauge(
                "repro_federation_breaker_state",
                {"node": name},
                help="Circuit-breaker state (0=closed, 1=half_open, 2=open)",
            ).set(self._BREAKER_STATES.get(breaker.state, -1))
            registry.gauge(
                "repro_federation_breaker_consecutive_failures",
                {"node": name},
            ).set(breaker.consecutive_failures)

    def add_node(self, name: str, url_or_client: str | RemoteDatabase) -> None:
        if isinstance(url_or_client, str):
            url_or_client = RemoteDatabase(url_or_client)
        self.nodes[name] = url_or_client

    def add_read_replica(
        self, node: str, name: str, url_or_client: str | RemoteDatabase
    ) -> None:
        """Register a read replica of ``node`` (its own breaker key is
        ``node/name``)."""
        if node not in self.nodes:
            raise FederationError(f"unknown federation node {node!r}")
        if isinstance(url_or_client, str):
            url_or_client = RemoteDatabase(url_or_client)
        self.replicas.setdefault(node, {})[name] = url_or_client

    def remove_node(self, name: str) -> None:
        self.nodes.pop(name, None)
        for replica in self.replicas.pop(name, {}):
            self._breakers.pop(f"{name}/{replica}", None)
        self._breakers.pop(name, None)

    def follow_promotion(self, node: str, replica_name: str) -> None:
        """Failover: ``replica_name`` (one of ``node``'s read replicas)
        was promoted to primary — swap it into the node slot.

        The promoted replica's client becomes the federation's endpoint
        for ``node``; it leaves the replica set (reads against it are
        now primary reads) and both the node's breaker and the old
        replica breaker are reset, so the first post-failover call is
        not rejected on the dead primary's accumulated failures.  The
        deposed primary is dropped entirely — fenced, it must re-join as
        a replica through the normal registration path.
        """
        replicas = self.replicas.get(node, {})
        promoted = replicas.pop(replica_name, None)
        if promoted is None:
            raise FederationError(
                f"node {node!r} has no read replica {replica_name!r}"
            )
        self.nodes[node] = promoted
        self._breakers.pop(node, None)
        self._breakers.pop(f"{node}/{replica_name}", None)
        tel = self.telemetry
        if tel.enabled:
            tel.registry.counter(
                "repro_federation_failovers_total",
                {"node": node},
                help="Promotions followed (replica swapped into the "
                "primary slot)",
            ).inc()

    def __len__(self) -> int:
        return len(self.nodes)

    # -- resilience machinery ----------------------------------------------

    def breaker(self, name: str) -> CircuitBreaker:
        """The (lazily created) circuit breaker guarding ``name``."""
        breaker = self._breakers.get(name)
        if breaker is None:
            breaker = CircuitBreaker(
                failure_threshold=self.breaker_threshold,
                reset_timeout=self.breaker_reset,
            )
            breaker.listener = self._breaker_transition(name)
            self._breakers[name] = breaker
        return breaker

    def _breaker_transition(
        self, name: str
    ) -> Callable[[str, str], None]:
        """A journal hook for one breaker's open/close transitions."""

        def on_transition(old: str, new: str) -> None:
            tel = self.telemetry
            if tel.enabled:
                tel.events.record(
                    "federation.breaker",
                    target=name,
                    from_state=old,
                    to_state=new,
                )

        return on_transition

    def _call_node(self, name: str, fn: Callable[[], Any]) -> Any:
        """One guarded node call: breaker gate, retries, breaker update."""
        breaker = self.breaker(name)
        tel = self.telemetry
        node_label = {"node": name}
        if tel.enabled:
            tel.registry.counter(
                "repro_federation_requests_total",
                node_label,
                help="Guarded federation calls per node",
            ).inc()
        if not breaker.allow():
            if tel.enabled:
                tel.registry.counter(
                    "repro_federation_breaker_rejections_total", node_label
                ).inc()
            raise CircuitOpenError(
                f"{name}: circuit open "
                f"({breaker.consecutive_failures} consecutive failures)"
            )
        attempts = 0

        def counted() -> Any:
            nonlocal attempts
            attempts += 1
            return fn()

        started = time.monotonic()
        try:
            result = (
                self.retry.call(counted) if self.retry is not None else counted()
            )
        except Exception:
            breaker.record_failure()
            if tel.enabled:
                tel.registry.counter(
                    "repro_federation_errors_total", node_label
                ).inc()
            raise
        else:
            breaker.record_success()
            if tel.enabled:
                tel.registry.histogram(
                    "repro_federation_request_ms",
                    node_label,
                    help="Per-node federation request latency (ms), "
                    "retries included",
                ).observe((time.monotonic() - started) * 1000.0)
        finally:
            if tel.enabled and attempts > 1:
                tel.registry.counter(
                    "repro_federation_retries_total",
                    node_label,
                    help="Retry attempts beyond the first, per node",
                ).inc(attempts - 1)
        return result

    def _scatter(
        self,
        calls: dict[str, Callable[[], Any]],
        deadline: float | None = None,
        guarded: bool = False,
    ) -> dict[str, NodeResult]:
        """Run ``{name: thunk}`` concurrently under one deadline — the
        one fan-out for remote nodes, whose threads overlap socket
        waits.  In-process shards do not come through here: under the
        GIL their threads would overlap nothing, so the shard
        coordinator calls :meth:`_call_node` per shard on its own
        thread.

        Returns a :class:`NodeResult` per name, in ``calls`` order.  A
        thunk still running when ``deadline`` (default: the
        federation's) expires yields a "deadline exceeded" error with
        ``elapsed`` = the deadline; its worker is abandoned, never
        waited for.  Workers run attached to the caller's trace, so
        per-node spans and outbound ``traceparent`` headers stay in it.

        ``guarded=True`` declares the thunks breaker-guarded (the caller
        wraps them in :meth:`_call_node`): a deadline miss then also
        counts against the node's breaker.  Unguarded calls are the
        observability probes an operator uses to watch a node come back
        and never touch breakers.
        """
        if deadline is None:
            deadline = self.deadline
        if not calls:
            return {}
        tracer = self.telemetry.tracer
        handle = tracer.capture()

        def run(fn: Callable[[], Any]) -> tuple[Any, float]:
            started = time.monotonic()
            with tracer.attach(handle):
                result = fn()
            return result, time.monotonic() - started

        results: dict[str, NodeResult] = {}
        pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=min(self.max_workers, len(calls)),
            thread_name_prefix="federation",
        )
        try:
            futures = {
                pool.submit(run, fn): name for name, fn in calls.items()
            }
            done, _ = concurrent.futures.wait(futures, timeout=deadline)
            for future, name in futures.items():
                if future not in done:
                    future.cancel()
                    results[name] = NodeResult(
                        node=name,
                        error=f"deadline exceeded after {deadline}s",
                        elapsed=deadline or 0.0,
                    )
                    if guarded:
                        self.breaker(name).record_failure()
                    continue
                try:
                    result, elapsed = future.result()
                except Exception as exc:
                    # `or type name`: an exception with an empty message
                    # (bare CircuitOpenError, ConnectionError) must not
                    # produce error="" — NodeResult.ok would read True.
                    results[name] = NodeResult(
                        node=name, error=str(exc) or type(exc).__name__
                    )
                else:
                    results[name] = NodeResult(
                        node=name, result=result, elapsed=elapsed
                    )
        finally:
            # Never wait for hung worker threads; their sockets time out
            # on their own and the results are already discarded.
            pool.shutdown(wait=False, cancel_futures=True)
        return results

    # -- fan-out -----------------------------------------------------------

    def query_all(
        self,
        text: str,
        params: dict[str, Any] | None = None,
        deadline: float | None = None,
    ) -> list[NodeResult]:
        """Run one POOL query on every node; failures are per-node.

        Nodes are queried concurrently; the call returns within
        ``deadline`` seconds (default: the federation's) even if a node
        hangs — that node yields a ``NodeResult`` with ``error`` set and
        its breaker records the failure.  The federation degrades, it
        does not fail (autonomous locals).
        """
        calls = {
            name: partial(
                self._call_node, name, partial(client.query, text, params)
            )
            for name, client in sorted(self.nodes.items())
        }
        return list(self._scatter(calls, deadline, guarded=True).values())

    def query_all_reads(
        self,
        text: str,
        params: dict[str, Any] | None = None,
        staleness_bytes: float | None = None,
        min_lsn: int = 0,
        deadline: float | None = None,
    ) -> list[NodeResult]:
        """Fan a read out, preferring each node's replicas.

        Per node: try its replicas first (in name order), each guarded
        by its own ``node/replica`` circuit breaker; fall back to the
        primary when the replica fails, reports no LSN, lags behind
        ``min_lsn`` (the caller's read-your-writes floor), or — when
        ``staleness_bytes`` is set and finite — lags the primary's
        commit LSN by more than that many bytes.  ``served_by`` on each result records
        which endpoint actually answered.
        """

        def read(name: str) -> tuple[Any, str]:
            replicas = self.replicas.get(name, {})
            floor = min_lsn
            if replicas and staleness_bytes is not None and (
                staleness_bytes < math.inf
            ):
                # One probe of the primary's head bounds every replica.
                try:
                    status = self._call_node(
                        name, self.nodes[name].replication_status
                    )
                except FederationError:
                    replicas = {}  # no head to bound against: primary serves
                else:
                    primary_lsn = int(status.get("commit_lsn") or 0)
                    floor = max(floor, primary_lsn - staleness_bytes)
            for replica_name in sorted(replicas):
                key = f"{name}/{replica_name}"
                client = replicas[replica_name]
                try:
                    result, lsn = self._call_node(
                        key, partial(client.query_with_lsn, text, params)
                    )
                except FederationError:
                    continue
                if lsn is not None and lsn >= floor:
                    return result, key
                # Too stale for this read; the replica is healthy, so
                # its breaker is untouched.
            result = self._call_node(
                name, partial(self.nodes[name].query, text, params)
            )
            return result, name

        calls = {name: partial(read, name) for name in sorted(self.nodes)}
        results = list(self._scatter(calls, deadline, guarded=True).values())
        for answer in results:
            if answer.ok:
                answer.result, answer.served_by = answer.result
        return results

    # -- cluster observability (scatter-gather) -----------------------------

    def endpoints(self) -> dict[str, RemoteDatabase]:
        """Every physical endpoint: nodes plus ``node/replica`` keys."""
        out: dict[str, RemoteDatabase] = dict(sorted(self.nodes.items()))
        for node in sorted(self.replicas):
            for replica, client in sorted(self.replicas[node].items()):
                out[f"{node}/{replica}"] = client
        return out

    def cluster_metrics(
        self, deadline: float | None = None
    ) -> dict[str, Any]:
        """Scatter-gather merge of every endpoint's ``/metrics``.

        Per endpoint the full parsed series map is returned; counters
        (series whose bare name ends ``_total``) are additionally summed
        into ``totals`` for a one-look cluster rate view.  Failed
        endpoints land in ``errors`` and flip ``partial`` — a degraded
        merge never masquerades as a complete one (the
        :meth:`count_all` convention).
        """
        endpoints = self.endpoints()
        scattered = self._scatter(
            {
                name: client.metrics_text
                for name, client in endpoints.items()
            },
            deadline,
        )
        nodes: dict[str, Any] = {}
        totals: dict[str, float] = {}
        errors: dict[str, str] = {}
        for name, client in endpoints.items():
            answer = scattered[name]
            if not answer.ok:
                errors[name] = answer.error
                continue
            series = parse_prometheus(answer.result)
            nodes[name] = {"url": client.url, "series": series}
            for key, value in series.items():
                if key.split("{", 1)[0].endswith("_total"):
                    totals[key] = totals.get(key, 0.0) + value
        return {
            "nodes": nodes,
            "totals": totals,
            "errors": errors,
            "partial": bool(errors),
        }

    def cluster_overview(
        self, deadline: float | None = None
    ) -> dict[str, Any]:
        """One merged row per endpoint: role, epoch, LSNs, lag, breaker.

        The ``/cluster/overview`` payload — each endpoint's
        ``/replicate/status`` joined with its ``/ha/status`` (absent on
        nodes without an HA controller) and the federation's own breaker
        state for that endpoint, plus a cluster summary (who is primary,
        the highest epoch seen, total replication lag).
        """
        endpoints = self.endpoints()

        def probe(client: RemoteDatabase) -> dict[str, Any]:
            status = client.replication_status()
            shipping = status.get("shipping") or {}
            lag = shipping.get("lag_bytes")
            row: dict[str, Any] = {
                "url": client.url,
                "role": status.get("role"),
                "epoch": status.get("epoch"),
                "log_epoch": status.get("log_epoch"),
                "commit_lsn": status.get("commit_lsn"),
                "applied_lsn": status.get("applied_lsn"),
                "lag_bytes": sum(lag.values())
                if isinstance(lag, dict)
                else lag,
            }
            try:
                ha = client.ha_status()
            except FederationError:
                ha = None  # no HA controller on that node
            if ha is not None and "error" not in ha:
                row["ha"] = {
                    "fenced": ha.get("fenced"),
                    "writes_allowed": ha.get("writes_allowed"),
                    "lease_remaining_s": ha.get("lease_remaining_s"),
                    "promotions": ha.get("promotions"),
                    "fences": ha.get("fences"),
                }
            return row

        scattered = self._scatter(
            {
                name: partial(probe, client)
                for name, client in endpoints.items()
            },
            deadline,
        )
        nodes: dict[str, Any] = {}
        errors: dict[str, str] = {}
        primaries: list[str] = []
        max_epoch = 0
        total_lag = 0.0
        for name, client in endpoints.items():
            answer = scattered[name]
            if not answer.ok:
                errors[name] = answer.error
                nodes[name] = {
                    "url": client.url,
                    "error": answer.error,
                    "breaker": self.breaker(name).state,
                }
                continue
            row = answer.result
            row["breaker"] = self.breaker(name).state
            nodes[name] = row
            if row.get("role") == "primary":
                primaries.append(name)
            try:
                max_epoch = max(max_epoch, int(row.get("epoch") or 0))
            except (TypeError, ValueError):
                pass
            if isinstance(row.get("lag_bytes"), (int, float)):
                total_lag += row["lag_bytes"]
        return {
            "nodes": nodes,
            "summary": {
                "endpoints": len(endpoints),
                "primaries": primaries,
                "max_epoch": max_epoch,
                "total_lag_bytes": total_lag,
                "errors": len(errors),
                "partial": bool(errors),
            },
        }

    def gather(
        self, text: str, params: dict[str, Any] | None = None
    ) -> list[tuple[str, Any]]:
        """Flatten successful list results to (node, item) pairs."""
        out: list[tuple[str, Any]] = []
        for node_result in self.query_all(text, params):
            if node_result.ok and isinstance(node_result.result, list):
                out.extend((node_result.node, item) for item in node_result.result)
        return out

    # -- taxonomic conveniences --------------------------------------------------

    def find_name(self, epithet: str) -> list[tuple[str, dict[str, Any]]]:
        """Every node's published names matching ``epithet``.

        The cross-herbarium question of §1.1: has this name been used
        anywhere, by anyone?
        """
        return self.gather(
            "select n from n in NomenclaturalTaxon where n.epithet = $e",
            {"e": epithet},
        )

    def classification_inventory(self) -> dict[str, list[str]]:
        """Classification names per node (nothing is merged); a node
        that failed or missed the deadline lists none."""
        calls = {
            name: partial(self._call_node, name, client.classifications)
            for name, client in sorted(self.nodes.items())
        }
        return {
            name: answer.result if answer.ok else []
            for name, answer in self._scatter(calls, guarded=True).items()
        }

    def count_all(self, class_name: str) -> dict[str, Any]:
        """Instance counts of a class per node (plus a ``__total__``).

        A failed node counts as 0 but is *recorded*: ``__errors__`` maps
        each failed node to its error and ``__partial__`` is True, so a
        degraded total can never masquerade as a complete one.
        """
        counts: dict[str, Any] = {}
        errors: dict[str, str] = {}
        total = 0
        for node_result in self.query_all(
            f"select count(x) from x in {class_name}"
        ):
            value = 0
            if not node_result.ok:
                errors[node_result.node] = node_result.error
            elif (
                isinstance(node_result.result, list)
                and len(node_result.result) == 1
                and isinstance(node_result.result[0], (int, float))
                and not isinstance(node_result.result[0], bool)
            ):
                value = int(node_result.result[0])
            else:
                # ok-but-malformed (a node died mid-scatter and an empty
                # body slipped through): a silent 0 here would let a
                # degraded total pass as complete.
                errors[node_result.node] = (
                    f"malformed count result: {node_result.result!r}"
                )
            counts[node_result.node] = value
            total += value
        counts["__total__"] = total
        counts["__errors__"] = errors
        counts["__partial__"] = bool(errors)
        return counts

    def alive(self) -> dict[str, bool]:
        """Probe every node directly (bypasses breakers: this *is* the
        health check that lets an operator see a node come back); a node
        that fails or misses the deadline is not alive."""
        calls = {
            name: client.ping for name, client in sorted(self.nodes.items())
        }
        return {
            name: answer.result if answer.ok else False
            for name, answer in self._scatter(calls).items()
        }

    def health_report(self) -> dict[str, dict[str, Any]]:
        """Per-node liveness plus breaker state, for operators."""
        report: dict[str, dict[str, Any]] = {}
        for name, alive in self.alive().items():
            breaker = self.breaker(name)
            report[name] = {
                "url": self.nodes[name].url,
                "alive": alive,
                "breaker": breaker.state,
                "consecutive_failures": breaker.consecutive_failures,
            }
        return report
