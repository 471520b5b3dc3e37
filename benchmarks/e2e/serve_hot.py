"""``serve_hot``: anonymous readers on the asyncio front end, loopback,
in one process; two keep-alive connections (one JSON, one REPB) driven
alternately by one client thread.

(Two client *threads* in the server's own process mostly measured the
clients fighting the server for the interpreter lock: lower throughput,
a 5 ms switch-interval tail and three times the spread.  Load that
overlaps requests belongs to the open-loop generator, a later issue.)

Why: the `engine` layer (aserver, handlers, wire, ResponseCache) does
nearly all the work and `query`/`storage` nearly none.  About a hundred
distinct requests per codec, drawn Zipf(1.1), fit the 256-entry
response cache on purpose: a front-door or codec change shows here and
a planner change must not.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
from typing import Any, Iterator

import corpus
from harness import Op, Tracer, Workload, mixed_stream

#: Ops per block of 20: 70 % POST /resolve, 25 % POST /query, 5 % GET /health.
MIX = {"resolve": 14, "query": 5, "health": 1}
RESOLVE_BODIES = 70
QUERY_BODIES = 25
NAMES_PER_RESOLVE = 20
ZIPF_S = 1.1
REPB = "application/x-repb"


def zipf_weights(n: int) -> list[float]:
    return [1.0 / (rank ** ZIPF_S) for rank in range(1, n + 1)]


def traceparent(context: tuple[int, int]) -> str:
    trace, span = context
    return f"00-{trace:032x}-{span:016x}-01"


def parse_traceparent(header: str | None) -> tuple[int, int] | None:
    if not header:
        return None
    _, trace, span, _ = header.split("-")
    return int(trace, 16), int(span, 16)


class ServeHot(Workload):
    name = "serve_hot"
    block = sum(MIX.values())
    shape = corpus.FLORA_2K

    def setup(self) -> None:
        from repro.engine import AsyncPrometheusServer

        self.tracer: Tracer | None = None
        self.db = corpus.new_database()
        self.flora = corpus.build_flora(
            self.db, corpus.plan_flora(self.shape, self.seed)
        )
        self.db.commit()
        self.requests = self._request_pool(random.Random(f"pool:{self.seed}"))
        self.server = AsyncPrometheusServer(self.db)
        self.server.start()
        self.connections = [
            http.client.HTTPConnection(*self.server.address, timeout=30)
            for _ in range(2)
        ]
        # Warm-up: every distinct request once per codec, so the timed
        # window sees the cache as a long-running server would.
        for client in range(2):
            for pool in self.requests.values():
                for request in pool:
                    self._send(client, request)
        self.baseline = self._lifetime_counts()

    # -- the request pool ----------------------------------------------------

    def _request_pool(self, rng: random.Random) -> dict[str, list[dict[str, Any]]]:
        flora = self.flora
        resolve = []
        for index in range(RESOLVE_BODIES):
            picked = rng.sample(flora.species, NAMES_PER_RESOLVE)
            if index % 2 == 0:
                # A name to the object that carries it.
                payload = {
                    "names": [s.epithet for s in picked],
                    "attr": "epithet", "class": "NomenclaturalTaxon",
                }
                expected = {s.epithet: (s.nt, None) for s in picked}
            else:
                # A herbarium sheet to its placement in the classification.
                payload = {
                    "names": [f"{s.epithet}-0" for s in picked],
                    "attr": "collection_number", "class": "Specimen",
                    "lineage": True,
                }
                expected = {
                    f"{s.epithet}-0": (
                        s.specimens[0],
                        [s.ct, flora.genera[s.genus].ct,
                         flora.families[flora.genera[s.genus].family].ct],
                    )
                    for s in picked
                }
            resolve.append({"path": "/resolve", "payload": payload,
                            "expected": expected})
        query = []
        for species in rng.sample(flora.species, QUERY_BODIES):
            text = (
                "select n.epithet, n.year from n in NomenclaturalTaxon "
                f'where n.epithet = "{species.epithet}"'
            )
            query.append({"path": "/query", "payload": {"query": text},
                          "text": text})
        return {"resolve": resolve, "query": query,
                "health": [{"path": "/health", "payload": None}]}

    def streams(self) -> list[Iterator[Op]]:
        turn = itertools.cycle((0, 1))
        return [mixed_stream(
            random.Random(f"ops:{self.seed}"), MIX,
            lambda kind, rng: self._op(next(turn), kind, rng),
        )]

    def _op(self, client: int, kind: str, rng: random.Random) -> Op:
        pool = self.requests[kind]
        (request,) = rng.choices(pool, zipf_weights(len(pool)))
        verify = None
        if kind == "resolve":
            verify = lambda reply: self._verify_resolve(client, request, reply)
        elif kind == "query":
            verify = lambda reply: self._verify_query(client, request, reply)
        return Op(
            kind, f"{client}:{kind}:{pool.index(request)}",
            lambda: self._send(client, request),
            check=lambda reply: None if reply[0] == 200 else f"HTTP {reply[0]}",
            verify=verify,
        )

    # -- one round trip -------------------------------------------------------

    def _send(self, client: int, request: dict[str, Any]) -> tuple[int, bytes]:
        """Client 0 speaks JSON, client 1 REPB; bodies are pre-encoded
        per codec on first use so the op times the server, not the
        client's encoder."""
        from repro.engine import wire

        encoded = request.setdefault("encoded", {})
        if client not in encoded:
            payload = request["payload"]
            if payload is None:
                encoded[client] = ("GET", None, {})
            elif client == 0:
                encoded[client] = (
                    "POST", json.dumps(payload).encode(),
                    {"Content-Type": "application/json"},
                )
            else:
                encoded[client] = (
                    "POST", wire.encode_frame(payload),
                    {"Content-Type": REPB, "Accept": REPB},
                )
        if self.tracer is not None:
            # Everything between the client's send and its last byte
            # read that is not the handler is transport: the asyncio
            # loop, the worker hand-off, the socket, http.client.
            return self.tracer.call(
                "engine.round_trip", "engine", self._round_trip,
                (client, request["path"], *encoded[client]),
            )
        return self._round_trip(client, request["path"], *encoded[client])

    def _round_trip(
        self, client: int, path: str, method: str, body: bytes | None,
        headers: dict[str, str],
    ) -> tuple[int, bytes]:
        if self.tracer is not None:
            headers = dict(
                headers, traceparent=traceparent(self.tracer.current())
            )
        connection = self.connections[client]
        connection.request(method, path, body, headers)
        response = connection.getresponse()
        return response.status, response.read()

    @staticmethod
    def _decode(client: int, reply: tuple[int, bytes]) -> Any:
        from repro.engine import wire

        return json.loads(reply[1]) if client == 0 else wire.decode_frame(reply[1])

    # -- the oracle --------------------------------------------------------------

    def _verify_resolve(self, client: int, request: dict[str, Any], reply: Any) -> str | None:
        """Against the generator's own handles, not the server's code."""
        body = self._decode(client, reply)
        expected = request["expected"]
        if body["missing"] or set(body["results"]) != set(expected):
            return "resolve answered a different set of names"
        for name, (oid, lineage) in expected.items():
            entries = body["results"][name]
            if [e["oid"] for e in entries] != [oid]:
                return f"{name} resolved to the wrong object"
            if lineage is not None:
                found = [
                    [a["oid"] for a in line["ancestors"]]
                    for line in entries[0]["lineage"]
                ]
                if found != [lineage]:
                    return f"{name} has lineage {found}, generator placed {lineage}"
        return None

    def _verify_query(self, client: int, request: dict[str, Any], reply: Any) -> str | None:
        from repro.engine.handlers import jsonable

        body = self._decode(client, reply)
        if body["result"] != jsonable(self.db.query(request["text"])):
            return "served rows differ from in-process db.query"
        return None

    # -- tracing -------------------------------------------------------------------

    def instrument(self, tracer: Tracer) -> None:
        self.tracer = tracer
        handlers = self.server.handlers
        handle = handlers.handle

        def traced_handle(request: Any) -> Any:
            # The worker thread joins the client's trace through the
            # header the client sent, as a real caller's would.
            parent = parse_traceparent(request.headers.get("traceparent"))
            return tracer.call(
                "engine.handle", "engine", handle, (request,), parent=parent
            )

        tracer.install(handlers, "handle", traced_handle)
        tracer.wrap(handlers.cache, "get", "engine")
        tracer.wrap(handlers.cache, "put", "engine")
        tracer.wrap(self.db, "query", "query")
        tracer.wrap(self.db.indexes, "probe", "engine")
        tracer.wrap(self.db.classifications, "get", "classification")

    def verify(self) -> list[str]:
        self.tracer = None
        return list(self.db.check_integrity())

    def _lifetime_counts(self) -> dict[str, int]:
        cache = self.server.handlers.cache.snapshot()
        plans = self.db.planner.snapshot()
        return {
            "cache_hits": cache["hits"], "cache_misses": cache["misses"],
            "plan_hits": plans["hits"], "plan_misses": plans["misses"],
            "rejected": self.server.rejected,
        }

    def counters(self) -> dict[str, float]:
        """Since the end of set-up: the warm-up's misses are not the
        timed windows'."""
        now = self._lifetime_counts()
        d = {key: now[key] - self.baseline[key] for key in now}
        lookups = d["cache_hits"] + d["cache_misses"]
        planned = d["plan_hits"] + d["plan_misses"]
        return {
            "engine.response_cache_hit_ratio": d["cache_hits"] / lookups if lookups else 0.0,
            "engine.http_503_ratio": d["rejected"] / max(1, lookups),
            "query.plan_cache_hit_ratio": d["plan_hits"] / planned if planned else 0.0,
        }

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        self.server.stop()
        self.db.close()
