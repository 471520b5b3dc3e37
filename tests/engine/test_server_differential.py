"""Differential conformance: the handler core in process vs the served
front end.

The asyncio front end is only a transport over the
:class:`~repro.engine.handlers.HttpHandlers` core, so every route must
answer over HTTP with the status code and **byte-identical** body that
calling :meth:`HttpHandlers.handle` directly gives.  This suite proves
it the way ``tests/query/test_differential.py`` proves
evaluator/compiler agreement: replay a seeded corpus of requests —
queries, time-travel reads, batched resolution, sessions with staged
ops, commits, 409 write-write conflicts, malformed bodies, unknown
routes, binary REPB negotiation — in process against one core and over
a keep-alive connection against an async server, each over an identical
database, and compare every response.  What it can catch is what a
transport can break: request parsing, response rendering, keep-alive,
and cache hits answered on the event loop vs misses run on the worker
pool.  On divergence a greedy shrinker minimizes the corpus before
failing.

Both databases run with telemetry DISABLED so responses carry no trace
ids; the only volatile fields are session tokens (random), ``idle_s``
and ``commit_ts`` (clock), which the normalizer maps to stable
placeholders before the byte comparison.
"""

import http.client
import json
import random
import re

import pytest

from repro.engine import (
    AsyncPrometheusServer,
    HttpHandlers,
    PrometheusDB,
    Request,
    wire,
)
from repro.taxonomy import build_shapes_scenario
from repro.taxonomy.model import TaxonomyDatabase
from repro.telemetry import DISABLED

from tests import fuzzseeds

SEED_ENV = "SERVER_FUZZ_SEED"
FIXED_SEEDS = (101, 202, 303)
CASES_PER_SEED = 170  # 3 seeds x 170 = 510 >= the 500-case gate

_QUERIES = (
    "select s from s in Specimen",
    "select count(s) from s in Specimen",
    "select t.epithet from t in NomenclaturalTaxon",
    "select t from t in NomenclaturalTaxon where t.epithet = \"Ovals\"",
    "select w.label from w in WorkingName",
    "EXPLAIN select s from s in Specimen",
    "selec broken !!",  # parse error -> 400
    "select x from x in NoSuchClass",  # unknown class -> 400
)

_GET_PATHS = (
    "/schema",
    "/classes/Specimen",
    "/classes/NomenclaturalTaxon",
    "/classes/Specimen/extent",
    "/classes/NoSuchClass",  # 404
    "/objects/3",
    "/objects/9999",  # 404
    "/objects/xyz",  # 400
    "/classifications",
    "/health/liveness",
    "/no/such/route",  # 404
)

_EPITHETS = (
    "Shapes", "Ovals", "Circles", "Squares", "Rectangles", "Triangles",
    "NoSuchName",
)

_TOKEN_RE = re.compile(r"[0-9a-f]{32}")
_VOLATILE_RE = re.compile(
    r'"(commit_ts|idle_s|uptime_s)": [0-9.eE+-]+'
)


def _build_db() -> PrometheusDB:
    db = PrometheusDB(telemetry=DISABLED)
    taxdb = TaxonomyDatabase.over_engine(db)
    build_shapes_scenario(taxdb)
    return db


def _gen_corpus(seed: int, count: int) -> list:
    """A deterministic request corpus.  Session-bearing requests refer
    to sessions by *slot index*; each replay maps slots to that
    server's own tokens."""
    rng = random.Random(seed)
    corpus: list = []
    slots = 0
    for _ in range(count):
        kind = rng.randrange(10)
        if kind <= 1:
            corpus.append(("GET", rng.choice(_GET_PATHS), None, {}))
        elif kind <= 3:
            body: dict = {"query": rng.choice(_QUERIES)}
            roll = rng.random()
            if roll < 0.15:
                body["as_of"] = rng.choice((1, 2, 10**9))
            elif roll < 0.2:
                body["as_of"] = "not-a-number"
            headers = {}
            if rng.random() < 0.25:
                headers["Accept"] = wire.CONTENT_TYPE
            if rng.random() < 0.15:
                headers["Content-Type"] = wire.CONTENT_TYPE
            corpus.append(("POST", "/query", body, headers))
        elif kind == 4:
            names = [rng.choice(_EPITHETS) for _ in range(rng.randrange(1, 5))]
            body = {"names": names, "attr": rng.choice(("epithet", "label"))}
            if rng.random() < 0.4:
                body["lineage"] = True
            if rng.random() < 0.2:
                body["class"] = rng.choice(
                    ("NomenclaturalTaxon", "NoSuchClass")
                )
            if rng.random() < 0.1:
                body["names"] = "not-a-list"  # -> 400
            headers = {}
            if rng.random() < 0.25:
                headers["Accept"] = wire.CONTENT_TYPE
            corpus.append(("POST", "/resolve", body, headers))
        elif kind == 5:
            corpus.append(("SESSION_CREATE", None, None, {}))
            slots += 1
        elif slots == 0:
            corpus.append(("GET", "/classifications", None, {}))
        elif kind == 6:
            slot = rng.randrange(slots + 1)  # may overrun -> 404 path
            ops = []
            for _ in range(rng.randrange(1, 4)):
                roll = rng.random()
                if roll < 0.5:
                    ops.append({
                        "op": "create",
                        "class": "Specimen",
                        "attrs": {"collector": f"c{rng.randrange(40)}"},
                    })
                elif roll < 0.8:
                    # Scenario oids; some miss or are the wrong kind ->
                    # deterministic 400s.
                    ops.append({
                        "op": "set",
                        "oid": rng.randrange(1, 80),
                        "attr": "collector",
                        "value": f"v{rng.randrange(40)}",
                    })
                elif roll < 0.9:
                    ops.append({"op": "frobnicate"})  # unknown -> 400
                else:
                    ops.append({"op": "create"})  # missing field -> 400
            corpus.append(("SESSION", slot, ("apply", {"ops": ops}), {}))
        elif kind == 7:
            slot = rng.randrange(slots)
            corpus.append(("SESSION", slot, ("commit", {}), {}))
        elif kind == 8:
            slot = rng.randrange(slots)
            action = rng.choice(("query", "abort", "release", "info"))
            if action == "query":
                payload = ("query", {"query": rng.choice(_QUERIES)})
            elif action == "info":
                payload = ("info", None)
            else:
                payload = (action, {})
            corpus.append(("SESSION", slot, payload, {}))
        else:
            corpus.append(
                ("RAW_POST", "/query", b"{not json", {})
            )
    return corpus


class _Connection:
    """One keep-alive HTTP connection to the served front end."""

    def __init__(self, url: str):
        host, port = url.removeprefix("http://").split(":")
        self.conn = http.client.HTTPConnection(host, int(port), timeout=15)

    def close(self):
        self.conn.close()

    def __call__(self, method, path, body, headers):
        for attempt in (0, 1):
            try:
                self.conn.request(method, path, body=body, headers=headers)
                response = self.conn.getresponse()
                payload = response.read()
                if response.will_close:
                    self.conn.close()
                return response.status, payload
            except (http.client.HTTPException, ConnectionError, OSError):
                self.conn.close()
                if attempt:
                    raise
        raise AssertionError("unreachable")


def _in_process(core: HttpHandlers):
    """The oracle: the handler core called directly, no socket."""

    def roundtrip(method, path, body, headers):
        response = core.handle(
            Request(
                method,
                path,
                {name.lower(): value for name, value in headers.items()},
                body or b"",
            )
        )
        return response.status, response.body

    return roundtrip


class _Replay:
    """Replays a corpus through one ``(method, path, body, headers) ->
    (status, body)`` round-trip, tracking that side's session tokens."""

    def __init__(self, roundtrip):
        self._roundtrip = roundtrip
        self.tokens: list = []

    def run(self, item):
        kind, a, b, headers = item
        if kind == "GET":
            return self._roundtrip("GET", a, None, dict(headers))
        if kind == "RAW_POST":
            return self._roundtrip("POST", a, b, dict(headers))
        if kind == "POST":
            hdrs = dict(headers)
            if wire.is_repb(hdrs.get("Content-Type")):
                raw = wire.encode_frame(b)
            else:
                raw = json.dumps(b).encode()
            return self._roundtrip("POST", a, raw, hdrs)
        if kind == "SESSION_CREATE":
            status, payload = self._roundtrip("POST", "/session", b"{}", {})
            token = None
            if status == 201:
                token = json.loads(payload)["session"]
            self.tokens.append(token)
            return status, payload
        if kind == "SESSION":
            slot, (action, body) = a, b
            token = (
                self.tokens[slot]
                if slot < len(self.tokens) and self.tokens[slot]
                else "df" * 16  # well-formed but unknown -> 404
            )
            if action == "info":
                return self._roundtrip("GET", f"/session/{token}", None, {})
            return self._roundtrip(
                "POST",
                f"/session/{token}/{action}",
                json.dumps(body).encode(),
                {},
            )
        raise AssertionError(f"unknown corpus item {kind!r}")

    def normalize(self, payload: bytes) -> bytes:
        text = payload.decode("utf-8", errors="surrogateescape")
        for index, token in enumerate(self.tokens):
            if token:
                text = text.replace(token, f"<session-{index}>")
        text = _TOKEN_RE.sub("<token>", text)
        text = _VOLATILE_RE.sub(lambda m: f'"{m.group(1)}": 0', text)
        return text.encode("utf-8", errors="surrogateescape")


def _normalize_repb(payload: bytes, replay: _Replay) -> bytes:
    """REPB frames carry the same volatile fields; normalize via decode
    so the comparison stays exact for everything else."""
    try:
        value = wire.decode_frame(payload)
    except Exception:
        return replay.normalize(payload)
    text = json.dumps(value, indent=2).encode()
    return replay.normalize(text)


def _run_pair(corpus):
    """Replay ``corpus`` in process on a fresh handler core and over
    HTTP on a fresh async server.

    Returns the index and the two (status, body) observations of the
    first divergence, or None when every response agrees.
    """
    server = AsyncPrometheusServer(_build_db())
    server.start()
    connection = _Connection(server.url)
    replay_c = _Replay(_in_process(HttpHandlers(_build_db())))
    replay_a = _Replay(connection)
    try:
        for index, item in enumerate(corpus):
            status_c, body_c = replay_c.run(item)
            status_a, body_a = replay_a.run(item)
            if body_c[:4] == wire.MAGIC and body_a[:4] == wire.MAGIC:
                norm_c = _normalize_repb(body_c, replay_c)
                norm_a = _normalize_repb(body_a, replay_a)
            else:
                norm_c = replay_c.normalize(body_c)
                norm_a = replay_a.normalize(body_a)
            if status_c != status_a or norm_c != norm_a:
                return index, (status_c, norm_c), (status_a, norm_a)
        return None
    finally:
        connection.close()
        server.stop()


def _shrink(corpus):
    """Greedily drop chunks while the divergence persists."""
    current = list(corpus)
    chunk = max(1, len(current) // 2)
    while chunk >= 1:
        index = 0
        while index < len(current):
            candidate = current[:index] + current[index + chunk:]
            if candidate and _run_pair(candidate) is not None:
                current = candidate
            else:
                index += chunk
        chunk //= 2
    return current


@pytest.mark.parametrize("seed", FIXED_SEEDS)
def test_threaded_and_async_front_ends_agree(seed):
    corpus = _gen_corpus(seed, CASES_PER_SEED)
    divergence = _run_pair(corpus)
    if divergence is None:
        return
    index, core_obs, async_obs = divergence
    minimal = _shrink(corpus[: index + 1])
    pytest.fail(
        f"front end diverged from the core (seed {seed}, request #{index}):\n"
        f"  in process: {core_obs[0]} {core_obs[1][:400]!r}\n"
        f"  async:      {async_obs[0]} {async_obs[1][:400]!r}\n"
        f"  minimal corpus ({len(minimal)} requests):\n"
        + "\n".join(f"    {item!r}" for item in minimal)
        + "\n"
        + fuzzseeds.repro_line(
            SEED_ENV, seed, "tests/engine -k extra_seed_from_env"
        )
    )


def test_extra_seed_from_env():
    """Replay the run seed (env override or GITHUB_RUN_ID-derived)."""
    seed = fuzzseeds.run_seed(SEED_ENV)
    if seed is None:
        pytest.skip(f"{SEED_ENV} / GITHUB_RUN_ID not set")
    assert _run_pair(_gen_corpus(seed, CASES_PER_SEED)) is None
