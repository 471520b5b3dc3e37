"""Batched ``POST /resolve``, the pre-serialized response cache, and
REPB content negotiation over HTTP.

The thesis's front ends resolve *names* — a taxonomist types
"Ranunculus" and expects every object carrying that name plus its
placement in each classification.  ``/resolve`` does that for a whole
batch in one round-trip; this suite pins its semantics (multi-class
matches, lineage, missing names, error statuses) over HTTP, then
exercises what rides on top: the response cache (hit on repeat,
invalidation on commit, counter reconciliation) and the binary REPB
codec negotiated via ``Accept``/``Content-Type``.
"""

import http.client
import json

import pytest

from repro.engine import AsyncPrometheusServer, PrometheusDB, wire
from repro.engine.handlers import MAX_RESOLVE_NAMES
from repro.taxonomy import build_shapes_scenario
from repro.taxonomy.model import TaxonomyDatabase


def _build_db() -> PrometheusDB:
    db = PrometheusDB()
    taxdb = TaxonomyDatabase.over_engine(db)
    build_shapes_scenario(taxdb)
    return db


@pytest.fixture(scope="module", params=["async"])  # the id names the front end
def served():
    db = _build_db()
    with AsyncPrometheusServer(db) as server:
        server.db = db
        yield server


def _post(server, path, payload, headers=None, raw=None):
    conn = http.client.HTTPConnection(*server.address, timeout=15)
    try:
        body = raw if raw is not None else json.dumps(payload).encode()
        conn.request("POST", path, body, headers or {})
        response = conn.getresponse()
        return response.status, dict(response.headers), response.read()
    finally:
        conn.close()


class TestResolveSemantics:
    def test_batch_resolves_known_and_missing_names(self, served):
        status, _, body = _post(
            served,
            "/resolve",
            {"names": ["Ovals", "Circles", "Nessie"], "attr": "epithet"},
        )
        assert status == 200
        payload = json.loads(body)
        assert payload["resolved"] == 2
        assert payload["missing"] == ["Nessie"]
        assert set(payload["results"]) == {"Ovals", "Circles"}
        (oval,) = payload["results"]["Ovals"]
        assert oval["class"] == "NomenclaturalTaxon"
        assert oval["values"]["epithet"] == "Ovals"
        assert "lsn" in payload

    def test_lineage_reports_ancestors_per_classification(self, served):
        # Specimens are classification members; resolving one by its
        # field name with lineage=True reports its placement (the chain
        # of circumscribed taxa above it) in every classification that
        # contains it.
        status, _, body = _post(
            served,
            "/resolve",
            {
                "names": ["light_triangle"],
                "attr": "field_name",
                "lineage": True,
            },
        )
        assert status == 200
        (entry,) = json.loads(body)["results"]["light_triangle"]
        assert entry["class"] == "Specimen"
        placements = {p["classification"] for p in entry["lineage"]}
        assert "T1 shapes" in placements
        for placement in entry["lineage"]:
            if placement["classification"] == "T1 shapes":
                ancestors = placement["ancestors"]
                assert ancestors, "specimen should sit under taxa"
                assert all(
                    a["class"] == "CircumscriptionTaxon" for a in ancestors
                )

    def test_classification_param_narrows_lineage(self, served):
        status, _, body = _post(
            served,
            "/resolve",
            {
                "names": ["light_triangle"],
                "attr": "field_name",
                "classification": "T1 shapes",
            },
        )
        assert status == 200
        (entry,) = json.loads(body)["results"]["light_triangle"]
        assert [p["classification"] for p in entry["lineage"]] == [
            "T1 shapes"
        ]

    def test_explicit_class_narrows_candidates(self, served):
        status, _, body = _post(
            served,
            "/resolve",
            {
                "names": ["Ovals"],
                "attr": "epithet",
                "class": "NomenclaturalTaxon",
            },
        )
        assert status == 200
        assert json.loads(body)["resolved"] == 1

        status, _, _ = _post(
            served,
            "/resolve",
            {"names": ["Ovals"], "attr": "epithet", "class": "NoSuch"},
        )
        assert status == 404

    def test_resolve_error_statuses(self, served):
        cases = [
            ({"names": "Ovals"}, 400),  # not a list
            ({"names": [1, 2]}, 400),  # not strings
            ({}, 400),  # missing entirely
            ({"names": ["x"], "attr": 7}, 400),
            ({"names": ["x"], "classification": "nope"}, 404),
            (
                {"names": ["x"] * (MAX_RESOLVE_NAMES + 1)},
                400,
            ),  # batch cap
        ]
        for payload, expected in cases:
            status, _, _ = _post(served, "/resolve", payload)
            assert status == expected, f"{payload!r} -> {status}"

    def test_resolve_as_of_time_travels(self, served):
        # A name committed *after* the snapshot LSN must not resolve
        # under as_of, but must resolve at head.
        db = served.db
        lsn_before = db.lsn
        with db.begin() as txn:
            oid = txn.create("Specimen", collector="Vasquez-1887")
        assert oid
        head = _post(
            served,
            "/resolve",
            {"names": ["Vasquez-1887"], "attr": "collector"},
        )
        assert json.loads(head[2])["resolved"] == 1
        past = _post(
            served,
            "/resolve",
            {
                "names": ["Vasquez-1887"],
                "attr": "collector",
                "as_of": lsn_before,
            },
        )
        assert past[0] == 200
        payload = json.loads(past[2])
        assert payload["missing"] == ["Vasquez-1887"]
        assert payload["as_of"] == lsn_before


class TestResponseCache:
    def test_repeat_query_hits_cache_and_counters_reconcile(self, served):
        handlers = served.handlers
        body = {"query": 'select t from t in NomenclaturalTaxon '
                         'where t.epithet = "Circles"'}
        first = _post(served, "/query", body)
        hits_before = handlers.cache.hits
        second = _post(served, "/query", body)
        assert first[0] == second[0] == 200
        assert first[2] == second[2]  # byte-identical
        assert handlers.cache.hits == hits_before + 1

        # Scrape-time reconciliation: /metrics reports the same ints.
        conn = http.client.HTTPConnection(*served.address, timeout=15)
        conn.request("GET", "/metrics")
        text = conn.getresponse().read().decode()
        conn.close()
        scraped = {
            line.split()[0]: int(line.split()[-1])
            for line in text.splitlines()
            if line.startswith("repro_server_response_cache_")
        }
        assert scraped["repro_server_response_cache_hits_total"] == (
            handlers.cache.hits
        )
        assert scraped["repro_server_response_cache_misses_total"] == (
            handlers.cache.misses
        )

    def test_commit_invalidates_cached_read(self, served):
        db = served.db
        body = {"query": "select count(s) from s in Specimen"}
        before = _post(served, "/query", body)
        with db.begin() as txn:
            txn.create("Specimen", collector="cache-buster")
        after = _post(served, "/query", body)
        assert before[2] != after[2], (
            "cached count served after a commit changed the extent"
        )

    def test_resolve_responses_are_cached_too(self, served):
        handlers = served.handlers
        body = {"names": ["Triangles"], "attr": "epithet"}
        _post(served, "/resolve", body)
        hits_before = handlers.cache.hits
        _post(served, "/resolve", body)
        assert handlers.cache.hits == hits_before + 1

    def test_json_and_repb_cached_separately(self, served):
        """The cache key includes the negotiated codec: a JSON hit must
        never be served to a REPB client, or vice versa."""
        body = {"names": ["Rectangles"], "attr": "epithet"}
        plain = _post(served, "/resolve", body)
        binary = _post(
            served, "/resolve", body, headers={"Accept": wire.CONTENT_TYPE}
        )
        assert plain[1]["Content-Type"] == "application/json"
        assert binary[1]["Content-Type"] == wire.CONTENT_TYPE
        assert plain[2] != binary[2]
        assert wire.decode_frame(binary[2]) == json.loads(plain[2])


class TestRepbNegotiation:
    def test_query_accept_header_yields_repb_frame(self, served):
        status, headers, body = _post(
            served,
            "/query",
            {"query": "select s from s in Specimen"},
            headers={"Accept": wire.CONTENT_TYPE},
        )
        assert status == 200
        assert headers["Content-Type"] == wire.CONTENT_TYPE
        payload = wire.decode_frame(body)
        assert isinstance(payload["result"], list)
        assert payload["result"], "Specimen extent should not be empty"

    def test_repb_request_body_accepted(self, served):
        frame = wire.encode_frame(
            {"names": ["Ovals"], "attr": "epithet"}
        )
        status, _, body = _post(
            served,
            "/resolve",
            None,
            headers={"Content-Type": wire.CONTENT_TYPE},
            raw=frame,
        )
        assert status == 200
        assert json.loads(body)["resolved"] == 1

    def test_corrupt_repb_request_rejected_400(self, served):
        frame = bytearray(
            wire.encode_frame({"query": "select s from s in Specimen"})
        )
        frame[-1] ^= 0x40
        status, _, body = _post(
            served,
            "/query",
            None,
            headers={"Content-Type": wire.CONTENT_TYPE},
            raw=bytes(frame),
        )
        assert status == 400
        assert b"REPB" in body or b"checksum" in body or b"error" in body

    def test_errors_also_honor_accept(self, served):
        status, headers, body = _post(
            served,
            "/query",
            {"query": "selec broken"},
            headers={"Accept": wire.CONTENT_TYPE},
        )
        assert status == 400
        assert headers["Content-Type"] == wire.CONTENT_TYPE
        assert "error" in wire.decode_frame(body)
