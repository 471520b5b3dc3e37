"""HTTP surface: ``?as_of=`` reads and machine-readable 409 payloads."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.engine import AsyncPrometheusServer, PrometheusDB


def get(url):
    with urllib.request.urlopen(url, timeout=5) as response:
        return response.status, json.load(response)


def post(url, payload):
    data = json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=5) as response:
        return response.status, json.load(response)


def post_error(url, payload):
    with pytest.raises(urllib.error.HTTPError) as err:
        post(url, payload)
    return err.value.code, json.load(err.value)


@pytest.fixture
def served():
    db = PrometheusDB()
    db.schema.define_class(
        "Counter", [Attribute("label", T.STRING), Attribute("n", T.INTEGER)]
    )
    db.load()
    with AsyncPrometheusServer(db) as server:
        yield server.url, db


QUERY = "select c.n from c in Counter"


class TestQueryAsOf:
    def test_as_of_query_param_and_body(self, served):
        url, db = served
        obj = db.schema.create("Counter", label="x", n=1)
        db.commit()
        old = db.lsn
        obj.set("n", 2)
        db.commit()

        status, body = post(url + "/query", {"query": QUERY})
        assert (status, body["result"]) == (200, [2])

        status, body = post(url + f"/query?as_of={old}", {"query": QUERY})
        assert (status, body["result"]) == (200, [1])
        assert body["as_of"] == old

        status, body = post(url + "/query", {"query": QUERY, "as_of": old})
        assert (status, body["result"]) == (200, [1])

    def test_unavailable_snapshot_is_404_with_window(self, served):
        url, db = served
        db.schema.create("Counter", label="x", n=1)
        db.commit()
        code, body = post_error(
            url + "/query", {"query": QUERY, "as_of": db.lsn + 999}
        )
        assert code == 404
        assert body["snapshot"] == "unavailable"
        assert body["floor"] <= body["head"] < db.lsn + 999

    def test_malformed_as_of_is_400(self, served):
        """A malformed as_of is the client's error, never a refusal
        about history and never a read at some coerced LSN."""
        url, db = served
        db.schema.create("Counter", label="x", n=1)
        db.commit()
        for bad in ("not-a-number", "1", True, 1.9, [1], {"lsn": 1}):
            code, body = post_error(
                url + "/query", {"query": QUERY, "as_of": bad}
            )
            assert code == 400, bad
            assert "snapshot" not in body
            assert "as_of" in body["error"]
        code, body = post_error(url + "/query?as_of=abc", {"query": QUERY})
        assert code == 400
        assert "snapshot" not in body

    def test_malformed_as_of_is_400_on_every_route(self, served):
        url, db = served
        db.schema.create("Counter", label="x", n=1)
        db.commit()
        _, body = post(url + "/session", {})
        sid = body["session"]
        routes = (
            ("/resolve", {"names": ["x"], "attr": "label"}),
            ("/resolve", {"oids": [1]}),
            (f"/session/{sid}/query", {"query": QUERY}),
        )
        for path, payload in routes:
            for bad in ("abc", True, 1.9):
                code, body = post_error(url + path, {**payload, "as_of": bad})
                assert code == 400, (path, bad)
                assert "snapshot" not in body
            code, _ = post_error(url + path + "?as_of=abc", payload)
            assert code == 400, path
            status, body = post(url + path, {**payload, "as_of": db.lsn})
            assert status == 200, path
            assert body.get("as_of", db.lsn) == db.lsn


class TestConflictKinds:
    def test_write_write_conflict_payload(self, served):
        url, db = served
        oid = db.schema.create("Counter", label="shared", n=0).oid
        db.commit()

        _, body = post(url + "/session", {})
        loser = body["session"]
        _, body = post(url + "/session", {})
        winner = body["session"]

        # Both sessions read, then the winner commits first.
        post(
            url + f"/session/{loser}/apply",
            {"ops": [{"op": "set", "oid": oid, "attr": "n", "value": 1}]},
        )
        post(
            url + f"/session/{winner}/apply",
            {"ops": [{"op": "set", "oid": oid, "attr": "n", "value": 7}]},
        )
        status, _ = post(url + f"/session/{winner}/commit", {})
        assert status == 200

        code, body = post_error(url + f"/session/{loser}/commit", {})
        assert code == 409
        assert body["conflict"] is True
        assert body["conflict_kind"] == "write-write"
        assert body["stale_oids"] == [oid]
        assert body["retry"] is True

    def test_session_query_supports_as_of(self, served):
        url, db = served
        obj = db.schema.create("Counter", label="x", n=10)
        db.commit()
        old = db.lsn
        obj.set("n", 20)
        db.commit()

        _, body = post(url + "/session", {})
        sid = body["session"]
        status, body = post(
            url + f"/session/{sid}/query", {"query": QUERY, "as_of": old}
        )
        assert (status, body["result"]) == (200, [10])
