"""HTTP session endpoints: the wire surface of repro.concurrency."""

import json
import urllib.error
import urllib.request

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.engine import AsyncPrometheusServer, PrometheusDB


@pytest.fixture
def served():
    db = PrometheusDB()
    db.schema.define_class(
        "Taxon", [Attribute("name", T.STRING), Attribute("rank", T.STRING)]
    )
    db.schema.define_relationship("ChildOf", "Taxon", "Taxon")
    genus = db.schema.create("Taxon", name="Quercus", rank="genus").oid
    db.commit()
    with AsyncPrometheusServer(db) as server:
        yield server.url, db, genus


def request(url, method="GET", payload=None):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        url,
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=5) as response:
            return response.status, json.load(response)
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def open_session(url):
    status, body = request(url + "/session", "POST", {})
    assert status == 201
    return body["session"]


class TestSessionLifecycle:
    def test_create_returns_token(self, served):
        url, *_ = served
        sid = open_session(url)
        assert len(sid) == 32

    def test_status_endpoint(self, served):
        url, *_ = served
        sid = open_session(url)
        status, body = request(f"{url}/session/{sid}")
        assert status == 200
        assert body["session"] == sid
        assert body["in_txn"] is False

    def test_unknown_session_404(self, served):
        url, *_ = served
        for action in ("", "/apply", "/commit", "/abort"):
            path = f"{url}/session/bogus{action}"
            status, body = (
                request(path)
                if not action
                else request(path, "POST", {"ops": []})
            )
            assert status == 404, action
            assert "unknown or expired" in body["error"]

    def test_release(self, served):
        url, *_ = served
        sid = open_session(url)
        status, body = request(f"{url}/session/{sid}/release", "POST", {})
        assert status == 200 and body["released"]
        status, _ = request(f"{url}/session/{sid}")
        assert status == 404


class TestApplyCommit:
    def test_staged_ops_commit_atomically(self, served):
        url, db, genus = served
        sid = open_session(url)
        status, body = request(
            f"{url}/session/{sid}/apply",
            "POST",
            {
                "ops": [
                    {
                        "op": "create",
                        "class": "Taxon",
                        "attrs": {"name": "Fagus", "rank": "genus"},
                    },
                    {"op": "set", "oid": genus, "attr": "rank", "value": "g"},
                    {"op": "get", "oid": genus},
                ]
            },
        )
        assert status == 200
        new_oid = body["results"][0]["oid"]
        assert body["results"][2]["values"]["rank"] == "g"  # read-your-writes
        # Nothing visible yet...
        assert not db.schema.has_object(new_oid)
        assert db.schema.get_object(genus).get("rank") == "genus"
        status, body = request(f"{url}/session/{sid}/commit", "POST", {})
        assert status == 200
        assert body["committed"] is True and body["commit_ts"] > 0
        assert db.schema.get_object(new_oid).get("name") == "Fagus"
        assert db.schema.get_object(genus).get("rank") == "g"

    def test_relate_and_delete_ops(self, served):
        url, db, genus = served
        sid = open_session(url)
        status, body = request(
            f"{url}/session/{sid}/apply",
            "POST",
            {
                "ops": [
                    {
                        "op": "create",
                        "class": "Taxon",
                        "attrs": {"name": "Q. robur", "rank": "species"},
                    },
                ]
            },
        )
        species = body["results"][0]["oid"]
        status, body = request(
            f"{url}/session/{sid}/apply",
            "POST",
            {
                "ops": [
                    {
                        "op": "relate",
                        "class": "ChildOf",
                        "origin": species,
                        "destination": genus,
                    }
                ]
            },
        )
        assert status == 200
        rel = body["results"][0]["oid"]
        request(f"{url}/session/{sid}/commit", "POST", {})
        assert db.schema.get_object(rel).origin_oid == species

    def test_abort_discards(self, served):
        url, db, genus = served
        sid = open_session(url)
        request(
            f"{url}/session/{sid}/apply",
            "POST",
            {"ops": [{"op": "set", "oid": genus, "attr": "rank", "value": "x"}]},
        )
        status, body = request(f"{url}/session/{sid}/abort", "POST", {})
        assert status == 200 and body["aborted"]
        assert db.schema.get_object(genus).get("rank") == "genus"

    def test_conflict_is_409_with_retry_hint(self, served):
        url, db, genus = served
        sid = open_session(url)
        request(
            f"{url}/session/{sid}/apply",
            "POST",
            {"ops": [{"op": "set", "oid": genus, "attr": "rank", "value": "a"}]},
        )
        with db.begin() as winner:
            winner.set(genus, "rank", "b")
        status, body = request(f"{url}/session/{sid}/commit", "POST", {})
        assert status == 409
        assert body["conflict"] is True and body["retry"] is True
        assert "begin a new transaction" in body["error"]
        # Session survives the conflict; a retry commits.
        request(
            f"{url}/session/{sid}/apply",
            "POST",
            {"ops": [{"op": "set", "oid": genus, "attr": "rank", "value": "c"}]},
        )
        status, body = request(f"{url}/session/{sid}/commit", "POST", {})
        assert status == 200
        assert db.schema.get_object(genus).get("rank") == "c"

    def test_bad_ops_rejected(self, served):
        url, _, genus = served
        sid = open_session(url)
        status, body = request(
            f"{url}/session/{sid}/apply", "POST", {"ops": [{"op": "nope"}]}
        )
        assert status == 400 and "unknown op" in body["error"]
        status, body = request(
            f"{url}/session/{sid}/apply", "POST", {"ops": [{"op": "create"}]}
        )
        assert status == 400 and "missing field" in body["error"]
        status, body = request(
            f"{url}/session/{sid}/apply", "POST", {"not_ops": 1}
        )
        assert status == 400

    def test_session_query_sees_committed_state(self, served):
        url, db, genus = served
        sid = open_session(url)
        request(
            f"{url}/session/{sid}/apply",
            "POST",
            {"ops": [{"op": "set", "oid": genus, "attr": "rank", "value": "z"}]},
        )
        status, body = request(
            f"{url}/session/{sid}/query",
            "POST",
            {"query": "select t.rank from t in Taxon"},
        )
        assert status == 200
        # Read-committed: the staged write is not query-visible.
        assert body["result"] == ["genus"]

    def test_autocommit_endpoints_unaffected(self, served):
        url, _, genus = served
        status, body = request(f"{url}/objects/{genus}")
        assert status == 200
        assert body["values"]["name"] == "Quercus"
        status, body = request(
            url + "/query",
            "POST",
            {"query": "select count(t) from t in Taxon"},
        )
        assert status == 200
