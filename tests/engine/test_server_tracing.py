"""One trace across the cluster: HTTP propagation end to end.

A real two-server topology over loopback, like
``test_server_replication``, but these tests pin the observability
surface: a federation read against a *lagging* replica produces a single
trace_id whose spans are resolvable via ``GET /trace/<id>`` on BOTH
nodes with cross-node parent/child linkage; replication catch-up joins
the caller's trace on the primary; error payloads and response headers
carry the trace id; ``/events`` serves the journal; ``/cluster/*``
aggregates the fleet.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.core import types as T
from repro.core.attributes import Attribute
from repro.engine import AsyncPrometheusServer, PrometheusDB
from repro.engine.federation import Federation, RemoteDatabase
from repro.replication import LogShipper, ReplicaApplier, ReplicationClient
from repro.telemetry import Telemetry, format_traceparent, propagation


def declare(db):
    db.schema.define_class(
        "Entry", [Attribute("key", T.STRING), Attribute("value", T.INTEGER)]
    )


def write_entry(db, key, value):
    txn = db.transactions.begin()
    txn.create("Entry", key=key, value=value)
    txn.commit()
    return txn.commit_lsn


@pytest.fixture
def topology(tmp_path):
    primary = PrometheusDB(tmp_path / "primary.plog")
    declare(primary)
    primary.load()
    primary.telemetry.set_node("primary")
    shipper = LogShipper(primary.store)

    replica = PrometheusDB(tmp_path / "replica.plog", read_only=True)
    declare(replica)
    replica.load()
    replica.telemetry.set_node("replica")
    applier = ReplicaApplier(replica)

    with AsyncPrometheusServer(primary, shipper=shipper) as pserver:
        client = ReplicationClient(
            applier, RemoteDatabase(pserver.url), name="r1"
        )
        with AsyncPrometheusServer(
            replica,
            replica_client=client,
            primary_url=pserver.url,
        ) as rserver:
            yield pserver, rserver, primary, replica, client
    replica.close()
    primary.close()


def server_spans(url, trace_id, path=None, retry_s=2.0):
    """GET /trace/<id>, retrying briefly: the server records a span
    only after the response bytes go out, so an immediate follow-up
    read can race the handler's finally block — both for the whole
    trace (404) and for one expected span (``path=``) while earlier
    spans of the trace are already visible."""
    import time

    def has_path(body):
        return path is None or any(
            s["attributes"].get("path") == path for s in body["spans"]
        )

    deadline = time.monotonic() + retry_s
    while True:
        try:
            with urllib.request.urlopen(
                f"{url}/trace/{trace_id}", timeout=10
            ) as response:
                body = json.load(response)
            if has_path(body) or time.monotonic() >= deadline:
                return body
        except urllib.error.HTTPError as err:
            if err.code != 404 or time.monotonic() >= deadline:
                raise
        time.sleep(0.02)


class TestRoutedReadSingleTrace:
    def test_lagging_replica_read_traces_on_both_nodes(self, topology):
        pserver, rserver, primary, replica, client = topology
        write_entry(primary, "a", 1)
        client.catch_up()
        write_entry(primary, "b", 2)  # replica now lags

        tel = Telemetry()
        federation = Federation(telemetry=tel)
        federation.add_node("primary", RemoteDatabase(pserver.url))
        federation.add_read_replica(
            "primary", "replica", RemoteDatabase(rserver.url)
        )
        # A finite bound makes the federation probe the primary's head
        # before it asks the replica.
        with tel.tracer.span("client.read"):
            [answer] = federation.query_all_reads(
                "select e.key from e in Entry order by e.key",
                staleness_bytes=1 << 20,
            )
        assert answer.served_by == "primary/replica"
        assert answer.result == ["a"]  # the watermark state, not b
        assert replica.store.commit_lsn < primary.store.commit_lsn

        [root] = [
            r for r in tel.traces.snapshot() if r["name"] == "client.read"
        ]
        trace_id = root["trace_id"]

        # The SAME trace id resolves on BOTH servers.
        on_replica = server_spans(rserver.url, trace_id, path="/query")
        on_primary = server_spans(
            pserver.url, trace_id, path="/replicate/status"
        )
        assert on_replica["trace_id"] == trace_id
        assert on_primary["trace_id"] == trace_id
        assert on_replica["node"] == "replica"
        assert on_primary["node"] == "primary"

        # Cross-node linkage: each server-side request span is a direct
        # child of the client-side root span.
        replica_query = [
            s
            for s in on_replica["spans"]
            if s["name"] == "http.request"
            and s["attributes"].get("path") == "/query"
        ]
        assert replica_query
        assert all(
            s["parent_span_id"] == root["span_id"] for s in replica_query
        )
        primary_probe = [
            s
            for s in on_primary["spans"]
            if s["name"] == "http.request"
            and s["attributes"].get("path") == "/replicate/status"
        ]
        assert primary_probe
        assert all(
            s["parent_span_id"] == root["span_id"] for s in primary_probe
        )

    def test_unknown_trace_is_a_404(self, topology):
        pserver, *_ = topology
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"{pserver.url}/trace/{'ab' * 16}", timeout=10
            )
        assert err.value.code == 404


class TestReplicationCatchUpTrace:
    def test_catch_up_joins_the_callers_trace_on_the_primary(
        self, topology
    ):
        pserver, rserver, primary, replica, client = topology
        write_entry(primary, "a", 1)
        with replica.telemetry.tracer.span("operator.sync") as span:
            client.catch_up()
            trace_id = span.trace_id

        # Replica side: the sync root and its replication.pull children
        # share one trace.
        local = replica.telemetry.traces.spans(trace_id)
        names = {s["name"] for s in local}
        assert "operator.sync" in names and "replication.pull" in names

        # Primary side: the pull requests carried the traceparent.
        on_primary = server_spans(
            pserver.url, trace_id, path="/replicate/pull"
        )
        paths = {
            s["attributes"].get("path") for s in on_primary["spans"]
        }
        assert "/replicate/pull" in paths


class TestTraceSurface:
    def test_response_header_carries_trace_id(self, topology):
        pserver, *_ = topology
        with urllib.request.urlopen(
            f"{pserver.url}/health", timeout=10
        ) as response:
            trace_id = response.headers.get("X-Repro-Trace-Id")
        assert trace_id and len(trace_id) == 32
        assert server_spans(pserver.url, trace_id)["spans"]

    def test_inbound_traceparent_is_adopted(self, topology):
        pserver, *_ = topology
        ctx = propagation.new_context()
        request = urllib.request.Request(
            f"{pserver.url}/health",
            headers={"traceparent": format_traceparent(ctx)},
        )
        with urllib.request.urlopen(request, timeout=10) as response:
            assert (
                response.headers.get("X-Repro-Trace-Id") == ctx.trace_id
            )
        [span] = server_spans(pserver.url, ctx.trace_id)["spans"]
        assert span["parent_span_id"] == ctx.span_id

    def test_error_payload_carries_trace_id(self, topology):
        pserver, *_ = topology
        ctx = propagation.new_context()
        request = urllib.request.Request(
            f"{pserver.url}/classes/NoSuchClass",
            headers={"traceparent": format_traceparent(ctx)},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(request, timeout=10)
        assert err.value.code == 404
        payload = json.loads(err.value.read())
        assert payload["trace_id"] == ctx.trace_id

    def test_slow_query_log_carries_trace_id(self, topology):
        pserver, rserver, primary, *_ = topology
        primary.telemetry.slow_query_ms = 0.0
        try:
            ctx = propagation.new_context()
            request = urllib.request.Request(
                f"{pserver.url}/query",
                data=json.dumps(
                    {"query": "select e from e in Entry"}
                ).encode(),
                headers={
                    "Content-Type": "application/json",
                    "traceparent": format_traceparent(ctx),
                },
            )
            urllib.request.urlopen(request, timeout=10).read()
        finally:
            primary.telemetry.slow_query_ms = None
        assert any(
            entry["trace_id"] == ctx.trace_id
            for entry in primary.telemetry.slow_queries
        )


class TestEventsEndpoint:
    def test_events_since_cursor(self, topology):
        pserver, rserver, primary, replica, client = topology
        primary.telemetry.events.record("test.one", epoch=1)
        primary.telemetry.events.record("test.two", epoch=2)
        with urllib.request.urlopen(
            f"{pserver.url}/events", timeout=10
        ) as response:
            body = json.load(response)
        assert body["node"] == "primary"
        kinds = [e["kind"] for e in body["events"]]
        assert "test.one" in kinds and "test.two" in kinds
        seq = body["events"][-1]["seq"]
        with urllib.request.urlopen(
            f"{pserver.url}/events?since={seq - 1}", timeout=10
        ) as response:
            tail = json.load(response)["events"]
        assert [e["seq"] for e in tail] == [seq]

    def test_bad_since_is_a_400(self, topology):
        pserver, *_ = topology
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(
                f"{pserver.url}/events?since=banana", timeout=10
            )
        assert err.value.code == 400

    def test_journal_persists_beside_the_store(
        self, tmp_path, topology
    ):
        _, _, primary, *_ = topology
        primary.telemetry.events.record("test.durable", epoch=1)
        path = primary.telemetry.events.path
        assert path is not None and path.endswith(".events.jsonl")
        lines = [
            json.loads(line)
            for line in open(path, encoding="utf-8")
        ]
        assert any(e["kind"] == "test.durable" for e in lines)


class TestClusterEndpoints:
    @pytest.fixture
    def federated(self, topology):
        pserver, rserver, primary, replica, client = topology
        federation = Federation(telemetry=primary.telemetry)
        federation.add_node("alpha", pserver.url)
        federation.add_node("beta", rserver.url)
        agg_server = AsyncPrometheusServer(
            primary, federation=federation
        )
        agg_server.start()
        try:
            yield agg_server, pserver, rserver, primary, replica
        finally:
            agg_server.stop()

    def test_cluster_metrics_merges_and_sums(self, federated):
        agg_server, pserver, rserver, primary, replica = federated
        write_entry(primary, "a", 1)
        with urllib.request.urlopen(
            f"{agg_server.url}/cluster/metrics", timeout=10
        ) as response:
            body = json.load(response)
        assert set(body["nodes"]) == {"alpha", "beta"}
        assert body["partial"] is False
        commits = "repro_txn_commits_total"
        assert body["totals"][commits] >= 1.0
        assert (
            body["nodes"]["alpha"]["series"][commits]
            + body["nodes"]["beta"]["series"].get(commits, 0.0)
            == body["totals"][commits]
        )

    def test_cluster_overview_rows_and_summary(self, federated):
        agg_server, pserver, rserver, primary, replica = federated
        with urllib.request.urlopen(
            f"{agg_server.url}/cluster/overview", timeout=10
        ) as response:
            body = json.load(response)
        alpha, beta = body["nodes"]["alpha"], body["nodes"]["beta"]
        assert alpha["role"] == "primary"
        assert beta["role"] == "replica"
        assert alpha["breaker"] == "closed"
        summary = body["summary"]
        assert summary["endpoints"] == 2
        assert summary["primaries"] == ["alpha"]
        assert summary["partial"] is False

    def test_cluster_routes_404_without_federation(self, topology):
        pserver, *_ = topology
        for path in ("/cluster/metrics", "/cluster/overview"):
            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(pserver.url + path, timeout=10)
            assert err.value.code == 404
