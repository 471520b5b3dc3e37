"""Async front end under overload: backpressure, not collapse.

Floods :class:`~repro.engine.aserver.AsyncPrometheusServer` far past
its ``queue_cap`` with distinct (uncacheable) queries and records how
many requests were accepted, how many were shed as 503, and the
accepted requests' p99 latency, checked against the server's own
``rejected`` counter.  Served read throughput of the hot, cached path
is the ``serve_hot`` workload of ``benchmarks/e2e``.
"""

import http.client
import json
import threading
import time

from repro.engine import AsyncPrometheusServer, PrometheusDB
from repro.taxonomy import build_shapes_scenario
from repro.taxonomy.model import TaxonomyDatabase
from repro.telemetry import DISABLED


def _build_db() -> PrometheusDB:
    db = PrometheusDB(telemetry=DISABLED)
    taxdb = TaxonomyDatabase.over_engine(db)
    build_shapes_scenario(taxdb)
    return db


def test_backpressure_keeps_latency_flat(bench_recorder):
    """Overload the async server far past ``queue_cap`` and verify the
    accepted requests' p99 stays bounded while the excess is shed as
    503 — backpressure, not collapse."""
    server = AsyncPrometheusServer(_build_db(), workers=2, queue_cap=8)
    accepted: list[float] = []
    rejected = 0
    lock = threading.Lock()
    with server:
        stop = time.monotonic() + 1.0

        def flood(thread: int) -> None:
            nonlocal rejected
            conn = http.client.HTTPConnection(*server.address, timeout=15)
            sent = 0
            while time.monotonic() < stop:
                begin = time.perf_counter()
                sent += 1
                try:
                    # A distinct body per request: a cache hit is
                    # answered on the event loop and never queues, so
                    # only misses load the pool.
                    conn.request(
                        "POST",
                        "/query",
                        json.dumps({
                            "query": "select s from s in Specimen",
                            "params": {"flood": [thread, sent]},
                        }).encode(),
                    )
                    response = conn.getresponse()
                    response.read()
                except (http.client.HTTPException, OSError):
                    conn.close()
                    conn = http.client.HTTPConnection(
                        *server.address, timeout=15
                    )
                    continue
                elapsed = time.perf_counter() - begin
                with lock:
                    if response.status == 200:
                        accepted.append(elapsed)
                    elif response.status == 503:
                        rejected += 1
            conn.close()

        floods = [
            threading.Thread(target=flood, args=(n,)) for n in range(16)
        ]
        for thread in floods:
            thread.start()
        for thread in floods:
            thread.join()

    assert accepted, "no requests were accepted under flood"
    accepted.sort()
    p99 = accepted[min(len(accepted) - 1, int(len(accepted) * 0.99))]
    bench_recorder.record(
        "overload_behavior",
        accepted=len(accepted),
        rejected_503=rejected,
        accepted_p99_ms=round(p99 * 1000.0, 3),
        server_rejected_counter=server.rejected,
        queue_cap=8,
        flood_threads=16,
    )
    # The shed load must show up in the server's authoritative counter.
    assert server.rejected == rejected
