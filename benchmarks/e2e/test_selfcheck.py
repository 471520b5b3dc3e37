"""Self-check of the benchmark (``pytest benchmarks/e2e``; not tier-1).

Runs every workload for one second per pass and checks the harness, not
the program's speed: the output carries every metric ``BENCHMARK.json``
names with its unit, equal seeds give equal op sequences and equal exact
counts, another seed gives another sequence, and trace files parse with
every non-root span naming an existing parent.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text("utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
#: Counts that must repeat exactly for a seed, and where.
EXACT = {
    "ingest_revision": "storage.log_bytes_per_record",
    "shard_scatter": "sharding.scatter_fraction",
}


def run(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["extras"]


def check_shape(result: dict, declared: list[dict]) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert NAME.fullmatch(metric["name"])
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))


def test_names_are_unique_and_well_formed():
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + WORKLOADS
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_pass(workload):
    result, extras = run(workload, seed=1, trace=0)
    check_shape(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert extras["n"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_pass_is_seeded_and_spans_link(workload):
    first, first_extras = run(workload, seed=1, trace=1)
    check_shape(first, SPEC["per_layer"])
    spans = [
        json.loads(line)
        for line in (HERE / "results" / f"trace_{workload}.jsonl").read_text().splitlines()
    ]
    ids = {span["span"] for span in spans}
    assert spans and all(
        span["parent"] is None or span["parent"] in ids for span in spans
    )
    assert all(span["end"] >= span["start"] for span in spans)
    assert abs(first_extras["self_time_over_roots"] - 1.0) < 0.10

    again, again_extras = run(workload, seed=1, trace=1)
    assert again_extras["bench.request_seq_sha"] == first_extras["bench.request_seq_sha"]
    exact = EXACT.get(workload)
    if exact:
        assert again["metrics"][exact]["value"] == first["metrics"][exact]["value"]

    _, other_extras = run(workload, seed=2, trace=1)
    assert other_extras["bench.request_seq_sha"] != first_extras["bench.request_seq_sha"]
