"""One end-to-end benchmark for the taxonomic database.

Contract mode (what ``BENCHMARK.json``'s command runs)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload in this process and prints, as the last line of
standard output, one JSON object ``{correct, attempted, failed,
metrics}`` — the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  The line before it carries the workload's
extra, informational numbers.

Without ``--workload`` every workload runs, each pass in a fresh
subprocess — untraced, then traced — and a table of every metric with
its unit, sample count and bound is printed and saved under
``results/``.  ``--repeat N`` repeats that with seeds ``seed .. seed+N-1``
and reports medians and quartiles.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

import harness

harness.import_program()

SETUP_REPEATS = 3
#: Share of ``--seconds`` a traced run gives to its untraced and to its
#: traced window; the layer probes take the rest.
TRACE_WINDOW = 0.3


def workload_classes() -> dict[str, type[harness.Workload]]:
    from ingest_revision import IngestRevision
    from query_cold import QueryCold
    from revision_mixed import RevisionMixed
    from serve_hot import ServeHot
    from shard_scatter import ShardScatter

    classes = (IngestRevision, ServeHot, QueryCold, RevisionMixed, ShardScatter)
    return {cls.name: cls for cls in classes}


def spec() -> dict[str, Any]:
    return json.loads(
        (harness.HERE.parent.parent / "BENCHMARK.json").read_text("utf-8")
    )


def finish(
    problems: list[str], loop: harness.LoopResult, extras: dict[str, Any],
    values: dict[str, float], declared: list[dict[str, Any]],
) -> int:
    """Print the problems, the extras line and the result line: exactly
    the declared metrics, each with its unit (a layer a workload never
    enters reports 0 for its counts and shares).  Returns the exit code."""
    for problem in problems:
        print(f"PROBLEM {problem}", file=sys.stderr)
    print(json.dumps({"extras": extras}))
    print(json.dumps({
        "correct": not problems,
        "attempted": max(1, loop.attempted),
        "failed": loop.failed,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }))
    return 1 if problems else 0


def run_untraced(cls: type[harness.Workload], seed: int, seconds: float) -> int:
    """End-to-end pass: set up several times, time one loop, verify."""
    with harness.Scratch(f"{cls.name}-{seed}-e2e") as scratch:
        setups = []
        for attempt in range(SETUP_REPEATS):
            workload = cls(seed, scratch)
            started = time.perf_counter()
            workload.setup()
            setups.append(time.perf_counter() - started)
            if attempt < SETUP_REPEATS - 1:
                workload.teardown()
                # A database is a web of reference cycles: collect the
                # discarded one now, not in the middle of the timed loop.
                del workload
                gc.collect()
        try:
            harness.settle_heap()
            loop = harness.run_loop(
                workload.streams(), seconds, seed, check_share=cls.check_share
            )
            problems = loop.problems + workload.verify()
            extras = workload.extras()
        finally:
            workload.teardown()
    values = harness.loop_metrics(loop, cls.block)
    values["setup_s"] = statistics.median(setups)
    values["peak_rss_mb"] = harness.peak_rss_mb()
    extras["n"] = values.pop("n")
    extras["checked"] = loop.checked
    return finish(problems, loop, extras, values, spec()["end_to_end"])


def run_traced(cls: type[harness.Workload], seed: int, seconds: float) -> int:
    """Per-layer pass: an untraced and a traced window over one set-up
    (their ratio is the tracing overhead), then the layer probes."""
    import probes

    window = seconds * TRACE_WINDOW
    tracer = harness.Tracer()
    with harness.Scratch(f"{cls.name}-{seed}-trace") as scratch:
        workload = cls(seed, scratch)
        workload.setup()
        try:
            harness.settle_heap()
            plain = harness.run_loop(
                workload.streams(), window, seed, check_share=cls.check_share
            )
            workload.instrument(tracer)
            traced = harness.run_loop(
                workload.streams(), window, seed, tracer, cls.check_share
            )
            tracer.unwrap_all()
            problems = plain.problems + traced.problems + workload.verify()
            values = workload.counters()
            sha = harness.sequence_sha(workload.op_keys())
        finally:
            workload.teardown()
        values.update(probes.run_all(seed, scratch))
    by_layer, roots = tracer.self_times()
    for layer, seconds_self in by_layer.items():
        values[f"{layer}.self_share"] = seconds_self / roots if roots else 0.0
    plain_rate = harness.loop_metrics(plain, cls.block)["ops_per_s"]
    traced_rate = harness.loop_metrics(traced, cls.block)["ops_per_s"]
    values["bench.trace_overhead_ratio"] = plain_rate / traced_rate
    tracer.write(harness.RESULTS / f"trace_{cls.name}.jsonl")
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    extras = {
        "bench.request_seq_sha": sha,
        "spans": len(tracer.spans),
        "self_time_over_roots": sum(by_layer.values()) / roots if roots else 0.0,
    }
    return finish(problems, traced, extras, values, spec()["per_layer"])


# -- the whole-suite mode ---------------------------------------------------------


def run_child(workload: str, seed: int, seconds: int, trace: int) -> dict[str, Any]:
    """One pass in a fresh subprocess; returns its result and extras."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600,
    )
    lines = [line for line in done.stdout.splitlines() if line.strip()]
    if done.returncode != 0 or not lines:
        raise SystemExit(
            f"{workload} (trace {trace}) exited {done.returncode}:\n"
            f"{done.stdout}\n{done.stderr}"
        )
    result = json.loads(lines[-1])
    result["extras"] = json.loads(lines[-2])["extras"] if len(lines) > 1 else {}
    return result


def run_suite(seed: int, seconds: int, repeat: int) -> int:
    declared = spec()
    rows: dict[tuple[str, str], list[float]] = {}
    extras: dict[tuple[str, str], list[Any]] = {}
    failed = 0
    for round_seed in range(seed, seed + repeat):
        for workload in (w["name"] for w in declared["workloads"]):
            for trace in (0, 1):
                result = run_child(workload, round_seed, seconds, trace)
                failed += result["failed"]
                for name, metric in result["metrics"].items():
                    rows.setdefault((workload, name), []).append(metric["value"])
                for name, value in result["extras"].items():
                    extras.setdefault((workload, name), []).append(value)
    units = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    print(f"{'workload':16s} {'metric':38s} {'median':>14s} {'q1':>14s} "
          f"{'q3':>14s} {'unit':8s} {'runs':>4s} {'n':>7s} {'bound':>6s}")
    table = []
    for (workload, name), values in rows.items():
        q1, median, q3 = quartiles(values)
        bound = units[name].get("bound")
        # Timed ops behind an end-to-end number; a probe's own sample
        # count is fixed in probes.py.
        n = statistics.median(extras[workload, "n"]) if bound is not None else None
        table.append({
            "workload": workload, "metric": name, "unit": units[name]["unit"],
            "median": median, "q1": q1, "q3": q3, "values": values,
            "bound": bound, "n": n,
        })
        print(f"{workload:16s} {name:38s} {median:14.5g} {q1:14.5g} {q3:14.5g} "
              f"{units[name]['unit']:8s} {len(values):4d} "
              f"{'' if n is None else format(n, '.0f'):>7s} "
              f"{'' if bound is None else format(bound, '.2f'):>6s}")
    for (workload, name), values in extras.items():
        print(f"{workload:16s} {name:38s} {values[-1]!s:>14s} (extra, no bound)")
    harness.RESULTS.mkdir(exist_ok=True)
    out = harness.RESULTS / f"suite_seed{seed}_x{repeat}.json"
    out.write_text(json.dumps({"seed": seed, "seconds": seconds, "rows": table}, indent=1))
    print(f"saved {out}; failed ops: {failed}")
    return 0 if failed == 0 else 1


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workload_classes()))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", "--duration", type=int, default=None,
                        help="timed seconds per run (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1,
                        help="suite mode: seeds seed..seed+N-1, medians and quartiles")
    args = parser.parse_args()
    seconds = args.seconds if args.seconds is not None else spec()["run_seconds"]
    if args.workload is None:
        return run_suite(args.seed, seconds, args.repeat)
    cls = workload_classes()[args.workload]
    harness.pin_to_one_core()
    run = run_traced if args.trace else run_untraced
    return run(cls, args.seed, seconds)


if __name__ == "__main__":
    sys.exit(main())
