"""Compare two saved suite results row by row.

    python3 benchmarks/e2e/compare.py results/a.json results/b.json

``a`` is the parent, ``b`` the change; both come from ``run.py``
(suite mode, ideally ``--repeat 10``).  Every (end-to-end metric,
workload) row gets a verdict against the bound ``BENCHMARK.json`` fixes
for the metric:

* ``unresolved`` — either side's inter-quartile spread is wider than the
  bound, so the runs cannot say;
* ``regressed``  — ``b``'s median is worse than ``a``'s by more than the
  bound;
* ``ok``         — anything else.

Per-layer rows have no bound; their change is printed for reading, never
judged.  Exit status is 1 when any row regressed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent


def load_rows(path: str) -> dict[tuple[str, str], dict[str, Any]]:
    rows = json.loads(Path(path).read_text("utf-8"))["rows"]
    return {(row["workload"], row["metric"]): row for row in rows}


def worse_by(a: float, b: float, better: str) -> float:
    """How much worse ``b`` is than ``a``, as a share of ``a``
    (negative: better)."""
    if a == 0:
        return 0.0
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def spread(row: dict[str, Any]) -> float:
    return (row["q3"] - row["q1"]) / abs(row["median"]) if row["median"] else 0.0


def verdict(a: dict[str, Any], b: dict[str, Any], metric: dict[str, Any]) -> tuple[str, float]:
    worse = worse_by(a["median"], b["median"], metric["better"])
    bound = metric.get("bound")
    if bound is None:
        return "info", worse
    if max(spread(a), spread(b)) > bound:
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__)
        return 2
    declared = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text("utf-8"))
    metrics = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    a_rows, b_rows = load_rows(argv[1]), load_rows(argv[2])
    regressed = 0
    print(f"{'workload':16s} {'metric':38s} {'a median':>12s} {'b median':>12s} "
          f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}  verdict")
    for key in a_rows:
        if key not in b_rows or key[1] not in metrics:
            continue
        a, b, metric = a_rows[key], b_rows[key], metrics[key[1]]
        word, worse = verdict(a, b, metric)
        regressed += word == "regressed"
        bound = metric.get("bound")
        print(f"{key[0]:16s} {key[1]:38s} {a['median']:12.5g} {b['median']:12.5g} "
              f"{worse:+9.1%} {max(spread(a), spread(b)):7.1%} "
              f"{'' if bound is None else format(bound, '.0%'):>6s}  {word}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
