"""Shared machinery of the end-to-end benchmark: the span tracer, the
closed-loop driver, and the statistics every workload reports.

Nothing here knows a workload; ``run.py`` wires these to the five
workload modules.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import resource
import shutil
import statistics
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterator

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"

#: Layers (``repro.<module>``) a span can be charged to; ``bench`` is
#: the harness itself plus any program code no span covers.
LAYERS = (
    "bench", "storage", "core", "taxonomy", "classification", "query",
    "engine", "concurrency", "mvcc", "replication", "sharding",
)


def import_program() -> None:
    """Put the program under test on ``sys.path`` (the driver's command
    may not name anything outside the benchmark's directory)."""
    src = HERE.parent.parent / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))


# -- tracing ------------------------------------------------------------------


class Tracer:
    """Spans recorded by the benchmark around calls into the program.

    A span is ``(name, layer, trace, span, parent, start, end)``; spans
    of one operation share ``trace``.  Spans stay in memory and are
    written by :meth:`write` when the run ends.  ``wrap`` shadows a
    bound method with an instance attribute, so the program's files are
    never edited and an untraced run executes no tracing code at all.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[str, str, int, int, int, float, float]] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._wrapped: list[tuple[Any, str]] = []

    def _stack(self) -> list[tuple[int, int]]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def current(self) -> tuple[int, int] | None:
        """``(trace, span)`` of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def call(
        self,
        name: str,
        layer: str,
        fn: Callable[..., Any],
        args: tuple = (),
        kwargs: dict | None = None,
        parent: tuple[int, int] | None = None,
    ) -> Any:
        """Run ``fn`` inside a span.  ``parent`` carries a span context
        across threads (the server side of one HTTP request)."""
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        span_id = next(self._ids)
        trace_id, parent_id = parent if parent else (span_id, 0)
        stack.append((trace_id, span_id))
        start = time.perf_counter()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(
                (name, layer, trace_id, span_id, parent_id, start, end)
            )

    def install(self, obj: Any, attr: str, replacement: Callable[..., Any]) -> None:
        """Shadow ``obj.attr`` until :meth:`unwrap_all`."""
        setattr(obj, attr, replacement)
        self._wrapped.append((obj, attr))

    def traced(self, obj: Any, attr: str, layer: str) -> Callable[..., Any]:
        """``obj.attr`` wrapped in a ``<layer>.<attr>`` span."""
        inner = getattr(obj, attr)
        name = f"{layer}.{attr.lstrip('_')}"
        return lambda *args, **kwargs: self.call(name, layer, inner, args, kwargs)

    def wrap(self, obj: Any, attr: str, layer: str) -> None:
        """Trace every call of ``obj.attr``."""
        self.install(obj, attr, self.traced(obj, attr, layer))

    def wrap_returned(
        self, obj: Any, attr: str, layer: str, inner_attrs: tuple[str, ...]
    ) -> None:
        """Trace ``inner_attrs`` of whatever ``obj.attr()`` returns: for
        a factory of short-lived handles (a store transaction), which
        die with their wrappers."""
        inner = getattr(obj, attr)

        def factory(*args: Any, **kwargs: Any) -> Any:
            handle = inner(*args, **kwargs)
            for name in inner_attrs:
                setattr(handle, name, self.traced(handle, name, layer))
            return handle

        self.install(obj, attr, factory)

    def unwrap_all(self) -> None:
        for obj, attr in self._wrapped:
            try:
                delattr(obj, attr)
            except AttributeError:
                pass
        self._wrapped.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], float]:
        """Self seconds per layer, and the summed root-span seconds.

        A span's self time is its duration minus the part its children
        cover.  Children on the same thread never overlap; a child on
        another thread (server side of a request) lies inside its
        parent's interval, so subtraction stays exact.
        """
        child_time: dict[int, float] = {}
        for _, _, _, _, parent, start, end in self.spans:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + end - start
        by_layer = dict.fromkeys(LAYERS, 0.0)
        roots = 0.0
        for _, layer, _, span, parent, start, end in self.spans:
            by_layer[layer] += (end - start) - child_time.get(span, 0.0)
            if not parent:
                roots += end - start
        return by_layer, roots

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for name, layer, trace, span, parent, start, end in self.spans:
                out.write(json.dumps({
                    "name": name, "layer": layer, "trace": trace,
                    "span": span, "parent": parent or None,
                    "start": start, "end": end,
                }) + "\n")


# -- the closed loop ------------------------------------------------------------


@dataclass
class Op:
    """One operation of a workload's seeded stream.

    ``run`` is timed.  ``check`` is a cheap test of every result (a
    status, a cardinality the generator knows), made between ops.
    ``verify`` recomputes the answer another way; the driver keeps a
    seeded sample of results and verifies them after the timed window,
    so the oracle's own work never evicts the program's working set
    between two timed ops.  (A workload whose reads could see its own
    writes must therefore not give those reads a ``verify``.)  Both
    return a problem, or None.
    """

    kind: str
    key: str
    run: Callable[[], Any]
    check: Callable[[Any], str | None] | None = None
    verify: Callable[[Any], str | None] | None = None
    #: Whatever the workload wants to read back later (a query text).
    detail: Any = None


class Workload:
    """What ``run.py`` asks of a workload.  Subclasses set ``name``,
    ``block`` (ops per repeat of the exact kind mix, so equal chunks of
    the stream hold equal mixes) and implement ``setup`` and
    ``streams``; the rest default to "nothing to add"."""

    name = ""
    block = 1
    #: Share of ops whose result the oracle recomputes.
    check_share = 0.01

    def __init__(self, seed: int, scratch: "Scratch") -> None:
        self.seed = seed
        self.scratch = scratch

    def setup(self) -> None:
        """Everything up to the first timed op, warm-up included."""
        raise NotImplementedError

    def streams(self) -> list[Iterator[Op]]:
        """One endless seeded op stream per client thread."""
        raise NotImplementedError

    def op_keys(self) -> Iterator[str]:
        """The keys of the op sequence, regenerated from the seed."""
        return (op.key for op in self.streams()[0])

    def instrument(self, tracer: "Tracer") -> None:
        """Wrap the layer boundaries this workload crosses."""

    def verify(self) -> list[str]:
        """End-state problems, checked after the timed loop."""
        return []

    def counters(self) -> dict[str, float]:
        """Per-layer counts read through the program's public accessors."""
        return {}

    def extras(self) -> dict[str, float]:
        """Workload-specific numbers that are not contract metrics."""
        return {}

    def teardown(self) -> None:
        """Close and stop whatever ``setup`` opened."""


def mixed_stream(
    rng: random.Random,
    mix: dict[str, int],
    make: Callable[[str, random.Random], Op],
) -> Iterator[Op]:
    """Endless ops in blocks holding exactly ``mix[kind]`` ops of each
    kind, shuffled within the block by ``rng``."""
    kinds = [kind for kind, n in mix.items() for _ in range(n)]
    while True:
        rng.shuffle(kinds)
        for kind in list(kinds):
            yield make(kind, rng)


@dataclass
class LoopResult:
    #: per client thread: (kind, seconds) per timed op, in order
    samples: list[list[tuple[str, float]]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    checked: int = 0
    problems: list[str] = field(default_factory=list)
    #: Process CPU seconds the timed ops burned, on every thread (server
    #: workers included), the clients' untimed checks taken out.
    cpu_seconds: float = 0.0


def canon(value: Any) -> str:
    """Order-preserving canonical text of a query/HTTP result."""
    from repro.engine.handlers import jsonable

    return json.dumps(jsonable(value), sort_keys=True, default=repr)


def differs(value: Any, expected: Any) -> str | None:
    if canon(value) != canon(expected):
        return "result differs from the oracle's"
    return None


def run_loop(
    streams: list[Iterator[Op]],
    seconds: float,
    seed: int,
    tracer: Tracer | None = None,
    check_share: float = 0.01,
) -> LoopResult:
    """Drive each stream from its own client thread for ``seconds``.

    Closed loop: a client issues its next op when the previous one
    returned.  One stream runs on the calling thread.
    """
    result = LoopResult(samples=[[] for _ in streams])
    lock = threading.Lock()
    sampled: list[tuple[Op, Any]] = []
    cpu_started = time.process_time()
    deadline = time.perf_counter() + seconds

    def client(index: int, stream: Iterator[Op]) -> None:
        rng = random.Random(f"check:{seed}:{index}")
        samples = result.samples[index]
        attempted = failed = 0
        unbilled_cpu = 0.0
        kept: list[tuple[Op, Any]] = []
        problems: list[str] = []
        clock, thread_cpu = time.perf_counter, time.thread_time

        def fail(op: Op, why: str) -> None:
            nonlocal failed
            failed += 1
            if len(problems) < 5:
                problems.append(f"{op.key}: {why}")

        for op in stream:
            if clock() >= deadline:
                break
            attempted += 1
            start = clock()
            try:
                if tracer is None:
                    value = op.run()
                else:
                    value = tracer.call(f"op.{op.kind}", "bench", op.run)
            except Exception as exc:  # an op that raises is a failed op
                fail(op, f"{type(exc).__name__}: {exc}")
                continue
            samples.append((op.kind, clock() - start))
            checking = thread_cpu()
            if op.check is not None:
                problem = op.check(value)
                if problem:
                    fail(op, problem)
            if op.verify is not None and rng.random() < check_share:
                kept.append((op, value))
            unbilled_cpu += thread_cpu() - checking
        with lock:
            result.attempted += attempted
            result.failed += failed
            result.problems.extend(problems)
            result.cpu_seconds -= unbilled_cpu
            sampled.extend(kept)

    threads = [
        threading.Thread(target=client, args=(i, s), daemon=True)
        for i, s in enumerate(streams[1:], start=1)
    ]
    for thread in threads:
        thread.start()
    client(0, streams[0])
    for thread in threads:
        thread.join()
    result.cpu_seconds += time.process_time() - cpu_started
    for op, value in sampled:
        result.checked += 1
        problem = op.verify(value)
        if problem:
            result.failed += 1
            result.problems.append(f"{op.key}: {problem}")
    return result


# -- statistics ----------------------------------------------------------------


def percentile(ordered: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted list."""
    return ordered[min(len(ordered) - 1, int(len(ordered) * fraction))]


def chunked_rate(
    samples: list[tuple[str, float]], block: int = 1, chunks: int = 20
) -> float:
    """Ops per busy second of one client: the median over ``chunks``
    consecutive runs of ops of (ops / summed op seconds).  The median
    drops the chunks a sandbox stall landed in; time the client spent
    between ops (oracle checks) is not counted.  Chunks are whole
    multiples of ``block`` so each holds the same mix of op kinds."""
    if not samples:
        return 0.0
    size = max(block, len(samples) // chunks // block * block)
    rates = []
    for begin in range(0, len(samples) - size + 1, size):
        busy = sum(seconds for _, seconds in samples[begin:begin + size])
        if busy > 0:
            rates.append(size / busy)
    if not rates:  # less than one whole chunk ran
        return len(samples) / sum(seconds for _, seconds in samples)
    return statistics.median(rates)


def loop_metrics(result: LoopResult, block: int = 1) -> dict[str, float]:
    """The end-to-end numbers one timed loop yields."""
    ok = [s for client in result.samples for _, s in client]
    if not ok:
        raise RuntimeError(
            "no operation completed: " + "; ".join(result.problems)
        )
    ordered = sorted(ok)
    return {
        "ops_per_s": sum(chunked_rate(c, block) for c in result.samples),
        "op_p50_ms": percentile(ordered, 0.50) * 1e3,
        "op_p90_ms": percentile(ordered, 0.90) * 1e3,
        "cpu_ms_per_op": result.cpu_seconds / len(ordered) * 1e3,
        "n": float(len(ordered)),
    }


def pin_to_one_core() -> None:
    """Run this process on one core (the highest it is allowed).

    Every thread of a workload shares one interpreter lock, so a second
    core adds no parallelism, only cross-core wake-ups whose cost swings
    with whatever else the machine is doing: ``serve_hot`` ran 1 650
    ops/s pinned against 700-1 060 unpinned, with a fifth of the spread.
    A stated measurement condition, like the flush policy.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):  # not Linux, or not permitted
        pass


def settle_heap() -> None:
    """Collect what set-up discarded and freeze what it built.

    A loaded database is hundreds of thousands of long-lived objects in
    reference cycles.  Left alone, the collector's occasional full pass
    walks all of them in the middle of whichever op tripped it — tens of
    milliseconds charged to a random op.  Frozen, the set-up heap is out
    of the collector's sight and a pass costs what the timed window
    itself allocated.  This is a stated measurement condition, the same
    on both sides of any comparison (README, "Measurement conditions").
    """
    gc.collect()
    gc.freeze()


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_seconds(fn: Callable[[Any], Any], inputs: Any) -> float:
    """Median seconds of ``fn(item)``, timed once per item of ``inputs``."""
    clock = time.perf_counter
    times = []
    for item in inputs:
        start = clock()
        fn(item)
        times.append(clock() - start)
    return statistics.median(times)


def sequence_sha(keys: Iterator[str], n: int = 500) -> str:
    """Hash of the first ``n`` generated op keys: equal seeds, equal hash."""
    digest = hashlib.sha256()
    for key in itertools.islice(keys, n):
        digest.update(key.encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()[:16]


# -- scratch space ---------------------------------------------------------------


class Scratch:
    """A directory under ``results/`` for store files, removed on exit
    (the benchmark writes only inside its own checkout)."""

    def __init__(self, label: str) -> None:
        self.path = RESULTS / f"tmp-{label}"
        self._n = itertools.count()

    def __enter__(self) -> "Scratch":
        shutil.rmtree(self.path, ignore_errors=True)
        self.path.mkdir(parents=True)
        return self

    def __exit__(self, *exc: object) -> None:
        shutil.rmtree(self.path, ignore_errors=True)

    def file(self, stem: str) -> Path:
        return self.path / f"{stem}-{next(self._n)}.plog"
