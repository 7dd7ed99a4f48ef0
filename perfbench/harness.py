"""Set-up, the repetition loop and the metrics of one benchmark run.

An untraced run (``--trace 0``) repeats the workload until the time is
up and reports the end-to-end metrics.  It is split between
:data:`WORKERS` fresh interpreters run one after another, so that one
process's memory layout does not decide the result (serve-mixed's
``item_p50_ms`` differed by up to 15% between processes on one
machine, at one host speed), and each one's set-up is a set-up in a
fresh interpreter.  A traced run (``--trace 1``) is one process that
alternates an untraced and a traced repetition of the same inputs:
the traced one records layer spans (:mod:`perfbench.spans`), the pair
gives the tracing overhead, and the untraced one gives the serve
latency split.

Every process runs one untimed repetition after its set-up.  The
host-speed kernel (:mod:`perfbench.calibrate`) is timed after the
set-up and after every repetition; each repetition's times are scaled
to the reference clock by the mean of the kernel timings on either
side of it, the set-up's by the one after it.  Every time reported is
on that clock except ``host.calibration_ms``."""

from __future__ import annotations

import gzip
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from typing import Any

from perfbench import calibrate, spans, workloads
from perfbench.stats import (
    Tally,
    beyond,
    median,
    percentile,
    tail_percentile,
)
from perfbench.workloads import Rep

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: scratch space inside the checkout (fuzz journals, written spans)
SCRATCH = os.path.join(ROOT, ".perfbench")
#: processes an untraced run is split between, one after another;
#: each runs at least one timed repetition, so a run has at least 240
#: items and the tail rule allows its p90.
WORKERS = 4
#: the tail percentile reported for items.
TAIL_Q = 90


def setup(workload: str, seed: int) -> tuple[Any, float]:
    """Import the program, generate the inputs (and start the daemon);
    return the workload and the seconds it took."""
    started = time.perf_counter()
    os.makedirs(SCRATCH, exist_ok=True)
    prepared = workloads.make(workload, seed, SCRATCH)
    return prepared, time.perf_counter() - started


def close(prepared: Any) -> None:
    close = getattr(prepared, "close", None)
    if close is not None:
        close()


@dataclass
class Measured:
    """What one process measured: its set-up, its warm-up repetition
    and its timed repetitions, each with its scale to the reference
    clock; traced ones also carry their span recorder."""

    setup_s: float
    #: the host-speed kernel used, and its timings
    kind: str
    kernel: list[float]
    warmup: Rep
    reps: list[tuple[Rep, float]]
    traced: list[tuple[Rep, spans.SpanRecorder, float]]
    peak_rss_mb: float

    def all_reps(self) -> list[Rep]:
        return [self.warmup, *(r for r, _ in self.reps),
                *(r for r, _, _ in self.traced)]


def measure(
    workload: str, seed: int, seconds: float, trace: bool,
    part: int = 0, parts: int = 1,
) -> Measured:
    """Set up, run one untimed repetition, then repeat until
    ``seconds`` are up (at least once).  This process runs repetitions
    ``part``, ``part + parts``, ... of the workload's sequence."""
    prepared, first_setup = setup(workload, seed)
    kind = prepared.kernel
    try:
        kernel = [calibrate.kernel_seconds(kind)]

        def repetition(j: int) -> tuple[Rep, float]:
            rep = prepared.run_rep(part + parts * j)
            # Drop the repetition's cache first, so that the kernel
            # reuses its memory instead of raising the peak RSS.
            workloads.fresh_cache()
            kernel.append(calibrate.kernel_seconds(kind))
            return rep, calibrate.scale(kind, (kernel[-2] + kernel[-1]) / 2)

        # The untimed repetition finishes lazy imports and the
        # interpreter's warm-up, which made the first repetition's
        # latencies up to 30% higher than the rest's in serve-mixed.
        # Its outputs are still checked.
        warmup, _ = repetition(0)
        reps: list[tuple[Rep, float]] = []
        traced: list[tuple[Rep, spans.SpanRecorder, float]] = []
        deadline = time.perf_counter() + seconds
        j = 1
        while time.perf_counter() < deadline or not reps:
            reps.append(repetition(j))
            if trace:
                with spans.SpanRecorder() as recorder:
                    rep_t, scale_t = repetition(j)
                traced.append((rep_t, recorder, scale_t))
            j += 1
    finally:
        close(prepared)
    return Measured(
        first_setup * calibrate.scale(kind, kernel[0]),
        kind,
        kernel,
        warmup,
        reps,
        traced,
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )


def worker(workload: str, seed: int, seconds: float, part: int) -> dict[str, Any]:
    """One of the :data:`WORKERS` processes of an untraced run, as the
    JSON object it prints for the run's parent."""
    m = measure(workload, seed, seconds, False, part, WORKERS)
    return {
        "setup_s": m.setup_s,
        "kind": m.kind,
        "kernel": m.kernel,
        "warmup": asdict(m.warmup),
        "reps": [[asdict(rep), scale] for rep, scale in m.reps],
        "peak_rss_mb": m.peak_rss_mb,
    }


def run_worker(workload: str, seed: int, seconds: float, part: int) -> Measured:
    """Run worker ``part`` in a fresh interpreter and wait for it."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--worker", str(part),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=seconds + 120,
        check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {part} failed:\n{proc.stderr}")
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    return Measured(
        doc["setup_s"],
        doc["kind"],
        doc["kernel"],
        Rep(**doc["warmup"]),
        [(Rep(**rep), scale) for rep, scale in doc["reps"]],
        [],
        doc["peak_rss_mb"],
    )


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    """One benchmark run; returns the result object ``run.py`` prints.

    An untraced run is split between :data:`WORKERS` fresh interpreters
    run one after another; a traced run is this process alone."""
    if trace:
        parts = [measure(workload, seed, seconds, True)]
    else:
        parts = [
            run_worker(workload, seed, seconds / WORKERS, part)
            for part in range(WORKERS)
        ]
    tally = Tally()
    for m in parts:
        for rep in m.all_reps():
            tally.add(rep.attempted, rep.failures)
    kernel = [k for m in parts for k in m.kernel]
    if trace:
        metrics = per_layer_metrics(workload, seed, parts[0])
    else:
        metrics = end_to_end_metrics(parts)
    timed = sum(len(m.reps) + len(m.traced) for m in parts)
    print(
        f"{workload} seed {seed}: {len(parts)} process(es), {timed} timed "
        f"repetitions after one warm-up each, {tally.attempted} items, "
        f"{tally.failed} failed; {parts[0].kind} host-speed kernel median "
        f"{1e3 * median(kernel):.0f} ms of "
        f"{1e3 * calibrate.REFERENCE_S[parts[0].kind]:.0f} ms reference",
        file=sys.stderr,
    )
    if tally.first_failure is not None:
        print(f"first failure: {tally.first_failure}", file=sys.stderr)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }


def _metric(value: float, unit: str) -> dict[str, Any]:
    return {"value": value, "unit": unit}


def end_to_end_metrics(parts: list[Measured]) -> dict[str, Any]:
    reps = [(rep, scale) for m in parts for rep, scale in m.reps]
    setups = [m.setup_s for m in parts]
    latencies = [s * scale for rep, scale in reps for s in rep.latencies]
    sp = {key: v for rep, _ in reps for key, v in rep.sp.items()}
    if not sp:
        raise RuntimeError("no schedule was observed: nothing to take Sp of")
    p90 = tail_percentile(latencies, TAIL_Q)
    print(
        f"item_p{TAIL_Q}_ms from {len(latencies)} items, "
        f"{beyond(len(latencies), TAIL_Q)} beyond it; "
        f"setup_s median of {len(setups)}",
        file=sys.stderr,
    )
    return {
        "setup_s": _metric(median(setups), "s"),
        "items_per_s": _metric(
            median([rep.attempted / (rep.wall * scale) for rep, scale in reps]),
            "1/s",
        ),
        "item_p50_ms": _metric(1e3 * percentile(latencies, 50), "ms"),
        "item_p90_ms": _metric(1e3 * p90, "ms"),
        "peak_rss_mb": _metric(max(m.peak_rss_mb for m in parts), "MB"),
        "sp_ours_mean": _metric(sum(sp.values()) / len(sp), "%"),
    }


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms" in name:
        return "ms"
    if name.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def per_layer_metrics(workload: str, seed: int, m: Measured) -> dict[str, Any]:
    """Per-layer metrics of the traced repetitions, plus the tracing
    overhead and (from the untraced ones) the serve latency split.
    Times are scaled to the reference clock: the spans' by the median
    scale of the traced repetitions, the rest repetition by repetition.
    """
    reps, traced = m.reps, m.traced
    wall = sum(rep.wall for rep, _, _ in traced)
    counts = sum((rec.counts() for _, rec, _ in traced), spans.Counter())
    values = spans.layer_metrics(
        [rec.spans() for _, rec, _ in traced], counts, wall
    )
    span_scale = median([scale for _, _, scale in traced])
    for name in values:
        if _unit(name) in ("s", "ms"):
            values[name] *= span_scale
    overheads = [
        t.wall * st - u.wall * su for (u, su), (t, _, st) in zip(reps, traced)
    ]
    values["tracing_overhead_s"] = median(overheads)
    values["tracing_overhead_share"] = sum(overheads) / sum(
        rep.wall * scale for rep, scale in reps
    )

    extra = [(rep.extra, scale) for rep, scale in reps if rep.extra]
    requests = sum(e["requests"] for e, _ in extra)
    values["serve.server_ms_p50"] = percentile(
        [v * scale for e, scale in extra for v in e["server_ms"]], 50
    )
    values["serve.client_overhead_ms_p50"] = percentile(
        [v * scale for e, scale in extra for v in e["client_overhead_ms"]], 50
    )
    values["serve.cache_hit_ratio"] = (
        sum(e["cache_hits"] for e, _ in extra) / requests if requests else 0.0
    )
    values["serve.singleflight_waits"] = sum(
        e["singleflight_waits"] for e, _ in extra
    )
    values["serve.pipeline_runs"] = sum(e["pipeline_runs"] for e, _ in extra)
    values["host.calibration_ms"] = 1e3 * median(m.kernel)

    write_spans(workload, seed, traced)
    return {name: _metric(v, _unit(name)) for name, v in values.items()}


def write_spans(workload: str, seed: int, traced: list) -> str:
    """Write the traced repetitions' spans, kept in memory until now.
    Span times are as measured; ``scale`` turns them into times on the
    reference clock."""
    path = os.path.join(SCRATCH, f"spans-{workload}-seed{seed}.json.gz")
    doc = {
        "workload": workload,
        "seed": seed,
        "span": ["name", "start", "end", "parent", "item"],
        "repetitions": [
            {"wall": rep.wall, "scale": scale, "threads": rec.spans()}
            for rep, rec, scale in traced
        ],
    }
    with gzip.open(path, "wt") as fh:
        json.dump(doc, fh)
    print(f"spans written to {os.path.relpath(path, ROOT)}", file=sys.stderr)
    return path
