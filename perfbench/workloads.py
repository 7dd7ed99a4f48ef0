"""The benchmark's three workloads, driven through the public API.

Each workload is set up once per run (imports, input generation and,
for ``serve-mixed``, a daemon start) and then repeated.  Every
repetition starts cold: a fresh ``ArtifactCache`` is installed with
``set_default_cache`` (and ``serve-mixed`` talks to a fresh daemon),
so work moved into a cache shows in the hit ratios and work moved into
set-up shows in ``setup_s``.  A repetition returns its wall time, one
latency per item, the Sp of each input it compiled, and one failure entry
per item that failed or whose output differs from the expected files
in ``perfbench/expected`` (see :func:`first_difference`).

Why these three, and which layer each one exercises, is recorded in
``perfbench/NOTES.md``.
"""

from __future__ import annotations

import json
import os
import random
import tempfile
import time
from dataclasses import dataclass, field
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED = os.path.join(HERE, "expected")

#: paper-campaign: the Table 1 fields whose values must not change.
PAPER_FIELDS = ("sp_ours", "sp_doacross", "ours", "doacross", "sequential")
#: fuzz-campaign: cases per repetition, and the frozen campaign seeds
#: (repetition ``r`` of workload seed ``s`` runs seed ``(s + r) % 16``;
#: a 24 s run makes about 24 timed repetitions, so it covers them all).
FUZZ_LOOPS = 60
FUZZ_SEEDS = 16
#: serve-mixed: requests per repetition, one in ``SERVE_NEW_EVERY`` a
#: program not sent before; the frozen pool is what one repetition sends.
SERVE_NEW_EVERY = 4
SERVE_REQUESTS = 400
SERVE_POOL = SERVE_REQUESTS // SERVE_NEW_EVERY
SERVE_CONNECTIONS = 2
SERVE_ITERATIONS = 100


@dataclass
class Rep:
    """What one repetition measured and produced."""

    wall: float
    latencies: list[float]
    #: item id -> why it failed; at most one entry per item.
    failures: dict[str, str]
    #: input -> Sp of its schedule; the same input has the same Sp in
    #: every repetition, so a run's mean counts each input once.
    sp: dict[str, float]
    attempted: int
    extra: dict[str, Any] = field(default_factory=dict)


def load_expected(name: str) -> dict[str, Any]:
    with open(os.path.join(EXPECTED, f"{name}.json")) as fh:
        return json.load(fh)


def first_difference(expected: Any, actual: Any, path: str = "") -> str | None:
    """The path of the first value where ``actual`` differs, or ``None``."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        for key in sorted(set(expected) | set(actual)):
            if key not in expected or key not in actual:
                return f"{path}.{key}" if path else str(key)
            diff = first_difference(expected[key], actual[key], f"{path}.{key}" if path else str(key))
            if diff is not None:
                return diff
        return None
    if isinstance(expected, list) and isinstance(actual, list):
        for i, (a, b) in enumerate(zip(expected, actual)):
            diff = first_difference(a, b, f"{path}[{i}]")
            if diff is not None:
                return diff
        if len(expected) != len(actual):
            return f"{path}[{min(len(expected), len(actual))}]"
        return None
    if type(expected) is not type(actual) or expected != actual:
        return path or "<root>"
    return None


def fresh_cache() -> None:
    """Install a fresh default ``ArtifactCache``, dropping the last one."""
    from repro.pipeline.cache import ArtifactCache, set_default_cache

    set_default_cache(ArtifactCache())


# ----------------------------------------------------------------------
class PaperCampaign:
    """``run_table1`` then ``run_comm_sweep``, as a reproducer runs them.

    The cells are the ones those functions build (``table1_cells`` and
    ``sweep_cells`` with their defaults) and run through
    ``run_campaign(workers=1)``, as they do; the benchmark calls
    ``run_campaign`` itself because the two keep only Sp and drop
    each cell's values and time.  The workload seed permutes the
    order of the paper's 25 loops; the set is always the paper's.
    """

    name = "paper-campaign"
    kernel = "small"  # the host-speed kernel: see perfbench/calibrate.py

    def __init__(self, seed: int) -> None:
        from repro.experiments import sweep_cells, table1_cells
        from repro.workloads import paper_seeds

        order = paper_seeds()
        random.Random(seed).shuffle(order)
        sweep_seeds = set(paper_seeds()[:10])
        self.campaigns = [
            table1_cells(order),
            sweep_cells([s for s in order if s in sweep_seeds]),
        ]
        self.expected = load_expected("paper")["cells"]

    def run_rep(self, rep: int) -> Rep:
        from repro.runner import run_campaign

        fresh_cache()
        started = time.perf_counter()
        results = [run_campaign(cells, workers=1) for cells in self.campaigns]
        wall = time.perf_counter() - started
        rep_out = Rep(wall, [], {}, {}, 0)
        for campaign in results:
            for res in campaign.results:
                cell = res.cell.cell_id
                rep_out.attempted += 1
                rep_out.latencies.append(res.seconds)
                if not res.ok:
                    rep_out.failures[cell] = f"cell failed: {res.error}"
                    continue
                rep_out.sp[cell] = res.value["sp_ours"]
                got = {k: res.value[k] for k in PAPER_FIELDS}
                diff = first_difference(self.expected.get(cell), got)
                if diff is not None:
                    rep_out.failures[cell] = (
                        f"cell {cell}: {diff} differs from expected/paper.json"
                    )
        return rep_out


# ----------------------------------------------------------------------
def steady_sp(case, scheduled) -> float:
    """Closed-form steady-state Sp of a compiled fuzz case: the paper's
    ``(s - p) / s * 100`` per iteration, 0 when slower than sequential."""
    sequential = case.graph.total_latency()
    rate = scheduled.steady_cycles_per_iteration()
    return max(0.0, 100.0 * (sequential - rate) / sequential)


class FuzzCampaign:
    """``run_fuzz(loops=60, seed=...)``, journaled into a fresh
    temporary directory inside the checkout.

    Per-case latency is read from the ``fuzz.case_seconds`` histograms
    ``run_fuzz`` always records, in a fresh registry per repetition.
    The schedules' Sp comes from observing ``compile_case`` results.
    """

    name = "fuzz-campaign"
    kernel = "small"

    def __init__(self, seed: int, scratch: str) -> None:
        import repro.fuzz.campaign  # noqa: F401  (set-up pays the import)

        self.seed = seed
        self.scratch = scratch
        frozen = load_expected("fuzz")
        if frozen["loops"] != FUZZ_LOOPS:
            raise ValueError("expected/fuzz.json was frozen for other loops")
        self.expected = frozen["reports"]

    def run_rep(self, rep: int) -> Rep:
        from repro.fuzz import oracles
        from repro.fuzz.campaign import run_fuzz
        from repro.fuzz.generators import PATTERN_NAMES
        from repro.obs.metrics import MetricsRegistry, labeled, set_registry

        fuzz_seed = (self.seed + rep) % FUZZ_SEEDS
        compiled: list[tuple[Any, Any]] = []
        compile_case = oracles.compile_case

        def observed(case, **kwargs):
            scheduled = compile_case(case, **kwargs)
            compiled.append((case, scheduled))
            return scheduled

        fresh_cache()
        reg = MetricsRegistry()
        prev = set_registry(reg)
        oracles.compile_case = observed
        try:
            with tempfile.TemporaryDirectory(dir=self.scratch) as journal:
                started = time.perf_counter()
                report = run_fuzz(FUZZ_LOOPS, seed=fuzz_seed, journal_dir=journal)
                wall = time.perf_counter() - started
        finally:
            oracles.compile_case = compile_case
            set_registry(prev)

        latencies = [
            s
            for p in PATTERN_NAMES
            for s in reg.histogram(labeled("fuzz.case_seconds", pattern=p)).samples()
        ]
        failures: dict[str, str] = {}
        for f in report.failures:
            failures[f"seed {fuzz_seed} case {f['index']}"] = (
                f"fuzz seed {fuzz_seed} case {f['index']} ({f['pattern']}): "
                f"oracle {f['oracle']} failed: {f['message']}"
            )
        unfinished = FUZZ_LOOPS - len(latencies)
        for i in range(unfinished):
            failures[f"seed {fuzz_seed} unfinished {i}"] = (
                f"fuzz seed {fuzz_seed}: cells {list(report.failed_cells)} "
                "did not finish"
            )
        diff = first_difference(self.expected[str(fuzz_seed)], report.to_dict())
        if diff is not None and not failures:
            failures[f"seed {fuzz_seed} report"] = (
                f"fuzz seed {fuzz_seed}: FuzzReport.to_dict() {diff} differs "
                "from expected/fuzz.json"
            )
        return Rep(
            wall,
            latencies,
            failures,
            {f"{case.pattern}/{case.seed}": steady_sp(case, sched)
             for case, sched in compiled},
            FUZZ_LOOPS,
        )


# ----------------------------------------------------------------------
def serve_program(index: int) -> dict[str, Any]:
    """Pool program ``index``: a generated mini-language loop request."""
    from repro.fuzz.generators import generate_case

    pattern = ("multi_statement", "conditional")[index % 2]
    case = generate_case(pattern, index)
    return {
        "source": case.source,
        "processors": case.processors,
        "k": int(case.comm["k"]),
        "iterations": SERVE_ITERATIONS,
        "client": "perfbench",
    }


def serve_stream(
    seed: int, rep: int, requests: int = SERVE_REQUESTS
) -> list[int]:
    """Pool indices of repetition ``rep``'s requests.  Every
    ``SERVE_NEW_EVERY``-th request sends a program not sent before, in
    a shuffled order; the others repeat an earlier one.  Each
    repetition draws its own order, so a run averages over orders; a
    full-size stream sends the whole pool."""
    rng = random.Random(f"{seed}/{rep}")
    fresh = rng.sample(range(SERVE_POOL), -(-requests // SERVE_NEW_EVERY))
    stream: list[int] = []
    for i in range(requests):
        stream.append(
            fresh[i // SERVE_NEW_EVERY]
            if i % SERVE_NEW_EVERY == 0
            else rng.choice(stream)
        )
    return stream


def start_daemon():
    from repro.serve import ServeConfig, start_in_thread

    return start_in_thread(ServeConfig(port=0, workers=1))


class ServeMixed:
    """A closed loop of 2 keep-alive connections against
    ``start_in_thread(ServeConfig(port=0, workers=1))``.

    The daemon started in set-up serves the first repetition; each
    later one starts its own, outside the timed window.
    """

    name = "serve-mixed"
    kernel = "large"

    def __init__(self, seed: int, requests: int = SERVE_REQUESTS) -> None:
        self.seed = seed
        self.requests = requests
        programs = sorted(set(serve_stream(seed, 0, requests)))
        self.payloads = {i: serve_program(i) for i in programs}
        self.expected = load_expected("serve")["results"]
        self.daemon = start_daemon()

    def close(self) -> None:
        if self.daemon is not None:
            self.daemon.stop()
            self.daemon = None

    def run_rep(self, rep: int) -> Rep:
        import asyncio

        from repro.serve import request_json

        stream = serve_stream(self.seed, rep, self.requests)
        for program in set(stream) - self.payloads.keys():  # small streams
            self.payloads[program] = serve_program(program)
        fresh_cache()
        daemon = self.daemon or start_daemon()
        self.daemon = None
        try:
            started = time.perf_counter()
            records = asyncio.run(self._drive(daemon.host, daemon.port, stream))
            wall = time.perf_counter() - started
            _, stats = request_json(
                daemon.host, daemon.port, path="/stats", method="GET"
            )
        finally:
            daemon.stop()

        out = Rep(wall, [], {}, {}, len(records))
        server_ms: list[float] = []
        overhead_ms: list[float] = []
        for i, (program, status, latency, body) in enumerate(records):
            out.latencies.append(latency)
            item = f"request {i} (program {program})"
            if status != 200:
                out.failures[item] = f"{item}: HTTP {status}: {body}"
                continue
            server = body["server"]["seconds"]
            server_ms.append(1e3 * server)
            overhead_ms.append(1e3 * (latency - server))
            result = body["result"]
            out.sp[str(program)] = result["sp"]
            diff = first_difference(self.expected.get(str(program)), result)
            if diff is not None:
                out.failures[item] = (
                    f"{item}: result {diff} differs from expected/serve.json"
                )
        counters = stats["metrics"]["counters"]
        out.extra = {
            "server_ms": server_ms,
            "client_overhead_ms": overhead_ms,
            "requests": counters.get("serve.requests", 0),
            "cache_hits": counters.get("serve.cache_hit", 0),
            "singleflight_waits": counters.get("serve.singleflight_wait", 0),
            "pipeline_runs": counters.get("serve.pipeline_runs", 0),
        }
        return out

    async def _drive(self, host: str, port: int, stream: list[int]) -> list[tuple]:
        import asyncio

        from repro.serve import AsyncConnection

        pending = iter(enumerate(stream))
        records: list[tuple] = [None] * len(stream)  # type: ignore[list-item]

        async def client() -> None:
            async with AsyncConnection(host, port) as conn:
                for i, program in pending:
                    started = time.perf_counter()
                    status, body = await conn.compile(self.payloads[program])
                    records[i] = (
                        program, status, time.perf_counter() - started, body
                    )

        await asyncio.gather(*(client() for _ in range(SERVE_CONNECTIONS)))
        return records


def make(name: str, seed: int, scratch: str) -> Any:
    """Set up workload ``name`` for ``seed``."""
    if name == PaperCampaign.name:
        return PaperCampaign(seed)
    if name == FuzzCampaign.name:
        return FuzzCampaign(seed, scratch)
    if name == ServeMixed.name:
        return ServeMixed(seed)
    raise ValueError(f"unknown workload {name!r} (known: {', '.join(NAMES)})")


NAMES = (PaperCampaign.name, FuzzCampaign.name, ServeMixed.name)
