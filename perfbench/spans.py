"""Layer spans recorded from outside the program.

The traced run wraps the public entry points of each layer and
rebinds every reference to them: the defining module's attribute, the
same object re-exported or imported by name into any other ``repro``
module (``repro.experiments.evaluate`` and
``repro.baselines.doacross.evaluate`` as well as
``repro.sim.fastpath.evaluate``), and class attributes for methods.
Each call records one span ``(name, start, end, parent, item)`` into a
per-thread list kept in memory; :func:`layer_metrics` turns the spans
into per-layer calls, self time and share of wall time.

Self time is a span's duration minus the time its child spans cover.
Two kinds of span are not layers but still count as children: the
campaign cell (``repro.runner.cells.execute_cell``) and the fuzz case
(``repro.fuzz.oracles.run_oracles``).  So ``runner`` keeps only the
runner's own overhead, and time spent in no layer's self time is
reported as ``unattributed_share``.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import Counter, defaultdict
from typing import Any, Callable

from perfbench.stats import percentile

#: layer -> entry points, as ``module:attribute`` or ``module:Class.method``.
LAYERS: dict[str, tuple[str, ...]] = {
    "workloads.build": (
        "repro.workloads.random_loops:random_cyclic_loop",
        "repro.fuzz.generators:generate_case",
    ),
    "lang": (
        "repro.lang.parser:parse_loop",
        "repro.lang.ifconvert:if_convert",
        "repro.lang.dependence:build_graph",
    ),
    "core.classify": ("repro.core.classify:classify",),
    "core.cyclic": ("repro.core.cyclic:schedule_cyclic",),
    "core.flowio": (
        "repro.core.flowio:plan_noncyclic",
        "repro.core.flowio:noncyclic_program",
        "repro.core.flowio:subset_latency",
        "repro.core.flowio:subset_order",
        "repro.core.flowio:kernel_idle",
    ),
    "core.expand": (
        "repro.core.scheduler:ScheduledLoop.program",
        "repro.core.scheduler:CombinedLoop.program",
        "repro.core.normalized:NormalizedSchedule.program",
        "repro.core.patterns:Pattern.expand",
    ),
    "sim.fastpath": ("repro.sim.fastpath:evaluate",),
    "sim.engine": ("repro.sim.engine:simulate",),
    "codegen": (
        "repro.codegen.partition:partition",
        "repro.codegen.interp:verify_against_sequential",
        "repro.codegen.interp:verify_graph_dataflow",
    ),
    "baselines.doacross": (
        "repro.baselines.doacross:schedule_doacross",
        "repro.baselines.doacross:DoacrossSchedule.program",
    ),
    "pipeline": ("repro.pipeline.manager:PassManager.run",),
    "runner": (
        "repro.runner.core:run_campaign",
        "repro.runner.journal:CellJournal.append",
    ),
}

#: the callables ``run_oracles`` dispatches, keyed by oracle name.
ORACLES = ("steady_rate", "dataflow", "engine_agreement", "recompile_identity")
ORACLE_TABLE = "repro.fuzz.oracles:_ORACLES"

LAYER_NAMES: tuple[str, ...] = tuple(LAYERS) + tuple(
    f"fuzz.oracles.{o}" for o in ORACLES
)

CELL = "item.cell"
CASE = "item.case"
_ITEM_SPANS = {
    CELL: "repro.runner.cells:execute_cell",
    CASE: "repro.fuzz.oracles:run_oracles",
}


#: entry point -> the id of the item a call to it starts.  A fuzz case
#: is ``pattern/seed`` from its generation through its oracle run.
_ITEM_OF: dict[str, Callable[[tuple], str]] = {
    "execute_cell": lambda args: args[0].cell_id,
    "run_oracles": lambda args: f"{args[0].pattern}/{args[0].seed}",
    "generate_case": lambda args: f"{args[0]}/{args[1]}",
}


def _rows(program: Any) -> int:
    return sum(len(row) for row in program)


class _ThreadLog:
    __slots__ = ("spans", "stack", "item", "counts")

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, str | None]] = []
        self.stack: list[int] = []
        self.item: str | None = None
        self.counts: Counter = Counter()


class SpanRecorder:
    """Install layer wrappers, record spans, restore everything."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._logs: list[_ThreadLog] = []
        self._lock = threading.Lock()
        self._undo: list[Callable[[], None]] = []
        self._active = False

    # -- recording ------------------------------------------------------
    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def _wrap(self, name: str, fn: Callable) -> Callable:
        count = _COUNTERS.get(fn.__qualname__)
        item_of = _ITEM_OF.get(fn.__qualname__)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self._active:  # a module imported while installed
                return fn(*args, **kwargs)
            log = self._log()
            if item_of is not None:
                log.item = item_of(args)
            spans, stack = log.spans, log.stack
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append((name, 0.0, 0.0, parent, log.item))
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, log.item)
            if count is not None:
                nested = parent >= 0 and spans[parent][0] == name
                count(log.counts, args, result, nested)
            return result

        return wrapper

    # -- installation ---------------------------------------------------
    def install(self) -> "SpanRecorder":
        self._active = True
        targets = [
            (layer, spec) for layer, specs in LAYERS.items() for spec in specs
        ] + list((name, spec) for name, spec in _ITEM_SPANS.items())
        for name, spec in targets:
            module_name, _, attr = spec.partition(":")
            module = importlib.import_module(module_name)
            if "." in attr:  # a method: the class attribute is the one reference
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original))
                self._undo.append(
                    lambda c=cls, m=meth, o=original: setattr(c, m, o)
                )
            else:
                original = getattr(module, attr)
                self._rebind(original, self._wrap(name, original))
        module_name, _, attr = ORACLE_TABLE.partition(":")
        table = getattr(importlib.import_module(module_name), attr)
        for oracle in ORACLES:
            original = table[oracle]
            table[oracle] = self._wrap(f"fuzz.oracles.{oracle}", original)
            self._undo.append(
                lambda t=table, k=oracle, o=original: t.__setitem__(k, o)
            )
        return self

    def _rebind(self, original: Callable, wrapper: Callable) -> None:
        """Point every ``repro`` module reference to ``original`` at
        ``wrapper`` (the defining module, re-exports, by-name imports)."""
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._undo.append(
                        lambda m=module, k=key, o=original: setattr(m, k, o)
                    )

    def uninstall(self) -> None:
        self._active = False
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "SpanRecorder":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- results --------------------------------------------------------
    def spans(self) -> list[list[tuple[str, float, float, int, str | None]]]:
        """Every thread's spans (parents index into the same list)."""
        with self._lock:
            return [list(log.spans) for log in self._logs]

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for log in self._logs:
                total.update(log.counts)
        return total


# -- per-entry-point counters -------------------------------------------
def _count_cyclic(counts: Counter, args, result, nested: bool) -> None:
    if result.stats.memo_hits:
        counts["core.cyclic.memo_hits"] += 1
    else:  # a memo hit replays the computing run's counters
        counts["core.cyclic.instances_scheduled"] += (
            result.stats.instances_scheduled
        )


def _count_program(counts: Counter, args, result, nested: bool) -> None:
    if not nested:  # CombinedLoop.program concatenates its parts
        counts["core.expand.ops_emitted"] += _rows(result)


def _count_evaluate(counts: Counter, args, result, nested: bool) -> None:
    order = args[1] if len(args) > 1 else None
    if order is not None:
        counts["sim.fastpath.ops_simulated"] += _rows(order)


def _count_pipeline(counts: Counter, args, result, nested: bool) -> None:
    counts["pipeline.passes"] += len(result.passes)
    counts["pipeline.cache_hits"] += result.cache_hits


def _count_journal(counts: Counter, args, result, nested: bool) -> None:
    counts["runner.journal_records"] += 1


_COUNTERS: dict[str, Callable] = {
    "schedule_cyclic": _count_cyclic,
    "ScheduledLoop.program": _count_program,
    "CombinedLoop.program": _count_program,
    "NormalizedSchedule.program": _count_program,
    "evaluate": _count_evaluate,
    "PassManager.run": _count_pipeline,
    "CellJournal.append": _count_journal,
}


# -- aggregation -----------------------------------------------------------
def self_times(
    spans: list[tuple[str, float, float, int, str | None]]
) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_metrics(
    recordings: list[list[list[tuple[str, float, float, int, str | None]]]],
    counts: Counter,
    wall: float,
) -> dict[str, float]:
    """``<layer>.calls/.self_s/.share`` for every layer, the layer
    counters, ``unattributed_share`` and the fuzz detail, over
    ``recordings`` (per repetition, per thread, the spans) that took
    ``wall`` seconds."""
    calls: Counter = Counter()
    own: defaultdict[str, float] = defaultdict(float)
    durations: defaultdict[str, list[float]] = defaultdict(list)
    case_time: defaultdict[tuple[int, str], float] = defaultdict(float)
    for rep, threads in enumerate(recordings):
        for spans in threads:
            for (name, start, end, _, item), self_s in zip(
                spans, self_times(spans)
            ):
                calls[name] += 1
                own[name] += self_s
                durations[name].append(end - start)
                if name in (CASE, "workloads.build") and item is not None:
                    case_time[rep, item] += end - start
    out: dict[str, float] = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = own[layer]
        out[f"{layer}.share"] = own[layer] / wall if wall else 0.0
    attributed = sum(own[layer] for layer in LAYER_NAMES)
    out["unattributed_share"] = max(0.0, 1.0 - attributed / wall) if wall else 0.0

    cyclic_calls = calls["core.cyclic"]
    out["core.cyclic.instances_scheduled"] = counts["core.cyclic.instances_scheduled"]
    out["core.cyclic.memo_hit_ratio"] = (
        counts["core.cyclic.memo_hits"] / cyclic_calls if cyclic_calls else 0.0
    )
    out["core.expand.ops_emitted"] = counts["core.expand.ops_emitted"]
    out["sim.fastpath.ops_simulated"] = counts["sim.fastpath.ops_simulated"]
    passes = counts["pipeline.passes"]
    out["pipeline.cache_hit_ratio"] = (
        counts["pipeline.cache_hits"] / passes if passes else 0.0
    )
    out["runner.journal_records"] = counts["runner.journal_records"]
    out.update(fuzz_detail(durations, case_time))
    return out


def fuzz_detail(
    durations: dict[str, list[float]],
    case_time: dict[tuple[int, str], float],
) -> dict[str, float]:
    """Wall-time totals and p95/p99 per oracle and per generator
    pattern; a case's time is its generation plus its oracle run.
    Items that are not fuzz cases (campaign cells) are ignored."""
    from repro.fuzz.generators import PATTERN_NAMES

    out: dict[str, float] = {}
    for oracle in ORACLES:
        samples = durations.get(f"fuzz.oracles.{oracle}", [])
        out[f"fuzz.oracles.{oracle}.total_s"] = sum(samples)
        out[f"fuzz.oracles.{oracle}.p95_ms"] = 1e3 * percentile(samples, 95)
        out[f"fuzz.oracles.{oracle}.p99_ms"] = 1e3 * percentile(samples, 99)
    by_pattern: defaultdict[str, list[float]] = defaultdict(list)
    for (_, item), seconds in case_time.items():
        by_pattern[item.split("/", 1)[0]].append(seconds)
    for pattern in PATTERN_NAMES:
        samples = by_pattern.get(pattern, [])
        out[f"fuzz.pattern.{pattern}.cases"] = len(samples)
        out[f"fuzz.pattern.{pattern}.total_s"] = sum(samples)
        out[f"fuzz.pattern.{pattern}.p95_ms"] = 1e3 * percentile(samples, 95)
        out[f"fuzz.pattern.{pattern}.p99_ms"] = 1e3 * percentile(samples, 99)
    return out
