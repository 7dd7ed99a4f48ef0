"""The complete loop scheduler (paper Fig. 6).

``schedule_loop`` runs the paper's pipeline:

1. *classification* — split nodes into Flow-in / Cyclic / Flow-out;
2. *Cyclic-sched* — greedy pattern scheduling of the Cyclic subset
   under communication cost (:mod:`repro.core.cyclic`);
3. *Flow-in-sched* / *Flow-out-sched* — mod-p interleaving on extra
   processors, or Section 3's folding into an idle Cyclic processor
   (:mod:`repro.core.flowio`).

The result is a :class:`ScheduledLoop`: a finite description (pattern +
allocation plan) that can be *expanded* into a concrete program — the
per-processor op sequences — for any iteration count, then timed with
compile-cost estimates (:meth:`ScheduledLoop.compile_schedule`) or
executed on the simulated multiprocessor (:mod:`repro.sim`).

Disconnected graphs are handled as the paper prescribes ("simply
separate the graph into several connected ones and apply our scheduling
algorithm to each of them independently"): each weakly connected
component is scheduled on its own processors and the programs run side
by side (:class:`CombinedLoop`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Protocol

from repro._types import Op
from repro.core.classify import Classification
from repro.core.cyclic import CyclicStats
from repro.core.flowio import (
    NonCyclicPlan,
    noncyclic_program,
    subset_order,
)
from repro.core.patterns import Pattern
from repro.core.schedule import Schedule
from repro.errors import SchedulingError
from repro.graph.algorithms import topological_order
from repro.graph.ddg import DependenceGraph
from repro.machine.model import Machine
from repro.sim.fastpath import evaluate

__all__ = ["ScheduledLoop", "CombinedLoop", "schedule_loop", "LoopScheduleLike"]


class LoopScheduleLike(Protocol):
    """Common interface of :class:`ScheduledLoop` and :class:`CombinedLoop`."""

    graph: DependenceGraph
    machine: Machine

    @property
    def total_processors(self) -> int: ...

    def program(self, iterations: int) -> list[list[Op]]: ...

    def compile_schedule(self, iterations: int) -> Schedule: ...

    def steady_cycles_per_iteration(self) -> float: ...


@dataclass(frozen=True)
class ScheduledLoop:
    """Scheduling result for one connected loop graph.

    ``pattern`` is ``None`` exactly when the loop is DOALL (empty
    Cyclic subset): then whole iterations are interleaved mod-p over
    all available processors, which is optimal for independent
    iterations.
    """

    graph: DependenceGraph
    machine: Machine
    classification: Classification
    pattern: Pattern | None
    plan: NonCyclicPlan | None
    stats: CyclicStats | None

    # ------------------------------------------------------------------
    @property
    def is_doall(self) -> bool:
        return self.pattern is None

    @property
    def cyclic_processors(self) -> list[int]:
        """Pattern's processor ids in the machine's numbering."""
        return [] if self.pattern is None else self.pattern.used_processors()

    @property
    def total_processors(self) -> int:
        if self.pattern is None:
            return self.machine.processors
        assert self.plan is not None
        return len(self.cyclic_processors) + self.plan.extra_processors

    def steady_cycles_per_iteration(self) -> float:
        """Compile-time steady-state rate of the whole loop.

        The Cyclic pattern's rate — non-Cyclic subsets are provisioned
        to keep up (Fig. 5) so they do not change the rate.  For DOALL
        loops: body latency divided over the processors.
        """
        if self.pattern is not None:
            return self.pattern.cycles_per_iteration()
        return self.graph.total_latency() / self.machine.processors

    # ------------------------------------------------------------------
    def program(self, iterations: int) -> list[list[Op]]:
        """Per-processor op sequences for ``iterations`` iterations.

        Processors are numbered compactly: Cyclic processors first (in
        pattern order), then Flow-in, then Flow-out processors; with
        folding, non-Cyclic ops share the chosen Cyclic processor.
        """
        if iterations < 0:
            raise SchedulingError("iterations must be >= 0")
        if iterations == 0:
            return [[] for _ in range(max(1, self.total_processors))]
        if self.pattern is None:
            return self._doall_program(iterations)
        assert self.plan is not None

        all_rows, all_starts = self.pattern.expand_rows(iterations)
        used = self.cyclic_processors
        cyclic_rows = [all_rows[orig] for orig in used]

        if self.plan.fold_into is not None:
            return self._folded_program(
                cyclic_rows,
                [all_starts[orig] for orig in used],
                used.index(self.plan.fold_into),
                iterations,
            )

        rows = cyclic_rows
        c = self.classification
        if self.plan.flow_in_procs:
            rows += noncyclic_program(
                self.graph, c.flow_in, iterations, self.plan.flow_in_procs
            )
        if self.plan.flow_out_procs:
            rows += noncyclic_program(
                self.graph, c.flow_out, iterations, self.plan.flow_out_procs
            )
        return rows

    def compile_schedule(self, iterations: int) -> Schedule:
        """Concrete start times under compile-time communication costs."""
        return evaluate(
            self.graph, self.program(iterations), self.machine.comm
        )

    # ------------------------------------------------------------------
    def _doall_program(self, iterations: int) -> list[list[Op]]:
        body = topological_order(self.graph, intra_only=True)
        rows: list[list[Op]] = [[] for _ in range(self.machine.processors)]
        for i in range(iterations):
            row = rows[i % self.machine.processors]
            for name in body:
                row.append(Op(name, i))
        return rows

    def _folded_program(
        self,
        cyclic_rows: list[list[Op]],
        cyclic_starts: list[list[int]],
        fold_proc: int,
        iterations: int,
    ) -> list[list[Op]]:
        """Merge non-Cyclic ops into the chosen Cyclic processor.

        ``cyclic_rows`` are the pattern's expanded rows in compact
        processor numbering, ``cyclic_starts`` their nominal start
        cycles, and ``fold_proc`` the compact number of the processor
        that takes the non-Cyclic ops.  A global priority-Kahn pass
        over the instance DAG plus the fixed Cyclic per-processor
        chains yields per-processor orders that are guaranteed
        deadlock-free (the emission order itself is a consistent
        global history).  Priorities steer non-Cyclic ops toward their
        deadlines but do not affect correctness.

        Instances are integer slots ``iteration * n + node index``
        (DESIGN.md §15): every table is a flat list over the program's
        slots, and an ``Op`` is built only when it joins a row.
        """
        assert self.plan is not None and self.plan.fold_into is not None
        c = self.classification
        graph = self.graph
        names = graph.node_names()
        index = graph.node_index
        n = len(names)
        size = iterations * n
        latency = [graph.latency(name) for name in names]
        pred_table = graph.predecessor_table()
        # per source index, the slot offset of each dependent: the
        # predecessor table read the other way
        succ_table: list[list[int]] = [[] for _ in range(n)]
        for v, entries in enumerate(pred_table):
            for u, d, _e in entries:
                succ_table[u].append(d * n + v - u)

        # priorities: cyclic ops keep their expanded nominal start;
        # flow-in ops aim just before their earliest consumer; flow-out
        # ops just after their latest producer.  A slot's priority is
        # None until it is set.
        rate = self.pattern.cycles_per_iteration() if self.pattern else 1.0
        prio: list[float | None] = [None] * size
        member = [False] * size
        proc_of = [fold_proc] * size
        # chain constraints: each cyclic row is a fixed sequence.
        chain_next = [-1] * size
        chain_blocked = [False] * size
        total = 0
        for j, (row, starts) in enumerate(zip(cyclic_rows, cyclic_starts)):
            prev = -1
            for (node, it), start in zip(row, starts):
                s = it * n + index(node)
                prio[s] = float(start)
                if not member[s]:
                    member[s] = True
                    total += 1
                proc_of[s] = j
                if prev >= 0:
                    chain_next[prev] = s
                    chain_blocked[s] = True
                prev = s
        for name in (*c.flow_in, *c.flow_out):
            for s in range(index(name), size, n):
                member[s] = True
            total += iterations
        fi_order = [index(m) for m in subset_order(graph, c.flow_in)]
        fo_order = [index(m) for m in subset_order(graph, c.flow_out)]
        # flow-in: reverse instance-topological sweep so every already-
        # prioritized successor (cyclic or later flow-in) is available.
        for it in range(iterations - 1, -1, -1):
            for v in reversed(fi_order):
                s = it * n + v
                deadline = None
                for off in succ_table[v]:
                    if s + off < size:
                        p = prio[s + off]
                        if p is not None and (
                            deadline is None or p < deadline
                        ):
                            deadline = p
                prio[s] = it * rate if deadline is None else deadline - 0.5
        # flow-out: forward sweep; every producer already has a priority.
        for it in range(iterations):
            for v in fo_order:
                s = it * n + v
                ready = None
                for u, d, _e in pred_table[v]:
                    if it >= d:
                        p = prio[s + u - v - d * n]
                        if p is not None:
                            p += latency[u]
                            if ready is None or p > ready:
                                ready = p
                prio[s] = it * rate if ready is None else ready + 0.5

        remaining = [0] * size
        for s in range(size):
            if member[s]:
                it, v = divmod(s, n)
                cnt = 0
                for u, d, _e in pred_table[v]:
                    if it >= d and member[s + u - v - d * n]:
                        cnt += 1
                remaining[s] = cnt

        # (prio, slot) orders like (prio, iteration, node index)
        heap = [
            (prio[s], s)
            for s in range(size)
            if member[s] and remaining[s] == 0 and not chain_blocked[s]
        ]
        heapq.heapify(heap)
        released_chain = [False] * size
        heappush = heapq.heappush
        heappop = heapq.heappop

        rows: list[list[Op]] = [[] for _ in range(len(cyclic_rows))]
        emitted = 0
        while heap:
            s = heappop(heap)[1]
            it, v = divmod(s, n)
            rows[proc_of[s]].append(Op(names[v], it))
            emitted += 1
            nxt = chain_next[s]
            if nxt >= 0:
                released_chain[nxt] = True
                if remaining[nxt] == 0:
                    heappush(heap, (prio[nxt], nxt))
            for off in succ_table[v]:
                ds = s + off
                if ds < size and member[ds]:
                    left = remaining[ds] - 1
                    remaining[ds] = left
                    if left == 0 and (
                        not chain_blocked[ds] or released_chain[ds]
                    ):
                        heappush(heap, (prio[ds], ds))
        if emitted != total:
            raise SchedulingError(
                "internal error: folded merge left "
                f"{total - emitted} ops unordered"
            )
        return rows

    def describe(self) -> str:
        """Multi-line human summary of the scheduling decisions."""
        c = self.classification
        lines = [
            f"loop {self.graph.name!r}: {len(self.graph)} nodes "
            f"(flow-in {len(c.flow_in)}, cyclic {len(c.cyclic)}, "
            f"flow-out {len(c.flow_out)})",
        ]
        if self.pattern is None:
            lines.append(
                f"DOALL: iterations interleaved over "
                f"{self.machine.processors} processors"
            )
        else:
            lines.append(self.pattern.describe())
            assert self.plan is not None
            if self.plan.fold_into is not None:
                lines.append(
                    f"non-cyclic nodes folded into processor "
                    f"{self.plan.fold_into}"
                )
            elif self.plan.extra_processors:
                lines.append(
                    f"flow-in on {self.plan.flow_in_procs} extra proc(s), "
                    f"flow-out on {self.plan.flow_out_procs} extra proc(s)"
                )
        lines.append(f"total processors: {self.total_processors}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CombinedLoop:
    """Independent component schedules running side by side."""

    graph: DependenceGraph
    machine: Machine
    parts: tuple[ScheduledLoop, ...]

    @property
    def total_processors(self) -> int:
        return sum(p.total_processors for p in self.parts)

    def steady_cycles_per_iteration(self) -> float:
        """Components run concurrently: the slowest one sets the rate."""
        return max(p.steady_cycles_per_iteration() for p in self.parts)

    def program(self, iterations: int) -> list[list[Op]]:
        rows: list[list[Op]] = []
        for part in self.parts:
            rows.extend(part.program(iterations))
        return rows

    def compile_schedule(self, iterations: int) -> Schedule:
        return evaluate(
            self.graph, self.program(iterations), self.machine.comm
        )

    def describe(self) -> str:
        chunks = [
            f"{len(self.parts)} independent components "
            f"({self.total_processors} processors total):"
        ]
        chunks += [part.describe() for part in self.parts]
        return "\n---\n".join(chunks)


def schedule_loop(
    graph: DependenceGraph,
    machine: Machine,
    *,
    ordering: str = "asap",
    tie_break: str = "idle",
    folding: str = "auto",
    max_instances: int | None = None,
    max_iteration_lead: int = 8,
) -> ScheduledLoop | CombinedLoop:
    """Schedule a loop for a MIMD machine (the paper's full algorithm).

    ``graph`` must have all dependence distances <= 1 (use
    :func:`repro.graph.unwind.normalize_distances` first if not).
    ``ordering`` picks the ready-queue order of Cyclic-sched,
    ``tie_break`` its processor-selection tie rule (see
    :func:`repro.core.cyclic.schedule_cyclic`); ``folding`` controls
    the Section 3 non-Cyclic placement heuristic (``'auto'`` /
    ``'always'`` / ``'never'``).

    This is a thin compatibility wrapper over the unified pipeline
    (:mod:`repro.pipeline`): it runs ``ClassifyPass ->
    CyclicSchedPass -> FlowIOSchedPass`` through the process-wide
    artifact cache, so repeated scheduling of the same (graph,
    machine, options) is a cache hit.  Build a
    :class:`repro.pipeline.PassManager` directly for per-pass timings
    and diagnostics.
    """
    from repro.pipeline import CompilationContext, build_pipeline

    ctx = CompilationContext.from_graph(graph, machine)
    build_pipeline(
        ordering=ordering,
        tie_break=tie_break,
        folding=folding,
        max_instances=max_instances,
        max_iteration_lead=max_iteration_lead,
    ).run(ctx)
    return ctx.artifacts["scheduled"]
