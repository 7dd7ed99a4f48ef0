"""Modulo scheduling with optimality certificates — a greedy-gap oracle.

The paper's scheduler is greedy; how far from optimal is it?  For
small Cyclic graphs, classic *modulo scheduling* gives a sharp
reference: find a small initiation interval ``P`` such that a start
offset ``sigma(v)`` and processor ``pi(v)`` exist per node, with
instance ``(v, i)`` executing at ``sigma(v) + P * i``, subject to

* dependences: ``sigma(w) + P * d >= sigma(v) + latency(v) + comm``
  for each edge ``v -> w`` with distance ``d`` (``comm`` charged when
  ``pi(v) != pi(w)``);
* processor exclusivity modulo ``P``: ops sharing a processor occupy
  disjoint residues mod ``P``.

Two findings fall out of comparing this oracle with the paper's greedy
pattern scheduler:

1. The greedy pattern class is *strictly richer* than single-
   initiation modulo schedules: a pattern advancing ``d > 1``
   iterations per period (e.g. Fig. 7's 6-cycles/2-iterations kernel,
   rate 3) can beat the best ``d = 1`` modulo schedule (rate 5 for
   Fig. 7 under the same machine).  :func:`best_modulo_rate` therefore
   accepts an unroll factor: modulo-scheduling the loop unwound ``u``
   times yields rate ``P/u`` and recovers the multi-iteration kernels.
2. With modest unrolling, the modulo reference brackets the greedy
   scheduler's rate (see ``bench_optimality_gap``).

Exactness contract: every returned schedule is *verified feasible*, so
its ``P`` is a sound **upper bound** on the optimal initiation
interval; :func:`rate_lower_bound` (recurrence ratio and work/processor
bound) is a certified **lower bound**; when the two meet —
:meth:`ModuloSchedule.certified_optimal` — optimality is proven.  The
branch-and-bound places nodes in topological order with tight offset
windows (incoming edges bound below, edges back to placed nodes bound
above, one period's worth of offsets per window); the window
normalization is a search heuristic, so a failed period is not by
itself a proof of infeasibility — hence the bracket phrasing.  A node
limit guards against misuse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from repro.errors import SchedulingError
from repro.graph.algorithms import recurrence_ratio, topological_order
from repro.graph.ddg import DependenceGraph
from repro.graph.unwind import unwind
from repro.machine.model import Machine

__all__ = [
    "ModuloSchedule",
    "optimal_modulo_schedule",
    "best_modulo_rate",
    "rate_lower_bound",
    "OPTIMAL_NODE_LIMIT",
]


def rate_lower_bound(graph: DependenceGraph, machine: Machine) -> float:
    """Certified lower bound on any schedule's cycles/iteration.

    The larger of the recurrence-theoretic bound and the work bound
    (``total latency / processors``); no schedule of any shape beats
    either.
    """
    return float(_exact_lower_bound(graph, machine))


def _exact_lower_bound(graph: DependenceGraph, machine: Machine) -> Fraction:
    return max(
        recurrence_ratio(graph),
        Fraction(graph.total_latency(), machine.processors),
    )

#: Beyond this many nodes, the exact search is refused.
OPTIMAL_NODE_LIMIT = 12


@dataclass(frozen=True)
class ModuloSchedule:
    """An exact modulo schedule: offsets, processors, and the rate P."""

    graph: DependenceGraph
    period: int
    offsets: dict[str, int]
    processors: dict[str, int]

    def cycles_per_iteration(self) -> float:
        """Steady rate of this schedule (one initiation per period)."""
        return float(self.period)

    def certified_optimal(self, machine: Machine) -> bool:
        """True when this schedule provably cannot be beaten."""
        return self.period <= math.ceil(
            _exact_lower_bound(self.graph, machine)
        )

    def verify(self, machine: Machine) -> None:
        """Re-check all modulo-schedule constraints; raise on violation."""
        p = self.period
        occupied: dict[int, set[int]] = {}
        for n in self.graph.node_names():
            proc = self.processors[n]
            cells = occupied.setdefault(proc, set())
            for q in range(self.graph.latency(n)):
                r = (self.offsets[n] + q) % p
                if r in cells:
                    raise SchedulingError(
                        f"{n} overlaps another op on processor {proc}"
                    )
                cells.add(r)
        for e in self.graph.edges:
            comm = (
                machine.comm.compile_cost(e)
                if self.processors[e.src] != self.processors[e.dst]
                else 0
            )
            lhs = self.offsets[e.dst] + p * e.distance
            rhs = self.offsets[e.src] + self.graph.latency(e.src) + comm
            if lhs < rhs:
                raise SchedulingError(
                    f"dependence {e.src}->{e.dst} violated: "
                    f"{lhs} < {rhs} at P={p}"
                )


def optimal_modulo_schedule(
    graph: DependenceGraph,
    machine: Machine,
    *,
    max_period: int | None = None,
) -> ModuloSchedule:
    """Smallest-P-found single-initiation modulo schedule.

    ``graph`` must have <= :data:`OPTIMAL_NODE_LIMIT` nodes and
    distances <= 1.  ``max_period`` defaults to the serial rate (total
    latency), at which a schedule always exists.  The result is
    verified feasible; check :meth:`ModuloSchedule.certified_optimal`
    for a proof of optimality (see module docstring).
    """
    graph.validate()
    names = graph.node_names()
    if len(names) > OPTIMAL_NODE_LIMIT:
        raise SchedulingError(
            f"{len(names)} nodes exceed the exact-search limit "
            f"({OPTIMAL_NODE_LIMIT})"
        )
    if graph.max_distance() > 1:
        raise SchedulingError("normalize distances to <= 1 first")
    serial = graph.total_latency()
    hi = max_period if max_period is not None else serial
    lo = max(
        1,
        math.ceil(recurrence_ratio(graph)),
        math.ceil(serial / machine.processors),
    )

    for period in range(lo, min(hi, serial - 1) + 1):
        found = _search(graph, machine, period)
        if found is not None:
            offsets, assignment = found
            sched = ModuloSchedule(graph, period, offsets, assignment)
            sched.verify(machine)
            return sched

    # serial execution on one processor always works at P = serial
    offsets: dict[str, int] = {}
    t = 0
    for n in topological_order(graph):
        offsets[n] = t
        t += graph.latency(n)
    sched = ModuloSchedule(graph, serial, offsets, {n: 0 for n in names})
    sched.verify(machine)
    return sched


def best_modulo_rate(
    graph: DependenceGraph,
    machine: Machine,
    *,
    max_unroll: int = 2,
) -> float:
    """Best cycles/iteration over modulo schedules of unroll 1..u.

    Unrolling by ``u`` admits kernels spanning ``u`` iterations (rate
    ``P/u``), the schedule class the paper's patterns live in.  The
    unrolled graph must stay within the node limit.
    """
    best = float(graph.total_latency())
    for u in range(1, max_unroll + 1):
        unrolled = unwind(graph, u).graph
        if len(unrolled) > OPTIMAL_NODE_LIMIT:
            break
        sched = optimal_modulo_schedule(unrolled, machine)
        best = min(best, sched.period / u)
    return best


def _search(graph, machine, period):
    """DFS at fixed period: topological placement, tight offset windows."""
    lat = {n: graph.latency(n) for n in graph.node_names()}
    procs = machine.processors
    order = topological_order(graph)
    by_dst: dict[str, list] = {n: [] for n in order}
    by_src: dict[str, list] = {n: [] for n in order}
    for e in graph.edges:
        by_dst[e.dst].append(e)
        by_src[e.src].append(e)

    occupied = [set() for _ in range(procs)]
    offsets: dict[str, int] = {}
    assign: dict[str, int] = {}

    def bounds(n: str, proc: int) -> tuple[int, int]:
        lb, ub = 0, 3 * len(order) * period
        for e in by_dst[n]:  # placed pred -> n
            if e.src in offsets:
                comm = (
                    machine.comm.compile_cost(e)
                    if assign[e.src] != proc
                    else 0
                )
                lb = max(
                    lb,
                    offsets[e.src] + lat[e.src] + comm - period * e.distance,
                )
        for e in by_src[n]:  # n -> placed succ
            if e.dst in offsets:
                comm = (
                    machine.comm.compile_cost(e)
                    if assign[e.dst] != proc
                    else 0
                )
                ub = min(
                    ub,
                    offsets[e.dst] + period * e.distance - lat[n] - comm,
                )
        return lb, ub

    def fits(n: str, proc: int, off: int) -> bool:
        cells = occupied[proc]
        return all((off + q) % period not in cells for q in range(lat[n]))

    def dfs(i: int) -> bool:
        if i == len(order):
            return True
        n = order[i]
        for proc in range(procs):
            lb, ub = bounds(n, proc)
            # offsets lb + period .. repeat the same residues under
            # strictly weaker incoming constraints: one window suffices
            for off in range(lb, min(ub, lb + period - 1) + 1):
                if not fits(n, proc, off):
                    continue
                for q in range(lat[n]):
                    occupied[proc].add((off + q) % period)
                offsets[n] = off
                assign[n] = proc
                if dfs(i + 1):
                    return True
                for q in range(lat[n]):
                    occupied[proc].discard((off + q) % period)
                del offsets[n]
                del assign[n]
        return False

    if dfs(0):
        return dict(offsets), dict(assign)
    return None
