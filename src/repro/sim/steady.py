"""Exact steady-state rate of an emitted program (DESIGN.md §16).

Under compile-time costs a program's start times solve the fastpath
recurrence ``start = max(end of the previous op on the processor,
end of each predecessor + message cost)``, which is linear in max-plus
algebra: the program is a timed event graph.  Once every processor
row repeats itself every ``m`` iterations, the graph folds onto one
window — one *class* per ``(node, iteration mod m)`` — and the
program's asymptotic cycles per window is the folded graph's maximum
cycle ratio (:func:`~repro.graph.algorithms.max_cycle_ratio`), with
no simulation.

The fold needs the rows' *structural start* ``a``: past the first op
of iteration ``>= a``, row ``j`` repeats with ``L_j`` ops per window,
``row[k + L_j]`` being ``row[k]`` shifted by ``m`` iterations.  ``a``
is found by doubling from a lower bound the caller knows (1 by
default).  A program that is not periodic by :data:`MAX_START`
iterations raises; it is never skipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from repro._types import Op
from repro.errors import SimulationError
from repro.graph.algorithms import critical_cyclicity, max_cycle_ratio
from repro.graph.ddg import DependenceGraph
from repro.machine.comm import CommModel

__all__ = ["MAX_START", "PeriodGraph", "period_graph", "steady_rate"]

#: the structural start search gives up after trying this one
MAX_START = 4096

#: windows past the kernel over which each row's repetition is checked
_CHECK_WINDOWS = 2

#: (kernels, class of slot, op of class, processor of class)
_Fold = tuple[list[list[int]], list[int], list[tuple[int, int]], list[int]]


@dataclass(frozen=True)
class PeriodGraph:
    """One window of a periodic program as a timed event graph.

    Node ``c`` is the class of the kernel's ``c``-th op; ``edges`` are
    ``(src class, dst class, weight, transit)``, the transit counting
    windows.  ``start`` is the structural start ``a`` in iterations.
    """

    start: int
    classes: int
    edges: tuple[tuple[int, int, int, int], ...]

    def rate(self) -> Fraction:
        """Exact asymptotic cycles per window."""
        return max_cycle_ratio(self.classes, self.edges)

    def cyclicity(self) -> int:
        """Windows after which, past a transient, the schedule repeats
        shifted by ``cyclicity * rate`` cycles (a multiple of the
        rate's denominator; see
        :func:`~repro.graph.algorithms.critical_cyclicity`)."""
        return critical_cyclicity(self.classes, self.edges)


def _fold(
    rows: Sequence[Sequence[Op]],
    start: int,
    window: int,
    graph: DependenceGraph,
) -> _Fold | None:
    """Each row's one-window kernel past ``start``, as class ids.

    Returns ``(kernels, class of slot, op of class, processor of
    class)``, a slot being ``node index * window + iteration mod
    window`` and an op ``(node index, iteration)``.  ``None`` when some
    row does not repeat, shifted by ``window`` iterations, over
    :data:`_CHECK_WINDOWS` windows past its kernel, or the kernels do
    not hold every class exactly once.
    """
    index = graph.node_index
    cls = [-1] * (len(graph) * window)
    kernels: list[list[int]] = []
    ops: list[tuple[int, int]] = []
    proc: list[int] = []
    for j, row in enumerate(rows):
        first = next(
            (k for k, op in enumerate(row) if op[1] >= start), len(row)
        )
        length = sum(1 for op in row if start <= op[1] < start + window)
        stop = first + _CHECK_WINDOWS * length
        if stop + length > len(row) or (not length and first < len(row)):
            return None
        for k in range(first, stop):
            node, it = row[k]
            nxt = row[k + length]
            if nxt[0] != node or nxt[1] != it + window:
                return None
        kernel = []
        for node, it in row[first : first + length]:
            v = index(node)
            slot = v * window + it % window
            if cls[slot] >= 0:
                return None
            cls[slot] = len(ops)
            kernel.append(len(ops))
            ops.append((v, it))
            proc.append(j)
        kernels.append(kernel)
    if len(ops) != len(cls):
        return None
    return kernels, cls, ops, proc


def period_graph(
    graph: DependenceGraph,
    program: Callable[[int], Sequence[Sequence[Op]]],
    window: int,
    comm: CommModel,
    *,
    start: int = 1,
) -> PeriodGraph:
    """Fold ``program`` (iterations -> rows) onto one ``window``.

    The structural start search doubles from ``start``.  A caller that
    knows where the program's transient ends passes it: a transient
    can look periodic for a while — a folded part whose prelude runs
    one ``n1`` per iteration on one processor for 20 iterations passes
    the check at ``a = 1`` with a rate that is not its steady rate.

    Processor-order edges link each kernel op to the next in its row
    (the last wraps to the first with transit 1); dependence edges
    come from :meth:`~repro.graph.ddg.DependenceGraph.predecessor_table`
    with transit ``Δiteration / window``.  An edge weighs its source's
    latency plus, across processors, the compile-time message cost.
    """
    # checking start ``a`` takes ``2a + 3 windows`` iterations; past
    # the first, an expansion is deep enough for ``2a`` as well
    checked = (_CHECK_WINDOWS + 1) * window
    rows: Sequence[Sequence[Op]] = ()
    depth = 0
    start = max(1, start)
    while True:
        if 2 * start + checked > depth:
            depth = (4 if rows else 2) * start + checked
            rows = program(depth)
        fold = _fold(rows, start, window, graph)
        if fold is not None:
            break
        if start >= MAX_START:
            raise SimulationError(
                f"program of {graph.name!r} is not periodic over "
                f"{window} iterations within {MAX_START} iterations"
            )
        start *= 2
    kernels, cls, ops, proc = fold

    latency = [graph.latency(name) for name in graph.node_names()]
    # per node: (source, distance, weight on one processor, across)
    preds = [
        [(u, d, latency[u], latency[u] + comm.compile_cost(e))
         for u, d, e in entries]
        for entries in graph.predecessor_table()
    ]
    edges: list[tuple[int, int, int, int]] = []
    for kernel in kernels:
        for k, c in enumerate(kernel):
            wrap = k + 1 == len(kernel)
            nxt = kernel[0] if wrap else kernel[k + 1]
            edges.append((c, nxt, latency[ops[c][0]], int(wrap)))
    for c, (v, it) in enumerate(ops):
        j = proc[c]
        for u, d, local, across in preds[v]:
            s = cls[u * window + (it - d) % window]
            transit = (ops[s][1] + d - it) // window
            if proc[s] != j:
                edges.append((s, c, across, transit))
            elif s - transit * len(kernels[j]) >= c:
                edges.append((s, c, local, transit))
            # else the row runs the source first (classes are numbered
            # in row order): the processor-order path between the two
            # has the same transit and weighs at least the latency
    return PeriodGraph(start, len(ops), tuple(edges))


def steady_rate(
    graph: DependenceGraph,
    program: Callable[[int], Sequence[Sequence[Op]]],
    window: int,
    comm: CommModel,
    *,
    start: int = 1,
) -> Fraction:
    """Exact asymptotic cycles per ``window`` iterations of ``program``."""
    return period_graph(graph, program, window, comm, start=start).rate()
