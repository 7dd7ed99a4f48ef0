"""Closed-form evaluation of a (assignment, order) parallel program.

Because the machine model is deterministic given per-processor op
orders (DESIGN.md §3 — blocking receives, fully overlapped sends,
in-order execution), execution times satisfy a simple recurrence::

    start(op) = max( end(previous op on op's processor),
                     max over predecessors p of
                         end(p) + [proc(p) != proc(op)] * cost(edge, p) )

:func:`evaluate` solves it by a dependency-driven forward pass and
returns a full :class:`~repro.core.schedule.Schedule` with concrete
start times.  With ``use_runtime=True`` the per-message *run-time*
communication cost is charged (possibly fluctuating) instead of the
compile-time estimate — that is the paper's "simulated multiprocessor".
The event-driven engine (:mod:`repro.sim.engine`) computes the same
times operationally; the test suite cross-checks the two.

The pass works on integer slots (:func:`~repro.sim.engine.
index_program`) and the graph's predecessor table, and hands the
result over as a packed schedule: no ``Op`` or ``Placement`` is built
unless a caller asks the schedule for one (DESIGN.md §15).

A cyclic waiting chain (op A waits for a message from an op that is
queued behind A's own processor-order successor, etc.) is reported as
:class:`~repro.errors.DeadlockError` — a correctly generated program
can never deadlock, so this doubles as a codegen sanity check.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro._types import Op
from repro.core.schedule import Schedule
from repro.errors import DeadlockError
from repro.graph.ddg import DependenceGraph
from repro.machine.comm import CommModel
from repro.sim.engine import (
    ExecutionTrace,
    Message,
    ProgramIndex,
    index_program,
)

__all__ = ["evaluate", "evaluate_trace"]

#: one cross-processor dependence: (source slot, destination slot, cost)
_Cross = tuple[int, int, int]


def _wire(
    graph: DependenceGraph,
    ix: ProgramIndex,
    comm: CommModel,
    use_runtime: bool,
    cross: list[_Cross] | None,
) -> tuple[list[int], list[list[tuple[int, int]] | None]]:
    """Each slot's count of in-program predecessors, and its dependents.

    ``dependents[s]`` lists ``(slot, delay)`` for every in-program
    instance that depends on slot ``s``, where ``delay`` is the message
    cost when the two sit on different processors and 0 otherwise.
    Destinations come in program order and, per destination, edges in
    predecessor-table order — the order the wake-ups and the messages
    are reported in.  When ``cross`` is given, every cross-processor
    dependence is also appended to it as ``(src, dst, cost)``.
    """
    n = len(graph)
    priced = [
        tuple(
            (src, d, comm.edge_cost(e, use_runtime), e) for src, d, e in preds
        )
        for preds in graph.predecessor_table()
    ]
    ops, procs, nodes, iters, _, slot_of = ix
    find = slot_of.get
    remaining = [0] * len(ops)
    dependents: list[list[tuple[int, int]] | None] = [None] * len(ops)
    for s, (v, it, j) in enumerate(zip(nodes, iters, procs)):
        count = 0
        for src, d, cost, edge in priced[v]:
            # a negative iteration gives a negative key: never a slot
            ps = find((it - d) * n + src)
            if ps is None:
                continue  # live-in: outside the program, ready at 0
            count += 1
            if procs[ps] == j:
                delay = 0
            else:
                delay = (
                    cost
                    if cost is not None
                    else comm.runtime_cost(edge, ops[ps])
                )
                if cross is not None:
                    cross.append((ps, s, delay))
            deps = dependents[ps]
            if deps is None:
                dependents[ps] = [(s, delay)]
            else:
                deps.append((s, delay))
        remaining[s] = count
    return remaining, dependents


def _solve(
    graph: DependenceGraph,
    order: Sequence[Sequence[Op]],
    comm: CommModel,
    use_runtime: bool,
    trace: bool,
) -> tuple[Schedule, list[Message] | None]:
    """Run the forward pass; raise :class:`DeadlockError` if it sticks.

    Processors are visited from a FIFO queue; a processor places ops
    from its head while their predecessors are all placed, and each
    placement wakes the processors whose head it completed.  With
    ``trace`` the messages of the run are returned too; a deadlock
    always attaches the partial run's trace to the error.
    """
    ix = index_program(graph, order)
    cross: list[_Cross] | None = [] if trace else None
    remaining, dependents = _wire(graph, ix, comm, use_runtime, cross)
    latency = [graph.latency(name) for name in graph.node_names()]
    lats = [latency[v] for v in ix.nodes]
    procs, row_end = ix.procs, ix.row_end
    processors = len(order)
    cur = [0, *row_end[:-1]]  # next slot to place on each processor
    proc_end = [0] * processors
    ready = [0] * len(lats)  # earliest start its predecessors allow
    queue: deque[int] = deque(range(processors))
    queued = [True] * processors
    placed: list[int] = []
    starts: list[int] = []

    while queue:
        j = queue.popleft()
        queued[j] = False
        s, stop, t = cur[j], row_end[j], proc_end[j]
        while s < stop and remaining[s] == 0:
            start = ready[s] if ready[s] > t else t
            t = start + lats[s]
            placed.append(s)
            starts.append(start)
            deps = dependents[s]
            if deps is not None:
                for dep, delay in deps:  # wake waiting processors
                    if t + delay > ready[dep]:
                        ready[dep] = t + delay
                    left = remaining[dep] = remaining[dep] - 1
                    if left == 0:
                        dj = procs[dep]
                        if dj != j and not queued[dj] and cur[dj] == dep:
                            queued[dj] = True
                            queue.append(dj)
            s += 1
        cur[j] = s
        proc_end[j] = t

    ops = ix.ops
    sched = Schedule.from_packed(
        processors,
        [ops[s] for s in placed],
        [procs[s] for s in placed],
        starts,
        [lats[s] for s in placed],
        max(proc_end),
    )
    deadlocked = len(placed) != len(ops)
    if not (trace or deadlocked):
        return sched, None
    if cross is None:
        cross = []
        _wire(graph, ix, comm, use_runtime, cross)
    # A message departs when its source finishes and arrives ``cost``
    # cycles later, whether or not its destination ever starts: the
    # event engine's list under its default, fully overlapped channels,
    # even for a partial (deadlocked) run.
    end: list[int | None] = [None] * len(ops)
    for s, start in zip(placed, starts):
        end[s] = start + lats[s]
    messages = [
        Message(ops[ps], ops[s], procs[ps], procs[s], end[ps], end[ps] + cost)
        for ps, s, cost in cross
        if end[ps] is not None
    ]
    if deadlocked:
        stuck = [
            ops[cur[j]] for j in range(processors) if cur[j] < row_end[j]
        ]
        err = DeadlockError(
            f"program deadlocked with {len(ops) - len(placed)} ops "
            f"unexecuted; stuck heads: {stuck[:5]}"
        )
        err.trace = ExecutionTrace(sched, messages)
        raise err
    return sched, messages


def evaluate(
    graph: DependenceGraph,
    order: Sequence[Sequence[Op]],
    comm: CommModel,
    *,
    use_runtime: bool = False,
) -> Schedule:
    """Compute start/finish times for a per-processor op ordering.

    ``order[j]`` is the exact execution order of processor ``j``.
    Dependences whose source instance is absent from the program
    (live-in values, or nodes outside the scheduled subset) are
    satisfied at time 0.
    """
    return _solve(graph, order, comm, use_runtime, False)[0]


def evaluate_trace(
    graph: DependenceGraph,
    order: Sequence[Sequence[Op]],
    comm: CommModel,
    *,
    use_runtime: bool = False,
) -> ExecutionTrace:
    """:func:`evaluate`, packaged as a full :class:`ExecutionTrace`.

    The schedule comes from the closed-form recurrence; the messages
    come from the same pass's dependence wiring (deterministic given
    the comm model), so the result supports the same segment/Gantt/
    export tooling as the event-driven engine — and the differential
    tests can compare the two implementations through one lens.
    """
    sched, messages = _solve(graph, order, comm, use_runtime, True)
    return ExecutionTrace(sched, messages)
