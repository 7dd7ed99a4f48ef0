"""Frozen reference copy of the closed-form evaluator.

This is :func:`repro.sim.fastpath.evaluate` as it was before the
simulator moved onto integer slots and packed schedules: it walks
``Op`` instances and builds every :class:`Placement` through
:meth:`Schedule.add`.  The identity tests compare the live evaluator
against it, schedule for schedule and error for error.  It lives only
under ``tests/`` and must not change with the code it checks; it
therefore also carries its own copies of the program validator and of
the instance-predecessor walk instead of calling the library's.
"""

from __future__ import annotations

from collections import deque
from typing import Sequence

from repro._types import Op
from repro.core.schedule import Schedule
from repro.errors import DeadlockError, ScheduleValidationError
from repro.graph.ddg import DependenceGraph, Edge
from repro.machine.comm import CommModel
from repro.sim.engine import ExecutionTrace, Message

__all__ = ["reference_evaluate", "reference_evaluate_trace"]


def _instance_predecessors(
    graph: DependenceGraph, op: Op
) -> list[tuple[Op, Edge]]:
    out: list[tuple[Op, Edge]] = []
    for e in graph.predecessors(op.node):
        it = op.iteration - e.distance
        if it >= 0:
            out.append((Op(e.src, it), e))
    return out


def _validate_program(
    graph: DependenceGraph, order: Sequence[Sequence[Op]]
) -> dict[Op, int]:
    if len(order) < 1:
        raise ScheduleValidationError(
            "need at least one processor (program has no processor rows)"
        )
    proc_of: dict[Op, int] = {}
    for j, ops in enumerate(order):
        for op in ops:
            if op in proc_of:
                raise ScheduleValidationError(
                    f"{op} appears twice in the program "
                    f"(on P{proc_of[op]} and P{j})"
                )
            graph.node(op.node)  # raises GraphError on unknown nodes
            if op.iteration < 0:
                raise ScheduleValidationError(
                    f"negative iteration: {op} on P{j}"
                )
            proc_of[op] = j
    return proc_of


def _reconstruct_messages(
    graph: DependenceGraph,
    sched: Schedule,
    proc_of: dict[Op, int],
    comm: CommModel,
    use_runtime: bool,
) -> list[Message]:
    messages: list[Message] = []
    for op, j in proc_of.items():
        for pred, edge in _instance_predecessors(graph, op):
            pj = proc_of.get(pred)
            if pj is None or pj == j or pred not in sched:
                continue
            sent = sched.finish(pred)
            cost = (
                comm.runtime_cost(edge, pred)
                if use_runtime
                else comm.compile_cost(edge)
            )
            messages.append(Message(pred, op, pj, j, sent, sent + cost))
    return messages


def reference_evaluate(
    graph: DependenceGraph,
    order: Sequence[Sequence[Op]],
    comm: CommModel,
    *,
    use_runtime: bool = False,
) -> Schedule:
    """The evaluator as frozen: same times, same errors, same trace."""
    proc_of = _validate_program(graph, order)
    processors = len(order)

    remaining: dict[Op, int] = {}
    dependents: dict[Op, list[Op]] = {}
    for op in proc_of:
        cnt = 0
        for pred, _edge in _instance_predecessors(graph, op):
            if pred in proc_of:
                cnt += 1
                dependents.setdefault(pred, []).append(op)
        remaining[op] = cnt

    sched = Schedule(processors)
    ptr = [0] * processors
    proc_end = [0] * processors
    queue: deque[int] = deque(range(processors))
    queued = [True] * processors
    placed = 0

    def head_ready(j: int) -> bool:
        if ptr[j] >= len(order[j]):
            return False
        return remaining[order[j][ptr[j]]] == 0

    while queue:
        j = queue.popleft()
        queued[j] = False
        while head_ready(j):
            op = order[j][ptr[j]]
            start = proc_end[j]
            for pred, edge in _instance_predecessors(graph, op):
                if pred not in proc_of:
                    continue
                pp = sched.placement(pred)
                avail = pp.end
                if pp.proc != j:
                    avail += (
                        comm.runtime_cost(edge, pred)
                        if use_runtime
                        else comm.compile_cost(edge)
                    )
                if avail > start:
                    start = avail
            lat = graph.latency(op.node)
            sched.add(op, j, start, lat)
            proc_end[j] = start + lat
            ptr[j] += 1
            placed += 1
            for dep in dependents.get(op, ()):
                remaining[dep] -= 1
                if remaining[dep] == 0:
                    dj = proc_of[dep]
                    if (
                        dj != j
                        and not queued[dj]
                        and ptr[dj] < len(order[dj])
                        and order[dj][ptr[dj]] == dep
                    ):
                        queued[dj] = True
                        queue.append(dj)

    if placed != len(proc_of):
        stuck = [
            order[j][ptr[j]]
            for j in range(processors)
            if ptr[j] < len(order[j])
        ]
        err = DeadlockError(
            f"program deadlocked with {len(proc_of) - placed} ops "
            f"unexecuted; stuck heads: {stuck[:5]}"
        )
        err.trace = ExecutionTrace(
            sched,
            _reconstruct_messages(graph, sched, proc_of, comm, use_runtime),
        )
        raise err
    return sched


def reference_evaluate_trace(
    graph: DependenceGraph,
    order: Sequence[Sequence[Op]],
    comm: CommModel,
    *,
    use_runtime: bool = False,
) -> ExecutionTrace:
    """The trace variant as frozen: schedule plus reconstructed messages."""
    sched = reference_evaluate(graph, order, comm, use_runtime=use_runtime)
    proc_of: dict[Op, int] = {
        op: j for j, ops in enumerate(order) for op in ops
    }
    return ExecutionTrace(
        sched, _reconstruct_messages(graph, sched, proc_of, comm, use_runtime)
    )
