"""Frozen reference copy of the folded merge.

This is ``ScheduledLoop._folded_program`` as it was before the merge
moved onto integer slots: it keys its priorities, chains and counts on
``Op`` instances and finds dependences through
``DependenceGraph.instance_predecessors``/``instance_successors``.  The
identity tests in ``test_folded_merge.py`` compare the live merge
against it row for row and error for error.  It lives only under
``tests/`` and must not change with the code it checks.
"""

from __future__ import annotations

import heapq

from repro._types import Op
from repro.core.flowio import subset_order
from repro.core.scheduler import ScheduledLoop
from repro.errors import SchedulingError

__all__ = ["folded_program_reference"]


def folded_program_reference(
    self: ScheduledLoop,
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
    """
    assert self.plan is not None and self.plan.fold_into is not None
    c = self.classification
    graph = self.graph

    noncyclic = [
        Op(n, i)
        for i in range(iterations)
        for n in (*c.flow_in, *c.flow_out)
    ]
    cyclic_ops = {op for row in cyclic_rows for op in row}
    all_ops = cyclic_ops | set(noncyclic)

    # priorities: cyclic ops keep their expanded nominal start;
    # flow-in ops aim just before their earliest consumer; flow-out
    # ops just after their latest producer.
    rate = self.pattern.cycles_per_iteration() if self.pattern else 1.0
    prio: dict[Op, float] = {}
    for row, starts in zip(cyclic_rows, cyclic_starts):
        for op, start in zip(row, starts):
            prio[op] = float(start)
    fi_set = set(c.flow_in)
    fi_pos = {n: i for i, n in enumerate(subset_order(graph, c.flow_in))}
    fo_pos = {n: i for i, n in enumerate(subset_order(graph, c.flow_out))}
    # flow-in: reverse instance-topological sweep so every already-
    # prioritized successor (cyclic or later flow-in) is available.
    for op in sorted(
        (o for o in noncyclic if o.node in fi_set),
        key=lambda o: (-o.iteration, -fi_pos[o.node]),
    ):
        deadlines = [
            prio[succ]
            for succ, _e in graph.instance_successors(op)
            if succ in prio
        ]
        prio[op] = (
            min(deadlines) - 0.5 if deadlines else op.iteration * rate
        )
    # flow-out: forward sweep; every producer already has a priority.
    for op in sorted(
        (o for o in noncyclic if o.node not in fi_set),
        key=lambda o: (o.iteration, fo_pos[o.node]),
    ):
        ready = [
            prio[pred] + graph.latency(pred.node)
            for pred, _e in graph.instance_predecessors(op)
            if pred in prio
        ]
        prio[op] = (max(ready) + 0.5) if ready else op.iteration * rate

    # chain constraints: each cyclic row is a fixed sequence.
    chain_next: dict[Op, Op] = {}
    chain_blocked: set[Op] = set()
    for row in cyclic_rows:
        for a, b in zip(row, row[1:]):
            chain_next[a] = b
            chain_blocked.add(b)

    remaining: dict[Op, int] = {}
    dependents: dict[Op, list[Op]] = {}
    for op in all_ops:
        cnt = 0
        for pred, _e in graph.instance_predecessors(op):
            if pred in all_ops:
                cnt += 1
                dependents.setdefault(pred, []).append(op)
        remaining[op] = cnt

    def key(op: Op) -> tuple:
        return (prio[op], op.iteration, graph.node_index(op.node))

    heap: list[tuple[tuple, Op]] = [
        (key(op), op)
        for op in all_ops
        if remaining[op] == 0 and op not in chain_blocked
    ]
    heapq.heapify(heap)
    released_chain: set[Op] = set()

    rows: list[list[Op]] = [[] for _ in range(len(cyclic_rows))]
    proc_of_cyclic: dict[Op, int] = {
        op: j for j, row in enumerate(cyclic_rows) for op in row
    }

    emitted = 0
    while heap:
        _, op = heapq.heappop(heap)
        j = proc_of_cyclic.get(op, fold_proc)
        rows[j].append(op)
        emitted += 1
        nxt = chain_next.get(op)
        if nxt is not None:
            released_chain.add(nxt)
            if remaining[nxt] == 0:
                heapq.heappush(heap, (key(nxt), nxt))
        for dep in dependents.get(op, ()):
            remaining[dep] -= 1
            if remaining[dep] == 0 and (
                dep not in chain_blocked or dep in released_chain
            ):
                heapq.heappush(heap, (key(dep), dep))
    if emitted != len(all_ops):
        raise SchedulingError(
            "internal error: folded merge left "
            f"{len(all_ops) - emitted} ops unordered"
        )
    return rows
