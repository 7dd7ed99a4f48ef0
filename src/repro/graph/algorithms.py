"""Graph algorithms on :class:`~repro.graph.ddg.DependenceGraph`.

All algorithms are self-contained (no networkx at runtime — the test
suite uses networkx as an independent oracle) and deterministic: where
order matters, the graph's canonical node order breaks ties.

Two views of the graph appear throughout:

* the **static** graph, whose edges may be loop-carried (distance >= 1)
  — cycles through loop-carried edges are what makes a loop
  non-vectorizable;
* the **intra-iteration** graph, keeping only distance-0 edges — it must
  be acyclic for the loop body to be executable, and its topological
  order is a legal sequential statement order.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Callable, Iterable, NamedTuple, TypeVar

from repro.errors import GraphError
from repro.graph.ddg import DependenceGraph

__all__ = [
    "topological_order",
    "has_intra_iteration_cycle",
    "connected_components",
    "strongly_connected_components",
    "nontrivial_sccs",
    "is_doall",
    "critical_recurrence_ratio",
    "recurrence_ratio",
    "max_cycle_ratio",
    "critical_cyclicity",
    "longest_intra_path",
]


def topological_order(
    graph: DependenceGraph, *, intra_only: bool = True
) -> list[str]:
    """Kahn topological sort of the (intra-iteration) graph.

    With ``intra_only=True`` (default) only distance-0 edges constrain
    the order: the result is a legal sequential execution order of the
    loop body.  With ``intra_only=False`` every edge constrains the
    order, which only succeeds for graphs without any cycle (e.g.
    already-unrolled finite DAGs).

    Ties are broken by canonical node order, so the result is stable.
    """
    names = graph.node_names()
    indeg = {n: 0 for n in names}
    for e in graph.edges:
        if intra_only and e.distance != 0:
            continue
        if e.src == e.dst:
            raise GraphError(f"self-cycle on {e.src!r} blocks topological sort")
        indeg[e.dst] += 1

    ready = sorted(
        (n for n in names if indeg[n] == 0), key=graph.node_index
    )
    order: list[str] = []
    while ready:
        n = ready.pop(0)
        order.append(n)
        released: list[str] = []
        for e in graph.successors(n):
            if intra_only and e.distance != 0:
                continue
            indeg[e.dst] -= 1
            if indeg[e.dst] == 0:
                released.append(e.dst)
        if released:
            ready.extend(released)
            ready.sort(key=graph.node_index)
    if len(order) != len(names):
        raise GraphError(
            f"graph {graph.name!r} has a cycle; topological sort impossible"
        )
    return order


def has_intra_iteration_cycle(graph: DependenceGraph) -> bool:
    """True iff the distance-0 subgraph contains a cycle."""
    try:
        _toposort_quick(graph)
        return False
    except GraphError:
        return True


def _toposort_quick(graph: DependenceGraph) -> None:
    """Cheap cycle check over distance-0 edges (no ordering guarantees)."""
    indeg = {n: 0 for n in graph.node_names()}
    for e in graph.edges:
        if e.distance == 0:
            if e.src == e.dst:
                raise GraphError("self cycle")
            indeg[e.dst] += 1
    stack = [n for n, d in indeg.items() if d == 0]
    seen = 0
    while stack:
        n = stack.pop()
        seen += 1
        for e in graph.successors(n):
            if e.distance == 0:
                indeg[e.dst] -= 1
                if indeg[e.dst] == 0:
                    stack.append(e.dst)
    if seen != len(indeg):
        raise GraphError("cycle")


def connected_components(graph: DependenceGraph) -> list[list[str]]:
    """Weakly connected components (edges taken as undirected).

    The paper assumes a connected dependence graph and schedules each
    component independently otherwise (Section 2.1).  Components are
    returned in canonical order of their first node; nodes within a
    component are in canonical order.
    """
    names = graph.node_names()
    neigh: dict[str, set[str]] = {n: set() for n in names}
    for e in graph.edges:
        neigh[e.src].add(e.dst)
        neigh[e.dst].add(e.src)
    seen: set[str] = set()
    comps: list[list[str]] = []
    for start in names:
        if start in seen:
            continue
        comp = []
        stack = [start]
        seen.add(start)
        while stack:
            n = stack.pop()
            comp.append(n)
            for m in neigh[n]:
                if m not in seen:
                    seen.add(m)
                    stack.append(m)
        comps.append(sorted(comp, key=graph.node_index))
    return comps


def strongly_connected_components(graph: DependenceGraph) -> list[list[str]]:
    """Tarjan's SCC over *all* edges (loop-carried included).

    An SCC containing a loop-carried cycle is a *recurrence*: it bounds
    the loop's steady-state rate.  Returned in reverse topological
    order of the condensation (Tarjan's natural output order), each
    component sorted canonically.
    """
    comps = _tarjan(
        graph.node_names(), lambda n: [e.dst for e in graph.successors(n)]
    )
    return [sorted(comp, key=graph.node_index) for comp in comps]


_T = TypeVar("_T")


def _tarjan(
    roots: Iterable[_T], successors: Callable[[_T], Iterable[_T]]
) -> list[list[_T]]:
    """Tarjan's SCCs, in completion order (reverse topological).

    Iterative, with an explicit stack, to survive deep graphs.
    """
    index: dict[_T, int] = {}
    low: dict[_T, int] = {}
    on_stack: set[_T] = set()
    stack: list[_T] = []
    out: list[list[_T]] = []
    for root in roots:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(successors(root)))]
        while work:
            node, succ = work[-1]
            for nxt in succ:
                if nxt not in index:
                    index[nxt] = low[nxt] = len(index)
                    stack.append(nxt)
                    on_stack.add(nxt)
                    work.append((nxt, iter(successors(nxt))))
                    break
                if nxt in on_stack:
                    low[node] = min(low[node], index[nxt])
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[node])
                if low[node] == index[node]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        comp.append(w)
                        if w == node:
                            break
                    out.append(comp)
    return out


def nontrivial_sccs(graph: DependenceGraph) -> list[list[str]]:
    """SCCs that actually contain a cycle (size > 1, or a self edge)."""
    result = []
    for comp in strongly_connected_components(graph):
        if len(comp) > 1:
            result.append(comp)
        else:
            (n,) = comp
            if any(e.dst == n for e in graph.successors(n)):
                result.append(comp)
    return result


def is_doall(graph: DependenceGraph) -> bool:
    """True iff the loop has no recurrence (iterations independent).

    Equivalent to the paper's observation that a loop with an empty
    Cyclic subset is a DOALL loop.
    """
    return not nontrivial_sccs(graph)


#: policy-improvement rounds after which :func:`max_cycle_ratio` gives up
HOWARD_MAX_ROUNDS = 10_000


def max_cycle_ratio(
    n: int, edges: Iterable[tuple[int, int, int, int]]
) -> Fraction:
    """``max over cycles C of weight(C) / transit(C)``, exactly.

    ``edges`` are ``(u, v, weight, transit)`` over nodes ``0 .. n-1``
    with integer weights and transits.  Howard policy iteration
    (Cochet-Terrasson et al., 1998) in integers: each node keeps one
    out-edge (its *policy*); value determination gives every node the
    ratio ``eta = W/T`` of the policy cycle it drains into, stored
    reduced as ``(W, T)``, and a value ``x`` stored as ``T * x``; the
    improvement step first moves nodes toward a larger ``eta``, then,
    only when none can move, toward a larger value at equal ``eta``.

    A policy cycle's representative is its smallest node, valued 0, so
    a cycle that survives into the next round keeps its representative
    and that node's value.  Re-basing a surviving cycle (say, on the
    node a walk happens to enter it by) can undo the previous
    improvement, and with several critical cycles of equal ratio the
    iteration then never ends.  A new cycle closed by a value
    improvement has a strictly larger ratio, so its base is free.

    Nodes that reach no cycle are ignored.  Raises
    :class:`~repro.errors.GraphError` when the graph has no cycle, when
    a policy cycle has transit <= 0 (for an emitted program: a
    deadlock), or after :data:`HOWARD_MAX_ROUNDS` rounds without
    convergence.  With positive weights any cycle of transit <= 0
    raises: summed round it, the converged values would need its
    weight to be <= 0, so no policy converges past it.
    """
    return _howard(n, edges).ratio


class _Policy(NamedTuple):
    """Howard's converged state: the ratio and, per node, its out-edges,
    reduced ratio ``eta`` and scaled value ``x``."""

    ratio: Fraction
    out: list[list[tuple[int, int, int]]]
    live: list[int]
    eta_w: list[int]
    eta_t: list[int]
    x: list[int]


def _howard(n: int, edges: Iterable[tuple[int, int, int, int]]) -> _Policy:
    out: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for u, v, w, t in edges:
        out[u].append((v, w, t))
    live = [u for u in range(n) if out[u]]
    if len(live) < n:
        live = _peel_sinks(out)
    if not live:
        raise GraphError("max_cycle_ratio: the graph has no cycle")

    # the policy: one out-edge (v, w, t) per node, first the heaviest
    policy: list[tuple[int, int, int]] = [(0, 0, 0)] * n
    for u in live:
        best = out[u][0]
        for e in out[u]:
            if e[1] > best[1]:
                best = e
        policy[u] = best
    eta_w = [0] * n
    eta_t = [1] * n
    x = [0] * n

    for _ in range(HOWARD_MAX_ROUNDS):
        # -- value determination ---------------------------------------
        state = [0] * n  # 0 unseen, 1 on the current walk, 2 valued
        for s in live:
            if state[s]:
                continue
            walk: list[int] = []
            u = s
            while not state[u]:
                state[u] = 1
                walk.append(u)
                u = policy[u][0]
            if state[u] == 1:  # the walk closed a policy cycle at u
                k = walk.index(u)
                cycle = walk[k:]
                del walk[k:]
                total_w = total_t = 0
                for c in cycle:
                    _v, w, t = policy[c]
                    total_w += w
                    total_t += t
                if total_t <= 0:
                    raise GraphError(
                        f"cycle through nodes {cycle[:8]} has transit "
                        f"{total_t} <= 0"
                    )
                g = gcd(total_w, total_t)
                cw, ct = total_w // g, total_t // g
                r = cycle.index(min(cycle))
                x[cycle[r]] = 0
                eta_w[cycle[r]], eta_t[cycle[r]] = cw, ct
                state[cycle[r]] = 2
                for step in range(1, len(cycle)):
                    c = cycle[r - step]  # walks the cycle backwards
                    v, w, t = policy[c]
                    eta_w[c], eta_t[c] = cw, ct
                    x[c] = ct * w - cw * t + x[v]
                    state[c] = 2
            for c in reversed(walk):
                v, w, t = policy[c]
                cw, ct = eta_w[c], eta_t[c] = eta_w[v], eta_t[v]
                x[c] = ct * w - cw * t + x[v]
                state[c] = 2

        # -- policy improvement ----------------------------------------
        improved = False
        for u in live:  # toward a larger ratio
            bw, bt, best = eta_w[u], eta_t[u], None
            for e in out[u]:
                v = e[0]
                if eta_w[v] * bt > bw * eta_t[v]:
                    bw, bt, best = eta_w[v], eta_t[v], e
            if best is not None:
                policy[u] = best
                improved = True
        if not improved:
            for u in live:  # toward a larger value at the same ratio
                cw, ct = eta_w[u], eta_t[u]
                bx, best = x[u], None
                for e in out[u]:
                    v, w, t = e
                    if eta_w[v] == cw and eta_t[v] == ct:
                        val = ct * w - cw * t + x[v]
                        if val > bx:
                            bx, best = val, e
                if best is not None:
                    policy[u] = best
                    improved = True
        if not improved:
            bw, bt = eta_w[live[0]], eta_t[live[0]]
            for u in live:
                if eta_w[u] * bt > bw * eta_t[u]:
                    bw, bt = eta_w[u], eta_t[u]
            return _Policy(Fraction(bw, bt), out, live, eta_w, eta_t, x)
    raise GraphError(
        f"max_cycle_ratio: no convergence in {HOWARD_MAX_ROUNDS} rounds "
        f"({len(live)} nodes)"
    )


def _peel_sinks(out: list[list[tuple[int, int, int]]]) -> list[int]:
    """Drop, repeatedly, nodes with no out-edge: they reach no cycle.

    Filters ``out`` in place and returns the remaining nodes.
    """
    n = len(out)
    into: list[list[int]] = [[] for _ in range(n)]
    for u, es in enumerate(out):
        for v, _w, _t in es:
            into[v].append(u)
    degree = [len(es) for es in out]
    sinks = [u for u in range(n) if not degree[u]]
    alive = [True] * n
    while sinks:
        v = sinks.pop()
        alive[v] = False
        for u in into[v]:
            degree[u] -= 1
            if not degree[u]:
                sinks.append(u)
    live = [u for u in range(n) if alive[u]]
    for u in live:
        out[u] = [e for e in out[u] if alive[e[0]]]
    return live


def critical_cyclicity(
    n: int, edges: Iterable[tuple[int, int, int, int]]
) -> int:
    """Cyclicity of the critical graph of ``edges`` (as for
    :func:`max_cycle_ratio`).

    The critical graph is the union of the cycles of maximum ratio
    ``λ``; its cyclicity ``σ`` is the lcm, over its strongly connected
    components, of the gcd of their cycles' transits.  In a timed event
    graph, past a transient, every event recurs ``σ·λ`` later every
    ``σ`` transits — but not necessarily ``λ`` later every transit.
    """
    policy = _howard(n, edges)
    lam, x = policy.ratio, policy.x
    big_w, big_t = lam.numerator, lam.denominator
    # critical edges: tight under the converged values, between nodes
    # that drain into a cycle of ratio λ
    tight: dict[int, list[tuple[int, int]]] = {
        u: []
        for u in policy.live
        if policy.eta_w[u] == big_w and policy.eta_t[u] == big_t
    }
    for u, succ in tight.items():
        for v, w, t in policy.out[u]:
            if v in tight and big_t * w - big_w * t + x[v] == x[u]:
                succ.append((v, t))
    sigma = 1
    for members in _tarjan(tight, lambda u: [v for v, _t in tight[u]]):
        comp = set(members)
        # gcd of cycle transits = gcd of edge slack against levels
        # assigned along any spanning tree of the component
        root = min(comp)
        level = {root: 0}
        stack = [root]
        g = 0
        while stack:
            u = stack.pop()
            for v, t in tight[u]:
                if v not in comp:
                    continue
                if v in level:
                    g = gcd(g, level[u] + t - level[v])
                else:
                    level[v] = level[u] + t
                    stack.append(v)
        if g:
            sigma = lcm(sigma, g)
    return sigma


def recurrence_ratio(graph: DependenceGraph) -> Fraction:
    """The recurrence-theoretic lower bound on cycles per iteration.

    ``max over cycles C of (sum of latencies along C) / (sum of
    distances along C)`` — no schedule, on any number of processors
    with zero communication cost, can complete iterations faster than
    this.  Computed exactly by :func:`max_cycle_ratio` over the edges
    inside each recurrence (nontrivial SCC).  0 for DOALL loops.
    """
    slot: dict[str, int] = {}
    comp: dict[str, int] = {}
    for c, members in enumerate(nontrivial_sccs(graph)):
        for name in members:
            comp[name] = c
            slot[name] = len(slot)
    if not slot:
        return Fraction(0)
    edges = [
        (slot[e.src], slot[e.dst], graph.latency(e.src), e.distance)
        for e in graph.edges
        if e.src in comp and comp[e.src] == comp.get(e.dst)
    ]
    return max_cycle_ratio(len(slot), edges)


def critical_recurrence_ratio(graph: DependenceGraph) -> float:
    """:func:`recurrence_ratio` as a float (0.0 for DOALL loops)."""
    return float(recurrence_ratio(graph))


def longest_intra_path(
    graph: DependenceGraph, weight: Callable[[str], int] | None = None
) -> int:
    """Length of the longest path through distance-0 edges.

    ``weight`` maps a node name to its cost (defaults to its latency).
    This is the loop body's critical path: a lower bound on one
    iteration's span given unlimited processors and free communication.
    """
    if weight is None:
        weight = graph.latency
    order = topological_order(graph, intra_only=True)
    finish = {n: weight(n) for n in order}
    for n in order:
        for e in graph.successors(n):
            if e.distance == 0:
                finish[e.dst] = max(finish[e.dst], finish[n] + weight(e.dst))
    return max(finish.values(), default=0)
