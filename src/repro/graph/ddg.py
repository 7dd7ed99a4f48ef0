"""Data dependence graphs for loops.

The paper models a loop as a five-tuple ``<V, E, Flow-in, Cyclic,
Flow-out>`` (Section 2.1).  :class:`DependenceGraph` holds the ``<V, E>``
part: nodes carry an execution latency, edges carry a dependence
*distance* (0 for intra-iteration dependences, ``d >= 1`` for
loop-carried dependences spanning ``d`` iterations) and an optional
per-edge communication-cost override.

The classification into Flow-in / Cyclic / Flow-out lives in
:mod:`repro.core.classify`; graph algorithms (SCC, topological sort,
components) live in :mod:`repro.graph.algorithms`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from repro._types import Op
from repro.errors import GraphError

__all__ = ["Node", "Edge", "DependenceGraph"]


@dataclass(frozen=True)
class Node:
    """A static loop-body node (one statement / operation).

    Parameters
    ----------
    name:
        Unique identifier within the graph.
    latency:
        Execution time in cycles (``>= 1``).
    label:
        Optional human-readable text (e.g. the source statement).
    """

    name: str
    latency: int = 1
    label: str = ""

    def __post_init__(self) -> None:
        if not self.name:
            raise GraphError("node name must be non-empty")
        if self.latency < 1:
            raise GraphError(
                f"node {self.name!r}: latency must be >= 1, got {self.latency}"
            )


@dataclass(frozen=True)
class Edge:
    """A data dependence from ``src`` to ``dst``.

    ``distance`` is the number of iterations the dependence spans: the
    instance ``(dst, i)`` depends on ``(src, i - distance)``.  ``comm``
    optionally overrides the machine's communication cost for this edge;
    ``None`` means "use the machine model's default".  ``kind`` records
    the dependence class (flow / anti / output) for provenance only —
    scheduling treats all kinds identically, as the paper does.
    """

    src: str
    dst: str
    distance: int = 0
    comm: int | None = None
    kind: str = "flow"

    def __post_init__(self) -> None:
        if self.distance < 0:
            raise GraphError(
                f"edge {self.src}->{self.dst}: distance must be >= 0, "
                f"got {self.distance}"
            )
        if self.comm is not None and self.comm < 0:
            raise GraphError(
                f"edge {self.src}->{self.dst}: comm must be >= 0, got {self.comm}"
            )
        if self.kind not in ("flow", "anti", "output"):
            raise GraphError(
                f"edge {self.src}->{self.dst}: unknown kind {self.kind!r}"
            )


class DependenceGraph:
    """A loop's data dependence graph.

    Node insertion order is preserved and defines the canonical node
    index used for deterministic tie-breaking throughout the library.

    Examples
    --------
    >>> g = DependenceGraph("demo")
    >>> g.add_node("A"); g.add_node("B", latency=2)
    >>> g.add_edge("A", "B")            # intra-iteration
    >>> g.add_edge("B", "A", distance=1)  # loop-carried
    >>> sorted(g.node_names())
    ['A', 'B']
    """

    def __init__(self, name: str = "loop") -> None:
        self.name = name
        self._nodes: dict[str, Node] = {}
        self._edges: list[Edge] = []
        self._succ: dict[str, list[Edge]] = {}
        self._pred: dict[str, list[Edge]] = {}
        self._index: dict[str, int] = {}

    # Per-node predecessor table, built on first use by
    # :meth:`predecessor_table` and dropped by every mutation.
    _preds: "list[tuple[tuple[int, int, Edge], ...]] | None" = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_node(self, name: str, latency: int = 1, label: str = "") -> Node:
        """Add a node; raises :class:`GraphError` on duplicates."""
        if name in self._nodes:
            raise GraphError(f"duplicate node {name!r}")
        node = Node(name, latency, label)
        self._index[name] = len(self._nodes)
        self._nodes[name] = node
        self._succ[name] = []
        self._pred[name] = []
        self._preds = None
        return node

    def add_edge(
        self,
        src: str,
        dst: str,
        distance: int = 0,
        comm: int | None = None,
        kind: str = "flow",
    ) -> Edge:
        """Add a dependence edge between existing nodes.

        A zero-distance self-edge would make the loop body unexecutable
        and is rejected.  Parallel edges (same endpoints, different
        distances) are allowed — they arise naturally from distinct
        array references.  An exact duplicate is rejected.
        """
        for endpoint in (src, dst):
            if endpoint not in self._nodes:
                raise GraphError(f"unknown node {endpoint!r} in edge {src}->{dst}")
        if src == dst and distance == 0:
            raise GraphError(f"zero-distance self dependence on {src!r}")
        edge = Edge(src, dst, distance, comm, kind)
        if any(
            e.src == src and e.dst == dst and e.distance == distance
            for e in self._succ[src]
        ):
            raise GraphError(
                f"duplicate edge {src}->{dst} (distance {distance})"
            )
        self._edges.append(edge)
        self._succ[src].append(edge)
        self._pred[dst].append(edge)
        self._preds = None
        return edge

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def node(self, name: str) -> Node:
        try:
            return self._nodes[name]
        except KeyError:
            raise GraphError(f"unknown node {name!r}") from None

    def latency(self, name: str) -> int:
        return self.node(name).latency

    def node_names(self) -> list[str]:
        """Node names in insertion (canonical) order."""
        return list(self._nodes)

    def node_index(self, name: str) -> int:
        """Canonical index of a node (insertion order)."""
        try:
            return self._index[name]
        except KeyError:
            raise GraphError(f"unknown node {name!r}") from None

    @property
    def nodes(self) -> Mapping[str, Node]:
        return dict(self._nodes)

    @property
    def edges(self) -> Sequence[Edge]:
        return tuple(self._edges)

    def __len__(self) -> int:
        return len(self._nodes)

    def __contains__(self, name: object) -> bool:
        return name in self._nodes

    def __iter__(self) -> Iterator[str]:
        return iter(self._nodes)

    def successors(self, name: str) -> Sequence[Edge]:
        """Outgoing edges of ``name`` (all distances)."""
        self.node(name)
        return tuple(self._succ[name])

    def predecessors(self, name: str) -> Sequence[Edge]:
        """Incoming edges of ``name`` (all distances)."""
        self.node(name)
        return tuple(self._pred[name])

    def intra_successors(self, name: str) -> list[str]:
        """Successor names via distance-0 edges only."""
        return [e.dst for e in self.successors(name) if e.distance == 0]

    def intra_predecessors(self, name: str) -> list[str]:
        """Predecessor names via distance-0 edges only."""
        return [e.src for e in self.predecessors(name) if e.distance == 0]

    def max_distance(self) -> int:
        """Largest dependence distance in the graph (0 if no edges)."""
        return max((e.distance for e in self._edges), default=0)

    def total_latency(self) -> int:
        """Sum of all node latencies = sequential cycles per iteration."""
        return sum(n.latency for n in self._nodes.values())

    # ------------------------------------------------------------------
    # dynamic-instance helpers
    # ------------------------------------------------------------------
    def predecessor_table(self) -> list[tuple[tuple[int, int, Edge], ...]]:
        """Incoming edges of every node as ``(src index, distance, edge)``.

        Indexed by canonical node index; each entry lists the node's
        incoming edges in insertion order.  This is the one place the
        library finds an instance's predecessors: the instance
        ``(v, i)`` depends on ``(src, i - distance)`` for every entry
        with ``i >= distance``.  Built on first use and rebuilt after
        :meth:`add_node` or :meth:`add_edge`.
        """
        table = self._preds
        if table is None:
            index = self._index
            table = self._preds = [
                tuple((index[e.src], e.distance, e) for e in self._pred[name])
                for name in self._nodes
            ]
        return table

    def instance_predecessors(self, op: Op) -> list[tuple[Op, Edge]]:
        """Predecessor *instances* of ``op`` in the unrolled graph.

        Instances from negative iterations (i.e. values live-in to the
        loop) are omitted — they are assumed available at time 0.
        """
        node, it = op
        out: list[tuple[Op, Edge]] = []
        for _src, d, e in self.predecessor_table()[self.node_index(node)]:
            if it >= d:
                out.append((Op(e.src, it - d), e))
        return out

    def instance_successors(self, op: Op) -> list[tuple[Op, Edge]]:
        """Successor instances of ``op`` in the unrolled graph."""
        return [
            (Op(e.dst, op.iteration + e.distance), e)
            for e in self.successors(op.node)
        ]

    def instances(self, iterations: int) -> list[Op]:
        """All instances for ``iterations`` iterations, canonical order."""
        return [
            Op(name, i) for i in range(iterations) for name in self._nodes
        ]

    # ------------------------------------------------------------------
    # derived graphs
    # ------------------------------------------------------------------
    def subgraph(self, names: Iterable[str]) -> "DependenceGraph":
        """Induced subgraph on ``names`` (canonical order preserved)."""
        keep = set(names)
        unknown = keep - set(self._nodes)
        if unknown:
            raise GraphError(f"unknown nodes {sorted(unknown)!r}")
        sub = DependenceGraph(f"{self.name}.sub")
        for name, node in self._nodes.items():
            if name in keep:
                sub.add_node(node.name, node.latency, node.label)
        for e in self._edges:
            if e.src in keep and e.dst in keep:
                sub.add_edge(e.src, e.dst, e.distance, e.comm, e.kind)
        return sub

    def copy(self, name: str | None = None) -> "DependenceGraph":
        g = self.subgraph(self._nodes)
        g.name = name if name is not None else self.name
        return g

    def with_latencies(self, latencies: Mapping[str, int]) -> "DependenceGraph":
        """Copy of this graph with some node latencies replaced."""
        g = DependenceGraph(self.name)
        for name, node in self._nodes.items():
            g.add_node(name, latencies.get(name, node.latency), node.label)
        for e in self._edges:
            g.add_edge(e.src, e.dst, e.distance, e.comm, e.kind)
        return g

    # ------------------------------------------------------------------
    # validation / debug
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural invariants; raises :class:`GraphError`.

        The scheduler additionally requires the *undirected* graph to be
        connected and all distances <= 1; those are checked by the
        front-end (see :func:`repro.graph.unwind.normalize_distances` and
        :func:`repro.graph.algorithms.connected_components`), not here,
        because intermediate graphs legitimately violate them.
        """
        from repro.graph.algorithms import has_intra_iteration_cycle

        if not self._nodes:
            raise GraphError(f"graph {self.name!r} has no nodes")
        if has_intra_iteration_cycle(self):
            raise GraphError(
                f"graph {self.name!r} has a cycle of distance-0 edges; "
                "the loop body cannot execute"
            )

    def __getstate__(self) -> dict:
        # The predecessor table is derived data: pickles leave it out.
        state = self.__dict__.copy()
        state.pop("_preds", None)
        return state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DependenceGraph({self.name!r}, nodes={len(self._nodes)}, "
            f"edges={len(self._edges)})"
        )
