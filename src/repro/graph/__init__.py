"""Dependence-graph substrate.

Public surface:

* :class:`~repro.graph.ddg.DependenceGraph`, :class:`~repro.graph.ddg.Node`,
  :class:`~repro.graph.ddg.Edge` — the loop model;
* :mod:`repro.graph.algorithms` — SCC, topological sort, components,
  exact recurrence bounds and maximum cycle ratios;
* :mod:`repro.graph.unwind` — distance normalization by loop unwinding.
"""

from repro.graph.algorithms import (
    connected_components,
    critical_recurrence_ratio,
    is_doall,
    longest_intra_path,
    max_cycle_ratio,
    nontrivial_sccs,
    recurrence_ratio,
    strongly_connected_components,
    topological_order,
)
from repro.graph.cluster import Clustering, coarsen_chains
from repro.graph.ddg import DependenceGraph, Edge, Node
from repro.graph.dot import to_dot
from repro.graph.unwind import UnwoundLoop, normalize_distances, unwind

__all__ = [
    "Clustering",
    "DependenceGraph",
    "Edge",
    "Node",
    "UnwoundLoop",
    "coarsen_chains",
    "connected_components",
    "critical_recurrence_ratio",
    "is_doall",
    "longest_intra_path",
    "max_cycle_ratio",
    "nontrivial_sccs",
    "normalize_distances",
    "recurrence_ratio",
    "strongly_connected_components",
    "to_dot",
    "topological_order",
    "unwind",
]
