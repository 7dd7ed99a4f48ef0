"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import os

import hypothesis.strategies as st
import pytest
from hypothesis import settings

from repro.graph.ddg import DependenceGraph
from repro.machine.comm import UniformComm
from repro.machine.model import Machine
from repro.workloads import cytron86, elliptic_filter, fig1, fig3, fig7, livermore18

# ``HYPOTHESIS_PROFILE=ci-deep`` runs every property 500 times.
settings.register_profile("repro", deadline=None, max_examples=60)
settings.register_profile("ci-deep", deadline=None, max_examples=500)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "repro"))


# ----------------------------------------------------------------------
# fixtures
# ----------------------------------------------------------------------
@pytest.fixture(autouse=True)
def _isolate_default_cache():
    """Reset the process-wide artifact cache around every test.

    The ``default_cache()`` singleton otherwise leaks state across
    tests: hit/miss counters accumulate and entries survive between
    test modules, so a test asserting cache behaviour could pass or
    fail depending on what ran before it.
    """
    from repro.pipeline import default_cache

    default_cache().clear()
    yield
    default_cache().clear()
@pytest.fixture
def fig7_workload():
    return fig7()


@pytest.fixture
def fig1_workload():
    return fig1()


@pytest.fixture
def fig3_workload():
    return fig3()


@pytest.fixture
def cytron_workload():
    return cytron86()


@pytest.fixture
def livermore_workload():
    return livermore18()


@pytest.fixture
def elliptic_workload():
    return elliptic_filter()


@pytest.fixture
def machine2():
    return Machine(processors=2, comm=UniformComm(2))


@pytest.fixture
def machine4():
    return Machine(processors=4, comm=UniformComm(2))


def chain_graph(n: int = 4, latency: int = 1) -> DependenceGraph:
    """a0 -> a1 -> ... -> a(n-1) -> a0 (loop-carried): one recurrence."""
    g = DependenceGraph(f"chain{n}")
    for i in range(n):
        g.add_node(f"a{i}", latency)
    for i in range(n - 1):
        g.add_edge(f"a{i}", f"a{i+1}")
    g.add_edge(f"a{n-1}", "a0", distance=1)
    return g


# ----------------------------------------------------------------------
# hypothesis strategies
# ----------------------------------------------------------------------
@st.composite
def loop_graphs(
    draw,
    max_nodes: int = 8,
    max_latency: int = 3,
    ensure_recurrence: bool = False,
):
    """Random loop dependence graphs with distances in {0, 1}.

    Distance-0 edges only go from lower to higher node index, so the
    body is always executable; distance-1 edges are unrestricted.
    """
    n = draw(st.integers(2, max_nodes))
    g = DependenceGraph("hyp")
    lats = draw(
        st.lists(
            st.integers(1, max_latency), min_size=n, max_size=n
        )
    )
    for i in range(n):
        g.add_node(f"v{i}", lats[i])
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    sd = draw(
        st.lists(st.sampled_from(pairs), unique=True, max_size=2 * n)
    ) if pairs else []
    for i, j in sd:
        g.add_edge(f"v{i}", f"v{j}", distance=0)
    all_pairs = [(i, j) for i in range(n) for j in range(n)]
    lcd = draw(
        st.lists(st.sampled_from(all_pairs), unique=True, max_size=2 * n)
    )
    for i, j in lcd:
        g.add_edge(f"v{i}", f"v{j}", distance=1)
    if ensure_recurrence:
        from repro.graph.algorithms import nontrivial_sccs

        if not nontrivial_sccs(g):
            i = draw(st.integers(0, n - 1))
            try:
                g.add_edge(f"v{i}", f"v{i}", distance=1)
            except Exception:
                pass
    return g


@st.composite
def connected_cyclic_graphs(draw, max_nodes: int = 6, max_latency: int = 3):
    """Connected graphs that are entirely Cyclic (for Cyclic-sched).

    Built as a loop-carried ring plus random chords, so every node has
    a predecessor and a successor and the whole graph is one SCC.
    """
    n = draw(st.integers(1, max_nodes))
    g = DependenceGraph("hyp-cyclic")
    for i in range(n):
        g.add_node(f"v{i}", draw(st.integers(1, max_latency)))
    if n == 1:
        g.add_edge("v0", "v0", distance=1)
        return g
    for i in range(n - 1):
        g.add_edge(f"v{i}", f"v{i+1}", distance=0)
    g.add_edge(f"v{n-1}", "v0", distance=1)
    chords = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=n,
        )
    )
    for i, j in chords:
        distance = 0 if i < j else 1
        if i == j:
            distance = 1
        try:
            g.add_edge(f"v{i}", f"v{j}", distance=distance)
        except Exception:
            pass
    return g


@st.composite
def fuzz_cases(draw, max_seed: int = 5000):
    """Loop configurations drawn through the fuzz generator families
    (:mod:`repro.fuzz.generators`) — the same weighted pattern space
    the coverage-guided campaign explores, exposed as a hypothesis
    strategy so property tests range over deep chains, dense meshes,
    self-recurrences, disconnected components, extreme/zero comm
    costs, mini-language bodies and degenerate 1-node loops.

    Shrinking happens over ``(pattern, seed)``: a failing example
    reports the exact reproducible case id.
    """
    from repro.fuzz.generators import PATTERN_NAMES, generate_case

    pattern = draw(st.sampled_from(PATTERN_NAMES))
    seed = draw(st.integers(0, max_seed))
    return generate_case(pattern, seed)
