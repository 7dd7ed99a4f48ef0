"""Exact steady-state rates: Howard's maximum cycle ratio, the period
graph of an emitted program, and the ``steady_rate`` oracle built on
them (DESIGN.md §16)."""

from __future__ import annotations

import math
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import networkx as nx
import pytest
from hypothesis import given

from repro._types import Op
from repro.core.scheduler import ScheduledLoop, schedule_loop
from repro.errors import GraphError, SimulationError
from repro.fuzz import oracles
from repro.fuzz.campaign import case_seed
from repro.fuzz.corpus import load_corpus
from repro.fuzz.generators import generate_case
from repro.graph import algorithms
from repro.graph.algorithms import (
    critical_cyclicity,
    critical_recurrence_ratio,
    max_cycle_ratio,
    recurrence_ratio,
)
from repro.graph.ddg import DependenceGraph
from repro.machine.comm import UniformComm
from repro.machine.model import Machine
from repro.obs.metrics import MetricsRegistry, set_registry
from repro.sim import steady
from repro.sim.steady import period_graph, steady_rate
from repro.workloads import paper_seeds, random_cyclic_loop

from tests.conftest import fuzz_cases

CORPUS = load_corpus(Path(__file__).parent / "corpus")

#: the period graph of ``mesh/04b7b5c51a92`` (fuzz campaign seed 0,
#: case 850): several critical cycles of ratio 20.  Howard without a
#: fixed representative per surviving policy cycle never terminates
#: on it.
MESH_TIES = (
    (0, 1, 2, 0), (1, 2, 3, 0), (2, 3, 2, 0), (3, 4, 3, 0), (4, 5, 2, 0),
    (5, 6, 3, 0), (6, 7, 2, 0), (7, 0, 3, 1), (8, 9, 1, 0), (9, 10, 3, 0),
    (10, 11, 1, 0), (11, 8, 3, 1), (12, 13, 1, 0), (13, 14, 3, 0),
    (14, 15, 1, 0), (15, 12, 3, 1), (16, 17, 1, 0), (17, 18, 3, 0),
    (18, 19, 1, 0), (19, 16, 3, 1), (20, 21, 1, 0), (21, 22, 3, 0),
    (22, 23, 1, 0), (23, 20, 3, 1), (6, 0, 2, 1), (20, 0, 4, 1),
    (7, 0, 3, 1), (16, 1, 4, 0), (6, 1, 2, 1), (7, 1, 3, 1), (0, 2, 2, 0),
    (16, 2, 4, 0), (1, 2, 3, 0), (8, 3, 4, 0), (0, 3, 2, 0), (1, 3, 3, 0),
    (2, 4, 2, 0), (8, 4, 4, 0), (3, 4, 3, 0), (12, 5, 4, 0), (2, 5, 2, 0),
    (3, 5, 3, 0), (4, 6, 2, 0), (12, 6, 4, 0), (5, 6, 3, 0), (20, 7, 4, 0),
    (4, 7, 2, 0), (5, 7, 3, 0), (16, 8, 4, 0), (20, 9, 4, 2), (7, 9, 6, 2),
    (23, 9, 6, 1), (0, 10, 5, 1), (16, 10, 4, 1), (9, 10, 3, 0),
    (0, 11, 5, 1), (10, 11, 1, 0), (7, 11, 6, 2), (8, 12, 4, 0),
    (16, 13, 4, 1), (1, 13, 6, 1), (19, 13, 6, 0), (2, 14, 5, 1),
    (8, 14, 4, 1), (13, 14, 3, 0), (2, 15, 5, 1), (14, 15, 1, 0),
    (1, 15, 6, 1), (20, 16, 4, 1), (12, 17, 4, 2), (5, 17, 6, 2),
    (15, 17, 6, 1), (6, 18, 5, 2), (20, 18, 4, 2), (17, 18, 3, 0),
    (6, 19, 5, 2), (18, 19, 1, 0), (5, 19, 6, 2), (12, 20, 4, 0),
    (8, 21, 4, 1), (3, 21, 6, 1), (11, 21, 6, 0), (4, 22, 5, 1),
    (12, 22, 4, 1), (21, 22, 3, 0), (4, 23, 5, 1), (22, 23, 1, 0),
    (3, 23, 6, 1),
)


# ----------------------------------------------------------------------
# Howard against brute force
# ----------------------------------------------------------------------
def brute_force_ratio(n: int, edges) -> Fraction | None:
    """Best ratio over networkx's elementary cycles (no parallel edges);
    ``None`` without a cycle, and raises ``ZeroDivisionError`` when a
    cycle has transit <= 0."""
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for u, v, w, t in edges:
        g.add_edge(u, v, w=w, t=t)
    best = None
    for cycle in nx.simple_cycles(g):
        hops = [g.edges[u, cycle[(i + 1) % len(cycle)]]
                for i, u in enumerate(cycle)]
        transit = sum(h["t"] for h in hops)
        if transit <= 0:
            raise ZeroDivisionError(f"cycle {cycle} has transit {transit}")
        ratio = Fraction(sum(h["w"] for h in hops), transit)
        if best is None or ratio > best:
            best = ratio
    return best


@st.composite
def ratio_graphs(draw, weights=st.integers(-3, 9), transits=st.integers(1, 3)):
    n = draw(st.integers(1, 7))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            unique=True,
            max_size=3 * n,
        )
    )
    return n, [(u, v, draw(weights), draw(transits)) for u, v in pairs]


class TestMaxCycleRatio:
    @given(ratio_graphs())
    def test_matches_brute_force(self, graph):
        n, edges = graph
        expected = brute_force_ratio(n, edges)
        if expected is None:
            with pytest.raises(GraphError, match="no cycle"):
                max_cycle_ratio(n, edges)
        else:
            assert max_cycle_ratio(n, edges) == expected

    @given(ratio_graphs(weights=st.sampled_from([2, 4]),
                        transits=st.sampled_from([1, 2])))
    def test_equal_ratio_critical_cycles(self, graph):
        """Few distinct weights and transits: many tied critical cycles."""
        n, edges = graph
        expected = brute_force_ratio(n, edges)
        if expected is not None:
            assert max_cycle_ratio(n, edges) == expected

    @given(ratio_graphs(weights=st.integers(1, 9),
                        transits=st.integers(-2, 3)))
    def test_cycle_without_positive_transit_raises(self, graph):
        """Positive weights, as in every period graph: a cycle of
        transit <= 0 anywhere raises, not only one Howard starts on."""
        n, edges = graph
        try:
            expected = brute_force_ratio(n, edges)
        except ZeroDivisionError:
            with pytest.raises(GraphError, match="transit"):
                max_cycle_ratio(n, edges)
            return
        if expected is None:
            with pytest.raises(GraphError, match="no cycle"):
                max_cycle_ratio(n, edges)
        else:
            assert max_cycle_ratio(n, edges) == expected

    def test_mesh_with_tied_critical_cycles_terminates(self):
        assert max_cycle_ratio(24, MESH_TIES) == Fraction(20)

    @given(ratio_graphs(weights=st.sampled_from([1, 2, 4]),
                        transits=st.integers(1, 4)))
    def test_cyclicity_matches_brute_force(self, graph):
        n, edges = graph
        lam = brute_force_ratio(n, edges)
        if lam is None:
            return
        g = nx.DiGraph()
        for u, v, w, t in edges:
            g.add_edge(u, v, t=t)
        critical = nx.DiGraph()
        for cycle in nx.simple_cycles(g):
            hops = list(zip(cycle, cycle[1:] + cycle[:1]))
            ws = {(u, v): w for u, v, w, _t in edges}
            ratio = Fraction(sum(ws[h] for h in hops),
                             sum(g.edges[h]["t"] for h in hops))
            if ratio == lam:
                critical.add_edges_from(hops)
        sigma = 1
        for comp in nx.strongly_connected_components(critical):
            sub = critical.subgraph(comp)
            period = 0
            for cycle in nx.simple_cycles(sub):
                hops = zip(cycle, cycle[1:] + cycle[:1])
                period = math.gcd(period, sum(g.edges[h]["t"] for h in hops))
            if period:
                sigma = math.lcm(sigma, period)
        assert critical_cyclicity(n, edges) == sigma

    def test_nodes_reaching_no_cycle_are_ignored(self):
        edges = [(0, 0, 3, 2), (0, 1, 100, 1), (2, 0, 50, 1)]
        assert max_cycle_ratio(3, edges) == Fraction(3, 2)

    @pytest.mark.parametrize("transit", [0, -1])
    def test_policy_cycle_without_positive_transit_raises(self, transit):
        with pytest.raises(GraphError, match="transit"):
            max_cycle_ratio(2, [(0, 1, 1, 0), (1, 0, 1, transit)])

    def test_round_cap_raises(self, monkeypatch):
        # the heaviest out-edge of 0 is its self-loop (ratio 3/2); the
        # 0 -> 1 -> 0 cycle (ratio 2) takes a second round to find
        edges = [(0, 0, 3, 2), (0, 1, 2, 1), (1, 0, 2, 1)]
        assert max_cycle_ratio(2, edges) == 2
        monkeypatch.setattr(algorithms, "HOWARD_MAX_ROUNDS", 1)
        with pytest.raises(GraphError, match="no convergence in 1 rounds"):
            max_cycle_ratio(2, edges)


class TestRecurrenceRatio:
    def test_fig7_is_exact(self, fig7_workload):
        assert recurrence_ratio(fig7_workload.graph) == Fraction(5, 2)
        assert critical_recurrence_ratio(fig7_workload.graph) == 2.5

    def test_doall_is_zero(self):
        g = DependenceGraph()
        g.add_node("A")
        g.add_node("B")
        g.add_edge("A", "B")
        assert recurrence_ratio(g) == 0
        assert critical_recurrence_ratio(g) == 0.0

    def test_thirds_stay_exact(self):
        g = DependenceGraph()
        for name in "ABC":
            g.add_node(name, 1)
        g.add_edge("A", "B")
        g.add_edge("B", "C")
        g.add_edge("C", "A", distance=3)
        assert recurrence_ratio(g) == 1
        g.add_node("D", 2)
        g.add_edge("D", "D", distance=3)
        assert recurrence_ratio(g) == 1
        g.add_edge("C", "D")
        g.add_edge("D", "A", distance=3)
        # A B C D A with distance 3: 5/3
        assert recurrence_ratio(g) == Fraction(5, 3)


# ----------------------------------------------------------------------
# the period graph against the simulator
# ----------------------------------------------------------------------
def fold(part, comm) -> tuple[int, str | None, object]:
    m, shape = oracles._part_window(part)
    start = oracles._settled(part)
    return m, shape, period_graph(part.graph, part.program, m, comm,
                                  start=start)


def assert_rate_is_simulated_slope(scheduled, comm) -> None:
    """Every part's exact rate is the simulated makespan slope, and
    parts inside the claim keep the closed-form promise."""
    for part in oracles._parts(scheduled):
        m, shape, pg = fold(part, comm)
        rate = pg.rate()
        if shape is None:
            assert rate <= oracles._promise(part, m)
        oracles._check_slope(part, comm, pg, rate, m)


class TestPeriodGraph:
    @given(fuzz_cases())
    def test_rate_is_simulated_slope_on_fuzz_cases(self, case):
        try:
            scheduled = oracles.compile_case(case)
        except Exception:  # noqa: BLE001 - compile crashes are not ours
            return
        assert_rate_is_simulated_slope(scheduled, case.machine().comm)

    @pytest.mark.parametrize("name", sorted(CORPUS))
    def test_rate_is_simulated_slope_on_corpus(self, name):
        case = CORPUS[name]
        assert_rate_is_simulated_slope(
            oracles.compile_case(case), case.machine().comm
        )

    @pytest.mark.parametrize("seed", paper_seeds())
    def test_rate_is_simulated_slope_on_table1_loops(self, seed):
        w = random_cyclic_loop(seed, k=3, mm=1, processors=8)
        assert_rate_is_simulated_slope(
            schedule_loop(w.graph, w.machine), w.machine.comm
        )

    def test_doall_rate_is_the_body_per_window(self):
        g = DependenceGraph("doall")
        g.add_node("A", 2)
        g.add_node("B", 3)
        g.add_edge("A", "B")
        s = schedule_loop(g, Machine(processors=3, comm=UniformComm(2)))
        assert steady_rate(g, s.program, 3, UniformComm(2)) == 5

    def test_search_starts_past_the_prelude(self):
        """A folded part whose prelude runs one ``n1`` per iteration on
        one processor for about 20 iterations looks periodic from
        iteration 1 with 9 cycles per window; past the pattern's
        prelude the program runs 11 per window, as simulated."""
        case = generate_case("mesh", case_seed(13, 7))
        comm = case.machine().comm
        (part,) = oracles._parts(oracles.compile_case(case))
        m, shape, pg = fold(part, comm)
        assert (m, shape, pg.rate()) == (3, "folded", 11)
        early = period_graph(part.graph, part.program, m, comm)
        assert (early.start, early.rate()) == (1, 9)
        oracles._check_slope(part, comm, pg, pg.rate(), m)
        with pytest.raises(oracles.OracleViolation):
            oracles._check_slope(part, comm, early, early.rate(), m)

    def test_slope_spans_whole_critical_cycles(self):
        """A DOALL part with carried dependences grows 7, 7, 7, 9, 10
        cycles in successive windows: 8 per window, but only every 5."""
        case = generate_case("mesh", case_seed(0, 1648))
        comm = case.machine().comm
        (part,) = oracles._parts(oracles.compile_case(case))
        m, shape, pg = fold(part, comm)
        assert (m, shape, pg.rate(), pg.cyclicity()) == (
            4, "doall_carried", 8, 5
        )
        oracles._check_slope(part, comm, pg, pg.rate(), m)

    def test_non_periodic_rows_raise(self):
        """Thue-Morse placement: iteration i runs on processor
        popcount(i) mod 2, which never settles into a period."""
        g = DependenceGraph("tm")
        g.add_node("A", 1)

        def program(n):
            rows = [[], []]
            for i in range(n):
                rows[bin(i).count("1") % 2].append(Op("A", i))
            return rows

        with pytest.raises(SimulationError, match="not periodic"):
            period_graph(g, program, 2, UniformComm(1))

    def test_deadlocked_program_raises(self):
        """B waits for A, which its processor runs after B."""
        g = DependenceGraph("stuck")
        g.add_node("A", 1)
        g.add_node("B", 1)
        g.add_edge("A", "B")

        def program(n):
            return [[op for i in range(n)
                     for op in (Op("B", i), Op("A", i))]]

        with pytest.raises(GraphError, match="transit 0"):
            steady_rate(g, program, 1, UniformComm(1))


# ----------------------------------------------------------------------
# the oracle
# ----------------------------------------------------------------------
def _tight_case():
    """A fuzz case whose only part runs exactly at its promise."""
    case = generate_case("mesh", 850)
    (part,) = oracles._parts(oracles.compile_case(case))
    m, shape, pg = fold(part, case.machine().comm)
    assert shape is None
    assert pg.rate() == oracles._promise(part, m)
    return case


class TestOracle:
    def test_passes_at_the_promise(self):
        assert oracles.run_oracles(
            _tight_case(), oracles=("steady_rate",)
        ).ok

    def test_promise_lowered_by_one_fails(self, monkeypatch):
        case = _tight_case()
        promise = oracles._promise
        monkeypatch.setattr(
            oracles, "_promise", lambda part, m: promise(part, m) - 1
        )
        outcome = oracles.run_oracles(case, oracles=("steady_rate",))
        assert [f.oracle for f in outcome.failures] == ["steady_rate"]
        assert "exact steady rate is 20" in outcome.failures[0].message

    def test_slope_check_rejects_a_wrong_rate(self):
        case = _tight_case()
        (part,) = oracles._parts(oracles.compile_case(case))
        comm = case.machine().comm
        m, _shape, pg = fold(part, comm)
        oracles._check_slope(part, comm, pg, pg.rate(), m)
        with pytest.raises(oracles.OracleViolation, match="simulated"):
            oracles._check_slope(part, comm, pg, pg.rate() + 1, m)

    def test_one_case_in_sixteen_is_simulated(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            oracles, "_check_slope", lambda *args: calls.append(args)
        )
        simulated = []
        for seed in range(40):
            before = len(calls)
            oracles.run_oracles(
                generate_case("chain", seed), oracles=("steady_rate",)
            )
            if len(calls) > before:
                simulated.append(seed)
        assert simulated == [0, 16, 32]

    @staticmethod
    def out_of_claim_counters(case) -> tuple[bool, dict[str, int]]:
        reg = MetricsRegistry()
        previous = set_registry(reg)
        try:
            outcome = oracles.run_oracles(case, oracles=("steady_rate",))
        finally:
            set_registry(previous)
        counted = {
            name: value
            for name, value in reg.snapshot()["counters"].items()
            if name.startswith("fuzz.steady_rate.out_of_claim")
        }
        return outcome.ok, counted

    @pytest.mark.parametrize(
        "pattern, seed, shape",
        [
            ("mesh", 0, "doall_carried"),
            ("multi_statement", 0, "folded"),
            ("mesh", 192, "noncyclic_carried"),
        ],
    )
    def test_out_of_claim_parts_are_counted(self, pattern, seed, shape):
        ok, counted = self.out_of_claim_counters(generate_case(pattern, seed))
        assert ok
        assert any(f"shape={shape}" in name for name in counted), counted

    def test_window_cap_part_is_counted_on_the_sample(self, monkeypatch):
        case = generate_case("mesh", 106)
        assert self.out_of_claim_counters(case) == (True, {})
        monkeypatch.setattr(oracles, "_SIMULATED_ONE_IN", 1)
        ok, counted = self.out_of_claim_counters(case)
        assert ok
        assert any("shape=window_cap" in name for name in counted), counted

    def test_out_of_claim_part_without_a_period_is_counted(
        self, monkeypatch
    ):
        """A folded part whose program never settles (Thue-Morse
        placement, as above) is counted as an error, not a failure."""
        program = ScheduledLoop.program

        def thue_morse(self, n):
            rows = program(self, n)
            if self.plan is None or self.plan.fold_into is None:
                return rows
            ops = sorted((op for row in rows for op in row),
                         key=lambda op: op.iteration)
            out = [[] for _ in rows]
            for op in ops:
                out[bin(op.iteration).count("1") % len(out)].append(op)
            return out

        monkeypatch.setattr(ScheduledLoop, "program", thue_morse)
        monkeypatch.setattr(steady, "MAX_START", 16)
        ok, counted = self.out_of_claim_counters(
            generate_case("multi_statement", 0)
        )
        assert ok
        assert counted == {
            "fuzz.steady_rate.out_of_claim{over_promise=error,shape=folded}": 1
        }
