"""Identity of the packed simulator and the row expansion.

:func:`repro.sim.fastpath.evaluate` solves the timing recurrence over
integer slots and returns a packed :class:`Schedule`.  These tests pin
it to the frozen reference evaluator in
:mod:`tests.fastpath_reference`: for every program the two give the
same schedule (``_by_op`` order, ``_by_proc`` rows, ``_sorted`` flag,
pickle bytes) or the same error with the same message and, for a
deadlock, the same partial trace.  They also pin
:meth:`Pattern.expand_rows` to :meth:`Pattern.expand`, and the lazy
placement form of a packed schedule to the eager one.
"""

from __future__ import annotations

import copy
import pickle
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro._types import Op
from repro.core.normalized import schedule_any_loop
from repro.core.patterns import Pattern
from repro.core.schedule import Placement, Schedule
from repro.errors import DeadlockError, GraphError, ScheduleValidationError
from repro.experiments import table1_cells
from repro.fuzz.corpus import load_corpus
from repro.graph.ddg import DependenceGraph
from repro.machine.comm import FluctuatingComm, UniformComm, ZeroComm
from repro.pipeline import default_cache
from repro.runner import run_campaign
from repro.sim.fastpath import evaluate, evaluate_trace
from repro.workloads import random_cyclic_loop, suite
from tests.conftest import fuzz_cases, loop_graphs
from tests.fastpath_reference import (
    reference_evaluate,
    reference_evaluate_trace,
)

COMMS = {
    "uniform": UniformComm(2),
    "zero": ZeroComm(),
    "fluct-worst": FluctuatingComm(k=3, mm=3, mode="worst"),
    "fluct-uniform": FluctuatingComm(k=2, mm=3, mode="uniform", seed=5),
}

ITERATIONS = (1, 7, 30)


def with_edge_overrides(graph: DependenceGraph) -> DependenceGraph:
    """The same graph with a per-edge comm override on every other edge."""
    g = DependenceGraph(graph.name)
    for name, node in graph.nodes.items():
        g.add_node(name, node.latency, node.label)
    for i, e in enumerate(graph.edges):
        comm = i % 5 if i % 2 == 0 else e.comm
        g.add_edge(e.src, e.dst, e.distance, comm, e.kind)
    return g


def state(sched: Schedule) -> tuple:
    """Everything that makes two schedules the same one."""
    return (
        sched.processors,
        list(sched._by_op.items()),
        sched._by_proc,
        sched._sorted,
    )


def assert_same_schedule(got: Schedule, want: Schedule) -> None:
    # the packed form first: makespan and len read it directly
    assert got.makespan() == want.makespan()
    assert len(got) == len(want)
    assert state(got) == state(want)
    assert pickle.dumps(got) == pickle.dumps(want)


def outcome(fn, graph, program, comm, use_runtime):
    """A run's result, or its error as (type, message, partial trace)."""
    try:
        return fn(graph, program, comm, use_runtime=use_runtime)
    except (DeadlockError, GraphError, ScheduleValidationError) as err:
        trace = getattr(err, "trace", None)
        return (
            type(err),
            str(err),
            None if trace is None else state(trace.schedule),
            None if trace is None else trace.messages,
        )


def assert_same_run(graph, program, comm) -> None:
    for use_runtime in (False, True):
        got = outcome(evaluate, graph, program, comm, use_runtime)
        want = outcome(reference_evaluate, graph, program, comm, use_runtime)
        if isinstance(want, Schedule):
            assert isinstance(got, Schedule), got
            assert_same_schedule(got, want)
        else:
            assert got == want


def assert_same_programs(graph, machine, iterations=ITERATIONS) -> None:
    scheduled = schedule_any_loop(graph, machine)
    overridden = with_edge_overrides(graph)
    for n in iterations:
        program = scheduled.program(n)
        for comm in COMMS.values():
            assert_same_run(graph, program, comm)
        assert_same_run(overridden, program, UniformComm(3))


# ----------------------------------------------------------------------
# evaluate == the frozen reference
# ----------------------------------------------------------------------
class TestIdentity:
    @given(case=fuzz_cases())
    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_fuzz_cases(self, case):
        assert_same_programs(case.graph, case.machine())

    @pytest.mark.parametrize(
        "name", sorted(load_corpus(Path(__file__).parent / "corpus"))
    )
    def test_corpus_entries(self, name):
        case = load_corpus(Path(__file__).parent / "corpus")[name]
        assert_same_programs(case.graph, case.machine())

    @pytest.mark.parametrize("seed", [1, 5, 9, 13, 17, 21, 25])
    def test_table1_loops(self, seed):
        w = random_cyclic_loop(seed, mm=3)
        assert_same_programs(w.graph, w.machine, iterations=(50,))

    @pytest.mark.parametrize("name", sorted(suite()))
    def test_paper_examples(self, name):
        w = suite()[name]
        assert_same_programs(w.graph, w.machine)

    @given(
        graph=loop_graphs(max_nodes=5),
        iterations=st.integers(1, 4),
        processors=st.integers(1, 3),
        keep=st.floats(0.5, 1.0),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_arbitrary_orders(self, graph, iterations, processors, keep, seed):
        """Random assignments and orders, some ops left out: many of
        these programs deadlock, the rest leave live-in inputs."""
        rng = random.Random(seed)
        ops = [op for op in graph.instances(iterations) if rng.random() < keep]
        rng.shuffle(ops)
        program = [[] for _ in range(processors)]
        for op in ops:
            program[rng.randrange(processors)].append(op)
        for comm in COMMS.values():
            assert_same_run(graph, program, comm)

    def test_trace_messages(self):
        w = suite()["fig7"]
        program = schedule_any_loop(w.graph, w.machine).program(12)
        for comm in COMMS.values():
            for use_runtime in (False, True):
                got = evaluate_trace(
                    w.graph, program, comm, use_runtime=use_runtime
                )
                want = reference_evaluate_trace(
                    w.graph, program, comm, use_runtime=use_runtime
                )
                assert got.messages == want.messages
                assert state(got.schedule) == state(want.schedule)


# ----------------------------------------------------------------------
# errors: same type, same message, same partial trace
# ----------------------------------------------------------------------
def ab_graph() -> DependenceGraph:
    g = DependenceGraph("ab")
    g.add_node("A", 1)
    g.add_node("B", 2)
    g.add_node("C", 1)
    g.add_edge("A", "B")
    g.add_edge("B", "A", distance=1)
    g.add_edge("C", "B")
    return g


class TestErrors:
    @pytest.mark.parametrize(
        "program, error",
        [
            (
                [[Op("A", 0), Op("B", 0)], [Op("A", 0)]],
                ScheduleValidationError,
            ),
            ([[Op("A", 0)], [Op("B", -1)]], ScheduleValidationError),
            ([[Op("A", 0), Op("Z", 0)]], GraphError),
            ([], ScheduleValidationError),
            # B[0] waits for C[0], which is queued behind it
            ([[Op("A", 0)], [Op("B", 0), Op("C", 0)]], DeadlockError),
            (
                [[Op("A", 1), Op("C", 0)], [Op("B", 0), Op("A", 0)]],
                DeadlockError,
            ),
            # the first malformed op in program order decides the error
            (
                [[Op("A", 0), Op("A", -2)], [Op("Q", 0)]],
                ScheduleValidationError,
            ),
            ([[Op("Q", 0), Op("A", 0)], [Op("A", 0)]], GraphError),
        ],
    )
    def test_same_error(self, program, error):
        g = ab_graph()
        for comm in COMMS.values():
            for use_runtime in (False, True):
                got = outcome(evaluate, g, program, comm, use_runtime)
                want = outcome(
                    reference_evaluate, g, program, comm, use_runtime
                )
                assert want[0] is error
                assert got == want

    def test_deadlock_trace_holds_what_ran(self):
        # A[1] waits for B[0], queued behind it on P1; A[0], C[1] and
        # C[0] still run, and A[0]'s message to B[0] still flies.
        g = ab_graph()
        program = [
            [Op("A", 0), Op("C", 1)],
            [Op("C", 0), Op("A", 1), Op("B", 0)],
        ]
        with pytest.raises(DeadlockError) as excinfo:
            evaluate(g, program, UniformComm(2))
        trace = excinfo.value.trace
        ran = sorted(trace.schedule.ops())
        assert ran == [Op("A", 0), Op("C", 0), Op("C", 1)]
        (msg,) = trace.messages
        assert (msg.src, msg.dst, msg.sent, msg.arrived) == (
            Op("A", 0), Op("B", 0), 1, 3,
        )
        with pytest.raises(DeadlockError) as ref:
            reference_evaluate(g, program, UniformComm(2))
        assert str(excinfo.value) == str(ref.value)
        assert trace.messages == ref.value.trace.messages
        assert state(trace.schedule) == state(ref.value.trace.schedule)


# ----------------------------------------------------------------------
# Pattern.expand_rows == the rows of Pattern.expand
# ----------------------------------------------------------------------
def patterns_of(scheduled):
    inner = getattr(scheduled, "inner", scheduled)
    for part in getattr(inner, "parts", (inner,)):
        if part.pattern is not None:
            yield part.pattern


def assert_rows_match(pattern: Pattern) -> None:
    d = pattern.iter_shift
    first = min(p.op.iteration for p in pattern.kernel)
    for n in (0, 1, d, first + 3 * d + 1):
        rows, starts = pattern.expand_rows(n)
        expanded = pattern.expand(n)
        for j in range(pattern.processors):
            placed = expanded.ops_on(j)
            assert rows[j] == [p.op for p in placed]
            assert starts[j] == [p.start for p in placed]


class TestRowExpansion:
    @given(case=fuzz_cases())
    @settings(max_examples=25, deadline=None)
    def test_fuzz_patterns(self, case):
        scheduled = schedule_any_loop(case.graph, case.machine())
        for pattern in patterns_of(scheduled):
            assert_rows_match(pattern)

    @pytest.mark.parametrize("name", sorted(suite()))
    def test_paper_patterns(self, name):
        w = suite()[name]
        for pattern in patterns_of(schedule_any_loop(w.graph, w.machine)):
            assert_rows_match(pattern)

    def test_out_of_order_prelude_is_sorted_like_ops_on(self):
        def place(node, it, proc, start):
            return Placement(start, proc, Op(node, it), 1)

        pattern = Pattern(
            start=4,
            period=2,
            iter_shift=1,
            prelude=(place("A", 1, 0, 3), place("A", 0, 0, 1)),
            kernel=(place("A", 2, 0, 4),),
            processors=2,
        )
        assert_rows_match(pattern)
        rows, _starts = pattern.expand_rows(3)
        assert rows[0] == [Op("A", 0), Op("A", 1), Op("A", 2)]


# ----------------------------------------------------------------------
# the lazy placement form
# ----------------------------------------------------------------------
def fig7_run(iterations=10):
    w = suite()["fig7"]
    program = schedule_any_loop(w.graph, w.machine).program(iterations)
    return w.graph, program, w.machine.comm


class TestLazySchedule:
    def test_graph_change_after_evaluate_is_seen(self):
        g = DependenceGraph("grow")
        for n in "ABC":
            g.add_node(n, 1)
        g.add_edge("A", "B")
        program = [
            [Op("A", 0), Op("A", 1)],
            [Op("B", 0), Op("C", 0), Op("B", 1)],
        ]
        comm = UniformComm(3)
        before = evaluate(g, program, comm)
        g.add_edge("B", "C")
        g.add_edge("C", "A", distance=1)
        after = evaluate(g, program, comm)
        assert after.makespan() > before.makespan()
        assert_same_schedule(after, reference_evaluate(g, program, comm))
        g.add_node("D", 4)
        g.add_edge("D", "A", distance=1)
        program[0].insert(0, Op("D", 0))
        assert_same_schedule(
            evaluate(g, program, comm), reference_evaluate(g, program, comm)
        )

    def test_add_on_an_evaluated_schedule(self):
        g, program, comm = fig7_run()
        got = evaluate(g, program, comm)
        want = reference_evaluate(g, program, comm)
        assert got.placements() == want.placements()
        rows = [got.ops_on(j) for j in range(got.processors)]
        extra = (Op(g.node_names()[0], 999), 0, 10_000, 1)
        assert got.add(*extra) == want.add(*extra)
        assert got.makespan() == want.makespan() == 10_001
        assert got.placements()[:-1] == want.placements()[:-1]
        assert [got.ops_on(j) for j in range(got.processors)][1:] == rows[1:]
        assert_same_schedule(got, want)

    def test_add_checks_still_apply_after_unpacking(self):
        g, program, comm = fig7_run()
        got = evaluate(g, program, comm)
        with pytest.raises(Exception, match="scheduled twice"):
            got.add(program[0][0], 0, 0, 1)

    @pytest.mark.parametrize(
        "roundtrip",
        [lambda s: pickle.loads(pickle.dumps(s)), copy.deepcopy],
        ids=["pickle", "deepcopy"],
    )
    def test_roundtrips_compare_equal(self, roundtrip):
        g, program, comm = fig7_run()
        want = reference_evaluate(g, program, comm, use_runtime=True)
        got = roundtrip(evaluate(g, program, comm, use_runtime=True))
        assert_same_schedule(got, want)
        assert_same_schedule(roundtrip(want), want)

    def test_warm_disk_cache_rerun(self, tmp_path):
        cache_dir = str(tmp_path / "artifacts")
        cells = table1_cells([2, 3], iterations=20)
        cold = run_campaign(cells, workers=1, cache_dir=cache_dir)
        default_cache().clear()
        warm = run_campaign(cells, workers=1, cache_dir=cache_dir)
        assert pickle.dumps([r.value for r in warm.results]) == pickle.dumps(
            [r.value for r in cold.results]
        )
        for name, slot in warm.pipeline_summary()["passes"].items():
            assert slot["cache_hits"] == slot["runs"], name

    def test_from_packed_matches_add_in_any_order(self):
        placements = [
            (Op("A", 0), 0, 5, 1),
            (Op("B", 0), 1, 0, 2),
            (Op("A", 1), 0, 2, 1),  # earlier than A[0] on P0
            (Op("B", 1), 1, 2, 2),
        ]
        eager = Schedule(2)
        for p in placements:
            eager.add(*p)
        ops, procs, starts, lats = (list(c) for c in zip(*placements))
        packed = Schedule.from_packed(2, ops, procs, starts, lats, 6)
        assert_same_schedule(packed, eager)
        assert eager._sorted is False
