"""Differential and invariant oracles for generated cases.

Every case is compiled once through the standard pipeline and then
checked against four independent notions of "correct":

``steady_rate``
    Every component's program runs no slower than the closed-form
    promise ``steady_cycles_per_iteration()``.  The program's exact
    asymptotic rate is the maximum cycle ratio of the program folded
    onto one lcm-aligned iteration window
    (:func:`repro.sim.steady.period_graph`), compared with the
    promise as a ``Fraction``; on one case in 16 (by seed) the
    simulated makespan must also grow by exactly that rate.
    On the same sample, components the rate claim does not cover (see
    :func:`_part_window`) get their rate computed too and are counted
    in ``fuzz.steady_rate.out_of_claim`` registry counters instead.
``dataflow``
    The partitioned parallel program computes values bit-identical to
    the sequential reference — the real interpreter
    (:func:`~repro.codegen.interp.verify_against_sequential`) for
    mini-language cases, hash semantics
    (:func:`~repro.codegen.interp.verify_graph_dataflow`) for bare
    graphs.  Any unrouted dependence changes a value.
``engine_agreement``
    The closed-form fastpath (:func:`repro.sim.fastpath.evaluate`)
    and the event-driven reference simulator
    (:func:`repro.sim.engine.simulate`) agree start-by-start under
    fluctuating run-time communication costs.
``recompile_identity``
    Recompiling the same case through a warm artifact cache yields a
    bit-identical schedule, and every pass is served from the cache.

A failed oracle raises :class:`OracleViolation` internally and is
reported as an :class:`OracleFailure`; unexpected exceptions inside an
oracle are reported under the same oracle name (a crash is a finding
too).  A crash during compilation is reported under the pseudo-oracle
``"compile"``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterable

from repro.errors import ReproError
from repro.fuzz.generators import FuzzCase, behavior_signature
from repro.machine.comm import FluctuatingComm
from repro.obs.metrics import labeled, registry

__all__ = [
    "ORACLE_NAMES",
    "CaseOutcome",
    "OracleFailure",
    "OracleViolation",
    "compile_case",
    "failure_predicate",
    "run_oracles",
]

#: ``compile`` is the pseudo-oracle for pipeline crashes; the rest run
#: in this order on the compiled schedule.
ORACLE_NAMES: tuple[str, ...] = (
    "compile",
    "steady_rate",
    "dataflow",
    "engine_agreement",
    "recompile_identity",
)

#: iterations used by the functional (dataflow / engine) oracles —
#: enough to reach the steady kernel at max_iteration_lead=8 shifts
#: while keeping a million-case sweep cheap.
DATAFLOW_ITERATIONS = 6
ENGINE_ITERATIONS = 7

#: steady-rate windows larger than this (lcm of iteration shift and
#: flow-in/out interleaving widths) are outside the rate claim.
_WINDOW_CAP = 48


class OracleViolation(ReproError):
    """An invariant the fuzzer checks did not hold."""


@dataclass(frozen=True)
class OracleFailure:
    """One oracle's verdict on one case (serializable)."""

    oracle: str
    message: str
    case_id: str
    pattern: str

    def to_dict(self) -> dict[str, Any]:
        return {
            "oracle": self.oracle,
            "message": self.message,
            "case_id": self.case_id,
            "pattern": self.pattern,
        }


@dataclass(frozen=True)
class CaseOutcome:
    """What one case taught us: a behaviour bucket plus any failures."""

    signature: str
    failures: tuple[OracleFailure, ...] = ()

    @property
    def ok(self) -> bool:
        return not self.failures


# ----------------------------------------------------------------------
# compilation
# ----------------------------------------------------------------------
def compile_case(case: FuzzCase, *, cache=None):
    """Compile a case's graph; returns the ScheduledLoop/CombinedLoop.

    ``cache=None`` (the default) disables artifact caching so a
    million-case sweep does not grow the process-wide cache without
    bound; the ``recompile_identity`` oracle supplies its own cache.
    """
    from repro.pipeline import CompilationContext, build_pipeline

    ctx = CompilationContext.from_graph(case.graph, case.machine())
    build_pipeline(cache=cache).run(ctx)
    return ctx.scheduled


def _parts(scheduled) -> list:
    parts = getattr(scheduled, "parts", None)
    return list(parts) if parts is not None else [scheduled]


# ----------------------------------------------------------------------
# oracle: steady-state rate
# ----------------------------------------------------------------------
def _part_window(part) -> tuple[int, str | None]:
    """Iteration window over which the part's program repeats, and why
    the closed-form rate is not a claim there (``None`` when it is).

    Out of the claim are:

    * ``doall_carried`` — DOALL components with loop-carried
      dependences: the round-robin program is only claimed optimal for
      independent iterations;
    * ``folded`` — folded parts: the Section 3 heuristic explicitly
      trades rate for processors, so the prediction is advisory there;
    * ``noncyclic_carried`` — loop-carried dependences between two
      *non-cyclic* nodes: Fig. 5 interleaves their iterations mod-p
      assuming independence, so such edges serialize across
      processors (the dependence is still honoured — the ``dataflow``
      oracle checks that);
    * ``window_cap`` — windows over :data:`_WINDOW_CAP` iterations.
    """
    if part.pattern is None:
        carried = part.graph.max_distance() > 0
        return part.machine.processors, "doall_carried" if carried else None
    plan = part.plan
    m = part.pattern.iter_shift
    if plan is not None and plan.fold_into is not None:
        return m, "folded"
    if plan is not None:
        if plan.flow_in_procs:
            m = math.lcm(m, plan.flow_in_procs)
        if plan.flow_out_procs:
            m = math.lcm(m, plan.flow_out_procs)
    cls = part.classification
    noncyclic = set(cls.flow_in) | set(cls.flow_out)
    for e in part.graph.edges:
        if e.distance > 0 and e.src in noncyclic and e.dst in noncyclic:
            return m, "noncyclic_carried"
    return m, "window_cap" if m > _WINDOW_CAP else None


def _promise(part, window: int) -> Fraction:
    """The closed-form rate, in cycles per ``window`` iterations."""
    pattern = part.pattern
    if pattern is not None:
        return Fraction(pattern.period * window, pattern.iter_shift)
    work = part.graph.total_latency() * window
    return Fraction(work, part.machine.processors)


def _settled(part) -> int:
    """First iteration past the pattern's prelude (0 for DOALL)."""
    if part.pattern is None:
        return 0
    return 1 + max((p.op.iteration for p in part.pattern.prelude), default=-1)


#: one case in this many (by seed) also checks the rate by simulation
#: and rates the parts outside the claim
_SIMULATED_ONE_IN = 16

#: aligned windows, times the cyclicity, the simulation spans
_RATE_WINDOWS = 4


def _measured_delta(part, comm, n0: int, span: int) -> int:
    from repro.sim.fastpath import evaluate

    def makespan(n: int) -> int:
        return evaluate(part.graph, part.program(n), comm).makespan()

    return makespan(n0 + span) - makespan(n0)


def _check_slope(part, comm, pg, rate: Fraction, m: int) -> None:
    """The simulated makespan grows by exactly ``rate`` per window.

    Measured past the structural start over whole cycles of the
    critical graph (4 times its cyclicity, in windows): the makespan
    need not grow by exactly ``rate`` every window, only every
    cyclicity windows.  A transient that has not drained is given 4x
    and then 16x the depth before it counts.
    """
    windows = _RATE_WINDOWS * pg.cyclicity()
    span = windows * m
    expected = rate * windows
    for depth in (1, 4, 16):
        n0 = depth * max(pg.start, 8 * m + 32)
        delta = _measured_delta(part, comm, n0, span)
        if delta == expected:
            return
    raise OracleViolation(
        f"component {part.graph.name!r}: exact rate {rate} cycles per "
        f"{m} iterations predicts +{expected} cycles over {span} "
        f"iterations past n0={n0}, simulated +{delta}"
    )


def _count_out_of_claim(part, comm, m: int, shape: str) -> None:
    """Count a part outside the claim by whether its exact rate exceeds
    the promise, or as ``over_promise=error`` when the rate cannot be
    computed (say, a program that is not periodic): the claim does not
    cover such a part, so neither outcome is a finding."""
    from repro.sim.steady import steady_rate

    try:
        rate = steady_rate(
            part.graph, part.program, m, comm, start=_settled(part)
        )
    except ReproError:
        over: bool | str = "error"
    else:
        over = rate > _promise(part, m)
    registry().counter(
        labeled(
            "fuzz.steady_rate.out_of_claim", shape=shape, over_promise=over
        )
    ).inc()


def _oracle_steady_rate(case: FuzzCase, scheduled) -> None:
    from repro.sim.steady import period_graph

    comm = case.machine().comm
    sampled = case.seed % _SIMULATED_ONE_IN == 0
    for part in _parts(scheduled):
        m, shape = _part_window(part)
        if shape is not None:
            if sampled:
                _count_out_of_claim(part, comm, m, shape)
            continue
        promise = _promise(part, m)
        pg = period_graph(
            part.graph, part.program, m, comm, start=_settled(part)
        )
        rate = pg.rate()
        # The closed-form rate is the scheduler's *promise*: the
        # program must not run slower.  It may run faster — ASAP replay
        # of the emitted program can compress slack the greedy pattern
        # search left in the kernel.
        if rate > promise:
            raise OracleViolation(
                f"component {part.graph.name!r}: closed-form rate "
                f"promises {promise} cycles per {m} iterations, the "
                f"program's exact steady rate is {rate}"
            )
        if sampled:
            _check_slope(part, comm, pg, rate, m)


# ----------------------------------------------------------------------
# oracle: dataflow vs the sequential reference
# ----------------------------------------------------------------------
def _oracle_dataflow(case: FuzzCase, scheduled) -> None:
    from repro.codegen.interp import (
        verify_against_sequential,
        verify_graph_dataflow,
    )
    from repro.codegen.partition import partition
    from repro.errors import ValidationError

    program = partition(scheduled, DATAFLOW_ITERATIONS)
    try:
        if case.source is not None:
            verify_against_sequential(case.loop(), program)
        else:
            verify_graph_dataflow(case.graph, program)
    except ValidationError as exc:
        raise OracleViolation(str(exc)) from exc


# ----------------------------------------------------------------------
# oracle: fastpath vs event-driven reference engine
# ----------------------------------------------------------------------
def _oracle_engine_agreement(case: FuzzCase, scheduled) -> None:
    from repro.sim.engine import simulate
    from repro.sim.fastpath import evaluate

    # Fluctuating run-time costs stress the agreement far harder than
    # the uniform compile-time model the case was scheduled under.
    comm = FluctuatingComm(
        k=max(2, int(case.comm.get("k", 2))),
        mm=3,
        mode="uniform",
        seed=case.seed & 0xFFFF,
    )
    program = scheduled.program(ENGINE_ITERATIONS)
    fast = evaluate(case.graph, program, comm, use_runtime=True)
    slow = simulate(case.graph, program, comm, use_runtime=True)
    if fast.makespan() != slow.schedule.makespan():
        raise OracleViolation(
            f"makespan disagrees: fastpath {fast.makespan()}, "
            f"engine {slow.schedule.makespan()}"
        )
    for op in fast.ops():
        if fast.start(op) != slow.schedule.start(op):
            raise OracleViolation(
                f"start time of {op} disagrees: fastpath "
                f"{fast.start(op)}, engine {slow.schedule.start(op)}"
            )


# ----------------------------------------------------------------------
# oracle: recompile-from-cache bit-identity
# ----------------------------------------------------------------------
def _canonical_schedule(scheduled) -> str:
    rows = scheduled.program(5)
    body = ";".join(
        ",".join(f"{op.node}@{op.iteration}" for op in row) for row in rows
    )
    return (
        f"procs={scheduled.total_processors}"
        f"|rate={scheduled.steady_cycles_per_iteration()!r}|{body}"
    )


def _oracle_recompile_identity(case: FuzzCase, scheduled) -> None:
    from repro.pipeline import (
        ArtifactCache,
        CompilationContext,
        build_pipeline,
    )

    cache = ArtifactCache()
    machine = case.machine()
    cold = CompilationContext.from_graph(case.graph, machine)
    build_pipeline(cache=cache).run(cold)
    warm = CompilationContext.from_graph(case.graph, machine)
    report = build_pipeline(cache=cache).run(warm)
    if report.cache_hits != len(report.passes):
        missed = [r.name for r in report.passes if not r.cache_hit]
        raise OracleViolation(
            f"warm recompile executed passes {missed} instead of "
            "hitting the cache"
        )
    a = _canonical_schedule(cold.scheduled)
    b = _canonical_schedule(warm.scheduled)
    if a != b:
        raise OracleViolation(
            "warm recompile produced a different schedule "
            f"(cold {a[:80]}... vs warm {b[:80]}...)"
        )
    # the fresh compile the campaign already did must agree too
    c = _canonical_schedule(scheduled)
    if c != a:
        raise OracleViolation(
            "uncached compile disagrees with cached compile "
            f"({c[:80]}... vs {a[:80]}...)"
        )


_ORACLES: dict[str, Callable[[FuzzCase, Any], None]] = {
    "steady_rate": _oracle_steady_rate,
    "dataflow": _oracle_dataflow,
    "engine_agreement": _oracle_engine_agreement,
    "recompile_identity": _oracle_recompile_identity,
}


# ----------------------------------------------------------------------
# driver
# ----------------------------------------------------------------------
def run_oracles(
    case: FuzzCase, *, oracles: Iterable[str] | None = None
) -> CaseOutcome:
    """Compile ``case`` and run the selected oracles (default: all)."""
    selected = tuple(ORACLE_NAMES if oracles is None else oracles)
    unknown = [o for o in selected if o not in ORACLE_NAMES]
    if unknown:
        raise ReproError(f"unknown oracle(s): {', '.join(unknown)}")
    try:
        scheduled = compile_case(case)
    except Exception as exc:  # noqa: BLE001 - crashes are findings
        failure = OracleFailure(
            oracle="compile",
            message=f"{type(exc).__name__}: {exc}",
            case_id=case.case_id,
            pattern=case.pattern,
        )
        return CaseOutcome(
            signature=behavior_signature(
                case, None, error=type(exc).__name__
            ),
            failures=(failure,),
        )
    failures: list[OracleFailure] = []
    for name in selected:
        check = _ORACLES.get(name)
        if check is None:  # "compile" already ran above
            continue
        try:
            check(case, scheduled)
        except OracleViolation as exc:
            failures.append(
                OracleFailure(name, str(exc), case.case_id, case.pattern)
            )
        except Exception as exc:  # noqa: BLE001 - crashes are findings
            failures.append(
                OracleFailure(
                    name,
                    f"unexpected {type(exc).__name__}: {exc}",
                    case.case_id,
                    case.pattern,
                )
            )
    return CaseOutcome(
        signature=behavior_signature(case, scheduled),
        failures=tuple(failures),
    )


def failure_predicate(oracle: str) -> Callable[[FuzzCase], bool]:
    """``case -> bool``: does ``oracle`` still fail on ``case``?

    This is the predicate the minimizer preserves while shrinking: the
    minimized repro must fail the *same* oracle, not merely fail
    something.
    """
    if oracle not in ORACLE_NAMES:
        raise ReproError(f"unknown oracle {oracle!r}")
    selected: tuple[str, ...] = () if oracle == "compile" else (oracle,)

    def fails(case: FuzzCase) -> bool:
        outcome = run_oracles(case, oracles=selected)
        return any(f.oracle == oracle for f in outcome.failures)

    return fails
