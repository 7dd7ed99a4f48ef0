"""Simulated asynchronous multiprocessor.

Two interchangeable implementations of the machine semantics:

* :func:`repro.sim.fastpath.evaluate` — closed-form forward pass;
* :func:`repro.sim.engine.simulate` — event-driven engine with message
  objects and a full :class:`~repro.sim.engine.ExecutionTrace`.

Property tests assert they agree cycle-for-cycle.
:mod:`repro.sim.steady` gives a periodic program's exact asymptotic
rate without simulating it.
"""

from repro.sim.engine import (
    ExecutionTrace,
    Message,
    Segment,
    execution_segments,
    simulate,
)
from repro.sim.fastpath import evaluate, evaluate_trace
from repro.sim.trace import TraceStats, critical_chain, trace_stats

__all__ = [
    "ExecutionTrace",
    "Message",
    "Segment",
    "TraceStats",
    "critical_chain",
    "evaluate",
    "evaluate_trace",
    "execution_segments",
    "simulate",
    "trace_stats",
]
