"""The folded merge on integer slots against its frozen reference.

``ScheduledLoop._folded_program`` (DESIGN.md §15) must emit exactly the
rows of the ``Op``-keyed merge it replaced, kept verbatim in
:mod:`tests.folded_reference`, and fail with the same error when it
fails.  Loops are compiled with ``folding="always"`` so every part with
a Cyclic pattern and non-Cyclic nodes goes through the merge, and each
is expanded to 1 iteration, to one pattern shift ``d`` and to 100.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings

from repro.errors import ReproError
from repro.fuzz.generators import generate_case
from repro.pipeline import CompilationContext, build_pipeline
from repro.workloads import suite
from tests.conftest import fuzz_cases
from tests.folded_reference import folded_program_reference


def _compile_folded(graph, machine):
    """The case compiled with forced folding, or None if it fails."""
    ctx = CompilationContext.from_graph(graph, machine)
    try:
        build_pipeline(folding="always", cache=None).run(ctx)
    except ReproError:
        return None
    return ctx.scheduled


def _folded_parts(scheduled) -> list:
    parts = getattr(scheduled, "parts", None) or [scheduled]
    return [
        p
        for p in parts
        if p.pattern is not None and p.plan.fold_into is not None
    ]


def _outcome(merge, loop, iterations: int):
    """Rows of one merge, or the type and text of its error."""
    rows, starts = loop.pattern.expand_rows(iterations)
    used = loop.cyclic_processors
    try:
        return merge(
            loop,
            [rows[orig] for orig in used],
            [starts[orig] for orig in used],
            used.index(loop.plan.fold_into),
            iterations,
        )
    except ReproError as exc:
        return type(exc), str(exc)


def _check_loop(loop) -> None:
    for iterations in sorted({1, loop.pattern.iter_shift, 100}):
        expected = _outcome(folded_program_reference, loop, iterations)
        got = _outcome(type(loop)._folded_program, loop, iterations)
        assert got == expected, (loop.graph.name, iterations)
        if isinstance(expected, list):
            assert loop.program(iterations) == expected


def _check_scheduled(scheduled) -> int:
    if scheduled is None:
        return 0
    parts = _folded_parts(scheduled)
    for loop in parts:
        _check_loop(loop)
    return len(parts)


@settings(max_examples=60, deadline=None)
@given(case=fuzz_cases())
def test_merge_matches_reference_on_fuzz_families(case):
    _check_scheduled(_compile_folded(case.graph, case.machine()))


def test_merge_matches_reference_on_suite_workloads():
    checked = 0
    for name, w in sorted(suite().items()):
        checked += _check_scheduled(_compile_folded(w.graph, w.machine))
    assert checked >= 3


@pytest.mark.parametrize("pattern", ["multi_statement", "conditional"])
def test_merge_matches_reference_on_serve_pool(pattern):
    """The serve workload's request pool: generated loops 0..99."""
    checked = 0
    for i in range(100):
        case = generate_case(pattern, i)
        checked += _check_scheduled(
            _compile_folded(case.graph, case.machine())
        )
    assert checked >= 10
