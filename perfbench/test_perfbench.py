"""Tests of the benchmark itself: its statistics, its failure counting,
its identity gate and a small run of each workload.

Run from the root of a checkout with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import calibrate, spans, workloads  # noqa: E402
from perfbench.stats import (  # noqa: E402
    Tally,
    beyond,
    median,
    percentile,
    tail_percentile,
)


# -- statistics ------------------------------------------------------------
def test_percentile_is_nearest_rank():
    samples = list(range(1, 11))
    assert percentile(samples, 50) == 5
    assert percentile(samples, 90) == 9
    assert percentile(samples, 100) == 10
    assert percentile([], 90) == 0.0
    assert median([3, 1, 2, 10]) == 2.5


def test_tail_rule_needs_ten_samples_beyond():
    assert beyond(100, 90) == 10
    assert beyond(99, 90) == 9
    assert beyond(1000, 99) == 10
    assert tail_percentile(list(range(100)), 90) == 89
    with pytest.raises(ValueError, match="tail rule"):
        tail_percentile(list(range(99)), 90)
    with pytest.raises(ValueError):
        tail_percentile(list(range(999)), 99)


def test_tally_counts_each_failed_item_once():
    tally = Tally()
    tally.add(10, {})
    tally.add(5, {"cell a": "cell a: sp_ours differs", "cell b": "cell b failed"})
    assert (tally.attempted, tally.failed) == (15, 2)
    assert tally.ratio == pytest.approx(2 / 15)
    assert tally.first_failure == "cell a: sp_ours differs"
    with pytest.raises(ValueError):
        tally.add(1, {"x": "", "y": ""})


def test_first_difference_names_the_first_differing_value():
    expected = {"a": 1, "b": {"c": [1, 2, 3]}, "d": 1.5}
    assert workloads.first_difference(expected, json.loads(json.dumps(expected))) is None
    assert workloads.first_difference(expected, {**expected, "a": 2}) == "a"
    changed = {**expected, "b": {"c": [1, 5, 3]}, "d": 0.0}
    assert workloads.first_difference(expected, changed) == "b.c[1]"
    assert workloads.first_difference(expected, {**expected, "b": {"c": [1, 2]}}) == "b.c[2]"
    assert workloads.first_difference(expected, {**expected, "e": 0}) == "e"
    assert workloads.first_difference(1, 1.0) == "<root>"
    assert workloads.first_difference(None, {"x": 1}) == "<root>"


def test_host_kernel_leaves_the_collector_as_it_found_it():
    import gc

    for kind, reference in calibrate.REFERENCE_S.items():
        assert calibrate.scale(kind, reference) == pytest.approx(1.0)
        assert calibrate.scale(kind, 2 * reference) == pytest.approx(0.5)
        assert gc.isenabled()
        assert calibrate.kernel_seconds(kind) > 0
        assert gc.isenabled()
    gc.disable()
    try:
        calibrate.kernel_seconds("small")
        assert not gc.isenabled()
    finally:
        gc.enable()
    for cls in (workloads.PaperCampaign, workloads.FuzzCampaign, workloads.ServeMixed):
        assert cls.kernel in calibrate.REFERENCE_S


# -- small runs of each workload, with the identity gate --------------------
@pytest.fixture
def scratch(tmp_path):
    return str(tmp_path)


def test_paper_campaign_small_run_matches_expected():
    w = workloads.PaperCampaign(seed=7)
    assert sum(len(c) for c in w.campaigns) == 75 + 60
    w.campaigns = [cells[:3] for cells in w.campaigns]
    rep = w.run_rep(0)
    assert rep.attempted == 6 and not rep.failures
    assert len(rep.latencies) == 6 and len(rep.sp) == 6

    cell = w.campaigns[1][2].cell_id
    w.expected = {**w.expected, cell: {**w.expected[cell], "ours": -1}}
    rep = w.run_rep(1)
    assert list(rep.failures) == [cell]
    assert f"cell {cell}: ours differs" in rep.failures[cell]


def test_fuzz_campaign_run_matches_expected(scratch):
    w = workloads.FuzzCampaign(seed=21, scratch=scratch)
    rep = w.run_rep(0)  # campaign seed (21 + 0) % 16 = 5
    assert rep.attempted == workloads.FUZZ_LOOPS and not rep.failures
    assert len(rep.latencies) == workloads.FUZZ_LOOPS
    assert len(rep.sp) == workloads.FUZZ_LOOPS
    assert os.listdir(scratch) == []  # the journal directory is removed

    report = json.loads(json.dumps(w.expected["5"]))
    report["patterns"]["mesh"]["cases"] += 1
    w.expected = {"5": report}
    rep = w.run_rep(0)
    assert len(rep.failures) == 1
    assert "fuzz seed 5: FuzzReport.to_dict() patterns.mesh.cases differs" in next(
        iter(rep.failures.values())
    )


def test_serve_stream_mixes_new_and_repeated_programs():
    stream = workloads.serve_stream(3, 0)
    assert stream == workloads.serve_stream(3, 0)
    assert stream != workloads.serve_stream(3, 1)
    assert len(stream) == workloads.SERVE_REQUESTS
    assert set(stream) == set(range(workloads.SERVE_POOL))
    seen: set[int] = set()
    for i, program in enumerate(stream):
        assert (program not in seen) == (i % workloads.SERVE_NEW_EVERY == 0)
        seen.add(program)


def test_serve_mixed_small_run_matches_expected():
    w = workloads.ServeMixed(seed=11, requests=12)
    try:
        rep = w.run_rep(0)
        assert rep.attempted == 12 and not rep.failures
        assert rep.extra["requests"] == 12
        assert rep.extra["pipeline_runs"] == 3
        assert (
            rep.extra["cache_hits"] + rep.extra["singleflight_waits"]
            + rep.extra["pipeline_runs"] == 12
        )
        assert all(s >= 0 for s in rep.extra["server_ms"])

        program = workloads.serve_stream(11, 1, 12)[5]
        w.expected = {**w.expected, str(program): {**w.expected[str(program)], "sp": -1}}
        rep = w.run_rep(1)
        first = next(iter(rep.failures.values()))
        assert first.startswith(f"request ") and f"(program {program}): result sp differs" in first
    finally:
        w.close()


# -- tracing ------------------------------------------------------------------
def test_spans_cover_the_layers_and_are_removed_afterwards():
    import repro.experiments
    import repro.sim.fastpath

    original = repro.sim.fastpath.evaluate
    w = workloads.PaperCampaign(seed=0)
    w.campaigns = [cells[:3] for cells in w.campaigns]
    w.run_rep(0)  # import everything the repetition uses first
    with spans.SpanRecorder() as recorder:
        assert repro.experiments.evaluate is not original
        rep = w.run_rep(1)
    assert repro.sim.fastpath.evaluate is original
    assert repro.experiments.evaluate is original

    values = spans.layer_metrics([recorder.spans()], recorder.counts(), rep.wall)
    for layer in ("workloads.build", "pipeline", "core.cyclic", "core.expand",
                  "sim.fastpath", "baselines.doacross", "runner"):
        assert values[f"{layer}.calls"] > 0, layer
    assert values["lang.calls"] == 0
    assert values["sim.fastpath.ops_simulated"] > 0
    shares = sum(values[f"{layer}.share"] for layer in spans.LAYER_NAMES)
    assert shares + values["unattributed_share"] == pytest.approx(1.0)


def test_self_time_subtracts_direct_children():
    recorded = [
        ("runner", 0.0, 10.0, -1, None),
        ("item.cell", 1.0, 9.0, 0, "c"),
        ("pipeline", 2.0, 6.0, 1, "c"),
        ("sim.fastpath", 3.0, 5.0, 2, "c"),
    ]
    assert spans.self_times(recorded) == [2.0, 4.0, 2.0, 2.0]


# -- the command line -----------------------------------------------------------
@pytest.mark.parametrize(
    "workload, trace, kind",
    [("paper-campaign", 1, "per_layer"), ("fuzz-campaign", 0, "end_to_end")],
)
def test_cli_prints_every_declared_metric(workload, trace, kind):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "2", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)[kind]
    assert result["correct"] and result["failed"] == 0
    # one fuzz repetition has 60 cases; the tail rule asks for 100
    assert result["attempted"] >= 100
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper-campaign",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
