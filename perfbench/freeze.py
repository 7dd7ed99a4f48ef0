"""Regenerate the expected outputs the identity gate compares against.

Usage, from the root of a checkout::

    python3 perfbench/freeze.py

Run it only when a change is meant to alter the program's outputs,
and say so in the change: every later run compares against what this
writes.  It writes ``perfbench/expected/paper.json`` (every Table 1
and comm-sweep cell), ``fuzz.json`` (``FuzzReport.to_dict()`` of every
campaign seed the benchmark uses) and ``serve.json`` (the response
``result`` of every program in the serve pool).
"""

from __future__ import annotations

import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import workloads  # noqa: E402


def _write(name: str, doc: dict) -> None:
    path = os.path.join(workloads.EXPECTED, f"{name}.json")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {os.path.relpath(path, ROOT)}")


def freeze_paper() -> None:
    from repro.experiments import sweep_cells, table1_cells
    from repro.runner import run_campaign
    from repro.workloads import paper_seeds

    cells = {}
    for campaign in (table1_cells(paper_seeds()), sweep_cells(paper_seeds()[:10])):
        for res in run_campaign(campaign).raise_on_failure().results:
            cells[res.cell.cell_id] = {
                k: res.value[k] for k in workloads.PAPER_FIELDS
            }
    _write("paper", {"cells": cells})


def freeze_fuzz() -> None:
    from repro.fuzz.campaign import run_fuzz

    reports = {}
    for seed in range(workloads.FUZZ_SEEDS):
        report = run_fuzz(workloads.FUZZ_LOOPS, seed=seed)
        if not report.ok:
            raise SystemExit(f"fuzz seed {seed} has failures: {report.format()}")
        reports[str(seed)] = report.to_dict()
    _write("fuzz", {"loops": workloads.FUZZ_LOOPS, "reports": reports})


def freeze_serve() -> None:
    from repro.serve import request_json

    daemon = workloads.start_daemon()
    results = {}
    try:
        for index in range(workloads.SERVE_POOL):
            status, body = request_json(
                daemon.host, daemon.port, workloads.serve_program(index)
            )
            if status != 200:
                raise SystemExit(f"program {index}: HTTP {status}: {body}")
            results[str(index)] = body["result"]
    finally:
        daemon.stop()
    _write("serve", {"results": results})


if __name__ == "__main__":
    freeze_paper()
    freeze_fuzz()
    freeze_serve()
