"""Coverage-guided fuzzing of the compile -> simulate path.

The scheduler's correctness rests on subtle invariants — pattern
coverage, deadlock-free linear extensions, communication-cost
accounting — and PR 6 showed that a single generated counterexample
can expose a real unsoundness.  This package scales that scrutiny from
dozens of hand-picked graphs to millions of generated loops:

* :mod:`repro.fuzz.generators` — ~8 weighted generation patterns
  (deep chains, dense meshes, self-dependences, disconnected
  components, extreme/zero communication costs, multi-statement and
  conditional mini-language bodies, degenerate one-node loops), driven
  by a seeded PRNG whose per-pattern weights adapt toward patterns
  still producing previously-unseen behaviour;
* :mod:`repro.fuzz.oracles` — differential and invariant oracles run
  on every generated case: the program's exact steady-state rate
  keeps the closed-form pattern promise, parallel execution is
  bit-identical to the sequential interpreter, the closed-form
  fastpath agrees with the event-driven reference simulator instance
  by instance, and
  recompiling through a warm artifact cache is bit-identical;
* :mod:`repro.fuzz.minimize` — greedy edge/node deletion shrinking any
  failure to a canonical repro;
* :mod:`repro.fuzz.campaign` — sharded execution over the
  fault-tolerant campaign runner (cell kind ``"fuzz"``), so a
  million-loop sweep is one ``repro-mimd fuzz`` invocation;
* :mod:`repro.fuzz.corpus` — the checked-in seed corpus of minimized
  edge cases (``tests/corpus/*.json``), replayed by ``test_corpus.py``
  on every run and foldable into the chaos scenario matrix.
"""

from __future__ import annotations

from repro.fuzz.campaign import (
    FuzzReport,
    fuzz_cells,
    run_fuzz,
    run_fuzz_shard,
)
from repro.fuzz.corpus import (
    CORPUS_VERSION,
    default_corpus_dir,
    load_corpus,
    save_case,
)
from repro.fuzz.sigstore import SignatureStore, SigstoreMerge, promote_survivors
from repro.fuzz.generators import (
    PATTERN_NAMES,
    FuzzCase,
    WeightedSampler,
    behavior_signature,
    generate_case,
)
from repro.fuzz.minimize import minimize_case
from repro.fuzz.oracles import (
    ORACLE_NAMES,
    OracleFailure,
    failure_predicate,
    run_oracles,
)

__all__ = [
    "CORPUS_VERSION",
    "FuzzCase",
    "FuzzReport",
    "ORACLE_NAMES",
    "OracleFailure",
    "PATTERN_NAMES",
    "SignatureStore",
    "SigstoreMerge",
    "WeightedSampler",
    "behavior_signature",
    "default_corpus_dir",
    "failure_predicate",
    "fuzz_cells",
    "generate_case",
    "load_corpus",
    "minimize_case",
    "promote_survivors",
    "run_fuzz",
    "run_fuzz_shard",
    "run_oracles",
    "save_case",
]
