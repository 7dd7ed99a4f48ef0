"""Percentiles, the tail rule and failure counting (stdlib only).

The benchmark computes its statistics here rather than through
``repro.obs.metrics`` so that a change to the program cannot change
how the program is measured.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

#: the tail rule: a percentile is reported only with at least this many
#: samples beyond it.
TAIL_SAMPLES = 10


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]; 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(len(ordered) * q / 100))
    return ordered[rank - 1]


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the nearest-rank ``q``-th."""
    return n - max(1, math.ceil(n * q / 100)) if n else 0


def tail_percentile(samples: Sequence[float], q: float) -> float:
    """The ``q``-th percentile, refused when fewer than
    :data:`TAIL_SAMPLES` samples lie beyond it."""
    if beyond(len(samples), q) < TAIL_SAMPLES:
        raise ValueError(
            f"p{q:g} of {len(samples)} samples has "
            f"{beyond(len(samples), q)} beyond it; the tail rule needs "
            f"{TAIL_SAMPLES}"
        )
    return percentile(samples, q)


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    n = len(ordered)
    if not n:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


class Tally:
    """Items attempted and failed across the repetitions of one run.

    An item fails when it did not complete (a failed campaign cell, a
    non-200 response) or when its completed output is wrong (an oracle
    failure, a value different from the frozen expected one).  An item
    is counted once however many ways it failed.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def add(self, attempted: int, failures: Mapping[str, str]) -> None:
        """Count ``attempted`` items, of which those in ``failures``
        (item id -> a description naming the item) failed."""
        if len(failures) > attempted:
            raise ValueError(
                f"{len(failures)} failures among {attempted} items"
            )
        self.attempted += attempted
        self.failed += len(failures)
        if failures and self.first_failure is None:
            self.first_failure = next(iter(failures.values()))

    @property
    def ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
