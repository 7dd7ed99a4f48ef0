"""Configurations and patterns (paper Section 2.3).

A **configuration** is the contents of a window over the schedule,
``p`` processors wide and ``k + 1`` cycles high (``k`` = the largest
communication cost).  Two configurations are *identical* when one's
node set is a shifted form of the other's (all iteration indices offset
by the same ``d``) and the placements coincide cell-for-cell
(Definitions 1 and 2).

Theorem 1 proves the greedy schedule of the Cyclic subset must
eventually show two identical configurations, and that the schedule
segment between them — the **pattern** — repeats forever after.  The
scheduler therefore (1) hashes each stable window, (2) on a hash
collision with an earlier window verifies that the whole segment
between the two windows repeats, shifted, as the segment that follows
(our implementation verifies one full extra period instead of leaning
on Lemma 6, which makes termination detection sound independently of
any implementation detail of the greedy loop), and (3) additionally
checks the segment covers each node exactly ``d`` times with contiguous
iteration ranges, so the pattern can be *expanded* into a complete
schedule for any iteration count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from repro._types import Op
from repro.core.schedule import Placement, Schedule
from repro.errors import SchedulingError

__all__ = ["Cell", "configuration_key", "Pattern", "placements_of"]

# One grid cell: (node, iteration, phase-within-op) or None when idle.
Cell = "tuple[str, int, int] | None"


def configuration_key(
    grid: dict[tuple[int, int], tuple[str, int, int]],
    processors: Sequence[int],
    top: int,
    height: int,
) -> tuple | None:
    """Canonical key of the window at cycles ``[top, top+height)``.

    Iteration numbers are normalized by subtracting the window's
    minimum iteration, so two windows that are shifted forms of each
    other (Definition 1) produce equal keys.  Returns ``(base, key)``'s
    key part with the base folded out; ``None`` for an all-idle window
    (no shift distance can be derived from it).
    """
    cells: list[tuple[int, int, str, int, int]] = []
    base: int | None = None
    for j in processors:
        for c in range(top, top + height):
            cell = grid.get((j, c))
            if cell is not None:
                node, it, phase = cell
                if base is None or it < base:
                    base = it
                cells.append((j, c - top, node, it, phase))
    if base is None:
        return None
    key = tuple(
        (j, rc, node, it - base, phase) for j, rc, node, it, phase in cells
    )
    return (base, key)


def placements_of(
    rows: list[tuple[int, int, str, int, int]]
) -> tuple[Placement, ...]:
    """Sorted placements from ``(start, proc, node, iteration, latency)`` rows.

    Sorting the plain tuples gives the order of sorting the
    :class:`Placement` values themselves (field order ``start, proc,
    op, latency`` with ``op = (node, iteration)``) without going
    through the dataclass comparison; ``rows`` is sorted in place.
    """
    rows.sort()
    return tuple(
        [
            Placement(start, proc, Op(node, it), lat)
            for start, proc, node, it, lat in rows
        ]
    )


@dataclass(frozen=True)
class Pattern:
    """A detected repeating pattern of the Cyclic schedule.

    Attributes
    ----------
    start:
        Cycle at which the first repetition begins.
    period:
        Height of the pattern in cycles (paper's ``H``).
    iter_shift:
        Iterations advanced per repetition (paper's shifting ``d``).
    prelude:
        Placements before ``start`` (the transient head).
    kernel:
        Placements with start in ``[start, start + period)``.
    processors:
        Processor count of the underlying schedule.
    """

    start: int
    period: int
    iter_shift: int
    prelude: tuple[Placement, ...]
    kernel: tuple[Placement, ...]
    processors: int

    def __post_init__(self) -> None:
        if self.period < 1:
            raise SchedulingError(f"pattern period must be >= 1: {self.period}")
        if self.iter_shift < 1:
            raise SchedulingError(
                f"pattern iteration shift must be >= 1: {self.iter_shift}"
            )
        if not self.kernel:
            raise SchedulingError("pattern kernel is empty")

    @property
    def height(self) -> int:
        """Paper's ``H`` — cycles per repetition."""
        return self.period

    def cycles_per_iteration(self) -> float:
        """Steady-state execution rate of the Cyclic subset."""
        return self.period / self.iter_shift

    def used_processors(self) -> list[int]:
        procs = {p.proc for p in self.kernel} | {p.proc for p in self.prelude}
        return sorted(procs)

    def node_names(self) -> list[str]:
        names: list[str] = []
        for p in self.kernel:
            if p.op.node not in names:
                names.append(p.op.node)
        return names

    def kernel_iteration_range(self, node: str) -> tuple[int, int]:
        """Iterations of ``node`` inside the kernel: [lo, hi)."""
        its = sorted(p.op.iteration for p in self.kernel if p.op.node == node)
        if not its:
            raise SchedulingError(f"node {node!r} missing from pattern kernel")
        return its[0], its[-1] + 1

    def check_coverage(
        self, expected_nodes: Sequence[str] | None = None
    ) -> None:
        """Verify prelude + repeated kernel tile all instances exactly once.

        Repetition ``r`` of the kernel executes iterations
        ``S_v + r * iter_shift`` of node ``v``, where ``S_v`` is the
        kernel's iteration set for ``v``.  The repetitions cover every
        iteration of ``v`` exactly once iff ``S_v`` has exactly
        ``iter_shift`` elements forming a complete residue system
        modulo ``iter_shift``, and the prelude supplies exactly the
        "holes" below each kernel element (iterations congruent to it
        but smaller).  ``S_v`` need not be contiguous: per-processor
        placement is append-only but not globally time-monotone per
        node, so a kernel can legitimately contain, say, iterations
        {9, 11..53, 55}.  Raises :class:`SchedulingError` otherwise.

        ``expected_nodes`` is the full node set the kernel must cover.
        Without it a node can escape every check: when all of a node's
        placements lie *beyond* the verified segment (its instances
        lagged in the ready queue while the rest of the graph raced
        ahead), it appears in neither prelude nor kernel, the two
        windows match vacuously, and expansion would silently drop the
        node from the program.
        """
        d = self.iter_shift
        nodes = self.node_names()
        if expected_nodes is not None:
            missing = sorted(set(expected_nodes) - set(nodes))
            if missing:
                raise SchedulingError(
                    f"kernel is missing node(s) {missing}: the matched "
                    "windows predate these nodes' first placements"
                )
        prelude_by_node: dict[str, list[int]] = {n: [] for n in nodes}
        for p in self.prelude:
            if p.op.node not in prelude_by_node:
                raise SchedulingError(
                    f"prelude node {p.op.node!r} never recurs in the kernel"
                )
            prelude_by_node[p.op.node].append(p.op.iteration)
        for n in nodes:
            kernel_its = sorted(
                p.op.iteration for p in self.kernel if p.op.node == n
            )
            if len(kernel_its) != d or len({i % d for i in kernel_its}) != d:
                raise SchedulingError(
                    f"kernel iterations of {n!r} are {kernel_its}: not a "
                    f"complete residue system modulo iter_shift={d}"
                )
            holes = sorted(
                i for s in kernel_its for i in range(s % d, s, d)
            )
            if sorted(prelude_by_node[n]) != holes:
                raise SchedulingError(
                    f"prelude iterations of {n!r} are "
                    f"{sorted(prelude_by_node[n])}, expected {holes}"
                )

    def with_nodes(self, mapping: Mapping[str, str]) -> "Pattern":
        """The same pattern with node names translated via ``mapping``.

        Placements are re-sorted, so the result is exactly the pattern
        the scheduler would have produced for the renamed graph (tuple
        order participates in ``Pattern`` equality, and a rename can
        reorder name-tied placements).  The scheduler's cross-graph
        memo uses this to store one canonical pattern per structural
        graph and remap it to each caller's node names.
        """

        def rename(ps: tuple[Placement, ...]) -> tuple[Placement, ...]:
            return placements_of(
                [
                    (p.start, p.proc, mapping[p.op.node], p.op.iteration,
                     p.latency)
                    for p in ps
                ]
            )

        return Pattern(
            start=self.start,
            period=self.period,
            iter_shift=self.iter_shift,
            prelude=rename(self.prelude),
            kernel=rename(self.kernel),
            processors=self.processors,
        )

    def _unrolled(
        self, iterations: int
    ) -> Iterator[tuple[Op, int, int, int]]:
        """``(op, proc, start, latency)`` of every placement in ``[0, N)``.

        The expansion order: the prelude, then kernel repetition ``r``
        shifted ``r * period`` cycles and ``r * iter_shift``
        iterations — the modulo-schedule view of the pattern, with
        period ``H`` as its initiation interval.  Instances at
        iterations ``>= iterations`` are dropped.
        """
        if iterations < 0:
            raise SchedulingError("iterations must be >= 0")
        for p in self.prelude:
            if p.op.iteration < iterations:
                yield p.op, p.proc, p.start, p.latency
        kernel = [
            (p.op.node, p.op.iteration, p.proc, p.start, p.latency)
            for p in self.kernel
        ]
        first = min(it for _node, it, _proc, _start, _lat in kernel)
        shift, cycles = 0, 0
        while first + shift < iterations:
            for node, it, proc, start, lat in kernel:
                if it + shift < iterations:
                    yield Op(node, it + shift), proc, start + cycles, lat
            shift += self.iter_shift
            cycles += self.period

    def expand(self, iterations: int) -> Schedule:
        """Unroll the pattern into a complete schedule for ``[0, N)``.

        Repetition ``r`` of the kernel is shifted ``r * period`` cycles
        and ``r * iter_shift`` iterations; instances at iterations
        ``>= iterations`` are dropped.
        """
        sched = Schedule(self.processors)
        for op, proc, start, lat in self._unrolled(iterations):
            sched.add(op, proc, start, lat)
        return sched

    def expand_rows(
        self, iterations: int
    ) -> tuple[list[list[Op]], list[list[int]]]:
        """Per-processor op rows of :meth:`expand`, without the schedule.

        Returns ``(rows, starts)``: ``rows[j]`` equals
        ``[p.op for p in expand(iterations).ops_on(j)]`` and
        ``starts[j]`` the matching start cycles.  The same unrolling
        loop as :meth:`expand`, minus the ``Placement`` objects; it
        assumes what :meth:`check_coverage` verifies for every pattern
        the scheduler emits — no instance is placed twice.
        """
        rows: list[list[Op]] = [[] for _ in range(self.processors)]
        starts: list[list[int]] = [[] for _ in range(self.processors)]
        in_order = True
        for op, proc, start, _lat in self._unrolled(iterations):
            row_starts = starts[proc]
            if row_starts and start < row_starts[-1]:
                in_order = False
            rows[proc].append(op)
            row_starts.append(start)
        if not in_order:
            # ops_on's order: placements sorted by (start, op, latency)
            placed: list[list[tuple[int, Op, int]]] = [
                [] for _ in range(self.processors)
            ]
            for op, proc, start, lat in self._unrolled(iterations):
                placed[proc].append((start, op, lat))
            for row in placed:
                row.sort()
            rows = [[op for _s, op, _l in row] for row in placed]
            starts = [[s for s, _op, _l in row] for row in placed]
        return rows, starts

    def describe(self) -> str:
        """One-line human summary."""
        return (
            f"pattern: {self.period} cycles / {self.iter_shift} iteration(s)"
            f" = {self.cycles_per_iteration():.3g} cycles/iter on "
            f"{len(self.used_processors())} processor(s), "
            f"prelude {len(self.prelude)} ops, kernel {len(self.kernel)} ops"
        )
