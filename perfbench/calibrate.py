"""Host speed: fixed pure-Python kernels, timed between repetitions.

On a shared machine the speed at which this process runs Python moves
by up to 2.5x within minutes (other tenants, CPU frequency), far more
than any change the benchmark is meant to resolve.  The benchmark
therefore times a kernel between repetitions and reports every
end-to-end time on a *reference clock*: a duration ``t`` measured
while the kernel took ``c`` seconds is reported as
``t * REFERENCE_S[kind] / c``, the time it would take on a host that
runs the kernel in :data:`REFERENCE_S`.

Code slows by different amounts on a busy host depending on how much
memory it touches, so there are two kernels and each workload names
the one whose time follows its own (``kernel`` on the workload class):

* ``small`` walks a 400-node graph that stays in the CPU's caches;
  it follows the campaigns, which compute on small graphs;
* ``large`` builds and walks a 40 000-node graph in a scattered order;
  it follows ``serve-mixed``, whose requests touch sockets, buffers
  and many short-lived objects.

The kernels are the benchmark's own code and import nothing from the
program, so a change to the program cannot change them.  They do the
kind of work the program does -- attribute access on small objects,
dict reads and writes, generator expressions -- and run with the
cyclic garbage collector off, so the size of the heap the program
leaves behind does not change their time.
"""

from __future__ import annotations

import gc
import time

#: seconds each kernel takes on the reference host (the 2-vCPU Xeon VM
#: the benchmark was built on, Python 3.11, at its usual speed);
#: reported times are scaled to it.
REFERENCE_S = {"small": 0.2, "large": 0.27}


class _Node:
    __slots__ = ("key", "cost", "succ")

    def __init__(self, key: int, cost: int) -> None:
        self.key = key
        self.cost = cost
        self.succ: list[_Node] = []


def _small() -> int:
    nodes = [_Node(i, (i * 7919) % 1009) for i in range(400)]
    for i, node in enumerate(nodes):
        node.succ = [nodes[(i * 31 + j) % 400] for j in range(3)]
    check = 0
    for r in range(230):
        finish: dict[int, int] = {}
        for node in nodes:
            ready = max((finish.get(s.key, 0) for s in node.succ), default=0)
            finish[node.key] = ready + node.cost + r
        order = sorted(finish.items(), key=lambda kv: (kv[1], kv[0]))
        check += order[-1][1] % 97
    return check


def _large() -> int:
    n = 40_000
    nodes = [_Node(i, (i * 7919) % 1009) for i in range(n)]
    for i, node in enumerate(nodes):
        node.succ = [nodes[(i * 7919 + j * 104729) % n] for j in range(3)]
    check = 0
    for r in range(2):
        finish: dict[int, int] = {}
        for node in nodes:
            finish[node.key] = (
                max(finish.get(s.key, 0) for s in node.succ) + node.cost + r
            )
        check += finish[n - 1] % 97
    return check


_KERNELS = {"small": _small, "large": _large}


def kernel_seconds(kind: str) -> float:
    """Time one run of kernel ``kind``, with the cyclic collector off."""
    kernel = _KERNELS[kind]
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


def scale(kind: str, kernel_s: float) -> float:
    """The factor that turns a duration measured while kernel ``kind``
    took ``kernel_s`` into one on the reference clock."""
    return REFERENCE_S[kind] / kernel_s
