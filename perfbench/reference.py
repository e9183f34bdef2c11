"""The fixed reference computation that the benchmark's times are scaled by.

The VM the benchmark runs on changes speed by up to two-fold over tens
of seconds, and a run sees one such phase, so the seconds one run
measures say more about the host than about the program.  Every run
therefore also times this computation, at several points between its
operations and in the processes that run them, and reports operation
times in units of it (``ref``): a run in a slow phase is slow on both.

The computation is a shortest-path-vector propagation over a random
graph, the same kind of work the program's BGP layer does: small
objects, dict and list lookups, tuples and a heap, over a working set
of a few tens of MB.  It never changes with the program; a change to it
is a change of the benchmark's unit.

The CPUs of the VM change speed largely independently of each other.
An operation that runs in one process is scaled by passes in that
process (``reference_s``); one that keeps several processes busy at
once, like a daemon and its clients, by one pass on each CPU at the
same time (``reference_on_cpus``).

    python3 perfbench/reference.py [--cpu N]    # one pass, on CPU N
"""

from __future__ import annotations

import gc
import heapq
import os
import random
import subprocess
import sys
import time
from typing import List

#: Nodes of the random graph; one pass takes ~0.3 s on a 2-CPU VM.
NODES = 20_000
#: Checksum of one pass, so a broken interpreter cannot go unnoticed.
EXPECTED = 60_000


def propagate(nodes: int = NODES) -> int:
    """One pass: build the graph, then propagate paths from three origins."""
    rng = random.Random(12345)
    adjacency = [[] for _ in range(nodes)]
    for node in range(1, nodes):
        other = rng.randrange(node)
        adjacency[node].append(other)
        adjacency[other].append(node)
    for _ in range(nodes):
        a, b = rng.randrange(nodes), rng.randrange(nodes)
        adjacency[a].append(b)
        adjacency[b].append(a)
    reached = 0
    for origin in (0, nodes // 2, nodes - 1):
        best = {origin: (0, (origin,))}
        heap = [(0, origin)]
        while heap:
            distance, node = heapq.heappop(heap)
            length, path = best[node]
            if length < distance:
                continue
            for neighbour in adjacency[node]:
                candidate = (distance + 1, (neighbour,) + path[:6])
                known = best.get(neighbour)
                if known is None or candidate < known:
                    best[neighbour] = candidate
                    heapq.heappush(heap, (distance + 1, neighbour))
        reached += len(best)
    return reached


def reference_s() -> float:
    """Seconds of one pass, with the collector off so that the heap of
    the process it runs in does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reached = propagate()
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if reached != EXPECTED:
        raise RuntimeError(f"reference computation reached {reached} nodes, not {EXPECTED}")
    return elapsed


def reference_on_cpus() -> List[float]:
    """One pass on each CPU this process may use, all at once, each in
    a process of its own pinned to its CPU."""
    procs = [
        subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--cpu", str(cpu)],
            stdout=subprocess.PIPE,
            text=True,
        )
        for cpu in sorted(os.sched_getaffinity(0))
    ]
    outs = [proc.communicate()[0] for proc in procs]
    if any(proc.returncode != 0 for proc in procs):
        raise RuntimeError("a pinned reference pass failed")
    return [float(out.strip().splitlines()[-1]) for out in outs]


if __name__ == "__main__":
    if sys.argv[1:2] == ["--cpu"]:
        os.sched_setaffinity(0, {int(sys.argv[2])})
    print(reference_s())
