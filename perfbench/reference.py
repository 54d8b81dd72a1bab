"""The reference kernel: fixed work, timed beside every operation, that
tracks how fast the host runs at that moment.

The benchmark's machine is a shared virtual machine. Its speed drifts by tens
of percent over seconds to minutes, for the pure-Python loop as much as for
soapbubble, so wall time alone cannot tell a 25% regression from a busy
neighbour. The kernel does the three kinds of work soapbubble's time goes
to, and nothing from soapbubble itself, so no change to the package moves
it:

- a pure-Python arithmetic loop (the interpreter, as in the per-point loops);
- small-array numpy calls (per-call overhead, as in the bisection projection
  and the lemma checks);
- kd-tree queries (compiled, cache-bound, as in the point-cloud distance).

Its inputs come from a fixed seed, not from the workload seed: it is the
same work on every run and every commit. run.py divides each operation's
time by the mean of the passes just before and just after it.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.spatial import cKDTree

PY_ITERATIONS = 1_500_000
NUMPY_CALLS = 25_000
TREE_POINTS = 1500
TREE_QUERIES = 30_000
TREE_K = 8


class Reference:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.tree = cKDTree(rng.standard_normal((TREE_POINTS, 3)))
        self.queries = rng.standard_normal((TREE_QUERIES, 3))
        self.v = rng.standard_normal(3)
        self.run()  # warm-up

    def run(self) -> float:
        """Seconds one pass of the kernel took."""
        t0 = time.perf_counter()
        x = 0.0
        for i in range(PY_ITERATIONS):
            x += (i % 7) * 0.5
        v = self.v
        for _ in range(NUMPY_CALLS):
            x += float(np.sum(v * v)) + float(np.linalg.norm(v))
        for _ in range(2):
            self.tree.query(self.queries, k=TREE_K)
        return time.perf_counter() - t0
