"""Calibration kernel owned by the benchmark, and its sampler.

``wall_ref`` divides a workload's wall time by this kernel's time,
measured alternately with the program in the same process, so that the
machine's drift between and within processes divides out. The kernel
copies no program code and does not change when the program does. Its
three parts have the shape of the program's hot loops:

- a kNN query: Hamming distances on a small bit matrix, a lexsort and a
  Python loop over the neighbours (the guided OneMax rounds);
- tree-label multisets of random expression trees counted in dicts, and
  depth profiles built by recursion (the symbolic-regression distance);
- a Dijkstra search over a small lattice with a heap, whose edge weights
  are Bhattacharyya angles between 64-point distributions (the lattice
  geodesic search).

Its inputs come from the benchmark seed; its cost does not depend on it.
"""

from __future__ import annotations

import heapq
import math
import signal
import time
from contextlib import contextmanager

import numpy as np

KNN_QUERIES = 250
TREE_ROWS = 7
TREES = 64
TREE_DEPTH = 4
LATTICE_RADIUS = 9
INTERVAL_S = 0.3  # program time between two kernel passes during a run


def _full_tree(rng, depth: int):
    """A complete binary tree with random labels: its size is fixed."""
    if depth <= 1:
        return ("x", 0) if rng.random() < 0.6 else ("c", float(rng.integers(-1, 3)))
    op = "+-*/"[int(rng.integers(4))]
    return (op, _full_tree(rng, depth - 1), _full_tree(rng, depth - 1))


def _labels(node, out):
    if node[0] in ("x", "c"):
        out.append(f"{node[0]}{node[1]}")
        return out
    out.append(node[0])
    _labels(node[1], out)
    _labels(node[2], out)
    return out


def _profile(node, depth, counts):
    counts[min(depth, len(counts)) - 1] += 1
    if node[0] not in ("x", "c"):
        _profile(node[1], depth + 1, counts)
        _profile(node[2], depth + 1, counts)
    return counts


class CalibrationKernel:
    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.bits = rng.integers(0, 2, size=(256, 50), dtype=np.uint8)
        self.queries = rng.integers(0, 2, size=(KNN_QUERIES, 50), dtype=np.uint8)
        self.ids = np.arange(256)
        self.trees = [_full_tree(rng, TREE_DEPTH) for _ in range(TREES)]
        w = rng.uniform(0.2, 1.0, size=(2 * LATTICE_RADIUS + 1, 64))
        self.log_p = np.log(w / w.sum(axis=1, keepdims=True))
        self.checksum = None

    def _knn(self) -> float:
        total = 0.0
        for q in self.queries:
            d = np.sum(self.bits != q[None, :], axis=1).astype(float)
            hist: dict[int, int] = {}
            for i in np.lexsort((self.ids, d))[:7]:
                di = float(d[i])
                hist[int(di)] = hist.get(int(di), 0) + 1
                total += 1.0 / (di + 1e-9)
            total += max(hist.values())
        return total

    def _trees(self) -> float:
        total = 0.0
        for a in self.trees[:TREE_ROWS]:
            for b in self.trees:
                la, lb = _labels(a, []), _labels(b, [])
                ca: dict[str, int] = {}
                for lbl in la:
                    ca[lbl] = ca.get(lbl, 0) + 1
                shared = sum(1 for lbl in lb if ca.get(lbl, 0) > 0)
                pa = _profile(a, 1, [0] * TREE_DEPTH)
                pb = _profile(b, 1, [0] * TREE_DEPTH)
                total += shared / max(len(la), len(lb)) + sum(
                    abs(x - y) for x, y in zip(pa, pb)
                )
        return total

    def _lattice(self) -> float:
        r = LATTICE_RADIUS
        dist = {(0, 0): 0.0}
        heap = [(0.0, (0, 0))]
        done = set()
        while heap:
            d, key = heapq.heappop(heap)
            if key in done:
                continue
            done.add(key)
            for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1)):
                nk = (key[0] + dx, key[1] + dy)
                if max(abs(nk[0]), abs(nk[1])) > r or nk in done:
                    continue
                a, b = self.log_p[key[0] + r], self.log_p[nk[1] + r]
                bc = float(np.sum(np.exp(0.5 * (a + b))))
                nd = d + 2.0 * math.acos(min(max(bc, 0.0), 1.0))
                if nd < dist.get(nk, math.inf):
                    dist[nk] = nd
                    heapq.heappush(heap, (nd, nk))
        return sum(dist.values())

    def time(self) -> float:
        """Seconds for one pass; checks that the result never changes."""
        t0 = time.perf_counter()
        checksum = (self._knn(), self._trees(), self._lattice())
        dt = time.perf_counter() - t0
        if self.checksum is None:
            self.checksum = checksum
        elif checksum != self.checksum:
            raise RuntimeError("calibration kernel result changed between calls")
        return dt


class KernelSampler:
    """Times kernel passes alternately with the program.

    ``sample`` times one pass now. While ``armed``, a one-shot real-time
    timer interrupts the program after every INTERVAL_S seconds of program
    time, counted across runs; its handler times one pass and re-arms the
    timer. Passes are thus spread evenly over the program's time, whatever
    the program is doing. The kernel touches no program state, so the
    program computes exactly what it would alone.
    """

    def __init__(self, kernel: CalibrationKernel):
        self.kernel = kernel
        self.times: list[float] = []
        self.spent = 0.0  # seconds of all passes so far
        self._left = INTERVAL_S  # program time until the next pass

    def sample(self):
        dt = self.kernel.time()
        self.times.append(dt)
        self.spent += dt

    def _on_alarm(self, signum, frame):
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S)

    @contextmanager
    def armed(self):
        previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self._left)
        try:
            yield self
        finally:
            left, _ = signal.setitimer(signal.ITIMER_REAL, 0)
            self._left = left if left > 0 else INTERVAL_S
            signal.signal(signal.SIGALRM, previous)
