"""Bitstring benchmarks: OneMax and the concatenated 5-bit trap."""

from __future__ import annotations

import numpy as np

from ..errors import BadLength
from .base import Problem

TRAP_BLOCK = 5  # bits per deceptive trap block


def score_onemax(bits: np.ndarray) -> float:
    return float(bits.sum())


def score_trap(bits: np.ndarray) -> float:
    """Per block of TRAP_BLOCK bits: a full block of ones scores the block
    size, else it scores block-1 minus the ones count (deceptive gradient
    toward all zeros)."""
    block = TRAP_BLOCK
    if len(bits) % block != 0:
        raise BadLength(f"bit length {len(bits)} not divisible by block {block}")
    # integer sums, exact, so the same double as a running float total
    ones = bits.reshape(-1, block).sum(axis=1).tolist()
    return float(sum(block if o == block else (block - 1) - o for o in ones))


class BitstringProblem(Problem):
    alphabet = (0, 1)

    def __init__(self, bits: int):
        if bits < 1:
            raise BadLength("bit length must be positive")
        self.dimension = bits

    def canonical_key(self, genotype) -> bytes:
        return np.asarray(genotype, dtype=np.uint8).tobytes()

    def random_genotype(self, rng):
        return rng.integers(0, 2, size=self.dimension, dtype=np.uint8)

    # Variation in row form: each operator takes a block of genotype rows
    # and one uniform per bit, so that a generation can be varied in one
    # block from uniforms drawn ahead (see ``evolve.vary``); a 1-d genotype
    # is one row, and the one-offspring operators below are such calls.

    def mutate_rows(self, rows, rate, u):
        """``rows`` with each bit flipped whose uniform in ``u`` is below
        ``rate``."""
        return np.asarray(rows, dtype=np.uint8) ^ (u < rate)

    def crossover_rows(self, a, b, u):
        """Uniform crossover of rows ``a`` and ``b``: each bit from ``a``
        where its uniform in ``u`` is below 0.5, else from ``b``."""
        return np.where(u < 0.5, a, b).astype(np.uint8, copy=False)

    def from_loci_rows(self, values):
        """The genotypes whose loci are the rows of ``values``."""
        return np.asarray(values, dtype=np.uint8)

    def mutate(self, genotype, rate, rng):
        return self.mutate_rows(genotype, rate, rng.random(self.dimension))

    def crossover(self, a, b, rng):
        return self.crossover_rows(a, b, rng.random(self.dimension))

    def loci(self, genotype):
        return np.asarray(genotype, dtype=np.uint8)

    def from_loci(self, values, rng):
        return self.from_loci_rows(values)

    def stack(self, genotypes) -> np.ndarray:
        """An (n, dimension) bit matrix, one row per genotype."""
        mat = np.asarray(genotypes, dtype=np.uint8)
        return mat.reshape(len(genotypes), self.dimension)

    def geno_distances(self, xs, stacked) -> np.ndarray:
        """Hamming distances as ``|a| + |b| - 2 a.b``: every term is an
        integer of at most ``dimension``, so the float64 block is exact
        in any summation order, and no (m, n, bits) temporary is built."""
        a = np.asarray(xs, dtype=float)
        b = np.asarray(stacked, dtype=float)
        return a.sum(axis=1)[:, None] + b.sum(axis=1)[None, :] - 2.0 * (a @ b.T)

    def render(self, genotype) -> str:
        return "".join(str(int(b)) for b in genotype)


class OneMax(BitstringProblem):
    def __init__(self, bits: int = 50):
        super().__init__(bits)
        self.name = f"onemax-{bits}"
        self.target = float(bits)

    def score(self, genotype) -> float:
        return score_onemax(np.asarray(genotype))


class Trap5(BitstringProblem):
    def __init__(self, bits: int = 30):
        if bits % TRAP_BLOCK != 0:
            raise BadLength(f"bit length {bits} not divisible by block {TRAP_BLOCK}")
        super().__init__(bits)
        self.name = f"trap{TRAP_BLOCK}-{bits}"
        self.target = float(bits)

    def score(self, genotype) -> float:
        return score_trap(np.asarray(genotype))
