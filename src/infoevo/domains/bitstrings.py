"""Bitstring benchmarks: OneMax and the concatenated 5-bit trap."""

from __future__ import annotations

import numpy as np

from ..errors import BadLength
from .base import Problem

TRAP_BLOCK = 5  # bits per deceptive trap block


def score_onemax(bits: np.ndarray) -> float:
    """The number of ones in ``bits``, a row of 0/1 values.

    Counted as nonzero entries, so the row must hold only 0 and 1, as
    every bitstring genotype does: ``random_genotype`` draws 0/1
    ``uint8`` rows, and ``mutate_rows`` (an XOR with a 0/1 mask),
    ``crossover_rows`` (a choice of parent bits) and ``from_loci_rows``
    (over the alphabet (0, 1)) keep them so. On such a row it is the
    same float as ``float(bits.sum())``."""
    return float(np.count_nonzero(bits))


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

    # Variation in row form only: each operator takes a block of genotype
    # rows and one uniform per bit, so that a generation is varied in one
    # block from block draws of uniforms (see ``evolve._vary_rows``).

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

    def loci(self, genotype):
        return np.asarray(genotype, dtype=np.uint8)

    def stack(self, genotypes) -> np.ndarray:
        """The genotypes' bits packed into 64-bit words, zero padded: an
        (n, ceil(dimension / 64)) ``uint64`` block, one row per
        genotype."""
        bits = np.asarray(genotypes, dtype=np.uint8).reshape(len(genotypes), self.dimension)
        packed = np.packbits(bits, axis=1)
        words = np.zeros((len(packed), -(-packed.shape[1] // 8) * 8), dtype=np.uint8)
        words[:, : packed.shape[1]] = packed
        return words.view(np.uint64)

    def geno_distances(self, xs, stacked) -> np.ndarray:
        """Hamming distances as popcounts of two stacks of packed words:
        the bit counts of each pair's XORed words, summed word by word
        into a float64 block. The first word's XOR is written into the
        block's own memory and counted in place. Every count is an exact
        integer of at most ``dimension``, the same doubles as
        ``|a| + |b| - 2 a.b`` of the 0/1 rows, and no (m, n, bits)
        temporary is built."""
        words = np.bitwise_xor(xs[:, None, 0], stacked[None, :, 0])
        dist = np.bitwise_count(words, out=words.view(float))
        if xs.shape[1] > 1:
            words = np.empty_like(words)
            for w in range(1, xs.shape[1]):
                np.bitwise_xor(xs[:, None, w], stacked[None, :, w], out=words)
                dist += np.bitwise_count(words)
        return dist

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
