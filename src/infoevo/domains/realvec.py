"""Real-vector benchmarks on the box [-5, 5]^d: sphere and Rosenbrock."""

from __future__ import annotations

import numpy as np

from .base import Problem

BOX_LO, BOX_HI = -5.0, 5.0
EDA_BINS = 8  # per-coordinate discretization for EDA marginals


def score_sphere(x: np.ndarray) -> float:
    return float(-np.sum(np.asarray(x, dtype=float) ** 2))


def score_rosenbrock(x: np.ndarray) -> float:
    x = np.asarray(x, dtype=float)
    return float(
        -np.sum(100.0 * (x[1:] - x[:-1] ** 2) ** 2 + (1.0 - x[:-1]) ** 2)
    )


class RealVectorProblem(Problem):
    alphabet = tuple(range(EDA_BINS))

    def __init__(self, dim: int, sigma: float = 0.3):
        if dim < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dim
        self.sigma = sigma
        self._bin_width = (BOX_HI - BOX_LO) / EDA_BINS

    def canonical_key(self, genotype) -> bytes:
        return np.asarray(genotype, dtype=np.float64).tobytes()

    def random_genotype(self, rng):
        return rng.uniform(BOX_LO, BOX_HI, size=self.dimension)

    def mutate(self, genotype, rate, rng):
        out = np.asarray(genotype, dtype=float).copy()
        hit = rng.random(self.dimension) < max(rate, 1.0 / self.dimension)
        # scale perturbations down as points approach the optimum so the
        # search can resolve fine differences late in a run
        scale = self.sigma * max(np.sqrt(np.sum(out**2)) / np.sqrt(self.dimension), 1e-4)
        out[hit] += rng.normal(0.0, scale, size=int(np.sum(hit)))
        return np.clip(out, BOX_LO, BOX_HI)

    def crossover(self, a, b, rng):
        w = rng.random(self.dimension)
        return np.clip(w * np.asarray(a) + (1 - w) * np.asarray(b), BOX_LO, BOX_HI)

    def loci(self, genotype):
        idx = np.floor((np.asarray(genotype) - BOX_LO) / self._bin_width).astype(int)
        return [int(i) for i in np.clip(idx, 0, EDA_BINS - 1)]

    def from_loci(self, values, rng):
        lo = BOX_LO + np.asarray(values, dtype=float) * self._bin_width
        return lo + rng.random(self.dimension) * self._bin_width

    def stack(self, genotypes) -> np.ndarray:
        """An (n, dimension) float matrix, one row per genotype."""
        mat = np.asarray(genotypes, dtype=float)
        return mat.reshape(len(genotypes), self.dimension)

    def geno_distances(self, xs, stacked) -> np.ndarray:
        # the last-axis reduction of a one-row call, so that every row of a
        # block equals that call bit for bit
        return np.linalg.norm(stacked[None, :, :] - xs[:, None, :], axis=2)

    def render(self, genotype) -> str:
        return "[" + ", ".join(f"{v:.6g}" for v in genotype) + "]"


class Sphere(RealVectorProblem):
    def __init__(self, dim: int = 10, target: float | None = -1e-3):
        super().__init__(dim)
        self.name = f"sphere-{dim}"
        self.target = target

    def score(self, genotype) -> float:
        return score_sphere(genotype)


class Rosenbrock(RealVectorProblem):
    def __init__(self, dim: int = 5, target: float | None = None):
        super().__init__(dim)
        self.name = f"rosenbrock-{dim}"
        self.target = target

    def score(self, genotype) -> float:
        return score_rosenbrock(genotype)
