"""Problem abstraction shared by all benchmark domains."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class Problem(ABC):
    """A pluggable optimization domain (maximization convention).

    Subclasses supply the scoring function, variation operators, EDA
    loci, the genotypic distance and, optionally, a behavior vector. Scoring must be pure
    and deterministic.
    """

    name: str = "problem"
    dimension: int = 0
    target: float | None = None

    @abstractmethod
    def score(self, genotype) -> float: ...

    @abstractmethod
    def canonical_key(self, genotype): ...

    @abstractmethod
    def random_genotype(self, rng: np.random.Generator): ...

    @abstractmethod
    def mutate(self, genotype, rate: float, rng: np.random.Generator): ...

    @abstractmethod
    def crossover(self, a, b, rng: np.random.Generator): ...

    def loci(self, genotype):
        """Discrete locus values for EDA marginals; None if unsupported."""
        return None

    def from_loci(self, values, rng: np.random.Generator):
        raise NotImplementedError

    def locus_alphabet(self, locus: int):
        """Full value alphabet of a locus; None to infer from observed values."""
        return None

    @abstractmethod
    def d_geno(self, a, b) -> float: ...

    def behavior(self, genotype) -> np.ndarray:
        """Behavior vector; the score itself unless a domain overrides."""
        return np.array([self.score(genotype)], dtype=float)

    def geno_distances(self, x, genotypes) -> np.ndarray:
        """Genotypic distances from x to each genotype; override to vectorize."""
        return np.array([self.d_geno(x, g) for g in genotypes], dtype=float)

    def render(self, genotype) -> str:
        return str(genotype)
