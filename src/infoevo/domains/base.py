"""Problem abstraction shared by all benchmark domains."""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np


class Problem(ABC):
    """A pluggable optimization domain (maximization convention).

    Subclasses supply the scoring function, variation operators, the
    genotypic distance and, optionally, EDA loci.
    A domain supplies either the one-offspring operators ``mutate``,
    ``crossover`` and ``from_loci`` or their row forms ``mutate_rows``,
    ``crossover_rows`` and ``from_loci_rows``, which vary a generation
    in one block (see ``evolve.vary``), not both. A domain with row
    forms and loci keeps each genotype as the row of its locus values,
    so a stack of its genotypes is the stack of their loci.
    ``score`` must be a pure and deterministic function of the canonical
    key: a run memoizes it by that key and computes it at most once per
    genotype.
    """

    name: str = "problem"
    dimension: int = 0
    target: float | None = None
    alphabet: tuple = ()  # every value a locus can take; () without loci

    @abstractmethod
    def score(self, genotype) -> float: ...

    @abstractmethod
    def canonical_key(self, genotype): ...

    @abstractmethod
    def random_genotype(self, rng: np.random.Generator): ...

    def mutate(self, genotype, rate: float, rng: np.random.Generator):
        """One mutant of genotype."""
        raise NotImplementedError

    def crossover(self, a, b, rng: np.random.Generator):
        """One offspring of parents a and b."""
        raise NotImplementedError

    def loci(self, genotype):
        """Discrete locus values for EDA marginals; None if unsupported.

        A domain that returns a sequence here gives every genotype the
        same number of loci, each value drawn from ``alphabet``, which it
        sets, and defines ``from_loci`` (or ``from_loci_rows``) too.
        """
        return None

    def from_loci(self, values, rng: np.random.Generator):
        """A genotype whose loci are ``values`` (one per locus, an array)."""
        raise NotImplementedError

    # no run reads it; it stays while perfbench/layers.py looks it up here
    def behavior(self, genotype) -> np.ndarray:
        """Behavior vector: the one-entry vector of the score."""
        return np.array([self.score(genotype)], dtype=float)

    def stack(self, genotypes):
        """The genotypes in the form ``geno_distances`` reads, one entry
        (``len`` of the result) per genotype."""
        return tuple(genotypes)

    @abstractmethod
    def geno_distances(self, xs, stacked) -> np.ndarray:
        """Genotypic distances between two stacks: a float block of shape
        ``(len(xs), len(stacked))`` whose entry ``[i, j]`` is the distance
        from genotype i of ``xs`` to genotype j of ``stacked``, a new
        array the caller may overwrite. One genotype's row is
        ``geno_distances(stack([x]), stacked)[0]``."""

    def render(self, genotype) -> str:
        return str(genotype)
