"""Small expression-tree symbolic regression.

Trees are nested tuples: ("x", i) for inputs, ("c", v) for constants,
and (op, left, right) for the binary operators +, -, * and protected /.
A tree is its own canonical key.
Programs also have a behavior distance, ``program_fisher_distance``.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

from .. import manifold
from ..errors import NonFiniteOutput
from .base import Problem

OPS = ("+", "-", "*", "/")
CONSTANT_POOL = (0.0, 1.0, 2.0, 0.5, -1.0)
DIV_GUARD = 1e-9  # protected division returns 1 below this magnitude
OVERFLOW_SCORE = -1e18  # finite sentinel for non-finite tree outputs
DEFAULT_PROBES = ((-1.0,), (0.0,), (1.0,), (2.0,))
DEFAULT_OUTPUTS = (0.0, 0.0, 2.0, 6.0)  # f(x) = x^2 + x
BEHAVIOR_EPS = 1e-6  # relative uniform mass mixed into behavior distributions


def _input_columns(probes) -> tuple[np.ndarray, ...]:
    """The probes as read-only float64 input columns, one per input."""
    cols = np.ascontiguousarray(np.array(probes, dtype=float).T)
    cols.flags.writeable = False
    return tuple(cols)


def _node_values(node, columns):
    """A node's outputs over the rows of ``columns``: an array, or a
    Python float when the subtree reads no input."""
    tag = node[0]
    if tag == "x":
        return columns[node[1]]
    if tag == "c":
        return float(node[1])
    a = _node_values(node[1], columns)
    b = _node_values(node[2], columns)
    if tag == "+":
        return a + b
    if tag == "-":
        return a - b
    if tag == "*":
        return a * b
    if isinstance(b, float):
        return 1.0 if abs(b) < DIV_GUARD else a / b
    return np.where(np.abs(b) < DIV_GUARD, 1.0, a / b)


def eval_columns(node, columns, rows: int) -> np.ndarray:
    """The tree's output on each of ``rows`` rows of the input columns,
    one array operation per node; each entry has the bits of the
    one-row arithmetic. The result is a new array, never a column.

    Overflow to +-inf and nan pass through silently, as in Python
    float arithmetic.
    """
    with np.errstate(all="ignore"):
        out = _node_values(node, columns)
    if isinstance(out, float):
        return np.full(rows, out)
    return out.copy() if node[0] == "x" else out


def eval_tree(node, inputs) -> float:
    """The tree's output on one row of inputs."""
    return float(eval_columns(node, _input_columns([inputs]), 1)[0])


def tree_depth(node) -> int:
    if node[0] in ("x", "c"):
        return 1
    return 1 + max(tree_depth(node[1]), tree_depth(node[2]))


def tree_str(node) -> str:
    tag = node[0]
    if tag == "x":
        return f"x{node[1]}"
    if tag == "c":
        return f"{node[1]:g}"
    return f"({tree_str(node[1])} {tag} {tree_str(node[2])})"


def behavior_to_distribution(outputs, eps_b: float = BEHAVIOR_EPS):
    """Normalize a behavior vector to a strictly positive distribution.

    Shifts negative outputs up to zero, mixes in eps_b of the output
    range per coordinate, and renormalizes; a constant vector maps to
    the uniform distribution.
    """
    outputs = np.asarray(outputs, dtype=float)
    if not np.all(np.isfinite(outputs)):
        raise NonFiniteOutput("behavior vector contains non-finite entries")
    lo = outputs.min()
    shifted = outputs - lo if lo < 0 else outputs.copy()
    spread = float(outputs.max() - lo)
    if spread == 0 or shifted.sum() == 0:
        return manifold.uniform(outputs.size)
    shifted = shifted + eps_b * spread
    return manifold.from_weights(shifted)


# no run reads it; kept as the program metric a claim-table arm is to try
def program_fisher_distance(a, b, probes, eps_b: float = BEHAVIOR_EPS) -> float:
    """Geodesic distance between two programs' behavior distributions.

    A pseudometric on behavior space: programs with identical outputs on
    ``probes`` get distance zero even if syntactically distinct.
    """
    columns = _input_columns(probes)
    da = behavior_to_distribution(eval_columns(a, columns, len(probes)), eps_b)
    db = behavior_to_distribution(eval_columns(b, columns, len(probes)), eps_b)
    return manifold.geodesic_distance_exact(da, db)


def _subtree_positions(node, prefix=()) -> list[tuple]:
    positions = [prefix]
    if node[0] not in ("x", "c"):
        positions += _subtree_positions(node[1], prefix + (1,))
        positions += _subtree_positions(node[2], prefix + (2,))
    return positions


def _get_subtree(node, pos):
    for i in pos:
        node = node[i]
    return node


def _replace_subtree(node, pos, repl):
    if not pos:
        return repl
    parts = list(node)
    parts[pos[0]] = _replace_subtree(node[pos[0]], pos[1:], repl)
    return tuple(parts)


def load_dataset(path) -> tuple[tuple[tuple[float, ...], ...], tuple[float, ...]]:
    """Read a CSV with header row: input columns then one output column.

    A row with another value count than the first, a row without an
    input column and a value that is not a finite number raise
    ``ValueError``.
    """
    probes, outputs = [], []
    with open(Path(path), newline="") as fh:
        reader = csv.reader(fh)
        next(reader, None)  # header; an empty file has none
        for row in reader:
            if not row:
                continue
            vals = [float(v) for v in row]
            where = f"line {reader.line_num}"
            if len(vals) < 2:
                raise ValueError(f"{where} has no input column")
            if probes and len(vals) != len(probes[0]) + 1:
                raise ValueError(
                    f"{where} has {len(vals)} values, the first row {len(probes[0]) + 1}"
                )
            if not all(math.isfinite(v) for v in vals):
                raise ValueError(f"{where} has a value that is not finite")
            probes.append(tuple(vals[:-1]))
            outputs.append(vals[-1])
    return tuple(probes), tuple(outputs)


class SymbolicRegression(Problem):
    def __init__(
        self,
        probes=DEFAULT_PROBES,
        outputs=DEFAULT_OUTPUTS,
        max_depth: int = 5,
        target: float | None = -1e-9,
    ):
        if len(probes) == 0:
            raise ValueError("dataset must be nonempty")
        if max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if len({len(p) for p in probes}) > 1:
            raise ValueError("dataset rows have different input counts")
        if len(probes[0]) == 0:
            raise ValueError("dataset has no input column")
        if len(outputs) != len(probes):
            raise ValueError(f"dataset has {len(probes)} input rows and {len(outputs)} outputs")
        self._columns = _input_columns(probes)
        self.outputs = np.asarray(outputs, dtype=float)
        if not (np.isfinite(self._columns).all() and np.isfinite(self.outputs).all()):
            raise ValueError("dataset values must be finite")
        self.n_vars = len(self._columns)
        self.max_depth = max_depth
        self.dimension = self.n_vars
        self.name = f"symreg-d{max_depth}"
        self.target = target
        self._vocabulary: dict[str, int] = {}  # label -> count-vector column

    def _random_leaf(self, rng):
        if rng.random() < 0.6:
            return ("x", int(rng.integers(self.n_vars)))
        return ("c", float(CONSTANT_POOL[rng.integers(len(CONSTANT_POOL))]))

    def _grow(self, rng, depth_left: int):
        if depth_left <= 1 or rng.random() < 0.3:
            return self._random_leaf(rng)
        op = OPS[rng.integers(len(OPS))]
        return (op, self._grow(rng, depth_left - 1), self._grow(rng, depth_left - 1))

    def random_genotype(self, rng):
        return self._grow(rng, self.max_depth)

    def score(self, genotype) -> float:
        """Minus the mean squared error; OVERFLOW_SCORE for a program
        whose outputs, or whose error, are not finite."""
        outs = eval_columns(genotype, self._columns, len(self.outputs))
        if not np.all(np.isfinite(outs)):
            return OVERFLOW_SCORE
        # the squared error of a large finite output may overflow
        with np.errstate(over="ignore"):
            mse = np.mean((outs - self.outputs) ** 2)
        if not np.isfinite(mse):
            return OVERFLOW_SCORE
        return float(-mse)

    def canonical_key(self, genotype) -> tuple:
        """The tree itself: nested tuples hash and compare by structure."""
        return genotype

    def mutate(self, genotype, rate, rng):
        grow = rng.random() < max(rate * 4, 0.3)
        positions = _subtree_positions(genotype)
        pos = positions[rng.integers(len(positions))]
        if grow:  # a tree within max_depth leaves room of at least 1 at pos
            return _replace_subtree(genotype, pos, self._grow(rng, self.max_depth - len(pos)))
        node = _get_subtree(genotype, pos)
        if node[0] in ("x", "c"):
            return _replace_subtree(genotype, pos, self._random_leaf(rng))
        op = OPS[rng.integers(len(OPS))]
        return _replace_subtree(genotype, pos, (op, node[1], node[2]))

    def crossover(self, a, b, rng):
        pa = _subtree_positions(a)
        pb = _subtree_positions(b)
        for _ in range(8):
            pos_a = pa[rng.integers(len(pa))]
            graft = _get_subtree(b, pb[rng.integers(len(pb))])
            if len(pos_a) + tree_depth(graft) <= self.max_depth:
                return _replace_subtree(a, pos_a, graft)
        return a

    def stack(self, genotypes) -> np.ndarray:
        """One row per tree: its depth profile, its label total, then its
        label counts, one column per label seen so far, in the order one
        pre-order walk per tree first meets them."""
        d, vocab = self.max_depth, self._vocabulary
        sizes, levels, labels = [], [], []  # nodes per tree; each node's level and label column
        for tree in genotypes:
            todo = [(tree, 0)]
            before = len(levels)
            while todo:
                node, level = todo.pop()
                tag = node[0]
                if tag == "x":
                    label = f"x{node[1]}"
                elif tag == "c":
                    label = f"c:{node[1]!r}"
                else:
                    label = tag
                    todo += ((node[2], level + 1), (node[1], level + 1))
                levels.append(level)
                labels.append(vocab.setdefault(label, len(vocab)))
            sizes.append(len(levels) - before)
        m, width = len(sizes), d + 1 + len(vocab)
        base = np.repeat(np.arange(m) * width, sizes)  # each node's row, flat
        # per node, one count in its level's column (the last for nodes
        # deeper than d) and one in its label's; empty lists give floats
        cells = np.concatenate((base + np.minimum(levels, d - 1), base + np.add(labels, d + 1)))
        stacked = np.bincount(cells.astype(np.intp), minlength=m * width).astype(float)
        stacked = stacked.reshape(m, width)
        stacked[:, d] = sizes
        stacked[:, :d] /= stacked[:, d : d + 1]
        return stacked

    def geno_distances(self, xs, stacked) -> np.ndarray:
        """Mean of the label-multiset distance and half the L1 distance of
        depth profiles, from each tree of ``xs`` to each tree of
        ``stacked``."""
        d = self.max_depth
        # a label past either stack's columns appeared after that stack was
        # built, so none of its trees has it
        width = min(xs.shape[1], stacked.shape[1])
        x, y = xs[:, None, :width], stacked[None, :, :width]
        overlap = np.minimum(x[..., d + 1 :], y[..., d + 1 :]).sum(axis=2)
        label_term = 1.0 - overlap / np.maximum(x[..., d], y[..., d])
        depth_term = 0.5 * np.abs(y[..., :d] - x[..., :d]).sum(axis=2)
        return 0.5 * (label_term + depth_term)

    def render(self, genotype) -> str:
        return tree_str(genotype)
