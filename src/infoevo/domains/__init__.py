"""Benchmark problem domains and the problem registry used by the CLI."""

from __future__ import annotations

from ..errors import ConfigError, InfoEvoError
from .base import Problem
from .bitstrings import OneMax, Trap5, score_onemax, score_trap
from .realvec import Rosenbrock, Sphere, score_rosenbrock, score_sphere
from .symreg import SymbolicRegression, eval_tree, load_dataset, tree_str

# registry name -> (class, the problem_params it reads)
PROBLEMS = {
    "onemax": (OneMax, ("bits",)),
    "trap5": (Trap5, ("bits",)),
    "sphere": (Sphere, ("dim", "target")),
    "rosenbrock": (Rosenbrock, ("dim", "target")),
    "symreg": (SymbolicRegression, ("max_depth", "dataset", "target")),
}
PROBLEM_NAMES = tuple(PROBLEMS)


def make_problem(name: str, **params) -> Problem:
    """Build a problem by registry name from the params it reads.

    An unknown name, a param the problem does not read and a value its
    constructor (or the dataset file) rejects raise ``ConfigError``. A
    symreg ``dataset`` is a CSV path; empty means the built-in dataset.
    """
    if name not in PROBLEMS:
        raise ConfigError("problem", f"unknown problem {name!r}; see list-problems")
    cls, known = PROBLEMS[name]
    for key in params:
        if key not in known:
            raise ConfigError(f"problem_params.{key}", f"{name} does not read it")
    kw = dict(params)
    if "dataset" in kw:
        path = kw.pop("dataset")
        if path:
            try:
                kw["probes"], kw["outputs"] = load_dataset(path)
            except (OSError, ValueError) as e:
                raise ConfigError("problem_params.dataset", f"cannot read {path}: {e}")
    try:
        return cls(**kw)
    except (ValueError, InfoEvoError) as e:
        raise ConfigError("problem_params", str(e))


__all__ = [
    "Problem",
    "OneMax",
    "Trap5",
    "Sphere",
    "Rosenbrock",
    "SymbolicRegression",
    "make_problem",
    "PROBLEM_NAMES",
    "score_onemax",
    "score_trap",
    "score_sphere",
    "score_rosenbrock",
    "eval_tree",
    "tree_str",
    "load_dataset",
]
