"""Workload definitions and set-up.

Set-up imports ``infoevo`` from the ``src`` directory of the checkout
this file sits in, writes the workload's dataset and builds its run
configurations and problem. Run as a script, it sets up one workload in
a fresh interpreter, prints the seconds from just before ``infoevo`` is
imported to the end of set-up, and exits; ``run.py`` reports the median
of several such processes as ``setup_s``.

Usage: python3 perfbench/prepare.py --workload NAME
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
DATASET = OUT / "cubic.csv"
ONEMAX_BITS = 50
BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def pin_blas_threads():
    """One BLAS thread; takes effect only before numpy is imported."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"


def import_program():
    """Import ``infoevo`` from this checkout's sources, never elsewhere."""
    package = SRC / "infoevo"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no infoevo sources at {package}")
    sys.path.insert(0, str(SRC))
    import infoevo

    if Path(infoevo.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported infoevo from {infoevo.__file__}")
    return infoevo


@dataclass(frozen=True)
class Workload:
    """One workload; README.md says why each was chosen."""

    name: str
    problem: str
    mode: str  # "info_evo" (guided) or "baseline"
    seeds: tuple[int, ...]  # program seeds of one round
    population_cap: int = 256
    budget: int = 20000


WORKLOADS = {
    w.name: w
    for w in (
        Workload("onemax50-guided", "onemax", "info_evo", (1, 2, 3)),
        Workload("onemax50-baseline", "onemax", "baseline", (1, 2, 3)),
        Workload(
            "symreg-cubic-cap64-guided",
            "symreg",
            "info_evo",
            (5,),
            population_cap=64,
            budget=2000,
        ),
    )
}


@dataclass
class Prepared:
    workload: Workload
    configs: dict  # program seed -> RunConfig
    target: object  # OneMaxTarget or CubicTarget from checks


def prepare(name: str) -> Prepared:
    """Import the program and build the workload's inputs."""
    import_program()
    from infoevo.cli import RunConfig
    from infoevo.domains import make_problem
    from infoevo.evolve import EvolutionConfig
    from infoevo.geodesic_search import EXACT_RAYS_THRESHOLD

    from checks import MSE_TOLERANCE, CubicTarget, OneMaxTarget
    from make_dataset import dataset_rows, write_dataset

    w = WORKLOADS[name]
    if w.problem == "onemax":
        params = {"bits": ONEMAX_BITS}
        target = OneMaxTarget(ONEMAX_BITS)
        program_target = float(ONEMAX_BITS)
    else:
        params = {"dataset": str(write_dataset(DATASET))}
        target = CubicTarget(dataset_rows())
        program_target = -MSE_TOLERANCE  # the score is -MSE
        if w.population_cap > EXACT_RAYS_THRESHOLD:
            raise SystemExit(
                f"error: {name} caps the view at {w.population_cap} > "
                f"{EXACT_RAYS_THRESHOLD}, so rays would not take the lattice path"
            )
    configs = {
        seed: RunConfig(
            problem=w.problem,
            problem_params=params,
            budget=w.budget,
            seed=seed,
            mode=w.mode,
            evolution=EvolutionConfig(population_cap=w.population_cap),
        )
        for seed in w.seeds
    }
    problem = make_problem(w.problem, **params)
    if problem.target != program_target:
        raise SystemExit(
            f"error: {name}: the program's target {problem.target} is not the "
            f"one the benchmark checks ({program_target})"
        )
    return Prepared(w, configs, target)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    name = parser.parse_args().workload
    pin_blas_threads()
    t0 = time.perf_counter()  # interpreter start-up is left out
    prepare(name)
    print(f"{time.perf_counter() - t0:.9f}")
