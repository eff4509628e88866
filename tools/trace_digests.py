"""Print the trace digest and counts of a fixed set of runs of one checkout.

Usage: python3 tools/trace_digests.py [CHECKOUT]

CHECKOUT is a source tree of this project (default: the one this file
is in); its ``src`` is imported, and only ``infoevo.cli.execute_run``
and ``RunConfig`` are used, so any checkout that has both can be run.
For each run the script prints its name, the SHA-256 of its trace lines
as ``info-evo run`` writes them (the digest ``perfbench/checks.py``
takes), ``eval_count``, ``objective_calls`` and ``evals_to_target``.
Two checkouts that print the same lines made the same evaluations in
the same order at the same cost.

The runs are the benchmark's seeds (guided and baseline OneMax-50,
guided symreg on the cubic dataset at cap 64), guided sphere-10 and
trap5-30, and guided OneMax-50 and symreg with one setting changed.
The cubic dataset is written with ``perfbench/make_dataset.py`` to a
temporary directory.
"""

from __future__ import annotations

import argparse
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parents[1]

ONEMAX = (("problem", "onemax"), ("problem_params", {"bits": 50}))


def runs(dataset: str):
    """(name, mode, seed, settings) of every run; a setting is a dotted
    RunConfig field path and its value."""
    symreg = (
        ("problem", "symreg"),
        ("problem_params", {"dataset": dataset}),
        ("budget", 2000),
        ("evolution.population_cap", 64),
    )
    sphere = (("problem", "sphere"), ("problem_params", {"dim": 10}))
    trap = (("problem", "trap5"), ("problem_params", {"bits": 30}), ("budget", 3000))
    genotypic = (("policy.metric.kind", "genotypic"),)
    phenotypic = (("policy.metric.kind", "phenotypic"),)
    return (
        ("onemax50-guided-s1", "info_evo", 1, ONEMAX),
        ("onemax50-guided-s2", "info_evo", 2, ONEMAX),
        ("onemax50-guided-s3", "info_evo", 3, ONEMAX),
        ("onemax50-baseline-s1", "baseline", 1, ONEMAX),
        ("symreg-cubic-cap64-s3", "info_evo", 3, symreg),
        ("symreg-cubic-cap64-s5", "info_evo", 5, symreg),
        ("sphere10-s1", "info_evo", 1, sphere),
        ("trap5-30-b3000-s1", "info_evo", 1, trap),
        ("onemax50-genotypic-s1", "info_evo", 1, ONEMAX + genotypic),
        ("onemax50-phenotypic-s1", "info_evo", 1, ONEMAX + phenotypic),
        ("onemax50-projection-s1", "info_evo", 1, ONEMAX + (("omega", "projection"),)),
        ("onemax50-filter-k12-s1", "info_evo", 1, ONEMAX + (("policy.k", 12),)),
        ("onemax50-demes2-s1", "info_evo", 1, ONEMAX + (("deme_count", 2),)),
        ("symreg-cubic-cap64-genotypic-s3", "info_evo", 3, symreg + genotypic),
    )


def with_setting(obj, path: str, value):
    """A copy of the dataclass ``obj`` with the field at ``path`` set."""
    head, _, rest = path.partition(".")
    if rest:
        value = with_setting(getattr(obj, head), rest, value)
    return replace(obj, **{head: value})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(HERE))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE / "perfbench"))
    from checks import trace_digest
    from make_dataset import write_dataset

    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    from infoevo.cli import RunConfig, execute_run

    with tempfile.TemporaryDirectory() as tmp:
        dataset = str(write_dataset(Path(tmp) / "cubic.csv"))
        print("run sha256 eval_count objective_calls evals_to_target")
        for name, mode, seed, settings in runs(dataset):
            cfg = RunConfig()
            for path, value in settings:
                cfg = with_setting(cfg, path, value)
            record = execute_run(cfg, mode, seed)
            print(
                name,
                trace_digest(record["trace"]),
                record["eval_count"],
                record["objective_calls"],
                record["evals_to_target"],
                flush=True,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
