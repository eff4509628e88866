"""Print the trace digest and counts of a fixed set of runs of one checkout.

Usage: python3 tools/trace_digests.py [CHECKOUT]

CHECKOUT is a source tree of this project (default: the one this file
is in); its ``src`` is imported. Each run is given as ``info-evo run``
flags, which the checkout's own ``cli.build_parser`` and
``build_run_config`` turn into its run settings, and is run by its
``cli.execute_run``; so any checkout that has these three and the flags
used can be run, whatever its settings are called inside.
For each run the script prints its name, the SHA-256 of its trace lines
as ``info-evo run`` writes them (the digest ``perfbench/checks.py``
takes), ``eval_count``, ``objective_calls`` and ``evals_to_target``.
Two checkouts that print the same lines made the same evaluations in
the same order at the same cost.

The runs are the benchmark's seeds (guided and baseline OneMax-50,
guided symreg on the cubic dataset at cap 64), guided and unguided
sphere-10, guided rosenbrock-5 and trap5-30 (so both real-vector
problems pin the mutation scale ``SIGMA``), guided OneMax-50 and symreg
with one setting changed (among them a filter k and a promise k_local,
each large enough to set how many neighbors the metric's orders keep,
and a promise weight ``w_lm`` other than the default),
guided symreg on a 3-d chart and on a 1-d chart, whose cone rays
coincide with +-e1 and are refined as a block of duplicate rays, guided
symreg with depth-1 programs, whose view holds six samples, too few
for the filter, so no candidate is screened, guided
trap5-20 with one ray per round, which has rounds whose filter skips
every new candidate, guided OneMax-50 with the filter off, whose new
parents' rows are built by their own neighbor query since no chunk is
screened, guided symreg on the built-in 4-point dataset, unguided symreg
on the cubic dataset, whose runs read program scores only, and runs
through each branch of a bitstring generation drawn from block calls:
unguided trap5-30, guided OneMax-50 whose every offspring is
EDA-sampled, guided OneMax-50 with no crossover and tournaments of one, and
unguided OneMax-50 that always crosses over and flips every bit.
Guided trap5-20 at cap 48 keeps every view small enough for the lattice
search, so it runs that search on a bitstring domain with tied scores.
Guided OneMax-100 packs each genotype into two 64-bit words, so its
Hamming distances sum popcounts over more than one word, as no other
bitstring run here (at most 50 bits, one word) does.
Guided OneMax-20 with a subpopulation of one and no elitism varies
generations of one parent, whose tournaments draw only index 0.
The cubic dataset is written with ``perfbench/make_dataset.py`` to a
temporary directory.

The last line covers the lattice search outside a run: the SHA-256 of
the float64 bytes of the (exact, refined) lengths that
``cli.geodesic_check(n, 50, 32, verbose=False)`` returns for n = 3, 5
and 10, as ``info-evo geodesic-check --n 3 5 10 --trials 50
--resolution 32`` checks them, with ``-`` in the count columns.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parents[1]

def runs(dataset: str):
    """(name, flags) of every run; a run is guided unless its flags say
    ``--mode baseline``."""
    onemax = ["--problem", "onemax", "--bits", "50"]
    symreg = ["--problem", "symreg", "--dataset", dataset, "--budget", "2000"]
    symreg += ["--population-cap", "64"]
    sphere = ["--problem", "sphere", "--dim", "10"]
    rosenbrock = ["--problem", "rosenbrock", "--dim", "5", "--budget", "2000"]
    trap = ["--problem", "trap5", "--bits", "30", "--budget", "3000"]
    genotypic = ["--lambda", "1"]
    phenotypic = ["--lambda", "0"]
    chart3 = ["--chart-dim", "3", "--resolution", "8"]
    chart1 = ["--chart-dim", "1"]
    tiny = symreg[:4] + ["--max-depth", "1", "--budget", "100"]  # a 6-sample view
    one_ray = ["--problem", "trap5", "--bits", "20", "--ray-count", "1", "--budget", "3000"]
    unfiltered = ["--threshold-quantile", "0"]
    # six parents, fewer than the 8 bins of a sphere locus
    subpop6 = ["--budget", "2000", "--subpop-size", "6", "--elitism", "1"]
    builtin = ["--problem", "symreg", "--budget", "1000"]  # the 4-point dataset
    eda_only = ["--eda-fraction", "1"]
    mutation_only = ["--crossover-rate", "0", "--tournament-size", "1"]
    cross_flip = ["--mode", "baseline", "--crossover-rate", "1", "--mutation-rate", "1"]
    trap5_cap48 = ["--problem", "trap5", "--bits", "20", "--population-cap", "48"]
    trap5_cap48 += ["--budget", "2000"]  # every view under the lattice threshold
    onemax100 = ["--problem", "onemax", "--bits", "100", "--budget", "2000"]  # two words
    one_parent = ["--problem", "onemax", "--bits", "20", "--budget", "300"]
    one_parent += ["--subpop-size", "1", "--elitism", "0"]
    return (
        ("onemax50-guided-s1", onemax + ["--seed", "1"]),
        ("onemax50-guided-s2", onemax + ["--seed", "2"]),
        ("onemax50-guided-s3", onemax + ["--seed", "3"]),
        ("onemax50-baseline-s1", onemax + ["--mode", "baseline", "--seed", "1"]),
        ("symreg-cubic-cap64-s3", symreg + ["--seed", "3"]),
        ("symreg-cubic-cap64-s5", symreg + ["--seed", "5"]),
        ("sphere10-s1", sphere + ["--seed", "1"]),
        ("sphere10-baseline-s1", sphere + ["--mode", "baseline", "--seed", "1"]),
        ("rosenbrock5-b2000-s1", rosenbrock + ["--seed", "1"]),
        ("trap5-30-b3000-s1", trap + ["--seed", "1"]),
        ("onemax50-genotypic-s1", onemax + genotypic + ["--seed", "1"]),
        ("onemax50-phenotypic-s1", onemax + phenotypic + ["--seed", "1"]),
        ("onemax50-filter-k12-s1", onemax + ["--filter-k", "12", "--seed", "1"]),
        ("onemax50-klocal9-s1", onemax + ["--k-local", "9", "--seed", "1"]),
        ("onemax50-wlm1-s1", onemax + ["--w-lm", "1", "--seed", "1"]),
        ("onemax50-demes2-s1", onemax + ["--deme-count", "2", "--seed", "1"]),
        ("onemax50-nofilter-s1", onemax + unfiltered + ["--seed", "1"]),
        ("symreg-cubic-cap64-genotypic-s3", symreg + genotypic + ["--seed", "3"]),
        ("symreg-cubic-cap64-chartdim3-res8-s6", symreg + chart3 + ["--seed", "6"]),
        ("symreg-cubic-cap64-chartdim1-s3", symreg + chart1 + ["--seed", "3"]),
        ("symreg-maxdepth1-b100-s1", tiny + ["--seed", "1"]),
        ("trap5-20-rays1-b3000-s1", one_ray + ["--seed", "1"]),
        ("symreg-cubic-cap64-nofilter-s3", symreg + unfiltered + ["--seed", "3"]),
        ("sphere10-subpop6-s1", sphere + subpop6 + ["--seed", "1"]),
        ("symreg-builtin-b1000-s2", builtin + ["--seed", "2"]),
        ("symreg-cubic-cap64-baseline-s3", symreg + ["--mode", "baseline", "--seed", "3"]),
        ("trap5-30-baseline-b3000-s1", trap + ["--mode", "baseline", "--seed", "1"]),
        ("onemax50-eda1-s1", onemax + eda_only + ["--seed", "1"]),
        ("onemax50-cx0-t1-s1", onemax + mutation_only + ["--seed", "1"]),
        (
            "onemax50-baseline-cx1-mut1-b2000-s2",
            onemax + cross_flip + ["--budget", "2000", "--seed", "2"],
        ),
        ("trap5-20-cap48-b2000-s1", trap5_cap48 + ["--seed", "1"]),
        ("onemax100-b2000-s1", onemax100 + ["--seed", "1"]),
        ("onemax20-subpop1-b300-s1", one_parent + ["--seed", "1"]),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", nargs="?", default=str(HERE))
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE / "perfbench"))
    from checks import trace_digest
    from make_dataset import write_dataset

    sys.path.insert(0, str(Path(args.checkout).resolve() / "src"))
    from infoevo.cli import build_parser, build_run_config, execute_run, geodesic_check

    with tempfile.TemporaryDirectory() as tmp:
        dataset = str(write_dataset(Path(tmp) / "cubic.csv"))
        print("run sha256 eval_count objective_calls evals_to_target")
        for name, flags in runs(dataset):
            cfg = build_run_config(build_parser().parse_args(["run", *flags]))
            record = execute_run(cfg, cfg.mode, cfg.seed)
            print(
                name,
                trace_digest(record["trace"]),
                record["eval_count"],
                record["objective_calls"],
                record["evals_to_target"],
                flush=True,
            )
    lengths = hashlib.sha256()
    for n in (3, 5, 10):
        _, results = geodesic_check(n, 50, 32, verbose=False)
        lengths.update(np.array(results, dtype=np.float64).tobytes())
    print("geodesic-check-n3-5-10-t50-r32", lengths.hexdigest(), "- - -")
    return 0


if __name__ == "__main__":
    sys.exit(main())
