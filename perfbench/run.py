"""End-to-end and per-layer benchmark of infoevo.

Each workload is a closed loop of back-to-back ``info-evo run``
executions (through ``infoevo.cli.execute_run``) over fixed program
seeds, in one process on one thread. Every run is checked against
computations the benchmark makes itself (see checks.py).

With ``--trace 0`` the command prints the end-to-end metrics, measured
with tracing off: after set-up and a warm-up round it repeats whole
rounds for ``--seconds`` and reports medians over rounds. A calibration
kernel is timed alternately with the program (see kernel.py), and
``wall_ref`` is the program's wall time in units of the kernel's time.
With ``--trace 1`` it runs one untraced and one traced round and prints
the per-layer metrics (see layers.py).

``--seed`` draws the order of the program seeds within each round and
the calibration kernel's data; the program seeds themselves are fixed
by the workload, so the counts repeat exactly.

``--workload all`` runs every workload, one after another, each in a
child process of its own, and prefixes each metric with its workload.

Usage:
  python3 perfbench/run.py --workload onemax50-guided --seed 1 --seconds 20 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext

import checks
import prepare

SETUP_REPS = 15


def time_setup(name: str) -> float:
    """Set-up time of one fresh process, as the process measures it."""
    out = subprocess.run(
        [sys.executable, str(prepare.HERE / "prepare.py"), "--workload", name],
        check=True,
        stdout=subprocess.PIPE,
        text=True,
    ).stdout
    return float(out.split()[-1])


class Bench:
    """Runs one workload's seeds and checks every result."""

    def __init__(self, prep, order):
        import layers
        from infoevo import cli

        self.layers = layers
        self.cli = cli
        self.prep = prep
        self.order = order
        self.errors: list[str] = []
        self.runs = 0
        self.reference: dict[int, tuple] = {}  # seed -> (digest, calls, evals)

    def run_seed(self, seed: int, probe, sampler=None):
        """One checked execute_run; returns (record, program seconds).

        Program seconds are the run's wall time less the kernel passes
        the sampler timed during it.
        """
        cfg = self.prep.configs[seed]
        execute_run = self.cli.execute_run
        if probe.traced:
            execute_run = probe.timed("cli.execute_run", execute_run)
        probe.start_run()
        gc.collect()  # start every run from the same collector state
        spent = sampler.spent if sampler else 0.0
        with probe.installed(), sampler.armed() if sampler else nullcontext():
            t0 = time.perf_counter()
            record = execute_run(cfg, cfg.mode, seed)
            wall = time.perf_counter() - t0
        if sampler:
            wall -= sampler.spent - spent
        self.runs += 1
        self.check(seed, record, probe.observed)
        return record, wall

    def check(self, seed: int, record: dict, observed):
        w = self.prep.workload
        cfg = self.prep.configs[seed]
        errs = checks.check_run(
            self.prep.target,
            record,
            observed,
            budget=cfg.budget,
            init_population=cfg.evolution.init_population,
            guided=w.mode == "info_evo",
        )
        key = (
            checks.trace_digest(record["trace"]),
            observed.objective_calls,
            record["eval_count"],
        )
        ref = self.reference.setdefault(seed, key)
        if key != ref:
            errs.append(f"rerun gave (digest, objective calls, evals) {key}, first {ref}")
        self.errors += [f"{w.name} seed {seed}: {e}" for e in errs]

    def round(self, probe=None, sampler=None):
        """Run every seed once; returns per-round sums.

        With a sampler, ``ref`` is the round's program time divided by
        the mean time of the kernel passes made during the round, one of
        them just before it.
        """
        out = {"wall": 0.0, "ref": 0.0, "evals": 0, "calls": 0, "to_target": 0, "rounds": 0}
        if sampler:
            first = len(sampler.times)
            gc.collect()
            sampler.sample()
        for seed in self.order:
            p = probe or self.layers.Probe(traced=False)
            record, wall = self.run_seed(seed, p, sampler)
            out["wall"] += wall
            out["evals"] += record["eval_count"]
            out["calls"] += p.observed.objective_calls
            out["to_target"] += record["evals_to_target"]
            out["rounds"] += len(record["rounds"])
        if sampler:
            out["ref"] = out["wall"] / statistics.fmean(sampler.times[first:])
        return out


def end_to_end(bench: Bench, name: str, seed: int, seconds: float) -> dict:
    from kernel import CalibrationKernel, KernelSampler

    # set-up samples are spread over the run (one before the warm-up, the
    # rest after the timed rounds, in step with the time measured) so that
    # their median sees the machine in more than one state; their time does
    # not count against --seconds
    setups = [time_setup(name)]
    sampler = KernelSampler(CalibrationKernel(seed))
    sampler.sample()  # warm the kernel's caches too
    bench.round()  # warm-up; also fixes the reference digests
    rounds = []
    measured = 0.0
    while not rounds or measured < seconds:
        t0 = time.perf_counter()
        r = bench.round(sampler=sampler)
        measured += time.perf_counter() - t0
        rounds.append(r)
        print(
            f"{name}: round {len(rounds)} program {r['wall']:.4f} s, "
            f"{r['ref']:.3f} kernel units, {r['evals'] / r['wall']:.1f} evals/s"
        )
        while len(setups) < 1 + (SETUP_REPS - 1) * min(1.0, measured / seconds):
            setups.append(time_setup(name))
    print(f"{name}: set-up seconds " + " ".join(f"{t:.4f}" for t in setups))
    for key in ("evals", "calls", "to_target"):
        if len({r[key] for r in rounds}) != 1:
            bench.errors.append(f"{name}: {key} differs between rounds")
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "wall_ref": (statistics.median(r["ref"] for r in rounds), "ratio"),
        "objective_calls": (rounds[0]["calls"], "count"),
        "evals_to_target": (rounds[0]["to_target"], "count"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }


def per_layer(bench: Bench, name: str) -> dict:
    from infoevo.geodesic_search import EXACT_RAYS_THRESHOLD

    bench.round()  # warm-up; also fixes the reference digests
    untraced = bench.round()
    probe = bench.layers.Probe(traced=True)
    traced = bench.round(probe=probe)
    tolerance = bench.layers.STEP_TOLERANCE
    bad_steps = [e for e in probe.step_errors if e > tolerance]
    if bad_steps:
        bench.errors.append(
            f"{name}: {len(bad_steps)} of {len(probe.step_errors)} step_along "
            f"results off by more than {tolerance:.0%} (worst {max(bad_steps):.2%})"
        )
    if bench.prep.workload.population_cap <= EXACT_RAYS_THRESHOLD:
        if max(probe.chart_sizes, default=0) > EXACT_RAYS_THRESHOLD:
            bench.errors.append(f"{name}: a view exceeded {EXACT_RAYS_THRESHOLD} samples")
        if probe.calls["geodesic_search.dijkstra_geodesic"] == 0:
            bench.errors.append(f"{name}: no ray took the lattice path")
    metrics = probe.layer_metrics(traced["evals"], traced["calls"], traced["rounds"])
    metrics["trace.overhead_s"] = (traced["wall"] - untraced["wall"], "s")
    return metrics


def bench_workload(name: str, seed: int, seconds: float, trace: bool):
    """Returns (errors, runs attempted, metrics)."""
    prep = prepare.prepare(name)
    order = list(prep.workload.seeds)
    random.Random(seed).shuffle(order)
    bench = Bench(prep, order)
    if trace:
        metrics = per_layer(bench, name)
    else:
        metrics = end_to_end(bench, name, seed, seconds)
    return bench.errors, bench.runs, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="infoevo benchmark")
    parser.add_argument("--workload", default="all", choices=["all", *prepare.WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if os.environ.get("PYTHONHASHSEED") != "0":
        # string hashes, and with them dict layouts and timings, would
        # otherwise differ from one process to the next
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    if args.workload == "all":
        return run_all(args)
    prepare.pin_blas_threads()
    prepare.import_program()

    name = args.workload
    errors, attempted, m = bench_workload(name, args.seed, args.seconds, bool(args.trace))
    metrics = {}
    for metric, (value, unit) in m.items():
        print(f"{name:28s} {metric:44s} {value:14.6f} {unit}")
        metrics[metric] = {"value": value, "unit": unit}
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    result = {"correct": not errors, "attempted": attempted, "failed": 0, "metrics": metrics}
    print(json.dumps(result))
    return 0 if not errors else 1


def run_all(args) -> int:
    """Every workload, one after another, each in a fresh child process.

    A process's peak memory is the peak over its whole life, so a child per
    workload keeps each workload's ``peak_rss_mb`` its own.
    """
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in prepare.WORKLOADS:
        argv = ["--workload", name, "--seed", str(args.seed)]
        argv += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        child = subprocess.run(
            [sys.executable, __file__, *argv], stdout=subprocess.PIPE, text=True
        )
        lines = child.stdout.splitlines() or [""]
        print("\n".join(lines[:-1]), flush=True)
        try:
            r = json.loads(lines[-1])
        except json.JSONDecodeError:
            raise SystemExit(f"error: {name} ended with code {child.returncode} and no result")
        result["correct"] = result["correct"] and r["correct"]
        result["attempted"] += r["attempted"]
        result["failed"] += r["failed"]
        for metric, v in r["metrics"].items():
            result["metrics"][f"{name}/{metric}"] = v
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
