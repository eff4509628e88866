"""Batch experiment harness.

Commands: run, compare, geodesic-check, list-problems. Outputs are
machine-readable: run.json (run record), trace.jsonl (one line per
evaluation, schema-versioned header), compare.csv.

Exit codes: 0 success, 1 acceptance/tolerance failure, 2 configuration
error.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import geodesic_search, manifold
from .demes import run_demes
from .domains import PROBLEM_NAMES, make_problem
from .errors import ConfigError, InfoEvoError
from .evolve import EvolutionConfig, RunConfig
from .geodesic_search import StepParams
from .guidance import FilterPolicy
from .promise import PromiseWeights

TRACE_SCHEMA = "trace.v1"
RUN_SCHEMA = "run.v1"
GEODESIC_TOLERANCE = 0.02
# run-record fields compare.csv gives per run, and their median per mode
COMPARE_COLUMNS = (
    "evals_to_target",
    "best_score",
    "candidates_skipped",
    "objective_calls",
)

# One row per run setting: its command-line flag, its config-file section
# (None for the top level of the file), its key there and its type. Each
# key names the field it sets in its section's dataclass (RunConfig for the
# top level), so run.json's config is itself a valid config file.
SETTINGS = (
    ("--problem", None, "problem", str),
    ("--seed", None, "seed", int),
    ("--budget", None, "budget", int),
    ("--mode", None, "mode", str),
    ("--deme-count", None, "deme_count", int),
    ("--bits", "problem_params", "bits", int),
    ("--dim", "problem_params", "dim", int),
    ("--max-depth", "problem_params", "max_depth", int),
    ("--dataset", "problem_params", "dataset", str),
    ("--target", "problem_params", "target", float),
    ("--w-lm", "weights", "w_lm", float),
    ("--k-local", "weights", "k_local", int),
    ("--gamma", "step", "gamma", float),
    ("--ray-count", "step", "ray_count", int),
    ("--resolution", "step", "grid_resolution", int),
    ("--refinement-levels", "step", "refinement_levels", int),
    ("--chart-dim", "step", "chart_dim", int),
    ("--subpop-size", "evolution", "subpop_size", int),
    ("--generations", "evolution", "generations_per_round", int),
    ("--mutation-rate", "evolution", "mutation_rate", float),
    ("--crossover-rate", "evolution", "crossover_rate", float),
    ("--elitism", "evolution", "elitism", int),
    ("--eda-fraction", "evolution", "eda_fraction", float),
    ("--tournament-size", "evolution", "tournament_size", int),
    ("--init-population", "evolution", "init_population", int),
    ("--population-cap", "evolution", "population_cap", int),
    ("--filter-k", "policy", "k", int),
    ("--threshold-quantile", "policy", "threshold_quantile", float),
    ("--lambda", "policy", "lam", float),
)
SECTIONS = ("problem_params", "weights", "step", "evolution", "policy")
JSON_TYPES = {str: str, int: int, float: (int, float)}  # accepted per setting type


def execute_run(cfg: RunConfig, mode: str, seed: int) -> dict:
    """Run one experiment; returns a record with the trace attached."""
    cfg = replace(cfg, mode=mode, seed=seed)
    problem = make_problem(cfg.problem, **cfg.problem_params)
    t0 = time.perf_counter()
    states, trace = run_demes(problem, cfg, np.random.default_rng(seed))
    wall = time.perf_counter() - t0
    bests = [st.best for st in states if st.best is not None]
    best = max(bests, key=lambda s: s.score, default=None)
    stop_reasons = [st.stop_reason for st in states]

    # trace rows are in global evaluation order
    evals_to_target = cfg.budget
    if problem.target is not None:
        for i, row in enumerate(trace):
            if row["score"] >= problem.target:
                evals_to_target = i + 1
                break
    return {
        "schema": RUN_SCHEMA,
        "mode": mode,
        "seed": seed,
        "config": asdict(cfg),
        "success": any(st.success for st in states),
        "stop_reason": stop_reasons[0] if len(states) == 1 else stop_reasons,
        "best_score": best.score if best else None,
        "best_genotype": problem.render(best.genotype) if best else None,
        "eval_count": sum(st.ledger.eval_count for st in states),
        "objective_calls": sum(st.ledger.objective_calls for st in states),
        "candidates_skipped": sum(st.skipped_total for st in states),
        "evals_to_target": evals_to_target,
        "rounds": [asdict(r) for st in states for r in st.reports],
        "wall_time_s": wall,
        "trace": trace,
    }


def write_trace(path: Path, trace: list[dict]):
    with open(path, "w") as fh:
        fh.write(json.dumps({"schema": TRACE_SCHEMA}) + "\n")
        for row in trace:
            fh.write(
                json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
            )


def cmd_run(cfg: RunConfig, out_dir: Path) -> int:
    cfg.validate()
    out_dir.mkdir(parents=True, exist_ok=True)
    modes = ["info_evo", "baseline"] if cfg.mode == "paired" else [cfg.mode]
    records = {}
    for mode in modes:
        record = execute_run(cfg, mode, cfg.seed)
        trace = record.pop("trace")
        suffix = f"_{mode}" if cfg.mode == "paired" else ""
        trace_path = out_dir / f"trace{suffix}.jsonl"
        write_trace(trace_path, trace)
        record["trace_file"] = trace_path.name
        records[mode] = record
    run_path = out_dir / "run.json"
    payload = records[modes[0]] if len(modes) == 1 else {
        "schema": RUN_SCHEMA,
        "mode": "paired",
        "runs": records,
    }
    with open(run_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    print(f"wrote {run_path}")
    return 0


def cmd_compare(cfg: RunConfig, repeats: int, out_dir: Path) -> int:
    cfg.validate()
    if repeats < 1:
        raise ConfigError("repeats", "must be at least 1")
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    per_mode: dict[str, list[dict]] = {"info_evo": [], "baseline": []}
    for offset in range(repeats):
        seed = cfg.seed + offset
        for mode in ("info_evo", "baseline"):
            record = execute_run(cfg, mode, seed)
            row = {"seed": seed, "mode": mode}
            row.update((c, record[c]) for c in COMPARE_COLUMNS)
            rows.append(row)
            per_mode[mode].append(row)
    csv_path = out_dir / "compare.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=["seed", "mode", *COMPARE_COLUMNS])
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        for mode in ("info_evo", "baseline"):
            median = {"seed": "median", "mode": mode}
            for c in COMPARE_COLUMNS:
                # a run that evaluates nothing has no best score; the cell
                # is the median of the runs that have one, empty if none
                values = [r[c] for r in per_mode[mode] if r[c] is not None]
                median[c] = float(np.median(values)) if values else None
            writer.writerow(median)
    print(f"wrote {csv_path}")
    return 0


def geodesic_check(
    n: int,
    trials: int,
    resolution: int,
    refinement_levels: int = 3,
    seed: int = 0,
    verbose: bool = True,
) -> tuple[float, list[tuple[float, float]]]:
    """Compare grid geodesic lengths against the closed form.

    Every trial's path is drawn first and all are refined in one call.
    Returns (largest absolute relative error, per-trial (exact, refined)
    lengths).
    """
    if n < 3:
        raise ConfigError("n", "needs n >= 3")
    if trials < 1:
        raise ConfigError("trials", "must be at least 1")
    if resolution < 1:
        raise ConfigError("resolution", "must be at least 1")
    if refinement_levels < 0:
        raise ConfigError("refinement_levels", "must be nonnegative")
    rng = np.random.default_rng(seed)
    radius = 0.9
    trial_paths = []  # (exact, raw lattice path) of each trial
    for _ in range(trials):
        base = manifold.from_weights(rng.uniform(0.2, 1.0, size=n))
        chart = geodesic_search.build_chart(
            base, rng.uniform(0.0, 1.0, size=n), d=2, rng=rng, radius=radius
        )
        while True:
            start = rng.uniform(-radius, radius, size=2) * 0.5
            goal = rng.uniform(-radius, radius, size=2) * 0.5
            exact = manifold.geodesic_distance_exact(
                chart.point(start), chart.point(goal)
            )
            if 0.2 <= exact <= 0.8:
                break
        (raw,) = geodesic_search.dijkstra_geodesic(chart, start, [goal], resolution)
        trial_paths.append((exact, raw))
    refined_paths = geodesic_search.refine_polyline(
        [raw for _, raw in trial_paths], refinement_levels
    )
    results = []
    max_err = 0.0
    for t, ((exact, raw), refined) in enumerate(zip(trial_paths, refined_paths)):
        err = (refined.length - exact) / exact
        max_err = max(max_err, abs(err))
        results.append((exact, refined.length))
        if verbose:
            print(
                f"n={n} trial={t} exact={exact:.6f} grid={raw.length:.6f} "
                f"refined={refined.length:.6f} rel_err={err:.4%}"
            )
    return max_err, results


def cmd_geodesic_check(args) -> int:
    worst = 0.0
    for n in args.n:
        max_err, _ = geodesic_check(
            n,
            args.trials,
            args.resolution,
            args.refinement_levels,
            seed=args.seed,
            verbose=not args.quiet,
        )
        print(f"n={n}: max relative error {max_err:.4%}")
        worst = max(worst, max_err)
    print(f"overall max relative error {worst:.4%} (tolerance {GEODESIC_TOLERANCE:.0%})")
    return 0 if worst <= GEODESIC_TOLERANCE else 1


def _key(section: str | None, name: str) -> str:
    return f"{section}.{name}" if section else name


def _read_config(path: str, given: dict):
    """Add a config file's settings to ``given``, checking each key and type."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"invalid JSON in {path}: {e}")
    if not isinstance(data, dict):
        raise ConfigError("config", f"{path} must hold a JSON object")
    kinds = {(section, name): kind for _, section, name, kind in SETTINGS}
    for top_name, top_value in data.items():
        if top_name in SECTIONS:
            if not isinstance(top_value, dict):
                raise ConfigError(top_name, "must be a JSON object")
            section, values = top_name, top_value
        else:
            section, values = None, {top_name: top_value}
        for name, value in values.items():
            kind = kinds.get((section, name))
            if kind is None:
                raise ConfigError(_key(section, name), "unknown config key")
            # JSON true/false would pass as int; an int is a valid float
            if isinstance(value, bool) or not isinstance(value, JSON_TYPES[kind]):
                raise ConfigError(
                    _key(section, name),
                    f"expected {kind.__name__}, got {json.dumps(value)}",
                )
            given[section][name] = kind(value)


def _build(section: str, cls, **values):
    """One settings dataclass from the values given; errors name the section."""
    try:
        return cls(**values)
    except (TypeError, ValueError) as e:
        raise ConfigError(section, str(e))


def build_run_config(args) -> RunConfig:
    """Merge config file (if given) with command-line flags; flags win.

    Each settings dataclass is built only from the values given, so a
    setting given nowhere takes its dataclass default.
    """
    given: dict = {section: {} for section in (None, *SECTIONS)}
    if args.config:
        _read_config(args.config, given)
    for flag, section, name, _ in SETTINGS:
        if getattr(args, _dest(flag)) is not None:
            given[section][name] = getattr(args, _dest(flag))
    return RunConfig(
        **given[None],
        problem_params=given["problem_params"],
        weights=_build("weights", PromiseWeights, **given["weights"]),
        step=_build("step", StepParams, **given["step"]),
        evolution=_build("evolution", EvolutionConfig, **given["evolution"]),
        policy=_build("policy", FilterPolicy, **given["policy"]),
    )


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _add_run_flags(p: argparse.ArgumentParser):
    """The flags of a command that builds a run: its config file, its
    output directory and every setting."""
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", default="out", help="output directory")
    for flag, section, name, kind in SETTINGS:
        p.add_argument(flag, dest=_dest(flag), metavar=_key(section, name), type=kind)


def build_parser() -> argparse.ArgumentParser:
    """The command line. No parser takes an abbreviated flag, so a flag
    that is not a setting's (``--h``, or a removed setting's) exits 2
    rather than being read as a prefix of one that is."""
    parser = argparse.ArgumentParser(prog="info-evo", allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment", allow_abbrev=False)
    _add_run_flags(p_run)

    p_cmp = sub.add_parser(
        "compare", help="paired guided vs baseline runs", allow_abbrev=False
    )
    _add_run_flags(p_cmp)
    p_cmp.add_argument("--repeats", type=int, default=3)

    p_geo = sub.add_parser(
        "geodesic-check", help="grid vs closed-form geodesics", allow_abbrev=False
    )
    p_geo.add_argument("--seed", type=int, default=0)
    p_geo.add_argument("--n", type=int, nargs="+", default=[3, 5, 10])
    p_geo.add_argument("--trials", type=int, default=50)
    p_geo.add_argument("--resolution", type=int, default=32)
    p_geo.add_argument(
        "--refinement-levels", dest="refinement_levels", type=int, default=3
    )
    p_geo.add_argument("--quiet", action="store_true")

    sub.add_parser("list-problems", help="show registered problems", allow_abbrev=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-problems":
            for name in PROBLEM_NAMES:
                print(name)
            return 0
        if args.command == "geodesic-check":
            return cmd_geodesic_check(args)
        cfg = build_run_config(args)
        out_dir = Path(args.out)
        if args.command == "run":
            return cmd_run(cfg, out_dir)
        if args.command == "compare":
            # a config file's mode is accepted, as run.json's config holds one
            if args.mode is not None:
                raise ConfigError("mode", "compare runs both modes")
            return cmd_compare(cfg, args.repeats, out_dir)
        raise ConfigError("command", f"unknown command {args.command!r}")
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except InfoEvoError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
