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
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import geodesic_search, manifold
from .core import DistanceMetric
from .demes import DemeBudget, aggregate_best, run_demes
from .domains import PROBLEM_NAMES, make_problem
from .errors import ConfigError, InfoEvoError
from .evolve import EvolutionConfig, info_evo_loop
from .geodesic_search import StepParams
from .guidance import FilterPolicy, OmegaKind
from .promise import PromiseWeights

TRACE_SCHEMA = "trace.v1"
RUN_SCHEMA = "run.v1"
GEODESIC_TOLERANCE = 0.02


@dataclass
class RunConfig:
    problem: str = "onemax"
    problem_params: dict = field(default_factory=dict)
    budget: int = 20000
    seed: int | None = None
    mode: str = "info_evo"
    weights: PromiseWeights = field(default_factory=PromiseWeights)
    step: StepParams = field(default_factory=StepParams)
    evolution: EvolutionConfig = field(default_factory=EvolutionConfig)
    policy: FilterPolicy = field(default_factory=FilterPolicy)
    omega: OmegaKind = field(default_factory=OmegaKind)
    h_kind: str = "product"
    deme_count: int = 1
    subdemes_per_deme: int = 3

    def validate(self):
        if self.problem not in PROBLEM_NAMES:
            raise ConfigError(
                "problem", f"unknown problem {self.problem!r}; see list-problems"
            )
        if self.seed is None:
            raise ConfigError("seed", "a seed is mandatory")
        if self.budget < 1:
            raise ConfigError("budget", "budget must be positive")
        if self.mode not in ("info_evo", "baseline", "paired"):
            raise ConfigError("mode", f"unknown mode {self.mode!r}")
        if self.deme_count < 1:
            raise ConfigError("deme_count", "must be at least 1")
        if self.subdemes_per_deme < 1:
            raise ConfigError("subdemes_per_deme", "must be at least 1")

    def snapshot(self) -> dict:
        d = asdict(self)
        d["metric"] = {"kind": self.policy.metric.kind, "lam": self.policy.metric.lam}
        return d


def _baseline_variant(cfg: RunConfig) -> RunConfig:
    policy = FilterPolicy(
        k=cfg.policy.k, threshold_quantile=0.0, metric=cfg.policy.metric
    )
    return replace(cfg, mode="baseline", policy=policy)


def execute_run(cfg: RunConfig, mode: str, seed: int) -> dict:
    """Run one experiment; returns a record with the trace attached."""
    problem = make_problem(cfg.problem, **cfg.problem_params)
    run_cfg = cfg if mode != "baseline" else _baseline_variant(cfg)
    evo = replace(run_cfg.evolution, seed=seed)
    t0 = time.perf_counter()
    if cfg.deme_count > 1:
        budget = DemeBudget(
            total=cfg.budget, subdemes_per_deme=cfg.subdemes_per_deme
        )
        rng = np.random.default_rng(seed)
        demes, states, reports, trace = run_demes(
            problem,
            cfg.deme_count,
            evo,
            budget,
            run_cfg.weights,
            run_cfg.step,
            run_cfg.policy,
            rng,
            mode=mode,
            omega=run_cfg.omega,
            h_kind=run_cfg.h_kind,
        )
        best = aggregate_best(demes)
        success = (
            best is not None
            and problem.target is not None
            and best.score >= problem.target
        )
        rounds = [r.as_dict() for deme_rounds in reports for r in deme_rounds]
        eval_count = sum(d.ledger.eval_count for d in demes)
        skipped = sum(st.skipped_total for st in states)
    else:
        result = info_evo_loop(
            problem,
            evo,
            run_cfg.weights,
            run_cfg.step,
            run_cfg.policy,
            cfg.budget,
            mode=mode,
            omega=run_cfg.omega,
            h_kind=run_cfg.h_kind,
        )
        trace = result.trace
        best = result.best
        success = result.success
        rounds = [r.as_dict() for r in result.reports]
        eval_count = result.ledger.eval_count
        skipped = result.skipped_total
    wall = time.perf_counter() - t0

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
        "config": cfg.snapshot(),
        "success": success,
        "best_score": best.score if best else None,
        "best_genotype": problem.render(best.genotype) if best else None,
        "eval_count": eval_count,
        "candidates_skipped": skipped,
        "evals_to_target": evals_to_target,
        "rounds": rounds,
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
            row = {
                "seed": seed,
                "mode": mode,
                "evals_to_target": record["evals_to_target"],
                "best_score": record["best_score"],
                "candidates_skipped": record["candidates_skipped"],
            }
            rows.append(row)
            per_mode[mode].append(row)
    csv_path = out_dir / "compare.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.DictWriter(
            fh,
            fieldnames=[
                "seed",
                "mode",
                "evals_to_target",
                "best_score",
                "candidates_skipped",
            ],
        )
        writer.writeheader()
        for row in rows:
            writer.writerow(row)
        for mode in ("info_evo", "baseline"):
            group = per_mode[mode]
            writer.writerow(
                {
                    "seed": "median",
                    "mode": mode,
                    "evals_to_target": float(
                        np.median([r["evals_to_target"] for r in group])
                    ),
                    "best_score": float(np.median([r["best_score"] for r in group])),
                    "candidates_skipped": float(
                        np.median([r["candidates_skipped"] for r in group])
                    ),
                }
            )
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

    Returns (max relative error, per-trial (exact, refined) lengths).
    """
    if n < 3:
        raise ConfigError("n", "needs n >= 3")
    if trials < 1:
        raise ConfigError("trials", "must be at least 1")
    rng = np.random.default_rng(seed)
    radius = 0.9
    results = []
    max_err = 0.0
    for t in range(trials):
        base = manifold.from_weights(rng.uniform(0.2, 1.0, size=n))
        chart = geodesic_search.build_chart(
            base, rng.uniform(0.0, 1.0, size=n), d=2, rng=rng, radius=radius
        )
        while True:
            start = rng.uniform(-radius, radius, size=2) * 0.5
            goal = rng.uniform(-radius, radius, size=2) * 0.5
            if np.linalg.norm(start) > radius or np.linalg.norm(goal) > radius:
                continue
            exact = manifold.geodesic_distance_exact(
                chart.point(start), chart.point(goal)
            )
            if 0.2 <= exact <= 0.8:
                break
        raw = geodesic_search.dijkstra_geodesic(chart, start, goal, resolution)
        refined = geodesic_search.refine_polyline(raw, refinement_levels)
        err = (refined.length - exact) / exact
        max_err = max(max_err, err)
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


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise ConfigError("config", f"file not found: {path}")
    except json.JSONDecodeError as e:
        raise ConfigError("config", f"invalid JSON in {path}: {e}")


def build_run_config(args) -> RunConfig:
    """Merge config file (if given) with command-line flags; flags win."""
    data = _load_config_file(args.config) if args.config else {}

    def pick(flag_value, key, default):
        if flag_value is not None:
            return flag_value
        return data.get(key, default)

    problem_params = dict(data.get("problem_params", {}))
    for key, flag in (
        ("bits", args.bits),
        ("dim", args.dim),
        ("max_depth", args.max_depth),
        ("dataset", args.dataset),
        ("target", args.target),
    ):
        if flag is not None:
            problem_params[key] = flag

    wd = data.get("weights", {})
    weights = PromiseWeights(
        w_zeta=pick(args.w_zeta, "w_zeta", wd.get("w_zeta", 1.0)),
        w_lm=pick(args.w_lm, "w_lm", wd.get("w_lm", 0.5)),
        w_gm=pick(args.w_gm, "w_gm", wd.get("w_gm", 0.5)),
        k_local=int(pick(args.k_local, "k_local", wd.get("k_local", 5))),
    )
    sd = data.get("step", {})
    step = StepParams(
        gamma=pick(args.gamma, "gamma", sd.get("gamma", 0.25)),
        ray_count=int(pick(args.ray_count, "ray_count", sd.get("ray_count", 5))),
        grid_resolution=int(
            pick(args.resolution, "grid_resolution", sd.get("grid_resolution", 32))
        ),
        refinement_levels=int(
            pick(
                args.refinement_levels,
                "refinement_levels",
                sd.get("refinement_levels", 3),
            )
        ),
        chart_dim=int(pick(args.chart_dim, "chart_dim", sd.get("chart_dim", 2))),
    )
    ed = data.get("evolution", {})
    evolution = EvolutionConfig(
        subpop_size=int(pick(args.subpop_size, "subpop_size", ed.get("subpop_size", 40))),
        generations_per_round=int(
            pick(
                args.generations,
                "generations_per_round",
                ed.get("generations_per_round", 4),
            )
        ),
        mutation_rate=pick(
            args.mutation_rate, "mutation_rate", ed.get("mutation_rate", 0.05)
        ),
        crossover_rate=pick(
            args.crossover_rate, "crossover_rate", ed.get("crossover_rate", 0.7)
        ),
        elitism=int(pick(args.elitism, "elitism", ed.get("elitism", 2))),
        eda_fraction=pick(args.eda_fraction, "eda_fraction", ed.get("eda_fraction", 0.2)),
        tournament_size=int(
            pick(args.tournament_size, "tournament_size", ed.get("tournament_size", 3))
        ),
        seed=0,  # replaced per run
        init_population=int(
            pick(args.init_population, "init_population", ed.get("init_population", 96))
        ),
        population_cap=int(
            pick(args.population_cap, "population_cap", ed.get("population_cap", 256))
        ),
    )
    pd = data.get("policy", {})
    metric_kind = pick(args.metric, "metric", pd.get("metric", "blended"))
    lam = pick(args.blend_lambda, "lambda", pd.get("lambda", 0.5))
    try:
        metric = DistanceMetric(metric_kind, lam)
    except ValueError as e:
        raise ConfigError("metric", str(e))
    policy = FilterPolicy(
        k=int(pick(args.filter_k, "filter_k", pd.get("k", 7))),
        threshold_quantile=pick(
            args.threshold_quantile,
            "threshold_quantile",
            pd.get("threshold_quantile", 0.25),
        ),
        metric=metric,
    )
    omega = OmegaKind(
        kind=pick(args.omega, "omega", data.get("omega", "knn_mass")),
        k=policy.k,
    )
    return RunConfig(
        problem=pick(args.problem, "problem", "onemax"),
        problem_params=problem_params,
        budget=int(pick(args.budget, "budget", 20000)),
        seed=pick(args.seed, "seed", None),
        mode=pick(args.mode, "mode", "info_evo"),
        weights=weights,
        step=step,
        evolution=evolution,
        policy=policy,
        omega=omega,
        h_kind=pick(args.h, "h_kind", data.get("h_kind", "product")),
        deme_count=int(pick(args.deme_count, "deme_count", 1)),
        subdemes_per_deme=int(
            pick(args.subdemes_per_deme, "subdemes_per_deme", 3)
        ),
    )


def _add_common_flags(p: argparse.ArgumentParser):
    p.add_argument("--config", default=None, help="JSON config file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--seed", type=int, default=None)


def _add_run_flags(p: argparse.ArgumentParser):
    p.add_argument("--problem", default=None, choices=None)
    p.add_argument("--bits", type=int, default=None)
    p.add_argument("--dim", type=int, default=None)
    p.add_argument("--max-depth", dest="max_depth", type=int, default=None)
    p.add_argument("--dataset", default=None)
    p.add_argument("--target", type=float, default=None)
    p.add_argument("--budget", type=int, default=None)
    p.add_argument("--mode", default=None)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--ray-count", dest="ray_count", type=int, default=None)
    p.add_argument("--resolution", type=int, default=None)
    p.add_argument(
        "--refinement-levels", dest="refinement_levels", type=int, default=None
    )
    p.add_argument("--chart-dim", dest="chart_dim", type=int, default=None)
    p.add_argument("--subpop-size", dest="subpop_size", type=int, default=None)
    p.add_argument("--generations", type=int, default=None)
    p.add_argument("--mutation-rate", dest="mutation_rate", type=float, default=None)
    p.add_argument("--crossover-rate", dest="crossover_rate", type=float, default=None)
    p.add_argument("--elitism", type=int, default=None)
    p.add_argument("--eda-fraction", dest="eda_fraction", type=float, default=None)
    p.add_argument(
        "--tournament-size", dest="tournament_size", type=int, default=None
    )
    p.add_argument(
        "--init-population", dest="init_population", type=int, default=None
    )
    p.add_argument(
        "--population-cap", dest="population_cap", type=int, default=None
    )
    p.add_argument("--w-zeta", dest="w_zeta", type=float, default=None)
    p.add_argument("--w-lm", dest="w_lm", type=float, default=None)
    p.add_argument("--w-gm", dest="w_gm", type=float, default=None)
    p.add_argument("--k-local", dest="k_local", type=int, default=None)
    p.add_argument("--filter-k", dest="filter_k", type=int, default=None)
    p.add_argument(
        "--threshold-quantile", dest="threshold_quantile", type=float, default=None
    )
    p.add_argument("--metric", default=None)
    p.add_argument("--lambda", dest="blend_lambda", type=float, default=None)
    p.add_argument("--omega", default=None)
    p.add_argument("--h", default=None)
    p.add_argument("--deme-count", dest="deme_count", type=int, default=None)
    p.add_argument(
        "--subdemes-per-deme", dest="subdemes_per_deme", type=int, default=None
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="info-evo")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment")
    _add_common_flags(p_run)
    _add_run_flags(p_run)

    p_cmp = sub.add_parser("compare", help="paired guided vs baseline runs")
    _add_common_flags(p_cmp)
    _add_run_flags(p_cmp)
    p_cmp.add_argument("--repeats", type=int, default=3)

    p_geo = sub.add_parser("geodesic-check", help="grid vs closed-form geodesics")
    _add_common_flags(p_geo)
    p_geo.add_argument("--n", type=int, nargs="+", default=[3, 5, 10])
    p_geo.add_argument("--trials", type=int, default=50)
    p_geo.add_argument("--resolution", type=int, default=32)
    p_geo.add_argument(
        "--refinement-levels", dest="refinement_levels", type=int, default=3
    )
    p_geo.add_argument("--quiet", action="store_true")

    p_list = sub.add_parser("list-problems", help="show registered problems")
    _add_common_flags(p_list)
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
            if args.seed is None:
                args.seed = 0
            return cmd_geodesic_check(args)
        cfg = build_run_config(args)
        out_dir = Path(args.out)
        if args.command == "run":
            return cmd_run(cfg, out_dir)
        if args.command == "compare":
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
