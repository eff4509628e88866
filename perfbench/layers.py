"""Instrumentation installed from outside the program for one run.

Every run counts objective calls (the problem object's ``score``, and
``behavior`` where a domain overrides it) and records the genotypes
that each ``evaluate`` call newly adds to the ledger, in global order.

A traced run also wraps the public functions of each module where
their callers look them up: ``guidance`` and ``promise`` bind ``knn``
by name, and ``evolve`` binds ``evaluate``, ``promise_vector`` and
``ResolvedMetric`` by name. Each wrapper counts calls and self time,
which is its own time minus the time of wrapped calls nested in it.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from infoevo import cli, evolve, geodesic_search, guidance, manifold, promise
from infoevo.domains.base import Problem

from checks import Observed

STEP_TOLERANCE = cli.GEODESIC_TOLERANCE
# the unwrapped distance, so that the step check adds no counted calls
_exact_distance = manifold.geodesic_distance_exact

# (module, attribute, layer name) for every module-level function wrapped
# in a traced run; a function appears once per module that looks it up
MODULE_FUNCTIONS = (
    (promise, "knn", "core.knn"),
    (guidance, "knn", "core.knn"),
    (evolve, "ResolvedMetric", "core.ResolvedMetric"),
    (evolve, "promise_vector", "promise.promise_vector"),
    (guidance, "ledger_modified_fitness", "guidance.ledger_modified_fitness"),
    (guidance, "modified_fitness", "guidance.modified_fitness"),
    (guidance, "should_evaluate", "guidance.should_evaluate"),
    (guidance, "rank_rays", "guidance.rank_rays"),
    (geodesic_search, "build_chart", "geodesic_search.build_chart"),
    (geodesic_search, "geodesic_rays", "geodesic_search.geodesic_rays"),
    (geodesic_search, "dijkstra_geodesic", "geodesic_search.dijkstra_geodesic"),
    (geodesic_search, "refine_polyline", "geodesic_search.refine_polyline"),
    (geodesic_search, "step_along", "geodesic_search.step_along"),
    (manifold, "exp_map", "manifold.exp_map"),
    (manifold, "geodesic_distance_exact", "manifold.geodesic_distance_exact"),
    (evolve, "vary", "evolve.vary"),
    (evolve, "run_subpopulation", "evolve.run_subpopulation"),
)
VARIATION_METHODS = ("mutate", "crossover", "from_loci")
GUIDANCE_LAYERS = (
    "promise.promise_vector",
    "guidance.ledger_modified_fitness",
    "guidance.modified_fitness",
    "guidance.should_evaluate",
)
REPORTED_CALLS = (
    "core.knn",
    "core.ResolvedMetric",
    "domains.behavior",
    "domains.score",
    "core.evaluate",
    "geodesic_search.dijkstra_geodesic",
    "manifold.exp_map",
    "manifold.geodesic_distance_exact",
    "evolve.vary",
    *GUIDANCE_LAYERS,
)
REPORTED_SELF_S = (
    "core.knn",
    "domains.geno_distances",
    "core.ResolvedMetric",
    "domains.score",
    "core.evaluate",
    "geodesic_search.dijkstra_geodesic",
    "geodesic_search.refine_polyline",
    "geodesic_search.build_chart",
    "geodesic_search.geodesic_rays",
    "geodesic_search.step_along",
    "guidance.rank_rays",
    "evolve.vary",
    "domains.variation",
    "evolve.run_subpopulation",
    "cli.execute_run",
    *GUIDANCE_LAYERS,
)


class Probe:
    """Counters and timers for one run (or a round of runs)."""

    def __init__(self, traced: bool):
        self.traced = traced
        self.observed = Observed()
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.step_errors: list[float] = []
        self.chart_sizes: list[int] = []
        self._child_s: list[float] = []  # open wrapped calls' nested time

    def start_run(self):
        self.observed = Observed()

    def timed(self, name: str, fn, after=None):
        """Wrap fn to count calls and self time under ``name``."""

        def wrapper(*args, **kwargs):
            self._child_s.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                nested = self._child_s.pop()
                self.self_s[name] += dt - nested
                self.calls[name] += 1
                if self._child_s:
                    self._child_s[-1] += dt
            if after is not None:
                after(result, *args, **kwargs)
            return result

        return wrapper

    # -- callbacks run after a wrapped call returns -------------------------

    def _after_should_evaluate(self, result, *args, **kwargs):
        self.counts["filter.screened"] += 1
        if not result[0]:
            self.counts["filter.skipped"] += 1

    def _after_step_along(self, point, ray, gamma):
        expected = min(gamma, ray.polyline.length)
        if expected > 0:
            got = _exact_distance(ray.origin, point)
            self.step_errors.append(abs(got - expected) / expected)

    def _after_build_chart(self, chart, *args, **kwargs):
        self.chart_sizes.append(chart.base.n)

    def _after_geno_distances(self, result, x, genotypes):
        self.counts["geno_distances.pairs"] += len(genotypes)

    # -- installation --------------------------------------------------------

    def instrument_problem(self, problem):
        """Count (and in a traced run, time) calls on a problem object."""

        def counting(fn):
            def wrapper(genotype):
                self.observed.objective_calls += 1
                return fn(genotype)

            return wrapper

        problem.score = counting(problem.score)
        if type(problem).behavior is not Problem.behavior:
            problem.behavior = counting(problem.behavior)
        if self.traced:
            problem.score = self.timed("domains.score", problem.score)
            problem.behavior = self.timed("domains.behavior", problem.behavior)
            problem.geno_distances = self.timed(
                "domains.geno_distances",
                problem.geno_distances,
                self._after_geno_distances,
            )
            for method in VARIATION_METHODS:
                wrapped = self.timed("domains.variation", getattr(problem, method))
                setattr(problem, method, wrapped)
        return problem

    def _recording_evaluate(self, evaluate):
        def wrapper(genotype, problem, ledger):
            before = ledger.eval_count
            sample = evaluate(genotype, problem, ledger)
            if ledger.eval_count > before:
                self.observed.new_genotypes.append(genotype)
            return sample

        return wrapper

    @contextmanager
    def installed(self):
        """Patch the program's modules for the duration of the block."""
        saved = []

        def patch(module, attr, value):
            saved.append((module, attr, getattr(module, attr)))
            setattr(module, attr, value)

        make_problem = cli.make_problem
        patch(
            cli,
            "make_problem",
            lambda name, **params: self.instrument_problem(make_problem(name, **params)),
        )
        evaluate = self._recording_evaluate(evolve.evaluate)
        if self.traced:
            evaluate = self.timed("core.evaluate", evaluate)
            after = {
                "guidance.should_evaluate": self._after_should_evaluate,
                "geodesic_search.step_along": self._after_step_along,
                "geodesic_search.build_chart": self._after_build_chart,
            }
            for module, attr, name in MODULE_FUNCTIONS:
                patch(module, attr, self.timed(name, getattr(module, attr), after.get(name)))
        patch(evolve, "evaluate", evaluate)
        try:
            yield self
        finally:
            for module, attr, value in reversed(saved):
                setattr(module, attr, value)

    # -- results -------------------------------------------------------------

    def layer_metrics(
        self, evals: int, objective_calls: int, rounds: int
    ) -> dict[str, tuple[float, str]]:
        """Per-layer metrics of a traced round, name -> (value, unit)."""
        screened = self.counts["filter.screened"]
        skipped = self.counts["filter.skipped"]
        m = {f"{name}.calls": (self.calls[name], "count") for name in REPORTED_CALLS}
        m.update({f"{name}.self_s": (self.self_s[name], "s") for name in REPORTED_SELF_S})
        m.update(
            {
                "domains.geno_distances.pairs": (self.counts["geno_distances.pairs"], "count"),
                "objective_calls_per_eval": (objective_calls / evals, "ratio"),
                "core.evaluate.new": (evals, "count"),
                "guidance.filter.screened": (screened, "count"),
                "guidance.filter.skipped": (skipped, "count"),
                # share of screened candidates sent on to evaluation; 1 when
                # nothing was screened, since nothing was held back
                "guidance.filter.pass_ratio": (
                    (screened - skipped) / screened if screened else 1.0,
                    "ratio",
                ),
                "evolve.rounds": (rounds, "count"),
            }
        )
        return m
