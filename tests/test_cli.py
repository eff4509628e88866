import csv
import json
import re
from dataclasses import asdict
from pathlib import Path

import pytest

from infoevo import cli, evolve, geodesic_search
from infoevo.cli import (
    SETTINGS,
    RunConfig,
    build_parser,
    build_run_config,
    execute_run,
    geodesic_check,
    main,
)
from infoevo.errors import ConfigError
from infoevo.guidance import FilterPolicy

from conftest import count_objective_calls


def run_cli(argv):
    return main(argv)


FAST_RUN = [
    "--problem",
    "onemax",
    "--bits",
    "16",
    "--budget",
    "400",
    "--seed",
    "5",
    "--init-population",
    "30",
    "--subpop-size",
    "10",
    "--generations",
    "2",
    "--ray-count",
    "3",
    "--resolution",
    "8",
    "--refinement-levels",
    "1",
]


def read_trace(path):
    lines = path.read_text().splitlines()
    header = json.loads(lines[0])
    rows = [json.loads(line) for line in lines[1:]]
    return header, rows


# --- run ---


def test_run_writes_contract_files(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["run", "--out", str(out)] + FAST_RUN)
    assert code == 0
    record = json.loads((out / "run.json").read_text())
    assert record["schema"] == "run.v1"
    assert record["mode"] == "info_evo"
    assert record["seed"] == 5
    assert record["success"]
    assert record["best_score"] == 16.0
    assert record["eval_count"] <= 400
    assert record["trace_file"] == "trace.jsonl"
    assert record["config"]["problem"] == "onemax"

    header, rows = read_trace(out / "trace.jsonl")
    assert header == {"schema": "trace.v1"}
    assert len(rows) == record["eval_count"]
    assert [r["eval_order"] for r in rows] == list(range(len(rows)))
    assert max(r["score"] for r in rows) == record["best_score"]


def test_run_trace_byte_identical(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run_cli(["run", "--out", str(out_a)] + FAST_RUN) == 0
    assert run_cli(["run", "--out", str(out_b)] + FAST_RUN) == 0
    assert (out_a / "trace.jsonl").read_bytes() == (out_b / "trace.jsonl").read_bytes()


def test_run_paired_mode(tmp_path):
    out = tmp_path / "out"
    code = run_cli(["run", "--mode", "paired", "--out", str(out)] + FAST_RUN)
    assert code == 0
    payload = json.loads((out / "run.json").read_text())
    assert payload["mode"] == "paired"
    assert set(payload["runs"]) == {"info_evo", "baseline"}
    for mode in ("info_evo", "baseline"):
        assert (out / f"trace_{mode}.jsonl").exists()
    # the baseline never filters
    assert payload["runs"]["baseline"]["candidates_skipped"] == 0


def test_run_missing_seed_exits_2(tmp_path):
    code = run_cli(["run", "--problem", "onemax", "--out", str(tmp_path)])
    assert code == 2


def test_run_unknown_problem_exits_2(tmp_path):
    code = run_cli(
        ["run", "--problem", "banana", "--seed", "1", "--out", str(tmp_path)]
    )
    assert code == 2


def test_run_bad_mode_exits_2(tmp_path):
    code = run_cli(
        ["run", "--mode", "warp", "--seed", "1", "--out", str(tmp_path)]
    )
    assert code == 2


def test_run_config_file_merged_with_flag_override(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "problem": "onemax",
                "problem_params": {"bits": 12},
                "budget": 300,
                "seed": 9,
                "evolution": {
                    "subpop_size": 10,
                    "generations_per_round": 2,
                    "init_population": 25,
                },
                "step": {"ray_count": 3, "grid_resolution": 8, "refinement_levels": 1},
            }
        )
    )
    out = tmp_path / "out"
    # flag overrides the config file budget
    code = run_cli(
        ["run", "--config", str(cfg_path), "--budget", "200", "--out", str(out)]
    )
    assert code == 0
    record = json.loads((out / "run.json").read_text())
    assert record["config"]["budget"] == 200
    assert record["config"]["problem_params"]["bits"] == 12
    assert record["seed"] == 9


# a valid non-default value for each setting that 3 (int) or 0.3 (float)
# does not give
SAMPLES = {
    "step.refinement_levels": 4,
    "evolution.tournament_size": 4,
    "problem": "sphere",
    "mode": "baseline",
    "problem_params.dataset": "data.csv",
}


def config_from(argv):
    return build_run_config(build_parser().parse_args(["run", *argv]))


def file_with(tmp_path, data):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


@pytest.mark.parametrize(
    "flag,section,name,kind",
    SETTINGS,
    ids=[f"{section}.{name}" if section else name for _, section, name, _ in SETTINGS],
)
def test_setting_by_flag_equals_setting_by_file_key(tmp_path, flag, section, name, kind):
    key = f"{section}.{name}" if section else name
    value = SAMPLES.get(key, 3 if kind is int else 0.3)
    data = {section: {name: value}} if section else {name: value}
    by_flag = config_from([flag, str(value)])
    assert by_flag == config_from(["--config", file_with(tmp_path, data)])
    assert by_flag != config_from([])  # the setting changes the config


@pytest.mark.parametrize(
    "argv,data,field",
    [
        (["--gamma", "5"], None, "step"),
        (["--w-lm", "-1"], None, "weights"),
        (["--k-local", "0"], None, "weights"),
        ([], {"weights": {"w_zeta": 1.5}}, "weights.w_zeta"),  # a deleted setting
        (["--subpop-size", "0"], None, "evolution"),
        (["--threshold-quantile", "1.5"], None, "policy"),
        (["--lambda", "2"], None, "policy"),
        ([], {"gamma": 0.3}, "gamma"),  # top-level alias of step.gamma
        ([], {"filter_k": 3}, "filter_k"),  # top-level alias of policy.k
        ([], {"step": {"gama": 0.3}}, "step.gama"),
        ([], {"evolution": {"seed": 4}}, "evolution.seed"),  # the seed is top-level
        ([], {"budget": "many"}, "budget"),
        ([], {"budget": None}, "budget"),
        ([], {"budget": 2.5}, "budget"),  # not truncated to 2
        ([], {"budget": True}, "budget"),
        ([], {"step": {"gamma": "0.3"}}, "step.gamma"),
        ([], {"problem_params": {"dataset": 5}}, "problem_params.dataset"),
        ([], {"policy": 3}, "policy"),
        (["--bits", "3", "--target", "4"], None, "problem_params.target"),  # onemax
        ([], {"problem_params": {"max_depth": 3}}, "problem_params.max_depth"),
        (["--bits", "0"], None, "problem_params"),
        (["--problem", "sphere", "--dim", "0"], None, "problem_params"),
        (["--problem", "symreg", "--max-depth", "0"], None, "problem_params"),
        (
            ["--problem", "symreg", "--dataset", "/nonexistent/data.csv"],
            None,
            "problem_params.dataset",
        ),
        ([], {"weights": {"w_gm": 0.5}}, "weights.w_gm"),  # a deleted setting
        (["--population-cap", "0"], None, "evolution"),
        (["--population-cap", "-5"], None, "evolution"),
        (["--generations", "-1"], None, "evolution"),
        (["--init-population", "-3"], None, "evolution"),
        ([], {"policy": {"metric": "genotypic"}}, "policy.metric"),  # deleted
        ([], {"policy": {"lambda": 0.5}}, "policy.lambda"),  # now policy.lam
        ([], {"omega": "knn_mass"}, "omega"),  # a removed setting
        ([], {"h_kind": "product"}, "h_kind"),  # a removed setting
        (["--mode", "baseline"], {"h_kind": "product"}, "h_kind"),
    ],
)
def test_invalid_setting_exits_2(tmp_path, capsys, argv, data, field):
    if data is not None:
        argv = argv + ["--config", file_with(tmp_path, data)]
    code = run_cli(["run", "--seed", "1", "--out", str(tmp_path / "out")] + argv)
    assert code == 2
    assert f"error: config field '{field}'" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key", ["weights.w_zeta", "omega", "h_kind"])
def test_deleted_setting_is_an_unknown_config_key(tmp_path, capsys, key):
    section, _, name = key.rpartition(".")
    data = {section: {name: 1.0}} if section else {name: 1.0}
    out = tmp_path / "out"
    argv = ["--seed", "1", "--out", str(out), "--config", file_with(tmp_path, data)]
    assert run_cli(["run", *argv]) == 2
    assert f"error: config field '{key}': unknown config key" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["--w-zeta", "1"],  # a deleted setting
        ["--h", "bogus"],  # not taken as --help
        ["--mode", "baseline", "--h", "bogus"],
        ["--omega", "bogus"],  # a deleted setting
        ["--lam", "1"],  # not taken as --lambda
        ["--w", "0.3"],  # not taken as --w-lm
    ],
    ids=["w-zeta", "h", "mode-h", "omega", "lam", "w"],
)
def test_unrecognised_flag_exits_2_through_argparse(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--seed", "1", "--out", str(tmp_path / "out")] + argv)
    assert exc.value.code == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "text",
    [
        "x0,x1,y\n0,1,2\n1,2\n",  # ragged: the second row has no x1
        "y\n1\n2\n",  # no input column
        "x0,y\n0,nan\n1,2\n",  # a non-finite output
    ],
    ids=["ragged", "no-input", "nan-output"],
)
def test_malformed_dataset_exits_2(tmp_path, capsys, text):
    path = tmp_path / "data.csv"
    path.write_text(text)
    argv = ["--problem", "symreg", "--dataset", str(path), "--budget", "200"]
    test_invalid_setting_exits_2(tmp_path, capsys, argv, None, "problem_params.dataset")


README =Path(__file__).resolve().parents[1] / "README.md"


def test_readme_examples_are_the_defaults(tmp_path):
    # each JSON block of the README, the config file and run.json's config,
    # names every setting at its default and loads as a config file, so a
    # setting renamed or deleted but left in the README fails here
    file_example, record_example = re.findall(
        r"```json\n(.*?)```", README.read_text(), re.S
    )
    default = RunConfig(seed=1, problem_params={"bits": 50})
    file_config = json.loads(file_example)
    record_config = json.loads("{" + record_example + "}")["config"]
    assert file_config == {k: v for k, v in asdict(default).items() if k != "mode"}
    assert record_config == asdict(default)
    for data in (file_config, record_config):
        assert config_from(["--config", file_with(tmp_path, data)]) == default


def test_run_missing_config_file_exits_2(tmp_path):
    code = run_cli(
        ["run", "--config", str(tmp_path / "nope.json"), "--seed", "1"]
    )
    assert code == 2


# --- compare ---


def test_compare_csv_row_accounting(tmp_path):
    out = tmp_path / "out"
    code = run_cli(
        ["compare", "--repeats", "2", "--out", str(out)] + FAST_RUN
    )
    assert code == 0
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    # 2 repeats x 2 modes + 2 median rows
    assert len(rows) == 6
    data_rows = [r for r in rows if r["seed"] != "median"]
    assert len(data_rows) == 4
    assert {r["mode"] for r in data_rows} == {"info_evo", "baseline"}
    assert {r["seed"] for r in data_rows} == {"5", "6"}
    median_rows = [r for r in rows if r["seed"] == "median"]
    assert [r["mode"] for r in median_rows] == ["info_evo", "baseline"]
    for r in data_rows:
        assert 1 <= int(r["evals_to_target"]) <= 400
        assert int(r["objective_calls"]) >= int(r["evals_to_target"])


def test_compare_median_skips_runs_without_a_best_score(tmp_path):
    # with no initial population no run evaluates anything, so no run has
    # a best score; the median row leaves that cell empty
    out = tmp_path / "out"
    argv = ["--problem", "onemax", "--bits", "10", "--budget", "50", "--seed", "1"]
    argv += ["--repeats", "2", "--init-population", "0"]
    assert run_cli(["compare", "--out", str(out)] + argv) == 0
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6
    assert all(r["best_score"] == "" for r in rows)
    medians = [r for r in rows if r["seed"] == "median"]
    assert [r["evals_to_target"] for r in medians] == ["50.0", "50.0"]
    assert [r["objective_calls"] for r in medians] == ["0.0", "0.0"]


def test_compare_invalid_repeats_exits_2(tmp_path):
    code = run_cli(
        ["compare", "--repeats", "0", "--out", str(tmp_path)] + FAST_RUN
    )
    assert code == 2


def test_compare_mode_flag_exits_2_and_a_config_files_mode_is_accepted(tmp_path, capsys):
    out = tmp_path / "out"
    argv = ["compare", "--repeats", "1", "--out", str(out)] + FAST_RUN
    assert run_cli(argv + ["--mode", "baseline"]) == 2
    err = capsys.readouterr().err
    assert "error: config field 'mode': compare runs both modes" in err
    assert not out.exists()
    # run.json's config always holds a mode; compare runs both modes anyway
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"mode": "baseline"}))
    assert run_cli(argv + ["--config", str(config)]) == 0
    with open(out / "compare.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["mode"] for r in rows] == ["info_evo", "baseline"] * 2


# --- geodesic check ---


def test_geodesic_check_function_accuracy():
    max_err, results = geodesic_check(
        3, trials=5, resolution=32, refinement_levels=3, seed=1, verbose=False
    )
    assert len(results) == 5
    assert max_err <= 0.02
    for exact, refined in results:
        assert 0.2 <= exact <= 0.8
        assert abs(refined - exact) / exact <= 0.02


def test_geodesic_check_fails_a_refined_path_too_short(monkeypatch, capsys):
    # criterion 2 bounds the absolute error: a refined path 10% shorter
    # than the closed form fails as one 10% longer does
    refine = geodesic_search.refine_polyline

    def too_short(polylines, levels):
        return [
            geodesic_search.GeodesicPolyline(p.points, 0.9 * p.length, p.segments)
            for p in refine(polylines, levels)
        ]

    monkeypatch.setattr(geodesic_search, "refine_polyline", too_short)
    max_err, _ = geodesic_check(3, trials=2, resolution=16, seed=1, verbose=False)
    assert max_err > 0.05
    argv = ["geodesic-check", "--n", "3", "--trials", "2", "--resolution", "16"]
    assert run_cli(argv + ["--quiet"]) == 1
    assert "overall max relative error" in capsys.readouterr().out


def test_geodesic_check_validation():
    with pytest.raises(ConfigError):
        geodesic_check(2, trials=1, resolution=8)
    with pytest.raises(ConfigError):
        geodesic_check(3, trials=0, resolution=8)
    for kwargs, field in (
        ({"resolution": 0}, "resolution"),
        ({"resolution": -3}, "resolution"),
        ({"resolution": 8, "refinement_levels": -1}, "refinement_levels"),
    ):
        with pytest.raises(ConfigError) as err:
            geodesic_check(3, trials=1, **kwargs)
        assert err.value.field == field


def test_geodesic_check_bad_resolution_exits_2(capsys):
    code = run_cli(["geodesic-check", "--n", "3", "--trials", "1", "--resolution", "0"])
    assert code == 2
    assert "error: config field 'resolution'" in capsys.readouterr().err


def test_geodesic_check_cli_exit_zero(capsys):
    code = run_cli(
        [
            "geodesic-check",
            "--n",
            "3",
            "--trials",
            "3",
            "--resolution",
            "16",
            "--quiet",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "max relative error" in out


# --- list-problems ---


def test_list_problems(capsys):
    assert run_cli(["list-problems"]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["onemax", "trap5", "sphere", "rosenbrock", "symreg"]


@pytest.mark.parametrize("flag", ["--config", "--out"])
@pytest.mark.parametrize(
    "command", [["list-problems"], ["geodesic-check", "--n", "3", "--trials", "1"]]
)
def test_run_flags_are_unrecognised_by_commands_that_run_nothing(command, flag, capsys):
    # only run and compare read a config file or write an output directory
    with pytest.raises(SystemExit) as exc:
        run_cli(command + [flag, "x"])
    assert exc.value.code == 2
    assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err


DEME_RUN = dict(
    problem="onemax", problem_params={"bits": 30}, budget=1500, seed=1, deme_count=2
)


def test_deme_run_honours_lambda():
    blended = execute_run(RunConfig(**DEME_RUN), "info_evo", 1)
    genotypic = execute_run(
        RunConfig(**DEME_RUN, policy=FilterPolicy(lam=1.0)), "info_evo", 1
    )
    assert blended["trace"] != genotypic["trace"]


def test_deme_run_evals_to_target_in_global_order(monkeypatch):
    new_scores = []
    evaluate = evolve.evaluate

    def recording(genotype, problem, ledger):
        before = ledger.eval_count
        sample = evaluate(genotype, problem, ledger)
        if ledger.eval_count > before:
            new_scores.append(sample.score)
        return sample

    monkeypatch.setattr(evolve, "evaluate", recording)
    record = execute_run(RunConfig(**DEME_RUN), "info_evo", 1)
    assert record["success"]
    assert [row["score"] for row in record["trace"]] == new_scores
    first = next(i for i, score in enumerate(new_scores) if score >= 30.0)
    assert record["evals_to_target"] == first + 1


def test_deme_run_keeps_the_ray_count(tmp_path):
    out = tmp_path / "out"
    argv = FAST_RUN + ["--deme-count", "2", "--ray-count", "5"]  # the last flag wins
    assert run_cli(["run", "--out", str(out)] + argv) == 0
    record = json.loads((out / "run.json").read_text())
    assert record["config"]["step"]["ray_count"] == 5
    guided = [r for r in record["rounds"] if r["rays_generated"]]
    assert guided
    assert all(r["rays_generated"] == 5 for r in guided)


def test_run_json_holds_only_the_seed_that_ran(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", "--out", str(out)] + FAST_RUN + ["--seed", "7"]) == 0
    record = json.loads((out / "run.json").read_text())

    def seeds(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "seed":
                    yield value
                yield from seeds(value)
        elif isinstance(node, list):
            for value in node:
                yield from seeds(value)

    assert list(seeds(record)) == [7, 7]  # the record's and its config's
    assert record["config"]["mode"] == "info_evo"
    assert record["config"]["policy"] == {"k": 7, "threshold_quantile": 0.25, "lam": 0.5}


def test_run_json_config_is_a_config_file_of_the_run(tmp_path):
    out = tmp_path / "out"
    argv = FAST_RUN + ["--lambda", "0.3", "--filter-k", "5", "--deme-count", "2"]
    assert run_cli(["run", "--out", str(out)] + argv) == 0
    record = json.loads((out / "run.json").read_text())
    path = file_with(tmp_path, record["config"])
    assert config_from(["--config", path]) == config_from(argv)


def test_metric_flag_is_unrecognised(capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(["run", "--seed", "1", "--metric", "genotypic"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --metric" in capsys.readouterr().err


def test_run_ends_when_no_new_genotype_can_be_drawn(tmp_path):
    # depth-1 trees are the 6 leaves; none fits the built-in x^2 + x
    out = tmp_path / "out"
    argv = ["--problem", "symreg", "--max-depth", "1", "--budget", "100", "--seed", "1"]
    assert run_cli(["run", "--out", str(out)] + argv) == 0
    record = json.loads((out / "run.json").read_text())
    assert not record["success"]
    assert record["eval_count"] <= 6
    assert record["stop_reason"] == "stall"


FAST_SETTINGS = FAST_RUN[4:]  # FAST_RUN without its problem flags
UNREACHABLE = ["--problem", "sphere", "--dim", "3", "--target", "1"] + FAST_SETTINGS


@pytest.mark.parametrize(
    "argv",
    [
        FAST_RUN,
        ["--problem", "sphere", "--dim", "3"] + FAST_SETTINGS,
        ["--problem", "symreg"] + FAST_SETTINGS + ["--budget", "150"],
        FAST_RUN + ["--mode", "baseline"],
        ["--problem", "trap5", "--bits", "20", "--mode", "baseline"] + FAST_SETTINGS,
        ["--problem", "sphere", "--dim", "3", "--mode", "baseline"] + FAST_SETTINGS,
        ["--problem", "symreg", "--mode", "baseline"] + FAST_SETTINGS + ["--budget", "150"],
        FAST_RUN + ["--deme-count", "2"],
    ],
    ids=[
        "onemax",
        "sphere",
        "symreg",
        "onemax-baseline",
        "trap5-baseline",
        "sphere-baseline",
        "symreg-baseline",
        "onemax-demes",
    ],
)
def test_run_reports_its_objective_calls(argv, monkeypatch):
    calls = []
    make_problem = cli.make_problem

    def counted(name, **params):
        problem = make_problem(name, **params)
        calls.append(count_objective_calls(problem))
        return problem

    monkeypatch.setattr(cli, "make_problem", counted)
    cfg = build_run_config(build_parser().parse_args(["run", "--out", "unused"] + argv))
    record = execute_run(cfg, cfg.mode, cfg.seed)
    assert record["objective_calls"] == len(calls[0]) >= record["eval_count"]
    if cfg.mode == "baseline":
        # no metric and no filter: each evaluation is the one objective call
        assert record["objective_calls"] == record["eval_count"] > 0


def test_run_reports_why_it_stopped(tmp_path):
    out = tmp_path / "out"
    assert run_cli(["run", "--out", str(out)] + FAST_RUN) == 0
    record = json.loads((out / "run.json").read_text())
    assert record["success"] and record["stop_reason"] == "target"
    assert run_cli(["run", "--out", str(out)] + UNREACHABLE + ["--budget", "120"]) == 0
    record = json.loads((out / "run.json").read_text())
    assert record["eval_count"] == 120 and record["stop_reason"] == "budget"
    argv = UNREACHABLE + ["--budget", "120", "--deme-count", "2"]
    assert run_cli(["run", "--out", str(out)] + argv) == 0
    record = json.loads((out / "run.json").read_text())
    assert record["stop_reason"] == ["budget", "budget"]
