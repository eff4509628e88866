"""The trace digests and counts of the benchmark's seed runs, pinned.

The runs are the five benchmark-seed runs of ``tools/trace_digests.py``
(guided OneMax-50 seeds 1-3, baseline OneMax-50 seed 1, guided symreg on
the cubic dataset of ``perfbench/make_dataset.py`` at cap 64, seed 5),
made as that tool makes them. Each pin is the line the tool prints for
the run: the SHA-256 of its trace, ``eval_count``, ``objective_calls``
and ``evals_to_target``. A change that alters behaviour on purpose
updates these pins and says why.
"""

from pathlib import Path

from infoevo.cli import build_parser, build_run_config, execute_run

ROOT = Path(__file__).resolve().parents[1]

PINS = {
    "onemax50-guided-s1": (
        "535349594a780b0c6c8be78684e732fa5f97bbbe0a7433462d4eae15c8574442",
        1515,
        1548,
        1515,
    ),
    "onemax50-guided-s2": (
        "09cc3846afa5c15da53cfb9244a43afece3e6b7eddea8a241b2e196d3da62ecf",
        1074,
        1092,
        1074,
    ),
    "onemax50-guided-s3": (
        "5ce2f7e670563b674e29f9d7c5efbe44d8279e1e4be3eef639a989596e5413f9",
        1461,
        1505,
        1461,
    ),
    "onemax50-baseline-s1": (
        "4b7ae804885c167c434e9628147fe06677d0dc725df1f37fbc0bacceda0602c6",
        791,
        791,
        791,
    ),
    "symreg-cubic-cap64-s5": (
        "39ef72d904f4f1cbb245c5a84a725d87decd1752a531bf3f08d48b6d90ce95e6",
        173,
        319,
        173,
    ),
}


def test_bench_seed_traces_match_their_pins(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from checks import trace_digest
    from make_dataset import write_dataset
    from trace_digests import runs

    got = {}
    for name, flags in runs(str(write_dataset(tmp_path / "cubic.csv"))):
        if name not in PINS:
            continue
        cfg = build_run_config(build_parser().parse_args(["run", *flags]))
        record = execute_run(cfg, cfg.mode, cfg.seed)
        got[name] = (
            trace_digest(record["trace"]),
            record["eval_count"],
            record["objective_calls"],
            record["evals_to_target"],
        )
    assert got == PINS
