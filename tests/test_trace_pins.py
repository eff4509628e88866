"""The trace digests and counts of the benchmark's seed runs, pinned.

The runs are the five benchmark-seed runs of ``tools/trace_digests.py``
(guided OneMax-50 seeds 1-3, baseline OneMax-50 seed 1, guided symreg on
the cubic dataset of ``perfbench/make_dataset.py`` at cap 64, seed 5),
made as that tool makes them. Each pin is the line the tool prints for
the run: the SHA-256 of its trace, ``eval_count``, ``objective_calls``
and ``evals_to_target``. The guided runs take the default lambda = 1,
whose rows call no objective, so each makes one objective call per
evaluation. Four more runs of that tool are pinned, each through a
branch of the rule that ends a screened chunk
(``ResolvedMetric.screen_rows``), which reads behavior only under a
blended metric: guided trap5-30 at budget 3000 and lambda = 0.5, which
ends on its budget with candidates skipped; guided trap5-20 with one
ray at lambda = 0.5, which has rounds whose filter skips every new
candidate; guided OneMax-50 at lambda = 0.5, whose screened rows call
the objective; and guided symreg with depth-1 programs, whose view is
too small for anything to be screened. One more pins guided symreg on
the cubic dataset at cap 64, seed 3 and lambda = 0.5, which runs two
rounds, so its second round stacks trees with a label vocabulary that
grew in the first (at lambda = 1 the run ends within its first round).
A change that alters behaviour on purpose updates these pins and says
why.
"""

from pathlib import Path

from infoevo.cli import build_parser, build_run_config, execute_run

ROOT = Path(__file__).resolve().parents[1]

PINS = {
    "onemax50-guided-s1": (
        "fe789f3e486bdafb55b281b9fd054be8d4b9cc22e3466981f294fddfd4586b10",
        1474,
        1474,
        1474,
    ),
    "onemax50-guided-s2": (
        "97572c5936a071e61268b7e29a36abc9b236584c050800ee865daf4ec0112eb6",
        1128,
        1128,
        1128,
    ),
    "onemax50-guided-s3": (
        "c0acbf024b993cec6b7c0841677ecf47d207408ef19bd79b5cbaf74f4dde37ca",
        1404,
        1404,
        1404,
    ),
    "onemax50-baseline-s1": (
        "408472b08d969467896081e427ff65d89f55545be6ed642f40d08ff664f723b5",
        858,
        858,
        858,
    ),
    "symreg-cubic-cap64-s5": (
        "c8a6a7165ef56215f5a5745d1505ae5cde5b6ee3392e529d0ab550368c4049bc",
        117,
        117,
        117,
    ),
}

CHUNK_RULE_PINS = {
    "trap5-30-blended-b3000-s1": (
        "25dca6320dcbfb6c24c4b66c88d1b06516ad56599ba106452c22b153da019919",
        3000,
        3240,
        3000,
    ),
    "trap5-20-rays1-blended-b3000-s1": (
        "0e0eb655ef42a2a3c0c8c2ad8776762b58de0670d0d209b9413e84e2ec8e42ef",
        3000,
        3610,
        3000,
    ),
    "onemax50-blended-s1": (
        "463d409ec85576e30c455d23d66dbe9753b0b93af7bdf8cf7c02461e3dce20e4",
        1225,
        1245,
        1225,
    ),
    "symreg-maxdepth1-b100-s1": (
        "dc7891621f66e99404e5a5790ee2306a413c06d47274fd428cc8590b07780261",
        6,
        6,
        100,
    ),
}

MULTI_ROUND_PINS = {
    "symreg-cubic-cap64-blended-s3": (
        "5305c4551a307dda97b77357f50d60da10dab4159634484aae9eb224cb1c4679",
        436,
        862,
        436,
    ),
}


def digest_lines(pins, tmp_path, monkeypatch) -> dict:
    """The lines ``tools/trace_digests.py`` prints for the runs named in
    ``pins``, as the tuples the pins hold."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from checks import trace_digest
    from make_dataset import write_dataset
    from trace_digests import runs

    got = {}
    for name, flags in runs(str(write_dataset(tmp_path / "cubic.csv"))):
        if name not in pins:
            continue
        cfg = build_run_config(build_parser().parse_args(["run", *flags]))
        record = execute_run(cfg, cfg.mode, cfg.seed)
        got[name] = (
            trace_digest(record["trace"]),
            record["eval_count"],
            record["objective_calls"],
            record["evals_to_target"],
        )
    return got


def test_bench_seed_traces_match_their_pins(tmp_path, monkeypatch):
    assert digest_lines(PINS, tmp_path, monkeypatch) == PINS


def test_chunk_rule_branch_traces_match_their_pins(tmp_path, monkeypatch):
    assert digest_lines(CHUNK_RULE_PINS, tmp_path, monkeypatch) == CHUNK_RULE_PINS


def test_multi_round_program_trace_matches_its_pin(tmp_path, monkeypatch):
    assert digest_lines(MULTI_ROUND_PINS, tmp_path, monkeypatch) == MULTI_ROUND_PINS
