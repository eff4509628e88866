"""The trace digests and counts of the benchmark's seed runs, pinned.

The runs are the five benchmark-seed runs of ``tools/trace_digests.py``
(guided OneMax-50 seeds 1-3, baseline OneMax-50 seed 1, guided symreg on
the cubic dataset of ``perfbench/make_dataset.py`` at cap 64, seed 5),
made as that tool makes them. Each pin is the line the tool prints for
the run: the SHA-256 of its trace, ``eval_count``, ``objective_calls``
and ``evals_to_target``. The filter and omega read genotypic rows,
which call no objective, so every run makes one objective call per
evaluation. Three more runs of that tool are pinned, each through a
branch of the filter: guided trap5-30 at budget 3000, which ends on its
budget with candidates skipped; guided trap5-20 with one ray at
threshold quantile 0.5, which has rounds whose filter skips every new
candidate, so the quantile in force is halved; and guided symreg with
depth-1 programs, whose view is too small for anything to be screened.
One more pins guided symreg on the cubic dataset at cap 64, seed 2,
which runs two rounds, so its second round stacks a new view with the
label vocabulary its first built.
A change that alters behaviour on purpose updates these pins and says
why.
"""

from pathlib import Path

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

FILTER_PINS = {
    "trap5-30-b3000-s1": (
        "5323b2c4500fe7cdf1f762cfee9c3cee94d1ac79cf9ebd15a6de71cfd91719a8",
        3000,
        3000,
        3000,
    ),
    "trap5-20-rays1-tq05-b3000-s1": (
        "ad20b008f5bfcc0a6976cfea4f5ef5dba7afabdb6b21175aa824040ab2f0189c",
        3000,
        3000,
        3000,
    ),
    "symreg-maxdepth1-b100-s1": (
        "dc7891621f66e99404e5a5790ee2306a413c06d47274fd428cc8590b07780261",
        6,
        6,
        100,
    ),
}

MULTI_ROUND_PINS = {
    "symreg-cubic-cap64-s2": (
        "346a66e208ce222729c65e5059d9f30e6d46ec4f33bc4c4fe5a1f709a045be56",
        454,
        454,
        454,
    ),
}


def digest_lines(pins, tmp_path, monkeypatch) -> dict:
    """The lines ``tools/trace_digests.py`` prints for the runs named in
    ``pins``, as the tuples the pins hold."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    monkeypatch.syspath_prepend(str(ROOT / "tools"))
    from checks import trace_digest
    from make_dataset import write_dataset
    from trace_digests import run_record, runs

    got = {}
    for name, flags in runs(str(write_dataset(tmp_path / "cubic.csv"))):
        if name not in pins:
            continue
        record = run_record(flags)
        got[name] = (
            trace_digest(record["trace"]),
            record["eval_count"],
            record["objective_calls"],
            record["evals_to_target"],
        )
    return got


def test_bench_seed_traces_match_their_pins(tmp_path, monkeypatch):
    assert digest_lines(PINS, tmp_path, monkeypatch) == PINS


def test_filter_branch_traces_match_their_pins(tmp_path, monkeypatch):
    assert digest_lines(FILTER_PINS, tmp_path, monkeypatch) == FILTER_PINS


def test_multi_round_program_trace_matches_its_pin(tmp_path, monkeypatch):
    assert digest_lines(MULTI_ROUND_PINS, tmp_path, monkeypatch) == MULTI_ROUND_PINS
