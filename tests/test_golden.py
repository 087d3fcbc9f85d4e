"""Engine outputs pinned byte for byte.

``tests/golden/`` holds, for both strategies, the predictions and report
that ``rulechain eval`` writes, the curve that ``rulechain bench`` writes
and every ``InferenceTrace.to_json()`` on three inputs: a fixed-seed
``rulechain gen`` corpus at depths 0..5, one theory of 8 entities with 4
parallel depth-4 chains, and one theory of two stacked 10-way diamonds
(100 equal-depth proofs, capped at 64). The diamond theory, where
selection has real choice, is also run with a shuffle seed. It also holds
the labelled dataset of each input, gold proofs included, and of a
10-layer diamond ladder whose 1,024 proofs pass the enumeration's hard
limit, and both strategies' reports on that ladder, whose gold sets share
most of their steps and whose questions lie deeper than 5. Any change in
gold labelling, in what the engine selects, in proof stitching or in
scoring shows here as a diff.

After a change that is meant to alter these outputs, rewrite the files
with ``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""
from __future__ import annotations

import random
import sys
import tempfile
from pathlib import Path

import pytest

from rulechain.cli import main
from rulechain.datagen import (
    Instance,
    Question,
    assign_gold,
    gold_closure,
    instance_from_json,
    instance_to_json,
)
from rulechain.jsonlio import read_jsonl, write_jsonl
from rulechain.reasoner import run
from rulechain.strategies import STRATEGY_NAMES, make_strategy
from rulechain.theory import parse_statement, parse_theory, render

from conftest import diamond_ladder_lines

GOLDEN = Path(__file__).parent / "golden"

CORPUS_ARGV = ["--theories", "6", "--depths", "0..5", "--seed", "2022"]
SHUFFLE_SEED = 7
# zero, a repeat, the exact length of some traces, and more than any trace
BUDGETS = "0,1,2,3,3,5,7,12,200"
INPUTS = ("corpus", "chain", "diamond")
DATASETS = (*INPUTS, "ladder")
LADDER_LAYERS = 10

NAMES = ("Anne", "Bob", "Dave", "Erin", "Gary", "Max", "Nina", "Tina")
CHAINS = (
    ("blue", "cold", "red", "green"),
    ("nice", "white", "big", "rough"),
    ("sad", "tall", "weak", "dull"),
    ("wild", "neat", "proud", "clean"),
)


def chain_lines() -> list[str]:
    """Every entity holds ``calm``; four chains of four rules lead away."""
    facts = [f"{name} is calm." for name in NAMES]
    rules = []
    for chain in CHAINS:
        prev = "calm"
        for attr in chain:
            rules.append(f"If something is {prev} then it is {attr}.")
            prev = attr
    lines = facts + rules
    random.Random(5).shuffle(lines)
    return lines


def chain_statements() -> list[str]:
    """True, false and unknown, at depths 1 to 4, over several chains."""
    return [
        "Bob is blue.",
        "Dave is not big.",
        "Nina is clean.",
        "Tina is happy.",
    ]


def diamond_lines() -> list[str]:
    """a -> bI -> c -> dI -> e for I in 1..10, on Bob."""
    mids = [f"m{w}" for w in "abcdefghij"]
    lines = ["Bob is gentle."]
    for lo, hi, tag in (("gentle", "bright", "x"), ("bright", "proud", "y")):
        for mid in mids:
            lines.append(f"If something is {lo} then it is {tag}{mid}.")
            lines.append(f"If something is {tag}{mid} then it is {hi}.")
    random.Random(9).shuffle(lines)
    return lines


def diamond_statements() -> list[str]:
    return [
        "Bob is xmc.",
        "Bob is bright.",
        "Bob is not ymj.",
        "Bob is proud.",
        "Bob is dull.",
    ]


def ladder_statements(top: str) -> list[str]:
    """The top of the ladder (past the hard limit), a level under the cap,
    a false and an unknown statement."""
    return [top, "Bob is afx.", "Bob is not cix.", "Bob is dull."]


RUNS = [(name, strategy, None) for name in INPUTS for strategy in STRATEGY_NAMES]
RUNS += [("diamond", strategy, SHUFFLE_SEED) for strategy in STRATEGY_NAMES]
LADDER_REPORTS = [f"ladder.{strategy}.report.json" for strategy in STRATEGY_NAMES]


def _stem(name: str, strategy: str, shuffle_seed: int | None) -> str:
    return f"{name}.{strategy}" + ("" if shuffle_seed is None else ".shuffled")


def _kinds(shuffle_seed: int | None) -> tuple[str, ...]:
    # a shuffled run scores like the plain one; its order is what differs
    if shuffle_seed is None:
        return ("curve.json", "predictions.jsonl", "report.json", "traces.jsonl")
    return ("curve.json", "predictions.jsonl", "traces.jsonl")


GOLDEN_NAMES = sorted(
    [f"{_stem(*r)}.{kind}" for r in RUNS for kind in _kinds(r[2])]
    + [f"{name}.dataset.jsonl" for name in DATASETS]
    + LADDER_REPORTS
)


def write_labelled(path: Path, theory_id: str, lines, statements) -> None:
    """Label hand-written statements with the closure oracle, as ``gen`` does."""
    theory = parse_theory(lines, theory_id)
    closure = gold_closure(theory)
    questions = []
    for k, text in enumerate(statements, start=1):
        statement = parse_statement(text)
        annotation = assign_gold(theory, statement, closure)
        questions.append(
            Question(f"{theory_id}-q{k}", statement, render(statement.atom), annotation)
        )
    write_jsonl(path, [instance_to_json(Instance(theory_id, theory, questions))])


def trace_rows(data: Path, strategy: str, shuffle_seed: int | None) -> list[dict]:
    """One trace per question; the exhaustive trace ignores the question,
    so that strategy has one per theory."""
    rows = []
    for row in read_jsonl(data):
        inst = instance_from_json(row)
        for q in inst.questions:
            strat = make_strategy(strategy, inst.theory, q.statement, shuffle_seed)
            trace = run(inst.theory, q.statement, strat)
            rows.append({"id": q.id if strat.goal_directed else inst.id, "trace": trace.to_json()})
            if not strat.goal_directed:
                break
    return rows


def golden_outputs(workdir: Path) -> dict[str, str]:
    """File name -> contents of every golden output, computed afresh."""
    data = {name: workdir / f"{name}.jsonl" for name in DATASETS}
    assert main(["gen", "--out", str(data["corpus"]), *CORPUS_ARGV]) == 0
    write_labelled(data["chain"], "chain", chain_lines(), chain_statements())
    write_labelled(data["diamond"], "diamond", diamond_lines(), diamond_statements())
    ladder, top = diamond_ladder_lines(LADDER_LAYERS)
    write_labelled(data["ladder"], "ladder", ladder, ladder_statements(top))

    out = {f"{name}.dataset.jsonl": data[name].read_text(encoding="utf-8") for name in DATASETS}
    for name, strategy, shuffle_seed in RUNS:
        stem = _stem(name, strategy, shuffle_seed)
        shuffle = [] if shuffle_seed is None else ["--shuffle-seed", str(shuffle_seed)]
        argv = ["eval", "--data", str(data[name]), "--strategy", strategy, *shuffle,
                "--predictions-out", str(workdir / f"{stem}.predictions.jsonl")]
        if shuffle_seed is None:
            argv += ["--report", str(workdir / f"{stem}.report.json")]
        assert main(argv) == 0
        assert main(["bench", "--data", str(data[name]), "--strategy", strategy, *shuffle,
                     "--budgets", BUDGETS, "--out", str(workdir / f"{stem}.curve.json")]) == 0
        write_jsonl(
            workdir / f"{stem}.traces.jsonl", trace_rows(data[name], strategy, shuffle_seed)
        )
        for kind in _kinds(shuffle_seed):
            out[f"{stem}.{kind}"] = (workdir / f"{stem}.{kind}").read_text(encoding="utf-8")
    for name, strategy in zip(LADDER_REPORTS, STRATEGY_NAMES):
        argv = ["eval", "--data", str(data["ladder"]), "--strategy", strategy,
                "--report", str(workdir / name)]
        assert main(argv) == 0
        out[name] = (workdir / name).read_text(encoding="utf-8")
    return out


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    return golden_outputs(tmp_path_factory.mktemp("golden"))


def test_golden_files_are_exactly_the_outputs(fresh):
    assert sorted(p.name for p in GOLDEN.iterdir()) == GOLDEN_NAMES == sorted(fresh)


@pytest.mark.parametrize("name", GOLDEN_NAMES)
def test_output_matches_golden_file(fresh, name):
    assert fresh.get(name) == (GOLDEN / name).read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    with tempfile.TemporaryDirectory() as tmp:
        outputs = golden_outputs(Path(tmp))
    for name, text in outputs.items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
    print(f"wrote {len(outputs)} files ({sum(map(len, outputs.values()))} bytes) to {GOLDEN}",
          file=sys.stderr)
