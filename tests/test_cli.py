"""End-to-end command tests driven through ``main(argv)``.

Exit-code contract: 0 success, 1 validation, 2 I/O. Everything runs
in-process against tmp_path files; one subprocess test covers the
``python -m`` entry.
"""
import itertools
import json
import string
import subprocess
import sys

import pytest

from rulechain import datagen as dg
from rulechain.cli import main
from rulechain.jsonlio import read_jsonl, write_jsonl
from rulechain.reasoner import LABEL_TRUE, ProofCheckError, check_proof
from rulechain.theory import parse_statement, parse_theory

from conftest import (
    CHAIN2_LINES,
    FAULTY_AFTER_SHARED,
    SHARED_LINES,
    SHARED_PROOF,
    SHARED_STATEMENT,
)

CHAIN2_PROOF = "(sent2 & sent1) -> int1 ; (sent3 & int1) -> hypothesis"
# deeper than Python's default recursion limit of 1,000 frames
DEEP_STEPS = 1200


def deep_chain(steps=DEEP_STEPS):
    """``Bob is qaaa.`` and ``steps`` rules that chain one attribute to the
    next; the statement at the end of the chain and its canonical proof."""
    names = ["q" + "".join(t) for t in itertools.product(string.ascii_lowercase, repeat=3)]
    lines = [f"Bob is {names[0]}."]
    lines += [f"If someone is {names[k]} then they are {names[k + 1]}." for k in range(steps)]
    segments = ["(sent2 & sent1) -> int1"]
    segments += [f"(sent{k + 1} & int{k - 1}) -> int{k}" for k in range(2, steps)]
    segments.append(f"(sent{steps + 1} & int{steps - 1}) -> hypothesis")
    return lines, f"Bob is {names[steps]}.", " ; ".join(segments)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def dataset(tmp_path, capsys):
    path = tmp_path / "data.jsonl"
    code, _, err = run_cli(
        capsys, "gen", "--out", str(path), "--theories", "2",
        "--depths", "0..2", "--seed", "3",
    )
    assert code == 0, err
    return path


# ---------------------------------------------------------------------------
# Global flags and dispatch
# ---------------------------------------------------------------------------

class TestEntry:
    def test_version_banner(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert out.startswith("rulechain 0.1.0")
        assert "dataset=1" in out

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, "--help")[0] == 0
        assert run_cli(capsys, "gen", "--help")[0] == 0

    def test_missing_subcommand_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "error:" in err

    def test_unknown_flag_is_a_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "gen", "--nope")
        assert code == 1
        assert "error:" in err
        # eval and bench have no worker pool, so no --jobs flag.
        for command in ("eval", "bench"):
            code, _, err = run_cli(capsys, command, "--data", "d.jsonl", "--jobs", "2")
            assert code == 1
            assert err == "error: unrecognized arguments: --jobs 2\n"
        # gen sets only depths, theory count and seed; the rates, the gold
        # cap and the distractor shape are the generator's own.
        for flag, value in (
            ("--proof-cap", "8"), ("--conjunction-prob", "0.5"), ("--distractor-chains", "2"),
        ):
            code, _, err = run_cli(capsys, "gen", "--out", "d.jsonl", flag, value)
            assert code == 1
            assert err == f"error: unrecognized arguments: {flag} {value}\n"

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "rulechain", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("rulechain")


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

class TestGen:
    def test_writes_loadable_dataset_and_reports_counts(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        code, out, _ = run_cli(
            capsys, "gen", "--out", str(path), "--theories", "2",
            "--depths", "0..1", "--seed", "1",
        )
        assert code == 0
        instances = [dg.instance_from_json(r) for r in read_jsonl(path)]
        assert len(instances) == 2
        questions = sum(len(i.questions) for i in instances)
        assert out.strip() == f"wrote 2 theories / {questions} questions to {path}"

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        args = ("--theories", "2", "--depths", "0..1", "--seed", "7")
        assert run_cli(capsys, "gen", "--out", str(a), *args)[0] == 0
        assert run_cli(capsys, "gen", "--out", str(b), *args)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_depth_list_and_unknown_spelling(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        code, _, _ = run_cli(
            capsys, "gen", "--out", str(path), "--theories", "1",
            "--depths", "1,unknown", "--seed", "0",
        )
        assert code == 0
        (inst,) = [dg.instance_from_json(r) for r in read_jsonl(path)]
        depths = [q.annotation.depth for q in inst.questions]
        assert dg.DEPTH_NA in depths

    def test_preset_overrides_shape_flags(self, tmp_path, capsys):
        path = tmp_path / "d3.jsonl"
        code, _, _ = run_cli(
            capsys, "gen", "--out", str(path), "--theories", "2",
            "--preset", "d3-like", "--seed", "0",
        )
        assert code == 0
        for row in read_jsonl(path):
            inst = dg.instance_from_json(row)
            # single unknown-free depth bucket is the preset's signature
            assert {q.annotation.depth for q in inst.questions} <= {0, 1, 2, 3, dg.DEPTH_NA}

    def test_rejects_malformed_depths(self, tmp_path, capsys):
        path = tmp_path / "d.jsonl"
        for depths, why in (("x", "bad depth"), ("3..1", "at least one depth is required")):
            code, _, err = run_cli(capsys, "gen", "--out", str(path), "--depths", depths)
            assert code == 1
            assert why in err
        assert not path.exists()

    def test_unwritable_output_is_io_error(self, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "gen", "--out", str(tmp_path / "missing" / "d.jsonl"),
            "--theories", "1",
        )
        assert code == 2
        assert "error:" in err

    def test_seed_env_fallback(self, tmp_path, capsys, monkeypatch):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        monkeypatch.setenv("RULECHAIN_SEED", "9")
        assert run_cli(capsys, "gen", "--out", str(a), "--theories", "1")[0] == 0
        monkeypatch.delenv("RULECHAIN_SEED")
        assert run_cli(capsys, "gen", "--out", str(b), "--theories", "1", "--seed", "9")[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_malformed_seed_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RULECHAIN_SEED", "many")
        code, _, err = run_cli(capsys, "gen", "--out", str(tmp_path / "d.jsonl"))
        assert code == 1
        assert "RULECHAIN_SEED" in err


# ---------------------------------------------------------------------------
# perturb
# ---------------------------------------------------------------------------

class TestPerturb:
    def test_emits_loadable_variants(self, dataset, tmp_path, capsys):
        out = tmp_path / "eq.jsonl"
        code, text, _ = run_cli(
            capsys, "perturb", "--data", str(dataset), "--out", str(out),
            "--mode", "subject", "--variants", "2", "--seed", "0",
        )
        assert code == 0
        rows = read_jsonl(out)
        assert len(rows) == 4  # 2 instances x 2 variants
        parsed = [dg.equivalence_from_row(r) for r in rows]
        assert {base_id for base_id, _, _, _ in parsed} == {"t00001", "t00002"}
        assert "mode=subject" in text

    @pytest.mark.parametrize("ids", [["q"], ["a-q1", "b-q1"]])
    def test_variants_name_questions_by_position(self, dataset, tmp_path, capsys, ids):
        """Any question ids load, so perturb takes any: a variant's k-th
        question is <variant id>-q<k>, distinct within the variant."""
        (row, *_) = read_jsonl(dataset)
        row["questions"] = row["questions"][: len(ids)]
        for question, qid in zip(row["questions"], ids):
            question["id"] = qid
        data = tmp_path / "odd-ids.jsonl"
        write_jsonl(data, [row])
        eq = tmp_path / "eq.jsonl"
        code, _, err = run_cli(
            capsys, "perturb", "--data", str(data), "--out", str(eq),
            "--mode", "both", "--variants", "2", "--seed", "0",
        )
        assert code == 0, err
        for *_, variant in map(dg.equivalence_from_row, read_jsonl(eq)):
            want = [f"{variant.id}-q{j}" for j in range(1, len(ids) + 1)]
            assert [q.id for q in variant.questions] == want
        code, _, err = run_cli(capsys, "eval", "--data", str(data), "--equivalence", str(eq))
        assert code == 0, err

    def test_variant_count_must_be_positive(self, dataset, tmp_path, capsys):
        code, _, err = run_cli(
            capsys, "perturb", "--data", str(dataset),
            "--out", str(tmp_path / "eq.jsonl"), "--mode", "subject",
            "--variants", "0",
        )
        assert code == 1
        assert "--variants" in err

    def test_mode_is_validated(self, dataset, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "perturb", "--data", str(dataset),
            "--out", str(tmp_path / "eq.jsonl"), "--mode", "colour",
        )
        assert code == 1

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "perturb", "--data", str(tmp_path / "absent.jsonl"),
            "--out", str(tmp_path / "eq.jsonl"), "--mode", "subject",
        )
        assert code == 2


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------

class TestSolve:
    @pytest.fixture
    def theory_file(self, tmp_path):
        path = tmp_path / "t.txt"
        path.write_text("\n".join(CHAIN2_LINES) + "\n", encoding="utf-8")
        return path

    def test_answers_with_proof_json(self, theory_file, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--theory", str(theory_file),
            "--statement", "Bob is smart.",
        )
        assert code == 0
        blob = json.loads(out)
        assert blob == {
            "composer_calls": 2,
            "label": "true",
            "proof": CHAIN2_PROOF,
            "stop_reason": "goal_reached",
        }

    def test_budget_starves_the_run(self, theory_file, capsys):
        code, out, _ = run_cli(
            capsys, "solve", "--theory", str(theory_file),
            "--statement", "Bob is smart.", "--budget", "1",
        )
        assert code == 0
        blob = json.loads(out)
        assert blob["label"] == "unknown"
        assert blob["stop_reason"] == "budget_exhausted"

    def test_trace_dump(self, theory_file, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        code, _, _ = run_cli(
            capsys, "solve", "--theory", str(theory_file),
            "--statement", "Bob is smart.", "--trace", str(trace_path),
        )
        assert code == 0
        trace = json.loads(trace_path.read_text(encoding="utf-8"))
        assert trace["composer_calls"] == 2

    def test_unparsable_statement(self, theory_file, capsys):
        code, _, err = run_cli(
            capsys, "solve", "--theory", str(theory_file),
            "--statement", "Blue Bob is.",
        )
        assert code == 1
        assert "error:" in err

    def test_missing_theory_file(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys, "solve", "--theory", str(tmp_path / "absent.txt"),
            "--statement", "Bob is smart.",
        )
        assert code == 2

    @pytest.mark.parametrize("strategy", ["goal", "exhaustive"])
    def test_a_1200_step_chain_is_solved_and_its_proof_checks(self, tmp_path, capsys, strategy):
        lines, statement, proof = deep_chain()
        path = tmp_path / "deep.txt"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, err = run_cli(
            capsys, "solve", "--theory", str(path), "--statement", statement,
            "--strategy", strategy,
        )
        assert code == 0, err
        blob = json.loads(out)
        assert (blob["label"], blob["proof"]) == ("true", proof)
        steps = check_proof(parse_theory(lines), parse_statement(statement), LABEL_TRUE, proof)
        assert len(steps) == DEEP_STEPS


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

class TestEval:
    def test_report_to_stdout_and_files(self, dataset, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        preds_path = tmp_path / "preds.jsonl"
        code, out, _ = run_cli(
            capsys, "eval", "--data", str(dataset), "--strategy", "goal",
            "--report", str(report_path), "--predictions-out", str(preds_path),
        )
        assert code == 0
        assert out.startswith("strategy=goal budget=none")
        report = json.loads(report_path.read_text(encoding="utf-8"))
        total = next(r for r in report["rows"] if r["depth"] == "All")
        assert total["entailment_accuracy"] == 1.0
        assert total["proof_accuracy"] == 1.0
        instances = [dg.instance_from_json(r) for r in read_jsonl(dataset)]
        assert len(read_jsonl(preds_path)) == sum(len(i.questions) for i in instances)

    def test_takes_no_seed_from_the_environment(self, dataset, tmp_path, capsys, monkeypatch):
        # only gen and perturb read RULECHAIN_SEED, and an explicit --seed wins
        monkeypatch.setenv("RULECHAIN_SEED", "abc")
        code, out, err = run_cli(capsys, "eval", "--data", str(dataset))
        assert code == 0, err
        assert out.startswith("strategy=goal budget=none")
        out_path = str(tmp_path / "d.jsonl")
        assert run_cli(capsys, "gen", "--out", out_path, "--theories", "1", "--seed", "1")[0] == 0

    def test_consistency_block_from_equivalence_file(self, dataset, tmp_path, capsys):
        eq = tmp_path / "eq.jsonl"
        assert run_cli(
            capsys, "perturb", "--data", str(dataset), "--out", str(eq),
            "--mode", "both", "--variants", "2", "--seed", "1",
        )[0] == 0
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "eval", "--data", str(dataset), "--equivalence", str(eq),
            "--report", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert report["consistency"]["consistency_entailment"] == 1.0
        assert report["consistency"]["consistency_proof"] == 1.0
        assert "consistency: entailment 1.000" in out

    def test_efficiency_block(self, dataset, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "eval", "--data", str(dataset), "--with-efficiency",
            "--report", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text(encoding="utf-8"))
        assert 0.0 <= report["efficiency"] <= 1.0
        assert "efficiency (calls ratio vs exhaustive):" in out

    def test_equivalence_base_must_be_in_the_dataset(self, tmp_path, capsys):
        big = tmp_path / "big.jsonl"
        small = tmp_path / "small.jsonl"
        args = ("--depths", "0..1", "--seed", "3")
        assert run_cli(capsys, "gen", "--out", str(big), "--theories", "2", *args)[0] == 0
        assert run_cli(capsys, "gen", "--out", str(small), "--theories", "1", *args)[0] == 0
        eq = tmp_path / "eq.jsonl"
        assert run_cli(
            capsys, "perturb", "--data", str(big), "--out", str(eq),
            "--mode", "subject", "--variants", "1",
        )[0] == 0
        code, _, err = run_cli(
            capsys, "eval", "--data", str(small), "--equivalence", str(eq),
        )
        assert code == 1
        assert "t00002" in err

    def test_a_row_with_a_1200_step_gold_proof_is_scored(self, tmp_path, capsys):
        lines, statement, proof = deep_chain()
        path = tmp_path / "deep.jsonl"
        write_jsonl(path, [{
            "id": "d1",
            "sentences": {f"sent{i}": text for i, text in enumerate(lines, start=1)},
            "questions": [{"id": "d1-q1", "text": statement, "label": "true",
                           "depth": DEEP_STEPS, "proofs": [proof]}],
        }])
        report_path = tmp_path / "report.json"
        code, _, err = run_cli(capsys, "eval", "--data", str(path), "--report", str(report_path))
        assert code == 0, err
        report = json.loads(report_path.read_text(encoding="utf-8"))
        total = next(r for r in report["rows"] if r["depth"] == "All")
        assert (total["n"], total["proof_accuracy"]) == (1, 1.0)

    def test_missing_dataset_is_io_error(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "eval", "--data", str(tmp_path / "absent.jsonl"))
        assert code == 2

    def test_outputs_replace_longer_existing_files(self, dataset, tmp_path, capsys):
        # Outputs are rewritten in place, so a longer old file must be cut.
        fresh, stale = tmp_path / "fresh", tmp_path / "stale"
        for out in (fresh, stale):
            out.mkdir()
        for name in ("report.json", "preds.jsonl"):
            (stale / name).write_text("x" * 100_000 + "\n", encoding="utf-8")
        for out in (fresh, stale):
            assert run_cli(
                capsys, "eval", "--data", str(dataset), "--report", str(out / "report.json"),
                "--predictions-out", str(out / "preds.jsonl"),
            )[0] == 0
        for name in ("report.json", "preds.jsonl"):
            assert (stale / name).read_bytes() == (fresh / name).read_bytes()


# ---------------------------------------------------------------------------
# emit-training
# ---------------------------------------------------------------------------

class TestEmitTraining:
    def test_writes_three_streams_with_consistent_counts(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "records"
        code, out, _ = run_cli(
            capsys, "emit-training", "--data", str(dataset), "--out-dir", str(out_dir),
        )
        assert code == 0
        rs = read_jsonl(out_dir / "rs.jsonl")
        fs = read_jsonl(out_dir / "fs.jsonl")
        kc = read_jsonl(out_dir / "kc.jsonl")
        instances = [dg.instance_from_json(r) for r in read_jsonl(dataset)]
        questions = sum(len(i.questions) for i in instances)
        # one selector stop per question on top of the per-step records
        assert len(rs) == len(fs) + questions
        assert len(fs) == len(kc)
        assert f"rs={len(rs)}, fs={len(fs)}, kc={len(kc)}" in out

    def test_creates_nested_output_directory(self, dataset, tmp_path, capsys):
        out_dir = tmp_path / "a" / "b"
        assert run_cli(
            capsys, "emit-training", "--data", str(dataset), "--out-dir", str(out_dir),
        )[0] == 0
        assert (out_dir / "rs.jsonl").exists()

    def test_a_1200_step_chain_is_labelled_scored_and_emitted(self, tmp_path, capsys):
        # the gold-proof search keeps its choice points on a list, not on
        # the Python stack
        lines, text, proof = deep_chain()
        theory, statement = parse_theory(lines, "d1"), parse_statement(text)
        gold = dg.assign_gold(theory, statement)
        assert (gold.label, gold.depth, gold.proofs, gold.proofs_truncated) == (
            LABEL_TRUE, DEEP_STEPS, (proof,), False
        )
        path = tmp_path / "deep.jsonl"
        question = dg.Question("d1-q1", statement, text, gold)
        write_jsonl(path, [dg.instance_to_json(dg.Instance("d1", theory, [question]))])
        code, _, err = run_cli(capsys, "eval", "--data", str(path))
        assert code == 0, err
        out_dir = tmp_path / "records"
        code, _, err = run_cli(
            capsys, "emit-training", "--data", str(path), "--out-dir", str(out_dir),
        )
        assert code == 0, err
        assert len(read_jsonl(out_dir / "kc.jsonl")) == DEEP_STEPS


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

class TestBench:
    def test_prints_table_and_writes_curve(self, dataset, tmp_path, capsys):
        out = tmp_path / "curve.json"
        code, text, _ = run_cli(
            capsys, "bench", "--data", str(dataset), "--budgets", "1,3",
            "--out", str(out),
        )
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "strategy=goal"
        assert lines[1].split() == ["budget", "entail", "proof", "calls"]
        curve = json.loads(out.read_text(encoding="utf-8"))
        assert list(curve["accuracy"]) == ["1", "3"]
        assert curve["accuracy"]["1"] <= curve["accuracy"]["3"]

    def test_rejects_malformed_budgets(self, dataset, capsys):
        code, _, err = run_cli(
            capsys, "bench", "--data", str(dataset), "--budgets", "1,x",
        )
        assert code == 1
        assert "bad budgets" in err

    def test_rejects_a_repeated_budget(self, dataset, tmp_path, capsys):
        out = tmp_path / "curve.json"
        code, text, err = run_cli(
            capsys, "bench", "--data", str(dataset), "--budgets", "3,1,3",
            "--out", str(out),
        )
        assert code == 1
        assert err == "error: budgets must be distinct; repeated: 3\n"
        assert text == ""
        assert not out.exists()


# ---------------------------------------------------------------------------
# Malformed rows and worker counts
# ---------------------------------------------------------------------------

# A blank line first, so the bad row sits on file line 3.
MALFORMED_ROWS = {
    "missing_sentences": ('{"id":"x","questions":[]}', " (id 'x')", "'sentences'"),
    "not_an_object": ("[1,2]", "", "JSON object"),
    "true_without_proofs": (
        '{"id":"x","sentences":{"sent1":"Bob is blue."},"questions":[{"id":"x-q1",'
        '"text":"Bob is blue.","label":"true","depth":0,"proofs":[]}]}',
        " (id 'x')",
        "true questions carry at least one proof",
    ),
    "unknown_with_proofs": (
        '{"id":"x","sentences":{"sent1":"Bob is blue."},"questions":[{"id":"x-q1",'
        '"text":"Bob is red.","label":"unknown","depth":"N/A",'
        '"proofs":["sent1 -> hypothesis"]}]}',
        " (id 'x')",
        "unknown questions carry no proofs",
    ),
    "bool_depth": (
        '{"id":"x","sentences":{"sent1":"Bob is blue."},"questions":[{"id":"x-q1",'
        '"text":"Bob is blue.","label":"true","depth":true,"proofs":["sent1 -> hypothesis"]}]}',
        " (id 'x')",
        "depth must be a non-negative integer",
    ),
    "int_depth_on_unknown": (
        '{"id":"x","sentences":{"sent1":"Bob is blue."},"questions":[{"id":"x-q1",'
        '"text":"Bob is red.","label":"unknown","depth":0,"proofs":[]}]}',
        " (id 'x')",
        "unknown questions have depth 'N/A'",
    ),
    # parse_theory skips a blank line, which would make sent2 the row's sent1
    "blank_sentence": (
        '{"id":"x","sentences":{"sent1":"","sent2":"Bob is red.",'
        '"sent3":"If someone is red then they are big."},"questions":[{"id":"x-q1",'
        '"text":"Bob is big.","label":"true","depth":1,"proofs":["(sent2 & sent1) -> hypothesis"]}]}',
        " (id 'x')",
        "instance x: sent1 is blank",
    ),
    "whitespace_sentence": (
        '{"id":"x","sentences":{"sent1":"Bob is red.","sent2":" \\t"},"questions":[]}',
        " (id 'x')",
        "instance x: sent2 is blank",
    ),
    "nested_too_deeply": ("[" * 100_000, "", "bad JSON line: "),
    "string_truncation_flag": (
        '{"id":"x","sentences":{"sent1":"Bob is blue."},"questions":[{"id":"x-q1",'
        '"text":"Bob is blue.","label":"true","depth":0,"proofs":["sent1 -> hypothesis"],'
        '"proofs_truncated":"false"}]}',
        " (id 'x')",
        "question x-q1: proofs_truncated must be true or false",
    ),
    # too large for range() in the report, which listed no location
    "depth_too_large_for_an_index": (
        '{"id":"x","sentences":{"sent1":"Bob is blue."},"questions":[{"id":"x-q1",'
        f'"text":"Bob is blue.","label":"true","depth":{2**70},'
        '"proofs":["sent1 -> hypothesis"]}]}',
        " (id 'x')",
        f"question x-q1: depth {2**70} exceeds the step count of its first gold proof (0)",
    ),
    # a report row per depth up to it
    "depth_deeper_than_the_first_proof": (
        '{"id":"x","sentences":{"sent1":"Bob is red.","sent2":"If someone is red then '
        'they are big."},"questions":[{"id":"x-q1","text":"Bob is big.","label":"true",'
        '"depth":100000,"proofs":["(sent2 & sent1) -> hypothesis"]}]}',
        " (id 'x')",
        "question x-q1: depth 100000 exceeds the step count of its first gold proof (1)",
    ),
}


def with_bad_row(dataset, tmp_path, row):
    path = tmp_path / "bad.jsonl"
    first = dataset.read_text(encoding="utf-8").splitlines()[0]
    path.write_text(f"{first}\n\n{row}\n", encoding="utf-8")
    return path


class TestMalformedRows:
    @pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
    @pytest.mark.parametrize(
        "command",
        [("eval",), ("bench",), ("emit-training", "--out-dir", "OUT")],
        ids=["eval", "bench", "emit-training"],
    )
    def test_dataset_row_exits_1_with_location(self, dataset, tmp_path, capsys, case, command):
        row, rid, why = MALFORMED_ROWS[case]
        bad = with_bad_row(dataset, tmp_path, row)
        argv = [a.replace("OUT", str(tmp_path / "out")) for a in command]
        code, _, err = run_cli(capsys, *argv, "--data", str(bad))
        assert code == 1
        assert err.startswith(f"error: {bad}:3{rid}: ")
        assert why in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("case", sorted(MALFORMED_ROWS))
    def test_equivalence_row_exits_1_with_location(self, dataset, tmp_path, capsys, case):
        row, rid, why = MALFORMED_ROWS[case]
        eq = tmp_path / "eq.jsonl"
        assert run_cli(
            capsys, "perturb", "--data", str(dataset), "--out", str(eq),
            "--mode", "subject", "--variants", "1",
        )[0] == 0
        bad = with_bad_row(eq, tmp_path, row)
        code, _, err = run_cli(capsys, "eval", "--data", str(dataset), "--equivalence", str(bad))
        assert code == 1
        assert err.startswith(f"error: {bad}:3{rid}: ")
        assert why in err

    def test_variant_with_fewer_questions_exits_1_with_location(self, dataset, tmp_path, capsys):
        eq = tmp_path / "eq.jsonl"
        assert run_cli(
            capsys, "perturb", "--data", str(dataset), "--out", str(eq),
            "--mode", "subject", "--variants", "2",
        )[0] == 0
        rows = [json.loads(line) for line in eq.read_text(encoding="utf-8").splitlines()]
        assert len(rows[1]["questions"]) > 1
        rows[1]["questions"] = rows[1]["questions"][:1]
        eq.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        code, _, err = run_cli(capsys, "eval", "--data", str(dataset), "--equivalence", str(eq))
        assert code == 1
        assert err.startswith(f"error: {eq}:2 (id {rows[1]['id']!r}): ")
        assert "questions, but base" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "bench", "emit-training"])
    def test_repeated_question_id_exits_1_with_location(self, dataset, tmp_path, capsys, command):
        rows = dataset.read_text(encoding="utf-8").splitlines()
        row = json.loads(rows[1])
        qid = json.loads(rows[0])["questions"][0]["id"]
        row["questions"][-1]["id"] = qid
        bad = with_bad_row(dataset, tmp_path, json.dumps(row))
        argv = ["--out-dir", str(tmp_path / "out")] if command == "emit-training" else []
        code, _, err = run_cli(capsys, command, "--data", str(bad), *argv)
        assert code == 1
        assert err == f"error: {bad}:3 (id {row['id']!r}): duplicate question id {qid!r}\n"
        assert not (tmp_path / "out").exists()

    def test_repeated_variant_question_id_exits_1_with_location(self, dataset, tmp_path, capsys):
        eq = tmp_path / "eq.jsonl"
        assert run_cli(
            capsys, "perturb", "--data", str(dataset), "--out", str(eq),
            "--mode", "subject", "--variants", "1",
        )[0] == 0
        rows = eq.read_text(encoding="utf-8").splitlines()
        eq.write_text("\n".join([*rows, rows[0]]) + "\n", encoding="utf-8")
        row = json.loads(rows[0])
        qid = row["questions"][0]["id"]
        code, _, err = run_cli(capsys, "eval", "--data", str(dataset), "--equivalence", str(eq))
        assert code == 1
        line = len(rows) + 1
        assert err == f"error: {eq}:{line} (id {row['id']!r}): duplicate question id {qid!r}\n"

    def test_corrupt_gold_proof_exits_1_with_location(self, dataset, tmp_path, capsys):
        row = json.loads(dataset.read_text(encoding="utf-8").splitlines()[1])
        question = next(q for q in row["questions"] if q["label"] != "unknown")
        question["proofs"] = ["(sent1 & sent2) -> hypothesis"]
        bad = with_bad_row(dataset, tmp_path, json.dumps(row))
        code, _, err = run_cli(
            capsys, "eval", "--data", str(bad), "--report", str(tmp_path / "r.json")
        )
        assert code == 1
        assert err.startswith(f"error: {bad}:3 (id {question['id']!r}): ")
        assert "Traceback" not in err

    def test_a_gold_proof_out_of_canonical_order_exits_1_with_location(
        self, dataset, tmp_path, capsys
    ):
        """A sound gold proof whose independent steps are swapped no longer
        loads and scores as if it were a gold graph."""
        row = {
            "id": "s1",
            "sentences": {f"sent{i}": text for i, text in enumerate(SHARED_LINES, start=1)},
            "questions": [
                {"id": "s1-q1", "text": SHARED_STATEMENT, "label": "true", "depth": 2,
                 "proofs": [FAULTY_AFTER_SHARED["swapped_siblings"]]},
            ],
        }
        bad = with_bad_row(dataset, tmp_path, json.dumps(row))
        code, _, err = run_cli(
            capsys, "eval", "--data", str(bad), "--report", str(tmp_path / "r.json")
        )
        assert code == 1
        assert err == (
            f"error: {bad}:3 (id 's1-q1'): not in canonical form: "
            f"the writer gives {SHARED_PROOF!r}\n"
        )

    def test_a_gold_proof_citing_a_5000_digit_id_exits_1_with_location(
        self, tmp_path, capsys
    ):
        long_id = "sent" + "9" * 5000
        row = {
            "id": "t1",
            "sentences": {f"sent{i}": text for i, text in enumerate(SHARED_LINES, start=1)},
            "questions": [
                {"id": "t1-q1", "text": "Bob is big.", "label": "true", "depth": 1,
                 "proofs": [f"(sent2 & sent1 {long_id}) -> hypothesis"]},
            ],
        }
        data = tmp_path / "one.jsonl"
        data.write_text(json.dumps(row) + "\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "eval", "--data", str(data))
        assert code == 1
        assert err == f"error: {data}:1 (id 't1-q1'): {long_id} is not a given fact\n"

    def test_a_fault_after_a_valid_gold_proof_exits_1_with_location(
        self, dataset, tmp_path, capsys
    ):
        # every step hits the valid proof's; the reasoner tests cover the other faults
        faulty = FAULTY_AFTER_SHARED["dangling_intermediate"]
        with pytest.raises(ProofCheckError) as alone:
            check_proof(
                parse_theory(SHARED_LINES), parse_statement(SHARED_STATEMENT), LABEL_TRUE, faulty
            )
        row = {
            "id": "s1",
            "sentences": {f"sent{i}": text for i, text in enumerate(SHARED_LINES, start=1)},
            "questions": [
                {"id": "s1-q1", "text": SHARED_STATEMENT, "label": "true", "depth": 2,
                 "proofs": [SHARED_PROOF, faulty]},
            ],
        }
        bad = with_bad_row(dataset, tmp_path, json.dumps(row))
        code, _, err = run_cli(
            capsys, "eval", "--data", str(bad), "--report", str(tmp_path / "r.json")
        )
        assert code == 1
        assert err == f"error: {bad}:3 (id 's1-q1'): {alone.value}\n"

    def test_emit_training_locates_a_corrupt_first_proof(self, dataset, tmp_path, capsys):
        row = json.loads(dataset.read_text(encoding="utf-8").splitlines()[1])
        question = next(q for q in row["questions"] if q["label"] != "unknown")
        question["proofs"][0] = "(sent1 & sent2) -> hypothesis"
        bad = with_bad_row(dataset, tmp_path, json.dumps(row))
        code, _, err = run_cli(
            capsys, "emit-training", "--data", str(bad), "--out-dir", str(tmp_path / "out")
        )
        assert code == 1
        assert err.startswith(f"error: {bad}:3 (id {question['id']!r}): ")
        assert "Traceback" not in err

    def test_emit_training_locates_a_contradictory_row(self, dataset, tmp_path, capsys):
        row = {
            "id": "c1",
            "sentences": {
                "sent1": "Bob is blue.",
                "sent2": "Bob is not kind.",
                "sent3": "If someone is blue then they are kind.",
            },
            "questions": [
                {"id": "c1-q1", "text": "Bob is blue.", "label": "true", "depth": 0,
                 "proofs": ["sent1 -> hypothesis"]},
            ],
        }
        bad = with_bad_row(dataset, tmp_path, json.dumps(row))
        code, _, err = run_cli(
            capsys, "emit-training", "--data", str(bad), "--out-dir", str(tmp_path / "out")
        )
        assert code == 1
        assert err.startswith(f"error: {bad}:3 (id 'c1'): ")
        assert "contradictory" in err

