"""The checks and summary arithmetic of ``scripts/bench_pairs.py``, with
run.py stubbed out; running the benchmark itself is left to the CI step
that pairs a checkout with itself."""
import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bench_pairs = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_pairs)


def result(qps, rss, digest="d", failed=0, seconds=38.0):
    return {
        "seconds": seconds,
        "machine": {"python": "3"},
        "digests": {"gen": {"dataset": digest}},
        "correct": failed == 0,
        "failed": failed,
        "metrics": {
            "gen_qps": {"value": qps, "unit": "questions/s"},
            "peak_rss_mb": {"value": rss, "unit": "MiB"},
            "calls_ratio": {"value": 0.5, "unit": "ratio"},
        },
    }


def test_pairs_won_follow_each_metric_direction():
    pairs = [
        {"base": result(100, 30), "change": result(150, 29)},
        {"base": result(110, 30), "change": result(105, 31)},
        {"base": result(90, 30), "change": result(160, 30)},
    ]
    summary = bench_pairs.summarise(pairs, {"gen_qps": "higher", "peak_rss_mb": "lower"})
    qps = summary["gen_qps"]
    assert qps["base"] == {"values": [100, 110, 90], "median": 100, "q1": 95.0, "q3": 105.0}
    assert qps["change"]["median"] == 150
    assert qps["ratio"] == 1.5
    assert qps["won"] == 2
    assert summary["peak_rss_mb"]["won"] == 1  # lower is better; a tie wins nothing
    assert summary["calls_ratio"]["won"] is None  # no declared direction
    assert qps["verdict"] == summary["peak_rss_mb"]["verdict"] == "unresolved"
    assert summary["calls_ratio"]["verdict"] is None


def ten_pairs(base_qps, change_qps):
    return [{"base": result(b, 30), "change": result(c, 30)}
            for b, c in zip(base_qps, change_qps)]


def qps_verdict(base_qps, change_qps):
    return bench_pairs.summarise(ten_pairs(base_qps, change_qps), {"gen_qps": "higher"})[
        "gen_qps"]


BASE = [100, 104, 96, 102, 98, 101, 99, 103, 97, 100]  # median 100, quartiles 98.25-101.75


def test_a_gain_needs_nine_tenths_of_the_pairs_and_a_margin_over_the_quartiles():
    row = qps_verdict(BASE, [b + 5 for b in BASE])
    assert (row["won"], row["base"]["q1"], row["base"]["q3"]) == (10, 98.25, 101.75)
    assert row["verdict"] == "gain"
    nine = [b + 5 for b in BASE[:9]] + [BASE[9] - 1]
    assert qps_verdict(BASE, nine)["won"] == 9
    assert qps_verdict(BASE, nine)["verdict"] == "gain"
    eight = [b + 5 for b in BASE[:8]] + [BASE[8] - 1, BASE[9]]  # a tie counts for neither
    assert qps_verdict(BASE, eight)["won"] == 8
    assert qps_verdict(BASE, eight)["verdict"] == "unresolved"
    # every pair won, but by less than the base's quartile distance of 3.5
    small = qps_verdict(BASE, [b + 3 for b in BASE])
    assert (small["won"], small["verdict"]) == (10, "unresolved")
    fewer = qps_verdict(BASE[:9], [b + 5 for b in BASE[:9]])  # nine pairs, all won
    assert (fewer["won"], fewer["verdict"]) == (9, "unresolved")


def test_worse_mirrors_gain_and_follows_the_direction():
    assert qps_verdict(BASE, [b - 5 for b in BASE])["verdict"] == "worse"
    assert qps_verdict(BASE, [b - 3 for b in BASE])["verdict"] == "unresolved"
    pairs = [{"base": result(1, r), "change": result(1, r - 4)} for r in BASE]
    lower = bench_pairs.summarise(pairs, {"peak_rss_mb": "lower", "gen_qps": "higher"})
    assert lower["peak_rss_mb"]["verdict"] == "gain"
    assert lower["gen_qps"]["verdict"] == "unresolved"  # every pair tied


def test_one_pair_is_its_own_quartiles():
    summary = bench_pairs.summarise([{"base": result(1, 2), "change": result(3, 4)}], {})
    assert summary["gen_qps"]["change"] == {"values": [3], "median": 3, "q1": 3, "q3": 3}


def test_pairs_that_compute_different_things_are_named(monkeypatch, tmp_path, capsys):
    change = tmp_path / "change"
    change.mkdir()
    sides = {tmp_path: result(1, 2), change: result(5, 6, digest="e")}
    monkeypatch.setattr(bench_pairs, "run_side", lambda checkout, *args: sides[checkout])
    out = tmp_path / "bench.json"
    argv = ["--base", str(tmp_path), "--change", str(change), "--workloads", "proofs",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert "pair 1 of proofs: the two sides' digests differ in gen" in capsys.readouterr().err
    assert not out.exists()


def test_stages_changed_by_design_may_differ_and_no_other(monkeypatch, tmp_path, capsys):
    change = tmp_path / "change"
    change.mkdir()
    base, changed = result(1, 2), result(5, 6)
    base["digests"]["eval_goal"] = {"pred_goal": "a"}
    changed["digests"]["eval_goal"] = {"pred_goal": "b"}
    sides = {tmp_path: base, change: changed}
    monkeypatch.setattr(bench_pairs, "run_side", lambda checkout, *args: sides[checkout])
    out = tmp_path / "bench.json"
    argv = ["--base", str(tmp_path), "--change", str(change), "--workloads", "proofs",
            "--pairs", "1", "--out", str(out)]
    assert bench_pairs.main([*argv, "--changed-stages", "eval_goal,sweep"]) == 0
    doc = json.loads(out.read_text())
    assert doc["changed_stages"] == ["eval_goal", "sweep"]
    assert doc["workloads"]["proofs"]["differing_stages"] == ["eval_goal"]
    out.unlink()
    changed["digests"]["gen"] = {"dataset": "e"}
    assert bench_pairs.main([*argv, "--changed-stages", "eval_goal"]) == 1
    assert "digests differ in gen" in capsys.readouterr().err
    assert not out.exists()


def test_a_wrong_result_is_not_measured():
    assert bench_pairs.unsound(result(1, 2)) == ""
    assert bench_pairs.unsound(result(1, 2, failed=2)) == "result is not correct"
    assert bench_pairs.unsound({**result(1, 2), "failed": 2}) == "2 failed questions"


def test_both_sides_wrong_alike_stop_the_script(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_pairs, "run_side", lambda *args: result(1, 2, failed=1))
    out = tmp_path / "bench.json"
    argv = ["--base", str(tmp_path), "--change", str(tmp_path), "--workloads", "proofs",
            "--out", str(out)]
    assert bench_pairs.main(argv) == 1
    assert "the base run's result is not correct" in capsys.readouterr().err
    assert not out.exists()


def test_run_length_defaults_to_the_changes_benchmark(monkeypatch, tmp_path):
    change = tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps({"run_seconds": 7, "end_to_end": []}))
    asked = []

    def run_side(checkout, workload, seconds, seed):
        asked.append(seconds)
        return result(1, 2, seconds=7.0)

    monkeypatch.setattr(bench_pairs, "run_side", run_side)
    out = tmp_path / "bench.json"
    argv = ["--base", str(tmp_path), "--change", str(change), "--workloads", "proofs",
            "--pairs", "1", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    assert asked == [7, 7]
    assert json.loads(out.read_text())["seconds"] == 7.0
    assert bench_pairs.main([*argv, "--seconds", "0.5"]) == 0
    assert asked[2:] == [0.5, 0.5]


def test_a_workload_list_that_names_none_is_a_usage_error(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(bench_pairs, "run_side", lambda *args: result(1, 2))
    out = tmp_path / "bench.json"
    for workloads in (",", ""):
        with pytest.raises(SystemExit) as stop:
            bench_pairs.main(["--base", str(tmp_path), "--change", str(tmp_path),
                              "--workloads", workloads, "--out", str(out)])
        assert stop.value.code == 2
        assert "--workloads must name at least one workload" in capsys.readouterr().err
    assert not out.exists()


def test_a_workload_named_twice_is_a_usage_error(monkeypatch, tmp_path, capsys):
    """Repeating a workload would put twice the pairs under one key."""
    monkeypatch.setattr(bench_pairs, "run_side", lambda *args: result(1, 2))
    out = tmp_path / "bench.json"
    for workloads in ("proofs,proofs", "corpus,proofs,corpus"):
        with pytest.raises(SystemExit) as stop:
            bench_pairs.main(["--base", str(tmp_path), "--change", str(tmp_path),
                              "--workloads", workloads, "--out", str(out)])
        assert stop.value.code == 2
        assert "--workloads must not name a workload twice" in capsys.readouterr().err
    assert not out.exists()
