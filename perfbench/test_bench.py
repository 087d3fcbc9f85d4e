"""Smoke test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(capsys, workload: str, trace: int, seed: int = 5) -> dict:
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.2", "--trace", str(trace)],
        sizes=workloads.TINY,
        min_rounds=1,
    )
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def _declared(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_every_workload_and_metric_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert _declared("end_to_end") == run.END_TO_END_UNITS
    assert _declared("per_layer") == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_emits_every_end_to_end_metric(capsys, workload):
    result = _run(capsys, workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_emits_every_layer_metric_and_restores_wrappers(capsys, workload):
    result = _run(capsys, workload, trace=1)
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    assert result["metrics"]["reasoner.run.calls"]["value"] > 0
    assert result["metrics"]["cli.main.self_s"]["value"] > 0
    modules = {m: sys.modules[f"rulechain.{m}"] for m in run.MODULES}
    for mod, attr, _ in tracing.FUNCTION_SITES:
        assert not hasattr(getattr(modules[mod], attr), "__wrapped__"), (mod, attr)
    for mod, cls, _ in tracing.METHOD_SITES:
        method = getattr(modules[mod], cls).__dict__["select"]
        assert not hasattr(method, "__wrapped__"), cls


@pytest.mark.skipif(not hasattr(os, "sched_getaffinity"), reason="no CPU affinity")
def test_run_gives_back_the_cpus_it_took_turns_on(capsys):
    before = os.sched_getaffinity(0)
    _run(capsys, "chain", trace=0)
    assert os.sched_getaffinity(0) == before


def test_same_seed_gives_byte_identical_outputs(capsys):
    digests = []
    for _ in range(2):
        _run(capsys, "proofs", trace=0, seed=7)
        result = json.loads((run.WORK / "proofs" / "result.json").read_text(encoding="utf-8"))
        digests.append(result["digests"])
    assert digests[0] == digests[1]


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    tracer.call("outer", lambda: tracer.call("inner", sum, range(1000)))
    own = dict(zip(tracer.names, tracer.self_times()))
    outer = tracer.ends[0] - tracer.starts[0]
    inner = tracer.ends[1] - tracer.starts[1]
    assert own["outer"] == pytest.approx(outer - inner)
    assert own["inner"] == pytest.approx(inner)


def test_tail_needs_ten_samples_beyond_it():
    values = sorted(float(i) for i in range(1, 201))
    assert tracing.tail(values) == (95.0, 190.0)
    assert tracing.tail(values[:15]) == (50.0, 8.0)


def test_fails_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
