#!/usr/bin/env python3
"""The rulechain benchmark: one workload per process, every metric by name.

Usage (from the repository root):

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 38 --trace 0

Each run imports ``rulechain`` from ``src/`` next to this directory, builds
the workload's seeded raw inputs, and then drives the package the way a
user does, in-process through ``rulechain.cli.main``:

    gen              rulechain gen (corpus), or oracle labelling of the
                     benchmark-built theories written with write_jsonl
    eval_goal        rulechain eval --strategy goal --report --predictions-out
    eval_exhaustive  the same with --strategy exhaustive
    sweep            rulechain bench --strategy goal --budgets 1,3,5,7,10
    training         rulechain emit-training

It is a closed loop with one caller: each call starts when the previous
one returns, and no worker pool runs. Each workload is split into shards
and every stage runs once per shard, so each timed call is short. The
stages are repeated in rounds for ``--seconds``, the calls of a round in
shuffled order and taking turns on the process's CPUs. Each call is timed
against a fixed reference task run right before and after it, which
takes out the machine's momentary speed (see ``Clock``); a stage's time
is the sum over shards of each shard's median scaled call time. Outputs are
checked against the closure oracle outside the timed region: labels,
``check_proof`` on every emitted proof, and goal/exhaustive agreement.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs each stage
untraced and traced, wraps the package's layer functions from outside (see
``tracing.py``), and prints the per-layer metrics. The last line of
standard output is always one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
Working files go to ``.bench_work/<workload>/`` under the repository root.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("corpus", "chain", "proofs")
STAGES = ("gen", "eval_goal", "eval_exhaustive", "sweep", "training")
STRATEGIES = ("goal", "exhaustive")
BUDGETS = (1, 3, 5, 7, 10)
MODULES = ("cli", "datagen", "evalkit", "jsonlio", "reasoner", "strategies", "theory")
MIN_ROUNDS = 3
# No round starts that would end after this many seconds of the run, so a
# run stays inside its time limit when the stages are slower than assumed.
HARD_STOP_S = 140.0
# The reference task's fastest time seen on the baseline machine; see ``Clock``.
REFERENCE_S = 0.0038

END_TO_END_UNITS = {
    "setup_s": "s",
    "gen_qps": "questions/s",
    "eval_goal_qps": "questions/s",
    "eval_exhaustive_qps": "questions/s",
    "sweep_qps": "q-budgets/s",
    "training_qps": "questions/s",
    "peak_rss_mb": "MiB",
    "calls_ratio": "ratio",
    "proof_acc": "fraction",
    "passed_share": "fraction",
}

# Per-layer metrics from one traced pass over the stages: calls and self
# time per layer, summed over the workload's stages.
LAYER_CALLS = (
    "theory.parse_theory",
    "datagen.gold_closure",
    "datagen.assign_gold",
    "strategies.select",
    "reasoner.applicable_bindings",
    "reasoner.step",
    "reasoner.run",
    "reasoner.solve",
    "reasoner.check_proof",
    "evalkit.predict_instances",
)
LAYER_SELF = (
    "theory.parse_theory",
    "datagen.instance_from_json",
    "jsonlio.read_jsonl",
    "jsonlio.write_jsonl",
    "jsonlio.write_json",
    "datagen.gold_closure",
    "datagen.generate_instance",
    "datagen.assign_gold",
    "datagen.emit_training_records",
    "strategies.make_strategy",
    "strategies.select",
    "reasoner.applicable_bindings",
    "reasoner.step",
    "reasoner.run",
    "reasoner.solve",
    "reasoner.check_proof",
    "evalkit.build_report",
    "evalkit.predict_instances",
    "evalkit.budget_curve",
    "cli.main",
)
PER_LAYER_UNITS = {
    **{f"{layer}.calls": "count" for layer in LAYER_CALLS},
    **{f"{layer}.self_s": "s" for layer in LAYER_SELF},
    "datagen.gen.attempts_per_instance": "ratio",
    "datagen.assign_gold.proofs": "count",
    "datagen.assign_gold.truncated": "count",
    "strategies.cone.rule_share": "fraction",
    "reasoner.applicable_bindings.bindings": "count",
    "reasoner.useful_binding_ratio": "ratio",
    "reasoner.run.p50_ms": "ms",
    "reasoner.run.tail_ms": "ms",
    **{f"trace.overhead.{stage}": "ratio" for stage in STAGES},
}


class StageError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# Set-up
# ---------------------------------------------------------------------------

def import_package() -> dict:
    """Import ``rulechain`` afresh from this checkout's ``src/``."""
    for name in [n for n in sys.modules if n == "rulechain" or n.startswith("rulechain.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    modules = {m: importlib.import_module(f"rulechain.{m}") for m in MODULES}
    location = Path(sys.modules["rulechain"].__file__).resolve().parent
    if location != SRC / "rulechain":
        raise ImportError(f"rulechain imported from {location}, not from {SRC}")
    return modules


def build_inputs(workload: str, seed: int, sizes: workloads.Sizes) -> list:
    """The raw inputs of every shard."""
    if workload == "corpus":
        return [
            workloads.corpus_argv(seed, k, sizes, str(shard_paths(workload, k)["dataset"]))
            for k in range(sizes.corpus_shards)
        ]
    if workload == "chain":
        return workloads.chunks(workloads.chain_theories(seed, sizes), sizes.chain_per_shard)
    return workloads.chunks(workloads.proofs_theories(seed, sizes), sizes.proofs_per_shard)


def shard_paths(workload: str, k: int) -> dict:
    base = WORK / workload
    return {
        "dataset": base / f"dataset-{k}.jsonl",
        "pred_goal": base / f"predictions-goal-{k}.jsonl",
        "pred_exhaustive": base / f"predictions-exhaustive-{k}.jsonl",
        "report_goal": base / f"report-goal-{k}.json",
        "report_exhaustive": base / f"report-exhaustive-{k}.json",
        "curve": base / f"curve-{k}.json",
        "training": base / f"training-{k}",
    }


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

def label_and_write(mods: dict, raw_theories, out: Path) -> None:
    """Label benchmark-built theories with the closure oracle and write the
    dataset, as ``gen`` does for generated ones."""
    datagen, theory, jsonlio = mods["datagen"], mods["theory"], mods["jsonlio"]
    rows = []
    for raw in raw_theories:
        # parse_theory is looked up through datagen, where tracing wraps it
        parsed = datagen.parse_theory(list(raw.sentences), raw.id)
        closure = datagen.gold_closure(parsed)
        questions = []
        for k, text in enumerate(raw.statements, start=1):
            statement = theory.parse_statement(text)
            annotation = datagen.assign_gold(parsed, statement, closure)
            questions.append(
                datagen.Question(
                    f"{raw.id}-q{k}", statement, theory.render(statement.atom), annotation
                )
            )
        rows.append(datagen.instance_to_json(datagen.Instance(raw.id, parsed, questions)))
    jsonlio.write_jsonl(out, rows)


def stage_argv(stage: str, paths: dict) -> list[str]:
    data = str(paths["dataset"])
    if stage in ("eval_goal", "eval_exhaustive"):
        strategy = stage.split("_", 1)[1]
        return [
            "eval", "--data", data, "--strategy", strategy,
            "--report", str(paths[f"report_{strategy}"]),
            "--predictions-out", str(paths[f"pred_{strategy}"]),
        ]
    if stage == "sweep":
        return [
            "bench", "--data", data, "--strategy", "goal",
            "--budgets", ",".join(map(str, BUDGETS)), "--out", str(paths["curve"]),
        ]
    if stage == "training":
        return ["emit-training", "--data", data, "--out-dir", str(paths["training"])]
    raise ValueError(stage)


def run_stage(stage: str, workload: str, mods: dict, inputs, paths: dict, tracer=None) -> None:
    """One closed-loop call of a stage; ``tracer`` records its spans."""
    if stage == "gen" and workload != "corpus":
        if tracer is None:
            label_and_write(mods, inputs, paths["dataset"])
        else:
            tracer.call("bench.label_and_write", label_and_write, mods, inputs, paths["dataset"])
        return
    argv = inputs if stage == "gen" else stage_argv(stage, paths)
    main = mods["cli"].main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(argv) if tracer is None else tracer.call("cli.main", main, argv)
    if code != 0:
        raise StageError(f"rulechain {' '.join(argv)} exited with {code}")


STAGE_OUTPUTS = {
    "gen": ("dataset",),
    "eval_goal": ("pred_goal", "report_goal"),
    "eval_exhaustive": ("pred_exhaustive", "report_exhaustive"),
    "sweep": ("curve",),
    "training": ("training",),
}


def digests(stage: str, shards: list[dict]) -> dict[str, str]:
    """sha256 of each of the stage's outputs, over its shard files in order."""
    out = {}
    for kind in STAGE_OUTPUTS[stage]:
        h = hashlib.sha256()
        for paths in shards:
            path = paths[kind]
            for f in sorted(path.glob("*.jsonl")) if path.is_dir() else [path]:
                h.update(f.read_bytes())
        out[kind] = h.hexdigest()
    return out


# ---------------------------------------------------------------------------
# Correctness
# ---------------------------------------------------------------------------

def oracle_label(reasoner, closure, atom) -> str:
    if closure.knows(atom):
        return reasoner.LABEL_TRUE
    if closure.knows(atom.negated()):
        return reasoner.LABEL_FALSE
    return reasoner.LABEL_UNKNOWN


def check_outputs(mods: dict, shards: list[dict], broken_stages: set) -> tuple[int, set, list]:
    """(questions attempted, ids of failed questions, problem notes).

    A question fails when a label differs from the oracle's, when a proof
    fails ``check_proof`` or is missing, when the strategies disagree, or
    when any stage raised or produced an inconsistent file.
    """
    if "gen" in broken_stages:
        return 1, {"<gen>"}, ["gen raised; nothing to check"]
    attempted = 0
    failed: set[str] = set()
    notes: list[str] = []
    for k, paths in enumerate(shards):
        ids, shard_failed = check_shard(mods, paths, broken_stages, notes)
        attempted += len(ids)
        failed.update(f"{k}:{qid}" for qid in shard_failed)
    return attempted, failed, notes


def check_shard(mods: dict, paths: dict, broken_stages: set, notes: list) -> tuple[list, set]:
    datagen, evalkit = mods["datagen"], mods["evalkit"]
    jsonlio, reasoner = mods["jsonlio"], mods["reasoner"]
    instances = [datagen.instance_from_json(r) for r in jsonlio.read_jsonl(paths["dataset"])]
    ids = [q.id for inst in instances for q in inst.questions]
    failed: set[str] = set()

    def fail(qid: str, why: str) -> None:
        failed.add(qid)
        if len(notes) < 20:
            notes.append(f"{paths['dataset'].name} {qid}: {why}")

    preds = {}
    for strategy in STRATEGIES:
        if f"eval_{strategy}" in broken_stages:
            preds[strategy] = {}
            continue
        rows = jsonlio.read_jsonl(paths[f"pred_{strategy}"])
        preds[strategy] = evalkit.index_predictions(
            [evalkit.prediction_from_json(r) for r in rows]
        )
    for inst in instances:
        closure = datagen.gold_closure(inst.theory)
        for q in inst.questions:
            gold = oracle_label(reasoner, closure, q.statement.atom)
            if q.annotation.label != gold:
                fail(q.id, f"dataset label {q.annotation.label}, oracle {gold}")
            labels = set()
            for strategy in STRATEGIES:
                p = preds[strategy].get(q.id)
                if p is None:
                    fail(q.id, f"no {strategy} prediction")
                    continue
                labels.add(p.label)
                if p.label != gold:
                    fail(q.id, f"{strategy} predicted {p.label}, oracle {gold}")
                elif (p.proof is None) != (gold == reasoner.LABEL_UNKNOWN):
                    fail(q.id, f"{strategy} proof presence does not match {p.label}")
                elif p.proof is not None:
                    try:
                        reasoner.check_proof(inst.theory, q.statement, p.label, p.proof)
                    except reasoner.ProofCheckError as e:
                        fail(q.id, f"{strategy} proof rejected: {e}")
            if len(labels) > 1:
                fail(q.id, f"strategies disagree: {sorted(labels)}")

    for stage, check in (
        ("sweep", lambda: check_curve(paths["curve"])),
        ("training", lambda: check_training(jsonlio, paths["training"], len(ids))),
    ):
        why = "raised" if stage in broken_stages else check()
        if why:
            notes.append(f"{paths['dataset'].name} {stage}: {why}")
            failed.update(ids)
    return ids, failed


def check_curve(path: Path) -> str:
    curve = json.loads(path.read_text(encoding="utf-8"))
    if curve["budgets"] != list(BUDGETS):
        return f"budgets {curve['budgets']}"
    for b in BUDGETS:
        acc, proof, calls = (curve[k][str(b)] for k in ("accuracy", "proof_accuracy", "mean_calls"))
        if not (0.0 <= proof <= acc <= 1.0 and 0.0 <= calls <= b):
            return f"budget {b}: accuracy {acc}, proof {proof}, calls {calls}"
    return ""


def check_training(jsonlio, directory: Path, n_questions: int) -> str:
    counts = {k: len(jsonlio.read_jsonl(directory / f"{k}.jsonl")) for k in ("rs", "fs", "kc")}
    if counts["fs"] != counts["kc"] or counts["rs"] != counts["kc"] + n_questions:
        return f"record counts do not reconcile: {counts}"
    return ""


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def stage_time(per_shard: list[list[float]], estimate=statistics.median) -> float:
    return sum(estimate(times) for times in per_shard)


def timed(fn) -> float:
    gc.collect()
    started = time.perf_counter()
    fn()
    return time.perf_counter() - started


def reference() -> int:
    """A fixed pure-Python task of about 4 ms: formatting, dicts, small
    objects and sorting, like the package's own code."""
    counts: dict[str, int] = {}
    pairs = []
    for i in range(3000):
        key = f"k{i % 251}"
        counts[key] = counts.get(key, 0) + i
        pairs.append(_Pair(key, i))
    pairs.sort(key=lambda p: (p.key, -p.n))
    return len(counts) + pairs[0].n


class _Pair:
    __slots__ = ("key", "n")

    def __init__(self, key: str, n: int):
        self.key, self.n = key, n


class Clock:
    """Times each call against the reference task run just before and after it.

    Every repetition of a call does the same deterministic work, so the
    differences between repetitions are interference from outside the
    process. On a shared 2-vCPU machine that interference slows the
    interpreter by 10-100%, in bursts from milliseconds to minutes, and it
    can hold a whole 40-second run 25-40% below the speed of the next run:
    no repetition of any call in such a run is fast. So each call's wall
    time is divided by the mean time of the reference task run right
    before and after it, which was slowed by the same interference, and
    multiplied by ``REFERENCE_S``: the call's time in reference tasks,
    given in seconds of the baseline machine. A stage's time is the sum
    over shards of the median over repetitions (``stage_time``). The
    reference never calls the package, so a change to the package moves
    the scaled times as it moves the wall times.
    """

    def __init__(self) -> None:
        self.last_reference = timed(reference)

    def time(self, fn) -> tuple[float, float]:
        """(wall seconds, scaled seconds) of one call of ``fn``."""
        wall = timed(fn)
        after = timed(reference)
        scaled = wall * 2.0 * REFERENCE_S / (self.last_reference + after)
        self.last_reference = after
        return wall, scaled


def measure(workload, seed, seconds, trace, sizes, min_rounds) -> dict:
    started = time.perf_counter()
    base = WORK / workload
    shutil.rmtree(base, ignore_errors=True)
    base.mkdir(parents=True)
    shards = [shard_paths(workload, k) for k in range(len(build_inputs(workload, seed, sizes)))]

    setup_times: list[float] = []
    setup_scaled: list[float] = []
    clock = Clock()

    def set_up():
        made = []
        wall, scaled = clock.time(
            lambda: made.append((import_package(), build_inputs(workload, seed, sizes)))
        )
        setup_times.append(wall)
        setup_scaled.append(scaled)
        return made[0]

    times = {s: [[] for _ in shards] for s in STAGES}
    scaled_times = {s: [[] for _ in shards] for s in STAGES}
    traced_times = {s: [[] for _ in shards] for s in STAGES}
    stage_digests: dict[str, dict] = {}
    unstable: set[str] = set()
    broken: dict[str, str] = {}
    tracer = tracing.Tracer() if trace else None

    def one_call(stage: str, k: int, t, mods: dict, inputs: list) -> None:
        shard_input, paths = inputs[k], shards[k]
        wall, scaled = clock.time(lambda: run_stage(stage, workload, mods, shard_input, paths))
        times[stage][k].append(wall)
        scaled_times[stage][k].append(scaled)
        if t is None:
            return
        t.stage = stage
        t.install(mods)
        try:
            _, scaled = clock.time(lambda: t.call(
                "stage", run_stage, stage, workload, mods, shard_input, paths, t
            ))
            traced_times[stage][k].append(scaled)
        finally:
            t.restore()

    # Whole rounds, each starting with a fresh set-up, so set-up and every
    # call get the same number of samples spread over the whole run. The
    # first round runs the stages in order, since gen writes the datasets
    # the others read; later rounds shuffle the calls, so the shards of a
    # stage are not all timed in the same stretch of machine speed. Calls
    # take turns on the CPUs the process may use: the speed of each CPU
    # drifts on its own, and the scheduler would otherwise keep the whole
    # run on one of them.
    order = random.Random(f"order:{workload}")
    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else []
    deadline = time.perf_counter() + seconds
    rounds = 0
    try:
        while rounds < min_rounds or time.perf_counter() < deadline:
            round_started = time.perf_counter()
            mods, inputs = set_up()
            # only the first traced round keeps its spans
            t = (tracer if rounds == 0 else tracing.Tracer()) if trace else None
            calls = [(stage, k) for stage in STAGES for k in range(len(shards))]
            if rounds:
                order.shuffle(calls)
            for i, (stage, k) in enumerate(calls):
                if stage in broken:
                    continue
                if len(cpus) > 1:
                    os.sched_setaffinity(0, {cpus[i % len(cpus)]})
                try:
                    one_call(stage, k, t, mods, inputs)
                except Exception as e:  # a failing stage is counted, not fatal
                    broken[stage] = f"{type(e).__name__}: {e}"
            for stage in STAGES:
                if stage in broken:
                    continue
                got = digests(stage, shards)
                if rounds == 0:
                    stage_digests[stage] = got
                elif got != stage_digests[stage]:
                    unstable.add(stage)
            rounds += 1
            now = time.perf_counter()
            if now - started + (now - round_started) > HARD_STOP_S:
                break
    finally:
        if len(cpus) > 1:
            os.sched_setaffinity(0, cpus)

    attempted, failed, notes = check_outputs(mods, shards, set(broken))
    for stage, why in broken.items():
        notes.append(f"{stage} raised {why}")
    for stage in unstable:
        notes.append(f"{stage} outputs differ between repetitions")

    result = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": sizes.__dict__,
        "shards": len(shards),
        "questions": attempted,
        "rounds": rounds,
        "best_s": {s: stage_time(v, min) if v[0] else None for s, v in times.items()},
        "median_s": {s: stage_time(v) if v[0] else None for s, v in times.items()},
        "scaled_s": {s: stage_time(v) if v[0] else None for s, v in scaled_times.items()},
        "times_s": times,
        "scaled_times_s": scaled_times,
        "setup_times_s": setup_times,
        "setup_scaled_s": setup_scaled,
        "digests": stage_digests,
        "notes": notes,
        "correct": not failed and not unstable and not broken,
        "attempted": attempted,
        "failed": len(failed),
        "machine": machine(),
    }
    if trace:
        table = tracer.layer_table()
        result["metrics"], result["run_tail"] = layer_metrics(
            tracer, table, scaled_times, traced_times
        )
        result["stage_layers"] = stage_layers(table)
        tracer.write(base / "spans.json")
    else:
        result["metrics"] = end_to_end_metrics(
            mods, shards, setup_scaled, scaled_times, len(failed), attempted, broken
        )
        result["report_rows"] = goal_rows(shards, broken)
    result["elapsed_s"] = time.perf_counter() - started
    (base / "result.json").write_text(json.dumps(result, indent=2, sort_keys=True) + "\n")
    return result


def _weighted(pairs) -> float:
    """Mean of per-shard values weighted by their question counts."""
    pairs = list(pairs)
    total = sum(n for _, n in pairs)
    return sum(v * n for v, n in pairs) / total if total else 0.0


def end_to_end_metrics(mods, shards, setup_times, times, n_failed, attempted, broken):
    values = {"setup_s": statistics.median(setup_times)}
    for stage in STAGES:
        units = attempted * (len(BUDGETS) if stage == "sweep" else 1)
        seconds = stage_time(times[stage]) if times[stage][0] and stage not in broken else 0.0
        values[f"{stage}_qps"] = units / seconds if seconds else 0.0
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    evalkit, jsonlio = mods["evalkit"], mods["jsonlio"]
    if "eval_goal" in broken or "eval_exhaustive" in broken:
        values["calls_ratio"] = values["proof_acc"] = 0.0
    else:
        ratios, accuracies = [], []
        for paths in shards:
            goal, exhaustive = (
                [evalkit.prediction_from_json(r) for r in jsonlio.read_jsonl(paths[f"pred_{s}"])]
                for s in STRATEGIES
            )
            ratios.append((evalkit.efficiency_ratio(goal, exhaustive), len(goal)))
            report = json.loads(paths["report_goal"].read_text(encoding="utf-8"))
            everything = next(r for r in report["rows"] if r["depth"] == "All")
            accuracies.append((everything["proof_accuracy"], everything["n"]))
        values["calls_ratio"] = _weighted(ratios)
        values["proof_acc"] = _weighted(accuracies)
    values["passed_share"] = 1.0 - n_failed / attempted
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def layer_metrics(tracer, table, times, traced_times) -> tuple[dict, dict]:
    """The per-layer metrics, and the percentile and sample count of
    ``reasoner.run.tail_ms``."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for rows in table.values():
        for layer, row in rows.items():
            calls[layer] = calls.get(layer, 0) + row["calls"]
            self_s[layer] = self_s.get(layer, 0.0) + row["self_s"]
    values: dict[str, float] = {}
    for layer in LAYER_CALLS:
        values[f"{layer}.calls"] = calls.get(layer, 0)
    for layer in LAYER_SELF:
        values[f"{layer}.self_s"] = self_s.get(layer, 0.0)

    generated = calls.get("datagen.generate_instance", 0)
    closures_in_gen = sum(
        1
        for name, parent in zip(tracer.names, tracer.parents)
        if name == "datagen.gold_closure" and parent >= 0
        and tracer.names[parent] == "datagen.generate_instance"
    )
    values["datagen.gen.attempts_per_instance"] = closures_in_gen / generated if generated else 0.0
    for key in ("datagen.assign_gold.proofs", "datagen.assign_gold.truncated",
                "reasoner.applicable_bindings.bindings"):
        values[key] = tracer.counts.get(key, 0)
    shares = tracer.cone_shares
    values["strategies.cone.rule_share"] = sum(shares) / len(shares) if shares else 0.0
    bindings = values["reasoner.applicable_bindings.bindings"]
    values["reasoner.useful_binding_ratio"] = (
        values["reasoner.step.calls"] / bindings if bindings else 0.0
    )
    runs = sorted(d * 1000.0 for d in tracer.durations("reasoner.run"))
    values["reasoner.run.p50_ms"] = tracing.percentile(runs, 50.0)
    tail_pct, values["reasoner.run.tail_ms"] = tracing.tail(runs)
    for stage in STAGES:
        plain, traced = times[stage], traced_times[stage]
        values[f"trace.overhead.{stage}"] = (
            stage_time(traced) / stage_time(plain) if plain[0] and traced[0] else 0.0
        )
    metrics = {k: {"value": v, "unit": PER_LAYER_UNITS[k]} for k, v in values.items()}
    return metrics, {"percentile": tail_pct, "n": len(runs)}


def stage_layers(table) -> dict:
    """Per stage, each layer's share of the stage's traced wall time."""
    out = {}
    for stage, rows in table.items():
        wall = rows["stage"]["total_s"]
        out[stage] = {
            name: {
                "calls": r["calls"],
                "self_share": r["self_s"] / wall,
                "total_share": r["total_s"] / wall,
            }
            for name, r in sorted(rows.items(), key=lambda kv: -kv[1]["self_s"])
        }
    return out


def goal_rows(shards, broken) -> list:
    """The goal report's depth rows, merged over the shards."""
    if "eval_goal" in broken:
        return []
    merged: dict = {}
    for paths in shards:
        for row in json.loads(paths["report_goal"].read_text(encoding="utf-8"))["rows"]:
            m = merged.setdefault(
                row["depth"], {"depth": row["depth"], "n": 0, "entail": 0.0, "proof": 0.0}
            )
            m["n"] += row["n"]
            if row["n"]:
                m["entail"] += row["entailment_accuracy"] * row["n"]
                m["proof"] += row["proof_accuracy"] * row["n"]
    for m in merged.values():
        for key in ("entail", "proof"):
            m[key] = m[key] / m["n"] if m["n"] else None
    return list(merged.values())


def machine() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def print_summary(result: dict) -> None:
    print(f"workload={result['workload']} seed={result['seed']} trace={result['trace']} "
          f"questions={result['questions']} shards={result['shards']} rounds={result['rounds']}")
    for stage in STAGES:
        fastest, median = result["best_s"][stage], result["median_s"][stage]
        scaled = result["scaled_s"][stage]
        shown = "-" if fastest is None else (
            f"scaled={scaled:.4f}s wall best={fastest:.4f}s median={median:.4f}s"
        )
        print(f"  {stage:<16} {shown}")
    for stage, outputs in result["digests"].items():
        for kind, digest in outputs.items():
            print(f"  sha256 {kind} {digest}")
    for row in result.get("report_rows", []):
        print("  goal depth={depth} n={n} entail={entail} proof={proof}".format(**row))
    if "run_tail" in result:
        tail = result["run_tail"]
        print(f"  reasoner.run.tail_ms is the p{tail['percentile']:g} of n={tail['n']} runs")
    for stage, layers in result.get("stage_layers", {}).items():
        top = list(layers.items())[:5]
        shares = ", ".join(f"{name} {r['self_share']:.0%}" for name, r in top)
        print(f"  self-time {stage}: {shares}")
    for note in result["notes"]:
        print(f"  problem: {note}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="rulechain benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=38.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, sizes: workloads.Sizes = workloads.FULL, min_rounds: int = MIN_ROUNDS) -> int:
    args = parse_args(argv)
    if not (SRC / "rulechain").is_dir():
        print(f"error: no rulechain package under {SRC}", file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), sizes, min_rounds)
    print_summary(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
