#!/usr/bin/env python3
"""Alternating benchmark pairs of two checkouts, summarised per metric.

Usage:

    python3 scripts/bench_pairs.py --base ../parent --change . \\
        --workloads corpus,chain,proofs --pairs 10 --seed 0 --out BENCH.json

Each pair runs ``perfbench/run.py --trace 0`` once in each checkout, the
base first in the first, third, ... pair and the change first in the
others, so drift in the machine's speed falls on both sides alike. Without
``--seconds`` each run lasts the ``run_seconds`` that the change's
``BENCHMARK.json`` declares, or run.py's own default when it declares none.
After every run the side's ``.bench_work/<workload>/result.json`` is read.
The script stops with exit code 1 as soon as a run is not ``correct`` or
has a failed question, or the two runs of a pair differ in their output
digests: a wrong result, or a pair that computes different things,
compares nothing. A change that alters some stage's outputs by design
names those stages with ``--changed-stages``; their digests may then
differ, and every other stage's must still agree.

The output file holds, per workload, the stages whose digests differed,
and per end-to-end metric each side's
values in pair order, their median and quartiles, the number of pairs
in which the change was better, read by the ``better`` direction that the
change's ``BENCHMARK.json`` declares, and a verdict. The verdict is
``gain`` when at least ten pairs ran, the change won at least nine tenths
of them (ties count for neither side) and its median beats the base's by
more than the distance between the base's quartiles; ``worse`` when the
base did the same against the change; and ``unresolved`` otherwise. It also records the
run length that run.py reports, both checkouts' commits and the machine.
Only the standard library is used.
"""
from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("base", "change")
# the fewest pairs on which a verdict other than "unresolved" may rest
MIN_PAIRS = 10


def run_side(checkout: Path, workload: str, seconds: float | None, seed: int) -> dict:
    """One benchmark run in ``checkout``; its result.json."""
    argv = [
        sys.executable, "perfbench/run.py", "--workload", workload,
        "--seed", str(seed), "--trace", "0",
    ]
    if seconds is not None:
        argv += ["--seconds", str(seconds)]
    done = subprocess.run(argv, cwd=checkout, stdout=subprocess.DEVNULL)
    if done.returncode != 0:
        raise SystemExit(f"{checkout}: perfbench/run.py --workload {workload} "
                         f"exited with {done.returncode}")
    path = checkout / ".bench_work" / workload / "result.json"
    return json.loads(path.read_text(encoding="utf-8"))


def unsound(result: dict) -> str:
    """Why one run's result cannot be measured, or ''."""
    if result["correct"] is not True:
        return "result is not correct"
    if result["failed"]:
        return f"{result['failed']} failed questions"
    return ""


def differing_stages(pair: dict) -> list[str]:
    """The stages whose output digests differ between the pair's sides."""
    base, change = pair["base"]["digests"], pair["change"]["digests"]
    return sorted(s for s in base.keys() | change.keys() if base.get(s) != change.get(s))


def spread(values: list[float]) -> dict:
    """Median and quartiles; one value is its own quartiles."""
    if len(values) == 1:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def verdict(row: dict, lost: int, sign: int) -> str:
    """"gain", "worse" or "unresolved" for one metric's summary ``row``, in
    which the change lost ``lost`` pairs; ``sign`` is 1 when higher is
    better and -1 when lower is."""
    pairs = len(row["base"]["values"])
    margin = sign * (row["change"]["median"] - row["base"]["median"])
    noise = row["base"]["q3"] - row["base"]["q1"]
    if pairs < MIN_PAIRS:
        return "unresolved"
    if 10 * row["won"] >= 9 * pairs and margin > noise:
        return "gain"
    if 10 * lost >= 9 * pairs and -margin > noise:
        return "worse"
    return "unresolved"


def summarise(pairs: list[dict], better: dict[str, str]) -> dict:
    """Per metric: each side's values, their spread, the pairs won and the
    verdict.

    ``pairs`` holds one {"base": result, "change": result} per pair;
    ``better`` maps a metric to "higher" or "lower".
    """
    names = pairs[0]["base"]["metrics"]
    out = {}
    for name in names:
        values = {s: [p[s]["metrics"][name]["value"] for p in pairs] for s in SIDES}
        row = {"unit": names[name]["unit"], "better": better.get(name)}
        for side in SIDES:
            row[side] = {"values": values[side], **spread(values[side])}
        base_median = row["base"]["median"]
        row["ratio"] = row["change"]["median"] / base_median if base_median else None
        if row["better"] in ("higher", "lower"):
            sign = 1 if row["better"] == "higher" else -1
            gains = [sign * (c - b) for b, c in zip(values["base"], values["change"])]
            row["won"] = sum(g > 0 for g in gains)
            row["verdict"] = verdict(row, sum(g < 0 for g in gains), sign)
        else:
            row["won"] = row["verdict"] = None
        out[name] = row
    return out


def commit(checkout: Path) -> dict:
    def git(*args) -> str:
        done = subprocess.run(["git", "-C", str(checkout), *args],
                              capture_output=True, text=True)
        return done.stdout.strip() if done.returncode == 0 else ""

    head = git("rev-parse", "HEAD")
    return {"commit": head or None, "dirty": bool(git("status", "--porcelain")) if head else None}


def benchmark_spec(checkout: Path) -> dict:
    """The checkout's BENCHMARK.json, or {} when it has none."""
    spec = checkout / "BENCHMARK.json"
    return json.loads(spec.read_text()) if spec.is_file() else {}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="checkout of the base commit")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workloads", default="corpus,chain,proofs")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=None,
                        help="run length (default: the change's BENCHMARK.json run_seconds)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--changed-stages", default="",
                        help="comma-separated stages whose output digests the change "
                             "alters by design (default: none)")
    parser.add_argument("--out", type=Path, required=True, help="summary JSON to write")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    args.workloads = [w for w in args.workloads.split(",") if w]
    if not args.workloads:
        parser.error("--workloads must name at least one workload")
    if len(set(args.workloads)) != len(args.workloads):
        parser.error("--workloads must not name a workload twice")
    args.changed_stages = sorted({s for s in args.changed_stages.split(",") if s})
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    checkouts = {"base": args.base.resolve(), "change": args.change.resolve()}
    spec = benchmark_spec(checkouts["change"])
    seconds = args.seconds if args.seconds is not None else spec.get("run_seconds")
    results: dict[str, list[dict]] = {w: [] for w in args.workloads}
    for i in range(args.pairs):
        for workload in args.workloads:
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            pair = {}
            for side in order:
                pair[side] = run_side(checkouts[side], workload, seconds, args.seed)
                why = unsound(pair[side])
                if why:
                    print(f"error: pair {i + 1} of {workload}: the {side} run's {why}",
                          file=sys.stderr)
                    return 1
            differing = differing_stages(pair)
            unexpected = [s for s in differing if s not in args.changed_stages]
            if unexpected:
                print(f"error: pair {i + 1} of {workload}: the two sides' digests differ "
                      f"in {', '.join(unexpected)}", file=sys.stderr)
                return 1
            results[workload].append(pair)
            print(f"pair {i + 1}/{args.pairs} {workload} done", file=sys.stderr)
    better = {m["name"]: m["better"] for m in spec.get("end_to_end", [])}
    doc = {
        "pairs": args.pairs,
        "seconds": results[args.workloads[0]][0]["change"]["seconds"],
        "seed": args.seed,
        "order": "base first in odd-numbered pairs, change first in even-numbered ones",
        "changed_stages": args.changed_stages,
        **{side: commit(path) for side, path in checkouts.items()},
        "machine": {
            **results[args.workloads[0]][0]["change"]["machine"],
            "machine": platform.machine(),
            "processor": platform.processor() or None,
        },
        "workloads": {
            w: {
                "digests": pairs[0]["change"]["digests"],
                "differing_stages": sorted(
                    {s for pair in pairs for s in differing_stages(pair)}
                ),
                "correct": pairs[0]["change"]["correct"],
                "failed": pairs[0]["change"]["failed"],
                "metrics": summarise(pairs, better),
            }
            for w, pairs in results.items()
        },
    }
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    for w, entry in doc["workloads"].items():
        for name, row in entry["metrics"].items():
            ratio = "-" if row["ratio"] is None else f"x{row['ratio']:.3f}"
            won = "" if row["won"] is None else f"  won {row['won']}/{args.pairs} {row['verdict']}"
            print(f"{w:<7} {name:<20} {row['base']['median']:>12.4g} -> "
                  f"{row['change']['median']:<12.4g} {ratio}{won}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
