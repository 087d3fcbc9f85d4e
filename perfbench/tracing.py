"""Layer spans recorded from outside the package.

A ``Tracer`` installs timing wrappers on the names that each caller module
looks up (``evalkit.run``, ``strategies.applicable_bindings``, the
``select`` methods, ...), so the package itself is not edited. Each call
through a wrapper records one span: its layer name, start, end, the span
that was open when it started, and the workload stage. Spans stay in
memory until the benchmark writes them out. ``restore`` puts every
original function back, so untraced runs measure unwrapped code.

A layer's self time is its span's duration minus the time covered by its
direct child spans.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

# (module, attribute, layer name) for every function wrapped by name. A
# function reached through several modules is wrapped in each of them under
# one layer name; every call goes through exactly one of those lookups.
FUNCTION_SITES = (
    ("cli", "instance_from_json", "datagen.instance_from_json"),
    ("cli", "read_jsonl", "jsonlio.read_jsonl"),
    ("cli", "write_jsonl", "jsonlio.write_jsonl"),
    ("jsonlio", "write_jsonl", "jsonlio.write_jsonl"),
    ("cli", "write_json", "jsonlio.write_json"),
    ("cli", "generate_dataset", "datagen.generate_dataset"),
    ("datagen", "generate_instance", "datagen.generate_instance"),
    ("datagen", "parse_theory", "theory.parse_theory"),
    ("datagen", "gold_closure", "datagen.gold_closure"),
    ("datagen", "assign_gold", "datagen.assign_gold"),
    ("cli", "emit_training_records", "datagen.emit_training_records"),
    ("cli", "predict_instances", "evalkit.predict_instances"),
    ("evalkit", "predict_instances", "evalkit.predict_instances"),
    ("evalkit", "make_strategy", "strategies.make_strategy"),
    ("evalkit", "run", "reasoner.run"),
    ("evalkit", "solve", "reasoner.solve"),
    ("evalkit", "check_proof", "reasoner.check_proof"),
    ("reasoner", "step", "reasoner.step"),
    ("strategies", "applicable_bindings", "reasoner.applicable_bindings"),
    ("cli", "build_report", "evalkit.build_report"),
    ("cli", "budget_curve", "evalkit.budget_curve"),
)

# (module, class, layer name) for the strategies' ``select`` methods.
METHOD_SITES = (
    ("strategies", "ExhaustiveStrategy", "strategies.select"),
    ("strategies", "GoalDirectedStrategy", "strategies.select"),
)

# Ladder of percentiles for the tail of per-question run times.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


def _count_bindings(tracer: "Tracer", args, result) -> None:
    tracer.counts["reasoner.applicable_bindings.bindings"] += len(result)


def _count_gold(tracer: "Tracer", args, result) -> None:
    tracer.counts["datagen.assign_gold.proofs"] += len(result.proofs)
    tracer.counts["datagen.assign_gold.truncated"] += bool(result.proofs_truncated)


def _count_cone(tracer: "Tracer", args, result) -> None:
    cone = getattr(result, "cone", None)
    rules = args[1].rules if len(args) > 1 else ()
    if cone is not None and rules:
        tracer.cone_shares.append(len(cone.rule_ids) / len(rules))


COUNTERS = {
    "reasoner.applicable_bindings": _count_bindings,
    "datagen.assign_gold": _count_gold,
    "strategies.make_strategy": _count_cone,
}


class Tracer:
    """Spans and counts for one traced pass over a workload's stages."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.stages: list[str] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.cone_shares: list[float] = []
        self.stage = ""
        self._open: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _begin(self, name: str) -> int:
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.stages.append(self.stage)
        self.ends.append(0.0)
        self._open.append(index)
        self.starts.append(time.perf_counter())
        return index

    def _end(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._open.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Call ``fn`` inside a span called ``name``."""
        index = self._begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._end(index)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, owner, attr: str, name: str) -> None:
        original = owner.__dict__.get(attr)
        if original is None:
            return  # the package no longer has this layer; its metrics read 0
        counter = COUNTERS.get(name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = self.call(name, original, *args, **kwargs)
            if counter is not None:
                counter(self, args, result)
            return result

        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self, modules: dict) -> None:
        """Wrap every site; ``modules`` maps short names to the package's
        imported modules."""
        for mod, attr, name in FUNCTION_SITES:
            self._wrap(modules[mod], attr, name)
        for mod, cls, name in METHOD_SITES:
            owner = getattr(modules[mod], cls, None)
            if owner is not None:
                self._wrap(owner, "select", name)

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> list[float]:
        own = [end - start for start, end in zip(self.starts, self.ends)]
        for index, parent in enumerate(self.parents):
            if parent >= 0:
                own[parent] -= self.ends[index] - self.starts[index]
        return own

    def layer_table(self) -> dict[str, dict[str, dict[str, float]]]:
        """stage -> layer -> {calls, self_s, total_s}."""
        own = self.self_times()
        table: dict = defaultdict(
            lambda: defaultdict(lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        )
        for index, name in enumerate(self.names):
            row = table[self.stages[index]][name]
            row["calls"] += 1
            row["self_s"] += own[index]
            if not self._inside_same_layer(index):
                row["total_s"] += self.ends[index] - self.starts[index]
        return {stage: dict(rows) for stage, rows in table.items()}

    def _inside_same_layer(self, index: int) -> bool:
        name = self.names[index]
        parent = self.parents[index]
        while parent >= 0:
            if self.names[parent] == name:
                return True
            parent = self.parents[parent]
        return False

    def durations(self, name: str) -> list[float]:
        return [
            end - start
            for n, start, end in zip(self.names, self.starts, self.ends)
            if n == name
        ]

    def write(self, path) -> None:
        names = sorted(set(self.names))
        stages = sorted(set(self.stages))
        name_index = {n: i for i, n in enumerate(names)}
        stage_index = {s: i for i, s in enumerate(stages)}
        t0 = min(self.starts, default=0.0)
        doc = {
            "names": names,
            "stages": stages,
            "columns": ["name", "start_s", "end_s", "parent", "stage"],
            "spans": [
                [name_index[n], round(s - t0, 7), round(e - t0, 7), p, stage_index[st]]
                for n, s, e, p, st in zip(
                    self.names, self.starts, self.ends, self.parents, self.stages
                )
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-len(sorted_values) * pct // 100))
    return sorted_values[int(rank) - 1]


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """(percentile, value) for the highest ladder percentile with at least
    ten samples beyond it; the median when there are too few samples."""
    n = len(sorted_values)
    for pct in TAIL_PERCENTILES:
        if n * (100.0 - pct) / 100.0 >= 10:
            return pct, percentile(sorted_values, pct)
    return 50.0, percentile(sorted_values, 50.0)
