"""Command-line interface.

Subcommands: gen, perturb, solve, eval, emit-training, bench. Exit codes:
0 on success, 1 on validation problems (bad flags, unparsable sentences,
generator constraint failures, malformed rows), 2 on I/O failures.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import os
import random
import sys
from pathlib import Path

from . import SCHEMA_VERSIONS, __version__
from .datagen import (
    GenConfig,
    GoldProofError,
    MODES,
    d3_like_config,
    emit_training_records,
    equivalence_from_row,
    equivalence_to_rows,
    generate_dataset,
    instance_from_json,
    instance_to_json,
    perturb,
    seed_substream,
)
from .evalkit import (
    budget_curve,
    build_report,
    efficiency_ratio,
    predict_instances,
    prediction_lines,
    score_consistency,
)
from .jsonlio import read_jsonl, row_line, write_json, write_jsonl, write_lines
from .reasoner import run, solve
from .strategies import STRATEGY_NAMES, make_strategy
from .theory import ParseError, TheoryParseError, parse_statement, parse_theory


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    # Validation problems must exit 1, not argparse's default 2.
    def error(self, message):
        raise CliError(message)


def _seed(flag: int | None) -> int:
    """``--seed`` if given, else ``RULECHAIN_SEED``, else 0."""
    if flag is not None:
        return flag
    raw = os.environ.get("RULECHAIN_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise CliError(f"RULECHAIN_SEED must be an integer, got {raw!r}") from None


# The flag parsers raise ArgumentTypeError so argparse keeps the message
# (anything else it replaces with a generic "invalid value" line).

def _parse_depths(text: str) -> tuple:
    out = []
    for part in text.split(","):
        part = part.strip()
        if part == "unknown":
            out.append("unknown")
            continue
        try:
            if ".." in part:
                lo, hi = part.split("..", 1)
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(part))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad depth {part!r}; use integers, N..M ranges, or 'unknown'"
            ) from None
    if not out:
        raise argparse.ArgumentTypeError("at least one depth is required")
    return tuple(out)


def _parse_budgets(text: str) -> tuple[int, ...]:
    try:
        budgets = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"bad budgets {text!r}; use comma-separated integers"
        ) from None
    return budgets


def _parse_rows(path: str, parse) -> list:
    """``parse`` applied to every row of a JSON-lines file. A row it
    rejects fails the command with the path, line and row id."""
    out = []
    for index, row in enumerate(read_jsonl(path)):
        try:
            out.append(parse(row))
        except ValueError as e:
            rid = f" (id {row['id']!r})" if isinstance(row, dict) and "id" in row else ""
            raise CliError(f"{path}:{row_line(path, index)}{rid}: {e}") from None
    return out


def _claim_question_ids(instance, seen: set) -> None:
    """Add the instance's question ids to ``seen``. Question ids join
    predictions, reports and equivalence sets, so a repeat is an error."""
    for q in instance.questions:
        if q.id in seen:
            raise ValueError(f"duplicate question id {q.id!r}")
        seen.add(q.id)


def _load_instances(path: str):
    """The dataset's instances; the row that repeats a question id fails
    the command."""
    seen = set()

    def parse(row):
        instance = instance_from_json(row)
        _claim_question_ids(instance, seen)
        return instance

    return _parse_rows(path, parse)


@contextlib.contextmanager
def _gold_rows(path: str, instances: list):
    """Fail the command with the path, line and id of a loaded row whose
    gold proofs turn out to be unusable."""
    try:
        yield
    except GoldProofError as e:
        line = row_line(path, instances.index(e.instance))
        raise CliError(f"{path}:{line} (id {e.item_id!r}): {e}") from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; ``main`` reuses it on every call."""
    schemas = ", ".join(f"{k}={v}" for k, v in sorted(SCHEMA_VERSIONS.items()))
    parser = _Parser(
        prog="rulechain",
        description="Generate, solve, and score controlled-English rulebases.",
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"rulechain {__version__} (schemas: {schemas})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a dataset of theories and questions")
    gen.add_argument("--out", required=True, help="output dataset .jsonl")
    gen.add_argument("--theories", type=int, default=GenConfig.theories)
    gen.add_argument(
        "--depths",
        type=_parse_depths,
        default=GenConfig.target_depths,
        help="target depths, e.g. 0..3 or 1,3,5 or 2,unknown",
    )
    gen.add_argument("--seed", type=int, default=None)
    gen.add_argument(
        "--preset",
        choices=("d3-like",),
        help="draw a named shape instead of --depths: d3-like is depth-3 "
        "theories with a spread of distractor conclusions",
    )

    pert = sub.add_parser("perturb", help="emit renamed equivalence variants")
    pert.add_argument("--data", required=True, help="input dataset .jsonl")
    pert.add_argument("--out", required=True, help="output equivalence .jsonl")
    pert.add_argument("--mode", choices=MODES, required=True)
    pert.add_argument("--variants", type=int, default=5)
    pert.add_argument("--seed", type=int, default=None)

    sol = sub.add_parser("solve", help="answer one statement against a theory file")
    sol.add_argument("--theory", required=True, help="text file, one sentence per line")
    sol.add_argument("--statement", required=True, help='e.g. "Bob is green."')
    sol.add_argument("--strategy", choices=STRATEGY_NAMES, default="goal")
    sol.add_argument("--budget", type=int, default=None)
    sol.add_argument("--shuffle-seed", type=int, default=None)
    sol.add_argument("--trace", help="also write the full trace JSON here")

    ev = sub.add_parser("eval", help="run a strategy over a dataset and score it")
    ev.add_argument("--data", required=True, help="dataset .jsonl")
    ev.add_argument("--strategy", choices=STRATEGY_NAMES, default="goal")
    ev.add_argument("--budget", type=int, default=None)
    ev.add_argument("--shuffle-seed", type=int, default=None)
    ev.add_argument("--equivalence", help="equivalence .jsonl for consistency scoring")
    ev.add_argument(
        "--with-efficiency",
        action="store_true",
        help="also run the other strategy and report the calls ratio",
    )
    ev.add_argument("--predictions-out", help="write predictions .jsonl here")
    ev.add_argument("--report", help="write the report JSON here")

    tr = sub.add_parser("emit-training", help="emit step-level training records")
    tr.add_argument("--data", required=True, help="dataset .jsonl")
    tr.add_argument("--out-dir", required=True, help="directory for rs/fs/kc .jsonl")

    be = sub.add_parser("bench", help="sweep composition budgets")
    be.add_argument("--data", required=True, help="dataset .jsonl")
    be.add_argument("--strategy", choices=STRATEGY_NAMES, default="goal")
    be.add_argument("--budgets", type=_parse_budgets, default=(1, 3, 5, 7, 10))
    be.add_argument("--shuffle-seed", type=int, default=None)
    be.add_argument("--out", help="write the curve JSON here")
    return parser


def _cmd_gen(args) -> int:
    seed = _seed(args.seed)
    if args.preset == "d3-like":
        config = d3_like_config(theories=args.theories, seed=seed)
    else:
        config = GenConfig(target_depths=args.depths, theories=args.theories, seed=seed)
    instances = generate_dataset(config)
    write_jsonl(args.out, [instance_to_json(i) for i in instances])
    questions = sum(len(i.questions) for i in instances)
    print(f"wrote {len(instances)} theories / {questions} questions to {args.out}")
    return 0


def _cmd_perturb(args) -> int:
    if args.variants < 1:
        raise CliError("--variants must be >= 1")
    seed = _seed(args.seed)
    instances = _load_instances(args.data)
    rows = []
    for idx, inst in enumerate(instances):
        rng = random.Random(seed_substream(seed, idx))
        rows.extend(equivalence_to_rows(perturb(inst, args.mode, rng, args.variants)))
    write_jsonl(args.out, rows)
    print(
        f"wrote {len(rows)} variants ({len(instances)} sets, mode={args.mode}) "
        f"to {args.out}"
    )
    return 0


def _cmd_solve(args) -> int:
    lines = Path(args.theory).read_text(encoding="utf-8").splitlines()
    theory = parse_theory(lines)
    statement = parse_statement(args.statement)
    strategy = make_strategy(args.strategy, theory, statement, args.shuffle_seed)
    trace = run(theory, statement, strategy, args.budget)
    verdict = solve(statement, trace)
    out = {
        "label": verdict.label,
        "proof": verdict.proof,
        "composer_calls": trace.composer_calls,
        "stop_reason": trace.stop_reason,
    }
    print(json.dumps(out, indent=2, sort_keys=True))
    if args.trace:
        write_json(args.trace, trace.to_json())
    return 0


def _cmd_eval(args) -> int:
    instances = _load_instances(args.data)
    preds = predict_instances(instances, args.strategy, args.budget, args.shuffle_seed)

    consistency = None
    all_preds = list(preds)
    if args.equivalence:
        base_by_id = {inst.id: inst for inst in instances}
        seen = {q.id for inst in instances for q in inst.questions}

        def variant_row(row):
            base_id, _, renaming, variant = equivalence_from_row(row)
            base = base_by_id.get(base_id)
            if base is None:
                raise CliError(f"equivalence base {base_id} is not in {args.data}")
            if len(variant.questions) != len(base.questions):
                raise CliError(
                    f"{len(variant.questions)} questions, but base {base_id} "
                    f"has {len(base.questions)}"
                )
            _claim_question_ids(variant, seen)
            return base_id, renaming, variant

        groups: dict[str, list] = {}
        for base_id, renaming, variant in _parse_rows(args.equivalence, variant_row):
            groups.setdefault(base_id, []).append((variant, renaming))
        variants = [v for vs in groups.values() for v, _ in vs]
        all_preds += predict_instances(
            variants, args.strategy, args.budget, args.shuffle_seed
        )
        consistency = score_consistency(
            [(base_by_id[bid], vs) for bid, vs in groups.items()], all_preds
        )

    efficiency = None
    if args.with_efficiency:
        other = predict_instances(
            instances, "exhaustive" if args.strategy == "goal" else "goal", args.budget,
            args.shuffle_seed,
        )
        goal_preds = preds if args.strategy == "goal" else other
        ex_preds = other if args.strategy == "goal" else preds
        efficiency = efficiency_ratio(goal_preds, ex_preds)

    with _gold_rows(args.data, instances):
        report = build_report(
            instances, preds, args.strategy, args.budget, consistency, efficiency
        )
    if args.predictions_out:
        write_lines(args.predictions_out, prediction_lines(all_preds))
    if args.report:
        write_json(args.report, report.to_json())
    print(report.render_text())
    return 0


def _cmd_emit_training(args) -> int:
    instances = _load_instances(args.data)
    streams = {"rs": [], "fs": [], "kc": []}
    with _gold_rows(args.data, instances):
        for inst in instances:
            emitted = emit_training_records(inst)
            for key in streams:
                streams[key].extend(emitted[key])
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for key, lines in streams.items():
        write_lines(out_dir / f"{key}.jsonl", lines)
    counts = ", ".join(f"{key}={len(lines)}" for key, lines in streams.items())
    print(f"wrote training records to {out_dir} ({counts})")
    return 0


def _cmd_bench(args) -> int:
    instances = _load_instances(args.data)
    curve = budget_curve(instances, args.strategy, args.budgets, args.shuffle_seed)
    if args.out:
        write_json(args.out, curve.to_json())
    print(f"strategy={curve.strategy}")
    print(f"{'budget':>8}  {'entail':>8}  {'proof':>8}  {'calls':>8}")
    for b in curve.budgets:
        print(
            f"{b:>8}  {curve.accuracy[b]:>8.3f}  {curve.proof_accuracy[b]:>8.3f}"
            f"  {curve.mean_calls[b]:>8.3f}"
        )
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "perturb": _cmd_perturb,
    "solve": _cmd_solve,
    "eval": _cmd_eval,
    "emit-training": _cmd_emit_training,
    "bench": _cmd_bench,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except SystemExit as e:  # --help / --version
        code = e.code
        return int(code) if isinstance(code, int) else 0
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (CliError, ParseError, TheoryParseError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
