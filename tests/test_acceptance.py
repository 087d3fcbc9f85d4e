"""Acceptance gate: one test per shipping criterion, one verdict line each.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
verdict lines on passing runs too). Every test is seeded and deterministic.
"""
import json
import random
import time

import pytest

from rulechain import datagen as dg
from rulechain import evalkit as ek
from rulechain.reasoner import LABEL_TRUE, LABEL_UNKNOWN, check_proof
from rulechain.theory import parse_sentence, render

from grammar_theories import extend_theory, irrelevant_sentences

BUDGETS = (1, 3, 5, 7, 10)


def verdict(num, ok, text):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


@pytest.fixture(scope="module")
def mixed_dataset():
    cfg = dg.GenConfig(target_depths=(0, 1, 2, 3, 4, 5), theories=102, seed=0)
    return dg.generate_dataset(cfg)


def test_criterion_1_both_strategies_solve_a_mixed_corpus_perfectly():
    started = time.perf_counter()
    cfg = dg.GenConfig(target_depths=(0, 1, 2, 3, 4, 5), theories=102, seed=0)
    instances = dg.generate_dataset(cfg)
    questions = [q for inst in instances for q in inst.questions]
    assert len(questions) >= 1000
    assert {q.annotation.depth for q in questions} >= {0, 1, 2, 3, 4, 5}
    assert {q.annotation.label for q in questions} == {"true", "false", "unknown"}

    goal = ek.predict_instances(instances, "goal")
    exhaustive = ek.predict_instances(instances, "exhaustive")
    labels_agree = all(
        g.label == e.label for g, e in zip(goal, exhaustive, strict=True)
    )
    scores = (
        ek.score_entailment(instances, goal),
        ek.score_proof(instances, goal),
        ek.score_entailment(instances, exhaustive),
        ek.score_proof(instances, exhaustive),
    )
    elapsed = time.perf_counter() - started
    ok = labels_agree and scores == (1.0, 1.0, 1.0, 1.0) and elapsed < 60.0
    verdict(
        1, ok,
        f"{len(questions)} questions, scores {scores}, strategies agree: "
        f"{labels_agree}, {elapsed:.1f}s",
    )


def test_criterion_2_renamed_variants_answered_identically():
    cfg = dg.GenConfig(target_depths=(1, 2, 3), theories=24, seed=2)
    bases = dg.generate_dataset(cfg)
    groups = []
    for i, inst in enumerate(bases):
        mode = dg.MODES[i % len(dg.MODES)]
        es = dg.perturb(inst, mode, random.Random(i), n=5)
        groups.append((es.base, list(es.variants)))
    assert {mode for i, _ in enumerate(bases) for mode in [dg.MODES[i % 3]]} == set(dg.MODES)

    instances = [b for b, _ in groups]
    instances += [v for _, vs in groups for v, _ in vs]
    preds = ek.predict_instances(instances, "goal")
    result = ek.score_consistency(groups, preds)
    ok = (
        result.sets >= 200
        and result.entailment_rate == 1.0
        and result.proof_rate == 1.0
    )
    verdict(
        2, ok,
        f"{result.sets} equivalence sets (5 variants each), entailment "
        f"consistency {result.entailment_rate}, proof consistency {result.proof_rate}",
    )


def test_criterion_3_goal_inference_is_exact_and_exhaustive_is_not(mixed_dataset):
    instances = mixed_dataset
    goal_report = ek.build_report(
        instances, ek.predict_instances(instances, "goal"), "goal"
    )
    ex_report = ek.build_report(
        instances, ek.predict_instances(instances, "exhaustive"), "exhaustive"
    )

    goal_rows = [goal_report.row(d) for d in (1, 2, 3, 4, 5)]
    goal_exact = all(r["n"] > 0 and r["precision"] == 1.0 for r in goal_rows)
    goal_recall = goal_report.row("All")["recall"] == 1.0
    ex_recall = ex_report.row("All")["recall"] == 1.0
    ex_precision = ex_report.row("All")["precision"]
    ok = goal_exact and goal_recall and ex_recall and ex_precision < 0.8
    verdict(
        3, ok,
        f"goal precision per depth {[r['precision'] for r in goal_rows]}, "
        f"goal recall {goal_report.row('All')['recall']}, exhaustive "
        f"precision {ex_precision:.3f}, recall {ex_report.row('All')['recall']}",
    )


def test_criterion_4_goal_saturates_at_the_proof_depth_budget():
    summaries = []
    ok = True
    for d in (1, 3, 5):
        cfg = dg.GenConfig(target_depths=(d,), theories=12, seed=0)
        filtered = []
        for inst in dg.generate_dataset(cfg):
            qs = [
                q for q in inst.questions
                if q.annotation.label == LABEL_TRUE and q.annotation.depth == d
            ]
            if qs:
                filtered.append(dg.Instance(inst.id, inst.theory, qs))
        goal = ek.budget_curve(filtered, "goal", BUDGETS)
        ex = ek.budget_curve(filtered, "exhaustive", BUDGETS)
        goal_acc = [goal.proof_accuracy[b] for b in BUDGETS]
        ex_acc = [ex.proof_accuracy[b] for b in BUDGETS]
        ok = ok and goal.proof_accuracy[d] == 1.0
        ok = ok and ex.proof_accuracy[d] < goal.proof_accuracy[d]
        ok = ok and goal_acc == sorted(goal_acc) and ex_acc == sorted(ex_acc)
        summaries.append(f"d={d} goal@{d}={goal.proof_accuracy[d]} exh@{d}={ex.proof_accuracy[d]}")
    verdict(4, ok, "; ".join(summaries) + f" (budgets {BUDGETS}, both curves monotone)")


def test_criterion_5_goal_halves_the_composition_work():
    ratios = {}
    for seed in (0, 1, 2):
        cfg = dg.GenConfig(target_depths=(5,), theories=8, seed=seed)
        instances = dg.generate_dataset(cfg)
        goal = ek.predict_instances(instances, "goal")
        exhaustive = ek.predict_instances(instances, "exhaustive")
        ratios[seed] = ek.efficiency_ratio(goal, exhaustive)
    ok = all(r <= 0.5 for r in ratios.values())
    verdict(
        5, ok,
        "depth-5 call ratios by seed "
        + ", ".join(f"{s}: {r:.3f}" for s, r in ratios.items())
        + " (all <= 0.5)",
    )


def test_criterion_6_closure_sizes_match_the_reference_shape():
    instances = dg.generate_dataset(dg.d3_like_config(theories=500, seed=0))
    counts = [len(dg.gold_closure(inst.theory).derived) for inst in instances]
    mean = sum(counts) / len(counts)
    lo, hi = 4.81 * 0.7, 4.81 * 1.3
    ok = len(instances) >= 500 and min(counts) >= 3 and lo <= mean <= hi
    verdict(
        6, ok,
        f"{len(instances)} theories, derived conclusions per theory: "
        f"min {min(counts)}, mean {mean:.3f} (target window [{lo:.3f}, {hi:.3f}])",
    )


def test_criterion_7_structural_properties_hold_at_scale(mixed_dataset):
    # parser round-trip on a 10k-sentence corpus
    cfg = dg.GenConfig(target_depths=(0, 1, 2, 3, 4, 5), theories=1100, seed=0)
    corpus = dg.generate_dataset(cfg)
    sentences = [
        s for inst in corpus for s in dg.instance_to_json(inst)["sentences"].values()
    ]
    assert len(sentences) >= 10_000
    roundtrip_ok = all(render(parse_sentence(s)) == s for s in sentences)

    # negation is an involution over every atom the corpus mentions
    atoms = [q.statement.atom for inst in mixed_dataset for q in inst.questions]
    atoms += [a for inst in mixed_dataset for a in dg.gold_closure(inst.theory).given]
    negate_ok = all(a.negated().negated() == a for a in atoms)

    # every emitted gold proof passes the independent checker
    checked = 0
    proofs_ok = True
    for inst in corpus:
        for q in inst.questions:
            ann = q.annotation
            if ann.label == LABEL_UNKNOWN:
                proofs_ok = proofs_ok and ann.proofs == ()
                continue
            for proof in ann.proofs:
                check_proof(inst.theory, q.statement, ann.label, proof)
                checked += 1
    assert checked > 1000

    # adding unrelated sentences never flips a label, 500 times over
    rng = random.Random(7)
    mono_ok = True
    pool = [(inst, q) for inst in mixed_dataset for q in inst.questions]
    for inst, q in rng.sample(pool, 500):
        extra = irrelevant_sentences(inst.theory, rng, n_facts=2, n_rules=1)
        grown = extend_theory(inst.theory, extra)
        mono_ok = mono_ok and (
            dg.assign_gold(grown, q.statement).label == q.annotation.label
        )

    # regeneration from the same seed is byte-identical
    again = dg.generate_dataset(
        dg.GenConfig(target_depths=(0, 1, 2, 3, 4, 5), theories=102, seed=0)
    )
    as_bytes = lambda insts: json.dumps(  # noqa: E731
        [dg.instance_to_json(i) for i in insts], sort_keys=True
    ).encode()
    seed_ok = as_bytes(again) == as_bytes(mixed_dataset)

    ok = roundtrip_ok and negate_ok and proofs_ok and mono_ok and seed_ok
    verdict(
        7, ok,
        f"round-trip {len(sentences)} sentences: {roundtrip_ok}; negate "
        f"involution on {len(atoms)} atoms: {negate_ok}; {checked} gold proofs "
        f"checked: {proofs_ok}; 500 augmentations label-stable: {mono_ok}; "
        f"seeded regeneration byte-identical: {seed_ok}",
    )


def test_criterion_8_training_record_counts_reconcile():
    cfg = dg.GenConfig(target_depths=(0, 1, 2, 3), theories=100, seed=8)
    instances = dg.generate_dataset(cfg)
    assert len(instances) == 100
    ok = True
    totals = {"rs": 0, "fs": 0, "kc": 0, "steps": 0, "questions": 0}
    for inst in instances:
        records = {
            key: [json.loads(line) for line in lines]
            for key, lines in dg.emit_training_records(inst).items()
        }
        steps = sum(
            q.annotation.proofs[0].count("(")
            for q in inst.questions
            if q.annotation.label != LABEL_UNKNOWN
        )
        n_q = len(inst.questions)
        ok = ok and len(records["rs"]) == steps + n_q
        ok = ok and len(records["fs"]) == steps
        ok = ok and len(records["kc"]) == steps
        totals["rs"] += len(records["rs"])
        totals["fs"] += len(records["fs"])
        totals["kc"] += len(records["kc"])
        totals["steps"] += steps
        totals["questions"] += n_q
    verdict(
        8, ok,
        f"100 instances: rs={totals['rs']} (= {totals['steps']} steps + "
        f"{totals['questions']} stop records), fs={totals['fs']}, kc={totals['kc']}",
    )
