"""Prediction pipeline and metrics, pinned on hand-checked cases.

The numeric expectations (precision fractions, budget-curve points,
efficiency ratios) were worked out by hand from the frozen theories in
conftest and are asserted literally.
"""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulechain import SCHEMA_VERSIONS
from rulechain import datagen as dg
from rulechain import evalkit as ek
from rulechain.reasoner import run, solve
from rulechain.strategies import make_strategy
from rulechain.theory import parse_statement, parse_theory, render

from conftest import CHAIN2_LINES, diamond_ladder_lines
from test_golden import chain_lines, chain_statements

# chain2 plus an off-path rule; exhaustive derives one useless conclusion.
SPUR_LINES = CHAIN2_LINES + ["If someone is blue then they are furry."]

CHAIN2_PROOF = "(sent2 & sent1) -> int1 ; (sent3 & int1) -> hypothesis"


def make_question(theory, text, qid="q1"):
    statement = parse_statement(text)
    return dg.Question(qid, statement, text, dg.assign_gold(theory, statement))


def make_instance(lines, texts, iid="T0"):
    theory = parse_theory(lines, iid)
    questions = [
        make_question(theory, text, f"{iid}-q{j + 1}") for j, text in enumerate(texts)
    ]
    return dg.Instance(iid, theory, questions)


def pred(qid="q1", label="true", proof=None, generated=(), calls=0, stop="fixpoint"):
    return ek.Prediction(qid, label, proof, tuple(generated), calls, stop)


# ---------------------------------------------------------------------------
# Prediction pipeline
# ---------------------------------------------------------------------------

class TestPredict:
    def test_goal_prediction_on_two_hop_chain(self):
        inst = make_instance(CHAIN2_LINES, ["Bob is smart."])
        (p,) = ek.predict_instances([inst], "goal")
        assert p.question_id == "T0-q1"
        assert p.label == "true"
        assert p.proof == CHAIN2_PROOF
        assert p.generated == ("Bob is quiet.", "Bob is smart.")
        assert p.composer_calls == 2
        assert p.stop_reason == "goal_reached"

    def test_exhaustive_trace_is_shared_across_questions(self):
        inst = make_instance(CHAIN2_LINES, ["Bob is smart.", "Bob is blue."])
        p1, p2 = ek.predict_instances([inst], "exhaustive")
        assert p1.generated == p2.generated
        assert p1.composer_calls == p2.composer_calls == 2
        assert p1.stop_reason == p2.stop_reason == "fixpoint"
        # labels still answered per question
        assert p1.proof == CHAIN2_PROOF
        assert p2.proof == "sent1 -> hypothesis"

    def test_budget_is_passed_through(self):
        inst = make_instance(CHAIN2_LINES, ["Bob is smart."])
        (p,) = ek.predict_instances([inst], "goal", budget=1)
        assert p.label == "unknown"
        assert p.proof is None
        assert p.composer_calls == 1
        assert p.stop_reason == "budget_exhausted"

    def test_predict_instances_matches_serial_under_jobs(self):
        cfg = dg.GenConfig(target_depths=(1, 2), theories=2, seed=11)
        instances = dg.generate_dataset(cfg)
        serial = ek.predict_instances(instances, "goal")
        parallel = ek.predict_instances(instances, "goal", jobs=2)
        assert parallel == serial

    def test_prediction_json_round_trip(self):
        p = pred("a-q1", "false", "sent2 -> hypothesis", ("x.",), 3, "goal_reached")
        assert ek.prediction_from_json(ek.prediction_to_json(p)) == p

    def test_duplicate_question_ids_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ek.index_predictions([pred("q1"), pred("q1")])


# ---------------------------------------------------------------------------
# Per-question scoring
# ---------------------------------------------------------------------------

class TestProofCorrect:
    def setup_method(self):
        self.inst = make_instance(CHAIN2_LINES, ["Bob is smart.", "Bob is round."])
        self.q_true, self.q_unknown = self.inst.questions

    def test_gold_proof_accepted(self):
        assert ek.proof_correct(
            self.inst, self.q_true, pred(label="true", proof=CHAIN2_PROOF)
        )

    def test_wrong_label_rejected_even_with_gold_proof(self):
        assert not ek.proof_correct(
            self.inst, self.q_true, pred(label="false", proof=CHAIN2_PROOF)
        )

    def test_right_label_with_non_gold_proof_rejected(self):
        assert not ek.proof_correct(
            self.inst, self.q_true, pred(label="true", proof="sent1 -> hypothesis")
        )

    def test_right_label_without_proof_rejected(self):
        assert not ek.proof_correct(self.inst, self.q_true, pred(label="true", proof=None))

    def test_unknown_must_carry_no_proof(self):
        assert ek.proof_correct(self.inst, self.q_unknown, pred(label="unknown", proof=None))
        assert not ek.proof_correct(
            self.inst, self.q_unknown, pred(label="unknown", proof="sent1 -> hypothesis")
        )


class TestProofCorrectTruncatedGold:
    def setup_method(self):
        lines, text = diamond_ladder_lines()
        self.inst = make_instance(lines, [text])
        (self.q,) = self.inst.questions

    def test_gold_set_is_capped(self):
        assert len(self.q.annotation.proofs) == 64
        assert self.q.annotation.proofs_truncated

    @pytest.mark.parametrize("strategy", ["goal", "exhaustive"])
    def test_sound_unlisted_proof_counts(self, strategy):
        (p,) = ek.predict_instances([self.inst], strategy)
        assert p.proof not in self.q.annotation.proofs
        assert ek.proof_correct(self.inst, self.q, p)
        assert ek.score_proof([self.inst], [p]) == 1.0

    def test_unsound_unlisted_proof_rejected(self):
        bad = pred(self.q.id, label="true", proof="sent1 -> hypothesis")
        assert not ek.proof_correct(self.inst, self.q, bad)


class TestInferencePR:
    def test_exact_derivation_scores_perfectly(self):
        inst = make_instance(CHAIN2_LINES, ["Bob is smart."])
        (p,) = ek.predict_instances([inst], "goal")
        assert ek.inference_pr(inst, inst.questions[0], p) == (1.0, 1.0)

    def test_spurious_conclusion_costs_precision_not_recall(self):
        inst = make_instance(SPUR_LINES, ["Bob is smart."])
        (p,) = ek.predict_instances([inst], "exhaustive")
        assert set(p.generated) == {"Bob is quiet.", "Bob is smart.", "Bob is furry."}
        precision, recall = ek.inference_pr(inst, inst.questions[0], p)
        assert precision == pytest.approx(2 / 3)
        assert recall == 1.0

    def test_empty_generation_with_work_needed_is_undefined(self):
        inst = make_instance(CHAIN2_LINES, ["Bob is smart."])
        (p,) = ek.predict_instances([inst], "goal", budget=0)
        assert p.generated == ()
        precision, recall = ek.inference_pr(inst, inst.questions[0], p)
        assert precision is None
        assert recall == 0.0

    def test_given_fact_question_needs_no_steps(self):
        # the only gold proof has no steps, so recall is vacuous; the
        # hypothesis atom itself still counts as needed, so precision
        # stays undefined rather than rewarding the empty trace
        inst = make_instance(CHAIN2_LINES, ["Bob is blue."])
        (p,) = ek.predict_instances([inst], "goal")
        assert p.composer_calls == 0
        precision, recall = ek.inference_pr(inst, inst.questions[0], p)
        assert precision is None
        assert recall == 1.0

    def test_unreachable_question_with_empty_trace_scores_one(self):
        inst = make_instance(CHAIN2_LINES, ["Bob is round."])
        (p,) = ek.predict_instances([inst], "goal")
        assert p.label == "unknown"
        assert p.generated == ()
        assert ek.inference_pr(inst, inst.questions[0], p) == (1.0, 1.0)

    def test_partial_coverage_takes_best_gold_proof(self):
        inst = make_instance(CHAIN2_LINES, ["Bob is smart."])
        p = pred("T0-q1", "unknown", None, ("Bob is quiet.",), 1, "budget_exhausted")
        precision, recall = ek.inference_pr(inst, inst.questions[0], p)
        assert precision == 1.0
        assert recall == 0.5


class TestAggregates:
    def test_score_entailment_and_proof(self):
        inst = make_instance(CHAIN2_LINES, ["Bob is smart.", "Bob is round."])
        preds = ek.predict_instances([inst], "goal")
        assert ek.score_entailment([inst], preds) == 1.0
        assert ek.score_proof([inst], preds) == 1.0
        # break one label
        broken = [preds[0], pred(preds[1].question_id, label="true")]
        assert ek.score_entailment([inst], broken) == 0.5
        assert ek.score_proof([inst], broken) == 0.5

    def test_missing_prediction_is_an_error(self):
        inst = make_instance(CHAIN2_LINES, ["Bob is smart.", "Bob is round."])
        preds = ek.predict_instances([inst], "goal")[:1]
        with pytest.raises(ValueError, match="no prediction"):
            ek.score_entailment([inst], preds)

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError, match="nothing to score"):
            ek.score_entailment([], [])


class TestEfficiency:
    def test_mean_of_per_question_ratios(self):
        goal = [pred("q1", calls=1), pred("q2", calls=3)]
        exhaustive = [pred("q1", calls=4), pred("q2", calls=4)]
        assert ek.efficiency_ratio(goal, exhaustive) == pytest.approx(0.5)

    def test_zero_baseline_counts_as_ratio_one(self):
        goal = [pred("q1", calls=0)]
        exhaustive = [pred("q1", calls=0)]
        assert ek.efficiency_ratio(goal, exhaustive) == 1.0

    def test_unmatched_question_is_an_error(self):
        with pytest.raises(ValueError, match="no exhaustive"):
            ek.efficiency_ratio([pred("q1")], [pred("q2")])


# ---------------------------------------------------------------------------
# Consistency
# ---------------------------------------------------------------------------

class TestQuestionConsistency:
    def test_fraction_of_matching_variants(self):
        base = pred("b", label="true", proof="sent1 -> hypothesis")
        variants = [pred(f"v{i}", label="true", proof="sent1 -> hypothesis") for i in range(4)]
        variants.append(pred("v4", label="false", proof=None))
        entail, proof = ek.question_consistency(base, variants)
        assert entail == pytest.approx(0.8)
        assert proof == pytest.approx(0.8)

    def test_no_proof_on_both_sides_counts_as_identical(self):
        base = pred("b", label="unknown", proof=None)
        variants = [pred("v0", label="unknown", proof=None)]
        assert ek.question_consistency(base, variants) == (1.0, 1.0)

    def test_needs_variants_and_matching_maps(self):
        # Proofs are compared as they are; no per-variant map is taken.
        with pytest.raises(ValueError, match="at least one variant"):
            ek.question_consistency(pred("b"), [])


class TestScoreConsistency:
    def make_group(self, mode, seed):
        cfg = dg.GenConfig(target_depths=(1, 2), theories=1, seed=seed)
        (inst,) = dg.generate_dataset(cfg)
        es = dg.perturb(inst, mode, random.Random(seed), n=3)
        return es.base, list(es.variants)

    def test_faithful_engine_scores_one_on_every_mode(self):
        cfg = dg.GenConfig(target_depths=(1, 2), theories=3, seed=9)
        bases = dg.generate_dataset(cfg)
        groups = [
            (es.base, list(es.variants))
            for es in (
                dg.perturb(inst, mode, random.Random(i), n=3)
                for i, (inst, mode) in enumerate(zip(bases, dg.MODES))
            )
        ]
        instances = [base for base, _ in groups]
        instances += [vi for _, variants in groups for vi, _ in variants]
        preds = ek.predict_instances(instances, "goal")
        result = ek.score_consistency(groups, preds)
        assert result.sets == sum(len(base.questions) for base, _ in groups)
        assert result.entailment_rate == 1.0
        assert result.proof_rate == 1.0

    def test_one_corrupted_variant_lowers_the_mean_exactly(self):
        base, variants = self.make_group(dg.MODE_SUBJECT, seed=5)
        instances = [base] + [vi for vi, _ in variants]
        preds = ek.predict_instances(instances, "goal")
        victim = variants[0][0].questions[0].id
        broken = [
            pred(p.question_id, "flipped", None, p.generated, p.composer_calls, p.stop_reason)
            if p.question_id == victim
            else p
            for p in preds
        ]
        result = ek.score_consistency([(base, variants)], broken)
        n_sets = len(base.questions)
        damaged = 1 - (1 / len(variants)) / n_sets
        assert result.entailment_rate == pytest.approx(damaged)
        assert result.proof_rate == pytest.approx(damaged)

    def test_empty_result_defaults_to_one(self):
        empty = ek.ConsistencyResult()
        assert empty.sets == 0
        assert empty.entailment_rate == 1.0
        assert empty.proof_rate == 1.0
        assert empty.to_json() == {
            "sets": 0,
            "consistency_entailment": 1.0,
            "consistency_proof": 1.0,
        }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

class TestReport:
    def build(self):
        cfg = dg.GenConfig(target_depths=(0, 1, 2), theories=3, seed=3)
        instances = dg.generate_dataset(cfg)
        preds = ek.predict_instances(instances, "goal")
        return instances, preds, ek.build_report(instances, preds, "goal")

    def test_rows_cover_all_buckets_plus_total(self):
        _, _, report = self.build()
        assert [r["depth"] for r in report.rows] == [0, 1, 2, 3, 4, 5, "N/A", "All"]

    def test_total_row_is_the_weighted_sum(self):
        instances, preds, report = self.build()
        total = report.row("All")
        assert total["n"] == len(preds) == sum(len(i.questions) for i in instances)
        assert total["n"] == sum(r["n"] for r in report.rows if r["depth"] != "All")
        assert total["entailment_accuracy"] == 1.0
        assert total["proof_accuracy"] == 1.0

    def test_unpopulated_bucket_has_none_metrics(self):
        _, _, report = self.build()
        row5 = report.row(5)
        assert row5["n"] == 0
        assert row5["entailment_accuracy"] is None
        assert row5["precision"] is None

    def test_unknown_row_accepts_na_depth(self):
        _, _, report = self.build()
        assert report.row("N/A")["n"] > 0

    def test_row_lookup_fails_loudly(self):
        _, _, report = self.build()
        with pytest.raises(KeyError):
            report.row(9)

    def test_rows_reach_the_deepest_question(self):
        lines, text = diamond_ladder_lines()
        inst = make_instance(lines, [text, "Bob is dull."])
        report = ek.build_report([inst], ek.predict_instances([inst], "goal"), "goal")
        assert [r["depth"] for r in report.rows] == [*range(15), "N/A", "All"]
        assert report.row(14)["n"] == report.row("N/A")["n"] == 1
        assert report.row(5)["n"] == 0

    def test_unexpected_depth_is_an_error(self):
        inst = make_instance(CHAIN2_LINES, ["Bob is smart."])
        bad_ann = dg.GoldAnnotation("true", -1, inst.questions[0].annotation.proofs)
        bad_q = dg.Question("T0-q1", inst.questions[0].statement, "t", bad_ann)
        bad = dg.Instance("T0", inst.theory, [bad_q])
        preds = ek.predict_instances([inst], "goal")
        with pytest.raises(ValueError, match="unexpected depth"):
            ek.build_report([bad], preds, "goal")

    def test_json_round_trip(self):
        _, _, report = self.build()
        report.consistency = {"sets": 4, "consistency_entailment": 1.0, "consistency_proof": 1.0}
        report.efficiency = 0.25
        report.budget_curve = {"1": 0.5, "3": 1.0}
        blob = report.to_json()
        assert blob["schema_version"] == SCHEMA_VERSIONS["report"]
        assert ek.MetricsReport(**blob) == report

    def test_render_text_shape(self):
        _, _, report = self.build()
        report.efficiency = 0.125
        text = report.render_text()
        lines = text.splitlines()
        assert lines[0] == "strategy=goal budget=none"
        assert lines[1].split() == ["depth", "n", "entail", "proof", "prec", "recall", "calls"]
        assert any(line.lstrip().startswith("All") for line in lines)
        assert "-" in text  # unpopulated cells
        assert lines[-1] == "efficiency (calls ratio vs exhaustive): 0.125"


class TestBudgetCurve:
    def test_points_on_the_two_hop_chain(self):
        inst = make_instance(CHAIN2_LINES, ["Bob is smart."])
        curve = ek.budget_curve([inst], "goal", (0, 1, 2))
        assert curve.accuracy == {0: 0.0, 1: 0.0, 2: 1.0}
        assert curve.proof_accuracy == {0: 0.0, 1: 0.0, 2: 1.0}
        assert curve.mean_calls == {0: 0.0, 1: 1.0, 2: 2.0}

    def test_json_keys_are_strings_in_budget_order(self):
        inst = make_instance(CHAIN2_LINES, ["Bob is blue."])
        curve = ek.budget_curve([inst], "goal", (2, 1))
        blob = curve.to_json()
        assert blob["budgets"] == [2, 1]
        assert list(blob["accuracy"]) == ["2", "1"]

    def test_input_validation(self):
        inst = make_instance(CHAIN2_LINES, ["Bob is blue."])
        with pytest.raises(ValueError, match="budgets"):
            ek.budget_curve([inst], "goal", ())
        with pytest.raises(ValueError, match="budgets"):
            ek.budget_curve([inst], "goal", (1, -1))
        with pytest.raises(ValueError, match="nothing to score"):
            ek.budget_curve([dg.Instance("T0", inst.theory, [])], "goal", (1,))


# ---------------------------------------------------------------------------
# Budget sweeps read off one trace
# ---------------------------------------------------------------------------

# zero, a repeat, trace lengths, more than any closure, and unbounded
SWEEP_BUDGETS = (0, 1, 2, 3, 3, 5, 8, 13, 200, None)

# The exhaustive store holds "Bob is not kind." from step 1 and "Bob is
# kind." from step 3, so the label flips from false to true at budget 3.
CONTRADICTION_LINES = [
    "Bob is red.",
    "If someone is red then they are not kind.",
    "If someone is not kind then they are big.",
    "If someone is big then they are kind.",
]


def separate_runs(inst, strategy, budget, shuffle_seed):
    """The reference: one run per question at this budget, read by ``solve``."""
    preds = []
    for q in inst.questions:
        strat = make_strategy(strategy, inst.theory, q.statement, shuffle_seed)
        trace = run(inst.theory, q.statement, strat, budget)
        verdict = solve(q.statement, trace)
        generated = tuple(render(a) for a in trace.conclusions())
        preds.append(ek.Prediction(
            q.id, verdict.label, verdict.proof, generated, trace.composer_calls,
            trace.stop_reason,
        ))
    return preds


@pytest.fixture(scope="module")
def sweep_instances():
    """A seeded ``gen`` corpus, the golden chain theory, the capped diamond
    ladder and a contradictory theory (its questions carry no gold)."""
    corpus = dg.generate_dataset(
        dg.GenConfig(target_depths=(0, 1, 2, 3, 4, 5), theories=6, seed=2022)
    )
    ladder, ladder_goal = diamond_ladder_lines()
    theory = parse_theory(CONTRADICTION_LINES, "contra")
    contra = dg.Instance("contra", theory, [
        dg.Question(f"contra-q{k}", parse_statement(text), text, None)
        for k, text in enumerate(("Bob is kind.", "Bob is not kind.", "Bob is big."), 1)
    ])
    return corpus + [
        make_instance(chain_lines(), chain_statements(), "chain"),
        make_instance(ladder, [ladder_goal, "Bob is cgx.", "Bob is not bax."], "ladder"),
        contra,
    ]


@pytest.mark.parametrize("shuffle_seed", [None, 7])
@pytest.mark.parametrize("strategy", ["goal", "exhaustive"])
def test_sweep_predicts_what_separate_budgeted_runs_do(sweep_instances, strategy, shuffle_seed):
    sweep = ek._predict_sweep(sweep_instances, strategy, SWEEP_BUDGETS, shuffle_seed, None)
    assert len(sweep) == len(SWEEP_BUDGETS)
    for budget, preds in zip(SWEEP_BUDGETS, sweep):
        expected = [
            p for inst in sweep_instances
            for p in separate_runs(inst, strategy, budget, shuffle_seed)
        ]
        assert preds == expected
        assert [
            p for inst in sweep_instances
            for p in ek.predict_instances([inst], strategy, budget, shuffle_seed)
        ] == expected
    # every stop reason came up, and some trace ends exactly at a budget
    reasons = {p.stop_reason for preds in sweep for p in preds}
    assert reasons == {
        "goal": {"goal_reached", "strategy_stop", "budget_exhausted"},
        "exhaustive": {"fixpoint", "budget_exhausted"},
    }[strategy]
    assert {len(p.generated) for p in sweep[-1]} & set(SWEEP_BUDGETS)
    if strategy == "exhaustive":
        by_budget = dict(zip(SWEEP_BUDGETS, sweep))
        labels = [ek.index_predictions(by_budget[b])["contra-q1"].label for b in (1, 2, 3)]
        assert labels == ["false", "false", "true"]


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), budget=st.integers(0, 4))
def test_strict_proof_accuracy_never_exceeds_entailment_accuracy(seed, budget):
    cfg = dg.GenConfig(target_depths=(0, 1, 2), theories=1, seed=seed)
    (inst,) = dg.generate_dataset(cfg)
    preds = ek.predict_instances([inst], "goal", budget=budget)
    by_id = ek.index_predictions(preds)
    for q in inst.questions:
        p = by_id[q.id]
        assert ek.proof_correct(inst, q, p) <= ek.label_correct(q, p)


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(0, 10_000))
def test_goal_report_on_clean_data_is_perfect(seed):
    cfg = dg.GenConfig(target_depths=(0, 1, 2, 3), theories=1, seed=seed)
    (inst,) = dg.generate_dataset(cfg)
    preds = ek.predict_instances([inst], "goal")
    report = ek.build_report([inst], preds, "goal")
    total = report.row("All")
    assert total["entailment_accuracy"] == 1.0
    assert total["proof_accuracy"] == 1.0
    assert total["recall"] == 1.0
