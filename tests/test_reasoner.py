"""Fact store, one-hop steps, the run loop, verdicts, canonical proofs."""
import re

import pytest

from rulechain import reasoner
from rulechain.datagen import instance_from_json
from rulechain.evalkit import inference_pr, predict_instances
from rulechain.jsonlio import read_jsonl
from rulechain.reasoner import (
    Binding,
    DuplicateConclusionError,
    FactStore,
    LABEL_FALSE,
    LABEL_TRUE,
    LABEL_UNKNOWN,
    Proceed,
    ProofCheckError,
    STOP_BUDGET_EXHAUSTED,
    STOP_FIXPOINT,
    STOP_GOAL_REACHED,
    StaleDecisionError,
    applicable_bindings,
    check_proof,
    check_proofs,
    compose,
    run,
    solve,
    step,
    stitch_proof,
)
from rulechain.strategies import ExhaustiveStrategy, make_strategy
from rulechain.theory import (
    Atom,
    COMMON,
    Entity,
    IsAttr,
    PROPER,
    parse_statement,
    parse_theory,
    render,
)

from conftest import FAULTY_AFTER_SHARED, SHARED_LINES, SHARED_PROOF, SHARED_STATEMENT
from test_golden import GOLDEN

CHAIN2_PROOF = "(sent2 & sent1) -> int1 ; (sent3 & int1) -> hypothesis"
CONJ_PROOF = "(sent2 & sent3 sent4) -> hypothesis"


def run_exhaustive(theory, statement_text):
    statement = parse_statement(statement_text)
    trace = run(theory, statement, ExhaustiveStrategy())
    return statement, trace


# ---------------------------------------------------------------------------
# Store and bindings
# ---------------------------------------------------------------------------

def test_store_dedups_and_numbers_derived_facts(chain2):
    store = FactStore(chain2)
    assert [f.id for f in store.given] == ["sent1"]
    fact = store.add_derived(Atom(Entity(PROPER, "Bob"), IsAttr("quiet"), True))
    assert fact.id == "int1"
    with pytest.raises(DuplicateConclusionError):
        store.add_derived(fact.atom)


def test_store_flags_contradictions():
    theory = parse_theory(["Bob is kind.", "Bob is not kind."])
    assert FactStore(theory).contradiction

    theory2 = parse_theory(["Bob is kind."])
    store = FactStore(theory2)
    assert not store.contradiction
    store.add_derived(Atom(Entity(PROPER, "Bob"), IsAttr("kind"), False))
    assert store.contradiction


def test_bindings_follow_first_mention_order():
    theory = parse_theory(
        [
            "Dave is blue.",
            "Anne is blue.",
            "If someone is blue then they are kind.",
        ]
    )
    rule = theory.rules[0]
    store = FactStore(theory)
    bindings = applicable_bindings(rule, store, store.entity_order)
    assert [b.entity.surface for b in bindings] == ["Dave", "Anne"]
    assert [b.fact_ids for b in bindings] == [("sent1",), ("sent2",)]
    backwards = applicable_bindings(rule, store, store.entity_order[::-1])
    assert [b.entity.surface for b in backwards] == ["Anne", "Dave"]


def test_people_rules_skip_animals():
    theory = parse_theory(
        [
            "The cat is blue.",
            "The doctor is blue.",
            "If someone is blue then they are kind.",
            "If something is blue then it is nice.",
        ]
    )
    store = FactStore(theory)
    people_rule, things_rule = theory.rules
    entities = store.entity_order
    assert [b.entity.surface for b in applicable_bindings(people_rule, store, entities)] == [
        "doctor"
    ]
    assert [b.entity.surface for b in applicable_bindings(things_rule, store, entities)] == [
        "cat",
        "doctor",
    ]


def test_ground_rule_yields_at_most_one_binding(conj):
    theory = parse_theory(
        ["Bob is blue.", "If Bob is blue then Bob is kind.", "Anne is blue."]
    )
    bindings = applicable_bindings(theory.rules[0], FactStore(theory), [None])
    assert len(bindings) == 1
    assert bindings[0].entity is None
    assert bindings[0].fact_ids == ("sent1",)


def test_conjunctive_binding_lists_premise_facts_in_premise_order(conj):
    store = FactStore(conj)
    (binding,) = applicable_bindings(conj.rules[0], store, store.entity_order)
    assert binding.fact_ids == ("sent3", "sent4")
    assert compose(conj.rules[0], binding) == Atom(
        Entity(PROPER, "Dave"), IsAttr("happy"), True
    )


# ---------------------------------------------------------------------------
# Steps
# ---------------------------------------------------------------------------

def test_step_applies_and_rejects_duplicates(chain2):
    store = FactStore(chain2)
    decision = Proceed("sent2", Binding(Entity(PROPER, "Bob"), ("sent1",)))
    one = step(store, decision)
    assert one.index == 1
    assert one.conclusion.id == "int1"
    assert render(one.conclusion.atom) == "Bob is quiet."
    with pytest.raises(DuplicateConclusionError):
        step(store, decision)


def test_step_rejects_stale_bindings(chain2):
    store = FactStore(chain2)
    with pytest.raises(StaleDecisionError):
        step(store, Proceed("sent2", Binding(Entity(PROPER, "Bob"), ("sent9",))))
    with pytest.raises(StaleDecisionError):
        # sent1 exists but does not satisfy the premise of sent3.
        step(store, Proceed("sent3", Binding(Entity(PROPER, "Bob"), ("sent1",))))


class OneShot:
    """A strategy that hands back one fixed decision, then stops."""

    goal_directed = True

    def __init__(self, decision):
        self.decisions = [decision]

    def select(self, store):
        return self.decisions.pop() if self.decisions else reasoner.STOP


def test_step_rejects_a_people_rule_bound_to_an_animal():
    theory = parse_theory(["The cat is red.", "If someone is red then they are big."])
    statement = parse_statement("The cat is big.")
    decision = Proceed("sent2", Binding(Entity(COMMON, "cat"), ("sent1",)))
    with pytest.raises(StaleDecisionError):
        step(FactStore(theory), decision)
    with pytest.raises(StaleDecisionError):
        run(theory, statement, OneShot(decision))


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def test_exhaustive_runs_to_fixpoint(chain2):
    _, trace = run_exhaustive(chain2, "Bob is smart.")
    assert trace.stop_reason == STOP_FIXPOINT
    assert trace.composer_calls == 2
    assert [render(a) for a in trace.conclusions()] == [
        "Bob is quiet.",
        "Bob is smart.",
    ]


def test_budget_caps_compositions(chain2):
    statement = parse_statement("Bob is smart.")
    trace = run(chain2, statement, ExhaustiveStrategy(), budget=1)
    assert trace.stop_reason == STOP_BUDGET_EXHAUSTED
    assert trace.composer_calls == 1


def test_goal_run_stops_at_goal(chain2):
    statement = parse_statement("Bob is quiet.")
    trace = run(chain2, statement, make_strategy("goal", chain2, statement))
    assert trace.stop_reason == STOP_GOAL_REACHED
    assert trace.composer_calls == 1


def test_goal_reached_wins_over_budget_check(chain2):
    # At budget exactly d the goal check fires first, so the verdict lands.
    statement = parse_statement("Bob is smart.")
    trace = run(chain2, statement, make_strategy("goal", chain2, statement), budget=2)
    assert trace.stop_reason == STOP_GOAL_REACHED
    assert solve(statement, trace).label == LABEL_TRUE


def test_negative_budget_rejected(chain2):
    statement = parse_statement("Bob is smart.")
    with pytest.raises(ValueError):
        run(chain2, statement, ExhaustiveStrategy(), budget=-1)


def test_replay_rebuilds_the_store(chain2):
    _, trace = run_exhaustive(chain2, "Bob is smart.")
    store = trace.store
    assert store.has_atom(Atom(Entity(PROPER, "Bob"), IsAttr("smart"), True))
    assert [f.id for f in store.derived] == [s.conclusion.id for s in trace.steps]
    assert [f.atom for f in store.derived] == trace.conclusions()


def test_trace_json_shape(chain2):
    _, trace = run_exhaustive(chain2, "Bob is smart.")
    obj = trace.to_json()
    assert obj["stop_reason"] == STOP_FIXPOINT
    assert obj["composer_calls"] == 2
    assert obj["steps"][0] == {
        "rule": "sent2",
        "facts": ["sent1"],
        "conclusion": "Bob is quiet.",
    }


# ---------------------------------------------------------------------------
# Verdicts and proofs
# ---------------------------------------------------------------------------

def test_true_verdict_with_two_step_proof(chain2):
    statement, trace = run_exhaustive(chain2, "Bob is smart.")
    verdict = solve(statement, trace)
    assert verdict.label == LABEL_TRUE
    assert verdict.proof == CHAIN2_PROOF


def test_false_verdict_proves_the_negation(chain2):
    statement, trace = run_exhaustive(chain2, "Bob is not smart.")
    verdict = solve(statement, trace)
    assert verdict.label == LABEL_FALSE
    assert verdict.proof == CHAIN2_PROOF


def test_unknown_verdict_has_no_proof(chain2):
    statement, trace = run_exhaustive(chain2, "Bob is green.")
    verdict = solve(statement, trace)
    assert verdict.label == LABEL_UNKNOWN
    assert verdict.proof is None


def test_depth0_proof_is_a_single_node(conj):
    statement, trace = run_exhaustive(conj, "Dave is round.")
    verdict = solve(statement, trace)
    assert verdict.label == LABEL_TRUE
    assert verdict.proof == "sent4 -> hypothesis"


def test_false_depth0_when_negation_is_given():
    theory = parse_theory(["Bob is not cold."])
    statement, trace = run_exhaustive(theory, "Bob is cold.")
    verdict = solve(statement, trace)
    assert verdict.label == LABEL_FALSE
    assert verdict.proof == "sent1 -> hypothesis"


def test_conjunctive_step_sorts_fact_ids(conj):
    statement, trace = run_exhaustive(conj, "Dave is happy.")
    verdict = solve(statement, trace)
    assert verdict.proof == CONJ_PROOF


def test_stitch_is_deterministic_across_runs(chain2):
    statement, trace1 = run_exhaustive(chain2, "Bob is smart.")
    _, trace2 = run_exhaustive(chain2, "Bob is smart.")
    assert solve(statement, trace1).proof == solve(statement, trace2).proof


def test_stitch_ignores_unrelated_steps():
    theory = parse_theory(
        [
            "Bob is blue.",
            "Anne is red.",
            "If someone is blue then they are quiet.",
            "If someone is red then they are tall.",
        ]
    )
    statement, trace = run_exhaustive(theory, "Bob is quiet.")
    assert trace.composer_calls == 2  # both rules fire at the fixpoint
    assert solve(statement, trace).proof == "(sent3 & sent1) -> hypothesis"


# ---------------------------------------------------------------------------
# Proof checking
# ---------------------------------------------------------------------------

def test_check_proof_accepts_engine_output(chain2, conj):
    chain2_steps = [
        ("sent2", ["Bob is blue."], "Bob is quiet."),
        ("sent3", ["Bob is quiet."], "Bob is smart."),
    ]
    for text, label in (("Bob is smart.", LABEL_TRUE), ("Bob is not smart.", LABEL_FALSE)):
        steps = check_proof(chain2, parse_statement(text), label, CHAIN2_PROOF)
        assert [
            (rule_id, [render(p) for p in premises], render(conclusion))
            for rule_id, premises, conclusion in steps
        ] == chain2_steps

    ((rule_id, premises, conclusion),) = check_proof(
        conj, parse_statement("Dave is happy."), LABEL_TRUE, CONJ_PROOF
    )
    assert (rule_id, render(conclusion)) == ("sent2", "Dave is happy.")
    assert [render(p) for p in premises] == ["Dave is white.", "Dave is round."]

    assert check_proof(
        conj, parse_statement("Dave is round."), LABEL_TRUE, "sent4 -> hypothesis"
    ) == []


@pytest.mark.parametrize(
    "bad",
    [
        "(sent1 & sent1) -> int1 ; (sent3 & int1) -> hypothesis",  # fact as rule
        "(sent2 & sent1) -> int2 ; (sent3 & int2) -> hypothesis",  # misnumbered
        "(sent2 & sent1) -> int1",  # does not reach the hypothesis
        "(sent3 & sent1) -> hypothesis",  # premises do not match the rule
        "(sent2 & sent9) -> int1 ; (sent3 & int1) -> hypothesis",  # unknown fact
        "(sent2 & sent1) -> int1 ; (sent2 & sent1) -> hypothesis",  # wrong goal
        "sent1 -> hypothesis",  # given fact is not the goal
        "(sent2 & int1) -> hypothesis",  # intermediate used before defined
        "",
    ],
)
def test_check_proof_rejects_malformed_or_unsound(chain2, bad):
    with pytest.raises(ProofCheckError):
        check_proof(chain2, parse_statement("Bob is smart."), LABEL_TRUE, bad)


def test_check_proof_rejects_unsorted_fact_ids(conj):
    with pytest.raises(ProofCheckError):
        check_proof(
            conj,
            parse_statement("Dave is happy."),
            LABEL_TRUE,
            "(sent2 & sent4 sent3) -> hypothesis",
        )


def test_check_proof_rejects_dangling_intermediates(diamond):
    dangling = (
        "(sent2 & sent1) -> int1 ; (sent3 & sent1) -> int2 ; "
        "(sent4 & int1) -> hypothesis"
    )
    with pytest.raises(ProofCheckError):
        check_proof(diamond, parse_statement("Bob is smart."), LABEL_TRUE, dangling)


def test_check_proof_rejects_unknown_label(chain2):
    with pytest.raises(ProofCheckError):
        check_proof(chain2, parse_statement("Bob is smart."), "maybe", CHAIN2_PROOF)


# ---------------------------------------------------------------------------
# Checking a gold set in one call
# ---------------------------------------------------------------------------

def golden_instances(name):
    return [instance_from_json(row) for row in read_jsonl(GOLDEN / f"{name}.dataset.jsonl")]


@pytest.mark.parametrize("name", ["corpus", "chain", "diamond", "ladder"])
def test_a_gold_set_checks_like_its_proofs_one_by_one(name):
    for inst in golden_instances(name):
        for q in inst.questions:
            ann = q.annotation
            alone = [check_proof(inst.theory, q.statement, ann.label, p) for p in ann.proofs]
            assert check_proofs(inst.theory, q.statement, ann.label, ann.proofs) == alone


@pytest.mark.parametrize("case", sorted(FAULTY_AFTER_SHARED))
def test_a_fault_in_reused_steps_is_found_after_a_valid_proof(case):
    theory = parse_theory(SHARED_LINES)
    statement = parse_statement(SHARED_STATEMENT)
    faulty = FAULTY_AFTER_SHARED[case]
    assert len(check_proof(theory, statement, LABEL_TRUE, SHARED_PROOF)) == 3
    with pytest.raises(ProofCheckError) as alone:
        check_proof(theory, statement, LABEL_TRUE, faulty)
    with pytest.raises(ProofCheckError, match=f"^{re.escape(str(alone.value))}$"):
        check_proofs(theory, statement, LABEL_TRUE, [SHARED_PROOF, faulty])


def test_a_gold_set_matches_each_distinct_step_once(monkeypatch):
    """The capped question of the stacked 10-way diamonds: 64 proofs of
    four steps each that only a few dozen distinct steps make up."""
    (inst,) = golden_instances("diamond")
    q = max(inst.questions, key=lambda q: len(q.annotation.proofs))
    ann = q.annotation
    proofs = check_proofs(inst.theory, q.statement, ann.label, ann.proofs)
    distinct = {(rule, tuple(premises)) for steps in proofs for rule, premises, _ in steps}
    assert sum(map(len, proofs)) > 4 * len(distinct)

    calls = []
    match_rule = reasoner._match_rule
    monkeypatch.setattr(
        reasoner, "_match_rule", lambda *args: calls.append(args) or match_rule(*args)
    )
    (prediction,) = [p for p in predict_instances([inst], "goal") if p.question_id == q.id]
    inference_pr(inst, q, prediction)
    assert 0 < len(calls) <= len(distinct)
