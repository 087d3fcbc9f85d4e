"""Fact store, one-hop steps, the run loop, verdicts, canonical proofs."""
import itertools
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings

from rulechain import reasoner
from rulechain.datagen import GenConfig, generate_dataset, instance_from_json
from rulechain.evalkit import build_report, predict_instances
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
    Verdict,
    _id_sort_key,
    applicable_bindings,
    canonical_proof_string,
    check_proof,
    check_proofs,
    compile_theory,
    run,
    solve,
    step,
    substitute,
)
from rulechain.strategies import STRATEGY_NAMES, ExhaustiveStrategy, make_strategy
from rulechain.theory import (
    Atom,
    COMMON,
    Entity,
    IsAttr,
    PROPER,
    QUANT_NONE,
    QUANT_PEOPLE,
    Rule,
    parse_statement,
    parse_theory,
    render,
)

from conftest import FAULTY_AFTER_SHARED, SHARED_LINES, SHARED_PROOF, SHARED_STATEMENT
from grammar_theories import theories
from test_golden import GOLDEN
from test_strategies import shared_theory_cases

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
    (given,) = store.numbers
    assert store.by_number[given].id == "sent1"
    quiet = store.tables.number(Atom(Entity(PROPER, "Bob"), IsAttr("quiet"), True))
    fact = store.derive(quiet, "sent2", (given,))
    assert fact.id == "int1"
    assert store.derivations == {quiet: ("sent2", (given,))}
    with pytest.raises(DuplicateConclusionError):
        store.derive(quiet, "sent2", (given,))


def test_store_flags_contradictions():
    theory = parse_theory(["Bob is kind.", "Bob is not kind."])
    assert FactStore(theory).contradiction

    theory2 = parse_theory(["Bob is kind.", "If Bob is kind then Bob is not kind."])
    store = FactStore(theory2)
    assert not store.contradiction
    not_kind = store.tables.number(Atom(Entity(PROPER, "Bob"), IsAttr("kind"), False))
    store.derive(not_kind, "sent2", (not_kind ^ 1,))
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
    bindings = applicable_bindings(rule, store, store.tables.entities)
    assert [b.entity.surface for b in bindings] == ["Dave", "Anne"]
    assert [b.fact_ids for b in bindings] == [("sent1",), ("sent2",)]
    backwards = applicable_bindings(rule, store, store.tables.entities[::-1])
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
    entities = store.tables.entities
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
    (binding,) = applicable_bindings(conj.rules[0], store, store.tables.entities)
    assert binding.fact_ids == ("sent3", "sent4")
    assert substitute(conj.rules[0].conclusion, binding.entity) == Atom(
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


# Mentioned by no drawn theory
STRANGER = Entity(PROPER, "Zed")


def mutated_bindings(binding, entities, stored_ids):
    """``binding`` and its near misses: each fact id swapped for a stored
    id or one no fact has, dropped or repeated; the ids reversed; an extra
    id; and every other entity, ``None`` and one the theory never
    mentions."""
    entity, ids = binding
    yield binding
    for k in range(len(ids)):
        for other in (*stored_ids, "int99"):
            if other != ids[k]:
                yield Binding(entity, (*ids[:k], other, *ids[k + 1:]))
        yield Binding(entity, ids[:k] + ids[k + 1:])
        yield Binding(entity, (*ids[:k + 1], *ids[k:]))
    yield Binding(entity, ids[::-1])
    yield Binding(entity, (*ids, stored_ids[0]))
    for other in (None, STRANGER, *entities):
        if other != entity:
            yield Binding(other, ids)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=theories())
@example(
    lines=[
        "The cat is red.",
        "Bob is red.",
        "Bob is big.",
        "If someone is red and they are big then they are kind.",
        "If the cat is red and Bob is big then Anne is kind.",
        "If something is red then it is big.",
    ]
)
def test_step_rejects_exactly_what_applicable_bindings_does_not_yield(lines):
    """On a store halfway through the exhaustive run, every completed (rule,
    entity) pair and each of its near misses: ``step`` raises
    StaleDecisionError exactly when ``applicable_bindings`` does not yield
    the binding for its entity. A decision it accepts either derives its
    conclusion or finds it stored."""
    theory = parse_theory(lines)
    tables = compile_theory(theory)
    statement = parse_statement(render(theory.facts[0].atom))
    derivations = list(run(theory, statement, ExhaustiveStrategy()).store.derivations.items())
    kept = derivations[: (len(derivations) + 1) // 2]

    def replayed():
        store = FactStore(theory)
        for n, (rule_id, premises) in kept:
            store.derive(n, rule_id, premises)
        return store

    store = replayed()
    ids = sorted({store.by_number[n].id for n in store.numbers}, key=_id_sort_key)
    stored_ids = (ids[0], ids[-1])
    for rule in theory.rules:
        entities = [None] if rule.quantifier == QUANT_NONE else tables.entities
        for completed in applicable_bindings(rule, store, entities):
            for binding in mutated_bindings(completed, tables.entities, stored_ids):
                decision = Proceed(rule.id, binding)
                if applicable_bindings(rule, store, (binding.entity,)) != [binding]:
                    with pytest.raises(StaleDecisionError):
                        step(store, decision)
                    continue
                # an accepted decision grows the store, so it gets its own
                fresh = replayed()
                try:
                    one = step(fresh, decision)
                except DuplicateConclusionError:
                    continue
                assert one.fact_ids == binding.fact_ids
                assert fresh.numbers[-1] == tables.number(one.conclusion.atom)
    # a rejected decision leaves the store as it was
    assert store.numbers == replayed().numbers


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
    assert store.fact_for(Atom(Entity(PROPER, "Bob"), IsAttr("smart"), True)) is not None
    derived = [store.by_number[n] for n in store.derivations]
    assert [f.id for f in derived] == [s.conclusion.id for s in trace.steps]
    assert [f.atom for f in derived] == trace.conclusions()


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


def test_the_store_records_the_steps_that_ran():
    """Each derivation the store records is its step's rule and premise
    numbers, and at every prefix of a run ``solve`` reads a proof off them
    that ``check_proof`` accepts and that uses no later step. A repeated
    given fact is cited by its last sentence id."""
    repeated = (["Bob is red.", "Bob is red.", "If someone is red then they are big."],
                ["Bob is big."])
    for lines, statements in [*shared_theory_cases(), repeated]:
        theory = parse_theory(lines)
        for text, name in itertools.product(statements, STRATEGY_NAMES):
            statement = parse_statement(text)
            trace = run(theory, statement, make_strategy(name, theory, statement))
            store = trace.store
            number = {f.id: n for n, f in store.by_number.items()}
            assert list(store.derivations.items()) == [
                (
                    store.tables.number(s.conclusion.atom),
                    (s.rule_id, tuple(number[fid] for fid in s.fact_ids)),
                )
                for s in trace.steps
            ]
            for k in range(len(trace.steps) + 1):
                verdict = solve(statement, trace, k)
                if verdict.proof is not None:
                    check_proof(theory, statement, verdict.label, verdict.proof)
                    assert verdict.proof.count("->") <= max(k, 1)
    statement, trace = run_exhaustive(parse_theory(repeated[0]), repeated[1][0])
    assert solve(statement, trace).proof == "(sent3 & sent2) -> hypothesis"


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


def test_check_proof_names_a_rule_id_that_is_not_a_rule(chain2):
    bad = "(sent1 & sent1) -> int1 ; (sent3 & int1) -> hypothesis"
    with pytest.raises(ProofCheckError, match="^sent1 is not a rule$"):
        check_proof(chain2, parse_statement("Bob is smart."), LABEL_TRUE, bad)


def test_check_proof_rejects_unsorted_fact_ids(conj):
    with pytest.raises(ProofCheckError):
        check_proof(
            conj,
            parse_statement("Dave is happy."),
            LABEL_TRUE,
            "(sent2 & sent4 sent3) -> hypothesis",
        )


def test_id_sort_key_orders_ids_as_their_numbers_do():
    """Digit strings stand in for ``int``, so that no id is too long to
    sort; leading zeros tie, as they do under ``int``."""

    def int_key(fid):
        kind, digits = re.fullmatch(r"(sent|int)(\d+)", fid).groups()
        return (kind == "int", int(digits))

    numbers = (*range(13), 99, 100, 101, 999, 1000, 10**20)
    ids = [f"{kind}{zeros}{n}" for kind in ("sent", "int") for zeros in ("", "0", "00")
           for n in numbers]
    for a, b in itertools.product(ids, repeat=2):
        assert (_id_sort_key(a) < _id_sort_key(b)) == (int_key(a) < int_key(b))
        assert (_id_sort_key(a) == _id_sort_key(b)) == (int_key(a) == int_key(b))


def test_check_proof_names_an_id_too_long_for_int():
    long_id = "sent" + "9" * 5000
    with pytest.raises(ProofCheckError, match=f"^{long_id} is not a given fact$"):
        check_proof(
            parse_theory(SHARED_LINES),
            parse_statement("Bob is big."),
            LABEL_TRUE,
            f"(sent2 & sent1 {long_id}) -> hypothesis",
        )


@pytest.mark.parametrize(
    "proof", ["sent\u0663 -> hypothesis", "(sent2 & sent3 sent\u0663) -> hypothesis"]
)
def test_check_proof_reads_only_ascii_digits_in_ids(conj, proof):
    """An id spelled with a non-ASCII digit (ARABIC-INDIC DIGIT THREE) is
    no id: its step is malformed, whatever the digit's value."""
    with pytest.raises(ProofCheckError, match="^malformed step "):
        check_proof(conj, parse_statement("Dave is happy."), LABEL_TRUE, proof)
    with pytest.raises(ValueError, match="^bad fact id "):
        _id_sort_key("sent\u0663")


def test_check_proof_rejects_dangling_intermediates(diamond):
    dangling = (
        "(sent2 & sent1) -> int1 ; (sent3 & sent1) -> int2 ; "
        "(sent4 & int1) -> hypothesis"
    )
    with pytest.raises(ProofCheckError):
        check_proof(diamond, parse_statement("Bob is smart."), LABEL_TRUE, dangling)


# Sound proofs that the writer would not write, with the message each raises.
SOUND_BUT_NOT_WRITTEN = [
    (  # independent steps swapped
        ["Bob is red.", "Bob is big.", "If someone is red then they are kind.",
         "If someone is big then they are nice.",
         "If someone is kind and they are nice then they are rough."],
        "Bob is rough.",
        "(sent4 & sent2) -> int1 ; (sent3 & sent1) -> int2 ; (sent5 & int1 int2) -> hypothesis",
        "the writer gives '(sent3 & sent1) -> int1 ; (sent4 & sent2) -> int2 ; "
        "(sent5 & int1 int2) -> hypothesis'",
    ),
    (  # an intermediate that is a given fact
        ["Bob is red.", "If someone is red then they are kind.",
         "If someone is kind then they are red.", "If someone is red then they are nice."],
        "Bob is nice.",
        "(sent2 & sent1) -> int1 ; (sent3 & int1) -> int2 ; (sent4 & int2) -> hypothesis",
        "the writer gives '(sent4 & sent1) -> hypothesis'",
    ),
    (  # one atom derived twice
        ["Bob is red.", "If someone is red then they are big.",
         "If someone is big then they are kind.", "If someone is kind then they are big.",
         "If someone is big then they are nice."],
        "Bob is nice.",
        "(sent2 & sent1) -> int1 ; (sent3 & int1) -> int2 ; (sent4 & int2) -> int3 ; "
        "(sent5 & int3) -> hypothesis",
        "the writer gives '(sent2 & sent1) -> int1 ; (sent5 & int1) -> hypothesis'",
    ),
    (  # the hypothesis derived as an intermediate first
        ["Bob is red.", "If someone is red then they are big.",
         "If someone is big then they are kind.", "If someone is kind then they are big."],
        "Bob is big.",
        "(sent2 & sent1) -> int1 ; (sent3 & int1) -> int2 ; (sent4 & int2) -> hypothesis",
        "the writer gives '(sent2 & sent1) -> hypothesis'",
    ),
    (  # a repeated fact cited by its first id
        ["Bob is red.", "If someone is red then they are kind.", "Bob is red."],
        "Bob is kind.",
        "(sent2 & sent1) -> hypothesis",
        "the writer gives '(sent2 & sent3) -> hypothesis'",
    ),
    (
        ["Bob is red.", "If someone is red then they are kind.", "Bob is red."],
        "Bob is red.",
        "sent1 -> hypothesis",
        "the writer gives 'sent3 -> hypothesis'",
    ),
]


@pytest.mark.parametrize("lines, statement, proof, message", SOUND_BUT_NOT_WRITTEN)
def test_check_proof_rejects_a_sound_proof_the_writer_would_not_write(
    lines, statement, proof, message
):
    theory = parse_theory(lines)
    with pytest.raises(ProofCheckError, match=f"^not in canonical form: {re.escape(message)}$"):
        check_proof(theory, parse_statement(statement), LABEL_TRUE, proof)


def test_check_proof_accepts_what_the_writer_writes_for_those_theories():
    """The engine's proofs of the statements above, which the writer
    writes, check."""
    cases = [
        (["Bob is red.", "Bob is big.", "If someone is red then they are kind.",
          "If someone is big then they are nice.",
          "If someone is kind and they are nice then they are rough."], "Bob is rough.",
         "(sent3 & sent1) -> int1 ; (sent4 & sent2) -> int2 ; (sent5 & int1 int2) -> hypothesis"),
        (["Bob is red.", "If someone is red then they are kind.",
          "If someone is kind then they are red.", "If someone is red then they are nice."],
         "Bob is nice.", "(sent4 & sent1) -> hypothesis"),
        (["Bob is red.", "If someone is red then they are kind.", "Bob is red."], "Bob is kind.",
         "(sent2 & sent3) -> hypothesis"),
        (["Bob is red.", "If someone is red then they are kind.", "Bob is red."], "Bob is red.",
         "sent3 -> hypothesis"),
    ]
    for lines, text, proof in cases:
        theory = parse_theory(lines)
        statement, trace = run_exhaustive(theory, text)
        assert solve(statement, trace) == Verdict(LABEL_TRUE, proof)
        check_proof(theory, statement, LABEL_TRUE, proof)


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


def count_writer_calls(monkeypatch) -> list:
    """The argument tuples of every call the checker makes to the writer."""
    calls = []
    writer = reasoner.canonical_proof_string

    def counted(*args):
        calls.append(args)
        return writer(*args)

    monkeypatch.setattr(reasoner, "canonical_proof_string", counted)
    return calls


def test_gold_sets_check_without_asking_the_writer(monkeypatch):
    """Every gold proof of the golden datasets and of a seed-0 corpus is a
    chain of distinct derived atoms over a theory that states no fact twice,
    so the soundness checks alone fix its string."""
    instances = [inst for name in ("corpus", "chain", "diamond", "ladder")
                 for inst in golden_instances(name)]
    instances += generate_dataset(GenConfig(seed=0))
    calls = count_writer_calls(monkeypatch)
    chains = 0  # proofs with at least one intermediate
    for inst in instances:
        for q in inst.questions:
            ann = q.annotation
            checked = check_proofs(inst.theory, q.statement, ann.label, ann.proofs)
            chains += sum(len(steps) > 1 for steps in checked)
    assert chains > 200
    assert calls == []


@pytest.mark.parametrize(
    "lines, statement, proof",
    [(lines, statement, proof) for lines, statement, proof, _ in SOUND_BUT_NOT_WRITTEN]
    + [(SHARED_LINES, SHARED_STATEMENT, FAULTY_AFTER_SHARED["swapped_siblings"])],
)
def test_a_proof_the_writer_would_not_write_is_compared_with_the_writer(
    monkeypatch, lines, statement, proof
):
    calls = count_writer_calls(monkeypatch)
    with pytest.raises(ProofCheckError, match="^not in canonical form: the writer gives "):
        check_proof(parse_theory(lines), parse_statement(statement), LABEL_TRUE, proof)
    assert calls


@pytest.mark.parametrize(
    "derivations",
    [
        {1: ("sent2", (1,))},
        {1: ("sent2", (2,)), 2: ("sent3", (1,))},
        {1: ("sent2", (0, 2)), 2: ("sent3", (3,)), 3: ("sent4", (2,))},
    ],
    ids=["self", "through_the_target", "below_the_target"],
)
def test_the_writer_rejects_a_cyclic_derivation_map(derivations):
    with pytest.raises(ValueError, match="^the derivations are cyclic$"):
        canonical_proof_string(1, {0: "sent1"}, derivations)


def test_the_writer_writes_a_chain_deeper_than_the_recursion_limit():
    n = 5000
    derivations = {k: (f"sent{k + 1}", (k - 1,)) for k in range(1, n + 1)}
    proof, depth = canonical_proof_string(n, {0: "sent1"}, derivations)
    segments = proof.split(" ; ")
    assert depth == n
    assert segments[:2] == ["(sent2 & sent1) -> int1", "(sent3 & int1) -> int2"]
    assert segments[-1] == f"(sent{n + 1} & int{n - 1}) -> hypothesis"


@pytest.mark.parametrize("case", sorted(FAULTY_AFTER_SHARED))
def test_a_fault_in_reused_steps_is_found_after_a_valid_proof(case):
    """The faulty proof raises the message it raises on a fresh theory when
    it follows the valid proof in one set, and when the valid proof was
    checked before on the same theory, whose tables keep its steps."""
    statement = parse_statement(SHARED_STATEMENT)
    faulty = FAULTY_AFTER_SHARED[case]
    with pytest.raises(ProofCheckError) as alone:
        check_proof(parse_theory(SHARED_LINES), statement, LABEL_TRUE, faulty)
    message = f"^{re.escape(str(alone.value))}$"
    theory = parse_theory(SHARED_LINES)
    with pytest.raises(ProofCheckError, match=message):
        check_proofs(theory, statement, LABEL_TRUE, [SHARED_PROOF, faulty])
    assert len(check_proof(theory, statement, LABEL_TRUE, SHARED_PROOF)) == 3
    with pytest.raises(ProofCheckError, match=message):
        check_proof(theory, statement, LABEL_TRUE, faulty)


def test_a_gold_set_matches_each_distinct_step_once():
    """The stacked 10-way diamonds, whose capped question has 64 proofs of
    four steps each that only a few dozen distinct steps make up: scoring
    the goal predictions composes each distinct step of the whole report
    once."""
    (inst,) = golden_instances("diamond")
    tables = compile_theory(inst.theory)
    composed = []
    compose = tables.compose

    def counting_compose(i, premises):
        composed.append((i, premises))
        return compose(i, premises)

    tables.compose = counting_compose
    predictions = predict_instances([inst], "goal")
    build_report([inst], predictions, "goal")

    forms = {p.question_id: [p.proof] for p in predictions if p.proof is not None}
    distinct = set()
    for q in inst.questions:
        ann = q.annotation
        for form in [*ann.proofs, *forms.get(q.id, ())]:
            for rule, premises, _ in check_proof(inst.theory, q.statement, ann.label, form):
                distinct.add((rule, tuple(premises)))
    q = max(inst.questions, key=lambda q: len(q.annotation.proofs))
    capped = check_proofs(inst.theory, q.statement, q.annotation.label, q.annotation.proofs)
    assert sum(map(len, capped)) > 4 * len(distinct)
    assert 0 < len(composed) <= len(distinct)


# ---------------------------------------------------------------------------
# Composition on atom numbers against a matcher on atoms
# ---------------------------------------------------------------------------

def reference_match_rule(rule: Rule, premise_atoms: list[Atom]) -> Atom:
    """Find a substitution under which ``premise_atoms`` are exactly the
    rule's premises (as a multiset) and return the ground conclusion.

    A quantified rule has a premise whose subject is the variable, so only
    the subjects of ``premise_atoms`` can bind it.
    """
    if len(premise_atoms) != len(rule.premises):
        raise ProofCheckError(f"{rule.id} takes {len(rule.premises)} facts")
    want = Counter(premise_atoms)
    entities: list[Entity | None] = [None]
    if rule.quantifier != QUANT_NONE:
        subjects = dict.fromkeys(a.subject for a in premise_atoms)
        entities = [e for e in subjects if rule.quantifier != QUANT_PEOPLE or e.is_person]
    for entity in entities:
        if Counter(substitute(p, entity) for p in rule.premises) == want:
            return substitute(rule.conclusion, entity)
    raise ProofCheckError(f"facts do not match the premises of {rule.id}")


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=theories())
@example(
    lines=[
        "The cat is red.",
        "Bob is red.",
        "If someone is red and Bob is red and they are big then they are kind.",
        "If something is red and it is red then Anne is big.",
        "All red, big people are kind.",
        "If the cat is red then Bob is big.",
    ]
)
def test_compose_agrees_with_the_reference_matcher_on_the_grammar(lines):
    """``compose`` on one theory's tables, for every rule, against the
    rule's premises grounded on each entity of the theory (a people rule
    on the cat among them), and against each of those with one premise
    swapped for any atom of a premise's predicate about an entity of the
    theory, in either polarity: every atom the closure can hold for those
    predicates, so the wrong entity, a ground premise about someone else
    and a repeated premise."""
    theory = parse_theory(lines)
    tables = compile_theory(theory)
    for i, rule in enumerate(theory.rules):
        pool = list(
            dict.fromkeys(
                Atom(e, p.pred, positive)
                for p in rule.premises
                for e in tables.entities
                for positive in (True, False)
            )
        )
        for entity in tables.entities:
            grounded = [substitute(p, entity) for p in rule.premises]
            cases = [grounded] + [
                [*grounded[:k], atom, *grounded[k + 1 :]]
                for k in range(len(grounded))
                for atom in pool
            ]
            for atoms in cases:
                try:
                    want = tables.number(reference_match_rule(rule, atoms))
                except ProofCheckError:
                    want = None
                assert tables.compose(i, tuple(map(tables.number, atoms))) == want
