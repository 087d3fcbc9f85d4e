"""The closure oracle against the engine and against a brute-force reference,
on theories drawn from the grammar, a generated corpus and the scaling
family."""
import pytest
from hypothesis import example, given, settings

import rulechain.datagen as datagen_module
from rulechain.datagen import (
    ContradictionError,
    GenConfig,
    GoldClosure,
    assign_gold,
    generate_dataset,
    gold_closure,
)
from rulechain.reasoner import LABEL_UNKNOWN, check_proof, run, solve
from rulechain.strategies import ExhaustiveStrategy, GoalDirectedStrategy
from rulechain.theory import (
    QUANT_NONE,
    QUANT_PEOPLE,
    Atom,
    Statement,
    Var,
    parse_sentence,
    parse_statement,
    parse_theory,
    render,
)

from grammar_theories import facts, scaling_lines, theories


def _ground(atom, entity):
    if isinstance(atom.subject, Var):
        return Atom(entity, atom.pred, atom.positive)
    return atom


def reference_gold_closure(theory):
    """The brute-force closure: sweep every rule over every candidate entity
    until a pass changes nothing, then relax depths to a fixpoint."""
    given = {f.atom: f.id for f in theory.facts}
    known = set(given)
    derived = []
    derivations = {}
    seen_derivations = set()
    entities = theory.entity_order()

    changed = True
    while changed:
        changed = False
        for rule in theory.rules:
            if rule.quantifier == QUANT_NONE:
                candidates = [None]
            elif rule.quantifier == QUANT_PEOPLE:
                candidates = [e for e in entities if e.is_person]
            else:
                candidates = list(entities)
            for entity in candidates:
                premises = tuple(_ground(p, entity) for p in rule.premises)
                if not all(p in known for p in premises):
                    continue
                conclusion = _ground(rule.conclusion, entity)
                key = (rule.id, conclusion, premises)
                if key not in seen_derivations:
                    seen_derivations.add(key)
                    derivations.setdefault(conclusion, []).append((rule.id, premises))
                    changed = True
                if conclusion not in known:
                    known.add(conclusion)
                    derived.append(conclusion)

    depth = {a: 0 for a in given}
    pending = dict.fromkeys(derived)
    relaxed = True
    while relaxed:
        relaxed = False
        for atom in pending:
            best = depth.get(atom)
            for _, premises in derivations.get(atom, []):
                if all(p in depth for p in premises):
                    d = 1 + max(depth[p] for p in premises)
                    if best is None or d < best:
                        best = d
                        relaxed = True
            if best is not None:
                depth[atom] = best

    contradiction = any(a.negated() in known for a in known)
    return GoldClosure(given, derived, derivations, depth, contradiction)


def assert_matches_the_reference(theory):
    closure, reference = gold_closure(theory), reference_gold_closure(theory)
    assert closure.given == reference.given
    assert len(closure.derived) == len(reference.derived)
    assert set(closure.derived) == set(reference.derived)
    assert closure.derivations.keys() == reference.derivations.keys()
    for atom, derivations in reference.derivations.items():
        assert len(closure.derivations[atom]) == len(derivations)
        assert set(closure.derivations[atom]) == set(derivations)
    assert closure.depth == reference.depth
    assert closure.contradiction == reference.contradiction
    return closure


# Hand-picked shapes the drawer may miss: a quantified rule with a ground
# premise, people rules beside the cat, relations and ground rules; a
# contradiction among the given facts; one that only a derivation makes.
EXAMPLES = [
    (
        [
            "Bob is big.",
            "The cat is big.",
            "If something is big and Bob is red then it is blue.",
            "The doctor is red.",
            "If the doctor is red then Bob is red.",
            "If someone is blue then they see the cat.",
            "All blue, big people are kind.",
            "Big things are red.",
            "If something is big then it is not kind.",
        ],
        "The cat is kind.",
    ),
    (
        [
            "Bob is red.",
            "Bob is not red.",
            "The cat likes Bob.",
            "If something likes Bob and it is not red then it is red.",
            "If someone is red then the cat does not like Bob.",
            "If Bob is red and Bob is not red then Anne is big.",
        ],
        "Anne is big.",
    ),
    (
        [
            "Bob is big.",
            "Bob is kind.",
            "If someone is big then they are red.",
            "If Bob is red then Bob is not kind.",
        ],
        "Bob is kind.",
    ),
]


def with_examples(test):
    for lines, statement_text in EXAMPLES:
        test = example(lines=lines, statement_text=statement_text)(test)
    return test


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=theories(), statement_text=facts())
@with_examples
def test_engine_agrees_with_the_oracle_on_the_grammar(lines, statement_text):
    """Both strategies label as ``assign_gold`` does, with proofs that check
    and that the gold set holds; goal runs stay inside the closure; the
    exhaustive run derives exactly the closure and finds the same
    contradiction; rendering inverts parsing."""
    for text in [*lines, statement_text]:
        assert render(parse_sentence(text)) == text
    theory = parse_theory(lines)
    drawn = parse_statement(statement_text)
    closure = gold_closure(theory)
    exhaustive = run(theory, drawn, ExhaustiveStrategy())
    assert set(exhaustive.conclusions()) == set(closure.derived)
    assert exhaustive.contradiction == closure.contradiction
    if closure.contradiction:
        with pytest.raises(ContradictionError):
            assign_gold(theory, drawn, closure)
        return
    atoms = [*closure.given, *closure.derived]
    statements = [drawn, *(Statement(a) for a in atoms), *(Statement(a.negated()) for a in atoms)]
    for statement in statements:
        gold = assign_gold(theory, statement, closure)
        goal = run(theory, statement, GoalDirectedStrategy(theory, statement))
        assert set(goal.conclusions()) <= set(closure.derived)
        for trace in (exhaustive, goal):
            verdict = solve(statement, trace)
            assert verdict.label == gold.label
            if verdict.label == LABEL_UNKNOWN:
                continue
            check_proof(theory, statement, verdict.label, verdict.proof)
            if not gold.proofs_truncated:
                assert verdict.proof in gold.proofs


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=theories(), statement_text=facts())
@with_examples
def test_oracle_matches_the_reference_on_the_grammar(lines, statement_text):
    assert_matches_the_reference(parse_theory(lines))


def test_oracle_matches_the_reference_on_a_gen_corpus():
    cfg = GenConfig(target_depths=(0, 1, 2, 3, 4, 5), theories=36, seed=7)
    for inst in generate_dataset(cfg):
        assert_matches_the_reference(inst.theory)


def reversed_rules(lines):
    """The 40 x 40 scaling family, whose 40 facts come first, with its rule
    chain written last rule first."""
    return lines[:40] + lines[40:][::-1]


@pytest.mark.parametrize("order", [list, reversed_rules], ids=["chain_order", "reversed"])
def test_oracle_matches_the_reference_on_the_scaling_family(order):
    closure = assert_matches_the_reference(parse_theory(order(scaling_lines(40, 40))))
    assert len(closure.derived) == 40 * 40
    assert max(closure.depth.values()) == 40


def test_oracle_work_is_linear_in_the_closure(monkeypatch):
    """Each new atom grounds only the rules it can complete, so the oracle
    grounds rules about once per closure fact whatever the rule order; a
    sweep of all rules x entities to fixpoint makes about 64,000 groundings
    with the chain reversed."""
    theory = parse_theory(reversed_rules(scaling_lines(40, 40)))
    calls = []
    original = datagen_module._ground_rule

    def counting(*args):
        calls.append(args[0].id)
        return original(*args)

    monkeypatch.setattr(datagen_module, "_ground_rule", counting)
    closure = gold_closure(theory)
    assert len(closure.derived) == 40 * 40
    assert len(calls) <= 2 * len(closure.derived)
