"""The closure oracle against the engine and against a brute-force reference,
on theories drawn from the grammar, a generated corpus and the scaling
family; its gold-proof search against the atom-keyed enumerator it
replaced, in its enumeration order too, on the same theories and on
diamond ladders, with and without detours; the canonical proof
writer against a three-pass reference writer, on every assignment the
search enumerates for the grammar's theories and the golden datasets."""
import itertools
import re
import string
from collections.abc import Hashable, Mapping, Sequence

import pytest
from hypothesis import example, given, settings

import rulechain.datagen as datagen_module
from rulechain.datagen import (
    DEPTH_NA,
    ContradictionError,
    GenConfig,
    GoldAnnotation,
    GoldClosure,
    _proof_assignments,
    assign_gold,
    generate_dataset,
    gold_closure,
    instance_from_json,
)
from rulechain.jsonlio import read_jsonl
from rulechain.reasoner import (
    LABEL_FALSE,
    LABEL_TRUE,
    LABEL_UNKNOWN,
    canonical_proof_string,
    check_proof,
    run,
    solve,
)
from rulechain.strategies import ExhaustiveStrategy, GoalDirectedStrategy
from rulechain.theory import (
    QUANT_NONE,
    QUANT_PEOPLE,
    Atom,
    Statement,
    Var,
    negate,
    parse_sentence,
    parse_statement,
    parse_theory,
    render,
)

from conftest import diamond_ladder_lines
from grammar_theories import facts, reversed_rules, scaling_lines, theories
from test_golden import DATASETS, GOLDEN, diamond_lines, diamond_statements


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


def reference_proof_assignments(closure, target, limit):
    """The atom-keyed enumerator: proof choice-maps for ``target``, one
    derivation per derived atom, acyclic, at most ``limit``, each atom's
    derivations sorted afresh on every visit."""

    def ordered_derivs(atom):
        def key(deriv):
            rule_id, premises = deriv
            depths = [closure.depth.get(p) for p in premises]
            d = 1 + max((x for x in depths if x is not None), default=0)
            return (d, rule_id, tuple(sorted(render(p) for p in premises)))

        return sorted(closure.derivations.get(atom, []), key=key)

    def proofs_for(atom, assignment, stack):
        if atom in closure.given:
            yield assignment
            return
        if atom in stack:
            return
        if atom in assignment:
            yield assignment
            return
        yield from derive(atom, assignment, stack)

    def derive(atom, assignment, stack):
        for deriv in ordered_derivs(atom):
            _, premises = deriv
            started = dict(assignment)
            started[atom] = deriv
            inner_stack = stack | {atom}

            def expand(idx, asg):
                if idx == len(premises):
                    yield asg
                    return
                for asg2 in proofs_for(premises[idx], asg, inner_stack):
                    yield from expand(idx + 1, asg2)

            yield from expand(0, started)

    yield from itertools.islice(derive(target, {}, frozenset()), limit)


def reference_assignment_depth(closure, assignment, target):
    memo = {}

    def d(atom):
        if atom in closure.given:
            return 0
        if atom in memo:
            return memo[atom]
        _, premises = assignment[atom]
        memo[atom] = 1 + max(d(p) for p in premises)
        return memo[atom]

    if target in assignment:
        _, premises = assignment[target]
        return 1 + max((d(p) for p in premises), default=0)
    return d(target)


# the reference's own copy, so that it shares no code with the writer it checks
def _id_sort_key(fid: str) -> tuple[int, int]:
    m = re.fullmatch(r"(sent|int)(\d+)", fid)
    if not m:
        raise ValueError(f"bad fact id {fid!r}")
    return (0 if m.group(1) == "sent" else 1, int(m.group(2)))


def reference_canonical_proof_string(
    target: Hashable,
    given_ids: Mapping[Hashable, str],
    derivations: Mapping[Hashable, tuple[str, Sequence[Hashable]]],
) -> str:
    """The canonical one-line form, written in three passes (order, number,
    labels) over a cache of structural keys; a reference for
    ``reasoner.canonical_proof_string``, which returns the depth as well.

    Atoms are keyed by any hashable handle. ``given_ids`` maps leaf atoms
    to their sentence ids; ``derivations`` maps every derived atom in the
    proof to (rule id, premise atoms), and may hold others. A target
    present in both maps serializes as the derivation; pass an empty
    ``derivations`` to get the degenerate given form.

    Steps come in a canonical topological order that is a function of the
    DAG alone: each step's derived premises are visited in order of a
    structural key built from rule ids and leaf sentence ids, which is
    stable under vocabulary renamings.
    """
    if target not in derivations and target in given_ids:
        return f"{given_ids[target]} -> hypothesis"
    key_cache: dict[Hashable, tuple] = {}

    def structural_key(atom: Hashable) -> tuple:
        cached = key_cache.get(atom)
        if cached is not None:
            return cached
        rule_id, premises = derivations[atom]
        leaf_ids = sorted(
            _id_sort_key(given_ids[p]) for p in premises if p in given_ids
        )
        sub = tuple(sorted(structural_key(p) for p in premises if p not in given_ids))
        key = (_id_sort_key(rule_id), tuple(leaf_ids), sub)
        key_cache[atom] = key
        return key

    order: list[Hashable] = []
    seen: set[Hashable] = set()

    def visit(atom: Hashable) -> None:
        if atom in seen:
            return
        seen.add(atom)
        _, premises = derivations[atom]
        derived_children = [p for p in premises if p not in given_ids]
        for child in sorted(derived_children, key=structural_key):
            visit(child)
        order.append(atom)

    visit(target)
    number = {atom: i + 1 for i, atom in enumerate(order)}
    segments: list[str] = []
    for atom in order:
        rule_id, premises = derivations[atom]
        labels = sorted(
            (
                given_ids[p] if p in given_ids else f"int{number[p]}"
                for p in premises
            ),
            key=_id_sort_key,
        )
        tgt = "hypothesis" if atom == target else f"int{number[atom]}"
        segments.append(f"({rule_id} & {' '.join(labels)}) -> {tgt}")
    return " ; ".join(segments)


def reference_gold_proofs(closure, target, cap):
    hard_limit = max(8 * cap, 256)
    found = {}
    count = 0
    if target in closure.given:
        found[reference_canonical_proof_string(target, closure.given, {})] = 0
        count += 1
    if target in closure.derivations:
        for assignment in reference_proof_assignments(closure, target, hard_limit + 1):
            canonical = reference_canonical_proof_string(target, closure.given, assignment)
            if canonical not in found:
                found[canonical] = reference_assignment_depth(closure, assignment, target)
            count += 1
    ordered = sorted(found, key=lambda c: (found[c], c))
    truncated = len(ordered) > cap or count > hard_limit
    return ordered[:cap], truncated


def reference_assign_gold(closure, statement, cap):
    for label, target in (
        (LABEL_TRUE, statement.atom),
        (LABEL_FALSE, statement.atom.negated()),
    ):
        if closure.knows(target):
            proofs, truncated = reference_gold_proofs(closure, target, cap)
            return GoldAnnotation(label, closure.depth[target], tuple(proofs), truncated)
    return GoldAnnotation(LABEL_UNKNOWN, DEPTH_NA, ())


PROOF_CAPS = (1, 2, 64)
# ``_gold_proofs``' enumeration limit at the default cap
HARD_LIMIT = max(8 * 64, 256)


def closure_statements(closure):
    """Every known atom, and its negation."""
    atoms = [*closure.given, *closure.derived]
    return [*(Statement(a) for a in atoms), *(Statement(a.negated()) for a in atoms)]


def assert_gold_matches_the_reference(theory, closure, statements):
    """``assign_gold`` labels ``statements`` as the atom-keyed enumerator
    does at every proof cap, all with one closure and so one proof index."""
    for cap in PROOF_CAPS:
        for statement in statements:
            gold = assign_gold(theory, statement, closure, proof_cap=cap)
            assert gold == reference_assign_gold(closure, statement, cap), (
                render(statement.atom), cap
            )


def assert_writer_matches_the_reference(closure):
    """The package writer gives each given atom's degenerate proof depth 0,
    and for every assignment that ``_proof_assignments`` yields for every
    atom with a derivation, up to the hard limit, the string and depth of the
    reference writer and ``reference_assignment_depth``, which read the
    same assignment keyed by atoms."""
    index = closure.proof_index
    atom_of = {index.number(a): a for a in [*closure.given, *closure.derived]}
    for atom in closure.given:
        written = canonical_proof_string(index.number(atom), index.given, {})
        assert written == (reference_canonical_proof_string(atom, closure.given, {}), 0)
    for target in closure.derivations:
        root = index.number(target)
        for assignment in _proof_assignments(index, root, HARD_LIMIT + 1):
            by_atom = {
                atom_of[n]: (rule_id, tuple(atom_of[p] for p in premises))
                for n, (rule_id, premises) in assignment.items()
            }
            assert canonical_proof_string(root, index.given, assignment) == (
                reference_canonical_proof_string(target, closure.given, by_atom),
                reference_assignment_depth(closure, by_atom, target),
            ), render(target)


# limits for the enumeration-order check: one, two, the hard limit at the
# default cap, one past it, and more than any checked target has proofs
ORDER_LIMITS = (1, 2, HARD_LIMIT, HARD_LIMIT + 1, 10**6)


def assert_enumeration_matches_the_reference(closure):
    """For every atom with a derivation, ``_proof_assignments`` yields the
    choice maps of the atom-keyed reference, in the same order, at every
    limit of ``ORDER_LIMITS``: the hard limit keeps a prefix of this order.
    Its assignments also write as many distinct strings as there are
    assignments, so a set that the hard limit cut holds more strings than
    the cap, and ``_gold_proofs`` needs no count of its own."""
    index = closure.proof_index
    numbered = {
        (atom, deriv): (deriv[0], tuple(map(index.number, deriv[1])))
        for atom, derivs in closure.derivations.items()
        for deriv in derivs
    }
    for target in closure.derivations:
        root = index.number(target)
        expected = [
            {index.number(atom): numbered[atom, deriv] for atom, deriv in assignment.items()}
            for assignment in reference_proof_assignments(closure, target, ORDER_LIMITS[-1])
        ]
        assert len(expected) < ORDER_LIMITS[-1]
        for limit in ORDER_LIMITS[:-1]:
            yielded = [dict(a) for a in _proof_assignments(index, root, limit)]
            assert yielded == expected[:limit], (render(target), limit)
        yielded, strings = [], set()
        for assignment in _proof_assignments(index, root, ORDER_LIMITS[-1]):
            yielded.append(dict(assignment))
            strings.add(canonical_proof_string(root, index.given, assignment)[0])
        assert yielded == expected, render(target)
        assert len(strings) == len(expected), render(target)


def detoured_ladder_lines(layers, detours):
    """``diamond_ladder_lines(layers)`` plus ``detours`` paths
    aax -> daax -> edaax -> abx, ... each one step longer than the two
    through bax and cax, so the top has 2**(layers - 1) * (2 + detours)
    proofs of two depths."""
    lines, top = diamond_ladder_lines(layers)
    rule = "If someone is {} then they are {}."
    for letter in string.ascii_lowercase[:detours]:
        lines += [rule.format("aax", f"d{letter}ax"), rule.format(f"d{letter}ax", f"ed{letter}ax"),
                  rule.format(f"ed{letter}ax", "abx")]
    return lines, top


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
# contradiction among the given facts; one that only a derivation makes;
# steps whose derived premises are listed against their canonical order,
# deepest first, or differ only in their leaves; two premises with two
# derivations each, whose choices the search takes first premise first.
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
    (
        [
            "The cat is red.",
            "Bob is red.",
            "If something is red then it is big.",
            "If something is big then it is kind.",
            "If Bob is big and the cat is big then Anne is happy.",
            "If something is kind and big then it is smart.",
        ],
        "Bob is smart.",
    ),
    (
        [
            "Bob is red.",
            "Bob is big.",
            "If Bob is red then Bob is kind.",
            "If Bob is big then Bob is kind.",
            "If Bob is red then Bob is blue.",
            "If Bob is big then Bob is blue.",
            "If Bob is kind and Bob is blue then Bob is happy.",
        ],
        "Bob is happy.",
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


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=theories(), statement_text=facts())
@with_examples
def test_writer_matches_the_reference_on_the_grammar(lines, statement_text):
    assert_writer_matches_the_reference(gold_closure(parse_theory(lines)))


@pytest.mark.parametrize("name", DATASETS)
def test_writer_matches_the_reference_on_the_golden_datasets(name):
    for row in read_jsonl(GOLDEN / f"{name}.dataset.jsonl"):
        assert_writer_matches_the_reference(gold_closure(instance_from_json(row).theory))


def test_oracle_matches_the_reference_on_a_gen_corpus():
    cfg = GenConfig(target_depths=(0, 1, 2, 3, 4, 5), theories=36, seed=7)
    for inst in generate_dataset(cfg):
        assert_matches_the_reference(inst.theory)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=theories(), statement_text=facts())
@with_examples
def test_gold_proofs_match_the_reference_on_the_grammar(lines, statement_text):
    theory = parse_theory(lines)
    closure = gold_closure(theory)
    if not closure.contradiction:
        statements = [parse_statement(statement_text), *closure_statements(closure)]
        assert_gold_matches_the_reference(theory, closure, statements)


def test_gold_proofs_match_the_reference_on_a_gen_corpus():
    cfg = GenConfig(target_depths=(0, 1, 2, 3, 4, 5), theories=36, seed=7)
    for inst in generate_dataset(cfg):
        closure = gold_closure(inst.theory)
        statements = [*(q.statement for q in inst.questions), *closure_statements(closure)]
        assert_gold_matches_the_reference(inst.theory, closure, statements)


@pytest.mark.parametrize("layers", range(1, 11))
def test_gold_proofs_match_the_reference_on_diamond_ladders(layers):
    """Every level of the ladder: the a atoms, at even depths. From 9
    layers the top has more proofs than the enumeration keeps (256 at caps
    1 and 2, 512 at cap 64), so the search order decides which are ranked."""
    lines, top = diamond_ladder_lines(layers)
    theory = parse_theory(lines, "ladder")
    closure = gold_closure(theory)
    levels = [Statement(a) for a in closure.derived if closure.depth[a] % 2 == 0]
    assert levels[-1] == parse_statement(top)
    assert_gold_matches_the_reference(theory, closure, levels)
    assert assign_gold(theory, levels[-1], closure).proofs_truncated == (layers >= 7)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=theories(), statement_text=facts())
@with_examples
def test_enumeration_order_matches_the_reference_on_the_grammar(lines, statement_text):
    assert_enumeration_matches_the_reference(gold_closure(parse_theory(lines)))


@pytest.mark.parametrize("name", DATASETS)
def test_enumeration_order_matches_the_reference_on_the_golden_datasets(name):
    for row in read_jsonl(GOLDEN / f"{name}.dataset.jsonl"):
        assert_enumeration_matches_the_reference(gold_closure(instance_from_json(row).theory))


@pytest.mark.parametrize("layers, detours", [(7, 0), (10, 0), (10, 20)])
def test_enumeration_order_matches_the_reference_on_ladders(layers, detours):
    """The 7- and 10-layer ladders, and the 10-layer one with 20 detours,
    whose top has 11,264 proofs of depths 20 and 21."""
    lines, top = detoured_ladder_lines(layers, detours)
    theory = parse_theory(lines, "ladder")
    closure = gold_closure(theory)
    assert_enumeration_matches_the_reference(closure)
    assert assign_gold(theory, parse_statement(top), closure).proofs_truncated


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


def test_gold_proofs_render_each_premise_at_most_once_per_closure(monkeypatch):
    """The proof index sorts an atom's derivations once per closure, so
    labelling every question of the golden diamond renders no more
    premises than the closure's derivations hold (40); sorting afresh on
    every visit rendered 262."""
    theory = parse_theory(diamond_lines(), "diamond")
    closure = gold_closure(theory)
    premises = sum(len(p) for derivs in closure.derivations.values() for _, p in derivs)
    calls = []
    original = datagen_module.render

    def counting(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(datagen_module, "render", counting)
    for text in diamond_statements():
        assign_gold(theory, parse_statement(text), closure)
    assert 0 < len(calls) <= premises


def test_a_statement_and_its_negation_enumerate_their_target_once(monkeypatch):
    """Both polarities label from one known target, so its proof set is
    enumerated once per (closure, cap), and what both receive is immutable."""
    theory = parse_theory(diamond_lines(), "diamond")
    closure = gold_closure(theory)
    calls = []
    original = datagen_module._proof_assignments

    def counting(index, target, limit):
        calls.append(target)
        return original(index, target, limit)

    monkeypatch.setattr(datagen_module, "_proof_assignments", counting)
    statement = parse_statement(diamond_statements()[0])
    assert closure.knows(statement.atom) and statement.atom not in closure.given
    first = assign_gold(theory, statement, closure)
    second = assign_gold(theory, negate(statement), closure)
    assert len(calls) == 1
    assert (first.label, second.label) == (LABEL_TRUE, LABEL_FALSE)
    assert first.proofs is second.proofs and isinstance(first.proofs, tuple)
    assert assign_gold(theory, statement, closure, proof_cap=1).proofs == first.proofs[:1]
    assert len(calls) == 2
