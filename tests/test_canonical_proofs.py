"""The proof checker accepts exactly the strings the canonical writer writes.

``check_proof`` is compared with ``reference_check_proof``: the checker as
it was before it became canonical-only, followed by a full re-serialise
round trip. Where the reference rejects a proof as unsound or malformed,
the checker must raise the same message; where only the round trip rejects
it, the checker must reject it as not in canonical form; where the
reference accepts it, both return the same steps. The inputs are every
gold proof of the golden datasets and of the grammar draws, every
topological order of each proof's steps, and proof trees that may derive a
given fact, derive one atom twice, or cite a repeated fact by another id.
"""
import itertools

import pytest
from hypothesis import example, given, settings

from rulechain.datagen import assign_gold, gold_closure, instance_from_json
from rulechain.jsonlio import read_jsonl
from rulechain.reasoner import (
    LABEL_FALSE,
    LABEL_TRUE,
    ProofCheckError,
    check_proof,
    check_proofs,
)
from rulechain.theory import Statement, parse_theory

from grammar_theories import theories
from reference_checker import check_proofs as sound_steps, reference_check_proof
from test_golden import GOLDEN

ORDERS_PER_PROOF = 24
PROOFS_PER_STATEMENT = 8
TREES_PER_ATOM = 12
TREE_DEPTH = 3


def assert_agrees(theory, statement, label, form):
    """``check_proof`` accepts ``form`` exactly when the reference does,
    with the same steps, or the same message for an unsound proof; return
    whether it was accepted."""
    try:
        want = reference_check_proof(theory, statement, label, form)
    except ProofCheckError as e:
        want = str(e)
    try:
        got = [(r, list(p), c) for r, p, c in check_proof(theory, statement, label, form)]
    except ProofCheckError as e:
        got = str(e)
    if isinstance(want, str) and want.startswith("proof is not in canonical form"):
        assert isinstance(got, str) and got.startswith("not in canonical form: "), (form, got)
    else:
        assert got == want, form
    return not isinstance(got, str)


def parse_steps(form):
    """(rule id, sentence ids, intermediate numbers, target) per segment."""
    steps = []
    for seg in form.split(" ; "):
        body, _, target = seg.rpartition(" -> ")
        rule_id, _, facts = body[1:-1].partition(" & ")
        ids = facts.split(" ")
        sents = [f for f in ids if f.startswith("sent")]
        ints = [int(f[3:]) for f in ids if f.startswith("int")]
        steps.append((rule_id, sents, ints, target))
    return steps


def write_steps(steps, order):
    """The proof with ``steps`` (which name intermediates by step position
    plus one) written in ``order``, intermediates renumbered to match."""
    number = {k: n for n, k in enumerate(order, start=1)}
    segments = []
    for k in order:
        rule_id, sents, ints, _ = steps[k]
        labels = sents + [f"int{n}" for n in sorted(number[j - 1] for j in ints)]
        target = "hypothesis" if k == order[-1] else f"int{number[k]}"
        segments.append(f"({rule_id} & {' '.join(labels)}) -> {target}")
    return " ; ".join(segments)


def topological_orders(kids, limit):
    """Up to ``limit`` orders of the steps, each after the steps it names;
    ``kids[k]`` lists the positions step k names."""
    orders = []

    def extend(order, placed):
        if len(orders) == limit:
            return
        if len(order) == len(kids):
            orders.append(list(order))
            return
        for k in range(len(kids)):
            if k not in placed and all(j in placed for j in kids[k]):
                placed.add(k)
                order.append(k)
                extend(order, placed)
                order.pop()
                placed.discard(k)

    extend([], set())
    return orders


def reorderings(form, limit=ORDERS_PER_PROOF):
    """``form`` and other topological orders of its steps."""
    if not form.startswith("("):
        return [form]
    steps = parse_steps(form)
    kids = [[j - 1 for j in ints] for _, _, ints, _ in steps]
    return [form, *(write_steps(steps, order) for order in topological_orders(kids, limit))]


def proof_trees(closure, ids, atom, depth):
    """Proof trees of ``atom`` as (rule id, sentence ids, subtrees), without
    sharing: a premise that is a given fact is cited by any of its ids, or,
    if it has a derivation, also derived, so a tree may derive a given fact
    or one atom twice."""
    for rule_id, premises in closure.derivations.get(atom, ()):
        options = []
        for p in premises:
            cited = [(sid, None) for sid in ids.get(p, ())]
            derived = []
            if depth > 1:
                derived = [(None, t) for t in itertools.islice(
                    proof_trees(closure, ids, p, depth - 1), 2)]
            options.append(cited + derived)
        for choice in itertools.product(*options):
            sents = sorted((sid for sid, _ in choice if sid), key=lambda s: int(s[4:]))
            yield rule_id, sents, [t for sid, t in choice if not sid]


def tree_steps(tree):
    """The tree as steps in post-order, each naming its subtrees' steps."""
    steps = []

    def visit(node):
        rule_id, sents, subtrees = node
        ints = [visit(t) + 1 for t in subtrees]
        steps.append((rule_id, sents, ints, None))
        return len(steps) - 1

    visit(tree)
    return steps


def tree_forms(closure, ids, atom):
    """Proofs of ``atom`` written from its proof trees in several orders,
    and once with an unused copy of the first step put in front, which
    must fail as unused whatever else is wrong with it."""
    for tree in itertools.islice(proof_trees(closure, ids, atom, TREE_DEPTH), TREES_PER_ATOM):
        steps = tree_steps(tree)
        kids = [[j - 1 for j in ints] for _, _, ints, _ in steps]
        orders = topological_orders(kids, 6)
        for order in orders:
            yield write_steps(steps, order)
        yield write_steps([*steps, steps[0]], [len(steps), *orders[0]])


def fact_ids(theory):
    """Every sentence id of each given atom."""
    ids = {}
    for f in theory.facts:
        ids.setdefault(f.atom, []).append(f.id)
    return ids


def assert_canonical_only(theory, questions):
    """Over (statement, label, gold proofs): every gold proof is accepted,
    every reordering agrees with the reference, and the set checks as its
    proofs do one by one."""
    for statement, label, proofs in questions:
        for form in proofs[:PROOFS_PER_STATEMENT]:
            assert assert_agrees(theory, statement, label, form)
            for other in reorderings(form)[1:]:
                assert_agrees(theory, statement, label, other)
        if proofs:
            assert check_proofs(theory, statement, label, proofs) == [
                check_proof(theory, statement, label, p) for p in proofs
            ]


@pytest.mark.parametrize("name", ["corpus", "chain", "diamond", "ladder"])
def test_golden_gold_proofs_agree_with_the_round_trip(name):
    for row in read_jsonl(GOLDEN / f"{name}.dataset.jsonl"):
        inst = instance_from_json(row)
        assert_canonical_only(
            inst.theory,
            [(q.statement, q.annotation.label, q.annotation.proofs) for q in inst.questions],
        )


CANONICAL_EXAMPLES = [
    # two derived siblings, and a repeated fact
    [
        "Bob is red.",
        "Bob is big.",
        "If someone is red then they are kind.",
        "If someone is big then they are nice.",
        "If someone is kind and they are nice then they are rough.",
        "Bob is red.",
    ],
    # a cycle through a given fact
    [
        "Bob is red.",
        "If someone is red then they are kind.",
        "If someone is kind then they are red.",
        "If someone is red then they are nice.",
    ],
    # a shared subproof under two siblings
    [
        "Bob is red.",
        "If someone is red then they are kind.",
        "If someone is kind then they are nice.",
        "If someone is kind then they are big.",
        "If someone is nice and they are big then they are rough.",
        "If someone is rough and they are kind then they are young.",
    ],
    # three derived siblings, each two steps deep
    [
        "Bob is red.",
        "If someone is red then they are kind.",
        "If someone is kind then they are nice.",
        "If someone is red then they are big.",
        "If someone is big then they are young.",
        "If someone is red then they are quiet.",
        "If someone is quiet then they are smart.",
        "If someone is nice and they are young and they are smart then they are rough.",
    ],
    # siblings whose rules match and whose keys differ below them
    [
        "The cat is red.",
        "Bob is red.",
        "If something is red then it is kind.",
        "If something is kind then it is nice.",
        "If Bob is nice and the cat is nice then Anne is big.",
    ],
    # a shared step numbered before a sibling whose key sorts first
    [
        "Bob is red.",
        "The cat is red.",
        "If something is red then it is kind.",
        "If something is red then it is nice.",
        "If something is kind and it is nice then it is big.",
        "If Bob is nice and Bob is big and the cat is big then Anne is happy.",
    ],
]


def with_examples(test):
    for lines in CANONICAL_EXAMPLES:
        test = example(lines=lines)(test)
    return test


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=theories())
@with_examples
def test_grammar_proofs_agree_with_the_round_trip(lines):
    """The gold proofs of every atom the closure holds, their reorderings,
    and proof trees that need not be canonical."""
    theory = parse_theory(lines)
    closure = gold_closure(theory)
    if closure.contradiction:
        return
    atoms = [*closure.given, *closure.derived]
    questions = []
    for atom in atoms:
        gold = assign_gold(theory, Statement(atom), closure)
        questions.append((Statement(atom), gold.label, gold.proofs))
    assert_canonical_only(theory, questions)
    ids = fact_ids(theory)
    for atom in closure.derived:
        for form in tree_forms(closure, ids, atom):
            assert_agrees(theory, Statement(atom), LABEL_TRUE, form)
            assert_agrees(theory, Statement(atom.negated()), LABEL_FALSE, form)


def non_canonical_kind(theory, statement, form):
    """How a sound proof that the writer would not write differs from the
    writer's, read off its structure: it cites a given atom by another
    sentence id than the writer, names a given fact as an intermediate,
    derives one atom twice (the hypothesis included), or else lists its
    steps in another order."""
    steps = sound_steps(theory, statement, LABEL_TRUE, (form,))[0]
    writer_ids = {f.atom: f.id for f in theory.facts}  # the last id of each atom
    cited = [sid for _, sents, _, _ in parse_steps(form) for sid in sents]
    if any(sid not in writer_ids.values() for sid in cited):
        return "cited id"
    conclusions = [conclusion for _, _, conclusion in steps]
    if any(c in writer_ids for c in conclusions[:-1]):
        return "given intermediate"
    if len(set(conclusions)) < len(conclusions):
        return "re-derived atom"
    return "order"


def test_the_examples_reach_every_kind_of_non_canonical_proof():
    """The hand-written theories above produce each way a sound proof can
    differ from the writer's, so the grammar test checks all of them."""
    kinds = {"cited id", "given intermediate", "re-derived atom", "order"}
    found = set()
    for lines in CANONICAL_EXAMPLES:
        theory = parse_theory(lines)
        closure = gold_closure(theory)
        ids = fact_ids(theory)
        forms = [
            (atom, other)
            for atom in closure.derived
            for form in assign_gold(theory, Statement(atom), closure).proofs
            for other in reorderings(form)
        ]
        forms += [(atom, form) for atom in closure.derived
                  for form in tree_forms(closure, ids, atom)]
        for atom, form in forms:
            try:
                check_proof(theory, Statement(atom), LABEL_TRUE, form)
            except ProofCheckError as e:
                if str(e).startswith("not in canonical form: "):
                    found.add(non_canonical_kind(theory, Statement(atom), form))
    assert found == kinds
