"""Selection strategies: exhaustive order, relevance cones, goal stops."""
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import rulechain.strategies as strategies_module
from rulechain.datagen import GenConfig, generate_dataset, instance_from_json
from rulechain.jsonlio import read_jsonl
from rulechain.reasoner import (
    Binding,
    FactStore,
    LABELS,
    Proceed,
    STOP,
    STOP_FIXPOINT,
    STOP_STRATEGY,
    compile_theory,
    run,
    solve,
    step,
    substitute,
)
from rulechain.strategies import (
    Agenda,
    ExhaustiveStrategy,
    GoalDirectedStrategy,
    STRATEGY_NAMES,
    make_strategy,
    relevance_cone,
)
from rulechain.theory import (
    X,
    Atom,
    QUANT_PEOPLE,
    QUANT_THINGS,
    Statement,
    Var,
    negate,
    parse_statement,
    parse_theory,
    render,
)

from grammar_theories import facts, reversed_rules, scaling_lines, theories
from test_golden import DATASETS, GOLDEN, chain_lines, chain_statements


def small_instances(seed):
    cfg = GenConfig(target_depths=(0, 1, 2, 3), theories=4, seed=seed)
    return generate_dataset(cfg)


# ---------------------------------------------------------------------------
# Exhaustive selection
# ---------------------------------------------------------------------------

def test_exhaustive_picks_first_novel_rule(chain2):
    strategy = ExhaustiveStrategy()
    store = FactStore(chain2)
    decision = strategy.select(store)
    assert isinstance(decision, Proceed)
    assert decision.rule_id == "sent2"


def test_exhaustive_stops_at_fixpoint(chain2):
    statement = parse_statement("Bob is smart.")
    trace = run(chain2, statement, ExhaustiveStrategy())
    assert trace.stop_reason == STOP_FIXPOINT
    store = FactStore(chain2)
    for n, (rule_id, premises) in trace.store.derivations.items():
        store.derive(n, rule_id, premises)
    assert isinstance(ExhaustiveStrategy().select(store), type(STOP))


def test_exhaustive_ignores_the_goal(chain2):
    # Even with the statement available it keeps going to the fixpoint.
    statement = parse_statement("Bob is quiet.")
    trace = run(chain2, statement, ExhaustiveStrategy())
    assert trace.composer_calls == 2


def test_exhaustive_is_deterministic(chain2):
    statement = parse_statement("Bob is smart.")
    t1 = run(chain2, statement, ExhaustiveStrategy())
    t2 = run(chain2, statement, ExhaustiveStrategy())
    assert [s.rule_id for s in t1.steps] == [s.rule_id for s in t2.steps]
    assert [s.fact_ids for s in t1.steps] == [s.fact_ids for s in t2.steps]


# ---------------------------------------------------------------------------
# Relevance cones
# ---------------------------------------------------------------------------

def test_cone_contains_backward_closure_only():
    theory = parse_theory(
        [
            "Bob is blue.",
            "Anne is red.",
            "If someone is blue then they are quiet.",
            "If someone is quiet then they are smart.",
            "If someone is red then they are tall.",
        ]
    )
    cone = relevance_cone(theory, parse_statement("Bob is smart."))
    assert cone.rule_ids == {"sent3", "sent4"}


def test_cone_seeds_both_polarities():
    theory = parse_theory(
        [
            "Bob is blue.",
            "If someone is blue then they are not smart.",
        ]
    )
    cone = relevance_cone(theory, parse_statement("Bob is smart."))
    assert cone.rule_ids == {"sent2"}


def test_cone_binds_variable_subjects_to_the_statement_subject():
    theory = parse_theory(
        [
            "Anne is blue.",
            "Bob is big.",
            "The cat is blue.",
            "If someone is blue then they are smart.",
        ]
    )
    # The rule can conclude that Bob is smart, so it joins the cone, but
    # only bound to Bob: Anne's blueness is no premise of that conclusion.
    statement = parse_statement("Bob is smart.")
    cone = relevance_cone(theory, statement)
    assert cone.rule_ids == {"sent4"}
    bob_blue = parse_statement("Bob is blue.").atom
    atoms = cone_atoms(theory, cone)
    assert bob_blue in atoms
    assert Atom(X, bob_blue.pred, bob_blue.positive) not in atoms
    trace = run(theory, statement, GoalDirectedStrategy(theory, statement))
    assert trace.composer_calls == 0
    # the rule binds people only, and only entities the theory mentions
    for text in ("The cat is smart.", "Dave is smart."):
        assert relevance_cone(theory, parse_statement(text)).rule_ids == set()


def test_cone_keeps_premise_variables_the_conclusion_leaves_unbound():
    theory = parse_theory(
        [
            "Anne is kind.",
            "If something is kind then it is red.",
            "If someone is red then Bob is blue.",
            "If someone is blue then they are smart.",
        ]
    )
    statement = parse_statement("Bob is smart.")
    cone = relevance_cone(theory, statement)
    assert cone.rule_ids == {"sent2", "sent3", "sent4"}
    red, kind = (parse_statement(f"Anne is {a}.").atom for a in ("red", "kind"))
    # anyone's redness makes Bob blue, and anything kind is red
    atoms = cone_atoms(theory, cone)
    assert Atom(X, red.pred, red.positive) in atoms
    assert Atom(X, kind.pred, kind.positive) in atoms
    trace = run(theory, statement, GoalDirectedStrategy(theory, statement))
    assert solve(statement, trace).label == "true"
    assert trace.composer_calls == 3


def test_cone_excludes_unreachable_predicates():
    theory = parse_theory(
        [
            "Bob is blue.",
            "If someone is blue then they are quiet.",
        ]
    )
    cone = relevance_cone(theory, parse_statement("Bob is green."))
    assert cone.rule_ids == set()


# ---------------------------------------------------------------------------
# Goal-directed selection
# ---------------------------------------------------------------------------

def test_goal_strategy_skips_out_of_cone_rules():
    theory = parse_theory(
        [
            "Bob is blue.",
            "Anne is red.",
            "If someone is red then they are tall.",
            "If someone is blue then they are quiet.",
        ]
    )
    statement = parse_statement("Bob is quiet.")
    trace = run(theory, statement, GoalDirectedStrategy(theory, statement))
    assert [s.rule_id for s in trace.steps] == ["sent4"]
    assert trace.stop_reason == "goal_reached"


def test_goal_strategy_stops_when_cone_is_exhausted():
    theory = parse_theory(
        [
            "Bob is blue.",
            "If someone is green then they are smart.",
        ]
    )
    statement = parse_statement("Bob is smart.")
    trace = run(theory, statement, GoalDirectedStrategy(theory, statement))
    assert trace.composer_calls == 0
    assert trace.stop_reason == STOP_STRATEGY
    assert solve(statement, trace).label == "unknown"


def test_goal_strategy_derives_negation_for_false(chain2):
    statement = parse_statement("Bob is not smart.")
    trace = run(chain2, statement, GoalDirectedStrategy(chain2, statement))
    assert trace.stop_reason == "goal_reached"
    assert solve(statement, trace).label == "false"


def test_make_strategy_names():
    theory = parse_theory(["Bob is blue."])
    statement = parse_statement("Bob is blue.")
    assert set(STRATEGY_NAMES) == {"exhaustive", "goal"}
    assert make_strategy("exhaustive", theory, statement).name == "exhaustive"
    assert make_strategy("goal", theory, statement).name == "goal"
    with pytest.raises(ValueError):
        make_strategy("magic", theory, statement)


# ---------------------------------------------------------------------------
# Properties over generated instances
# ---------------------------------------------------------------------------

@settings(max_examples=12, deadline=None)
@given(st.integers(0, 10_000))
def test_goal_never_needs_more_compositions_than_exhaustive(seed):
    for inst in small_instances(seed):
        exhaustive = None
        for q in inst.questions:
            if exhaustive is None:
                exhaustive = run(inst.theory, q.statement, ExhaustiveStrategy())
            goal = run(
                inst.theory, q.statement, GoalDirectedStrategy(inst.theory, q.statement)
            )
            assert goal.composer_calls <= exhaustive.composer_calls


def walk_one_enumeration(theory, statement, plain, shuffled, cone):
    """Drive the shuffled strategy by hand. At every step the plain
    strategy's decision must be the first candidate and the shuffled one
    must be among the candidates; with a cone, the walk ends at the goal,
    as ``run`` ends a goal-directed run there."""
    goal, anti_goal = statement.atom, statement.atom.negated()
    store = FactStore(theory)
    while True:
        if cone is not None and (
            store.fact_for(goal) is not None or store.fact_for(anti_goal) is not None
        ):
            return
        pool = Agenda(store, cone).live()
        first = plain.select(store)
        choice = shuffled.select(store)
        if not pool:
            assert first == STOP and choice == STOP
            return
        assert first == pool[0]
        assert choice in pool
        step(store, choice)


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 10_000), st.integers(0, 99))
def test_shuffled_selection_changes_order_not_verdicts(seed, shuffle_seed):
    for inst in small_instances(seed):
        walk_one_enumeration(
            inst.theory,
            inst.questions[0].statement,
            ExhaustiveStrategy(),
            ExhaustiveStrategy(random.Random(shuffle_seed)),
            None,
        )
        for q in inst.questions:
            walk_one_enumeration(
                inst.theory,
                q.statement,
                GoalDirectedStrategy(inst.theory, q.statement),
                GoalDirectedStrategy(inst.theory, q.statement, random.Random(shuffle_seed)),
                relevance_cone(inst.theory, q.statement),
            )
            plain = solve(
                q.statement,
                run(inst.theory, q.statement, ExhaustiveStrategy()),
            )
            shuffled = solve(
                q.statement,
                run(
                    inst.theory,
                    q.statement,
                    ExhaustiveStrategy(random.Random(shuffle_seed)),
                ),
            )
            assert plain.label == shuffled.label
            assert (plain.proof is None) == (shuffled.proof is None)
            goal_shuffled = solve(
                q.statement,
                run(
                    inst.theory,
                    q.statement,
                    GoalDirectedStrategy(
                        inst.theory, q.statement, random.Random(shuffle_seed)
                    ),
                ),
            )
            assert goal_shuffled.label == plain.label


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_both_strategies_agree_with_gold(seed):
    for inst in small_instances(seed):
        for q in inst.questions:
            for name in STRATEGY_NAMES:
                strategy = make_strategy(name, inst.theory, q.statement)
                verdict = solve(
                    q.statement, run(inst.theory, q.statement, strategy)
                )
                assert verdict.label in LABELS
                assert verdict.label == q.annotation.label, (
                    f"{name} on {q.id}: {verdict.label} != {q.annotation.label} "
                    f"for {q.text!r} in {render(inst.theory.facts[0].atom)!r}..."
                )


# ---------------------------------------------------------------------------
# The agenda against a full rescan, on theories drawn from the grammar
# ---------------------------------------------------------------------------

def reference_candidates(store, theory, cone=None):
    """The rescan the agenda replaces: every rule in theory order, every
    entity in first-mention order, checked against the whole store."""
    out = []
    for rule in theory.rules:
        if cone is not None and rule.id not in cone.rule_ids:
            continue
        entities = [None]
        if rule.quantifier == QUANT_PEOPLE:
            entities = [e for e in store.tables.entities if e.is_person]
        elif rule.quantifier == QUANT_THINGS:
            entities = list(store.tables.entities)
        for entity in entities:
            premises = [store.fact_for(substitute(p, entity)) for p in rule.premises]
            if any(f is None for f in premises):
                continue
            conclusion = substitute(rule.conclusion, entity)
            if store.fact_for(conclusion) is not None:
                continue
            if cone is not None and not any(
                matches(a, conclusion) for a in cone_atoms(theory, cone)
            ):
                continue
            out.append(Proceed(rule.id, Binding(entity, tuple(f.id for f in premises))))
    return out


def cone_atoms(theory, cone):
    """The atoms of a cone's numbers."""
    tables = compile_theory(theory)
    return {tables.atom(n) for n in cone.numbers}


def matches(cone_atom, atom):
    """Does the cone atom match the ground atom, field by field? A variable
    subject matches any subject."""
    return (
        cone_atom.pred == atom.pred
        and cone_atom.positive == atom.positive
        and (isinstance(cone_atom.subject, Var) or cone_atom.subject == atom.subject)
    )


def reference_cone(theory, statement, bind=True):
    """The cone by rescanning every rule against every cone atom to fixpoint.
    Where a variable conclusion lands on an atom about an entity, ``bind``
    puts the entity into the premises, or drops the landing if the rule
    cannot bind it; without ``bind`` every premise stays as written, which
    is the any-subject cone that binding tightens."""
    entities = theory.entity_order()

    def can_bind(rule, entity):
        return entity in entities and (rule.quantifier != QUANT_PEOPLE or entity.is_person)

    def can_land(conclusion, atom):
        if (conclusion.pred, conclusion.positive) != (atom.pred, atom.positive):
            return False
        subjects = (conclusion.subject, atom.subject)
        return any(isinstance(s, Var) for s in subjects) or subjects[0] == subjects[1]

    atoms = {statement.atom, statement.atom.negated()}
    rule_ids = set()
    changed = True
    while changed:
        changed = False
        for rule in theory.rules:
            for atom in list(atoms):
                if not can_land(rule.conclusion, atom):
                    continue
                bound = (
                    bind
                    and isinstance(rule.conclusion.subject, Var)
                    and not isinstance(atom.subject, Var)
                )
                if bound and not can_bind(rule, atom.subject):
                    continue
                rule_ids.add(rule.id)
                premises = {substitute(p, atom.subject) if bound else p for p in rule.premises}
                if not premises <= atoms:
                    atoms |= premises
                    changed = True
    return rule_ids, atoms


def walk_against_the_rescan(lines, statement_text, schedule, shuffle_seed):
    """Drive four strategies over one store: exhaustive and goal, each
    deterministic and shuffled. At every step each one's decision must be
    what the rescan prescribes, and each agenda's live decisions must equal
    the rescan. Once the goal or its negation is stored the goal strategies
    are not asked again, as ``run`` stops them there. The schedule picks
    whose decision grows the store, so each agenda also catches up on facts
    another strategy chose."""
    theory = parse_theory(lines)
    statement = parse_statement(statement_text)
    cone = relevance_cone(theory, statement)
    atoms = cone_atoms(theory, cone)
    assert (cone.rule_ids, atoms) == reference_cone(theory, statement)
    # binding tightens the any-subject cone: it keeps no rule and no atom
    # that the any-subject cone lacks
    unbound_rules, unbound_atoms = reference_cone(theory, statement, bind=False)
    assert cone.rule_ids <= unbound_rules
    assert all(any(matches(u, a) for u in unbound_atoms) for a in atoms)
    goal, anti_goal = statement.atom, statement.atom.negated()

    def goal_reached(store):
        return store.fact_for(goal) is not None or store.fact_for(anti_goal) is not None

    # (strategy, a copy of its shuffle rng, whether it works in the cone)
    strategies = [
        (ExhaustiveStrategy(), None, False),
        (ExhaustiveStrategy(random.Random(shuffle_seed)), random.Random(shuffle_seed), False),
        (GoalDirectedStrategy(theory, statement), None, True),
        (
            GoalDirectedStrategy(theory, statement, random.Random(shuffle_seed)),
            random.Random(shuffle_seed),
            True,
        ),
    ]
    store = FactStore(theory)
    for turn in range(1000):
        pools = [reference_candidates(store, theory), reference_candidates(store, theory, cone)]
        assert Agenda(store).live() == pools[False]
        assert Agenda(store, cone).live() == pools[True]
        decisions = []
        for strategy, mirror, in_cone in strategies:
            if in_cone and goal_reached(store):
                continue
            pool = pools[in_cone]
            want = STOP if not pool else pool[0] if mirror is None else mirror.choice(pool)
            assert strategy.select(store) == want
            decisions.append(want)
        live = [d for d in decisions if d != STOP]
        if not live:
            assert not pools[False]
            # handed a new store, a strategy starts over from its given facts
            fresh = FactStore(theory)
            for strategy, _, in_cone in strategies[::2]:
                if in_cone and goal_reached(fresh):
                    continue
                pool = reference_candidates(fresh, theory, cone if in_cone else None)
                assert strategy.select(fresh) == (pool[0] if pool else STOP)
            return turn
        step(store, live[schedule[turn % len(schedule)] % len(live)])
    raise AssertionError("the closure of a small theory has fewer than 1000 facts")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    lines=theories(),
    statement_text=facts(),
    schedule=st.lists(st.integers(0, 3), min_size=1, max_size=8),
    shuffle_seed=st.integers(0, 99),
)
@example(
    lines=[
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
    statement_text="The cat is kind.",
    schedule=[0, 1, 2, 3],
    shuffle_seed=0,
)
@example(
    lines=[
        "Bob is red.",
        "Bob is not red.",
        "The cat likes Bob.",
        "If something likes Bob and it is not red then it is red.",
        "If someone is red then the cat does not like Bob.",
        "If Bob is red and Bob is not red then Anne is big.",
    ],
    statement_text="Anne is big.",
    schedule=[3, 1],
    shuffle_seed=5,
)
def test_agenda_decides_like_a_full_rescan(lines, statement_text, schedule, shuffle_seed):
    walk_against_the_rescan(lines, statement_text, schedule, shuffle_seed)


def filtered_and_cut(theory, statement, exhaustive):
    """The exhaustive trace's steps whose rule is in the statement's cone
    and whose conclusion the cone admits, cut right after the step that
    derives the statement or its negation, as (rule id, conclusion) pairs;
    none when either is given."""
    targets = {statement.atom, statement.atom.negated()}
    if any(f.atom in targets for f in theory.facts):
        return []
    cone = relevance_cone(theory, statement)
    atoms = cone_atoms(theory, cone)
    kept = []
    for s in exhaustive.steps:
        conclusion = s.conclusion.atom
        # a cone atom matches its own atom, or any subject's if it is the variable's
        anyone = Atom(X, conclusion.pred, conclusion.positive)
        if s.rule_id in cone.rule_ids and (conclusion in atoms or anyone in atoms):
            kept.append((s.rule_id, conclusion))
            if conclusion in targets:
                break
    return kept


def assert_goal_traces_are_the_exhaustive_trace_filtered_and_cut(theory, statements):
    exhaustive = run(theory, statements[0], ExhaustiveStrategy())
    for statement in statements:
        goal = run(theory, statement, GoalDirectedStrategy(theory, statement))
        assert [(s.rule_id, s.conclusion.atom) for s in goal.steps] == filtered_and_cut(
            theory, statement, exhaustive
        ), render(statement.atom)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=theories(), statement_text=facts())
# The cone admits anyone's redness, for the rule that makes Bob big, so the
# goal agenda grounds the first rule at Anne too; it must not conclude that
# Anne is big
@example(
    lines=[
        "Anne is red.",
        "If something is red then it is big.",
        "If someone is red then Bob is big.",
    ],
    statement_text="Bob is big.",
)
def test_a_goal_trace_is_the_exhaustive_trace_filtered_and_cut(lines, statement_text):
    """Without a shuffle seed, for the drawn statement and every atom of the
    closure and its negation."""
    theory = parse_theory(lines)
    store = run(theory, parse_statement(statement_text), ExhaustiveStrategy()).store
    atoms = [store.tables.atom(n) for n in store.numbers]
    statements = [
        parse_statement(statement_text),
        *(Statement(a) for a in atoms),
        *(Statement(a.negated()) for a in atoms),
    ]
    assert_goal_traces_are_the_exhaustive_trace_filtered_and_cut(theory, statements)


@pytest.mark.parametrize("name", DATASETS)
def test_a_golden_goal_trace_is_the_exhaustive_trace_filtered_and_cut(name):
    for row in read_jsonl(GOLDEN / f"{name}.dataset.jsonl"):
        instance = instance_from_json(row)
        assert_goal_traces_are_the_exhaustive_trace_filtered_and_cut(
            instance.theory, [q.statement for q in instance.questions]
        )


def test_selection_work_is_linear_in_the_closure(monkeypatch):
    """Each arriving fact grounds the one rule it can trigger, so a run
    grounds rules about once per closure fact, not rules x entities per
    step as a rescan does."""
    theory = parse_theory(scaling_lines(40, 40))
    last = theory.facts[-1].atom.subject.surface
    statement = parse_statement(f"{last} is zbo.")
    calls = []
    original = strategies_module.applicable_bindings

    def counting(*args):
        calls.append(args[0].id)
        return original(*args)

    monkeypatch.setattr(strategies_module, "applicable_bindings", counting)
    exhaustive = run(theory, statement, ExhaustiveStrategy())
    closure = len(exhaustive.steps)
    assert closure == 40 * 40
    # every step's fact arrived through the agenda's grounding calls
    assert closure <= len(calls) <= 2 * closure
    calls.clear()
    goal = run(theory, statement, GoalDirectedStrategy(theory, statement))
    assert goal.stop_reason == "goal_reached"
    assert len(goal.steps) <= len(calls) <= 2 * closure


@pytest.mark.parametrize("order", [list, reversed_rules], ids=["chain_order", "reversed"])
@pytest.mark.parametrize("entity", [0, 39])
def test_goal_work_on_the_scaling_family_follows_the_question(order, entity):
    """A question about one entity's last attribute needs only that
    entity's 40-rule chain, whatever the rule order: the bound cone admits
    no other entity's facts."""
    theory = parse_theory(order(scaling_lines(40, 40)))
    subject = theory.facts[entity].atom.subject.surface
    statement = parse_statement(f"{subject} is zbo.")
    goal = run(theory, statement, GoalDirectedStrategy(theory, statement))
    exhaustive = run(theory, statement, ExhaustiveStrategy())
    assert goal.composer_calls <= 100
    assert solve(statement, goal).label == solve(statement, exhaustive).label == "true"


# ---------------------------------------------------------------------------
# One compiled theory shared by every run
# ---------------------------------------------------------------------------

# Both cones hold the one rule, but only Bob's admits "Bob is big."
SAME_RULES_OTHER_PATTERNS = (
    ["Bob is red.", "Anne is red.", "If someone is red then they are big."],
    ["Bob is big.", "Anne is big."],
)


def shared_theory_cases():
    """(lines, statements) of the golden chain and corpus inputs and of a
    theory whose cones share their rule ids but not their atoms."""
    cases = [(chain_lines(), chain_statements()), SAME_RULES_OTHER_PATTERNS]
    for row in read_jsonl(GOLDEN / "corpus.dataset.jsonl"):
        inst = instance_from_json(row)
        lines = [text for _, text in inst.theory.sentences()]
        cases.append((lines, [q.text for q in inst.questions]))
    return cases


def outcome(theory, statement_text, name, shuffle_seed):
    statement = parse_statement(statement_text)
    trace = run(theory, statement, make_strategy(name, theory, statement, shuffle_seed))
    verdict = solve(statement, trace)
    return trace.to_json(), verdict.label, verdict.proof


@pytest.mark.parametrize("shuffle_seed", [None, 3])
def test_sharing_the_compiled_theory_changes_nothing(shuffle_seed):
    """Running every question on one parsed theory, in either order and
    with both strategies, gives what a fresh parse per run gives."""
    for lines, statements in shared_theory_cases():
        fresh = {
            (text, name): outcome(parse_theory(lines), text, name, shuffle_seed)
            for text in statements
            for name in STRATEGY_NAMES
        }
        for order in (statements, statements[::-1]):
            shared = parse_theory(lines)
            for text in order:
                for name in STRATEGY_NAMES:
                    assert outcome(shared, text, name, shuffle_seed) == fresh[text, name], text
            assert shared.compiled is not None


def test_a_statement_and_its_negation_share_one_cone():
    lines, statements = SAME_RULES_OTHER_PATTERNS
    theory = parse_theory(lines)
    bob, anne = map(parse_statement, statements)
    assert relevance_cone(theory, bob) is relevance_cone(theory, negate(bob))
    assert relevance_cone(theory, anne).rule_ids == relevance_cone(theory, bob).rule_ids
    assert relevance_cone(theory, anne) != relevance_cone(theory, bob)
