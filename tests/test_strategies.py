"""Selection strategies: exhaustive order, relevance cones, goal stops."""
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rulechain.datagen import GenConfig, generate_dataset
from rulechain.reasoner import (
    FactStore,
    LABELS,
    Proceed,
    STOP,
    STOP_FIXPOINT,
    STOP_STRATEGY,
    run,
    solve,
    step,
)
from rulechain.strategies import (
    ExhaustiveStrategy,
    GoalDirectedStrategy,
    STRATEGY_NAMES,
    atom_pattern,
    candidates,
    make_strategy,
    relevance_cone,
)
from rulechain.theory import parse_statement, parse_theory, render


def small_instances(seed):
    cfg = GenConfig(target_depths=(0, 1, 2, 3), theories=4, seed=seed)
    return generate_dataset(cfg)


# ---------------------------------------------------------------------------
# Exhaustive selection
# ---------------------------------------------------------------------------

def test_exhaustive_picks_first_novel_rule(chain2):
    strategy = ExhaustiveStrategy()
    store = FactStore(chain2)
    decision = strategy.select(store, chain2)
    assert isinstance(decision, Proceed)
    assert decision.rule_id == "sent2"


def test_exhaustive_stops_at_fixpoint(chain2):
    statement = parse_statement("Bob is smart.")
    trace = run(chain2, statement, ExhaustiveStrategy())
    assert trace.stop_reason == STOP_FIXPOINT
    store = FactStore(chain2)
    for s in trace.steps:
        store.add_derived(s.conclusion.atom, s.index)
    assert isinstance(ExhaustiveStrategy().select(store, chain2), type(STOP))


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


def test_cone_widens_variable_subjects_to_any_subject():
    theory = parse_theory(
        [
            "Anne is blue.",
            "If someone is blue then they are smart.",
        ]
    )
    # The rule concludes about any person, so it joins the cone even though
    # the statement names Bob.
    cone = relevance_cone(theory, parse_statement("Bob is smart."))
    assert cone.rule_ids == {"sent2"}
    assert cone.admits(parse_statement("Anne is blue.").atom)


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
    assert solve(theory, statement, trace).label == "unknown"


def test_goal_strategy_derives_negation_for_false(chain2):
    statement = parse_statement("Bob is not smart.")
    trace = run(chain2, statement, GoalDirectedStrategy(chain2, statement))
    assert trace.stop_reason == "goal_reached"
    assert solve(chain2, statement, trace).label == "false"


def test_make_strategy_names():
    theory = parse_theory(["Bob is blue."])
    statement = parse_statement("Bob is blue.")
    assert set(STRATEGY_NAMES) == {"exhaustive", "goal"}
    assert make_strategy("exhaustive", theory, statement).name == "exhaustive"
    assert make_strategy("goal", theory, statement).name == "goal"
    with pytest.raises(ValueError):
        make_strategy("magic", theory, statement)


def test_atom_pattern_matches_itself(chain2):
    atom = parse_statement("Bob is blue.").atom
    assert atom_pattern(atom).matches(atom)
    assert not atom_pattern(atom).matches(atom.negated())


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
    must be among the candidates; with a cone, both stop at the goal."""
    goal, anti_goal = statement.atom, statement.atom.negated()
    store = FactStore(theory)
    while True:
        pool = list(candidates(store, theory, cone))
        first = plain.select(store, theory, statement)
        choice = shuffled.select(store, theory, statement)
        if cone is not None and (store.has_atom(goal) or store.has_atom(anti_goal)):
            assert first == STOP and choice == STOP
            return
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
                inst.theory,
                q.statement,
                run(inst.theory, q.statement, ExhaustiveStrategy()),
            )
            shuffled = solve(
                inst.theory,
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
                inst.theory,
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
                    inst.theory, q.statement, run(inst.theory, q.statement, strategy)
                )
                assert verdict.label in LABELS
                assert verdict.label == q.annotation.label, (
                    f"{name} on {q.id}: {verdict.label} != {q.annotation.label} "
                    f"for {q.text!r} in {render(inst.theory.facts[0].atom)!r}..."
                )
