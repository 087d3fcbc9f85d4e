"""Selection strategies: what to infer next.

Two strategies share one contract (``select(store, theory, statement)``
returning Proceed or Stop):

* exhaustive: fire every applicable rule until nothing new can be derived,
  scanning rules in theory order and bindings in canonical order. The goal
  plays no part; the trace enumerates the full closure.

* goal: restrict attention to a relevance cone computed once per statement
  by closing backward from the statement and its negation. Only rules whose
  conclusion can land inside the cone are considered, and only bindings
  whose ground conclusion matches a cone pattern are fired. Selection stops
  as soon as the goal or its negation is derived, or when the cone offers
  nothing new.

Cone patterns are (predicate, polarity, subject) triples where a variable
subject widens to a wildcard. Widening over-approximates relevance, which
keeps the goal strategy complete: every derivation of the statement (or its
negation) lies inside the cone, so both strategies always agree on the
verdict; the goal trace is a subsequence of the exhaustive closure and never
takes more one-hop steps.

Both strategies select from one enumeration, ``candidates``: the novel
(rule, binding) decisions in canonical order, rules in theory order and
bindings in canonical order. Deterministic selection takes the first
decision, so nothing past it is enumerated. Passing ``shuffle_rng``
switches to a seeded random choice among all of them, for experiments that
need stochastic selection; determinism then holds per seed.
"""
from __future__ import annotations

import random
from collections.abc import Iterator
from dataclasses import dataclass

from .reasoner import (
    FactStore,
    Proceed,
    STOP,
    Stop,
    applicable_bindings,
    compose,
)
from .theory import Atom, Entity, IsAttr, Statement, Theory, Var

WILDCARD = "*"


def _entity_key(term: Entity | Var) -> str:
    if isinstance(term, Var):
        return WILDCARD
    return f"{term.kind}:{term.surface}"


@dataclass(frozen=True)
class Pattern:
    """Shape of an atom: predicate, polarity, and subject (or wildcard)."""

    kind: str  # "attr" | "rel"
    token: str  # attribute, or verb for rel
    obj_key: str | None
    positive: bool
    subject_key: str  # entity key or WILDCARD

    def matches(self, atom: Atom) -> bool:
        if self.positive != atom.positive:
            return False
        if isinstance(atom.pred, IsAttr):
            if self.kind != "attr" or self.token != atom.pred.attr:
                return False
        else:
            if self.kind != "rel" or self.token != atom.pred.verb:
                return False
            if self.obj_key != _entity_key(atom.pred.obj):
                return False
        return self.subject_key in (WILDCARD, _entity_key(atom.subject))


def atom_pattern(atom: Atom) -> Pattern:
    """The pattern of an atom; variable positions widen to wildcards."""
    if isinstance(atom.pred, IsAttr):
        return Pattern("attr", atom.pred.attr, None, atom.positive, _entity_key(atom.subject))
    return Pattern(
        "rel",
        atom.pred.verb,
        _entity_key(atom.pred.obj),
        atom.positive,
        _entity_key(atom.subject),
    )


def _conclusion_can_match(conclusion: Atom, pattern: Pattern) -> bool:
    """Can some grounding of this rule conclusion land on the pattern?"""
    concl = atom_pattern(conclusion)
    shape = (concl.kind, concl.token, concl.obj_key, concl.positive)
    if shape != (pattern.kind, pattern.token, pattern.obj_key, pattern.positive):
        return False
    return WILDCARD in (concl.subject_key, pattern.subject_key) or (
        concl.subject_key == pattern.subject_key
    )


@dataclass
class RelevanceCone:
    """Rules and atom patterns backward-reachable from a statement."""

    rule_ids: frozenset[str]
    patterns: frozenset[Pattern]

    def admits(self, atom: Atom) -> bool:
        return any(p.matches(atom) for p in self.patterns)


def relevance_cone(theory: Theory, statement: Statement) -> RelevanceCone:
    """Close backward from the statement and its negation.

    Seed with both polarities of the statement; whenever a rule's conclusion
    unifies with a cone pattern, admit the rule and the patterns of its
    premises. Iterate to fixpoint (monotone over a finite pattern space).
    """
    patterns: set[Pattern] = {
        atom_pattern(statement.atom),
        atom_pattern(statement.atom.negated()),
    }
    rule_ids: set[str] = set()
    changed = True
    while changed:
        changed = False
        for rule in theory.rules:
            if rule.id in rule_ids:
                continue
            if any(_conclusion_can_match(rule.conclusion, p) for p in patterns):
                rule_ids.add(rule.id)
                changed = True
                for premise in rule.premises:
                    patterns.add(atom_pattern(premise))
    return RelevanceCone(frozenset(rule_ids), frozenset(patterns))


def candidates(
    store: FactStore,
    theory: Theory,
    cone: RelevanceCone | None = None,
) -> Iterator[Proceed]:
    """Every novel (rule, binding) decision, in canonical order.

    Rules come in theory order and bindings in canonical order. A decision
    is novel when its conclusion is not yet in the store; with a cone, only
    cone rules and in-cone conclusions count.
    """
    for rule in theory.rules:
        if cone is not None and rule.id not in cone.rule_ids:
            continue
        for binding in applicable_bindings(rule, store):
            conclusion = compose(rule, binding)
            if store.has_atom(conclusion):
                continue
            if cone is not None and not cone.admits(conclusion):
                continue
            yield Proceed(rule.id, binding)


def _choose(decisions: Iterator[Proceed], rng: random.Random | None) -> Proceed | Stop:
    """The first decision, or a seeded random one; Stop when there is none."""
    if rng is None:
        return next(decisions, STOP)
    pool = list(decisions)
    return rng.choice(pool) if pool else STOP


class ExhaustiveStrategy:
    """Derive everything derivable; stop only at fixpoint."""

    name = "exhaustive"
    goal_directed = False

    def __init__(self, shuffle_rng: random.Random | None = None):
        self.shuffle_rng = shuffle_rng

    def select(self, store: FactStore, theory: Theory, statement: Statement | None = None):
        return _choose(candidates(store, theory), self.shuffle_rng)


class GoalDirectedStrategy:
    """Derive only inside the statement's relevance cone."""

    name = "goal"
    goal_directed = True

    def __init__(
        self,
        theory: Theory,
        statement: Statement,
        shuffle_rng: random.Random | None = None,
    ):
        self.statement = statement
        self.cone = relevance_cone(theory, statement)
        self.shuffle_rng = shuffle_rng

    def select(self, store: FactStore, theory: Theory, statement: Statement | None = None):
        """Stop once the goal or its negation is in the store, else choose
        among the novel in-cone decisions."""
        stmt = statement or self.statement
        if store.has_atom(stmt.atom) or store.has_atom(stmt.atom.negated()):
            return STOP
        return _choose(candidates(store, theory, self.cone), self.shuffle_rng)


STRATEGY_NAMES = ("exhaustive", "goal")


def make_strategy(
    name: str,
    theory: Theory,
    statement: Statement,
    shuffle_seed: int | None = None,
):
    rng = random.Random(shuffle_seed) if shuffle_seed is not None else None
    if name == "exhaustive":
        return ExhaustiveStrategy(rng)
    if name == "goal":
        return GoalDirectedStrategy(theory, statement, rng)
    raise ValueError(f"unknown strategy {name!r}; expected one of {STRATEGY_NAMES}")
