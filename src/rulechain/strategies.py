"""Selection strategies: what to infer next.

Two strategies share one contract, ``select(store)``, returning Proceed or
Stop. ``reasoner.run`` owns the goal stop: it ends a goal-directed run as
soon as the statement or its negation is in the store, before the next
select.

* exhaustive: fire every applicable rule until nothing new can be derived,
  scanning rules in theory order and bindings in canonical order. The goal
  plays no part; the trace enumerates the full closure.

* goal: restrict attention to a relevance cone computed once per statement
  by closing backward from the statement and its negation. Only rules whose
  conclusion can land inside the cone are considered, and only bindings
  whose ground conclusion the cone admits are fired. Selection stops when
  the cone offers nothing new.

Cone entries are atom numbers, and a cone's subjects are bound: a rule whose
variable conclusion meets a cone atom about an entity joins the cone
grounded at that entity, so a question about Bob admits Bob's premises and
no one else's. Only a premise variable that the conclusion leaves unbound,
as in "If someone is red then Bob is blue.", keeps the variable subject,
which admits that predicate and polarity about any subject. This still
over-approximates relevance, which keeps the goal strategy complete: every
derivation of the statement (or its negation) lies inside the cone, so both
strategies always agree on the verdict and the goal run never takes more
one-hop steps. Without ``shuffle_rng`` the relation is exact: the goal trace
is the exhaustive trace filtered to the steps whose rule is in the cone and
whose conclusion the cone admits, cut right after the step that derives the
statement or its negation, and empty when either is given. Under
``shuffle_rng`` the goal agenda draws among cone entries only, so the two
traces do not correspond step by step. The cone is closed backward, so
every premise of an admitted (rule, entity) pair is in it too, and the goal
agenda skips an arriving fact outside the cone at once.

Both strategies select from an ``Agenda``, one per store, over tables that
every run on the theory shares (``reasoner.CompiledTheory``, built once per
theory): the rules indexed by premise predicate and polarity, atoms as
numbers, each (rule, entity) pair's ground premise and conclusion numbers,
and the cones, one per statement. Each select first reads the atom numbers
the store gained since the last one: an arriving fact grounds only the
rules with a matching premise, for only the entities it can bind, checks
the pair's premise numbers against the store, and pushes each pair it
completes onto a heap as (rule index, entity rank, conclusion number),
which sorts in canonical order. Pairs stay applicable and conclusions stay
stored, so the smallest entry not yet concluded is exactly what a rescan of
all rules x entities would pick first, at a cost of about one grounding per
closure fact instead of rules x entities per step. Heap entries are numbers
only: the one entry a strategy selects becomes a ``Proceed``
(``Agenda.decision``), whose binding ``applicable_bindings`` builds, so a
run builds one binding per step and hashes no atom once a pair's numbers
are in the tables. Passing ``shuffle_rng`` switches to a seeded random
choice among all live entries (``Agenda.live_entries``); determinism then
holds per seed.
"""
from __future__ import annotations

import heapq
import random
from dataclasses import dataclass

from .reasoner import (
    FactStore,
    Proceed,
    STOP,
    Stop,
    applicable_bindings,
    compile_theory,
)
from .theory import Statement, Theory, Var


@dataclass
class RelevanceCone:
    """Rules and atoms backward-reachable from a statement, the atoms as
    numbers of the theory's compiled tables. An atom about an entity admits
    only that entity's fact; an atom with the variable subject, left where
    a rule's conclusion does not bind a premise variable, stands for that
    predicate and polarity about anyone. ``Agenda`` admits a conclusion,
    and lets an arriving fact ground rules, only if the cone admits it."""

    rule_ids: frozenset[str]
    numbers: frozenset[int]


def relevance_cone(theory: Theory, statement: Statement) -> RelevanceCone:
    """Close backward from the statement and its negation.

    Seed with both polarities of the statement; whenever a rule's conclusion
    unifies with a cone atom (same predicate and polarity, and equal
    subjects unless one is the variable), admit the rule and its premises
    under that unifier. A variable conclusion that meets an atom about
    entity e grounds the rule at e, so its premises are about e; an entity
    the rule cannot bind admits nothing. Otherwise the premises stay as
    written, and a premise variable that the conclusion leaves unbound
    stands for anyone. A worklist hands each new atom to the rules of its
    conclusion key, and each (rule, entity) grounding is walked once, so the
    least fixpoint is reached without rescanning every rule per pass. The
    cone is kept on the theory's compiled tables, one per statement subject
    and predicate, since both polarities seed the same cone.
    """
    tables = compile_theory(theory)
    key = (statement.atom.subject, statement.atom.pred)
    cone = tables.cones.get(key)
    if cone is not None:
        return cone
    n = tables.number(statement.atom)
    work = [n, n ^ 1]
    numbers = set(work)
    walked: set[tuple[int, int]] = set()  # (rule index, entity rank)
    while work:
        atom = tables.atom(work.pop())
        subject = atom.subject
        for i, rule in tables.by_conclusion.get((atom.pred, atom.positive), ()):
            head = rule.conclusion.subject
            if isinstance(head, Var) and not isinstance(subject, Var):
                rank = tables.rank_of(rule, subject)
                if rank is None:
                    continue
            elif isinstance(subject, Var) or head == subject:
                rank = -1
            else:
                continue
            if (i, rank) in walked:
                continue
            walked.add((i, rank))
            for p in tables.ground(i, rank)[0]:
                if p not in numbers:
                    numbers.add(p)
                    work.append(p)
    rule_ids = frozenset(tables.rules[i].id for i, _ in walked)
    cone = tables.cones[key] = RelevanceCone(rule_ids, frozenset(numbers))
    return cone


class Agenda:
    """The novel decisions of one store, smallest (rule index, entity rank)
    first. With a cone, only cone rules and in-cone conclusions count.
    Entries are (rule index, entity rank, conclusion number); ``decision``
    turns the one a strategy selects into a ``Proceed``."""

    def __init__(self, store: FactStore, cone: RelevanceCone | None = None):
        self.store = store
        self.cone = cone
        self._heap: list[tuple[int, int, int]] = []
        self._pushed: set[tuple[int, int]] = set()
        self._seen = 0  # store.numbers already read

    def _arrive(self, n: int) -> None:
        """Push every (rule, entity) pair the fact of atom number ``n``
        completes."""
        store, cone = self.store, self.cone
        tables = store.tables
        stored = store.by_number
        pushed = self._pushed
        # an atom is admitted when its own number or its any-subject number
        # is among the cone's; the cone is closed backward, so a fact outside
        # it is no premise of any pair whose conclusion the cone admits
        admitted = None if cone is None else cone.numbers
        if admitted is not None and n not in admitted and tables.anyone(n) not in admitted:
            return
        for i, rule, entities in tables.arrivals(n):
            if cone is not None and rule.id not in cone.rule_ids:
                continue
            for entity in entities:
                rank = tables.rank_of(rule, entity)
                if rank is None or (i, rank) in pushed:
                    continue
                premises, conclusion = tables.ground(i, rank)
                if not all(map(stored.__contains__, premises)):
                    continue
                pushed.add((i, rank))
                if conclusion in stored:
                    continue
                if admitted is not None and not (
                    conclusion in admitted or tables.anyone(conclusion) in admitted
                ):
                    continue
                heapq.heappush(self._heap, (i, rank, conclusion))

    def _catch_up(self) -> None:
        numbers = self.store.numbers
        while self._seen < len(numbers):
            self._seen += 1
            self._arrive(numbers[self._seen - 1])

    def decision(self, entry: tuple[int, int, int]) -> Proceed:
        """The decision of a live entry. ``applicable_bindings`` builds its
        binding, as it builds every binding."""
        tables = self.store.tables
        i, rank, _ = entry
        rule = tables.rules[i]
        entity = None if rank < 0 else tables.entities[rank]
        return Proceed(rule.id, applicable_bindings(rule, self.store, (entity,))[0])

    def first(self) -> Proceed | Stop:
        """The smallest decision whose conclusion is not stored yet."""
        self._catch_up()
        heap, stored = self._heap, self.store.by_number
        while heap and heap[0][2] in stored:
            heapq.heappop(heap)
        return self.decision(heap[0]) if heap else STOP

    def live_entries(self) -> list[tuple[int, int, int]]:
        """Every entry whose conclusion is not stored yet, smallest first."""
        self._catch_up()
        stored = self.store.by_number
        # a sorted list is a heap, so the pruned entries stay the heap
        self._heap = sorted(e for e in self._heap if e[2] not in stored)
        return self._heap

    def live(self) -> list[Proceed]:
        """Every decision whose conclusion is not stored yet, smallest first."""
        return [self.decision(e) for e in self.live_entries()]


class _AgendaSelection:
    """The first decision of the store's agenda, or a seeded random one."""

    cone: RelevanceCone | None = None

    def __init__(self, shuffle_rng: random.Random | None = None):
        self.shuffle_rng = shuffle_rng
        self._agenda: Agenda | None = None

    def _decide(self, store: FactStore) -> Proceed | Stop:
        agenda = self._agenda
        if agenda is None or agenda.store is not store:
            agenda = self._agenda = Agenda(store, self.cone)
        if self.shuffle_rng is None:
            return agenda.first()
        pool = agenda.live_entries()
        return agenda.decision(self.shuffle_rng.choice(pool)) if pool else STOP


class ExhaustiveStrategy(_AgendaSelection):
    """Derive everything derivable; stop only at fixpoint."""

    name = "exhaustive"
    goal_directed = False

    def select(self, store: FactStore) -> Proceed | Stop:
        return self._decide(store)


class GoalDirectedStrategy(_AgendaSelection):
    """Derive only inside the statement's relevance cone."""

    name = "goal"
    goal_directed = True

    def __init__(
        self, theory: Theory, statement: Statement, shuffle_rng: random.Random | None = None
    ):
        super().__init__(shuffle_rng)
        self.cone = relevance_cone(theory, statement)

    def select(self, store: FactStore) -> Proceed | Stop:
        return self._decide(store)


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
