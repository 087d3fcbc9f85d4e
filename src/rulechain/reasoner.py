"""Forward-chaining inference over a rulebase.

The engine works one hop at a time. A selection strategy picks a rule and a
binding, ``compose`` produces the ground conclusion, and the store grows by
exactly that fact. ``run`` drives the loop to a stopping condition and
returns the trace, which carries the store; ``solve`` reads a three-valued
verdict off that store under the open-world reading:

    true     the statement itself was given or derived
    false    the statement's negation was given or derived
    unknown  neither

Proofs are serialized to a canonical one-line form, e.g.

    (sent2 & sent1) -> int1 ; (sent3 & int1) -> hypothesis

Each step names the rule, then the facts it consumed (sentence ids before
intermediates, each numerically ascending). Intermediates are renumbered
int1..intK along a canonical topological order that depends only on the
proof's shape, so equal proofs serialize identically no matter which
strategy found them. A statement that is itself a given fact has the
degenerate proof "sentK -> hypothesis". ``canonical_proof_string`` is the
only writer of this form and ``check_proofs`` its only reader, which checks
a question's whole gold set in one call; ``check_proof`` checks one proof
through it.
"""
from __future__ import annotations

import functools
import re
from collections import Counter
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

from .theory import (
    Atom,
    Entity,
    Fact,
    QUANT_NONE,
    QUANT_PEOPLE,
    Rule,
    Statement,
    Theory,
    Var,
    render,
)

LABEL_TRUE = "true"
LABEL_FALSE = "false"
LABEL_UNKNOWN = "unknown"
LABELS = (LABEL_TRUE, LABEL_FALSE, LABEL_UNKNOWN)

STOP_GOAL_REACHED = "goal_reached"
STOP_FIXPOINT = "fixpoint"
STOP_BUDGET_EXHAUSTED = "budget_exhausted"
STOP_STRATEGY = "strategy_stop"


class EngineError(RuntimeError):
    pass


class StaleDecisionError(EngineError):
    """A strategy handed back a binding that no longer matches the store."""


class DuplicateConclusionError(EngineError):
    """A strategy tried to re-derive a fact already in the store."""


class ProofCheckError(ValueError):
    """A proof string that does not validate against its theory."""


def substitute(atom: Atom, entity: Entity | None) -> Atom:
    """Ground an atom by replacing its variable (if any) with ``entity``.
    The grammar puts the variable in subject position only."""
    if not isinstance(atom.subject, Var):
        return atom
    if entity is None:
        raise ValueError("atom has a variable but no binding target")
    return Atom(entity, atom.pred, atom.positive)


@dataclass(frozen=True)
class Binding:
    """A way to fire a rule: the entity substituted for the variable (None
    for ground rules) plus the store facts matching the premises, in
    premise order."""

    entity: Entity | None
    fact_ids: tuple[str, ...]


@dataclass(frozen=True)
class Proceed:
    rule_id: str
    binding: Binding


@dataclass(frozen=True)
class Stop:
    pass


STOP = Stop()


@dataclass(frozen=True)
class OneHopStep:
    index: int  # 1-based
    rule_id: str
    fact_ids: tuple[str, ...]
    conclusion: Fact


@dataclass
class InferenceTrace:
    """The steps of a run plus the store they left behind."""

    steps: list[OneHopStep]
    stop_reason: str
    composer_calls: int
    store: "FactStore"

    @property
    def contradiction(self) -> bool:
        return self.store.contradiction

    def conclusions(self) -> list[Atom]:
        return [s.conclusion.atom for s in self.steps]

    def to_json(self) -> dict:
        return {
            "steps": [
                {
                    "rule": s.rule_id,
                    "facts": list(s.fact_ids),
                    "conclusion": render(s.conclusion.atom),
                }
                for s in self.steps
            ],
            "stop_reason": self.stop_reason,
            "composer_calls": self.composer_calls,
            "contradiction": self.contradiction,
        }


@dataclass(frozen=True)
class Verdict:
    """A label plus its canonical proof string, which is None exactly when
    the label is unknown."""

    label: str
    proof: str | None


class FactStore:
    """Given plus derived facts, with atom-level dedup and lookup."""

    def __init__(self, theory: Theory):
        self.theory = theory
        self.given: list[Fact] = list(theory.facts)
        self.derived: list[Fact] = []
        self._by_atom: dict[Atom, Fact] = {f.atom: f for f in self.given}
        self.entity_order: list[Entity] = theory.entity_order()
        self.contradiction = any(
            f.atom.negated() in self._by_atom for f in self.given
        )

    def has_atom(self, atom: Atom) -> bool:
        return atom in self._by_atom

    def fact_for(self, atom: Atom) -> Fact | None:
        return self._by_atom.get(atom)

    def add_derived(self, atom: Atom) -> Fact:
        """The new fact ``intN`` for the N-th derived atom, derived at step N."""
        if atom in self._by_atom:
            raise DuplicateConclusionError(render(atom))
        index = len(self.derived) + 1
        fact = Fact(f"int{index}", atom, derived_step=index)
        self.derived.append(fact)
        self._by_atom[atom] = fact
        if atom.negated() in self._by_atom:
            self.contradiction = True
        return fact


def _quantifier_allows(rule: Rule, entity: Entity) -> bool:
    if rule.quantifier == QUANT_PEOPLE:
        return entity.is_person
    return True


def applicable_bindings(
    rule: Rule, store: FactStore, entities: Iterable[Entity | None]
) -> list[Binding]:
    """The bindings among ``entities`` whose premises are all present in the
    store, in the order given. ``None`` stands for a ground rule's one
    binding; entities the rule's quantifier excludes are skipped."""
    bindings: list[Binding] = []
    for entity in entities:
        if entity is not None and not _quantifier_allows(rule, entity):
            continue
        fact_ids: list[str] = []
        for premise in rule.premises:
            fact = store.fact_for(substitute(premise, entity))
            if fact is None:
                break
            fact_ids.append(fact.id)
        else:
            bindings.append(Binding(entity, tuple(fact_ids)))
    return bindings


def compose(rule: Rule, binding: Binding) -> Atom:
    """The ground conclusion this rule yields under this binding."""
    return substitute(rule.conclusion, binding.entity)


def step(store: FactStore, decision: Proceed) -> OneHopStep:
    """Apply one selected inference, growing the store by one fact.

    Raises StaleDecisionError unless ``applicable_bindings`` yields this
    binding for its entity, and DuplicateConclusionError if the conclusion
    is already present.
    """
    rule = store.theory.rule_by_id(decision.rule_id)
    binding = decision.binding
    if applicable_bindings(rule, store, (binding.entity,)) != [binding]:
        raise StaleDecisionError(f"{rule.id} does not apply with facts {binding.fact_ids}")
    fact = store.add_derived(compose(rule, binding))
    return OneHopStep(fact.derived_step, rule.id, binding.fact_ids, fact)


def run(
    theory: Theory,
    statement: Statement,
    strategy,
    budget: int | None = None,
) -> InferenceTrace:
    """Drive select/step to a stop and return the trace.

    Halts when the strategy says stop, when the budget (a cap on one-hop
    compositions) runs out, or, for goal-directed strategies, as soon as the
    statement or its negation is in the store. Termination is guaranteed:
    every step grows the store of ground facts, which is finite.
    """
    if budget is not None and budget < 0:
        raise ValueError("budget must be >= 0")
    store = FactStore(theory)
    goal = statement.atom
    anti_goal = goal.negated()
    goal_directed = strategy.goal_directed
    steps: list[OneHopStep] = []
    while True:
        if goal_directed and (store.has_atom(goal) or store.has_atom(anti_goal)):
            reason = STOP_GOAL_REACHED
            break
        if budget is not None and len(steps) >= budget:
            reason = STOP_BUDGET_EXHAUSTED
            break
        decision = strategy.select(store)
        if isinstance(decision, Stop):
            reason = STOP_STRATEGY if goal_directed else STOP_FIXPOINT
            break
        steps.append(step(store, decision))
    return InferenceTrace(
        steps=steps,
        stop_reason=reason,
        composer_calls=len(steps),
        store=store,
    )


def solve(statement: Statement, trace: InferenceTrace, steps: int | None = None) -> Verdict:
    """Three-valued verdict for the statement given a finished trace, or
    given only its first ``steps`` steps: a fact derived later does not
    count.

    A verdict is non-unknown exactly when it carries a proof. If the store
    is contradictory and holds both the statement and its negation, the
    polarity matching the statement wins.
    """
    for label, atom in (
        (LABEL_TRUE, statement.atom),
        (LABEL_FALSE, statement.atom.negated()),
    ):
        fact = trace.store.fact_for(atom)
        if fact is not None and (steps is None or (fact.derived_step or 0) <= steps):
            return Verdict(label, stitch_proof(trace, fact))
    return Verdict(LABEL_UNKNOWN, None)


@functools.lru_cache(maxsize=4096)
def _id_sort_key(fid: str) -> tuple[int, int]:
    m = re.fullmatch(r"(sent|int)(\d+)", fid)
    if not m:
        raise ValueError(f"bad fact id {fid!r}")
    return (0 if m.group(1) == "sent" else 1, int(m.group(2)))


def canonical_proof_string(
    target: Atom,
    given_ids: dict[Atom, str],
    derivations: dict[Atom, tuple[str, tuple[Atom, ...]]],
) -> str:
    """Serialize a proof DAG to the canonical one-line form.

    ``given_ids`` maps leaf atoms to their sentence ids; ``derivations``
    maps every derived atom in the proof to (rule id, premise atoms).
    A target present in both maps serializes as the derivation; pass an
    empty ``derivations`` to get the degenerate given form.

    Steps come in a canonical topological order that is a function of the
    DAG alone: each step's derived premises are visited in order of a
    structural key built from rule ids and leaf sentence ids, which is
    stable under vocabulary renamings.
    """
    if target not in derivations and target in given_ids:
        return f"{given_ids[target]} -> hypothesis"
    key_cache: dict[Atom, tuple] = {}

    def structural_key(atom: Atom) -> tuple:
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

    order: list[Atom] = []
    seen: set[Atom] = set()

    def visit(atom: Atom) -> None:
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


def stitch_proof(trace: InferenceTrace, target: Fact) -> str:
    """Extract the canonical proof of ``target`` from a trace's provenance.

    Byte-identical across runs for equal traces; more strongly, a pure
    function of the underlying proof DAG.
    """
    given_by_id = {f.id: f.atom for f in trace.store.given}
    step_by_id = {s.conclusion.id: s for s in trace.steps}

    given_ids: dict[Atom, str] = {}
    derivations: dict[Atom, tuple[str, tuple[Atom, ...]]] = {}

    def collect(fid: str) -> Atom:
        if fid in given_by_id:
            atom = given_by_id[fid]
            given_ids[atom] = fid
            return atom
        s = step_by_id[fid]
        atom = s.conclusion.atom
        if atom not in derivations:
            derivations[atom] = (s.rule_id, tuple(collect(pid) for pid in s.fact_ids))
        return atom

    return canonical_proof_string(collect(target.id), given_ids, derivations)


_GIVEN_PROOF_RE = re.compile(r"(sent\d+) -> hypothesis")
_STEP_RE = re.compile(
    r"\((sent\d+) & ((?:sent\d+|int\d+)(?: (?:sent\d+|int\d+))*)\) -> (int\d+|hypothesis)"
)


def check_proof(
    theory: Theory,
    statement: Statement,
    label: str,
    canonical_form: str,
) -> list[tuple[str, list[Atom], Atom]]:
    """The steps of one canonical proof string; see ``check_proofs``."""
    return check_proofs(theory, statement, label, (canonical_form,))[0]


def check_proofs(
    theory: Theory,
    statement: Statement,
    label: str,
    forms: Sequence[str],
) -> list[list[tuple[str, list[Atom], Atom]]]:
    """Validate canonical proof strings against a theory and statement.

    This is the one reader of the canonical form. For each proof it returns
    the steps in serialized order as (rule id, premise atoms, conclusion
    atom), with the premises in the string's canonical fact-id order; a
    degenerate given-fact proof has no steps. Raises ProofCheckError for
    the first proof that is malformed or unsound. ``label`` says what the
    proofs claim: "true" (proves the statement) or "false" (proves its
    negation).

    Proofs of one statement share most of their steps, so each distinct
    step of a call is matched against its rule once: a step is
    keyed by its rule id and its premises, a given fact by its sentence id
    and an intermediate by the number of its conclusion atom, which counts
    the distinct conclusions derived so far in the call. Every segment of
    every proof still gets all of its own checks, so the result and the
    first error are those of separate ``check_proof`` calls. Equal
    conclusions of one call come back as one object; ``evalkit`` relies on
    this to render each distinct conclusion once, keyed by identity.
    """
    if not forms:
        return []
    if label == LABEL_TRUE:
        goal = statement.atom
    elif label == LABEL_FALSE:
        goal = statement.atom.negated()
    else:
        raise ProofCheckError("only true/false verdicts carry proofs")
    facts_by_id = {f.id: f for f in theory.facts}
    # (rule id, premise keys) -> (premise atoms, conclusion, its number)
    matches: dict = {}
    numbered: dict[Atom, tuple[int, Atom]] = {}
    return [_check_form(theory, goal, facts_by_id, f, matches, numbered) for f in forms]


def _check_form(
    theory: Theory,
    goal: Atom,
    facts_by_id: dict[str, Fact],
    canonical_form: str,
    matches: dict,
    numbered: dict[Atom, tuple[int, Atom]],
) -> list[tuple[str, list[Atom], Atom]]:
    single = _GIVEN_PROOF_RE.fullmatch(canonical_form)
    if single:
        fid = single.group(1)
        fact = facts_by_id.get(fid)
        if fact is None:
            raise ProofCheckError(f"{fid} is not a given fact")
        if fact.atom != goal:
            raise ProofCheckError("given fact does not match the hypothesis")
        return []

    segments = canonical_form.split(" ; ")
    bound: dict[str, Atom] = {}
    bound_numbers: dict[str, int] = {}  # intN -> its atom's number
    used: set[str] = set()
    steps: list[tuple[str, list[Atom], Atom]] = []
    for i, seg in enumerate(segments):
        m = _STEP_RE.fullmatch(seg)
        if not m:
            raise ProofCheckError(f"malformed step {seg!r}")
        rule_id, fact_part, target_id = m.groups()
        fact_ids = fact_part.split(" ")
        # an unbound intermediate keeps its id, which no stored key holds
        key = (rule_id, *[bound_numbers.get(f, f) for f in fact_ids])
        hit = matches.get(key)
        if hit is None:
            try:
                rule = theory.rule_by_id(rule_id)
            except KeyError:
                raise ProofCheckError(f"{rule_id} is not a rule")
        if len(fact_ids) > 1 and fact_ids != sorted(fact_ids, key=_id_sort_key):
            raise ProofCheckError(f"fact ids out of canonical order in {seg!r}")
        if hit is None:
            premise_atoms: list[Atom] = []
            for fid in fact_ids:
                if fid.startswith("sent"):
                    fact = facts_by_id.get(fid)
                    if fact is None:
                        raise ProofCheckError(f"{fid} is not a given fact")
                    premise_atoms.append(fact.atom)
                else:
                    if fid not in bound:
                        raise ProofCheckError(f"{fid} used before it is derived")
                    premise_atoms.append(bound[fid])
                    used.add(fid)
            conclusion = _match_rule(rule, premise_atoms)
            entry = len(numbered), conclusion
            number, conclusion = numbered.setdefault(conclusion, entry)
            matches[key] = premise_atoms, conclusion, number
        else:
            # a stored key names a rule, given facts and bound intermediates
            premise_atoms, conclusion, number = hit
            premise_atoms = list(premise_atoms)
            used.update(fact_ids)
        last = i == len(segments) - 1
        if target_id == "hypothesis":
            if not last:
                raise ProofCheckError("hypothesis must be the final step")
            if conclusion != goal:
                raise ProofCheckError("final conclusion does not match the hypothesis")
        else:
            if last:
                raise ProofCheckError("final step must target the hypothesis")
            expected = f"int{len(bound) + 1}"
            if target_id != expected:
                raise ProofCheckError(
                    f"intermediates must be numbered in order: got {target_id}, want {expected}"
                )
            bound[target_id] = conclusion
            bound_numbers[target_id] = number
        steps.append((rule_id, premise_atoms, conclusion))
    dangling = set(bound) - used
    if dangling:
        raise ProofCheckError(f"unused intermediates: {sorted(dangling)}")
    return steps


def _match_rule(rule: Rule, premise_atoms: list[Atom]) -> Atom:
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
        entities = [e for e in subjects if _quantifier_allows(rule, e)]
    for entity in entities:
        if Counter(substitute(p, entity) for p in rule.premises) == want:
            return substitute(rule.conclusion, entity)
    raise ProofCheckError(f"facts do not match the premises of {rule.id}")

