"""Forward-chaining inference over a rulebase.

The engine works one hop at a time. A selection strategy picks a rule and a
binding, ``step`` checks the binding against the store on atom numbers and
reads the ground conclusion off the theory's compiled tables, and the store
grows by exactly that fact. ``applicable_bindings`` is the one builder of a
``Binding``; the strategies call it once per step, for the decision they
return. ``run`` drives the loop to a stopping condition and returns the
trace, which carries the store; ``solve`` reads a three-valued verdict off
that store under the open-world reading:

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
through it. The writer classifies each premise once, as a leaf or a derived
step, and writes each step as it numbers it; it returns the proof's depth
with the string, which ``solve`` drops and gold labelling ranks by. The
reader accepts exactly the strings the writer can produce: it asks the
writer wherever its soundness checks leave the string open, and rejects a
sound proof written any other way as not in canonical form. It works on
the compiled tables' atom numbers, reads each distinct segment text and
each distinct step once per theory, and composes steps through
``CompiledTheory.compose``, which grounds rules through the same ``ground``
as the engine, so rules are grounded in one place.
"""
from __future__ import annotations

import functools
import re
from collections.abc import Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from typing import NamedTuple

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
    X,
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


def substitute(atom: Atom, entity: Entity | Var | None) -> Atom:
    """Ground an atom by replacing its variable (if any) with ``entity``.
    The grammar puts the variable in subject position only; substituting
    the variable ``X`` for itself leaves the atom as written."""
    if not isinstance(atom.subject, Var):
        return atom
    if entity is None:
        raise ValueError("atom has a variable but no binding target")
    return Atom(entity, atom.pred, atom.positive)


class Binding(NamedTuple):
    """A way to fire a rule: the entity substituted for the variable (None
    for ground rules) plus the store facts matching the premises, in
    premise order."""

    entity: Entity | None
    fact_ids: tuple[str, ...]


class Proceed(NamedTuple):
    rule_id: str
    binding: Binding


@dataclass(frozen=True)
class Stop:
    pass


STOP = Stop()


class OneHopStep(NamedTuple):
    index: int  # 1-based
    rule_id: str
    fact_ids: tuple[str, ...]
    conclusion: Fact


@dataclass
class InferenceTrace:
    """The steps of a run plus the store they left behind."""

    steps: list[OneHopStep]
    stop_reason: str
    store: "FactStore"

    @property
    def composer_calls(self) -> int:
        """One composition per step."""
        return len(self.steps)

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


class Verdict(NamedTuple):
    """A label plus its canonical proof string, which is None exactly when
    the label is unknown."""

    label: str
    proof: str | None


class CompiledTheory:
    """What every run on one theory shares, built once per ``Theory``.

    Atoms are numbered in polarity pairs as the engine first meets them, so
    an atom's negation is ``n ^ 1``; ``atom`` gives a number's atom.
    ``ground`` maps a (rule index, entity rank) pair to its premise and
    conclusion numbers and ``arrivals`` maps an atom number to the
    groundings its fact can complete. Both are filled in on first use, so a
    theory run once pays only for what that run touches. Rank -1 stands for
    a ground rule's one binding. ``cones`` holds the relevance cones of
    ``strategies.relevance_cone``, keyed by statement (subject, predicate).
    ``compose`` maps a rule index and premise numbers to the conclusion
    number they compose to; ``proof_segments`` and ``proof_steps`` keep what
    ``check_proofs`` read from each proof segment text and composed for each
    (rule index, premise numbers), so every gold set of a theory shares
    them. ``repeats_fact`` says whether the theory states one fact twice, so
    that canonical proofs cite only one of its sentence ids (the last).
    """

    def __init__(self, theory: Theory):
        self.entities: list[Entity] = theory.entity_order()
        self.rank: dict[Entity, int] = {e: r for r, e in enumerate(self.entities)}
        self.rules: list[Rule] = theory.rules
        self.rule_index: dict[str, int] = {r.id: i for i, r in enumerate(theory.rules)}
        self._atoms: list[Atom | None] = []  # None: a polarity not met yet
        self._pairs: dict[tuple, int] = {}  # (subject, pred) -> its positive atom's number
        self.given_numbers = [self.number(f.atom) for f in theory.facts]
        self.given_facts = dict(zip(self.given_numbers, theory.facts))
        self.given_ids = {n: f.id for n, f in self.given_facts.items()}
        self.sentence_numbers = {f.id: n for f, n in zip(theory.facts, self.given_numbers)}
        self.repeats_fact = len(self.given_ids) < len(theory.facts)
        self.contradiction = any(n ^ 1 in self.given_facts for n in self.given_facts)
        # (pred, positive) -> rules with such a premise
        self.by_premise: dict[tuple, list[tuple[int, Rule, Atom]]] = {}
        for i, rule in enumerate(theory.rules):
            for p in rule.premises:
                self.by_premise.setdefault((p.pred, p.positive), []).append((i, rule, p))
        self.cones: dict[tuple, object] = {}
        self._ground: dict[tuple[int, int], tuple[tuple[int, ...], int]] = {}
        self._arrivals: dict[int, list[tuple[int, Rule, Sequence[Entity | None]]]] = {}
        self._anyone: dict[int, int] = {}
        self.proof_segments: dict[str, tuple] = {}
        self.proof_steps: dict[tuple[int, tuple[int, ...]], tuple] = {}

    @functools.cached_property
    def by_conclusion(self) -> dict[tuple, list[tuple[int, Rule]]]:
        """(pred, positive) -> (index, rule) of the rules with such a
        conclusion; only relevance cones read it."""
        found: dict[tuple, list[tuple[int, Rule]]] = {}
        for i, rule in enumerate(self.rules):
            key = (rule.conclusion.pred, rule.conclusion.positive)
            found.setdefault(key, []).append((i, rule))
        return found

    def number(self, atom: Atom) -> int:
        """The atom's number, numbering it and its negation if new."""
        key = (atom.subject, atom.pred)
        n = self._pairs.get(key)
        if n is None:
            n = self._pairs[key] = len(self._atoms)
            self._atoms += (None, None)
        n += not atom.positive
        if self._atoms[n] is None:
            self._atoms[n] = atom
        return n

    def atom(self, n: int) -> Atom:
        """The atom of number ``n``."""
        found = self._atoms[n]
        if found is None:
            found = self._atoms[n] = self._atoms[n ^ 1].negated()
        return found

    def rank_of(self, rule: Rule, entity: Entity | None) -> int | None:
        """The rank that grounds ``rule`` under ``entity``: -1 for a ground
        rule or no entity, None for an entity that the rule's quantifier
        excludes or that the theory never mentions."""
        if entity is None or rule.quantifier == QUANT_NONE:
            return -1
        return self.rank.get(entity) if _quantifier_allows(rule, entity) else None

    def ground(self, i: int, rank: int) -> tuple[tuple[int, ...], int]:
        """The premise numbers and conclusion number of rule ``i`` with its
        variable bound to the entity of this rank. Rank -1 keeps the atoms
        as written: a ground rule's one binding, or a quantified rule's
        variable left unbound, as a relevance cone reads it."""
        key = (i, rank)
        found = self._ground.get(key)
        if found is None:
            rule = self.rules[i]
            entity = X if rank < 0 else self.entities[rank]
            found = self._ground[key] = (
                tuple(self.number(substitute(p, entity)) for p in rule.premises),
                self.number(substitute(rule.conclusion, entity)),
            )
        return found

    def compose(self, i: int, premises: tuple[int, ...]) -> int | None:
        """The conclusion number of rule ``i`` applied to exactly the atoms
        numbered ``premises``, taken as a multiset, or None when they are
        not the rule's premises under any binding. A ground rule tries its
        one binding; only the subjects of the premise atoms can bind a
        quantified rule's variable, and the first of them, in premise order,
        that grounds the rule to these premises wins."""
        rule = self.rules[i]
        for n in premises:
            rank = self.rank_of(rule, self.atom(n).subject)
            if rank is not None:
                grounded, conclusion = self.ground(i, rank)
                if grounded == premises or sorted(grounded) == sorted(premises):
                    return conclusion
        return None

    def anyone(self, n: int) -> int:
        """The number of atom ``n``'s predicate and polarity about the
        variable subject, which stands for any subject."""
        found = self._anyone.get(n)
        if found is None:
            atom = self.atom(n)
            found = self._anyone[n] = self.number(Atom(X, atom.pred, atom.positive))
        return found

    def arrivals(self, n: int) -> list[tuple[int, Rule, Sequence[Entity | None]]]:
        """(rule index, rule, entities) for every premise a fact of atom
        number ``n`` can satisfy. A variable premise binds the fact's
        subject; an equal ground premise offers a ground rule's one binding,
        or every entity of a quantified rule."""
        found = self._arrivals.get(n)
        if found is None:
            atom = self.atom(n)
            found = self._arrivals[n] = []
            for i, rule, premise in self.by_premise.get((atom.pred, atom.positive), ()):
                if isinstance(premise.subject, Var):
                    found.append((i, rule, (atom.subject,)))
                elif premise == atom:
                    found.append(
                        (i, rule, self.entities if rule.quantifier != QUANT_NONE else (None,))
                    )
        return found


def compile_theory(theory: Theory) -> CompiledTheory:
    """The theory's compiled tables, built on first use and kept on it."""
    if theory.compiled is None:
        theory.compiled = CompiledTheory(theory)
    return theory.compiled


class FactStore:
    """Given plus derived facts of one run, keyed by atom number.

    The theory's ``CompiledTheory`` numbers the atoms; ``by_number`` maps a
    stored atom's number to its fact and ``numbers`` lists the numbers of
    the given facts, then of each derived fact in order. ``derivations``
    maps each derived number to (rule id, premise numbers). ``fact_for``
    takes an atom; the engine uses numbers.
    """

    def __init__(self, theory: Theory):
        tables = compile_theory(theory)
        self.tables = tables
        self.contradiction = tables.contradiction
        self.by_number: dict[int, Fact] = dict(tables.given_facts)
        self.numbers: list[int] = list(tables.given_numbers)
        self.derivations: dict[int, tuple[str, tuple[int, ...]]] = {}

    def fact_for(self, atom: Atom) -> Fact | None:
        return self.by_number.get(self.tables.number(atom))

    def derive(self, n: int, rule_id: str, premises: tuple[int, ...]) -> Fact:
        """The new fact ``intN`` for the N-th derived atom, derived at step N
        by rule ``rule_id`` from the atoms numbered ``premises``."""
        if n in self.by_number:
            raise DuplicateConclusionError(render(self.tables.atom(n)))
        self.derivations[n] = (rule_id, premises)
        index = len(self.derivations)
        fact = Fact(f"int{index}", self.tables.atom(n), derived_step=index)
        self.by_number[n] = fact
        self.numbers.append(n)
        if n ^ 1 in self.by_number:
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
    binding; entities the rule's quantifier excludes are skipped. The rule
    is one of the store's theory."""
    tables = store.tables
    i = tables.rule_index[rule.id]
    stored = store.by_number
    bindings: list[Binding] = []
    for entity in entities:
        rank = tables.rank_of(rule, entity)
        if rank is None:
            continue
        fact_ids: list[str] = []
        for n in tables.ground(i, rank)[0]:
            fact = stored.get(n)
            if fact is None:
                break
            fact_ids.append(fact.id)
        else:
            bindings.append(Binding(entity, tuple(fact_ids)))
    return bindings


def step(store: FactStore, decision: Proceed) -> OneHopStep:
    """Apply one selected inference, growing the store by one fact.

    Raises StaleDecisionError unless ``applicable_bindings`` would yield
    this binding for its entity, and DuplicateConclusionError if the
    conclusion is already present. The check runs on numbers: the entity
    must ground the rule, and each ground premise must be stored under the
    binding's fact id at its position, with no id left over.
    """
    tables = store.tables
    i = tables.rule_index[decision.rule_id]
    rule = tables.rules[i]
    binding = decision.binding
    rank = tables.rank_of(rule, binding.entity)
    fact_ids = binding.fact_ids
    if rank is not None:
        premises, conclusion = tables.ground(i, rank)
        stored = store.by_number
        if len(premises) == len(fact_ids):
            for n, fid in zip(premises, fact_ids):
                fact = stored.get(n)
                if fact is None or fact.id != fid:
                    break
            else:
                fact = store.derive(conclusion, rule.id, premises)
                return OneHopStep(fact.derived_step, rule.id, fact_ids, fact)
    raise StaleDecisionError(f"{rule.id} does not apply with facts {fact_ids}")


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
    stored = store.by_number
    goal = store.tables.number(statement.atom)
    goal_directed = strategy.goal_directed
    steps: list[OneHopStep] = []
    while True:
        if goal_directed and (goal in stored or goal ^ 1 in stored):
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
    return InferenceTrace(steps=steps, stop_reason=reason, store=store)


def solve(statement: Statement, trace: InferenceTrace, steps: int | None = None) -> Verdict:
    """Three-valued verdict for the statement given a finished trace, or
    given only its first ``steps`` steps: a fact derived later does not
    count.

    A verdict is non-unknown exactly when it carries a proof, which is read
    off the derivations the store recorded as the run stepped. If the store
    is contradictory and holds both the statement and its negation, the
    polarity matching the statement wins.
    """
    store = trace.store
    n = store.tables.number(statement.atom)
    for label, target in ((LABEL_TRUE, n), (LABEL_FALSE, n ^ 1)):
        fact = store.by_number.get(target)
        if fact is not None and (steps is None or (fact.derived_step or 0) <= steps):
            proof, _ = canonical_proof_string(target, store.tables.given_ids, store.derivations)
            return Verdict(label, proof)
    return Verdict(LABEL_UNKNOWN, None)


@functools.lru_cache(maxsize=4096)
def _id_sort_key(fid: str) -> tuple[int, int, str]:
    """Sentence ids before intermediates, each in the order of their
    numbers, compared as digit strings so that no id is too long to read."""
    m = re.fullmatch(r"(sent|int)([0-9]+)", fid)
    if not m:
        raise ValueError(f"bad fact id {fid!r}")
    digits = m.group(2).lstrip("0")
    return (0 if m.group(1) == "sent" else 1, len(digits), digits)


def canonical_proof_string(
    target: Hashable,
    given_ids: Mapping[Hashable, str],
    derivations: Mapping[Hashable, tuple[str, Sequence[Hashable]]],
) -> tuple[str, int]:
    """Serialize a proof DAG to the canonical one-line form; return it with
    the proof's depth.

    Atoms are keyed by any hashable handle: the engine and the oracle pass
    atom numbers, an ``Atom``-keyed reference passes atoms. ``given_ids``
    maps leaf atoms to their sentence ids; ``derivations`` maps every
    derived atom in the proof to (rule id, premise atoms), and may hold
    others. A target present in both maps serializes as the derivation;
    pass an empty ``derivations`` to get the degenerate given form, of
    depth 0. A derivation is one deeper than its deepest premise, and a
    given premise has depth 0.

    Steps come in a canonical topological order that is a function of the
    DAG alone: each step's derived premises are visited in order of a
    structural key built from rule ids and leaf sentence ids, which is
    stable under vocabulary renamings. The DAG is walked with explicit
    stacks, so no depth is too deep to write; a derivation that reaches
    its own atom raises ValueError.
    """
    if target not in derivations and target in given_ids:
        return f"{given_ids[target]} -> hypothesis", 0
    # atom -> [depth, rule id, leaf sentence ids in order, derived premises
    # in visiting order, intN number once written or 0, structural key or
    # None until a sort needs it]
    steps: dict[Hashable, list] = {}
    opened: set = set()  # atoms whose derived premises were pushed
    stack = [target]
    while stack:
        atom = stack[-1]
        if atom in steps:
            stack.pop()
            continue
        rule_id, premises = derivations[atom]
        if atom not in opened:
            opened.add(atom)
            below = len(stack)
            for p in premises:
                if p not in steps and p not in given_ids:
                    if p in opened:
                        raise ValueError("the derivations are cyclic")
                    stack.append(p)
            if len(stack) > below:
                continue
        stack.pop()
        leaves: list[str] = []
        children: list[list] = []
        depth = 0
        for p in premises:
            sid = given_ids.get(p)
            if sid is None:
                child = steps[p]
                children.append(child)
                if child[0] > depth:
                    depth = child[0]
            else:
                leaves.append(sid)
        if len(leaves) > 1:
            leaves.sort(key=_id_sort_key)
        if len(children) > 1:
            children.sort(key=_structural_key)
        steps[atom] = [depth + 1, rule_id, leaves, children, 0, None]

    segments: list[str] = []
    root = steps[target]
    # (step, its children not yet visited, its children's intN numbers)
    frames = [(root, iter(root[3]), [])]
    while frames:
        step, children, ints = frames[-1]
        for child in children:
            if not child[4]:
                frames.append((child, iter(child[3]), []))
                break
            ints.append(child[4])
        else:
            frames.pop()
            if len(ints) > 1:
                ints.sort()
            labels = step[2] + [f"int{n}" for n in ints]
            text = f"({step[1]} & {' '.join(labels)}) -> "
            if frames:
                segments.append(text + f"int{len(segments) + 1}")
                step[4] = len(segments)
                frames[-1][2].append(step[4])
            else:
                segments.append(text + "hypothesis")
    return " ; ".join(segments), root[0]


def _structural_key(step: list) -> tuple:
    """The sort key of a classified step of ``canonical_proof_string``:
    its rule id, its leaf sentence ids and its children's keys, built
    bottom-up over the descendants that have none yet and kept on them."""
    stack = [step]
    while stack:
        s = stack[-1]
        if s[5] is None:
            pending = [child for child in s[3] if child[5] is None]
            if pending:
                stack += pending
                continue
            s[5] = (
                _id_sort_key(s[1]),
                tuple([_id_sort_key(sid) for sid in s[2]]),
                tuple([child[5] for child in s[3]]),
            )
        stack.pop()
    return step[5]


_GIVEN_PROOF_RE = re.compile(r"(sent[0-9]+) -> hypothesis")
_STEP_RE = re.compile(
    r"\((sent[0-9]+) & ((?:sent[0-9]+|int[0-9]+)(?: (?:sent[0-9]+|int[0-9]+))*)\)"
    r" -> (int[0-9]+|hypothesis)"
)


def check_proof(
    theory: Theory,
    statement: Statement,
    label: str,
    canonical_form: str,
) -> list[tuple[str, tuple[Atom, ...], Atom]]:
    """The steps of one canonical proof string; see ``check_proofs``."""
    return check_proofs(theory, statement, label, (canonical_form,))[0]


def check_proofs(
    theory: Theory,
    statement: Statement,
    label: str,
    forms: Sequence[str],
) -> list[list[tuple[str, tuple[Atom, ...], Atom]]]:
    """Validate canonical proof strings against a theory and statement.

    This is the one reader of the canonical form, and it accepts exactly the
    strings that ``canonical_proof_string`` writes. For each proof it
    returns the steps in serialized order as (rule id, premise atoms,
    conclusion atom), with the premises in the string's canonical fact-id
    order; a degenerate given-fact proof has no steps. Raises
    ProofCheckError for the first proof that is malformed, unsound, or not
    in canonical form. ``label`` says what the proofs claim: "true" (proves
    the statement) or "false" (proves its negation).

    A sound proof is in canonical form when ``canonical_proof_string``
    writes it from the derivations it names, each atom's first. The
    soundness checks fix that string unless a step has two or more
    intermediate premises, an intermediate is a given fact, an atom (the
    hypothesis included) is derived twice, or the theory states a fact
    twice; only then is the writer asked, after all other checks, and a
    mismatch raises ``not in canonical form: the writer gives '...'``.

    Each distinct step is worked out once per theory, and kept on its
    compiled tables. A segment's text alone fixes its rule, its sentence
    atoms, its intermediate and target ids and whether its fact ids are in
    order, so that part is read once per distinct text
    (``proof_segments``). Checking a step's premise count, composing it
    (``CompiledTheory.compose``, on atom numbers) and building its returned
    tuple happen once per distinct (rule index, premise numbers)
    (``proof_steps``). Only what passed is kept, and what depends on the
    proof is checked at every segment: which atoms its intN name, the
    numbering order, where the hypothesis step stands, and unused
    intermediates. So the result and the first error are those of separate
    ``check_proof`` calls. The returned atoms are the tables' one atom per
    number, and a step that several proofs share is one tuple: equal atoms
    are one object, and ``evalkit`` relies on this to render each distinct
    conclusion once, keyed by identity.
    """
    if not forms:
        return []
    tables = compile_theory(theory)
    if label == LABEL_TRUE:
        goal = tables.number(statement.atom)
    elif label == LABEL_FALSE:
        goal = tables.number(statement.atom) ^ 1
    else:
        raise ProofCheckError("only true/false verdicts carry proofs")
    return [_check_form(tables, goal, f) for f in forms]


def _check_form(
    tables: CompiledTheory, goal: int, canonical_form: str
) -> list[tuple[str, tuple[Atom, ...], Atom]]:
    single = canonical_form[:1] != "(" and _GIVEN_PROOF_RE.fullmatch(canonical_form)
    if single:
        fid = single.group(1)
        n = tables.sentence_numbers.get(fid)
        if n is None:
            raise ProofCheckError(f"{fid} is not a given fact")
        if n != goal:
            raise ProofCheckError("given fact does not match the hypothesis")
        if tables.repeats_fact:
            _check_written(tables, goal, canonical_form, [])
        return []

    segments = canonical_form.split(" ; ")
    last = len(segments) - 1
    bound: dict[str, int] = {}  # intN -> its atom's number
    used: set[str] = set()
    found: list[tuple[str, tuple[Atom, ...], Atom]] = []
    branching = False
    texts = tables.proof_segments
    steps = tables.proof_steps
    for k, seg in enumerate(segments):
        read = texts.get(seg)
        if read is None:
            # what the text fixes on its own, in the order the checks run
            m = _STEP_RE.fullmatch(seg)
            if not m:
                raise ProofCheckError(f"malformed step {seg!r}")
            rule_id, fact_part, target_id = m.groups()
            fact_ids = fact_part.split(" ")
            i = tables.rule_index.get(rule_id)
            if i is None:
                raise ProofCheckError(f"{rule_id} is not a rule")
            if len(fact_ids) > 1 and fact_ids != sorted(fact_ids, key=_id_sort_key):
                raise ProofCheckError(f"fact ids out of canonical order in {seg!r}")
            sents: list[int] = []
            for fid in fact_ids:
                if fid[0] == "i":  # the order check put every sentence id first
                    break
                n = tables.sentence_numbers.get(fid)
                if n is None:
                    raise ProofCheckError(f"{fid} is not a given fact")
                sents.append(n)
            premises = tuple(sents)
            int_ids = fact_ids[len(sents):]
            texts[seg] = (i, premises, int_ids, target_id)
        else:
            i, premises, int_ids, target_id = read
        if int_ids:
            for fid in int_ids:
                n = bound.get(fid)
                if n is None:
                    raise ProofCheckError(f"{fid} used before it is derived")
                premises += (n,)
            used.update(int_ids)
            if len(int_ids) > 1:
                branching = True
        key = (i, premises)
        made = steps.get(key)
        if made is None:
            rule = tables.rules[i]
            if len(premises) != len(rule.premises):
                raise ProofCheckError(f"{rule.id} takes {len(rule.premises)} facts")
            n = tables.compose(i, premises)
            if n is None:
                raise ProofCheckError(f"facts do not match the premises of {rule.id}")
            atom = tables.atom
            made = steps[key] = (n, (rule.id, tuple(map(atom, premises)), atom(n)))
        n, step = made
        if target_id == "hypothesis":
            if k != last:
                raise ProofCheckError("hypothesis must be the final step")
            if n != goal:
                raise ProofCheckError("final conclusion does not match the hypothesis")
        else:
            if k == last:
                raise ProofCheckError("final step must target the hypothesis")
            expected = f"int{len(bound) + 1}"
            if target_id != expected:
                raise ProofCheckError(
                    f"intermediates must be numbered in order: got {target_id}, want {expected}"
                )
            bound[target_id] = n
        found.append(step)
    if len(used) != len(bound):
        raise ProofCheckError(f"unused intermediates: {sorted(set(bound) - used)}")

    # what the soundness checks leave open: the writer decides
    atoms = set(bound.values())
    if (
        len(atoms) < len(bound)
        or goal in atoms
        or not tables.given_facts.keys().isdisjoint(atoms)
        or tables.repeats_fact
        or branching
    ):
        _check_written(tables, goal, canonical_form, found)
    return found


def _check_written(
    tables: CompiledTheory,
    goal: int,
    canonical_form: str,
    found: list[tuple[str, tuple[Atom, ...], Atom]],
) -> None:
    """Raise unless the writer gives ``canonical_form`` for the derivations
    its sound steps ``found`` name. An atom derived twice keeps its first
    derivation, which keeps the map acyclic."""
    number = tables.number
    derivations: dict[int, tuple[str, tuple[int, ...]]] = {}
    for rule_id, premises, conclusion in found:
        derivations.setdefault(number(conclusion), (rule_id, tuple(map(number, premises))))
    written, _ = canonical_proof_string(goal, tables.given_ids, derivations)
    if written != canonical_form:
        raise ProofCheckError(f"not in canonical form: the writer gives {written!r}")
