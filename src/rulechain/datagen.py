"""Synthetic rulebase generation, gold annotation, perturbation, and
training-record emission.

The generator works backward from a target depth: it lays down a derivation
chain of exactly that length for one subject, then adds distractor chains
over disjoint vocabulary. Because every conclusion token is drawn without
replacement, each derivable fact has exactly one derivation, every
statement has a unique proof, and the closure size is known in advance;
the instance is then verified against the closure oracle and resampled on
any mismatch.

The closure oracle in this module is the authority for gold labels,
depths, and proof sets. It computes the full forward closure in semi-naive
rounds (Bancilhon & Ramakrishnan, 1986): round k grounds only the rules
that an atom first known in round k-1 can complete, so each derivation is
found exactly once, in the round after its last premise becomes known, and
an atom's round is its minimal proof depth. It records every distinct
derivation of every fact. It is deliberately independent of the inference
engine: set-at-a-time rounds over its own substitution, with none of the
engine's fact store, binding enumeration, or agenda.

Questions default to one true, one false (the negation of a derivable
fact), and one unknown statement per depth level present in the theory.

Perturbation renames subjects and/or attributes injectively into held-out
replacement pools, producing equivalence sets of variants whose labels and
proofs are preserved by construction (person nouns map to person nouns so
quantified people-rules keep their bindings).
"""
from __future__ import annotations

import functools
import hashlib
import itertools
import random
from dataclasses import dataclass, replace

from . import vocab
from .reasoner import (
    LABEL_FALSE,
    LABEL_TRUE,
    LABEL_UNKNOWN,
    LABELS,
    ProofCheckError,
    canonical_proof_string,
    check_proof,
)
from .theory import (
    Atom,
    COMMON,
    Entity,
    FORM_ALL,
    FORM_BARE,
    FORM_IF,
    Fact,
    IsAttr,
    PROPER,
    QUANT_NONE,
    QUANT_PEOPLE,
    QUANT_THINGS,
    Rel,
    Rule,
    RuleStyle,
    Statement,
    Theory,
    Var,
    X,
    negate,
    parse_statement,
    parse_theory,
    render,
    sentence_number,
)

DEPTH_NA = "N/A"


class GenerationError(ValueError):
    """The generator could not satisfy its constraints."""


class PoolExhaustedError(ValueError):
    """A renaming needed more replacement tokens than the pool holds."""


class ContradictionError(ValueError):
    """A theory derives both a fact and its negation."""


class GoldProofError(ValueError):
    """A dataset row whose gold proofs cannot be used: a stored proof that
    fails ``check_proof``, or a theory that contradicts itself. ``item_id``
    names the question at fault, or the row for a contradiction."""

    def __init__(self, instance: "Instance", item_id: str, message: str):
        super().__init__(message)
        self.instance, self.item_id = instance, item_id


class _Retry(Exception):
    pass


# ---------------------------------------------------------------------------
# Closure oracle
# ---------------------------------------------------------------------------

def _ground(atom: Atom, entity: Entity | None) -> Atom:
    if isinstance(atom.subject, Var):
        return Atom(entity, atom.pred, atom.positive)
    return atom


def _ground_rule(rule: Rule, entity: Entity | None) -> tuple[tuple[Atom, ...], Atom]:
    """The ground premises and conclusion of one (rule, entity) pair."""
    return tuple(_ground(p, entity) for p in rule.premises), _ground(rule.conclusion, entity)


@dataclass
class GoldClosure:
    """Everything derivable from a theory, with every distinct derivation.

    ``derived`` holds the atoms that are not given, in the order the rounds
    of ``gold_closure`` first derived them, so by depth; only its length is
    read. The derivations of an atom are in no particular order;
    ``proof_index`` sorts each atom's once, when gold-proof search first
    reaches it.
    """

    given: dict[Atom, str]  # atom -> sentence id
    derived: list[Atom]  # by round (depth), then by discovery
    derivations: dict[Atom, list[tuple[str, tuple[Atom, ...]]]]
    depth: dict[Atom, int]  # minimal proof depth per known atom
    contradiction: bool

    def knows(self, atom: Atom) -> bool:
        return atom in self.depth

    @functools.cached_property
    def proof_index(self) -> _ProofIndex:
        """The numbered atoms that every question's gold-proof search shares."""
        return _ProofIndex(self.given, self.derivations, self.depth)


class _ProofIndex:
    """A closure's atoms as small ints, filled in as gold-proof search goes.

    An atom gets a number the first time the search reaches it. Its
    derivations are sorted once, on first visit, by (depth, rule id,
    sorted rendered premises), and kept as (rule id, premise numbers).
    ``given`` maps the number of each given atom to its sentence id. Lazy
    because a question usually reaches only a few atoms of its closure.
    It holds the closure's maps rather than the closure, so caching it on
    the closure makes no reference cycle.
    """

    def __init__(self, given, derivations, depth):
        self._given = given
        self._derivations = derivations
        self._depth = depth
        self._atoms: list[Atom] = []  # number -> atom
        self._numbers: dict[Atom, int] = {}
        self._sorted: dict[int, list[tuple[str, tuple[int, ...]]]] = {}
        self.given: dict[int, str] = {}

    def number(self, atom: Atom) -> int:
        n = self._numbers.get(atom)
        if n is None:
            n = self._numbers[atom] = len(self._atoms)
            self._atoms.append(atom)
            if atom in self._given:
                self.given[n] = self._given[atom]
        return n

    def derivations(self, n: int) -> list[tuple[str, tuple[int, ...]]]:
        derivs = self._sorted.get(n)
        if derivs is None:
            depth = self._depth

            def key(deriv):
                rule_id, premises = deriv
                d = 1 + max((depth[p] for p in premises), default=0)
                return (d, rule_id, tuple(sorted(render(p) for p in premises)))

            derivs = self._sorted[n] = [
                (rule_id, tuple(map(self.number, premises)))
                for rule_id, premises in sorted(
                    self._derivations.get(self._atoms[n], ()), key=key
                )
            ]
        return derivs


def gold_closure(theory: Theory) -> GoldClosure:
    """Forward closure in semi-naive rounds, recording every derivation.

    Round k reads only the atoms first known in round k-1. Each such atom
    offers the rules with a premise of its predicate and polarity: a
    variable premise binds the atom's subject (if the quantifier allows
    it), and an equal ground premise offers a ground rule's one binding or
    every allowed entity of a quantified rule. A (rule, entity) pair counts
    when all its premises are known by the end of round k-1, which happens
    in exactly one round, so each derivation is recorded once. An atom
    first derived in round k has minimal proof depth k.

    Independent of the engine: premises are grounded by direct substitution
    and checked against the known set, with no store, matcher or agenda.
    """
    given = {f.atom: f.id for f in theory.facts}
    known: set[Atom] = set(given)
    depth: dict[Atom, int] = dict.fromkeys(given, 0)
    derived: list[Atom] = []
    derivations: dict[Atom, list[tuple[str, tuple[Atom, ...]]]] = {}
    entities = theory.entity_order()
    allowed = {
        QUANT_NONE: (None,),
        QUANT_PEOPLE: tuple(e for e in entities if e.is_person),
        QUANT_THINGS: tuple(entities),
    }
    by_premise: dict[tuple, list[tuple[int, Rule, Atom]]] = {}
    for i, rule in enumerate(theory.rules):
        for p in rule.premises:
            by_premise.setdefault((p.pred, p.positive), []).append((i, rule, p))

    frontier = list(given)
    k = 0
    while frontier:
        k += 1
        fresh: list[Atom] = []
        fired: set[tuple[int, Entity | None]] = set()
        for atom in frontier:
            for i, rule, premise in by_premise.get((atom.pred, atom.positive), ()):
                if isinstance(premise.subject, Var):
                    if rule.quantifier == QUANT_PEOPLE and not atom.subject.is_person:
                        continue
                    bindings = (atom.subject,)
                elif premise == atom:
                    bindings = allowed[rule.quantifier]
                else:
                    continue
                for entity in bindings:
                    if (i, entity) in fired:
                        continue
                    fired.add((i, entity))
                    premises, conclusion = _ground_rule(rule, entity)
                    if not known.issuperset(premises):
                        continue
                    derivations.setdefault(conclusion, []).append((rule.id, premises))
                    if conclusion not in depth:
                        depth[conclusion] = k
                        fresh.append(conclusion)
        known.update(fresh)
        derived += fresh
        frontier = fresh

    contradiction = any(a.negated() in known for a in known)
    return GoldClosure(given, derived, derivations, depth, contradiction)


# ---------------------------------------------------------------------------
# Gold proofs and annotations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GoldAnnotation:
    label: str
    depth: "int | str"  # int, or DEPTH_NA for unknown
    proofs: tuple[str, ...]
    proofs_truncated: bool = False


def _proof_assignments(index: _ProofIndex, target: int, limit: int):
    """Yield proof choice-maps for atom number ``target``: one derivation
    per derived atom in the proof's support, acyclic, at most ``limit``."""
    given = index.given
    derivations = index.derivations

    def proofs_for(n: int, assignment: dict, stack: frozenset):
        if n in given:
            yield assignment
            return
        if n in stack:
            return
        if n in assignment:
            yield assignment
            return
        yield from derive(n, assignment, stack)

    def derive(n: int, assignment: dict, stack: frozenset):
        # premises resolve given-first; only the root ignores its givenness
        inner_stack = stack | {n}
        for deriv in derivations(n):
            _, premises = deriv
            started = dict(assignment)
            started[n] = deriv

            def expand(idx: int, asg: dict):
                if idx == len(premises):
                    yield asg
                    return
                for asg2 in proofs_for(premises[idx], asg, inner_stack):
                    yield from expand(idx + 1, asg2)

            yield from expand(0, started)

    yield from itertools.islice(derive(target, {}, frozenset()), limit)


def _assignment_depth(given: dict[int, str], assignment: dict, target: int) -> int:
    memo: dict[int, int] = {}

    def d(n: int) -> int:
        if n in given:
            return 0
        if n in memo:
            return memo[n]
        _, premises = assignment[n]
        memo[n] = 1 + max(d(p) for p in premises)
        return memo[n]

    # score the root's own derivation even when the atom is also given
    _, premises = assignment[target]
    return 1 + max((d(p) for p in premises), default=0)


def _gold_proofs(closure: GoldClosure, target: Atom, cap: int) -> tuple[list[str], bool]:
    """Canonical proof strings of ``target``, minimal depth first, capped,
    and whether the cap or the enumeration limit cut the set.

    The search runs over the closure's ``proof_index``: atom numbers, with
    each atom's derivations sorted once per closure, so the order in which
    assignments are enumerated, and so which survive the hard limit, is a
    function of the closure alone.
    """
    hard_limit = max(8 * cap, 256)
    index = closure.proof_index
    root = index.number(target)
    given = index.given
    found: dict[str, int] = {}  # canonical string -> depth
    count = 0
    if root in given:
        found[canonical_proof_string(root, given, {})] = 0
        count += 1
    if target in closure.derivations:
        for assignment in _proof_assignments(index, root, hard_limit + 1):
            canonical = canonical_proof_string(root, given, assignment)
            if canonical not in found:
                found[canonical] = _assignment_depth(given, assignment, root)
            count += 1
    ordered = sorted(found, key=lambda c: (found[c], c))
    truncated = len(ordered) > cap or count > hard_limit
    return ordered[:cap], truncated


def assign_gold(
    theory: Theory,
    statement: Statement,
    closure: GoldClosure | None = None,
    proof_cap: int = 64,
) -> GoldAnnotation:
    """Label a statement against the closure oracle.

    true when the statement is given or derivable, false when its negation
    is, unknown otherwise. Non-unknown labels carry the enumerated gold
    proof set (canonical strings, minimal depth first, capped) and the
    minimal proof depth; unknown carries no proofs and depth "N/A".
    """
    closure = closure if closure is not None else gold_closure(theory)
    if closure.contradiction:
        raise ContradictionError(theory.id)
    for label, target in (
        (LABEL_TRUE, statement.atom),
        (LABEL_FALSE, statement.atom.negated()),
    ):
        if closure.knows(target):
            proofs, truncated = _gold_proofs(closure, target, proof_cap)
            return GoldAnnotation(label, closure.depth[target], tuple(proofs), truncated)
    return GoldAnnotation(LABEL_UNKNOWN, DEPTH_NA, ())


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------

# Size caps on one theory. A draft over a cap, or one that runs out of
# words, is drawn again; an instance gives up after MAX_RETRIES draws. Only
# many distractor chains come near the caps.
MAX_FACTS = 40
MAX_RULES = 40
MAX_RETRIES = 25

# Draw rates. All but SHARE_SUBJECT_PROB (a distractor chain reusing the
# main subject) apply to the main chain only; distractor chains are plain.
REL_PROB = 0.2
GROUND_RULE_PROB = 0.15
CONJUNCTION_PROB = 0.35
NEGATION_PROB = 0.15
SHARE_SUBJECT_PROB = 0.3


@dataclass(frozen=True)
class GenConfig:
    """How many theories to draw, at which depths, with how many distractor
    chains, from which seed. Ranges are inclusive. The CLI reads its
    defaults from here; ``d3_like_config`` is the one other shape.

    Names, nouns, attributes and verbs come from the ``vocab.GEN_*`` pools.
    """

    target_depths: tuple = (0, 1, 2, 3)  # ints 0..5 and/or "unknown"
    theories: int = 10
    distractor_chains: "int | tuple[int, int]" = 2
    distractor_len_range: tuple[int, int] = (1, 2)
    seed: int = 0


def d3_like_config(theories: int = 500, seed: int = 0) -> GenConfig:
    """Depth-3 theories with a spread of extra derivable conclusions.

    Distractor counts and lengths are drawn so the minimum number of
    derivable conclusions per theory is exactly the chain length (3) and
    the mean sits near five.
    """
    return GenConfig(
        target_depths=(3,),
        theories=theories,
        distractor_chains=(1, 3),
        distractor_len_range=(0, 2),
        seed=seed,
    )


@dataclass(frozen=True)
class Question:
    id: str
    statement: Statement
    text: str
    annotation: GoldAnnotation


@dataclass
class Instance:
    id: str
    theory: Theory
    questions: list[Question]


def _validate_config(config: GenConfig) -> None:
    depths = config.target_depths
    if not depths:
        raise GenerationError("target_depths must be non-empty")
    for d in depths:
        if d != "unknown" and (not isinstance(d, int) or not 0 <= d <= 5):
            raise GenerationError(f"bad target depth {d!r}")
    lo, hi = config.distractor_len_range
    if lo < 0 or hi < lo:
        raise GenerationError(f"bad distractor_len_range ({lo}, {hi})")
    chains = config.distractor_chains
    if isinstance(chains, tuple):
        if chains[0] < 0 or chains[1] < chains[0]:
            raise GenerationError(f"bad distractor_chains {chains}")
    elif chains < 0:
        raise GenerationError(f"bad distractor_chains {chains}")
    if config.theories < 0:
        raise GenerationError("theories must be >= 0")


def seed_substream(seed: int, index: int) -> int:
    """A stable per-index child seed; draws from one substream never shift
    the others."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


_VERBS = tuple(vocab.VERB_3SG)


class _Decks:
    """Per-theory token decks; every draw is unique within the theory."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.attrs = list(vocab.GEN_ATTRIBUTES)
        rng.shuffle(self.attrs)
        subjects = [Entity(PROPER, n) for n in vocab.GEN_PROPER_NAMES]
        subjects += [Entity(COMMON, n) for n in vocab.GEN_PERSON_NOUNS]
        subjects += [Entity(COMMON, n) for n in vocab.GEN_ANIMAL_NOUNS]
        rng.shuffle(subjects)
        self.subjects = subjects

    def draw_attr(self) -> str:
        if not self.attrs:
            raise _Retry("attribute pool exhausted")
        return self.attrs.pop()

    def draw_subject(self) -> Entity:
        if not self.subjects:
            raise _Retry("subject pool exhausted")
        return self.subjects.pop()

    def draw_rel(self) -> Rel:
        # A fresh object entity keeps every (verb, object) pair unique.
        return Rel(self.rng.choice(_VERBS), self.draw_subject())


def _rule_style(
    rng: random.Random,
    premises: list[Atom],
    conclusion: Atom,
    quantifier: str,
) -> RuleStyle:
    attr_only = (
        quantifier != QUANT_NONE
        and len(premises) <= 2
        and all(isinstance(p.pred, IsAttr) and p.positive for p in premises)
        and all(isinstance(p.subject, Var) for p in premises)
        and isinstance(conclusion.pred, IsAttr)
        and conclusion.positive
        and isinstance(conclusion.subject, Var)
    )
    if attr_only and rng.random() < 0.4:
        form = FORM_ALL if rng.random() < 0.5 else FORM_BARE
        return RuleStyle(form, tuple(False for _ in premises))
    merged = [False]
    for i in range(1, len(premises)):
        mergeable = (
            isinstance(premises[i].pred, IsAttr)
            and isinstance(premises[i - 1].pred, IsAttr)
            and premises[i].subject == premises[i - 1].subject
        )
        merged.append(mergeable and rng.random() < 0.7)
    return RuleStyle(FORM_IF, tuple(merged))


class _Draft:
    """A theory under construction: atoms and rule blueprints, ids later."""

    def __init__(self) -> None:
        self.fact_atoms: list[Atom] = []
        self.rule_protos: list[tuple[tuple[Atom, ...], Atom, str, RuleStyle]] = []

    def add_fact(self, atom: Atom) -> None:
        if atom not in self.fact_atoms:
            self.fact_atoms.append(atom)

    def add_rule(self, premises, conclusion, quantifier, style) -> None:
        self.rule_protos.append((tuple(premises), conclusion, quantifier, style))


def _build_chain(
    rng: random.Random,
    decks: _Decks,
    draft: _Draft,
    subject: Entity,
    length: int,
    *,
    plain: bool,
) -> list[Atom]:
    """A derivation chain of ``length`` rules over ``subject``.

    Returns the chain atoms (level 0 is the given base fact). ``plain``
    chains are attribute-only with single positive premises, used for
    distractors.
    """

    def draw_pred():
        if not plain and rng.random() < REL_PROB:
            try:
                return decks.draw_rel()
            except _Retry:
                return IsAttr(decks.draw_attr())
        return IsAttr(decks.draw_attr())

    chain = [Atom(subject, draw_pred(), True)]
    draft.add_fact(chain[0])
    for _ in range(length):
        ground = not plain and rng.random() < GROUND_RULE_PROB
        if ground:
            quant = QUANT_NONE
            subj_term: Entity | Var = subject
        elif subject.is_person and rng.random() < 0.5:
            quant = QUANT_PEOPLE
            subj_term = X
        else:
            quant = QUANT_THINGS
            subj_term = X
        prev = chain[-1]
        premises = [Atom(subj_term, prev.pred, prev.positive)]
        if not plain and rng.random() < CONJUNCTION_PROB:
            positive = rng.random() >= NEGATION_PROB
            extra = decks.draw_attr()
            premises.append(Atom(subj_term, IsAttr(extra), positive))
            draft.add_fact(Atom(subject, IsAttr(extra), positive))
        conclusion_pred = draw_pred()
        conclusion = Atom(subj_term, conclusion_pred, True)
        style = _rule_style(rng, premises, conclusion, quant)
        draft.add_rule(premises, conclusion, quant, style)
        chain.append(Atom(subject, conclusion_pred, True))
    return chain


def generate_instance(
    config: GenConfig,
    target_depth: "int | str",
    rng: random.Random,
    index: int,
) -> Instance:
    """One theory plus its question set, verified against the oracle."""
    last = "constraints never satisfied"
    for _ in range(MAX_RETRIES):
        try:
            return _build_instance(config, target_depth, rng, index)
        except _Retry as e:
            last = str(e)
    raise GenerationError(
        f"instance {index}: gave up after {MAX_RETRIES} attempts ({last})"
    )


def _build_instance(
    config: GenConfig,
    target_depth: "int | str",
    rng: random.Random,
    index: int,
) -> Instance:
    decks = _Decks(rng)
    draft = _Draft()
    unknown_only = target_depth == "unknown"
    depth = 0 if unknown_only else int(target_depth)

    subject = decks.draw_subject()
    chain = _build_chain(rng, decks, draft, subject, depth, plain=False)

    chains_cfg = config.distractor_chains
    n_chains = (
        rng.randint(*chains_cfg) if isinstance(chains_cfg, tuple) else chains_cfg
    )
    expected_extra = 0
    for _ in range(n_chains):
        length = rng.randint(*config.distractor_len_range)
        if length == 0:
            continue
        other = (
            subject
            if rng.random() < SHARE_SUBJECT_PROB
            else decks.draw_subject()
        )
        _build_chain(rng, decks, draft, other, length, plain=True)
        expected_extra += length

    if len(draft.fact_atoms) > MAX_FACTS:
        raise _Retry(f"needs {len(draft.fact_atoms)} facts > {MAX_FACTS}")
    if len(draft.rule_protos) > MAX_RULES:
        raise _Retry(f"needs {len(draft.rule_protos)} rules > {MAX_RULES}")

    rng.shuffle(draft.rule_protos)
    rng.shuffle(draft.fact_atoms)
    rules = [
        Rule(f"sent{i + 1}", prem, concl, quant, style)
        for i, (prem, concl, quant, style) in enumerate(draft.rule_protos)
    ]
    offset = len(rules)
    facts = [
        Fact(f"sent{offset + i + 1}", atom)
        for i, atom in enumerate(draft.fact_atoms)
    ]
    theory_id = f"t{index:05d}"
    theory = Theory(theory_id, facts, rules)

    closure = gold_closure(theory)
    if closure.contradiction:
        raise _Retry("contradictory theory")
    if len(closure.derived) != depth + expected_extra:
        raise _Retry(f"closure size {len(closure.derived)} != {depth + expected_extra}")
    for level, atom in enumerate(chain):
        if closure.depth.get(atom) != level:
            raise _Retry(f"chain atom at level {level} has wrong depth")

    questions: list[Question] = []

    def add_question(statement: Statement, want_label: str, want_depth) -> None:
        annotation = assign_gold(theory, statement, closure)
        if annotation.label != want_label or annotation.depth != want_depth:
            raise _Retry(
                f"question scored {annotation.label}/{annotation.depth}, "
                f"wanted {want_label}/{want_depth}"
            )
        qid = f"{theory_id}-q{len(questions) + 1}"
        questions.append(Question(qid, statement, render(statement.atom), annotation))

    if unknown_only:
        probe = Statement(Atom(subject, IsAttr(decks.draw_attr()), True))
        add_question(probe, LABEL_UNKNOWN, DEPTH_NA)
    else:
        for level, atom in enumerate(chain):
            statement = Statement(atom)
            add_question(statement, LABEL_TRUE, level)
            add_question(negate(statement), LABEL_FALSE, level)
            probe = Statement(Atom(subject, IsAttr(decks.draw_attr()), True))
            add_question(probe, LABEL_UNKNOWN, DEPTH_NA)

    return Instance(theory_id, theory, questions)


def generate_dataset(config: GenConfig) -> list[Instance]:
    """Generate ``config.theories`` instances, deterministically per seed.

    Target depths cycle through ``config.target_depths``; each instance
    draws from its own seed substream, so regeneration is byte-identical
    and insensitive to partial consumption elsewhere.
    """
    _validate_config(config)
    depths = list(config.target_depths)
    instances: list[Instance] = []
    for i in range(config.theories):
        rng = random.Random(seed_substream(config.seed, i))
        target = depths[i % len(depths)]
        instances.append(generate_instance(config, target, rng, i + 1))
    return instances


# ---------------------------------------------------------------------------
# Perturbation
# ---------------------------------------------------------------------------

MODE_SUBJECT = "subject"
MODE_ATTRIBUTE = "attribute"
MODE_BOTH = "both"
MODES = (MODE_SUBJECT, MODE_ATTRIBUTE, MODE_BOTH)


@dataclass
class RenamingMap:
    """An injective token renaming. Keys and values never overlap across
    categories because name, noun, and attribute pools are disjoint."""

    mode: str
    mapping: dict[str, str]


@dataclass
class EquivalenceSet:
    base: Instance
    mode: str
    variants: list[tuple[Instance, RenamingMap]]


def _instance_tokens(instance: Instance) -> tuple[list[str], list[str], list[str], list[str]]:
    """(proper names, person nouns, animal nouns, attributes) in order of
    first appearance across the theory and the question statements."""
    propers: dict[str, None] = {}
    persons: dict[str, None] = {}
    animals: dict[str, None] = {}
    attrs: dict[str, None] = {}

    def note_entity(e: Entity) -> None:
        if e.kind == PROPER:
            propers.setdefault(e.surface)
        elif e.surface in vocab.PERSON_NOUNS:
            persons.setdefault(e.surface)
        else:
            animals.setdefault(e.surface)

    def note_atom(a: Atom) -> None:
        if isinstance(a.subject, Entity):
            note_entity(a.subject)
        if isinstance(a.pred, IsAttr):
            attrs.setdefault(a.pred.attr)
        else:
            note_entity(a.pred.obj)

    for f in instance.theory.facts:
        note_atom(f.atom)
    for r in instance.theory.rules:
        for p in r.premises:
            note_atom(p)
        note_atom(r.conclusion)
    for q in instance.questions:
        note_atom(q.statement.atom)
    return list(propers), list(persons), list(animals), list(attrs)


def _rename_entity(e: Entity, mapping: dict[str, str]) -> Entity:
    new = mapping.get(e.surface)
    return Entity(e.kind, new) if new else e


def _rename_atom(a: Atom, mapping: dict[str, str]) -> Atom:
    subject = (
        _rename_entity(a.subject, mapping)
        if isinstance(a.subject, Entity)
        else a.subject
    )
    pred = a.pred
    if isinstance(pred, IsAttr):
        new = mapping.get(pred.attr)
        if new:
            pred = IsAttr(new)
    else:
        pred = Rel(pred.verb, _rename_entity(pred.obj, mapping))
    return Atom(subject, pred, a.positive)


def apply_renaming(instance: Instance, renaming: RenamingMap, variant_id: str) -> Instance:
    """The same instance with tokens renamed. Sentence order, ids, labels,
    depths, and proofs are untouched; proofs refer only to sentence ids."""
    mapping = renaming.mapping
    theory = Theory(
        variant_id,
        [replace(f, atom=_rename_atom(f.atom, mapping)) for f in instance.theory.facts],
        [
            replace(
                r,
                premises=tuple(_rename_atom(p, mapping) for p in r.premises),
                conclusion=_rename_atom(r.conclusion, mapping),
            )
            for r in instance.theory.rules
        ],
    )
    questions = []
    for q in instance.questions:
        atom = _rename_atom(q.statement.atom, mapping)
        suffix = q.id.rsplit("-", 1)[1]
        questions.append(
            Question(f"{variant_id}-{suffix}", Statement(atom), render(atom), q.annotation)
        )
    return Instance(variant_id, theory, questions)


def perturb(
    instance: Instance,
    mode: str,
    rng: random.Random,
    n: int = 5,
) -> EquivalenceSet:
    """``n`` injectively renamed variants of an instance.

    Subject mode renames every proper name and common noun (person nouns to
    person nouns, animal nouns to animal nouns); attribute mode renames
    every attribute; both mode does both. Replacements are sampled without
    replacement from the held-out pools.
    """
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}; expected one of {MODES}")
    propers, persons, animals, attrs = _instance_tokens(instance)

    def sample(domain: list[str], pool: tuple[str, ...], what: str) -> dict[str, str]:
        if len(domain) > len(pool):
            raise PoolExhaustedError(
                f"{what}: need {len(domain)} replacements, pool has {len(pool)}"
            )
        return dict(zip(domain, rng.sample(pool, len(domain))))

    variants: list[tuple[Instance, RenamingMap]] = []
    for k in range(1, n + 1):
        mapping: dict[str, str] = {}
        if mode in (MODE_SUBJECT, MODE_BOTH):
            mapping.update(sample(propers, vocab.REPLACEMENT_PROPER_NAMES, "proper names"))
            mapping.update(sample(persons, vocab.REPLACEMENT_PERSON_NOUNS, "person nouns"))
            mapping.update(sample(animals, vocab.REPLACEMENT_ANIMAL_NOUNS, "animal nouns"))
        if mode in (MODE_ATTRIBUTE, MODE_BOTH):
            mapping.update(sample(attrs, vocab.REPLACEMENT_ATTRIBUTES, "attributes"))
        renaming = RenamingMap(mode, mapping)
        variant_id = f"{instance.id}.{mode}{k}"
        variants.append((apply_renaming(instance, renaming, variant_id), renaming))
    return EquivalenceSet(instance, mode, variants)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def instance_to_json(instance: Instance) -> dict:
    return {
        "id": instance.id,
        "sentences": {sid: text for sid, text in instance.theory.sentences()},
        "questions": [
            {
                "id": q.id,
                "text": q.text,
                "label": q.annotation.label,
                "depth": q.annotation.depth,
                "proofs": list(q.annotation.proofs),
                "proofs_truncated": q.annotation.proofs_truncated,
            }
            for q in instance.questions
        ],
    }


_ROW_FIELDS = (("id", str), ("sentences", dict), ("questions", list))
_QUESTION_FIELDS = (
    ("id", str), ("text", str), ("label", str), ("depth", (int, str)), ("proofs", list),
)
_EQUIVALENCE_FIELDS = (("mode", str), ("mapping", dict), ("base_id", str), ("variant_index", int))


def _check_fields(obj, fields, what: str) -> None:
    """Raise ValueError unless ``obj`` is a JSON object with these typed fields."""
    if not isinstance(obj, dict):
        raise ValueError(f"{what} must be a JSON object, not {type(obj).__name__}")
    for key, kind in fields:
        if not isinstance(obj.get(key), kind):
            raise ValueError(f"{what} field {key!r} is missing or has the wrong type")


def instance_from_json(obj: dict) -> Instance:
    """Parse a dataset row; ValueError for a row that does not fit the format."""
    _check_fields(obj, _ROW_FIELDS, "a row")
    sentences = obj["sentences"]
    ordered = sorted(sentences.items(), key=lambda kv: sentence_number(kv[0]))
    expected = [f"sent{i + 1}" for i in range(len(ordered))]
    if [sid for sid, _ in ordered] != expected:
        raise ValueError(f"instance {obj['id']}: sentence ids are not dense")
    if not all(isinstance(text, str) for text in sentences.values()):
        raise ValueError(f"instance {obj['id']}: sentences must be strings")
    theory = parse_theory([text for _, text in ordered], obj["id"])
    questions = []
    for q in obj["questions"]:
        _check_fields(q, _QUESTION_FIELDS, "a question")
        if q["label"] not in LABELS or not all(isinstance(p, str) for p in q["proofs"]):
            raise ValueError(f"question {q['id']}: bad label or proofs")
        if (q["label"] == LABEL_UNKNOWN) == bool(q["proofs"]):
            want = "no proofs" if q["label"] == LABEL_UNKNOWN else "at least one proof"
            raise ValueError(f"question {q['id']}: {q['label']} questions carry {want}")
        depth = q["depth"]
        if q["label"] == LABEL_UNKNOWN:
            if depth != DEPTH_NA:
                raise ValueError(
                    f"question {q['id']}: unknown questions have depth {DEPTH_NA!r}"
                )
        elif type(depth) is not int or depth < 0:
            raise ValueError(f"question {q['id']}: depth must be a non-negative integer")
        truncated = q.get("proofs_truncated", False)
        if type(truncated) is not bool:
            raise ValueError(f"question {q['id']}: proofs_truncated must be true or false")
        ann = GoldAnnotation(q["label"], depth, tuple(q["proofs"]), truncated)
        questions.append(Question(q["id"], parse_statement(q["text"]), q["text"], ann))
    return Instance(obj["id"], theory, questions)


def equivalence_to_rows(eqset: EquivalenceSet) -> list[dict]:
    rows = []
    for k, (variant, renaming) in enumerate(eqset.variants, start=1):
        row = instance_to_json(variant)
        row["base_id"] = eqset.base.id
        row["variant_index"] = k
        row["mode"] = eqset.mode
        row["mapping"] = dict(renaming.mapping)
        rows.append(row)
    return rows


def equivalence_from_row(row: dict) -> tuple[str, int, RenamingMap, Instance]:
    """(base id, variant index, renaming, variant instance) of one row."""
    instance = instance_from_json(row)
    _check_fields(row, _EQUIVALENCE_FIELDS, "an equivalence row")
    renaming = RenamingMap(row["mode"], dict(row["mapping"]))
    return row["base_id"], row["variant_index"], renaming, instance


# ---------------------------------------------------------------------------
# Training records
# ---------------------------------------------------------------------------

def emit_training_records(instance: Instance) -> dict[str, list[dict]]:
    """Per-question supervision records for the three learned roles.

    The steps come from each question's first gold proof, ``proofs[0]``,
    read through ``check_proof``. For every step there is one
    rule-selection record (which rule to fire given the statement, the
    facts so far, and all rules), one fact-selection record (which fact
    indices feed that rule), and one composition record (rule text plus
    fact texts to conclusion text). Each question additionally contributes
    one terminal rule-selection record whose output is "STOP"; unknown
    questions and given-fact proofs contribute only that. Indices are
    0-based positions into the record's own fact and rule lists.

    Raises GoldProofError for a contradictory theory or for a ``proofs[0]``
    that fails ``check_proof``.
    """
    if gold_closure(instance.theory).contradiction:
        raise GoldProofError(instance, instance.id, "the theory is contradictory")
    rule_texts = [render(r) for r in instance.theory.rules]
    rule_index = {r.id: i for i, r in enumerate(instance.theory.rules)}
    rs: list[dict] = []
    fs: list[dict] = []
    kc: list[dict] = []
    for q in instance.questions:
        steps = []
        if q.annotation.proofs:
            try:
                steps = check_proof(
                    instance.theory, q.statement, q.annotation.label, q.annotation.proofs[0]
                )
            except ProofCheckError as e:
                raise GoldProofError(instance, q.id, str(e)) from None
        facts_so_far = [render(f.atom) for f in instance.theory.facts]
        position = {f.atom: i for i, f in enumerate(instance.theory.facts)}
        for rule_id, premises, conclusion in steps:
            premise_indices = sorted(position[p] for p in premises)
            rs.append(
                {
                    "question_id": q.id,
                    "statement": q.text,
                    "facts": list(facts_so_far),
                    "rules": list(rule_texts),
                    "output": rule_index[rule_id],
                }
            )
            fs.append(
                {
                    "question_id": q.id,
                    "statement": q.text,
                    "rule": rule_texts[rule_index[rule_id]],
                    "facts": list(facts_so_far),
                    "output": premise_indices,
                }
            )
            kc.append(
                {
                    "question_id": q.id,
                    "rule": rule_texts[rule_index[rule_id]],
                    "facts": [facts_so_far[i] for i in premise_indices],
                    "output": render(conclusion),
                }
            )
            position[conclusion] = len(facts_so_far)
            facts_so_far.append(render(conclusion))
        rs.append(
            {
                "question_id": q.id,
                "statement": q.text,
                "facts": list(facts_so_far),
                "rules": list(rule_texts),
                "output": "STOP",
            }
        )
    return {"rs": rs, "fs": fs, "kc": kc}
