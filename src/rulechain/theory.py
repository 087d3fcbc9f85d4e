"""Controlled-English rulebases: logical forms, parsing, and rendering.

A theory is a list of sentences, each either a fact or a rule. The surface
language is a small closed fragment; docs/grammar.ebnf gives the grammar.
The sentence templates are:

facts
    <NP> is [not] <attribute>.
    <NP> <verb3> <NP>.
    <NP> does not <verb> <NP>.

rules
    If <premises> then <conclusion>.
    All <attr>[, <attr>[, <attr>]] people|things are <attr>.
    <Attr>[, <attr>[, <attr>]] people|things are <attr>.

where <NP> is a proper name ("Charlie") or "the" plus a common noun
("the janitor"). Inside an If-rule the first premise subject may be
"someone" (quantifies over people), "something" (quantifies over anything),
or an NP (a ground rule). Later clauses refer back to the quantified
subject with "they" (people) or "it" (things), and consecutive attribute
premises may share the copula ("If someone is red and big then ...").
At most one variable occurs per rule, always in subject position, and a
rule has one to three premises. Negated premises only match explicitly
negative facts; nothing is inferred from absence.

Parsing and rendering are exact inverses: ``render(parse_sentence(s))``
reproduces ``s`` for every grammatical sentence (rules carry just enough
surface-style metadata to make this hold).

The logical forms ``Entity``, ``Var``, ``IsAttr``, ``Rel`` and ``Atom`` are
named tuples, so they compare and hash as the tuple of their fields, and
construction, hashing and equality run in C. Their arities keep the two
kinds of subject apart (``Entity`` has two fields, ``Var`` one), and the two
kinds of predicate (``IsAttr`` one, ``Rel`` two). A subject and a predicate
never share a position, and the variable's name "X" is no attribute.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from typing import NamedTuple

from .vocab import (
    PERSON_NOUNS,
    VERB_3SG,
    VERB_BASE_BY_3SG,
)

PROPER = "proper"
COMMON = "common"

QUANT_PEOPLE = "people"
QUANT_THINGS = "things"
QUANT_NONE = ""

FORM_IF = "if"
FORM_ALL = "all"
FORM_BARE = "bare"

# Words with grammatical meaning; they can never be names, nouns, or attributes.
RESERVED_WORDS = frozenset(
    {
        "the", "is", "are", "not", "does", "do", "if", "then", "and", "all",
        "people", "things", "someone", "something", "they", "it",
    }
    | set(VERB_3SG)
    | set(VERB_BASE_BY_3SG)
)


class ParseError(ValueError):
    """A sentence that does not fit the fragment.

    ``offset`` is the character position of the failure. Offset 0 means the
    sentence matched no template at all; larger offsets point at the first
    bad token inside the template the sentence had committed to.
    """

    def __init__(self, message: str, offset: int = 0):
        super().__init__(f"at offset {offset}: {message}")
        self.message = message
        self.offset = offset


class TheoryParseError(ValueError):
    """One or more lines of a theory failed to parse."""

    def __init__(self, errors: list[tuple[int, ParseError]]):
        self.errors = errors
        lines = "; ".join(f"line {n}: {e}" for n, e in errors)
        super().__init__(f"{len(errors)} bad sentence(s): {lines}")


class _EntityFields(NamedTuple):
    kind: str  # PROPER | COMMON
    surface: str


class Entity(_EntityFields):
    """A proper name ("Charlie") or a common noun ("the janitor").

    A tuple (kind, surface); ``__new__`` checks both. The tuple's ``_make``
    and ``_replace`` skip the checks, and nothing calls them.
    """

    __slots__ = ()

    def __new__(cls, kind: str, surface: str) -> Entity:
        if kind not in (PROPER, COMMON):
            raise ValueError(f"bad entity kind {kind!r}")
        if kind == PROPER and not surface[:1].isupper():
            raise ValueError(f"proper name must be capitalized: {surface!r}")
        if kind == COMMON and not surface.islower():
            raise ValueError(f"common noun must be lowercase: {surface!r}")
        return tuple.__new__(cls, (kind, surface))

    @property
    def is_person(self) -> bool:
        return self.kind == PROPER or self.surface in PERSON_NOUNS


class Var(NamedTuple):
    """The single rule variable. At most one per rule, subject position only."""

    name: str = "X"


X = Var()


class IsAttr(NamedTuple):
    """Unary predicate: the subject has this attribute."""

    attr: str


class Rel(NamedTuple):
    """Binary predicate: <subject> <verb> <obj>. ``verb`` is the base form.
    The object is never the rule variable; ``Rule`` rejects one."""

    verb: str
    obj: Entity


class Atom(NamedTuple):
    """A predicate of a subject, asserted or denied; ground unless the
    subject is the variable."""

    subject: Entity | Var
    pred: IsAttr | Rel
    positive: bool = True

    @property
    def is_ground(self) -> bool:
        return not isinstance(self.subject, Var)

    def negated(self) -> Atom:
        return Atom(self.subject, self.pred, not self.positive)


@dataclass(frozen=True)
class Fact:
    """A ground sentence. ``derived_step`` is None for given facts; derived
    facts record the 1-based inference step that produced them."""

    id: str
    atom: Atom
    derived_step: int | None = None


@dataclass(frozen=True)
class RuleStyle:
    """Surface form of a rule, kept so rendering inverts parsing exactly.

    ``merged[i]`` is True when premise i was written as a bare attribute
    continuation sharing the previous clause's subject and copula
    ("... is red and big ..."). merged[0] is always False.
    """

    form: str = FORM_IF  # FORM_IF | FORM_ALL | FORM_BARE
    merged: tuple[bool, ...] = ()


@dataclass(frozen=True)
class Rule:
    id: str
    premises: tuple[Atom, ...]
    conclusion: Atom
    quantifier: str = QUANT_NONE  # QUANT_PEOPLE | QUANT_THINGS | QUANT_NONE
    style: RuleStyle = RuleStyle()

    def __post_init__(self) -> None:
        if not 1 <= len(self.premises) <= 3:
            raise ValueError("a rule has one to three premises")
        has_var = var_object = False
        for a in self.premises:
            if isinstance(a.subject, Var):
                has_var = True
            if isinstance(a.pred, Rel) and isinstance(a.pred.obj, Var):
                var_object = True
        if has_var != (self.quantifier != QUANT_NONE):
            raise ValueError("a rule has a variable premise exactly when it is quantified")
        head = self.conclusion
        if isinstance(head.subject, Var) and not has_var:
            raise ValueError("conclusion variable never bound by a premise")
        if var_object or (isinstance(head.pred, Rel) and isinstance(head.pred.obj, Var)):
            raise ValueError("the variable may only be a subject")


@dataclass(frozen=True)
class Statement:
    """A ground query sentence, the thing a verdict is about."""

    atom: Atom

    def __post_init__(self) -> None:
        if not self.atom.is_ground:
            raise ValueError("statements must be ground")


@dataclass
class Theory:
    """Facts and rules with dense sentence ids sent1..sentN in source order.

    ``compiled`` caches the engine's tables for this theory
    (``reasoner.compile_theory``), so ``facts`` and ``rules`` must not
    change after construction; no caller changes them.
    """

    id: str
    facts: list[Fact] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)
    compiled: object = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        nums = sorted(sentence_number(s.id) for s in [*self.facts, *self.rules])
        if nums != list(range(1, len(nums) + 1)):
            raise ValueError("sentence ids must be dense sent1..sentN")

    def sentences(self) -> list[tuple[str, str]]:
        """(id, text) pairs in source order."""
        items: list[Fact | Rule] = [*self.facts, *self.rules]
        items.sort(key=lambda s: sentence_number(s.id))
        return [(s.id, render(s)) for s in items]

    def entity_order(self) -> list[Entity]:
        """Entities by first mention, scanning sentences in source order.

        This is the canonical order used to enumerate candidate bindings.
        It is stable under renaming because renamings preserve positions.
        """
        seen: dict[Entity, None] = {}

        def note(term: Entity | Var) -> None:
            if isinstance(term, Entity):
                seen.setdefault(term)

        def note_atom(a: Atom) -> None:
            note(a.subject)
            if isinstance(a.pred, Rel):
                note(a.pred.obj)

        items: list[Fact | Rule] = [*self.facts, *self.rules]
        items.sort(key=lambda s: sentence_number(s.id))
        for item in items:
            if isinstance(item, Fact):
                note_atom(item.atom)
            else:
                for p in item.premises:
                    note_atom(p)
                note_atom(item.conclusion)
        return list(seen)


_SENTENCE_ID_RE = re.compile(r"sent([0-9]+)")


def sentence_number(sid: str) -> int:
    m = _SENTENCE_ID_RE.fullmatch(sid)
    if not m:
        raise ValueError(f"bad sentence id {sid!r}")
    return int(m.group(1))


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

def _np(term: Entity) -> str:
    if term.kind == PROPER:
        return term.surface
    return f"the {term.surface}"


def _clause(atom: Atom, subject_surface: str, plural: bool) -> str:
    neg = not atom.positive
    if isinstance(atom.pred, IsAttr):
        cop = "are" if plural else "is"
        not_part = " not" if neg else ""
        return f"{subject_surface} {cop}{not_part} {atom.pred.attr}"
    obj = _np(atom.pred.obj)
    if neg:
        aux = "do" if plural else "does"
        return f"{subject_surface} {aux} not {atom.pred.verb} {obj}"
    verb = atom.pred.verb if plural else VERB_3SG[atom.pred.verb]
    return f"{subject_surface} {verb} {obj}"


def _capitalize(s: str) -> str:
    return s[0].upper() + s[1:]


def render(item: "Fact | Rule | Statement | Atom") -> str:
    """Render a fact, rule, statement, or ground atom to its sentence."""
    if isinstance(item, (Fact, Statement)):
        atom = item.atom
    elif isinstance(item, Atom):
        atom = item
    elif isinstance(item, Rule):
        return _render_rule(item)
    else:
        raise TypeError(f"cannot render {type(item).__name__}")
    if not atom.is_ground:
        raise ValueError("cannot render a non-ground atom as a sentence")
    return _capitalize(_clause(atom, _np(atom.subject), plural=False)) + "."


def _render_rule(rule: Rule) -> str:
    if rule.style.form == FORM_ALL or rule.style.form == FORM_BARE:
        attrs = ", ".join(p.pred.attr for p in rule.premises)
        sort = rule.quantifier
        tail = f"{attrs} {sort} are {rule.conclusion.pred.attr}."
        if rule.style.form == FORM_ALL:
            return f"All {tail}"
        return _capitalize(tail)

    plural = rule.quantifier == QUANT_PEOPLE
    pronoun = "they" if plural else "it"
    intro = "someone" if rule.quantifier == QUANT_PEOPLE else "something"
    merged = rule.style.merged or tuple(False for _ in rule.premises)

    parts: list[str] = []
    for i, prem in enumerate(rule.premises):
        is_var = isinstance(prem.subject, Var)
        if i == 0:
            subj = intro if is_var else _np(prem.subject)
            # "someone"/"something" and NPs all take singular agreement.
            parts.append(_clause(prem, subj, plural=False))
        elif merged[i]:
            not_part = "not " if not prem.positive else ""
            parts.append(f"and {not_part}{prem.pred.attr}")
        else:
            subj = pronoun if is_var else _np(prem.subject)
            pl = plural and is_var
            parts.append("and " + _clause(prem, subj, plural=pl))
    concl = rule.conclusion
    c_var = isinstance(concl.subject, Var)
    c_subj = pronoun if c_var else _np(concl.subject)
    c_pl = plural and c_var
    parts.append("then " + _clause(concl, c_subj, plural=c_pl))
    return "If " + " ".join(parts) + "."


def negate(statement: Statement) -> Statement:
    """Flip the polarity of a statement. An involution."""
    return Statement(statement.atom.negated())


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(r"[A-Za-z]+|,|\.")
_STRAY_RE = re.compile(r"[^A-Za-z,.\s]")
# the words that can follow a fact's subject
_FACT_VERBS = frozenset({"is", "does"} | set(VERB_BASE_BY_3SG))


def _offset(text: str, index: int) -> int:
    """The character offset of token ``index`` of ``text``. Tokens are
    plain strings, so an offset is rebuilt from the text, and only for an
    error."""
    return next(islice(_TOKEN_RE.finditer(text), index, None)).start()


def _tokenize(text: str) -> list[str]:
    stray = _STRAY_RE.search(text)
    if stray:
        # reported where the whitespace before it starts
        i = stray.start()
        raise ParseError(f"unexpected character {text[i]!r}", len(text[:i].rstrip()))
    tokens = _TOKEN_RE.findall(text)
    if not tokens:
        raise ParseError("empty sentence", 0)
    end = len(tokens) - 1
    if tokens[end] != ".":
        raise ParseError("sentence must end with a period", _offset(text, end))
    first = tokens.index(".")
    if first != end:
        raise ParseError("period before end of sentence", _offset(text, first))
    return tokens


class _NoCommit(Exception):
    """Internal: a template did not reach its commitment point."""


class _Parser:
    """A cursor over one sentence's tokens. No reader consumes the final
    period without raising (it is no word, attribute, noun, verb or sort),
    so the cursor and every lookahead stay at or before it."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.pos = 0
        self.end = len(self.tokens) - 1  # index of the final period

    def error(self, message: str, index: int) -> ParseError:
        """A ParseError at token ``index``."""
        return ParseError(message, _offset(self.text, index))

    # -- cursor helpers ----------------------------------------------------
    def peek(self, ahead: int = 0) -> str:
        return self.tokens[self.pos + ahead]

    def next(self) -> str:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, word: str) -> None:
        tok = self.next()
        if tok != word:
            raise self.error(f"expected {word!r}, found {tok!r}", self.pos - 1)

    def expect_end(self) -> None:
        if self.pos != self.end:
            raise self.error(f"unexpected trailing {self.tokens[self.pos]!r}", self.pos)

    # -- word classes ------------------------------------------------------
    def attribute(self) -> str:
        word = self.next()
        if not (word.isalpha() and word.islower()) or word in RESERVED_WORDS:
            raise self.error(f"expected an attribute, found {word!r}", self.pos - 1)
        return word

    def more_attributes(self, attrs: list[str]) -> list[str]:
        """Extend ``attrs`` by ", <attr>" items; a sort takes at most three,
        one per rule premise."""
        while self.peek() == ",":
            if len(attrs) == 3:
                raise self.error("at most three attributes before the sort", self.pos)
            self.pos += 1
            attrs.append(self.attribute())
        return attrs

    def _initial_attr_candidate(self, tok: str) -> str | None:
        # Sentence-initial attributes are capitalized; normalize to lowercase.
        word = tok.lower()
        if word.isalpha() and word not in RESERVED_WORDS:
            return word
        return None

    def np(self, sentence_initial: bool = False) -> Entity:
        tok = self.peek()
        if tok == "the" or (sentence_initial and tok == "The"):
            self.pos += 1
            noun = self.next()
            if not (noun.isalpha() and noun.islower()) or noun in RESERVED_WORDS:
                raise self.error(f"expected a common noun, found {noun!r}", self.pos - 1)
            return Entity(COMMON, noun)
        if tok[:1].isupper() and tok.isalpha() and tok.lower() not in RESERVED_WORDS:
            self.pos += 1
            return Entity(PROPER, tok)
        raise _NoCommit

    # -- clause bodies -------------------------------------------------------
    def clause_body(self, subject: Entity | Var, plural: bool) -> Atom:
        """Parse everything after a clause subject: copula or verb phrase."""
        tok = self.next()
        cop = "are" if plural else "is"
        if tok == cop:
            positive = True
            if self.peek() == "not":
                self.pos += 1
                positive = False
            attr = self.attribute()
            return Atom(subject, IsAttr(attr), positive)
        if not plural and tok in VERB_BASE_BY_3SG:
            obj = self.np_or_fail()
            return Atom(subject, Rel(VERB_BASE_BY_3SG[tok], obj), True)
        if plural and tok in VERB_3SG:
            obj = self.np_or_fail()
            return Atom(subject, Rel(tok, obj), True)
        aux = "do" if plural else "does"
        if tok == aux:
            self.expect("not")
            verb = self.next()
            if verb not in VERB_3SG:
                raise self.error(f"expected a verb, found {verb!r}", self.pos - 1)
            obj = self.np_or_fail()
            return Atom(subject, Rel(verb, obj), False)
        raise self.error(f"expected {cop!r} or a verb, found {tok!r}", self.pos - 1)

    def np_or_fail(self) -> Entity:
        tok = self.peek()
        try:
            return self.np()
        except _NoCommit:
            # np() consumes nothing before giving up
            raise self.error(f"expected a name or 'the <noun>', found {tok!r}", self.pos)

    # -- sentence templates --------------------------------------------------
    def parse_fact(self, position: int) -> Fact:
        subject = self.np(sentence_initial=True)  # may raise _NoCommit
        if self.peek() not in _FACT_VERBS:
            raise _NoCommit
        atom = self.clause_body(subject, plural=False)
        self.expect_end()
        return Fact(f"sent{position}", atom)

    def parse_bare_rule(self, position: int) -> Rule:
        attr0 = self._initial_attr_candidate(self.tokens[0])
        if attr0 is None:
            raise _NoCommit
        self.pos = 1
        attrs = self.more_attributes([attr0])
        sort = self.peek()
        if sort not in (QUANT_PEOPLE, QUANT_THINGS):
            raise _NoCommit
        self.pos += 1
        return self.sort_rule_tail(position, attrs, sort, FORM_BARE)

    def parse_all_rule(self, position: int) -> Rule:
        self.expect("All")
        attrs = self.more_attributes([self.attribute()])
        sort = self.next()
        if sort not in (QUANT_PEOPLE, QUANT_THINGS):
            raise self.error(f"expected 'people' or 'things', found {sort!r}", self.pos - 1)
        return self.sort_rule_tail(position, attrs, sort, FORM_ALL)

    def sort_rule_tail(self, position: int, attrs: list[str], sort: str, form: str) -> Rule:
        """Parse "are <attr>." closing an All or bare rule and build the rule."""
        self.expect("are")
        concl_attr = self.attribute()
        self.expect_end()
        premises = tuple(Atom(X, IsAttr(a), True) for a in attrs)
        return Rule(
            f"sent{position}",
            premises,
            Atom(X, IsAttr(concl_attr), True),
            sort,
            RuleStyle(form, tuple(False for _ in premises)),
        )

    def parse_if_rule(self, position: int) -> Rule:
        self.expect("If")
        quant = QUANT_NONE
        first = self.peek()
        if first == "someone":
            self.pos += 1
            quant = QUANT_PEOPLE
            subject: Entity | Var = X
        elif first == "something":
            self.pos += 1
            quant = QUANT_THINGS
            subject = X
        else:
            subject = self.np_or_fail()
        premises = [self.clause_body(subject, plural=False)]
        merged = [False]
        while self.peek() == "and":
            self.pos += 1
            if len(premises) == 3:
                raise self.error("a rule has at most three premises", self.pos - 1)
            if self._continuation_ahead():
                if not isinstance(premises[-1].pred, IsAttr):
                    raise self.error(
                        "attribute continuation after a non-attribute premise", self.pos
                    )
                positive = True
                if self.peek() == "not":
                    self.pos += 1
                    positive = False
                attr = self.attribute()
                premises.append(Atom(premises[-1].subject, IsAttr(attr), positive))
                merged.append(True)
                continue
            premises.append(self.anaphor_clause(quant))
            merged.append(False)

        self.expect("then")
        conclusion = self.anaphor_clause(quant)
        self.expect_end()
        return Rule(
            f"sent{position}",
            tuple(premises),
            conclusion,
            quant,
            RuleStyle(FORM_IF, tuple(merged)),
        )

    def anaphor_clause(self, quant: str) -> Atom:
        """A clause after 'and' or 'then': the quantifier's pronoun ('they'
        for people, 'it' for things) with its agreement, or a noun phrase."""
        tok = self.peek()
        if tok not in ("they", "it"):
            return self.clause_body(self.np_or_fail(), plural=False)
        self.pos += 1
        if quant == QUANT_NONE:
            raise self.error(f"{tok!r} has no antecedent", self.pos - 1)
        plural = quant == QUANT_PEOPLE
        pronoun = "they" if plural else "it"
        if tok != pronoun:
            raise self.error(f"expected {pronoun!r} for this quantifier", self.pos - 1)
        return self.clause_body(X, plural=plural)

    def _continuation_ahead(self) -> bool:
        """True when the tokens after 'and' are '[not] <attr>' followed by
        'and'/'then', i.e. a shared-copula attribute continuation."""
        i = 0
        tok = self.peek(i)
        if tok == "not":
            i += 1
            tok = self.peek(i)
        if not (tok.isalpha() and tok.islower()) or tok in RESERVED_WORDS:
            return False
        return self.peek(i + 1) in ("and", "then")


def parse_sentence(text: str, position: int = 1) -> Fact | Rule:
    """Parse one sentence into a Fact or Rule with id ``sent<position>``.

    Raises ParseError (with a character offset) for anything outside the
    fragment.
    """
    parser = _Parser(text)
    head = parser.tokens[0]
    if head == "If":
        return parser.parse_if_rule(position)
    if head == "All":
        return parser.parse_all_rule(position)
    for template in (parser.parse_fact, parser.parse_bare_rule):
        parser.pos = 0
        try:
            return template(position)
        except _NoCommit:
            continue
    raise ParseError("sentence matches no template", 0)


def parse_statement(text: str) -> Statement:
    item = parse_sentence(text)
    if not isinstance(item, Fact):
        raise ParseError("a statement must be a fact-shaped sentence", 0)
    return Statement(item.atom)


def parse_theory(lines: list[str], theory_id: str = "theory") -> Theory:
    """Parse sentences (one per line) into a Theory. Blank lines are skipped.

    Sentence ids number the kept lines 1..N in order. All bad lines are
    reported together in a TheoryParseError.
    """
    facts: list[Fact] = []
    rules: list[Rule] = []
    errors: list[tuple[int, ParseError]] = []
    position = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        position += 1
        try:
            item = parse_sentence(line, position)
        except ParseError as e:
            errors.append((lineno, e))
            continue
        if isinstance(item, Fact):
            facts.append(item)
        else:
            rules.append(item)
    if errors:
        raise TheoryParseError(errors)
    return Theory(theory_id, facts, rules)
