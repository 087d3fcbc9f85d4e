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
"""
from __future__ import annotations

import re
from dataclasses import dataclass, field

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


@dataclass(frozen=True)
class Entity:
    """A proper name ("Charlie") or a common noun ("the janitor")."""

    kind: str  # PROPER | COMMON
    surface: str

    def __post_init__(self) -> None:
        if self.kind not in (PROPER, COMMON):
            raise ValueError(f"bad entity kind {self.kind!r}")
        if self.kind == PROPER and not self.surface[:1].isupper():
            raise ValueError(f"proper name must be capitalized: {self.surface!r}")
        if self.kind == COMMON and not self.surface.islower():
            raise ValueError(f"common noun must be lowercase: {self.surface!r}")

    @property
    def is_person(self) -> bool:
        return self.kind == PROPER or self.surface in PERSON_NOUNS


@dataclass(frozen=True)
class Var:
    """The single rule variable. At most one per rule, subject position only."""

    name: str = "X"


X = Var()


@dataclass(frozen=True)
class IsAttr:
    """Unary predicate: the subject has this attribute."""

    attr: str


@dataclass(frozen=True)
class Rel:
    """Binary predicate: <subject> <verb> <obj>. ``verb`` is the base form.
    The object is never the rule variable; ``Rule`` rejects one."""

    verb: str
    obj: Entity


@dataclass(frozen=True)
class Atom:
    subject: Entity | Var
    pred: IsAttr | Rel
    positive: bool = True

    @property
    def is_ground(self) -> bool:
        return not isinstance(self.subject, Var)

    def negated(self) -> "Atom":
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
        has_var = any(isinstance(p.subject, Var) for p in self.premises)
        if has_var != (self.quantifier != QUANT_NONE):
            raise ValueError("a rule has a variable premise exactly when it is quantified")
        if isinstance(self.conclusion.subject, Var) and not has_var:
            raise ValueError("conclusion variable never bound by a premise")
        if any(
            isinstance(a.pred, Rel) and isinstance(a.pred.obj, Var)
            for a in (*self.premises, self.conclusion)
        ):
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
    """Facts and rules with dense sentence ids sent1..sentN in source order."""

    id: str
    facts: list[Fact] = field(default_factory=list)
    rules: list[Rule] = field(default_factory=list)

    def __post_init__(self) -> None:
        nums = sorted(sentence_number(s.id) for s in [*self.facts, *self.rules])
        if nums != list(range(1, len(nums) + 1)):
            raise ValueError("sentence ids must be dense sent1..sentN")

    def rule_by_id(self, rid: str) -> Rule:
        for r in self.rules:
            if r.id == rid:
                return r
        raise KeyError(rid)

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


def sentence_number(sid: str) -> int:
    m = re.fullmatch(r"sent(\d+)", sid)
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

@dataclass(frozen=True)
class _Token:
    text: str
    offset: int


_TOKEN_RE = re.compile(r"[A-Za-z]+|,|\.")


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    for m in _TOKEN_RE.finditer(text):
        gap = text[pos : m.start()]
        if gap.strip():
            raise ParseError(f"unexpected character {gap.strip()[0]!r}", pos)
        tokens.append(_Token(m.group(), m.start()))
        pos = m.end()
    if text[pos:].strip():
        raise ParseError(f"unexpected character {text[pos:].strip()[0]!r}", pos)
    if not tokens:
        raise ParseError("empty sentence", 0)
    if tokens[-1].text != ".":
        raise ParseError("sentence must end with a period", tokens[-1].offset)
    for t in tokens[:-1]:
        if t.text == ".":
            raise ParseError("period before end of sentence", t.offset)
    return tokens


class _NoCommit(Exception):
    """Internal: a template did not reach its commitment point."""


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.end = len(self.tokens) - 1  # index of the final period

    # -- cursor helpers ----------------------------------------------------
    def peek(self, ahead: int = 0) -> _Token | None:
        i = self.pos + ahead
        return self.tokens[i] if i <= self.end else None

    def next(self) -> _Token:
        if self.pos > self.end:
            raise ParseError("sentence ended early", self.tokens[self.end].offset)
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, word: str) -> _Token:
        tok = self.next()
        if tok.text != word:
            raise ParseError(f"expected {word!r}, found {tok.text!r}", tok.offset)
        return tok

    def expect_end(self) -> None:
        if self.pos != self.end:
            tok = self.tokens[self.pos]
            raise ParseError(f"unexpected trailing {tok.text!r}", tok.offset)

    # -- word classes ------------------------------------------------------
    def attribute(self) -> str:
        tok = self.next()
        word = tok.text
        if not (word.isalpha() and word.islower()) or word in RESERVED_WORDS:
            raise ParseError(f"expected an attribute, found {tok.text!r}", tok.offset)
        return word

    def more_attributes(self, attrs: list[str]) -> list[str]:
        """Extend ``attrs`` by ", <attr>" items; a sort takes at most three,
        one per rule premise."""
        while self.peek() and self.peek().text == ",":
            if len(attrs) == 3:
                raise ParseError("at most three attributes before the sort", self.peek().offset)
            self.next()
            attrs.append(self.attribute())
        return attrs

    def _initial_attr_candidate(self, tok: _Token) -> str | None:
        # Sentence-initial attributes are capitalized; normalize to lowercase.
        word = tok.text.lower()
        if word.isalpha() and word not in RESERVED_WORDS:
            return word
        return None

    def np(self, sentence_initial: bool = False) -> Entity:
        tok = self.peek()
        if tok is None:
            raise _NoCommit
        if tok.text == "the" or (sentence_initial and tok.text == "The"):
            self.next()
            noun_tok = self.next()
            noun = noun_tok.text
            if not (noun.isalpha() and noun.islower()) or noun in RESERVED_WORDS:
                raise ParseError(
                    f"expected a common noun, found {noun_tok.text!r}", noun_tok.offset
                )
            return Entity(COMMON, noun)
        if tok.text[:1].isupper() and tok.text.isalpha() and tok.text.lower() not in RESERVED_WORDS:
            self.next()
            return Entity(PROPER, tok.text)
        raise _NoCommit

    # -- clause bodies -------------------------------------------------------
    def clause_body(self, subject: Entity | Var, plural: bool) -> Atom:
        """Parse everything after a clause subject: copula or verb phrase."""
        tok = self.next()
        cop = "are" if plural else "is"
        if tok.text == cop:
            positive = True
            if self.peek() and self.peek().text == "not":
                self.next()
                positive = False
            attr = self.attribute()
            return Atom(subject, IsAttr(attr), positive)
        if not plural and tok.text in VERB_BASE_BY_3SG:
            obj = self.np_or_fail()
            return Atom(subject, Rel(VERB_BASE_BY_3SG[tok.text], obj), True)
        if plural and tok.text in VERB_3SG:
            obj = self.np_or_fail()
            return Atom(subject, Rel(tok.text, obj), True)
        aux = "do" if plural else "does"
        if tok.text == aux:
            self.expect("not")
            verb_tok = self.next()
            if verb_tok.text not in VERB_3SG:
                raise ParseError(
                    f"expected a verb, found {verb_tok.text!r}", verb_tok.offset
                )
            obj = self.np_or_fail()
            return Atom(subject, Rel(verb_tok.text, obj), False)
        raise ParseError(f"expected {cop!r} or a verb, found {tok.text!r}", tok.offset)

    def np_or_fail(self) -> Entity:
        tok = self.peek()
        try:
            return self.np()
        except _NoCommit:
            offset = tok.offset if tok else self.tokens[self.end].offset
            found = tok.text if tok else "end of sentence"
            raise ParseError(f"expected a name or 'the <noun>', found {found!r}", offset)

    # -- sentence templates --------------------------------------------------
    def parse_fact(self, position: int) -> Fact:
        subject = self.np(sentence_initial=True)  # may raise _NoCommit
        nxt = self.peek()
        if nxt is None or nxt.text not in (
            {"is", "does"} | set(VERB_BASE_BY_3SG)
        ):
            raise _NoCommit
        atom = self.clause_body(subject, plural=False)
        self.expect_end()
        return Fact(f"sent{position}", atom)

    def parse_bare_rule(self, position: int) -> Rule:
        first = self.peek()
        if first is None:
            raise _NoCommit
        attr0 = self._initial_attr_candidate(first)
        if attr0 is None:
            raise _NoCommit
        self.next()
        attrs = self.more_attributes([attr0])
        sort_tok = self.peek()
        if sort_tok is None or sort_tok.text not in (QUANT_PEOPLE, QUANT_THINGS):
            raise _NoCommit
        self.next()
        return self.sort_rule_tail(position, attrs, sort_tok.text, FORM_BARE)

    def parse_all_rule(self, position: int) -> Rule:
        self.expect("All")
        attrs = self.more_attributes([self.attribute()])
        sort_tok = self.next()
        if sort_tok.text not in (QUANT_PEOPLE, QUANT_THINGS):
            raise ParseError(
                f"expected 'people' or 'things', found {sort_tok.text!r}", sort_tok.offset
            )
        return self.sort_rule_tail(position, attrs, sort_tok.text, FORM_ALL)

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
        if first and first.text == "someone":
            self.next()
            quant = QUANT_PEOPLE
            subject: Entity | Var = X
        elif first and first.text == "something":
            self.next()
            quant = QUANT_THINGS
            subject = X
        else:
            subject = self.np_or_fail()
        premises = [self.clause_body(subject, plural=False)]
        merged = [False]
        while self.peek() and self.peek().text == "and":
            and_tok = self.next()
            if len(premises) == 3:
                raise ParseError("a rule has at most three premises", and_tok.offset)
            if self._continuation_ahead():
                if not isinstance(premises[-1].pred, IsAttr):
                    raise ParseError(
                        "attribute continuation after a non-attribute premise",
                        self.peek().offset,
                    )
                positive = True
                if self.peek().text == "not":
                    self.next()
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
        if not (tok and tok.text in ("they", "it")):
            return self.clause_body(self.np_or_fail(), plural=False)
        self.next()
        if quant == QUANT_NONE:
            raise ParseError(f"{tok.text!r} has no antecedent", tok.offset)
        plural = quant == QUANT_PEOPLE
        pronoun = "they" if plural else "it"
        if tok.text != pronoun:
            raise ParseError(f"expected {pronoun!r} for this quantifier", tok.offset)
        return self.clause_body(X, plural=plural)

    def _continuation_ahead(self) -> bool:
        """True when the tokens after 'and' are '[not] <attr>' followed by
        'and'/'then', i.e. a shared-copula attribute continuation."""
        i = 0
        tok = self.peek(i)
        if tok and tok.text == "not":
            i += 1
            tok = self.peek(i)
        if tok is None:
            return False
        word = tok.text
        if not (word.isalpha() and word.islower()) or word in RESERVED_WORDS:
            return False
        after = self.peek(i + 1)
        return after is None or after.text in ("and", "then")


def parse_sentence(text: str, position: int = 1) -> Fact | Rule:
    """Parse one sentence into a Fact or Rule with id ``sent<position>``.

    Raises ParseError (with a character offset) for anything outside the
    fragment.
    """
    parser = _Parser(text)
    head = parser.tokens[0].text
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
