"""The sentence parser as it was before tokens became plain strings, kept
verbatim as the reference that tests/test_theory.py compares the package's
parser with: on every draw and malformed mutation, both must return equal
sentences or raise the same error with the same message and offset.

Each token here is a NamedTuple of its text and character offset, built
per token; the package's parser keeps only the strings and rebuilds an
offset from the text when it raises.
"""
from __future__ import annotations

import re
from typing import NamedTuple

from rulechain.theory import (
    COMMON,
    FORM_ALL,
    FORM_BARE,
    FORM_IF,
    PROPER,
    QUANT_NONE,
    QUANT_PEOPLE,
    QUANT_THINGS,
    RESERVED_WORDS,
    Atom,
    Entity,
    Fact,
    IsAttr,
    ParseError,
    Rel,
    Rule,
    RuleStyle,
    Statement,
    Theory,
    TheoryParseError,
    Var,
    X,
)
from rulechain.vocab import VERB_3SG, VERB_BASE_BY_3SG


class _Token(NamedTuple):
    text: str
    offset: int


_TOKEN_RE = re.compile(r"[A-Za-z]+|,|\.")
_STRAY_RE = re.compile(r"[^A-Za-z,.\s]")
# the words that can follow a fact's subject
_FACT_VERBS = frozenset({"is", "does"} | set(VERB_BASE_BY_3SG))


def _tokenize(text: str) -> list[_Token]:
    stray = _STRAY_RE.search(text)
    if stray:
        # reported where the whitespace before it starts
        i = stray.start()
        raise ParseError(f"unexpected character {text[i]!r}", len(text[:i].rstrip()))
    tokens = [_Token(m.group(), m.start()) for m in _TOKEN_RE.finditer(text)]
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
        if nxt is None or nxt.text not in _FACT_VERBS:
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
