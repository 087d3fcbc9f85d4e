"""Theories drawn from the productions of docs/grammar.ebnf, the
synthetic scaling family, and irrelevant sentences to grow a theory by,
shared by the differential and monotonicity tests."""
import random

from hypothesis import strategies as st

from rulechain import vocab
from rulechain.reasoner import substitute
from rulechain.theory import (
    COMMON,
    FORM_IF,
    PROPER,
    QUANT_THINGS,
    Atom,
    Entity,
    IsAttr,
    Rel,
    Rule,
    RuleStyle,
    Theory,
    X,
    parse_sentence,
    parse_theory,
    render,
)
from rulechain.vocab import VERB_3SG

# A small vocabulary, and positive attribute clauses drawn most often, so
# that premises meet facts and theories derive. The cat is not a person:
# "someone" and "people" never bind it.
NAMES = ("Bob", "Anne")
NOUNS = ("cat", "doctor")
ATTRS = ("red", "big", "kind")
VERBS = ("like",)


def nps():
    return st.sampled_from(NAMES) | st.sampled_from(NOUNS).map(lambda n: f"the {n}")


@st.composite
def clauses(draw, subject: str, plural: bool):
    """clause(S, A) of docs/grammar.ebnf; returns (text, is an attribute clause)."""
    shape = draw(st.sampled_from(("attr", "attr", "attr", "rel", "not rel")))
    if shape == "attr":
        negation = draw(st.sampled_from(("", "", "", "not ")))
        copula = "are" if plural else "is"
        return f"{subject} {copula} {negation}{draw(st.sampled_from(ATTRS))}", True
    verb = draw(st.sampled_from(VERBS))
    if shape == "rel":
        return f"{subject} {verb if plural else VERB_3SG[verb]} {draw(nps())}", False
    aux = "do" if plural else "does"
    return f"{subject} {aux} not {verb} {draw(nps())}", False


def sentence_case(text: str) -> str:
    return text[0].upper() + text[1:]


@st.composite
def facts(draw):
    text, _ = draw(clauses(draw(nps()), plural=False))
    return sentence_case(text) + "."


@st.composite
def if_rules(draw):
    intro = draw(st.sampled_from(("someone", "something")) | nps())
    anaphor = {"someone": "they", "something": "it"}.get(intro)

    def restated():
        subject = draw(st.sampled_from((anaphor,)) | nps()) if anaphor else draw(nps())
        return draw(clauses(subject, plural=subject == "they"))

    text, attr_clause = draw(clauses(intro, plural=False))
    parts = [text]
    for _ in range(draw(st.integers(0, 2))):
        if attr_clause and draw(st.booleans()):
            negation = draw(st.sampled_from(("", "not ")))
            parts.append(f"{negation}{draw(st.sampled_from(ATTRS))}")
        else:
            text, attr_clause = restated()
            parts.append(text)
    conclusion, _ = restated()
    return f"If {' and '.join(parts)} then {conclusion}."


@st.composite
def sort_rules(draw):
    """All and bare rules, of one to three attributes."""
    attrs = ", ".join(draw(st.lists(st.sampled_from(ATTRS), min_size=1, max_size=3)))
    tail = f"{draw(st.sampled_from(('people', 'things')))} are {draw(st.sampled_from(ATTRS))}."
    if draw(st.booleans()):
        return f"All {attrs} {tail}"
    return f"{sentence_case(attrs)} {tail}"


ENTITIES = tuple(Entity(PROPER, n) for n in NAMES) + tuple(Entity(COMMON, n) for n in NOUNS)


@st.composite
def theories(draw):
    """Facts and rules drawn from the grammar, plus, so that rules fire and
    chain, facts stating some premises of some rules on a drawn entity."""
    rules = draw(st.lists(if_rules() | sort_rules(), min_size=2, max_size=6))
    lines = draw(st.lists(facts(), max_size=6)) + rules
    for text in rules:
        entity = draw(st.sampled_from(ENTITIES))
        for premise in parse_sentence(text).premises:
            if draw(st.sampled_from((True, True, False))):
                lines.append(render(substitute(premise, entity)))
    return draw(st.permutations(lines))


def scaling_lines(n_entities, n_rules):
    """One fact per entity plus a chain ``If something is aI then it is aJ.``
    of ``n_rules`` rules: the closure has n_entities * n_rules derived facts."""
    letters = "abcdefghijklmnopqrstuvwxyz"

    def word(i):
        return letters[i // 26] + letters[i % 26]

    lines = [f"X{word(e)} is z{word(0)}." for e in range(n_entities)]
    lines += [f"If something is z{word(k)} then it is z{word(k + 1)}." for k in range(n_rules)]
    return lines


def reversed_rules(lines):
    """The 40 x 40 scaling family, whose 40 facts come first, with its rule
    chain written last rule first."""
    return lines[:40] + lines[40:][::-1]


def irrelevant_sentences(
    theory: Theory, rng: random.Random, n_facts: int = 1, n_rules: int = 1
) -> list[str]:
    """Sentences over tokens foreign to the theory: isolated facts and
    rules whose premises no fact can ever satisfy. Adding them must never
    change any verdict about the original theory."""
    used_attrs: set[str] = set()
    used_subjects: set[str] = set()

    def note_atom(a: Atom) -> None:
        if isinstance(a.pred, IsAttr):
            used_attrs.add(a.pred.attr)
        if isinstance(a.subject, Entity):
            used_subjects.add(a.subject.surface)
        if isinstance(a.pred, Rel):
            used_subjects.add(a.pred.obj.surface)

    for f in theory.facts:
        note_atom(f.atom)
    for r in theory.rules:
        for p in r.premises:
            note_atom(p)
        note_atom(r.conclusion)

    fresh_attrs = [
        a
        for a in vocab.GEN_ATTRIBUTES + vocab.REPLACEMENT_ATTRIBUTES
        if a not in used_attrs
    ]
    fresh_names = [
        n for n in vocab.GEN_PROPER_NAMES + vocab.REPLACEMENT_PROPER_NAMES
        if n not in used_subjects
    ]
    rng.shuffle(fresh_attrs)
    rng.shuffle(fresh_names)
    lines: list[str] = []
    for _ in range(n_facts):
        if not fresh_attrs or not fresh_names:
            break
        atom = Atom(Entity(PROPER, fresh_names.pop()), IsAttr(fresh_attrs.pop()), True)
        lines.append(render(atom))
    for _ in range(n_rules):
        if len(fresh_attrs) < 2:
            break
        rule = Rule(
            "sent1",
            (Atom(X, IsAttr(fresh_attrs.pop()), True),),
            Atom(X, IsAttr(fresh_attrs.pop()), True),
            QUANT_THINGS,
            RuleStyle(FORM_IF, (False,)),
        )
        lines.append(render(rule))
    return lines


def extend_theory(theory: Theory, extra_lines: list[str]) -> Theory:
    """A new theory with ``extra_lines`` appended; existing ids unchanged."""
    lines = [text for _, text in theory.sentences()] + list(extra_lines)
    return parse_theory(lines, theory.id)
