"""Theories drawn from the productions of docs/grammar.ebnf, and the
synthetic scaling family, shared by the differential tests."""
from hypothesis import strategies as st

from rulechain.reasoner import substitute
from rulechain.theory import COMMON, PROPER, Entity, parse_sentence, render
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
