"""Parser and renderer: templates, round-trips, offsets, vocabulary."""
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulechain.theory as theory_module
from rulechain import vocab
from rulechain.theory import (
    Atom,
    COMMON,
    Entity,
    IsAttr,
    PROPER,
    ParseError,
    Rel,
    Rule,
    RuleStyle,
    Statement,
    TheoryParseError,
    Var,
    X,
    negate,
    parse_sentence,
    parse_statement,
    parse_theory,
    render,
    sentence_number,
)

import reference_parser
from grammar_theories import facts, if_rules, sort_rules, theories


def roundtrip(text: str) -> str:
    return render(parse_sentence(text))


# ---------------------------------------------------------------------------
# Facts
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "Charlie is white.",
        "Bob is not cold.",
        "The cat is furry.",
        "The doctor does not like Anne.",
        "Anne likes the cat.",
        "Harry sees Bob.",
    ],
)
def test_fact_roundtrip_exact(text):
    assert roundtrip(text) == text


def test_fact_parse_structure():
    fact = parse_sentence("Bob is not cold.", position=4)
    assert fact.id == "sent4"
    assert fact.atom == Atom(Entity(PROPER, "Bob"), IsAttr("cold"), False)
    assert fact.derived_step is None


def test_relation_fact_structure():
    fact = parse_sentence("The cat chases the mouse.")
    assert fact.atom == Atom(
        Entity(COMMON, "cat"), Rel("chase", Entity(COMMON, "mouse")), True
    )


def test_negated_relation():
    fact = parse_sentence("Anne does not visit the nurse.")
    assert fact.atom.positive is False
    assert fact.atom.pred == Rel("visit", Entity(COMMON, "nurse"))
    assert render(fact) == "Anne does not visit the nurse."


# ---------------------------------------------------------------------------
# Rules
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "text",
    [
        "If someone is blue then they are quiet.",
        "If something is cold and not red then it is white.",
        "If someone is young and they like the cat then they are happy.",
        "If Bob is quiet then Bob is smart.",
        "All blue people are quiet.",
        "All cold, white things are round.",
        "Blue people are quiet.",
        "Kind, nice people are happy.",
        "If someone likes the cat then they are kind.",
        "If someone is big and strong then they are proud.",
    ],
)
def test_rule_roundtrip_exact(text):
    assert roundtrip(text) == text


def test_if_rule_structure():
    rule = parse_sentence("If someone is blue then they are quiet.", position=2)
    assert rule.id == "sent2"
    assert rule.quantifier == "people"
    assert rule.premises == (Atom(X, IsAttr("blue"), True),)
    assert rule.conclusion == Atom(X, IsAttr("quiet"), True)


def test_something_quantifier_covers_everything():
    rule = parse_sentence("If something is cold then it is white.")
    assert rule.quantifier == "things"


def test_all_rule_desugars_to_conjunction():
    rule = parse_sentence("All cold, white things are round.")
    assert rule.quantifier == "things"
    assert set(rule.premises) == {
        Atom(X, IsAttr("cold"), True),
        Atom(X, IsAttr("white"), True),
    }
    assert rule.conclusion == Atom(X, IsAttr("round"), True)


def test_bare_rule_equals_all_rule_logic():
    bare = parse_sentence("Blue people are quiet.")
    full = parse_sentence("All blue people are quiet.")
    assert bare.premises == full.premises
    assert bare.conclusion == full.conclusion
    assert bare.quantifier == full.quantifier
    # Surface form survives the round trip independently.
    assert render(bare) == "Blue people are quiet."
    assert render(full) == "All blue people are quiet."


def test_ground_rule_has_no_variables():
    rule = parse_sentence("If Bob is quiet then Bob is smart.")
    assert rule.quantifier == ""
    assert rule.premises[0].subject == Entity(PROPER, "Bob")
    assert rule.conclusion.subject == Entity(PROPER, "Bob")


def test_merged_and_clause_continuations_differ():
    merged = parse_sentence("If someone is big and strong then they are proud.")
    spelled = parse_sentence(
        "If someone is big and they are strong then they are proud."
    )
    assert merged.premises == spelled.premises
    assert render(merged) != render(spelled)
    assert roundtrip(render(spelled)) == render(spelled)


def test_sort_rules_take_one_to_three_attributes():
    premises = tuple(Atom(X, IsAttr(a), True) for a in ("red", "big", "kind"))
    for form, quantifier, text in (
        ("all", "things", "All red, big, kind things are blue."),
        ("bare", "people", "Red, big, kind people are blue."),
    ):
        rule = Rule(
            "sent1", premises, Atom(X, IsAttr("blue"), True), quantifier,
            RuleStyle(form, (False, False, False)),
        )
        assert render(rule) == text
        assert parse_sentence(text) == rule
    for text in ("All red, big, kind, nice things are blue.", "Red, big, kind, nice people are blue."):
        with pytest.raises(ParseError, match="at most three attributes"):
            parse_sentence(text)


def test_three_premise_rule():
    text = "If someone is big and strong and they like the cat then they are proud."
    rule = parse_sentence(text)
    assert len(rule.premises) == 3
    assert roundtrip(text) == text


# ---------------------------------------------------------------------------
# Errors and offsets
# ---------------------------------------------------------------------------

def test_unparsable_sentence_reports_offset_zero():
    with pytest.raises(ParseError) as err:
        parse_sentence("Blue Chris is.")
    assert err.value.offset == 0


def test_committed_template_reports_inner_offset():
    # "Bob likes" commits to a relation fact; the object is missing.
    with pytest.raises(ParseError) as err:
        parse_sentence("Bob likes.")
    assert err.value.offset == 9


@pytest.mark.parametrize(
    "text, char, offset",
    [
        ("Bob is   !cold.", "!", 6),  # after a run of spaces: where the run starts
        ("?Bob is cold.", "?", 0),
        ("Bob is cold. \xa0;", ";", 12),
    ],
)
def test_a_stray_character_is_reported_where_the_gap_before_it_starts(text, char, offset):
    message = f"at offset {offset}: unexpected character {char!r}"
    with pytest.raises(ParseError, match=f"^{re.escape(message)}$") as err:
        parse_sentence(text)
    assert err.value.offset == offset


def test_missing_period():
    with pytest.raises(ParseError):
        parse_sentence("Bob is cold")


def test_pronoun_must_agree_with_quantifier():
    with pytest.raises(ParseError):
        parse_sentence("If someone is blue then it is quiet.")
    with pytest.raises(ParseError):
        parse_sentence("If something is blue then they are quiet.")


def test_reserved_words_never_parse_as_content():
    with pytest.raises(ParseError):
        parse_sentence("Bob is then.")


def test_theory_parse_collects_all_errors():
    lines = ["Bob is blue.", "Blue Chris is.", "Dave is.", "Anne is kind."]
    with pytest.raises(TheoryParseError) as err:
        parse_theory(lines)
    positions = [lineno for lineno, _ in err.value.errors]
    assert positions == [2, 3]


def test_theory_ids_number_kept_lines():
    theory = parse_theory(["Bob is blue.", "", "Anne is kind."])
    assert [sid for sid, _ in theory.sentences()] == ["sent1", "sent2"]
    assert [text for _, text in theory.sentences()] == ["Bob is blue.", "Anne is kind."]


def test_each_sentence_is_tokenized_once(monkeypatch):
    """One tokenization per kept line, whichever template matches: a failed
    fact attempt rewinds the same token list for the bare-rule template."""
    lines = [
        "Bob is blue.",
        "",
        "If someone is blue then they are kind.",
        "All kind people are big.",
        "Big people are red.",
    ]
    texts = []
    original = theory_module._tokenize

    def counting(text):
        texts.append(text)
        return original(text)

    monkeypatch.setattr(theory_module, "_tokenize", counting)
    theory = parse_theory(lines)
    assert len(theory.facts) == 1 and len(theory.rules) == 3
    assert texts == [line for line in lines if line]


# ---------------------------------------------------------------------------
# Statements and negation
# ---------------------------------------------------------------------------

def test_statement_parses_ground_facts_only():
    statement = parse_statement("Bob is green.")
    assert statement.atom == Atom(Entity(PROPER, "Bob"), IsAttr("green"), True)
    with pytest.raises(ParseError):
        parse_statement("If someone is blue then they are quiet.")


def test_negate_flips_surface_and_logic():
    statement = parse_statement("Bob is green.")
    negated = negate(statement)
    assert render(negated.atom) == "Bob is not green."
    assert negated.atom.positive is False


def test_negate_is_an_involution():
    for text in ["Bob is green.", "The cat does not like Anne.", "Dave sees Bob."]:
        statement = parse_statement(text)
        assert negate(negate(statement)) == statement
        assert render(negate(negate(statement)).atom) == text


# ---------------------------------------------------------------------------
# Construction constraints
# ---------------------------------------------------------------------------

def test_rule_conclusion_variable_needs_premise_variable():
    with pytest.raises(ValueError):
        Rule(
            "sent1",
            (Atom(Entity(PROPER, "Bob"), IsAttr("blue"), True),),
            Atom(X, IsAttr("kind"), True),
            "things",
            RuleStyle(),
        )


def test_quantified_rule_needs_a_variable_premise():
    bob = Entity(PROPER, "Bob")
    with pytest.raises(ValueError, match="exactly when it is quantified"):
        Rule(
            "sent1",
            (Atom(bob, IsAttr("blue"), True),),
            Atom(bob, IsAttr("kind"), True),
            "people",
            RuleStyle(),
        )


@pytest.mark.parametrize("where", ["premise", "conclusion"])
def test_rule_variable_never_in_object_position(where):
    # The grammar has no sentence whose relation object is the variable.
    bound = Atom(X, IsAttr("blue"), True)
    object_var = Atom(Entity(PROPER, "Bob"), Rel("like", X), True)
    premises = (bound, object_var) if where == "premise" else (bound,)
    conclusion = object_var if where == "conclusion" else Atom(X, IsAttr("kind"), True)
    with pytest.raises(ValueError, match="only be a subject"):
        Rule("sent1", premises, conclusion, "things", RuleStyle())


def test_entity_surface_case_is_validated():
    with pytest.raises(ValueError, match="^bad entity kind 'name'$"):
        Entity("name", "Bob")
    with pytest.raises(ValueError, match="^proper name must be capitalized: 'bob'$"):
        Entity(PROPER, "bob")
    with pytest.raises(ValueError, match="^common noun must be lowercase: 'Cat'$"):
        Entity(COMMON, "Cat")


def test_statement_must_be_ground():
    with pytest.raises(ValueError):
        Statement(Atom(Var("X"), IsAttr("blue"), True))


# ---------------------------------------------------------------------------
# Value types: immutable tuples
# ---------------------------------------------------------------------------

_BOB = Entity(PROPER, "Bob")
_VALUES = [
    _BOB,
    X,
    IsAttr("red"),
    Rel("like", Entity(COMMON, "cat")),
    Atom(_BOB, IsAttr("red")),
]


@pytest.mark.parametrize("value", _VALUES, ids=lambda v: type(v).__name__)
def test_value_fields_cannot_be_assigned(value):
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], value[0])
    with pytest.raises(AttributeError):
        value.extra = 1


def test_atoms_hash_as_the_tuple_of_their_fields():
    for a in (Atom(_BOB, IsAttr("red")), Atom(_BOB, Rel("like", _BOB), False)):
        assert hash(a) == hash((a.subject, a.pred, a.positive))
        assert a == (a.subject, a.pred, a.positive)
        assert a.negated().negated() == a and a.negated() != a


def test_value_reprs_name_their_fields():
    cat = Entity(COMMON, "cat")
    assert repr(Atom(X, Rel("like", cat), False)) == (
        "Atom(subject=Var(name='X'), pred=Rel(verb='like', "
        "obj=Entity(kind='common', surface='cat')), positive=False)"
    )
    assert repr(Atom(_BOB, IsAttr("red"))) == (
        "Atom(subject=Entity(kind='proper', surface='Bob'), "
        "pred=IsAttr(attr='red'), positive=True)"
    )


def test_the_variable_equals_no_attribute():
    """``Var`` and ``IsAttr`` are both 1-tuples, so they are kept apart by
    the variable's name: an attribute is a lowercase word, and "X" is not."""
    with pytest.raises(ParseError, match="expected an attribute, found 'X'"):
        parse_sentence(f"Bob is {X.name}.")
    for attr in (*vocab.GEN_ATTRIBUTES, *vocab.REPLACEMENT_ATTRIBUTES):
        pred = parse_sentence(f"Bob is {attr}.").atom.pred
        assert pred == IsAttr(attr) and pred != Var()


def test_sentence_ids_read_only_ascii_digits():
    assert sentence_number("sent12") == 12
    with pytest.raises(ValueError, match="^bad sentence id "):
        sentence_number("sent\u0663")


# ---------------------------------------------------------------------------
# Property: parse/render round trip over the full surface space
# ---------------------------------------------------------------------------

_subjects = st.one_of(
    st.sampled_from(vocab.GEN_PROPER_NAMES).map(lambda n: Entity(PROPER, n)),
    st.sampled_from(vocab.GEN_PERSON_NOUNS + vocab.GEN_ANIMAL_NOUNS).map(
        lambda n: Entity(COMMON, n)
    ),
)
_attrs = st.sampled_from(vocab.GEN_ATTRIBUTES)
_verbs = st.sampled_from(sorted(vocab.VERB_3SG))


@st.composite
def fact_atoms(draw):
    subject = draw(_subjects)
    if draw(st.booleans()):
        pred = IsAttr(draw(_attrs))
    else:
        pred = Rel(draw(_verbs), draw(_subjects))
    return Atom(subject, pred, draw(st.booleans()))


@settings(max_examples=200, deadline=None)
@given(fact_atoms())
def test_fact_atom_roundtrip(atom):
    text = render(atom)
    parsed = parse_sentence(text)
    assert parsed.atom == atom


@st.composite
def rules(draw):
    quantifier = draw(st.sampled_from(["people", "things", ""]))
    if quantifier:
        subject = X
    else:
        subject = draw(_subjects)
    n = draw(st.integers(1, 3))
    premises = []
    for _ in range(n):
        if draw(st.booleans()):
            pred = IsAttr(draw(_attrs))
        else:
            pred = Rel(draw(_verbs), draw(_subjects))
        premises.append(Atom(subject, pred, draw(st.booleans())))
    conclusion = Atom(subject, IsAttr(draw(_attrs)), draw(st.booleans()))
    attr_only = all(
        isinstance(p.pred, IsAttr) and p.positive for p in premises
    ) and conclusion.positive
    forms = ["if"]
    if quantifier and attr_only:
        forms += ["all", "bare"]
    form = draw(st.sampled_from(forms))
    if form == "if":
        merged = [False]
        for i in range(1, n):
            ok = isinstance(premises[i].pred, IsAttr) and isinstance(
                premises[i - 1].pred, IsAttr
            )
            merged.append(ok and draw(st.booleans()))
        style = RuleStyle("if", tuple(merged))
    else:
        style = RuleStyle(form, tuple(False for _ in premises))
    return Rule("sent1", tuple(premises), conclusion, quantifier, style)


@settings(max_examples=200, deadline=None)
@given(rules())
def test_rule_roundtrip(rule):
    text = render(rule)
    parsed = parse_sentence(text)
    assert parsed.premises == rule.premises
    assert parsed.conclusion == rule.conclusion
    assert parsed.quantifier == rule.quantifier
    assert render(parsed) == text


# ---------------------------------------------------------------------------
# The parser against the token-object reference
# ---------------------------------------------------------------------------

_WORD_RE = re.compile(r"[A-Za-z]+|,|\.")
# every word the grammar reserves and the two punctuation tokens
INSERTED = (*sorted(theory_module.RESERVED_WORDS), ",", ".")
# characters outside the alphabet, the last a non-ASCII letter
STRAY = ("!", ";", "3", "'", "\u00e9")

# Every template and clause shape, the longest lists, and both pronouns.
SEED_SENTENCES = (
    "Bob is red.",
    "The cat is not big.",
    "Anne likes the doctor.",
    "The doctor does not see Bob.",
    "If someone is red and big and not kind then they are blue.",
    "If something likes Bob and it is big then it does not see the cat.",
    "If someone is red and they do not like the cat then they see Anne.",
    "If the cat is red then Bob is kind.",
    "If Bob sees the cat and the cat is red then the cat likes Bob.",
    "All red, big, kind people are blue.",
    "Red, big things are kind.",
    "Kind people are nice.",
)
# a neighbour two edits away from the seeds, and degenerate sentences
EXTRA_SENTENCES = (
    "If someone likes Bob and red then they are big.",
    "", "   ", ".", "Bob is red", "Bob, is red.", "If .",
)


def outcome(parse, *args):
    """What ``parse(*args)`` returns, or what it raises: type, text, and
    the message and offset of every ParseError in it."""
    try:
        return parse(*args)
    except TheoryParseError as e:
        return TheoryParseError, str(e), [(n, err.message, err.offset) for n, err in e.errors]
    except Exception as e:  # any other exception must match too
        return type(e), str(e), getattr(e, "message", None), getattr(e, "offset", None)


def mutations(text):
    """Every malformed neighbour of ``text``: one token deleted,
    duplicated, swapped with the next or case-flipped, one word of
    INSERTED before a token or at the end, or one STRAY character anywhere."""
    spans = [m.span() for m in _WORD_RE.finditer(text)]
    for k, (a, b) in enumerate(spans):
        tok = text[a:b]
        yield text[:a] + text[b:]
        yield text[:b] + " " + tok + text[b:]
        yield text[:a] + tok[0].swapcase() + tok[1:] + text[b:]
        if k + 1 < len(spans):
            c, d = spans[k + 1]
            yield text[:a] + text[c:d] + text[b:c] + tok + text[d:]
    for a in [a for a, _ in spans] + [len(text)]:
        for word in INSERTED:
            yield text[:a] + word + " " + text[a:]
    for i in range(len(text) + 1):
        for ch in STRAY:
            yield text[:i] + ch + text[i:]


def assert_parsers_agree(text):
    expected = outcome(reference_parser.parse_sentence, text, 3)
    assert outcome(parse_sentence, text, 3) == expected, text
    return expected


def test_every_mutation_of_the_seed_sentences_parses_as_the_reference_does():
    """Deterministic and exhaustive over the seed sentences' neighbours. The
    messages seen must be every error the parser can raise, so every raise
    site is compared. The reference's "sentence ended early" is not among
    them: no reader consumes the final period without raising."""
    for seed in SEED_SENTENCES:
        assert isinstance(assert_parsers_agree(seed), (theory_module.Fact, Rule))
    messages = set()
    for text in [*(t for seed in SEED_SENTENCES for t in mutations(seed)), *EXTRA_SENTENCES]:
        result = assert_parsers_agree(text)
        if isinstance(result, tuple):
            assert result[0] is ParseError, (text, result)
            messages.add(re.sub(r"'[^']*'|\"[^\"]*\"", "'_'", result[2]))
    assert messages == {
        "unexpected character '_'",
        "empty sentence",
        "sentence must end with a period",
        "period before end of sentence",
        "sentence matches no template",
        "expected '_', found '_'",
        "unexpected trailing '_'",
        "expected an attribute, found '_'",
        "at most three attributes before the sort",
        "expected a common noun, found '_'",
        "expected '_' or a verb, found '_'",
        "expected a verb, found '_'",
        "expected a name or '_', found '_'",
        "expected '_' or '_', found '_'",
        "a rule has at most three premises",
        "attribute continuation after a non-attribute premise",
        "'_' has no antecedent",
        "expected '_' for this quantifier",
    }, sorted(messages)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), sentence=facts() | if_rules() | sort_rules())
def test_the_parser_agrees_with_the_reference_on_mutated_grammar_draws(data, sentence):
    assert_parsers_agree(sentence)
    texts = list(mutations(sentence))
    for _ in range(data.draw(st.integers(1, 2))):  # one edit, or a second on top
        text = data.draw(st.sampled_from(texts))
        assert_parsers_agree(text)
        texts = list(mutations(text))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data(), lines=theories())
def test_parse_theory_agrees_with_the_reference_on_multi_line_theories(data, lines):
    lines = list(lines)
    for _ in range(data.draw(st.integers(0, 3))):
        k = data.draw(st.integers(0, len(lines) - 1))
        lines[k] = data.draw(st.sampled_from(list(mutations(lines[k]))))
    for _ in range(data.draw(st.integers(0, 2))):
        lines.insert(data.draw(st.integers(0, len(lines))), data.draw(st.sampled_from(("", "  "))))
    expected = outcome(reference_parser.parse_theory, lines, "T")
    assert outcome(parse_theory, lines, "T") == expected
    assert outcome(parse_statement, lines[0]) == outcome(reference_parser.parse_statement, lines[0])
