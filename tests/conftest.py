import string

import pytest

from rulechain.theory import parse_statement, parse_theory

# A 2-chain: one fact, two single-premise rules.
CHAIN2_LINES = [
    "Bob is blue.",
    "If someone is blue then they are quiet.",
    "If someone is quiet then they are smart.",
]

# One conjunctive rule fed by two facts, plus a decoy fact.
CONJ_LINES = [
    "Harry is big.",
    "If someone is white and round then they are happy.",
    "Dave is white.",
    "Dave is round.",
]

# Two derivation paths of equal length to the same conclusion.
DIAMOND_LINES = [
    "Bob is red.",
    "If someone is red then they are kind.",
    "If someone is red then they are nice.",
    "If someone is kind then they are smart.",
    "If someone is nice then they are smart.",
]

# Two one-premise rules from one fact feed a two-premise rule: a valid proof
# of "Bob is smart.", and proofs with one fault each whose steps all repeat
# steps of SHARED_PROOF, so a gold-set check that shares work between proofs
# must still find the fault.
SHARED_LINES = [
    "Bob is red.",
    "If someone is red then they are big.",
    "If someone is red then they are kind.",
    "If someone is big and kind then they are smart.",
]
SHARED_STATEMENT = "Bob is smart."
SHARED_PROOF = (
    "(sent2 & sent1) -> int1 ; (sent3 & sent1) -> int2 ; (sent4 & int1 int2) -> hypothesis"
)
FAULTY_AFTER_SHARED = {
    # the premises of the last step are SHARED_PROOF's, named int2 int1
    "fact_ids_out_of_order": (
        "(sent3 & sent1) -> int1 ; (sent2 & sent1) -> int2 ; (sent4 & int2 int1) -> hypothesis"
    ),
    "wrong_intermediate_number": (
        "(sent2 & sent1) -> int2 ; (sent3 & sent1) -> int3 ; (sent4 & int2 int3) -> hypothesis"
    ),
    "dangling_intermediate": (
        "(sent2 & sent1) -> int1 ; (sent2 & sent1) -> int2 ; (sent3 & sent1) -> int3 ; "
        "(sent4 & int1 int3) -> hypothesis"
    ),
    "hypothesis_not_last": SHARED_PROOF + " ; (sent2 & sent1) -> int3",
    "last_step_not_the_hypothesis": SHARED_PROOF.replace("hypothesis", "int3"),
    "wrong_final_conclusion": "(sent2 & sent1) -> hypothesis",
    "intermediate_used_before_derived": "(sent4 & int1 int2) -> hypothesis",
    # the final segment is SHARED_PROOF's text, on other premises
    "same_final_text_other_premises": (
        "(sent2 & sent1) -> int1 ; (sent2 & sent1) -> int2 ; (sent4 & int1 int2) -> hypothesis"
    ),
    "malformed_step": SHARED_PROOF.replace("int1 int2", "int1  int2"),
    "unknown_rule": SHARED_PROOF.replace("(sent4", "(sent9"),
    "unknown_sentence": SHARED_PROOF.replace("(sent3 & sent1)", "(sent3 & sent9)"),
    "wrong_arity": SHARED_PROOF.replace("int1 int2", "sent1 int1 int2"),
    # sound, but the writer puts the sent2 step first
    "swapped_siblings": (
        "(sent3 & sent1) -> int1 ; (sent2 & sent1) -> int2 ; (sent4 & int1 int2) -> hypothesis"
    ),
}


def diamond_ladder_lines(layers=7):
    """Bob is a0; a_i -> b_i, a_i -> c_i, b_i -> a_i+1, c_i -> a_i+1.

    2**layers equal-depth proofs of the last a, more than the gold cap of
    64 once layers reach 7, and more than the enumeration's hard limit of
    8 x 64 from 10. The rule order (a->b, a->c, c->a, b->a) makes both
    strategies find a sound proof that the capped list leaves out. At most
    25 layers, one letter per level.
    """
    def attr(kind, i):
        return f"{kind}{string.ascii_lowercase[i]}x"

    rule = "If someone is {} then they are {}."
    lines = [f"Bob is {attr('a', 0)}."]
    lines += [rule.format(attr("a", i), attr("b", i)) for i in range(layers)]
    lines += [rule.format(attr("a", i), attr("c", i)) for i in range(layers)]
    lines += [rule.format(attr("c", i), attr("a", i + 1)) for i in range(layers)]
    lines += [rule.format(attr("b", i), attr("a", i + 1)) for i in range(layers)]
    return lines, f"Bob is {attr('a', layers)}."


@pytest.fixture
def chain2():
    return parse_theory(CHAIN2_LINES)


@pytest.fixture
def conj():
    return parse_theory(CONJ_LINES)


@pytest.fixture
def diamond():
    return parse_theory(DIAMOND_LINES)


@pytest.fixture
def stmt():
    return parse_statement
