"""Word lists for the controlled-English fragment.

Two families of pools live here. The generation pools are the vocabulary
the generator synthesizes rulebases from. The replacement pools are a held-out
vocabulary used only when perturbing an existing rulebase, so a perturbed
theory never reuses generation tokens. The two families are disjoint.

Common nouns are partitioned into person nouns and animal nouns. Quantified
rules over "people" only ever bind person subjects (proper names or person
nouns), so a renaming that swaps a person noun for an animal noun could
flip an answer. The perturbation machinery therefore samples replacements
within the same partition.
"""
from __future__ import annotations

# Verbs are a closed class: morphology is table-driven, never computed.
VERB_3SG: dict[str, str] = {
    "like": "likes",
    "visit": "visits",
    "eat": "eats",
    "need": "needs",
    "see": "sees",
    "chase": "chases",
    "help": "helps",
    "call": "calls",
}
VERB_BASE_BY_3SG: dict[str, str] = {v: k for k, v in VERB_3SG.items()}

GEN_PROPER_NAMES: tuple[str, ...] = (
    "Charlie", "Bob", "Dave", "Harry", "Anne", "Erin",
    "Fiona", "Gary", "Tina", "Bella", "Max", "Nina",
)
GEN_PERSON_NOUNS: tuple[str, ...] = (
    "doctor", "lawyer", "nurse", "farmer", "baker", "singer",
    "dancer", "pilot", "plumber", "barber", "tailor", "judge",
)
GEN_ANIMAL_NOUNS: tuple[str, ...] = (
    "cat", "dog", "mouse", "rabbit", "squirrel", "tiger", "lion", "bear",
)
GEN_ATTRIBUTES: tuple[str, ...] = (
    "blue", "quiet", "cold", "red", "green", "kind", "nice", "white",
    "smart", "young", "big", "rough", "furry", "round", "happy", "sad",
    "tall", "strong", "weak", "clever", "gentle", "bright", "dull",
    "heavy", "clean", "sharp", "wild", "calm", "neat", "proud",
)

REPLACEMENT_PROPER_NAMES: tuple[str, ...] = (
    "George", "Paul", "Ronald", "Emma", "Magnus", "Timothy",
    "Chris", "Molly", "Diana", "Joseph", "Becky", "Kurt",
    "Ivan", "Steve", "Laura", "Oliver", "Adam", "Larry",
)
REPLACEMENT_PERSON_NOUNS: tuple[str, ...] = (
    "mother", "father", "baby", "child", "toddler", "teenager",
    "grandmother", "student", "teacher", "thief", "soldier", "officer",
    "artist", "shopkeeper", "caretaker", "janitor", "minister",
    "salesman", "saleswoman", "runner", "racer", "painter",
    "dresser", "shoplifter",
)
REPLACEMENT_ANIMAL_NOUNS: tuple[str, ...] = (
    "alligator", "cricket", "bird", "wolf", "giraffe", "dinosaur",
)
REPLACEMENT_ATTRIBUTES: tuple[str, ...] = (
    "maroon", "brown", "black", "orange", "cordial", "friendly",
    "adorable", "old", "soft", "violent", "intelligent", "square",
    "warm", "large", "cylindrical", "spherical", "tiny", "microscopic",
    "brilliant", "noisy", "playful", "tender", "gracious", "patient",
    "funny", "hilarious", "thorny", "sensitive", "diplomatic", "thoughtful",
)

# Common nouns that denote people; any other noun, known or not, is a thing.
PERSON_NOUNS: frozenset[str] = frozenset(GEN_PERSON_NOUNS) | frozenset(REPLACEMENT_PERSON_NOUNS)
