"""Seeded raw inputs for the benchmark workloads.

Every function here uses only the standard library, so building inputs does
not depend on the package under test. The seed picks names, sentence order
and which questions are asked; the shape of each workload (how many
theories, entities, chains and questions) is fixed by its size, so runs at
different seeds do the same amount of work.

* corpus: the generator's own default shape at depths 0..5. The raw inputs
  are ``rulechain gen`` argument lists; the corpus itself is produced by
  the timed ``gen`` stage.
* chain: theories whose N entities all hold ``base`` plus M parallel
  depth-5 chains ``If something is X then it is Y.``. The closure has
  N * M * 5 facts, so selection cost dominates.
* proofs: small theories (one or two entities) built from W-way diamonds
  ``aI -> bIj -> aI+1``. Depth-4 and depth-5 statements have W * W
  equal-depth proofs, more than the gold cap, so gold-proof enumeration
  and proof checking dominate.
"""
from __future__ import annotations

import random
from dataclasses import dataclass

DEFAULT_SEED = 0
DEPTHS = (1, 2, 3, 4, 5)

_CONSONANTS = "bdfgklmnprstvz"
_VOWELS = "aeiou"


@dataclass(frozen=True)
class RawTheory:
    """One theory as the user would write it: sentences plus questions."""

    id: str
    sentences: tuple[str, ...]
    statements: tuple[str, ...]


@dataclass(frozen=True)
class Sizes:
    """Workload sizes. Every workload is split into shards, and each stage
    runs once per shard; see ``run.py`` for why."""

    corpus_shards: int
    corpus_theories: int  # per shard
    chain_theories: int
    chain_per_shard: int
    chain_entities: int
    chain_chains: int
    proofs_theories: int
    proofs_per_shard: int
    proofs_width: int


FULL = Sizes(
    corpus_shards=6,
    corpus_theories=6,
    chain_theories=6,
    chain_per_shard=1,
    chain_entities=8,
    chain_chains=4,
    proofs_theories=12,
    proofs_per_shard=2,
    proofs_width=10,
)

# Small enough for a smoke test to run every stage in about a second.
TINY = Sizes(
    corpus_shards=2,
    corpus_theories=3,
    chain_theories=2,
    chain_per_shard=1,
    chain_entities=3,
    chain_chains=2,
    proofs_theories=3,
    proofs_per_shard=1,
    proofs_width=3,
)


def _words(rng: random.Random, n: int) -> list[str]:
    """``n`` distinct lowercase pseudo-words of three syllables.

    Three consonant-vowel syllables never spell a reserved word or a verb
    of the grammar, and never end in ``s``, so the parser reads them as
    plain attributes and names.
    """
    out: dict[str, None] = {}
    while len(out) < n:
        word = "".join(rng.choice(_CONSONANTS) + rng.choice(_VOWELS) for _ in range(3))
        out.setdefault(word)
    return list(out)


def _names(words: list[str]) -> list[str]:
    return [w.capitalize() for w in words]


def corpus_argv(seed: int, shard: int, sizes: Sizes, out: str) -> list[str]:
    """``rulechain gen`` arguments for one corpus shard; every shard has its
    own generator seed."""
    return [
        "gen", "--out", out, "--theories", str(sizes.corpus_theories),
        "--depths", "0..5", "--seed", str(seed * 1000 + shard),
    ]


def chunks(items: list, size: int) -> list[list]:
    return [items[i:i + size] for i in range(0, len(items), size)]


def chain_theories(seed: int, sizes: Sizes) -> list[RawTheory]:
    theories = []
    n, m = sizes.chain_entities, sizes.chain_chains
    for t in range(sizes.chain_theories):
        rng = random.Random(f"chain:{seed}:{t}")
        words = _words(rng, n + 1 + m * len(DEPTHS) + 1)
        base = words[n]
        attrs = [
            words[n + 1 + c * len(DEPTHS): n + 1 + (c + 1) * len(DEPTHS)]
            for c in range(m)
        ]
        fresh = words[-1]
        facts = [f"{e} is {base}." for e in _names(words[:n])]
        rules = []
        for chain in attrs:
            prev = base
            for attr in chain:
                rules.append(f"If something is {prev} then it is {attr}.")
                prev = attr
        sentences = facts + rules
        rng.shuffle(sentences)
        # Entities in order of first mention, which is the order the engine
        # tries bindings in. A goal question's cost grows with its entity's
        # rank, so questions take ranks evenly spread over that order, and
        # every run asks about the same ranks at the same depths.
        ranked = [line.split(" ", 1)[0] for line in sentences if line in facts]
        statements = []
        for d in DEPTHS:
            for c in range(m):
                k = (d - 1) * m + c
                entity = ranked[k * n // (m * len(DEPTHS))]
                kind = k % 3
                if kind == 2:
                    statements.append(f"{entity} is {fresh}.")
                else:
                    negation = "not " if kind == 1 else ""
                    statements.append(f"{entity} is {negation}{attrs[c][d - 1]}.")
        theories.append(RawTheory(f"chain{t + 1:03d}", tuple(sentences), tuple(statements)))
    return theories


def proofs_theories(seed: int, sizes: Sizes) -> list[RawTheory]:
    theories = []
    w = sizes.proofs_width
    for t in range(sizes.proofs_theories):
        rng = random.Random(f"proofs:{seed}:{t}")
        n_entities = 1 + t % 2
        words = _words(rng, n_entities + 3 + 3 * w + 1)
        names = _names(words[:n_entities])
        a = words[n_entities:n_entities + 3]
        b = [words[n_entities + 3 + i * w: n_entities + 3 + (i + 1) * w] for i in range(3)]
        fresh = words[-1]
        sentences = [f"{e} is {a[0]}." for e in names]
        for layer in range(3):
            for attr in b[layer]:
                sentences.append(f"If something is {a[layer]} then it is {attr}.")
                if layer < 2:
                    sentences.append(f"If something is {attr} then it is {a[layer + 1]}.")
        rng.shuffle(sentences)
        # depth 2i+1 is a b-attribute of layer i, depth 2i+2 is a[i+1]
        by_depth = {1: b[0], 2: [a[1]], 3: b[1], 4: [a[2]], 5: b[2]}
        statements = []
        for d in DEPTHS:
            # true, false and unknown take turns, so every run asks each
            # kind equally often at every depth
            kind = (t + d) % 3
            if kind == 2:
                statements.append(f"{rng.choice(names)} is {fresh}.")
            else:
                negation = "not " if kind == 1 else ""
                statements.append(f"{rng.choice(names)} is {negation}{rng.choice(by_depth[d])}.")
        theories.append(RawTheory(f"proofs{t + 1:03d}", tuple(sentences), tuple(statements)))
    return theories
