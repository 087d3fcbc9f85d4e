"""The proof checker as it was before it accepted only canonical proofs,
kept verbatim as the soundness half of the reference that
tests/test_canonical_proofs.py compares the package's checker with, plus
the full round trip that makes it canonical-only.

``reference_check_proof`` runs every check of the old checker, one segment
at a time with no memo, then re-serialises the proof with
``canonical_proof_string`` over the derivations it names and rejects a
string that differs. When a proof derives one atom twice, the first
derivation is the one kept, which keeps the derivations acyclic; the
writer then writes fewer steps, so the string differs. The package's
checker must accept exactly the proofs this accepts, with equal steps.
"""
from __future__ import annotations

import functools
import re
from collections.abc import Sequence

from rulechain.reasoner import (
    LABEL_FALSE,
    LABEL_TRUE,
    CompiledTheory,
    ProofCheckError,
    canonical_proof_string,
    compile_theory,
)
from rulechain.theory import Atom, Statement, Theory


def reference_check_proof(
    theory: Theory, statement: Statement, label: str, canonical_form: str
) -> list[tuple[str, list[Atom], Atom]]:
    steps = check_proofs(theory, statement, label, (canonical_form,))[0]
    tables = compile_theory(theory)
    goal = tables.number(statement.atom) ^ (label == LABEL_FALSE)
    derivations: dict[int, tuple[str, tuple[int, ...]]] = {}
    for rule_id, premises, conclusion in steps:
        derivations.setdefault(
            tables.number(conclusion), (rule_id, tuple(map(tables.number, premises)))
        )
    written, _ = canonical_proof_string(goal, tables.given_ids, derivations)
    if written != canonical_form:
        raise ProofCheckError(f"proof is not in canonical form: the writer gives {written!r}")
    return steps


@functools.lru_cache(maxsize=4096)
def _id_sort_key(fid: str) -> tuple[int, int]:
    m = re.fullmatch(r"(sent|int)(\d+)", fid)
    if not m:
        raise ValueError(f"bad fact id {fid!r}")
    return (0 if m.group(1) == "sent" else 1, int(m.group(2)))


_GIVEN_PROOF_RE = re.compile(r"(sent\d+) -> hypothesis")
_STEP_RE = re.compile(
    r"\((sent\d+) & ((?:sent\d+|int\d+)(?: (?:sent\d+|int\d+))*)\) -> (int\d+|hypothesis)"
)


def check_proofs(
    theory: Theory,
    statement: Statement,
    label: str,
    forms: Sequence[str],
) -> list[list[tuple[str, list[Atom], Atom]]]:
    """Validate canonical proof strings against a theory and statement.

    This is the one reader of the canonical form. For each proof it returns
    the steps in serialized order as (rule id, premise atoms, conclusion
    atom), with the premises in the string's canonical fact-id order; a
    degenerate given-fact proof has no steps. Raises ProofCheckError for
    the first proof that is malformed or unsound. ``label`` says what the
    proofs claim: "true" (proves the statement) or "false" (proves its
    negation).

    Every segment of every proof gets all of its checks, so the result and
    the first error are those of separate ``check_proof`` calls. Each step
    is composed on the theory's compiled tables (``CompiledTheory.compose``),
    on atom numbers, so a step that several proofs of a theory share is
    matched against its rule once. The returned atoms are the tables' one
    atom per number: equal atoms are one object, and ``evalkit`` relies on
    this to render each distinct conclusion once, keyed by identity.
    """
    if not forms:
        return []
    tables = compile_theory(theory)
    if label == LABEL_TRUE:
        goal = tables.number(statement.atom)
    elif label == LABEL_FALSE:
        goal = tables.number(statement.atom) ^ 1
    else:
        raise ProofCheckError("only true/false verdicts carry proofs")
    return [_check_form(tables, goal, f) for f in forms]


def _check_form(
    tables: CompiledTheory, goal: int, canonical_form: str
) -> list[tuple[str, list[Atom], Atom]]:
    single = _GIVEN_PROOF_RE.fullmatch(canonical_form)
    if single:
        fid = single.group(1)
        n = tables.sentence_numbers.get(fid)
        if n is None:
            raise ProofCheckError(f"{fid} is not a given fact")
        if n != goal:
            raise ProofCheckError("given fact does not match the hypothesis")
        return []

    segments = canonical_form.split(" ; ")
    bound: dict[str, int] = {}  # intN -> its atom's number
    used: set[str] = set()
    steps: list[tuple[str, list[Atom], Atom]] = []
    for k, seg in enumerate(segments):
        m = _STEP_RE.fullmatch(seg)
        if not m:
            raise ProofCheckError(f"malformed step {seg!r}")
        rule_id, fact_part, target_id = m.groups()
        fact_ids = fact_part.split(" ")
        i = tables.rule_index.get(rule_id)
        if i is None:
            raise ProofCheckError(f"{rule_id} is not a rule")
        if len(fact_ids) > 1 and fact_ids != sorted(fact_ids, key=_id_sort_key):
            raise ProofCheckError(f"fact ids out of canonical order in {seg!r}")
        premises: list[int] = []
        for fid in fact_ids:
            if fid.startswith("sent"):
                n = tables.sentence_numbers.get(fid)
                if n is None:
                    raise ProofCheckError(f"{fid} is not a given fact")
            else:
                n = bound.get(fid)
                if n is None:
                    raise ProofCheckError(f"{fid} used before it is derived")
                used.add(fid)
            premises.append(n)
        if len(premises) != len(tables.rules[i].premises):
            raise ProofCheckError(f"{rule_id} takes {len(tables.rules[i].premises)} facts")
        conclusion = tables.compose(i, tuple(premises))
        if conclusion is None:
            raise ProofCheckError(f"facts do not match the premises of {rule_id}")
        last = k == len(segments) - 1
        if target_id == "hypothesis":
            if not last:
                raise ProofCheckError("hypothesis must be the final step")
            if conclusion != goal:
                raise ProofCheckError("final conclusion does not match the hypothesis")
        else:
            if last:
                raise ProofCheckError("final step must target the hypothesis")
            expected = f"int{len(bound) + 1}"
            if target_id != expected:
                raise ProofCheckError(
                    f"intermediates must be numbered in order: got {target_id}, want {expected}"
                )
            bound[target_id] = conclusion
        steps.append((rule_id, [tables.atom(n) for n in premises], tables.atom(conclusion)))
    dangling = set(bound) - used
    if dangling:
        raise ProofCheckError(f"unused intermediates: {sorted(dangling)}")
    return steps
