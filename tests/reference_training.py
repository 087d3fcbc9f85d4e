"""The training-record emitter as it was before records were written from
per-instance encoded fragments, kept verbatim as the reference that
tests/test_datagen.py compares the package's emitter with: on every input,
each line the package writes must equal ``json.dumps(record,
sort_keys=True, separators=(",", ":")) + "\n"`` of the record built here,
in the same order.

Every record here is a dict that copies the instance's rule texts and the
facts so far; the package encodes each text once per instance and splices
the encoded pieces into each line.
"""
from __future__ import annotations

from rulechain.datagen import GoldProofError, Instance, _may_contradict, gold_closure
from rulechain.reasoner import ProofCheckError, check_proof
from rulechain.theory import render


def emit_training_records(instance: Instance) -> dict[str, list[dict]]:
    """Per-question supervision records for the three learned roles.

    The steps come from each question's first gold proof, ``proofs[0]``,
    read through ``check_proof``. For every step there is one
    rule-selection record (which rule to fire given the statement, the
    facts so far, and all rules), one fact-selection record (which fact
    indices feed that rule), and one composition record (rule text plus
    fact texts to conclusion text). Each question additionally contributes
    one terminal rule-selection record whose output is "STOP"; unknown
    questions and given-fact proofs contribute only that. Indices are
    0-based positions into the record's own fact and rule lists.

    Raises GoldProofError for a contradictory theory or for a ``proofs[0]``
    that fails ``check_proof``.
    """
    if _may_contradict(instance.theory) and gold_closure(instance.theory).contradiction:
        raise GoldProofError(instance, instance.id, "the theory is contradictory")
    rule_texts = [render(r) for r in instance.theory.rules]
    rule_index = {r.id: i for i, r in enumerate(instance.theory.rules)}
    given_texts = [render(f.atom) for f in instance.theory.facts]
    given_position = {f.atom: i for i, f in enumerate(instance.theory.facts)}
    rs: list[dict] = []
    fs: list[dict] = []
    kc: list[dict] = []
    for q in instance.questions:
        steps = []
        if q.annotation.proofs:
            try:
                steps = check_proof(
                    instance.theory, q.statement, q.annotation.label, q.annotation.proofs[0]
                )
            except ProofCheckError as e:
                raise GoldProofError(instance, q.id, str(e)) from None
        facts_so_far = list(given_texts)
        position = dict(given_position)
        for rule_id, premises, conclusion in steps:
            text = render(conclusion)
            premise_indices = sorted(position[p] for p in premises)
            rs.append(
                {
                    "question_id": q.id,
                    "statement": q.text,
                    "facts": list(facts_so_far),
                    "rules": list(rule_texts),
                    "output": rule_index[rule_id],
                }
            )
            fs.append(
                {
                    "question_id": q.id,
                    "statement": q.text,
                    "rule": rule_texts[rule_index[rule_id]],
                    "facts": list(facts_so_far),
                    "output": premise_indices,
                }
            )
            kc.append(
                {
                    "question_id": q.id,
                    "rule": rule_texts[rule_index[rule_id]],
                    "facts": [facts_so_far[i] for i in premise_indices],
                    "output": text,
                }
            )
            position[conclusion] = len(facts_so_far)
            facts_so_far.append(text)
        rs.append(
            {
                "question_id": q.id,
                "statement": q.text,
                "facts": list(facts_so_far),
                "rules": list(rule_texts),
                "output": "STOP",
            }
        )
    return {"rs": rs, "fs": fs, "kc": kc}
