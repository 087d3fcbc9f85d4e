"""Closure oracle, gold annotation, the generator, perturbation, training."""
import json
import random
import re
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rulechain.datagen as datagen_module
from rulechain import vocab
from rulechain.datagen import (
    ContradictionError,
    GenConfig,
    GenerationError,
    GoldProofError,
    Instance,
    PoolExhaustedError,
    Question,
    RenamingMap,
    apply_renaming,
    assign_gold,
    d3_like_config,
    emit_training_records,
    equivalence_from_row,
    equivalence_to_rows,
    generate_dataset,
    generate_instance,
    gold_closure,
    instance_from_json,
    instance_to_json,
    perturb,
    seed_substream,
)
from rulechain.jsonlio import read_jsonl
from rulechain.reasoner import check_proof, run, solve, substitute
from rulechain.strategies import make_strategy
from rulechain.theory import (
    Atom,
    Entity,
    IsAttr,
    PROPER,
    QUANT_NONE,
    Statement,
    parse_statement,
    parse_theory,
    render,
)

from conftest import diamond_ladder_lines
from grammar_theories import facts, theories
from grammar_theories import extend_theory, irrelevant_sentences
from reference_training import emit_training_records as reference_training_records
from test_golden import DATASETS, GOLDEN


# ---------------------------------------------------------------------------
# Closure oracle
# ---------------------------------------------------------------------------

def test_closure_records_depths_and_derivations(chain2):
    closure = gold_closure(chain2)
    bob = Entity(PROPER, "Bob")
    blue = Atom(bob, IsAttr("blue"), True)
    quiet = Atom(bob, IsAttr("quiet"), True)
    smart = Atom(bob, IsAttr("smart"), True)
    assert closure.given == {blue: "sent1"}
    assert closure.derived == [quiet, smart]
    assert closure.depth == {blue: 0, quiet: 1, smart: 2}
    assert closure.derivations[quiet] == [("sent2", (blue,))]
    assert closure.derivations[smart] == [("sent3", (quiet,))]
    assert not closure.contradiction


def test_closure_flags_derived_contradictions():
    theory = parse_theory(
        [
            "Bob is blue.",
            "Bob is kind.",
            "If someone is blue then they are not kind.",
        ]
    )
    assert gold_closure(theory).contradiction
    with pytest.raises(ContradictionError):
        assign_gold(theory, parse_statement("Bob is kind."))


def test_closure_handles_cyclic_rules_without_looping():
    theory = parse_theory(
        [
            "If someone is kind then they are nice.",
            "If someone is nice then they are kind.",
            "Bob is kind.",
        ]
    )
    closure = gold_closure(theory)
    nice = Atom(Entity(PROPER, "Bob"), IsAttr("nice"), True)
    kind = Atom(Entity(PROPER, "Bob"), IsAttr("kind"), True)
    assert closure.depth[nice] == 1
    assert closure.depth[kind] == 0  # given beats the 2-step loop
    assert len(closure.derivations[kind]) == 1  # the loop derivation exists


# ---------------------------------------------------------------------------
# Gold annotation and proof enumeration
# ---------------------------------------------------------------------------

def test_assign_gold_three_labels(chain2):
    true_ann = assign_gold(chain2, parse_statement("Bob is smart."))
    assert (true_ann.label, true_ann.depth) == ("true", 2)
    assert true_ann.proofs == (
        "(sent2 & sent1) -> int1 ; (sent3 & int1) -> hypothesis",
    )

    false_ann = assign_gold(chain2, parse_statement("Bob is not smart."))
    assert (false_ann.label, false_ann.depth) == ("false", 2)
    assert false_ann.proofs == true_ann.proofs

    unknown_ann = assign_gold(chain2, parse_statement("Bob is green."))
    assert (unknown_ann.label, unknown_ann.depth) == ("unknown", "N/A")
    assert unknown_ann.proofs == ()


def test_diamond_enumerates_both_proofs(diamond):
    ann = assign_gold(diamond, parse_statement("Bob is smart."))
    assert ann.depth == 2
    assert ann.proofs == (
        "(sent2 & sent1) -> int1 ; (sent4 & int1) -> hypothesis",
        "(sent3 & sent1) -> int1 ; (sent5 & int1) -> hypothesis",
    )
    assert not ann.proofs_truncated


def test_given_fact_with_longer_rederivation_lists_both_proofs():
    theory = parse_theory(
        [
            "If someone is kind then they are nice.",
            "If someone is nice then they are kind.",
            "Bob is kind.",
        ]
    )
    ann = assign_gold(theory, parse_statement("Bob is kind."))
    assert ann.depth == 0
    assert ann.proofs == (
        "sent3 -> hypothesis",
        "(sent1 & sent3) -> int1 ; (sent2 & int1) -> hypothesis",
    )


def test_proof_cap_truncates_and_flags():
    # Four parallel 1-step routes to the same conclusion.
    theory = parse_theory(
        [
            "Bob is blue.",
            "Bob is red.",
            "Bob is cold.",
            "Bob is big.",
            "If someone is blue then they are smart.",
            "If someone is red then they are smart.",
            "If someone is cold then they are smart.",
            "If someone is big then they are smart.",
        ]
    )
    full = assign_gold(theory, parse_statement("Bob is smart."))
    assert len(full.proofs) == 4
    assert not full.proofs_truncated
    capped = assign_gold(theory, parse_statement("Bob is smart."), proof_cap=2)
    assert len(capped.proofs) == 2
    assert capped.proofs_truncated
    assert capped.proofs == full.proofs[:2]


@pytest.mark.parametrize("cap", [0, -1])
def test_proof_cap_below_one_is_rejected(cap):
    """A cap of 0 would label a known statement with no proofs, which
    ``instance_from_json`` rejects, and a negative cap would slice from the
    end of the ranked set."""
    theory = parse_theory(["Bob is red.", "If something is red then it is big."])
    with pytest.raises(ValueError, match="proof_cap"):
        assign_gold(theory, parse_statement("Bob is big."), proof_cap=cap)


def test_gold_proofs_sorted_by_depth_first():
    theory = parse_theory(
        [
            "Bob is blue.",
            "If someone is blue then they are quiet.",
            "If someone is quiet then they are smart.",
            "If someone is blue then they are smart.",
        ]
    )
    ann = assign_gold(theory, parse_statement("Bob is smart."))
    assert ann.depth == 1
    assert ann.proofs == (
        "(sent4 & sent1) -> hypothesis",
        "(sent2 & sent1) -> int1 ; (sent3 & int1) -> hypothesis",
    )


def test_every_gold_proof_passes_the_checker(diamond):
    statement = parse_statement("Bob is smart.")
    ann = assign_gold(diamond, statement)
    for proof in ann.proofs:
        *_, (_, _, conclusion) = check_proof(diamond, statement, ann.label, proof)
        assert render(conclusion) == "Bob is smart."


# ---------------------------------------------------------------------------
# Generator
# ---------------------------------------------------------------------------

def test_generated_instances_verify_against_engine_and_oracle():
    cfg = GenConfig(target_depths=(0, 1, 2, 3, 4, 5), theories=6, seed=13)
    for inst in generate_dataset(cfg):
        closure = gold_closure(inst.theory)
        assert not closure.contradiction
        labels = [q.annotation.label for q in inst.questions]
        assert labels.count("true") == labels.count("false") == labels.count("unknown")
        for q in inst.questions:
            again = assign_gold(inst.theory, q.statement, closure)
            assert again == q.annotation
            strategy = make_strategy("goal", inst.theory, q.statement)
            verdict = solve(
                q.statement, run(inst.theory, q.statement, strategy)
            )
            assert verdict.label == q.annotation.label


def test_depth_cycle_and_question_mix():
    cfg = GenConfig(target_depths=(2,), theories=2, seed=1)
    for inst in generate_dataset(cfg):
        depths = [q.annotation.depth for q in inst.questions]
        assert depths == [0, 0, "N/A", 1, 1, "N/A", 2, 2, "N/A"]


def test_unknown_target_depth_yields_unknown_only():
    cfg = GenConfig(target_depths=("unknown",), theories=2, seed=3)
    for inst in generate_dataset(cfg):
        assert [q.annotation.label for q in inst.questions] == ["unknown"]


def test_every_generated_sentence_reparses():
    cfg = GenConfig(target_depths=(3,), theories=5, seed=21)
    for inst in generate_dataset(cfg):
        lines = [text for _, text in inst.theory.sentences()]
        again = parse_theory(lines, inst.theory.id)
        assert [render(f) for f in again.facts] == [
            render(f) for f in inst.theory.facts
        ]
        assert [render(r) for r in again.rules] == [
            render(r) for r in inst.theory.rules
        ]


def test_generation_is_deterministic_per_seed():
    cfg = GenConfig(target_depths=(0, 1, 2), theories=5, seed=42)
    a = [instance_to_json(i) for i in generate_dataset(cfg)]
    b = [instance_to_json(i) for i in generate_dataset(cfg)]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    c = [instance_to_json(i) for i in generate_dataset(GenConfig(
        target_depths=(0, 1, 2), theories=5, seed=43))]
    assert json.dumps(a, sort_keys=True) != json.dumps(c, sort_keys=True)


def test_substreams_are_independent_of_consumption():
    cfg5 = GenConfig(target_depths=(1,), theories=5, seed=9)
    cfg3 = GenConfig(target_depths=(1,), theories=3, seed=9)
    five = [instance_to_json(i) for i in generate_dataset(cfg5)]
    three = [instance_to_json(i) for i in generate_dataset(cfg3)]
    assert five[:3] == three


def test_bad_configs_are_rejected():
    with pytest.raises(GenerationError):
        generate_dataset(GenConfig(target_depths=()))
    with pytest.raises(GenerationError):
        generate_dataset(GenConfig(target_depths=(7,)))
    with pytest.raises(GenerationError):
        generate_dataset(GenConfig(distractor_len_range=(3, 1)))


def test_generator_gives_up_when_pools_are_too_small():
    # 30 distractor chains need more attributes than the 30 in the pool
    cfg = GenConfig(target_depths=(5,), theories=1, distractor_chains=30)
    with pytest.raises(GenerationError, match=r"25 attempts \(attribute pool exhausted\)"):
        generate_instance(cfg, 5, random.Random(0), 1)


def test_d3_like_config_shape():
    cfg = d3_like_config(theories=7, seed=5)
    assert cfg.target_depths == (3,)
    assert cfg.theories == 7
    insts = generate_dataset(cfg)
    assert len(insts) == 7
    for inst in insts:
        assert max(
            q.annotation.depth
            for q in inst.questions
            if isinstance(q.annotation.depth, int)
        ) == 3


def test_seed_substream_is_stable():
    assert seed_substream(0, 0) == seed_substream(0, 0)
    assert seed_substream(0, 0) != seed_substream(0, 1)
    assert seed_substream(0, 1) != seed_substream(1, 0)


# ---------------------------------------------------------------------------
# Augmentation with irrelevant sentences
# ---------------------------------------------------------------------------

def test_irrelevant_sentences_never_change_verdicts():
    cfg = GenConfig(target_depths=(0, 1, 2), theories=6, seed=17)
    rng = random.Random(99)
    for inst in generate_dataset(cfg):
        extra = irrelevant_sentences(inst.theory, rng, n_facts=2, n_rules=2)
        assert extra
        bigger = extend_theory(inst.theory, extra)
        assert len(bigger.facts) + len(bigger.rules) == len(inst.theory.facts) + len(
            inst.theory.rules
        ) + len(extra)
        for q in inst.questions:
            before = q.annotation
            after = assign_gold(bigger, q.statement)
            assert after.label == before.label
            assert after.depth == before.depth


def test_extension_keeps_existing_sentence_ids(chain2):
    bigger = extend_theory(chain2, ["Anne is red."])
    assert dict(chain2.sentences()).items() <= dict(bigger.sentences()).items()


# ---------------------------------------------------------------------------
# Perturbation
# ---------------------------------------------------------------------------

def fixed_instance(seed=31):
    cfg = GenConfig(target_depths=(2,), theories=1, seed=seed)
    return generate_dataset(cfg)[0]


def test_perturb_modes_rename_their_category_only():
    inst = fixed_instance()
    base_text = json.dumps(instance_to_json(inst))

    subject_set = perturb(inst, "subject", random.Random(0), n=5)
    for variant, renaming in subject_set.variants:
        assert renaming.mode == "subject"
        assert all(
            key in vocab.GEN_PROPER_NAMES
            or key in vocab.GEN_PERSON_NOUNS
            or key in vocab.GEN_ANIMAL_NOUNS
            for key in renaming.mapping
        )

    attr_set = perturb(inst, "attribute", random.Random(0), n=5)
    for variant, renaming in attr_set.variants:
        assert set(renaming.mapping.values()) <= set(vocab.REPLACEMENT_ATTRIBUTES)

    assert json.dumps(instance_to_json(inst)) == base_text  # base untouched


def test_perturb_preserves_labels_depths_and_proofs():
    inst = fixed_instance()
    for mode in ("subject", "attribute", "both"):
        eqset = perturb(inst, mode, random.Random(7), n=5)
        for k, (variant, _) in enumerate(eqset.variants, start=1):
            assert variant.id == f"{inst.id}.{mode}{k}"
            for vq, bq in zip(variant.questions, inst.questions):
                assert vq.annotation == bq.annotation
                # And the renamed gold annotations really hold.
                again = assign_gold(variant.theory, vq.statement)
                assert again == bq.annotation


def test_perturb_renames_every_occurrence_injectively():
    inst = fixed_instance()
    eqset = perturb(inst, "both", random.Random(3), n=5)
    for variant, renaming in eqset.variants:
        inverse = {new: old for old, new in renaming.mapping.items()}
        assert len(inverse) == len(renaming.mapping)
        variant_text = " ".join(text for _, text in variant.theory.sentences())
        for old in renaming.mapping:
            needle = old if old[0].isupper() else f" {old}"
            assert needle not in variant_text


def test_person_nouns_stay_person_nouns():
    theory = parse_theory(
        [
            "The doctor is blue.",
            "If someone is blue then they are kind.",
        ]
    )
    inst_questions = []
    from rulechain.datagen import Instance, Question, GoldAnnotation

    statement = parse_statement("The doctor is kind.")
    ann = assign_gold(theory, statement)
    inst = Instance("t1", theory, [Question("t1-q1", statement, render(statement.atom), ann)])
    for _ in range(20):
        eqset = perturb(inst, "subject", random.Random(_), n=3)
        for variant, renaming in eqset.variants:
            new = renaming.mapping["doctor"]
            assert new in vocab.PERSON_NOUNS
            vq = variant.questions[0]
            assert assign_gold(variant.theory, vq.statement).label == "true"


def test_inverse_renaming_restores_the_base():
    inst = fixed_instance()
    eqset = perturb(inst, "both", random.Random(11), n=2)
    for variant, renaming in eqset.variants:
        inverse = {new: old for old, new in renaming.mapping.items()}
        restored = apply_renaming(variant, RenamingMap(renaming.mode, inverse), inst.id)
        assert instance_to_json(restored) == instance_to_json(inst)


def test_perturb_rejects_unknown_modes_and_small_pools():
    inst = fixed_instance()
    with pytest.raises(ValueError):
        perturb(inst, "verbs", random.Random(0))
    # seven animal nouns, against six held-out replacements
    lines = [f"The {noun} is blue." for noun in vocab.GEN_ANIMAL_NOUNS[:7]]
    zoo = Instance("zoo", parse_theory(lines, "zoo"), [])
    with pytest.raises(PoolExhaustedError, match="animal nouns: need 7 replacements, pool has 6"):
        perturb(zoo, "subject", random.Random(0))


def test_equivalence_rows_roundtrip():
    inst = fixed_instance()
    eqset = perturb(inst, "attribute", random.Random(5), n=3)
    rows = equivalence_to_rows(eqset)
    assert [r["variant_index"] for r in rows] == [1, 2, 3]
    assert all(r["base_id"] == inst.id and r["mode"] == "attribute" for r in rows)
    parsed = [equivalence_from_row(r) for r in json.loads(json.dumps(rows))]
    for (base_id, k, renaming, variant), row in zip(parsed, rows):
        assert base_id == inst.id
        assert renaming.mapping == row["mapping"]
        assert instance_to_json(variant) == {
            key: row[key] for key in ("id", "sentences", "questions")
        }


# ---------------------------------------------------------------------------
# Instance JSON
# ---------------------------------------------------------------------------

def test_instance_json_roundtrip_and_shape():
    inst = fixed_instance()
    obj = instance_to_json(inst)
    assert set(obj) == {"id", "sentences", "questions"}
    assert set(obj["sentences"]) == {
        f"sent{i + 1}" for i in range(len(obj["sentences"]))
    }
    for q in obj["questions"]:
        assert set(q) == {"id", "text", "label", "depth", "proofs", "proofs_truncated"}
        assert q["label"] in ("true", "false", "unknown")
        assert (q["label"] == "unknown") == (q["depth"] == "N/A")
        assert (q["label"] == "unknown") == (q["proofs"] == [])
    again = instance_from_json(json.loads(json.dumps(obj)))
    assert instance_to_json(again) == obj


def test_instance_from_json_rejects_sparse_ids():
    inst = fixed_instance()
    obj = instance_to_json(inst)
    obj["sentences"].pop("sent1")
    with pytest.raises(ValueError):
        instance_from_json(obj)


@pytest.mark.parametrize(
    "sentences, message",
    [
        ({"sent2": "Bob is red."}, "instance t: sentence ids are not dense"),
        ({"sent0": "Bob is red."}, "instance t: sentence ids are not dense"),
        ({"sent01": "Bob is red."}, "instance t: sentence ids are not dense"),
        ({"sent1": "Bob is red.", "sent3": "Bob is big."}, "instance t: sentence ids are not dense"),
        ({"sent1": "Bob is red.", "foo": "Bob is big."}, "bad sentence id 'foo'"),
        ({"sent1": 5}, "instance t: sentences must be strings"),
        # density is checked before the type of the texts
        ({"sent1": 5, "sent3": "Bob is big."}, "instance t: sentence ids are not dense"),
    ],
)
def test_instance_from_json_names_what_is_wrong_with_the_sentences(sentences, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        instance_from_json({"id": "t", "sentences": sentences, "questions": []})


def test_instance_from_json_reads_sentences_in_id_order():
    sentences = {"sent2": "If someone is red then they are big.", "sent1": "Bob is red."}
    theory = instance_from_json({"id": "t", "sentences": sentences, "questions": []}).theory
    assert theory.sentences() == sorted(sentences.items())


def test_instance_from_json_takes_only_a_boolean_truncation_flag():
    # A truncated set admits any proof that checks, so "false" must not
    # load as true.
    obj = instance_to_json(fixed_instance())
    question = obj["questions"][0]
    for flag in (True, False):
        question["proofs_truncated"] = flag
        assert instance_from_json(obj).questions[0].annotation.proofs_truncated is flag
    del question["proofs_truncated"]
    assert instance_from_json(obj).questions[0].annotation.proofs_truncated is False
    for bad in ("false", 0, None):
        question["proofs_truncated"] = bad
        with pytest.raises(ValueError, match="proofs_truncated must be true or false"):
            instance_from_json(obj)


# ---------------------------------------------------------------------------
# Training records
# ---------------------------------------------------------------------------

def training_records(instance):
    """The records that ``emit_training_records``'s lines encode, per stream."""
    return {
        key: [json.loads(line) for line in lines]
        for key, lines in emit_training_records(instance).items()
    }


def test_training_records_for_a_two_step_question(chain2):
    from rulechain.datagen import Instance, Question

    statement = parse_statement("Bob is smart.")
    ann = assign_gold(chain2, statement)
    inst = Instance(
        "t9", chain2, [Question("t9-q1", statement, render(statement.atom), ann)]
    )
    records = training_records(inst)
    assert len(records["rs"]) == 3  # two steps plus the stop record
    assert len(records["fs"]) == 2
    assert len(records["kc"]) == 2

    first_rs, second_rs, stop_rs = records["rs"]
    assert first_rs["statement"] == "Bob is smart."
    assert first_rs["facts"] == ["Bob is blue."]
    assert first_rs["rules"] == [
        "If someone is blue then they are quiet.",
        "If someone is quiet then they are smart.",
    ]
    assert first_rs["output"] == 0
    assert second_rs["facts"] == ["Bob is blue.", "Bob is quiet."]
    assert second_rs["output"] == 1
    assert stop_rs["output"] == "STOP"
    assert stop_rs["facts"] == ["Bob is blue.", "Bob is quiet.", "Bob is smart."]

    first_fs, second_fs = records["fs"]
    assert first_fs["rule"] == "If someone is blue then they are quiet."
    assert first_fs["output"] == [0]
    assert second_fs["output"] == [1]

    first_kc, second_kc = records["kc"]
    assert first_kc == {
        "question_id": "t9-q1",
        "rule": "If someone is blue then they are quiet.",
        "facts": ["Bob is blue."],
        "output": "Bob is quiet.",
    }
    assert second_kc["output"] == "Bob is smart."


def test_conjunctive_step_selects_two_facts(conj):
    from rulechain.datagen import Instance, Question

    statement = parse_statement("Dave is happy.")
    ann = assign_gold(conj, statement)
    inst = Instance(
        "t8", conj, [Question("t8-q1", statement, render(statement.atom), ann)]
    )
    records = training_records(inst)
    (fs,) = records["fs"]
    assert fs["output"] == [1, 2]  # positions of the two premises, sorted


def test_given_and_unknown_questions_emit_only_a_stop_record(chain2):
    questions = []
    for k, text in enumerate(("Bob is blue.", "Bob is green."), start=1):
        statement = parse_statement(text)
        questions.append(Question(f"t9-q{k}", statement, text, assign_gold(chain2, statement)))
    assert [q.annotation.label for q in questions] == ["true", "unknown"]
    records = training_records(Instance("t9", chain2, questions))
    assert records["fs"] == records["kc"] == []
    assert [(r["question_id"], r["output"]) for r in records["rs"]] == [
        ("t9-q1", "STOP"),
        ("t9-q2", "STOP"),
    ]


def replayed_proof(theory, question, records):
    """The canonical proof string that one question's rs/fs/kc records
    spell out, rebuilt from the records and the theory's sentence ids
    alone: the rule is ``rules[rs.output]``, the premises are the
    ``fs.output`` indices into ``facts``, and ``kc.output`` must be what
    composing that rule with those facts yields. None for no proof."""
    *rs, stop = [r for r in records["rs"] if r["question_id"] == question.id]
    fs = [r for r in records["fs"] if r["question_id"] == question.id]
    kc = [r for r in records["kc"] if r["question_id"] == question.id]
    assert stop["output"] == "STOP"
    assert len(rs) == len(fs) == len(kc)
    given = len(theory.facts)

    def fact_id(index):
        return theory.facts[index].id if index < given else f"int{index - given + 1}"

    if not rs:
        if question.annotation.label == "unknown":
            return None
        target = question.statement.atom
        if question.annotation.label == "false":
            target = target.negated()
        return f"{fact_id(stop['facts'].index(render(target)))} -> hypothesis"
    segments = []
    for k, (r, f, c) in enumerate(zip(rs, fs, kc)):
        assert r["facts"] == f["facts"] == stop["facts"][: given + k]
        rule_text = r["rules"][r["output"]]
        assert rule_text == f["rule"] == c["rule"]
        rule = theory.rules[r["output"]]
        assert render(rule) == rule_text
        assert c["facts"] == [r["facts"][i] for i in f["output"]]
        premises = Counter(parse_statement(r["facts"][i]).atom for i in f["output"])
        entities = [None] if rule.quantifier == QUANT_NONE else {a.subject for a in premises}
        (entity,) = [
            e for e in entities
            if Counter(substitute(p, e) for p in rule.premises) == premises
        ]
        fact_ids = tuple(fact_id(i) for i in f["output"])
        assert c["output"] == render(substitute(rule.conclusion, entity))
        assert stop["facts"][given + k] == c["output"]
        target = "hypothesis" if k == len(rs) - 1 else f"int{k + 1}"
        segments.append(f"({rule.id} & {' '.join(fact_ids)}) -> {target}")
    return " ; ".join(segments)


def test_training_records_replay_to_the_first_gold_proof():
    """The supervision for the rule selector, the fact selector and the
    knowledge composer is faithful: replayed step by step, each question's
    records give back its ``proofs[0]``, also when the gold set is capped."""
    lines, text = diamond_ladder_lines()
    ladder = parse_theory(lines, "ladder")
    statement = parse_statement(text)
    annotation = assign_gold(ladder, statement)
    assert annotation.proofs_truncated
    instances = generate_dataset(GenConfig(target_depths=(0, 1, 2, 3, 4, 5), theories=12, seed=29))
    instances.append(Instance("ladder", ladder, [Question("ladder-q1", statement, text, annotation)]))
    replayed = 0
    for inst in instances:
        records = training_records(inst)
        for q in inst.questions:
            gold = q.annotation.proofs[0] if q.annotation.proofs else None
            assert replayed_proof(inst.theory, q, records) == gold
            replayed += gold is not None and "&" in gold
    assert replayed > 40


def test_training_counts_follow_gold_steps():
    cfg = GenConfig(target_depths=(0, 1, 2), theories=4, seed=23)
    insts = generate_dataset(cfg)
    for inst in insts:
        records = emit_training_records(inst)
        steps = 0
        for q in inst.questions:
            if q.annotation.label == "unknown":
                continue
            proof = q.annotation.proofs[0]
            steps += proof.count("(")
        assert len(records["rs"]) == steps + len(inst.questions)
        assert len(records["fs"]) == steps
        assert len(records["kc"]) == steps


def test_training_skips_the_closure_only_where_no_contradiction_can_arise(monkeypatch):
    """A contradiction needs a predicate in both polarities among the given
    facts and the rule conclusions; without one ``emit_training_records``
    runs no closure, and with one it runs the closure to decide."""
    closures = []
    original = datagen_module.gold_closure

    def counting(theory):
        closures.append(theory.id)
        return original(theory)

    monkeypatch.setattr(datagen_module, "gold_closure", counting)
    cases = {
        "one_polarity": ["Bob is blue.", "If someone is blue then they are not kind."],
        "both_but_apart": ["Bob is kind.", "Anne is blue.", "If Anne is blue then Anne is not red."],
        "both_consistent": ["Bob is kind.", "Anne is blue.", "If Anne is blue then Anne is not kind."],
    }
    for name, lines in cases.items():
        records = emit_training_records(Instance(name, parse_theory(lines, name), []))
        assert len(records["rs"]) == 0
    assert closures == ["both_consistent"]
    clashing = ["Bob is kind.", "Bob is blue.", "If someone is blue then they are not kind."]
    with pytest.raises(GoldProofError, match="contradictory"):
        emit_training_records(Instance("clash", parse_theory(clashing, "clash"), []))
    assert closures == ["both_consistent", "clash"]


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=theories())
def test_training_rejects_exactly_the_contradictory_theories(lines):
    theory = parse_theory(lines)
    contradictory = gold_closure(theory).contradiction
    try:
        emit_training_records(Instance("t", theory, []))
    except GoldProofError:
        assert contradictory
    else:
        assert not contradictory


def assert_lines_encode_the_reference_records(instance):
    """Each stream's lines are the reference emitter's records, in order,
    each encoded by ``json.dumps`` with sorted keys and no spaces."""
    lines = emit_training_records(instance)
    records = reference_training_records(instance)
    assert list(lines) == list(records) == ["rs", "fs", "kc"]
    for key, rows in records.items():
        encoded = [json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n" for r in rows]
        assert lines[key] == encoded


@pytest.mark.parametrize("name", DATASETS)
def test_training_lines_encode_the_reference_records_on_the_golden_datasets(name):
    for row in read_jsonl(GOLDEN / f"{name}.dataset.jsonl"):
        assert_lines_encode_the_reference_records(instance_from_json(row))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(lines=theories(), statement_text=facts())
def test_training_lines_encode_the_reference_records_on_the_grammar(lines, statement_text):
    """Questions on every atom of the closure, on its negation and on a
    drawn statement, which may be unknown; both emitters reject a
    contradictory theory."""
    theory = parse_theory(lines)
    closure = gold_closure(theory)
    if closure.contradiction:
        for emit in (emit_training_records, reference_training_records):
            with pytest.raises(GoldProofError, match="contradictory"):
                emit(Instance("t", theory, []))
        return
    atoms = [*closure.given, *closure.derived]
    statements = [parse_statement(statement_text), *map(Statement, atoms)]
    statements += [Statement(a.negated()) for a in atoms]
    questions = [
        Question(f"t-q{k}", s, render(s.atom), assign_gold(theory, s, closure))
        for k, s in enumerate(statements, start=1)
    ]
    assert_lines_encode_the_reference_records(Instance("t", theory, questions))


def test_training_lines_escape_a_question_id_as_json_dumps_does(chain2):
    statement = parse_statement("Bob is smart.")
    question_id = 'q "1" \\ \x07 \u00e9'
    question = Question(question_id, statement, "Bob is smart.", assign_gold(chain2, statement))
    instance = Instance("t9", chain2, [question])
    assert_lines_encode_the_reference_records(instance)
    first, _ = emit_training_records(instance)["kc"]
    assert '"question_id":"q \\"1\\" \\\\ \\u0007 \\u00e9"' in first


def test_training_lines_of_a_theory_without_given_facts():
    theory = parse_theory(["If someone is blue then they are quiet."])
    statement = parse_statement("Bob is quiet.")
    question = Question("t-q1", statement, "Bob is quiet.", assign_gold(theory, statement))
    instance = Instance("t", theory, [question])
    assert_lines_encode_the_reference_records(instance)
    assert emit_training_records(instance) == {
        "rs": [
            '{"facts":[],"output":"STOP","question_id":"t-q1",'
            '"rules":["If someone is blue then they are quiet."],"statement":"Bob is quiet."}\n'
        ],
        "fs": [],
        "kc": [],
    }


# ---------------------------------------------------------------------------
# Properties
# ---------------------------------------------------------------------------

@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000))
def test_generated_questions_score_perfectly_under_both_strategies(seed):
    cfg = GenConfig(target_depths=(0, 1, 2, 3), theories=2, seed=seed)
    for inst in generate_dataset(cfg):
        for q in inst.questions:
            for name in ("exhaustive", "goal"):
                strategy = make_strategy(name, inst.theory, q.statement)
                trace = run(inst.theory, q.statement, strategy)
                verdict = solve(q.statement, trace)
                assert verdict.label == q.annotation.label
                if verdict.proof is None:
                    assert q.annotation.label == "unknown"
                else:
                    assert verdict.proof in q.annotation.proofs


@settings(max_examples=10, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(["subject", "attribute", "both"]))
def test_perturbation_preserves_engine_behaviour(seed, mode):
    cfg = GenConfig(target_depths=(1, 2), theories=1, seed=seed)
    inst = generate_dataset(cfg)[0]
    eqset = perturb(inst, mode, random.Random(seed), n=2)
    for variant, _ in eqset.variants:
        for vq, bq in zip(variant.questions, inst.questions):
            strategy = make_strategy("goal", variant.theory, vq.statement)
            trace = run(variant.theory, vq.statement, strategy)
            verdict = solve(vq.statement, trace)
            assert verdict.label == bq.annotation.label
            base_strategy = make_strategy("goal", inst.theory, bq.statement)
            base_trace = run(inst.theory, bq.statement, base_strategy)
            assert verdict.proof == solve(bq.statement, base_trace).proof
