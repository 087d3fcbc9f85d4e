"""Prediction pipeline and metrics.

The pipeline runs a strategy over every question of every instance and
records, per question, the predicted label, the canonical proof string (or
None for unknown), the conclusions the engine generated along the way, and
the composition-call count. The trace of the all-inferences strategy does
not depend on the question, so it is computed once per theory and shared.

Several budgets cost one run per question. ``run`` uses the budget only as
a stop test, selection never sees it, and shuffle mode draws from its
generator once per select, so a budget-b run takes exactly the first
min(b, n) steps of a run at a larger budget that took n steps. Each
question therefore runs once, at the largest budget, and budget b reads:

* label: the statement's fact if it is given or derived at a step <= b,
  else its negation's by the same test, else unknown;
* proof: the canonical proof of that fact, stitched once for all budgets;
* generated: the first b conclusions;
* composer calls: min(b, n);
* stop reason: the trace's own when n < b; at n == b, "goal_reached" if
  the trace reached the goal and "budget_exhausted" otherwise; when n > b,
  "budget_exhausted".

Every prediction is field for field that of a separate budget-b run.

Metrics:

* entailment accuracy: predicted label equals gold label.
* strict proof accuracy: label correct, and the predicted proof is one of
  the gold proofs (unknown questions must predict no proof). When the gold
  set was capped, any proof that checks against the theory also counts.
* inference precision and recall: the generated conclusions compared with
  the conclusions appearing in gold proofs. Precision is the fraction of
  generated conclusions that some gold proof needs (the hypothesis itself
  counts as needed); it is undefined when nothing was generated but
  something was needed. Recall is the best coverage of any single gold
  proof's conclusions, vacuously 1 when a proof needs none.
* consistency: across an equivalence set of renamed variants, whether
  every variant gets the same label (and, for proof consistency, the same
  proof string) as its base question.
* efficiency: mean ratio of composition calls, goal-directed over
  all-inferences, question by question.
"""
from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat

from . import SCHEMA_VERSIONS
from .datagen import DEPTH_NA, GoldProofError, Instance, Question, RenamingMap
from .reasoner import (
    LABEL_TRUE,
    LABEL_UNKNOWN,
    STOP_BUDGET_EXHAUSTED,
    STOP_GOAL_REACHED,
    InferenceTrace,
    ProofCheckError,
    check_proof,
    check_proofs,
    run,
    solve,
)
from .strategies import make_strategy
from .theory import render


# ---------------------------------------------------------------------------
# Prediction pipeline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Prediction:
    question_id: str
    label: str
    proof: str | None
    generated: tuple[str, ...]  # conclusion texts, derivation order
    composer_calls: int
    stop_reason: str


def prediction_to_json(p: Prediction) -> dict:
    return {
        "question_id": p.question_id,
        "label": p.label,
        "proof": p.proof,
        "generated": list(p.generated),
        "composer_calls": p.composer_calls,
        "stop_reason": p.stop_reason,
    }


def prediction_from_json(obj: dict) -> Prediction:
    return Prediction(
        obj["question_id"],
        obj["label"],
        obj["proof"],
        tuple(obj["generated"]),
        int(obj["composer_calls"]),
        obj["stop_reason"],
    )


def _predict_budgets(
    instance: Instance,
    strategy_name: str,
    budgets: tuple[int | None, ...],
    shuffle_seed: int | None = None,
) -> list[list[Prediction]]:
    """For each budget in order, the predictions for every question of one
    instance, read off one run per question at the largest budget (see the
    module docstring)."""
    top = None if None in budgets else max(budgets)
    per_budget: list[list[Prediction]] = [[] for _ in budgets]
    shared = None
    for q in instance.questions:
        strategy = make_strategy(strategy_name, instance.theory, q.statement, shuffle_seed)
        if strategy.goal_directed or shared is None:
            trace = run(instance.theory, q.statement, strategy, top)
            generated = tuple(render(s.conclusion.atom) for s in trace.steps)
            if not strategy.goal_directed:
                # Exhaustive traces ignore the question, so one run,
                # rendered once, serves all.
                shared = trace, generated
        else:
            trace, generated = shared
        for preds, prediction in zip(per_budget, _read_budgets(q, trace, generated, budgets)):
            preds.append(prediction)
    return per_budget


def _read_budgets(
    question: Question,
    trace: InferenceTrace,
    generated: tuple[str, ...],
    budgets: tuple[int | None, ...],
) -> list[Prediction]:
    """What a run stopped at each budget predicts, read off ``trace``, a
    run at a budget no smaller than any of them, whose rendered
    conclusions are ``generated``."""
    statement = question.statement
    steps = len(trace.steps)
    # The verdict changes only at the steps that derive the statement or its
    # negation, so each distinct verdict is solved (and its proof stitched)
    # once for all budgets.
    arrivals = [
        fact.derived_step or 0
        for fact in map(trace.store.fact_for, (statement.atom, statement.atom.negated()))
        if fact is not None
    ]
    verdicts = {}
    out = []
    for budget in budgets:
        n = steps if budget is None else min(budget, steps)
        key = tuple(at <= n for at in arrivals)
        if key not in verdicts:
            verdicts[key] = solve(statement, trace, n)
        verdict = verdicts[key]
        if budget is None or steps < budget:
            reason = trace.stop_reason
        elif steps == budget and trace.stop_reason == STOP_GOAL_REACHED:
            reason = STOP_GOAL_REACHED
        else:
            reason = STOP_BUDGET_EXHAUSTED
        out.append(
            Prediction(question.id, verdict.label, verdict.proof, generated[:n], n, reason)
        )
    return out


def _predict_sweep(
    instances: list[Instance],
    strategy_name: str,
    budgets: tuple[int | None, ...],
    shuffle_seed: int | None,
    jobs: int | None,
) -> list[list[Prediction]]:
    """For each budget in order, predictions for all questions of all
    instances in input order; one job per instance."""
    args = (instances, repeat(strategy_name), repeat(budgets), repeat(shuffle_seed))
    if jobs is not None and jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(_predict_budgets, *args))
    else:
        chunks = list(map(_predict_budgets, *args))
    return [[p for chunk in chunks for p in chunk[k]] for k in range(len(budgets))]


def predict_instances(
    instances: list[Instance],
    strategy_name: str,
    budget: int | None = None,
    shuffle_seed: int | None = None,
    jobs: int | None = None,
) -> list[Prediction]:
    """Predictions for all questions of all instances, in input order."""
    return _predict_sweep(instances, strategy_name, (budget,), shuffle_seed, jobs)[0]


def index_predictions(predictions: list[Prediction]) -> dict[str, Prediction]:
    by_id = {p.question_id: p for p in predictions}
    if len(by_id) != len(predictions):
        raise ValueError("duplicate question ids in predictions")
    return by_id


def _paired(
    instances: list[Instance], by_id: dict[str, Prediction]
) -> list[tuple[Instance, Question, Prediction]]:
    pairs = []
    for inst in instances:
        for q in inst.questions:
            if q.id not in by_id:
                raise ValueError(f"no prediction for question {q.id}")
            pairs.append((inst, q, by_id[q.id]))
    return pairs


# ---------------------------------------------------------------------------
# Per-question scoring
# ---------------------------------------------------------------------------

def label_correct(question: Question, prediction: Prediction) -> bool:
    return prediction.label == question.annotation.label


def proof_correct(instance: Instance, question: Question, prediction: Prediction) -> bool:
    """Strict: label right, and the proof is one of the gold proofs.
    Unknown questions must come back with no proof at all.

    A capped gold set lists only some of the proofs, so for a truncated
    annotation an unlisted proof counts when it checks against the theory.
    """
    ann = question.annotation
    if prediction.label != ann.label:
        return False
    if ann.label == LABEL_UNKNOWN:
        return prediction.proof is None
    if prediction.proof in ann.proofs:
        return True
    if prediction.proof is None or not ann.proofs_truncated:
        return False
    try:
        check_proof(instance.theory, question.statement, ann.label, prediction.proof)
    except ProofCheckError:
        return False
    return True


def _gold_conclusion_sets(instance: Instance, question: Question) -> list[set[str]]:
    """One set of conclusion texts per gold proof (final step included),
    with the whole gold set checked in one call."""
    ann = question.annotation
    try:
        proofs = check_proofs(instance.theory, question.statement, ann.label, ann.proofs)
    except ProofCheckError as e:
        raise GoldProofError(instance, question.id, str(e)) from None
    # check_proofs returns equal conclusions as one object: render each once
    distinct = {id(c): c for steps in proofs for _, _, c in steps}
    texts = {key: render(c) for key, c in distinct.items()}
    return [{texts[id(c)] for _, _, c in steps} for steps in proofs]


def inference_pr(
    instance: Instance, question: Question, prediction: Prediction
) -> tuple[float | None, float]:
    """(precision, recall) of the generated conclusions for one question.

    Precision is None (undefined) when nothing was generated but the gold
    proofs need conclusions; 1.0 when nothing was generated and nothing
    was needed.
    """
    ann = question.annotation
    generated = set(prediction.generated)
    per_proof = _gold_conclusion_sets(instance, question)
    needed: set[str] = set().union(*per_proof) if per_proof else set()
    if ann.label != LABEL_UNKNOWN:
        target = question.statement.atom
        if ann.label != LABEL_TRUE:
            target = target.negated()
        needed.add(render(target))

    if not generated:
        precision = 1.0 if not needed else None
    else:
        precision = len(needed & generated) / len(generated)

    coverages = [
        1.0 if not s else len(s & generated) / len(s) for s in per_proof
    ]
    recall = max(coverages) if coverages else 1.0
    return precision, recall


# ---------------------------------------------------------------------------
# Aggregates
# ---------------------------------------------------------------------------

def score_entailment(instances: list[Instance], predictions: list[Prediction]) -> float:
    pairs = _paired(instances, index_predictions(predictions))
    if not pairs:
        raise ValueError("nothing to score")
    return sum(label_correct(q, p) for _, q, p in pairs) / len(pairs)


def score_proof(instances: list[Instance], predictions: list[Prediction]) -> float:
    pairs = _paired(instances, index_predictions(predictions))
    if not pairs:
        raise ValueError("nothing to score")
    return sum(proof_correct(inst, q, p) for inst, q, p in pairs) / len(pairs)


def efficiency_ratio(
    goal_predictions: list[Prediction], exhaustive_predictions: list[Prediction]
) -> float:
    """Mean per-question ratio of composition calls, goal over exhaustive."""
    exhaustive = index_predictions(exhaustive_predictions)
    ratios = []
    for p in goal_predictions:
        if p.question_id not in exhaustive:
            raise ValueError(f"no exhaustive prediction for {p.question_id}")
        base = exhaustive[p.question_id].composer_calls
        ratios.append(p.composer_calls / base if base else 1.0)
    if not ratios:
        raise ValueError("nothing to score")
    return sum(ratios) / len(ratios)


def question_consistency(
    base_pred: Prediction, variant_preds: list[Prediction]
) -> tuple[float, float]:
    """(entailment consistency, proof consistency) for one equivalence set.

    Entailment consistency is the fraction of variants predicting the base
    question's label; proof consistency is the fraction whose proof is
    string-identical to the base proof (no proof on both sides counts as
    identical). Canonical proofs mention only sentence ids, which renaming
    leaves alone, so proofs compare without undoing the renaming.
    """
    if not variant_preds:
        raise ValueError("an equivalence set needs at least one variant")
    labels = sum(vp.label == base_pred.label for vp in variant_preds)
    proofs = sum(vp.proof == base_pred.proof for vp in variant_preds)
    return labels / len(variant_preds), proofs / len(variant_preds)


@dataclass
class ConsistencyResult:
    sets: int = 0
    entailment_sum: float = 0.0
    proof_sum: float = 0.0

    @property
    def entailment_rate(self) -> float:
        return self.entailment_sum / self.sets if self.sets else 1.0

    @property
    def proof_rate(self) -> float:
        return self.proof_sum / self.sets if self.sets else 1.0

    def to_json(self) -> dict:
        return {
            "sets": self.sets,
            "consistency_entailment": self.entailment_rate,
            "consistency_proof": self.proof_rate,
        }


def score_consistency(
    groups: list[tuple[Instance, list[tuple[Instance, "RenamingMap"]]]],
    predictions: list[Prediction],
) -> ConsistencyResult:
    """Mean per-set consistency over all equivalence sets in ``groups``.

    Each question of a base instance forms one equivalence set together
    with the matching question of every renamed variant. Renamings leave
    sentence order untouched and proofs mention only sentence ids, so a
    faithful engine scores exactly 1.0 on both rates.
    """
    by_id = index_predictions(predictions)

    def pred(question_id: str) -> Prediction:
        if question_id not in by_id:
            raise ValueError(f"no prediction for question {question_id}")
        return by_id[question_id]

    result = ConsistencyResult()
    for base, variants in groups:
        for j, base_q in enumerate(base.questions):
            variant_preds = [pred(inst.questions[j].id) for inst, _ in variants]
            entail, proof = question_consistency(pred(base_q.id), variant_preds)
            result.sets += 1
            result.entailment_sum += entail
            result.proof_sum += proof
    return result


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class DepthRow:
    depth: "int | str"  # 0, 1, ..., "N/A", or "All"
    n: int = 0
    entailment_correct: int = 0
    proof_correct: int = 0
    precision_sum: float = 0.0
    precision_n: int = 0
    recall_sum: float = 0.0
    calls_sum: int = 0

    def add(self, correct: bool, strict: bool, pr, calls: int) -> None:
        precision, recall = pr
        self.n += 1
        self.entailment_correct += correct
        self.proof_correct += strict
        if precision is not None:
            self.precision_sum += precision
            self.precision_n += 1
        self.recall_sum += recall
        self.calls_sum += calls

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "n": self.n,
            "entailment_accuracy": self.entailment_correct / self.n if self.n else None,
            "proof_accuracy": self.proof_correct / self.n if self.n else None,
            "precision": self.precision_sum / self.precision_n if self.precision_n else None,
            "precision_n": self.precision_n,
            "recall": self.recall_sum / self.n if self.n else None,
            "mean_composer_calls": self.calls_sum / self.n if self.n else None,
        }


@dataclass
class MetricsReport:
    strategy: str
    budget: int | None
    rows: list[dict]  # depth buckets then "All", DepthRow.to_json() shape
    consistency: dict | None = None
    efficiency: float | None = None
    budget_curve: dict | None = None  # budget (as str) -> accuracy
    schema_version: int = SCHEMA_VERSIONS["report"]

    def row(self, depth) -> dict:
        for r in self.rows:
            if r["depth"] == depth:
                return r
        raise KeyError(depth)

    def to_json(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "strategy": self.strategy,
            "budget": self.budget,
            "rows": self.rows,
            "consistency": self.consistency,
            "efficiency": self.efficiency,
            "budget_curve": self.budget_curve,
        }

    def render_text(self) -> str:
        headers = ("depth", "n", "entail", "proof", "prec", "recall", "calls")
        keys = (
            "depth",
            "n",
            "entailment_accuracy",
            "proof_accuracy",
            "precision",
            "recall",
            "mean_composer_calls",
        )

        def cell(value) -> str:
            if value is None:
                return "-"
            if isinstance(value, float):
                return f"{value:.3f}"
            return str(value)

        table = [headers]
        table += [tuple(cell(r[k]) for k in keys) for r in self.rows]
        widths = [max(len(row[i]) for row in table) for i in range(len(headers))]
        lines = []
        budget = "none" if self.budget is None else str(self.budget)
        lines.append(f"strategy={self.strategy} budget={budget}")
        for idx, row in enumerate(table):
            lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)))
            if idx == 0:
                lines.append("  ".join("-" * w for w in widths))
        if self.consistency is not None:
            lines.append(
                "consistency: entailment {consistency_entailment:.3f}"
                "  proof {consistency_proof:.3f}  sets {sets}".format(**self.consistency)
            )
        if self.efficiency is not None:
            lines.append(f"efficiency (calls ratio vs exhaustive): {self.efficiency:.3f}")
        if self.budget_curve is not None:
            curve = "  ".join(
                f"{b}:{acc:.3f}"
                for b, acc in sorted(self.budget_curve.items(), key=lambda kv: int(kv[0]))
            )
            lines.append(f"accuracy by budget: {curve}")
        return "\n".join(lines)


def build_report(
    instances: list[Instance],
    predictions: list[Prediction],
    strategy: str,
    budget: int | None = None,
    consistency: ConsistencyResult | None = None,
    efficiency: float | None = None,
) -> MetricsReport:
    """Per-depth metric rows for one run: depths 0 to the deepest question
    or 5, whichever is more, then "N/A" and "All"."""
    depths = [q.annotation.depth for inst in instances for q in inst.questions]
    deepest = max([5, *(d for d in depths if type(d) is int)])
    rows = {d: DepthRow(d) for d in (*range(deepest + 1), DEPTH_NA)}
    total = DepthRow("All")
    for inst, q, p in _paired(instances, index_predictions(predictions)):
        correct = label_correct(q, p)
        strict = proof_correct(inst, q, p)
        pr = inference_pr(inst, q, p)
        depth = q.annotation.depth
        if depth not in rows:
            raise ValueError(f"question {q.id}: unexpected depth {depth!r}")
        rows[depth].add(correct, strict, pr, p.composer_calls)
        total.add(correct, strict, pr, p.composer_calls)
    all_rows = [row.to_json() for row in rows.values()] + [total.to_json()]
    return MetricsReport(
        strategy,
        budget,
        all_rows,
        consistency.to_json() if consistency else None,
        efficiency,
    )


# ---------------------------------------------------------------------------
# Budget sweeps
# ---------------------------------------------------------------------------

@dataclass
class BudgetCurve:
    strategy: str
    budgets: tuple[int, ...]
    accuracy: dict[int, float] = field(default_factory=dict)
    proof_accuracy: dict[int, float] = field(default_factory=dict)
    mean_calls: dict[int, float] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "strategy": self.strategy,
            "budgets": list(self.budgets),
            "accuracy": {str(b): self.accuracy[b] for b in self.budgets},
            "proof_accuracy": {str(b): self.proof_accuracy[b] for b in self.budgets},
            "mean_calls": {str(b): self.mean_calls[b] for b in self.budgets},
        }


def budget_curve(
    instances: list[Instance],
    strategy_name: str,
    budgets: tuple[int, ...],
    shuffle_seed: int | None = None,
    jobs: int | None = None,
) -> BudgetCurve:
    """Accuracy as a function of the composition-call budget.

    Each question runs once, at the largest budget, and every budget is
    scored on a prefix of that trace: a budget-b run takes exactly the first
    min(b, n) steps of a run that took n, since ``run`` uses the budget only
    as a stop test, selection never sees it, and shuffle mode draws from its
    generator once per select. At budget b the label and proof are those of
    the statement's (else its negation's) fact given or derived by step b,
    and the composer calls are min(b, n); the module docstring gives every
    field. The predictions equal those of separate budget-b runs.
    """
    if not budgets or any(b < 0 for b in budgets):
        raise ValueError("budgets must be non-empty and non-negative")
    curve = BudgetCurve(strategy_name, tuple(budgets))
    n_questions = sum(len(inst.questions) for inst in instances)
    if not n_questions:
        raise ValueError("nothing to score")
    sweep = _predict_sweep(instances, strategy_name, curve.budgets, shuffle_seed, jobs)
    for budget, preds in zip(curve.budgets, sweep):
        curve.accuracy[budget] = score_entailment(instances, preds)
        curve.proof_accuracy[budget] = score_proof(instances, preds)
        curve.mean_calls[budget] = sum(p.composer_calls for p in preds) / n_questions
    return curve
