"""Retrieval and verification metrics over prediction and gold files.

Document/sentence precision and recall are macro-averaged over verifiable
claims (NOT ENOUGH INFO claims carry no gold evidence and are excluded); F1
is computed from the averaged P and R. FEVER credit requires a correct label
and, for verifiable claims, one full gold evidence group inside the first
max_evidence predicted sentence pairs. Label accuracy ignores evidence.

Everything here is a pure function over loaded records; claims are scored
independently and reduced in claim_id order, so results never depend on
input ordering. Records for claim ids outside the gold claims are validated
but never scored. `evaluate` reports label accuracy and FEVER only when some
gold claim has a record and every gold claim's record carries a label.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from . import binio
from .corpus import Claim, Label, claim_id_of
from .errors import DataError, at_least

Pair = tuple[str, int]


@dataclass(frozen=True)
class PRF:
    precision: float
    recall: float
    f1: float

    @classmethod
    def from_pr(cls, precision: float, recall: float) -> "PRF":
        if precision + recall == 0.0:
            return cls(precision, recall, 0.0)
        return cls(precision, recall, 2 * precision * recall / (precision + recall))

    def as_dict(self) -> dict:
        return {"precision": self.precision, "recall": self.recall, "f1": self.f1}


@dataclass(frozen=True)
class VerificationScores:
    label_accuracy: float
    fever: float


def check_predictions(located: Iterable[tuple[str, dict]]) -> dict[int, dict]:
    """Records by claim_id from (location, record) pairs. A claim_id that is
    not an integer or repeats, titles that are not a list of strings and
    evidence that is not a list of [doc_id, sentence_index] pairs with a
    non-negative integer index are a DataError that starts with the location."""
    out: dict[int, dict] = {}
    for where, rec in located:
        cid = claim_id_of(rec, "claim_id", where)
        if cid in out:
            raise DataError(f"{where}: duplicate prediction for claim_id {cid}")
        titles, pairs = rec.get("predicted_titles", []), rec.get("predicted_evidence", [])
        if not isinstance(titles, list) or not all(isinstance(t, str) for t in titles):
            raise DataError(f"{where}: claim_id {cid}: predicted_titles must be a list of strings")
        if not isinstance(pairs, list) or not all(
                isinstance(p, list) and len(p) == 2 and isinstance(p[0], str)
                and type(p[1]) is int and p[1] >= 0 for p in pairs):
            raise DataError(f"{where}: claim_id {cid}: predicted_evidence must be a list of "
                            "[doc_id, sentence_index] pairs with a non-negative index")
        out[cid] = rec
    return out


def _prediction_map(predictions: Sequence[dict]) -> dict[int, dict]:
    """`check_predictions` over in-memory records, located as `prediction <i>`."""
    return check_predictions((f"prediction {i}", rec) for i, rec in enumerate(predictions))


def _predicted_pairs(rec: dict, max_evidence: int) -> set[Pair]:
    """The first max_evidence predicted pairs of a record, as a set."""
    return {(doc_id, index) for doc_id, index in rec.get("predicted_evidence", [])[:max_evidence]}


def _macro_prf(pred_map: dict[int, dict], golds: Iterable[Claim],
               predicted_of: Callable[[dict], set], gold_of: Callable[[Claim], set]) -> PRF:
    """Macro P/R of `predicted_of(record)` against `gold_of(claim)` over the
    verifiable claims in claim_id order; a claim missing from `pred_map`
    counts as an empty prediction."""
    per_claim = []
    for claim in sorted(golds, key=lambda c: c.claim_id):
        if claim.label is Label.NOT_ENOUGH_INFO:
            continue
        predicted = predicted_of(pred_map.get(claim.claim_id, {}))
        gold = gold_of(claim)
        hits = len(predicted & gold)
        per_claim.append((hits / len(predicted) if predicted else 0.0,
                          hits / len(gold) if gold else 0.0))
    if not per_claim:
        return PRF(0.0, 0.0, 0.0)
    precision = sum(p for p, _ in per_claim) / len(per_claim)
    recall = sum(r for _, r in per_claim) / len(per_claim)
    return PRF.from_pr(precision, recall)


def _doc_prf(pred_map: dict[int, dict], golds: Iterable[Claim]) -> PRF:
    return _macro_prf(
        pred_map, golds, lambda rec: set(rec.get("predicted_titles", [])),
        lambda claim: {doc_id for group in claim.evidence_groups for doc_id, _ in group})


def _sent_prf(pred_map: dict[int, dict], golds: Iterable[Claim], max_evidence: int) -> PRF:
    return _macro_prf(
        pred_map, golds, lambda rec: _predicted_pairs(rec, max_evidence),
        lambda claim: {pair for group in claim.evidence_groups for pair in group})


def doc_prf(predictions, golds: Iterable[Claim]) -> PRF:
    """Macro P/R over verifiable claims against the union of gold doc_ids;
    a claim missing from predictions counts as an empty prediction."""
    return _doc_prf(_prediction_map(predictions), golds)


def sent_prf(predictions, golds: Iterable[Claim], max_evidence: int = 5) -> PRF:
    """As doc_prf over (doc_id, sentence_index) pairs; only the first
    max_evidence predicted pairs are scored."""
    at_least("max_evidence", max_evidence, 1)
    return _sent_prf(_prediction_map(predictions), golds, max_evidence)


def _fever_scores(pred_map: dict[int, dict], golds: Iterable[Claim],
                  max_evidence: int) -> VerificationScores:
    golds = sorted(golds, key=lambda c: c.claim_id)
    if not golds:
        raise DataError("fever_scores needs at least one gold claim")
    la_hits = 0
    fever_hits = 0
    for claim in golds:
        rec = pred_map.get(claim.claim_id)
        if rec is None:
            continue  # empty-prediction rule: no label, no credit
        raw = rec.get("predicted_label")
        if raw is None:
            raise DataError(f"prediction for claim {claim.claim_id} lacks predicted_label")
        try:
            predicted = Label(raw)
        except ValueError:
            raise DataError(f"claim {claim.claim_id}: unknown predicted_label {raw!r}") from None
        if predicted is not claim.label:
            continue
        la_hits += 1
        if claim.label is Label.NOT_ENOUGH_INFO:
            fever_hits += 1
            continue
        predicted_pairs = _predicted_pairs(rec, max_evidence)
        if any(all(pair in predicted_pairs for pair in group)
               for group in claim.evidence_groups):
            fever_hits += 1
    n = len(golds)
    return VerificationScores(label_accuracy=la_hits / n, fever=fever_hits / n)


def fever_scores(predictions, golds: Iterable[Claim], max_evidence: int = 5
                 ) -> VerificationScores:
    """Label accuracy and FEVER score over all claims.

    FEVER credit needs a correct label and either a gold NEI label or some
    gold evidence group fully contained in the first max_evidence predicted
    pairs. Predictions present in the file must carry `predicted_label`.
    """
    at_least("max_evidence", max_evidence, 1)
    return _fever_scores(_prediction_map(predictions), golds, max_evidence)


def evaluate(predictions, golds: Sequence[Claim], max_evidence: int = 5,
             oracle_labels: bool = False) -> dict:
    """`evaluate_map` of a list of prediction records, each checked by
    `check_predictions`."""
    return evaluate_map(_prediction_map(predictions), golds, max_evidence, oracle_labels)


def evaluate_map(pred_map: dict[int, dict], golds: Sequence[Claim], max_evidence: int = 5,
                 oracle_labels: bool = False) -> dict:
    """Full metrics report over records by claim_id, as `check_predictions`
    returns them. LA/FEVER are null unless some gold claim has a record and
    every gold claim's record carries a label; records for other claim ids
    are counted in `n.predicted` but not scored. `oracle_labels` copies each
    gold claim's label onto its record first (pipeline testing only; this
    package retrieves evidence, it does not verify claims)."""
    at_least("max_evidence", max_evidence, 1)
    if oracle_labels:
        labels = {c.claim_id: {"predicted_label": c.label.value} for c in golds}
        pred_map = {cid: dict(rec, **labels.get(cid, {})) for cid, rec in pred_map.items()}
    scored = [pred_map[c.claim_id] for c in golds if c.claim_id in pred_map]
    la = fever = None
    if scored and all("predicted_label" in rec for rec in scored):
        scores = _fever_scores(pred_map, golds, max_evidence)
        la, fever = scores.label_accuracy, scores.fever
    n_verifiable = sum(1 for c in golds if c.label is not Label.NOT_ENOUGH_INFO)
    return {
        "doc": _doc_prf(pred_map, golds).as_dict(),
        "sent": _sent_prf(pred_map, golds, max_evidence).as_dict(),
        "la": la,
        "fever": fever,
        "n": {"claims": len(golds), "verifiable": n_verifiable,
              "predicted": len(pred_map)},
        "settings": {"max_evidence": max_evidence, "averaging": "macro",
                     "oracle_labels": oracle_labels},
    }


def write_report(report: dict, path) -> None:
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    binio.write_atomic(path, (text.encode("utf-8"),))
