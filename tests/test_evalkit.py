import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gere.corpus import Claim, Label
from gere.errors import DataError
from gere.evalkit import (
    PRF, doc_prf, evaluate, fever_scores, sent_prf, write_report,
)

from oracles import random_eval_dataset, score_dataset_bruteforce


def gold(cid, label, groups):
    return Claim(cid, f"claim {cid}", Label(label),
                 tuple(tuple((d, i) for d, i in g) for g in groups))


def pred(cid, titles=(), evidence=(), label=None):
    rec = {"claim_id": cid, "predicted_titles": list(titles),
           "predicted_evidence": [[d, i] for d, i in evidence]}
    if label is not None:
        rec["predicted_label"] = label
    return rec


# -- doc prf ---------------------------------------------------------------------


def test_doc_prf_perfect():
    golds = [gold(1, "SUPPORTS", [[("A", 0)]]), gold(2, "REFUTES", [[("B", 1), ("C", 0)]])]
    preds = [pred(1, titles=["A"]), pred(2, titles=["B", "C"])]
    assert doc_prf(preds, golds) == PRF(1.0, 1.0, 1.0)


def test_doc_prf_empty_predictions():
    golds = [gold(1, "SUPPORTS", [[("A", 0)]])]
    assert doc_prf([], golds) == PRF(0.0, 0.0, 0.0)


def test_doc_prf_hand_case():
    # claim1 pred {A}, gold {A,B} -> P=1, R=0.5 ; claim2 pred {A,B}, gold {B} -> P=0.5, R=1
    golds = [gold(1, "SUPPORTS", [[("A", 0), ("B", 0)]]),
             gold(2, "SUPPORTS", [[("B", 3)]])]
    preds = [pred(1, titles=["A"]), pred(2, titles=["A", "B"])]
    got = doc_prf(preds, golds)
    assert got == PRF(0.75, 0.75, 0.75)


def test_doc_prf_excludes_nei():
    golds = [gold(1, "SUPPORTS", [[("A", 0)]]), gold(2, "NOT ENOUGH INFO", [])]
    preds = [pred(1, titles=["A"]), pred(2, titles=["Z"])]
    assert doc_prf(preds, golds) == PRF(1.0, 1.0, 1.0)


# -- sent prf ---------------------------------------------------------------------


def test_sent_prf_perfect_and_empty():
    golds = [gold(1, "SUPPORTS", [[("A", 0), ("A", 1)]])]
    assert sent_prf([pred(1, evidence=[("A", 0), ("A", 1)])], golds) == PRF(1.0, 1.0, 1.0)
    assert sent_prf([pred(1)], golds) == PRF(0.0, 0.0, 0.0)


def test_sent_prf_hand_case_with_truncation():
    golds = [gold(1, "SUPPORTS", [[("A", 5)]])]
    evidence = [("A", 0), ("A", 1), ("A", 2), ("A", 3), ("A", 4), ("A", 5)]
    got = sent_prf([pred(1, evidence=evidence)], golds, max_evidence=5)
    assert got == PRF(0.0, 0.0, 0.0)  # the gold pair sits beyond the window
    got = sent_prf([pred(1, evidence=evidence)], golds, max_evidence=6)
    assert got == PRF(pytest.approx(1 / 6), 1.0, pytest.approx(2 * (1 / 6) / (1 + 1 / 6)))


@pytest.mark.parametrize("max_evidence", [0, -1])
def test_max_evidence_below_one_is_rejected(max_evidence):
    golds = [gold(1, "SUPPORTS", [[("A", 0)]])]
    preds = [pred(1, evidence=[("A", 0), ("A", 1)], label="SUPPORTS")]
    with pytest.raises(ValueError, match="max_evidence"):
        sent_prf(preds, golds, max_evidence=max_evidence)
    with pytest.raises(ValueError, match="max_evidence"):
        fever_scores(preds, golds, max_evidence=max_evidence)


@pytest.mark.parametrize("max_evidence", [0, -1])
def test_max_evidence_below_one_is_rejected_without_verifiable_golds(max_evidence):
    """The check runs on entry, not per verifiable claim: all-NEI golds still raise."""
    golds = [gold(1, "NOT ENOUGH INFO", []), gold(2, "NOT ENOUGH INFO", [])]
    preds = [pred(1, label="NOT ENOUGH INFO"), pred(2, label="NOT ENOUGH INFO")]
    for score in (evaluate, sent_prf, fever_scores):
        with pytest.raises(ValueError, match="max_evidence"):
            score(preds, golds, max_evidence=max_evidence)


def test_sent_recall_monotone_in_max_evidence():
    golds = [gold(1, "SUPPORTS", [[("A", 1), ("A", 3)]]),
             gold(2, "REFUTES", [[("B", 0)]])]
    preds = [pred(1, evidence=[("A", 0), ("A", 1), ("A", 2), ("A", 3)]),
             pred(2, evidence=[("B", 2), ("B", 0)])]
    recalls = [sent_prf(preds, golds, max_evidence=k).recall for k in range(1, 7)]
    assert all(b >= a for a, b in zip(recalls, recalls[1:]))


# -- fever ------------------------------------------------------------------------


def test_fever_full_group_required():
    golds = [gold(1, "SUPPORTS", [[("A", 0), ("A", 1)]])]
    full = [pred(1, evidence=[("A", 0), ("A", 1)], label="SUPPORTS")]
    half = [pred(1, evidence=[("A", 0)], label="SUPPORTS")]
    assert fever_scores(full, golds).fever == 1.0
    scores = fever_scores(half, golds)
    assert scores.label_accuracy == 1.0 and scores.fever == 0.0


def test_fever_any_group_suffices():
    golds = [gold(1, "SUPPORTS", [[("A", 0), ("A", 1)], [("B", 2)]])]
    preds = [pred(1, evidence=[("B", 2)], label="SUPPORTS")]
    assert fever_scores(preds, golds).fever == 1.0


def test_fever_nei_convention():
    golds = [gold(1, "NOT ENOUGH INFO", [])]
    preds = [pred(1, label="NOT ENOUGH INFO")]
    scores = fever_scores(preds, golds)
    assert scores.label_accuracy == 1.0 and scores.fever == 1.0


def test_fever_wrong_label_no_credit():
    golds = [gold(1, "SUPPORTS", [[("A", 0)]])]
    preds = [pred(1, evidence=[("A", 0)], label="REFUTES")]
    scores = fever_scores(preds, golds)
    assert scores.label_accuracy == 0.0 and scores.fever == 0.0


def test_fever_missing_label_errors_but_missing_claim_is_zero():
    golds = [gold(1, "SUPPORTS", [[("A", 0)]]), gold(2, "SUPPORTS", [[("B", 0)]])]
    with pytest.raises(DataError):
        fever_scores([pred(1, evidence=[("A", 0)])], golds)
    scores = fever_scores([pred(1, evidence=[("A", 0)], label="SUPPORTS")], golds)
    assert scores.label_accuracy == 0.5 and scores.fever == 0.5


def test_oracle_labels_pass_through():
    golds = [gold(1, "REFUTES", [[("A", 0)]]), gold(2, "NOT ENOUGH INFO", [])]
    preds = [pred(1, evidence=[("A", 0)]), pred(2)]
    report = evaluate(preds, golds, oracle_labels=True)
    assert report["la"] == 1.0 and report["fever"] == 1.0


@pytest.mark.parametrize("field, value", [
    ("predicted_evidence", [["A"]]),
    ("predicted_evidence", [["A", "0"]]),
    ("predicted_evidence", "A"),
    ("predicted_titles", "A"),
    ("predicted_titles", [["A"]]),
    ("predicted_evidence", [["A", -1]]),
])
def test_malformed_prediction_fields_are_data_errors(field, value):
    golds = [gold(7, "SUPPORTS", [[("A", 0)]])]
    rec = dict(pred(7, titles=["A"], evidence=[("A", 0)], label="SUPPORTS"), **{field: value})
    with pytest.raises(DataError, match=f"claim_id 7: {field}"):
        evaluate([rec], golds)


def test_in_memory_record_errors_name_the_record():
    golds = [gold(7, "SUPPORTS", [[("A", 0)]])]
    bad = dict(pred(7), predicted_titles="A")
    with pytest.raises(DataError, match="^prediction 1: claim_id 7: predicted_titles"):
        evaluate([pred(6), bad], golds)
    with pytest.raises(DataError, match="^prediction 2: duplicate prediction for claim_id 7$"):
        evaluate([pred(7), pred(6), pred(7)], golds)


# -- randomized oracle cross-check ---------------------------------------------------


def test_matches_bruteforce_scorer_on_random_datasets(rng):
    for trial in range(60):
        preds, golds = random_eval_dataset(rng)
        want = score_dataset_bruteforce(preds, golds, max_evidence=5)
        doc = doc_prf(preds, golds)
        sent = sent_prf(preds, golds, 5)
        assert (doc.precision, doc.recall, doc.f1) == (
            want["doc"]["precision"], want["doc"]["recall"], want["doc"]["f1"])
        assert (sent.precision, sent.recall, sent.f1) == (
            want["sent"]["precision"], want["sent"]["recall"], want["sent"]["f1"])
        scores = fever_scores(preds, golds, 5)
        assert scores.label_accuracy == want["la"]
        assert scores.fever == want["fever"]
        assert scores.fever <= scores.label_accuracy


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_fever_never_exceeds_label_accuracy(seed):
    preds, golds = random_eval_dataset(np.random.default_rng(seed))
    scores = fever_scores(preds, golds, 5)
    assert scores.fever <= scores.label_accuracy


# -- report ------------------------------------------------------------------------


def test_evaluate_report_shape(tmp_path):
    golds = [gold(1, "SUPPORTS", [[("A", 0)]]), gold(2, "NOT ENOUGH INFO", [])]
    preds = [pred(1, titles=["A"], evidence=[("A", 0)])]
    report = evaluate(preds, golds, oracle_labels=True)
    assert set(report) == {"doc", "sent", "la", "fever", "n", "settings"}
    assert report["doc"]["f1"] == 1.0
    assert report["la"] == 0.5  # claim 2 has no prediction record at all
    assert report["n"] == {"claims": 2, "verifiable": 1, "predicted": 1}
    path = tmp_path / "report.json"
    write_report(report, path)
    assert path.read_text().startswith("{")


def test_evaluate_without_labels_nulls_verification():
    golds = [gold(1, "SUPPORTS", [[("A", 0)]])]
    report = evaluate([pred(1, titles=["A"])], golds)
    assert report["la"] is None and report["fever"] is None


def test_unknown_claim_record_does_not_null_oracle_verification():
    golds = [gold(1, "SUPPORTS", [[("A", 0)]])]
    preds = [pred(1, titles=["A"], evidence=[("A", 0)]), pred(99, titles=["Z"])]
    report = evaluate(preds, golds, oracle_labels=True)
    assert report["la"] == 1.0 and report["fever"] == 1.0
    assert report["n"]["predicted"] == 2


def test_unlabelled_unknown_claim_record_does_not_null_verification():
    golds = [gold(1, "SUPPORTS", [[("A", 0)]])]
    preds = [pred(1, titles=["A"], evidence=[("A", 0)], label="SUPPORTS"), pred(99)]
    report = evaluate(preds, golds)
    assert report["la"] == 1.0 and report["fever"] == 1.0
    assert report["n"]["predicted"] == 2


def test_verification_is_null_without_a_gold_claim_record():
    golds = [gold(1, "SUPPORTS", [[("A", 0)]])]
    report = evaluate([pred(99, label="SUPPORTS")], golds, oracle_labels=True)
    assert report["la"] is None and report["fever"] is None


@pytest.mark.parametrize("score", [evaluate, doc_prf, sent_prf, fever_scores],
                         ids=lambda f: f.__name__)
def test_prediction_claim_id_must_be_an_integer(score):
    """A missing claim_id, a list and a bool are data errors, not a
    KeyError, a TypeError and a record scored as claim 1."""
    golds = [gold(1, "SUPPORTS", [[("A", 0)]])]
    body = pred(1, titles=["A"], evidence=[("A", 0)], label="SUPPORTS")
    del body["claim_id"]
    for rec in (body, {**body, "claim_id": [1]}, {**body, "claim_id": True}):
        with pytest.raises(DataError, match="claim_id"):
            score([rec], golds)


@pytest.mark.parametrize("oracle_labels", [False, True])
@pytest.mark.parametrize("label", [None, "SUPPORTS"])
def test_evaluate_validates_predictions_once(monkeypatch, oracle_labels, label):
    from gere import evalkit
    calls = []
    validate = evalkit._prediction_map
    monkeypatch.setattr(evalkit, "_prediction_map",
                        lambda predictions: calls.append(1) or validate(predictions))
    golds = [gold(1, "SUPPORTS", [[("A", 0)]]), gold(2, "NOT ENOUGH INFO", [])]
    preds = [pred(1, titles=["A"], evidence=[("A", 0)], label=label), pred(2, label=label)]
    evaluate(preds, golds, oracle_labels=oracle_labels)
    assert len(calls) == 1
