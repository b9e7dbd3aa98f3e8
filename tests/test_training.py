import numpy as np
import pytest

from gere import model as gmodel
from gere import nn
from gere.corpus import gold_targets
from gere.errors import TrainingError
from gere.model import DecoderState, Seq2SeqModel
from gere.tokenizer import BOS, EOS, EOT, SEP
from gere.training import (
    Trainer, encode_example, learning_rate, linearize_titles, make_batches,
)

from conftest import small_config
from oracles import loss_evidence, loss_title


# -- schedule -------------------------------------------------------------------


def test_schedule_anchors_exact():
    total, peak = 1000, 3e-5
    assert learning_rate(100, total, peak, 0.10) == peak  # exactly at 10%
    assert learning_rate(total, total, peak, 0.10) == 0.0
    assert learning_rate(50, total, peak, 0.10) == peak * 0.5


def test_schedule_linear_between():
    total, peak = 200, 3e-5
    warmup = 20
    for step in range(warmup, total + 1):
        expected = peak * (total - step) / (total - warmup)
        assert abs(learning_rate(step, total, peak, 0.10) - expected) < 1e-20
    for step in range(1, warmup + 1):
        assert abs(learning_rate(step, total, peak, 0.10) - peak * step / warmup) < 1e-20


def test_schedule_validates():
    with pytest.raises(ValueError):
        learning_rate(1, 100, 1e-3, 0.0)
    with pytest.raises(ValueError):
        learning_rate(0, 100, 1e-3, 0.1)


# -- target linearization ---------------------------------------------------------


def test_linearize_titles_layout(tiny_vocab):
    ids = linearize_titles(tiny_vocab, ["Alpha hill", "Beta ridge"])
    alpha = tiny_vocab.encode("Alpha hill")
    beta = tiny_vocab.encode("Beta ridge")
    assert ids == [BOS] + alpha + [EOT, SEP] + beta + [EOT, EOS]
    assert linearize_titles(tiny_vocab, []) == [BOS, EOS]


# -- batching ----------------------------------------------------------------------


def test_make_batches_budget(tiny_corpus, tiny_vocab, tiny_claims):
    pairs = [(c, gold_targets(c, tiny_corpus)) for c in tiny_claims[:3]]
    examples = [encode_example(c, g, tiny_corpus, tiny_vocab, 64) for c, g in pairs]
    one_each = make_batches(examples, 1)  # budget smaller than any example
    assert [len(b) for b in one_each] == [1, 1, 1]
    all_in_one = make_batches(examples, 10_000)
    assert [len(b) for b in all_in_one] == [3]


def _identities(batches):
    return [[id(ex) for ex in batch] for batch in batches]


@pytest.mark.parametrize("shuffle", [True, False])
def test_trainer_batches_resume_where_a_run_left_off(tiny_corpus, tiny_vocab, tiny_claims,
                                                     shuffle):
    pairs = [(c, gold_targets(c, tiny_corpus)) for c in tiny_claims[:3]]
    examples = [encode_example(c, g, tiny_corpus, tiny_vocab, 64) for c, g in pairs] * 2
    budget = 2 * max(ex.cost for ex in examples)  # a few batches per epoch
    model = Seq2SeqModel(small_config(len(tiny_vocab)))
    total = 11
    fresh = Trainer(model, tiny_vocab, total_updates=total)
    # The rule: epoch e batches shuffle_order(n, e) (input order without shuffle).
    expected = []
    for epoch in range(total):
        order = fresh.shuffle_order(len(examples), epoch) if shuffle else range(len(examples))
        expected += make_batches([examples[i] for i in order], budget)
    run = list(fresh.batches(examples, budget, shuffle))
    assert _identities(run) == _identities(expected[:total])
    assert 1 < len(make_batches(examples, budget)) < total  # resumes land mid-epoch

    for k in (0, 1, 4, total - 1, total):
        resumed = Trainer(model, tiny_vocab, total_updates=total)
        resumed.step_count = k
        batches = resumed.batches(examples, budget, shuffle)
        resumed.step_count = 0  # read when batches() is called, not when iterated
        tail = list(batches)
        assert len(tail) == total - k
        assert _identities(tail) == _identities(run[k:])


def test_trainer_batches_rejects_no_examples(tiny_vocab):
    trainer = Trainer(Seq2SeqModel(small_config(len(tiny_vocab))), tiny_vocab, total_updates=3)
    with pytest.raises(ValueError):
        trainer.batches([], 100)


def test_encode_example_candidates_and_slots(tiny_corpus, tiny_vocab, tiny_claims):
    claim = tiny_claims[1]  # evidence (Alpha_hill, 1), (Beta_ridge, 0)
    ex = encode_example(claim, gold_targets(claim, tiny_corpus), tiny_corpus,
                        tiny_vocab, 64)
    # Candidates: all sentences of both docs, ordered by (doc_id, index).
    assert len(ex.cand_ids) == 5
    assert ex.gold_slots == [1, 3]  # Alpha_hill idx1 -> slot 1; Beta_ridge idx0 -> slot 3
    assert ex.title_target[0] == BOS and ex.title_target[-1] == EOS


# -- train_step --------------------------------------------------------------------


def build_trainer(tiny_vocab, **kwargs):
    cfg = small_config(len(tiny_vocab), d_model=32, d_ff=64)
    model = Seq2SeqModel(cfg, vocab_checksum=tiny_vocab.checksum())
    defaults = dict(total_updates=250, peak_lr=2e-3, warmup_frac=0.10)
    defaults.update(kwargs)
    return Trainer(model, tiny_vocab, **defaults)


def test_train_step_stats_identity_and_lr(tiny_corpus, tiny_vocab, tiny_claims):
    trainer = build_trainer(tiny_vocab, total_updates=100, peak_lr=3e-5)
    batch = [(c, gold_targets(c, tiny_corpus)) for c in tiny_claims[:2]]
    for expected_step in range(1, 4):
        stats = trainer.train_step(batch, tiny_corpus)
        assert stats.step == expected_step
        assert stats.loss_total == stats.loss_title + stats.loss_evidence
        assert stats.learning_rate == learning_rate(expected_step, 100, 3e-5, 0.10)
        assert stats.grad_norm > 0


def _trainer_state(trainer):
    opt = trainer.optimizer
    return ({n: p.data.tobytes() for n, p in trainer.model.params.items()},
            {n: a.tobytes() for n, a in opt.m.items()},
            {n: a.tobytes() for n, a in opt.v.items()}, opt.t, trainer.step_count)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fault", ["loss", "grad_norm"])
def test_non_finite_update_raises_and_changes_nothing(fault, tiny_corpus, tiny_vocab,
                                                      tiny_claims, monkeypatch):
    trainer = build_trainer(tiny_vocab)
    batch = [(c, gold_targets(c, tiny_corpus)) for c in tiny_claims[:2]]
    trainer.train_step(batch, tiny_corpus)
    if fault == "loss":
        trainer.model.params["title_dec.out_b"].data[0] = np.inf
    else:
        monkeypatch.setattr(nn, "clip_gradients", lambda params, max_norm: float("nan"))
    before = _trainer_state(trainer)
    with pytest.raises(TrainingError, match="update 2: non-finite"):
        trainer.train_step(batch, tiny_corpus)
    assert _trainer_state(trainer) == before


def test_train_step_rejects_nei_and_empty(tiny_corpus, tiny_vocab, tiny_claims):
    trainer = build_trainer(tiny_vocab)
    nei = tiny_claims[3]
    with pytest.raises(ValueError):
        trainer.train_step([(nei, None)], tiny_corpus)
    with pytest.raises(ValueError):
        trainer.train_step([], tiny_corpus)


def test_single_claim_overfit_smoke(tiny_corpus, tiny_vocab, tiny_claims):
    """200 repeats of one claim: loss_total decreases over any 50-step window."""
    trainer = build_trainer(tiny_vocab, total_updates=200, peak_lr=1e-3)
    claim = tiny_claims[0]
    batch = [(claim, gold_targets(claim, tiny_corpus))]
    losses = [trainer.train_step(batch, tiny_corpus).loss_total for _ in range(200)]
    for t in range(len(losses) - 50):
        assert losses[t + 50] < losses[t], f"no decrease in window starting at {t}"
    assert losses[-1] < losses[0] / 5


def test_training_deterministic(tiny_corpus, tiny_vocab, tiny_claims):
    batch_claims = tiny_claims[:3]

    def run():
        trainer = build_trainer(tiny_vocab, total_updates=30)
        batch = [(c, gold_targets(c, tiny_corpus)) for c in batch_claims]
        return [trainer.train_step(batch, tiny_corpus) for _ in range(10)]

    first, second = run(), run()
    for a, b in zip(first, second):
        assert a == b  # bit-identical TrainStats sequence


def test_seed_changes_losses(tiny_corpus, tiny_vocab, tiny_claims):
    def run(seed):
        cfg = small_config(len(tiny_vocab), seed=seed)
        model = Seq2SeqModel(cfg)
        trainer = Trainer(model, tiny_vocab, total_updates=20, peak_lr=1e-3)
        batch = [(c, gold_targets(c, tiny_corpus)) for c in tiny_claims[:2]]
        return [trainer.train_step(batch, tiny_corpus).loss_total for _ in range(5)]

    assert run(1) != run(2)


def test_dropout_training_still_deterministic(tiny_corpus, tiny_vocab, tiny_claims):
    def run():
        cfg = small_config(len(tiny_vocab), dropout_rate=0.2)
        model = Seq2SeqModel(cfg)
        trainer = Trainer(model, tiny_vocab, total_updates=10, peak_lr=1e-3)
        batch = [(c, gold_targets(c, tiny_corpus)) for c in tiny_claims[:2]]
        return [trainer.train_step(batch, tiny_corpus).loss_total for _ in range(4)]

    assert run() == run()


def test_trainer_loss_matches_public_ops(tiny_corpus, tiny_vocab, tiny_claims):
    """Batch-of-1 trainer losses agree with the single-example loss operations."""
    cfg = small_config(len(tiny_vocab))
    model = Seq2SeqModel(cfg, dtype=np.float64)
    trainer = Trainer(model, tiny_vocab, total_updates=10)
    claim = tiny_claims[1]
    targets = gold_targets(claim, tiny_corpus)
    ex = encode_example(claim, targets, tiny_corpus, tiny_vocab, cfg.max_positions)
    lt, le = trainer.loss_graph([ex])

    enc = model.encode_claim(tiny_vocab.encode(claim.text))
    want_title = loss_title(model, enc, linearize_titles(tiny_vocab, targets.title_sequence))
    cands = [model.encode_sentence(ids, source=None) for ids in ex.cand_ids]
    for emb, (doc_id, idx, _) in zip(cands, tiny_corpus.candidates(
            [d for d, _ in targets.evidence_sequence])):
        emb.source = (doc_id, idx)
    want_evidence = loss_evidence(model, enc, list(targets.evidence_sequence), cands)
    np.testing.assert_allclose(float(lt.data), want_title, rtol=1e-9)
    np.testing.assert_allclose(float(le.data), want_evidence, rtol=1e-9)


# -- dtypes ------------------------------------------------------------------------


def test_float32_model_trains_and_decodes_in_float32(tiny_corpus, tiny_vocab, tiny_claims):
    """No float64 scalar (the attention scale, a constant) promotes a float32
    model: its loss, gradients, Adam moments and engine outputs stay float32."""
    trainer = build_trainer(tiny_vocab)
    model = trainer.model
    examples = [encode_example(c, gold_targets(c, tiny_corpus), tiny_corpus, tiny_vocab, 64)
                for c in tiny_claims[:3]]
    assert all(t.data.dtype == np.float32 for t in trainer.loss_graph(examples))
    trainer.train_step_encoded(examples)
    assert {name: p.grad.dtype for name, p in model.params.items()} == \
        {name: np.dtype(np.float32) for name in model.params}
    for moments in (trainer.optimizer.m, trainer.optimizer.v):
        assert {a.dtype for a in moments.values()} == {np.dtype(np.float32)}

    enc = model.encode_claim(tiny_vocab.encode(tiny_claims[0].text))
    sentence = model.encode_sentence(tiny_vocab.encode("alpha hill rises early ."))
    logits = model.title_step(DecoderState(model, "title_dec", enc), [BOS])
    scores = model.evidence_step(DecoderState(model, "evid_dec", enc),
                                 model.params["evid_dec.start"].data, [sentence])
    for array in (enc.states, sentence.vector, logits, scores):
        assert array.dtype == np.float32


def test_float64_model_arithmetic_is_unchanged(tiny_corpus, tiny_vocab, tiny_claims,
                                               monkeypatch):
    """On a float64 model the weak Python-float attention scale gives the same
    bits as a NumPy float64 scale: losses and every gradient are identical."""
    cfg = small_config(len(tiny_vocab))
    model = Seq2SeqModel(cfg, dtype=np.float64)
    trainer = Trainer(model, tiny_vocab, total_updates=10)
    examples = [encode_example(c, gold_targets(c, tiny_corpus), tiny_corpus, tiny_vocab,
                               cfg.max_positions) for c in tiny_claims[:3]]

    def losses_and_grads():
        lt, le = trainer.loss_graph(examples)
        nn.zero_grads(model.params)
        nn.backward(nn.add(lt, le))
        return float(lt.data), float(le.data), {n: p.grad for n, p in model.params.items()}

    weak = losses_and_grads()
    monkeypatch.setattr(gmodel, "_scale",
                        lambda c: np.float64(1.0) / np.sqrt(c.d_model // c.n_heads))
    numpy_scalar = losses_and_grads()
    assert weak[:2] == numpy_scalar[:2]
    assert all(np.array_equal(weak[2][n], numpy_scalar[2][n]) for n in model.params)
