import numpy as np
import pytest

from gere import model as gmodel
from gere import nn
from gere.corpus import Claim, Corpus, Label, gold_targets, verifiable
from gere.errors import DataError, TrainingError
from gere.model import DecoderState, Seq2SeqModel, length_groups
from gere.tokenizer import BOS, EOS, EOT, SEP, build_vocab
from gere.training import (
    Trainer, encode_example, learning_rate, linearize_titles, make_batches,
)

from conftest import make_doc, small_config
from oracles import PaddedSentenceTrainer, loss_evidence, loss_title, train_step


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


@pytest.mark.parametrize("clip_norm", [0.0, -1.0, float("nan"), float("inf")])
def test_trainer_rejects_a_clip_norm_that_would_not_clip(tiny_vocab, clip_norm):
    model = Seq2SeqModel(small_config(len(tiny_vocab)))
    with pytest.raises(ValueError, match="clip_norm"):
        Trainer(model, tiny_vocab, total_updates=3, clip_norm=clip_norm)


@pytest.mark.parametrize("peak_lr", [float("nan"), float("inf"), 0.0, -1.0])
def test_trainer_rejects_a_peak_lr_that_is_not_finite_and_positive(tiny_vocab, peak_lr):
    model = Seq2SeqModel(small_config(len(tiny_vocab)))
    with pytest.raises(ValueError, match="peak_lr"):
        Trainer(model, tiny_vocab, total_updates=3, peak_lr=peak_lr)


def test_encode_example_candidates_and_slots(tiny_corpus, tiny_vocab, tiny_claims):
    claim = tiny_claims[1]  # evidence (Alpha_hill, 1), (Beta_ridge, 0)
    ex = encode_example(claim, gold_targets(claim, tiny_corpus), tiny_corpus,
                        tiny_vocab, 64)
    # Candidates: all sentences of both docs, ordered by (doc_id, index).
    assert len(ex.cand_ids) == 5
    assert ex.gold_slots == [1, 3]  # Alpha_hill idx1 -> slot 1; Beta_ridge idx0 -> slot 3
    assert ex.title_target[0] == BOS and ex.title_target[-1] == EOS


def test_encode_example_rejects_more_gold_evidence_than_the_decoder_holds():
    """The evidence decoder reads the start vector, then each gold pick: 4 gold
    sentences need 5 positions. The one-token title fits at every setting."""
    corpus = Corpus()
    corpus.add(make_doc("Gamma", [f"key{i} gamma holds ." for i in range(4)]))
    vocab = build_vocab(corpus, [], 100)
    claim = Claim(9, "gamma holds", Label.SUPPORTS, (tuple(("Gamma", i) for i in range(4)),))
    targets = gold_targets(claim, corpus)
    with pytest.raises(DataError, match="claim 9: gold evidence longer"):
        encode_example(claim, targets, corpus, vocab, 4)
    ex = encode_example(claim, targets, corpus, vocab, 5)
    trainer = Trainer(Seq2SeqModel(small_config(len(vocab), max_positions=5)), vocab,
                      total_updates=1)
    trainer.train_step_encoded([ex])  # the longest evidence target fits the decoder


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
        stats = train_step(trainer, batch, tiny_corpus)
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
    train_step(trainer, batch, tiny_corpus)
    if fault == "loss":
        trainer.model.params["title_dec.out_b"].data[0] = np.inf
    else:
        monkeypatch.setattr(nn, "clip_gradients", lambda params, max_norm: float("nan"))
    before = _trainer_state(trainer)
    with pytest.raises(TrainingError, match="update 2: non-finite"):
        train_step(trainer, batch, tiny_corpus)
    assert _trainer_state(trainer) == before


def test_train_step_rejects_nei_and_empty(tiny_corpus, tiny_vocab, tiny_claims):
    trainer = build_trainer(tiny_vocab)
    nei = tiny_claims[3]
    with pytest.raises(ValueError):
        train_step(trainer, [(nei, None)], tiny_corpus)
    with pytest.raises(ValueError):
        train_step(trainer, [], tiny_corpus)


def test_single_claim_overfit_smoke(tiny_corpus, tiny_vocab, tiny_claims):
    """200 repeats of one claim: loss_total decreases over any 50-step window."""
    trainer = build_trainer(tiny_vocab, total_updates=200, peak_lr=1e-3)
    claim = tiny_claims[0]
    batch = [(claim, gold_targets(claim, tiny_corpus))]
    losses = [train_step(trainer, batch, tiny_corpus).loss_total for _ in range(200)]
    for t in range(len(losses) - 50):
        assert losses[t + 50] < losses[t], f"no decrease in window starting at {t}"
    assert losses[-1] < losses[0] / 5


def test_training_deterministic(tiny_corpus, tiny_vocab, tiny_claims):
    batch_claims = tiny_claims[:3]

    def run():
        trainer = build_trainer(tiny_vocab, total_updates=30)
        batch = [(c, gold_targets(c, tiny_corpus)) for c in batch_claims]
        return [train_step(trainer, batch, tiny_corpus) for _ in range(10)]

    first, second = run(), run()
    for a, b in zip(first, second):
        assert a == b  # bit-identical TrainStats sequence


def test_seed_changes_losses(tiny_corpus, tiny_vocab, tiny_claims):
    def run(seed):
        cfg = small_config(len(tiny_vocab), seed=seed)
        model = Seq2SeqModel(cfg)
        trainer = Trainer(model, tiny_vocab, total_updates=20, peak_lr=1e-3)
        batch = [(c, gold_targets(c, tiny_corpus)) for c in tiny_claims[:2]]
        return [train_step(trainer, batch, tiny_corpus).loss_total for _ in range(5)]

    assert run(1) != run(2)


def test_dropout_training_still_deterministic(tiny_corpus, tiny_vocab, tiny_claims):
    def run():
        cfg = small_config(len(tiny_vocab), dropout_rate=0.2)
        model = Seq2SeqModel(cfg)
        trainer = Trainer(model, tiny_vocab, total_updates=10, peak_lr=1e-3)
        batch = [(c, gold_targets(c, tiny_corpus)) for c in tiny_claims[:2]]
        return [train_step(trainer, batch, tiny_corpus).loss_total for _ in range(4)]

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


def test_batch_losses_are_weighted_means_of_example_losses(tiny_corpus, tiny_vocab,
                                                           tiny_claims):
    """A batch's title (evidence) loss is its examples' single-example losses
    averaged with weights of their target tokens (evidence steps): the batch's
    candidate offsets, slots and step maps put each example's rows in place."""
    cfg = small_config(len(tiny_vocab))
    model = Seq2SeqModel(cfg, dtype=np.float64)
    trainer = Trainer(model, tiny_vocab, total_updates=10)
    examples, title_terms, evidence_terms = [], [], []
    for claim in verifiable(tiny_claims):
        targets = gold_targets(claim, tiny_corpus)
        ex = encode_example(claim, targets, tiny_corpus, tiny_vocab, cfg.max_positions)
        enc = model.encode_claim(tiny_vocab.encode(claim.text))
        cands = [model.encode_sentence(ids, source=None) for ids in ex.cand_ids]
        for emb, (doc_id, idx, _) in zip(cands, tiny_corpus.candidates(
                [d for d, _ in targets.evidence_sequence])):
            emb.source = (doc_id, idx)
        examples.append(ex)
        title_terms.append((len(ex.title_target) - 1, loss_title(model, enc, ex.title_target)))
        evidence_terms.append((len(ex.gold_slots) + 1, loss_evidence(
            model, enc, list(targets.evidence_sequence), cands)))
    assert len({len(ex.cand_ids) for ex in examples}) > 1
    assert len({len(ex.gold_slots) for ex in examples}) > 1

    def weighted(terms):
        return sum(n * loss for n, loss in terms) / sum(n for n, _ in terms)

    lt, le = trainer.loss_graph(examples)
    np.testing.assert_allclose(float(lt.data), weighted(title_terms), rtol=1e-9)
    np.testing.assert_allclose(float(le.data), weighted(evidence_terms), rtol=1e-9)


# -- the sentence encoder's length groups ------------------------------------------


def mixed_length_batch(tiny_corpus, tiny_vocab, tiny_claims):
    """The verifiable tiny claims at max_positions 8, with 2 encoder layers:
    candidate sentences of several lengths, among them one cut from 9 tokens
    to 8 and a blank one (a lone EOS), the only sentence of its length."""
    cfg = small_config(len(tiny_vocab), max_positions=8, n_layers_enc=2)
    examples = [encode_example(c, gold_targets(c, tiny_corpus), tiny_corpus, tiny_vocab, 8)
                for c in verifiable(tiny_claims)]
    sents = [ids for ex in examples for ids in ex.cand_ids]
    assert [EOS] in sents
    assert max(len(tiny_vocab.encode(text)) for _, _, text in tiny_corpus.candidates(
        ["Alpha_hill_-LRB-film-RRB-"])) > 8 == max(map(len, sents))
    assert min(map(len, length_groups(sents))) == 1 < max(map(len, length_groups(sents)))
    return cfg, examples


def test_grouped_sentence_pass_matches_padded_oracle(tiny_corpus, tiny_vocab, tiny_claims):
    """In float64 the length-grouped graph gives the padded pass's losses and
    gradients up to rounding: only GEMM shapes and reduction lengths differ."""
    cfg, examples = mixed_length_batch(tiny_corpus, tiny_vocab, tiny_claims)
    runs = []
    for cls in (Trainer, PaddedSentenceTrainer):
        model = Seq2SeqModel(cfg, dtype=np.float64)
        lt, le = cls(model, tiny_vocab, total_updates=10).loss_graph(examples)
        nn.backward(nn.add(lt, le))
        runs.append((float(lt.data), float(le.data), {n: p.grad for n, p in model.params.items()}))
    (lt, le, grads), (want_lt, want_le, want_grads) = runs
    assert lt == want_lt  # the title loss does not read the sentence encoder
    np.testing.assert_allclose(le, want_le, rtol=1e-10)
    assert grads.keys() == want_grads.keys()
    # An attention key bias gets a zero gradient up to rounding, so entries
    # are also compared against the largest gradient of all.
    scale = max(np.abs(want).max() for want in want_grads.values())
    for name, want in want_grads.items():
        assert want is not None and grads[name] is not None, name
        np.testing.assert_allclose(grads[name], want, rtol=1e-10, atol=1e-14 * scale,
                                   err_msg=name)


def test_sentence_encoder_computes_no_padded_row(tiny_corpus, tiny_vocab, tiny_claims,
                                                 monkeypatch):
    cfg, examples = mixed_length_batch(tiny_corpus, tiny_vocab, tiny_claims)
    passes = []
    forward = Seq2SeqModel.encoder_forward

    def spy(self, name, ids, valid, rng=None):
        if name == "sent_enc":
            passes.append((ids.shape, valid.all()))
        return forward(self, name, ids, valid, rng)

    monkeypatch.setattr(Seq2SeqModel, "encoder_forward", spy)
    Trainer(Seq2SeqModel(cfg), tiny_vocab, total_updates=10).loss_graph(examples)
    sents = [ids for ex in examples for ids in ex.cand_ids]
    assert sum(rows * width for (rows, width), _ in passes) == sum(map(len, sents))
    assert len(passes) == len({len(ids) for ids in sents})
    assert all(all_valid for _, all_valid in passes)


def test_pooled_rows_come_back_in_input_order(tiny_vocab):
    """Row i of the grouped pass is sentence i, whatever the group order: it
    equals the engine's embedding of that sentence alone."""
    cfg = small_config(len(tiny_vocab), max_positions=8)
    model = Seq2SeqModel(cfg, dtype=np.float64)
    rng = np.random.default_rng(3)
    sents = [rng.integers(6, len(tiny_vocab), n).tolist() for n in (7, 3, 7, 1, 3)]
    assert length_groups(sents) == [[0, 2], [1, 4], [3]]
    pooled = Trainer(model, tiny_vocab, total_updates=1).pooled_sentences(sents, None)
    assert pooled.data.shape == (5, cfg.d_model)
    for row, ids in zip(pooled.data, sents):
        np.testing.assert_allclose(row, model.encode_sentence(ids).vector, rtol=0, atol=1e-12)


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
    for array in (enc, sentence.vector, logits, scores):
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
