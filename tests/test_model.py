import numpy as np
import pytest

from gere import nn
from gere.errors import DataError
from gere.decoding import greedy_evidence
from gere.model import DecoderState, ModelConfig, Seq2SeqModel, SentenceEmbedding
from gere.tokenizer import BOS, EOS, EOT, SEP, UNK

from conftest import small_config
from oracles import loss_evidence, loss_title, title_logits_all


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=100, d_model=30, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=100, label_smoothing=1.0)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=3)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=100, dropout_rate=-0.1)
    # Sizes below their floor; zero layers stays legal.
    for key, value in (("n_heads", 0), ("n_heads", -2), ("d_model", 0), ("d_model", -64),
                       ("d_ff", 0), ("n_layers_enc", -1), ("n_layers_dec", -1), ("seed", -1),
                       ("init_std", 0.0), ("init_std", -0.5), ("init_std", float("nan")),
                       ("init_std", float("inf"))):
        with pytest.raises(ValueError, match=key):
            ModelConfig(vocab_size=100, **{key: value})
    ModelConfig(vocab_size=100, n_layers_enc=0, n_layers_dec=0)


def test_config_kv_round_trip():
    cfg = ModelConfig(vocab_size=123, d_model=32, n_heads=4, seed=9, dropout_rate=0.25)
    assert ModelConfig.from_kv(cfg.to_kv()) == cfg


def test_config_kv_text_is_pinned():
    # The checkpoint's config block is this text; changing it changes the file format.
    assert ModelConfig(vocab_size=100).to_kv() == (
        "vocab_size=100\nd_model=64\nn_heads=4\nn_layers_enc=2\nn_layers_dec=2\n"
        "d_ff=256\nmax_positions=256\ndropout_rate=0.0\nlabel_smoothing=0.1\nseed=0\n"
        "init_std=0.02\n")


def test_config_kv_file(tmp_path):
    path = tmp_path / "model.cfg"
    path.write_text("# comment line\nvocab_size=64\nd_model=32\nn_heads=4\n")
    cfg = ModelConfig.from_kv(path.read_text())
    assert cfg.vocab_size == 64 and cfg.d_model == 32


def test_config_kv_rejects_garbage():
    with pytest.raises(DataError):
        ModelConfig.from_kv("vocab_size=10\nnot a line\n")
    with pytest.raises(DataError):
        ModelConfig.from_kv("vocab_size=10\nwidgets=4\n")
    with pytest.raises(DataError):
        ModelConfig.from_kv("vocab_size=10\nd_model=6.4\n")
    with pytest.raises(DataError):
        ModelConfig.from_kv("d_model=64\n")
    with pytest.raises(DataError, match="n_heads 3"):
        ModelConfig.from_kv("vocab_size=10\nn_heads=3\n")
    with pytest.raises(DataError, match="init_std"):
        ModelConfig.from_kv("vocab_size=10\ninit_std=nan\n")


def test_same_seed_same_params(tiny_vocab):
    cfg = small_config(len(tiny_vocab))
    m1, m2 = Seq2SeqModel(cfg), Seq2SeqModel(cfg)
    for name in m1.params:
        np.testing.assert_array_equal(m1.params[name].data, m2.params[name].data)
    m3 = Seq2SeqModel(small_config(len(tiny_vocab), seed=99))
    assert any(not np.array_equal(m1.params[n].data, m3.params[n].data) for n in m1.params)


# -- encode_claim ---------------------------------------------------------------


def test_encode_claim_deterministic(tiny_model, tiny_vocab):
    ids = tiny_vocab.encode("alpha hill rises early")
    e1 = tiny_model.encode_claim(ids)
    e2 = tiny_model.encode_claim(ids)
    np.testing.assert_array_equal(e1, e2)


def test_encode_claim_position_sensitive(tiny_model, tiny_vocab):
    a = tiny_model.encode_claim(tiny_vocab.encode("alpha hill"))
    b = tiny_model.encode_claim(tiny_vocab.encode("hill alpha"))
    assert not np.array_equal(a, b)


def test_encode_claim_shapes_and_truncation(tiny_model, tiny_vocab):
    e = tiny_model.encode_claim([tiny_vocab.ids["alpha"]])
    assert e.shape == (1, tiny_model.config.d_model)
    long_ids = [tiny_vocab.ids["alpha"]] * (tiny_model.config.max_positions + 5)
    e = tiny_model.encode_claim(long_ids)
    assert e.shape == (tiny_model.config.max_positions, tiny_model.config.d_model)
    with pytest.raises(ValueError):
        tiny_model.encode_claim([])


# -- decode_step_title ----------------------------------------------------------


def test_decode_step_title_contract(tiny_model, tiny_vocab):
    enc = tiny_model.encode_claim(tiny_vocab.encode("alpha hill"))
    logits = tiny_model.decode_step_title(enc, [BOS])
    assert logits.shape == (len(tiny_vocab),)
    assert np.isfinite(logits).all()
    with pytest.raises(ValueError):
        tiny_model.decode_step_title(enc, [])
    with pytest.raises(ValueError):
        tiny_model.decode_step_title(enc, [EOS, BOS])


def test_decode_step_title_softmax_normalizes(tiny_model, tiny_vocab):
    enc = tiny_model.encode_claim(tiny_vocab.encode("beta ridge"))
    logits = tiny_model.decode_step_title(enc, [BOS, tiny_vocab.ids["beta"]])
    probs = np.exp(nn.log_softmax64(logits))
    assert abs(probs.sum() - 1.0) < 1e-6


def test_decoder_causality(tiny_model, tiny_vocab):
    enc = tiny_model.encode_claim(tiny_vocab.encode("alpha hill"))
    a = tiny_vocab.ids["alpha"]
    b = tiny_vocab.ids["beta"]
    full_a = title_logits_all(tiny_model, enc, [BOS, a, a, b])
    full_b = title_logits_all(tiny_model, enc, [BOS, a, b, a])
    # Positions 0 and 1 see identical prefixes; later tokens must not leak back.
    np.testing.assert_array_equal(full_a[0], full_b[0])
    np.testing.assert_array_equal(full_a[1], full_b[1])
    assert not np.array_equal(full_a[2], full_b[2])


def test_step_decode_matches_full_sequence_logits(tiny_vocab):
    model = Seq2SeqModel(small_config(len(tiny_vocab)), dtype=np.float64)
    enc = model.encode_claim(tiny_vocab.encode("alpha hill rises"))
    seq = [BOS, tiny_vocab.ids["alpha"], EOT, EOS]
    full = title_logits_all(model, enc, seq)
    for t in range(1, len(seq)):
        step = model.decode_step_title(enc, seq[:t])
        np.testing.assert_allclose(step, full[t - 1], rtol=1e-9, atol=1e-12)


# -- incremental decoder --------------------------------------------------------
#
# Exact beam-vs-oracle agreement (acceptance A3) rests on one property: a row
# of a batched DecoderState step is bit-identical to a one-row replay of the
# same prefix. Agreement of the decoders with the graph forward is checked above
# and in test_training at float64 tolerances.


def test_batched_title_rows_equal_single_row_replays(tiny_vocab):
    model = Seq2SeqModel(small_config(len(tiny_vocab), d_model=64, n_heads=4,
                                      n_layers_dec=2, d_ff=256))
    assert model.dtype == np.float32
    enc = model.encode_claim(tiny_vocab.encode("alpha hill rises early"))
    rng = np.random.default_rng(5)
    prefixes = [[BOS] + [int(t) for t in rng.integers(6, len(tiny_vocab), size=21)]
                for _ in range(5)]
    batched = DecoderState(model, "title_dec", enc)
    singles = [DecoderState(model, "title_dec", enc) for _ in prefixes]
    for t in range(len(prefixes[0])):
        logits = model.title_step(batched, [p[t] for p in prefixes])
        for row, single in enumerate(singles):
            assert np.array_equal(logits[row], model.title_step(single, [prefixes[row][t]])[0])
    for row, prefix in enumerate(prefixes):
        assert np.array_equal(logits[row], model.decode_step_title(enc, prefix))

    # Beam pruning: repeated and dropped parents, then rows continue apart.
    parents = [3, 3, 0, 4, 3]
    batched.reorder(parents)
    prefixes = [prefixes[r] + [int(t)] for r, t in zip(parents, rng.integers(6, 20, size=5))]
    for _ in range(3):
        logits = model.title_step(batched, [p[-1] for p in prefixes])
        for row, prefix in enumerate(prefixes):
            assert np.array_equal(logits[row], model.decode_step_title(enc, prefix))
        prefixes = [p + [int(t)] for p, t in zip(prefixes, rng.integers(6, 20, size=5))]


def test_greedy_evidence_scores_equal_single_step_replays(tiny_vocab, monkeypatch):
    model = Seq2SeqModel(small_config(len(tiny_vocab), d_model=64, n_heads=4,
                                      n_layers_dec=2, d_ff=256))
    enc = model.encode_claim(tiny_vocab.encode("alpha hill rises early"))
    cands = embeddings(model, tiny_vocab,
                       ["alpha hill rises early .", "key1 alpha hill holds two peaks .",
                        "beta ridge faces north .", "key2 alpha hill was mapped late .",
                        "key5 beta ridge connects to alpha hill ."])
    # Pin the decoder state's first component to 1 and give EOE a large negative
    # weight there only, so EOE scores below every candidate at every step.
    model.params["evid_dec.ln_f.g"].data[0] = 0.0
    model.params["evid_dec.ln_f.b"].data[0] = 1.0
    model.params["evid_dec.eoe"].data[:] = 0.0
    model.params["evid_dec.eoe"].data[0] = -1e3
    for c in cands:
        c.vector[0] = 0.0
    steps = []
    evidence_step = model.evidence_step

    def recording(state, vector, remaining):
        scores = evidence_step(state, vector, remaining)
        steps.append((list(remaining), scores))
        return scores

    monkeypatch.setattr(model, "evidence_step", recording)
    pairs, log_probs = greedy_evidence(model, enc, cands, max_evidence_steps=4)
    monkeypatch.undo()
    assert len(pairs) == len(steps) == 4
    by_source = {c.source: c for c in cands}
    chosen = [by_source[source] for source in pairs]
    for i, (remaining, scores) in enumerate(steps):
        assert np.array_equal(scores, model.decode_step_evidence(enc, chosen[:i], remaining))
        pick = [c.source for c in remaining].index(pairs[i])
        assert log_probs[i] == nn.log_softmax64(scores)[pick]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_engine_encodings_equal_graph_forward(tiny_vocab, dtype):
    model = Seq2SeqModel(small_config(len(tiny_vocab), d_model=64, n_heads=4,
                                      n_layers_enc=2, d_ff=256, max_positions=24), dtype=dtype)
    rng = np.random.default_rng(8)

    def graph(name, ids):
        ids = np.array([ids])
        return model.encoder_forward(name, ids, np.ones(ids.shape, dtype=bool)).data[0]

    for length in (1, 9, 24):
        ids = [int(t) for t in rng.integers(6, len(tiny_vocab), size=length)]
        enc = model.encode_claim(ids)
        expected = graph("claim_enc", ids)
        assert enc.dtype == expected.dtype and np.array_equal(enc, expected)
        vector = model.encode_sentence(ids, source=("Doc", length)).vector
        expected = graph("sent_enc", ids).mean(axis=0)
        assert vector.dtype == expected.dtype and np.array_equal(vector, expected)

    ids = [int(t) for t in rng.integers(6, len(tiny_vocab), size=30)]
    enc = model.encode_claim(ids)
    assert np.array_equal(enc, graph("claim_enc", ids[:24]))


def test_engine_reads_parameters_replaced_after_first_use(tiny_vocab):
    """The engine indexes parameter names once per model but reads `.data` on
    every call, as a checkpoint load into a used model requires."""
    model = Seq2SeqModel(small_config(len(tiny_vocab), seed=1))
    other = Seq2SeqModel(small_config(len(tiny_vocab), seed=2))
    ids = tiny_vocab.encode("alpha hill")
    model.decode_step_title(model.encode_claim(ids), [BOS])
    for name, tensor in model.params.items():
        tensor.data = other.params[name].data.copy()
    enc, expected = model.encode_claim(ids), other.encode_claim(ids)
    assert np.array_equal(enc, expected)
    assert np.array_equal(model.decode_step_title(enc, [BOS]),
                          other.decode_step_title(expected, [BOS]))


# -- encode_sentence ------------------------------------------------------------


def test_encode_sentence_contract(tiny_model, tiny_vocab):
    ids = tiny_vocab.encode("beta ridge faces north")
    e1 = tiny_model.encode_sentence(ids, source=("Beta_ridge", 0))
    e2 = tiny_model.encode_sentence(ids, source=("Beta_ridge", 0))
    np.testing.assert_array_equal(e1.vector, e2.vector)
    assert e1.vector.shape == (tiny_model.config.d_model,)
    assert np.isfinite(e1.vector).all()
    assert e1.source == ("Beta_ridge", 0)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [(16, 2, 32), (64, 4, 256)])
def test_encode_sentences_equal_single_encodes(tiny_vocab, dtype, width):
    """Stacked passes, one per length, give each sentence the bits of its own
    one-sentence pass: lone length-1 groups, mixed lengths, an empty sentence
    (a lone EOS), and an over-length one that joins the full-length group."""
    d_model, n_heads, d_ff = width
    model = Seq2SeqModel(small_config(len(tiny_vocab), d_model=d_model, n_heads=n_heads,
                                      n_layers_enc=2, d_ff=d_ff, max_positions=24),
                         dtype=dtype)
    rng = np.random.default_rng(21)
    lengths = (1, 5, 1, 24, 0, 5, 30, 1, 9, 5)
    sentences = [[int(t) for t in rng.integers(6, len(tiny_vocab), size=n)] for n in lengths]
    sources = [("Doc", i) for i in range(len(sentences))]
    stacked = model.encode_sentences(sentences, sources)
    assert [e.source for e in stacked] == sources
    for ids, source, emb in zip(sentences, sources, stacked):
        single = model.encode_sentence(ids, source=source)
        assert emb.vector.dtype == single.vector.dtype == dtype
        assert np.array_equal(emb.vector, single.vector)
    assert model.encode_sentences([], []) == []


def test_encode_sentence_empty_falls_back_to_eos(tiny_model):
    empty = tiny_model.encode_sentence([])
    eos = tiny_model.encode_sentence([EOS])
    np.testing.assert_array_equal(empty.vector, eos.vector)


def test_different_sentences_not_identical(tiny_model, tiny_vocab):
    a = tiny_model.encode_sentence(tiny_vocab.encode("alpha hill rises early"))
    b = tiny_model.encode_sentence(tiny_vocab.encode("beta ridge faces north"))
    cos = a.vector @ b.vector / (np.linalg.norm(a.vector) * np.linalg.norm(b.vector))
    assert cos < 1.0 - 1e-6


# -- decode_step_evidence --------------------------------------------------------


def embeddings(model, vocab, texts):
    return [model.encode_sentence(vocab.encode(t), source=("D", i))
            for i, t in enumerate(texts)]


def test_decode_step_evidence_shape(tiny_model, tiny_vocab):
    enc = tiny_model.encode_claim(tiny_vocab.encode("alpha"))
    cands = embeddings(tiny_model, tiny_vocab, ["alpha hill rises early ."])
    scores = tiny_model.decode_step_evidence(enc, [], cands)
    assert scores.shape == (2,)  # one candidate + EOE
    with pytest.raises(ValueError):
        tiny_model.decode_step_evidence(enc, [], [])


def test_duplicated_candidate_duplicates_score(tiny_model, tiny_vocab):
    enc = tiny_model.encode_claim(tiny_vocab.encode("alpha"))
    cands = embeddings(tiny_model, tiny_vocab,
                       ["alpha hill rises early .", "beta ridge faces north ."])
    doubled = [cands[0], cands[1], cands[0]]
    scores = tiny_model.decode_step_evidence(enc, [], doubled)
    assert scores[0] == scores[2]


def test_evidence_softmax_normalizes(tiny_model, tiny_vocab):
    enc = tiny_model.encode_claim(tiny_vocab.encode("alpha"))
    cands = embeddings(tiny_model, tiny_vocab,
                       ["alpha hill rises early .", "beta ridge faces north .",
                        "key2 alpha hill was mapped late ."])
    scores = tiny_model.decode_step_evidence(enc, [cands[0]], cands)
    probs = np.exp(nn.log_softmax64(scores))
    assert probs.shape == (4,)
    assert abs(probs.sum() - 1.0) < 1e-6


# -- losses ----------------------------------------------------------------------


def test_loss_title_uniform_model_is_log_v(tiny_vocab):
    model = Seq2SeqModel(small_config(len(tiny_vocab)), dtype=np.float64)
    model.params["title_dec.out_w"].data[:] = 0.0
    model.params["title_dec.out_b"].data[:] = 0.0
    enc = model.encode_claim(tiny_vocab.encode("anything alpha"))
    target = [BOS] + tiny_vocab.encode("alpha hill") + [EOT, EOS]
    loss = loss_title(model, enc, target)
    assert abs(loss - np.log(len(tiny_vocab))) < 1e-9


def test_loss_title_matches_stepwise_cross_entropy(tiny_vocab):
    """Batched full-sequence loss equals smoothed CE accumulated step by step."""
    model = Seq2SeqModel(small_config(len(tiny_vocab)), dtype=np.float64)
    enc = model.encode_claim(tiny_vocab.encode("alpha hill rises"))
    target = [BOS] + tiny_vocab.encode("alpha hill") + [EOT, SEP] \
        + tiny_vocab.encode("beta ridge") + [EOT, EOS]
    eps = model.config.label_smoothing
    v = len(tiny_vocab)
    expected = 0.0
    for t in range(1, len(target)):
        logp = nn.log_softmax64(model.decode_step_title(enc, target[:t]))
        q = np.full(v, eps / v)
        q[target[t]] += 1 - eps
        expected += -(q * logp).sum()
    expected /= len(target) - 1
    got = loss_title(model, enc, target)
    np.testing.assert_allclose(got, expected, rtol=1e-9)


def test_loss_evidence_uniform_when_scores_equal(tiny_vocab):
    model = Seq2SeqModel(small_config(len(tiny_vocab)), dtype=np.float64)
    vec = np.full(model.config.d_model, 0.37)
    model.params["evid_dec.eoe"].data[:] = vec
    cands = [SentenceEmbedding(vector=vec.copy(), source=("D", i)) for i in range(3)]
    enc = model.encode_claim(tiny_vocab.encode("alpha"))
    loss = loss_evidence(model, enc, [("D", 1)], cands)
    assert abs(loss - np.log(4)) < 1e-9  # both steps uniform over 3 + EOE


def test_loss_evidence_matches_stepwise_scores(tiny_vocab):
    model = Seq2SeqModel(small_config(len(tiny_vocab)), dtype=np.float64)
    enc = model.encode_claim(tiny_vocab.encode("alpha hill"))
    cands = embeddings(model, tiny_vocab,
                       ["alpha hill rises early .", "key1 alpha hill holds two peaks .",
                        "beta ridge faces north ."])
    gold = [("D", 1), ("D", 0)]
    expected = 0.0
    slots = [1, 0]
    for g in range(3):
        prev = [cands[s] for s in slots[:g]]
        scores = model.decode_step_evidence(enc, prev, cands)
        target = slots[g] if g < 2 else len(cands)
        expected += -nn.log_softmax64(scores)[target]
    expected /= 3
    got = loss_evidence(model, enc, gold, cands)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_loss_evidence_rejects_missing_gold(tiny_model, tiny_vocab):
    enc = tiny_model.encode_claim(tiny_vocab.encode("alpha"))
    cands = embeddings(tiny_model, tiny_vocab, ["alpha hill rises early ."])
    with pytest.raises(DataError):
        loss_evidence(tiny_model, enc, [("elsewhere", 7)], cands)


def test_unk_tokens_still_encode(tiny_model, tiny_vocab):
    ids = tiny_vocab.encode("completely unknowable words")
    assert UNK in ids
    enc = tiny_model.encode_claim(ids)
    assert np.isfinite(enc).all()
