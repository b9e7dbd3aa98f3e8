import re

import numpy as np
import pytest

from gere import model as gmodel
from gere import nn
from gere.errors import DataError
from gere.decoding import DecodeParams, greedy_evidence
from gere.model import DecoderState, ModelConfig, Seq2SeqModel, SentenceEmbedding
from gere.tokenizer import BOS, EOS, EOT, SEP, UNK

from conftest import small_config, spy_sentence_rows, twin
from oracles import loss_evidence, loss_title, title_logits_all


def test_config_validation():
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=100, d_model=30, n_heads=4)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=100, label_smoothing=1.0)
    with pytest.raises(ValueError):
        ModelConfig(vocab_size=3)
    # Sizes below their floor; zero layers stays legal.
    for key, value in (("n_heads", 0), ("n_heads", -2), ("d_model", 0), ("d_model", -64),
                       ("d_ff", 0), ("n_layers_enc", -1), ("n_layers_dec", -1), ("seed", -1),
                       ("init_std", 0.0), ("init_std", -0.5), ("init_std", float("nan")),
                       ("init_std", float("inf"))):
        with pytest.raises(ValueError, match=key):
            ModelConfig(vocab_size=100, **{key: value})
    ModelConfig(vocab_size=100, n_layers_enc=0, n_layers_dec=0)


def test_config_kv_round_trip():
    cfg = ModelConfig(vocab_size=123, d_model=32, n_heads=4, seed=9, label_smoothing=0.25)
    assert ModelConfig.from_kv(cfg.to_kv()) == cfg


def test_config_kv_text_is_pinned():
    # The checkpoint's config block is this text; changing it changes the file format.
    assert ModelConfig(vocab_size=100).to_kv() == (
        "vocab_size=100\nd_model=64\nn_heads=4\nn_layers_enc=2\nn_layers_dec=2\n"
        "d_ff=256\nmax_positions=256\nlabel_smoothing=0.1\nseed=0\ninit_std=0.02\n")


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
    # `int` reads these as 2, 5, 3 and 64; a re-save would write other text.
    for key, text in (("d_model", "0_2"), ("seed", "\u0665"), ("seed", "+3"), ("d_model", "064")):
        message = f"config key '{key}': expected int, got '{text}'"
        with pytest.raises(DataError, match=re.escape(message)):
            ModelConfig.from_kv(f"vocab_size=10\n{key}={text}\n")


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


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [16, 64])
@pytest.mark.parametrize("n_rows", [1, 5, 20])
def test_fused_qkv_product_equals_three_products(dtype, d, n_rows):
    """`DecoderState` projects q, k and v with one stacked (B, 1, d) @ (d, 3d)
    product on the concatenated weights; each third of it, bias added, has
    the bits of its own (B, 1, d) @ (d, d) product."""
    rng = np.random.default_rng(d * 100 + n_rows)
    for _ in range(5):
        h = rng.standard_normal((n_rows, 1, d)).astype(dtype)
        ws = [rng.standard_normal((d, d)).astype(dtype) for _ in range(3)]
        bs = [rng.standard_normal(d).astype(dtype) for _ in range(3)]
        fused = h @ np.concatenate(ws, axis=1)
        fused += np.concatenate(bs)
        for j, (w, b) in enumerate(zip(ws, bs)):
            assert np.array_equal(fused[..., j * d:(j + 1) * d], h @ w + b)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [16, 64])
def test_fused_cross_kv_product_equals_per_layer_products(tiny_vocab, dtype, d):
    """`DecoderState` projects every layer's cross-attention keys and values
    with one (T, d) @ (d, 2 L d) product on the memo's read-only `cross_w`;
    each layer's C-contiguous slice of it, bias added, has the bits and the
    layout of its own `claim_states[None] @ wk + bk` and `@ wv + bv`. Length
    1 runs gemv on both sides."""
    model = Seq2SeqModel(small_config(len(tiny_vocab), d_model=d, n_heads=4, n_layers_dec=2,
                                      d_ff=2 * d, init_std=0.5), dtype=dtype)
    rng = np.random.default_rng(d)
    for name in ("title_dec", "evid_dec"):
        memo = model.decoder_memo(name)
        assert memo.cross_w.shape == (d, 4 * d) and memo.cross_b.shape == (4 * d,)
        packed = [memo.cross_w, memo.cross_b] + [a for layer in memo.claim_free for a in layer[2:4]]
        assert not any(a.flags.writeable for a in packed)
        for length in range(1, 25):
            claim = rng.standard_normal((length, d)).astype(dtype)
            state = DecoderState(model, name, claim)
            for i, pair in enumerate(state.cross):
                for got, p in zip(pair, "kv"):
                    w = model.params[f"{name}.l{i}.cross_attn.w{p}"].data
                    b = model.params[f"{name}.l{i}.cross_attn.b{p}"].data
                    expected = nn.split_heads(claim[None] @ w + b, 4)
                    assert got.strides == expected.strides, (name, length, i, p)
                    assert np.array_equal(got, expected), (name, length, i, p)


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
    for c in cands:  # memo vectors are read-only, so zero a copy
        c.vector = c.vector.copy()
        c.vector[0] = 0.0
    steps = []
    evidence_step = model.evidence_step

    def recording(state, vector, remaining):
        scores = evidence_step(state, vector, remaining)
        steps.append((list(remaining), scores))
        return scores

    monkeypatch.setattr(model, "evidence_step", recording)
    pairs, log_probs = greedy_evidence(model, enc, cands, DecodeParams(max_evidence_steps=4))
    monkeypatch.undo()
    assert len(pairs) == len(steps) == 4
    by_source = {c.source: c for c in cands}
    chosen = [by_source[source] for source in pairs]
    for i, (remaining, scores) in enumerate(steps):
        assert np.array_equal(scores, model.decode_step_evidence(enc, chosen[:i], remaining))
        pick = [c.source for c in remaining].index(pairs[i])
        assert log_probs[i] == nn.log_softmax64(scores)[pick]


def _graph_pooled(model, ids):
    """The training graph's vector for sentence-encoder input row `ids`: its
    one-row pass pooled by `nn.masked_mean` with an all-ones mask."""
    ids = np.array([ids])
    states = model.encoder_forward("sent_enc", ids, np.ones(ids.shape, dtype=bool))
    return nn.masked_mean(states, np.ones(ids.shape, model.dtype)).data[0]


@pytest.mark.parametrize("n_layers_enc", [0, 1, 2])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_engine_encodings_equal_graph_forward(tiny_vocab, dtype, n_layers_enc):
    model = Seq2SeqModel(small_config(len(tiny_vocab), d_model=64, n_heads=4,
                                      n_layers_enc=n_layers_enc, d_ff=256, max_positions=24),
                         dtype=dtype)
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
        expected = _graph_pooled(model, ids)
        assert vector.dtype == expected.dtype and np.array_equal(vector, expected)

    ids = [int(t) for t in rng.integers(6, len(tiny_vocab), size=30)]
    enc = model.encode_claim(ids)
    assert np.array_equal(enc, graph("claim_enc", ids[:24]))


def test_engine_builds_no_graph_node(tiny_vocab, monkeypatch):
    """The encoder blocks the graph shares run on arrays in the engine: with
    every `nn.Tensor` construction refused, the claim and sentence encoders
    and a title and an evidence step still run, and give the same values."""
    model = Seq2SeqModel(small_config(len(tiny_vocab), n_layers_enc=2, n_layers_dec=2))
    ids = tiny_vocab.encode("alpha hill holds two peaks")

    def run(model):  # on a model with empty memos
        enc = model.encode_claim(ids)
        sents = model.encode_sentences([ids, ids[:2], ids[1:3]], [("A", 0), ("A", 1), ("B", 0)])
        logits = model.title_step(DecoderState(model, "title_dec", enc), [BOS])
        scores = model.evidence_step(DecoderState(model, "evid_dec", enc),
                                     model.params["evid_dec.start"].data, sents)
        return [enc, *(s.vector for s in sents), logits, scores]

    expected, fresh = run(model), twin(model)

    def refuse(self, *args, **kwargs):
        raise AssertionError("the engine built a graph node")

    monkeypatch.setattr(nn.Tensor, "__init__", refuse)
    with pytest.raises(AssertionError, match="graph node"):
        nn.constant(ids)
    for got, want in zip(run(fresh), expected, strict=True):
        assert np.array_equal(got, want)


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
    e2 = twin(tiny_model).encode_sentence(ids, source=("Beta_ridge", 0))
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
        single = twin(model).encode_sentence(ids, source=source)
        assert emb.vector.dtype == single.vector.dtype == dtype
        assert np.array_equal(emb.vector, single.vector)
    assert model.encode_sentences([], []) == []


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sentence_vectors_are_the_graphs_pooled_rows(tiny_vocab, dtype):
    """Retrieval scores the vectors training optimises: in one call holding
    groups of 2, 3 and 1 rows, the last cut to max_positions, every vector
    is its one-row graph pass's `nn.masked_mean` row, bit for bit. Lengths
    that are not powers of two tell its scale-then-sum from a sum-then-divide
    mean, which give the same bits when 1 / T is exact."""
    model = Seq2SeqModel(small_config(len(tiny_vocab), d_model=64, n_heads=4, n_layers_enc=2,
                                      d_ff=256, max_positions=6), dtype=dtype)
    rng = np.random.default_rng(5)
    sents = [[int(t) for t in rng.integers(6, len(tiny_vocab), size=n)]
             for n in (1, 3, 3, 3, 9, 1)]
    rows = [gmodel.sentence_ids(ids, 6) for ids in sents]
    assert gmodel.length_groups(rows) == [[0, 5], [1, 2, 3], [4]]
    assert len(set(map(tuple, rows))) == len(rows)
    for row, emb in zip(rows, model.encode_sentences(sents, [None] * len(sents))):
        expected = _graph_pooled(model, row)
        assert emb.vector.dtype == expected.dtype and np.array_equal(emb.vector, expected)


def test_encode_sentence_empty_falls_back_to_eos(tiny_model):
    empty = tiny_model.encode_sentence([])
    eos = twin(tiny_model).encode_sentence([EOS])
    np.testing.assert_array_equal(empty.vector, eos.vector)


def _sentences(vocab, texts=("alpha hill rises early .", "beta ridge faces north .",
                             "key1 alpha hill holds two peaks .", "")):
    return [vocab.encode(t) for t in texts]


def _vectors(model, sents):
    return [e.vector for e in model.encode_sentences(sents, [None] * len(sents))]


def test_sentence_memo_encodes_each_distinct_row_once(tiny_vocab, monkeypatch):
    """A row repeated within a call, or across calls, reaches the encoder once;
    each call still returns its own `SentenceEmbedding` objects."""
    model = Seq2SeqModel(small_config(len(tiny_vocab)))
    a, b, c, blank = _sentences(tiny_vocab)
    rows = spy_sentence_rows(monkeypatch)
    first = model.encode_sentences([a, b, a, blank, [EOS], a], [("D", i) for i in range(6)])
    assert sorted(rows) == sorted({tuple(a), tuple(b), (EOS,)})
    assert [e.source for e in first] == [("D", i) for i in range(6)]
    assert first[0].vector is first[2].vector and first[3].vector is first[4].vector
    del rows[:]
    second = model.encode_sentences([c, b, a], [None] * 3)
    assert rows == [tuple(c)]
    assert second[1] is not first[1] and second[1].vector is first[1].vector
    expected = _vectors(twin(model), [a, b, a, blank, [EOS], a, c, b, a])
    assert all(np.array_equal(e.vector, v) for e, v in zip(first + second, expected))


def test_sentence_memo_vectors_are_read_only(tiny_vocab):
    model = Seq2SeqModel(small_config(len(tiny_vocab)))
    sents = _sentences(tiny_vocab)
    for vector in _vectors(model, sents) + _vectors(model, sents):
        assert not vector.flags.writeable
        with pytest.raises(ValueError):
            vector[0] = 0.0
    assert all(np.array_equal(v, w) for v, w in zip(_vectors(model, sents),
                                                     _vectors(twin(model), sents)))


def test_a_full_sentence_memo_stores_no_more_and_stays_exact(tiny_vocab, monkeypatch):
    """With the cap at 3 rows the memo keeps the first three distinct rows it
    meets and stores nothing after; the rest are encoded again on each call,
    and every vector equals an uncapped model's on both calls."""
    model = Seq2SeqModel(small_config(len(tiny_vocab)))
    rng = np.random.default_rng(6)
    sents = [[int(t) for t in rng.integers(6, len(tiny_vocab), size=n)]
             for n in (3, 1, 3, 5, 1, 2)]
    expected = _vectors(twin(model), sents)
    monkeypatch.setattr(gmodel, "SENTENCE_MEMO_ROWS", 3)
    rows = spy_sentence_rows(monkeypatch)
    for call in range(2):
        vectors = _vectors(model, sents)
        assert list(model.sentence_memo()) == [tuple(ids) for ids in sents[:3]]
        assert sorted(rows) == sorted(tuple(ids) for ids in sents[3 if call else 0:])
        assert all(np.array_equal(v, w) for v, w in zip(vectors, expected, strict=True))
        del rows[:]


def test_sentence_memo_is_dropped_after_an_adam_step(tiny_vocab, monkeypatch):
    """`Adam.step` updates the parameters in place and bumps their versions,
    so the next call re-encodes and equals a fresh model's embeddings."""
    model = Seq2SeqModel(small_config(len(tiny_vocab)))
    optimizer = nn.Adam(model.params)
    sents = _sentences(tiny_vocab)
    before = _vectors(model, sents)
    rows = spy_sentence_rows(monkeypatch)
    _vectors(model, sents)
    assert rows == []  # a memo hit
    rng = np.random.default_rng(4)
    for t in model.params.values():
        t.grad = rng.standard_normal(t.data.shape).astype(t.data.dtype)
    optimizer.step(1e-2)
    assert {t.version for t in model.params.values()} == {1}
    after = _vectors(model, sents)
    assert len(rows) == len(sents)
    expected = _vectors(twin(model), sents)
    assert all(np.array_equal(v, w) for v, w in zip(after, expected))
    assert not any(np.array_equal(v, w) for v, w in zip(after, before))


def test_sentence_memo_follows_rebound_and_versioned_parameters(tiny_vocab):
    """Rebinding `.data` (a checkpoint load into a used model) and an in-place
    write that bumps `Tensor.version` each empty the memo."""
    model = Seq2SeqModel(small_config(len(tiny_vocab), seed=1))
    others = [Seq2SeqModel(small_config(len(tiny_vocab), seed=s)) for s in (2, 3)]
    sents = _sentences(tiny_vocab)
    _vectors(model, sents)
    for name, tensor in model.params.items():
        tensor.data = others[0].params[name].data.copy()
    assert all(np.array_equal(v, w) for v, w in zip(_vectors(model, sents),
                                                     _vectors(others[0], sents)))
    for name, tensor in model.params.items():
        tensor.data[...] = others[1].params[name].data
        tensor.version += 1
    assert all(np.array_equal(v, w) for v, w in zip(_vectors(model, sents),
                                                     _vectors(others[1], sents)))


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


# -- prefix tables ----------------------------------------------------------------
#
# A prefix-table hit must change no bit. The references below are cold: a
# `twin` of the model has empty tables, so each of its steps runs every op.


def _cold_title_logits(model, enc, prefix):
    return twin(model).decode_step_title(enc, prefix)


def _step_rows(model, state, prefixes, enc):
    """Feed `prefixes` row by row from `state.length`, checking each step's
    logits against cold one-row decodes of every row's prefix."""
    for t in range(state.length, len(prefixes[0])):
        logits = model.title_step(state, [p[t] for p in prefixes])
        for row, prefix in enumerate(prefixes):
            assert np.array_equal(logits[row], _cold_title_logits(model, enc, prefix[:t + 1]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("width", [(16, 2, 1, 32), (64, 4, 2, 256)])
def test_title_steps_mixing_table_hits_and_misses_equal_cold_steps(tiny_vocab, width, dtype):
    """Claim A fills the table; claim B then takes steps whose rows all hit,
    steps that mix hits and misses (a row that leaves a stored prefix, a new
    row, reordered rows) and steps that all miss."""
    d_model, n_heads, n_layers_dec, d_ff = width
    model = Seq2SeqModel(small_config(len(tiny_vocab), d_model=d_model, n_heads=n_heads,
                                      n_layers_dec=n_layers_dec, d_ff=d_ff, init_std=0.5),
                         dtype=dtype)
    rng = np.random.default_rng(7)

    def tokens(n):
        return [int(t) for t in rng.integers(6, len(tiny_vocab), size=n)]

    seen = [[BOS] + tokens(6) for _ in range(3)]
    enc_a = model.encode_claim(tiny_vocab.encode("alpha hill rises early"))
    _step_rows(model, DecoderState(model, "title_dec", enc_a), seen, enc_a)
    table = model.prefix_table("title_dec")
    assert table.size == 1 + 3 * 6 and table.row_hits == 0  # the rows share BOS's node

    enc_b = model.encode_claim(tiny_vocab.encode("beta ridge faces north"))
    full_hits = table.full_hits
    _step_rows(model, DecoderState(model, "title_dec", enc_b), seen[::-1], enc_b)
    assert table.full_hits == full_hits + 7 and table.size == 1 + 3 * 6

    # Rows 0-2 stay on seen prefixes for 4 steps; row 3 leaves one at step 2,
    # where layer 0's cache, dropped by two all-hit steps, is rebuilt.
    prefixes = [seen[0], seen[1][:4] + tokens(3), seen[2], seen[0][:2] + tokens(5)]
    state = DecoderState(model, "title_dec", enc_b)
    _step_rows(model, state, [p[:4] for p in prefixes], enc_b)
    assert table.full_hits == full_hits + 7 + 2
    parents = [3, 0, 0, 1, 2]  # a repeated parent and rows out of order
    tails = [tokens(3), seen[0][4:], tokens(3), seen[1][4:], seen[2][4:]]
    prefixes = [prefixes[row][:4] + tail for row, tail in zip(parents, tails)]
    state.reorder(parents)
    row_hits = table.row_hits
    _step_rows(model, state, prefixes, enc_b)
    assert table.row_hits == row_hits + 3 * 3  # rows 1, 3 and 4 are back on seen prefixes
    assert table.full_hits == full_hits + 7 + 2

    # All hits for 5 steps, a reorder of the rows and their nodes, then a
    # miss: the cache is rebuilt at length 5 from the reordered nodes.
    state = DecoderState(model, "title_dec", enc_a)
    _step_rows(model, state, [p[:5] for p in seen[1:]], enc_a)
    state.reorder([1, 0, 0])
    _step_rows(model, state, [seen[2], seen[1], seen[1][:5] + tokens(2)], enc_a)
    # A miss right after the BOS step rebuilds a one-position cache.
    _step_rows(model, DecoderState(model, "title_dec", enc_b), [[BOS] + tokens(3), seen[0][:4]],
               enc_b)
    assert table.full_hits == full_hits + 7 + 2 + 5 + 1


def test_evidence_steps_from_the_table_equal_cold_steps(tiny_vocab):
    """The evidence decoder's table is keyed by the bytes of its input
    vectors: a second claim that feeds the same sentences hits it."""
    model = Seq2SeqModel(small_config(len(tiny_vocab), d_model=64, n_heads=4,
                                      n_layers_dec=2, d_ff=256))
    cands = model.encode_sentences(_sentences(tiny_vocab), [("D", i) for i in range(4)])
    for text in ("alpha hill rises early", "beta ridge faces north"):
        enc = model.encode_claim(tiny_vocab.encode(text))
        state = DecoderState(model, "evid_dec", enc)
        vector = model.params["evid_dec.start"].data
        for i, chosen in enumerate([cands[2], cands[0], cands[3]]):
            scores = model.evidence_step(state, vector, cands)
            cold = twin(model).decode_step_evidence(enc, [cands[2], cands[0], cands[3]][:i], cands)
            assert np.array_equal(scores, cold)
            vector = chosen.vector
    table = model.prefix_table("evid_dec")
    assert (table.size, table.full_hits, table.steps) == (3, 3, 6)


def test_a_full_table_stores_no_more_and_stays_exact(tiny_vocab, monkeypatch):
    """With the cap at 3 nodes the table keeps BOS and the first two second
    inputs it meets (rows 0 and 1 share one) and stores nothing after; later
    runs hit those nodes and compute the rest."""
    monkeypatch.setattr(gmodel, "PREFIX_TABLE_ROWS", 3)
    model = Seq2SeqModel(small_config(len(tiny_vocab), d_model=64, n_heads=4,
                                      n_layers_dec=2, d_ff=256))
    rng = np.random.default_rng(9)
    prefixes = [[BOS] + [int(t) for t in rng.integers(6, len(tiny_vocab), size=4)]
                for _ in range(4)]
    prefixes[1][1] = prefixes[0][1]  # rows 0 and 1 share their first input
    for text in ("alpha hill rises early", "beta ridge faces north"):
        enc = model.encode_claim(tiny_vocab.encode(text))
        _step_rows(model, DecoderState(model, "title_dec", enc), prefixes, enc)
        _step_rows(model, DecoderState(model, "title_dec", enc), prefixes[:2], enc)
    table = model.prefix_table("title_dec")
    assert table.size == 3 and table.values.shape[1] == 64  # the first allocation
    assert table.full_hits == 3 + 2  # the BOS step of the last three runs; step 1 of rows 0-1


def test_table_rows_are_read_only_copies_of_layer_zeros_claim_free_half(tiny_vocab):
    """A node holds x after layer 0's self-attention residual, the
    cross-attention query and the step's new key and value; `store` copies
    them before the step's later in-place adds (a view of x would hold the
    layer's output), and `gather` returns fresh arrays."""
    model = Seq2SeqModel(small_config(len(tiny_vocab), n_layers_dec=2), dtype=np.float64)
    enc = model.encode_claim(tiny_vocab.encode("alpha hill rises early"))
    ids = [BOS, tiny_vocab.ids["alpha"], EOT]
    state = DecoderState(model, "title_dec", enc)
    for token in ids:
        model.title_step(state, [token])
    table = model.prefix_table("title_dec")
    assert table.size == 3 and not table.values.flags.writeable
    with pytest.raises(ValueError):
        table.values[0, 0, 0] = 1.0

    w = {k[len("title_dec.l0."):]: t.data for k, t in model.params.items()
         if k.startswith("title_dec.l0.")}
    heads, d = model.config.n_heads, model.config.d_model
    x = (model.params["title_dec.tok_emb"].data[ids]
         + model.params["title_dec.pos_emb"].data[:len(ids)])[None]
    h = nn.layer_norm_forward(x, w["ln1.g"], w["ln1.b"])[0]
    q, k, v = (h @ w[f"self_attn.w{p}"] + w[f"self_attn.b{p}"] for p in "qkv")
    ctx = nn.attention_forward(*(nn.split_heads(a, heads) for a in (q, k, v)),
                               1.0 / np.sqrt(d // heads),
                               gmodel._causal_mask(len(ids), x.dtype))[0]
    x = x + (ctx @ w["self_attn.wo"] + w["self_attn.bo"])
    query = nn.layer_norm_forward(x, w["ln2.g"], w["ln2.b"])[0] @ w["cross_attn.wq"]
    query += w["cross_attn.bq"]
    expected = np.stack([x[0], query[0], k[0], v[0]])
    np.testing.assert_allclose(table.values[:, :3], expected, rtol=1e-12, atol=1e-14)
    gathered = table.gather([2, 0])
    assert not any(np.shares_memory(a, table.values) for a in gathered)
    assert all(a.flags.writeable for a in gathered)


def test_gathered_x_and_query_have_a_computed_steps_layout(tiny_vocab):
    """Matmul bits can follow the memory layout, so an all-hit step's x and
    query must have the strides and contiguity a computed step gives them:
    x as `inputs[:, None]` (stride 0 on its length-1 axis), the query as a
    product's output (no stride-0 axis)."""
    model = Seq2SeqModel(small_config(len(tiny_vocab), d_model=64, n_heads=4,
                                      n_layers_dec=2, d_ff=256))
    enc = model.encode_claim(tiny_vocab.encode("alpha hill rises early"))
    tok_emb = model.params["title_dec.tok_emb"].data
    steps = [[BOS, BOS, BOS], [tiny_vocab.ids["alpha"], tiny_vocab.ids["hill"], EOT]]
    computed, gathered = (DecoderState(model, "title_dec", enc) for _ in range(2))
    table = model.prefix_table("title_dec")
    for tokens in steps:
        full_hits = table.full_hits
        cold = computed._first_claim_free(tok_emb[tokens])
        assert table.full_hits == full_hits
        warm = gathered._first_claim_free(tok_emb[tokens])
        assert table.full_hits == full_hits + 1
        computed.length += 1
        gathered.length += 1
        for a, b in zip(cold, warm):
            assert (b.shape, b.dtype, b.strides) == (a.shape, a.dtype, a.strides)
            assert (b.flags.c_contiguous, b.flags.f_contiguous) == (
                a.flags.c_contiguous, a.flags.f_contiguous)
            assert np.array_equal(a, b)


def _fill_tables(model, tiny_vocab):
    enc = model.encode_claim(tiny_vocab.encode("alpha hill rises early"))
    model.title_step(DecoderState(model, "title_dec", enc), [BOS, EOT])
    model.evidence_step(DecoderState(model, "evid_dec", enc),
                        model.params["evid_dec.start"].data, _embeddings(model, tiny_vocab))


def _embeddings(model, tiny_vocab):
    sents = _sentences(tiny_vocab)
    return model.encode_sentences(sents, [("D", i) for i in range(len(sents))])


@pytest.mark.parametrize("name", ["title_dec", "evid_dec"])
def test_prefix_table_is_dropped_after_an_adam_step(tiny_vocab, name):
    """`Adam.step` bumps every parameter's version, so the next state gets an
    empty table, and its steps equal a fresh model's."""
    model = Seq2SeqModel(small_config(len(tiny_vocab)))
    optimizer = nn.Adam(model.params)
    _fill_tables(model, tiny_vocab)
    table = model.prefix_table(name)
    assert table.size > 0 and model.prefix_table(name) is table
    rng = np.random.default_rng(4)
    for t in model.params.values():
        t.grad = rng.standard_normal(t.data.shape).astype(t.data.dtype)
    optimizer.step(1e-2)
    assert model.prefix_table(name) is not table and model.prefix_table(name).size == 0
    enc = model.encode_claim(tiny_vocab.encode("beta ridge faces north"))
    if name == "title_dec":
        for prefix in ([BOS], [BOS, EOT]):
            assert np.array_equal(model.decode_step_title(enc, prefix),
                                  _cold_title_logits(model, enc, prefix))
    else:
        cands = _embeddings(model, tiny_vocab)
        assert np.array_equal(model.decode_step_evidence(enc, [], cands),
                              twin(model).decode_step_evidence(enc, [], cands))
    _assert_scores_equal_a_fresh_models(model, tiny_vocab)


def _assert_scores_equal_a_fresh_models(model, tiny_vocab):
    """Title logits and evidence scores, each taken twice (the second time
    from a filled table), equal those of a fresh model over the same arrays:
    no packed weight copy of an older parameter state is read."""
    enc = model.encode_claim(tiny_vocab.encode("beta ridge faces north"))
    fresh = twin(model)
    cands = _embeddings(model, tiny_vocab)
    for _ in range(2):
        for prefix in ([BOS], [BOS, EOT]):
            assert np.array_equal(model.decode_step_title(enc, prefix),
                                  fresh.decode_step_title(enc, prefix))
        for previous in ([], cands[1:2]):
            assert np.array_equal(model.decode_step_evidence(enc, previous, cands),
                                  fresh.decode_step_evidence(enc, previous, cands))


@pytest.mark.parametrize("name", ["title_dec", "evid_dec"])
def test_prefix_table_follows_its_decoders_rebound_and_versioned_parameters(tiny_vocab, name):
    """Rebinding any `<name>.*` array, or bumping its version, drops that
    decoder's table and nothing else; another stack's array leaves it."""
    model = Seq2SeqModel(small_config(len(tiny_vocab)))
    _fill_tables(model, tiny_vocab)
    other = "evid_dec" if name == "title_dec" else "title_dec"
    tables = {n: model.prefix_table(n) for n in (name, other)}
    for param in (f"{other}.pos_emb", "sent_enc.ln_f.g", "claim_enc.l0.ln1.b"):
        model.params[param].data = model.params[param].data.copy()
    assert model.prefix_table(name) is tables[name]
    memo = model.sentence_memo()
    names = [n for n in model.params if n.startswith(name + ".")]
    assert len(names) == 31 + (name == "title_dec")  # one layer, ln_f, pos_emb and the rest
    for param in names:
        table = model.prefix_table(name)
        model.params[param].data = model.params[param].data.copy()
        assert model.prefix_table(name) is not table
        table = model.prefix_table(name)
        model.params[param].version += 1
        assert model.prefix_table(name) is not table
    assert model.prefix_table(other) is not tables[other]  # rebound above
    assert model.sentence_memo() is memo

    # New values, rebound and then written in place with a version bump (as
    # `Adam.step` does): the scores follow both.
    _fill_tables(model, tiny_vocab)
    rng = np.random.default_rng(6)
    for param in names:
        tensor = model.params[param]
        tensor.data = tensor.data + rng.normal(0.0, 0.1, tensor.data.shape).astype(np.float32)
    _assert_scores_equal_a_fresh_models(model, tiny_vocab)
    for param in names:
        tensor = model.params[param]
        tensor.data += rng.normal(0.0, 0.1, tensor.data.shape).astype(np.float32)
        tensor.version += 1
    _assert_scores_equal_a_fresh_models(model, tiny_vocab)
