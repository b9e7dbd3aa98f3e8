import json
import re

import numpy as np
import pytest

from gere import decoding, nn
from gere.checkpoint import checkpoint_bytes, load_checkpoint
from gere.corpus import Corpus, Document, Claim, Label, gold_targets, title_from_doc_id
from gere.decoding import (
    DecodeParams, beam_search_titles, collect_candidates, greedy_evidence,
    read_predictions, retrieve, write_predictions, RetrievalResult,
)
from gere.errors import DataError, DecodingError
from gere.model import DecoderState, Seq2SeqModel, SentenceEmbedding
from gere.tokenizer import EOS, EOT, SEP, Vocab, build_vocab
from gere.training import encode_example
from gere.trie import TitleTrie

from conftest import small_config, spy_sentence_rows, twin
from oracles import exhaustive_title_search, full_beam_titles


def corpus_with_titles(doc_ids):
    corpus = Corpus()
    for i, doc_id in enumerate(doc_ids):
        title = title_from_doc_id(doc_id)
        corpus.add(Document(doc_id, title, ((0, f"key{i} about {title} ."),)))
    return corpus


def setup(doc_ids, seed=0, **cfg_overrides):
    corpus = corpus_with_titles(doc_ids)
    vocab = build_vocab(corpus, [], 500)
    trie = TitleTrie.build(corpus.titles(), vocab)
    cfg = small_config(len(vocab), seed=seed, **cfg_overrides)
    model = Seq2SeqModel(cfg, vocab_checksum=vocab.checksum())
    return corpus, vocab, trie, model


# -- beam search -----------------------------------------------------------------


def test_single_title_trie_fully_constrained():
    corpus, vocab, trie, model = setup(["Only_page"])
    enc = model.encode_claim(vocab.encode("whatever claim"))
    docs, log_prob, tokens = beam_search_titles(model, enc, trie,
                                                DecodeParams(beam_size=5, max_titles=3))
    assert docs == ["Only_page"]
    assert log_prob <= 0.0


def test_outputs_are_always_corpus_titles(rng):
    corpus, vocab, trie, model = setup(["Alpha", "Alpha_beta", "Gamma_delta", "Beta"])
    valid = set(corpus.documents)
    for seed in range(10):
        m = Seq2SeqModel(small_config(len(vocab), seed=seed))
        enc = m.encode_claim(vocab.encode("some claim text here"))
        docs, _, _ = beam_search_titles(m, enc, trie, DecodeParams(beam_size=3, max_titles=3))
        assert docs and set(docs) <= valid
        assert len(set(docs)) == len(docs)


def test_beam_matches_exhaustive_enumeration():
    doc_ids = ["Alpha", "Alpha_beta", "Gamma", "Beta_gamma"]
    corpus, vocab, trie, model = setup(doc_ids)
    titles = [(vocab.encode(title), doc_id) for title, doc_id in corpus.titles()]
    for seed in range(8):
        m = Seq2SeqModel(small_config(len(vocab), seed=seed))
        enc = m.encode_claim(vocab.encode("pick some pages"))
        docs, log_prob, _ = beam_search_titles(m, enc, trie,
                                               DecodeParams(beam_size=16, max_titles=2))
        ranked = exhaustive_title_search(m, enc, titles, max_titles=2)
        best_score, _, best_docs = ranked[0]
        assert docs == best_docs
        np.testing.assert_allclose(log_prob, best_score, rtol=0, atol=0)


def test_beam_score_monotone_in_beam_size():
    corpus, vocab, trie, model = setup(["Alpha", "Alpha_beta", "Gamma", "Beta_gamma",
                                        "Delta", "Beta"])
    enc = model.encode_claim(vocab.encode("claim for monotonicity"))
    scores = []
    for beam_size in range(1, 7):
        _, log_prob, _ = beam_search_titles(model, enc, trie,
                                            DecodeParams(beam_size=beam_size, max_titles=2))
        scores.append(log_prob)
    assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))


def test_beam_respects_max_titles():
    corpus, vocab, trie, model = setup(["A_b", "C_d", "E_f"])
    enc = model.encode_claim(vocab.encode("claim"))
    for max_titles in (1, 2):
        docs, _, _ = beam_search_titles(model, enc, trie,
                                        DecodeParams(beam_size=8, max_titles=max_titles))
        assert 1 <= len(docs) <= max_titles


def test_beam_ties_break_on_token_lists():
    """Every logit equal: every token ties, so only the (-score, tokens) order
    picks the beam's survivors and its result."""
    corpus, vocab, trie, model = setup(["Alpha", "Alpha_beta", "Gamma", "Beta_gamma", "Beta"])
    model.params["title_dec.out_w"].data[:] = 0.0
    model.params["title_dec.out_b"].data[:] = 0.25
    titles = [(vocab.encode(title), doc_id) for title, doc_id in corpus.titles()]
    enc = model.encode_claim(vocab.encode("tied claim"))
    ranked = exhaustive_title_search(model, enc, titles, max_titles=2)
    best_norm = min(ranked, key=lambda item: (-(item[0] / len(item[1])), item[1]))
    for length_normalize, (score, tokens, docs) in ((False, ranked[0]), (True, best_norm)):
        params = DecodeParams(beam_size=32, max_titles=2, length_normalize=length_normalize)
        assert beam_search_titles(model, enc, trie, params) == (docs, score, tokens)


def test_beam_rejects_empty_trie_and_bad_beam():
    """A bad beam is refused when its `DecodeParams` is built, before any
    decoding. An empty trie never reaches the beam: a build refuses zero
    titles and a load a file of none (`tests/test_trie.py`)."""
    with pytest.raises(ValueError):
        DecodeParams(beam_size=0)
    for max_titles in (0, -3):
        with pytest.raises(ValueError):
            DecodeParams(beam_size=5, max_titles=max_titles)


@pytest.mark.parametrize("settings", [dict(beam_size=0), dict(max_titles=0),
                                      dict(max_titles=-3), dict(max_evidence_steps=-1)],
                         ids=lambda settings: ",".join(f"{k}={v}" for k, v in settings.items()))
def test_decode_params_reject_out_of_range_settings(settings):
    with pytest.raises(ValueError, match=next(iter(settings))):
        DecodeParams(**settings)
    DecodeParams(max_evidence_steps=0)  # no evidence step is a valid budget


def test_beam_error_when_no_hypothesis_can_finish():
    # max_positions too small for any title to reach EOS: every hypothesis
    # dies mid-title.
    corpus, vocab, trie, model = setup(["Quite_long_title_here_indeed"],
                                       max_positions=3)
    enc = model.encode_claim(vocab.encode("x"))
    with pytest.raises(DecodingError):
        beam_search_titles(model, enc, trie, DecodeParams(beam_size=4, max_titles=2))


@pytest.mark.parametrize("length_normalize", [False, True])
def test_beam_decodes_the_longest_title_target_training_accepts(length_normalize):
    """`BOS aa bb cc EOT EOS` has 6 tokens; its 5 decoder inputs fill positions
    0-4, so at max_positions 5 training accepts it and the beam finishes it.
    At max_positions 4 both refuse it."""
    for max_positions, fits in ((5, True), (4, False)):
        corpus, vocab, trie, model = setup(["Aa_bb_cc"], max_positions=max_positions)
        claim = Claim(1, "aa", Label.SUPPORTS, ((("Aa_bb_cc", 0),),))
        enc = model.encode_claim(vocab.encode(claim.text))
        targets = gold_targets(claim, corpus)
        if fits:
            encode_example(claim, targets, corpus, vocab, max_positions)
            docs, _, tokens = beam_search_titles(model, enc, trie,
                                                 DecodeParams(beam_size=2, max_titles=1,
                                                              length_normalize=length_normalize))
            assert docs == ["Aa_bb_cc"] and len(tokens) == 6
        else:
            with pytest.raises(DataError, match="title target"):
                encode_example(claim, targets, corpus, vocab, max_positions)
            with pytest.raises(DecodingError):
                beam_search_titles(model, enc, trie,
                                   DecodeParams(beam_size=2, max_titles=1,
                                                length_normalize=length_normalize))


def test_length_normalized_ranking_matches_oracle_rule():
    corpus, vocab, trie, _ = setup(["Alpha", "Gamma_delta_hill", "Beta"])
    titles = [(vocab.encode(title), doc_id) for title, doc_id in corpus.titles()]
    for seed in range(6):
        model = Seq2SeqModel(small_config(len(vocab), seed=seed))
        enc = model.encode_claim(vocab.encode("rank these pages"))
        ranked = exhaustive_title_search(model, enc, titles, max_titles=2)
        plain_docs, plain_lp, _ = beam_search_titles(model, enc, trie,
                                                     DecodeParams(beam_size=32, max_titles=2))
        norm_docs, norm_lp, _ = beam_search_titles(model, enc, trie,
                                                   DecodeParams(beam_size=32, max_titles=2,
                                                                length_normalize=True))
        assert plain_docs == ranked[0][2]
        best_norm = min(ranked, key=lambda item: (-(item[0] / len(item[1])), item[1]))
        assert norm_docs == best_norm[2]
        assert norm_lp == best_norm[0]  # reported score stays the raw sum


# -- early stop and pruning --------------------------------------------------------


def _count_rows(monkeypatch):
    """The row count of every `DecoderState.step` call (title and evidence)
    from here on."""
    rows = []
    step = DecoderState.step
    monkeypatch.setattr(DecoderState, "step", lambda self, x: rows.append(len(x)) or step(self, x))
    return rows


def _with_full_beam(monkeypatch):
    """Make `retrieve` decode titles with the oracle beam, which neither stops
    early nor prunes."""
    monkeypatch.setattr(decoding, "beam_search_titles", full_beam_titles)


def _stopped_and_full(monkeypatch, models, vocab, trie, corpus, params):
    """The records and decoder rows of `retrieve` over `_STOP_CLAIMS`, first
    as it is and then with the full beam."""
    rows = _count_rows(monkeypatch)
    runs = []
    for _ in range(2):
        records = [json.dumps(retrieve(model, vocab, claim, trie, corpus, params).to_record())
                   for model in models for claim in _STOP_CLAIMS]
        runs.append((records, list(rows)))
        rows.clear()
        _with_full_beam(monkeypatch)
    return runs


_STOP_DOC_IDS = ["Alpha", "Alpha_beta", "Gamma", "Beta_gamma", "Delta_hill_north", "Beta"]
_STOP_CLAIMS = [Claim(i, text, Label.NOT_ENOUGH_INFO, ()) for i, text in
                enumerate(["alpha beta", "key3 about gamma", "north hill delta", "x"])]


@pytest.mark.parametrize("length_normalize", [False, True])
def test_early_stop_leaves_records_unchanged(length_normalize, monkeypatch):
    corpus, vocab, trie, _ = setup(_STOP_DOC_IDS)
    params = DecodeParams(beam_size=2, max_titles=2, max_evidence_steps=3,
                          length_normalize=length_normalize)

    # Random checkpoints from flat to peaked; the short max_positions
    # tightens the normalised bound enough for it to fire.
    models = [Seq2SeqModel(small_config(len(vocab), seed=seed, init_std=init_std,
                                        max_positions=max_len))
              for seed, init_std in enumerate((0.02, 0.02, 0.5, 1.0, 2.0, 4.0))
              for max_len in (12, 64)]
    (stopped, stopped_rows), (full, full_rows) = _stopped_and_full(monkeypatch, models, vocab,
                                                                   trie, corpus, params)
    assert stopped == full
    assert len(stopped_rows) < len(full_rows)
    assert sum(stopped_rows) < sum(full_rows)


def test_normalised_early_stop_fires_with_long_max_positions(monkeypatch):
    """With max_positions 64, `log_prob / max_positions` never falls below a
    finished score on this corpus; the bound from the trie depth does."""
    corpus, vocab, trie, _ = setup(_STOP_DOC_IDS)
    params = DecodeParams(beam_size=2, max_titles=2, max_evidence_steps=3,
                          length_normalize=True)
    models = [Seq2SeqModel(small_config(len(vocab), seed=seed, init_std=init_std,
                                        max_positions=64))
              for seed, init_std in enumerate((0.02, 0.5, 1.0, 2.0, 4.0))]
    (stopped, stopped_rows), (full, full_rows) = _stopped_and_full(monkeypatch, models, vocab,
                                                                   trie, corpus, params)
    assert stopped == full
    assert len(stopped_rows) < len(full_rows)


def _peaked_model():
    """EOS costs nothing and every other token costs about 50 nats: the short
    title finishes while the long ones are still alive and already behind."""
    corpus, vocab, trie, model = setup(["Alpha", "Gamma_delta_hill_north_river"])
    model.params["title_dec.out_w"].data[:] = 0.0
    model.params["title_dec.out_b"].data[:] = -50.0
    model.params["title_dec.out_b"].data[EOS] = 0.0
    return trie, model, model.encode_claim(vocab.encode("a claim"))


def test_early_stop_fires_on_a_peaked_model(monkeypatch):
    trie, model, enc = _peaked_model()
    rows = _count_rows(monkeypatch)
    for length_normalize in (False, True):
        kwargs = dict(beam_size=4, max_titles=2, length_normalize=length_normalize)
        rows.clear()
        stopped = beam_search_titles(model, enc, trie, DecodeParams(**kwargs))
        stopped_rows = list(rows)
        rows.clear()
        assert full_beam_titles(model, enc, trie, DecodeParams(**kwargs)) == stopped
        assert stopped[0] == ["Alpha"]
        assert len(stopped_rows) < len(rows)
        assert sum(stopped_rows) < sum(rows)


def test_summed_pruning_decodes_only_rows_that_can_still_win(monkeypatch):
    """Every logit is a fixed per-token bias. `Alpha` finishes first, at about
    -24.5; of the three continuations then kept, only the one inside the
    cheap `Beta_gamma_delta_epsilon` (about -6.5) is decoded again. The one
    inside `Zeta_eta` (-35.5) and the one after SEP (-84.5) are behind the
    finish; a whole-beam stop, which looks at the best alive row only,
    would have decoded all three."""
    corpus, vocab, trie, model = setup(["Alpha", "Beta_gamma_delta_epsilon", "Zeta_eta"])
    model.params["title_dec.out_w"].data[:] = 0.0
    bias = model.params["title_dec.out_b"].data
    bias[:] = -100.0
    costs = {"alpha": -20.0, "beta": -1.0, "gamma": -1.0, "delta": -1.0, "epsilon": -1.0,
             "zeta": -30.0, "eta": -1.0}
    for word, cost in costs.items():
        bias[vocab.ids[word]] = cost
    bias[EOS], bias[EOT], bias[SEP] = 0.0, -1.0, -60.0
    enc = model.encode_claim(vocab.encode("a claim"))
    rows = _count_rows(monkeypatch)
    pruned = beam_search_titles(model, enc, trie, DecodeParams(beam_size=4, max_titles=2))
    assert pruned[0] == ["Beta_gamma_delta_epsilon"]
    assert rows == [1, 3, 3, 1, 1, 1]
    rows.clear()
    assert full_beam_titles(model, enc, trie, DecodeParams(beam_size=4, max_titles=2)) == pruned
    assert sum(rows) > 10


def test_beam_equals_the_full_beam_on_random_checkpoints():
    """A5-shaped random checkpoints (8-doc corpus, every tensor redrawn at a
    random scale) in both ranking modes: (titles, log_prob, tokens) equal
    the oracle's, bit for bit."""
    rng = np.random.default_rng(2024)
    words = ["alpha", "beta", "gamma", "delta", "hill", "north", "river", "stone"]
    doc_ids = sorted({"_".join(w.capitalize() if j == 0 else w
                               for j, w in enumerate(rng.choice(words, 1 + i % 3)))
                      for i in range(8)})
    corpus, vocab, trie, _ = setup(doc_ids)
    for seed in range(12):
        model = Seq2SeqModel(small_config(len(vocab), seed=seed))
        prng = np.random.default_rng(seed + 10_000)
        scale = float(prng.uniform(0.05, 6.0))
        for p in model.params.values():
            p.data = prng.normal(0.0, scale, p.data.shape).astype(np.float32)
        for _ in range(6):
            enc = model.encode_claim(vocab.encode(" ".join(rng.choice(words, 4))))
            for length_normalize in (False, True):
                kwargs = dict(beam_size=5, max_titles=3, length_normalize=length_normalize)
                assert (beam_search_titles(model, enc, trie, DecodeParams(**kwargs))
                        == full_beam_titles(model, enc, trie, DecodeParams(**kwargs)))


def test_log_softmax64_is_never_positive():
    """The early stop is exact only because no token log-prob exceeds 0."""
    rng = np.random.default_rng(5)
    cases = [rng.standard_normal(50) * scale for scale in (1.0, 30.0, 1e3)]
    cases += [np.array([0.0, -45.0, 45.0, 44.999]), np.array([1e30, -1e30, 1e30, 9.9e29]),
              np.array([-1e30, -1e30 + 1e14, -1e30]), np.full(7, 3.25),
              np.array([1e30, -1e30], dtype=np.float32), np.array([12.5])]
    for logits in cases:
        log_probs = nn.log_softmax64(logits)
        assert log_probs.dtype == np.float64
        assert np.all(log_probs <= 0.0), logits


# -- greedy evidence ---------------------------------------------------------------


def crafted_candidates(model, vectors):
    return [SentenceEmbedding(vector=np.asarray(v, dtype=np.float32), source=("D", i))
            for i, v in enumerate(vectors)]


def test_greedy_single_candidate_then_eoe():
    corpus, vocab, trie, model = setup(["Alpha"])
    enc = model.encode_claim(vocab.encode("alpha claim"))
    cands = collect_candidates(model, vocab, ["Alpha"], corpus)
    pairs, log_probs = greedy_evidence(model, enc, cands, DecodeParams(max_evidence_steps=5))
    assert len(pairs) <= 1
    assert len(log_probs) == len(pairs)


def test_greedy_empty_when_eoe_wins_immediately():
    corpus, vocab, trie, model = setup(["Alpha"])
    enc = model.encode_claim(vocab.encode("alpha claim"))
    # Candidates orthogonal-ish to the decoder state, EOE strongly aligned:
    # rig the EOE embedding to dominate every dot product.
    state = DecoderState(model, "evid_dec", enc).step(model.params["evid_dec.start"].data[None])[0]
    model.params["evid_dec.eoe"].data[:] = (10.0 * state / np.linalg.norm(state) ** 2 * 50)
    cands = crafted_candidates(model, [np.zeros(model.config.d_model)] * 3)
    pairs, log_probs = greedy_evidence(model, enc, cands, DecodeParams(max_evidence_steps=5))
    assert pairs == [] and log_probs == []


def test_greedy_no_repeats_and_step_cap():
    corpus, vocab, trie, model = setup(["Alpha", "Beta"])
    enc = model.encode_claim(vocab.encode("claim"))
    # EOE pushed far down so decoding keeps picking candidates.
    model.params["evid_dec.eoe"].data[:] = -1000.0
    cands = collect_candidates(model, vocab, ["Alpha", "Beta"], corpus)
    pairs, _ = greedy_evidence(model, enc, cands, DecodeParams(max_evidence_steps=10))
    assert len(pairs) == len(set(pairs)) == 2  # all candidates, no repeats
    pairs1, _ = greedy_evidence(model, enc, cands, DecodeParams(max_evidence_steps=1))
    assert len(pairs1) == 1


def test_greedy_over_no_candidates_returns_no_evidence():
    corpus, vocab, trie, model = setup(["Alpha"])
    enc = model.encode_claim(vocab.encode("claim"))
    assert greedy_evidence(model, enc, [], DecodeParams(max_evidence_steps=3)) == ([], [])


def test_greedy_rejects_a_negative_step_budget():
    """The `DecodeParams` rule, raised when the settings are built, not a
    silent empty result."""
    with pytest.raises(ValueError, match="max_evidence_steps must be at least 0, got -1"):
        DecodeParams(max_evidence_steps=-1)


def test_greedy_tie_breaks_by_source_order():
    corpus, vocab, trie, model = setup(["Alpha"])
    enc = model.encode_claim(vocab.encode("claim"))
    v = np.ones(model.config.d_model) * 0.1
    model.params["evid_dec.eoe"].data[:] = -1000.0
    cands = [SentenceEmbedding(vector=v.copy(), source=("A", 0)),
             SentenceEmbedding(vector=v.copy(), source=("A", 1))]
    pairs, _ = greedy_evidence(model, enc, cands, DecodeParams(max_evidence_steps=1))
    assert pairs == [("A", 0)]


# -- retrieve -----------------------------------------------------------------------


def test_retrieve_contract_and_determinism():
    corpus, vocab, trie, model = setup(["Alpha", "Alpha_beta", "Gamma"])
    claim = Claim(41, "some claim about alpha", Label.SUPPORTS, ((("Alpha", 0),),))
    params = DecodeParams(beam_size=4, max_titles=2, max_evidence_steps=4)
    r1 = retrieve(model, vocab, claim, trie, corpus, params)
    r2 = retrieve(model, vocab, claim, trie, corpus, params)
    assert r1 == r2 == retrieve(twin(model), vocab, claim, trie, corpus, params)
    assert r1.claim_id == 41
    assert len(set(r1.titles)) == len(r1.titles)
    assert set(d for d, _ in r1.evidence) <= set(r1.titles)
    assert len(r1.evidence) <= 4
    assert len(r1.evidence_log_probs) == len(r1.evidence)


@pytest.mark.parametrize("length_normalize", [False, True])
def test_retrieve_over_many_claims_equals_a_fresh_model_per_claim(
        tiny_corpus, tiny_vocab, tiny_claims, tmp_path, length_normalize, monkeypatch):
    """One model serving every claim twice, its sentence memo and prefix
    tables filled by the earlier ones, gives byte-identical records to a
    fresh model loaded from the same checkpoint bytes for each claim."""
    path = tmp_path / "model.gereckpt"
    path.write_bytes(checkpoint_bytes(Seq2SeqModel(small_config(len(tiny_vocab), init_std=0.5),
                                                   vocab_checksum=tiny_vocab.checksum())))
    trie = TitleTrie.build(tiny_corpus.titles(), tiny_vocab)
    params = DecodeParams(beam_size=4, max_titles=3, max_evidence_steps=4,
                          length_normalize=length_normalize)
    encoded = spy_sentence_rows(monkeypatch)

    def record(model, claim):
        return json.dumps(retrieve(model, tiny_vocab, claim, trie, tiny_corpus,
                                   params).to_record())

    shared = load_checkpoint(path)[0]
    together = [record(shared, claim) for claim in tiny_claims * 2]
    shared_rows = len(encoded)
    apart = [record(load_checkpoint(path)[0], claim) for claim in tiny_claims]
    assert together == apart * 2
    assert shared_rows < len(encoded) - shared_rows  # the memo served later claims
    for name in ("title_dec", "evid_dec"):  # the tables served later steps
        table = shared.prefix_table(name)
        assert 0 < table.full_hits < table.steps and table.row_hits < table.rows


def test_candidate_sentences_are_tokenized_once_per_vocab(
        tiny_corpus, tiny_vocab, tiny_claims, monkeypatch):
    """Repeated claims tokenize each distinct candidate sentence once, into
    `Vocab.encoded`, and give the records of a fresh vocab per claim."""
    trie = TitleTrie.build(tiny_corpus.titles(), tiny_vocab)
    model = Seq2SeqModel(small_config(len(tiny_vocab), init_std=0.5))
    params = DecodeParams(beam_size=4, max_titles=3, max_evidence_steps=4)

    def record(vocab, claim):
        return json.dumps(retrieve(model, vocab, claim, trie, tiny_corpus, params).to_record())

    apart = [record(Vocab(tiny_vocab.tokens), claim) for claim in tiny_claims * 2]
    texts = []
    encode = Vocab.encode
    monkeypatch.setattr(Vocab, "encode", lambda self, text: texts.append(text) or encode(self, text))
    assert [record(tiny_vocab, claim) for claim in tiny_claims * 2] == apart
    sentences = [text for text in texts if text not in {c.text for c in tiny_claims}]
    assert sentences and len(sentences) == len(set(sentences)) == len(tiny_vocab.encoded)
    assert all(tiny_vocab.encoded[text] == encode(tiny_vocab, text) for text in sentences)


def test_retrieve_blank_claim_is_a_data_error():
    corpus, vocab, trie, model = setup(["Alpha", "Gamma"])
    claim = Claim(7, "   ", Label.SUPPORTS, ((("Alpha", 0),),))
    with pytest.raises(DataError, match="claim 7 has no tokens"):
        retrieve(model, vocab, claim, trie, corpus, DecodeParams(beam_size=2))


def test_retrieve_handles_sentence_free_documents():
    corpus = Corpus()
    corpus.add(Document("Empty_doc", "Empty doc", ()))
    vocab = build_vocab(corpus, [], 100)
    trie = TitleTrie.build(corpus.titles(), vocab)
    model = Seq2SeqModel(small_config(len(vocab)))
    claim = Claim(1, "anything", Label.SUPPORTS, ((("Empty_doc", 0),),))
    result = retrieve(model, vocab, claim, trie, corpus, DecodeParams(beam_size=2))
    assert result.titles == ["Empty_doc"]
    assert result.evidence == []


# -- prediction file io ---------------------------------------------------------------


def test_prediction_round_trip(tmp_path):
    results = [
        RetrievalResult(claim_id=2, titles=["B"], evidence=[("B", 1)],
                        title_log_prob=-1.5, evidence_log_probs=[-0.3]),
        RetrievalResult(claim_id=1, titles=["A", "B"], evidence=[("A", 0), ("B", 2)],
                        title_log_prob=-2.0, evidence_log_probs=[-0.1, -0.9]),
    ]
    path = tmp_path / "pred.jsonl"
    write_predictions(results, path)
    records = read_predictions(path)
    assert [r["claim_id"] for r in records] == [1, 2]  # sorted by claim_id
    assert records[0]["predicted_evidence"] == [["A", 0], ["B", 2]]
    assert records[0]["scores"]["title_log_prob"] == -2.0


@pytest.mark.parametrize("second, message", [
    ('{"claim_id": 2, "predicted_evidence": [["A", -1]]}', "claim_id 2: predicted_evidence"),
    ('{"claim_id": 2, "predicted_titles": "A"}', "claim_id 2: predicted_titles"),
    ('{"claim_id": 1}', "duplicate prediction for claim_id 1"),
    ('{"claim_id": "2"}', "claim_id must be an integer"),
])
def test_read_predictions_names_the_line_of_a_bad_record(tmp_path, second, message):
    path = tmp_path / "pred.jsonl"
    path.write_text('{"claim_id": 1}\n' + second + "\n")
    with pytest.raises(DataError, match="^" + re.escape(f"{path}:2: {message}")):
        read_predictions(path)


def test_read_predictions_rejects_bad_lines(tmp_path):
    path = tmp_path / "pred.jsonl"
    path.write_text('{"claim_id": 1}\nnot json\n')
    with pytest.raises(DataError):
        read_predictions(path)
    path.write_text('{"no_id": 1}\n')
    with pytest.raises(DataError):
        read_predictions(path)
