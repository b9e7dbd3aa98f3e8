import json

import numpy as np
import pytest

from gere import decoding, nn
from gere.corpus import Corpus, Document, Claim, Label, gold_targets, title_from_doc_id
from gere.decoding import (
    DecodeParams, beam_search_titles, collect_candidates, greedy_evidence,
    read_predictions, retrieve, write_predictions, RetrievalResult,
)
from gere.errors import DataError, DecodingError
from gere.model import DecoderState, Seq2SeqModel, SentenceEmbedding
from gere.tokenizer import EOS, build_vocab
from gere.training import encode_example
from gere.trie import TitleTrie

from conftest import small_config
from oracles import exhaustive_title_search


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
    docs, log_prob, tokens = beam_search_titles(model, enc, trie, beam_size=5, max_titles=3)
    assert docs == ["Only_page"]
    assert log_prob <= 0.0


def test_outputs_are_always_corpus_titles(rng):
    corpus, vocab, trie, model = setup(["Alpha", "Alpha_beta", "Gamma_delta", "Beta"])
    valid = set(corpus.documents)
    for seed in range(10):
        m = Seq2SeqModel(small_config(len(vocab), seed=seed))
        enc = m.encode_claim(vocab.encode("some claim text here"))
        docs, _, _ = beam_search_titles(m, enc, trie, beam_size=3, max_titles=3)
        assert docs and set(docs) <= valid
        assert len(set(docs)) == len(docs)


def test_beam_matches_exhaustive_enumeration():
    doc_ids = ["Alpha", "Alpha_beta", "Gamma", "Beta_gamma"]
    corpus, vocab, trie, model = setup(doc_ids)
    titles = [(vocab.encode(title), doc_id) for title, doc_id in corpus.titles()]
    for seed in range(8):
        m = Seq2SeqModel(small_config(len(vocab), seed=seed))
        enc = m.encode_claim(vocab.encode("pick some pages"))
        docs, log_prob, _ = beam_search_titles(m, enc, trie, beam_size=16, max_titles=2)
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
        _, log_prob, _ = beam_search_titles(model, enc, trie, beam_size=beam_size,
                                            max_titles=2)
        scores.append(log_prob)
    assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))


def test_beam_respects_max_titles():
    corpus, vocab, trie, model = setup(["A_b", "C_d", "E_f"])
    enc = model.encode_claim(vocab.encode("claim"))
    for max_titles in (1, 2):
        docs, _, _ = beam_search_titles(model, enc, trie, beam_size=8,
                                        max_titles=max_titles)
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
        assert beam_search_titles(model, enc, trie, beam_size=32, max_titles=2,
                                  length_normalize=length_normalize) == (docs, score, tokens)


def test_beam_rejects_empty_trie_and_bad_beam():
    corpus, vocab, trie, model = setup(["Alpha"])
    enc = model.encode_claim(vocab.encode("x"))
    with pytest.raises(ValueError):
        beam_search_titles(model, enc, trie, beam_size=0)
    for max_titles in (0, -3):
        with pytest.raises(ValueError):
            beam_search_titles(model, enc, trie, beam_size=5, max_titles=max_titles)
    empty = TitleTrie([(None, ())])
    with pytest.raises(DecodingError):
        beam_search_titles(model, enc, empty, beam_size=5)


def test_beam_error_when_no_hypothesis_can_finish():
    # max_positions too small for any title to reach EOS: every hypothesis
    # dies mid-title.
    corpus, vocab, trie, model = setup(["Quite_long_title_here_indeed"],
                                       max_positions=3)
    enc = model.encode_claim(vocab.encode("x"))
    with pytest.raises(DecodingError):
        beam_search_titles(model, enc, trie, beam_size=4, max_titles=2)


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
            docs, _, tokens = beam_search_titles(model, enc, trie, beam_size=2, max_titles=1,
                                                 length_normalize=length_normalize)
            assert docs == ["Aa_bb_cc"] and len(tokens) == 6
        else:
            with pytest.raises(DataError, match="title target"):
                encode_example(claim, targets, corpus, vocab, max_positions)
            with pytest.raises(DecodingError):
                beam_search_titles(model, enc, trie, beam_size=2, max_titles=1,
                                   length_normalize=length_normalize)


def test_length_normalized_ranking_matches_oracle_rule():
    corpus, vocab, trie, _ = setup(["Alpha", "Gamma_delta_hill", "Beta"])
    titles = [(vocab.encode(title), doc_id) for title, doc_id in corpus.titles()]
    for seed in range(6):
        model = Seq2SeqModel(small_config(len(vocab), seed=seed))
        enc = model.encode_claim(vocab.encode("rank these pages"))
        ranked = exhaustive_title_search(model, enc, titles, max_titles=2)
        plain_docs, plain_lp, _ = beam_search_titles(model, enc, trie, beam_size=32,
                                                     max_titles=2)
        norm_docs, norm_lp, _ = beam_search_titles(model, enc, trie, beam_size=32,
                                                   max_titles=2, length_normalize=True)
        assert plain_docs == ranked[0][2]
        best_norm = min(ranked, key=lambda item: (-(item[0] / len(item[1])), item[1]))
        assert norm_docs == best_norm[2]
        assert norm_lp == best_norm[0]  # reported score stays the raw sum


# -- early stop ------------------------------------------------------------------


def _count_steps(monkeypatch):
    """Count `DecoderState.step` calls (title and evidence) from here on."""
    calls = []
    step = DecoderState.step
    monkeypatch.setattr(DecoderState, "step", lambda self, x: calls.append(1) or step(self, x))
    return calls


def _without_stop(monkeypatch):
    monkeypatch.setattr(decoding, "_cannot_improve", lambda *args: False)


@pytest.mark.parametrize("length_normalize", [False, True])
def test_early_stop_leaves_records_unchanged(length_normalize, monkeypatch):
    doc_ids = ["Alpha", "Alpha_beta", "Gamma", "Beta_gamma", "Delta_hill_north", "Beta"]
    corpus, vocab, trie, _ = setup(doc_ids)
    claims = [Claim(i, text, Label.NOT_ENOUGH_INFO, ()) for i, text in
              enumerate(["alpha beta", "key3 about gamma", "north hill delta", "x"])]
    params = DecodeParams(beam_size=2, max_titles=2, max_evidence_steps=3,
                          length_normalize=length_normalize)

    # Random checkpoints from flat to peaked; the short max_positions
    # tightens the normalised bound enough for it to fire.
    models = [Seq2SeqModel(small_config(len(vocab), seed=seed, init_std=init_std,
                                        max_positions=max_len))
              for seed, init_std in enumerate((0.02, 0.02, 0.5, 1.0, 2.0, 4.0))
              for max_len in (12, 64)]

    def run():
        calls = _count_steps(monkeypatch)
        records = [json.dumps(retrieve(model, vocab, claim, trie, corpus, params).to_record())
                   for model in models for claim in claims]
        return records, len(calls)

    stopped, stopped_steps = run()
    _without_stop(monkeypatch)
    full, full_steps = run()
    assert stopped == full
    assert stopped_steps < full_steps


def test_normalised_early_stop_fires_with_long_max_positions(monkeypatch):
    """With max_positions 64, `log_prob / max_positions` never falls below a
    finished score on this corpus; the bound from the trie depth does."""
    doc_ids = ["Alpha", "Alpha_beta", "Gamma", "Beta_gamma", "Delta_hill_north", "Beta"]
    corpus, vocab, trie, _ = setup(doc_ids)
    claims = [Claim(i, text, Label.NOT_ENOUGH_INFO, ()) for i, text in
              enumerate(["alpha beta", "key3 about gamma", "north hill delta", "x"])]
    params = DecodeParams(beam_size=2, max_titles=2, max_evidence_steps=3,
                          length_normalize=True)
    models = [Seq2SeqModel(small_config(len(vocab), seed=seed, init_std=init_std,
                                        max_positions=64))
              for seed, init_std in enumerate((0.02, 0.5, 1.0, 2.0, 4.0))]

    def run():
        calls = _count_steps(monkeypatch)
        records = [json.dumps(retrieve(model, vocab, claim, trie, corpus, params).to_record())
                   for model in models for claim in claims]
        return records, len(calls)

    stopped, stopped_steps = run()
    _without_stop(monkeypatch)
    full, full_steps = run()
    assert stopped == full
    assert stopped_steps < full_steps


def test_early_stop_fires_on_a_peaked_model(monkeypatch):
    """EOS costs nothing and every other token costs about 50 nats: the short
    title finishes while the long ones are still alive and already behind."""
    corpus, vocab, trie, model = setup(["Alpha", "Gamma_delta_hill_north_river"])
    model.params["title_dec.out_w"].data[:] = 0.0
    model.params["title_dec.out_b"].data[:] = -50.0
    model.params["title_dec.out_b"].data[EOS] = 0.0
    enc = model.encode_claim(vocab.encode("a claim"))
    calls = _count_steps(monkeypatch)
    stopped = beam_search_titles(model, enc, trie, beam_size=4, max_titles=2)
    stopped_steps = len(calls)
    _without_stop(monkeypatch)
    calls = _count_steps(monkeypatch)
    assert beam_search_titles(model, enc, trie, beam_size=4, max_titles=2) == stopped
    assert stopped[0] == ["Alpha"]
    assert stopped_steps < len(calls)


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
    pairs, log_probs = greedy_evidence(model, enc, cands, max_evidence_steps=5)
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
    pairs, log_probs = greedy_evidence(model, enc, cands, max_evidence_steps=5)
    assert pairs == [] and log_probs == []


def test_greedy_no_repeats_and_step_cap():
    corpus, vocab, trie, model = setup(["Alpha", "Beta"])
    enc = model.encode_claim(vocab.encode("claim"))
    # EOE pushed far down so decoding keeps picking candidates.
    model.params["evid_dec.eoe"].data[:] = -1000.0
    cands = collect_candidates(model, vocab, ["Alpha", "Beta"], corpus)
    pairs, _ = greedy_evidence(model, enc, cands, max_evidence_steps=10)
    assert len(pairs) == len(set(pairs)) == 2  # all candidates, no repeats
    pairs1, _ = greedy_evidence(model, enc, cands, max_evidence_steps=1)
    assert len(pairs1) == 1


def test_greedy_over_no_candidates_returns_no_evidence():
    corpus, vocab, trie, model = setup(["Alpha"])
    enc = model.encode_claim(vocab.encode("claim"))
    assert greedy_evidence(model, enc, [], max_evidence_steps=3) == ([], [])


def test_greedy_tie_breaks_by_source_order():
    corpus, vocab, trie, model = setup(["Alpha"])
    enc = model.encode_claim(vocab.encode("claim"))
    v = np.ones(model.config.d_model) * 0.1
    model.params["evid_dec.eoe"].data[:] = -1000.0
    cands = [SentenceEmbedding(vector=v.copy(), source=("A", 0)),
             SentenceEmbedding(vector=v.copy(), source=("A", 1))]
    pairs, _ = greedy_evidence(model, enc, cands, max_evidence_steps=1)
    assert pairs == [("A", 0)]


# -- retrieve -----------------------------------------------------------------------


def test_retrieve_contract_and_determinism():
    corpus, vocab, trie, model = setup(["Alpha", "Alpha_beta", "Gamma"])
    claim = Claim(41, "some claim about alpha", Label.SUPPORTS, ((("Alpha", 0),),))
    params = DecodeParams(beam_size=4, max_titles=2, max_evidence_steps=4)
    r1 = retrieve(model, vocab, claim, trie, corpus, params)
    r2 = retrieve(model, vocab, claim, trie, corpus, params)
    assert r1 == r2
    assert r1.claim_id == 41
    assert len(set(r1.titles)) == len(r1.titles)
    assert set(d for d, _ in r1.evidence) <= set(r1.titles)
    assert len(r1.evidence) <= 4
    assert len(r1.evidence_log_probs) == len(r1.evidence)


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


def test_read_predictions_rejects_bad_lines(tmp_path):
    path = tmp_path / "pred.jsonl"
    path.write_text('{"claim_id": 1}\nnot json\n')
    with pytest.raises(DataError):
        read_predictions(path)
    path.write_text('{"no_id": 1}\n')
    with pytest.raises(DataError):
        read_predictions(path)
