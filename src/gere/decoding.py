"""Inference-time generation.

Title decoding is beam search over the token vocabulary with per-step masks:
inside a title only the trie's continuations are legal; right after EOT only
SEP or EOS; after SEP the trie resets to the root and any already-emitted
title has its final EOT masked (duplicate suppression). Hypothesis scores are
sums of full-softmax token log-probs (no renormalization over the mask and,
by default, no length normalization). Since every token log-prob is <= 0, a
score only falls as a hypothesis grows, so the beam stops as soon as the best
finished hypothesis outranks every alive one (Huang et al., EMNLP 2017); under
length normalization each alive hypothesis is bounded through the longest
finish the trie still allows it. The result is the full beam's, bit for bit.
Each beam step scores all legal continuations of all alive hypotheses as
arrays and selects with one `np.lexsort`. Evidence decoding is greedy over
the remaining candidate sentences plus EOE; the candidates are embedded with
one stacked sentence-encoder pass per distinct length.

Both decoders cross-attend to the claim states that `encode_claim` returns
and run incrementally on the model's KV-cached `DecoderState`: the beam
makes one batched step per iteration for all alive hypotheses and then
reorders the cache rows by parent; the evidence decoder makes one one-row
step per pick. A batched row is bit-identical to a one-row replay of its
prefix, which is what `Seq2SeqModel.decode_step_title` and
`decode_step_evidence` compute, so beam scores equal the exhaustive-search
oracle's scores exactly, not just to a tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import binio, nn
from .corpus import Claim, Corpus, claim_id_of
from .errors import DataError, DecodingError
from .model import DecoderState, Seq2SeqModel, SentenceEmbedding
from .tokenizer import BOS, EOS, EOT, SEP, Vocab
from .trie import TitleTrie


@dataclass
class DecodeParams:
    beam_size: int = 5
    max_titles: int = 10
    max_evidence_steps: int = 10
    length_normalize: bool = False  # rank finished hypotheses by log_prob / length


@dataclass
class BeamHypothesis:
    tokens: list[int]
    log_prob: float
    ends: tuple[int, ...] = ()  # the terminal trie node of each emitted title
    node: Optional[int] = None  # trie node while inside a title, else None


@dataclass
class RetrievalResult:
    claim_id: int
    titles: list[str]  # ordered doc_ids
    evidence: list[tuple[str, int]]
    title_log_prob: float
    evidence_log_probs: list[float] = field(default_factory=list)

    def to_record(self) -> dict:
        return {
            "claim_id": self.claim_id,
            "predicted_titles": list(self.titles),
            "predicted_evidence": [[doc_id, index] for doc_id, index in self.evidence],
            "scores": {
                "title_log_prob": self.title_log_prob,
                "evidence_log_probs": list(self.evidence_log_probs),
            },
        }


_SEP_EOS = np.array([SEP, EOS], dtype=np.intp)
_EOS_ONLY = np.array([EOS], dtype=np.intp)


def _allowed_tokens(hyp: BeamHypothesis, trie: TitleTrie, max_titles: int) -> np.ndarray:
    if hyp.node is not None:
        first, count = trie.first_child.item(hyp.node), trie.child_count.item(hyp.node)
        tokens = trie.token[first:first + count]
        for end in hyp.ends:
            if first <= end < first + count:  # an emitted title ends at this node
                return tokens[tokens != EOT]  # duplicate-title suppression
        return tokens
    return _SEP_EOS if len(hyp.ends) < max_titles else _EOS_ONLY


def _extend(hyp: BeamHypothesis, token: int, log_prob: float, trie: TitleTrie) -> BeamHypothesis:
    tokens = hyp.tokens + [token]
    if token == EOS:
        return BeamHypothesis(tokens, log_prob, ends=hyp.ends)
    if token == SEP:
        return BeamHypothesis(tokens, log_prob, ends=hyp.ends, node=trie.root)
    first, count = trie.first_child.item(hyp.node), trie.child_count.item(hyp.node)
    child = first + trie.token[first:first + count].tolist().index(token)
    if token == EOT:
        return BeamHypothesis(tokens, log_prob, ends=hyp.ends + (child,))
    return BeamHypothesis(tokens, log_prob, ends=hyp.ends, node=child)


def _rank_score(hyp: BeamHypothesis, length_normalize: bool) -> float:
    return hyp.log_prob / len(hyp.tokens) if length_normalize else hyp.log_prob


def _longest_finish(hyp: BeamHypothesis, trie: TitleTrie, max_titles: int, max_len: int) -> int:
    """The most tokens a finished descendant of `hyp` can hold: the rest of the
    current title, then every title still allowed at the trie's greatest depth
    (SEP, its tokens and EOT each), then EOS; never more than `max_len`."""
    inside = hyp.node is not None
    rest = trie.height.item(hyp.node) if inside else 0
    titles_left = max_titles - len(hyp.ends) - inside
    longest = len(hyp.tokens) + rest + titles_left * (1 + trie.height.item(trie.root)) + 1
    return min(longest, max_len)


def _cannot_improve(alive: Sequence[BeamHypothesis], best_finished: float,
                    length_normalize: bool, trie: TitleTrie, max_titles: int,
                    max_len: int) -> bool:
    """Whether no hypothesis grown from the alive beam can outrank `best_finished`.

    `alive` is sorted best-first by summed score. Every token log-prob is
    <= 0 (`nn.log_softmax64`) and float addition of a non-positive term never
    increases a sum, so no descendant of `h` scores above `h.log_prob`. Its
    finished descendants have at most `_longest_finish(h)` tokens and a
    non-positive score, and float division is monotone, so none has a
    normalised score above `h.log_prob / _longest_finish(h)`. The comparison
    is strict, so a descendant cannot even tie and win on the token
    tie-break: the result is the one the full beam would return, bit for bit.
    """
    if not length_normalize:
        return alive[0].log_prob < best_finished
    return max(h.log_prob / _longest_finish(h, trie, max_titles, max_len)
               for h in alive) < best_finished


def beam_search_titles(
    model: Seq2SeqModel,
    claim_states: np.ndarray,
    trie: TitleTrie,
    beam_size: int = 5,
    max_titles: int = 10,
    length_normalize: bool = False,
) -> tuple[list[str], float, list[int]]:
    """Constrained beam search; returns (doc_ids, log_prob, token sequence).

    Ties in score break on the lexicographically smaller token sequence.
    Finished hypotheses do not occupy alive-beam slots, so with beam_size at
    least the number of legal hypotheses the search is exhaustive. The search
    stops early once no alive hypothesis can beat the best finished one
    (`_cannot_improve`); that never changes the result.

    Each step scores every legal continuation as arrays: `parent_rank` ranks
    the alive token lists, which all have one length, so sorting by
    (-score, parent_rank, token) is the (-score, token list) order.
    """
    if trie.title_count == 0:
        raise DecodingError("cannot decode titles against an empty trie")
    if beam_size < 1:
        raise ValueError("beam_size must be positive")
    if max_titles < 1:
        raise ValueError("max_titles must be positive")
    state = DecoderState(model, "title_dec", claim_states)
    alive = [BeamHypothesis(tokens=[BOS], log_prob=0.0, node=trie.root)]
    parent_rank = np.zeros(1, dtype=np.intp)
    finished: list[BeamHypothesis] = []
    # Inputs fill positions 0 .. max_positions - 1 and the last one predicts EOS, so
    # a finished sequence has up to max_positions + 1 tokens, as `encode_example` allows.
    max_len = model.config.max_positions + 1
    best_finished = -math.inf
    while alive:
        if _cannot_improve(alive, best_finished, length_normalize, trie, max_titles, max_len):
            break
        if len(alive[0].tokens) >= max_len:
            break  # all alive hypotheses share one length; none can extend, all die
        log_probs = nn.log_softmax64(model.title_step(state, [hyp.tokens[-1] for hyp in alive]))
        allowed = [_allowed_tokens(hyp, trie, max_titles) for hyp in alive]
        rows = np.repeat(np.arange(len(alive)), [len(a) for a in allowed])
        tokens = np.concatenate(allowed)
        scores = np.array([hyp.log_prob for hyp in alive])[rows] + log_probs[rows, tokens]
        order = np.lexsort((tokens, parent_rank[rows], -scores))
        eos = tokens[order] == EOS
        for i in order[eos].tolist():
            finished.append(_extend(alive[rows[i]], EOS, float(scores[i]), trie))
            best_finished = max(best_finished, _rank_score(finished[-1], length_normalize))
        keep = order[~eos][:beam_size]
        kept_rows, kept_tokens = rows[keep], tokens[keep]
        alive = [_extend(alive[row], token, score, trie) for row, token, score in
                 zip(kept_rows.tolist(), kept_tokens.tolist(), scores[keep].tolist())]
        parent_rank = np.argsort(np.lexsort((kept_tokens, parent_rank[kept_rows])))
        state.reorder(kept_rows)
    if not finished:
        raise DecodingError("no beam hypothesis could finish")
    best = min(finished, key=lambda h: (-_rank_score(h, length_normalize), h.tokens))
    return [trie.doc_ids[end] for end in best.ends], best.log_prob, best.tokens


def collect_candidates(model: Seq2SeqModel, vocab: Vocab, doc_ids: Sequence[str],
                       corpus: Corpus) -> list[SentenceEmbedding]:
    """Embed every sentence of the given documents, in `Corpus.candidates` order."""
    rows = corpus.candidates(doc_ids)
    return model.encode_sentences([vocab.encode(text) for _, _, text in rows],
                                  [(doc_id, index) for doc_id, index, _ in rows])


def greedy_evidence(
    model: Seq2SeqModel,
    claim_states: np.ndarray,
    candidates: Sequence[SentenceEmbedding],
    max_evidence_steps: int = 10,
) -> tuple[list[tuple[str, int]], list[float]]:
    """Greedy argmax decoding over the dynamic candidate vocabulary.

    A chosen candidate is removed from later steps; decoding stops at EOE, at
    max_evidence_steps, or when candidates run out (at once if there are
    none). Score ties prefer the earliest candidate in (doc_id,
    sentence_index) order, then EOE last.
    """
    state = DecoderState(model, "evid_dec", claim_states)
    vector = model.params["evid_dec.start"].data
    remaining = list(candidates)
    pairs: list[tuple[str, int]] = []
    log_probs: list[float] = []
    for _ in range(max_evidence_steps):
        if not remaining:
            break
        if 1 + len(pairs) >= model.config.max_positions:
            break
        scores = model.evidence_step(state, vector, remaining)
        step_log_probs = nn.log_softmax64(scores)
        pick = int(np.argmax(scores))
        if pick == len(remaining):  # EOE
            break
        selected = remaining.pop(pick)
        vector = selected.vector
        pairs.append(selected.source)
        log_probs.append(float(step_log_probs[pick]))
    return pairs, log_probs


def retrieve(model: Seq2SeqModel, vocab: Vocab, claim: Claim, trie: TitleTrie,
             corpus: Corpus, params: Optional[DecodeParams] = None) -> RetrievalResult:
    """Claim encoding -> constrained title beam -> candidates -> greedy evidence."""
    params = params or DecodeParams()
    claim_ids = vocab.encode(claim.text)
    if not claim_ids:
        raise DataError(f"claim {claim.claim_id} has no tokens")
    claim_states = model.encode_claim(claim_ids)
    doc_ids, title_lp, _ = beam_search_titles(
        model, claim_states, trie, beam_size=params.beam_size, max_titles=params.max_titles,
        length_normalize=params.length_normalize)
    candidates = collect_candidates(model, vocab, doc_ids, corpus)
    evidence, ev_lps = greedy_evidence(model, claim_states, candidates,
                                       max_evidence_steps=params.max_evidence_steps)
    return RetrievalResult(claim_id=claim.claim_id, titles=doc_ids, evidence=evidence,
                           title_log_prob=title_lp, evidence_log_probs=ev_lps)


# -- prediction file io -------------------------------------------------------


def write_predictions(results: Sequence[RetrievalResult], path) -> None:
    records = sorted((r.to_record() for r in results), key=lambda rec: rec["claim_id"])
    binio.write_jsonl(path, records)


def read_predictions(path) -> list[dict]:
    records = []
    for where, rec in binio.read_jsonl(path):
        claim_id_of(rec, "claim_id", where)
        records.append(rec)
    return records
