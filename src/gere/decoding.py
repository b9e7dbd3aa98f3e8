"""Inference-time generation.

Title decoding is beam search over the token vocabulary with per-step masks:
inside a title only the trie's continuations are legal (`TitleTrie.edges`:
the j-th child token leads to the node's first child id plus j); right
after EOT only SEP or EOS; after SEP the trie resets to the root and any
already-emitted title has its final EOT masked (duplicate suppression: the
node's EOT child is an emitted title's end). Hypothesis scores are sums of
full-softmax token log-probs (no renormalization over the mask and, by
default, no length normalization). Since every token log-prob is <= 0, a
score only falls as a hypothesis grows, so under summed ranking each step
drops the alive hypotheses that score below the best finished one, and
under length normalization the beam stops as soon as the best finished
hypothesis outranks every alive one, each bounded through the longest
finish the trie still allows it (Huang et al., EMNLP 2017). The result is
the full beam's, bit for bit. Hypotheses are plain tuples that carry their
trie node and its height, which the bound reads, and each beam step ranks
all legal continuations of all alive hypotheses with one sort of plain
tuples. Evidence decoding is greedy over the remaining candidate sentences
plus EOE. The candidates' vectors come from the model's sentence memo,
which outlives the call: a sentence an earlier claim already embedded with
the same sentence-encoder parameters is not embedded again, and the rest
are embedded with one stacked pass per distinct length, with the bits of
one pass per sentence.

Both decoders take the run's `DecodeParams` whole (the frozen dataclass
owns each setting's default and range rule, checked once when it is built),
cross-attend to the claim states that `encode_claim` returns and run
incrementally on the model's KV-cached `DecoderState`. Its weights
come packed from the decoder's `model.DecoderMemo`, and the cross-attention
keys and values of all its layers are one product per claim and decoder.
The beam makes one batched step per iteration for all alive hypotheses and
then reorders the cache rows by parent; the evidence decoder makes one
one-row step per pick. A batched row is bit-identical to a one-row replay
of its prefix, which is what `Seq2SeqModel.decode_step_title` and
`decode_step_evidence` compute, so beam scores equal the exhaustive-search
oracle's scores exactly, not just to a tolerance. Both decoders also share
the model's prefix tables across claims (`model.PrefixTable`, held by the
memo). A step whose rows all continue input sequences that an earlier step
stored gathers layer 0's claim-free half (everything before its
cross-attention) instead of computing it. The stored rows came from the
same row-independent ops, so the bits are the same, and later claims
decode the popular title prefixes near the trie's root and the evidence
start step for less. A table lives as long as its decoder's parameters stay
as they are (the sentence memo's rule) and stores at most
`model.PREFIX_TABLE_ROWS` prefixes, 16 MiB of rows plus about 7.5 MiB of
keys at d_model 64.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import binio, nn
from .corpus import Claim, Corpus
from .errors import DataError, DecodingError, at_least
from .evalkit import check_predictions
from .model import DecoderState, Seq2SeqModel, SentenceEmbedding
from .tokenizer import BOS, EOS, EOT, SEP, Vocab
from .trie import TitleTrie


@dataclass(frozen=True)
class DecodeParams:
    beam_size: int = 5
    max_titles: int = 10
    max_evidence_steps: int = 10
    length_normalize: bool = False  # rank finished hypotheses by log_prob / length

    def __post_init__(self):
        for name, low in (("beam_size", 1), ("max_titles", 1), ("max_evidence_steps", 0)):
            at_least(name, getattr(self, name), low)


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


def _longest_finish(hyp: tuple, root_height: int, max_titles: int, max_len: int) -> int:
    """The most tokens a finished descendant of `hyp` can hold: the rest of the
    current title (its node's height), then every title still allowed at the
    trie's greatest depth (`root_height`: SEP, its tokens and EOT each), then
    EOS; never more than `max_len`."""
    tokens, _, ends, node, height = hyp
    titles_left = max_titles - len(ends) - (node is not None)
    return min(len(tokens) + height + titles_left * (1 + root_height) + 1, max_len)


def _cannot_improve(alive: Sequence[tuple], best_finished: float, root_height: int,
                    max_titles: int, max_len: int) -> bool:
    """Under length normalisation, whether no hypothesis grown from the alive
    beam can outrank `best_finished`.

    Every token log-prob is <= 0 (`nn.log_softmax64`) and float addition of
    a non-positive term never increases a sum, so no descendant of `h` scores
    above its log-prob. Its finished descendants have at most
    `_longest_finish(h)` tokens and a non-positive score, and float division
    is monotone, so none has a normalised score above
    `log_prob / _longest_finish(h)`. The comparison is strict, so a
    descendant cannot even tie and win on the token tie-break: the result is
    the one the full beam would return, bit for bit.
    """
    return max(hyp[1] / _longest_finish(hyp, root_height, max_titles, max_len)
               for hyp in alive) < best_finished


def beam_search_titles(model: Seq2SeqModel, claim_states: np.ndarray, trie: TitleTrie,
                       params: DecodeParams) -> tuple[list[str], float, list[int]]:
    """Constrained beam search with `params`' beam size, title limit and
    ranking; returns (doc_ids, log_prob, token sequence).

    Ties in score break on the lexicographically smaller token sequence.
    Finished hypotheses do not occupy alive-beam slots, so with beam_size at
    least the number of legal hypotheses the search is exhaustive.

    An EOS continuation finishes at once and takes no slot, so it is not
    ranked. The alive beam is kept in the lexicographic order of its token
    lists, which all have one length, so ranking every other legal
    continuation as a plain `(-score, row, token, node)` tuple, with one
    sort, is the (-score, token list) order (no two share a row and a token,
    so the trie node after the token is never compared). Hypotheses that
    cannot win are not decoded further, and the result is the full beam's,
    bit for bit:

    - Summed ranking: a kept hypothesis whose score is below the best
      finished one is dropped. No descendant scores above it (token
      log-probs are <= 0), so none can win, not even on the tie-break; and
      every continuation that can still win ranks strictly ahead of all its
      children, so the full beam would give the slots it frees only to
      hypotheses that cannot win either.
    - Length normalisation: slots are filled by summed score, so dropping a
      row by its normalised bound could free a slot that the full beam
      fills with a later winner; the search stops only when the whole beam
      cannot improve (`_cannot_improve`).
    """
    state = DecoderState(model, "title_dec", claim_states)
    root, root_height = trie.root, trie.height.item(trie.root)
    # A hypothesis is (tokens, log_prob, ends, node, height): `ends` holds the
    # terminal trie node of each emitted title, `node` is the trie node while
    # inside a title, else None, and `height` is that node's height, else 0.
    alive = [([BOS], 0.0, (), root, root_height)]
    finished = []  # (-rank score, tokens, log_prob, ends) of each finished hypothesis
    # Inputs fill positions 0 .. max_positions - 1 and the last one predicts EOS, so
    # a finished sequence has up to max_positions + 1 tokens, as `encode_example` allows.
    max_len = model.config.max_positions + 1
    best_finished = -math.inf
    while alive:
        if params.length_normalize and _cannot_improve(alive, best_finished, root_height,
                                                       params.max_titles, max_len):
            break
        if len(alive[0][0]) >= max_len:
            break  # all alive hypotheses share one length; none can extend, all die
        log_probs = nn.log_softmax64(model.title_step(state, [hyp[0][-1] for hyp in alive]))
        candidates = []  # the continuations other than EOS
        for row, (tokens, score, ends, node, _) in enumerate(alive):
            if node is None:  # after a title: EOS, and SEP while titles are left
                log_prob = score + log_probs.item(row, EOS)
                rank = log_prob / (len(tokens) + 1) if params.length_normalize else log_prob
                finished.append((-rank, tokens + [EOS], log_prob, ends))
                best_finished = max(best_finished, rank)
                if len(ends) < params.max_titles:
                    candidates.append((-(score + log_probs.item(row, SEP)), row, SEP, root))
                continue
            first, children = trie.edges(node)  # child j is node first + j
            for j, (token, log_prob) in enumerate(zip(
                    children.tolist(), log_probs[row].take(children).tolist())):
                if token != EOT or first + j not in ends:  # no emitted title ends again
                    candidates.append((-(score + log_prob), row, token, first + j))
        candidates.sort()
        kept = [(row, token, child, -neg_score)
                for neg_score, row, token, child in candidates[:params.beam_size]
                if params.length_normalize or -neg_score >= best_finished]
        kept.sort()  # by (row, token): the new token lists in lexicographic order
        parents, alive = alive, []
        for row, token, child, score in kept:
            tokens, _, ends = parents[row][:3]
            if token == EOT:
                alive.append((tokens + [token], score, ends + (child,), None, 0))
            else:
                alive.append((tokens + [token], score, ends, child, trie.height.item(child)))
        state.reorder([row for row, _, _, _ in kept])
    if not finished:
        raise DecodingError("no beam hypothesis could finish")
    _, tokens, log_prob, ends = min(finished)  # by rank, then token list
    return [trie.doc_ids[end] for end in ends], log_prob, tokens


def collect_candidates(model: Seq2SeqModel, vocab: Vocab, doc_ids: Sequence[str],
                       corpus: Corpus) -> list[SentenceEmbedding]:
    """Embed every sentence of the given documents, in `Corpus.candidates` order.
    Each distinct sentence text is tokenized once per vocab (`Vocab.encode_sentence`)."""
    rows = corpus.candidates(doc_ids)
    return model.encode_sentences([vocab.encode_sentence(text) for _, _, text in rows],
                                  [(doc_id, index) for doc_id, index, _ in rows])


def greedy_evidence(model: Seq2SeqModel, claim_states: np.ndarray,
                    candidates: Sequence[SentenceEmbedding],
                    params: DecodeParams) -> tuple[list[tuple[str, int]], list[float]]:
    """Greedy argmax decoding over the dynamic candidate vocabulary.

    A chosen candidate is removed from later steps; decoding stops at EOE, at
    `params.max_evidence_steps`, or when candidates run out (at once if there
    are none). Score ties prefer the earliest candidate in (doc_id,
    sentence_index) order, then EOE last.
    """
    state = DecoderState(model, "evid_dec", claim_states)
    vector = model.params["evid_dec.start"].data
    remaining = list(candidates)
    pairs: list[tuple[str, int]] = []
    log_probs: list[float] = []
    for _ in range(params.max_evidence_steps):
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
             corpus: Corpus, params: DecodeParams) -> RetrievalResult:
    """Claim encoding -> constrained title beam -> candidates -> greedy evidence."""
    claim_ids = vocab.encode(claim.text)
    if not claim_ids:
        raise DataError(f"claim {claim.claim_id} has no tokens")
    claim_states = model.encode_claim(claim_ids)
    doc_ids, title_lp, _ = beam_search_titles(model, claim_states, trie, params)
    candidates = collect_candidates(model, vocab, doc_ids, corpus)
    evidence, ev_lps = greedy_evidence(model, claim_states, candidates, params)
    return RetrievalResult(claim_id=claim.claim_id, titles=doc_ids, evidence=evidence,
                           title_log_prob=title_lp, evidence_log_probs=ev_lps)


# -- prediction file io -------------------------------------------------------


def write_predictions(results: Sequence[RetrievalResult], path) -> None:
    records = sorted((r.to_record() for r in results), key=lambda rec: rec["claim_id"])
    binio.write_jsonl(path, records)


def read_predictions(path) -> list[dict]:
    """The records of a prediction file, in file order, each checked by
    `evalkit.check_predictions`; a bad record is a `DataError` naming its line."""
    return list(check_predictions(binio.read_jsonl(path)).values())
