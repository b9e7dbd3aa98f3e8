"""Joint teacher-forced training of the title and evidence objectives."""

from __future__ import annotations

import itertools
import math
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence

import numpy as np

from . import nn
from .corpus import Claim, Corpus, GoldTargets
from .errors import DataError, TrainingError
from .model import NEG_INF, Seq2SeqModel, length_groups, sentence_ids
from .tokenizer import BOS, EOS, EOT, PAD, SEP, Vocab


@dataclass
class TrainStats:
    step: int
    loss_title: float
    loss_evidence: float
    loss_total: float
    grad_norm: float
    learning_rate: float

    def as_dict(self) -> dict:
        return asdict(self)


def learning_rate(step: int, total_updates: int, peak_lr: float, warmup_frac: float) -> float:
    """Linear warmup to the peak over the first warmup_frac of updates, then
    linear decay; exactly peak_lr at the warmup boundary and 0.0 at the end.
    Steps are 1-based."""
    if not 0.0 < warmup_frac < 1.0:
        raise ValueError(f"warmup_frac must be in (0, 1), got {warmup_frac}")
    if step < 1 or total_updates < 1:
        raise ValueError("step and total_updates must be positive")
    warmup = max(1, round(total_updates * warmup_frac))
    if step <= warmup:
        return peak_lr * (step / warmup)
    if step >= total_updates:
        return 0.0
    return peak_lr * ((total_updates - step) / (total_updates - warmup))


def linearize_titles(vocab: Vocab, titles: Sequence[str]) -> list[int]:
    """Target layout: BOS t1 EOT SEP t2 EOT ... EOS."""
    ids = [BOS]
    for i, title in enumerate(titles):
        if i:
            ids.append(SEP)
        ids.extend(vocab.encode(title))
        ids.append(EOT)
    ids.append(EOS)
    return ids


@dataclass
class _Example:
    claim_ids: list[int]
    title_target: list[int]
    cand_ids: list[list[int]]  # per candidate, ordered by (doc_id, sentence_index)
    gold_slots: list[int]  # candidate indices in gold order

    @property
    def cost(self) -> int:
        return len(self.claim_ids) + len(self.title_target)


def encode_example(claim: Claim, targets: GoldTargets, corpus: Corpus, vocab: Vocab,
                   max_positions: int) -> _Example:
    claim_ids = vocab.encode(claim.text)[:max_positions]
    if not claim_ids:
        raise DataError(f"claim {claim.claim_id} has no tokens")
    title_target = linearize_titles(vocab, targets.title_sequence)
    if len(title_target) - 1 > max_positions:
        raise DataError(f"claim {claim.claim_id}: title target longer than max_positions")
    if len(targets.evidence_sequence) + 1 > max_positions:  # the start vector, then each pick
        raise DataError(f"claim {claim.claim_id}: gold evidence longer than max_positions - 1")
    cands = corpus.candidates(doc_id for doc_id, _ in targets.evidence_sequence)
    slot_of = {(doc_id, index): i for i, (doc_id, index, _) in enumerate(cands)}
    gold_slots = []
    for pair in targets.evidence_sequence:
        if pair not in slot_of:
            raise DataError(f"claim {claim.claim_id}: gold evidence {pair!r} unresolvable")
        gold_slots.append(slot_of[pair])
    cand_ids = [sentence_ids(vocab.encode(text), max_positions) for _, _, text in cands]
    return _Example(claim_ids, title_target, cand_ids, gold_slots)


def make_batches(examples: Sequence[_Example], max_tokens: int) -> list[list[_Example]]:
    """Greedy dynamic batching by claim+target token budget, order-preserving."""
    batches: list[list[_Example]] = []
    current: list[_Example] = []
    used = 0
    for ex in examples:
        if current and used + ex.cost > max_tokens:
            batches.append(current)
            current, used = [], 0
        current.append(ex)
        used += ex.cost
    if current:
        batches.append(current)
    return batches


def _pad_ids(seqs: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    width = max(len(s) for s in seqs)
    ids = np.full((len(seqs), width), PAD, dtype=np.int64)
    valid = np.zeros((len(seqs), width), dtype=bool)
    for i, s in enumerate(seqs):
        ids[i, : len(s)] = s
        valid[i, : len(s)] = True
    return ids, valid


class Trainer:
    """One optimizer step at a time; all randomness is a pure function of
    (seed, step), so resuming from a checkpoint continues bit-identically."""

    def __init__(self, model: Seq2SeqModel, vocab: Vocab, total_updates: int,
                 peak_lr: float = 3e-5, warmup_frac: float = 0.10, clip_norm: float = 1.0):
        if total_updates < 1:
            raise ValueError("total_updates must be positive")
        if not (math.isfinite(peak_lr) and peak_lr > 0):
            raise ValueError(f"peak_lr must be finite and positive, got {peak_lr}")
        if not (math.isfinite(clip_norm) and clip_norm > 0):
            raise ValueError(f"clip_norm must be finite and positive, got {clip_norm}")
        self.model = model
        self.vocab = vocab
        self.total_updates = total_updates
        self.peak_lr = peak_lr
        self.warmup_frac = warmup_frac
        self.clip_norm = clip_norm
        self.optimizer = nn.Adam(model.params)
        self.step_count = 0

    def _dropout_rng(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([self.model.config.seed, 1, self.step_count]))

    def shuffle_order(self, n_examples: int, epoch: int) -> np.ndarray:
        rng = np.random.default_rng(
            np.random.SeedSequence([self.model.config.seed, 2, epoch]))
        return rng.permutation(n_examples)

    def batches(self, examples: Sequence[_Example], max_tokens: int,
                shuffle: bool = True) -> Iterator[list[_Example]]:
        """The batches of updates step_count + 1 .. total_updates, with
        step_count read now: epoch e is `make_batches` over
        `shuffle_order(n, e)` (the input order without shuffle), and the
        batches of the updates already made are skipped, so a resumed run
        continues exactly. The iteration ends whether or not the caller trains."""
        if not examples:
            raise ValueError("no examples to batch")
        n = len(examples)
        orders = (self.shuffle_order(n, e) if shuffle else range(n) for e in itertools.count())
        epochs = (make_batches([examples[i] for i in order], max_tokens) for order in orders)
        return itertools.islice(itertools.chain.from_iterable(epochs), self.step_count,
                                self.total_updates)

    def loss_graph(self, examples: Sequence[_Example]) -> tuple[nn.Tensor, nn.Tensor]:
        """Build the joint forward graph for a prepared batch and return its
        (title, evidence) losses; pure given parameters and step_count. The
        claim encoder and the decoders run over right-padded rows; the
        sentence encoder runs `pooled_sentences`, with no padded row."""
        model = self.model
        rng = self._dropout_rng()
        n_batch = len(examples)

        claim_ids, claim_valid = _pad_ids([ex.claim_ids for ex in examples])
        title_in, _ = _pad_ids([ex.title_target[:-1] for ex in examples])
        title_tgt, _ = _pad_ids([ex.title_target[1:] for ex in examples])

        # Example b's candidates are rows offsets[b] .. of the flat sentence
        # list and slots 1 .. n_cands[b] of its candidate table (0 is EOE).
        flat_sents = [ids for ex in examples for ids in ex.cand_ids]
        n_cands = np.array([len(ex.cand_ids) for ex in examples], dtype=np.int64)
        offsets = np.cumsum(n_cands) - n_cands
        n_slots = 1 + int(n_cands.max())
        batch_idx = np.repeat(np.arange(n_batch, dtype=np.int64), n_cands)
        slot_idx = 1 + np.arange(len(flat_sents), dtype=np.int64) - np.repeat(offsets, n_cands)
        slot_mask = np.where(np.arange(n_slots) <= n_cands[:, None], 0.0, NEG_INF
                             ).astype(model.dtype)[:, None, :]

        # Evidence step s targets slot 1 + gold_slots[s], and EOE (0) closes
        # the sequence; step s > 0 reads the sentence step s - 1 chose, and
        # step 0 the start vector (-1); -2 marks a padded step.
        ev_targets, step_valid = _pad_ids([[1 + s for s in ex.gold_slots] + [0]
                                           for ex in examples])
        n_steps = ev_targets.shape[1]
        reads = np.pad(ev_targets[:, :-1] + offsets[:, None], ((0, 0), (1, 0)))
        input_map = np.where(step_valid, reads - 1, -2)

        # Forward: claim encoder feeds both decoders; sentence encoder feeds
        # the dynamic candidate vocabulary and the evidence decoder inputs.
        enc_out = model.encoder_forward("claim_enc", claim_ids, claim_valid, rng)

        x = model.embed_title_inputs(title_in)
        states = model.decoder_forward("title_dec", x, enc_out, claim_valid, rng)
        logits = model.title_output_logits(states)
        flat_logits = nn.reshape(logits, (-1, model.config.vocab_size))
        keep = np.flatnonzero(title_tgt.ravel() != PAD)
        loss_title = nn.cross_entropy(nn.gather(flat_logits, keep),
                                      title_tgt.ravel()[keep],
                                      model.config.label_smoothing)

        pooled = self.pooled_sentences(flat_sents, rng)
        cand_table = nn.assemble_candidates(pooled, model.params["evid_dec.eoe"],
                                            batch_idx, slot_idx, n_batch, n_slots)
        ev_in = nn.assemble_inputs(pooled, model.params["evid_dec.start"], input_map)
        ev_in = nn.add(ev_in, model._positions("evid_dec", n_steps))
        ev_states = model.decoder_forward("evid_dec", ev_in, enc_out, claim_valid, rng)
        scores = nn.add(nn.matmul(ev_states, nn.transpose(cand_table, (0, 2, 1))),
                        nn.constant(slot_mask))
        flat_scores = nn.reshape(scores, (-1, n_slots))
        keep_steps = np.flatnonzero(step_valid.ravel())
        loss_evidence = nn.cross_entropy(nn.gather(flat_scores, keep_steps),
                                         ev_targets.ravel()[keep_steps])
        return loss_title, loss_evidence

    def pooled_sentences(self, sents: list[list[int]], rng) -> nn.Tensor:
        """Mean-pooled sentence-encoder states (n, d) of `sents`, row i for
        `sents[i]`, from one stacked pass per `length_groups` group (the
        grouping of `encode_sentences`): every row of a pass has the same
        length, so none is padded and no key is masked."""
        model = self.model
        groups = length_groups(sents)
        parts = []
        for members in groups:
            ids = np.array([sents[i] for i in members], dtype=np.int64)
            valid = np.ones(ids.shape, dtype=bool)
            states = model.encoder_forward("sent_enc", ids, valid, rng)
            parts.append(nn.masked_mean(states, valid.astype(model.dtype)))
        return nn.concat_rows(parts, groups)

    def train_step_encoded(self, examples: Sequence[_Example]) -> TrainStats:
        """One Adam update on a prepared batch. A non-finite loss or grad norm
        raises `TrainingError` before the optimizer runs, so the parameters,
        the moments and step_count stay as they were."""
        model = self.model
        loss_title, loss_evidence = self.loss_graph(examples)
        total = nn.add(loss_title, loss_evidence)
        nn.zero_grads(model.params)
        nn.backward(total)
        grad_norm = nn.clip_gradients(model.params, self.clip_norm)
        lt = float(loss_title.data)
        le = float(loss_evidence.data)
        if not (math.isfinite(lt) and math.isfinite(le) and math.isfinite(grad_norm)):
            raise TrainingError(
                f"update {self.step_count + 1}: non-finite loss_title {lt}, loss_evidence {le} "
                f"or grad_norm {grad_norm}; the parameters are left as update "
                f"{self.step_count} made them")
        lr = learning_rate(self.step_count + 1, self.total_updates,
                           self.peak_lr, self.warmup_frac)
        self.optimizer.step(lr)
        self.step_count += 1
        return TrainStats(step=self.step_count, loss_title=lt, loss_evidence=le,
                          loss_total=lt + le, grad_norm=grad_norm, learning_rate=lr)
