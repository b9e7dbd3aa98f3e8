"""Independent brute-force oracles the test suite checks the package against.

Everything here is written from the metric/algorithm definitions directly and
deliberately avoids the package's own traversal, search and scoring code.
"""

from __future__ import annotations

import itertools

import numpy as np

from gere import nn
from gere.corpus import Label
from gere.errors import DataError
from gere.model import Seq2SeqModel, _scale
from gere.tokenizer import BOS, EOS, EOT, SEP
from gere.training import Trainer, _pad_ids, encode_example


# -- trie oracle ---------------------------------------------------------------


def allowed_next_bruteforce(title_token_seqs, prefix):
    """Scan every title's token sequence (with EOT appended); collect the next
    token of each sequence that extends the prefix."""
    prefix = tuple(prefix)
    out = set()
    for seq in title_token_seqs:
        full = tuple(seq) + (EOT,)
        if full[: len(prefix)] == prefix and len(full) > len(prefix):
            out.add(full[len(prefix)])
    return out


class BruteForcePrefixScanner:
    """Same scan, with the EOT-terminated tuples built once for bulk queries."""

    def __init__(self, title_token_seqs):
        self.fulls = [tuple(seq) + (EOT,) for seq in title_token_seqs]

    def allowed_next(self, prefix):
        prefix = tuple(prefix)
        n = len(prefix)
        out = set()
        for full in self.fulls:
            if len(full) > n and full[:n] == prefix:
                out.add(full[n])
        return out


# -- beam search oracle --------------------------------------------------------


def linearize(title_seqs):
    tokens = [BOS]
    for i, seq in enumerate(title_seqs):
        if i:
            tokens.append(SEP)
        tokens.extend(seq)
        tokens.append(EOT)
    tokens.append(EOS)
    return tokens


def score_sequence(model, enc, tokens):
    """Sum of full-softmax log-probs along a fixed token sequence."""
    total = 0.0
    for t in range(1, len(tokens)):
        log_probs = nn.log_softmax64(model.decode_step_title(enc, tokens[:t]))
        total += float(log_probs[tokens[t]])
    return total


def exhaustive_title_search(model, enc, titles, max_titles):
    """Enumerate every duplicate-free ordered selection of up to max_titles
    titles, score each linearization, and return them ranked best-first.

    `titles` is a list of (token_seq, doc_id). Ties break on the token list.
    """
    ranked = []
    for length in range(1, max_titles + 1):
        for combo in itertools.permutations(range(len(titles)), length):
            seqs = [titles[i][0] for i in combo]
            doc_ids = [titles[i][1] for i in combo]
            tokens = linearize(seqs)
            ranked.append((score_sequence(model, enc, tokens), tokens, doc_ids))
    ranked.sort(key=lambda item: (-item[0], item[1]))
    return ranked


# -- single-example losses and full-sequence logits ------------------------------
#
# One claim at a time through the model's graph forward, the references for
# the batched training loss and the incremental decoders.


def _all_valid(enc):
    """The key mask of one unpadded claim: every position is real."""
    return np.ones((1, len(enc)), dtype=bool)


def title_logits_all(model, enc, ids):
    """Logits at every position of a full title-decoder input (causality checks)."""
    x = model.embed_title_inputs(np.array([list(ids)]))
    states = model.decoder_forward("title_dec", x, nn.constant(enc[None]),
                                   _all_valid(enc))
    return model.title_output_logits(states).data[0]


def loss_title(model, enc, target_ids):
    """Label-smoothed mean token cross-entropy of one linearized title sequence."""
    target_ids = list(target_ids)
    if len(target_ids) < 2 or target_ids[0] != BOS:
        raise ValueError("title target must be BOS ... EOS")
    x = model.embed_title_inputs(np.array([target_ids[:-1]]))
    states = model.decoder_forward("title_dec", x, nn.constant(enc[None]),
                                   _all_valid(enc))
    logits = model.title_output_logits(states)
    flat = nn.reshape(logits, (len(target_ids) - 1, model.config.vocab_size))
    loss = nn.cross_entropy(flat, np.array(target_ids[1:]), model.config.label_smoothing)
    return float(loss.data)


def loss_evidence(model, enc, gold_sources, candidates):
    """Mean step cross-entropy of the gold identifier sequence, EOE-terminated."""
    index = {c.source: i for i, c in enumerate(candidates)}
    gold_slots = []
    for source in gold_sources:
        if source not in index:
            raise DataError(f"gold evidence {source!r} missing from candidates")
        gold_slots.append(index[source])
    total = 0.0
    n_cands = len(candidates)
    for step in range(len(gold_slots) + 1):
        previous = [candidates[i] for i in gold_slots[:step]]
        scores = model.decode_step_evidence(enc, previous, candidates)
        target = gold_slots[step] if step < len(gold_slots) else n_cands
        total += -nn.log_softmax64(scores)[target]
    return float(total / (len(gold_slots) + 1))


# -- per-op training graph -------------------------------------------------------
#
# The model's linear and attention blocks composed of fine-grained graph ops,
# one node per array operation: the bit reference for `nn.linear`,
# `nn.attention` and the training graph built from them.


def linear_per_op(x, w, b):
    k, n = w.data.shape
    flat = nn.matmul(nn.reshape(x, (-1, k)), w)
    return nn.add(nn.reshape(flat, x.data.shape[:-1] + (n,)), b)


def attention_per_op(q, k, v, heads, scale, add_mask=None, dropout_rate=0.0, rng=None):
    n_batch, n_q, d = q.data.shape
    n_k = k.data.shape[1]

    def split(t, n_pos):
        return nn.transpose(nn.reshape(t, (n_batch, n_pos, heads, d // heads)), (0, 2, 1, 3))

    q, k, v = split(q, n_q), split(k, n_k), split(v, n_k)
    scores = nn.mul(nn.matmul(q, nn.transpose(k, (0, 1, 3, 2))), scale)
    if add_mask is not None:
        scores = nn.add(scores, nn.constant(add_mask))
    weights = nn.dropout(nn.softmax_last(scores), dropout_rate, rng)
    ctx = nn.matmul(weights, v)
    return nn.reshape(nn.transpose(ctx, (0, 2, 1, 3)), (n_batch, n_q, d))


class PerOpGraphModel(Seq2SeqModel):
    """A model whose training graph builds its blocks from per-op nodes."""

    def _linear(self, x, w_name, b_name):
        return linear_per_op(x, self.params[w_name], self.params[b_name])

    def _attention(self, prefix, x, kv, add_mask, rng):
        cfg = self.config
        q = self._linear(x, f"{prefix}.wq", f"{prefix}.bq")
        k = self._linear(kv, f"{prefix}.wk", f"{prefix}.bk")
        v = self._linear(kv, f"{prefix}.wv", f"{prefix}.bv")
        ctx = attention_per_op(q, k, v, cfg.n_heads, _scale(cfg), add_mask, cfg.dropout_rate,
                               rng)
        return self._linear(ctx, f"{prefix}.wo", f"{prefix}.bo")


# -- padded sentence pass ------------------------------------------------------
#
# The sentence encoder as one pass over every candidate sentence of a batch,
# right-padded to the longest, with the padded keys masked and the pooling
# restricted to real tokens: the reference for the grouped pass.


class PaddedSentenceTrainer(Trainer):
    """A trainer whose sentence encoder makes one padded pass per batch."""

    def pooled_sentences(self, sents, rng):
        ids, valid = _pad_ids(sents)
        states = self.model.encoder_forward("sent_enc", ids, valid, rng)
        return nn.masked_mean(states, valid.astype(self.model.dtype))


# -- optimizer oracle ----------------------------------------------------------


class PerTensorAdam:
    """Adam as a loop over tensors, each with its own moment arrays: the bit
    reference for `nn.Adam`'s chunked pass over flat storage."""

    def __init__(self, params, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = params
        self.names = sorted(params)
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.t = 0
        self.m = {n: np.zeros_like(params[n].data) for n in self.names}
        self.v = {n: np.zeros_like(params[n].data) for n in self.names}

    def step(self, lr):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name in self.names:
            p = self.params[name]
            g = p.grad
            if g is None:
                g = np.zeros_like(p.data)
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p.data -= np.asarray(lr, dtype=p.data.dtype) * update

    def load_state_dict(self, state):
        self.t = int(state["t"])
        for name in self.names:
            self.m[name] = state["m"][name].copy()
            self.v[name] = state["v"][name].copy()


def adam_state(opt):
    """A copy of an optimizer's step count and moments, in the form
    `load_state_dict` takes (and `load_checkpoint` returns)."""
    return {"t": opt.t,
            "m": {n: a.copy() for n, a in opt.m.items()},
            "v": {n: a.copy() for n, a in opt.v.items()}}


# -- one update from raw claims ------------------------------------------------


def train_step(trainer: Trainer, batch, corpus):
    """One `Trainer.train_step_encoded` update on a batch of (claim, gold
    targets) pairs; an empty batch or a NOT ENOUGH INFO claim is a
    ValueError, since such a claim has no retrieval target."""
    if not batch:
        raise ValueError("empty training batch")
    for claim, _ in batch:
        if claim.label is Label.NOT_ENOUGH_INFO:
            raise ValueError(f"claim {claim.claim_id} is NOT ENOUGH INFO; "
                             "it cannot appear in a retrieval training batch")
    max_pos = trainer.model.config.max_positions
    examples = [encode_example(claim, targets, corpus, trainer.vocab, max_pos)
                for claim, targets in batch]
    return trainer.train_step_encoded(examples)


# -- gradient oracle -----------------------------------------------------------


def finite_difference_check(model, loss_fn, n_samples, epsilon, rng):
    """Central finite differences of loss_fn against model.params[...].grad.

    Expects grads to be already populated. Returns a list of relative errors.
    """
    names = sorted(model.params)
    rels = []
    for _ in range(n_samples):
        name = names[int(rng.integers(len(names)))]
        p = model.params[name]
        i = int(rng.integers(p.data.size))
        orig = p.data.flat[i]
        p.data.flat[i] = orig + epsilon
        up = float(loss_fn())
        p.data.flat[i] = orig - epsilon
        down = float(loss_fn())
        p.data.flat[i] = orig
        fd = (up - down) / (2.0 * epsilon)
        analytic = p.grad.flat[i] if p.grad is not None else 0.0
        rels.append(abs(analytic - fd) / max(abs(analytic), abs(fd), 1e-8))
    return rels


# -- randomized evaluation datasets ---------------------------------------------


def random_eval_dataset(rng, max_claims=20):
    """Random gold claims plus partially-overlapping random predictions."""
    from gere.corpus import Claim, Label

    doc_ids = [f"D{i}" for i in range(5)]
    labels = ["SUPPORTS", "REFUTES", "NOT ENOUGH INFO"]
    n = int(rng.integers(1, max_claims + 1))
    golds, preds = [], []
    for cid in range(n):
        label = labels[int(rng.integers(3))]
        if label == "NOT ENOUGH INFO":
            groups = ()
        else:
            groups = tuple(
                tuple((doc_ids[int(rng.integers(5))], int(rng.integers(4)))
                      for _ in range(int(rng.integers(1, 4))))
                for _ in range(int(rng.integers(1, 3))))
        golds.append(Claim(cid, f"claim {cid}", Label(label), groups))
        if rng.random() < 0.9:
            titles = [doc_ids[int(rng.integers(5))]
                      for _ in range(int(rng.integers(0, 4)))]
            evidence = [[doc_ids[int(rng.integers(5))], int(rng.integers(4))]
                        for _ in range(int(rng.integers(0, 8)))]
            preds.append({"claim_id": cid, "predicted_titles": titles,
                          "predicted_evidence": evidence,
                          "predicted_label": labels[int(rng.integers(3))]})
    return preds, golds


# -- metric oracle -------------------------------------------------------------


def _clip5(pairs, k):
    seen = []
    for p in pairs:
        seen.append((p[0], int(p[1])))
        if len(seen) == k:
            break
    return seen


def score_dataset_bruteforce(pred_records, gold_claims, max_evidence=5):
    """Doc/sent macro PRF, LA and FEVER recomputed with plain loops.

    Mirrors the documented scoring rules: macro average over verifiable
    claims sorted by id, F1 from averaged P and R, FEVER needs label match
    plus one fully covered gold group within the first max_evidence pairs.
    """
    by_id = {}
    for rec in pred_records:
        by_id[rec["claim_id"]] = rec

    verifiable = [c for c in gold_claims if c.label.value != "NOT ENOUGH INFO"]
    verifiable = sorted(verifiable, key=lambda c: c.claim_id)

    doc_ps, doc_rs, sent_ps, sent_rs = [], [], [], []
    for claim in verifiable:
        rec = by_id.get(claim.claim_id, {})
        pred_docs = set(rec.get("predicted_titles", []))
        gold_docs = set()
        for group in claim.evidence_groups:
            for doc_id, _ in group:
                gold_docs.add(doc_id)
        inter = 0
        for d in pred_docs:
            if d in gold_docs:
                inter += 1
        doc_ps.append(inter / len(pred_docs) if pred_docs else 0.0)
        doc_rs.append(inter / len(gold_docs) if gold_docs else 0.0)

        raw_pairs = [(p[0], int(p[1])) for p in rec.get("predicted_evidence", [])]
        pred_pairs = set(_clip5(raw_pairs, max_evidence))
        gold_pairs = set()
        for group in claim.evidence_groups:
            for pair in group:
                gold_pairs.add((pair[0], int(pair[1])))
        inter = 0
        for p in pred_pairs:
            if p in gold_pairs:
                inter += 1
        sent_ps.append(inter / len(pred_pairs) if pred_pairs else 0.0)
        sent_rs.append(inter / len(gold_pairs) if gold_pairs else 0.0)

    def macro(ps, rs):
        if not ps:
            return {"precision": 0.0, "recall": 0.0, "f1": 0.0}
        p = sum(ps) / len(ps)
        r = sum(rs) / len(rs)
        f1 = 0.0 if p + r == 0 else 2 * p * r / (p + r)
        return {"precision": p, "recall": r, "f1": f1}

    ordered = sorted(gold_claims, key=lambda c: c.claim_id)
    la_hits = 0
    fever_hits = 0
    for claim in ordered:
        rec = by_id.get(claim.claim_id)
        if rec is None or rec.get("predicted_label") is None:
            continue
        if rec["predicted_label"] != claim.label.value:
            continue
        la_hits += 1
        if claim.label.value == "NOT ENOUGH INFO":
            fever_hits += 1
            continue
        raw_pairs = [(p[0], int(p[1])) for p in rec.get("predicted_evidence", [])]
        window = set(_clip5(raw_pairs, max_evidence))
        covered = False
        for group in claim.evidence_groups:
            if all((doc_id, int(idx)) in window for doc_id, idx in group):
                covered = True
        if covered:
            fever_hits += 1
    n = len(ordered)
    return {
        "doc": macro(doc_ps, doc_rs),
        "sent": macro(sent_ps, sent_rs),
        "la": la_hits / n if n else 0.0,
        "fever": fever_hits / n if n else 0.0,
    }
