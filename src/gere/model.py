"""Compact encoder-decoder transformer trained from scratch.

Four parameter stacks with no sharing: a claim encoder producing the hidden
sequence every decoder cross-attends to, a title decoder over the token
vocabulary, a sentence encoder whose mean-pooled states form the dynamic
evidence vocabulary, and an evidence decoder that scores decoder states
against candidate sentence embeddings plus one learned end-of-evidence (EOE)
embedding. Pre-norm residual blocks with a final layer norm per stack.

Training runs the `nn` graph, built from block nodes: `nn.linear` for every
projection and `nn.attention` for every attention block. Inference runs a
plain-numpy engine and builds no graph objects: `encode` runs an encoder over
a block of equal-length sequences, each row bit-identical to the graph;
`encode_claim` returns a claim's (length, d_model) states array, against
which `DecoderState` decodes incrementally with per-layer key/value caches.
Both compute attention with the one array definition, `nn.attention_forward`.
`param_layout` is the one list of parameter names, shapes and inits, which
both the random initialisation and checkpoint loading follow. The
single-example losses, full-sequence logits and the per-op training graph
that tests check against live in `tests/oracles.py`.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Iterator, Optional, Sequence

import numpy as np

from . import nn
from .errors import DataError
from .kvconfig import kv_lines, parse_kv
from .tokenizer import BOS, EOS

NEG_INF = -1e9  # additive mask; exp(NEG_INF - max) underflows to exactly 0


@dataclass
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers_enc: int = 2
    n_layers_dec: int = 2
    d_ff: int = 256
    max_positions: int = 256
    dropout_rate: float = 0.0
    label_smoothing: float = 0.1
    seed: int = 0
    init_std: float = 0.02  # scale of the Gaussian weight init

    def __post_init__(self):
        for name, low in (("d_model", 1), ("n_heads", 1), ("d_ff", 1), ("max_positions", 2),
                          ("n_layers_enc", 0), ("n_layers_dec", 0), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not (np.isfinite(self.init_std) and self.init_std > 0):
            raise ValueError(f"init_std must be finite and positive, got {self.init_std}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.vocab_size < 6:
            raise ValueError("vocab_size must cover the six special tokens")

    def to_kv(self) -> str:
        lines = [f"{f.name}={getattr(self, f.name)}" for f in fields(self)]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_kv(cls, text: str) -> "ModelConfig":
        """Inverse of `to_kv`; bad text or values raise `DataError`."""
        values = parse_kv(kv_lines(text, "model config"), {f.name: f for f in fields(cls)},
                          DataError)
        if "vocab_size" not in values:
            raise DataError("model config missing required key 'vocab_size'")
        try:
            return cls(**values)
        except ValueError as exc:
            raise DataError(f"model config: {exc}") from None


def sentence_ids(token_ids: Sequence[int], max_positions: int) -> list[int]:
    """Sentence-encoder input: cut to max_positions; an empty sentence (FEVER
    keeps blank lines addressable) becomes a lone EOS."""
    return list(token_ids)[:max_positions] or [EOS]


def length_groups(rows: Sequence[Sequence[int]]) -> list[list[int]]:
    """The indices of `rows` grouped by row length, groups in order of first
    appearance: the one stacking rule of the sentence encoder, whose passes
    take equal-length rows only, so that no row is padded."""
    by_length: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        by_length.setdefault(len(row), []).append(i)
    return list(by_length.values())


@dataclass
class SentenceEmbedding:
    vector: np.ndarray  # (d_model,)
    source: Optional[tuple[str, int]] = None


def _causal_mask(n: int, dtype) -> np.ndarray:
    return np.triu(np.full((n, n), NEG_INF, dtype=dtype), k=1)[None, None]


def _key_mask(valid: np.ndarray, dtype) -> Optional[np.ndarray]:
    if valid.all():
        return None
    add = np.where(valid, 0.0, NEG_INF).astype(dtype)
    return add[:, None, None, :]


def _weights(model: "Seq2SeqModel", prefix: str) -> dict[str, np.ndarray]:
    """The arrays of the parameters under `prefix`, keyed by the rest of the name.

    The name scan runs once per model and prefix. Arrays are read from
    `.data` on every call, so checkpoint loads and optimizer updates are seen."""
    group = model._param_groups.get(prefix)
    if group is None:
        n = len(prefix) + 1
        group = {k[n:]: t for k, t in model.params.items() if k.startswith(prefix + ".")}
        model._param_groups[prefix] = group
    return {k: t.data for k, t in group.items()}


def _scale(cfg: ModelConfig) -> float:
    """The attention scale 1 / sqrt(d_head) as a Python float: a weak scalar
    under NumPy's promotion rules, so it keeps the scores' dtype."""
    return float(1.0 / np.sqrt(cfg.d_model // cfg.n_heads))


def encode(model: "Seq2SeqModel", name: str, ids: Sequence[Sequence[int]]) -> np.ndarray:
    """Final states (B, T, d) of encoder `name` over a (B, T) block of token ids,
    T <= max_positions. It repeats `encoder_forward`'s ops, and numpy evaluates
    each (B, T, d) @ (d, m) projection slice by slice with the (T, d) @ (d, m)
    call of B = 1, so row b is bit-identical to the graph's states for that
    row alone. Rows are never padded: padding would change the bits."""
    heads, scale = model.config.n_heads, _scale(model.config)
    w = _weights(model, name)
    ids = np.asarray(ids)
    x = w["tok_emb"][ids] + w["pos_emb"][: ids.shape[1]]
    for i in range(model.config.n_layers_enc):
        p = f"l{i}."
        h = nn.layer_norm_forward(x, w[p + "ln1.g"], w[p + "ln1.b"])[0]
        q = nn.split_heads(h @ w[p + "attn.wq"] + w[p + "attn.bq"], heads)
        k = nn.split_heads(h @ w[p + "attn.wk"] + w[p + "attn.bk"], heads)
        v = nn.split_heads(h @ w[p + "attn.wv"] + w[p + "attn.bv"], heads)
        x = x + (nn.attention_forward(q, k, v, scale)[0] @ w[p + "attn.wo"] + w[p + "attn.bo"])
        h = nn.layer_norm_forward(x, w[p + "ln2.g"], w[p + "ln2.b"])[0]
        h = nn.gelu_forward(h @ w[p + "ffn.w1"] + w[p + "ffn.b1"])[0]
        x = x + (h @ w[p + "ffn.w2"] + w[p + "ffn.b2"])
    return nn.layer_norm_forward(x, w["ln_f.g"], w["ln_f.b"])[0]


class DecoderState:
    """Incremental inference for one decoder stack against one claim.

    Row b is one hypothesis. `step` feeds one input vector per row (a token
    embedding, or the evidence start vector or a chosen sentence) at the next
    position and returns the rows' final states; `reorder` keeps, repeats or
    drops rows. Self-attention keys and values are cached per layer; the
    cross-attention keys and values are computed once from the claim states.

    Contract: a row's result never depends on the other rows. Every row-wise
    product is a stacked (B, 1, n) @ (n, m) matmul, which numpy evaluates
    slice by slice with the same BLAS call as B = 1 (a flat (B, n) GEMM does
    not give B = 1 bits), and the remaining ops are elementwise or reduce
    within a row. A batched step is therefore bit-identical to B = 1 replays
    of each row's prefix.
    """

    def __init__(self, model: "Seq2SeqModel", name: str, claim_states: np.ndarray):
        cfg = model.config
        self.heads = cfg.n_heads
        self.scale = _scale(cfg)
        self.max_positions = cfg.max_positions
        self.length = 0
        self.pos_emb = model.params[f"{name}.pos_emb"].data
        self.final = _weights(model, f"{name}.ln_f")
        memory = claim_states[None]
        self.layers = []
        for i in range(cfg.n_layers_dec):
            w = _weights(model, f"{name}.l{i}")
            cross_kv = (
                nn.split_heads(memory @ w["cross_attn.wk"] + w["cross_attn.bk"], self.heads),
                nn.split_heads(memory @ w["cross_attn.wv"] + w["cross_attn.bv"], self.heads))
            self.layers.append((w, cross_kv))
        self.cache: list[Optional[tuple[np.ndarray, np.ndarray]]] = [None] * len(self.layers)

    def step(self, inputs: np.ndarray) -> np.ndarray:
        """Decode position `self.length` for inputs (B, d), cast to the model's
        dtype; returns the final-layer states (B, d)."""
        if self.length >= self.max_positions:
            raise ValueError(f"sequence length {self.length + 1} exceeds max_positions "
                             f"{self.max_positions}")
        x = (inputs.astype(self.pos_emb.dtype, copy=False) + self.pos_emb[self.length])[:, None]
        for i, (w, (cross_k, cross_v)) in enumerate(self.layers):
            h = nn.layer_norm_forward(x, w["ln1.g"], w["ln1.b"])[0]
            q = nn.split_heads(h @ w["self_attn.wq"] + w["self_attn.bq"], self.heads)
            k = nn.split_heads(h @ w["self_attn.wk"] + w["self_attn.bk"], self.heads)
            v = nn.split_heads(h @ w["self_attn.wv"] + w["self_attn.bv"], self.heads)
            if self.cache[i] is not None:
                k = np.concatenate((self.cache[i][0], k), axis=2)
                v = np.concatenate((self.cache[i][1], v), axis=2)
            self.cache[i] = (k, v)
            ctx = nn.attention_forward(q, k, v, self.scale)[0]
            x = x + (ctx @ w["self_attn.wo"] + w["self_attn.bo"])
            h = nn.layer_norm_forward(x, w["ln2.g"], w["ln2.b"])[0]
            q = nn.split_heads(h @ w["cross_attn.wq"] + w["cross_attn.bq"], self.heads)
            ctx = nn.attention_forward(q, cross_k, cross_v, self.scale)[0]
            x = x + (ctx @ w["cross_attn.wo"] + w["cross_attn.bo"])
            h = nn.layer_norm_forward(x, w["ln3.g"], w["ln3.b"])[0]
            h = nn.gelu_forward(h @ w["ffn.w1"] + w["ffn.b1"])[0]
            x = x + (h @ w["ffn.w2"] + w["ffn.b2"])
        self.length += 1
        return nn.layer_norm_forward(x, self.final["g"], self.final["b"])[0][:, 0]

    def reorder(self, rows: Sequence[int]) -> None:
        """Keep the cached rows `rows`, in that order (repeats allowed)."""
        rows = np.asarray(rows, dtype=np.intp)
        self.cache = [(k[rows], v[rows]) for k, v in self.cache]


def param_layout(cfg: ModelConfig) -> Iterator[tuple[str, tuple[int, ...], str]]:
    """Every parameter of a model as (name, shape, init), in the order the
    initialisation draws them; init is "normal" (Gaussian times init_std),
    "zeros" or "ones". Nothing is allocated, so a config can be checked
    against a file before any array exists."""
    d, d_ff = cfg.d_model, cfg.d_ff

    def ln(prefix):
        yield f"{prefix}.g", (d,), "ones"
        yield f"{prefix}.b", (d,), "zeros"

    def attn(prefix):
        for w in ("wq", "wk", "wv", "wo"):
            yield f"{prefix}.{w}", (d, d), "normal"
        for b in ("bq", "bk", "bv", "bo"):
            yield f"{prefix}.{b}", (d,), "zeros"

    def ffn(prefix):
        yield f"{prefix}.w1", (d, d_ff), "normal"
        yield f"{prefix}.b1", (d_ff,), "zeros"
        yield f"{prefix}.w2", (d_ff, d), "normal"
        yield f"{prefix}.b2", (d,), "zeros"

    for name in ("claim_enc", "sent_enc"):
        yield f"{name}.tok_emb", (cfg.vocab_size, d), "normal"
        yield f"{name}.pos_emb", (cfg.max_positions, d), "normal"
        for i in range(cfg.n_layers_enc):
            yield from ln(f"{name}.l{i}.ln1")
            yield from attn(f"{name}.l{i}.attn")
            yield from ln(f"{name}.l{i}.ln2")
            yield from ffn(f"{name}.l{i}.ffn")
        yield from ln(f"{name}.ln_f")
    for name in ("title_dec", "evid_dec"):
        if name == "title_dec":
            yield f"{name}.tok_emb", (cfg.vocab_size, d), "normal"
        yield f"{name}.pos_emb", (cfg.max_positions, d), "normal"
        for i in range(cfg.n_layers_dec):
            yield from ln(f"{name}.l{i}.ln1")
            yield from attn(f"{name}.l{i}.self_attn")
            yield from ln(f"{name}.l{i}.ln2")
            yield from attn(f"{name}.l{i}.cross_attn")
            yield from ln(f"{name}.l{i}.ln3")
            yield from ffn(f"{name}.l{i}.ffn")
        yield from ln(f"{name}.ln_f")
    yield "title_dec.out_w", (d, cfg.vocab_size), "normal"
    yield "title_dec.out_b", (cfg.vocab_size,), "zeros"
    yield "evid_dec.start", (d,), "normal"
    yield "evid_dec.eoe", (d,), "normal"


class Seq2SeqModel:
    """Parameters, training graphs and engine-backed inference for all four stacks."""

    def __init__(self, config: ModelConfig, vocab_checksum: int = 0, dtype=np.float32,
                 arrays: Optional[dict[str, np.ndarray]] = None):
        """A model with freshly drawn parameters, or, given `arrays` (every name
        of `param_layout`, in its shape and of `dtype`), with those arrays as its
        parameters and nothing drawn."""
        self.config = config
        self.vocab_checksum = vocab_checksum
        self.dtype = np.dtype(dtype)
        if arrays is None:
            self._init_params()
        else:
            self.params = {name: nn.Tensor(arrays[name], requires_grad=True)
                           for name, _, _ in param_layout(config)}
        self._param_groups: dict[str, dict[str, nn.Tensor]] = {}  # filled by `_weights`

    # -- parameters ----------------------------------------------------------

    def _init_params(self) -> None:
        cfg = self.config
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0]))
        self.params: dict[str, nn.Tensor] = {}
        for name, shape, init in param_layout(cfg):
            if init == "normal":
                array = rng.standard_normal(shape) * cfg.init_std
            else:
                array = (np.ones if init == "ones" else np.zeros)(shape)
            self.params[name] = nn.Tensor(array.astype(self.dtype), requires_grad=True)

    @property
    def num_params(self) -> int:
        return sum(p.data.size for p in self.params.values())

    # -- shared blocks ---------------------------------------------------------

    def _linear(self, x, w_name, b_name):
        return nn.linear(x, self.params[w_name], self.params[b_name])

    def _attention(self, prefix, x, kv, add_mask, rng):
        cfg = self.config
        q = self._linear(x, f"{prefix}.wq", f"{prefix}.bq")
        k = self._linear(kv, f"{prefix}.wk", f"{prefix}.bk")
        v = self._linear(kv, f"{prefix}.wv", f"{prefix}.bv")
        ctx = nn.attention(q, k, v, cfg.n_heads, _scale(cfg), add_mask, cfg.dropout_rate, rng)
        return self._linear(ctx, f"{prefix}.wo", f"{prefix}.bo")

    def _ffn(self, prefix, x):
        h = nn.gelu(self._linear(x, f"{prefix}.w1", f"{prefix}.b1"))
        return self._linear(h, f"{prefix}.w2", f"{prefix}.b2")

    def _ln(self, prefix, x):
        return nn.layer_norm(x, self.params[f"{prefix}.g"], self.params[f"{prefix}.b"])

    def _dropout(self, x, rng):
        return nn.dropout(x, self.config.dropout_rate, rng)

    def _positions(self, name, n_pos):
        if n_pos > self.config.max_positions:
            raise ValueError(f"sequence length {n_pos} exceeds max_positions "
                             f"{self.config.max_positions}")
        return nn.gather(self.params[f"{name}.pos_emb"], np.arange(n_pos))

    # -- encoder / decoder forward ------------------------------------------

    def encoder_forward(self, name, ids: np.ndarray, valid: np.ndarray,
                        rng=None) -> nn.Tensor:
        """Run an encoder stack over token ids (B, T), where `valid` (B, T) marks
        the real tokens of each row. The claim encoder's rows are right-padded
        and their padded keys masked; the sentence encoder's rows are one
        length (`length_groups`), so `valid` is all true and no mask is built."""
        x = nn.add(nn.gather(self.params[f"{name}.tok_emb"], ids),
                   self._positions(name, ids.shape[1]))
        x = self._dropout(x, rng)
        add_mask = _key_mask(valid, self.dtype)
        for i in range(self.config.n_layers_enc):
            p = f"{name}.l{i}"
            normed = self._ln(f"{p}.ln1", x)
            attn = self._attention(f"{p}.attn", normed, normed, add_mask, rng)
            x = nn.add(x, self._dropout(attn, rng))
            x = nn.add(x, self._dropout(self._ffn(f"{p}.ffn", self._ln(f"{p}.ln2", x)), rng))
        return self._ln(f"{name}.ln_f", x)

    def decoder_forward(self, name, x: nn.Tensor, enc_out: nn.Tensor,
                        enc_valid: np.ndarray, rng=None) -> nn.Tensor:
        """Run a decoder stack over embedded inputs (B, T, d) with causal masking;
        `enc_valid` (B, T_enc) marks the real positions of `enc_out`."""
        n_q = x.data.shape[1]
        causal = _causal_mask(n_q, self.dtype)
        cross = _key_mask(enc_valid, self.dtype)
        x = self._dropout(x, rng)
        for i in range(self.config.n_layers_dec):
            p = f"{name}.l{i}"
            normed = self._ln(f"{p}.ln1", x)
            attn = self._attention(f"{p}.self_attn", normed, normed, causal, rng)
            x = nn.add(x, self._dropout(attn, rng))
            attn = self._attention(f"{p}.cross_attn", self._ln(f"{p}.ln2", x),
                                   enc_out, cross, rng)
            x = nn.add(x, self._dropout(attn, rng))
            x = nn.add(x, self._dropout(self._ffn(f"{p}.ffn", self._ln(f"{p}.ln3", x)), rng))
        return self._ln(f"{name}.ln_f", x)

    def embed_title_inputs(self, ids: np.ndarray) -> nn.Tensor:
        return nn.add(nn.gather(self.params["title_dec.tok_emb"], ids),
                      self._positions("title_dec", ids.shape[1]))

    def title_output_logits(self, states: nn.Tensor) -> nn.Tensor:
        return self._linear(states, "title_dec.out_w", "title_dec.out_b")

    # -- public operations (inference, on the engine) -------------------------

    def encode_claim(self, token_ids: Sequence[int]) -> np.ndarray:
        """Claim-encoder states (length, d_model) of the first max_positions tokens."""
        ids = list(token_ids)
        if not ids:
            raise ValueError("cannot encode an empty claim")
        return encode(self, "claim_enc", [ids[:self.config.max_positions]])[0]

    def title_step(self, state: DecoderState, tokens: Sequence[int]) -> np.ndarray:
        """Feed one title token per row of `state`; next-token logits (B, vocab)."""
        h = state.step(self.params["title_dec.tok_emb"].data[list(tokens)])
        logits = h[:, None] @ self.params["title_dec.out_w"].data
        return logits[:, 0] + self.params["title_dec.out_b"].data

    def decode_step_title(self, claim_states: np.ndarray, prefix: Sequence[int]) -> np.ndarray:
        """Next-token logits over the vocabulary after `prefix` (must start with BOS)."""
        prefix = list(prefix)
        if not prefix:
            raise ValueError("title decoder prefix must not be empty")
        if prefix[0] != BOS:
            raise ValueError("title decoder prefix must begin with BOS")
        state = DecoderState(self, "title_dec", claim_states)
        tok_emb = self.params["title_dec.tok_emb"].data
        for token in prefix[:-1]:
            state.step(tok_emb[[token]])
        return self.title_step(state, prefix[-1:])[0]

    def encode_sentence(self, token_ids: Sequence[int],
                        source: Optional[tuple[str, int]] = None) -> SentenceEmbedding:
        """Mean-pooled sentence-encoder states of `sentence_ids(token_ids)`."""
        return self.encode_sentences([token_ids], [source])[0]

    def encode_sentences(self, token_lists: Sequence[Sequence[int]],
                         sources: Sequence[Optional[tuple[str, int]]]) -> list[SentenceEmbedding]:
        """`encode_sentence` of each (token_ids, source) pair, in input order, with
        one stacked encoder pass per `length_groups` group; bit-identical to
        one call per sentence (see `encode`)."""
        rows = [sentence_ids(ids, self.config.max_positions) for ids in token_lists]
        out: list[Optional[SentenceEmbedding]] = [None] * len(rows)
        for members in length_groups(rows):
            states = encode(self, "sent_enc", [rows[i] for i in members])
            for row, i in enumerate(members):
                out[i] = SentenceEmbedding(vector=states[row].mean(axis=0), source=sources[i])
        return out

    def evidence_step(self, state: DecoderState, vector: np.ndarray,
                      candidates: Sequence[SentenceEmbedding]) -> np.ndarray:
        """Feed one evidence input (the start vector or the last chosen sentence)
        to a one-row `state`; scores over candidates plus EOE (last entry)."""
        h = state.step(vector[None])[0]
        table = np.stack([c.vector for c in candidates] + [self.params["evid_dec.eoe"].data])
        return table.astype(h.dtype) @ h

    def decode_step_evidence(self, claim_states: np.ndarray,
                             previous: Sequence[SentenceEmbedding],
                             candidates: Sequence[SentenceEmbedding]) -> np.ndarray:
        """Dot-product scores over candidates plus the EOE embedding (last entry)."""
        if not candidates:
            raise ValueError("evidence decoder requires at least one candidate")
        state = DecoderState(self, "evid_dec", claim_states)
        inputs = [self.params["evid_dec.start"].data] + [p.vector for p in previous]
        for vector in inputs[:-1]:
            state.step(vector[None])
        return self.evidence_step(state, inputs[-1], candidates)
