"""Compact encoder-decoder transformer trained from scratch.

Four parameter stacks with no sharing: a claim encoder producing the hidden
sequence every decoder cross-attends to, a title decoder over the token
vocabulary, a sentence encoder whose mean-pooled states form the dynamic
evidence vocabulary (pooled by `nn.masked_mean_forward`, the one definition
the training graph's `nn.masked_mean` runs, so retrieval scores the vectors
training optimised), and an evidence decoder that scores decoder states
against candidate sentence embeddings plus one learned end-of-evidence (EOE)
embedding. Pre-norm residual blocks with a final layer norm per stack.

The layer norm, attention, FFN and encoder-stack blocks are each defined
once, as module functions over an `ops` argument offering `nn`'s `linear`,
`layer_norm`, `attention`, `gelu` and `add`. Training runs them on
`Seq2SeqModel.ops`, the `nn` module, so the graph is built from block nodes:
`nn.linear` for every projection and `nn.attention` for every attention
block. Inference runs them on `_ARRAYS`, the same five ops on plain arrays,
and builds no graph objects: `encode` runs an encoder over a block of
equal-length sequences, each row bit-identical to the graph; `encode_claim`
returns a claim's (length, d_model) states array, against which
`DecoderState` decodes incrementally with per-layer key/value caches, in step
code of its own. All compute attention with the one array definition,
`nn.attention_forward`.
Each decoder has a per-model `DecoderMemo`: its weights packed once per
parameter state in the order a step reads them (the fused self-attention
q|k|v matrix and bias of each layer and one cross-attention k|v matrix and
bias for all layers, copies made read-only), its `pos_emb` and final layer
norm, and its `PrefixTable`; a `DecoderState` looks the memo up and makes
one cross-attention product with its claim.
`Seq2SeqModel.encode_sentences` keeps a per-model memo of sentence vectors,
keyed by the encoder input row, so a sentence that many claims' candidate
sets share is embedded once per parameter state; it stores at most
`SENTENCE_MEMO_ROWS` vectors (about 17 MiB with keys at d_model 64 in
float32). A decoder's layer 0 sees
the claim only in its cross-attention, so the half before it depends on
the decoded inputs alone, and `DecoderState` gathers it from the memo's
`PrefixTable` for a step whose rows all decode input sequences seen before,
for any claim, with the bits a computed step has. One rule serves all three memos (`Seq2SeqModel._memo`): a memo
holds one state of the parameters under its prefix (`sent_enc`, `title_dec`
or `evid_dec`), and a new one is made once any of their arrays is rebound
or its `nn.Tensor.version` changes. A table stores at most
`PREFIX_TABLE_ROWS` nodes: 16 MiB of rows at d_model 64 in float32, plus
about 7.5 MiB of keys.
`param_layout` is the one list of parameter names, shapes and inits, which
both the random initialisation and checkpoint loading follow. The
single-example losses, full-sequence logits and the per-op training graph
that tests check against live in `tests/oracles.py`.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, fields
from types import SimpleNamespace
from typing import Iterator, Optional, Sequence

import numpy as np

from . import nn
from .errors import DataError, at_least, finite_positive
from .kvconfig import kv_lines, parse_kv
from .tokenizer import BOS, EOS, SPECIAL_TOKENS

NEG_INF = -1e9  # additive mask; exp(NEG_INF - max) underflows to exactly 0


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    n_layers_enc: int = 2
    n_layers_dec: int = 2
    d_ff: int = 256
    max_positions: int = 256
    label_smoothing: float = 0.1
    seed: int = 0
    init_std: float = 0.02  # scale of the Gaussian weight init

    def __post_init__(self):
        for name, low in (("vocab_size", len(SPECIAL_TOKENS)), ("d_model", 1), ("n_heads", 1),
                          ("d_ff", 1), ("max_positions", 2), ("n_layers_enc", 0),
                          ("n_layers_dec", 0), ("seed", 0)):
            at_least(name, getattr(self, name), low)
        finite_positive("init_std", self.init_std)
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if not 0.0 <= self.label_smoothing < 1.0:
            raise ValueError(f"label_smoothing must be in [0, 1), got {self.label_smoothing}")

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


def _group(model: "Seq2SeqModel", prefix: str) -> dict[str, nn.Tensor]:
    """The parameters under `prefix`, keyed by the rest of the name; the name
    scan runs once per model and prefix."""
    group = model._param_groups.get(prefix)
    if group is None:
        n = len(prefix) + 1
        group = {k[n:]: t for k, t in model.params.items() if k.startswith(prefix + ".")}
        model._param_groups[prefix] = group
    return group


def _weights(model: "Seq2SeqModel", prefix: str) -> dict[str, np.ndarray]:
    """The arrays of the parameters under `prefix`, keyed by the rest of the
    name. Arrays are read from `.data` on every call, so checkpoint loads and
    optimizer updates are seen."""
    return {k: t.data for k, t in _group(model, prefix).items()}


def _scale(cfg: ModelConfig) -> float:
    """The attention scale 1 / sqrt(d_head) as a Python float: a weak scalar
    under NumPy's promotion rules, so it keeps the scores' dtype."""
    return 1.0 / math.sqrt(cfg.d_model // cfg.n_heads)


# -- shared blocks ---------------------------------------------------------------
#
# Each block is written once over `ops`, which offers `nn`'s `linear`,
# `layer_norm`, `attention`, `gelu` and `add`: the `nn` module itself builds
# graph nodes, `_ARRAYS` computes on plain arrays. `w` maps a stack's
# parameter names, less the stack prefix, to what `ops` takes.


def _ln(ops, w, prefix, x):
    return ops.layer_norm(x, w[prefix + ".g"], w[prefix + ".b"])


def _attention(ops, w, prefix, x, kv, add_mask, cfg: ModelConfig):
    q = ops.linear(x, w[prefix + ".wq"], w[prefix + ".bq"])
    k = ops.linear(kv, w[prefix + ".wk"], w[prefix + ".bk"])
    v = ops.linear(kv, w[prefix + ".wv"], w[prefix + ".bv"])
    ctx = ops.attention(q, k, v, cfg.n_heads, _scale(cfg), add_mask)
    return ops.linear(ctx, w[prefix + ".wo"], w[prefix + ".bo"])


def _ffn(ops, w, prefix, x):
    h = ops.gelu(ops.linear(x, w[prefix + ".w1"], w[prefix + ".b1"]))
    return ops.linear(h, w[prefix + ".w2"], w[prefix + ".b2"])


def _encoder(ops, w, x, add_mask, cfg: ModelConfig):
    """The encoder layers over embedded inputs x (B, T, d), then the final
    layer norm."""
    for i in range(cfg.n_layers_enc):
        normed = _ln(ops, w, f"l{i}.ln1", x)
        x = ops.add(x, _attention(ops, w, f"l{i}.attn", normed, normed, add_mask, cfg))
        x = ops.add(x, _ffn(ops, w, f"l{i}.ffn", _ln(ops, w, f"l{i}.ln2", x)))
    return _ln(ops, w, "ln_f", x)


# `nn`'s block ops on arrays. `linear` is the stacked (B, T, d) @ (d, m)
# product, which numpy evaluates slice by slice with the (T, d) @ (d, m) call
# of B = 1, so each row has the bits of its own pass.
_ARRAYS = SimpleNamespace(
    linear=lambda x, w, b: x @ w + b,
    layer_norm=lambda x, gain, bias: nn.layer_norm_forward(x, gain, bias)[0],
    attention=lambda q, k, v, heads, scale, add_mask=None: nn.attention_forward(
        nn.split_heads(q, heads), nn.split_heads(k, heads), nn.split_heads(v, heads),
        scale, add_mask)[0],
    gelu=lambda x: nn.gelu_forward(x)[0],
    add=operator.add)


def encode(model: "Seq2SeqModel", name: str, ids: Sequence[Sequence[int]]) -> np.ndarray:
    """Final states (B, T, d) of encoder `name` over a (B, T) block of token ids,
    T <= max_positions: `_encoder`, the one definition `encoder_forward` also
    runs, on `_ARRAYS`, so row b is bit-identical to the graph's states for
    that row alone. Rows are never padded: padding would change the bits."""
    w = _weights(model, name)
    x = w["tok_emb"][np.asarray(ids)] + w["pos_emb"][: len(ids[0])]
    return _encoder(_ARRAYS, w, x, None, model.config)


PREFIX_TABLE_ROWS = 1 << 14  # the most nodes one decoder's prefix table stores
SENTENCE_MEMO_ROWS = 1 << 15  # the most vectors one model's sentence memo stores
ROOT, MISS = -1, -2  # a row's node before its first step; a row with no node


class PrefixTable:
    """The claim-free half of decoder layer 0 for every input prefix decoded
    so far, for one decoder stack and one state of its parameters.

    Layer 0 sees the claim only in its cross-attention, so everything before
    it is a function of the input rows alone: the position embedding, ln1,
    the fused q|k|v product, causal self-attention over the prefix's own
    layer-0 keys and values, `wo`, the residual add, ln2 and the
    cross-attention query. A node is one decoded prefix, and
    `values[:, node]` holds what its last step computed of that: x after the
    self-attention residual, the cross-attention query and the step's new
    self-attention key and value (4 x d_model floats). Nodes form a radix
    tree keyed by (parent node, input id), where the id interns the bytes of
    the input row, so a node stands for one exact input sequence, and
    `DecoderState` reuses it for any claim. Each node's parent is kept too,
    so `paths` can give the input sequence of nodes behind any node, whose
    keys and values are layer 0's self-attention cache for that prefix.

    Rows are copies, written once by `store` and read-only after, so no
    step's working arrays alias them. Storage doubles as nodes are added,
    up to `PREFIX_TABLE_ROWS` nodes; after that, new prefixes are computed
    but not stored. At d_model 64 in float32 a full table holds 16 MiB of
    rows, plus its two key dicts (about 7.5 MiB at most).
    """

    def __init__(self, d: int, dtype):
        self.values = np.empty((4, 64, d), dtype)  # x, cross query, k, v by node
        self.values.flags.writeable = False
        self.inputs: dict[bytes, int] = {}  # input row bytes -> input id
        self.children: dict[tuple[int, int], int] = {}  # (parent, input id) -> node
        self.parents: list[int] = []  # by node; its length is the node count
        # Steps, steps whose rows all hit, rows and rows that hit, for reports.
        self.steps = self.full_hits = self.rows = self.row_hits = 0

    def find(self, parents: Sequence[int], keys: Sequence[bytes]) -> list[int]:
        """The node of each row's prefix (its parent's child along the row's
        input bytes), or MISS."""
        child, intern = self.children.get, self.inputs.get
        nodes = [child((parent, intern(key)), MISS) for parent, key in zip(parents, keys)]
        hits = len(nodes) - nodes.count(MISS)
        self.steps += 1
        self.full_hits += hits == len(nodes)
        self.rows += len(nodes)
        self.row_hits += hits
        return nodes

    def store(self, parents: Sequence[int], keys: Sequence[bytes], nodes: Sequence[int],
              *arrays: np.ndarray) -> list[int]:
        """`nodes` with each MISS whose parent has a node replaced by a new
        node, while the cap allows, holding a copy of the row's x, query, k
        and v (`arrays`, each (B, 1, d)); rows with the same prefix share
        one node."""
        nodes = list(nodes)
        start = len(self.parents)
        new = []  # the rows stored, in node order
        for row, (parent, key, node) in enumerate(zip(parents, keys, nodes)):
            if node != MISS or parent == MISS or len(self.parents) >= PREFIX_TABLE_ROWS:
                continue
            edge = (parent, self.inputs.setdefault(key, len(self.inputs)))
            node = self.children.get(edge)
            if node is None:
                node = self.children[edge] = len(self.parents)
                self.parents.append(parent)
                new.append(row)
            nodes[row] = node
        if new:
            end = len(self.parents)
            if end > self.values.shape[1]:
                grown = np.empty((4, min(PREFIX_TABLE_ROWS, 2 * end), self.values.shape[2]),
                                 self.values.dtype)
                grown[:, :start] = self.values[:, :start]
                self.values = grown
            block = np.concatenate(arrays, axis=1)  # (B, 4, d)
            self.values.flags.writeable = True
            self.values[:, start:end] = (
                block if len(new) == len(nodes) else block[new]).transpose(1, 0, 2)
            self.values.flags.writeable = False
        return nodes

    @property
    def size(self) -> int:
        """The nodes stored."""
        return len(self.parents)

    def paths(self, nodes: Sequence[int]) -> list[list[int]]:
        """Each node's path from the root, the node last."""
        paths = []
        for node in nodes:
            path = []
            while node != ROOT:
                path.append(node)
                node = self.parents[node]
            paths.append(path[::-1])
        return paths

    def gather(self, nodes: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
        """Fresh arrays of the nodes' x and query, each (B, 1, d) in the
        memory layout a computed step gives it, since matmul bits can depend
        on layout: x as `inputs[:, None]`, the query as a product's output."""
        x, q = self.values[:2].take(nodes, axis=1)
        return x[:, None], q.reshape(len(nodes), 1, -1)


def _frozen(parts: Sequence[np.ndarray], axis: int) -> np.ndarray:
    """A read-only concatenation of `parts`."""
    packed = np.concatenate(parts, axis=axis)
    packed.flags.writeable = False
    return packed


class DecoderMemo:
    """What every `DecoderState` of one decoder stack shares, for one state of
    its parameters (`Seq2SeqModel.decoder_memo`): the stack's weights packed
    in the order `step` reads them, and its `PrefixTable`.

    Per layer, `claim_free` holds the weights up to the cross-attention query
    and `layers` the cross-attention output and FFN weights. The
    self-attention q, k and v projections are one (d, 3d) matrix and one
    (3d,) bias, so a step makes one (B, 1, d) @ (d, 3d) product per layer
    where three (B, 1, d) @ (d, d) ones were; each output column is the same
    dot product, and on OpenBLAS it has the same bits (float32 and float64,
    d 16 and 64, B 1 to 20; `test_fused_qkv_product_equals_three_products`).
    Every layer's cross-attention k and v projections are one (d, 2 L d)
    matrix `cross_w` and bias `cross_b`, in layer order and k before v, so a
    claim's keys and values for all layers are one (T, d) @ (d, 2 L d)
    product; each column block, made C-contiguous, has the bits of its own
    (1, T, d) @ (d, d) product (T 1 to 24,
    `test_fused_cross_kv_product_equals_per_layer_products`). The packed
    arrays are copies, made read-only; the rest are the parameters' arrays.
    A new memo, with an empty table, replaces this one once any of the
    stack's arrays is rebound or its `nn.Tensor.version` changes
    (`Seq2SeqModel._memo`), so no packed copy outlives its parameter state.
    """

    def __init__(self, model: "Seq2SeqModel", name: str):
        stack = _weights(model, name)
        self.scale = _scale(model.config)
        self.pos_emb = stack["pos_emb"]
        self.final = (stack["ln_f.g"], stack["ln_f.b"])
        self.claim_free, self.layers = [], []
        layers = range(model.config.n_layers_dec)
        for i in layers:
            w = _weights(model, f"{name}.l{i}")
            self.claim_free.append((
                w["ln1.g"], w["ln1.b"], _frozen([w[f"self_attn.w{p}"] for p in "qkv"], 1),
                _frozen([w[f"self_attn.b{p}"] for p in "qkv"], 0), w["self_attn.wo"],
                w["self_attn.bo"], w["ln2.g"], w["ln2.b"], w["cross_attn.wq"], w["cross_attn.bq"]))
            self.layers.append((w["cross_attn.wo"], w["cross_attn.bo"], w["ln3.g"], w["ln3.b"],
                                w["ffn.w1"], w["ffn.b1"], w["ffn.w2"], w["ffn.b2"]))
        if layers:
            kv = [(i, p) for i in layers for p in "kv"]  # by layer, k before v
            self.cross_w = _frozen([stack[f"l{i}.cross_attn.w{p}"] for i, p in kv], 1)
            self.cross_b = _frozen([stack[f"l{i}.cross_attn.b{p}"] for i, p in kv], 0)
        self.table = PrefixTable(model.config.d_model, self.pos_emb.dtype)


class DecoderState:
    """Incremental inference for one decoder stack against one claim.

    Row b is one hypothesis. `step` feeds one input vector per row (a token
    embedding, or the evidence start vector or a chosen sentence) at the next
    position and returns the rows' final states; `reorder` keeps, repeats or
    drops rows. Self-attention keys and values are cached per layer; the
    cross-attention keys and values of every layer come from one product of
    the claim states with the memo's `cross_w`, made at construction.
    Construction packs no weights: they come from the decoder's
    `DecoderMemo`, which holds each layer's weight tuples (with the fused
    q|k|v and k|v copies, read-only), `pos_emb`, the final layer norm and
    the `PrefixTable`, and which is made anew once any of the decoder's
    parameter arrays is rebound or its version changes.

    Contract: a row's result never depends on the other rows. Every row-wise
    product is a stacked (B, 1, n) @ (n, m) matmul, which numpy evaluates
    slice by slice with the same BLAS call as B = 1 (a flat (B, n) GEMM does
    not give B = 1 bits), and the remaining ops are elementwise or reduce
    within a row. A batched step is therefore bit-identical to B = 1 replays
    of each row's prefix.

    Each row also sits at a node of the memo's `PrefixTable`, the node of
    its input sequence so far, and `reorder` moves the nodes with the rows.
    When every row of a step hits the table, layer 0's claim-free half is
    gathered from it, and the step runs from layer 0's cross-attention on;
    layer 0's key and value cache is then dropped, as the nodes' paths hold
    it, and the next step that misses rebuilds it from them. Otherwise the
    step runs all of it and stores the rows that missed. By the contract
    above a stored row has the bits that any step of the same input sequence
    computes, whatever the claim and the other rows, so a hit changes no
    output bit.
    """

    def __init__(self, model: "Seq2SeqModel", name: str, claim_states: np.ndarray):
        cfg = model.config
        self.memo = memo = model.decoder_memo(name)
        self.heads, self.scale, self.max_positions = cfg.n_heads, memo.scale, cfg.max_positions
        self.length = 0
        self.nodes: Optional[list[int]] = None  # each row's table node; None: all at ROOT
        self.cross = []  # per layer, the cross-attention keys and values
        if memo.layers:
            kv = claim_states @ memo.cross_w
            kv += memo.cross_b
            d = cfg.d_model
            # C order, the layout of a per-layer product: matmul bits follow it.
            blocks = [nn.split_heads(np.ascontiguousarray(kv[None, :, j:j + d]), self.heads)
                      for j in range(0, kv.shape[1], d)]
            self.cross = list(zip(blocks[::2], blocks[1::2]))
        self.cache: list[Optional[tuple[np.ndarray, np.ndarray]]] = [None] * len(memo.layers)

    def step(self, inputs: np.ndarray) -> np.ndarray:
        """Decode position `self.length` for inputs (B, d), cast to the model's
        dtype; returns the final-layer states (B, d)."""
        if self.length >= self.max_positions:
            raise ValueError(f"sequence length {self.length + 1} exceeds max_positions "
                             f"{self.max_positions}")
        heads, scale, memo = self.heads, self.scale, self.memo
        inputs = inputs.astype(memo.pos_emb.dtype, copy=False)
        if memo.layers:
            x, q = self._first_claim_free(inputs)
        else:
            x = (inputs + memo.pos_emb[self.length])[:, None]
        for i, ((cross_k, cross_v), (cross_wo, cross_bo, ln3_g, ln3_b, w1, b1, w2, b2)
                ) in enumerate(zip(self.cross, memo.layers)):
            if i:
                q = self._claim_free(i, x)[0]
            # Each `y = h @ w; y += b; x += y` is `x + (h @ w + b)`, op for op.
            y = nn.attention_forward(nn.split_heads(q, heads), cross_k, cross_v,
                                     scale)[0] @ cross_wo
            y += cross_bo
            x += y
            h = nn.layer_norm_forward(x, ln3_g, ln3_b)[0] @ w1
            h += b1
            y = nn.gelu_forward(h)[0] @ w2
            y += b2
            x += y
        self.length += 1
        return nn.layer_norm_forward(x, *memo.final)[0][:, 0]

    def _first_claim_free(self, inputs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Layer 0's x after the self-attention residual and its
        cross-attention query (each (B, 1, d)) for inputs (B, d): gathered
        from the prefix table if every row hits it, else computed, storing
        the rows that missed."""
        parents = self.nodes or [ROOT] * len(inputs)
        keys = [row.tobytes() for row in inputs]
        table = self.memo.table
        nodes = table.find(parents, keys)
        if MISS in nodes:
            if self.length and self.cache[0] is None:  # dropped by an all-hit step
                # C order, the layout of a computed cache: `np.concatenate` gives
                # its output the layout of its inputs, and matmul bits follow it.
                paths = table.paths(parents)
                self.cache[0] = tuple(
                    np.ascontiguousarray(nn.split_heads(plane.take(paths, axis=0), self.heads))
                    for plane in table.values[2:])
            x = (inputs + self.memo.pos_emb[self.length])[:, None]
            q, k, v = self._claim_free(0, x)
            self.nodes = table.store(parents, keys, nodes, x, q, k, v)
            return x, q
        self.cache[0] = None  # the nodes' paths hold layer 0's keys and values
        self.nodes = nodes
        return table.gather(nodes)

    def _claim_free(self, i: int, x: np.ndarray) -> tuple[np.ndarray, ...]:
        """Layer i up to its cross-attention: extends the layer's cache and adds
        the causal self-attention output to x (B, 1, d) in place; returns the
        cross-attention query and the step's new key and value, each
        (B, 1, d)."""
        ln1_g, ln1_b, qkv_w, qkv_b, self_wo, self_bo, ln2_g, ln2_b, cross_wq, cross_bq = (
            self.memo.claim_free[i])
        d, heads = x.shape[-1], self.heads
        qkv = nn.layer_norm_forward(x, ln1_g, ln1_b)[0] @ qkv_w
        qkv += qkv_b
        k, v = qkv[..., d:2 * d], qkv[..., 2 * d:]
        keys, values = nn.split_heads(k, heads), nn.split_heads(v, heads)
        if self.cache[i] is not None:
            keys = np.concatenate((self.cache[i][0], keys), axis=2)
            values = np.concatenate((self.cache[i][1], values), axis=2)
        self.cache[i] = (keys, values)
        y = nn.attention_forward(nn.split_heads(qkv[..., :d], heads), keys, values,
                                 self.scale)[0] @ self_wo
        y += self_bo
        x += y
        q = nn.layer_norm_forward(x, ln2_g, ln2_b)[0] @ cross_wq
        q += cross_bq
        return q, k, v

    def reorder(self, rows: Sequence[int]) -> None:
        """Keep the cached rows `rows`, in that order (repeats allowed)."""
        rows = list(rows)
        if self.nodes is None or rows == list(range(len(self.nodes))):
            return  # no step yet, or every row stays where it is
        self.nodes = [self.nodes[row] for row in rows]
        rows = np.asarray(rows, dtype=np.intp)
        self.cache = [None if kv is None else (kv[0][rows], kv[1][rows]) for kv in self.cache]


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
        of `param_layout`, in its order and shape and of `dtype`), with those
        arrays as its parameters and nothing drawn."""
        self.config = config
        self.vocab_checksum = vocab_checksum
        self.dtype = np.dtype(dtype)
        if arrays is None:
            self._init_params()
        else:
            self.params = {name: nn.Tensor(array, requires_grad=True)
                           for name, array in arrays.items()}
        self._param_groups: dict[str, dict[str, nn.Tensor]] = {}  # filled by `_group`
        # Memos by parameter prefix, each with the stamp of the parameter state
        # it holds: `sentence_memo` and `prefix_table`, through `_memo`.
        self._memos: dict[str, tuple[list[np.ndarray], list[int], object]] = {}

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

    # -- encoder / decoder forward ------------------------------------------

    # The training graph's block ops: the module itself, so that an op
    # replaced on `nn` after import is the one the graph calls.
    ops = nn

    def _positions(self, name, n_pos):
        if n_pos > self.config.max_positions:
            raise ValueError(f"sequence length {n_pos} exceeds max_positions "
                             f"{self.config.max_positions}")
        return nn.gather(self.params[f"{name}.pos_emb"], np.arange(n_pos))

    def encoder_forward(self, name, ids: np.ndarray, valid: np.ndarray) -> nn.Tensor:
        """Run an encoder stack over token ids (B, T), where `valid` (B, T) marks
        the real tokens of each row. The claim encoder's rows are right-padded
        and their padded keys masked; the sentence encoder's rows are one
        length (`length_groups`), so `valid` is all true and no mask is built."""
        x = self.ops.add(nn.gather(self.params[f"{name}.tok_emb"], ids),
                         self._positions(name, ids.shape[1]))
        return _encoder(self.ops, _group(self, name), x, _key_mask(valid, self.dtype),
                        self.config)

    def decoder_forward(self, name, x: nn.Tensor, enc_out: nn.Tensor,
                        enc_valid: np.ndarray) -> nn.Tensor:
        """Run a decoder stack over embedded inputs (B, T, d) with causal masking;
        `enc_valid` (B, T_enc) marks the real positions of `enc_out`."""
        ops, w, cfg = self.ops, _group(self, name), self.config
        causal = _causal_mask(x.data.shape[1], self.dtype)
        cross = _key_mask(enc_valid, self.dtype)
        for i in range(cfg.n_layers_dec):
            normed = _ln(ops, w, f"l{i}.ln1", x)
            x = ops.add(x, _attention(ops, w, f"l{i}.self_attn", normed, normed, causal, cfg))
            x = ops.add(x, _attention(ops, w, f"l{i}.cross_attn", _ln(ops, w, f"l{i}.ln2", x),
                                      enc_out, cross, cfg))
            x = ops.add(x, _ffn(ops, w, f"l{i}.ffn", _ln(ops, w, f"l{i}.ln3", x)))
        return _ln(ops, w, "ln_f", x)

    def embed_title_inputs(self, ids: np.ndarray) -> nn.Tensor:
        return self.ops.add(nn.gather(self.params["title_dec.tok_emb"], ids),
                            self._positions("title_dec", ids.shape[1]))

    def title_output_logits(self, states: nn.Tensor) -> nn.Tensor:
        return self.ops.linear(states, self.params["title_dec.out_w"],
                               self.params["title_dec.out_b"])

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
        return _ARRAYS.linear(h[:, None], self.params["title_dec.out_w"].data,
                              self.params["title_dec.out_b"].data)[:, 0]

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
        """Sentence-encoder states of `sentence_ids(token_ids)`, pooled as the
        training graph pools them (`nn.masked_mean_forward`, all-ones mask)."""
        return self.encode_sentences([token_ids], [source])[0]

    def encode_sentences(self, token_lists: Sequence[Sequence[int]],
                         sources: Sequence[Optional[tuple[str, int]]]) -> list[SentenceEmbedding]:
        """`encode_sentence` of each (token_ids, source) pair, in input order.

        Vectors come from the model's memo, keyed by the encoder input row
        (`sentence_ids`). The rows it lacks are encoded once each, one stacked
        pass per `length_groups` group pooled by one `nn.masked_mean_forward`
        call, and each vector, a read-only row of that pooled block, has the
        bits of its own one-sentence graph pass pooled by `nn.masked_mean`
        (see `encode`), so a memo hit is the vector a fresh model computes.
        The memo stores at most `SENTENCE_MEMO_ROWS` vectors, in first-seen
        order; past that, vectors are computed but not stored. It holds one
        state of the `sent_enc.*` parameters (`_memo`): a new, empty one
        replaces it when any of their `.data` arrays is rebound or its
        `Tensor.version` changes."""
        rows = [tuple(sentence_ids(ids, self.config.max_positions)) for ids in token_lists]
        memo = self.sentence_memo()
        missing = list(dict.fromkeys(row for row in rows if row not in memo))
        fresh = {}
        for members in length_groups(missing):
            group = [missing[i] for i in members]
            states = encode(self, "sent_enc", group)
            pooled = nn.masked_mean_forward(states, np.ones(states.shape[:2], self.dtype))[0]
            pooled.flags.writeable = False
            fresh.update(zip(group, pooled))
        for row in missing[:max(0, SENTENCE_MEMO_ROWS - len(memo))]:
            memo[row] = fresh[row]
        return [SentenceEmbedding(vector=memo[row] if row in memo else fresh[row],
                                  source=sources[i])
                for i, row in enumerate(rows)]

    def sentence_memo(self) -> dict[tuple[int, ...], np.ndarray]:
        """`encode_sentences`' vectors by encoder input row, for the current
        state of the `sent_enc.*` parameters."""
        return self._memo("sent_enc", dict)

    def decoder_memo(self, name: str) -> DecoderMemo:
        """Decoder `name`'s `DecoderMemo`, for the current state of its
        parameters."""
        return self._memo(name, lambda: DecoderMemo(self, name))

    def prefix_table(self, name: str) -> PrefixTable:
        """Decoder `name`'s `PrefixTable`, for the current state of its
        parameters."""
        return self.decoder_memo(name).table

    def _memo(self, prefix: str, make):
        """The memo kept for the parameters under `prefix`: a new one from
        `make()` if none is kept or if a `prefix.*` array has been rebound or
        its `Tensor.version` changed since the kept one was made. The stamp
        holds the arrays themselves, so the id of a rebound array cannot be
        reused while the stamp lives."""
        tensors = _group(self, prefix).values()
        arrays, versions = [t.data for t in tensors], [t.version for t in tensors]
        kept = self._memos.get(prefix)
        if kept is None or kept[1] != versions or not all(map(operator.is_, arrays, kept[0])):
            kept = self._memos[prefix] = (arrays, versions, make())
        return kept[2]

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
