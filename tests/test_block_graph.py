"""The block nodes `nn.linear` and `nn.attention`, and the training graph built
from them, against the per-op graph in `oracles.py`: the same bits for every
forward value, every gradient and every optimizer state."""

import numpy as np
import pytest

from gere import nn
from gere.corpus import gold_targets
from gere.model import Seq2SeqModel, _causal_mask, _key_mask
from gere.training import Trainer, encode_example

from conftest import small_config
from oracles import PerOpGraphModel, attention_per_op, linear_per_op, train_step


def _loss(out):
    """A scalar whose gradient reaches every entry of `out` with its own value."""
    rows = nn.reshape(out, (-1, out.data.shape[-1]))
    targets = np.arange(rows.data.shape[0]) % rows.data.shape[1]
    return nn.cross_entropy(rows, targets, 0.1)


def _run(op, arrays, *args):
    """Forward and backward of `op` on fresh leaf tensors of `arrays`."""
    leaves = [nn.Tensor(a.copy(), requires_grad=True) for a in arrays]
    out = op(*leaves, *args)
    nn.backward(_loss(out))
    return out.data, [t.grad for t in leaves]


def _assert_same_bits(block, per_op):
    (out_a, grads_a), (out_b, grads_b) = block, per_op
    assert out_a.dtype == out_b.dtype
    assert np.array_equal(out_a, out_b)
    for ga, gb in zip(grads_a, grads_b):
        assert ga.dtype == gb.dtype and np.array_equal(ga, gb)


# (batch, query positions, key positions, mask kind)
ATTENTION_CASES = {
    "encoder self-attention with a key mask": (3, 7, 7, "keys"),
    "causal decoder": (2, 6, 6, "causal"),
    "cross-attention, Tq != Tk, padded keys": (3, 4, 9, "keys"),
    "one row, one position": (1, 1, 1, None),
}


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("case", list(ATTENTION_CASES))
def test_attention_equals_per_op_graph(case, dtype, rng):
    n_batch, n_q, n_k, mask_kind = ATTENTION_CASES[case]
    d, heads = 16, 4
    q, k, v = (rng.standard_normal((n_batch, n, d)).astype(dtype) for n in (n_q, n_k, n_k))
    mask = None
    if mask_kind == "keys":
        lengths = np.maximum(1, n_k - np.arange(n_batch) * 3)
        mask = _key_mask(np.arange(n_k)[None, :] < lengths[:, None], dtype)
    elif mask_kind == "causal":
        mask = _causal_mask(n_q, dtype)
    scale = float(1.0 / np.sqrt(d // heads))
    block = _run(nn.attention, [q, k, v], heads, scale, mask)
    per_op = _run(attention_per_op, [q, k, v], heads, scale, mask)
    _assert_same_bits(block, per_op)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("shape", [(3, 5, 16), (1, 1, 16), (7, 16)])
def test_linear_equals_per_op_graph(shape, dtype, rng):
    x = rng.standard_normal(shape).astype(dtype)
    w = rng.standard_normal((16, 24)).astype(dtype)
    b = rng.standard_normal(24).astype(dtype)
    _assert_same_bits(_run(nn.linear, [x, w, b]), _run(linear_per_op, [x, w, b]))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_trainer_on_block_graph_equals_per_op_graph(tiny_corpus, tiny_vocab, tiny_claims,
                                                    dtype):
    """Five updates over a padded batch with two layers per stack: every
    TrainStats, parameter and Adam moment is the same bits."""
    cfg = small_config(len(tiny_vocab), n_layers_enc=2, n_layers_dec=2)
    batch = [(c, gold_targets(c, tiny_corpus)) for c in tiny_claims[:3]]
    runs = []
    for cls in (Seq2SeqModel, PerOpGraphModel):
        trainer = Trainer(cls(cfg, dtype=dtype), tiny_vocab, total_updates=20, peak_lr=1e-2)
        runs.append(([train_step(trainer, batch, tiny_corpus) for _ in range(5)], trainer))
    (stats, block), (want_stats, per_op) = runs
    assert stats == want_stats
    assert block.optimizer.t == per_op.optimizer.t == 5
    for name, p in block.model.params.items():
        assert np.array_equal(p.data, per_op.model.params[name].data), name
        assert np.array_equal(block.optimizer.m[name], per_op.optimizer.m[name]), name
        assert np.array_equal(block.optimizer.v[name], per_op.optimizer.v[name]), name


def test_per_op_graph_builds_no_block_node(tiny_corpus, tiny_vocab, tiny_claims, monkeypatch):
    """`PerOpGraphModel` reaches every block through its `ops`: with
    `nn.linear` and `nn.attention` refused, its loss graph still builds, as
    the block model's no longer does, so the comparisons above set block
    nodes against per-op chains and not against themselves."""
    cfg = small_config(len(tiny_vocab), n_layers_enc=2, n_layers_dec=2)
    examples = [encode_example(c, gold_targets(c, tiny_corpus), tiny_corpus, tiny_vocab,
                               cfg.max_positions) for c in tiny_claims[:3]]
    expected = Trainer(Seq2SeqModel(cfg), tiny_vocab).loss_graph(examples)

    def refuse(*args, **kwargs):
        raise AssertionError("a block node was built")

    for op in ("linear", "attention"):
        monkeypatch.setattr(nn, op, refuse)
    with pytest.raises(AssertionError, match="block node"):
        Trainer(Seq2SeqModel(cfg), tiny_vocab).loss_graph(examples)
    losses = Trainer(PerOpGraphModel(cfg), tiny_vocab).loss_graph(examples)
    for got, want in zip(losses, expected, strict=True):
        assert np.array_equal(got.data, want.data)
