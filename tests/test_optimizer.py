"""`nn.Adam`'s flat storage against the per-tensor loop in `oracles.py`: the
same bits for every parameter, gradient norm and moment, update after update,
including caller-set grads and a state round trip mid-run."""

import numpy as np
import pytest

from gere import nn
from gere.corpus import gold_targets
from gere.model import Seq2SeqModel
from gere.training import Trainer

from conftest import small_config
from oracles import PerTensorAdam, adam_state, train_step

# "big" spans more than one of Adam's chunks; "unused" never gets a grad.
SHAPES = {"emb": (40, 8), "w": (8, 6), "b": (6,), "big": (6000, 6), "unused": (3, 4)}


def _params(dtype):
    rng = np.random.default_rng(3)
    return {name: nn.Tensor(rng.standard_normal(shape).astype(dtype), requires_grad=True)
            for name, shape in SHAPES.items()}


def _loss(params, rng):
    """Token ids with repeats (the `np.add.at` path), increasing rows (the
    fast path), a linear block and GELU, into a smoothed cross-entropy."""
    ids = rng.integers(0, 40, size=12)
    rows = np.sort(rng.choice(6000, size=12, replace=False))
    h = nn.gelu(nn.linear(nn.gather(params["emb"], ids), params["w"], params["b"]))
    logits = nn.add(h, nn.gather(params["big"], rows))
    return nn.cross_entropy(logits, rng.integers(0, 6, size=12), 0.1)


def _snapshot(params, opt):
    return ({n: p.data.tobytes() for n, p in params.items()},
            {n: a.tobytes() for n, a in opt.m.items()},
            {n: a.tobytes() for n, a in opt.v.items()}, opt.t)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_flat_adam_equals_per_tensor_adam(dtype):
    runs = []
    for make in (nn.Adam, PerTensorAdam):
        params = _params(dtype)
        opt = make(params)
        rng = np.random.default_rng(11)
        norms, snapshots = [], []
        for update in range(7):
            nn.zero_grads(params)
            nn.backward(_loss(params, rng))
            if update == 2:  # a caller-set grad
                params["b"].grad = rng.standard_normal(6).astype(dtype)
            norms.append(nn.clip_gradients(params, 1.0))
            opt.step(1e-2 * (update + 1))
            if update == 4:  # resume from a state dict mid-run
                state = adam_state(opt)
                opt = make(params)
                opt.load_state_dict(state)
            snapshots.append(_snapshot(params, opt))
        runs.append((norms, snapshots, params))
    (norms, snapshots, params), (want_norms, want_snapshots, _) = runs
    assert norms == want_norms
    for got, want in zip(snapshots, want_snapshots):
        assert got == want
    assert params["unused"].grad is None
    assert {p.data.dtype for p in params.values()} == {np.dtype(dtype)}


def test_flat_adam_storage_is_shared():
    params = _params(np.float64)
    opt = nn.Adam(params)
    opt.load_state_dict(adam_state(PerTensorAdam(params)))
    for name, p in params.items():
        assert np.shares_memory(p.data, opt.flat_data)
        assert np.shares_memory(opt.m[name], opt.flat_m)
        assert np.shares_memory(opt.v[name], opt.flat_v)
    assert opt.flat_data.size == sum(p.data.size for p in params.values())


def test_load_state_dict_rejects_a_moment_of_another_shape():
    params = _params(np.float64)
    opt = nn.Adam(params)
    state = adam_state(opt)
    state["v"]["b"] = np.ones(1)  # would broadcast into the (6,) view
    with pytest.raises(ValueError, match="'b'"):
        opt.load_state_dict(state)


def test_flat_adam_needs_one_dtype():
    params = {"a": nn.Tensor(np.zeros(3, np.float32)), "b": nn.Tensor(np.zeros(3))}
    with pytest.raises(ValueError, match="one dtype"):
        nn.Adam(params)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("rate", [0.0, 0.1])
def test_trainer_flat_adam_equals_per_tensor_adam(tiny_corpus, tiny_vocab, tiny_claims,
                                                  rate, dtype):
    """Five updates of the joint objective: every TrainStats, parameter and
    Adam moment is the same bits."""
    cfg = small_config(len(tiny_vocab), n_layers_enc=2, n_layers_dec=2, dropout_rate=rate)
    batch = [(c, gold_targets(c, tiny_corpus)) for c in tiny_claims[:3]]
    runs = []
    for make in (nn.Adam, PerTensorAdam):
        trainer = Trainer(Seq2SeqModel(cfg, dtype=dtype), tiny_vocab, total_updates=20,
                          peak_lr=1e-2)
        trainer.optimizer = make(trainer.model.params)
        stats = [train_step(trainer, batch, tiny_corpus) for _ in range(5)]
        runs.append((stats, _snapshot(trainer.model.params, trainer.optimizer)))
    assert runs[0] == runs[1]
