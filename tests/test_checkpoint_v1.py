"""Checkpoint format version 1 stays a supported input. A version 1 file,
written by the reference writer in `oracles`, loads to the same arrays, Adam
state and step as the version 2 file a save of it writes."""

import numpy as np
import pytest

from gere import nn
from gere.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from gere.model import Seq2SeqModel

from conftest import small_config
from oracles import checkpoint_v1_bytes


def _model_and_optimizer(tiny_vocab, with_optimizer):
    model = Seq2SeqModel(small_config(len(tiny_vocab)), vocab_checksum=tiny_vocab.checksum())
    if not with_optimizer:
        return model, None
    optimizer = nn.Adam(model.params)
    rng = np.random.default_rng(3)
    for p in model.params.values():  # one update, so that no moment is zero
        p.grad = rng.normal(size=p.data.shape).astype(np.float32)
    optimizer.step(0.1)
    return model, optimizer


def _resave(path, loaded):
    """Save a `load_checkpoint` result to `path`, as `gere train --resume`
    would write it before its first update."""
    model, opt_state, step = loaded
    optimizer = None
    if opt_state is not None:
        optimizer = nn.Adam(model.params)
        optimizer.load_state_dict(opt_state)
    save_checkpoint(path, model, optimizer, step)


@pytest.mark.parametrize("with_optimizer", [False, True], ids=["params", "adam"])
def test_a_v1_file_loads_as_its_v2_resave(tmp_path, tiny_vocab, with_optimizer):
    model, optimizer = _model_and_optimizer(tiny_vocab, with_optimizer)
    v1, v2 = tmp_path / "v1.gereckpt", tmp_path / "v2.gereckpt"
    v1.write_bytes(checkpoint_v1_bytes(model, optimizer, 9))
    from_v1 = load_checkpoint(v1, tiny_vocab.checksum())
    _resave(v2, from_v1)
    assert v2.read_bytes()[8:12] == (2).to_bytes(4, "little")
    assert v2.read_bytes() == checkpoint_bytes(model, optimizer, 9)
    from_v2 = load_checkpoint(v2, tiny_vocab.checksum())

    for got, opt_state, step in (from_v1, from_v2):
        assert step == 9 and got.config == model.config
        assert got.vocab_checksum == tiny_vocab.checksum()
        assert list(got.params) == list(model.params)
        for name, p in model.params.items():
            array = got.params[name].data
            assert array.dtype == np.float32 and np.array_equal(array, p.data), name
        if optimizer is None:
            assert opt_state is None
            continue
        assert opt_state["t"] == optimizer.t == 1
        for key, want in (("m", optimizer.m), ("v", optimizer.v)):
            assert opt_state[key].keys() == want.keys()
            for name, moment in want.items():
                assert np.array_equal(opt_state[key][name], moment), (key, name)
