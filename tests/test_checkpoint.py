import tracemalloc

import numpy as np
import pytest

from gere import binio, nn
from gere.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from gere.corpus import gold_targets
from gere.errors import DataError
from gere.model import ModelConfig, Seq2SeqModel
from gere.training import Trainer

from conftest import small_config
from oracles import train_step


def trained_model(tiny_corpus, tiny_vocab, tiny_claims, steps=5):
    cfg = small_config(len(tiny_vocab))
    model = Seq2SeqModel(cfg, vocab_checksum=tiny_vocab.checksum())
    trainer = Trainer(model, tiny_vocab, total_updates=50, peak_lr=1e-3)
    batch = [(c, gold_targets(c, tiny_corpus)) for c in tiny_claims[:2]]
    for _ in range(steps):
        train_step(trainer, batch, tiny_corpus)
    return model, trainer


def test_round_trip_bit_identical_forward(tmp_path, tiny_corpus, tiny_vocab, tiny_claims):
    model, trainer = trained_model(tiny_corpus, tiny_vocab, tiny_claims)
    path = tmp_path / "model.gereckpt"
    save_checkpoint(path, model, trainer.optimizer, trainer.step_count)
    assert path.read_bytes()[:8] == b"GERECKPT"

    loaded, opt_state, step = load_checkpoint(path, tiny_vocab.checksum())
    assert step == trainer.step_count
    assert loaded.config == model.config
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)

    ids = tiny_vocab.encode("alpha hill rises early")
    np.testing.assert_array_equal(model.encode_claim(ids),
                                  loaded.encode_claim(ids))
    from gere.tokenizer import BOS
    np.testing.assert_array_equal(model.decode_step_title(model.encode_claim(ids), [BOS]),
                                  loaded.decode_step_title(loaded.encode_claim(ids), [BOS]))


def test_save_bytes_deterministic(tmp_path, tiny_corpus, tiny_vocab, tiny_claims):
    model, trainer = trained_model(tiny_corpus, tiny_vocab, tiny_claims)
    b1 = checkpoint_bytes(model, trainer.optimizer, trainer.step_count)
    b2 = checkpoint_bytes(model, trainer.optimizer, trainer.step_count)
    assert b1 == b2
    path = tmp_path / "m.gereckpt"
    path.write_bytes(b1)
    loaded, opt_state, step = load_checkpoint(path)
    assert checkpoint_bytes(loaded, None, step) == checkpoint_bytes(model, None, step)


def test_resume_continues_bit_identically(tiny_corpus, tiny_vocab, tiny_claims, tmp_path):
    batch_claims = tiny_claims[:3]

    def fresh_trainer(model=None, vocab_checksum=None):
        m = model or Seq2SeqModel(small_config(len(tiny_vocab)),
                                  vocab_checksum=tiny_vocab.checksum())
        return m, Trainer(m, tiny_vocab, total_updates=40, peak_lr=1e-3)

    model_a, trainer_a = fresh_trainer()
    batch = [(c, gold_targets(c, tiny_corpus)) for c in batch_claims]
    stats_a = [train_step(trainer_a, batch, tiny_corpus) for _ in range(10)]

    model_b, trainer_b = fresh_trainer()
    for _ in range(6):
        train_step(trainer_b, batch, tiny_corpus)
    path = tmp_path / "mid.gereckpt"
    save_checkpoint(path, model_b, trainer_b.optimizer, trainer_b.step_count)

    resumed, opt_state, step = load_checkpoint(path, tiny_vocab.checksum())
    trainer_c = Trainer(resumed, tiny_vocab, total_updates=40, peak_lr=1e-3)
    trainer_c.optimizer.load_state_dict(opt_state)
    trainer_c.step_count = step
    stats_c = [train_step(trainer_c, batch, tiny_corpus) for _ in range(4)]
    assert stats_c == stats_a[6:10]


def test_float64_models_not_checkpointable(tiny_vocab):
    model = Seq2SeqModel(small_config(len(tiny_vocab)), dtype=np.float64)
    with pytest.raises(ValueError):
        checkpoint_bytes(model)


def test_checksum_mismatch_rejected(tmp_path, tiny_corpus, tiny_vocab, tiny_claims):
    model, trainer = trained_model(tiny_corpus, tiny_vocab, tiny_claims, steps=1)
    path = tmp_path / "m.gereckpt"
    save_checkpoint(path, model, None, 1)
    with pytest.raises(DataError):
        load_checkpoint(path, expected_vocab_checksum=tiny_vocab.checksum() ^ 0xFF)


def test_truncated_file_rejected(tmp_path, tiny_corpus, tiny_vocab, tiny_claims):
    model, _ = trained_model(tiny_corpus, tiny_vocab, tiny_claims, steps=1)
    data = checkpoint_bytes(model)
    path = tmp_path / "m.gereckpt"
    path.write_bytes(data[: len(data) // 2])
    with pytest.raises(DataError):
        load_checkpoint(path)


def test_bad_config_block_is_data_error(tmp_path, tiny_vocab):
    data = checkpoint_bytes(Seq2SeqModel(small_config(len(tiny_vocab))))
    path = tmp_path / "m.gereckpt"
    for good, bad in ((b"n_heads=2", b"n_heads=3"), (b"seed=11", b"seed=1x"),
                      (b"n_heads=2", b"n_heads=0"), (b"seed=11", b"seed=-1")):
        assert data.count(good) == 1
        path.write_bytes(data.replace(good, bad))
        with pytest.raises(DataError, match="m.gereckpt: model config"):
            load_checkpoint(path)


@pytest.mark.parametrize("line", ["dropout_rate=0.1", "dropout_rate=0", "dropout_rate=0.0"])
def test_config_block_with_another_dropout_line_is_data_error(tmp_path, tiny_vocab, line):
    """The model has no dropout setting, so a `dropout_rate` line of any
    value, 0.0 too, is an unknown key."""
    data = checkpoint_bytes(Seq2SeqModel(small_config(len(tiny_vocab))))
    path = tmp_path / "m.gereckpt"
    path.write_bytes(_edit_config(data, "seed=", f"{line}\nseed="))
    with pytest.raises(DataError, match="m.gereckpt: model config.*'dropout_rate'"):
        load_checkpoint(path)


def test_invalid_utf8_name_is_data_error(tmp_path, tiny_vocab):
    data = checkpoint_bytes(Seq2SeqModel(small_config(len(tiny_vocab))))
    name = b"claim_enc.tok_emb"
    path = tmp_path / "m.gereckpt"
    path.write_bytes(data.replace(name, b"\xff" + name[1:], 1))
    with pytest.raises(DataError, match="UTF-8"):
        load_checkpoint(path)


@pytest.mark.parametrize("key", ["vocab_size", "max_positions"])
def test_load_reads_params_from_the_file_without_drawing_an_init(
        tmp_path, tiny_corpus, tiny_vocab, tiny_claims, monkeypatch, key):
    model, trainer = trained_model(tiny_corpus, tiny_vocab, tiny_claims, steps=2)
    path = tmp_path / "m.gereckpt"
    save_checkpoint(path, model, trainer.optimizer, trainer.step_count)

    def no_draw(self):
        raise AssertionError("load_checkpoint drew a random initialisation")

    monkeypatch.setattr(Seq2SeqModel, "_init_params", no_draw)
    loaded, _, _ = load_checkpoint(path, tiny_vocab.checksum())
    assert list(loaded.params) == list(model.params)
    for name, p in model.params.items():
        got = loaded.params[name].data
        assert got.dtype == p.data.dtype and np.array_equal(got, p.data), name

    # A config block that claims a huge table fails on the first shape check,
    # before any array of that size could exist.
    good = f"{key}={getattr(model.config, key)}\n"
    path.write_bytes(_edit_config(path.read_bytes(), good, f"{key}={2**40}\n"))
    with pytest.raises(DataError, match="does not match config-derived shape"):
        load_checkpoint(path)


def _edit_config(data, old, new):
    """Checkpoint bytes with `old` replaced by `new` in the config block."""
    r = binio.Reader(data)
    r.take(24)  # magic, version, vocab checksum, step
    text = r.str_()
    assert text.count(old) == 1
    out = bytearray(data[:24])
    binio.write_str(out, text.replace(old, new))
    return bytes(out) + data[len(data) - r.remaining():]


def test_config_claiming_huge_layer_counts_is_data_error(tmp_path, tiny_vocab):
    data = checkpoint_bytes(Seq2SeqModel(small_config(len(tiny_vocab))))
    path = tmp_path / "m.gereckpt"
    path.write_bytes(_edit_config(data, "n_layers_enc=1\n", f"n_layers_enc={10**12}\n"))
    with pytest.raises(DataError, match="expected more tensors"):
        load_checkpoint(path)


def test_config_block_claiming_a_huge_length_allocates_nothing(tmp_path):
    """A several-MB checkpoint whose config block's length field reads 2**40
    fails as truncated, without a buffer of that length or a copy of the file."""
    cfg = ModelConfig(vocab_size=1200, d_model=64, n_heads=4, n_layers_enc=2, n_layers_dec=2,
                      d_ff=256, max_positions=128, seed=3)
    data = checkpoint_bytes(Seq2SeqModel(cfg))
    r = binio.Reader(data)
    r.take(24)  # magic, version, vocab checksum, step
    r.uvarint()
    out = bytearray(data[:24])
    binio.write_uvarint(out, 2**40)  # 6 bytes
    path = tmp_path / "m.gereckpt"
    path.write_bytes(bytes(out) + data[len(data) - r.remaining():])
    assert path.stat().st_size > 3_000_000
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(DataError) as err:
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == f"{path}: truncated (needed {2**40} bytes at offset 30)"
    assert peak - before < 1 << 20, f"load peaked at {peak - before} bytes"


@pytest.mark.parametrize("with_optimizer", [False, True])
def test_streamed_save_writes_checkpoint_bytes(tmp_path, tiny_corpus, tiny_vocab, tiny_claims,
                                               with_optimizer):
    model, trainer = trained_model(tiny_corpus, tiny_vocab, tiny_claims, steps=2)
    optimizer = trainer.optimizer if with_optimizer else None
    path = tmp_path / "m.gereckpt"
    save_checkpoint(path, model, optimizer, trainer.step_count)
    assert path.read_bytes() == checkpoint_bytes(model, optimizer, trainer.step_count)


def test_save_holds_no_copy_of_the_file(tmp_path):
    """An A2-shaped model with its Adam moments: writing it allocates under a
    quarter of the file's size, because no tensor and no whole file is
    copied on the way to disk."""
    cfg = ModelConfig(vocab_size=1200, d_model=64, n_heads=4, n_layers_enc=2, n_layers_dec=2,
                      d_ff=256, max_positions=128, seed=3)
    model = Seq2SeqModel(cfg)
    optimizer = nn.Adam(model.params)
    path = tmp_path / "a2.gereckpt"
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        save_checkpoint(path, model, optimizer, 7)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    size = path.stat().st_size
    assert size > 9_000_000
    assert peak - before < size / 4, f"save peaked at {peak - before} bytes for a {size}-byte file"


def test_truncation_anywhere_is_a_data_error_naming_the_file(tmp_path, tiny_vocab):
    model = Seq2SeqModel(small_config(len(tiny_vocab)))
    data = checkpoint_bytes(model, nn.Adam(model.params), 3)
    path = tmp_path / "m.gereckpt"
    # In the header, in the config block, in the tensor table and in the last moment.
    for cut in (10, 30, len(data) // 3, len(data) - 1):
        path.write_bytes(data[:cut])
        with pytest.raises(DataError, match=f"{path.name}: truncated"):
            load_checkpoint(path)
