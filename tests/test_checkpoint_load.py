"""The streamed checkpoint load: one copy of each tensor, read straight from
the file, with every error a `DataError` and no file handle left open."""

import contextlib
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gere import binio, nn
from gere.checkpoint import checkpoint_bytes, load_checkpoint, save_checkpoint
from gere.errors import DataError
from gere.model import ModelConfig, Seq2SeqModel


def tiny_checkpoint(n_layers=0, vocab_size=8, adam=True) -> bytes:
    """A checkpoint, with Adam state by default, small enough to cut at every
    byte."""
    cfg = ModelConfig(vocab_size=vocab_size, d_model=2, n_heads=1, n_layers_enc=n_layers,
                      n_layers_dec=n_layers, d_ff=2, max_positions=2, seed=5)
    model = Seq2SeqModel(cfg)
    if not adam:
        return checkpoint_bytes(model, None, 3)
    optimizer = nn.Adam(model.params)
    rng = np.random.default_rng(5)
    for p in model.params.values():  # one update, so that no moment is zero
        p.grad = rng.normal(size=p.data.shape).astype(np.float32)
    optimizer.step(0.1)
    return checkpoint_bytes(model, optimizer, 3)


@pytest.fixture
def opened(monkeypatch):
    """Every file `binio` opens from here on."""
    handles = []

    def tracking_open(*args, **kwargs):
        handles.append(open(*args, **kwargs))
        return handles[-1]

    monkeypatch.setattr(binio, "open", tracking_open, raising=False)
    return handles


def _arrays(model, opt_state):
    yield from (p.data for p in model.params.values())
    if opt_state is not None:
        for moments in (opt_state["m"], opt_state["v"]):
            yield from moments.values()


def test_load_peaks_at_the_loaded_arrays(tmp_path):
    """An A2-shaped model with its Adam moments: a load allocates about the
    arrays it returns, and no copy of the file beside them."""
    cfg = ModelConfig(vocab_size=1200, d_model=64, n_heads=4, n_layers_enc=2, n_layers_dec=2,
                      d_ff=256, max_positions=128, seed=3)
    model = Seq2SeqModel(cfg)
    path = tmp_path / "a2.gereckpt"
    save_checkpoint(path, model, nn.Adam(model.params), 7)
    del model
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        loaded, opt_state, _ = load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    loaded_bytes = sum(a.nbytes for a in _arrays(loaded, opt_state))
    assert loaded_bytes > 0.99 * path.stat().st_size
    assert peak - before < 1.1 * loaded_bytes, (
        f"load peaked at {peak - before} bytes for {loaded_bytes} bytes of arrays")


@pytest.mark.parametrize("chunk, data", [
    (binio.Reader._CHUNK, tiny_checkpoint()),
    (7, tiny_checkpoint()),
    # No moments after the parameters, and token tables far longer than a
    # tensor's name and shape: a cut inside them leaves less file than they need.
    (binio.Reader._CHUNK, tiny_checkpoint(vocab_size=200, adam=False)),
], ids=["adam", "adam-chunk7", "large-tables"])
def test_truncation_at_every_offset_is_a_data_error(tmp_path, opened, monkeypatch, chunk, data):
    monkeypatch.setattr(binio.Reader, "_CHUNK", chunk)
    path = tmp_path / "m.gereckpt"
    for cut in range(len(data)):
        path.write_bytes(data[:cut])
        with pytest.raises(DataError, match=f"{path.name}: truncated"):
            load_checkpoint(path)
    assert len(opened) == len(data) and all(fh.closed for fh in opened)


@pytest.mark.parametrize("chunk", [1, 5, 64])
def test_load_is_the_same_at_any_chunk_size(tmp_path, monkeypatch, chunk):
    path = tmp_path / "m.gereckpt"
    path.write_bytes(tiny_checkpoint(n_layers=1))
    want_model, want_opt, want_step = load_checkpoint(path)
    monkeypatch.setattr(binio.Reader, "_CHUNK", chunk)
    model, opt_state, step = load_checkpoint(path)
    assert step == want_step and model.config == want_model.config
    assert opt_state["t"] == want_opt["t"]
    for got, want in zip(_arrays(model, opt_state), _arrays(want_model, want_opt), strict=True):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert checkpoint_bytes(model, None, step) == checkpoint_bytes(want_model, None, step)


def _corruptions(data: bytes) -> dict:
    name = b"claim_enc.ln_f.b"
    return {
        "bad magic": b"X" + data[1:],
        "bad version": data[:8] + b"\x09" + data[9:],
        "bad config": data.replace(b"d_model=2", b"d_model=x", 1),
        "tensor order": data.replace(name, b"claim_enc.ln_f.c", 1),
        "shape": data.replace(b"d_model=2", b"d_model=4", 1),
        "invalid UTF-8": data.replace(name, b"\xff" + name[1:], 1),
        "trailing bytes": data + b"\0",
        "mid-tensor cut": data[: len(data) * 2 // 3],
    }


def test_no_file_handle_is_left_open_on_any_path(tmp_path, opened):
    data = tiny_checkpoint()
    path = tmp_path / "m.gereckpt"
    path.write_bytes(data)
    load_checkpoint(path)
    with pytest.raises(DataError, match="vocab checksum mismatch"):
        load_checkpoint(path, expected_vocab_checksum=1)
    for bad in _corruptions(data).values():
        path.write_bytes(bad)
        with pytest.raises(DataError, match=path.name):
            load_checkpoint(path)
    for missing in (tmp_path / "missing", tmp_path):  # no handle is opened for either
        with pytest.raises(DataError, match="cannot read"):
            load_checkpoint(missing)
    assert len(opened) == 2 + len(_corruptions(data))
    assert all(fh.closed for fh in opened)


def _tensor_section(data: bytes) -> tuple[list[str], int, int]:
    """The sorted tensor names of version 2 checkpoint bytes, and the offsets
    where their names string and their shape table start."""
    r = binio.Reader(data)
    r.take(24)  # magic, version, vocab checksum, step
    r.str_()  # the config block
    n_tensors = r.u32()
    length = r.uvarint()
    names_at = len(data) - r.remaining()
    names = r.take(length).decode().split("\n")
    assert len(names) == n_tensors
    return names, names_at, names_at + length


def test_a_flipped_byte_in_the_names_or_the_shape_table_names_the_tensor(tmp_path):
    """Every byte of the names string and of the shape table, flipped in its
    lowest bit, fails the load with a `DataError` naming the file and the
    tensor whose name or row it is in."""
    data = tiny_checkpoint()
    names, names_at, table_at = _tensor_section(data)
    owners = [names[data[names_at:at].count(b"\n")] for at in range(names_at, table_at)]
    row = 4 * 3  # rank, d0, d1
    owners += [names[i // row] for i in range(row * len(names))]
    path = tmp_path / "m.gereckpt"
    for at, name in enumerate(owners, start=names_at):
        flipped = bytearray(data)
        flipped[at] ^= 1
        path.write_bytes(flipped)
        with pytest.raises(DataError) as err:
            load_checkpoint(path)
        message = str(err.value)
        if at < table_at:
            assert message.startswith(f"{path}: tensor order mismatch (")
            assert message.endswith(f" vs {name!r})"), (at, message)
        else:
            assert message.startswith(f"{path}: tensor {name!r} shape "), (at, message)
            assert "does not match config-derived shape" in message


@pytest.mark.parametrize("key, value", [("vocab_size", 2**32), ("d_ff", 2**32 + 3),
                                        ("max_positions", 2**40), ("d_model", 10**20)])
def test_a_config_dim_past_u32_is_the_shape_error_and_allocates_nothing(
        tmp_path, key, value):
    """No file can hold a dim of 2**32 or more, so a config block that implies
    one fails on the first tensor with it, as a shape mismatch: never as an
    error of packing or converting the dim, and before any array exists."""
    data = tiny_checkpoint(n_layers=1)
    r = binio.Reader(data)
    r.take(24)  # magic, version, vocab checksum, step
    lines = r.str_().splitlines(keepends=True)
    edited = bytearray(data[:24])
    binio.write_str(edited, "".join(f"{key}={value}\n" if line.startswith(f"{key}=") else line
                                    for line in lines))
    path = tmp_path / "m.gereckpt"
    path.write_bytes(bytes(edited) + data[len(data) - r.remaining():])
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        with pytest.raises(DataError, match="does not match config-derived shape") as err:
            load_checkpoint(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value).startswith(f"{path}: tensor ")
    assert str(value) in str(err.value)
    assert peak - before < 1 << 20, f"load peaked at {peak - before} bytes"


def test_a_file_that_shrinks_while_it_is_read_is_truncated(tmp_path):
    path = tmp_path / "f.bin"
    path.write_bytes(bytes(range(256)) * 1024)
    with binio.open_reader(path) as r:
        assert r.take(4) == bytes(range(4))
        os.truncate(path, 1000)
        with pytest.raises(DataError, match="f.bin: truncated"):
            r.readinto(np.empty(100_000, np.uint8))
    path.write_bytes(bytes(range(256)) * 1024)
    with binio.open_reader(path) as r:
        r.take(4)
        os.truncate(path, 2)
        r.readinto(np.empty(r._CHUNK - 4, np.uint8))  # the rest of the buffer
        with pytest.raises(DataError, match="f.bin: truncated"):
            r.u8()


_FIELD = st.one_of(
    st.tuples(st.just("u8"), st.integers(0, 255)),
    st.tuples(st.just("u32"), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("u64"), st.integers(0, 2**64 - 1)),
    st.tuples(st.just("uvarint"), st.integers(0, 2**63 - 1)),
    st.tuples(st.just("str_"), st.text(max_size=12)),
    st.tuples(st.just("readinto"), st.binary(max_size=40)),
)
_WRITE = {"u8": binio.write_u8, "u32": binio.write_u32, "u64": binio.write_u64,
          "uvarint": binio.write_uvarint, "str_": binio.write_str,
          "readinto": lambda buf, raw: buf.extend(raw)}


@settings(max_examples=150, deadline=None)
@given(st.lists(_FIELD, max_size=20), st.integers(1, 48))
def test_streamed_fields_read_back_as_written(tmp_path_factory, fields, chunk):
    """Any run of fields reads back the same from a file, in chunks of any
    size, as from the bytes."""
    buf = bytearray()
    for kind, value in fields:
        _WRITE[kind](buf, value)
    path = tmp_path_factory.mktemp("fields") / "f.bin"
    path.write_bytes(buf)

    def read_all(r):
        got = []
        for kind, value in fields:
            if kind == "readinto":
                out = np.empty(len(value), np.uint8)
                r.readinto(out)
                got.append(out.tobytes())
            else:
                got.append(getattr(r, kind)())
        r.finish()
        return got

    want = [value for _, value in fields]
    assert read_all(binio.Reader(bytes(buf))) == want
    binio.Reader._CHUNK, default = chunk, binio.Reader._CHUNK
    try:
        with binio.open_reader(path) as r:
            assert read_all(r) == want
    finally:
        binio.Reader._CHUNK = default


_RUN = [("u32", 7), ("str_", "héllo"), ("uvarint", 300), ("readinto", bytes(range(10))),
        ("str_", "x" * 130), ("readinto", bytes(40)), ("u32", 9)]


def _reads(kind, value, start):
    """(offset, bytes needed) of each read a written field takes to read back."""
    if kind == "u32":
        return [(start, 4)]
    if kind == "readinto":
        return [(start, len(value))]
    n = len(value.encode()) if kind == "str_" else value
    prefix = bytearray()
    binio.write_uvarint(prefix, n)
    reads = [(start + i, 1) for i in range(len(prefix))]  # a uvarint is read a byte at a time
    return reads + [(start + len(prefix), n)] if kind == "str_" else reads


def _read_run(r):
    for kind, value in _RUN:
        if kind == "readinto":
            r.readinto(np.empty(len(value), np.uint8))
        else:
            getattr(r, kind)()
    r.finish()


@pytest.mark.parametrize("chunk", [1, 3, binio.Reader._CHUNK])
def test_reader_error_messages_name_the_short_read_and_its_offset(tmp_path, monkeypatch, chunk):
    """The exact message of every read error, from bytes and from a file: a
    cut at every offset of a run of fields fails on the first read that the
    cut leaves short, naming its size and where it starts."""
    monkeypatch.setattr(binio.Reader, "_CHUNK", chunk)
    buf = bytearray()
    reads = []
    for kind, value in _RUN:
        start = len(buf)
        _WRITE[kind](buf, value)
        reads += _reads(kind, value, start)
    path = tmp_path / "f.bin"

    def message(data):
        path.write_bytes(data)
        got = []
        for reader in (lambda: contextlib.nullcontext(binio.Reader(data, "f.bin")),
                       lambda: binio.open_reader(path)):
            with pytest.raises(DataError) as err, reader() as r:
                _read_run(r)
            got.append(str(err.value).replace(str(path), "f.bin"))
        assert got[0] == got[1]
        return got[0]

    for cut in range(len(buf)):
        offset, n = next((offset, n) for offset, n in reads if offset + n > cut)
        want = f"f.bin: truncated (needed {n} bytes at offset {offset})"
        assert message(bytes(buf[:cut])) == want
    assert message(bytes(buf) + b"\0\0") == "f.bin: 2 trailing bytes"
    assert message(bytes(buf[:4]) + b"\x80" * 11) == "f.bin: uvarint overflow at offset 14"
    bad = bytearray(buf[:4])
    binio.write_bytes(bad, b"ok\xff")
    assert message(bytes(bad)) == "f.bin: invalid UTF-8 before offset 8"
