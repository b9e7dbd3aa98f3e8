"""Binary model checkpoints: config, float32 tensors by name, Adam state, step
counter and the vocab checksum. Round-trips are bit-identical.

Format version 2, after the header (magic, version, vocab checksum), the step
and the config block: the tensor count, the sorted tensor names as one string
joined by newlines, one little-endian u32 row (rank, d0, d1) per tensor (dims
past the rank are 0), every parameter as float32 in name order, then a flag,
and when it is set Adam's `t` and each tensor's m and v in turn. A load checks
the names with one string comparison and the table with one array comparison
against what the config implies, and reads each float32 section with one
`readinto`. Version 2 is the only format a load accepts: any other version
fails at the header as a `DataError` naming the file.

Both ways are streamed: a save writes each tensor from its own data, and a
load reads each section from the file straight into its array, so neither
builds a copy of the whole file."""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional, Sequence

import numpy as np

from . import binio, nn
from .errors import DataError
from .model import ModelConfig, Seq2SeqModel, param_layout

_MAGIC = b"GERECKPT"
_VERSION = 2
_RANK = 2  # the highest rank `param_layout` yields; a table row is (rank, d0, d1)


def _f4(array: np.ndarray) -> memoryview:
    """The bytes of `array` as little-endian float32, without a copy when it
    already is a contiguous one."""
    return memoryview(np.ascontiguousarray(array, dtype="<f4")).cast("B")


def _row(shape: tuple[int, ...]) -> list[int]:
    """A tensor's row of the shape table: its rank, then its dims padded with 0."""
    return [len(shape), *shape, *(0,) * (_RANK - len(shape))]


def _table(shapes: Sequence[tuple[int, ...]]) -> Optional[np.ndarray]:
    """The shape table of `shapes`, or None when a dim does not fit in a u32
    (only a config can imply one). A model has a handful of distinct shapes,
    so each row is built once per shape."""
    rows = {shape: _row(shape) for shape in set(shapes)}
    if max(map(max, rows.values()), default=0) >> 32:
        return None
    return np.array([rows[shape] for shape in shapes], "<u4").reshape(len(shapes), 1 + _RANK)


def _chunks(model: Seq2SeqModel, optimizer: Optional[nn.Adam], step: int
            ) -> Iterator[bytes | memoryview]:
    """The checkpoint file, in order: each run of small fields as one bytes
    object and each tensor as a view of its data, so writing the stream
    copies no tensor."""
    if model.dtype != np.float32:
        raise ValueError("only float32 models are checkpointable; the file format "
                         "stores 32-bit floats and round-trips must be exact")
    buf = bytearray()
    binio.write_header(buf, _MAGIC, _VERSION, model.vocab_checksum)
    binio.write_u64(buf, step)
    binio.write_str(buf, model.config.to_kv())
    names = sorted(model.params)
    binio.write_u32(buf, len(names))
    binio.write_str(buf, "\n".join(names))
    buf += _table([model.params[name].data.shape for name in names]).tobytes()
    yield bytes(buf)
    buf.clear()
    for name in names:
        yield _f4(model.params[name].data)
    binio.write_u8(buf, 1 if optimizer is not None else 0)
    if optimizer is not None:
        binio.write_u64(buf, optimizer.t)
    yield bytes(buf)
    if optimizer is not None:
        for name in names:
            yield _f4(optimizer.m[name])
            yield _f4(optimizer.v[name])


def checkpoint_bytes(model: Seq2SeqModel, optimizer: Optional[nn.Adam] = None,
                     step: int = 0) -> bytes:
    """The bytes `save_checkpoint` writes."""
    return b"".join(_chunks(model, optimizer, step))


def save_checkpoint(path, model: Seq2SeqModel, optimizer: Optional[nn.Adam] = None,
                    step: int = 0) -> None:
    """Stream the checkpoint to `path`, replacing it atomically; no copy of
    the whole file is built in memory."""
    binio.write_atomic(path, _chunks(model, optimizer, step))


def load_checkpoint(path, expected_vocab_checksum: Optional[int] = None
                    ) -> tuple[Seq2SeqModel, Optional[dict], int]:
    """Returns (model, adam_state_or_None, step). Forward passes of the loaded
    model are bit-identical to the saved one. The file is streamed: the
    tensors' names and shapes are checked against the config, and their size
    against the file, before their bytes are read straight into their
    arrays, so the load holds no copy of the file."""
    with binio.open_reader(path) as r:
        vocab_checksum = r.header(_MAGIC, _VERSION, "checkpoint", expected_vocab_checksum)
        step = r.u64()
        config_text = r.str_()
        try:
            config = ModelConfig.from_kv(config_text)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        n_tensors = r.u32()
        if n_tensors > r.remaining() // 2:  # a tensor takes at least 2 bytes of names and table
            raise DataError(f"{path}: truncated (file claims {n_tensors} tensors)")
        # The shapes come from the config alone; nothing is allocated until
        # the file's names and shapes match them.
        layout = [(name, shape) for name, shape, _ in
                  itertools.islice(param_layout(config), n_tensors + 1)]
        if n_tensors != len(layout):
            implied = "more" if len(layout) > n_tensors else len(layout)
            raise DataError(f"{path}: expected {implied} tensors, file has {n_tensors}")
        order = sorted(layout)  # the file's order; names are unique
        # Only on a mismatch are the names or rows compared one by one, to
        # name the first tensor that differs.
        got = r.str_()
        if got != "\n".join(name for name, _ in order):
            got_name, name = next(pair for pair in itertools.zip_longest(
                got.split("\n"), (name for name, _ in order), fillvalue="") if pair[0] != pair[1])
            raise DataError(f"{path}: tensor order mismatch ({got_name!r} vs {name!r})")
        table = np.frombuffer(r.take(4 * (1 + _RANK) * len(order)), "<u4").reshape(-1, 1 + _RANK)
        want = _table([shape for _, shape in order])
        if want is None or not np.array_equal(table, want):
            for row, (name, shape) in zip(table.tolist(), order):  # one of them differs
                if row != _row(shape):
                    rank, dims = row[0], row[1:]
                    valid = rank <= _RANK and not any(dims[rank:])
                    got_shape = tuple(dims[:rank]) if valid else f"record {tuple(row)}"
                    raise DataError(f"{path}: tensor {name!r} shape {got_shape} does not "
                                    f"match config-derived shape {shape}")
        sizes = [math.prod(shape) for _, shape in order]
        total = sum(sizes)
        r.need(4 * total)  # so no buffer is larger than the file can fill
        flat = np.empty(total, "<f4")
        r.readinto(flat)

        # Each section's tensors are views of one float32 buffer, in file order.
        views = {}
        start = 0
        for (name, shape), size in zip(order, sizes):
            views[name] = flat[start : start + size].reshape(shape)
            start += size
        model = Seq2SeqModel(config, vocab_checksum=vocab_checksum,
                             arrays={name: views[name] for name, _ in layout})
        opt_state = None
        if r.u8():
            t = r.u64()
            r.need(8 * total)
            moments = np.empty(2 * total, "<f4")  # m, then v, of each tensor in turn
            r.readinto(moments)
            m = {}
            v = {}
            start = 0
            for (name, shape), size in zip(order, sizes):
                m[name] = moments[start : start + size].reshape(shape)
                v[name] = moments[start + size : start + 2 * size].reshape(shape)
                start += 2 * size
            opt_state = {"t": t, "m": m, "v": v}
        r.finish()
        return model, opt_state, step
