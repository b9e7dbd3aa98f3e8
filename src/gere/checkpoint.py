"""Binary model checkpoints: config, named float32 tensor table, Adam state,
step counter and the vocab checksum. Round-trips are bit-identical. Both ways
are streamed: a save writes each tensor from its own data, and a load reads
each tensor from the file straight into its array, so neither builds a copy
of the whole file."""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Optional

import numpy as np

from . import binio, nn
from .errors import DataError
from .model import ModelConfig, Seq2SeqModel, param_layout

_MAGIC = b"GERECKPT"
_VERSION = 1


def _f4(array: np.ndarray) -> memoryview:
    """The bytes of `array` as little-endian float32, without a copy when it
    already is a contiguous one."""
    return memoryview(np.ascontiguousarray(array, dtype="<f4")).cast("B")


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
    for name in names:
        data = model.params[name].data
        binio.write_str(buf, name)
        binio.write_u8(buf, data.ndim)
        for dim in data.shape:
            binio.write_u32(buf, dim)
        yield bytes(buf)
        buf.clear()
        yield _f4(data)
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
    model are bit-identical to the saved one. The file is streamed: each
    tensor's shape is checked against the config and its size against the
    file before its array is allocated, and its bytes are read straight into
    that array, so the load holds no copy of the file."""
    with binio.open_reader(path) as r:
        vocab_checksum = r.header(_MAGIC, _VERSION, "checkpoint", expected_vocab_checksum)
        step = r.u64()
        config_text = r.str_()
        try:
            config = ModelConfig.from_kv(config_text)
        except DataError as exc:
            raise DataError(f"{path}: {exc}") from None
        n_tensors = r.u32()
        if n_tensors > r.remaining() // 2:  # a record takes at least 2 bytes
            raise DataError(f"{path}: truncated (file claims {n_tensors} tensors)")
        # The shapes come from the config alone; nothing is allocated until a
        # tensor's shape in the file matches them.
        shapes = {name: shape for name, shape, _ in
                  itertools.islice(param_layout(config), n_tensors + 1)}
        if n_tensors != len(shapes):
            implied = "more" if len(shapes) > n_tensors else len(shapes)
            raise DataError(f"{path}: expected {implied} tensors, file has {n_tensors}")
        names = sorted(shapes)
        sizes = [math.prod(shapes[name]) for name in names]
        total = sum(sizes)

        # Each section's tensors are views of one float32 buffer, in file
        # order. The parameters' buffer is cut to what the file can hold, so
        # a config that implies huge tensors allocates no more than the
        # file's size and fails on a shape or size check below.
        flat = np.empty(min(total, r.remaining() // 4), "<f4")
        arrays = {}
        start = 0
        for name, size in zip(names, sizes):
            got = r.str_()
            if got != name:
                raise DataError(f"{path}: tensor order mismatch ({got!r} vs {name!r})")
            ndim = r.u8()
            shape = tuple(r.u32() for _ in range(ndim))
            if shape != shapes[name]:
                raise DataError(f"{path}: tensor {name!r} shape {shape} does not match "
                                f"config-derived shape {shapes[name]}")
            r.need(4 * size)  # so the view below lies inside `flat`
            arrays[name] = flat[start : start + size].reshape(shape)
            r.readinto(arrays[name])
            start += size
        model = Seq2SeqModel(config, vocab_checksum=vocab_checksum, arrays=arrays)
        opt_state = None
        if r.u8():
            t = r.u64()
            r.need(8 * total)
            moments = np.empty(2 * total, "<f4")  # m, then v, of each tensor in turn
            r.readinto(moments)
            m = {}
            v = {}
            start = 0
            for name, size in zip(names, sizes):
                m[name] = moments[start : start + size].reshape(shapes[name])
                v[name] = moments[start + size : start + 2 * size].reshape(shapes[name])
                start += 2 * size
            opt_state = {"t": t, "m": m, "v": v}
        r.finish()
        return model, opt_state, step
