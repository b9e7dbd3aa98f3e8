"""Little-endian binary primitives for the trie and checkpoint file formats,
and the atomic file write behind the vocab, trie, checkpoint and predictions."""

import os
import struct
from pathlib import Path

from .errors import DataError


def write_u8(buf: bytearray, value: int) -> None:
    buf += struct.pack("<B", value)


def write_u32(buf: bytearray, value: int) -> None:
    buf += struct.pack("<I", value)


def write_u64(buf: bytearray, value: int) -> None:
    buf += struct.pack("<Q", value)


def write_uvarint(buf: bytearray, value: int) -> None:
    if value < 0:
        raise ValueError(f"uvarint cannot encode negative value {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            buf.append(byte | 0x80)
        else:
            buf.append(byte)
            return


def write_bytes(buf: bytearray, data: bytes) -> None:
    write_uvarint(buf, len(data))
    buf += data


def write_str(buf: bytearray, text: str) -> None:
    write_bytes(buf, text.encode("utf-8"))


def write_atomic(path, data: bytes) -> None:
    """Replace `path` with `data` in one step: write a temp file in the same
    directory, then `os.replace` it over `path`. A write that fails or a
    process killed midway leaves the old file whole; a failed write removes
    its temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


class Reader:
    """Cursor over a bytes object; raises DataError on truncation."""

    def __init__(self, data: bytes, name: str = "<bytes>"):
        self.data = data
        self.pos = 0
        self.name = name

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DataError(f"{self.name}: truncated (needed {n} bytes at offset {self.pos})")
        out = self.data[self.pos : self.pos + n]
        self.pos += n
        return out

    def u8(self) -> int:
        return struct.unpack("<B", self.take(1))[0]

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u64(self) -> int:
        return struct.unpack("<Q", self.take(8))[0]

    def uvarint(self) -> int:
        shift = 0
        value = 0
        while True:
            byte = self.u8()
            value |= (byte & 0x7F) << shift
            if not byte & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise DataError(f"{self.name}: uvarint overflow at offset {self.pos}")

    def bytes_(self) -> bytes:
        return self.take(self.uvarint())

    def str_(self) -> str:
        try:
            return self.bytes_().decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{self.name}: invalid UTF-8 before offset {self.pos}") from None

    def done(self) -> bool:
        return self.pos == len(self.data)
