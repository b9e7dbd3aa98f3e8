"""Every file gere reads or writes goes through here: UTF-8 text and JSON
lines, atomic writes, and the header, little-endian fields, u32 arrays and
CRC-32 trailer of the trie and checkpoint formats, read by one cursor over
bytes or over a buffered file (`open_reader`).
Input that cannot be read (an OS error, invalid UTF-8, a bad JSON line, a
truncated or padded binary file) is a `DataError` naming the file and, for
text, the line."""

import io
import json
import os
import struct
import zlib
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import DataError, at_least


def read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from None


def read_text(path) -> str:
    data = read_bytes(path)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise DataError(f"{path}:{line}: invalid UTF-8") from None


def read_jsonl(path) -> Iterator[tuple[str, dict]]:
    """("path:line", record) per non-blank line. Lines end at \\n, \\r or \\r\\n as
    in text-mode reads, not at the U+2028 that `write_jsonl` leaves raw."""
    for line_no, line in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        if not line.strip():
            continue
        where = f"{path}:{line_no}"
        try:
            record = json.loads(line)
        except (ValueError, RecursionError) as exc:  # also huge ints and deep nesting
            raise DataError(f"{where}: invalid JSON ({getattr(exc, 'msg', exc)})") from None
        if not isinstance(record, dict):
            raise DataError(f"{where}: record is not an object")
        if "\\u" in line:  # only an escape can make a lone surrogate
            try:
                json.dumps(record, ensure_ascii=False).encode("utf-8")
            except UnicodeEncodeError:
                raise DataError(f"{where}: lone surrogate escape, not valid Unicode") from None
        yield where, record


def write_jsonl(path, records: Iterable[dict]) -> None:
    """Replace `path` with one JSON object per line, non-ASCII text kept raw."""
    write_atomic(path, ((json.dumps(record, ensure_ascii=False) + "\n").encode("utf-8")
                        for record in records))


def write_u8(buf: bytearray, value: int) -> None:
    buf.append(value)


def write_u32(buf: bytearray, value: int) -> None:
    buf += struct.pack("<I", value)


def write_u32s(buf: bytearray, values: np.ndarray) -> None:
    """Non-negative integers below 2**32, as one little-endian u32 block."""
    buf += values.astype("<u4").tobytes()


def write_crc32(buf: bytearray) -> None:
    """The trailer `Reader.finish(crc32=True)` checks: the CRC-32 of `buf`."""
    write_u32(buf, zlib.crc32(buf))


def write_u64(buf: bytearray, value: int) -> None:
    buf += struct.pack("<Q", value)


def write_uvarint(buf: bytearray, value: int) -> None:
    at_least("uvarint value", value, 0)
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


def write_header(buf: bytearray, magic: bytes, version: int, checksum: int) -> None:
    """The binary formats' header: magic, format version, vocab checksum."""
    buf += magic
    write_u32(buf, version)
    write_u32(buf, checksum)


def write_atomic(path, chunks: Iterable) -> None:
    """Replace `path` with the bytes-like `chunks`, written in order, in one
    step: write a temp file in the same directory, then `os.replace` it over
    `path`. A write (or a chunk) that fails or a process killed midway leaves
    the old file whole; a failure removes the temp file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@contextmanager
def open_reader(path) -> Iterator["Reader"]:
    """A `Reader` over the file at `path`, closed when the block ends,
    whether or not it raised; an OS error opening or reading the file is a
    `DataError`."""
    try:
        # Not `open(path, "rb", buffering=Reader._CHUNK)`: there a size of 1
        # means line buffering, which a binary file warns about and ignores.
        with open(path, "rb", buffering=0) as raw, io.BufferedReader(raw, Reader._CHUNK) as fh:
            yield Reader(b"", str(path), fh)
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from None


class Reader:
    """Cursor over a binary file object: a bytes object read through
    `io.BytesIO`, or a file that `open_reader` buffered; raises DataError on
    truncation. `readinto` reads a large array's bytes from the file straight
    into the array, so a file is never held whole."""

    _CHUNK = 1 << 16  # the file buffer's size

    def __init__(self, data: bytes, name: str = "<bytes>", fh=None):
        self.name = name
        self.fh = io.BytesIO(data) if fh is None else fh
        self.size = len(data) if fh is None else os.fstat(fh.fileno()).st_size

    def remaining(self) -> int:
        return self.size - self.fh.tell()

    def need(self, n: int) -> None:
        """Raise unless n more bytes remain in the input."""
        if n > self.remaining():
            self._truncated(n, 0)

    def _truncated(self, n: int, got: int) -> None:
        """Raise for a read of n bytes that got only `got` (the offset is
        worked out only here, off the reads' path)."""
        raise DataError(f"{self.name}: truncated "
                        f"(needed {n} bytes at offset {self.fh.tell() - got})")

    def take(self, n: int) -> bytes:
        if n > self._CHUNK:  # a corrupt length must not size a read's buffer
            self.need(n)
        data = self.fh.read(n)
        if len(data) < n:  # also a file that shrank after it was opened
            self._truncated(n, len(data))
        return data

    def u8(self) -> int:
        data = self.fh.read(1)  # not `take`: this is the per-byte call of `uvarint`
        if not data:
            self._truncated(1, 0)
        return data[0]

    def readinto(self, array: np.ndarray) -> None:
        """Fill the C-contiguous `array` with the input's next bytes. Past
        what the file buffer holds, an array larger than the buffer is read
        from the file straight into place."""
        view = memoryview(array).cast("B")
        got = self.fh.readinto(view)  # short only where the input ends
        if got < len(view):
            self._truncated(len(view), got)

    def u32(self) -> int:
        return struct.unpack("<I", self.take(4))[0]

    def u32s(self, n: int) -> np.ndarray:
        """The next n little-endian u32 values, as one read-only array."""
        return np.frombuffer(self.take(4 * n), dtype="<u4")

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
                raise DataError(f"{self.name}: uvarint overflow at offset {self.fh.tell()}")

    def bytes_(self) -> bytes:
        return self.take(self.uvarint())

    def str_(self) -> str:
        try:
            return self.bytes_().decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{self.name}: invalid UTF-8 before offset "
                            f"{self.fh.tell()}") from None

    def header(self, magic: bytes, version: int, kind: str,
               checksum: Optional[int] = None) -> int:
        """Check a `write_header` header: its version `version`, its checksum
        `checksum` when given. Returns the file's checksum."""
        if self.take(len(magic)) != magic:
            raise DataError(f"{self.name}: not a {kind} file (bad magic)")
        file_version = self.u32()
        if file_version != version:
            raise DataError(f"{self.name}: unsupported {kind} version {file_version}")
        file_checksum = self.u32()
        if checksum is not None and file_checksum != checksum:
            raise DataError(f"{self.name}: vocab checksum mismatch "
                            f"(file {file_checksum:#010x}, vocab {checksum:#010x})")
        return file_checksum

    def finish(self, crc32: bool = False) -> None:
        """Raise unless every byte has been read. With `crc32`, the input
        ends in a `write_crc32` trailer: it is read, and checked against the
        bytes before it once the trailing-bytes check has passed, so a
        parse's own errors come first."""
        body = self.fh.tell()
        stored = self.u32() if crc32 else None
        if self.remaining():
            raise DataError(f"{self.name}: {self.remaining()} trailing bytes")
        if crc32:
            self.fh.seek(0)
            crc = 0
            for start in range(0, body, self._CHUNK):
                crc = zlib.crc32(self.take(min(self._CHUNK, body - start)), crc)
            if crc != stored:
                raise DataError(f"{self.name}: CRC-32 mismatch (file {stored:#010x}, "
                                f"content {crc:#010x})")
