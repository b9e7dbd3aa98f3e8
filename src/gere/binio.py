"""Every file gere reads or writes goes through here: UTF-8 text and JSON
lines, atomic writes, and the header and little-endian fields of the trie and
checkpoint formats, read from bytes or streamed from a file (`open_reader`).
Input that cannot be read (an OS error, invalid UTF-8, a bad JSON line, a
truncated or padded binary file) is a `DataError` naming the file and, for
text, the line."""

import io
import json
import os
import struct
from contextlib import contextmanager
from pathlib import Path
from typing import Iterable, Iterator, Optional

import numpy as np

from .errors import DataError


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
        with open(path, "rb", buffering=0) as fh:
            yield Reader(b"", str(path), fh)
    except OSError as exc:
        raise DataError(f"{path}: cannot read ({exc.strerror})") from None


class Reader:
    """Cursor over a bytes object, or over an open file (`open_reader`) read
    in chunks; raises DataError on truncation. Small fields come out of
    `data`, the window of the input from offset `base` on, and `readinto`
    reads an array's bytes from the file straight into the array, so a file
    is never held whole."""

    _CHUNK = 1 << 16

    def __init__(self, data: bytes, name: str = "<bytes>", fh=None):
        self.data = data
        self.base = 0
        self.pos = 0  # in `data`; the input offset is base + pos
        self.name = name
        self.fh = fh
        self.size = len(data) if fh is None else os.fstat(fh.fileno()).st_size

    def remaining(self) -> int:
        return self.size - self.base - self.pos

    def need(self, n: int) -> None:
        """Raise unless n more bytes remain in the input."""
        if n > self.remaining():
            raise DataError(f"{self.name}: truncated "
                            f"(needed {n} bytes at offset {self.base + self.pos})")

    def _fill(self, n: int) -> None:
        """Make data[0:n] the input's next n bytes: the rest of the window,
        then the next chunk of the file."""
        self.need(n)
        rest = self.data[self.pos :]
        self.base += self.pos
        self.data = b""
        self.pos = 0
        more = self.fh.read(min(max(n, self._CHUNK), self.remaining()) - len(rest))
        self.data = rest + more if rest else more
        if len(self.data) < n:  # the file shrank after it was opened
            raise DataError(f"{self.name}: truncated (needed {n} bytes at offset {self.base})")

    def take(self, n: int) -> bytes:
        pos = self.pos
        if pos + n > len(self.data):
            self._fill(n)
            pos = 0
        self.pos = pos + n
        return self.data[pos : pos + n]

    def u8(self) -> int:
        pos = self.pos  # read in place: this is the per-byte call of `uvarint`
        if pos >= len(self.data):
            self._fill(1)
            pos = 0
        self.pos = pos + 1
        return self.data[pos]

    def readinto(self, array: np.ndarray) -> None:
        """Fill the C-contiguous `array` with the input's next bytes: what the
        window holds of them is copied, the rest is read from the file
        straight into the array."""
        view = memoryview(array).cast("B")
        n = len(view)
        pos = self.pos
        window = memoryview(self.data)  # slices of it copy nothing
        if pos + n <= len(window):
            view[:] = window[pos : pos + n]
            self.pos = pos + n
            return
        self.need(n)
        have = len(window) - pos
        view[:have] = window[pos:]
        self.base += len(self.data)  # the window is spent
        self.data = b""
        self.pos = 0
        while have < n:
            got = self.fh.readinto(view[have:])
            if not got:  # the file shrank after it was opened
                raise DataError(f"{self.name}: truncated "
                                f"(needed {n - have} bytes at offset {self.base})")
            have += got
            self.base += got

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
                raise DataError(f"{self.name}: uvarint overflow at offset {self.base + self.pos}")

    def bytes_(self) -> bytes:
        return self.take(self.uvarint())

    def str_(self) -> str:
        try:
            return self.bytes_().decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{self.name}: invalid UTF-8 before offset "
                            f"{self.base + self.pos}") from None

    def header(self, magic: bytes, version: int, kind: str,
               checksum: Optional[int] = None) -> int:
        """Check a `write_header` header (the checksum when given); returns the file's."""
        if self.take(len(magic)) != magic:
            raise DataError(f"{self.name}: not a {kind} file (bad magic)")
        got = self.u32()
        if got != version:
            raise DataError(f"{self.name}: unsupported {kind} version {got}")
        file_checksum = self.u32()
        if checksum is not None and file_checksum != checksum:
            raise DataError(f"{self.name}: vocab checksum mismatch "
                            f"(file {file_checksum:#010x}, vocab {checksum:#010x})")
        return file_checksum

    def finish(self) -> None:
        """Raise unless every byte has been read."""
        if self.remaining():
            raise DataError(f"{self.name}: {self.remaining()} trailing bytes")
