"""The one reader for the binary formats: fixed-binary metadata, update
envelopes, the device's install status, the controller state file, the flash
image and the repository's private state. (The 136-byte token has no variable part: it is kept as its
bytes and read through one ``struct`` layout.) It is also the one place the
program opens a file: ``read_file`` reads one, turning any failure into a
ParseError, and ``write_file`` replaces one whole. ``cached`` keeps a value an
object computes once, such as an encoding of a metadata value.

Decoders accept exactly what the encoders write: a flag byte is 0 or 1, a
string is a u16 length followed by that many bytes of UTF-8, a keyed list is
strictly increasing, and no byte may follow the last field. Every rejection is a ParseError whose position is a
byte offset. Encoders stay plain ``struct.pack`` calls.
"""

from __future__ import annotations

import contextlib
import os
import stat
import struct

from .errors import ParseError, WriteFailed


class Reader:
    """Reads fields in order from ``data``; ``what`` names the field in errors."""

    def __init__(self, data: bytes, offset: int = 0) -> None:
        self.data = data
        self.offset = offset

    def take(self, n: int, what: str) -> bytes:
        at = self.offset
        if at + n > len(self.data):
            raise ParseError(f"truncated {what}", position=at)
        self.offset = at + n
        return self.data[at : at + n]

    def u8(self, what: str) -> int:
        return self.take(1, what)[0]

    def u16(self, what: str) -> int:
        return struct.unpack(">H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack(">I", self.take(4, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack(">Q", self.take(8, what))[0]

    def flag(self, what: str) -> bool:
        value = self.u8(what)
        if value > 1:
            raise ParseError(f"{what} {value} is not 0 or 1", position=self.offset - 1)
        return value == 1

    def text(self, what: str) -> str:
        """A u16-length UTF-8 string."""
        raw = self.take(self.u16(f"{what} length"), what)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} is not utf-8", position=self.offset - len(raw) + exc.start) from exc

    def increasing(self, count: int, read, what: str, rank=None):
        """Yield ``count`` keys, each read by ``read(what)`` and each ranking
        strictly above the one before (by ``rank(key)``, default the key).
        Keyed lists are written sorted and distinct, so a repeat or a swap is
        a ParseError at the offending key's offset."""
        previous = None
        for _ in range(count):
            at = self.offset
            key = read(what)
            order = key if rank is None else rank(key)
            if previous is not None and order <= previous:
                raise ParseError(f"{what} out of order or repeated", position=at)
            previous = order
            yield key

    def end(self, what: str) -> None:
        if self.offset != len(self.data):
            raise ParseError(f"trailing bytes after {what}", position=self.offset)


def read_file(path: str, name: str | None = None) -> bytes:
    """A file's bytes; a file that cannot be read is a ParseError whose
    position is ``name`` (default: the path), "missing file" if it does not exist."""
    try:
        with open(path, "rb") as fh:
            return fh.read()
    except OSError as exc:
        message = "missing file" if isinstance(exc, FileNotFoundError) else f"cannot read file: {type(exc).__name__}"
        raise ParseError(message, position=path if name is None else name) from exc


def write_file(path: str, data: bytes) -> None:
    """Replace the file at ``path`` whole with ``data``: the bytes go to a
    temporary file beside it, which is synced to disk and then renamed over
    ``path``, so a write that fails leaves the previous file as it was. The
    new file keeps the mode of the one it replaces; a new path gets the mode
    ``open`` gives. The temporary name is short, so any target name that fits
    the file system has one. A failure is a WriteFailed naming ``path``."""
    temporary = os.path.join(os.path.dirname(path), f".{os.urandom(8).hex()}.tmp")
    try:
        with open(temporary, "xb") as fh:
            try:
                with contextlib.suppress(FileNotFoundError):
                    os.fchmod(fh.fileno(), stat.S_IMODE(os.stat(path).st_mode))
                fh.write(data)
                fh.flush()
                os.fsync(fh.fileno())
                fh.close()
                os.replace(temporary, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.remove(temporary)
                raise
    except OSError as exc:
        raise WriteFailed(f"cannot write {path}: {type(exc).__name__}") from exc


class cached:
    """A value computed once per object, on first access: like
    ``functools.cached_property``, the value is stored in the object's
    ``__dict__`` under the method's name (so ``vars`` shows it), where later
    lookups find it before this non-data descriptor, and frozen dataclasses
    allow it. Unlike it, no lock is taken (on Python 3.11 a class-wide one,
    about 0.8 µs per first access): two threads that both miss compute it
    twice, and the later store wins."""

    def __init__(self, func) -> None:
        self.func = func
        self.name = func.__name__
        self.__doc__ = func.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def flip_bit(data: bytes, bit_offset: int) -> bytes:
    """``data`` with one bit inverted, the offset taken modulo its bit length;
    empty input comes back unchanged."""
    if not data:
        return data
    bit = bit_offset % (len(data) * 8)
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)
