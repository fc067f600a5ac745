"""Write-ahead log with CRC-framed records and crash recovery.

Record framing on the wire::

    [4-byte little-endian payload length][4-byte CRC32][payload]

A torn tail (truncated record or bad checksum) marks the end of the
usable log, exactly as in real WAL recovery.  The engine writes one
record per DDL statement and one per *committed* transaction —
``("txn", id, [dml, ...])`` — so a frame that passes its CRC is a whole
unit and everything before the tear is replayed as it stands.

Payloads are encoded with a tiny self-describing binary format (no
pickle): type-tagged values composed into record tuples.
"""

from __future__ import annotations

import io
import struct
import zlib
from typing import Any, BinaryIO, Iterator, Tuple

from repro.errors import DatabaseError

__all__ = ["WriteAheadLog", "encode_value", "decode_value"]

# -- value codec -----------------------------------------------------------

_TAG_NONE = b"N"
_TAG_INT = b"I"
_TAG_REAL = b"R"
_TAG_TEXT = b"S"
_TAG_BLOB = b"B"
_TAG_LIST = b"L"

_U32 = struct.Struct("<I").pack
_F64 = struct.Struct("<d").pack
_FRAME_HEADER = struct.Struct("<II")


def _encode_items(items: Any, add: Any) -> None:
    """Append the encoding of each of *items* to a parts list, via *add*.

    One flat pass: scalars are encoded inline on their exact type and
    only a nested list costs a call; subclasses and ``bytearray`` go
    round once more as their plain equal.  The tag bytes are spelled as
    literals here (the ``_TAG_*`` names above) — a global lookup per
    value is a quarter of this loop.
    """
    for value in items:
        kind = type(value)
        if kind is str:
            raw = value.encode()
            add(b"S" + _U32(len(raw)) + raw)
        elif kind is int:
            raw = b"%d" % value
            add(b"I" + _U32(len(raw)) + raw)
        elif kind is float:
            add(b"R" + _F64(value))
        elif value is None:
            add(b"N")
        elif kind is list or kind is tuple:
            add(b"L" + _U32(len(value)))
            _encode_items(value, add)
        elif kind is bytes:
            add(b"B" + _U32(len(value)))
            add(value)  # a BLOB may be megabytes: joined, never copied twice
        else:
            _encode_items((_plain(value),), add)


def _plain(value: Any) -> Any:
    """The exact-typed equal of a subclass instance or ``bytearray``."""
    if isinstance(value, bool):
        raise DatabaseError("booleans are not storable")
    for base, exact in ((int, int), (float, float), (str, str),
                        ((bytes, bytearray), bytes), ((list, tuple), list)):
        if isinstance(value, base):
            return exact(value)
    raise DatabaseError(f"cannot encode {type(value).__name__}")


def _encode(value: Any) -> bytes:
    parts: list = []
    _encode_items((value,), parts.append)
    return b"".join(parts)


def encode_value(value: Any, out: BinaryIO) -> None:
    """Append the binary encoding of *value* to *out*."""
    out.write(_encode(value))


def decode_value(buf: BinaryIO) -> Any:
    """Decode one value from *buf* (inverse of :func:`encode_value`)."""
    tag = buf.read(1)
    if not tag:
        raise DatabaseError("truncated value")
    if tag == _TAG_NONE:
        return None
    if tag == _TAG_INT:
        (n,) = struct.unpack("<I", _need(buf, 4))
        return int(_need(buf, n).decode())
    if tag == _TAG_REAL:
        (v,) = struct.unpack("<d", _need(buf, 8))
        return v
    if tag == _TAG_TEXT:
        (n,) = struct.unpack("<I", _need(buf, 4))
        return _need(buf, n).decode("utf-8")
    if tag == _TAG_BLOB:
        (n,) = struct.unpack("<I", _need(buf, 4))
        return _need(buf, n)
    if tag == _TAG_LIST:
        (n,) = struct.unpack("<I", _need(buf, 4))
        return [decode_value(buf) for _ in range(n)]
    raise DatabaseError(f"unknown value tag {tag!r}")


def _need(buf: BinaryIO, n: int) -> bytes:
    data = buf.read(n)
    if len(data) != n:
        raise DatabaseError("truncated value")
    return data


# -- the log -----------------------------------------------------------------

class WriteAheadLog:
    """An append-only record log over a bytes buffer.

    The log owns an in-memory ``bytearray`` by default (deterministic,
    fast, no filesystem involvement in simulations); pass ``data`` to
    recover an existing log image.
    """

    def __init__(self, data: bytes = b""):
        self._buf = bytearray(data)
        #: Optional pure observer, called as ``observer(delta, total)``
        #: after every size change (append/truncate/reset).  The WAL
        #: layer stays telemetry-free; :class:`~repro.db.dbmanager
        #: .DbManager` hangs the log-pressure gauge and ``wal.append``
        #: events off this hook.
        self.observer = None
        #: Record-level taps, each called as ``tap(record)`` after the
        #: frame is durable.  This is the replication hook: a
        #: :class:`~repro.db.replica.ReadReplica` registers a tap to
        #: ship the logical record stream.  Taps are pure (no sim
        #: events) and see records in exact append order.
        self.taps = []

    # -- writing --------------------------------------------------------------

    def append(self, record: Tuple[Any, ...]) -> int:
        """Append *record*; returns the encoded record size in bytes."""
        payload = _encode(record)
        frame = _FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload
        self._buf.extend(frame)
        if self.observer is not None:
            self.observer(len(frame), len(self._buf))
        for tap in self.taps:
            tap(record)
        return len(frame)

    def snapshot(self) -> bytes:
        """The full log image (for persistence or crash simulation)."""
        return bytes(self._buf)

    def size(self) -> int:
        return len(self._buf)

    def truncate(self, nbytes: int) -> None:
        """Chop the log to its first *nbytes* bytes (simulates a crash)."""
        before = len(self._buf)
        del self._buf[nbytes:]
        if self.observer is not None and len(self._buf) != before:
            self.observer(len(self._buf) - before, len(self._buf))

    def corrupt(self, offset: int) -> None:
        """Flip a byte at *offset* (simulates media corruption)."""
        if 0 <= offset < len(self._buf):
            self._buf[offset] ^= 0xFF

    def reset(self) -> None:
        """Discard all records (checkpoint complete)."""
        before = len(self._buf)
        self._buf.clear()
        if self.observer is not None and before:
            self.observer(-before, 0)

    # -- reading -----------------------------------------------------------------

    def records(self) -> Iterator[Tuple[Any, ...]]:
        """Yield records up to the first torn/corrupt frame.

        A damaged tail silently ends iteration — that is WAL recovery
        semantics, not an error.
        """
        pos = 0
        buf = self._buf
        while pos + 8 <= len(buf):
            length, crc = struct.unpack_from("<II", buf, pos)
            start = pos + 8
            end = start + length
            if end > len(buf):
                return  # torn tail
            payload = bytes(buf[start:end])
            if zlib.crc32(payload) != crc:
                return  # corrupt frame
            try:
                record = decode_value(io.BytesIO(payload))
            except DatabaseError:
                return
            yield tuple(record)
            pos = end

    def __len__(self) -> int:
        return sum(1 for _ in self.records())
