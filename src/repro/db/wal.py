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

In memory the log is a list of segments, not one buffer, and a BLOB is
logged *by reference*: see :class:`WriteAheadLog`.
"""

from __future__ import annotations

import io
import struct
import zlib
from typing import Any, BinaryIO, Iterable, Iterator, List, Tuple

from repro.errors import DatabaseError

__all__ = ["WriteAheadLog", "encode_frame", "encode_value", "decode_value"]

# -- value codec -----------------------------------------------------------

_TAG_NONE = ord("N")
_TAG_INT = ord("I")
_TAG_REAL = ord("R")
_TAG_TEXT = ord("S")
_TAG_BLOB = ord("B")
_TAG_LIST = ord("L")

_U32 = struct.Struct("<I").pack
_F64 = struct.Struct("<d").pack
_U32_AT = struct.Struct("<I").unpack_from
_F64_AT = struct.Struct("<d").unpack_from
_FRAME_HEADER = struct.Struct("<II")


def _encode_items(items: Any, add: Any, blob: Any) -> None:
    """Append the encoding of each of *items* to a parts list, via *add*;
    the bytes of a BLOB go to *blob* instead, as the caller's own object.

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
            _encode_items(value, add, blob)
        elif kind is bytes:
            add(b"B" + _U32(len(value)))
            blob(value)  # may be megabytes: handed on, never copied here
        else:
            _encode_items((_plain(value),), add, blob)


def _plain(value: Any) -> Any:
    """The exact-typed equal of a subclass instance or ``bytearray``."""
    if isinstance(value, bool):
        raise DatabaseError("booleans are not storable")
    for base, exact in ((int, int), (float, float), (str, str),
                        ((bytes, bytearray), bytes), ((list, tuple), list)):
        if isinstance(value, base):
            return exact(value)
    raise DatabaseError(f"cannot encode {type(value).__name__}")


def encode_value(value: Any, out: BinaryIO) -> None:
    """Append the binary encoding of *value* to *out*."""
    parts: list = []
    _encode_items((value,), parts.append, parts.append)
    out.write(b"".join(parts))


def decode_value(buf: BinaryIO) -> Any:
    """Decode one value from *buf* (inverse of :func:`encode_value`)."""
    data = buf.read()
    value, end = _decode_at(data, 0, len(data))
    buf.seek(end - len(data), io.SEEK_CUR)
    return value


def _decode_at(data: bytes, pos: int, end: int) -> Tuple[Any, int]:
    """Decode in place the value that starts at ``data[pos]`` and must
    stop by *end*; returns it and the offset just past it.  The only
    copy made is the decoded value's own slice."""
    if pos >= end:
        raise DatabaseError("truncated value")
    tag = data[pos]
    pos += 1
    if tag == _TAG_NONE:
        return None, pos
    if tag == _TAG_REAL:
        if pos + 8 > end:
            raise DatabaseError("truncated value")
        return _F64_AT(data, pos)[0], pos + 8
    if tag not in (_TAG_INT, _TAG_TEXT, _TAG_BLOB, _TAG_LIST):
        raise DatabaseError(f"unknown value tag {bytes((tag,))!r}")
    if pos + 4 > end:
        raise DatabaseError("truncated value")
    (n,) = _U32_AT(data, pos)
    pos += 4
    if tag == _TAG_LIST:
        out = []
        for _ in range(n):
            value, pos = _decode_at(data, pos, end)
            out.append(value)
        return out, pos
    stop = pos + n
    if stop > end:
        raise DatabaseError("truncated value")
    raw = data[pos:stop]
    if tag == _TAG_INT:
        return int(raw), stop
    return (raw if tag == _TAG_BLOB else raw.decode("utf-8")), stop


# -- the log -----------------------------------------------------------------

def encode_frame(record: Tuple[Any, ...]) -> Tuple[List[bytes], int]:
    """*record* as the segments of one CRC-framed record, and their size
    (a BLOB is a segment of its own: the caller's object, see
    :class:`WriteAheadLog`)."""
    # To the codec a record is a list: its header is written here and
    # its items go straight to the encoder, one call less per frame.
    parts: list = [b"L" + _U32(len(record))]
    blobs: list = []
    _encode_items(record, parts.append, blobs.append)
    if not blobs:
        payload = b"".join(parts)
        nbytes = len(payload)
        return [_FRAME_HEADER.pack(nbytes, zlib.crc32(payload)) + payload], \
            nbytes + 8
    segments = _splice(parts, blobs)
    crc, nbytes = 0, 8
    for segment in segments:  # one CRC over the frame, chained
        crc = zlib.crc32(segment, crc)
        nbytes += len(segment)
    segments[0] = _FRAME_HEADER.pack(nbytes - 8, crc) + segments[0]
    return segments, nbytes


def _splice(parts: List[bytes], blobs: List[bytes]) -> List[bytes]:
    """A frame's payload as segments: each of *blobs* as the object it
    is, behind the part that announces it (every part starts with its
    tag byte, so those are the ``B`` ones), the parts in between joined."""
    segments: List[bytes] = []
    start, values = 0, iter(blobs)
    for stop, part in enumerate(parts, 1):
        if part[0] == _TAG_BLOB:
            segments += (b"".join(parts[start:stop]), next(values))
            start = stop
    segments.append(b"".join(parts[start:]))
    return segments


class WriteAheadLog:
    """An append-only record log over a list of byte segments.

    The log lives in memory (deterministic, fast, no filesystem
    involvement in simulations); pass ``data`` to recover an existing
    log image, which is kept as the one segment it is.  A frame is one
    segment — header and encoded values joined — unless the record holds
    BLOBs: each of those stays the caller's own ``bytes`` object (the
    one the heap row holds), a segment between the joined runs around
    it, so a megabyte executable is neither copied nor held twice.
    That is safe because ``bytes`` is immutable and the codec hands on
    nothing else (:func:`_plain` copies a ``bytearray``); the fault
    drills that do write into the image (:meth:`truncate`,
    :meth:`corrupt`) flatten it into a buffer of the log's own first.

    The log is append-only between two calls of :meth:`compact`, which
    swaps in a whole new image of the caller's making.
    """

    def __init__(self, data: bytes = b""):
        self._segments: List[bytes] = [bytes(data)] if data else []
        self._size = len(data)
        # The durability floor: the size of the last compacted image.  A
        # real WAL recycles old segments only once the checkpoint that
        # replaces them is synced, so no crash cuts into it.
        self._floor = 0
        #: Optional pure observer, called as ``observer(delta, total)``
        #: after every size change (append/truncate/reset/compact).  The WAL
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
        segments, nbytes = encode_frame(record)
        self._segments += segments
        self._size += nbytes
        if self.observer is not None:
            self.observer(nbytes, self._size)
        for tap in self.taps:
            tap(record)
        return nbytes

    def compact(self, frames: Iterable[Tuple[List[bytes], int]]) -> None:
        """Replace the whole log by *frames* (of :func:`encode_frame`,
        which the caller may keep and hand in again), silently.

        The caller vouches that they replay to the state the log holds:
        whoever tails the log has that state already, so no tap fires,
        and the observer sees the one net size change.  The new image is
        built aside and swapped in whole, and becomes the floor below
        which :meth:`truncate` cannot cut.
        """
        image: List[bytes] = []
        size = 0
        for segments, nbytes in frames:
            image += segments
            size += nbytes
        delta = size - self._size
        self._segments, self._size, self._floor = image, size, size
        if self.observer is not None and delta:
            self.observer(delta, size)

    def snapshot(self) -> bytes:
        """The full log image (for persistence or crash simulation)."""
        return b"".join(self._segments)

    def size(self) -> int:
        return self._size

    def _flatten(self) -> bytearray:
        """The image as one private, writable segment (fault drills
        only): nothing the log shares with a heap row is ever mutated."""
        image = bytearray().join(self._segments)
        self._segments = [image]
        return image

    def truncate(self, nbytes: int) -> None:
        """Chop the log to its first *nbytes* bytes (simulates a crash);
        never to less than the last compacted image."""
        if nbytes < 0:
            raise DatabaseError(f"cannot truncate a log to {nbytes} bytes")
        nbytes = max(nbytes, self._floor)
        if nbytes >= self._size:
            return
        del self._flatten()[nbytes:]
        delta, self._size = nbytes - self._size, nbytes
        if self.observer is not None:
            self.observer(delta, nbytes)

    def corrupt(self, offset: int) -> None:
        """Flip a byte at *offset* (simulates media corruption)."""
        if 0 <= offset < self._size:
            self._flatten()[offset] ^= 0xFF

    def reset(self) -> None:
        """Discard all records."""
        self.compact(())

    # -- reading -----------------------------------------------------------------

    def records(self) -> Iterator[Tuple[Any, ...]]:
        """Yield records up to the first torn/corrupt frame.

        A damaged tail silently ends iteration — that is WAL recovery
        semantics, not an error.  Frames are checked and decoded in
        place on the image (a recovered log's single segment is that
        image; a live log is joined once).
        """
        image = self.snapshot()
        view = memoryview(image)
        pos = 0
        while pos + 8 <= len(image):
            length, crc = _FRAME_HEADER.unpack_from(image, pos)
            start = pos + 8
            end = start + length
            if end > len(image):
                return  # torn tail
            if zlib.crc32(view[start:end]) != crc:
                return  # corrupt frame
            try:
                record, _ = _decode_at(image, start, end)
            except DatabaseError:
                return
            yield tuple(record)
            pos = end

    def __len__(self) -> int:
        return sum(1 for _ in self.records())
