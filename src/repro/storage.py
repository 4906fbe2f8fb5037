"""Durable files: one frame, one salvage scan, atomic publish, staged streams.

Everything written to survive a kill goes through this module; callers
keep the policy (what a body means, salvage or refuse, version checks).

**The frame** — columnar trace chunks (magic ``RCOL``) and job-journal
records (``RJNL``) share one self-delimiting layout, little-endian::

    frame := magic(4) | body_len:u32 | body | crc32(body):u32 | total_len:u32

``total_len`` is ``body_len + 16``, the whole frame.  A framed file is a
flat sequence of frames; :class:`FrameScan` yields the bodies of its
longest valid prefix, stopping at the first frame that is short, carries
another magic, or fails its length or CRC check, and never raises.  It
reads every frame it passes, so its cost is linear in the file size.
Walked in ``reversed`` order it steps back from the end over each
frame's ``total_len`` instead, so reading the last frame costs that frame.

**Publishing** — :func:`publish` writes ``<name>.tmp``, fsyncs it and
renames it over the target, so readers see the old file or the new one.
:class:`Stream` writes one record per ``write(2)``, staged at
``<name>.tmp`` and renamed into place on close (a killed writer leaves
the ``.tmp`` for salvage), or appended in place.

>>> log = frame(b"RJNL", b"first") + frame(b"RJNL", b"second")
>>> scan = FrameScan(log[:-3], b"RJNL")      # the second frame is torn
>>> list(scan), scan.end, scan.error
([b'first'], 21, 'torn frame body (truncated file?)')
>>> scan.next_frame() is None                # nothing valid past the tear
True
>>> list(reversed(FrameScan(log, b"RJNL")))  # last frame first
[b'second', b'first']
"""

from __future__ import annotations

import os
import struct
import zlib
from pathlib import Path
from typing import Iterator, Optional, Tuple, Union

from repro.execution import faults

__all__ = [
    "STAGING_SUFFIX",
    "FrameScan",
    "Stream",
    "frame",
    "publish",
    "staging_path",
    "truncate",
]

STAGING_SUFFIX = ".tmp"
"""Suffix of a file still being written; directory listings skip it."""

_HEAD = struct.Struct("<4sI")   # magic, body_len
_FOOT = struct.Struct("<II")    # crc32(body), total_len
_OVERHEAD = _HEAD.size + _FOOT.size
_U32 = struct.Struct("<I")      # the trailing total_len alone


def frame(magic: bytes, body: bytes) -> bytes:
    """Wrap ``body`` in one frame."""
    return b"".join((
        _HEAD.pack(magic, len(body)),
        body,
        _FOOT.pack(zlib.crc32(body), len(body) + _OVERHEAD),
    ))


class FrameScan:
    """Iterate the bodies of the longest valid prefix of frames in ``data``.

    ``data`` is ``bytes`` or an ``mmap``.  While iterating, :attr:`end` is
    the offset of the frame just yielded; afterwards it is where the valid
    prefix ends, and :attr:`error` says why the scan stopped short of
    ``len(data)`` (``None`` if it did not).
    """

    def __init__(self, data, magic: bytes) -> None:
        self.data = data
        self.magic = magic
        self.end = 0
        self.error: Optional[str] = None

    def __iter__(self) -> Iterator[bytes]:
        self.end, self.error = 0, None
        while self.end < len(self.data):
            body, self.error = self._frame_at(self.end)
            if body is None:
                return
            yield body
            self.end += len(body) + _OVERHEAD

    def __reversed__(self) -> Iterator[bytes]:
        """Iterate the bodies of the longest valid suffix of frames, last first.

        Each step reads the trailing ``total_len`` of the frame that ends
        at the current offset and checks that frame whole, CRC included.
        While iterating, :attr:`end` is the offset of the frame just
        yielded; afterwards it is where the valid suffix starts (``0`` when
        every frame checks out), and :attr:`error` says why the walk
        stopped short of offset 0.
        """
        self.end, self.error = len(self.data), None
        while self.end > 0:
            body = None
            if self.end >= _OVERHEAD:
                (total_len,) = _U32.unpack_from(self.data, self.end - _U32.size)
                if _OVERHEAD <= total_len <= self.end:
                    body, self.error = self._frame_at(self.end - total_len)
            if body is None or len(body) + _OVERHEAD != total_len:
                self.error = self.error or "CRC or length mismatch (corrupt frame)"
                return
            self.end -= total_len
            yield body

    def next_frame(self) -> Optional[int]:
        """Offset of the first valid frame at or after :attr:`end`, if any.

        ``None`` means the bytes past ``end`` are a torn tail.
        """
        pos = self.data.find(self.magic, self.end)
        while pos != -1:
            if self._frame_at(pos)[0] is not None:
                return pos
            pos = self.data.find(self.magic, pos + 1)
        return None

    def _frame_at(self, pos: int) -> Tuple[Optional[bytes], Optional[str]]:
        size = len(self.data)
        if size - pos < _OVERHEAD:
            return None, "torn frame header (truncated file?)"
        magic, body_len = _HEAD.unpack_from(self.data, pos)
        if magic != self.magic:
            return None, "bad magic (not a frame boundary)"
        end = pos + body_len + _OVERHEAD
        if end > size:
            return None, "torn frame body (truncated file?)"
        body = bytes(self.data[pos + _HEAD.size:end - _FOOT.size])
        crc, total_len = _FOOT.unpack_from(self.data, end - _FOOT.size)
        if crc != zlib.crc32(body) or total_len != end - pos:
            return None, "CRC or length mismatch (corrupt frame)"
        return body, None


def staging_path(path: Union[str, Path]) -> Path:
    """Where ``path`` is written before it is published: ``<name>.tmp``."""
    path = Path(path)
    return path.with_name(path.name + STAGING_SUFFIX)


def publish(
    path: Union[str, Path], *chunks: bytes, before_rename: Optional[str] = None
) -> Path:
    """Atomically replace ``path`` with the concatenated ``chunks``.

    ``before_rename`` names a crashpoint between the durable staging
    write and the rename.
    """
    tmp = staging_path(path)
    with tmp.open("wb") as handle:
        handle.writelines(chunks)
        handle.flush()
        os.fsync(handle.fileno())
    if before_rename is not None:
        faults.crashpoint(before_rename)
    os.replace(tmp, path)
    return Path(path)


def truncate(path: Union[str, Path], size: int) -> None:
    """Durably cut ``path`` to its first ``size`` bytes."""
    with open(path, "r+b") as handle:
        handle.truncate(size)
        handle.flush()
        os.fsync(handle.fileno())


class Stream:
    """A file written one record per ``write(2)``, durable after :meth:`sync`.

    ``staged=True`` creates ``<name>.tmp`` at the first record, and
    :meth:`close` syncs it and renames it over ``path`` (no record, no
    file); ``staged=False`` opens ``path`` for appending at once, and its
    owner syncs what it acknowledges.  On the fatal visit of crashpoint
    ``torn_site`` (if given) a write stores half its record (at least one
    byte), syncs and dies; ``after_site`` dies after a whole synced record.
    """

    def __init__(
        self,
        path: Union[str, Path],
        torn_site: Optional[str] = None,
        after_site: Optional[str] = None,
        *,
        staged: bool = True,
    ) -> None:
        self.path = Path(path)
        self.staged = staged
        self._torn_site = torn_site
        self._after_site = after_site
        self._file = None if staged else self.path.open("ab", buffering=0)

    def write(self, record: bytes) -> None:
        if self._file is None:
            self._file = staging_path(self.path).open("wb", buffering=0)
        if self._torn_site is not None and faults.should_trip(self._torn_site):
            self._file.write(record[: max(1, len(record) // 2)])
            self.sync()
            faults.trip(self._torn_site)
        done = self._file.write(record)
        while done < len(record):  # a short write, e.g. on a full disk
            done += self._file.write(memoryview(record)[done:])
        if self._after_site is not None and faults.should_trip(self._after_site):
            self.sync()
            faults.trip(self._after_site)

    def sync(self) -> None:
        if self._file is not None:
            os.fsync(self._file.fileno())

    def close(self) -> None:
        """Release the file; a staged stream is synced and published first."""
        if self._file is None:
            return
        if self.staged:
            self.sync()
        self._file.close()
        if self.staged:  # the next record, if any, starts a new staging file
            self._file = None
            os.replace(staging_path(self.path), self.path)
