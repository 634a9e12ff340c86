"""Ranged byte access over heterogeneous compressed sources.

Every random-access layer in the repo (zran checkpoints, the BGZF
block table, the seekable facade) ultimately needs the same primitive:
*read ``size`` compressed bytes at ``offset``* — without forcing the
whole file into memory first.  :class:`ByteSource` is that primitive,
normalising the three ways callers hold a compressed stream:

* ``bytes`` / ``bytearray`` / ``memoryview`` — zero-copy slicing
  (keeps every historical ``gz_data: bytes`` signature working);
* a filesystem path (``str`` / ``os.PathLike``) — opened lazily, reads
  are ``os.pread`` of exactly the requested range, which moves no
  shared file position, so concurrent threads need no lock;
* a seekable binary file object — used in place, never closed unless
  ownership was transferred; its ``seek`` + ``read`` pairs run under a
  per-source lock, since another thread's seek would otherwise move
  the handle between them.

Reads past EOF return short (possibly empty) results, like POSIX
``pread`` — range validation is the caller's job, because only the
caller knows the uncompressed coordinate system.
"""

from __future__ import annotations

import io
import os
import threading

from repro.errors import RandomAccessError

__all__ = ["ByteSource"]


class ByteSource:
    """Uniform ``pread``-style access to bytes, a path, or a file object.

    Parameters
    ----------
    source:
        ``bytes``-like data, a path, or a seekable binary file object.
    owns_file:
        When ``source`` is a file object, whether :meth:`close` should
        close it.  Paths are always owned; bytes never need closing.
    """

    def __init__(self, source, owns_file: bool = False) -> None:
        self._data: bytes | None = None
        self._fh = None
        self._fd: int | None = None
        self._path: str | None = None
        self._lock = threading.Lock()
        self._owns = owns_file
        self._size: int | None = None
        if isinstance(source, (bytes, bytearray, memoryview)):
            self._data = bytes(source)
            self._size = len(self._data)
        elif isinstance(source, (str, os.PathLike)):
            self._path = os.fspath(source)
            self._owns = True
        elif hasattr(source, "read") and hasattr(source, "seek"):
            self._fh = source
        else:
            raise TypeError(
                "ByteSource needs bytes, a path, or a seekable binary "
                f"file object, got {type(source).__name__}"
            )

    @classmethod
    def wrap(cls, source) -> "ByteSource":
        """Coerce ``source`` to a :class:`ByteSource` (idempotent)."""
        if isinstance(source, ByteSource):
            return source
        return cls(source)

    # -- internals ----------------------------------------------------

    def _descriptor(self) -> int:
        """The path source's descriptor, opened on first use."""
        with self._lock:
            if self._fd is None:
                self._fd = os.open(self._path, os.O_RDONLY)
            return self._fd

    def _file(self):
        if self._fh is None:
            raise RandomAccessError("byte source is closed", stage="io")
        return self._fh

    # -- ranged access ------------------------------------------------

    def pread(self, offset: int, size: int) -> bytes:
        """Read up to ``size`` bytes at absolute ``offset``.

        Returns short (or empty) data at EOF; never raises for
        past-the-end ranges.
        """
        if offset < 0:
            raise RandomAccessError(
                f"negative read offset {offset}", stage="io"
            )
        if size < 0:
            raise RandomAccessError(
                f"negative read size {size}", stage="io"
            )
        if self._data is not None:
            return self._data[offset : offset + size]
        if self._path is not None:
            fd = self._descriptor()
            parts = []
            # A single pread may return short before EOF (Linux caps
            # one read at ~2 GiB); an empty read is EOF.
            while size > 0:
                got = os.pread(fd, size, offset)
                if not got:
                    break
                parts.append(got)
                offset += len(got)
                size -= len(got)
            return b"".join(parts)
        with self._lock:
            fh = self._file()
            fh.seek(offset)
            return fh.read(size)

    def size(self) -> int:
        """Total byte length of the underlying source (cached)."""
        if self._size is None:
            if self._path is not None:
                self._size = os.fstat(self._descriptor()).st_size
            else:
                with self._lock:
                    self._size = self._file().seek(0, io.SEEK_END)
        return self._size

    def read_all(self) -> bytes:
        """The entire source as bytes (for whole-stream passes like an
        index build, which must decode everything anyway)."""
        if self._data is not None:
            return self._data
        return self.pread(0, self.size())

    @property
    def is_in_memory(self) -> bool:
        """True when the source is a bytes buffer (no file I/O)."""
        return self._data is not None

    # -- lifecycle ----------------------------------------------------

    def close(self) -> None:
        """Close the owned file handle, if any (idempotent).

        A borrowed file object (``owns_file=False``) is left open and
        usable — closing it is its owner's job.  A path source reopens
        on its next read."""
        with self._lock:
            if self._fd is not None:
                os.close(self._fd)
                self._fd = None
            if self._fh is not None and self._owns:
                self._fh.close()
                self._fh = None

    def __enter__(self) -> "ByteSource":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
