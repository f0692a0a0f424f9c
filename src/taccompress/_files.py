"""The file boundary: no other module opens a file.  A source is bytes, a
path (``str`` or any ``os.PathLike``) or a binary stream; a sink is a path
or a binary stream."""

import io
import os

from .errors import FormatError


def source(x):
    """A binary stream over ``x``; a path's file is read whole."""
    if isinstance(x, (bytes, bytearray)):
        return io.BytesIO(x)
    if isinstance(x, (str, os.PathLike)):
        with open(x, "rb") as fh:
            return io.BytesIO(fh.read())
    return x


def read_exact(stream, n: int, what: str) -> bytes:
    """The next ``n`` bytes, read at most 1 MiB at a time: a forged length
    runs out of input, not of memory."""
    chunks = []
    while n > 0:
        chunks.append(stream.read(min(n, 1 << 20)))
        if not chunks[-1]:
            raise FormatError(f"truncated {what}")
        n -= len(chunks[-1])
    return b"".join(chunks)


def read_utf8(path) -> str:
    try:
        return source(path).read().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{os.fspath(path)} is not UTF-8 text: {exc}") from None


def write(sink, data: bytes) -> int:
    """Write ``data`` and return its length.  A path that is absent or a
    regular file is replaced atomically by a new file, created with the mode
    ``open(path, "wb")`` gives a new file; any other path (a FIFO) is written
    in place.  Symbolic links are followed, and no directory is created."""
    if not isinstance(sink, (str, os.PathLike)):
        sink.write(data)
        return len(data)
    path = os.path.realpath(sink)
    atomic = os.path.isfile(path) or not os.path.exists(path)
    tmp = f"{path}.{os.urandom(6).hex()}.tmp" if atomic else path
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | (os.O_EXCL if atomic else os.O_TRUNC), 0o666)
    try:
        with open(fd, "wb") as fh:
            fh.write(data)
        if atomic:
            os.replace(tmp, path)
    except BaseException:
        if atomic:
            os.unlink(tmp)
        raise
    return len(data)
