"""File access, all of it through ``read_bytes`` and ``write_file``, and the embedding formats.

Binary "EMB1": magic bytes ``EMB1``, u32 little-endian n, u32 little-endian
d, then n*d little-endian f32 values row-major, then a u8 label flag and,
when the flag is 1, n u32 labels.  The flag may be left out (no labels);
bytes after the label block are an error.  The binary round trip is bit-exact.
CSV is an input format only: one row per sample, read at float64
precision, with no header by default.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from ..errors import DataError
from .embedding import EmbeddingMatrix

MAGIC = b"EMB1"


def read_bytes(path: str | Path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def write_file(path: str | Path, content: str | bytes) -> str:
    """Write ``content``, a ``str`` as UTF-8; returns the SHA-256 hex digest of its bytes."""
    data = content.encode("utf-8") if isinstance(content, str) else content
    try:
        Path(path).write_bytes(data)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    return hashlib.sha256(data).hexdigest()


def read_text(path: str | Path, error: type[Exception]) -> str:
    """The text of a UTF-8 file, newlines translated; other bytes raise ``error``."""
    return _decode(path, read_bytes(path), error)


def _decode(path: str | Path, raw: bytes, error: type[Exception]) -> str:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def write_embeddings(path: str | Path, x: EmbeddingMatrix) -> str:
    """Write ``x`` as EMB1; returns the file's SHA-256 hex digest."""
    flag = 12 + 4 * x.n * x.d
    buf = bytearray(flag + 1 + (0 if x.labels is None else 4 * x.n))
    struct.pack_into("<4sII", buf, 0, MAGIC, x.n, x.d)
    np.frombuffer(buf, "<f4", x.n * x.d, 12).reshape(x.n, x.d)[:] = x.data  # no second copy
    if x.labels is not None:
        buf[flag] = 1
        np.frombuffer(buf, "<u4", x.n, flag + 1)[:] = x.labels
    return write_file(path, buf)


def _parse_emb1(path: str | Path, raw: bytes) -> EmbeddingMatrix:
    if len(raw) < 12:
        raise DataError(f"{path}: header truncated")
    n, d = struct.unpack_from("<II", raw, 4)
    if n < 1 or d < 1:
        raise DataError(f"{path}: declared shape {n}x{d}")
    off = 12
    need = n * d * 4
    if len(raw) < off + need:
        raise DataError(f"{path}: payload truncated")
    data = np.frombuffer(raw, dtype="<f4", count=n * d, offset=off).reshape(n, d)
    off += need
    labels = None
    if len(raw) > off:
        flag = raw[off]
        off += 1
        if flag == 1:
            if len(raw) < off + 4 * n:
                raise DataError(f"{path}: label block truncated")
            labels = np.frombuffer(raw, dtype="<u4", count=n, offset=off).astype(np.int64)
            off += 4 * n
        elif flag != 0:
            raise DataError(f"{path}: bad label flag {flag}")
        if len(raw) > off:
            raise DataError(f"{path}: {len(raw) - off} trailing bytes after the label block")
    # a signaling-NaN float32 would warn in the cast; the matrix check names it
    with np.errstate(invalid="ignore"):
        data = data.astype(np.float64)
    return _matrix(path, data, labels)


def _parse_csv(path: str | Path, text: str, header: bool) -> EmbeddingMatrix:
    rows = []
    d = None
    for lineno, line in enumerate(text.split("\n"), start=1):
        if header and lineno == 1:
            continue
        line = line.strip()
        if not line:
            continue
        try:
            vals = [float(v) for v in line.split(",")]
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric field") from None
        if d is None:
            d = len(vals)
        elif len(vals) != d:
            raise DataError(f"{path}:{lineno}: ragged row")
        rows.append(vals)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return _matrix(path, np.array(rows, dtype=np.float64))


def _matrix(path: str | Path, data: np.ndarray, labels=None) -> EmbeddingMatrix:
    """The embedding matrix read from ``path``; a rejected matrix (such as
    one with non-finite values) is reported with the file's name."""
    try:
        return EmbeddingMatrix(data, labels)
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def load_matrix(path: str | Path, csv_header: bool = False) -> EmbeddingMatrix:
    """Read either format, sniffing EMB1 by magic, CSV otherwise."""
    raw = read_bytes(path)
    if raw[:4] == MAGIC:
        return _parse_emb1(path, raw)
    return _parse_csv(path, _decode(path, raw, DataError), csv_header)
