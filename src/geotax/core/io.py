"""Embedding interchange formats.

Binary "EMB1": magic bytes ``EMB1``, u32 little-endian n, u32 little-endian
d, then n*d little-endian f32 values row-major, then a u8 label flag and,
when the flag is 1, n u32 labels.  The flag may be left out (no labels);
bytes after the label block are an error.  The binary round trip is bit-exact.
CSV is an input format only: one row per sample, read at float64
precision, with no header by default.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from ..errors import DataError
from .embedding import EmbeddingMatrix

MAGIC = b"EMB1"


def write_embeddings(path: str | Path, x: EmbeddingMatrix) -> None:
    data32 = x.data.astype("<f4")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", x.n, x.d))
        fh.write(data32.tobytes(order="C"))
        if x.labels is None:
            fh.write(struct.pack("<B", 0))
        else:
            fh.write(struct.pack("<B", 1))
            fh.write(x.labels.astype("<u4").tobytes())


def read_embeddings(path: str | Path) -> EmbeddingMatrix:
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if len(raw) < 4 or raw[:4] != MAGIC:
        raise DataError(f"{path}: expected magic {MAGIC!r}")
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


def read_text(path: str | Path, error: type[Exception]) -> str:
    """The text of a UTF-8 file; other bytes raise ``error`` naming the
    file, and a file that cannot be read raises ``DataError``."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc


def read_embeddings_csv(path: str | Path, header: bool = False) -> EmbeddingMatrix:
    rows = []
    d = None
    # read_text translates \r\n and \r, so "\n" splits the lines a text file yields
    for lineno, line in enumerate(read_text(path, DataError).split("\n"), start=1):
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
    try:
        with open(path, "rb") as fh:
            head = fh.read(4)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if head == MAGIC:
        return read_embeddings(path)
    return read_embeddings_csv(path, header=csv_header)
