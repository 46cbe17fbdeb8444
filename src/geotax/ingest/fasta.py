"""FASTA parsing and writing: multi-record, lines of any width read and of
``LINE_WIDTH`` written, CRLF tolerated, round trips keep headers and sequence bytes."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from ..core.io import read_text
from ..core.sequence import Alphabet, SymbolSequence
from ..errors import DataError

LINE_WIDTH = 80


@dataclass(frozen=True)
class FastaRecord:
    header: str     # text after '>', without the newline
    sequence: str

    def decode(self, alphabet: Alphabet) -> SymbolSequence:
        """The sequence, upper-cased, as symbols over ``alphabet``."""
        return SymbolSequence.from_string(self.sequence.upper(), alphabet)


def parse_fasta(path: str | Path) -> list[FastaRecord]:
    records: list[FastaRecord] = []
    header: str | None = None
    chunks: list[str] = []

    def flush():
        if header is None:
            return
        seq = "".join(chunks)
        if not seq:
            raise DataError(f"record {header!r} has an empty sequence")
        records.append(FastaRecord(header, seq))

    for lineno, line in enumerate(read_text(path, DataError).split("\n"), start=1):
        if not line:
            continue
        if line.startswith(">"):
            flush()
            header = line[1:].strip()
            if not header:
                raise DataError(f"{path}:{lineno}: empty header")
            chunks = []
        else:
            if header is None:
                raise DataError(f"{path}:{lineno}: sequence data before any header")
            chunks.append(line.strip())
    flush()
    if not records:
        raise DataError(f"{path}: no FASTA records")
    return records


def write_fasta(records, path: str | Path) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(f">{rec.header}\n")
            seq = rec.sequence
            for i in range(0, len(seq), LINE_WIDTH):
                fh.write(seq[i : i + LINE_WIDTH] + "\n")
