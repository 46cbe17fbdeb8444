"""Discrete sequences over declared alphabets (DNA, protein, integer bins),
their exact sliding-window k-mer counts and the DNA reverse complement."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DataError

DNA_LETTERS = "ACGT"
PROTEIN_LETTERS = "ACDEFGHIKLMNPQRSTVWY"


@dataclass(frozen=True)
class Alphabet:
    """A symbol set: named letters (DNA/protein) or anonymous integer bins."""

    name: str
    size: int
    letters: str | None = None

    def __post_init__(self):
        if self.letters is not None and len(self.letters) != self.size:
            raise DataError("letters length must equal size")


DNA = Alphabet("dna", 4, DNA_LETTERS)
PROTEIN = Alphabet("protein", 20, PROTEIN_LETTERS)


def bins_alphabet(n_bins: int) -> Alphabet:
    return Alphabet(f"bins{n_bins}", n_bins)


@dataclass(frozen=True)
class SymbolSequence:
    """Immutable integer-coded sequence over a declared alphabet."""

    symbols: np.ndarray
    alphabet: Alphabet

    def __post_init__(self):
        sym = np.asarray(self.symbols, dtype=np.int64)
        sym.setflags(write=False)
        object.__setattr__(self, "symbols", sym)
        if sym.ndim != 1:
            raise DataError("symbols must be 1-D")
        if sym.size and (sym.min() < 0 or sym.max() >= self.alphabet.size):
            raise DataError("symbol index outside alphabet")

    def __len__(self) -> int:
        return int(self.symbols.size)

    @classmethod
    def from_string(cls, text: str, alphabet: Alphabet = DNA) -> "SymbolSequence":
        if alphabet.letters is None:
            raise DataError("from_string needs a lettered alphabet")
        lut = np.full(128, -1, dtype=np.int64)
        for i, ch in enumerate(alphabet.letters):
            lut[ord(ch)] = i
        # each non-ASCII character becomes one "?", which no alphabet holds
        codes = np.frombuffer(text.encode("ascii", errors="replace"), dtype=np.uint8)
        idx = lut[codes]
        if (idx < 0).any():
            bad = text[int(np.argmax(idx < 0))]
            raise DataError(f"symbol {bad!r} not in alphabet {alphabet.name}")
        return cls(idx, alphabet)

    def require(self, alphabet: Alphabet, message: str) -> None:
        """Raise ``DataError`` with ``message`` unless this sequence is over
        ``alphabet``."""
        if self.alphabet.name != alphabet.name:
            raise DataError(message)

    def to_string(self) -> str:
        if self.alphabet.letters is None:
            raise DataError("alphabet has no letters")
        return "".join(self.alphabet.letters[i] for i in self.symbols)

    def replace(self, symbols: np.ndarray) -> "SymbolSequence":
        return SymbolSequence(symbols, self.alphabet)


_DNA_COMPLEMENT = np.array([3, 2, 1, 0], dtype=np.int64)  # A<->T, C<->G


def reverse_complement(seq: SymbolSequence) -> SymbolSequence:
    """Reverse order then complement each base; an involution."""
    seq.require(DNA, "reverse complement defined for the DNA alphabet only")
    return seq.replace(_DNA_COMPLEMENT[seq.symbols[::-1]])


def kmer_ranks(seq: SymbolSequence, k: int) -> np.ndarray:
    idx = seq.symbols
    if idx.size < k:
        raise DataError(f"sequence shorter than k={k}")
    size = seq.alphabet.size
    ranks = np.zeros(idx.size - k + 1, dtype=np.int64)
    for j in range(k):
        ranks = ranks * size + idx[j : idx.size - k + 1 + j]
    return ranks


def kmer_histogram(seq: SymbolSequence, k: int) -> np.ndarray:
    """Exact sliding-window k-mer counts, ranked lexicographically (A<C<G<T)."""
    return np.bincount(kmer_ranks(seq, k), minlength=seq.alphabet.size**k)
