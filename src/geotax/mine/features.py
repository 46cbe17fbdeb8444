"""Ground-truth compositional features for MI estimation.

DNA: GC content plus 16 dinucleotide frequencies (normalized by L - 1).
Protein: 23 features, the 20 amino acid frequencies, normalized length
L/1000, net charge per residue (K + R - D - E)/L and mean Kyte-Doolittle
hydropathy.
"""

from __future__ import annotations

import numpy as np

from ..core.sequence import DNA, PROTEIN, PROTEIN_LETTERS, SymbolSequence, kmer_histogram
from ..errors import ConfigError, DataError
from ..ingest.fasta import parse_fasta

# Kyte & Doolittle hydropathy index, standard published scale.
KYTE_DOOLITTLE = {
    "A": 1.8, "C": 2.5, "D": -3.5, "E": -3.5, "F": 2.8,
    "G": -0.4, "H": -3.2, "I": 4.5, "K": -3.9, "L": 3.8,
    "M": 1.9, "N": -3.5, "P": -1.6, "Q": -3.5, "R": -4.5,
    "S": -0.8, "T": -0.7, "V": 4.2, "W": -0.9, "Y": -1.3,
}
_KD_VECTOR = np.array([KYTE_DOOLITTLE[a] for a in PROTEIN_LETTERS])


def dna_features(seq: SymbolSequence | str) -> np.ndarray:
    """17-vector: GC content then dinucleotide frequencies in AA..TT order."""
    if isinstance(seq, str):
        seq = SymbolSequence.from_string(seq, DNA)
    seq.require(DNA, "DNA features need the DNA alphabet")
    idx = seq.symbols
    n = idx.size
    if n < 2:
        raise DataError("need at least 2 bases")
    gc = float(((idx == 1) | (idx == 2)).mean())  # C or G
    counts = kmer_histogram(seq, 2).astype(np.float64)
    return np.concatenate([[gc], counts / (n - 1)])


def features_from_fasta(path, kind: str = "dna") -> np.ndarray:
    """Compositional feature matrix for every record in a FASTA file."""
    extract = {"dna": (DNA, dna_features), "protein": (PROTEIN, protein_features)}
    if kind not in extract:
        raise ConfigError(f"mine.feature_kind must be dna or protein, got {kind!r}")
    alphabet, features = extract[kind]
    return np.vstack([features(r.decode(alphabet, path)) for r in parse_fasta(path)])


def protein_features(seq: SymbolSequence | str) -> np.ndarray:
    """23-vector of compositional protein features (see module docstring)."""
    if isinstance(seq, str):
        seq = SymbolSequence.from_string(seq, PROTEIN)
    seq.require(PROTEIN, "protein features need the protein alphabet")
    idx = seq.symbols
    n = idx.size
    if n < 1:
        raise DataError("empty sequence")
    freqs = np.bincount(idx, minlength=20).astype(np.float64) / n
    k = PROTEIN_LETTERS.index("K")
    r = PROTEIN_LETTERS.index("R")
    d = PROTEIN_LETTERS.index("D")
    e = PROTEIN_LETTERS.index("E")
    counts = np.bincount(idx, minlength=20)
    net_charge = float(counts[k] + counts[r] - counts[d] - counts[e]) / n
    hydropathy = float(freqs @ _KD_VECTOR)
    return np.concatenate([freqs, [n / 1000.0, net_charge, hydropathy]])
