"""Sequence-texture controls: dinucleotide-preserving shuffles,
first-order Markov generation, forward/RC k-mer composition checks, and
the recovery-fraction statistic.

The four-condition experiment these support: real sequences, uniform
random, population-texture-matched Markov, and per-sequence
dinucleotide-shuffled real, compared on how much of the real-random RC
stability gap each condition recovers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core.rng import SeedSpec, rng_create
from .core.sequence import DNA, SymbolSequence, kmer_histogram, reverse_complement
from .errors import DataError


def rc_permutation(k: int) -> np.ndarray:
    """Permutation on DNA k-mer rank space induced by reverse complement."""
    ranks = np.arange(4**k)
    out = np.zeros(4**k, dtype=np.int64)
    rem = ranks
    for _ in range(k):
        digit = rem % 4
        out = out * 4 + (3 - digit)  # complement; reading low->high reverses
        rem = rem // 4
    return out


def _length_groups(lengths) -> list[list[int]]:
    """The corpus positions of each distinct length, in corpus order."""
    groups: dict[int, list[int]] = {}
    for i, n in enumerate(lengths):
        groups.setdefault(n, []).append(i)
    return list(groups.values())


def _blocks(corpus):
    """Per distinct length: the corpus positions of its sequences and their
    symbols stacked as one int8 array, a row per sequence."""
    for rows in _length_groups([len(s) for s in corpus]):
        yield rows, np.array([corpus[i].symbols for i in rows], dtype=np.int8)


def dinucleotide_shuffle(corpus, seeds) -> list[SymbolSequence]:
    """Altschul-Erickson shuffle of each sequence, the i-th under its own
    stream ``seeds[i]``: permute it while preserving the exact dinucleotide
    (and hence base) counts and the first and last base.

    Uses the last-edge-tree construction: for each base, the final outgoing
    edge of the original sequence stays last while the remaining edges are
    shuffled, which guarantees the Eulerian walk completes (the input
    itself is a witness that a path exists).  The sequences of one length
    walk together, one numpy step per position.
    """
    corpus = list(corpus)
    for seq in corpus:
        seq.require(DNA, "dinucleotide shuffle is defined over the DNA alphabet")
        if len(seq) < 2:
            raise DataError("need length >= 2")
    out = [None] * len(corpus)
    for rows, codes in _blocks(corpus):
        n, length = codes.shape
        src, dst = codes[:, :-1], codes[:, 1:]
        # every successor of base 0, row by row in sequence order, then of
        # base 1, and so on: row r's run for base b starts at first[r, b]
        masks = [src == base for base in range(4)]
        edges = np.concatenate([dst[mask] for mask in masks])
        runs = np.concatenate([mask.sum(axis=1) for mask in masks])
        first = (np.cumsum(runs) - runs).reshape(4, n).T
        counts = runs.reshape(4, n).T
        for r, i in enumerate(rows):
            rng = rng_create(seeds[i])
            for start, count in zip(first[r].tolist(), counts[r].tolist()):
                if count > 1:
                    rng.shuffle(edges[start : start + count - 1])
        # the walk takes all length - 1 edges of each row, each base's in run
        # order, through one cursor per (row, base)
        row_base = 4 * np.arange(n)
        cursor = first.ravel()
        walk = np.empty((length, n), dtype=np.int8)
        cur = walk[0] = codes[:, 0]
        for step in walk[1:]:
            key = row_base + cur
            at = cursor[key]
            cursor[key] += 1
            cur = step[:] = edges[at]
        for i, symbols in zip(rows, walk.T):
            out[i] = SymbolSequence(symbols, DNA)
    return out


@dataclass(frozen=True)
class MarkovModel:
    """First-order chain: marginal initial distribution + row-stochastic
    transitions parameterized by pooled dinucleotide frequencies."""

    initial: np.ndarray          # 4
    transitions: np.ndarray      # 4 x 4, rows sum to 1

    def __post_init__(self):
        init = np.asarray(self.initial, dtype=np.float64)
        trans = np.asarray(self.transitions, dtype=np.float64)
        if init.shape != (4,) or trans.shape != (4, 4):
            raise DataError("model shapes must be (4,) and (4, 4)")
        if (init < 0).any() or (trans < 0).any():
            raise DataError("probabilities must be nonnegative")
        if abs(init.sum() - 1.0) > 1e-12 or np.abs(trans.sum(axis=1) - 1.0).max() > 1e-12:
            raise DataError("distributions must sum to 1")
        init.setflags(write=False)
        trans.setflags(write=False)
        object.__setattr__(self, "initial", init)
        object.__setattr__(self, "transitions", trans)


def fit_markov(sequences) -> MarkovModel:
    """Pooled fit over a corpus: transition(b -> c) = count(bc) / count(b.)."""
    sequences = list(sequences)
    if not sequences:
        raise DataError("empty corpus")
    base_counts = np.zeros(4)
    pair_counts = np.zeros((4, 4))
    for seq in sequences:
        seq.require(DNA, "markov fit is defined over the DNA alphabet")
        base_counts += np.bincount(seq.symbols, minlength=4)
        if len(seq) >= 2:
            pair_counts += kmer_histogram(seq, 2).reshape(4, 4)
    if base_counts.sum() == 0:
        raise DataError("corpus has no symbols")
    initial = base_counts / base_counts.sum()
    rows = pair_counts.sum(axis=1)
    # a base never followed by another falls back to a uniform row
    transitions = np.where(
        rows[:, None] > 0, pair_counts / np.maximum(rows, 1.0)[:, None], 0.25
    )
    return MarkovModel(initial, transitions)


def _pick(cum: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """The base each uniform draw picks from nondecreasing cumulative totals
    ``cum``: how many of the first three totals lie below it.  A draw above
    the last total (rows may sum to 1 - 1e-12) picks base 3."""
    return (draws > cum[0]).astype(np.int8) + (draws > cum[1]) + (draws > cum[2])


def gen_markov(model: MarkovModel, lengths, seeds) -> list[SymbolSequence]:
    """Sample one sequence per entry of ``lengths``, the i-th from its own
    stream ``seeds[i]``, one uniform draw per base.

    The sequences of one length walk the chain together, one numpy step per
    position.
    """
    lengths = list(lengths)
    if any(n < 1 for n in lengths):
        raise DataError("length must be >= 1")
    cum_trans = np.cumsum(model.transitions, axis=1)
    out = [None] * len(lengths)
    for rows in _length_groups(lengths):
        # draws[i, r]: row r's draw for position i
        draws = np.empty((len(rows), lengths[rows[0]]))
        for r, i in enumerate(rows):
            rng_create(seeds[i]).random(out=draws[r])
        draws = draws.T
        # successor[i, b, r]: the base after b at position i + 1 of row r
        successor = np.stack([_pick(cum, draws[1:]) for cum in cum_trans], axis=1)
        ar = np.arange(len(rows))
        walk = np.empty(draws.shape, dtype=np.int8)
        cur = walk[0] = _pick(np.cumsum(model.initial), draws[0])
        for step, table in zip(walk[1:], successor):
            cur = step[:] = table[cur, ar]
        for i, symbols in zip(rows, walk.T):
            out[i] = SymbolSequence(symbols, DNA)
    return out


def rc_kmer_cosine(seq: SymbolSequence, k: int) -> float:
    """Cosine similarity between forward and reverse-complement k-mer
    histograms; 1.0 for RC-palindromic composition."""
    fwd = kmer_histogram(seq, k).astype(np.float64)
    rev = kmer_histogram(reverse_complement(seq), k).astype(np.float64)
    denom = np.linalg.norm(fwd) * np.linalg.norm(rev)
    if denom == 0.0:
        raise DataError("empty histogram")
    return float(np.clip(fwd @ rev / denom, 0.0, 1.0))


def recovery_fraction(real: float, condition: float, random: float) -> float:
    """Fraction of the real-random gap a condition recovers:
    (condition - random) / (real - random)."""
    gap = real - random
    if gap == 0.0:
        raise DataError("real and random anchors coincide")
    return (condition - random) / gap


def composition_profile_embedding(corpus, n_windows: int) -> np.ndarray:
    """Desk-scale proxy embedder: per-window base composition, concatenated,
    one row per sequence.

    Captures per-sequence compositional fingerprints the way a
    histogram-dominated encoder does, while retaining enough positional
    signal that reverse complement is not a trivial invariance.  The
    sequences of one length are counted with one ``bincount``.
    """
    corpus = list(corpus)
    for seq in corpus:
        seq.require(DNA, "composition profile is defined over the DNA alphabet")
    out = np.empty((len(corpus), 4 * n_windows))
    for rows, codes in _blocks(corpus):
        n, length = codes.shape
        if length < n_windows:
            raise DataError("sequence shorter than the window count")
        sizes = np.diff(np.linspace(0, length, n_windows + 1).astype(np.int64))
        window = np.repeat(np.arange(n_windows), sizes)
        cells = np.arange(n)[:, None] * (4 * n_windows) + 4 * window
        cells += codes
        counts = np.bincount(cells.ravel(), minlength=n * 4 * n_windows)
        out[rows] = (counts.reshape(n, n_windows, 4) / sizes[:, None]).reshape(n, -1)
    return out


# Frozen encoder shape: composition windows, random ReLU features, output width.
ENCODER_WINDOWS = 8
ENCODER_HIDDEN = 64
ENCODER_DIM = 32
# Smallest corpus the harness can score: with one anchor, each half of the
# other n - 1 sequences needs 3 rows for a Spearman correlation.
MIN_CORPUS = 7


def make_frozen_encoder(seed: SeedSpec | int = SeedSpec()):
    """Frozen random-feature encoder over windowed composition profiles.

    A pure composition profile is exactly RC-equivariant (reverse complement
    permutes its coordinates), which cosine RDMs cannot see.  Passing the
    profile through fixed random ReLU features mimics a learned readout:
    composition still dominates the embedding, but RC is no longer a trivial
    isometry, so RC stability now depends on per-sequence compositional
    diversity, the mechanism the texture test isolates.
    """
    rng = rng_create(seed)
    d_in = 4 * ENCODER_WINDOWS
    w1 = rng.standard_normal((d_in, ENCODER_HIDDEN)) / np.sqrt(d_in)
    b1 = 0.1 * rng.standard_normal(ENCODER_HIDDEN)
    w2 = rng.standard_normal((ENCODER_HIDDEN, ENCODER_DIM)) / np.sqrt(ENCODER_HIDDEN)

    def encode(corpus) -> np.ndarray:
        """One embedding row per sequence of ``corpus``."""
        profiles = composition_profile_embedding(corpus, ENCODER_WINDOWS)[:, None, :]
        # (N, 1, 32) @ (32, 64): one vector-matrix product per row, the bytes
        # of encoding each sequence alone; an (N, 32) @ (32, 64) product
        # sums in another order
        return (np.maximum(profiles @ w1 + b1, 0.0) @ w2)[:, 0, :]

    return encode


def heterogeneous_corpus(n: int, length: int, seed: SeedSpec | int = SeedSpec()) -> list[SymbolSequence]:
    """Synthetic stand-in for real genomic diversity: each sequence draws
    its own base composition (Dirichlet), so per-sequence fingerprints vary
    the way AT-rich, GC-rich and repeat-heavy regions do."""
    rng = rng_create(SeedSpec.coerce(seed).derive("hetero-corpus"))
    out = []
    for _ in range(n):
        probs = rng.dirichlet(np.full(4, 2.0))
        out.append(SymbolSequence(rng.choice(4, size=length, p=probs), DNA))
    return out


@dataclass(frozen=True)
class TextureConditionRow:
    condition: str
    rc_rdm: float
    rc_composite: float
    recovery: float


def four_condition_experiment(
    corpus,
    seed: SeedSpec | int = SeedSpec(),
    split_config=None,
) -> list[TextureConditionRow]:
    """The four-condition RC texture test over a sequence corpus.

    Conditions: the corpus itself (real), uniform random, population-texture
    Markov, and per-sequence dinucleotide-shuffled.  Each condition embeds
    forward and reverse-complement sequences through the frozen encoder,
    scores RC stability with the harness, and reports the fraction of the
    real-random RC RDM gap recovered.  The corpus needs ``MIN_CORPUS``
    sequences of at least ``ENCODER_WINDOWS`` bases each.
    """
    from .stability import SplitConfig, evaluate, rdm_similarity

    corpus = list(corpus)
    if len(corpus) < MIN_CORPUS:
        raise DataError(f"texture corpus has {len(corpus)} records, needs at least {MIN_CORPUS}")
    for i, s in enumerate(corpus, start=1):
        if len(s) < ENCODER_WINDOWS:
            raise DataError(
                f"texture corpus record {i} has {len(s)} bases, needs at least {ENCODER_WINDOWS}"
            )
    spec = SeedSpec.coerce(seed)
    encode = make_frozen_encoder(spec.derive("encoder"))
    cfg = split_config or SplitConfig()
    lengths = [len(s) for s in corpus]

    def score(seqs) -> tuple[float, float]:
        fwd = encode(seqs)
        rc = encode([reverse_complement(s) for s in seqs])
        rdm = rdm_similarity(fwd, rc)
        report = evaluate(fwd, [("rc", rc)], cfg=cfg, seed=spec.derive("harness"))["rc"]
        return rdm, report.composite

    # each condition is built just before it is scored and dropped after
    scores = {"real": score(corpus)}
    scores["dinuc_shuffled"] = score(dinucleotide_shuffle(
        corpus, [spec.derive(f"shuffle/{i}") for i in range(len(corpus))]))
    scores["markov"] = score(gen_markov(
        fit_markov(corpus), lengths, [spec.derive(f"markov/{i}") for i in range(len(corpus))]))
    rng = rng_create(spec.derive("conditions"))
    scores["random"] = score([SymbolSequence(rng.integers(0, 4, size=n), DNA) for n in lengths])
    real_rdm = scores["real"][0]
    random_rdm = scores["random"][0]
    rows = []
    for name in ("real", "dinuc_shuffled", "markov", "random"):
        rdm, composite = scores[name]
        rows.append(
            TextureConditionRow(name, rdm, composite, recovery_fraction(real_rdm, rdm, random_rdm))
        )
    return rows
