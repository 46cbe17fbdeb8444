import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geotax.core.rng import SeedSpec, rng_create
from geotax.core.sequence import DNA, SymbolSequence, bins_alphabet
from geotax.errors import DataError
from geotax.ingest.fasta import FastaRecord, parse_fasta
from geotax.perturb import reverse_complement
from geotax.texture import (
    MarkovModel,
    composition_profile_embedding,
    dinucleotide_shuffle,
    fit_markov,
    four_condition_experiment,
    gen_markov,
    heterogeneous_corpus,
    kmer_histogram,
    make_frozen_encoder,
    rc_kmer_cosine,
    rc_permutation,
    recovery_fraction,
)
from geotax.stability import SplitConfig, evaluate, rdm_similarity


def dna(text):
    return SymbolSequence.from_string(text, DNA)


def random_dna(rng, length):
    return SymbolSequence(rng.integers(0, 4, length), DNA)


ORACLE = settings(max_examples=60, derandomize=True, deadline=None, database=None)

# repeats of a short motif: all-A, two-base and other skewed sequences
MOTIF_TEXT = st.builds(lambda motif, reps: motif * reps,
                       st.sampled_from(["A", "C", "AC", "ACG", "AAT", "GGGGC", "TTTTTTTA"]),
                       st.integers(1, 700))


@st.composite
def dna_sequences(draw, min_size=1):
    """A DNA sequence built from text, from an int64 array, or decoded from a
    partly lower-case FASTA record."""
    text = draw(st.one_of(st.text("ACGT", min_size=min_size, max_size=2000),
                          MOTIF_TEXT.filter(lambda t: len(t) >= min_size)))
    route = draw(st.sampled_from(["text", "array", "fasta"]))
    if route == "text":
        return dna(text)
    if route == "array":
        return SymbolSequence(np.array(["ACGT".index(c) for c in text], dtype=np.int64), DNA)
    cut = draw(st.integers(0, len(text)))
    return FastaRecord("rec", text[:cut].lower() + text[cut:]).decode(DNA, "rec.fasta")


# -- loop oracles: the per-base loops the vectorised texture code replaced --------


def dinucleotide_shuffle_loop_oracle(seq, seed):
    n = len(seq)
    rng = rng_create(seed)
    idx = seq.symbols
    edges = [[] for _ in range(4)]
    for a, b in zip(idx[:-1], idx[1:]):
        edges[a].append(int(b))
    for base in range(4):
        lst = edges[base]
        if len(lst) > 1:
            head = np.array(lst[:-1])
            rng.shuffle(head)
            edges[base] = [int(v) for v in head] + [lst[-1]]
    out = np.empty(n, dtype=np.int64)
    out[0] = idx[0]
    cursors = [0, 0, 0, 0]
    cur = int(idx[0])
    for i in range(1, n):
        nxt = edges[cur][cursors[cur]]
        cursors[cur] += 1
        out[i] = nxt
        cur = nxt
    assert all(cursors[b] == len(edges[b]) for b in range(4))
    return out


def gen_markov_loop_oracle(model, length, seed):
    rng = rng_create(seed)
    out = np.empty(length, dtype=np.int64)
    cum_init = np.cumsum(model.initial)
    cum_trans = np.cumsum(model.transitions, axis=1)
    draws = rng.random(length)
    out[0] = np.searchsorted(cum_init, draws[0])
    for i in range(1, length):
        out[i] = np.searchsorted(cum_trans[out[i - 1]], draws[i])
    np.clip(out, 0, 3, out=out)
    return out


def composition_profile_loop_oracle(seq, n_windows):
    idx = seq.symbols
    bounds = np.linspace(0, idx.size, n_windows + 1).astype(np.int64)
    feats = np.empty((n_windows, 4))
    for w in range(n_windows):
        window = idx[bounds[w] : bounds[w + 1]]
        feats[w] = np.bincount(window, minlength=4) / window.size
    return feats.reshape(-1)


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@ORACLE
@given(dna_sequences(min_size=2), st.integers(0, 2**32))
@example(dna("AA"), 0)
@example(dna("A" * 500), 1)
@example(dna("AC" * 300), 2)
def test_shuffle_bytes_equal_loop_oracle(seq, seed):
    assert_same_bytes(dinucleotide_shuffle(seq, SeedSpec(seed)).symbols,
                      dinucleotide_shuffle_loop_oracle(seq, SeedSpec(seed)))


# a corpus of short hypothesis-drawn texts often misses a base or a
# successor, so its fitted model has rows that fall back to uniform
MARKOV_CORPORA = st.lists(st.one_of(st.text("ACGT", min_size=1, max_size=60),
                                    MOTIF_TEXT.map(lambda t: t[:60])), min_size=1, max_size=4)
MARKOV_LENGTHS = st.one_of(st.sampled_from([1, 2]), st.integers(1, 2000))


@ORACLE
@given(MARKOV_CORPORA, MARKOV_LENGTHS, st.integers(0, 2**32))
@example(["A"], 2000, 0)          # every row unseen
@example(["ACAC", "G"], 1, 1)     # rows 2 and 3 unseen
@example(["ACAC", "G"], 2, 2)
def test_gen_markov_bytes_equal_loop_oracle(texts, length, seed):
    model = fit_markov([dna(t) for t in texts])
    assert_same_bytes(gen_markov(model, length, SeedSpec(seed)).symbols,
                      gen_markov_loop_oracle(model, length, SeedSpec(seed)))


@ORACLE
@given(st.integers(1, 12).flatmap(lambda w: st.tuples(dna_sequences(min_size=w), st.just(w))))
@example((dna("A" * 8), 8))
@example((dna("AC" * 50), 8))
def test_composition_profile_bytes_equal_loop_oracle(case):
    seq, n_windows = case
    assert_same_bytes(composition_profile_embedding(seq, n_windows),
                      composition_profile_loop_oracle(seq, n_windows))


def test_texture_loops_bytes_equal_oracles_on_wrapped_fasta(tmp_path):
    rng = rng_create(SeedSpec(320, "texture-fasta-oracle"))
    path = tmp_path / "corpus.fasta"
    lines = []
    for r, n in enumerate((2, 37, 61, 400)):
        text = "".join("ACGT"[i] for i in rng.integers(0, 4, n))
        text = text[: n // 3].lower() + text[n // 3 :]
        lines += [f">rec{r}"] + [text[i : i + 60] for i in range(0, n, 60)]
    path.write_text("\n".join(lines) + "\n")
    corpus = [rec.decode(DNA, path) for rec in parse_fasta(path)]
    model = fit_markov(corpus)
    for i, seq in enumerate(corpus):
        spec = SeedSpec(i, "fasta")
        assert_same_bytes(dinucleotide_shuffle(seq, spec).symbols,
                          dinucleotide_shuffle_loop_oracle(seq, spec))
        assert_same_bytes(gen_markov(model, len(seq), spec).symbols,
                          gen_markov_loop_oracle(model, len(seq), spec))
        if len(seq) >= 8:
            assert_same_bytes(composition_profile_embedding(seq, 8),
                              composition_profile_loop_oracle(seq, 8))


# -- k-mer histograms ---------------------------------------------------------


def test_kmer_histogram_poly_a():
    h = kmer_histogram(dna("AAAA"), 2)
    assert h[0] == 3 and h.sum() == 3


def test_kmer_histogram_each_base_once():
    h = kmer_histogram(dna("ACGT"), 1)
    assert h.tolist() == [1, 1, 1, 1]


def test_kmer_histogram_window_count(rng):
    seq = random_dna(rng, 1000)
    assert kmer_histogram(seq, 3).sum() == 998


# -- dinucleotide shuffle -------------------------------------------------------


def test_shuffle_preserves_k12_counts_thousand_random():
    rng = rng_create(SeedSpec(320, "shuffle-k"))
    for trial in range(1000):
        seq = random_dna(rng, 1000)
        out = dinucleotide_shuffle(seq, SeedSpec(trial, "sh"))
        assert (kmer_histogram(out, 1) == kmer_histogram(seq, 1)).all()
        assert (kmer_histogram(out, 2) == kmer_histogram(seq, 2)).all()


def test_shuffle_two_bases_unique_arrangement():
    assert dinucleotide_shuffle(dna("AC"), SeedSpec(5)).to_string() == "AC"


def test_shuffle_destroys_positional_structure():
    rng = rng_create(SeedSpec(320, "shuffle-pos"))
    fracs = []
    for trial in range(20):
        seq = random_dna(rng, 1000)
        out = dinucleotide_shuffle(seq, SeedSpec(trial, "pos"))
        fracs.append(float((out.symbols != seq.symbols).mean()))
    assert min(fracs) > 0.3


def test_shuffle_deterministic(rng):
    seq = random_dna(rng, 500)
    a = dinucleotide_shuffle(seq, SeedSpec(11))
    b = dinucleotide_shuffle(seq, SeedSpec(11))
    assert (a.symbols == b.symbols).all()


def test_shuffle_keeps_endpoints(rng):
    for trial in range(50):
        seq = random_dna(rng, 64)
        out = dinucleotide_shuffle(seq, SeedSpec(trial, "ends"))
        assert out.symbols[0] == seq.symbols[0]
        assert out.symbols[-1] == seq.symbols[-1]


# -- markov ----------------------------------------------------------------------


def test_fit_markov_alternating_corpus():
    model = fit_markov([dna("ACACACACACAC")])
    assert model.transitions[0, 1] == pytest.approx(1.0)
    assert model.transitions[1, 0] == pytest.approx(1.0)


def test_fit_markov_pair_counts_match_scatter_add_oracle(rng):
    corpus = [random_dna(rng, n) for n in (1, 2, 7, 300)]
    pairs = np.zeros((4, 4))
    bases = np.zeros(4)
    for seq in corpus:
        idx = seq.symbols
        bases += np.bincount(idx, minlength=4)
        np.add.at(pairs, (idx[:-1], idx[1:]), 1.0)
    model = fit_markov(corpus)
    assert (model.initial == bases / bases.sum()).all()
    assert (model.transitions == pairs / pairs.sum(axis=1)[:, None]).all()


def test_markov_refit_recovers_transitions():
    # law-of-large-numbers oracle: refit on generated output approaches the
    # generating transition matrix entrywise
    corpus = heterogeneous_corpus(30, 2000, SeedSpec(320, "mk-corpus"))
    model = fit_markov(corpus)
    gen = [gen_markov(model, 1000, SeedSpec(i, "mk-gen")) for i in range(100)]
    fitted = fit_markov(gen)
    assert np.abs(fitted.transitions - model.transitions).max() < 0.02


def test_markov_unseen_base_uniform_fallback():
    model = fit_markov([dna("AAAA")])
    assert model.transitions[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    assert (model.transitions[1:] == 0.25).all()


def test_markov_collapses_per_sequence_variance():
    # the collapse mechanism: markov sequences lose per-sequence fingerprints
    corpus = heterogeneous_corpus(60, 800, SeedSpec(320, "collapse"))
    model = fit_markov(corpus)
    markov = [gen_markov(model, 800, SeedSpec(i, "collapse-gen")) for i in range(60)]

    def per_sequence_dinuc_variance(seqs):
        vecs = np.array([kmer_histogram(s, 2) / (len(s) - 1) for s in seqs])
        return float(vecs.var(axis=0).sum())

    assert per_sequence_dinuc_variance(markov) < per_sequence_dinuc_variance(corpus)


class FixedDraws:
    def __init__(self, draws):
        self.draws = np.array(draws)

    def random(self, size):
        assert size == self.draws.size
        return self.draws.copy()


def test_gen_markov_draw_above_cumulative_total_is_base_3(monkeypatch):
    # rows may sum to 1 - 1e-12; a draw above the row's total picks base 3
    # mid-chain and at the end alike, and the initial draw does the same
    short = np.array([0.25, 0.25, 0.25, 0.25 - 5e-13])
    model = MarkovModel(short, np.tile(short, (4, 1)))
    top = 0.9999999999999999
    assert np.cumsum(short)[-1] < top
    monkeypatch.setattr("geotax.texture.rng_create", lambda seed: FixedDraws(
        [0.1, top, 0.1, 0.6, top]))
    assert gen_markov(model, 5).symbols.tolist() == [0, 3, 0, 2, 3]
    monkeypatch.setattr("geotax.texture.rng_create", lambda seed: FixedDraws([top, top, 0.3]))
    assert gen_markov(model, 3).symbols.tolist() == [3, 3, 1]
    monkeypatch.setattr("geotax.texture.rng_create", lambda seed: FixedDraws([top]))
    assert gen_markov(model, 1).symbols.tolist() == [3]


def test_markov_model_validation():
    with pytest.raises(Exception):
        MarkovModel(np.array([0.5, 0.5, 0.0, 0.5]), np.eye(4))


# -- rc composition ---------------------------------------------------------------


def test_rc_kmer_cosine_palindrome():
    assert rc_kmer_cosine(dna("ACGT"), 2) == pytest.approx(1.0)


def test_rc_kmer_cosine_poly_a():
    assert rc_kmer_cosine(dna("AAAA"), 1) == 0.0


def test_rc_histogram_is_complement_permutation():
    rng = rng_create(SeedSpec(320, "rc-hist"))
    for k in (1, 2, 3, 4):
        perm = rc_permutation(k)
        for _ in range(250):
            seq = random_dna(rng, int(rng.integers(k + 1, 80)))
            h = kmer_histogram(seq, k)
            hr = kmer_histogram(reverse_complement(seq), k)
            assert (hr[perm] == h).all()


@given(st.integers(0, 10_000), st.integers(2, 60))
@settings(max_examples=50, deadline=None)
def test_rc_involution_property(seed, length):
    rng = rng_create(SeedSpec(seed, "rc-prop"))
    seq = SymbolSequence(rng.integers(0, 4, length), DNA)
    assert (reverse_complement(reverse_complement(seq)).symbols == seq.symbols).all()


# -- recovery fraction ---------------------------------------------------------------


def test_recovery_fraction_table_values():
    shuffled = recovery_fraction(0.873, 0.858, 0.139)
    markov = recovery_fraction(0.873, 0.167, 0.139)
    assert abs(shuffled - 0.97) < 0.02
    assert abs(markov - 0.03) < 0.02
    assert shuffled == pytest.approx(0.9796, abs=1e-4)
    assert markov == pytest.approx(0.0381, abs=1e-4)


def test_recovery_fraction_trivials():
    assert recovery_fraction(0.9, 0.9, 0.1) == pytest.approx(1.0)
    with pytest.raises(DataError, match="real and random anchors coincide"):
        recovery_fraction(0.5, 0.4, 0.5)


# -- four-condition experiment ----------------------------------------------------------


def test_four_condition_desk_scale_ordering():
    corpus = heterogeneous_corpus(200, 400, SeedSpec(320, "desk"))
    rows = four_condition_experiment(
        corpus, SeedSpec(320), split_config=SplitConfig(n_splits=8, n_bootstrap=1)
    )
    by_name = {r.condition: r for r in rows}
    assert by_name["real"].recovery == pytest.approx(1.0)
    assert by_name["random"].recovery == pytest.approx(0.0)
    # shuffling preserves per-sequence composition: most of the gap returns
    assert by_name["dinuc_shuffled"].recovery > 0.8
    # population-level texture alone recovers little
    assert by_name["markov"].recovery < 0.3
    assert by_name["real"].rc_rdm > by_name["markov"].rc_rdm


def test_four_condition_experiment_pinned_values():
    # exact values: the texture report must not drift under refactors
    corpus = heterogeneous_corpus(30, 80, SeedSpec(320, "texture-pin"))
    rows = four_condition_experiment(
        corpus, SeedSpec(320), split_config=SplitConfig(n_splits=2, n_bootstrap=1)
    )
    assert [(r.condition, r.rc_rdm, r.rc_composite, r.recovery) for r in rows] == [
        ("real", 0.689717714600612, 0.3581601374022625, 1.0),
        ("dinuc_shuffled", 0.645824324974451, 0.30074787184311624, 0.7178022616609567),
        ("markov", 0.2538262260236727, 0.17899759849520497, -1.8024172497340458),
        ("random", 0.5341764622698586, 0.30862740548441214, 0.0),
    ]


def test_rc_rdm_is_the_full_corpus_rdm_similarity_under_bootstrap():
    # with bootstrap rounds the harness's rdm_similarity is a mean over
    # resampled rows, so rc_rdm cannot be read from the report
    corpus = heterogeneous_corpus(20, 80, SeedSpec(320, "rc-rdm-bootstrap"))
    cfg = SplitConfig(n_splits=2, n_bootstrap=2)
    real = four_condition_experiment(corpus, SeedSpec(320), split_config=cfg)[0]
    embed = make_frozen_encoder(SeedSpec(320).derive("encoder"))
    fwd = np.vstack([embed(s) for s in corpus])
    rc = np.vstack([embed(reverse_complement(s)) for s in corpus])
    assert real.condition == "real"
    assert real.rc_rdm == rdm_similarity(fwd, rc)
    harness = evaluate(fwd, [("rc", rc)], cfg=cfg, seed=SeedSpec(320).derive("harness"))["rc"]
    assert harness.metrics["rdm_similarity"] != real.rc_rdm


def test_composition_profile_shapes(rng):
    seq = random_dna(rng, 256)
    emb = composition_profile_embedding(seq, n_windows=8)
    assert emb.shape == (32,)
    assert np.allclose(emb.reshape(8, 4).sum(axis=1), 1.0)


def test_composition_profile_rejects_short_and_non_dna():
    with pytest.raises(DataError, match="shorter than the window count"):
        composition_profile_embedding(dna("ACGTACG"), n_windows=8)
    with pytest.raises(DataError, match="DNA alphabet"):
        composition_profile_embedding(SymbolSequence(np.arange(16) % 3, bins_alphabet(3)), 4)
