import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotax.core.rng import SeedSpec, rng_create
from geotax.core.sequence import DNA, SymbolSequence
from geotax.errors import DataError
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
    rc_kmer_cosine,
    rc_permutation,
    recovery_fraction,
)
from geotax.stability import SplitConfig


def dna(text):
    return SymbolSequence.from_string(text, DNA)


def random_dna(rng, length):
    return SymbolSequence(rng.integers(0, 4, length), DNA)


# -- k-mer histograms ---------------------------------------------------------


def test_kmer_histogram_poly_a():
    h = kmer_histogram(dna("AAAA"), 2)
    assert h.counts[0] == 3 and h.counts.sum() == 3


def test_kmer_histogram_each_base_once():
    h = kmer_histogram(dna("ACGT"), 1)
    assert h.counts.tolist() == [1, 1, 1, 1]


def test_kmer_histogram_window_count(rng):
    seq = random_dna(rng, 1000)
    assert kmer_histogram(seq, 3).counts.sum() == 998


# -- dinucleotide shuffle -------------------------------------------------------


def test_shuffle_preserves_k12_counts_thousand_random():
    rng = rng_create(SeedSpec(320, "shuffle-k"))
    for trial in range(1000):
        seq = random_dna(rng, 1000)
        out = dinucleotide_shuffle(seq, SeedSpec(trial, "sh"))
        assert (kmer_histogram(out, 1).counts == kmer_histogram(seq, 1).counts).all()
        assert (kmer_histogram(out, 2).counts == kmer_histogram(seq, 2).counts).all()


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
    assert set(model.unseen_rows) == {1, 2, 3}
    assert np.allclose(model.transitions[1], 0.25)


def test_markov_collapses_per_sequence_variance():
    # the collapse mechanism: markov sequences lose per-sequence fingerprints
    corpus = heterogeneous_corpus(60, 800, SeedSpec(320, "collapse"))
    model = fit_markov(corpus)
    markov = [gen_markov(model, 800, SeedSpec(i, "collapse-gen")) for i in range(60)]

    def per_sequence_dinuc_variance(seqs):
        vecs = np.array([kmer_histogram(s, 2).frequencies() for s in seqs])
        return float(vecs.var(axis=0).sum())

    assert per_sequence_dinuc_variance(markov) < per_sequence_dinuc_variance(corpus)


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
            h = kmer_histogram(seq, k).counts
            hr = kmer_histogram(reverse_complement(seq), k).counts
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


def test_composition_profile_shapes(rng):
    seq = random_dna(rng, 256)
    emb = composition_profile_embedding(seq, n_windows=8)
    assert emb.shape == (32,)
    assert np.allclose(emb.reshape(8, 4).sum(axis=1), 1.0)
