import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotax.core.rng import SeedSpec, rng_create
from geotax.core.sequence import DNA, SymbolSequence, Alphabet, bins_alphabet, reverse_complement
from geotax.dynamics import Trajectory
from geotax.errors import DataError
from geotax.perturb import (
    PerturbationSpec,
    n_positions,
    substitute,
    time_reverse,
    value_noise,
)

def dna(text):
    return SymbolSequence.from_string(text, DNA)


# -- position counting ------------------------------------------------------


def test_ceiling_convention():
    assert n_positions(0.01, 512) == 6
    assert n_positions(0.0, 512) == 0
    assert n_positions(1.0, 512) == 512


# -- value noise --------------------------------------------------------------


def test_value_noise_rate_zero_identity(rng):
    traj = Trajectory(rng.standard_normal((100, 2)), 0.1)
    out = value_noise(traj, PerturbationSpec("value_noise", rate=0.0))
    assert (out.values == traj.values).all()


def test_value_noise_zero_magnitude_identity(rng):
    traj = Trajectory(rng.standard_normal((100, 2)), 0.1)
    out = value_noise(traj, PerturbationSpec("value_noise", rate=1.0, magnitude=0.0))
    assert (out.values == traj.values).all()


def test_value_noise_exact_position_count(rng):
    traj = Trajectory(rng.standard_normal((512, 1)), 0.1)
    spec = PerturbationSpec("value_noise", rate=0.01, magnitude=0.5, seed=SeedSpec(320))
    out = value_noise(traj, spec)
    changed = np.nonzero((out.values != traj.values).any(axis=1))[0]
    assert changed.size == 6  # ceil(0.01 * 512)


def test_value_noise_scales_with_each_channels_envelope(rng):
    values = rng.standard_normal((400, 2))
    spec = PerturbationSpec("value_noise", rate=1.0, magnitude=0.1, seed=SeedSpec(1))
    base = value_noise(Trajectory(values, 0.1), spec).values - values
    # channel 0 stretched tenfold, channel 1 flat (its noise width is 1)
    stretched = values * [10.0, 0.0]
    noise = value_noise(Trajectory(stretched, 0.1), spec).values - stretched
    np.testing.assert_allclose(noise[:, 0], 10 * base[:, 0], rtol=1e-9)
    np.testing.assert_allclose(noise[:, 1], base[:, 1] / np.ptp(values[:, 1]), rtol=1e-9)


# -- substitution --------------------------------------------------------------


def test_substitute_rate_zero_identity():
    seq = dna("ACGTACGT")
    out = substitute(seq, PerturbationSpec("substitute", rate=0.0))
    assert (out.symbols == seq.symbols).all()


def test_substitute_binary_full_rate_is_complement():
    alpha = Alphabet("bits", 2, "01")
    seq = SymbolSequence.from_string("0110100", alpha)
    out = substitute(seq, PerturbationSpec("substitute", rate=1.0, seed=SeedSpec(9)))
    assert (out.symbols == 1 - seq.symbols).all()


def test_substitute_exact_count_none_equal():
    rng = rng_create(SeedSpec(320, "sub"))
    seq = SymbolSequence(rng.integers(0, 4, 1000), DNA)
    out = substitute(seq, PerturbationSpec("substitute", rate=0.05, seed=SeedSpec(7)))
    diff = np.nonzero(out.symbols != seq.symbols)[0]
    assert diff.size == 50
    assert (out.symbols[diff] != seq.symbols[diff]).all()


def test_substitute_alphabet_too_small():
    seq = SymbolSequence(np.zeros(5, dtype=np.int64), bins_alphabet(1))
    with pytest.raises(DataError, match="substitution needs an alphabet of size >= 2"):
        substitute(seq, PerturbationSpec("substitute", rate=0.5))


@given(st.integers(0, 2**32), st.floats(0.01, 1.0))
@settings(max_examples=40, deadline=None)
def test_substitute_count_property(seed, rate):
    rng = rng_create(SeedSpec(seed, "sub-prop"))
    length = int(rng.integers(10, 200))
    seq = SymbolSequence(rng.integers(0, 4, length), DNA)
    out = substitute(seq, PerturbationSpec("substitute", rate=rate, seed=SeedSpec(seed)))
    assert int((out.symbols != seq.symbols).sum()) == min(length, math.ceil(rate * length))


# -- reverse complement ----------------------------------------------------------


def test_rc_palindrome():
    assert reverse_complement(dna("ACGT")).to_string() == "ACGT"


def test_rc_example():
    assert reverse_complement(dna("AACG")).to_string() == "CGTT"


def test_rc_involution_many():
    rng = rng_create(SeedSpec(320, "rc"))
    for _ in range(1000):
        seq = SymbolSequence(rng.integers(0, 4, int(rng.integers(1, 60))), DNA)
        assert (reverse_complement(reverse_complement(seq)).symbols == seq.symbols).all()


# -- time reversal -----------------------------------------------------------------


def test_time_reverse_trivials():
    seq = dna("A")
    assert (time_reverse(seq).symbols == seq.symbols).all()
    seq = SymbolSequence(np.array([1, 2, 3]), bins_alphabet(8))
    assert time_reverse(seq).symbols.tolist() == [3, 2, 1]
    traj = Trajectory(np.array([[1.0], [2.0], [3.0]]), 0.5)
    assert (time_reverse(time_reverse(traj)).values == traj.values).all()

