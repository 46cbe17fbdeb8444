import numpy as np
import pytest

from geotax.core.rng import SeedSpec
from geotax.core.sequence import DNA, PROTEIN, SymbolSequence
from geotax.dynamics import GlobalRange, Trajectory, discretize
from geotax.errors import ConfigError, DataError
from geotax.walks import (
    build_interpolation_walk,
    build_mutation_walk,
    detect_spikes,
    lipschitz_cosine,
    lipschitz_gap,
    lipschitz_l2,
    mean_lipschitz,
    pca_trajectory,
)


def oscillator_pair(rng):
    t = np.arange(256) / 64.0
    a = Trajectory(np.exp(-0.4 * t) * np.cos(3 * t), 1 / 64)
    b = Trajectory(np.exp(-1.5 * t) * np.cos(14 * t + 1.0), 1 / 64)
    return a, b


# -- interpolation walks ----------------------------------------------------


def test_interpolation_endpoints_match_standalone_discretization(rng):
    a, b = oscillator_pair(rng)
    grange = GlobalRange([-2.0], [2.0])
    walk = build_interpolation_walk(a, b, grange, n_steps=11)
    assert (walk.steps[0].symbols == discretize(a, grange).symbols).all()
    assert (walk.steps[-1].symbols == discretize(b, grange).symbols).all()
    assert walk.step_meta[0] == 0.0 and walk.step_meta[-1] == 1.0


def test_interpolation_identical_endpoints_constant(rng):
    a, _ = oscillator_pair(rng)
    grange = GlobalRange([-2.0], [2.0])
    walk = build_interpolation_walk(a, a, grange, n_steps=5)
    for step in walk.steps[1:]:
        assert (step.symbols == walk.steps[0].symbols).all()


def test_interpolation_alpha_strictly_increasing(rng):
    a, b = oscillator_pair(rng)
    walk = build_interpolation_walk(a, b, GlobalRange([-2.0], [2.0]), n_steps=101)
    alphas = np.array(walk.step_meta)
    assert (np.diff(alphas) > 0).all()
    assert len(walk) == 101


# -- mutation walks ------------------------------------------------------------


def wildtype(rng, length=500):
    return SymbolSequence(rng.integers(0, 4, length), DNA)


def test_mutation_walk_single_mutation(rng):
    wt = wildtype(rng)
    walk = build_mutation_walk(wt, 1, (100, 400), SeedSpec(1))
    assert len(walk) == 2
    assert int((walk.steps[1].symbols != wt.symbols).sum()) == 1


def test_mutation_walk_hamming_increases_by_one(rng):
    wt = wildtype(rng, 2000)
    walk = build_mutation_walk(wt, 121, (500, 1500), SeedSpec(320))
    assert len(walk) == 122
    for i, step in enumerate(walk.steps):
        assert int((step.symbols != wt.symbols).sum()) == i
    for prev, cur in zip(walk.steps, walk.steps[1:]):
        assert int((cur.symbols != prev.symbols).sum()) == 1


def test_mutation_walk_deterministic(rng):
    wt = wildtype(rng, 1000)
    w1 = build_mutation_walk(wt, 50, (200, 800), SeedSpec(320))
    w2 = build_mutation_walk(wt, 50, (200, 800), SeedSpec(320))
    assert w1.step_meta == w2.step_meta
    assert all((a.symbols == b.symbols).all() for a, b in zip(w1.steps, w2.steps))


def test_mutation_walk_region_too_small(rng):
    wt = wildtype(rng, 100)
    with pytest.raises(DataError, match="core region holds 20 candidate sites < 50"):
        build_mutation_walk(wt, 50, (10, 30), SeedSpec(1))


def test_mutation_walk_rejects_negative_count(rng):
    with pytest.raises(ConfigError):
        build_mutation_walk(wildtype(rng, 100), -1, (10, 90), SeedSpec(1))


def test_mutation_walk_needs_dna():
    protein = SymbolSequence.from_string("ACDEFGHIKL" * 10, PROTEIN)
    with pytest.raises(DataError, match="mutation walks are defined over the DNA alphabet"):
        build_mutation_walk(protein, 1, (10, 90), SeedSpec(1))


# -- lipschitz profiles ----------------------------------------------------------


def test_l2_profile_constant_embeddings():
    e = np.tile([1.0, 2.0, 3.0], (10, 1))
    profile = lipschitz_l2(e)
    assert (profile.values == 0).all()
    assert profile.spikes == ()
    assert profile.smoothness_ratio == 1.0


def test_l2_profile_linear_path():
    u = np.array([1.0, -2.0])
    e = np.arange(20)[:, None] * u
    profile = lipschitz_l2(e)
    assert np.allclose(profile.values, np.linalg.norm(u))
    assert profile.smoothness_ratio == pytest.approx(1.0)


def test_l2_profile_teleport_spike(rng):
    e = np.cumsum(0.01 * rng.standard_normal((100, 4)), axis=0)
    e[50:] += 5.0
    profile = lipschitz_l2(e)
    assert 49 in profile.spikes


def test_cosine_profile_scale_invariance(rng):
    u = rng.standard_normal(6)
    scales = rng.uniform(0.5, 3.0, size=15)
    e = scales[:, None] * u
    profile = lipschitz_cosine(e)
    assert np.abs(profile.values).max() < 1e-12


def test_cosine_profile_right_angle():
    e = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert lipschitz_cosine(e).values[0] == pytest.approx(1.0)


def test_cosine_profile_dimension_invariance(rng):
    # identical angular path embedded in d=16 and d=4096
    thetas = np.linspace(0, np.pi / 3, 30)
    path2d = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    e16 = np.concatenate([path2d, np.zeros((30, 14))], axis=1)
    e4096 = np.concatenate([path2d, np.zeros((30, 4094))], axis=1)
    p16 = lipschitz_cosine(e16)
    p4096 = lipschitz_cosine(e4096)
    assert np.abs(p16.values - p4096.values).max() < 1e-9


def test_detect_spikes_trivials():
    assert detect_spikes(np.ones(50)) == ()
    values = np.ones(100)
    values[42] = 50.0
    assert detect_spikes(values) == (42,)
    with pytest.raises(DataError, match="need >= 3 profile values"):
        detect_spikes(np.array([1.0, 2.0]))


def test_gap_statistic():
    assert lipschitz_gap([65.3, 79.3, 84.6]) == pytest.approx(84.6 / 65.3)


def test_mean_lipschitz_per_pair_means(rng):
    profiles = [lipschitz_l2(rng.standard_normal((10, 3))) for _ in range(4)]
    assert mean_lipschitz(profiles) == pytest.approx(
        np.mean([p.mean for p in profiles])
    )


# -- pca trajectory -----------------------------------------------------------------


def test_pca_trajectory_planar_arc(rng):
    thetas = np.linspace(0, np.pi, 40)
    arc = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    e = np.concatenate([arc, 1e-6 * rng.standard_normal((40, 6))], axis=1)
    res, svg = pca_trajectory(e, k=3)
    assert res.explained_variance_ratio[:2].sum() > 0.99
    assert svg.startswith("<svg") and "polyline" in svg


def test_pca_trajectory_deterministic_svg(rng):
    e = rng.standard_normal((20, 5))
    _, svg1 = pca_trajectory(e, k=2)
    _, svg2 = pca_trajectory(e, k=2)
    assert svg1 == svg2


def test_pca_trajectory_k_exceeds_dims(rng):
    with pytest.raises(DataError, match=r"k=3 outside 1\.\.min\(n,d\)=2"):
        pca_trajectory(rng.standard_normal((10, 2)), k=3)
