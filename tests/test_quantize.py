import numpy as np
import pytest

from geotax.core.rng import SeedSpec, rng_create
from geotax.errors import DataError
from geotax.quantize import (
    Codebook,
    boundary_crossing_rate,
    decode,
    encode,
    fit_inverse_log,
    kmeans_fit,
    rd_bound,
    rd_bound_codebook,
    reconstruction_mse,
    vq_double_bind_sweep,
)


def gaussian_blobs(rng, k=4, per=100, spread=0.05, sep=4.0):
    centers = rng.standard_normal((k, 2)) * sep
    pts = np.concatenate([c + spread * rng.standard_normal((per, 2)) for c in centers])
    return centers, pts


# -- k-means ----------------------------------------------------------------


def test_kmeans_recovers_separated_blob_means():
    rng = rng_create(SeedSpec(320, "blobs"))
    centers, pts = gaussian_blobs(rng)
    cb = kmeans_fit(pts, 4, SeedSpec(320))
    # match each true center to its nearest fitted centroid
    for c in centers:
        nearest = cb.centroids[np.argmin(((cb.centroids - c) ** 2).sum(axis=1))]
        assert np.linalg.norm(nearest - c) < 0.05


def test_kmeans_k_equals_n_zero_inertia(rng):
    pts = rng.standard_normal((12, 3))
    cb = kmeans_fit(pts, 12, SeedSpec(1))
    assert cb.inertia == pytest.approx(0.0, abs=1e-18)


def test_kmeans_deterministic(rng):
    pts = rng.standard_normal((200, 2))
    a = kmeans_fit(pts, 8, SeedSpec(5))
    b = kmeans_fit(pts, 8, SeedSpec(5))
    assert (a.centroids == b.centroids).all()


def test_kmeans_too_few_points(rng):
    with pytest.raises(DataError, match="n=3 < K=4"):
        kmeans_fit(rng.standard_normal((3, 2)), 4)


def test_kmeans_inertia_trace_monotone(rng):
    for trial in range(5):
        pts = rng.standard_normal((300, 3))
        cb = kmeans_fit(pts, 10, SeedSpec(trial))
        trace = np.array(cb.inertia_trace)
        assert (np.diff(trace) <= 1e-9 * trace[0]).all()


# -- encode / decode -----------------------------------------------------------


def test_encode_centroids_map_to_self(rng):
    cb = kmeans_fit(rng.standard_normal((50, 2)), 5, SeedSpec(2))
    assert encode(cb, cb.centroids).symbols.tolist() == [0, 1, 2, 3, 4]


def test_decode_encode_idempotent_on_centroids(rng):
    cb = kmeans_fit(rng.standard_normal((50, 2)), 5, SeedSpec(2))
    out = decode(cb, encode(cb, cb.centroids))
    assert (out == cb.centroids).all()


def test_encode_tie_goes_to_lowest_index():
    cb = Codebook(np.array([[0.0], [2.0]]))
    assert encode(cb, np.array([[1.0]])).symbols[0] == 0


def test_decode_bad_symbol():
    cb = Codebook(np.array([[0.0], [2.0]]))
    with pytest.raises(DataError, match="symbol outside codebook range"):
        decode(cb, np.array([5]))


# -- reconstruction -------------------------------------------------------------


def test_reconstruction_mse_zero_on_centroids(rng):
    cb = kmeans_fit(rng.standard_normal((60, 2)), 6, SeedSpec(3))
    assert reconstruction_mse(cb, cb.centroids) == 0.0


def test_uniform_codebook_quantization_noise_law():
    # uniform data, uniform bins: MSE -> width^2 / 12
    rng = rng_create(SeedSpec(320, "qnoise"))
    data = rng.uniform(0.0, 1.0, size=(200_000, 1))
    k = 16
    cb = Codebook((np.arange(k)[:, None] + 0.5) / k)  # bin centres on [0, 1]
    delta = 1.0 / k
    assert reconstruction_mse(cb, data) == pytest.approx(delta**2 / 12, rel=0.02)


def test_reconstruction_mse_monotone_under_nested_init(rng):
    pts = rng.standard_normal((500, 2))
    prev = None
    mses = []
    for k in (4, 8, 16, 32, 64):
        cb = kmeans_fit(pts, k, SeedSpec(11, f"k{k}"), init_centroids=prev)
        prev = cb.centroids
        mses.append(reconstruction_mse(cb, pts))
    assert all(b <= a + 1e-12 for a, b in zip(mses, mses[1:]))


# -- boundary crossing -----------------------------------------------------------


def voronoi_crossing_oracle(centroids, points, sigma, grid=121, span=5.0):
    """Brute-force oracle: per-point crossing probability by dense Gaussian
    quadrature on a grid, nearest centroid by naive double loop."""
    ax = np.linspace(-span * sigma, span * sigma, grid)
    dx = ax[1] - ax[0]
    gx, gy = np.meshgrid(ax, ax)
    offsets = np.stack([gx.ravel(), gy.ravel()], axis=1)
    log_w = -(offsets**2).sum(axis=1) / (2 * sigma**2)
    w = np.exp(log_w)
    w /= w.sum()

    def nearest(p):
        best, best_d = 0, np.inf
        for j, c in enumerate(centroids):
            d = ((p - c) ** 2).sum()
            if d < best_d:
                best, best_d = j, d
        return best

    total = 0.0
    for p in points:
        base = nearest(p)
        shifted = p[None, :] + offsets
        d2 = ((shifted[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        assign = np.argmin(d2, axis=1)
        total += w[assign != base].sum()
    return total / len(points)


def test_boundary_crossing_matches_voronoi_oracle():
    rng = rng_create(SeedSpec(320, "voronoi"))
    pts = rng.standard_normal((60, 2))
    sigma = 0.3
    for k in (2, 4, 8):
        cb = kmeans_fit(pts, k, SeedSpec(13, f"k{k}"))
        trials = 400
        mc = boundary_crossing_rate(cb, pts, sigma, SeedSpec(99), trials=trials)
        exact = voronoi_crossing_oracle(cb.centroids, pts, sigma)
        se = np.sqrt(max(exact * (1 - exact), 1e-6) / (pts.shape[0] * trials))
        assert abs(mc - exact) < 3 * se + 1e-3  # 3-sigma MC band + grid bias


def test_boundary_crossing_monotone_in_k(rng):
    pts = rng.standard_normal((300, 2))
    sigma = 0.1
    rates = []
    prev = None
    for k in (2, 8, 32, 128):
        cb = kmeans_fit(pts, k, SeedSpec(17, f"k{k}"), init_centroids=prev)
        prev = cb.centroids
        rates.append(boundary_crossing_rate(cb, pts, sigma, SeedSpec(5), trials=20))
    assert all(b >= a for a, b in zip(rates, rates[1:]))


def test_boundary_crossing_vanishes_with_sigma(rng):
    pts = rng.standard_normal((200, 2))
    cb = kmeans_fit(pts, 8, SeedSpec(19))
    assert boundary_crossing_rate(cb, pts, 1e-12, SeedSpec(1), trials=10) == 0.0


def test_boundary_crossing_deterministic(rng):
    pts = rng.standard_normal((100, 2))
    cb = kmeans_fit(pts, 4, SeedSpec(23))
    a = boundary_crossing_rate(cb, pts, 0.2, SeedSpec(7), trials=10)
    b = boundary_crossing_rate(cb, pts, 0.2, SeedSpec(7), trials=10)
    assert a == b


# -- inverse-log fit ----------------------------------------------------------------


def test_fit_inverse_log_exact_recovery():
    ks = np.array([32, 64, 128, 256, 512, 1024])
    d = 0.02 + 0.3 / np.log(ks)
    a, b, r2 = fit_inverse_log(ks, d)
    assert a == pytest.approx(0.02, abs=1e-12)
    assert b == pytest.approx(0.3, abs=1e-12)
    assert r2 == pytest.approx(1.0, abs=1e-9)


def test_fit_inverse_log_noisy_r2():
    rng = rng_create(SeedSpec(320, "fitnoise"))
    ks = np.array([32, 64, 128, 256, 512, 1024])
    d = 0.02 + 0.3 / np.log(ks) + 0.002 * rng.standard_normal(ks.size)
    _, _, r2 = fit_inverse_log(ks, d)
    assert r2 > 0.95


def test_fit_inverse_log_needs_three_distinct():
    with pytest.raises(DataError, match="need >= 3 distinct K values"):
        fit_inverse_log([32, 32, 64], [0.1, 0.1, 0.2])


def test_paper_sweep_shape_shallow_optimum():
    # ingested distortion values: shallow optimum at K=64, rise through 1024
    paper = {32: 0.081, 64: 0.073, 128: 0.080, 256: 0.089, 512: 0.100, 1024: 0.105}
    assert paper[64] < paper[256] < paper[1024]
    assert min(paper, key=paper.get) == 64


# -- rate-distortion bound ------------------------------------------------------------


def test_rd_bound_trivials():
    assert rd_bound(2.5, 3.0, 0.0) == 2.5
    assert rd_bound(1.0, 1.0, 1.0) == pytest.approx(0.25)


def test_rd_bound_halves_every_half_dm_bits():
    d0 = rd_bound(1.7, 4.0, 3.0)
    d1 = rd_bound(1.7, 4.0, 3.0 + 2.0)  # d_M/2 = 2 bits
    assert d1 == pytest.approx(d0 / 2)


def test_rd_bound_codebook_ratio_at_lorenz_dimension():
    d_m = 2.06  # intrinsic dimension of the attractor
    ratio = rd_bound_codebook(1.0, d_m, 1024) / rd_bound_codebook(1.0, d_m, 64)
    assert ratio == pytest.approx((1024 / 64) ** (-2 / d_m), rel=1e-12)


# -- sweep -----------------------------------------------------------------------------


def test_vq_sweep_monotone_mse_and_fit(rng):
    pts = rng.standard_normal((400, 2))
    curve = vq_double_bind_sweep(pts, (8, 16, 32, 64), sigma=0.05, seed=SeedSpec(31))
    assert all(b <= a + 1e-12 for a, b in zip(curve.recon_mse, curve.recon_mse[1:]))
    assert 0.0 <= curve.fit_r2 <= 1.0
    assert len(curve.rows()) == 4
