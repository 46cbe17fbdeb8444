import hashlib
import tracemalloc

import numpy as np
import pytest

import geotax.cli as cli
import geotax.quantize as quantize
from geotax.core.rng import SeedSpec, rng_create
from geotax.errors import DataError
from geotax.quantize import (
    Codebook,
    _nearest,
    _update_centroids,
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
    assert cb.inertia_trace[-1] == pytest.approx(0.0, abs=1e-18)


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


def test_kmeans_fit_bytes_do_not_depend_on_the_block_size(monkeypatch):
    # one-decimal data, as in the 3-column golden: many tied distances
    pts = rng_create(SeedSpec(320, "fit-blocks")).standard_normal((600, 3)).round(1)
    ref = kmeans_fit(pts, 64, SeedSpec(7))
    for rows in (3, 7, 600):
        monkeypatch.setattr(quantize, "BLOCK_ENTRIES", rows * 64)
        cb = kmeans_fit(pts, 64, SeedSpec(7))
        assert cb.centroids.tobytes() == ref.centroids.tobytes()
        assert cb.inertia_trace == ref.inertia_trace


# -- nearest-centroid search ------------------------------------------------------


def full_matrix_sq_distances(points, centroids):
    """The whole n x K distance matrix in one product: the computation the
    row blocks of ``_nearest`` must reproduce byte for byte."""
    d2 = np.matmul(points, centroids.T)
    d2 *= 2.0
    np.subtract((points * points).sum(axis=1)[:, None], d2, out=d2)
    d2 += (centroids * centroids).sum(axis=1)[None, :]
    return np.maximum(d2, 0.0, out=d2)


def nearest_case(n, m, k, tied):
    rng = rng_create(SeedSpec(320, f"nearest-{n}-{m}-{k}-{tied}"))
    points = rng.standard_normal((n, m))
    centroids = rng.standard_normal((k, m))
    if tied:
        points, centroids = points.round(1), centroids.round(1)
    centroids[-1] = points[-1]  # a point on a centroid: its distance clamps at 0
    return points, centroids


def nearest_with_blocks(monkeypatch, points, centroids):
    """``_nearest`` with ``dist``, plus the n x K matrix rebuilt from a copy
    of each distance block it computed."""
    blocks = []
    real = quantize._sq_distances

    def spy(*args, **kwargs):
        block = real(*args, **kwargs)
        blocks.append(block.copy())
        return block

    dist = np.full(points.shape[0], np.nan)
    with monkeypatch.context() as patch:
        patch.setattr(quantize, "_sq_distances", spy)
        assign = _nearest(points, (points * points).sum(axis=1), centroids, dist)
    return np.concatenate(blocks), assign, dist


def assert_nearest_equals_oracle(monkeypatch, n, m, k):
    for tied in (False, True):
        points, centroids = nearest_case(n, m, k, tied)
        ref = full_matrix_sq_distances(points, centroids)
        d2, assign, dist = nearest_with_blocks(monkeypatch, points, centroids)
        assert d2.tobytes() == ref.tobytes()
        assert assign.tolist() == np.argmin(ref, axis=1).tolist()
        assert dist.tobytes() == ref[np.arange(n), assign].tobytes()
        assert encode(Codebook(centroids), points).symbols.tolist() == assign.tolist()


@pytest.mark.parametrize("k", [2, 33, 1024])
@pytest.mark.parametrize("m", [1, 3, 64, 300])
@pytest.mark.parametrize("n", [1, 127, 129, 2000])
def test_nearest_bytes_equal_full_matrix_oracle(monkeypatch, n, m, k):
    assert_nearest_equals_oracle(monkeypatch, n, m, k)


# Blocks of 3 and 7 rows, and one block of all n.  No block of one row:
# numpy computes a one-row product with gemv, which rounds otherwise, and
# ``_nearest`` splits the rows evenly, so it makes one only when n is 1.
@pytest.mark.parametrize("rows", [3, 7, None])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("n", [127, 129, 2000])
def test_nearest_bytes_do_not_depend_on_rows_per_block(monkeypatch, n, m, rows):
    for k in (2, 33, 1024):
        monkeypatch.setattr(quantize, "BLOCK_ENTRIES", (rows or n) * k)
        assert_nearest_equals_oracle(monkeypatch, n, m, k)


# At 32 or more columns OpenBLAS computes a product of at most 1200 entries
# with another kernel, so blocks that small would round otherwise.  Even
# blocks of at most 4096 or 20,000 distances hold over 2000 of them.
@pytest.mark.parametrize("entries", [4096, 20_000])
@pytest.mark.parametrize("m", [64, 300])
def test_nearest_bytes_do_not_depend_on_block_entries(monkeypatch, m, entries):
    monkeypatch.setattr(quantize, "BLOCK_ENTRIES", entries)
    for n in (127, 129, 2000):
        for k in (2, 33, 1024):
            assert_nearest_equals_oracle(monkeypatch, n, m, k)


def test_encode_holds_no_n_by_k_matrix():
    rng = rng_create(SeedSpec(320, "encode-peak"))
    cb = Codebook(rng.standard_normal((512, 3)))
    pts = rng.standard_normal((20_000, 3))
    tracemalloc.start()
    try:
        encode(cb, pts)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20  # one 20,000 x 512 float64 matrix is 78 MiB


# -- centroid update ------------------------------------------------------------


def lloyd_update_loop_oracle(points, assign, d2, k):
    """The in-order cluster loop: a non-empty cluster takes its mean, an
    empty one steals the point farthest from its current centroid."""
    assign = assign.copy()
    n = assign.size
    centroids = np.empty((k, points.shape[1]))
    for j in range(k):
        mask = assign == j
        if mask.any():
            centroids[j] = points[mask].mean(axis=0)
        else:
            far = int(np.argmax(d2[np.arange(n), assign]))
            centroids[j] = points[far]
            assign[far] = j
    return centroids


def updated(points, assign, d2, k):
    centroids = np.full((k, points.shape[1]), np.nan)
    _update_centroids(points, assign, d2[np.arange(assign.size), assign], centroids)
    return centroids


def random_update_case(rng, m):
    """Assignments onto a random subset of the clusters (often most of them
    empty), with continuous or heavily tied distances.  Each point's
    distance to its assigned cluster is its row's least, as in a fit."""
    k = int(rng.integers(2, 120))
    n = int(rng.integers(k, 3 * k + 5))
    used = rng.choice(k, size=int(rng.integers(1, k + 1)), replace=False)
    assign = used[rng.integers(0, used.size, size=n)]
    if rng.random() < 0.5:
        d2 = rng.integers(0, 3, size=(n, k)).astype(float)
    else:
        d2 = rng.random((n, k))
    d2[np.arange(n), assign] = d2.min(axis=1)
    return rng.standard_normal((n, m)), assign, d2, k


@pytest.mark.parametrize("m", [2, 3, 16, 257])
def test_update_bytes_equal_loop_oracle(m):
    rng = rng_create(SeedSpec(320, f"lloyd-update-{m}"))
    for _ in range(40):
        points, assign, d2, k = random_update_case(rng, m)
        before = assign.copy()
        got = updated(points, assign, d2, k)
        assert got.tobytes() == lloyd_update_loop_oracle(points, assign, d2, k).tobytes()
        assert (assign == before).all()


def test_update_one_column_close_to_loop_oracle():
    # a (cnt, 1) mean sums its contiguous column pairwise, bincount in order
    rng = rng_create(SeedSpec(320, "lloyd-update-1"))
    for _ in range(40):
        points, assign, d2, k = random_update_case(rng, 1)
        np.testing.assert_allclose(updated(points, assign, d2, k),
                                   lloyd_update_loop_oracle(points, assign, d2, k),
                                   rtol=1e-12)


def test_update_point_stolen_twice_and_cluster_emptied_by_a_steal():
    points = np.arange(10.0).reshape(5, 2)
    assign = np.array([3, 3, 3, 3, 2])
    d2 = np.ones((5, 4))
    d2[:4, 3] = 0.0
    d2[4] = [9.0, 9.0, 5.0, 9.0]
    got = updated(points, assign, d2, 4)
    # 0 steals point 4 from 2, and 1 steals it from 0; 2, now empty, steals
    # it from 1, and 3 keeps points 0 to 3
    assert got.tobytes() == lloyd_update_loop_oracle(points, assign, d2, 4).tobytes()
    assert got[:3].tolist() == [points[4].tolist()] * 3
    assert (got[3] == points[:4].mean(axis=0)).all()


def test_update_steal_removes_point_from_its_unvisited_cluster():
    points = np.array([[0.0, 0.0], [1.0, 1.0], [5.0, 7.0]])
    assign = np.array([1, 1, 1])
    d2 = np.array([[1.0, 0.0], [1.0, 0.0], [4.0, 3.0]])
    got = updated(points, assign, d2, 2)
    assert got.tolist() == [[5.0, 7.0], [0.5, 0.5]]
    assert got.tobytes() == lloyd_update_loop_oracle(points, assign, d2, 2).tobytes()


# -- whole fit -------------------------------------------------------------------


def full_matrix_kmeans_fit(points, k, seed, init_centroids=None):
    """``kmeans_fit`` as it was with the whole n x K matrix: each pass fills
    it in one product.  Returns the centroids and the inertia trace."""
    n = points.shape[0]
    rng = rng_create(seed)
    pp = (points * points).sum(axis=1)
    if init_centroids is None:
        centroids = quantize._kmeans_pp_init(points, pp, k, rng)
    elif init_centroids.shape[0] >= k:
        centroids = init_centroids[:k].copy()
    else:
        extra = quantize._kmeans_pp_init(points, pp, k - init_centroids.shape[0], rng)
        centroids = np.vstack([init_centroids, extra])

    def exact_inertia(assign):
        resid = points - centroids[assign]
        return float((resid * resid).sum())

    trace, prev = [], np.inf
    for _ in range(quantize.KMEANS_MAX_ITER):
        d2 = full_matrix_sq_distances(points, centroids)
        assign = np.argmin(d2, axis=1)
        inertia = exact_inertia(assign)
        trace.append(inertia)
        _update_centroids(points, assign, d2[np.arange(n), assign], centroids)
        if prev < np.inf and prev > 0:
            if abs(prev - inertia) / prev < quantize.KMEANS_REL_TOL:
                break
        elif inertia == 0.0:
            break
        prev = inertia
    trace.append(exact_inertia(np.argmin(full_matrix_sq_distances(points, centroids), axis=1)))
    return centroids, tuple(trace)


# Nested sweeps to K = 1024 on 2000 points, at most 40 iterations per K (15
# in blocks of 3 or 7 rows): a third to two thirds of the updates steal,
# some of them hundreds of times, since one-decimal data at m = 1 holds
# fewer distinct points than K.
@pytest.mark.parametrize("m, rows", [(1, None), (1, 3), (1, 7), (3, None), (3, 3), (3, 7),
                                     (64, None)])
def test_kmeans_fit_bytes_equal_full_matrix_oracle(monkeypatch, m, rows):
    monkeypatch.setattr(quantize, "KMEANS_MAX_ITER", 15 if rows else 40)
    stole = []  # per update: whether a cluster started it empty
    real = quantize._update_centroids

    def update(points, assign, dist, centroids):
        stole.append(not np.bincount(assign, minlength=centroids.shape[0]).all())
        real(points, assign, dist, centroids)

    monkeypatch.setattr(quantize, "_update_centroids", update)
    rng = rng_create(SeedSpec(320, f"fit-oracle-{m}"))
    for tied in (False, True):
        points = rng.standard_normal((2000, m))
        if tied:
            points = points.round(1)
        got = ref = None
        for k in (32, 64, 128, 256, 512, 1024):
            if rows:
                monkeypatch.setattr(quantize, "BLOCK_ENTRIES", rows * k)
            seed = SeedSpec(320, f"fit-oracle-k{k}")
            got = kmeans_fit(points, k, seed, init_centroids=None if got is None else got.centroids)
            ref = full_matrix_kmeans_fit(points, k, seed, None if ref is None else ref[0])
            assert got.centroids.tobytes() == ref[0].tobytes()
            assert got.inertia_trace == ref[1]
    assert sum(stole) >= 10


# One-decimal data holds fewer distinct points than the larger K, so most
# updates there re-seed many clusters.
@pytest.mark.parametrize("m", [2, 3])
def test_kmeans_fit_reseeds_every_empty_cluster_to_one_point(monkeypatch, m):
    monkeypatch.setattr(quantize, "KMEANS_MAX_ITER", 20)
    reseeded = []  # per stealing update: how many clusters started it empty
    real = quantize._update_centroids

    def update(points, assign, dist, centroids):
        k = centroids.shape[0]
        d2 = full_matrix_sq_distances(points, centroids)
        empty = np.bincount(assign, minlength=k) == 0
        before = assign.tobytes(), dist.tobytes()
        real(points, assign, dist, centroids)
        assert (assign.tobytes(), dist.tobytes()) == before
        if empty.any():
            reseeded.append(int(empty.sum()))
            far = points[np.argmax(dist)]
            assert (centroids[empty] == far).all()
            oracle = lloyd_update_loop_oracle(points, assign, d2, k)
            assert centroids.tobytes() == oracle.tobytes()

    monkeypatch.setattr(quantize, "_update_centroids", update)
    points = rng_create(SeedSpec(320, f"fit-reseed-{m}")).standard_normal((1000, m)).round(1)
    cb = None
    for k in (32, 128, 512):
        cb = kmeans_fit(points, k, SeedSpec(320, f"fit-reseed-k{k}"),
                        init_centroids=None if cb is None else cb.centroids)
    assert len(reseeded) >= 10 and max(reseeded) >= 10


def test_kmeans_fit_holds_no_n_by_k_matrix(monkeypatch):
    monkeypatch.setattr(quantize, "KMEANS_MAX_ITER", 3)
    rng = rng_create(SeedSpec(320, "fit-peak"))
    pts = rng.standard_normal((20_000, 3))
    # each centroid twice: the second copy of each is empty, so the first
    # update steals 256 times
    init = np.repeat(pts[:256], 2, axis=0)
    tracemalloc.start()
    try:
        cb = kmeans_fit(pts, 512, SeedSpec(1), init_centroids=init)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cb.inertia_trace) == 4
    assert peak < 4 * 2**20  # one 20,000 x 512 float64 matrix is 78 MiB


# report.json of the sweep below, taken before the update was vectorised
# and re-pinned when --data began to require --intrinsic-dim and when the
# config echo came to hold only the keys given (only its config echo
# changed, each time); 11 of its 54 Lloyd iterations start with an empty
# cluster
VQ_3_COLUMN_REPORT_SHA256 = "6a6e946b94bfc8b97961379330255d851ede648f2126c8753dd4cc02a0b0c9ef"


def test_vq_sweep_report_from_3_column_file_unchanged(tmp_path, monkeypatch):
    x = rng_create(SeedSpec(320, "vq-golden")).standard_normal((600, 3))
    monkeypatch.chdir(tmp_path)
    with open("data.csv", "w") as fh:
        fh.writelines(",".join(f"{v:.1f}" for v in row) + "\n" for row in x)
    argv = ["--out-dir", "run", "vq-sweep", "--data", "data.csv", "--k-values", "16,64,256",
            "--intrinsic-dim", "2.06"]
    assert cli.main(argv) == 0
    digest = hashlib.sha256((tmp_path / "run" / "report.json").read_bytes()).hexdigest()
    assert digest == VQ_3_COLUMN_REPORT_SHA256


# reports of the default sweep on 2000 Lorenz points, taken before the
# Lorenz steps and the nearest-centroid search were rewritten; report.json
# re-pinned when the config echo came to hold only the keys given
VQ_LORENZ_REPORT_SHA256 = {
    "report.json": "6ebef0790853ce5b49ba250db44bc9170cd6169b0deca78ebf713b46e84ebf5b",
    "report.csv": "5f17eb8b315752af876a13c20e3d3033db8606b87d12a1b5f8bc13045131079d",
}


def test_vq_sweep_lorenz_reports_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["--out-dir", "run", "--seed", "320", "vq-sweep", "--k-values", "32,64,128,256,512"]
    assert cli.main(argv) == 0
    for name, expected in VQ_LORENZ_REPORT_SHA256.items():
        assert hashlib.sha256((tmp_path / "run" / name).read_bytes()).hexdigest() == expected


def test_vq_sweep_encodes_the_clean_points_only_in_the_fit(tmp_path, monkeypatch):
    """A fit's last nearest-centroid pass gives the clean codes, so the
    bench sweep makes one pass per Lloyd iteration, one final pass per fit
    and one for the noisy points per K: 95 passes, where re-encoding the
    clean points after each fit made 100."""
    passes, fits = [], []
    nearest, fit = quantize._nearest, quantize.kmeans_fit
    monkeypatch.setattr(quantize, "_nearest", lambda *args: passes.append(1) or nearest(*args))
    monkeypatch.setattr(quantize, "kmeans_fit",
                        lambda *args, **kw: fits.append(fit(*args, **kw)) or fits[-1])
    monkeypatch.chdir(tmp_path)
    argv = ["--out-dir", "run", "--seed", "320", "vq-sweep", "--k-values", "32,64,128,256,512"]
    assert cli.main(argv) == 0
    assert len(fits) == 5
    assert len(passes) == sum(len(cb.inertia_trace) for cb in fits) + len(fits) == 95


def test_kmeans_fit_assignment_is_the_encoding_of_its_points(rng):
    x = rng.standard_normal((300, 3))
    cb = kmeans_fit(x, 12, SeedSpec(4))
    assert cb.assignment.tobytes() == encode(cb, x).symbols.tobytes()


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


def test_codebook_leaves_the_callers_array_writeable():
    centroids = np.zeros((3, 2))
    cb = Codebook(centroids)
    centroids += 1.0
    assert not cb.centroids.flags.writeable
    assert (cb.centroids == 0.0).all()


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


def test_vq_sweep_data_without_intrinsic_dim_exits_2_before_any_fit(tmp_path, monkeypatch,
                                                                    capsys):
    fits = []
    monkeypatch.setattr(quantize, "kmeans_fit", lambda *args, **kwargs: fits.append(args))
    data = tmp_path / "data.csv"
    data.write_text("0.5,1.0\n" * 40)
    run = tmp_path / "run"
    assert cli.main(["--out-dir", str(run), "vq-sweep", "--data", str(data)]) == 2
    assert capsys.readouterr().err == (
        "config error: <cli>: vq.data needs vq.intrinsic_dim (--intrinsic-dim), the d_M of "
        "its Shannon column\n"
    )
    assert fits == []
    assert not run.exists()


def test_vq_sweep_checks_the_largest_k_against_n_before_any_fit(tmp_path, monkeypatch, capsys):
    fits = []
    monkeypatch.setattr(quantize, "kmeans_fit", lambda *args, **kwargs: fits.append(args))
    argv = ["--out-dir", "run", "vq-sweep", "--k-values", "2,3,2000001"]
    assert cli.main(argv) == 3
    assert capsys.readouterr().err == "data error: n=2000 < K=2000001\n"
    assert fits == []
    assert not (tmp_path / "run").exists()
