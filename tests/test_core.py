import ctypes
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geotax.core.embedding import EmbeddingMatrix, cosine_rdm, cross_distance_block, unit_rows
from geotax.core.io import (
    read_embeddings,
    read_embeddings_csv,
    write_embeddings,
)
from geotax.core.parallel import ordered_map
from geotax.core.pca import pca_project
from geotax.core.rng import SeedSpec, rng_create
from geotax.core.sequence import DNA, PROTEIN, Alphabet, SymbolSequence, bins_alphabet
from geotax.core.stats import rankdata, spearman_checked
from geotax.errors import DataError

DATA = Path(__file__).parent / "data"


# -- oracles -------------------------------------------------------------


def entry(dm, i, j):
    """Entry (i, j) of a condensed distance matrix, read by its index
    formula in the row-major strict upper triangle."""
    if i == j:
        return 0.0
    i, j = (i, j) if i < j else (j, i)
    return float(dm.values[i * dm.n - i * (i + 1) // 2 + (j - i - 1)])


def full(dm):
    """The symmetric n x n matrix of a condensed distance matrix."""
    out = np.zeros((dm.n, dm.n))
    out[np.triu_indices(dm.n, 1)] = dm.values
    return out + out.T


def rank_oracle(a):
    """O(n^2) average-tie ranks: 1 + #smaller + (#equal - 1)/2."""
    a = np.asarray(a, dtype=float)
    ranks = np.empty(a.size)
    for i, v in enumerate(a):
        smaller = sum(1 for u in a if u < v)
        equal = sum(1 for u in a if u == v)
        ranks[i] = 1.0 + smaller + (equal - 1) / 2.0
    return ranks


def rankdata_loop_oracle(a):
    """Stable-sort ranks with a pure-Python walk over each run of ties."""
    a = np.asarray(a, dtype=np.float64)
    order = np.argsort(a, kind="stable")
    ranks = np.empty(a.size, dtype=np.float64)
    sorted_a = a[order]
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and sorted_a[j + 1] == sorted_a[i]:
            j += 1
        # average of ranks i+1 .. j+1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def spearman_oracle(a, b):
    ra, rb = rank_oracle(a), rank_oracle(b)
    ra = ra - ra.mean()
    rb = rb - rb.mean()
    denom = np.sqrt((ra * ra).sum() * (rb * rb).sum())
    if denom == 0:
        return 0.0
    return float((ra * rb).sum() / denom)


# -- cosine RDM ----------------------------------------------------------


def test_unit_rows_scales_to_unit_norm(rng):
    x = rng.standard_normal((5, 3))
    unit = unit_rows(EmbeddingMatrix(x))
    assert np.allclose(np.linalg.norm(unit, axis=1), 1.0)
    assert (unit == x / np.linalg.norm(x, axis=1)[:, None]).all()


def test_cross_distance_block_reports_first_bad_row_of_a_first():
    a = np.array([[1.0, 0.0], [0.0, 0.0]])
    b = np.array([[0.0, 0.0], [1.0, 1.0]])
    with pytest.raises(DataError, match="^row 1 has zero norm$"):
        cross_distance_block(a, b)
    with pytest.raises(DataError, match="^row 0 has zero norm$"):
        cross_distance_block(a[:1], b)


def test_cosine_rdm_identity_orthogonal_antipodal():
    x = np.array([[1.0, 0.0], [1.0, 0.0]])
    assert entry(cosine_rdm(x), 0, 1) == pytest.approx(0.0, abs=1e-15)
    x = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert entry(cosine_rdm(x), 0, 1) == pytest.approx(1.0)
    x = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert entry(cosine_rdm(x), 0, 1) == pytest.approx(2.0)


def test_cosine_rdm_zero_row_raises():
    with pytest.raises(DataError, match="row 1 has zero norm"):
        cosine_rdm(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_cosine_rdm_row_scale_invariance(rng):
    x = rng.standard_normal((20, 6))
    scales = rng.uniform(0.1, 10.0, size=20)
    base = cosine_rdm(x).vector()
    scaled = cosine_rdm(x * scales[:, None]).vector()
    assert np.abs(base - scaled).max() < 1e-12


def test_distance_matrix_entry_indexing(rng):
    x = rng.standard_normal((7, 4))
    dm = cosine_rdm(x)
    square = full(dm)
    unit = x / np.linalg.norm(x, axis=1, keepdims=True)
    assert np.abs(square - (1.0 - unit @ unit.T)).max() < 1e-12
    for i in range(7):
        for j in range(7):
            assert entry(dm, i, j) == pytest.approx(square[i, j], abs=1e-15)


# -- spearman ------------------------------------------------------------


def test_spearman_monotone_trivials():
    a = np.arange(10.0)
    assert spearman_checked(a, a)[0] == pytest.approx(1.0)
    assert spearman_checked(a, a[::-1])[0] == pytest.approx(-1.0)


def test_spearman_matches_rank_oracle_small():
    a = np.array([1.0, 2, 3, 4, 5])
    b = np.array([2.0, 1, 4, 3, 5])
    assert spearman_checked(a, b)[0] == pytest.approx(spearman_oracle(a, b), abs=1e-15)


def test_spearman_oracle_equivalence_with_ties():
    rng = rng_create(SeedSpec(320, "spearman-oracle"))
    for _ in range(300):
        n = int(rng.integers(3, 51))
        a = rng.integers(0, 10, size=n).astype(float)  # heavy ties
        b = rng.standard_normal(n)
        assert spearman_checked(a, b)[0] == pytest.approx(spearman_oracle(a, b), abs=1e-12)


def test_spearman_constant_returns_zero_with_flag():
    rho, degenerate = spearman_checked(np.ones(5), np.arange(5.0))
    assert rho == 0.0 and degenerate


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_spearman_rejects_non_finite_input(bad):
    b = np.arange(10.0)
    b[3] = bad
    with pytest.raises(DataError, match="non-finite"):
        spearman_checked(np.arange(10.0), b)
    with pytest.raises(DataError, match="non-finite"):
        spearman_checked(b, np.arange(10.0))


def test_rankdata_average_ties():
    assert rankdata(np.array([10.0, 20.0, 20.0, 30.0])).tolist() == [1.0, 2.5, 2.5, 4.0]


def assert_same_rank_bytes(values):
    got = rankdata(values)
    assert got.dtype == np.float64
    assert got.tobytes() == rankdata_loop_oracle(values).tobytes()


@given(
    st.one_of(
        st.lists(st.integers(-3, 3), max_size=60),
        st.lists(st.sampled_from([-0.0, 0.0, -1.0, 1.0]), max_size=30),
        st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=60),
    )
)
@settings(max_examples=300, deadline=None)
def test_rankdata_bytes_equal_loop_oracle(values):
    assert_same_rank_bytes(np.array(values, dtype=np.float64))


@pytest.mark.parametrize(
    "values", [[], [5.0], [2.0, 2.0], [2.0, 1.0], [0.0, -0.0], [-0.0, 1.0, 0.0, -0.0]]
)
def test_rankdata_bytes_equal_loop_oracle_small(values):
    assert_same_rank_bytes(np.array(values, dtype=np.float64))


def test_rankdata_bytes_equal_loop_oracle_on_tied_rdm(rng):
    # 200 rows over 16 patterns: 19,900 RDM entries in long tied runs
    x = rng.integers(1, 3, size=(200, 4)).astype(float)
    assert_same_rank_bytes(cosine_rdm(x).vector())


def traced_peak(fn, arg) -> int:
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# Peaks at n = 1000 in units of the 499,500-entry condensed vector (3.8 MiB).
# Before these bounds: cosine_rdm 4.0, rankdata 8.0 tie-free, 7.1 tied.


def test_cosine_rdm_peak_memory():
    # the n x n similarity matrix is 2 units and the boolean mask 0.25
    x = rng_create(SeedSpec(320, "rdm-peak")).standard_normal((1000, 16))
    condensed = 1000 * 999 // 2 * 8
    assert traced_peak(cosine_rdm, x) < 3.5 * condensed


@pytest.mark.parametrize("digits, bound", [(None, 3.5), (6, 5.0)])
def test_rankdata_peak_memory(digits, bound):
    # tie-free: order, ranks and 1..n; rounded to 6 digits: 385,944 runs, many tied
    values = cosine_rdm(rng_create(SeedSpec(320, "rank-peak")).standard_normal((1000, 16))).vector()
    if digits is not None:
        values = values.round(digits)
    assert (np.unique(values).size < values.size) == (digits is not None)
    assert traced_peak(rankdata, values) < bound * values.nbytes


@given(
    st.lists(st.integers(-1000, 1000), min_size=3, max_size=40),
    st.sampled_from([np.exp, np.arctan, lambda v: v**3, lambda v: 5 * v + 2]),
)
@settings(max_examples=60, deadline=None)
def test_spearman_monotone_transform_invariance(values, transform):
    # coarse grid keeps the transforms strictly monotone at float precision
    a = np.array(values, dtype=float)
    b = np.arange(float(a.size))
    scaled = transform(a / 1001.0)
    assert spearman_checked(scaled, b)[0] == pytest.approx(spearman_checked(a, b)[0], abs=1e-9)


def test_spearman_equals_spearman_of_ranks(rng):
    a = rng.standard_normal(30)
    b = rng.standard_normal(30)
    ranked = spearman_checked(rankdata(a), rankdata(b))[0]
    assert spearman_checked(a, b)[0] == pytest.approx(ranked, abs=1e-15)


# -- PCA -----------------------------------------------------------------


def test_pca_line_in_3d_explains_everything(rng):
    t = rng.standard_normal(100)
    direction = np.array([1.0, 2.0, -0.5])
    res = pca_project(np.outer(t, direction), 1)
    assert res.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-9)


def test_pca_isotropic_gaussian_flat_spectrum():
    rng = rng_create(SeedSpec(320, "pca-iso"))
    res = pca_project(rng.standard_normal((5000, 10)), 10)
    assert np.abs(res.explained_variance_ratio - 0.1).max() < 0.02


def test_pca_full_rank_reconstruction(rng):
    # full-rank scores are the centered rows in an orthonormal basis, so
    # they reconstruct every inner product between rows
    x = rng.standard_normal((40, 6))
    centered = x - x.mean(axis=0)
    scores = pca_project(x, 6).scores
    gram = centered @ centered.T
    assert np.linalg.norm(scores @ scores.T - gram) / np.linalg.norm(gram) < 1e-8


def test_pca_rotation_preserves_singular_values(rng):
    # a score column's norm is its component's singular value
    x = rng.standard_normal((50, 8))
    q, _ = np.linalg.qr(rng.standard_normal((8, 8)))
    s1 = np.linalg.norm(pca_project(x, 8).scores, axis=0)
    s2 = np.linalg.norm(pca_project(x @ q, 8).scores, axis=0)
    assert np.abs(s1 - s2).max() / s1[0] < 1e-9


def test_pca_rank_deficient_scores_keep_the_rank(rng):
    t = rng.standard_normal(30)
    x = np.outer(t, np.array([1.0, 1.0, 0.0]))
    res = pca_project(x, 3)
    assert res.scores.shape == (30, 1)
    assert res.explained_variance_ratio.shape == (1,)


def test_pca_k_out_of_range(rng):
    with pytest.raises(DataError, match=r"k=4 outside 1\.\.min\(n,d\)=3"):
        pca_project(rng.standard_normal((5, 3)), 4)


def test_pca_sign_convention_deterministic(rng):
    x = rng.standard_normal((30, 5))
    scores = pca_project(x, 3).scores
    # each component's loadings, up to a positive scale
    for row in ((x - x.mean(axis=0)).T @ scores).T:
        assert row[np.argmax(np.abs(row))] > 0


# -- RNG -----------------------------------------------------------------


def test_rng_same_spec_identical_draws():
    a = rng_create(SeedSpec(320, "x")).integers(0, 2**63, size=1_000_000, dtype="int64")
    b = rng_create(SeedSpec(320, "x")).integers(0, 2**63, size=1_000_000, dtype="int64")
    assert (a == b).all()


def test_rng_stream_tags_differ():
    a = rng_create(SeedSpec(320, "generation")).integers(0, 2**63, size=64, dtype="int64")
    b = rng_create(SeedSpec(320, "bootstrap")).integers(0, 2**63, size=64, dtype="int64")
    assert (a != b).any()


def test_rng_golden_vector_seed_320():
    golden = json.loads((DATA / "rng_golden_seed320.json").read_text())
    rng = rng_create(SeedSpec(golden["seed"], golden["stream"]))
    draws = rng.integers(0, 2**63, size=4, dtype="int64")
    assert [int(v) for v in draws] == golden["first_draws_int63"]


def test_seedspec_derive_changes_stream():
    spec = SeedSpec(320, "main")
    assert spec.derive("child").stream == "main/child"
    assert spec.derive("child").key() != spec.key()


# -- parallel fan-out ------------------------------------------------------


def openblas_threads(_item=None):
    """numpy's bundled OpenBLAS thread count, or None without that library."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob(
            "libscipy_openblas64_*.so")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            return get()
    return None


def test_ordered_map_workers_run_single_threaded_blas():
    before = openblas_threads()
    if before is None:
        pytest.skip("numpy has no bundled scipy-openblas")
    assert ordered_map(openblas_threads, range(4), workers=2) == [1, 1, 1, 1]
    assert openblas_threads() == before


def test_ordered_map_inline_runs_single_threaded_blas_and_restores():
    before = openblas_threads()
    if before is None:
        pytest.skip("numpy has no bundled scipy-openblas")
    assert ordered_map(openblas_threads, range(3), workers=1) == [1, 1, 1]
    assert openblas_threads() == before
    # one item runs inline whatever the worker count
    assert ordered_map(openblas_threads, [0], workers=2) == [1]
    assert openblas_threads() == before


def test_ordered_map_inline_restores_blas_threads_when_fn_raises():
    before = openblas_threads()
    if before is None:
        pytest.skip("numpy has no bundled scipy-openblas")

    def fail(_item):
        raise DataError("boom")

    with pytest.raises(DataError):
        ordered_map(fail, range(2), workers=1)
    assert openblas_threads() == before


def test_cli_import_leaves_process_pool_unloaded():
    # the pool machinery is imported by the fan-out that uses it, not at start-up
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    code = "import sys, geotax.cli; print('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_cli_import_leaves_experiment_modules_unloaded():
    # each experiment's modules load when its runner or command runs
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    names = ["geotax.mine", "geotax.quantize", "geotax.procrustes", "geotax.texture",
             "geotax.walks", "geotax.stability", "geotax.ingest.fetch", "geotax.ingest.cache",
             "geotax.dynamics", "geotax.perturb"]
    code = f"import sys, geotax.cli; print([n for n in {names!r} if n in sys.modules])"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_texture_run_leaves_perturb_and_dynamics_unloaded(tmp_path):
    # texture reaches reverse complement in core.sequence, not in perturb
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).resolve().parents[1] / "src"), env.get("PYTHONPATH")) if p
    )
    names = ["geotax.texture", "geotax.perturb", "geotax.dynamics"]
    argv = ["--out-dir", str(tmp_path / "run"), "texture", "--n", "8", "--length", "24",
            "--splits", "2"]
    code = (f"import sys, geotax.cli; code = geotax.cli.main({argv!r}); "
            f"print(code, [n for n in {names!r} if n in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout.splitlines()[-1], proc.stderr) == (
        0, "0 ['geotax.texture']", "")


# -- I/O -----------------------------------------------------------------


def test_emb1_round_trip(tmp_path, rng):
    x = EmbeddingMatrix(
        rng.standard_normal((3, 4)).astype(np.float32).astype(np.float64),
        labels=np.array([0, 1, 1]),
    )
    path = tmp_path / "m.emb1"
    write_embeddings(path, x)
    back = read_embeddings(path)
    assert (back.data == x.data).all()
    assert (back.labels == x.labels).all()
    # byte-exact file round trip
    write_embeddings(tmp_path / "m2.emb1", back)
    assert (tmp_path / "m2.emb1").read_bytes() == path.read_bytes()


def test_emb1_truncated(tmp_path, rng):
    path = tmp_path / "m.emb1"
    write_embeddings(path, EmbeddingMatrix(rng.standard_normal((4, 4))))
    raw = path.read_bytes()
    path.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(DataError, match="payload truncated"):
        read_embeddings(path)


@pytest.mark.parametrize("labels", [None, np.array([0, 1, 1])])
def test_emb1_trailing_bytes_rejected(tmp_path, rng, labels):
    path = tmp_path / "m.emb1"
    write_embeddings(path, EmbeddingMatrix(rng.standard_normal((3, 2)), labels))
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="1 trailing bytes after the label block"):
        read_embeddings(path)


def test_emb1_without_label_flag_accepted(tmp_path, rng):
    x = EmbeddingMatrix(rng.standard_normal((3, 2)).astype(np.float32).astype(np.float64))
    path = tmp_path / "m.emb1"
    write_embeddings(path, x)
    path.write_bytes(path.read_bytes()[:-1])  # drop the label flag
    back = read_embeddings(path)
    assert (back.data == x.data).all() and back.labels is None


def test_emb1_bad_magic(tmp_path):
    path = tmp_path / "m.emb1"
    path.write_bytes(b"NOPE" + b"\0" * 16)
    with pytest.raises(DataError, match="expected magic b'EMB1'"):
        read_embeddings(path)


def test_csv_round_trip_17_digits(tmp_path, rng):
    x = rng.standard_normal((5, 3))
    path = tmp_path / "m.csv"
    np.savetxt(path, x, fmt="%.17g", delimiter=",")
    back = read_embeddings_csv(path)
    assert (back.data == x).all()  # 17 significant digits is exact for f64


def test_csv_header_skip(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,4.0\n")
    back = read_embeddings_csv(path, header=True)
    assert back.n == 2 and back.d == 2
    assert back.data[1, 1] == 4.0


# -- sequences -----------------------------------------------------------


def test_require_raises_the_required_alphabets_error():
    dna = SymbolSequence.from_string("ACGT", DNA)
    protein = SymbolSequence.from_string("ACDK", PROTEIN)
    dna.require(DNA, "unused")
    with pytest.raises(DataError, match="^needs DNA$"):
        protein.require(DNA, "needs DNA")
    with pytest.raises(DataError, match="^needs protein$"):
        dna.require(PROTEIN, "needs protein")
    with pytest.raises(DataError, match="symbol 'B' not in alphabet protein"):
        SymbolSequence.from_string("ACB", PROTEIN)


def test_malformed_alphabets_and_sequences_are_data_errors():
    bins = bins_alphabet(3)
    with pytest.raises(DataError, match="letters length must equal size"):
        Alphabet("short", 3, "AC")
    with pytest.raises(DataError, match="symbols must be 1-D"):
        SymbolSequence(np.zeros((2, 2), dtype=np.int64), bins)
    with pytest.raises(DataError, match="symbol index outside alphabet"):
        SymbolSequence(np.array([0, 3]), bins)
    with pytest.raises(DataError, match="from_string needs a lettered alphabet"):
        SymbolSequence.from_string("AC", bins)
    with pytest.raises(DataError, match="alphabet has no letters"):
        SymbolSequence(np.array([0, 2]), bins).to_string()
