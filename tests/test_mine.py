import math

import numpy as np
import pytest

from geotax.core.rng import SeedSpec, rng_create
from geotax.core.sequence import DNA, PROTEIN, SymbolSequence
from geotax.errors import ConfigError, DataError
from geotax.mine import estimator
from geotax.mine.estimator import (
    TAIL_FRACTION,
    TRACE_STRIDE,
    MIRun,
    _baseline_tasks,
    _ceiling_tasks,
    _estimates,
    _prepare,
    _train_cohort,
    dv_bound,
    excess_mi_report,
    gaussian_mi,
    logmeanexp,
    sanity_suite,
    sanity_tolerance,
    zscore,
)
from geotax.mine.features import dna_features, protein_features
from geotax.mine.mlp import (
    BATCH_SIZE,
    CLIP_INF,
    MLP,
    Adam,
    MLPConfig,
    Workspace,
    clip_gradient,
    train_binary_classifier,
)
from geotax.mine.probes import mlp_probe_cv, probe_config
from geotax.procrustes import frozen_head_classifier

# the statistics network plus the two probe architectures
GRADCHECK_ARCHS = [(256, 128), (256, 64), (512, 256, 64), (128, 64)]


# -- gradient checking ------------------------------------------------------


def mse_loss_and_grad(net, x, y):
    out, cache = net.forward(x)
    diff = out - y
    loss = float((diff * diff).mean())
    grad = net.backward(cache, 2.0 * diff / diff.size).copy()
    return loss, grad


def dv_loss_and_grad(net, inp, b):
    out, cache = net.forward(inp)
    tj, tm = out[:b, 0], out[b:, 0]
    loss = -(float(tj.mean()) - logmeanexp(tm))
    w = np.exp(tm - tm.max())
    w /= w.sum()
    gout = np.empty((inp.shape[0], 1))
    gout[:b, 0] = -1.0 / b
    gout[b:, 0] = w
    grad = net.backward(cache, gout).copy()
    return loss, grad


def bce_loss_and_grad(net, x, y01):
    out, cache = net.forward(x)
    y_pm = np.where(y01 > 0, 1.0, -1.0)
    loss = float(np.logaddexp(0.0, -y_pm * out).mean())
    p = 1.0 / (1.0 + np.exp(-out))
    grad = net.backward(cache, (p - y01) / out.size).copy()
    return loss, grad


def central_difference_check(net, loss_fn, n_probes=10, h=1e-6, seed=0):
    rng = rng_create(SeedSpec(seed, "gradcheck"))
    _, analytic = loss_fn(net)
    worst = 0.0
    for idx in rng.choice(net.theta.size, size=n_probes, replace=False):
        keep = net.theta[idx]
        net.theta[idx] = keep + h
        lp, _ = loss_fn(net)
        net.theta[idx] = keep - h
        lm, _ = loss_fn(net)
        net.theta[idx] = keep
        fd = (lp - lm) / (2.0 * h)
        rel = abs(fd - analytic[idx]) / max(abs(fd), abs(analytic[idx]), 1e-8)
        worst = max(worst, rel)
    return worst


@pytest.mark.parametrize(
    "kwargs",
    [{"hidden": (0,)}, {"dropout": 1.0}, {"epochs": 0},
     {"lr": float("nan")}, {"lr": float("inf")}, {"lr": 0.0}, {"lr": -1.0}],
    ids=["hidden", "dropout", "epochs", "lr-nan", "lr-inf", "lr-zero", "lr-negative"],
)
def test_mlp_config_rejects_untrainable_settings(kwargs):
    with pytest.raises(ConfigError):
        MLPConfig(**kwargs)


@pytest.mark.parametrize("n", [0, 1])
def test_sanity_suite_rejects_fewer_than_2_samples(n):
    with pytest.raises(ConfigError):
        sanity_suite(n=n, seeds=(1,))


@pytest.mark.parametrize("hidden", GRADCHECK_ARCHS)
def test_gradcheck_mse(hidden):
    rng = rng_create(SeedSpec(320, f"gc-mse-{hidden}"))
    net = MLP(7, hidden, 1, rng)
    x = rng.standard_normal((32, 7))
    y = rng.standard_normal((32, 1))
    worst = central_difference_check(net, lambda n: mse_loss_and_grad(n, x, y))
    assert worst < 1e-4


@pytest.mark.parametrize("hidden", GRADCHECK_ARCHS)
def test_gradcheck_dv(hidden):
    rng = rng_create(SeedSpec(320, f"gc-dv-{hidden}"))
    net = MLP(6, hidden, 1, rng)
    inp = rng.standard_normal((64, 6))
    worst = central_difference_check(net, lambda n: dv_loss_and_grad(n, inp, 32))
    assert worst < 1e-4


def test_gradcheck_bce():
    rng = rng_create(SeedSpec(320, "gc-bce"))
    net = MLP(5, (64, 32), 1, rng)
    x = rng.standard_normal((40, 5))
    y = (rng.random((40, 1)) > 0.5).astype(float)
    worst = central_difference_check(net, lambda n: bce_loss_and_grad(n, x, y))
    assert worst < 1e-4


# -- engine behavior ----------------------------------------------------------


def test_training_deterministic_weights():
    rng = rng_create(SeedSpec(320, "det"))
    x = rng.standard_normal((100, 3))
    y = (x.sum(axis=1) > 0).astype(float)
    cfg = MLPConfig(hidden=(16, 8), dropout=0.1, lr=1e-3, epochs=20)
    n1 = train_binary_classifier(x, y, cfg, SeedSpec(7))
    n2 = train_binary_classifier(x, y, cfg, SeedSpec(7))
    assert (n1.theta == n2.theta).all()


def test_clip_gradient_infinity_norm():
    g = np.array([1.0, -10.0, 3.0])
    clipped = clip_gradient(g.copy())
    assert np.abs(clipped).max() == pytest.approx(CLIP_INF)
    assert clipped[0] == pytest.approx(0.5)  # rescaled, not clamped
    small = np.array([0.5, -0.25])
    assert (clip_gradient(small.copy()) == small).all()


def test_dropout_off_at_eval():
    rng = rng_create(SeedSpec(320, "drop"))
    net = MLP(4, (32,), 1, rng)
    x = rng.standard_normal((10, 4))
    a = net.predict(x)
    b = net.predict(x)
    assert (a == b).all()  # no mask is drawn outside training


# The dropout mask compares raw 64-bit words with a threshold; it must equal
# the uniform draw it replaced, word for word and in what it leaves behind.


def uniform_mask(rng, rows, width, rate):
    return (rng.random((rows, width)) >= rate) / (1.0 - rate)


@pytest.mark.parametrize("key", [2, 3])
@pytest.mark.parametrize("rate", [0.1, 0.5, 2.0**-53, 1.0 - 2.0**-53],
                         ids=["0.1", "0.5", "2^-53", "1-2^-53"])
def test_dropout_mask_equals_the_uniform_draw(rate, key):
    net = MLP(3, (16, 8), 1, rng_create(SeedSpec(0, "net")))
    raw_rng, ref_rng = (rng_create(SeedSpec(key, "dropout-bits")) for _ in range(2))
    got = net.dropout_mask(40, rate, raw_rng)
    want = uniform_mask(ref_rng, 40, 24, rate)
    assert got.tobytes() == want.tobytes()
    assert repr(raw_rng.bit_generator.state) == repr(ref_rng.bit_generator.state)


def test_dropout_mask_keeps_the_stream_after_a_buffered_half_word():
    net = MLP(3, (16, 8), 1, rng_create(SeedSpec(0, "net")))
    raw_rng, ref_rng = (rng_create(SeedSpec(2, "dropout-bits")) for _ in range(2))
    for rng in (raw_rng, ref_rng):
        rng.permutation(64)
    assert raw_rng.bit_generator.state["has_uint32"] == 1
    ws = Workspace(net.dims, 50)
    got = net.dropout_mask(50, 0.1, raw_rng, ws)
    assert np.shares_memory(got, ws.mask)
    assert got.tobytes() == uniform_mask(ref_rng, 50, 24, 0.1).tobytes()
    assert (raw_rng.permutation(64) == ref_rng.permutation(64)).all()
    assert raw_rng.random(7).tobytes() == ref_rng.random(7).tobytes()


class _Words:
    """A generator stand-in whose bit generator returns chosen raw words."""

    def __init__(self, words):
        self.bit_generator = self
        self.words = np.asarray(words, dtype=np.uint64)

    def random_raw(self, shape):
        return self.words.reshape(shape)


@pytest.mark.parametrize("rate", [0.1, 0.5, 1.0 / 3.0, 2.0**-53, 1.0 - 2.0**-53])
def test_dropout_mask_threshold_matches_the_float_conversion_at_its_edge(rate):
    net = MLP(1, (4,), 1, rng_create(SeedSpec(0, "net")))
    edge = math.ceil(rate * 2.0**53) << 11
    words = [edge - 2048, edge - 1, edge, edge + 2047, 0, 2**64 - 1, edge - 4096, edge + 2048]
    words = [min(max(w, 0), 2**64 - 1) for w in words]
    got = net.dropout_mask(2, rate, _Words(words))
    uniform = (np.array(words, dtype=np.uint64) >> np.uint64(11)) * 2.0**-53
    assert got.ravel().tobytes() == ((uniform >= rate) / (1.0 - rate)).tobytes()
    assert list(got.ravel()[:4] > 0) == [False, False, True, True]


# The fresh-buffer forward and backward of the engine before workspaces,
# written out; both paths of MLP must equal it bit for bit.


def reference_pass(net, x, mask, grad_out):
    acts, masks, col, h = [x], [], 0, x
    for i in range(len(net.weights) - 1):
        h = np.maximum(h @ net.weights[i] + net.biases[i], 0.0)
        layer_mask = None
        if mask is not None:
            layer_mask = mask[:, col : col + net.dims[i + 1]]
            col += net.dims[i + 1]
            h = h * layer_mask
        masks.append(layer_mask)
        acts.append(h)
    out = h @ net.weights[-1] + net.biases[-1]
    grad = np.zeros_like(net.grad)
    gw, gb, off = [], [], 0
    for fi, fo in zip(net.dims[:-1], net.dims[1:]):
        gw.append(grad[off : off + fi * fo].reshape(fi, fo))
        gb.append(grad[off + fi * fo : off + fi * fo + fo])
        off += fi * fo + fo
    delta = grad_out
    np.matmul(acts[-1].T, delta, out=gw[-1])
    gb[-1][...] = delta.sum(axis=0)
    upstream = delta @ net.weights[-1].T
    for i in range(len(net.weights) - 2, -1, -1):
        if masks[i] is not None:
            upstream *= masks[i]
        upstream *= acts[i + 1] > 0.0
        np.matmul(acts[i].T, upstream, out=gw[i])
        gb[i][...] = upstream.sum(axis=0)
        if i > 0:
            upstream = upstream @ net.weights[i].T
    return out, grad


@pytest.mark.parametrize("rows", [24, 17], ids=["full-batch", "partial-batch"])
@pytest.mark.parametrize("dropout", [0.1, 0.0], ids=["dropout", "no-dropout"])
def test_workspace_pass_equals_the_fresh_buffer_reference(rows, dropout):
    rng = rng_create(SeedSpec(320, "workspace"))
    nets = [MLP(5, (16, 8), 1, rng) for _ in range(2)]
    ws = Workspace(nets[0].dims, 24)
    for buf in (ws.mask, *ws.outs, *ws.upstream):
        buf.fill(np.nan)   # leftovers of another pass must not leak in
    for net in nets:   # two networks in turn through the one workspace
        x = rng.standard_normal((rows, 5))
        grad_out = rng.standard_normal((rows, 1))
        mask = net.dropout_mask(rows, dropout, rng, ws)
        want_out, want_grad = reference_pass(net, x, mask, grad_out)
        for space in (ws, None):
            out, cache = net.forward(x, mask, space)
            assert out.tobytes() == want_out.tobytes()
            assert net.backward(cache, grad_out).tobytes() == want_grad.tobytes()
        assert np.shares_memory(net.forward(x, mask, ws)[0], ws.outs[-1])


def call_counter(monkeypatch, owner, name):
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_cohort_steps_each_network_once_per_batch(monkeypatch):
    counts = {name: call_counter(monkeypatch, owner, name) for owner, name in
              [(MLP, "backward"), (Adam, "step"), (MLP, "dropout_mask")]}
    # batches of 64, 64 and 1 rows; the 1-row batch is skipped
    cfg = MLPConfig(hidden=(8,), epochs=3)
    tasks = [(*correlated(129, s), cfg, 9) for s in (1, 2, 3)]
    _train_cohort(tasks)
    assert len(counts["backward"]) == len(counts["step"]) == 3 * 3 * 2
    assert len(counts["dropout_mask"]) == 3 * 2   # one draw per cohort step


def test_sanity_suite_evaluates_only_the_tail(monkeypatch):
    evaluations = call_counter(monkeypatch, estimator._Network, "full_bound")
    cfg = MLPConfig(hidden=(4,), epochs=30)   # a 3-epoch tail
    sanity_suite(rhos=(0.0, 0.5), n=16, seeds=(1, 2, 3), cfg=cfg)
    assert len(evaluations) == 2 * 3 * 3


# -- estimator ------------------------------------------------------------------


def quick_cfg(epochs=150):
    return MLPConfig(hidden=(64, 32), dropout=0.1, lr=1e-3, epochs=epochs)


def test_dv_bound_improves_over_initialization():
    rng = rng_create(SeedSpec(320, "dv-improve"))
    n = 800
    x = rng.standard_normal(n)
    y = 0.8 * x + 0.6 * rng.standard_normal(n)
    task = (zscore(x[:, None]), zscore(y[:, None]), quick_cfg(), 320)
    [run] = _train_cohort([task])
    assert run.estimate > oracle_run(*task)[1]


def test_independent_inputs_excess_near_zero():
    rng = rng_create(SeedSpec(320, "indep"))
    n = 1000
    x = rng.standard_normal((n, 3))
    z = rng.standard_normal((n, 5))
    seeds = (320, 420)
    est = excess_mi_report(x, z, quick_cfg(), seeds, pca_dim=None)
    assert abs(est.excess) < 0.15


def test_zscore_absorbs_affine_rescaling():
    rng = rng_create(SeedSpec(320, "affine"))
    n = 500
    x = rng.standard_normal((n, 2))
    z = x @ rng.standard_normal((2, 3)) + 0.5 * rng.standard_normal((n, 3))
    seeds = (320,)
    cfg = quick_cfg(epochs=60)
    a = excess_mi_report(x, z, cfg, seeds, pca_dim=None)
    b = excess_mi_report(x * np.array([3.0, 0.2]) + 1.5, z * 7.0 - 2.0, cfg, seeds, pca_dim=None)
    assert abs(a.mean - b.mean) < 0.05


def test_gaussian_mi_closed_forms():
    assert gaussian_mi(0.0) == 0.0
    assert gaussian_mi(0.6) == pytest.approx(0.2231, abs=1e-4)
    assert gaussian_mi(0.9) == pytest.approx(0.8304, abs=1e-4)
    assert sanity_tolerance(0.0) == 0.15
    assert sanity_tolerance(0.8304) == pytest.approx(0.3 * 0.8304)


def test_dv_bound_formula():
    tj = np.array([1.0, 2.0, 3.0])
    tm = np.array([0.0, 0.0, 0.0])
    assert dv_bound(tj, tm) == pytest.approx(2.0)
    peak = np.array([1000.0, 1000.0])
    assert np.isfinite(logmeanexp(peak))
    assert logmeanexp(peak) == pytest.approx(1000.0)


def test_estimate_deterministic_per_seed():
    rng = rng_create(SeedSpec(320, "det-est"))
    x = rng.standard_normal(300)
    y = x + rng.standard_normal(300)
    cfg = quick_cfg(epochs=40)
    a = excess_mi_report(x, y, cfg, (320,), pca_dim=None)
    b = excess_mi_report(x, y, cfg, (320,), pca_dim=None)
    assert a.to_dict()["per_seed"] == b.to_dict()["per_seed"]


# Exact outputs of tiny runs, pinned so that a refactor of the fan-out
# cannot change a bit of any estimate, whatever the worker count.


@pytest.mark.parametrize("workers", [1, 2])
def test_excess_mi_report_pinned(workers):
    rng = rng_create(SeedSpec(320, "pin-excess"))
    x = rng.standard_normal(120)
    z = np.column_stack([x + 0.5 * rng.standard_normal(120), rng.standard_normal(120)])
    cfg = MLPConfig(hidden=(16,), epochs=3)
    est = excess_mi_report(x, z, cfg, (1, 2), pca_dim=None, workers=workers)
    assert est.to_dict()["per_seed"] == [-0.5353284033889595, -1.2581535209422365]
    assert est.mean == -0.896740962165598
    assert est.baseline == -0.9122695563244663
    assert est.ceiling == -1.0582076466372419


@pytest.mark.parametrize("workers", [1, 2])
def test_sanity_suite_pinned(workers):
    cfg = MLPConfig(hidden=(16,), epochs=5)
    cases = sanity_suite(n=64, seeds=(320,), cfg=cfg, workers=workers)
    assert [(c.rho, c.estimate, c.std, c.passed) for c in cases] == [
        (0.0, -0.7503306630709274, 0.0, False),
        (0.3, -0.8446020522096682, 0.0, False),
        (0.6, -0.8845915609057439, 0.0, False),
        (0.9, -0.9289973437569288, 0.0, False),
    ]
    assert [c.true_mi for c in cases] == [gaussian_mi(c.rho) for c in cases]


# The per-network training loop that the cohort trainer replaced: one
# generator per network, the dropout draw written out.  Every run of the
# cohort path must equal it bit for bit.  It also returns the bound of the
# untrained network, which the cohort path does not evaluate.


def oracle_run(x, z, cfg, seed):
    n = x.shape[0]
    spec = SeedSpec(seed, "mine-run")
    rng = rng_create(spec)
    eval_perm = rng_create(spec.derive("eval-perm")).permutation(n)
    net = MLP(x.shape[1] + z.shape[1], cfg.hidden, 1, rng)
    opt = Adam(net.theta.size, cfg.lr)
    eval_input = np.concatenate(
        [np.concatenate([x, z], axis=1), np.concatenate([x, z[eval_perm]], axis=1)]
    )

    def full_bound():
        t = net.predict(eval_input).ravel()
        return dv_bound(t[:n], t[n:])

    initial = full_bound()
    tail_start = cfg.epochs - max(1, int(round(TAIL_FRACTION * cfg.epochs)))
    trace, tail_values = [], []
    for epoch in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, BATCH_SIZE):
            idx = order[start : start + BATCH_SIZE]
            b = idx.size
            if b < 2:
                continue
            perm = rng.permutation(b)
            inp = np.concatenate([np.concatenate([x[idx], z[idx]], axis=1),
                                  np.concatenate([x[idx], z[idx][perm]], axis=1)])
            mask = None
            if cfg.dropout > 0.0 and net.hidden_total:
                mask = (rng.random((2 * b, net.hidden_total)) >= cfg.dropout) / (1.0 - cfg.dropout)
            out, cache = net.forward(inp, mask)
            tm = out[b:, 0]
            w = np.exp(tm - tm.max())
            gout = np.empty((2 * b, 1))
            gout[:b, 0] = -1.0 / b
            gout[b:, 0] = w / w.sum()
            net.backward(cache, gout)
            opt.step(net.theta, clip_gradient(net.grad))
        if epoch >= tail_start:
            value = full_bound()
            tail_values.append(value)
            trace.append((epoch, value))
        elif epoch % TRACE_STRIDE == 0:
            trace.append((epoch, full_bound()))
    return MIRun(seed, float(np.mean(tail_values)), tuple(trace)), initial


def assert_runs_equal_oracle(groups, group_runs):
    for group, runs in zip(groups, group_runs, strict=True):
        for task, run in zip(group, runs, strict=True):
            assert run == oracle_run(*task)[0]


def correlated(n, seed, widths=(1, 1)):
    rng = rng_create(SeedSpec(seed, "cohort-oracle"))
    x = rng.standard_normal((n, widths[0]))
    z = x[:, :1] + 0.5 * rng.standard_normal((n, widths[1]))
    return zscore(x), zscore(z)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "n, cfg",
    [
        (64, MLPConfig(hidden=(16, 8), epochs=4)),
        (129, MLPConfig(hidden=(8,), epochs=3)),   # skips a 1-row batch
        (64, MLPConfig(hidden=(8,), epochs=3, dropout=0.0)),
    ],
    ids=["hidden-16-8", "partial-batch", "no-dropout"],
)
def test_cohort_runs_equal_the_per_network_oracle(n, cfg, workers):
    groups = [[(*correlated(n, rho), cfg, s) for s in (3, 4)] for rho in (1, 2, 3)]
    assert_runs_equal_oracle(groups, _estimates(groups, workers))


@pytest.mark.parametrize("workers", [1, 2])
def test_excess_mi_cohort_with_ceiling_equals_the_oracle(workers):
    x, z = correlated(90, 5, widths=(2, 2))
    cfg = MLPConfig(hidden=(8,), epochs=3)
    seeds = (11, 12)
    xs, zs = _prepare(x, z, None)
    groups = [[(xs, zs, cfg, s) for s in seeds], _baseline_tasks(x, 2, cfg, seeds),
              _ceiling_tasks(x, cfg, seeds)]
    model, base, ceil = _estimates(groups, workers)
    assert_runs_equal_oracle(groups, (model, base, ceil))
    est = excess_mi_report(x, z, cfg, seeds, pca_dim=None, workers=workers)
    assert (est.runs, est.baseline, est.ceiling) == (
        tuple(model), np.mean([r.estimate for r in base]), np.mean([r.estimate for r in ceil]))


def stream_spy(monkeypatch):
    streams = []

    def spy(spec):
        if spec.stream == "mine-run":
            streams.append(spec.seed)
        return rng_create(spec)

    monkeypatch.setattr(estimator, "rng_create", spy)
    return streams


def test_sanity_suite_draws_one_stream_per_seed(monkeypatch):
    streams = stream_spy(monkeypatch)
    sanity_suite(n=16, seeds=(1, 2), cfg=MLPConfig(hidden=(4,), epochs=1), workers=1)
    assert streams == [1, 2]


@pytest.mark.parametrize(
    "z_width, drawn",
    # model and baseline train together; a ceiling of another width draws its own
    [(2, [1, 2, 1, 2]), (1, [1, 2])],
    ids=["unequal-widths", "equal-widths"],
)
def test_excess_mi_report_shares_streams_between_networks(z_width, drawn, monkeypatch):
    streams = stream_spy(monkeypatch)
    x, z = correlated(16, 6, widths=(1, z_width))
    excess_mi_report(x, z, MLPConfig(hidden=(4,), epochs=1), (1, 2), pca_dim=None)
    assert streams == drawn


def test_mlp_config_hidden_list_trains_like_its_tuple():
    cfg = MLPConfig(hidden=[4], epochs=1)
    assert cfg == MLPConfig(hidden=(4,), epochs=1)
    assert sanity_suite(n=16, seeds=(1,), cfg=cfg) == sanity_suite(
        n=16, seeds=(1,), cfg=MLPConfig(hidden=(4,), epochs=1))


# -- probes ----------------------------------------------------------------------


def xor_dataset(n=400, noise=0.2, seed=320):
    rng = rng_create(SeedSpec(seed, "xor"))
    signs = rng.choice([-1.0, 1.0], size=(n, 2))
    x = signs + noise * rng.standard_normal((n, 2))
    labels = (signs[:, 0] * signs[:, 1] > 0).astype(np.int64)
    return x, labels


def test_xor_separates_mlp_from_linear():
    x, labels = xor_dataset()
    linear_acc, _ = frozen_head_classifier(x, labels, folds=5, seed=SeedSpec(320))
    mlp_acc, _ = mlp_probe_cv(x, labels, "mlp", folds=5, seed=SeedSpec(320))
    assert abs(linear_acc - 0.5) < 0.12
    assert mlp_acc > 0.9


def test_probe_shuffled_labels_chance():
    rng = rng_create(SeedSpec(320, "probe-shuffle"))
    x, labels = xor_dataset()
    shuffled = rng.permutation(labels)
    acc, _ = mlp_probe_cv(x, shuffled, "mlp", folds=5, seed=SeedSpec(320))
    assert abs(acc - 0.5) < 0.1


def test_probe_deterministic():
    x, labels = xor_dataset(n=120)
    a = mlp_probe_cv(x, labels, "mlp", folds=3, seed=SeedSpec(55))
    b = mlp_probe_cv(x, labels, "mlp", folds=3, seed=SeedSpec(55))
    assert a == b


@pytest.mark.parametrize(
    "noise, linear, mlp",
    [
        (0.2, (0.5988065457577653, 0.07837156605737775), (1.0, 0.0)),
        (0.8, (0.5416927246195539, 0.029508833993938024),
         (0.7761673962893475, 0.06767425694333974)),
    ],
)
def test_probes_pinned(noise, linear, mlp):
    x, labels = xor_dataset(n=120, noise=noise)
    assert frozen_head_classifier(x, labels, folds=3, seed=SeedSpec(55)) == linear
    assert mlp_probe_cv(x, labels, "mlp", folds=3, seed=SeedSpec(55)) == mlp


def test_probe_single_class():
    with pytest.raises(DataError, match="need exactly 2 classes, got 1"):
        mlp_probe_cv(np.ones((10, 2)), np.zeros(10, dtype=int), "mlp")


def test_probe_unknown_arch_is_config_error():
    with pytest.raises(ConfigError) as exc:
        probe_config("tiny")
    assert str(exc.value) == (
        "unknown probe arch 'tiny'; choose from ['linear', 'mlp', 'mlp-wide']"
    )


# -- features ---------------------------------------------------------------------


def test_dna_features_gc_and_dinucleotides():
    feats = dna_features("GGCC")
    assert feats[0] == 1.0  # GC content
    feats = dna_features("ACGT")
    # dinucleotide block order: AA AC AG AT CA CC CG CT GA GC GG GT TA TC TG TT
    expected = np.zeros(16)
    expected[[1, 6, 11]] = 1 / 3  # AC, CG, GT
    assert np.allclose(feats[1:], expected)
    assert feats.shape == (17,)


def test_dna_features_match_pair_rank_oracle(rng):
    idx = rng.integers(0, 4, 301)
    pairs = np.bincount(idx[:-1] * 4 + idx[1:], minlength=16) / 300
    gc = ((idx == 1) | (idx == 2)).mean()
    feats = dna_features(SymbolSequence(idx, DNA))
    assert (feats == np.concatenate([[gc], pairs])).all()


def test_features_reject_the_wrong_alphabet():
    with pytest.raises(DataError, match="DNA features need the DNA alphabet"):
        dna_features(SymbolSequence.from_string("ACDK", PROTEIN))
    with pytest.raises(DataError, match="protein features need the protein alphabet"):
        protein_features(SymbolSequence.from_string("ACGT", DNA))


def test_protein_features_poly_lysine():
    feats = protein_features("K" * 50)
    assert feats.shape == (23,)
    assert feats[21] == pytest.approx(1.0)    # net charge per residue
    assert feats[20] == pytest.approx(0.05)   # L / 1000
    assert feats[22] == pytest.approx(-3.9)   # Kyte-Doolittle for K


def test_protein_features_charges_cancel():
    feats = protein_features("KD" * 10)
    assert feats[21] == pytest.approx(0.0)
