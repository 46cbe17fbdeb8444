import numpy as np
import pytest

from geotax.core.rng import SeedSpec, rng_create
from geotax.dynamics import (
    BLOWUP_LIMIT,
    LORENZ_BETA,
    LORENZ_DT,
    LORENZ_RHO,
    LORENZ_SIGMA,
    LORENZ_TRANSIENT,
    GlobalRange,
    OscillatorParams,
    Trajectory,
    butterfly_test,
    discretize,
    estimate_lle,
    fit_global_range,
    gen_lorenz,
    gen_oscillator,
    gen_waveform,
    lorenz_twins,
    waveform_from_components,
    lorenz_initial_state,
    _integrate_lorenz,
)
from geotax.errors import DataError

# Benettin-rescaling oracle value for the canonical Lorenz parameters,
# recorded from a 200k-step run (dt=0.01, d0=1e-8); the literature value
# for these parameters is ~0.9056.
LORENZ_LLE_ORACLE = 0.905


def lorenz_deriv_oracle(state):
    x, y, z = state
    return np.array(
        [
            LORENZ_SIGMA * (y - x),
            x * (LORENZ_RHO - z) - y,
            x * y - LORENZ_BETA * z,
        ]
    )


def rk4_step_oracle(state, dt):
    """RK4 on numpy arrays, the form the scalar integrator must reproduce."""
    k1 = lorenz_deriv_oracle(state)
    k2 = lorenz_deriv_oracle(state + 0.5 * dt * k1)
    k3 = lorenz_deriv_oracle(state + 0.5 * dt * k2)
    k4 = lorenz_deriv_oracle(state + dt * k3)
    return state + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def benettin_lle(seed, n_steps=20000, dt=0.01, d0=1e-8):
    """Independent LLE oracle: renormalize the twin separation every step
    and average the log expansion (no curve fitting involved)."""
    state = lorenz_initial_state(seed)
    pert = state + np.array([d0, 0.0, 0.0])
    total = 0.0
    for _ in range(n_steps):
        state = rk4_step_oracle(state, dt)
        pert = rk4_step_oracle(pert, dt)
        delta = pert - state
        dist = np.linalg.norm(delta)
        total += np.log(dist / d0)
        pert = state + delta * (d0 / dist)
    return total / (n_steps * dt)


# -- oscillator ------------------------------------------------------------


def test_oscillator_constant_when_frozen():
    traj = gen_oscillator(OscillatorParams(1.0, 0.0, 0.0, 0.0))
    assert np.allclose(traj.values, 1.0)


def test_oscillator_quarter_phase_starts_at_zero():
    traj = gen_oscillator(OscillatorParams(1.0, 0.0, 5.0, np.pi / 2))
    assert traj.values[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_oscillator_closed_form_at_t_one():
    traj = gen_oscillator(OscillatorParams(1.0, 1.0, 2 * np.pi, 0.0))
    # t = 1 falls on grid index 128 of 512 over [0, 4)
    assert traj.values[128, 0] == pytest.approx(np.exp(-1.0), abs=1e-12)
    assert traj.values[128, 0] == pytest.approx(0.3679, abs=1e-4)


# -- waveform ----------------------------------------------------------------


def test_waveform_single_component_matches_undamped_oscillator():
    traj = waveform_from_components([1.3], [7.0], [0.4])
    ref = gen_oscillator(OscillatorParams(1.3, 0.0, 7.0, 0.4))
    assert np.allclose(traj.values, ref.values)


def test_waveform_reproducible():
    a = gen_waveform(SeedSpec(320, "wf"), 3)
    b = gen_waveform(SeedSpec(320, "wf"), 3)
    assert (a.values == b.values).all()


def test_waveform_full_periods_mean_near_zero():
    # integer cycles over the window -> mean vanishes up to discretization
    omegas = [2 * np.pi * k / 4.0 for k in (2, 5, 9)]
    traj = waveform_from_components([1.0, 0.7, 1.5], omegas, [0.3, 1.1, 2.0])
    assert abs(traj.values.mean()) < 0.05


# -- lorenz ------------------------------------------------------------------


def test_lorenz_deterministic():
    a = gen_lorenz(SeedSpec(320, "lz"), 500)
    b = gen_lorenz(SeedSpec(320, "lz"), 500)
    assert (a.values == b.values).all()


@pytest.mark.parametrize("seed", [SeedSpec(320, "lz"), SeedSpec(1, "vq-lorenz"), 29])
def test_lorenz_bytes_equal_numpy_rk4_oracle(seed):
    rng = rng_create(seed)
    state = np.array([1.0, 1.0, 1.0]) + rng.uniform(-0.5, 0.5, size=3)
    for _ in range(LORENZ_TRANSIENT):
        state = rk4_step_oracle(state, LORENZ_DT)
    assert lorenz_initial_state(seed).tobytes() == state.tobytes()
    steps = []
    for _ in range(2000):
        steps.append(state)
        state = rk4_step_oracle(state, LORENZ_DT)
    assert gen_lorenz(seed, 2000).values.tobytes() == np.array(steps).tobytes()


def test_lorenz_divergence_names_the_oracle_step():
    state = np.array([1e3, 1e3, 1e3])
    i = 0
    while np.abs(state := rk4_step_oracle(state, LORENZ_DT)).max() <= BLOWUP_LIMIT:
        i += 1
    assert i > 0
    with pytest.raises(DataError, match=f"lorenz integration diverged at step {i}$"):
        _integrate_lorenz(np.array([1e3, 1e3, 1e3]), 100)


def test_lorenz_long_run_attractor_bounds():
    traj = gen_lorenz(SeedSpec(320, "lz-bounds"), 20000)
    x, y, z = traj.values.T
    assert np.abs(x).max() < 25
    assert np.abs(y).max() < 30
    assert z.min() > 0 and z.max() < 55


def test_lorenz_twin_divergence_grows_exponentially():
    a, b = lorenz_twins(SeedSpec(320, "lz-twins"), 3000, delta=1e-9)
    sep = np.linalg.norm(a.values - b.values, axis=1)
    assert sep[0] == pytest.approx(1e-9, rel=1e-6)
    assert sep.max() > 1e-3  # nine decades of growth before saturation
    third = len(sep) // 3
    assert np.log(sep[third:2 * third].mean()) > np.log(sep[:third].mean())


# -- global range / discretize ----------------------------------------------


def test_trajectory_leaves_the_callers_array_writeable():
    values = np.zeros((3, 2))
    traj = Trajectory(values, 1.0)
    values += 1.0  # raised "output array is read-only" when the class froze it
    assert not traj.values.flags.writeable
    assert (traj.values == 0.0).all()


def test_global_range_leaves_the_callers_arrays_writeable():
    lo, hi = np.zeros(2), np.ones(2)
    grange = GlobalRange(lo, hi)
    lo -= 1.0
    hi += 1.0
    assert not (grange.minimum.flags.writeable or grange.maximum.flags.writeable)
    assert grange.minimum.tolist() == [0.0, 0.0] and grange.maximum.tolist() == [1.0, 1.0]


def test_fit_global_range_envelope():
    t1 = Trajectory(np.array([[0.0], [1.0]]), 1.0)
    t2 = Trajectory(np.array([[-2.0], [0.5]]), 1.0)
    r = fit_global_range([t1, t2])
    assert r.minimum[0] == -2.0 and r.maximum[0] == 1.0


def test_fit_global_range_constant_is_degenerate():
    t = Trajectory(np.array([[1.0], [1.0]]), 1.0)
    with pytest.raises(DataError, match="max must exceed min in every channel"):
        fit_global_range([t])


def test_fit_global_range_rejects_differing_channel_counts():
    trajs = [Trajectory(np.zeros((2, 3)), 1.0), Trajectory(np.ones((2, 1)), 1.0)]
    with pytest.raises(DataError, match=r"trajectories differ in channel count: \[1, 3\]"):
        fit_global_range(trajs)


def test_discretize_range_channel_mismatch_names_both_counts():
    traj = Trajectory(np.zeros((4, 3)), 1.0)
    with pytest.raises(DataError, match="range has 1 channels but the trajectory has 3"):
        discretize(traj, GlobalRange([0.0], [1.0]), 8)


def test_fit_global_range_permutation_invariant(rng):
    trajs = [Trajectory(rng.standard_normal((20, 2)), 1.0) for _ in range(5)]
    r1 = fit_global_range(trajs)
    r2 = fit_global_range(trajs[::-1])
    assert (r1.minimum == r2.minimum).all() and (r1.maximum == r2.maximum).all()


def test_discretize_edges_and_midpoint():
    grange = GlobalRange([0.0], [1.0])
    traj = Trajectory(np.array([[0.0], [1.0], [0.5], [-3.0], [7.0]]), 1.0)
    seq = discretize(traj, grange, 256)
    assert seq.symbols.tolist() == [0, 255, 128, 0, 255]  # clamped outside


def test_discretize_undiscretize_half_bin_error(rng):
    grange = GlobalRange([-1.0], [1.0])
    vals = rng.uniform(-1.0, 1.0, size=(300, 1))
    traj = Trajectory(vals, 1.0)
    seq = discretize(traj, grange, 256)
    centres = -1.0 + (seq.symbols[:, None] + 0.5) / 256 * 2.0
    assert np.abs(centres - vals).max() <= 2.0 / (2 * 256) + 1e-12


# -- LLE -----------------------------------------------------------------------


def test_lle_identical_trajectories_zero():
    a = gen_lorenz(SeedSpec(320, "lle-id"), 300)
    res = estimate_lle(a, a)
    assert res.lle == 0.0


def test_lle_lorenz_within_ten_percent_of_oracle():
    a, b = lorenz_twins(SeedSpec(320, "lle"), 4000, delta=1e-9)
    res = estimate_lle(a, b)
    assert abs(res.lle - LORENZ_LLE_ORACLE) / LORENZ_LLE_ORACLE < 0.10


def test_benettin_oracle_agrees_with_recorded_value():
    assert benettin_lle(SeedSpec(320, "lle-oracle")) == pytest.approx(
        LORENZ_LLE_ORACLE, rel=0.02
    )


def damped_spiral_twins(gamma=0.8, omega=6.0, delta=1e-4, n=600, dt=0.01):
    t = np.arange(n) * dt
    base = np.stack([np.exp(-gamma * t) * np.cos(omega * t),
                     np.exp(-gamma * t) * np.sin(omega * t)], axis=1)
    a = Trajectory(base, dt)
    b = Trajectory((1.0 + delta) * base, dt)
    return a, b


def test_lle_damped_twins_negative():
    a, b = damped_spiral_twins()
    assert estimate_lle(a, b).lle < 0


def test_lle_time_reversal_flips_sign():
    a, b = damped_spiral_twins()
    lam = estimate_lle(a, b).lle
    rev = estimate_lle(
        Trajectory(a.values[::-1], a.dt), Trajectory(b.values[::-1], b.dt)
    ).lle
    assert rev == pytest.approx(-lam, rel=1e-6)


def test_lle_saturated_too_early():
    # offset at attractor scale: no pre-saturation growth window
    a, b = lorenz_twins(SeedSpec(320, "lle-sat"), 300, delta=10.0)
    with pytest.raises(DataError, match="reduce the initial offset"):
        estimate_lle(a, b)


# -- butterfly -----------------------------------------------------------------


def test_butterfly_passes_on_reference_lorenz():
    res = butterfly_test(gen_lorenz(SeedSpec(320, "bf"), 5000))
    assert res.passed and res.bounds_ok
    assert res.n_lobe_switches >= 3


def test_butterfly_fails_on_constant():
    vals = np.tile([1.0, 1.0, 20.0], (1000, 1))
    assert not butterfly_test(Trajectory(vals, 0.01)).passed


def test_butterfly_fails_on_bounded_noise():
    rng = rng_create(SeedSpec(320, "bf-noise"))
    vals = np.stack(
        [rng.uniform(-15, 15, 2000), rng.uniform(-20, 20, 2000), rng.uniform(5, 40, 2000)],
        axis=1,
    )
    res = butterfly_test(Trajectory(vals, 0.01))
    assert not res.passed  # alternates every ~2 steps: no lobe dwell
    assert res.mean_dwell_steps < 10
