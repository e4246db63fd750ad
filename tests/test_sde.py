"""Jump-SDE checks: flow accuracy against closed forms and an independent
Euler scheme, tangent closed forms, FD oracles for the per-jump vectors,
and the absolute-continuity criteria.  The batch engines are checked
against the per-path K/K~ solvers of `sde_oracles`."""
import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from hawkmal.malliavin import carre_du_champ, xi_kernel
from hawkmal.model import (
    AssumptionError,
    BaselineSpec,
    HawkesModel,
    KernelSpec,
    NonlinearitySpec,
)
import hawkmal.sde
from hawkmal.sde import (
    JumpSde,
    _backward_vectors,
    density_criteria,
    grad_and_gamma_XT,
    sde_preset,
    _THETA13,
    _expm_scaled,
    _expm_stack,
    _linear_batch,
    _linear_propagators,
    _linear_sensitivity,
    _rk4_batch,
    _segment_steps,
    _segments,
)
import hawkmal.simulate
from hawkmal.simulate import HawkesPath, simulate_batch
from sde_oracles import (
    batch_of,
    composition_sensitivity,
    jump_time_fd,
    linear_tangent_sensitivity,
    phi_jump_sensitivity,
    solve_flow,
    solve_path,
    tangent_sensitivity,
    tangents,
)


def reference_model():
    return HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )


@pytest.fixture(scope="module")
def short_batch():
    return simulate_batch(reference_model(), T=2.0, master_seed=88, n_paths=40)


# ---- oracles ----

def euler_terminal(sde, batch, n_grid):
    """Independent Euler scheme for dX = f dt + g dN on a common time grid,
    vectorized across paths (each jump fires at the end of its grid cell)."""
    T = batch.horizon
    P = batch.n_paths
    h = T / n_grid
    x = np.tile(sde.x0, (P, 1))
    slot = np.minimum(np.floor(batch.flat_times / h).astype(np.int64), n_grid - 1)
    order = np.argsort(slot, kind="stable")
    js = slot[order]
    jpath = np.repeat(np.arange(P), batch.counts())[order]
    jtime = batch.flat_times[order]
    ptr = 0
    for k in range(n_grid):
        x += h * sde.drift(k * h, x)
        while ptr < js.size and js[ptr] == k:
            i = jpath[ptr]
            x[i] += sde.jump(jtime[ptr], x[i])
            ptr += 1
    return x[:, 0]


# ---- flows ----

def test_identity_flow_is_exact():
    sde = JumpSde.scalar(
        f=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        f_x=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        g=lambda t, x: 0.1 * np.ones_like(np.asarray(x, dtype=float)),
        g_x=lambda t, x: np.zeros_like(np.asarray(x, dtype=float)),
        x0=0.7,
    )
    res = solve_flow(sde, 0.3, 1.9, np.array([0.7]), horizon=2.0)
    assert res.state[0] == 0.7
    assert res.error_estimate == 0.0


def test_linear_flow_closed_form():
    sde = JumpSde.linear_scalar(a=1.0, b=0.0, alpha=0.5, beta=0.0, x0=2.0)
    res = solve_flow(sde, 0.0, 1.0, np.array([2.0]), horizon=1.0)
    assert res.state[0] == pytest.approx(2.0 * math.e, rel=1e-9)
    assert res.error_estimate < 1e-10
    # affine drift
    aff = JumpSde.linear_scalar(a=0.5, b=0.3, alpha=0.0, beta=0.1, x0=1.0)
    res = solve_flow(aff, 0.0, 2.0, np.array([1.0]), horizon=2.0)
    expected = math.exp(1.0) * 1.0 + 0.3 / 0.5 * (math.exp(1.0) - 1.0)
    assert res.state[0] == pytest.approx(expected, rel=1e-9)


def test_flow_semigroup():
    sde = JumpSde.cos_sin(x0=0.2)
    direct = solve_flow(sde, 0.0, 2.0, np.array([0.2]), horizon=2.0)
    first = solve_flow(sde, 0.0, 0.9, np.array([0.2]), horizon=2.0)
    second = solve_flow(sde, 0.9, 2.0, first.state, horizon=2.0)
    tol = 2.0 * (direct.error_estimate + first.error_estimate
                 + second.error_estimate) + 1e-12
    assert abs(direct.state[0] - second.state[0]) <= tol


def test_flow_rejects_reversed_times():
    sde = JumpSde.cos_sin()
    with pytest.raises(ValueError, match="s <= t"):
        solve_flow(sde, 1.0, 0.5, np.array([0.0]))


# ---- path solutions ----

def test_no_jump_path_is_pure_flow():
    sde = JumpSde.linear_scalar(a=0.4, b=0.2, alpha=0.3, beta=0.0, x0=1.5)
    sol = solve_path(sde, HawkesPath(np.empty(0), horizon=3.0))
    expected = math.exp(1.2) * 1.5 + 0.2 / 0.4 * (math.exp(1.2) - 1.0)
    assert sol.terminal[0] == pytest.approx(expected, rel=1e-9)
    assert sol.pre_jump_states.shape == (0, 1)


def test_linear_scalar_terminal_closed_form():
    # b = beta = 0: X_T = x0 exp(aT) (1 + alpha)^{N_T}
    sde = JumpSde.linear_scalar(a=0.3, b=0.0, alpha=0.5, beta=0.0, x0=2.0)
    batch = simulate_batch(reference_model(), T=3.0, master_seed=12, n_paths=60)
    for path in batch:
        sol = solve_path(sde, path)
        closed = 2.0 * math.exp(0.3 * 3.0) * 1.5**path.count
        assert sol.terminal[0] == pytest.approx(closed, rel=1e-8)


def test_flow_composition_matches_euler(short_batch):
    sde = JumpSde.cos_sin(x0=0.0)
    euler = euler_terminal(sde, short_batch, n_grid=200_000)
    for i, path in enumerate(short_batch):
        sol = solve_path(sde, path)
        assert abs(sol.terminal[0] - euler[i]) <= 1e-3 * abs(sol.terminal[0]), (
            f"path {i} ({path.count} jumps)"
        )


def test_singular_jump_map_matches_closed_form():
    # alpha = -1: every jump maps x to beta, and no engine inverts the map.
    # After the last jump, X_T = e^{a tau} beta + (b/a)(e^{a tau} - 1) with
    # tau = T - T_n, and every earlier jump moves nothing, so
    # Gamma = ((a beta + b) e^{a tau})^2 xi(T_n, T_n)
    a, b, beta, T = 0.1, 0.3, 0.2, 5.0
    sde = JumpSde.linear_scalar(a=a, b=b, alpha=-1.0, beta=beta, x0=1.0)
    batch = simulate_batch(reference_model(), T=T, master_seed=7, n_paths=200)
    crit = density_criteria(sde, batch)
    assert (batch.counts() > 0).all()
    t_n = batch.flat_times[batch.offsets[1:] - 1]
    grow = np.exp(a * (T - t_n))
    np.testing.assert_allclose(crit.terminal[:, 0], grow * beta + b / a * np.expm1(a * (T - t_n)), rtol=1e-12)
    gamma = ((a * beta + b) * grow) ** 2 * xi_kernel(T, t_n, t_n)
    np.testing.assert_allclose(crit.per_path_det, gamma, rtol=1e-12)
    assert crit.passed
    # the per-path oracle takes K~, which needs the jump map's inverse
    shrink = JumpSde.scalar(
        f=lambda t, x: 0.0 * x,
        f_x=lambda t, x: 0.0 * x,
        g=lambda t, x: -x,
        g_x=lambda t, x: -np.ones_like(np.asarray(x, dtype=float)),
        x0=1.0,
    )
    with pytest.raises(AssumptionError, match="invertible"):
        solve_path(shrink, HawkesPath(np.array([1.0]), horizon=2.0))


# ---- tangents ----

def test_tangent_scalar_exponential():
    # g = 0, f = a x: K_T = exp(aT), K_tilde = exp(-aT)
    sde = JumpSde.linear_scalar(a=0.7, b=0.0, alpha=0.0, beta=0.0, x0=1.0)
    res = tangents(sde, HawkesPath(np.array([0.5, 1.5]), horizon=2.0))
    assert res.K_T[0, 0] == pytest.approx(math.exp(1.4), rel=1e-10)
    assert res.K_tilde_T[0, 0] == pytest.approx(math.exp(-1.4), rel=1e-10)
    assert res.product_drift <= 1e-12
    np.testing.assert_allclose(res.jump_dets, 1.0)


def test_tangent_linear_ddim_closed_form():
    sde = sde_preset("linear-d2")
    t = np.array([1.0, 2.0, 3.5])
    path = HawkesPath(t, horizon=5.0)
    res = tangents(sde, path)
    target = math.exp(5.0) * np.diag([2.0**3, 3.0**3])
    np.testing.assert_allclose(res.K_T, target, rtol=1e-9, atol=1e-9)
    # K_T^{T_i} = exp(A(T - t_i)) (I + M)^{n - i}
    for i in range(3):
        expected = math.exp(5.0 - t[i]) * np.diag(
            [2.0 ** (3 - (i + 1)), 3.0 ** (3 - (i + 1))]
        )
        np.testing.assert_allclose(res.k_T_from(i), expected, rtol=1e-9)


def test_tangent_product_stays_near_identity():
    sde = JumpSde.cos_sin(x0=0.4)
    batch = simulate_batch(reference_model(), T=2.0, master_seed=5, n_paths=50)
    worst = 0.0
    for path in batch:
        worst = max(worst, tangents(sde, path).product_drift)
    assert worst <= 1e-8, f"max |K K~ - I| = {worst:.3g}"


# ---- phi ----

def test_phi_constant_for_linear_coefficients():
    sde = JumpSde.linear_scalar(a=0.5, b=0.1, alpha=0.3, beta=0.2, x0=1.0)
    target = 0.5 * 0.2 - 0.3 * 0.1
    for t, x in [(0.0, 1.0), (1.7, -4.0), (4.9, 12.0)]:
        assert phi_jump_sensitivity(sde, t, np.array([x]))[0] == pytest.approx(
            target, rel=1e-14
        )


def test_phi_zero_cases():
    nojump = JumpSde.scalar(
        f=lambda t, x: np.cos(x),
        f_x=lambda t, x: -np.sin(x),
        g=lambda t, x: 0.0 * x,
        g_x=lambda t, x: 0.0 * x,
        x0=0.0,
    )
    assert phi_jump_sensitivity(nojump, 1.0, np.array([0.3]))[0] == 0.0
    degenerate = JumpSde.linear_scalar(a=1.0, b=1.0, alpha=1.0, beta=1.0, x0=1.0)
    assert phi_jump_sensitivity(degenerate, 0.5, np.array([2.0]))[0] == pytest.approx(
        0.0, abs=1e-15
    )


def test_wronskian_certificate_fields():
    sde = JumpSde.cos_sin()
    assert sde.wronskian_inf == 1.0
    assert 0.5 * sde.f_second_sup * sde.g_sup**2 == 0.5


# ---- gradient of X_T ----

def test_vectors_match_jump_time_fd():
    sde = JumpSde.cos_sin(x0=0.3)
    t = np.array([0.6, 1.1, 1.7])
    path = HawkesPath(t, horizon=2.0)
    rep = grad_and_gamma_XT(sde, path)
    fd = jump_time_fd(sde, [t], 2.0, h=1e-6)
    for i in range(t.size):
        assert rep.vectors[i, 0] == pytest.approx(fd[i], rel=1e-4), f"jump {i}"


def test_vectors_linear_ddim_closed_form():
    sde = sde_preset("linear-d2")
    t = np.array([1.0, 2.5, 4.0])
    rep = grad_and_gamma_XT(sde, HawkesPath(t, horizon=5.0))
    phi = np.ones(2)  # A beta - M b = beta
    for i in range(3):
        expected = -math.exp(5.0 - t[i]) * np.diag(
            [2.0 ** (2 - i), 3.0 ** (2 - i)]
        ) @ phi
        np.testing.assert_allclose(rep.vectors[i], expected, rtol=1e-9)


def test_gamma_single_jump_scalar():
    sde = JumpSde.cos_sin(x0=0.1)
    path = HawkesPath(np.array([1.2]), horizon=4.0)
    rep = grad_and_gamma_XT(sde, path)
    v = rep.vectors[0, 0]
    assert rep.gamma[0, 0] == pytest.approx(v * v * 1.2 * (1 - 1.2 / 4.0), rel=1e-12)
    assert rep.det == pytest.approx(rep.gamma[0, 0])
    empty = grad_and_gamma_XT(sde, HawkesPath(np.empty(0), horizon=4.0))
    assert empty.gamma[0, 0] == 0.0 and empty.det == 0.0


def test_gamma_agrees_with_xi_gram():
    sde = JumpSde.cos_sin(x0=0.0)
    path = HawkesPath(np.array([0.4, 1.0, 1.6]), horizon=2.0)
    rep = grad_and_gamma_XT(sde, path)
    g = rep.gradient_component(0)
    assert carre_du_champ(g, g) == pytest.approx(rep.gamma[0, 0], rel=1e-12)


def test_linear_engine_matches_rk4():
    sde = sde_preset("linear-d2")
    path = HawkesPath(np.array([0.8, 2.2, 3.1, 4.4]), horizon=5.0)
    exact = linear_tangent_sensitivity(sde, path)
    generic = tangent_sensitivity(sde, path)
    np.testing.assert_allclose(exact.terminal, generic.terminal, rtol=1e-9)
    np.testing.assert_allclose(exact.vectors, generic.vectors, rtol=1e-8)
    np.testing.assert_allclose(exact.gamma, generic.gamma, rtol=1e-8)
    assert exact.product_drift <= 1e-10


def test_batch_sweep_matches_per_path(short_batch):
    sde = JumpSde.cos_sin(x0=0.0)
    terminal, _, factor, _ = _rk4_batch(sde, short_batch)
    gamma = factor_gram(short_batch, factor)
    for i, path in enumerate(short_batch):
        rep = tangent_sensitivity(sde, path)
        assert terminal[i, 0] == pytest.approx(rep.terminal[0], rel=1e-9)
        assert gamma[i, 0, 0] == pytest.approx(rep.gamma[0, 0], rel=1e-9, abs=1e-13)


# ---- criteria ----

def test_density_criteria_cos_sin():
    sde = JumpSde.cos_sin(x0=0.0)
    batch = simulate_batch(reference_model(), T=5.0, master_seed=91, n_paths=2000)
    crit = density_criteria(sde, batch)
    assert crit.kind == "scalar"
    assert crit.n_conditioned == int(np.sum(batch.counts() >= 1))
    assert crit.min_gamma > 0.0
    assert crit.n_nonpositive == 0
    assert crit.wronskian_margin == pytest.approx(0.5)
    assert crit.passed


def test_density_criteria_degenerate_linear():
    # a beta - alpha b = 0: every v_i vanishes, Gamma = 0 on all paths
    sde = JumpSde.linear_scalar(a=1.0, b=1.0, alpha=1.0, beta=1.0, x0=1.0)
    batch = simulate_batch(reference_model(), T=5.0, master_seed=92, n_paths=300)
    crit = density_criteria(sde, batch)
    np.testing.assert_array_equal(crit.per_path_det, np.zeros(300))
    assert crit.min_gamma == 0.0
    assert not crit.passed
    # telescoping: Gamma = 0 forces every per-jump vector to vanish
    for path in list(batch)[:10]:
        rep = grad_and_gamma_XT(sde, path)
        assert np.all(np.abs(rep.vectors) <= 1e-12)


def test_density_criteria_spanning_rank():
    sde = sde_preset("linear-d2")
    batch = simulate_batch(reference_model(), T=5.0, master_seed=93, n_paths=500)
    crit = density_criteria(sde, batch)
    assert crit.kind == "linear-ddim"
    assert crit.n_conditioned == int(np.sum(batch.counts() >= 2))
    assert crit.min_rank == 2
    assert crit.min_gamma > 0.0
    assert crit.passed
    assert crit.n_conditioned == int(np.sum(batch.counts() >= 2))
    flagged = crit.per_path_flag[batch.counts() >= 2]
    assert np.all(flagged)


def matrix_2x2(a, b, c, d):
    """[[a, b], [c, d]] over the broadcast shape of its entries."""
    a, b, c, d = np.broadcast_arrays(a, b, c, d)
    return np.stack([np.stack([a, b], axis=-1), np.stack([c, d], axis=-1)], axis=-2)


def coupled_d2():
    """A two-dimensional system that is neither linear nor diagonal, so
    `density_criteria` takes the RK4 engine with matrix tangents."""
    return JumpSde(
        dim=2,
        x0=np.array([0.5, -0.2]),
        drift=lambda t, x: np.stack([np.sin(x[..., 1]), -0.5 * x[..., 0]], axis=-1),
        drift_jac=lambda t, x: matrix_2x2(0.0, np.cos(x[..., 1]), -0.5, 0.0),
        jump=lambda t, x: np.stack(
            [1.0 + 0.3 * np.cos(x[..., 1]), 0.2 * np.sin(x[..., 0]) - 0.5], axis=-1
        ),
        jump_jac=lambda t, x: matrix_2x2(0.0, -0.3 * np.sin(x[..., 1]), 0.2 * np.cos(x[..., 0]), 0.0),
        jump_dt=lambda t, x: np.zeros(2),
        label="coupled-d2",
    )


def test_density_criteria_general_ddim_matches_per_path(short_batch):
    sde = coupled_d2()
    crit = density_criteria(sde, short_batch)
    assert crit.kind == "general-ddim" and crit.terminal.shape[1] == 2
    counts = short_batch.counts()
    assert (counts >= 2).any() and (counts < 2).any()
    reps = [tangent_sensitivity(sde, path) for path in short_batch]
    ranks = [np.linalg.matrix_rank(rep.vectors) if rep.vectors.size else 0 for rep in reps]
    for i, rep in enumerate(reps):
        np.testing.assert_array_equal(crit.terminal[i], rep.terminal)
        if counts[i] >= 2:
            assert crit.per_path_det[i] == pytest.approx(rep.det, rel=1e-12)
            assert crit.per_path_min_eig[i] == pytest.approx(rep.min_eig, rel=1e-9)
            assert crit.per_path_flag[i] == (ranks[i] == 2)
        else:
            assert crit.per_path_det[i] == 0.0 and crit.per_path_min_eig[i] == 0.0
            assert not crit.per_path_flag[i]
    assert crit.min_rank == min(r for r, n in zip(ranks, counts) if n >= 2)
    assert crit.n_conditioned == int(np.sum(counts >= 2))


def test_linear_systems_take_the_exact_engine():
    """On `linear-d2` (seed 11, 200 reference paths) one path has 26 jumps
    and |x_2| reaches 5e14.  A and M commute, so phi = A beta - M b = beta
    and v_i = -e^{T - T_i} (I + M)^{n-1-i} beta exactly: the last is
    (-1.5012724, -1.5012724).  The RK4 route forms
    phi = f(x + g) - (I + grad g) f(x) from terms of size |x_2|, and gave
    -1.548 in component 2 there (3.1 % off), so `grad_and_gamma_XT` and
    `density_criteria` must both take the exact engine."""
    sde = sde_preset("linear-d2")
    batch = simulate_batch(reference_model(), T=5.0, master_seed=11, n_paths=200)
    i = int(np.argmax(batch.counts()))
    path = batch.path(i)
    assert path.count == 26
    rep = grad_and_gamma_XT(sde, path)
    assert abs(rep.terminal[1]) > 1e14
    powers = np.diag(sde.linear.M)[None, :] + 1.0
    k = (path.count - 1 - np.arange(path.count))[:, None]
    want = -np.exp(5.0 - path.jump_times)[:, None] * powers**k * sde.linear.beta
    np.testing.assert_allclose(rep.vectors, want, rtol=1e-12)
    np.testing.assert_allclose(rep.vectors[-1], [-1.5012724] * 2, rtol=1e-7)
    crit = density_criteria(sde, batch)
    assert crit.per_path_det[i] == rep.det and crit.per_path_min_eig[i] == rep.min_eig


def test_unknown_preset():
    with pytest.raises(ValueError, match="preset"):
        sde_preset("heston")


# ---- batched engines against the per-path oracles ----

def factor_gram(batch, factor):
    """Gamma[X_T] = W^T W of every path, (P, d, d), from an engine's bridge
    factor W (J, d) in flat_times order."""
    o = batch.offsets
    return np.stack([factor[o[i]:o[i + 1]].T @ factor[o[i]:o[i + 1]] for i in range(batch.n_paths)])


@st.composite
def jump_sets(draw, T, max_jumps, min_gap=0.0):
    """Strictly increasing jump times in (0, T], at least `min_gap` apart."""
    raw = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=max_jumps))
    times = np.unique(np.asarray(raw) * T)
    if min_gap > 0.0 and times.size:
        keep = np.concatenate([[True], np.diff(times) >= min_gap])
        times = times[keep & (times >= min_gap) & (times <= T - min_gap)]
    return times.tolist()


def gram_scale(vectors, t):
    """sum_ij |v_i| |v_j| (t_i ^ t_j): the size of the terms the Gram sums
    cancel, and so the scale of their rounding error."""
    a = np.abs(vectors)
    return float(np.max(a.T @ np.minimum.outer(t, t) @ a, initial=0.0))


def time_dependent_scalar(x0):
    """f and g depend on t, so the step times and jump times matter."""
    return JumpSde.scalar(
        f=lambda t, x: np.cos(x) + 0.5 * np.sin(3.0 * t),
        f_x=lambda t, x: -np.sin(x),
        g=lambda t, x: 0.3 * np.sin(x) + 0.1 * t,
        g_x=lambda t, x: 0.3 * np.cos(x),
        g_t=lambda t, x: 0.1 * np.ones_like(np.asarray(x, dtype=float)),
        x0=x0,
    )


_SWEEP_T = 1.0
_TINY = np.finfo(float).tiny  # subnormal results are rounding noise


# fixed draws: with random ones this test's time varied several-fold
@settings(
    max_examples=10, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    paths=st.lists(jump_sets(_SWEEP_T, 8), min_size=1, max_size=2),
    near_T=st.floats(1e-4, 1e-2),
    outlier=jump_sets(_SWEEP_T, 60),
    x0=st.floats(-2.0, 2.0),
    timed=st.booleans(),
)
# a subnormal first span, whose span / 16 underflows to 0
@example(paths=[[5e-324]], near_T=1e-3, outlier=[], x0=0.0, timed=False)
# x + sin x carries x0 = 1 to pi, where 1 + cos x vanishes: the K/K~ oracle
# refuses the outlier, whose jump map is singular there
@example(
    paths=[[]], near_T=1e-3, outlier=[5.4e-240, 1.9e-55, 6.5e-27, 5.2e-16, 1e-6],
    x0=1.0, timed=False,
)
# 50 jumps carry x towards pi, where 1 + cos x is small: the jump factors
# shrink the tangent products towards 0, and the per-path oracle's K~ passes
# 1e178
@example(
    paths=[[]], near_T=1e-3, outlier=[_SWEEP_T * k / 51 for k in range(1, 51)],
    x0=1.625, timed=False,
)
def test_time_major_sweep_matches_per_path(paths, near_T, outlier, x0, timed):
    # always one path with no jump, one with a jump just before T, and one
    # with an outlying jump count next to the drawn ones
    T = _SWEEP_T
    paths = paths + [[], [T - near_T], outlier]
    batch = batch_of(paths, T)
    sde = time_dependent_scalar(x0) if timed else JumpSde.cos_sin(x0=x0)
    terminal, _, factor, _ = _rk4_batch(sde, batch)
    gamma = factor_gram(batch, factor)
    for i, path in enumerate(batch):
        try:
            rep = tangent_sensitivity(sde, path)
        except AssumptionError:
            # the jump map is singular on this path, so K~ does not exist;
            # the engine inverts nothing and must match the flow composition
            # and its central differences in the jump times, which round to
            # about eps |X_T| / step: 1e-8 of Gamma at the example's 2.5e-7
            x_T, fd_gamma = composition_sensitivity(sde, path)
            assert terminal[i, 0] == pytest.approx(x_T[0], rel=1e-9, abs=1e-12)
            assert gamma[i, 0, 0] == pytest.approx(fd_gamma[0, 0], rel=1e-6, abs=_TINY)
            continue
        assert terminal[i, 0] == pytest.approx(rep.terminal[0], rel=1e-9, abs=1e-12)
        scale = gram_scale(rep.vectors, path.jump_times)
        assert gamma[i, 0, 0] == pytest.approx(
            rep.gamma[0, 0], rel=1e-9, abs=1e-9 * scale + _TINY
        )


def random_stable_3d(seed):
    rng = np.random.default_rng(seed)
    A = -np.eye(3) + 0.3 * rng.standard_normal((3, 3))
    M = 0.3 * rng.standard_normal((3, 3))
    return JumpSde.linear_dd(
        A=A,
        b=rng.standard_normal(3),
        M=M,
        beta=rng.standard_normal(3),
        x0=rng.standard_normal(3),
        label="random-3d",
    )


_LINEAR_T = 2.0


@settings(max_examples=100, deadline=None)
@given(
    system=st.one_of(
        st.just(sde_preset("linear-scalar")),
        st.just(sde_preset("linear-d2")),
        st.integers(0, 2**32 - 1).map(random_stable_3d),
    ),
    paths=st.lists(jump_sets(_LINEAR_T, 7, min_gap=0.05), min_size=1, max_size=6),
)
# I + M has an eigenvalue 0.129 here: the per-path exact engine's product
# drift is 1.25e-10, above the presets' bound, and its Gamma is 2.3e-12 (of
# |Gamma|) off a 50-digit value, the batch engine's 2.4e-16
@example(system=random_stable_3d(904), paths=[[0.25, 0.5, 0.75, 1.0, 1.25, 1.5]])
# I + M has an eigenvalue 0.0086 here: the per-path exact engine's product
# drift is 1.9e-8, and its Gamma is 2.9e-9 off, above a 1e-9 floor
@example(system=random_stable_3d(113656), paths=[[0.5, 1.0, 1.25, 1.5]])
# the per-path Gamma of the second path is 1.26 drifts off here, with a
# drift of 9.9e-8
@example(
    system=random_stable_3d(59268),
    paths=[
        [1.2337765975167694, 1.7946889186424326],
        [0.5020644549423149, 0.6171128534893323, 0.7367203489933135, 1.151258123847452,
         1.500987596342655],
        [0.22494794466894114, 0.5444541867470677, 0.798900538022312, 1.1940610867062607],
    ],
)
def test_batched_linear_engine_matches_per_path(system, paths):
    """rtol 1e-9 throughout; Gamma, det and min_eig also get an absolute
    floor of `floor` times the matching power of |Gamma|, since below d
    jumps Gamma is singular and the per-path values are rounding noise.
    The per-path engine's |K K~ - I| stays below 1e-10 on the presets,
    where floor = 1e-9.  On a random system it grows with cond(I + M), and
    the per-path engine's error with it, so there the floor is ten times the
    largest per-path drift when that is larger: on systems with cond(I + M)
    up to 3e3 the per-path engine sits up to eight drifts from the batch
    engine, and as far from the RK4 oracle."""
    T = _LINEAR_T
    d = system.dim
    batch = batch_of(paths + [[]], T)
    terminal, _, factor, _ = _linear_batch(system, batch)
    gamma = factor_gram(batch, factor)
    crit = density_criteria(system, batch)
    reps = [linear_tangent_sensitivity(system, path) for path in batch]
    floor = 1e-9
    if system.label == "random-3d":
        floor = max(floor, 10.0 * max(rep.product_drift for rep in reps))
    for i, (path, rep) in enumerate(zip(batch, reps)):
        norm = float(np.max(np.abs(rep.gamma)))
        np.testing.assert_allclose(terminal[i], rep.terminal, rtol=1e-9)
        np.testing.assert_allclose(gamma[i], rep.gamma, rtol=1e-9, atol=floor * norm)
        det = crit.per_path_det[i]
        min_eig = crit.per_path_min_eig[i]
        assert det == pytest.approx(rep.det, rel=1e-9, abs=floor * norm**d)
        assert min_eig == pytest.approx(rep.min_eig, rel=1e-9, abs=floor * norm)
        if path.count >= d:
            assert crit.per_path_flag[i] == (np.linalg.matrix_rank(rep.vectors) == d)
        else:
            assert not crit.per_path_flag[i]


def test_linear_engines_noncommuting_match_rk4():
    # when A M != M A, phi depends on the pre-jump state: phi = [A, M] x + phi0
    sde = random_stable_3d(4418260)
    assert np.max(np.abs(sde.linear.A @ sde.linear.M - sde.linear.M @ sde.linear.A)) > 0.1
    t = [0.5, 1.0, 1.5, 1.75, 1.875]
    batch = batch_of([t], _LINEAR_T)
    generic = tangent_sensitivity(sde, batch.path(0))
    exact = linear_tangent_sensitivity(sde, batch.path(0))
    terminal, vectors, factor, _ = _linear_batch(sde, batch)
    gamma = factor_gram(batch, factor)
    for vec, gam in ((exact.vectors, exact.gamma), (vectors, gamma[0])):
        np.testing.assert_allclose(vec, generic.vectors, rtol=1e-8, atol=1e-12)
        np.testing.assert_allclose(gam, generic.gamma, rtol=1e-8, atol=1e-12)
    np.testing.assert_allclose(terminal[0], generic.terminal, rtol=1e-9)


def test_rk4_engine_broadcasts_constant_jacobians():
    # linear-d2 without its exact coefficients: `linear_dd`'s callables
    # return the constant (d, d) matrices A and M, and the RK4 engine must
    # agree with the exact engine
    exact = sde_preset("linear-d2")
    generic = dataclasses.replace(exact, linear=None)
    batch = batch_of(
        [[0.8, 2.2, 3.1, 4.4], [1.5], [], [0.3, 0.35, 4.9], [2.0, 2.5]], 5.0
    )
    terminal, vectors, factor, _ = _rk4_batch(generic, batch)
    ref_terminal, ref_vectors, ref_factor, _ = _linear_batch(exact, batch)
    np.testing.assert_allclose(terminal, ref_terminal, rtol=1e-9)
    np.testing.assert_allclose(vectors, ref_vectors, rtol=1e-8)
    np.testing.assert_allclose(factor, ref_factor, rtol=1e-8)
    crit = density_criteria(generic, batch)
    assert crit.kind == "general-ddim" and crit.passed


_ENGINE_SYSTEMS = {
    "cos-sin": (_rk4_batch, lambda: JumpSde.cos_sin(x0=0.3)),
    "timed": (_rk4_batch, lambda: time_dependent_scalar(0.3)),
    "coupled-d2": (_rk4_batch, coupled_d2),
    "linear-scalar": (_linear_batch, lambda: sde_preset("linear-scalar")),
    "linear-d2": (_linear_batch, lambda: sde_preset("linear-d2")),
    "random-3d": (_linear_batch, lambda: random_stable_3d(904)),
}


# fixed draws: with random ones this test's time varied several-fold
@settings(
    max_examples=12, deadline=None, derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    system=st.sampled_from(sorted(_ENGINE_SYSTEMS)),
    paths=st.lists(jump_sets(_SWEEP_T, 6), min_size=1, max_size=3),
)
# 2-D BLAS products x @ J.T round a row differently with the row count: this
# terminal state moved by 1 ulp with its batch
@example(system="random-3d", paths=[[0.5, 1.0], [0.125, 0.5]])
def test_batch_engines_give_each_path_its_one_path_bits(system, paths):
    # a path's terminal state, vectors, bridge factor and criterion (det,
    # smallest eigenvalue, flag) must not depend on the other paths of its
    # batch, and `grad_and_gamma_XT` must report the same bits for the path
    engine, make = _ENGINE_SYSTEMS[system]
    sde = make()
    batch = batch_of(paths + [[]], _SWEEP_T)
    terminal, vectors, factor, scale = engine(sde, batch)
    crit = density_criteria(sde, batch)
    for i, path in enumerate(batch):
        one = batch_of([path.jump_times], _SWEEP_T)
        alone = engine(sde, one)
        crit_alone = density_criteria(sde, one)
        rows = slice(batch.offsets[i], batch.offsets[i + 1])
        np.testing.assert_array_equal(terminal[i], alone[0][0])
        np.testing.assert_array_equal(vectors[rows], alone[1])
        np.testing.assert_array_equal(factor[rows], alone[2])
        np.testing.assert_array_equal(scale[i], alone[3][0])
        for field in ("per_path_det", "per_path_min_eig", "per_path_flag"):
            np.testing.assert_array_equal(
                getattr(crit, field)[i], getattr(crit_alone, field)[0], err_msg=field
            )
        rep = grad_and_gamma_XT(sde, path)
        np.testing.assert_array_equal(rep.terminal, terminal[i])
        np.testing.assert_array_equal(rep.vectors, np.ldexp(vectors[rows], scale[i]))
        np.testing.assert_array_equal(rep.gamma, np.ldexp(factor[rows].T @ factor[rows], 2 * scale[i]))
        assert rep.det == crit.per_path_det[i] and rep.min_eig == crit.per_path_min_eig[i]


def test_cos_sin_sweep_known_answer():
    """sha256 of the RK4 engine's bytes on a fixed batch.  On cos-sin the
    terminal states are those of the d = 1 sweep this engine replaced; the
    bridge factor is formed by `_backward_vectors` with the v_i.
    `coupled_d2` takes the matmul route of the tangent, and
    `time_dependent_scalar` a drift that reads the stage times.  (numpy's
    vectorized cos/sin may round differently on other CPU families.)"""
    batch = simulate_batch(reference_model(), T=5.0, master_seed=2024, n_paths=200)
    for sde, want in (
        (JumpSde.cos_sin(x0=0.0), "f82c23fedf4757653ef925b03955339725f3bd7415ada3cc248efab0f28512e7"),
        (coupled_d2(), "fbe853b47fba2331f6164f88c34c47d4aea52df3571bb2702e5b6ad3a50ad171"),
        (time_dependent_scalar(0.3), "370d40d7f8dbf5510282ce45ac30e1623b5973e419864326d54a8c4162792b45"),
    ):
        terminal, _, factor, _ = _rk4_batch(sde, batch)
        digest = hashlib.sha256(terminal.tobytes() + factor.tobytes()).hexdigest()
        assert digest == want, sde.label


def _sha256_of(*values):
    return hashlib.sha256(
        b"".join(np.asarray(v, dtype=float).tobytes() for v in values)
    ).hexdigest()


def test_solve_flow_known_answer():
    """sha256 of `solve_flow` on a cos-sin and a linear-d2 span, pinned so
    that a change of the RK4 stepper cannot move a bit."""
    r = solve_flow(JumpSde.cos_sin(x0=0.0), 0.3, 4.1, np.array([0.7]), horizon=5.0)
    assert _sha256_of(r.state, r.error_estimate, r.n_steps) == (
        "e7e5763ffbd5ee06627666a490ab43eb8547c5ebae958b983aa9f51aa0c6cb2a"
    )
    r = solve_flow(sde_preset("linear-d2"), 1.25, 2.0, np.array([1.0, -0.5]), horizon=5.0)
    assert _sha256_of(r.state, r.error_estimate, r.n_steps) == (
        "7cef2d985d01bf00f389931e12969a3b26120c8711b46d11d521c14979cfd4b5"
    )


@pytest.mark.parametrize(
    "preset, digest",
    [
        ("cos-sin", "625b67460fc09ac22d4720145f2b14ea71abc316706ebcc963f6c78d77e02841"),
        ("linear-d2", "d1eb14ad1dad8527f2a541ac443bdb60847b3779545346eb02a2cf333f1dde28"),
    ],
)
def test_grad_and_gamma_known_answer(preset, digest):
    """sha256 of the per-path K/K~ oracle's vectors, Gamma, terminal state
    and product drift on a fixed multi-jump path (close jumps, one just
    before T)."""
    path = HawkesPath(np.array([0.4, 1.3, 1.35, 2.9, 4.6, 4.999]), horizon=5.0)
    rep = tangent_sensitivity(sde_preset(preset), path)
    assert _sha256_of(rep.vectors, rep.gamma, rep.terminal, rep.product_drift) == digest


def test_density_criteria_exact_zero_below_dimension():
    # on 0 < N_T < d, Gamma has rank N_T < d: det and the smallest
    # eigenvalue are exactly 0, not the rounding noise of a computed value
    sde = sde_preset("linear-d2")
    batch = simulate_batch(reference_model(), T=5.0, master_seed=11, n_paths=500)
    counts = batch.counts()
    crit = density_criteria(sde, batch)
    few = (counts > 0) & (counts < 2)
    assert few.any()
    np.testing.assert_array_equal(crit.per_path_det[few], 0.0)
    np.testing.assert_array_equal(crit.per_path_min_eig[few], 0.0)
    full = counts >= 2
    _, vectors, _, _ = _linear_batch(sde, batch)
    want = [mp_spectrum(vectors, batch, i)[0] for i in np.flatnonzero(full)]
    np.testing.assert_allclose(crit.per_path_det[full], want, rtol=1e-12, atol=0.0)
    assert crit.passed and crit.n_conditioned == int(full.sum())


# ---- the stacked Pade-13 exponential ----

def augmented(lin, spans):
    """The exact engine's generator stack [[A, b], [0, 0]] * span."""
    d = lin.A.shape[0]
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = lin.A
    aug[:d, d] = lin.b
    return aug * np.asarray(spans, dtype=float)[:, None, None]


def assert_matches_scipy_expm(X):
    """`_expm_stack` slice by slice against scipy's expm, within 1e-12 of
    each slice's 1-norm."""
    got = _expm_stack(X)
    assert got.shape == X.shape
    for k in range(X.shape[0]):
        ref = expm(X[k])
        err = np.linalg.norm(got[k] - ref, 1)
        assert err <= 1e-12 * np.linalg.norm(ref, 1), (k, err)


def squarings(X):
    """Each slice's s = max(0, ceil(log2(|X|_1 / theta_13)))."""
    with np.errstate(divide="ignore"):
        return np.maximum(np.ceil(np.log2(np.abs(X).sum(axis=1).max(axis=1) / _THETA13)), 0)


@pytest.fixture(scope="module")
def segment_spans():
    batch = simulate_batch(reference_model(), T=5.0, master_seed=404, n_paths=300)
    _, starts, ends = _segments(batch)
    return ends - starts


@pytest.mark.parametrize("preset", ["linear-scalar", "linear-d2"])
def test_expm_stack_matches_scipy_on_preset_segments(preset, segment_spans):
    lin = sde_preset(preset).linear
    d = lin.A.shape[0]
    X = augmented(lin, segment_spans)
    assert_matches_scipy_expm(X)
    # the propagators are the blocks of that exponential
    E, c = _linear_propagators(lin, segment_spans, d)
    for k in range(0, segment_spans.size, 97):
        ref = expm(X[k])
        np.testing.assert_allclose(E[k], ref[:d, :d], rtol=1e-13, atol=1e-13)
        np.testing.assert_allclose(c[k], ref[:d, d], rtol=1e-13, atol=1e-13)


def test_expm_stack_matches_scipy_on_random_stable_systems(segment_spans):
    for seed in (0, 904, 113656, 4418260):
        X = augmented(random_stable_3d(seed).linear, segment_spans)
        assert_matches_scipy_expm(X)


def test_expm_stack_defective_generator():
    # A = 0, b != 0: the generator is nilpotent and not diagonalizable, and
    # exp(X) = I + X exactly
    lin = JumpSde.linear_dd(
        A=np.zeros((2, 2)), b=[1.5, -2.0], M=np.zeros((2, 2)), beta=[1.0, 1.0], x0=[0.0, 0.0]
    ).linear
    X = augmented(lin, np.linspace(0.0, 20.0, 41))
    assert squarings(X).max() >= 2
    assert_matches_scipy_expm(X)
    np.testing.assert_allclose(_expm_stack(X), np.eye(3) + X, rtol=0.0, atol=1e-13)


def test_expm_stack_mixed_scalings_square_together():
    # 1-norms from 0 to about 30 theta_13 in one stack, so slices with
    # s = 0..5 share squaring rounds, each round over the slices with s above
    # it: a random stable system and a lightly damped rotation
    rotation = JumpSde.linear_dd(
        A=[[-0.1, 3.0, 0.0], [-3.0, -0.1, 0.0], [0.0, 0.0, -0.5]],
        b=[1.0, 0.0, -1.0],
        M=np.zeros((3, 3)),
        beta=np.ones(3),
        x0=np.zeros(3),
    ).linear
    spans = np.linspace(0.0, 40.0, 161)
    X = np.concatenate([augmented(random_stable_3d(7).linear, spans), augmented(rotation, spans)])
    assert set(np.unique(squarings(X))) >= {0.0, 1.0, 2.0, 3.0, 4.0, 5.0}
    assert_matches_scipy_expm(X)


def test_expm_stack_zero_spans_and_empty_stack():
    for lin in (sde_preset("linear-scalar").linear, random_stable_3d(3).linear):
        d = lin.A.shape[0]
        X = augmented(lin, np.zeros(5))
        np.testing.assert_array_equal(_expm_stack(X), np.broadcast_to(np.eye(d + 1), X.shape))
        assert _expm_stack(np.empty((0, d + 1, d + 1))).shape == (0, d + 1, d + 1)
        E, c = _linear_propagators(lin, 0.0, d)
        np.testing.assert_array_equal(E, np.eye(d))
        np.testing.assert_array_equal(c, np.zeros(d))


def pade_runs(monkeypatch):
    """The list that each later `_pade13_scaled` call appends its stack
    size to: the runs `_expm_scaled` cuts."""
    runs = []
    pade = hawkmal.sde._pade13_scaled

    def counted(X):
        runs.append(X.shape[0])
        return pade(X)

    monkeypatch.setattr(hawkmal.sde, "_pade13_scaled", counted)
    return runs


@pytest.mark.parametrize("n", [2, 3])
def test_expm_scaled_gives_each_matrix_its_bits_alone(n, monkeypatch):
    # runs of k = 7 matrices, 4 n^2 elements each in a budget of 28 n^2:
    # each stack straddles its run boundaries, and scalings from 1e-3 to 1e3
    # mix the squaring rounds inside each run
    monkeypatch.setattr(hawkmal.simulate, "_BLOCK_ELEMS", 28 * n * n)
    k = 7
    runs = pade_runs(monkeypatch)
    rng = np.random.default_rng(35 + n)
    for size in (0, 1, k - 1, k, k + 1, 3 * k + 5):
        X = rng.standard_normal((size, n, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (size, 1, 1))
        X[::5] *= -1.0
        if size:
            X[0] = 0.0
        runs.clear()
        R, e = _expm_scaled(X)
        assert runs == [k] * (size // k) + [size % k] * (size % k > 0)
        assert R.shape == X.shape and e.shape == (size,)
        if size > k:
            assert np.unique(squarings(X[:k])).size > 1
        for j in range(size):
            alone_R, alone_e = _expm_scaled(X[j])
            np.testing.assert_array_equal(R[j], alone_R, err_msg=f"size {size}, matrix {j}")
            assert e[j] == alone_e
        # leading dimensions: the same matrices, the same bits
        if size == 3 * k + 5:
            R2, e2 = _expm_scaled(X[:3 * k + 3].reshape(3, k + 1, n, n))
            assert R2.shape == (3, k + 1, n, n) and e2.shape == (3, k + 1)
            np.testing.assert_array_equal(R2.reshape(-1, n, n), R[:3 * k + 3])
            np.testing.assert_array_equal(e2.ravel(), e[:3 * k + 3])


@pytest.mark.parametrize("n", [2, 3])
def test_expm_scaled_default_runs_match_one_run(n, monkeypatch):
    # at the default run of k slices (4 n^2 elements a slice), a stack of
    # 3 k + 5 matrices has the bits of one run over the whole stack
    k = hawkmal.simulate._BLOCK_ELEMS // (4 * n * n)
    runs = pade_runs(monkeypatch)
    rng = np.random.default_rng(77 + n)
    X = rng.standard_normal((3 * k + 5, n, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (3 * k + 5, 1, 1))
    R, e = _expm_scaled(X)
    assert runs == [k, k, k, 5]
    monkeypatch.setattr(hawkmal.simulate, "_BLOCK_ELEMS", 4 * X.size)
    runs.clear()
    whole_R, whole_e = _expm_scaled(X)
    assert runs == [X.shape[0]]
    np.testing.assert_array_equal(R, whole_R)
    np.testing.assert_array_equal(e, whole_e)


def test_density_criteria_sweeps_a_reference_batch_whole(monkeypatch):
    # seed 77, 500 reference paths: the longest has 35 jumps and the batch
    # 4 908 segments, so padded blocks cut it in two (468 + 32 paths) and
    # summed-segment blocks keep it whole: one RK4 sweep
    batch = simulate_batch(reference_model(), T=5.0, master_seed=77, n_paths=500)
    assert batch.counts().max() == 35
    sweeps = []

    def counted(sde, block):
        sweeps.append(block.n_paths)
        return _rk4_batch(sde, block)

    monkeypatch.setattr(hawkmal.sde, "_rk4_batch", counted)
    density_criteria(sde_preset("cos-sin"), batch)
    assert sweeps == [500]
    # the exact engine forms its augmented exponentials a run at a time
    tracemalloc.start()
    try:
        density_criteria(sde_preset("linear-d2"), batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6, peak


def criteria_blocks(monkeypatch, sde, batch):
    """(density_criteria(sde, batch), the jump counts of each block its
    engine took, in order); every path once, longest first."""
    name = "_linear_batch" if sde.linear is not None else "_rk4_batch"
    engine = getattr(hawkmal.sde, name)
    blocks = []

    def counted(sde, block):
        blocks.append(block.counts())
        return engine(sde, block)

    with monkeypatch.context() as mp:
        mp.setattr(hawkmal.sde, name, counted)
        got = density_criteria(sde, batch)
    swept = np.concatenate(blocks)
    np.testing.assert_array_equal(swept, np.sort(batch.counts())[::-1])
    return got, blocks


def assert_same_criteria(got, want):
    for field in ("terminal", "per_path_det", "per_path_min_eig", "per_path_flag"):
        np.testing.assert_array_equal(getattr(got, field), getattr(want, field), err_msg=field)


def test_segment_blocks_bound_jump_free_batches(monkeypatch):
    # 40 000 paths at T = 1e-3 are nearly all jump-free: counting a segment
    # a path keeps them in blocks of at most _BLOCK_ELEMS, and each path
    # keeps its bits; the RK4 sweep (a thousand steps a path) runs on the
    # first 2 000 of them in blocks of 700 segments
    batch = simulate_batch(reference_model(), T=1e-3, master_seed=35, n_paths=40_000)
    assert batch.counts().sum() < 100
    short = batch.take(np.arange(2_000))
    cases = [(sde_preset("linear-d2"), batch, hawkmal.simulate._BLOCK_ELEMS), (sde_preset("cos-sin"), short, 700)]
    for sde, paths, most in cases:
        monkeypatch.setattr(hawkmal.simulate, "_BLOCK_ELEMS", most)
        blocked, blocks = criteria_blocks(monkeypatch, sde, paths)
        assert len(blocks) >= 3
        assert all(np.sum(c + 1) <= most for c in blocks)
        monkeypatch.setattr(hawkmal.simulate, "_BLOCK_ELEMS", 1 << 20)
        whole, blocks = criteria_blocks(monkeypatch, sde, paths)
        assert len(blocks) == 1
        assert_same_criteria(blocked, whole)


def test_segment_blocks_put_a_long_path_alone(monkeypatch):
    # with blocks of 8 segments a 12-jump path is a block of its own, and
    # every path has the bits it has in one whole block
    paths = [[0.1 * j for j in range(1, 13)], [], [0.5], [0.2, 0.4, 0.6], [], [1.5, 1.7], [0.9]]
    batch = batch_of(paths, 2.0)
    whole = [density_criteria(sde, batch) for sde in (sde_preset("cos-sin"), sde_preset("linear-d2"))]
    monkeypatch.setattr(hawkmal.simulate, "_BLOCK_ELEMS", 8)
    for sde, want in zip((sde_preset("cos-sin"), sde_preset("linear-d2")), whole):
        got, blocks = criteria_blocks(monkeypatch, sde, batch)
        assert [c.tolist() for c in blocks] == [[12], [3, 2], [1, 1, 0, 0]]
        assert_same_criteria(got, want)


def test_linear_engines_raise_on_a_blown_up_flow():
    """exp(200 t) overflows on [0, 5].  Both exact engines must raise, as the
    RK4 engine does on the same callables without `linear`: nan Gammas used
    to pass, since nan <= 0 is False.  No engine may warn on the way: under
    `-W error` the warning would be raised in place of the refusal."""
    sde = JumpSde.linear_scalar(a=200.0, b=0.1, alpha=0.3, beta=0.2, x0=1.0)
    twin = dataclasses.replace(sde, linear=None)
    batch = simulate_batch(reference_model(), T=5.0, master_seed=7, n_paths=50)
    for system, one_path in ((sde, _linear_sensitivity), (twin, grad_and_gamma_XT)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(AssumptionError, match="non-finite state"):
                density_criteria(system, batch)
            with pytest.raises(AssumptionError, match="non-finite state"):
                one_path(system, batch.path(0))


def busy_batch():
    """3 paths (seed 7) of the reference model at lambda0 = 200, T = 5."""
    busy = HawkesModel(
        BaselineSpec.constant(200.0), KernelSpec.exponential(alpha=0.5, beta=1.0),
        NonlinearitySpec.linear(),
    )
    return simulate_batch(busy, T=5.0, master_seed=7, n_paths=3)


def test_spectrum_above_the_double_range_is_inf_without_a_warning():
    """lambda0 = 200 gives about 1 500 jumps a path, and det Gamma and its
    smallest eigenvalue lie above the largest double on `linear-scalar`.
    inf is their double rounding, as 0.0 is below 2^-1074: both the batch
    criteria and the one-path view report it, and neither warns, so
    `sde-density` under `-W error` does not fail on a valid config."""
    batch = busy_batch()
    sde = sde_preset("linear-scalar")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        crit = density_criteria(sde, batch)
        rep = grad_and_gamma_XT(sde, batch.path(0))
    np.testing.assert_array_equal(crit.per_path_det, np.full(3, np.inf))
    np.testing.assert_array_equal(crit.per_path_min_eig, np.full(3, np.inf))
    assert crit.passed
    assert rep.det == rep.min_eig == rep.gamma[0, 0] == np.inf
    assert np.all(np.isfinite(rep.vectors))


def test_a_singular_jump_factor_refuses_no_path():
    """x -> x + sin x has an attracting fixed point at pi, where its
    derivative 1 + cos x vanishes, and at lambda0 = 200 (about 1 500 jumps a
    path) a jump factor of these 3 cos-sin paths falls under 1e-12.  No
    tangent is inverted, so every path reports det Gamma and its criterion,
    with no warning, and the one-path view gives the same bits."""
    batch = busy_batch()
    cos_sin = JumpSde.cos_sin(x0=0.0)
    factors = []

    def jump_jac(t, x):
        grad = cos_sin.jump_jac(t, x)
        factors.append(np.abs(1.0 + grad).min())
        return grad

    sde = dataclasses.replace(cos_sin, jump_jac=jump_jac)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        crit = density_criteria(sde, batch)
        rep = grad_and_gamma_XT(cos_sin, batch.path(1))
    assert min(factors) < 1e-12
    assert crit.passed
    assert np.all(np.isfinite(crit.per_path_det)) and np.all(crit.per_path_det > 0.0)
    assert rep.det == crit.per_path_det[1]


def contracting_closed_forms(batch, a, alpha, T):
    """log |v_i / phi| of every jump of dX = (a X + b) dt + (alpha X- + beta)
    dN, in flat order, exactly, a (T - T_i) + (n - 1 - i) log(1 + alpha),
    and for the RK4 engine, with e^{a h} replaced by the RK4 factor
    1 + z + z^2/2 + z^3/6 + z^4/24, z = a h, of each of its steps."""
    seg_offsets, starts, ends = _segments(batch)
    steps = _segment_steps(ends - starts, T)
    z = a * (ends - starts) / np.maximum(steps, 1)
    log_rk4 = steps * np.log(1.0 + z + z**2 / 2 + z**3 / 6 + z**4 / 24)
    log_exact, log_step = [], []
    for p, path in enumerate(batch):
        n = path.count
        after = seg_offsets[p] + np.arange(1, n + 1)   # the segments after each jump
        jumps = (n - 1 - np.arange(n)) * math.log1p(alpha)
        log_exact += list(a * (T - path.jump_times) + jumps)
        log_step += list(np.cumsum(log_rk4[after][::-1])[::-1] + jumps)
    return np.array(log_exact), np.array(log_step)


def test_batch_engines_survive_a_contracting_flow():
    """dX = (-200 X + 0.1) dt contracts every tangent to 0 over [0, 5].  Both
    batch engines must give finite vectors without a warning: v_i is a
    product of tangents, and nothing inverts one that has underflowed.
    The exact engine must match v_i = -e^{a (T - T_i)} (1 + alpha)^{n-1-i}
    (a beta - alpha b), and the RK4 engine the same product with e^{a h}
    replaced by the RK4 factor of each of its steps; results below the
    normal range are rounding noise."""
    a, b, alpha, beta, T = -200.0, 0.1, 0.3, 0.2, 5.0
    linear = JumpSde.linear_scalar(a=a, b=b, alpha=alpha, beta=beta, x0=1.0)
    twin = dataclasses.replace(linear, linear=None)
    batch = simulate_batch(reference_model(), T=T, master_seed=7, n_paths=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _, exact, exact_factor, exact_scale = _linear_batch(linear, batch)
        _, rk4, rk4_factor, rk4_scale = _rk4_batch(twin, batch)
        for sde in (linear, twin):
            crit = density_criteria(sde, batch)
            assert np.all(np.isfinite(crit.per_path_det))
    assert np.all(np.isfinite(exact_factor)) and np.all(np.isfinite(rk4_factor))
    phi = a * beta - alpha * b
    log_exact, log_step = contracting_closed_forms(batch, a, alpha, T)
    path_of_jump = np.repeat(np.arange(batch.n_paths), batch.counts())
    exact = np.ldexp(exact[:, 0], exact_scale[path_of_jump])
    rk4 = np.ldexp(rk4[:, 0], rk4_scale[path_of_jump])
    np.testing.assert_allclose(exact, -np.exp(log_exact) * phi, rtol=1e-12, atol=_TINY)
    np.testing.assert_allclose(rk4, -np.exp(log_step) * phi, rtol=1e-12, atol=_TINY)


def test_contracting_flow_keeps_its_verdict_and_vectors_in_log_space():
    """On 500 paths of the same flow, the tangent of 7 paths' last segment
    alone is below 2^-1074, so without a power of two every v_i of those
    paths is 0.0 and the criterion fails there.  Both engines must pass on
    every path with a jump, and match the closed forms of
    `contracting_closed_forms` in log space, on every v_i that is normal in
    its path's scale.  exp has condition |x|, so the bound grows as
    1e-14 |log v_i| from a floor of 1e-12."""
    a, b, alpha, beta, T = -200.0, 0.1, 0.3, 0.2, 5.0
    linear = JumpSde.linear_scalar(a=a, b=b, alpha=alpha, beta=beta, x0=1.0)
    twin = dataclasses.replace(linear, linear=None)
    batch = simulate_batch(reference_model(), T=T, master_seed=7, n_paths=500)
    counts = batch.counts()
    path_of_jump = np.repeat(np.arange(batch.n_paths), counts)
    log_phi = math.log(abs(a * beta - alpha * b))
    for engine, sde, log_k in zip((_linear_batch, _rk4_batch), (linear, twin),
                                  contracting_closed_forms(batch, a, alpha, T)):
        _, v, _, scale = engine(sde, batch)
        crit = density_criteria(sde, batch)
        assert crit.n_nonpositive == 0 and crit.passed
        assert crit.n_conditioned == int(np.sum(counts > 0))
        assert np.sum(crit.per_path_det[counts > 0] == 0.0) > 7   # det underflows, not the verdict
        normal = np.abs(v[:, 0]) >= _TINY
        assert np.sum(normal & (scale[path_of_jump] < -1000)) > 7
        log_v = np.log(v[normal, 0]) + scale[path_of_jump][normal] * math.log(2.0)
        np.testing.assert_allclose(log_v, log_k[normal] + log_phi, rtol=1e-14, atol=1e-12)


def _mp_linear_gamma(sde, times, T):
    """Gamma[X_T] of a linear system on one path at 50 digits: the segment
    exponentials by mpmath, then the flow, jump maps and tangent products."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(50):
        lin = sde.linear
        d = sde.dim
        A, M, b, beta = (mp.matrix(np.asarray(m).tolist()) for m in (lin.A, lin.M, lin.b, lin.beta))
        aug = mp.zeros(d + 1, d + 1)
        aug[:d, :d] = A
        aug[:d, d] = b
        J = mp.eye(d) + M
        t = [mp.mpf(float(s)) for s in times]
        edges = [mp.mpf(0)] + t + [mp.mpf(T)]
        x = mp.matrix(sde.x0.tolist())
        E, phi = [], []
        for k in range(len(edges) - 1):
            big = mp.expm(aug * (edges[k + 1] - edges[k]))
            E.append(big[:d, :d])
            x = E[k] * x + big[:d, d]
            if k < len(t):
                phi.append((A * beta - M * b) + (A * M - M * A) * x)
                x = J * x + beta
        v = [None] * len(t)
        B = E[-1]
        for i in reversed(range(len(t))):
            v[i] = -(B * phi[i])
            B = B * J * E[i]
        gamma = mp.zeros(d, d)
        for i, vi in enumerate(v):
            for j, vj in enumerate(v):
                gamma += vi * vj.T * (min(t[i], t[j]) - t[i] * t[j] / T)
        return np.array(gamma.tolist(), dtype=float)


def test_linear_batch_gamma_matches_50_digits():
    """random-3d 904 does not commute (phi depends on the state) and I + M
    is ill-conditioned: an engine that inverts tangents loses digits here
    (4.9e-9 with K~), while products of tangents keep Gamma within 1e-12 of
    a 50-digit value on every path."""
    sde = random_stable_3d(904)
    batch = simulate_batch(reference_model(), T=_LINEAR_T, master_seed=7, n_paths=40)
    _, _, factor, _ = _linear_batch(sde, batch)
    gamma = factor_gram(batch, factor)
    for i, path in enumerate(batch):
        if path.count:
            want = _mp_linear_gamma(sde, path.jump_times, _LINEAR_T)
            np.testing.assert_allclose(gamma[i], want, rtol=1e-12, atol=0.0)


# ---- the bridge factor against 60-digit Gammas ----

def mp_spectrum(vectors, batch, i):
    """(det, smallest eigenvalue) of path i's Gamma = V^T Xi V at 60 digits,
    from the double vectors (J, d) and jump times of the batch: the dense
    xi Gram, with no factor and no rounding to cancel."""
    mp = pytest.importorskip("mpmath")
    rows = slice(batch.offsets[i], batch.offsets[i + 1])
    with mp.workdps(60):
        T = mp.mpf(batch.horizon)
        t = [mp.mpf(float(s)) for s in batch.flat_times[rows]]
        xi = mp.matrix([[min(a, b) - a * b / T for b in t] for a in t])
        V = mp.matrix(vectors[rows].tolist())
        gamma = V.T * xi * V
        return float(mp.det(gamma)), float(min(mp.eigsy(gamma, eigvals_only=True)))


def test_cos_sin_criterion_gamma_matches_60_digits():
    """For d = 1 the criterion's det and smallest eigenvalue are Gamma
    itself: within 1e-13 of a 60-digit Gamma on every path with a jump.  A
    Gram that sums the signed terms v_i v_j xi(T_i, T_j) cancels them (7e-13
    off on this batch); W^T W adds only squares."""
    sde = JumpSde.cos_sin(x0=0.0)
    batch = simulate_batch(reference_model(), T=5.0, master_seed=7, n_paths=500)
    crit = density_criteria(sde, batch)
    _, vectors, _, _ = _rk4_batch(sde, batch)
    live = np.flatnonzero(batch.counts())
    want = [mp_spectrum(vectors, batch, i)[0] for i in live]
    np.testing.assert_allclose(crit.per_path_det[live], want, rtol=1e-13, atol=0.0)
    np.testing.assert_array_equal(crit.per_path_min_eig, crit.per_path_det)


def test_linear_d2_det_and_min_eig_match_60_digits():
    """det and the smallest eigenvalue from the singular values of W are
    within 1e-13 of 60-digit values.  det/eigvalsh of Gamma = W^T W itself
    square W's conditioning (1.4e-12 off on this batch)."""
    sde = sde_preset("linear-d2")
    batch = simulate_batch(reference_model(), T=5.0, master_seed=7, n_paths=40)
    crit = density_criteria(sde, batch)
    _, vectors, _, _ = _linear_batch(sde, batch)
    full = np.flatnonzero(batch.counts() >= 2)
    want = np.array([mp_spectrum(vectors, batch, i) for i in full])
    np.testing.assert_allclose(crit.per_path_det[full], want[:, 0], rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(crit.per_path_min_eig[full], want[:, 1], rtol=1e-13, atol=0.0)


@st.composite
def bridge_paths(draw):
    """(times, vectors, T): sorted jump times in (0, T] that end with a jump
    at T and hold pairs one ulp apart, and vectors of dimension 1 to 3."""
    T = draw(st.floats(0.1, 10.0))
    raw = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), max_size=10))
    times = np.unique(np.asarray(raw) * T)
    times = times[(times > 0.0) & (times < T)]
    twins = np.asarray(draw(st.lists(st.booleans(), min_size=times.size, max_size=times.size)), dtype=bool)
    times = np.unique(np.concatenate([times, np.nextafter(times[twins], T), [T]]))
    d = draw(st.integers(1, 3))
    flat = draw(st.lists(st.floats(-10.0, 10.0), min_size=times.size * d, max_size=times.size * d))
    return times, np.reshape(flat, (times.size, d)), T


@settings(max_examples=60, deadline=None)
@given(path=bridge_paths())
@example(path=(np.array([5e-324, 1.0]), np.array([[1.5], [0.0]]), 1.0))
def test_bridge_factor_gram_equals_dense_xi_gram(path):
    # identity tangents and phi = -v make `_backward_vectors` return v
    # itself, beside its factor W; a path with no jump rides along
    times, v, T = path
    n, d = v.shape
    batch = batch_of([times, []], T)
    eye = np.eye(d)
    got_v, w, scale = _backward_vectors(
        batch, np.broadcast_to(eye, (n + 2, d, d)), np.zeros(n + 2, dtype=np.int64),
        np.broadcast_to(eye, (n, d, d)), -v,
    )
    np.testing.assert_array_equal(scale, 0)
    np.testing.assert_array_equal(got_v, v)
    assert np.all(np.isfinite(w))
    np.testing.assert_array_equal(w[-1], 0.0)  # xi(T, .) = 0
    dense = v.T @ xi_kernel(T, times[:, None], times) @ v
    # subnormal times round both Grams in the subnormal range, where the
    # scaled atol underflows to 0: a floor of a few subnormal ulps
    atol = max(1e-12 * gram_scale(v, times), 4 * np.finfo(float).smallest_subnormal)
    np.testing.assert_allclose(factor_gram(batch, w)[0], dense, rtol=1e-12, atol=atol)
