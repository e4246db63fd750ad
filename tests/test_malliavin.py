"""Malliavin-layer checks: gradient shapes, the xi kernel against piecewise
integration, weight terms against compensator finite differences, the
divergence and its duality, Z^eps factors, basis projections."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hawkmal.malliavin
from hawkmal.malliavin import (
    CameronMartinFunction,
    MalliavinGradient,
    SmoothFunctional,
    basis_projection_check,
    capped_jump_time,
    carre_du_champ,
    compose_smooth,
    condition2_slack,
    divergence_m,
    divergence_m_batch,
    grad_smooth,
    product_smooth,
    weight_arrays,
    weight_terms,
    xi_kernel,
    z_eps,
    z_eps_batch,
)
from hawkmal.model import (
    BaselineSpec,
    HawkesModel,
    KernelSpec,
    NonlinearitySpec,
)
from hawkmal.density import log_kappa_rows
from hawkmal.experiments import ibp_check, unit_mass_check
from hawkmal.greeks import AssetModel, Payoff, fd_delta
from hawkmal.simulate import (
    HawkesPath,
    PathBatch,
    _excitation_recurrences,
    compensator,
    padded_jumps,
    simulate_batch,
)
from test_simulate import exp_as_custom, power_law_kernel, quad_gamma2


def reference_model():
    return HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )


def poisson_model():
    return HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.0, beta=1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )


@pytest.fixture(scope="module")
def big_batch():
    return simulate_batch(
        reference_model(), T=5.0, master_seed=1404, n_paths=100_000, n_workers=4
    )


# ------------------------------------------------------------------ oracles

def gradient_segment_values(g: MalliavinGradient):
    """Independent piecewise representation of D_sF: segment edges
    (0, T_1, ..., T_n, T) and the constant value on each open segment."""
    t, p, T = g.jump_times, g.partials, g.horizon
    edges = np.concatenate([[0.0], t, [T]])
    base = float(np.dot(p, t)) / T
    # on segment k (between edge k and k+1) the indicator hits jumps > k
    vals = np.array([base - p[k:].sum() for k in range(t.size + 1)])
    return edges, vals


def piecewise_l2_product(gF, gG):
    """int_0^T D_sF D_sG ds by exact piecewise integration."""
    eF, vF = gradient_segment_values(gF)
    eG, vG = gradient_segment_values(gG)
    np.testing.assert_array_equal(eF, eG)
    return math.fsum(
        float(a * b * (hi - lo)) for a, b, lo, hi in zip(vF, vG, eF[:-1], eF[1:])
    )


# ------------------------------------------------------- directions

def test_builtin_directions_integrate_to_zero():
    T = 5.0
    for m in (
        CameronMartinFunction.default(T),
        CameronMartinFunction.cosine(T, 1),
        CameronMartinFunction.cosine(T, 7),
        CameronMartinFunction.sine(T, 3),
    ):
        assert float(m.m_hat(np.float64(0.0))) == pytest.approx(0.0, abs=1e-15)
        assert float(m.m_hat(np.float64(T))) == pytest.approx(0.0, abs=1e-12)
        # m_hat' = m (finite differences)
        t = np.linspace(0.1, T - 0.1, 23)
        h = 1e-6
        fd = (m.m_hat(t + h) - m.m_hat(t - h)) / (2 * h)
        np.testing.assert_allclose(fd, m.m(t), rtol=1e-7, atol=1e-9)


def test_default_direction_shape():
    m = CameronMartinFunction.default(4.0)
    assert float(m.m(np.float64(0.0))) == pytest.approx(1.0)
    assert float(m.m(np.float64(4.0))) == pytest.approx(-1.0)
    interior = m.m_hat(np.linspace(0.5, 3.5, 13))
    assert np.all(interior > 0.0)
    assert m.sup_m == 1.0


def test_custom_direction_validation():
    T = 2.0
    with pytest.raises(ValueError, match="1e-10|vanish"):
        CameronMartinFunction.from_callables(
            T,
            m=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            m_hat=lambda t: np.asarray(t, dtype=float),
            sup_m=1.0,
        )
    ok = CameronMartinFunction.from_callables(
        T,
        m=lambda t: np.asarray(t, dtype=float) - 1.0,
        m_hat=lambda t: 0.5 * np.asarray(t, dtype=float) ** 2
        - np.asarray(t, dtype=float),
        sup_m=1.0,
    )
    assert ok.bounded
    with pytest.raises(ValueError, match="1e-10"):
        # m_hat vanishes at 0 and T, but it is not the antiderivative of m:
        # only the quadrature of m sees that
        CameronMartinFunction.from_callables(
            T,
            m=lambda t: np.ones_like(np.asarray(t, dtype=float)),
            m_hat=CameronMartinFunction.default(T).m_hat,
            sup_m=1.0,
        )


def _kinked_m_hat(t):
    # antiderivative of |t - 2| - 1.3
    t = np.asarray(t, dtype=float)
    return np.where(t < 2.0, 2.0 * t - 0.5 * t * t, 2.0 + 0.5 * (t - 2.0) ** 2) - 1.3 * t


@pytest.mark.parametrize(
    "m, m_hat, sup_m",
    [
        (lambda t: np.abs(np.asarray(t, dtype=float) - 2.0) - 1.3, _kinked_m_hat, 1.7),
        (
            lambda t: 1.0 / np.sqrt(np.asarray(t, dtype=float)) - 2.0 / math.sqrt(5.0),
            lambda t: 2.0 * np.sqrt(np.asarray(t, dtype=float))
            - 2.0 / math.sqrt(5.0) * np.asarray(t, dtype=float),
            math.inf,
        ),
    ],
    ids=["kinked", "inverse-sqrt"],
)
def test_from_callables_resolves_kinks_and_singularities(m, m_hat, sup_m):
    # the adaptive segment quadrature integrates a kink and an integrable
    # singularity at 0 to within the 1e-10 tolerance
    d = CameronMartinFunction.from_callables(5.0, m=m, m_hat=m_hat, sup_m=sup_m)
    assert d.sup_m == sup_m


# ------------------------------------------------------- xi kernel

def test_xi_kernel_values():
    assert xi_kernel(1.0, 0.5, 0.5) == pytest.approx(0.25)
    assert xi_kernel(1.0, 0.25, 0.5) == pytest.approx(0.125)
    assert xi_kernel(1.0, 0.5, 0.25) == pytest.approx(0.125)
    with pytest.raises(ValueError):
        xi_kernel(1.0, -0.1, 0.5)
    with pytest.raises(ValueError):
        xi_kernel(1.0, 0.2, 1.2)


def test_xi_gram_two_points():
    t = np.array([0.25, 0.5])
    gram = np.array(
        [[xi_kernel(1.0, a, b) for b in t] for a in t]
    )
    np.testing.assert_allclose(
        gram, [[0.1875, 0.125], [0.125, 0.25]], rtol=1e-15
    )
    assert np.linalg.det(gram) == pytest.approx(0.03125, rel=1e-12)
    assert np.all(np.linalg.eigvalsh(gram) > 0)


# ------------------------------------------------------- gradients

def test_gradient_of_first_jump_time():
    path = HawkesPath(np.array([2.0, 3.5]), horizon=5.0)
    g = grad_smooth(capped_jump_time(1), path)
    np.testing.assert_array_equal(g.partials, [1.0, 0.0])
    # D_s T1 = T1/T - 1_{[0,T1]}(s)
    s = np.array([0.5, 2.0, 2.5, 4.9])
    np.testing.assert_allclose(g.evaluate(s), [2.0 / 5 - 1, 2.0 / 5 - 1, 0.4, 0.4])


def test_gradient_of_count_is_zero():
    # a functional constant in the jump positions, as N_T is, has DF = 0
    constant = SmoothFunctional(
        value=lambda times, T: np.full(times.shape[0], 3.0),
        partials=lambda times, T: np.zeros(times.shape),
    )
    path = HawkesPath(np.array([1.0, 2.0, 4.4]), horizon=5.0)
    g = grad_smooth(constant, path)
    np.testing.assert_array_equal(g.partials, np.zeros(3))
    assert carre_du_champ(g, g) == 0.0
    assert basis_projection_check(g, 64) == 0.0


def test_gradient_integrates_to_zero():
    path = HawkesPath(np.array([0.9, 2.2, 3.3]), horizon=5.0)
    F = product_smooth(capped_jump_time(1), capped_jump_time(3))
    g = grad_smooth(F, path)
    edges, vals = gradient_segment_values(g)
    total = math.fsum(v * (hi - lo) for v, lo, hi in zip(vals, edges[:-1], edges[1:]))
    assert total == pytest.approx(0.0, abs=1e-14)
    # the piecewise representation agrees with pointwise evaluation
    mids = 0.5 * (edges[:-1] + edges[1:])
    np.testing.assert_allclose(g.evaluate(mids), vals, atol=1e-14)


def test_compensator_functional_fd_oracle():
    # Lambda_T as a smooth functional of the jump times (linear case):
    # exact partials -mu(T - t_i) against central differences
    # (step 1e-6 * max(1, |t_i|))
    model = reference_model()
    T = 5.0

    def lam_value(times, T):
        # a padded slot at T adds 0.5 (1 - e^0) = 0
        return T + np.sum(0.5 * (1.0 - np.exp(-(T - times))), axis=1)

    exact = SmoothFunctional(
        value=lam_value,
        partials=lambda times, T: -0.5 * np.exp(-(T - times)),
    )
    path = HawkesPath(np.array([0.8, 2.1, 3.9]), horizon=T)
    t = path.jump_times[None, :]  # the one-path block
    assert lam_value(t, T)[0] == pytest.approx(compensator(model, path), rel=1e-12)
    n = path.count
    fd = np.empty(n)
    for i in range(n):
        h = 1e-6 * max(1.0, abs(t[0, i]))
        step = h * (np.arange(n) == i)
        fd[i] = (lam_value(t + step, T)[0] - lam_value(t - step, T)[0]) / (2.0 * h)
    np.testing.assert_allclose(fd, grad_smooth(exact, path).partials, rtol=1e-4)


def test_grad_smooth_unsupported_count():
    t2 = capped_jump_time(2)
    F = SmoothFunctional(value=t2.value, partials=t2.partials, supports=lambda n: n >= 2)
    with pytest.raises(ValueError, match="does not support"):
        grad_smooth(F, HawkesPath(np.array([1.0]), horizon=5.0))


def test_chain_rule_machine_precision():
    path = HawkesPath(np.array([1.2, 2.7, 4.1]), horizon=5.0)
    F = product_smooth(capped_jump_time(1), capped_jump_time(2))
    G = compose_smooth(np.tanh, lambda v: 1.0 / np.cosh(v) ** 2, F)
    gF = grad_smooth(F, path)
    gG = grad_smooth(G, path)
    Fval = F.value(path.jump_times[None, :], 5.0)[0]
    np.testing.assert_allclose(
        gG.partials, gF.partials / np.cosh(Fval) ** 2, rtol=1e-14, atol=0.0
    )


# ------------------------------------------------------- carre du champ

def test_carre_du_champ_first_jump():
    path = HawkesPath(np.array([2.0]), horizon=5.0)
    g = grad_smooth(capped_jump_time(1), path)
    assert carre_du_champ(g, g) == pytest.approx(2.0 * (1.0 - 2.0 / 5.0), rel=1e-14)


def test_carre_du_champ_piecewise_oracle():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(1, 7))
        t = np.sort(rng.uniform(0.05, 4.95, n))
        path = HawkesPath(t, horizon=5.0)
        gF = MalliavinGradient(path.jump_times, rng.normal(size=n), 5.0)
        gG = MalliavinGradient(path.jump_times, rng.normal(size=n), 5.0)
        direct = carre_du_champ(gF, gG)
        oracle = piecewise_l2_product(gF, gG)
        assert direct == pytest.approx(oracle, abs=1e-12, rel=1e-12)


def test_carre_du_champ_bilinear_symmetric():
    path = HawkesPath(np.array([0.6, 1.3, 2.9, 4.2]), horizon=5.0)
    rng = np.random.default_rng(3)
    p, q, r = rng.normal(size=(3, 4))
    gP = MalliavinGradient(path.jump_times, p, 5.0)
    gQ = MalliavinGradient(path.jump_times, q, 5.0)
    gR = MalliavinGradient(path.jump_times, r, 5.0)
    assert carre_du_champ(gP, gQ) == pytest.approx(carre_du_champ(gQ, gP), rel=1e-14)
    comb = MalliavinGradient(path.jump_times, 2.0 * p + 3.0 * q, 5.0)
    assert carre_du_champ(comb, gR) == pytest.approx(
        2.0 * carre_du_champ(gP, gR) + 3.0 * carre_du_champ(gQ, gR), rel=1e-12
    )


def test_carre_du_champ_path_mismatch():
    g1 = MalliavinGradient(np.array([1.0]), np.array([1.0]), 5.0)
    g2 = MalliavinGradient(np.array([2.0]), np.array([1.0]), 5.0)
    with pytest.raises(ValueError, match="different paths"):
        carre_du_champ(g1, g2)


def test_gram_matrix_positive_semidefinite(big_batch):
    functionals = [
        capped_jump_time(1),
        capped_jump_time(2),
        product_smooth(capped_jump_time(1), capped_jump_time(2)),
        compose_smooth(
            lambda v: np.exp(-v), lambda v: -np.exp(-v), capped_jump_time(1)
        ),
    ]
    for i in range(40):
        path = big_batch.path(i)
        grads = [grad_smooth(F, path) for F in functionals]
        gram = np.array(
            [[carre_du_champ(a, b) for b in grads] for a in grads]
        )
        eig = np.linalg.eigvalsh(gram)
        assert eig.min() >= -1e-10, f"path {i}: min eig {eig.min():.3g}"


def test_condition2_lower_bound(big_batch):
    rng = np.random.default_rng(17)
    checked = 0
    i = 0
    while checked < 300:
        path = big_batch.path(i)
        i += 1
        if path.count == 0:
            continue
        c = rng.normal(size=path.count)
        slack = condition2_slack(5.0, path.jump_times, c)
        assert slack >= -1e-12, f"path {i}: slack {slack:.3g}"
        checked += 1


@st.composite
def slack_inputs(draw):
    """(T, times, coeffs): sorted times in (0, T], some only ulps apart, some
    tied, maybe one at T."""
    T = draw(st.floats(0.01, 100.0))
    frac = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), min_size=1, max_size=16))
    t = np.asarray(frac) * T
    near = draw(st.lists(st.sampled_from(t.tolist()), max_size=6))
    ulps = draw(st.lists(st.integers(0, 4), min_size=len(near), max_size=len(near)))
    t = np.concatenate([t, [np.nextafter(s, np.inf) + k * np.spacing(s)
                            for s, k in zip(near, ulps)]])
    if draw(st.booleans()):
        t = np.append(t, T)
    t = np.sort(t[(t > 0.0) & (t <= T)])
    c = draw(st.lists(st.floats(-1e3, 1e3), min_size=t.size, max_size=t.size))
    return T, t, np.asarray(c, dtype=float)


@settings(max_examples=300, deadline=None)
@given(slack_inputs())
def test_condition2_slack_nonnegative(args):
    # c' Xi c is a sum of terms no larger than (T / 4) |c_i| |c_j|, so
    # rounding moves it by a few ulps of T (sum |c|)^2
    T, t, c = args
    assert condition2_slack(T, t, c) >= -1e-13 * T * np.sum(np.abs(c)) ** 2


def test_condition2_tight_for_single_jump():
    # with one jump the quadratic form equals the spacing bound exactly
    for t in (0.5, 2.0, 4.9):
        slack = condition2_slack(5.0, np.array([t]), np.array([1.3]))
        assert slack == pytest.approx(0.0, abs=1e-14)


def test_directional_consistency():
    # <DF, m> by piecewise integration equals -sum_j p_j m_hat(T_j)
    T = 5.0
    m = CameronMartinFunction.default(T)
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        t = np.sort(rng.uniform(0.1, T - 0.1, n))
        g = MalliavinGradient(t, rng.normal(size=n), T)
        edges, vals = gradient_segment_values(g)
        mh = np.asarray(m.m_hat(edges), dtype=float)
        integral = math.fsum(v * (mh[k + 1] - mh[k]) for k, v in enumerate(vals))
        assert g.directional(m) == pytest.approx(integral, abs=1e-10)


# ------------------------------------------------------- weight terms

def test_linear_gamma_split_closed_form():
    # Gamma1 + Gamma2 = mu(T - T_j), per jump, machine precision
    model = reference_model()
    m = CameronMartinFunction.default(5.0)
    batch = simulate_batch(model, 5.0, master_seed=21, n_paths=500)
    for path in batch:
        if path.count == 0:
            continue
        w = weight_terms(model, path, m)
        target = 0.5 * np.exp(-(5.0 - path.jump_times))
        np.testing.assert_allclose(
            w.gamma1_at_jump + w.gamma2_at_jump, target, rtol=1e-12, atol=1e-14
        )
        np.testing.assert_allclose(w.gamma1_at_jump, 0.5, rtol=1e-14)


def test_poisson_weights_vanish():
    model = poisson_model()
    m = CameronMartinFunction.default(5.0)
    path = HawkesPath(np.array([1.0, 2.5, 4.0]), horizon=5.0)
    w = weight_terms(model, path, m)
    np.testing.assert_array_equal(w.psi_at_jump, np.zeros(3))
    np.testing.assert_array_equal(w.gamma1_at_jump, np.zeros(3))
    np.testing.assert_array_equal(w.gamma2_at_jump, np.zeros(3))
    assert divergence_m(model, path, m) == pytest.approx(
        float(np.sum(m.m(path.jump_times))), rel=1e-14
    )


def test_psi_baseline_term():
    # mu = 0 and affine baseline isolate psi = m_hat lambda' / lambda
    model = HawkesModel(
        baseline=BaselineSpec.affine(lam0=1.0, slope=0.3, horizon=5.0),
        kernel=KernelSpec.exponential(alpha=0.0, beta=1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )
    m = CameronMartinFunction.default(5.0)
    t = np.array([1.0, 2.0, 4.5])
    w = weight_terms(model, HawkesPath(t, 5.0), m)
    expected = np.asarray(m.m_hat(t)) * 0.3 / (1.0 + 0.3 * t)
    np.testing.assert_allclose(w.psi_at_jump, expected, rtol=1e-14)


def test_constant_baseline_kills_psi_first_term():
    model = reference_model()
    m = CameronMartinFunction.default(5.0)
    t = np.array([1.0, 1.4, 3.0])
    w = weight_terms(model, HawkesPath(t, 5.0), m)
    # manual pairwise evaluation of the remaining cross term
    for j in range(3):
        lam = 1.0 + float(np.sum(0.5 * np.exp(-(t[j] - t[:j]))))
        cross = float(
            np.sum(
                (m.m_hat(np.float64(t[j])) - np.asarray(m.m_hat(t[:j])))
                * (-0.5 * np.exp(-(t[j] - t[:j])))
            )
        )
        assert w.psi_at_jump[j] == pytest.approx(cross / lam, rel=1e-13)


def test_gamma_split_fd_oracle_saturating():
    # -d/dt_j of Lambda_T decomposes as Gamma1 + Gamma2; check by central
    # differences of the compensator at step 1e-6
    model = HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.2),
        nonlinearity=NonlinearitySpec.saturating_tanh(cap=0.8),
    )
    T = 4.0
    t = np.array([0.8, 1.7, 3.1])
    w = weight_terms(model, HawkesPath(t, T), CameronMartinFunction.default(T))
    h = 1e-6
    for j in range(t.size):
        up, dn = t.copy(), t.copy()
        up[j] += h
        dn[j] -= h
        fd = -(
            compensator(model, HawkesPath(up, T))
            - compensator(model, HawkesPath(dn, T))
        ) / (2.0 * h)
        split = float(w.gamma1_at_jump[j] + w.gamma2_at_jump[j])
        assert split == pytest.approx(fd, rel=1e-4), f"jump {j}"


# ------------------------------------------------------- divergence

def test_divergence_empty_path():
    model = reference_model()
    m = CameronMartinFunction.default(5.0)
    assert divergence_m(model, HawkesPath(np.empty(0), 5.0), m) == 0.0


def test_divergence_batch_matches_per_path(big_batch):
    # the recurrences on the padded block against the same kernel wrapped as
    # a custom one, one path at a time: pairwise sums over unpadded rows
    model = reference_model()
    custom = HawkesModel(model.baseline, exp_as_custom(0.5, 1.0), model.nonlinearity)
    m = CameronMartinFunction.default(5.0)
    vec = divergence_m_batch(model, big_batch, m)
    for i in range(200):
        solo = divergence_m(custom, big_batch.path(i), m)
        assert vec[i] == pytest.approx(solo, rel=1e-11, abs=1e-13), f"path {i}"


def test_divergence_mean_zero(big_batch):
    # E[delta(m)] = 0 (the F = 1 case of the duality)
    model = reference_model()
    m = CameronMartinFunction.default(5.0)
    d = divergence_m_batch(model, big_batch, m)
    se = d.std(ddof=1) / math.sqrt(d.size)
    assert abs(d.mean()) <= 3.0 * se, f"mean {d.mean():.4g}, se {se:.4g}"


def _gather_capped(batch, j):
    """T_j ^ T per path, vectorized (T when fewer than j jumps)."""
    counts = batch.counts()
    out = np.full(batch.n_paths, batch.horizon)
    rows = counts >= j
    out[rows] = batch.flat_times[batch.offsets[:-1][rows] + (j - 1)]
    return out


def test_ibp_catalog(big_batch):
    # E[D_m F] = E[F delta(m)] for the three reference functionals
    model = reference_model()
    T = 5.0
    m = CameronMartinFunction.default(T)
    delta = divergence_m_batch(model, big_batch, m)
    t1 = _gather_capped(big_batch, 1)
    t2 = _gather_capped(big_batch, 2)
    mh1 = np.asarray(m.m_hat(t1))  # vanishes automatically at t1 = T
    mh2 = np.asarray(m.m_hat(t2))
    cases = {
        "T1": (t1, -mh1),
        "exp(-T1)": (np.exp(-t1), np.exp(-t1) * mh1),
        "T1*T2": (t1 * t2, -(t2 * mh1 + t1 * mh2)),
    }
    for name, (F, DmF) in cases.items():
        diff = DmF - F * delta
        se = diff.std(ddof=1) / math.sqrt(diff.size)
        assert abs(diff.mean()) <= 3.0 * se, (
            f"{name}: mean {diff.mean():.4g}, se {se:.4g}"
        )


def test_duality_with_random_factor(big_batch):
    # E[A D_m F] = E[F delta(mA)] with delta(mA) = A delta(m) - D_m A
    model = reference_model()
    T = 5.0
    m = CameronMartinFunction.default(T)
    delta = divergence_m_batch(model, big_batch, m)
    t1 = _gather_capped(big_batch, 1)
    t2 = _gather_capped(big_batch, 2)
    A = np.exp(-t1)
    DmA = A * np.asarray(m.m_hat(t1))
    F = t2
    DmF = -np.asarray(m.m_hat(t2))
    delta_mA = A * delta - DmA
    diff = A * DmF - F * delta_mA
    se = diff.std(ddof=1) / math.sqrt(diff.size)
    assert abs(diff.mean()) <= 3.0 * se, f"mean {diff.mean():.4g}, se {se:.4g}"


# ------------------------------------------------------- step directions

def test_step_direction_evaluation():
    u = CameronMartinFunction.step(knots=[0.0, 1.0, 3.0], values=[2.0, -1.0])
    assert u.horizon == 3.0 and u.sup_m == 2.0
    assert float(u.m(1.0)) == 2.0  # left-continuous at the knot
    assert float(u.m(1.0 + 1e-12)) == -1.0
    assert float(u.m_hat(1.0)) == pytest.approx(2.0)
    assert float(u.m_hat(2.0)) == pytest.approx(1.0)
    assert float(u.m_hat(3.0)) == pytest.approx(0.0)
    with pytest.raises(ValueError):
        CameronMartinFunction.step(knots=[0.5, 1.0], values=[1.0])
    with pytest.raises(ValueError):
        CameronMartinFunction.step(knots=[0.0, 2.0, 1.0], values=[1.0, -1.0])
    with pytest.raises(ValueError):
        CameronMartinFunction.step(knots=[0.0, 1.0], values=[1.0, -1.0])


def test_step_direction_divergence_ignores_redundant_knots():
    # a knot inside a constant stretch leaves m and m_hat as they were, so
    # the divergence of both representations agrees on every path
    model = reference_model()
    T = 5.0
    u = CameronMartinFunction.step([0.0, 1.0, 3.0, 5.0], [1.0, -0.75, 0.25])
    split = CameronMartinFunction.step([0.0, 1.0, 2.0, 3.0, 5.0], [1.0, -0.75, -0.75, 0.25])
    batch = simulate_batch(model, T, master_seed=31, n_paths=50)
    for path in batch:
        a = divergence_m(model, path, u)
        b = divergence_m(model, path, split)
        assert a == pytest.approx(b, rel=1e-13, abs=1e-15)
    np.testing.assert_array_equal(
        divergence_m_batch(model, batch, u), [divergence_m(model, p, u) for p in batch]
    )


def test_step_direction_guards():
    model = reference_model()
    path = HawkesPath(np.array([1.0]), horizon=5.0)
    with pytest.raises(ValueError, match="must integrate to zero"):
        CameronMartinFunction.step([0.0, 5.0], [0.1])
    zero = CameronMartinFunction.step([0.0, 5.0], [0.0])
    assert divergence_m(model, path, zero) == 0.0
    short = CameronMartinFunction.step([0.0, 4.0], [0.0])
    with pytest.raises(ValueError, match="horizon"):
        divergence_m(model, path, short)


@pytest.mark.parametrize("gamma", ["linear", "tanh"])
def test_step_direction_unit_mass_and_ibp(gamma):
    # a step direction runs through both z-score checks like any other
    model = HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=(
            NonlinearitySpec.linear() if gamma == "linear" else NonlinearitySpec.saturating_tanh(cap=3.0)
        ),
    )
    seed = {"linear": 41, "tanh": 42}[gamma]
    batch = simulate_batch(model, 5.0, master_seed=seed, n_paths=20_000)
    u = CameronMartinFunction.step([0.0, 1.0, 3.0, 5.0], [1.0, -0.75, 0.25])
    assert unit_mass_check(model, batch, u).passed
    assert ibp_check(model, batch, u).passed


def test_direction_for_another_horizon_refused():
    # m_hat of a T = 4 direction does not vanish at 5: used on a T = 5 batch
    # it leaves H, and ibp, unit mass and the delta weight come out wrong
    batch = simulate_batch(reference_model(), T=5.0, master_seed=7, n_paths=50)
    short = CameronMartinFunction.default(4.0)
    with pytest.raises(ValueError, match="horizon 4 does not match the batch horizon 5"):
        weight_arrays(reference_model(), batch, short)
    with pytest.raises(ValueError, match="horizon 4 does not match the batch horizon 5"):
        divergence_m_batch(reference_model(), batch, short)
    with pytest.raises(ValueError, match="horizon 4 does not match the batch horizon 5"):
        z_eps_batch(reference_model(), batch, short, 0.1)
    # within 1e-12 of the batch horizon the direction is the batch's own
    close = CameronMartinFunction.default(5.0 + 1e-13)
    assert np.all(np.isfinite(z_eps_batch(reference_model(), batch, close, 0.1)))


def test_z_eps_batch_refuses_an_empty_eps_and_another_horizon_before_any_work(monkeypatch):
    # an empty eps has no Z^eps to give: it must not run the batch through
    # log kappa, and a direction of another horizon is refused even then
    batch = simulate_batch(reference_model(), T=5.0, master_seed=7, n_paths=50)

    def no_work(*args):
        raise AssertionError("log kappa ran")

    monkeypatch.setattr(hawkmal.malliavin, "_log_kappa_parts", no_work)
    for eps in ([], (), np.empty(0)):
        with pytest.raises(ValueError, match="horizon 4 does not match the batch horizon 5"):
            z_eps_batch(reference_model(), batch, CameronMartinFunction.default(4.0), eps)
        with pytest.raises(ValueError, match="eps is empty"):
            z_eps_batch(reference_model(), batch, CameronMartinFunction.default(5.0), eps)


# ------------------------------------------------------- Z^eps

def test_z_eps_poisson_product_form():
    model = poisson_model()
    T = 5.0
    m = CameronMartinFunction.default(T)
    path = HawkesPath(np.array([0.9, 2.2, 3.3]), horizon=T)
    for eps in (0.1, 0.01):
        z = z_eps(model, path, m, eps)
        expected = float(np.prod(1.0 + eps * np.asarray(m.m(path.jump_times))))
        assert z == pytest.approx(expected, rel=1e-12)


def test_z_eps_validation():
    model = reference_model()
    m = CameronMartinFunction.default(5.0)
    path = HawkesPath(np.array([1.0]), horizon=5.0)
    with pytest.raises(ValueError):
        z_eps(model, path, m, 0.0)
    with pytest.raises(ValueError, match="1/3"):
        z_eps(model, path, m, 0.4)  # sup|m| = 1


def _asset(x0=100.0, sigma=0.3):
    return AssetModel(x0=x0, r=0.0, sigma=sigma, hawkes=reference_model())


def _small_batch():
    return simulate_batch(reference_model(), 5.0, master_seed=3, n_paths=4)


@pytest.mark.parametrize(
    "build",
    [
        lambda: simulate_batch(reference_model(), math.nan, 1, 2),
        lambda: simulate_batch(reference_model(), math.inf, 1, 2),
        lambda: simulate_batch(reference_model(), 1.0, 1, 2, first_index=-1),
        lambda: simulate_batch(reference_model(), 1.0, 1, 2, first_index=2**64 - 1),
        lambda: CameronMartinFunction.default(math.nan),
        lambda: CameronMartinFunction.default(math.inf),
        lambda: z_eps_batch(
            reference_model(), _small_batch(), CameronMartinFunction.default(5.0), math.nan
        ),
        lambda: fd_delta(_asset(), Payoff.digital(100.0), _small_batch(), bump=math.nan),
        lambda: _asset(x0=math.nan),
        lambda: _asset(sigma=math.nan),
        lambda: HawkesPath(np.empty(0), horizon=math.nan),
        lambda: CameronMartinFunction.step(knots=[0.0, math.nan], values=[0.0]),
        lambda: CameronMartinFunction(
            5.0, CameronMartinFunction.default(5.0).m, CameronMartinFunction.default(5.0).m_hat, math.nan
        ),
        lambda: CameronMartinFunction(
            5.0, CameronMartinFunction.default(5.0).m, CameronMartinFunction.default(5.0).m_hat, -1.0
        ),
        lambda: CameronMartinFunction.cosine(0.0),
        lambda: CameronMartinFunction.sine(-1.0),
    ],
    ids=[
        "horizon-nan", "horizon-inf", "first-index-negative", "indices-past-2^64",
        "direction-nan", "direction-inf", "eps-nan", "bump-nan", "x0-nan",
        "sigma-nan", "path-horizon-nan", "knot-nan", "sup-m-nan", "sup-m-negative",
        "cosine-horizon-zero", "sine-horizon-negative",
    ],
)
def test_non_finite_and_out_of_range_inputs_refused(build):
    # each check is stated as the negation of its accepting condition, so
    # NaN fails it; a refusal is immediate (no simulation runs first)
    with pytest.raises(ValueError):
        build()


def test_last_path_indices_accepted():
    batch = simulate_batch(reference_model(), 1.0, 1, 2, first_index=2**64 - 2)
    assert batch.n_paths == 2 and batch.first_index == 2**64 - 2


def test_z_eps_empty_path_is_one():
    model = reference_model()
    m = CameronMartinFunction.default(5.0)
    assert z_eps(model, path=HawkesPath(np.empty(0), 5.0), m=m, eps=0.01) == 1.0


def test_z_eps_derivative_is_divergence():
    # (Z^eps - 1)/eps -> delta(m) at first order in eps, per path
    model = reference_model()
    T = 5.0
    m = CameronMartinFunction.default(T)
    batch = simulate_batch(model, T, master_seed=47, n_paths=20)
    for path in batch:
        if path.count == 0:
            continue
        d = divergence_m(model, path, m)
        errs = []
        for eps in (1e-2, 5e-3, 2.5e-3, 1.25e-3):
            z = z_eps(model, path, m, eps)
            errs.append(abs((z - 1.0) / eps - d))
        for a, b in zip(errs[:-1], errs[1:]):
            assert b <= 0.75 * a + 1e-12, f"no first-order decay: {errs}"


def kappa_ratio(model, path, m, eps):
    """Z^eps of one path from `log_kappa_rows`: the jump density at the
    shifted times over the density at the times, times prod (1 + eps m)."""
    t = path.jump_times
    if t.size == 0:
        return 1.0
    shifted = t + eps * np.asarray(m.m_hat(t))
    lk = log_kappa_rows(model, path.horizon, np.stack([shifted, t]))
    return math.exp(lk[0] - lk[1] + float(np.sum(np.log1p(eps * np.asarray(m.m(t))))))


def test_z_eps_batch_matches_scalar(big_batch):
    model = reference_model()
    m = CameronMartinFunction.default(5.0)
    for eps in (0.1, 0.001):
        vec = z_eps_batch(model, big_batch, m, eps)
        for i in range(60):
            assert vec[i] == pytest.approx(
                kappa_ratio(model, big_batch.path(i), m, eps), rel=1e-11
            )


def test_z_eps_unit_mass(big_batch):
    model = reference_model()
    m = CameronMartinFunction.default(5.0)
    for eps in (0.1, 0.01, 0.001):
        z = z_eps_batch(model, big_batch, m, eps)
        se = z.std(ddof=1) / math.sqrt(z.size)
        assert abs(z.mean() - 1.0) <= 3.0 * se, (
            f"eps={eps}: mean {z.mean():.6f}, se {se:.2g}"
        )


def inv_sqrt_direction(T):
    """m(t) = t^(-1/2) - 2/sqrt(T), unbounded near 0."""
    c = 2.0 / math.sqrt(T)
    return CameronMartinFunction.from_callables(
        T,
        m=lambda t: 1.0 / np.sqrt(np.maximum(np.asarray(t, dtype=float), 1e-300)) - c,
        m_hat=lambda t: 2.0 * np.sqrt(np.asarray(t, dtype=float))
        - c * np.asarray(t, dtype=float),
        sup_m=math.inf,
    )


def test_z_eps_unbounded_direction_truncated():
    # m ~ 1/sqrt(t) is unbounded near 0; the clamped, re-centered version
    # must still give a finite Z tending to 1
    T = 5.0
    m = inv_sqrt_direction(T)
    assert not m.bounded
    model = reference_model()
    path = HawkesPath(np.array([0.9, 2.2, 3.3]), horizon=T)
    zs = [z_eps(model, path, m, eps) for eps in (1e-1, 1e-2, 1e-3, 1e-4)]
    assert all(math.isfinite(z) and z > 0 for z in zs)
    gaps = [abs(z - 1.0) for z in zs]
    assert gaps[-1] < gaps[0]
    assert gaps[-1] < 1e-3
    # each grid panel of the clamped m is integrated adaptively, so the
    # clamp leaves no bias that outlives eps
    assert abs(z_eps(model, path, m, 1e-8) - 1.0) <= 1e-8


def test_z_eps_batch_over_many_eps_is_its_one_eps_calls():
    # one walk serves a sequence of eps, and each row has the bits of its
    # own call: on linear gamma and on tanh, for a bounded direction and for
    # an unbounded one, which each eps clamps at its own 1/(3 eps)
    T = 5.0
    unbounded = inv_sqrt_direction(T)
    eps = (1e-1, 1e-2, 1e-3)
    for cap in (None, 2.0):
        model = engine_model(KernelSpec.exponential(alpha=0.5, beta=1.0), cap)
        batch = simulate_batch(model, T, master_seed=61, n_paths=2000)
        for m in (CameronMartinFunction.default(T), unbounded):
            many = z_eps_batch(model, batch, m, eps)
            assert many.shape == (len(eps), batch.n_paths)
            for row, e in zip(many, eps):
                assert row.tobytes() == z_eps_batch(model, batch, m, e).tobytes(), (cap, m.bounded, e)


# ------------------------------------------------------- basis projection

def fourier_tail_energy(T, t1, K):
    """Exact tail sum_{k>K} (2T/pi^2 k^2) sin^2(pi k t1 / T) via Parseval:
    the total over all k is xi(t1, t1)."""
    k = np.arange(1, K + 1, dtype=float)
    partial = float(
        np.sum(2.0 * T / (math.pi**2 * k**2) * np.sin(math.pi * k * t1 / T) ** 2)
    )
    return t1 * (1.0 - t1 / T) - partial


def test_basis_projection_tail_formula():
    T = 5.0
    for t1 in (1.1, 2.5, 4.0):
        path = HawkesPath(np.array([t1]), horizon=T)
        g = grad_smooth(capped_jump_time(1), path)
        for K in (4, 16, 64, 256):
            res = basis_projection_check(g, K)
            tail = fourier_tail_energy(T, t1, K)
            assert res**2 == pytest.approx(tail, rel=1e-9, abs=1e-12), (
                f"t1={t1}, K={K}"
            )


def test_basis_projection_decreases_and_small_at_256():
    T = 5.0
    path = HawkesPath(np.array([2.5]), horizon=T)
    g = grad_smooth(capped_jump_time(1), path)
    norm = math.sqrt(carre_du_champ(g, g))
    prev = math.inf
    for K in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
        res = basis_projection_check(g, K)
        assert res <= prev + 1e-15
        prev = res
    assert basis_projection_check(g, 256) <= 0.05 * norm


@settings(max_examples=100, deadline=None)
@given(
    paths=st.lists(
        st.lists(st.floats(0.0, 5.0, exclude_min=True), max_size=12), min_size=1, max_size=5
    ),
    norm=st.floats(0.0, 0.9),
    beta=st.floats(0.1, 5.0),
)
def test_excitation_recurrences_match_excitation(paths, norm, beta):
    # the O(P K) recurrence on a padded batch against the pairwise sum;
    # subnormal values (a subnormal alpha) are rounding noise
    alpha = norm * beta
    paths = [np.unique(p) for p in paths]
    counts = [p.size for p in paths]
    batch = PathBatch(
        horizon=5.0,
        master_seed=0,
        first_index=0,
        offsets=np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        flat_times=np.concatenate(paths + [np.empty(0)]),
    )
    model = HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=alpha, beta=beta),
        nonlinearity=NonlinearitySpec.linear(),
    )
    times, _ = padded_jumps(batch)
    S, _ = _excitation_recurrences(times, alpha, beta, np.zeros_like(times))
    for i, t in enumerate(paths):
        np.testing.assert_allclose(
            S[i, : t.size], model.excitation(t, t), rtol=1e-12, atol=np.finfo(float).tiny
        )


# ------------------------------------------------------- block engine oracles

_BT = 3.0


def batch_of(paths, T=_BT):
    counts = [len(t) for t in paths]
    return PathBatch(
        horizon=T,
        master_seed=0,
        first_index=0,
        offsets=np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        flat_times=np.concatenate([np.asarray(t, dtype=float) for t in paths] + [np.empty(0)]),
    )


@st.composite
def engine_batches(draw):
    """Up to four drawn paths of up to 8 jumps, then a path with no jump,
    one whose last jump is exactly at T and an outlier of up to 60 jumps,
    which sets the padding of every other row."""

    def jumps(max_jumps, min_jumps=0):
        unit = st.floats(0.0, 1.0, exclude_min=True)
        raw = draw(st.lists(unit, min_size=min_jumps, max_size=max_jumps))
        t = np.unique(np.asarray(raw, dtype=float) * _BT)
        return t[t < _BT]

    paths = [jumps(8) for _ in range(draw(st.integers(0, 4)))]
    return batch_of(paths + [np.empty(0), np.append(jumps(5), _BT), jumps(60, 20)])


def engine_model(kernel, cap):
    """Sinusoidal baseline, so psi's baseline term is live; linear gamma
    when cap is None, c tanh(x / c) otherwise."""
    return HawkesModel(
        baseline=BaselineSpec.sinusoidal(lam0=1.5, amp=0.4, period=2.5),
        kernel=kernel,
        nonlinearity=NonlinearitySpec.linear()
        if cap is None
        else NonlinearitySpec.saturating_tanh(cap=cap),
    )


def scalar_psi_gamma1(model, t, m):
    """psi and Gamma1 at each jump of one path by plain loops over the
    strictly earlier jumps."""
    k, g, b = model.kernel, model.nonlinearity, model.baseline

    def at(fn, x):
        return float(fn(np.float64(x)))

    psi, gamma1 = [], []
    for j, tj in enumerate(t):
        S = math.fsum(at(k.mu, tj - ti) for ti in t[:j])
        cross = math.fsum(
            (at(m.m_hat, tj) - at(m.m_hat, ti)) * at(k.mu_prime, tj - ti) for ti in t[:j]
        )
        lam = at(b.value, tj) + at(g.value, S)
        psi.append((at(m.m_hat, tj) * at(b.derivative, tj) + at(g.derivative, S) * cross) / lam)
        gamma1.append(at(g.value, at(k.mu, 0.0) + S) - at(g.value, S))
    return np.array(psi), np.array(gamma1)


@settings(max_examples=40, deadline=None)
@given(
    batch=engine_batches(),
    beta=st.floats(0.5, 3.0),
    ratio=st.floats(0.05, 0.9),
    cap=st.sampled_from([None, 0.3, 2.0]),
)
def test_block_engine_recurrences_match_custom_wrapped_kernel(batch, beta, ratio, cap):
    # the exponential family takes the recurrences, the wrapped copy the
    # pairwise strict_lags sums; everything else is shared
    fast_model = engine_model(KernelSpec.exponential(ratio * beta, beta), cap)
    slow_model = engine_model(exp_as_custom(ratio * beta, beta), cap)
    m = CameronMartinFunction.cosine(_BT)
    fast = weight_arrays(fast_model, batch, m)
    slow = weight_arrays(slow_model, batch, m)
    mask = fast[1]
    np.testing.assert_array_equal(fast[0], slow[0])
    np.testing.assert_array_equal(mask, slow[1])
    for name, a, b in zip(("psi", "gamma1", "gamma2", "m", "m_hat"), fast[2:], slow[2:]):
        np.testing.assert_allclose(a[mask], b[mask], rtol=1e-12, atol=1e-14, err_msg=name)
    np.testing.assert_allclose(
        divergence_m_batch(fast_model, batch, m),
        divergence_m_batch(slow_model, batch, m),
        rtol=1e-12,
        atol=1e-13,
    )
    for eps in (0.1, 1e-3):
        np.testing.assert_allclose(
            z_eps_batch(fast_model, batch, m, eps),
            z_eps_batch(slow_model, batch, m, eps),
            rtol=1e-12,
        )


@settings(max_examples=20, deadline=None)
@given(
    batch=engine_batches(),
    family=st.sampled_from(["power-law", "exponential"]),
    cap=st.sampled_from([None, 0.3, 2.0]),
)
def test_block_engine_matches_scalar_oracles(batch, family, cap):
    # psi and Gamma1 against plain loops, Gamma2 against scipy quad and
    # Z^eps against the log kappa ratio, one unpadded path at a time
    kernel = power_law_kernel() if family == "power-law" else KernelSpec.exponential(0.6, 1.5)
    model = engine_model(kernel, cap)
    m = CameronMartinFunction.default(_BT)
    times, mask, psi, g1, g2, m_at, m_hat_at = weight_arrays(model, batch, m)
    delta = divergence_m_batch(model, batch, m)
    z = z_eps_batch(model, batch, m, 0.1)
    counts = batch.counts()
    for i, path in enumerate(batch):
        n, t = path.count, path.jump_times
        np.testing.assert_array_equal(times[i, :n], t)
        np.testing.assert_array_equal(mask[i], np.arange(mask.shape[1]) < n)
        want_psi, want_g1 = scalar_psi_gamma1(model, t, m)
        np.testing.assert_allclose(psi[i, :n], want_psi, rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(g1[i, :n], want_g1, rtol=1e-12, atol=1e-14)
        # the outlier row is checked at its last two jumps only: quad is slow
        for j in range(n) if i < batch.n_paths - 1 else range(max(n - 2, 0), n):
            want = (
                float(kernel.mu(np.float64(_BT - t[j])) - kernel.mu(np.float64(0.0)))
                if cap is None
                else quad_gamma2(model, t, _BT, j)
            )
            assert g2[i, j] == pytest.approx(want, rel=1e-12, abs=1e-9), f"path {i}, jump {j}"
        w = psi[i, :n] + m_hat_at[i, :n] * (g1[i, :n] + g2[i, :n]) + m_at[i, :n]
        assert delta[i] == pytest.approx(math.fsum(w), rel=1e-12, abs=1e-13)
        assert z[i] == pytest.approx(kappa_ratio(model, path, m, 0.1), rel=1e-11)
    assert counts[-3] == 0 and delta[-3] == 0.0 and z[-3] == 1.0
