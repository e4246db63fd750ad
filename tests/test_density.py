"""Density-layer checks: kappa values against hand quadrature, simplex
sentinels, normalization routes, the k_n bound, conditioned KS tests, and
the numpy Simpson rule and Kolmogorov distribution against scipy and
mpmath."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import simpson

import hawkmal.simulate
from hawkmal import density
from hawkmal.density import (
    GoodnessOfFit,
    NormalizationError,
    conditional_density_bound,
    conditional_density_kn,
    count_distribution,
    density_vs_empirical,
    log_kappa,
    log_kappa_rows,
    normalization_constant,
    _cumulative_trapezoid,
    _kolmogorov_sf,
    _marginal_cdf,
    _ks_two_sided,
    _simpson,
)
from hawkmal.model import (
    BaselineSpec,
    HawkesModel,
    KernelSpec,
    NonlinearitySpec,
    intensity,
)
from hawkmal.simulate import HawkesPath, compensator, simulate_batch
from test_simulate import power_law_kernel, triangular_kernel


def reference_model(alpha=0.5):
    return HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=alpha, beta=1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )


def poisson_model(lam=1.0):
    return HawkesModel(
        baseline=BaselineSpec.constant(lam),
        kernel=KernelSpec.exponential(alpha=0.0, beta=1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )


def tanh_model(cap):
    return HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=NonlinearitySpec.saturating_tanh(cap=cap),
    )


def counted_share(model, T, n):
    """(share, binomial se) of paths with N_T = n in `count_distribution`:
    the Monte Carlo oracle of the normalization rule."""
    hist = count_distribution(model, T)
    n_mc = int(hist.sum())
    p = float(hist[n]) / n_mc if n < hist.size else 0.0
    return p, math.sqrt(p * (1.0 - p) / n_mc)


@pytest.fixture(scope="module")
def hawkes_batch():
    return simulate_batch(
        reference_model(), T=5.0, master_seed=606, n_paths=200_000, n_workers=4
    )


@pytest.fixture(scope="module")
def poisson_batch():
    return simulate_batch(
        poisson_model(), T=5.0, master_seed=707, n_paths=200_000, n_workers=4
    )


# ---------------------------------------------------------------- log kappa

def test_log_kappa_poisson_case():
    # kappa = lambda^n e^{-lambda T}; one jump anywhere gives log(1) - 5
    assert log_kappa(poisson_model(), 5.0, [2.0]) == pytest.approx(-5.0, abs=1e-12)
    assert log_kappa(poisson_model(), 5.0, [0.1, 4.9]) == pytest.approx(-5.0, abs=1e-12)


def test_log_kappa_off_simplex_sentinel():
    model = reference_model()
    assert log_kappa(model, 5.0, [3.0, 2.0]) == -math.inf
    assert log_kappa(model, 5.0, [1.0, 1.0]) == -math.inf
    assert log_kappa(model, 5.0, [0.0]) == -math.inf
    assert log_kappa(model, 5.0, [5.1]) == -math.inf
    assert log_kappa(model, 5.0, [1.0, 3.0, 2.0]) == -math.inf
    with pytest.raises(ValueError):
        log_kappa(model, 5.0, [])


def test_log_kappa_single_jump_hand_value():
    # one jump at 1.0, T=2: product term is lambda*(1)=1, integral is
    # 2 + mu_hat(1) = 2 + 0.5(1 - e^{-1})
    expected = -(2.0 + 0.5 * (1.0 - math.exp(-1.0)))
    assert expected == pytest.approx(-2.3160602794142788, abs=1e-15)
    assert log_kappa(reference_model(), 2.0, [1.0]) == pytest.approx(
        expected, abs=1e-12
    )


def test_log_kappa_factorization_identity():
    model = reference_model()
    T = 5.0
    full = np.array([0.7, 1.9, 3.2])
    prefix = full[:2]
    lhs = log_kappa(model, T, full) - log_kappa(model, T, prefix)
    lam_n = intensity(model, prefix, float(full[-1]))
    d_int = compensator(model, HawkesPath(full, T), T) - compensator(
        model, HawkesPath(prefix, T), T
    )
    assert lhs == pytest.approx(math.log(lam_n) - d_int, abs=1e-10)


def test_log_kappa_factorization_identity_nonlinear():
    model = HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=NonlinearitySpec.saturating_tanh(cap=0.7),
    )
    T = 5.0
    full = np.array([0.7, 1.9, 3.2])
    prefix = full[:2]
    lhs = log_kappa(model, T, full) - log_kappa(model, T, prefix)
    lam_n = intensity(model, prefix, float(full[-1]))
    d_int = compensator(model, HawkesPath(full, T), T) - compensator(
        model, HawkesPath(prefix, T), T
    )
    assert lhs == pytest.approx(math.log(lam_n) - d_int, abs=1e-8)


def test_log_kappa_rows_matches_scalar():
    model = reference_model()
    rng = np.random.default_rng(4)
    rows = np.sort(rng.uniform(0.01, 4.99, size=(50, 3)), axis=1)
    vec = log_kappa_rows(model, 5.0, rows)
    scal = np.array([log_kappa(model, 5.0, r) for r in rows])
    np.testing.assert_allclose(vec, scal, rtol=1e-13)


_ORACLE_T = 3.0
_KERNELS = {
    "exponential": lambda: KernelSpec.exponential(alpha=0.5, beta=1.0),
    "triangular": triangular_kernel,
    "power-law": power_law_kernel,
}
_GAMMAS = {
    "linear": NonlinearitySpec.linear,
    "tanh": lambda: NonlinearitySpec.saturating_tanh(2.0),
}
_BASELINES = {
    "constant": lambda: BaselineSpec.constant(1.0),
    "sinusoidal": lambda: BaselineSpec.sinusoidal(1.0, 0.5, 2.0),
}


@settings(max_examples=120, deadline=None)
@given(
    kernel=st.sampled_from(sorted(_KERNELS)),
    gamma=st.sampled_from(sorted(_GAMMAS)),
    baseline=st.sampled_from(sorted(_BASELINES)),
    rows=st.integers(1, 9).flatmap(
        lambda n: st.lists(
            st.lists(
                st.floats(0.0, _ORACLE_T, exclude_min=True), min_size=n, max_size=n, unique=True
            ).map(sorted),
            min_size=1,
            max_size=4,
        )
    ),
)
def test_log_kappa_rows_matches_intensity_oracle(kernel, gamma, baseline, rows):
    # an oracle outside the block excitation engine: each factor is
    # `intensity` on the jumps before t_j, less the path's compensator
    model = HawkesModel(_BASELINES[baseline](), _KERNELS[kernel](), _GAMMAS[gamma]())
    block = np.array(rows)
    for row, value in zip(block, log_kappa_rows(model, _ORACLE_T, block)):
        ref = sum(
            math.log(intensity(model, row[:j], row[j])) for j in range(row.size)
        ) - compensator(model, HawkesPath(row, _ORACLE_T))
        assert value == pytest.approx(ref, rel=1e-12, abs=1e-12)


# ------------------------------------------------------------ normalization

def test_quadrature_normalization_poisson_exact():
    # P(N_T = n) for Poisson(5) in closed form
    model = poisson_model()
    for n in (1, 2, 3):
        z, se = normalization_constant(model, 5.0, n)
        assert se == 0.0
        expected = math.exp(-5.0) * 5.0**n / math.factorial(n)
        assert z == pytest.approx(expected, rel=1e-10)


def test_mc_and_quadrature_normalizations_agree():
    # n <= 3 takes the chained rule, for any gamma, against the count
    for name, model in (("linear", reference_model()), ("tanh", tanh_model(2.0))):
        for n in (1, 2, 3):
            z_mc, se = counted_share(model, 5.0, n)
            z_q, se_q = normalization_constant(model, 5.0, n)
            assert se_q == 0.0
            assert abs(z_mc - z_q) <= 4.0 * se, f"{name} n={n}: mc {z_mc} vs quad {z_q}"


def test_normalization_monotone_sum():
    model = reference_model()
    hist = count_distribution(model, 5.0)
    n_mc = hist.sum()
    total = 0.0
    for n in range(1, 11):
        z, se = counted_share(model, 5.0, n)
        total += z
        assert total <= 1.0 + 3.0 * se
    zq = sum(normalization_constant(model, 5.0, n)[0] for n in (1, 2, 3))
    assert zq <= 1.0
    assert n_mc == 200_000


def test_normalization_caches_are_bounded_and_keyed_by_digest():
    # one more key than the cache holds evicts the least recently used one;
    # an equal model built apart is the same key
    cached = density._simplex_quadrature_mass
    cached.cache_clear()
    horizons = [1.0 + 0.01 * k for k in range(density._CACHE_SIZE + 1)]
    for T in horizons:
        normalization_constant(reference_model(), T, 1)
    info = cached.cache_info()
    assert info.maxsize == density._CACHE_SIZE
    assert (info.currsize, info.misses, info.hits) == (density._CACHE_SIZE, len(horizons), 0)
    normalization_constant(reference_model(), horizons[-1], 1)
    assert cached.cache_info().hits == 1
    normalization_constant(reference_model(), horizons[0], 1)
    assert cached.cache_info().misses == len(horizons) + 1
    normalization_constant(reference_model(alpha=0.4), horizons[0], 1)
    assert cached.cache_info().misses == len(horizons) + 2

    counts = count_distribution
    counts.cache_clear()
    first = count_distribution(reference_model(), 1.0)
    again = count_distribution(reference_model(), 1.0)
    assert again is first
    assert counts.cache_info().maxsize == density._CACHE_SIZE


def test_marginal_cache_is_bounded_and_keyed_by_model_and_horizon():
    # the KS marginals are cached per (model, T, n, coord), at most
    # _MARGINAL_CACHE_SIZE of them
    cached = _marginal_cdf
    assert density._CACHE_SIZE == 64 and density._MARGINAL_CACHE_SIZE == 8
    assert cached.cache_info().maxsize == density._MARGINAL_CACHE_SIZE
    cached.cache_clear()
    model = reference_model()
    horizons = [1.0 + 0.01 * k for k in range(density._MARGINAL_CACHE_SIZE + 1)]
    for T in horizons:
        grid, cdf = cached(model, T, 2, 0)
        want_grid, want = cached.__wrapped__(reference_model(), T, 2, 0)
        assert grid.tobytes() == want_grid.tobytes() and cdf.tobytes() == want.tobytes()
    info = cached.cache_info()
    assert (info.currsize, info.misses, info.hits) == (density._MARGINAL_CACHE_SIZE, len(horizons), 0)
    assert cached(reference_model(), horizons[-1], 2, 0)[1] is cdf
    assert cached.cache_info().hits == 1
    # the least recently used key, the first horizon, was dropped
    cached(model, horizons[0], 2, 0)
    assert cached.cache_info().misses == len(horizons) + 1


def test_cached_arrays_are_read_only():
    # a caller that writes to a cached array raises, and the entry keeps
    # its values: the histogram behind Z_n for n > 3 and the KS marginals
    model = reference_model()
    hist = count_distribution(model, 1.0)
    before = normalization_constant(model, 1.0, 4)
    assert before[0] > 0.0
    with pytest.raises(ValueError, match="read-only"):
        hist[4] = 0
    assert normalization_constant(model, 1.0, 4) == before
    for array in _marginal_cdf(model, 5.0, 1, 0):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1.0


def custom_wiggle_model(amp):
    """0.5 e^{-t} + amp sin(16 pi t) 1{t < 2}, as a custom kernel: the
    wiggle and its antiderivative vanish at every probe lag, multiples of
    1/8, so every amp has the digest key of amp = 0."""
    w = 16.0 * math.pi

    def mu(t):
        t = np.asarray(t, dtype=float)
        return 0.5 * np.exp(-t) + amp * np.where(t < 2.0, np.sin(w * t), 0.0)

    def mu_prime(t):
        t = np.asarray(t, dtype=float)
        return -0.5 * np.exp(-t) + amp * np.where(t < 2.0, w * np.cos(w * t), 0.0)

    def mu_hat(t):
        t = np.asarray(t, dtype=float)
        return 0.5 * -np.expm1(-t) + amp * np.where(t < 2.0, (1.0 - np.cos(w * t)) / w, 0.0)

    kernel = KernelSpec.custom(
        mu, mu_prime, mu_hat, l1_norm=0.5, sup_norm=0.501, sup_deriv=0.5 + 1e-3 * w, nonincreasing=True
    )
    return HawkesModel(BaselineSpec.constant(1.0), kernel, NonlinearitySpec.linear())


def test_cache_keys_tell_apart_custom_kernels_that_agree_on_the_probe():
    # the report digest cannot tell the two kernels apart; the cache key
    # holds the kernel's callables, so neither model reads the other's Z_1
    from hawkmal.density import _simplex_quadrature_mass

    m1, m2 = custom_wiggle_model(0.0), custom_wiggle_model(1e-3)
    assert m1.digest_key() == m2.digest_key()
    _simplex_quadrature_mass.cache_clear()
    z1, _ = normalization_constant(m1, 5.0, 1)
    z2, _ = normalization_constant(m2, 5.0, 1)
    info = _simplex_quadrature_mass.cache_info()
    assert (info.misses, info.hits) == (2, 0)
    assert normalization_constant(m1, 5.0, 1) == (z1, 0.0)
    assert _simplex_quadrature_mass.cache_info().hits == 1
    assert z1 == _simplex_quadrature_mass.__wrapped__(m1, 5.0, 1)
    assert z2 == _simplex_quadrature_mass.__wrapped__(m2, 5.0, 1)
    assert z1 != z2


def test_normalization_refusals():
    model = reference_model()
    # far tail: too few (or zero) hits
    with pytest.raises(NormalizationError):
        conditional_density_kn(model, 5.0, np.linspace(0.05, 4.95, 60))
    # the bound fetches Z_n itself and refuses it by the same gate
    with pytest.raises(NormalizationError, match=r"^Z_60 = 0 \(se 0\) is too uncertain to normalize with$"):
        conditional_density_bound(model, 5.0, 60)
    # past the chained rule's n, Z_n is the counted share, bit for bit
    z4, se4 = normalization_constant(model, 5.0, 4)
    assert (z4, se4) == counted_share(model, 5.0, 4)
    assert z4 > 10.0 * se4 > 0.0


# ---------------------------------------------------------- conditional k_n

def test_poisson_k1_is_uniform():
    model = poisson_model()
    val = conditional_density_kn(model, 5.0, [2.0])
    assert val == pytest.approx(0.2, rel=1e-10)
    # off-simplex point has zero conditional density
    assert conditional_density_kn(model, 5.0, [6.0]) == 0.0


def test_k1_integrates_to_one():
    # Simpson over a dense grid against the Gauss-Legendre normalization
    model = reference_model()
    grid = np.linspace(1e-9, 5.0, 4097)
    vals = np.array(
        [
            conditional_density_kn(model, 5.0, [t])
            for t in grid[:: 16]
        ]
    )
    # scalar calls are for the API contract; the dense pass uses the row form
    z, _ = normalization_constant(model, 5.0, 1)
    dense = np.exp(log_kappa_rows(model, 5.0, grid[:, None])) / z
    np.testing.assert_allclose(dense[::16], vals, rtol=1e-12)
    assert simpson(dense, x=grid) == pytest.approx(1.0, abs=1e-6)


def test_mc_normalized_k1_close_to_quadrature():
    model = reference_model()
    a = math.exp(log_kappa(model, 5.0, [2.0])) / counted_share(model, 5.0, 1)[0]
    b = conditional_density_kn(model, 5.0, [2.0])
    assert a == pytest.approx(b, rel=0.05)


def test_kn_uniform_bound_on_simplex_points():
    model = reference_model()
    T = 5.0
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        z, _ = normalization_constant(model, T, n)
        bound = conditional_density_bound(model, T, n)
        pts = np.sort(rng.uniform(0.0, T, size=(1000, n)), axis=1)
        dens = np.exp(log_kappa_rows(model, T, pts)) / z
        assert np.all(dens <= bound * (1.0 + 1e-12)), f"bound violated at n={n}"
        # the bound should not be absurdly loose at the mode either
        assert dens.max() > bound * 1e-6


# ------------------------------------------------------------ fit reports

def test_poisson_conditioned_ks(poisson_batch):
    reports = density_vs_empirical(poisson_model(), 1, poisson_batch)
    (rep,) = reports
    assert rep.samples >= 1000
    assert rep.p_value > 0.01, f"KS p={rep.p_value:.4g}"


def test_hawkes_conditioned_ks_n1(hawkes_batch):
    (rep,) = density_vs_empirical(reference_model(), 1, hawkes_batch)
    assert rep.p_value > 0.01, f"KS p={rep.p_value:.4g}"
    assert rep.test_name == "ks_T1"


def test_hawkes_conditioned_ks_n2(hawkes_batch):
    reports = density_vs_empirical(reference_model(), 2, hawkes_batch)
    assert len(reports) == 2
    for rep in reports:
        assert rep.samples >= 1000
        assert rep.p_value > 0.01, f"{rep.test_name} p={rep.p_value:.4g}"


def test_marginal_cdf_blocks_move_no_bit(monkeypatch):
    # grid points in blocks of 37 (1 025 = 27 x 37 + 26) and of one give
    # the CDF of one block, on the closed-form compensator and on tanh's
    # segment quadrature; `__wrapped__` is the uncached routine, so each
    # call computes
    uncached = _marginal_cdf.__wrapped__
    for model in (reference_model(), tanh_model(2.0)):
        for n, coord in ((1, 0), (2, 0), (2, 1)):
            monkeypatch.setattr(hawkmal.simulate, "_BLOCK_ELEMS", 1 << 40)
            grid, want = uncached(model, 5.0, n, coord)
            elems = 37 * n * 64 ** (n - 1)
            monkeypatch.setattr(hawkmal.simulate, "_BLOCK_ELEMS", elems)
            got_grid, got = uncached(model, 5.0, n, coord)
            assert got_grid.tobytes() == grid.tobytes()
            assert got.tobytes() == want.tobytes(), (n, coord)


def test_marginal_cdf_memory_is_bounded():
    # the n = 2 rule over all 1 025 grid points at once took 4.7 MB; the
    # uncached routine runs it every call
    for coord in (0, 1):
        tracemalloc.start()
        try:
            _marginal_cdf.__wrapped__(reference_model(), 5.0, 2, coord)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, f"coordinate {coord} peaked at {peak / 2**20:.2f} MB"


def test_wrong_model_rejected(hawkes_batch):
    # negative control: halving alpha must be detectably wrong
    wrong = reference_model(alpha=0.25)
    (rep,) = density_vs_empirical(wrong, 1, hawkes_batch)
    assert rep.p_value < 0.01, f"negative control passed: p={rep.p_value:.4g}"


def test_fit_refuses_thin_conditioning(hawkes_batch):
    with pytest.raises(NormalizationError, match="need at least"):
        density_vs_empirical(reference_model(), 25, hawkes_batch)
    with pytest.raises(NormalizationError, match="n <= 2"):
        density_vs_empirical(reference_model(), 5, hawkes_batch)


def test_digest_key_separates_tanh_caps():
    # the cap is part of the model: two caps must not share cached constants
    small, large = tanh_model(0.05), tanh_model(5.0)
    assert small.digest_key() != large.digest_key()
    assert tanh_model(5.0).digest_key() == large.digest_key()
    z_small, _ = normalization_constant(small, 2.0, 1)
    z_large, _ = normalization_constant(large, 2.0, 1)
    from hawkmal.density import _simplex_quadrature_mass

    assert z_large == _simplex_quadrature_mass.__wrapped__(large, 2.0, 1)
    assert z_small == _simplex_quadrature_mass.__wrapped__(small, 2.0, 1)
    assert z_large != pytest.approx(z_small, rel=1e-3)


def test_digest_key_separates_custom_kernel_shapes():
    # equal L1 norms, different shapes: the quadrature cache must not hand
    # the second model the first one's constant
    def custom_exp_model(alpha, beta):
        kernel = KernelSpec.custom(
            mu=lambda t: alpha * np.exp(-beta * np.asarray(t, dtype=float)),
            mu_prime=lambda t: -alpha * beta * np.exp(-beta * np.asarray(t, dtype=float)),
            mu_hat=lambda t: (alpha / beta) * -np.expm1(-beta * np.asarray(t, dtype=float)),
            l1_norm=alpha / beta,
            sup_norm=alpha,
            sup_deriv=alpha * beta,
            nonincreasing=True,
        )
        return HawkesModel(BaselineSpec.constant(1.0), kernel, NonlinearitySpec.linear())

    from hawkmal.density import _simplex_quadrature_mass

    m1, m2 = custom_exp_model(0.5, 1.0), custom_exp_model(1.0, 2.0)
    assert m1.digest_key() != m2.digest_key()
    assert custom_exp_model(1.0, 2.0).digest_key() == m2.digest_key()
    z1, _ = normalization_constant(m1, 5.0, 1)
    z2, _ = normalization_constant(m2, 5.0, 1)
    assert z1 == _simplex_quadrature_mass.__wrapped__(m1, 5.0, 1)
    assert z2 == _simplex_quadrature_mass.__wrapped__(m2, 5.0, 1)
    assert z2 != pytest.approx(z1, rel=1e-2)
    # exponential keys keep their parent-commit form
    exp_key = HawkesModel(
        BaselineSpec.constant(1.0), KernelSpec.exponential(0.5, 1.0), NonlinearitySpec.linear()
    ).digest_key()
    assert exp_key == ("constant", (1.0,), "exponential", 0.5, 1.0, 0.5, "linear", 1.0)


def test_log_kappa_rows_nonlinear_accepts_time_zero():
    # density-check evaluates k_1 on a grid that starts at t = 0; the
    # nonlinear compensator there is the t -> 0+ limit
    model = HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=NonlinearitySpec.saturating_tanh(cap=0.7),
    )
    rows = np.array([[0.0], [1e-9], [0.5]])
    vals = log_kappa_rows(model, 2.0, rows)
    assert np.all(np.isfinite(vals))
    assert vals[0] == pytest.approx(vals[1], rel=1e-7)


@pytest.mark.parametrize("T", [0.5, 5.0])
def test_cumulative_trapezoid_is_scipys_bit_for_bit(T):
    # the marginal CDFs and the truncated directions' antiderivatives keep
    # the bits they had under scipy's cumulative_trapezoid
    from scipy.integrate import cumulative_trapezoid

    grid = np.linspace(0.0, T, 8193)
    rng = np.random.default_rng(8193)
    for y in (np.exp(-grid) * np.sin(7.0 * grid), rng.standard_normal(grid.size), np.ones_like(grid)):
        assert np.array_equal(
            _cumulative_trapezoid(y, grid), cumulative_trapezoid(y, grid, initial=0.0)
        )


@pytest.mark.parametrize("T", [0.5, 5.0])
def test_simpson_is_scipys_bit_for_bit(T):
    # density-check's k_1 mass keeps the bits it had under scipy's simpson
    grid = np.linspace(0.0, T, 8193)
    rng = np.random.default_rng(8193)
    for y in (np.exp(-grid) * np.sin(7.0 * grid), rng.standard_normal(grid.size), np.ones_like(grid)):
        assert _simpson(y, grid) == simpson(y, x=grid)


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 40).flatmap(
        lambda half: st.tuples(
            st.lists(st.floats(1e-3, 10.0), min_size=2 * half, max_size=2 * half),
            st.lists(st.floats(-1e3, 1e3), min_size=2 * half + 1, max_size=2 * half + 1),
        )
    ),
    st.floats(-5.0, 5.0),
)
def test_simpson_is_scipys_on_uneven_odd_grids(steps_and_values, start):
    steps, y = steps_and_values
    x = start + np.cumsum([0.0] + steps)  # strictly increasing at these sizes
    assert _simpson(np.array(y), x) == simpson(np.array(y), x=x)


def _mp_kolmogorov_sf(n, d):
    """P(D_n >= d) by the Durbin matrix with nothing approximated: H set up
    by mpmath at 50 digits from the exact binary value of d, then H^n e_k by
    n products in 200-bit fixed point on Python integers (mpf arithmetic
    would take seconds per case), and 1 - n!/n^n (H^n)_{kk} at 50 digits.
    Good to about 1e-45 absolute, so only p well above that is compared."""
    mp = pytest.importorskip("mpmath")
    bits = 200
    with mp.workdps(50):
        d = mp.mpf(d)
        if d >= 1:
            return 0.0
        k = int(mp.ceil(n * d))
        m = 2 * k - 1
        h = k - n * d
        H = [[mp.mpf(1 if i - j + 1 >= 0 else 0) for j in range(m)] for i in range(m)]
        for i in range(m):
            H[i][0] -= h ** (i + 1)
            H[m - 1][i] -= h ** (m - i)
        if 2 * h - 1 > 0:
            H[m - 1][0] += (2 * h - 1) ** m
        one = mp.mpf(2) ** bits
        fixed = np.array(
            [[int(mp.nint(H[i][j] * one / mp.factorial(max(i - j + 1, 0)))) for j in range(m)]
             for i in range(m)],
            dtype=object,
        )
        v = np.zeros(m, dtype=object)
        v[k - 1] = 1 << bits
        for _ in range(n):
            v = np.array([x >> bits for x in fixed.dot(v)], dtype=object)
        return float(1 - mp.mpf(int(v[k - 1])) / one * mp.factorial(n) / mp.mpf(n) ** n)


# (n, n d^2): both sides of the branch point 4, d >= 0.5 (exact doubling)
# and d near 1 at small n, and scipy's switch from exact to Pelz-Good at 140;
# the oracle's cost grows as n k^2, so the largest n keep to n d^2 <= 6
_KS_CASES = [
    (n, w)
    for n in (1, 2, 3, 4, 7, 20, 140, 141)
    for w in (0.3, 1.0, 2.5, 3.9, 3.99, 4.0, 4.01, 6.0, 15.0)
    if w < n
] + [(n, w) for n in (241, 400) for w in (0.3, 2.5, 3.99, 4.0, 4.01, 6.0)]


@pytest.mark.parametrize("n, w", _KS_CASES)
def test_kolmogorov_sf_matches_50_digits(n, w):
    d = math.sqrt(w / n)
    exact = _mp_kolmogorov_sf(n, d)
    assert exact > 1e-30
    assert _kolmogorov_sf(n, d) == pytest.approx(exact, rel=1e-9, abs=0.0)


@pytest.mark.parametrize("n", [1, 2, 5, 241, 400])
def test_kolmogorov_sf_edges_match_50_digits(n):
    # n d <= 0.5 can only come from d below any sample's D (p = 1), n d <= 1
    # is the one-term closed form 1 - n! (2d - 1/n)^n, d >= 1 gives 0
    for d in (0.25 / n, 0.5 / n, 0.75 / n, 1.0 / n, 1.0, 1.5):
        exact = _mp_kolmogorov_sf(n, d)
        assert _kolmogorov_sf(n, d) == pytest.approx(exact, rel=1e-9, abs=0.0), d
    assert _kolmogorov_sf(n, 0.5 / n) == 1.0
    assert _kolmogorov_sf(n, 1.0) == 0.0


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 1000), st.floats(0.0, 1.0))
def test_kolmogorov_sf_within_scipys_own_error(n, u):
    # scipy's kstwo.sf is exact up to 140 samples and Pelz-Good beyond,
    # which is the 5e-6 allowed here
    d = 0.5 / n + u * (1.0 - 0.5 / n)
    assert abs(_kolmogorov_sf(n, d) - stats.kstwo.sf(d, n)) <= 5e-6


@settings(max_examples=80, deadline=None)
@given(
    st.lists(st.floats(-0.5, 1.5), min_size=1, max_size=300),
    st.floats(0.2, 5.0),
)
def test_ks_statistic_is_kstests_bit_for_bit(samples, shape):
    # the marginal CDFs are tabulated and interpolated, as here
    grid = np.linspace(0.0, 1.0, 1025)
    table = grid ** shape

    def cdf(v):
        return np.interp(v, grid, table)

    D, p = _ks_two_sided(np.array(samples), cdf)
    ref = stats.kstest(np.array(samples), cdf)
    assert D == ref.statistic
    assert abs(p - ref.pvalue) <= 5e-6


def test_ks_at_the_smallest_statistic_gives_one():
    # samples at the midpoints of n equal cells: D = 1/(2n), p = 1
    n = 64
    D, p = _ks_two_sided((np.arange(n) + 0.5) / n, lambda v: v)
    assert D == 0.5 / n and p == 1.0
