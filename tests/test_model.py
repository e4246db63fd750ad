"""Model-layer checks: assumption validation, intensity conventions,
kernel identities, tail mass, and the bound of every cache."""
import importlib
import inspect
import math
import pkgutil

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkmal.model import (
    AssumptionError,
    BaselineSpec,
    HawkesModel,
    KernelSpec,
    NonlinearitySpec,
    intensity,
    kernel_tail_mass,
    strict_lags,
    validate_assumptions,
)


def reference_model():
    return HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )


def test_reference_model_margin():
    model = reference_model()
    report = validate_assumptions(model)
    assert report.all_pass()
    assert report.margin == pytest.approx(0.5)


def test_unstable_model_rejected():
    # alpha/beta = 2 >= 1 breaks the stability clause
    with pytest.raises(AssumptionError, match="stable=False"):
        HawkesModel(
            baseline=BaselineSpec.constant(1.0),
            kernel=KernelSpec.exponential(alpha=2.0, beta=1.0),
            nonlinearity=NonlinearitySpec.linear(),
        )


def test_nonpositive_baseline_rejected():
    with pytest.raises(AssumptionError):
        BaselineSpec.constant(0.0)
    with pytest.raises(AssumptionError):
        BaselineSpec.affine(lam0=1.0, slope=-0.5, horizon=3.0)
    with pytest.raises(AssumptionError):
        BaselineSpec.sinusoidal(lam0=1.0, amp=1.5, period=2.0)


def test_gamma_zero_at_zero_enforced():
    shifted = NonlinearitySpec(
        family="shifted",
        value=lambda x: np.asarray(x, dtype=float) + 0.1,
        derivative=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        lipschitz=1.0,
    )
    with pytest.raises(AssumptionError, match="gamma_zero=False"):
        HawkesModel(
            baseline=BaselineSpec.constant(1.0),
            kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
            nonlinearity=shifted,
        )


def test_exponential_kernel_identities():
    k = KernelSpec.exponential(alpha=0.5, beta=2.0)
    t = np.linspace(0.0, 10.0, 101)
    np.testing.assert_allclose(k.mu(t), 0.5 * np.exp(-2.0 * t), rtol=1e-12)
    np.testing.assert_allclose(k.mu_prime(t), -2.0 * k.mu(t), rtol=1e-12)
    np.testing.assert_allclose(
        k.mu_hat(t), 0.25 * (1.0 - np.exp(-2.0 * t)), rtol=1e-12, atol=1e-15
    )
    assert k.l1_norm == pytest.approx(0.25)
    assert k.sup_norm == pytest.approx(0.5)
    assert k.sup_deriv == pytest.approx(1.0)


def test_intensity_left_limit_convention():
    model = reference_model()
    jumps = np.array([1.0])
    # strictly after the jump: baseline + mu(s - 1)
    assert intensity(model, jumps, 2.0) == pytest.approx(
        1.0 + 0.5 * math.exp(-1.0), rel=1e-12
    )
    # exactly at the jump: the jump itself does not count (left limit)
    assert intensity(model, jumps, 1.0) == pytest.approx(1.0)
    # before the jump: baseline only
    assert intensity(model, jumps, 0.5) == pytest.approx(1.0)


def test_intensity_right_continuity():
    model = reference_model()
    jumps = np.array([1.0, 2.5])
    eps = 1e-9
    at = intensity(model, jumps, 2.5 + eps)
    target = intensity(model, jumps, 2.5) + 0.5  # mu(0) = alpha = 0.5
    assert at == pytest.approx(target, abs=1e-6)


def test_intensity_vectorized_matches_scalar():
    model = HawkesModel(
        baseline=BaselineSpec.sinusoidal(lam0=2.0, amp=0.5, period=3.0),
        kernel=KernelSpec.exponential(alpha=0.4, beta=1.5),
        nonlinearity=NonlinearitySpec.saturating_tanh(cap=2.0),
    )
    jumps = np.array([0.3, 0.9, 2.2])
    grid = np.linspace(0.0, 5.0, 17)
    vec = intensity(model, jumps, grid)
    scal = np.array([intensity(model, jumps, float(s)) for s in grid])
    np.testing.assert_allclose(vec, scal, rtol=1e-14)


def test_intensity_requires_sorted_times():
    model = reference_model()
    with pytest.raises(ValueError, match="sorted"):
        intensity(model, np.array([2.0, 1.0]), 3.0)


def test_saturating_tanh_properties():
    g = NonlinearitySpec.saturating_tanh(cap=1.5)
    assert float(g.value(np.float64(0.0))) == 0.0
    # saturates toward the cap without crossing it
    assert float(g.value(np.float64(5.0))) < 1.5
    assert float(g.value(np.float64(100.0))) <= 1.5
    # derivative at 0 is 1, decreasing in |x|
    assert float(g.derivative(np.float64(0.0))) == pytest.approx(1.0)
    assert float(g.derivative(np.float64(3.0))) < 1.0
    # finite-difference check of gamma'
    x = np.linspace(-4.0, 4.0, 33)
    h = 1e-6
    fd = (g.value(x + h) - g.value(x - h)) / (2 * h)
    np.testing.assert_allclose(g.derivative(x), fd, rtol=1e-8, atol=1e-8)


def test_kernel_tail_mass():
    model = reference_model()
    assert kernel_tail_mass(model, 0.0) == pytest.approx(0.5)
    assert kernel_tail_mass(model, 1.0) == pytest.approx(0.5 * math.exp(-1.0))
    assert kernel_tail_mass(model, 50.0) == pytest.approx(0.0, abs=1e-20)
    with pytest.raises(ValueError):
        kernel_tail_mass(model, -0.1)


def test_baseline_sup_bounds():
    horizon = 5.0
    b1 = BaselineSpec.constant(2.0)
    assert b1.sup_upper(horizon) == pytest.approx(2.0)

    b2 = BaselineSpec.affine(lam0=1.0, slope=0.3, horizon=horizon)
    assert b2.sup_upper(horizon) == pytest.approx(1.0 + 0.3 * horizon)

    b3 = BaselineSpec.sinusoidal(lam0=2.0, amp=0.7, period=2.0)
    assert b3.sup_upper(horizon) == pytest.approx(2.7)
    # sup over a window that straddles a crest vs one that does not
    sup_mid = b3.sup_on(np.array([0.4]), np.array([0.6]))[0]
    assert sup_mid == pytest.approx(2.7)  # crest at t = 0.5
    sup_off = b3.sup_on(np.array([1.2]), np.array([1.4]))[0]
    assert sup_off < 2.7
    grid = np.linspace(1.2, 1.4, 200)
    assert sup_off >= float(np.max(b3.value(grid))) - 1e-12


@settings(max_examples=150, deadline=None)
@given(
    family=st.sampled_from(["constant", "affine", "sinusoidal"]),
    lam0=st.floats(0.5, 3.0),
    shape=st.floats(-0.95, 0.95),
    period=st.floats(0.1, 6.0),
    a=st.floats(0.0, 10.0),
    width=st.floats(0.0, 10.0),
)
def test_baseline_sup_on_dominates_a_dense_grid(family, lam0, shape, period, a, width):
    # sup_on is the thinning envelope and sup_upper's value, with no grid
    # fallback behind it: it must bound every value on [a, b]
    horizon = 20.0
    if family == "constant":
        baseline = BaselineSpec.constant(lam0)
    elif family == "affine":
        baseline = BaselineSpec.affine(lam0=lam0, slope=shape * lam0 / horizon, horizon=horizon)
    else:
        baseline = BaselineSpec.sinusoidal(lam0=lam0, amp=shape * lam0, period=period)
    b = a + width
    sup = float(baseline.sup_on(np.array([a]), np.array([b]))[0])
    assert sup >= float(np.max(baseline.value(np.linspace(a, b, 10_001)))) - 1e-12
    assert baseline.sup_upper(b) >= float(np.max(baseline.value(np.linspace(0.0, b, 10_001)))) - 1e-12


def test_custom_kernel_roundtrip():
    # triangular bump: mu(t) = max(0, 1 - t) * 0.6
    k = KernelSpec.custom(
        mu=lambda t: 0.6 * np.clip(1.0 - np.asarray(t, dtype=float), 0.0, None),
        mu_prime=lambda t: np.where(np.asarray(t, dtype=float) < 1.0, -0.6, 0.0),
        mu_hat=lambda t: 0.6
        * (np.minimum(np.asarray(t, dtype=float), 1.0)
           - 0.5 * np.minimum(np.asarray(t, dtype=float), 1.0) ** 2),
        l1_norm=0.3,
        sup_norm=0.6,
        sup_deriv=0.6,
        nonincreasing=True,
    )
    model = HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=k,
        nonlinearity=NonlinearitySpec.linear(),
    )
    assert validate_assumptions(model).margin == pytest.approx(0.7)
    assert kernel_tail_mass(model, 0.5) == pytest.approx(0.3 - 0.6 * (0.5 - 0.125))


def test_validation_is_fast():
    import time

    model = reference_model()
    start = time.perf_counter()
    for _ in range(100):
        validate_assumptions(model)
    elapsed = (time.perf_counter() - start) / 100
    assert elapsed < 1e-3  # spec: validation under a millisecond


@settings(max_examples=200, deadline=None)
@given(
    times=st.lists(st.floats(0.0, 5.0), max_size=8),
    points=st.lists(st.floats(0.0, 5.0), min_size=1, max_size=6),
    n_ties=st.integers(0, 3),
)
def test_strict_lags_matches_double_loop(times, points, n_ties):
    # some evaluation points equal a jump time: t_i == s must not count
    t = np.sort(np.asarray(times, dtype=float))
    s = np.asarray(points + times[:n_ties], dtype=float)
    mu = reference_model().kernel.mu
    lags = strict_lags(mu, t, s)
    assert lags.shape == (s.size, t.size)
    brute = np.zeros((s.size, t.size))
    for k, sk in enumerate(s):
        for i, ti in enumerate(t):
            if ti < sk:
                brute[k, i] = float(mu(np.float64(sk - ti)))
    np.testing.assert_array_equal(lags == 0.0, brute == 0.0)
    np.testing.assert_allclose(lags, brute, rtol=1e-12, atol=0.0)
    np.testing.assert_allclose(
        reference_model().excitation(t, s), brute.sum(axis=1), rtol=1e-12, atol=0.0
    )


def test_every_cache_is_bounded():
    # every cache in the package, the CLI's module included, holds a fixed
    # number of entries: an unbounded one would grow with each new key.  A
    # cache of a function of no parameters holds one entry at most.
    import hawkmal

    names = [info.name for info in pkgutil.iter_modules(hawkmal.__path__)]
    assert "cli" in names
    caches = {}
    for name in names:
        module = importlib.import_module(f"hawkmal.{name}")
        for owner in [module] + [c for _, c in inspect.getmembers(module, inspect.isclass)]:
            for obj in vars(owner).values():
                if hasattr(obj, "cache_info") and inspect.signature(obj.__wrapped__).parameters:
                    caches[f"{obj.__module__}.{obj.__qualname__}"] = obj.cache_info().maxsize
    unbounded = sorted(name for name, size in caches.items() if size is None)
    assert not unbounded, f"unbounded caches: {unbounded}"
    assert {
        "hawkmal.density.count_distribution",
        "hawkmal.density._simplex_quadrature_mass",
        "hawkmal.density._marginal_cdf",
        "hawkmal.experiments.volterra_mean_intensity",
        "hawkmal.simulate.simulate_batch",
    } <= set(caches)
