"""Model-layer checks: assumption validation, intensity conventions,
kernel identities, tail mass, the model's identity as every cache keys it,
and the bound of every cache."""
import dataclasses
import importlib
import inspect
import math
import pkgutil
from types import SimpleNamespace

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
    # the constructor runs the factories' checks, and so does a replace
    with pytest.raises(AssumptionError, match="must be positive, got 0.0"):
        BaselineSpec("constant", (0.0,))
    with pytest.raises(AssumptionError, match="dips to -0.5 on"):
        BaselineSpec("affine", (1.0, -0.5, 3.0))
    with pytest.raises(AssumptionError, match="lower bound -0.5"):
        BaselineSpec("sinusoidal", (1.0, 1.5, 2.0))
    with pytest.raises(AssumptionError, match="period > 0"):
        BaselineSpec("sinusoidal", (1.0, 0.5, 0.0))
    with pytest.raises(AssumptionError, match="dips to -0.5 on"):
        dataclasses.replace(BaselineSpec.affine(1.0, -0.1, 3.0), params=(1.0, -0.5, 3.0))


def test_unknown_family_refused_at_construction():
    # a spec is its family and parameters, so a family with no built-in
    # formulas, or parameters it does not take, is no spec
    with pytest.raises(AssumptionError, match="unknown nonlinearity family 'shifted'"):
        NonlinearitySpec("shifted")
    with pytest.raises(AssumptionError, match="unknown baseline family 'quadratic'"):
        BaselineSpec("quadratic", (1.0, 0.0, 1.0))
    with pytest.raises(AssumptionError, match="unknown kernel family 'power'"):
        KernelSpec("power", (0.5, 1.0))
    with pytest.raises(AssumptionError, match="takes 1 parameters, got 0"):
        NonlinearitySpec("saturating_tanh")
    with pytest.raises(AssumptionError, match="cap must be positive"):
        NonlinearitySpec("saturating_tanh", (0.0,))
    with pytest.raises(AssumptionError, match="takes 3 parameters, got 1"):
        BaselineSpec("affine", (1.0,))
    with pytest.raises(AssumptionError, match="no functions"):
        KernelSpec("exponential", (0.5, 1.0), True, (np.exp, np.exp, np.exp))
    with pytest.raises(AssumptionError, match=r"\(mu, mu_prime, mu_hat\)"):
        KernelSpec("custom", (0.5, 0.5, 0.5))
    # validate_assumptions still checks gamma(0) = 0, on any object shaped
    # as a model
    shifted = SimpleNamespace(value=lambda x: np.asarray(x, dtype=float) + 0.1, lipschitz=1.0)
    stand_in = SimpleNamespace(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=shifted,
    )
    report = validate_assumptions(stand_in)
    assert not report.gamma_zero_at_zero and not report.all_pass()


def test_non_finite_parameters_refused_at_construction():
    # each of these once built a model, whose thinning then ran to its
    # round cap and raised InternalError, a fault class, for a bad input
    nan, inf = math.nan, math.inf
    custom = (np.exp, np.exp, np.exp)
    for build in (
        lambda: BaselineSpec.affine(1.0, nan, 5.0),
        lambda: BaselineSpec.sinusoidal(1.0, 0.5, nan),
        lambda: BaselineSpec.constant(inf),
        lambda: KernelSpec.exponential(0.5, inf),
        lambda: KernelSpec.custom(*custom, l1_norm=nan, sup_norm=0.5, sup_deriv=0.5),
        lambda: KernelSpec.custom(*custom, l1_norm=0.5, sup_norm=inf, sup_deriv=0.5),
        lambda: KernelSpec.custom(*custom, l1_norm=0.5, sup_norm=0.5, sup_deriv=nan),
        lambda: NonlinearitySpec.saturating_tanh(inf),
    ):
        with pytest.raises(AssumptionError, match="must be finite"):
            build()


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
        "hawkmal.cli._file_settings",
        "hawkmal.density.count_distribution",
        "hawkmal.density._simplex_quadrature_mass",
        "hawkmal.density._marginal_cdf",
        "hawkmal.experiments.volterra_mean_intensity",
        "hawkmal.simulate.simulate_batch",
    } <= set(caches)


def test_the_block_budget_is_bound_in_simulate_alone():
    # every blocked pass reads the one budget in `hawkmal.simulate` at its
    # call (through `_path_blocks`, `_runs` or `_slices`), so a test that
    # patches it reaches them all: a copy imported into another module
    # would keep its value under the patch
    import hawkmal

    names = [info.name for info in pkgutil.iter_modules(hawkmal.__path__)]
    assert {"cli", "density", "greeks", "sde", "simulate"} <= set(names)
    holders = sorted(
        name for name in names
        if hasattr(importlib.import_module(f"hawkmal.{name}"), "_BLOCK_ELEMS")
    )
    assert holders == ["simulate"]


# (reference, spec, field, value): each field of each spec changed alone, on
# an exponential and on a custom kernel; `_REFUSED_ALONE` lists the changes
# the constructor refuses, as a family's parameters fit no other family
_EXPONENTIAL = HawkesModel(
    BaselineSpec.affine(1.0, -0.1, 5.0),
    KernelSpec.exponential(0.5, 1.0),
    NonlinearitySpec.saturating_tanh(2.0),
)
_K = _EXPONENTIAL.kernel
_CUSTOM = dataclasses.replace(
    _EXPONENTIAL,
    kernel=KernelSpec.custom(_K.mu, _K.mu_prime, _K.mu_hat, 0.5, 0.5, 0.5, nonincreasing=True),
)
_LONE_CHANGES = (
    (_EXPONENTIAL, "baseline", "family", "sinusoidal"),
    (_EXPONENTIAL, "baseline", "params", (1.0, -0.1, 4.0)),
    (_EXPONENTIAL, "kernel", "family", "custom"),
    (_EXPONENTIAL, "kernel", "params", (0.5, 2.0)),
    (_EXPONENTIAL, "kernel", "nonincreasing", False),
    (_EXPONENTIAL, "kernel", "functions", _CUSTOM.kernel.functions),
    (_CUSTOM, "kernel", "family", "exponential"),
    (_CUSTOM, "kernel", "params", (0.5, 0.5, 0.6)),
    (_CUSTOM, "kernel", "nonincreasing", False),
    # the same formula in another object is another kernel
    (_CUSTOM, "kernel", "functions", (_K.mu, _K.mu_prime, lambda t: _K.mu_hat(t))),
    (_EXPONENTIAL, "nonlinearity", "family", "linear"),
    (_EXPONENTIAL, "nonlinearity", "params", (3.0,)),
)
_REFUSED_ALONE = {
    ("exponential", "kernel", "family"),
    ("exponential", "kernel", "functions"),
    ("custom", "kernel", "family"),
    ("exponential", "nonlinearity", "family"),
}


def test_each_spec_field_alone_keys_its_own_cache_entry():
    from hawkmal.density import _simplex_quadrature_mass as cached

    walked = {(spec, name) for _, spec, name, _ in _LONE_CHANGES}
    for spec in ("baseline", "kernel", "nonlinearity"):
        assert {(spec, f.name) for f in dataclasses.fields(getattr(_EXPONENTIAL, spec))} <= walked
    cached.cache_clear()
    for reference in (_EXPONENTIAL, _CUSTOM):
        cached(reference, 2.0, 1)
    refused = set()
    for reference, spec, name, value in _LONE_CHANGES:
        try:
            changed = dataclasses.replace(getattr(reference, spec), **{name: value})
        except AssumptionError:
            refused.add((reference.kernel.family, spec, name))
            continue
        variant = dataclasses.replace(reference, **{spec: changed})
        assert variant != reference, (spec, name)
        misses = cached.cache_info().misses
        cached(variant, 2.0, 1)
        assert cached.cache_info().misses == misses + 1, (spec, name)
    assert refused == _REFUSED_ALONE
    hits = cached.cache_info().hits
    for reference in (_EXPONENTIAL, _CUSTOM):
        cached(reference, 2.0, 1)
    assert cached.cache_info().hits == hits + 2


def test_a_custom_kernel_promise_is_in_its_report_digest():
    # two custom kernels that differ only in `nonincreasing` get their own
    # report digests (the CSV `parameter_digest`); the samples of mu and
    # mu_hat come first, and the promise ends the key
    from hawkmal.experiments import ibp_check
    from hawkmal.simulate import PathBatch

    unpromised = dataclasses.replace(
        _CUSTOM, kernel=dataclasses.replace(_CUSTOM.kernel, nonincreasing=False)
    )
    assert _CUSTOM.digest_key()[:-1] == unpromised.digest_key()[:-1]
    assert (_CUSTOM.digest_key()[-1], unpromised.digest_key()[-1]) == (True, False)
    batch = PathBatch(5.0, 0, 0, np.array([0, 2, 2, 3]), np.array([0.5, 2.0, 4.0]))
    assert ibp_check(_CUSTOM, batch).digest != ibp_check(unpromised, batch).digest


def test_a_kernel_not_promised_nonincreasing_reads_no_cached_batch():
    # `nonincreasing` is outside the exponential kernel's report digest; the
    # simulation refuses the kernel without the promise, and so must every
    # cached call on it
    from hawkmal.density import count_distribution
    from hawkmal.simulate import simulate_batch

    reference = reference_model()
    variant = HawkesModel(
        reference.baseline,
        dataclasses.replace(reference.kernel, nonincreasing=False),
        reference.nonlinearity,
    )
    assert variant.digest_key() == reference.digest_key()
    with pytest.raises(AssumptionError, match="nonincreasing"):
        simulate_batch.__wrapped__(variant, 5.0, 1, 10)
    simulate_batch(reference, 5.0, 1, 10)
    with pytest.raises(AssumptionError, match="nonincreasing"):
        simulate_batch(variant, 5.0, 1, 10)
    count_distribution(reference, 0.1)
    with pytest.raises(AssumptionError, match="nonincreasing"):
        count_distribution(variant, 0.1)


@settings(max_examples=100, deadline=None)
@given(
    family=st.sampled_from(["constant", "affine", "sinusoidal"]),
    lam0=st.floats(2.5, 3.0),
    amp=st.floats(-0.4, 0.4),
    period=st.floats(0.5, 5.0),
    alpha=st.floats(0.0, 0.45),
    beta=st.floats(0.5, 2.0),
    cap=st.one_of(st.none(), st.floats(0.1, 5.0)),
)
def test_equal_parameters_built_apart_give_one_model(family, lam0, amp, period, alpha, beta, cap):
    def build():
        baseline = {
            "constant": lambda: BaselineSpec.constant(lam0),
            "affine": lambda: BaselineSpec.affine(lam0, amp, period),
            "sinusoidal": lambda: BaselineSpec.sinusoidal(lam0, amp, period),
        }[family]()
        gamma = NonlinearitySpec.linear() if cap is None else NonlinearitySpec.saturating_tanh(cap)
        return HawkesModel(baseline, KernelSpec.exponential(alpha, beta), gamma)

    first, second = build(), build()
    assert first is not second
    assert first == second and hash(first) == hash(second)


@pytest.mark.parametrize(
    "baseline, gamma, key",
    [
        ("constant", None, ("constant", (1.0,), "exponential", 0.5, 1.0, 0.5, "linear", 1.0)),
        ("constant", 2.0, ("constant", (1.0,), "exponential", 0.5, 1.0, 0.5, "saturating_tanh", 1.0, 2.0)),
        ("sinusoidal", None, ("sinusoidal", (1.0, 0.5, 2.0), "exponential", 0.5, 1.0, 0.5, "linear", 1.0)),
        (
            "sinusoidal",
            2.0,
            ("sinusoidal", (1.0, 0.5, 2.0), "exponential", 0.5, 1.0, 0.5, "saturating_tanh", 1.0, 2.0),
        ),
        ("affine", None, ("affine", (1.0, -0.1, 5.0), "exponential", 0.5, 1.0, 0.5, "linear", 1.0)),
        (
            "affine",
            2.0,
            ("affine", (1.0, -0.1, 5.0), "exponential", 0.5, 1.0, 0.5, "saturating_tanh", 1.0, 2.0),
        ),
    ],
)
def test_report_digest_keys_of_the_built_in_families(baseline, gamma, key):
    # the CSV `parameter_digest` column hashes these tuples: they must not move
    spec = {
        "constant": BaselineSpec.constant(1.0),
        "sinusoidal": BaselineSpec.sinusoidal(1.0, 0.5, 2.0),
        "affine": BaselineSpec.affine(1.0, -0.1, 5.0),
    }[baseline]
    nonlinearity = NonlinearitySpec.linear() if gamma is None else NonlinearitySpec.saturating_tanh(gamma)
    model = HawkesModel(spec, KernelSpec.exponential(0.5, 1.0), nonlinearity)
    assert model.digest_key() == key
