"""Delta estimators: closed-form terminal prices, the integration-by-parts
weight against finite-difference and pathwise oracles, and the estimator
plumbing (deterministic reductions, exclusion diagnostics)."""
from __future__ import annotations

import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest

from hawkmal.greeks import (
    AssetModel,
    GreekEstimate,
    Payoff,
    UnsupportedModelError,
    _one_jump_boundary_term,
    _zero_jump_term,
    fd_delta,
    malliavin_delta,
    mc_estimate,
    pathwise_delta,
    terminal_price,
    terminal_price_batch,
)
from hawkmal.malliavin import CameronMartinFunction
from hawkmal.model import (
    AssumptionError,
    BaselineSpec,
    HawkesModel,
    KernelSpec,
    NonlinearitySpec,
)
from hawkmal.simulate import HawkesPath, PathBatch, compensator, simulate_batch


@pytest.fixture(scope="module")
def model():
    return HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )


@pytest.fixture(scope="module")
def asset(model):
    return AssetModel(x0=100.0, r=0.05, sigma=0.3, hawkes=model)


@pytest.fixture(scope="module")
def batch(model):
    return simulate_batch(model, T=5.0, master_seed=2211, n_paths=20_000, n_workers=4)


@pytest.fixture(scope="module")
def big_batch(model):
    return simulate_batch(model, T=5.0, master_seed=515, n_paths=100_000, n_workers=4)


def smooth_payoff(x0):
    k = x0
    return Payoff.smooth(
        lambda x: np.tanh((np.asarray(x, dtype=float) - k) / k),
        lambda x: (1.0 - np.tanh((np.asarray(x, dtype=float) - k) / k) ** 2) / k,
        label="tanh",
    )


# ---- terminal prices ----

def test_terminal_price_no_jumps(model):
    asset = AssetModel(x0=100.0, r=0.05, sigma=0.3, hawkes=model)
    path = HawkesPath(np.array([]), horizon=1.0)
    s, ds = terminal_price(asset, path)
    assert s == pytest.approx(100.0 * math.exp(-0.25), rel=1e-14)
    assert ds == pytest.approx(math.exp(-0.25), rel=1e-14)


def test_terminal_price_derivative_is_price_over_x0(asset, batch):
    prices, dprices = terminal_price_batch(asset, batch)
    assert np.array_equal(dprices * asset.x0, prices)
    assert np.all(prices > 0.0)


def test_terminal_price_sigma_zero_ignores_jumps(model, batch):
    asset0 = AssetModel(x0=100.0, r=0.05, sigma=0.0, hawkes=model)
    prices, _ = terminal_price_batch(asset0, batch)
    assert prices == pytest.approx(100.0 * math.exp(0.25), rel=1e-14)


def test_terminal_price_scalar_matches_batch(asset, batch):
    for i in (0, 7, 19_999):
        s, ds = terminal_price(asset, batch.path(i))
        prices, dprices = terminal_price_batch(asset, batch)
        assert s == pytest.approx(prices[i], rel=1e-12)
        assert ds == pytest.approx(dprices[i], rel=1e-12)


def tanh_asset(cap=2.0):
    bent = HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=NonlinearitySpec.saturating_tanh(cap=cap),
    )
    return AssetModel(x0=100.0, r=0.05, sigma=0.3, hawkes=bent)


def test_nonlinear_model_refused(batch):
    # only the Malliavin weight is derived for linear gamma alone
    with pytest.raises(UnsupportedModelError, match="Malliavin delta weight .* linear"):
        malliavin_delta(tanh_asset(), Payoff.digital(100.0), batch)


def test_nonlinear_model_prices_and_crn_deltas():
    # S_T = x0 exp(rT - sigma Lambda_T) (1 + sigma)^{N_T} holds for any
    # gamma; on one tanh batch the CRN difference and the pathwise delta
    # of a smooth payoff then agree to the difference's O(bump^2) error
    asset = tanh_asset()
    tanh_batch = simulate_batch(asset.hawkes, T=5.0, master_seed=4242, n_paths=4000)
    prices, dprices = terminal_price_batch(asset, tanh_batch)
    assert np.array_equal(dprices * asset.x0, prices)
    for i in (0, 1, 17, 3999):
        path = tanh_batch.path(i)
        lam = compensator(asset.hawkes, path)
        want = asset.x0 * math.exp(asset.r * 5.0 - asset.sigma * lam) * (1.0 + asset.sigma) ** path.count
        s, ds = terminal_price(asset, path)
        assert s == pytest.approx(want, rel=1e-14)
        assert ds == pytest.approx(want / asset.x0, rel=1e-14)
        assert prices[i] == pytest.approx(want, rel=1e-12)
    payoff = smooth_payoff(asset.x0)
    fd = fd_delta(asset, payoff, tanh_batch)
    pw = pathwise_delta(asset, payoff, tanh_batch)
    assert fd.std_error > 0.0
    assert fd.mean == pytest.approx(pw.mean, rel=1e-8)


def test_asset_validation(model):
    with pytest.raises(ValueError, match="x0"):
        AssetModel(x0=0.0, r=0.05, sigma=0.3, hawkes=model)
    with pytest.raises(ValueError, match="sigma"):
        AssetModel(x0=1.0, r=0.05, sigma=-1.0, hawkes=model)


# ---- payoffs ----

def test_digital_payoff_values():
    p = Payoff.digital(2.0)
    assert np.array_equal(p.value([1.0, 2.0, 3.0]), [0.0, 1.0, 1.0])
    assert not p.differentiable
    assert p.derivative_at(1.0) == 0.0
    assert p.derivative_at(2.0) is None


def test_capped_linear_payoff():
    p = Payoff.capped_linear(1.0, 3.0)
    assert np.array_equal(p.value([0.0, 1.5, 2.5, 4.0]), [0.0, 0.5, 1.5, 2.0])
    assert np.array_equal(p.derivative([0.5, 2.0, 3.5]), [0.0, 1.0, 0.0])
    assert p.derivative_at(2.0) == 1.0
    assert p.derivative_at(3.0) is None
    with pytest.raises(ValueError, match="lower"):
        Payoff.capped_linear(3.0, 1.0)


# ---- mc_estimate ----

def test_mc_estimate_constant_stream():
    mean, se, ess = mc_estimate(np.full(257, 4.25))
    assert mean == 4.25
    assert se == 0.0
    assert ess == pytest.approx(257.0, rel=1e-12)


def test_mc_estimate_alternating_stream():
    n = 1000
    values = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
    mean, se, ess = mc_estimate(values)
    assert mean == 0.0
    assert se == pytest.approx(math.sqrt(1.0 / (n - 1)), rel=1e-13)
    assert ess == pytest.approx(float(n), rel=1e-13)


def test_mc_estimate_validation():
    with pytest.raises(ValueError, match="n >= 2"):
        mc_estimate([1.0])
    with pytest.raises(ValueError, match="one-dimensional"):
        mc_estimate(np.ones((4, 2)))


def _plain_mc_estimate(values):
    # the three reductions with no refusal: the reference for every sample
    # `mc_estimate` takes
    n = values.size
    mean = float(np.sum(values)) / n
    var = float(np.sum((values - mean) ** 2)) / (n - 1)
    sq = float(np.sum(values**2))
    ess = float(np.sum(np.abs(values))) ** 2 / sq if sq > 0.0 else float(n)
    return mean, math.sqrt(var / n), ess


def test_mc_estimate_refuses_a_sample_whose_squares_overflow():
    # sum|v| above sqrt(DBL_MAX)/2 is refused before any square is formed;
    # every other sample, NaN ones too, keeps the bits of the plain reductions
    bound = math.sqrt(sys.float_info.max) / 2.0
    rng = np.random.default_rng(45)
    kept = [
        rng.standard_normal(1001),
        rng.standard_normal(64) * 1e150,
        np.array([bound / 2.0, -bound / 2.0]),
        np.array([bound, 0.0, -0.0]),
        np.array([1.0, np.nan, 2.0]),
    ]
    refused = [
        np.array([bound, 1e140]),
        np.array([1e300, 1.0]),
        np.array([1e308, 1e308]),
        np.array([np.inf, 1.0]),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for values in kept:
            assert np.array(mc_estimate(values)).tobytes() == np.array(
                _plain_mc_estimate(values)
            ).tobytes()
        for values in refused:
            with pytest.raises(AssumptionError, match="its squares overflow a double"):
                mc_estimate(values)


@pytest.mark.parametrize(
    "x0, r", [(100.0, 1e3), (1e300, 5.0)], ids=["exp-overflows", "price-overflows"]
)
def test_a_price_past_the_largest_double_is_refused(model, x0, r):
    # exp(r T) past the largest double is refused before exp is taken, and a
    # price x0 exp(...) that rounds to inf once formed: in the batch prices,
    # in both analytic terms and so in every estimator, with no numpy warning
    asset = AssetModel(x0=x0, r=r, sigma=0.3, hawkes=model)
    batch = simulate_batch(model, T=5.0, master_seed=3, n_paths=60)
    digital, smooth = Payoff.digital(100.0), smooth_payoff(100.0)
    calls = [
        lambda: terminal_price_batch(asset, batch),
        lambda: _zero_jump_term(asset, smooth, 5.0),
        lambda: _one_jump_boundary_term(asset, digital, 5.0),
        lambda: malliavin_delta(asset, digital, batch),
        lambda: fd_delta(asset, digital, batch),
        lambda: pathwise_delta(asset, smooth, batch),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(AssumptionError, match="overflows a double"):
                call()


# ---- finite differences ----

def test_fd_exact_for_linear_payoff(asset, batch):
    linear = Payoff.smooth(
        lambda x: np.asarray(x, dtype=float),
        lambda x: np.ones_like(np.asarray(x, dtype=float)),
        label="identity",
    )
    est = fd_delta(asset, linear, batch)
    prices, _ = terminal_price_batch(asset, batch)
    expected = np.where(batch.counts() > 0, prices, 0.0) / asset.x0
    mean, _, _ = mc_estimate(expected)
    assert est.mean == pytest.approx(mean, rel=1e-9)


def test_fd_bump_halving_below_noise(asset, batch):
    payoff = smooth_payoff(asset.x0)
    a = fd_delta(asset, payoff, batch, bump=1e-4 * asset.x0)
    b = fd_delta(asset, payoff, batch, bump=5e-5 * asset.x0)
    assert abs(a.mean - b.mean) < a.std_error
    with pytest.raises(ValueError, match="bump"):
        fd_delta(asset, payoff, batch, bump=0.0)


def test_fd_bump_must_stay_below_x0(asset, batch):
    # x0 - bump is the down-bumped spot: at bump >= x0 it is no price
    payoff = Payoff.digital(asset.x0)
    for bump in (asset.x0, 1.5 * asset.x0):
        with pytest.raises(ValueError, match="below x0"):
            fd_delta(asset, payoff, batch, bump=bump)


# ---- estimator agreement ----

def test_smooth_payoff_triangle(asset, batch):
    payoff = smooth_payoff(asset.x0)
    pw = pathwise_delta(asset, payoff, batch)
    fd = fd_delta(asset, payoff, batch)
    mal = malliavin_delta(asset, payoff, batch)
    assert abs(fd.mean - pw.mean) <= 3.0 * math.hypot(fd.std_error, pw.std_error)
    assert abs(mal.mean - pw.mean) <= 3.0 * math.hypot(mal.std_error, pw.std_error)
    assert mal.excluded == 0
    assert 0.0 < mal.effective_sample_size <= mal.n_paths
    assert mal.min_abs_denominator > 0.0


def test_cosine_direction_agrees(asset, batch):
    payoff = smooth_payoff(asset.x0)
    pw = pathwise_delta(asset, payoff, batch)
    mal = malliavin_delta(
        asset, payoff, batch, m=CameronMartinFunction.cosine(batch.horizon)
    )
    assert abs(mal.mean - pw.mean) <= 3.0 * math.hypot(mal.std_error, pw.std_error)


def test_constant_payoff_zero_delta(asset, batch):
    est = malliavin_delta(asset, Payoff.constant(1.0), batch)
    # E[W 1_{N>0}] = d/dx0 P(N_T > 0) = 0
    assert abs(est.mean) <= 3.0 * est.std_error
    assert est.std_error > 0.0


def test_digital_vs_crn_fd(asset, batch, big_batch):
    payoff = Payoff.digital(asset.x0)
    mal = malliavin_delta(asset, payoff, batch)
    fd = fd_delta(asset, payoff, big_batch, bump=0.01 * asset.x0)
    assert abs(mal.mean - fd.mean) <= 3.0 * math.hypot(mal.std_error, fd.std_error)
    assert mal.mean > 0.0  # more initial capital pushes S_T across the strike


def test_zero_jump_term_values(asset, batch):
    T = batch.horizon
    s0 = asset.x0 * math.exp(asset.r * T - asset.sigma * T)  # unit baseline
    payoff = smooth_payoff(asset.x0)
    est = pathwise_delta(asset, payoff, batch)
    expected = (
        math.exp(-T)
        * float(payoff.derivative(s0))
        * s0
        / asset.x0
    )
    assert est.zero_jump_term == pytest.approx(expected, rel=1e-12)
    digital = malliavin_delta(asset, Payoff.digital(asset.x0), batch)
    assert digital.zero_jump_term == 0.0  # flat away from the strike
    at_kink = malliavin_delta(asset, Payoff.digital(s0), batch)
    assert at_kink.zero_jump_term is None


def test_one_jump_stratum_exactness(model, asset):
    """On {N_T = 1} everything reduces to one-dimensional integrals: the
    path density is exp(-compensator), so the weighted estimator plus its
    endpoint restitution must reproduce the pathwise value exactly —
    quadrature against quadrature, no sampling noise."""
    from scipy.integrate import quad

    from hawkmal.greeks import _one_jump_boundary_term
    from hawkmal.malliavin import divergence_m

    T = 5.0
    payoff = smooth_payoff(asset.x0)
    m = CameronMartinFunction.default(T)
    mu = model.kernel.mu
    mu_prime = model.kernel.mu_prime
    mu_hat = model.kernel.mu_hat

    def lam(t):  # compensator of the one-jump path
        return T + mu_hat(T - t)

    def price(t):
        return asset.x0 * math.exp(asset.r * T - asset.sigma * lam(t)) * 1.3

    def weight(t):
        delta = divergence_m(model, HawkesPath(np.array([t]), T), m)
        mh = float(m.m_hat(np.array([t]))[0])
        mm = float(m.m(np.array([t]))[0])
        d = mu(T - t) * mh
        scale = asset.sigma * asset.x0
        return (
            -delta / (scale * d)
            - mu_prime(T - t) * mh**2 / (scale * d**2)
            + mu(T - t) * mm * mh / (scale * d**2)
        )

    def fprime(x):
        return float(payoff.derivative(x))

    pathwise = quad(
        lambda t: fprime(price(t)) * price(t) / asset.x0 * math.exp(-lam(t)),
        0.0, T, limit=400,
    )[0]
    weighted = quad(
        lambda t: float(payoff.value(price(t))) * weight(t) * math.exp(-lam(t)),
        0.0, T, limit=400,
    )[0]
    restitution = _one_jump_boundary_term(asset, payoff, T)
    assert weighted + restitution == pytest.approx(pathwise, abs=1e-9)
    assert abs(weighted - pathwise) > 100.0 * abs(pathwise)  # the flux is not small


def test_fd_and_pathwise_hold_a_few_path_vectors(asset, model):
    # contiguous blocks of paths: over the batch, a pass holds its sample
    # vector and `mc_estimate`'s two temporaries, plus one block's working
    # set; over the whole batch at once it held five to seven vectors
    big = simulate_batch(model, T=5.0, master_seed=17, n_paths=80_000)
    bound = 3 * 8 * big.n_paths + (1 << 20)
    passes = {
        "fd_delta": lambda: fd_delta(asset, Payoff.digital(100.0), big, bump=1.0),
        "pathwise_delta": lambda: pathwise_delta(asset, smooth_payoff(asset.x0), big),
    }
    for name, run in passes.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, f"{name} peaked at {peak / 2**20:.2f} MB"


def test_pathwise_needs_derivative(asset, batch):
    with pytest.raises(ValueError, match="derivative"):
        pathwise_delta(asset, Payoff.digital(asset.x0), batch)


def test_sigma_zero_weight_refused(model, batch):
    asset0 = AssetModel(x0=100.0, r=0.05, sigma=0.0, hawkes=model)
    with pytest.raises(ValueError, match="sigma"):
        malliavin_delta(asset0, Payoff.constant(), batch)


# ---- exclusion diagnostics ----

def endpoint_batch(n_good: int, n_bad: int) -> PathBatch:
    """Hand-built batch: `n_good` one-jump paths at t=2 plus `n_bad` paths
    whose single jump sits exactly at the horizon, where m_hat vanishes
    and the weight denominator is zero."""
    n = n_good + n_bad
    times = np.concatenate([np.full(n_good, 2.0), np.full(n_bad, 5.0)])
    return PathBatch(
        horizon=5.0,
        master_seed=0,
        first_index=0,
        offsets=np.arange(n + 1, dtype=np.int64),
        flat_times=times,
    )


def test_small_denominator_excluded(asset):
    est = malliavin_delta(asset, Payoff.constant(), endpoint_batch(499, 1))
    assert est.excluded == 1
    assert est.n_paths == 499
    assert est.min_abs_denominator < 1e-15


def test_too_many_exclusions_refused(asset):
    with pytest.raises(AssumptionError, match="refusing"):
        malliavin_delta(asset, Payoff.constant(), endpoint_batch(10, 1))


def test_vanishing_kernel_refused_before_the_weight():
    # alpha = 0: mu, and so D, vanish on [0, T], and the floor on |D| is 0,
    # so no path is excluded; the refusal comes before any division by D
    model = HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.0, beta=1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )
    asset = AssetModel(x0=100.0, r=0.05, sigma=0.3, hawkes=model)
    batch = simulate_batch(model, T=5.0, master_seed=3, n_paths=50)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(AssumptionError, match="stays positive on"):
            malliavin_delta(asset, Payoff.digital(100.0), batch)


def test_greek_estimate_record(asset, batch):
    est = malliavin_delta(asset, smooth_payoff(asset.x0), batch)
    assert isinstance(est, GreekEstimate)
    assert est.estimator == "malliavin"
    assert est.n_paths == batch.n_paths - est.excluded
