"""Delta estimation for the jump-driven asset model.

dS_t = r S_t dt + sigma S_{t-} d(N_t - Lambda_t),   S_0 = x0,

whose terminal price is the closed form S_T = x0 exp(rT - sigma Lambda_T)
(1 + sigma)^{N_T} for any gamma, Lambda_T being the compensator.  Three
estimators of d/dx0 E[1_{N_T>0} f(S_T)]:

* `malliavin_delta` — E[f(S_T) W] with the integration-by-parts weight
  W = -delta(m)/(sigma x0 D) - [sum mu'(T-T_i) m_hat(T_i)^2]/(sigma x0 D^2)
      + [sum mu(T-T_i) m(T_i) m_hat(T_i)]/(sigma x0 D^2),
  D = sum mu(T-T_i) m_hat(T_i); works for discontinuous payoffs, and is
  derived for linear gamma only.
* `fd_delta` — central differences with common random numbers (Lambda and
  N do not depend on x0, so the same paths are reused exactly).
* `pathwise_delta` — E[1_{N_T>0} f'(S_T) S_T] / x0 for differentiable f.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .malliavin import CameronMartinFunction, _divergence_rows, weight_arrays
from .malliavin import divergence_m_batch  # noqa: F401  bench/layers.py traces greeks.divergence_m_batch
from .model import AssumptionError, HawkesModel, _row_sums
from .simulate import HawkesPath, PathBatch, _path_blocks, _slices, compensator_batch

_DENOMINATOR_FLOOR_SCALE = 1e-12  # floor = scale * sup|mu| * T
_MAX_EXCLUDED_FRACTION = 0.01


class UnsupportedModelError(AssumptionError):
    """The estimator is derived for a linear nonlinearity only (exit 3)."""


# ---- model and payoffs ----

@dataclass(frozen=True)
class AssetModel:
    """Price model parameters on top of a Hawkes driver.

    `sigma` is the relative jump size (must exceed -1 so prices stay
    positive); the Malliavin weight additionally needs sigma != 0.
    """

    x0: float
    r: float
    sigma: float
    hawkes: HawkesModel

    def __post_init__(self):
        if not self.x0 > 0.0:
            raise AssumptionError("x0 must be positive")
        if not self.sigma > -1.0:
            raise AssumptionError("sigma must be greater than -1")

    def _require_linear(self):
        if not self.hawkes.nonlinearity.is_linear():
            raise UnsupportedModelError(
                "the Malliavin delta weight is derived for a linear nonlinearity "
                "only; the fd and pathwise deltas take any"
            )


@dataclass(frozen=True, eq=False)
class Payoff:
    """Terminal payoff f(S_T).

    kinds: "smooth" (function + derivative), "digital" (1_{[K, inf)}),
    "capped-linear" (clip(x - lower, 0, upper - lower), the two kink
    endpoints kept for reference).
    """

    kind: str
    fn: Callable
    derivative: Optional[Callable] = None
    endpoints: tuple = ()
    label: str = "payoff"

    @staticmethod
    def smooth(fn: Callable, derivative: Callable, label: str = "smooth") -> "Payoff":
        return Payoff(kind="smooth", fn=fn, derivative=derivative, label=label)

    @staticmethod
    def constant(value: float = 1.0) -> "Payoff":
        return Payoff(
            kind="smooth",
            fn=lambda x: np.full_like(np.asarray(x, dtype=float), value),
            derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
            label="constant",
        )

    @staticmethod
    def digital(strike: float) -> "Payoff":
        return Payoff(
            kind="digital",
            fn=lambda x: (np.asarray(x, dtype=float) >= strike).astype(float),
            derivative=None,
            endpoints=(strike,),
            label="digital",
        )

    @staticmethod
    def capped_linear(lower: float, upper: float) -> "Payoff":
        if not lower < upper:
            raise ValueError("capped-linear payoff needs lower < upper")

        def deriv(x):
            x = np.asarray(x, dtype=float)
            return ((x > lower) & (x < upper)).astype(float)

        return Payoff(
            kind="capped-linear",
            fn=lambda x: np.clip(np.asarray(x, dtype=float) - lower, 0.0, upper - lower),
            derivative=deriv,
            endpoints=(lower, upper),
            label="capped-linear",
        )

    def value(self, x):
        return np.asarray(self.fn(x), dtype=float)

    @property
    def differentiable(self) -> bool:
        return self.derivative is not None

    def derivative_at(self, x: float) -> Optional[float]:
        """f'(x) where it exists pointwise, else None.

        Digitals are flat away from the strike; kinked payoffs are
        differentiable away from their endpoints.
        """
        if any(x == e for e in self.endpoints):
            return None
        if self.kind == "digital":
            return 0.0
        if self.derivative is None:
            return None
        return float(np.asarray(self.derivative(x), dtype=float))


@dataclass(frozen=True)
class GreekEstimate:
    estimator: str
    mean: float
    std_error: float
    n_paths: int
    effective_sample_size: float
    excluded: int = 0
    min_abs_denominator: float = math.nan
    zero_jump_term: Optional[float] = None
    boundary_term: float = 0.0


# ---- terminal prices ----

def terminal_price(asset: AssetModel, path: HawkesPath):
    """(S_T, dS_T/dx0) on one path: its row of `terminal_price_batch`."""
    price, unit = terminal_price_batch(asset, PathBatch.of(path))
    return float(price[0]), float(unit[0])


def terminal_price_batch(asset: AssetModel, batch: PathBatch):
    """(S_T, dS_T/dx0) for every path of a batch; the derivative is exactly
    S_T / x0 per path.  The closed form holds for any gamma, as Lambda_T is
    the compensator."""
    lam = compensator_batch(asset.hawkes, batch)
    counts = batch.counts()
    unit = (
        np.exp(asset.r * batch.horizon - asset.sigma * lam)
        * (1.0 + asset.sigma) ** counts
    )
    return asset.x0 * unit, unit


# ---- estimator plumbing ----

def mc_estimate(values):
    """(mean, std_error, ESS) with deterministic pairwise summation.

    Values are reduced in the order given, which every caller keeps in
    path-index order, so the summation tree — hence the floating-point
    result — does not depend on how the batch was produced.  Each value
    has its path's own bits in any batch; only this sum across paths still
    depends on n, whose pairwise tree groups them by position.
    ESS = (sum|v|)^2 / sum(v^2), the usual weight-concentration measure.
    """
    values = np.asarray(values, dtype=float)
    if values.ndim != 1 or values.size < 2:
        raise ValueError("mc_estimate needs a one-dimensional sample, n >= 2")
    n = values.size
    mean = float(np.sum(values)) / n
    var = float(np.sum((values - mean) ** 2)) / (n - 1)
    se = math.sqrt(var / n)
    sq = float(np.sum(values**2))
    ess = float(np.sum(np.abs(values))) ** 2 / sq if sq > 0.0 else float(n)
    return mean, se, ess


def _zero_jump_term(asset: AssetModel, payoff: Payoff, T: float) -> Optional[float]:
    """Analytic d/dx0 [P(N_T = 0) f(S_T^0)] for the deterministic no-jump
    branch: P(N_T = 0) = exp(-int_0^T lambda_s ds).  None when f is not
    differentiable at the deterministic price."""
    base_int = float(np.asarray(asset.hawkes.baseline.integral(T), dtype=float))
    s0 = asset.x0 * math.exp(asset.r * T - asset.sigma * base_int)
    fprime = payoff.derivative_at(s0)
    if fprime is None:
        return None
    return math.exp(-base_int) * fprime * s0 / asset.x0


def _one_jump_boundary_term(asset: AssetModel, payoff: Payoff, T: float) -> float:
    """Endpoint restitution for the weighted estimator on {N_T = 1}.

    The three-term weight is the in-stratum divergence of the displacement
    field m_hat(t)A(t); on the one-jump stratum that field tends to
    -1/(sigma x0 mu(T-t)) at the interval ends instead of vanishing
    (every admissible direction has m_hat(0) = m_hat(T) = 0, so the
    denominator D = mu(T-t) m_hat(t) degenerates at exactly the same
    rate).  Integrating by parts therefore leaves the boundary flux

        f(S(T-)) k(T-)/(sigma x0 mu(0)) - f(S(0+)) k(0+)/(sigma x0 mu(T)),

    where k is the one-jump path density and S the matching terminal
    price.  The flux is independent of m, needs only payoff values (no
    derivative), and vanishes on every stratum with two or more jumps,
    where the field does vanish on the boundary.  `malliavin_delta` has
    refused a kernel with mu(0) or mu(T) not > 0.
    """
    model = asset.hawkes
    mu0 = float(model.kernel.mu(np.float64(0.0)))
    muT = float(model.kernel.mu(np.float64(T)))
    base_int = float(np.asarray(model.baseline.integral(T), dtype=float))
    lam_start = float(np.asarray(model.baseline.value(np.float64(0.0)), dtype=float))
    lam_end = float(np.asarray(model.baseline.value(np.float64(T)), dtype=float))
    tail = float(model.kernel.mu_hat(np.float64(T)))
    k_early = lam_start * math.exp(-(base_int + tail))  # jump just after 0
    k_late = lam_end * math.exp(-base_int)              # jump just before T
    growth = math.exp(asset.r * T) * (1.0 + asset.sigma)
    s_early = asset.x0 * growth * math.exp(-asset.sigma * (base_int + tail))
    s_late = asset.x0 * growth * math.exp(-asset.sigma * base_int)
    f_early = float(payoff.value(s_early))
    f_late = float(payoff.value(s_late))
    scale = asset.sigma * asset.x0
    return f_late * k_late / (scale * mu0) - f_early * k_early / (scale * muT)


def malliavin_delta(
    asset: AssetModel,
    payoff: Payoff,
    batch: PathBatch,
    m: CameronMartinFunction = None,
) -> GreekEstimate:
    """Weighted estimator of d/dx0 E[1_{N_T>0} f(S_T)].

    The mean is the empirical average of f(S_T) W plus the deterministic
    one-jump endpoint restitution (recorded in ``boundary_term``); see
    `_one_jump_boundary_term` for why the average alone is short by
    exactly that flux.  The per-path sums delta(m), D and the two D^2
    terms come from the `weight_arrays` of the batch's `_path_blocks`.
    Paths where the denominator
    D = sum mu(T-T_i) m_hat(T_i) falls below 1e-12 * sup|mu| * T are
    excluded and counted; more than 1% exclusions aborts the estimate.
    A kernel with mu(0) or mu(T) not > 0, where the flux is undefined, is
    refused before any work.
    """
    asset._require_linear()
    if asset.sigma == 0.0:
        raise AssumptionError("Malliavin weight requires sigma != 0")
    model = asset.hawkes
    T = batch.horizon
    if m is None:
        m = CameronMartinFunction.default(T)
    counts = batch.counts()
    if not batch.flat_times.size:
        raise AssumptionError("batch contains no jumps; the weight is undefined")
    if not (model.kernel.mu(np.float64(0.0)) > 0.0 and model.kernel.mu(np.float64(T)) > 0.0):
        raise AssumptionError(
            "the weighted estimator needs a kernel that stays positive on [0, T]"
        )
    delta_m, D, s2, s3 = np.empty((4, batch.n_paths))
    for idx, block in _path_blocks(batch):
        times, mask, psi, g1, g2, m_at, mh_at = weight_arrays(model, block, m)
        delta_m[idx] = _divergence_rows(mask, psi, g1, g2, m_at, mh_at)
        lags = T - times
        mu_lag = model.kernel.mu(lags)
        D[idx] = _row_sums(mu_lag * mh_at, mask)
        s2[idx] = _row_sums(model.kernel.mu_prime(lags) * mh_at**2, mask)
        s3[idx] = _row_sums(mu_lag * m_at * mh_at, mask)

    positive = counts > 0
    floor = _DENOMINATOR_FLOOR_SCALE * model.kernel.sup_norm * T
    degenerate = positive & (np.abs(D) < floor)
    n_excluded = int(degenerate.sum())
    if n_excluded > _MAX_EXCLUDED_FRACTION * batch.n_paths:
        raise AssumptionError(
            f"{n_excluded} of {batch.n_paths} paths have |D| below the "
            f"floor {floor:.3e}; refusing the estimate"
        )
    keep = ~degenerate
    scale = asset.sigma * asset.x0
    weight = np.zeros(batch.n_paths)
    ok = positive & keep
    weight[ok] = (
        -delta_m[ok] / (scale * D[ok])
        - s2[ok] / (scale * D[ok] ** 2)
        + s3[ok] / (scale * D[ok] ** 2)
    )
    prices, _ = terminal_price_batch(asset, batch)
    sample = np.where(positive, payoff.value(prices) * weight, 0.0)[keep]
    mean, se, _ = mc_estimate(sample)
    _, _, ess = mc_estimate(weight[keep])
    boundary = _one_jump_boundary_term(asset, payoff, T)
    return GreekEstimate(
        estimator="malliavin",
        mean=mean + boundary,
        std_error=se,
        n_paths=int(keep.sum()),
        effective_sample_size=ess,
        excluded=n_excluded,
        min_abs_denominator=float(np.min(np.abs(D[positive])))
        if np.any(positive)
        else math.nan,
        zero_jump_term=_zero_jump_term(asset, payoff, T),
        boundary_term=boundary,
    )


def fd_delta(
    asset: AssetModel, payoff: Payoff, batch: PathBatch, bump: float = None
) -> GreekEstimate:
    """Central difference with common random numbers.

    Lambda_T and N_T do not depend on x0, so bumping x0 rescales S_T by
    (x0 +- bump)/x0 on the same paths; the bump must lie in (0, x0), so
    that the down bump stays a positive price.
    """
    if bump is None:
        bump = 1e-4 * asset.x0
    if not bump > 0.0:
        raise ValueError("bump must be positive")
    if not bump < asset.x0:
        raise ValueError(f"bump {bump!r} must stay below x0 = {asset.x0!r}")

    def values(prices, _):
        up = payoff.value(prices * (1.0 + bump / asset.x0))
        dn = payoff.value(prices * (1.0 - bump / asset.x0))
        return (up - dn) / (2.0 * bump)

    return _plain_estimate("fd", asset, payoff, batch, values)


def pathwise_delta(asset: AssetModel, payoff: Payoff, batch: PathBatch) -> GreekEstimate:
    """E[1_{N_T>0} f'(S_T) S_T / x0], valid for differentiable payoffs."""
    if not payoff.differentiable:
        raise ValueError("pathwise estimator needs a payoff derivative")

    def values(prices, dprices):
        return np.asarray(payoff.derivative(prices), dtype=float) * dprices

    return _plain_estimate("pathwise", asset, payoff, batch, values)


def _plain_estimate(
    estimator: str, asset: AssetModel, payoff: Payoff, batch: PathBatch, values
) -> GreekEstimate:
    """The plain-sample estimate of the per-path values(S_T, dS_T/dx0), each
    counted on {N_T > 0} only: the tail of `fd_delta` and `pathwise_delta`.

    The terminal prices and values run over `_slices` of paths, one element
    a path (`PathBatch.take` of a slice, which copies no jump time), into
    one path-length vector: the pass holds the batch once, that
    vector, and one block's working set.  A path's S_T, hence its value, has
    the same bits in any block, so the estimate does too."""
    sample = np.empty(batch.n_paths)
    for s in _slices(batch.n_paths, 1):
        block = batch.take(s)
        sample[s] = np.where(block.counts() > 0, values(*terminal_price_batch(asset, block)), 0.0)
    mean, se, ess = mc_estimate(sample)
    return GreekEstimate(
        estimator=estimator,
        mean=mean,
        std_error=se,
        n_paths=batch.n_paths,
        effective_sample_size=ess,
        zero_jump_term=_zero_jump_term(asset, payoff, batch.horizon),
    )
