"""Exact jump-time densities on the ordered simplex, their normalization,
and goodness-of-fit checks against simulated paths.

On {N_T = n} the jump instants (T_1..T_n) have unnormalized density

    kappa(t) = 1_{0 < t_1 < ... < t_n <= T}
               prod_i lambda*(t_i; t_1..t_{i-1}) * exp(-int_0^T lambda*)

and the conditional density is k_n = kappa / P(N_T = n).
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np
from scipy.integrate import cumulative_trapezoid

from .model import HawkesModel, strict_lags
from .simulate import PathBatch, compensator_rows, simulate_batch
from .simulate import compensator  # noqa: F401  bench/layers.py traces density.compensator

__all__ = [
    "DensityEvaluation",
    "GoodnessOfFit",
    "NormalizationError",
    "log_kappa",
    "evaluate_kappa",
    "log_kappa_rows",
    "count_distribution",
    "normalization_constant",
    "conditional_density_kn",
    "conditional_density_bound",
    "density_vs_empirical",
]

_NEG_INF = float("-inf")
_GL_ORDER = 64
DEFAULT_NORMALIZATION_PATHS = 200_000
DEFAULT_NORMALIZATION_SEED = 951


class NormalizationError(RuntimeError):
    """Normalization constant too noisy (or not computable) for safe use."""


@dataclass(frozen=True)
class DensityEvaluation:
    """Unnormalized log-density at one point of the simplex."""

    log_kappa: float
    n: int
    in_simplex: bool


@dataclass(frozen=True)
class GoodnessOfFit:
    n: int
    test_name: str
    statistic: float
    p_value: float
    samples: int


# ---------------------------------------------------------------------------
# kappa evaluation
# ---------------------------------------------------------------------------

def _in_simplex(times: np.ndarray, T: float) -> bool:
    if times.size == 0:
        return False
    if times[0] <= 0.0 or times[-1] > T:
        return False
    return bool(np.all(np.diff(times) > 0.0)) if times.size > 1 else True


def evaluate_kappa(model: HawkesModel, T: float, times) -> DensityEvaluation:
    t = np.asarray(times, dtype=float).ravel()
    if t.size < 1:
        raise ValueError("need at least one jump time")
    if not _in_simplex(t, T):
        return DensityEvaluation(log_kappa=_NEG_INF, n=t.size, in_simplex=False)
    lk = float(log_kappa_rows(model, T, t[None, :])[0])
    return DensityEvaluation(log_kappa=lk, n=t.size, in_simplex=True)


def log_kappa(model: HawkesModel, T: float, times) -> float:
    """log kappa(times), with -inf as the off-simplex sentinel."""
    return evaluate_kappa(model, T, times).log_kappa


def log_kappa_rows(model: HawkesModel, T: float, rows: np.ndarray) -> np.ndarray:
    """Vectorized log kappa over rows of sorted, strictly increasing times
    inside (0, T].  No simplex check is performed here."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be (n_points, n) shaped")
    exc = strict_lags(model.kernel.mu, rows[:, None, :], rows).sum(axis=2)
    lam = model.baseline.value(rows) + model.nonlinearity.value(exc)
    log_prod = np.log(lam).sum(axis=1)
    return log_prod - compensator_rows(model, rows, T)


# ---------------------------------------------------------------------------
# normalization  P(N_T = n)
# ---------------------------------------------------------------------------

# Entries each normalization cache keeps, least recently used dropped first:
# far above the one or two (model, T) keys a run uses.
_CACHE_SIZE = 64


@dataclass(frozen=True)
class _ModelKey:
    """A model that caches compare and hash by its digest key alone, so
    equal models built apart share entries."""

    digest: tuple
    model: HawkesModel = field(compare=False)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _count_histogram(key: _ModelKey, T: float, n_mc: int, master_seed: int) -> np.ndarray:
    return np.bincount(simulate_batch(key.model, T, master_seed, n_mc).counts())


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _quadrature_mass(key: _ModelKey, T: float, n: int) -> float:
    return _simplex_quadrature_mass(key.model, T, n)


def count_distribution(
    model: HawkesModel,
    T: float,
    n_mc: int = DEFAULT_NORMALIZATION_PATHS,
    master_seed: int = DEFAULT_NORMALIZATION_SEED,
) -> np.ndarray:
    """Histogram of N_T over n_mc simulated paths (cached per model/T)."""
    key = _ModelKey(model.digest_key(), model)
    return _count_histogram(key, float(T), int(n_mc), int(master_seed))


def normalization_constant(
    model: HawkesModel,
    T: float,
    n: int,
    method: str = "mc",
    n_mc: int = DEFAULT_NORMALIZATION_PATHS,
    master_seed: int = DEFAULT_NORMALIZATION_SEED,
) -> Tuple[float, float]:
    """Estimate Z_n = P(N_T = n); returns (value, standard error).

    method="mc" counts simulated paths; method="quadrature" integrates
    kappa over the ordered simplex with tensorized Gauss-Legendre nodes
    (order 64 per axis), available for n <= 3.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if method == "mc":
        hist = count_distribution(model, T, n_mc, master_seed)
        hits = float(hist[n]) if n < hist.size else 0.0
        p = hits / n_mc
        se = math.sqrt(max(p * (1.0 - p), 0.0) / n_mc)
        return p, se
    if method == "quadrature":
        if n > 3:
            raise NormalizationError(
                "simplex quadrature is only tensorized up to n=3; use method='mc'"
            )
        if not model.nonlinearity.is_linear() and n > 2:
            raise NormalizationError(
                "nonlinear-gamma quadrature normalization supported for n<=2 only"
            )
        return _quadrature_mass(_ModelKey(model.digest_key(), model), float(T), int(n)), 0.0
    raise ValueError(f"unknown normalization method {method!r}")


def _simplex_quadrature_mass(model: HawkesModel, T: float, n: int) -> float:
    """int over 0 < t_1 < ... < t_n <= T of kappa, by iterated Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    t1 = 0.5 * T * (x + 1.0)
    w1 = 0.5 * T * w
    if n == 1:
        vals = np.exp(log_kappa_rows(model, T, t1[:, None]))
        return float(np.sum(w1 * vals))
    # t2 in (t1, T), scaled per t1 node
    half2 = 0.5 * (T - t1)
    t2 = t1[:, None] + half2[:, None] * (x[None, :] + 1.0)
    w2 = half2[:, None] * w[None, :]
    if n == 2:
        rows = np.stack(
            [np.broadcast_to(t1[:, None], t2.shape).ravel(), t2.ravel()], axis=1
        )
        vals = np.exp(log_kappa_rows(model, T, rows)).reshape(t2.shape)
        return float(np.sum(w1[:, None] * w2 * vals))
    # n == 3: t3 in (t2, T)
    half3 = 0.5 * (T - t2)
    t3 = t2[:, :, None] + half3[:, :, None] * (x[None, None, :] + 1.0)
    w3 = half3[:, :, None] * w[None, None, :]
    shape = t3.shape
    rows = np.stack(
        [
            np.broadcast_to(t1[:, None, None], shape).ravel(),
            np.broadcast_to(t2[:, :, None], shape).ravel(),
            t3.ravel(),
        ],
        axis=1,
    )
    vals = np.exp(log_kappa_rows(model, T, rows)).reshape(shape)
    return float(np.sum(w1[:, None, None] * w2[:, :, None] * w3 * vals))


# ---------------------------------------------------------------------------
# conditional density and its bound
# ---------------------------------------------------------------------------

def conditional_density_kn(
    model: HawkesModel,
    T: float,
    n: int,
    times,
    method: str = "mc",
    n_mc: int = DEFAULT_NORMALIZATION_PATHS,
    master_seed: int = DEFAULT_NORMALIZATION_SEED,
) -> float:
    """k_n(times) = kappa(times) / Z_n on the simplex, 0 off it.

    Refuses when the normalization estimate is smaller than 10x its own
    standard error (the ratio would be dominated by noise).
    """
    t = np.asarray(times, dtype=float).ravel()
    if t.size != n:
        raise ValueError(f"expected {n} times, got {t.size}")
    z, se = normalization_constant(model, T, n, method, n_mc, master_seed)
    if z <= 0.0 or z < 10.0 * se:
        raise NormalizationError(
            f"Z_{n} = {z:.3g} (se {se:.3g}) is too uncertain to normalize with"
        )
    lk = log_kappa(model, T, t)
    return 0.0 if lk == _NEG_INF else math.exp(lk) / z


def conditional_density_bound(
    model: HawkesModel,
    T: float,
    n: int,
    z: Optional[float] = None,
    **norm_kwargs,
) -> float:
    """Uniform bound (lambda^T + n a ||mu||_inf)^n / P(N_T = n) for k_n."""
    if z is None:
        z, se = normalization_constant(model, T, n, **norm_kwargs)
        if z <= 0.0 or z < 10.0 * se:
            raise NormalizationError(f"Z_{n} too uncertain for the bound")
    lam_top = model.baseline.sup_upper(T)
    a = model.nonlinearity.lipschitz
    return (lam_top + n * a * model.kernel.sup_norm) ** n / z


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------

def _grid_cdf(grid: np.ndarray, density_vals: np.ndarray) -> np.ndarray:
    cdf = cumulative_trapezoid(density_vals, grid, initial=0.0)
    total = cdf[-1]
    if total <= 0.0:
        raise NormalizationError("degenerate marginal: zero total mass")
    return cdf / total


def _marginal_cdf_n1(model: HawkesModel, T: float, points: int = 8193):
    grid = np.linspace(0.0, T, points)
    ev = grid.copy()
    ev[0] = 0.5 * grid[1]  # kappa is defined for t > 0; continuous limit at 0
    vals = np.exp(log_kappa_rows(model, T, ev[:, None]))
    return grid, _grid_cdf(grid, vals)


def _marginal_cdf_n2(model: HawkesModel, T: float, coord: int, points: int = 1025):
    """Marginal CDF of T_1 (coord=0) or T_2 (coord=1) under k_2, the other
    coordinate integrated out by Gauss-Legendre."""
    x, w = np.polynomial.legendre.leggauss(_GL_ORDER)
    grid = np.linspace(0.0, T, points)
    ev = grid.copy()
    ev[0] = 0.5 * grid[1]
    dens = np.zeros(points)
    if coord == 0:
        # m(t) = int_t^T kappa(t, s) ds
        half = 0.5 * (T - ev)
        s = ev[:, None] + half[:, None] * (x[None, :] + 1.0)
        ww = half[:, None] * w[None, :]
        rows = np.stack(
            [np.broadcast_to(ev[:, None], s.shape).ravel(), s.ravel()], axis=1
        )
        vals = np.exp(log_kappa_rows(model, T, rows)).reshape(s.shape)
        dens = np.sum(ww * vals, axis=1)
    else:
        # m(s) = int_0^s kappa(t, s) dt
        half = 0.5 * ev
        tt = half[:, None] * (x[None, :] + 1.0)
        ww = half[:, None] * w[None, :]
        rows = np.stack(
            [tt.ravel(), np.broadcast_to(ev[:, None], tt.shape).ravel()], axis=1
        )
        vals = np.exp(log_kappa_rows(model, T, rows)).reshape(tt.shape)
        dens = np.sum(ww * vals, axis=1)
    return grid, _grid_cdf(grid, dens)


def density_vs_empirical(
    model: HawkesModel,
    T: float,
    n: int,
    batch: PathBatch,
    min_conditioned: int = 1000,
) -> List[GoodnessOfFit]:
    """KS tests of conditioned empirical jump times against the k_n
    marginals obtained by quadrature.  Supports n = 1 and n = 2; for the
    conditional CDF the normalization cancels (cumulative over total mass).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if abs(batch.horizon - T) > 1e-12:
        raise ValueError("batch horizon does not match T")
    counts = batch.counts()
    sel = np.nonzero(counts == n)[0]
    m = int(sel.size)
    if m < min_conditioned:
        raise NormalizationError(
            f"only {m} paths with N_T={n}; need at least {min_conditioned}"
        )
    from scipy import stats  # here, not at import: it doubles every command's start-up

    if n == 1:
        samples = batch.flat_times[batch.offsets[sel]]
        grid, cdf = _marginal_cdf_n1(model, T)
        stat, p = stats.kstest(samples, lambda v: np.interp(v, grid, cdf))
        return [GoodnessOfFit(1, "ks_T1", float(stat), float(p), m)]
    if n == 2:
        out = []
        starts = batch.offsets[sel]
        for coord, name in ((0, "ks_T1_of_2"), (1, "ks_T2_of_2")):
            samples = batch.flat_times[starts + coord]
            grid, cdf = _marginal_cdf_n2(model, T, coord)
            stat, p = stats.kstest(samples, lambda v: np.interp(v, grid, cdf))
            out.append(GoodnessOfFit(2, name, float(stat), float(p), m))
        return out
    raise NormalizationError(
        "marginal quadrature is implemented for n <= 2; higher orders need "
        "multi-dimensional integration"
    )
