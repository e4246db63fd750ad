"""Exact jump-time densities on the ordered simplex, their normalization,
and goodness-of-fit checks against simulated paths.

On {N_T = n} the jump instants (T_1..T_n) have unnormalized density

    kappa(t) = 1_{0 < t_1 < ... < t_n <= T}
               prod_i lambda*(t_i; t_1..t_{i-1}) * exp(-int_0^T lambda*)

and the conditional density is k_n = kappa / P(N_T = n).  For n <= 3 the
normalization P(N_T = n) is the chained Gauss-Legendre rule on the simplex,
for any gamma; for larger n, whose rule would need 64^n nodes, it is the
share of counted paths with N_T = n.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from .model import AssumptionError, HawkesModel, _reference_cache, _row_sums
from .simulate import PathBatch, _excitation_compensator, _excitation_sums, _slices, simulate_batch
from .simulate import compensator  # noqa: F401  bench/layers.py traces density.compensator

__all__ = [
    "GoodnessOfFit",
    "NormalizationError",
    "log_kappa",
    "log_kappa_rows",
    "count_distribution",
    "normalization_constant",
    "conditional_density_kn",
    "conditional_density_bound",
    "density_vs_empirical",
]

_NEG_INF = float("-inf")
_GL64 = np.polynomial.legendre.leggauss(64)
DEFAULT_NORMALIZATION_PATHS = 200_000
DEFAULT_NORMALIZATION_SEED = 951
_QUADRATURE_MAX_N = 3  # the chained rule has 64^n nodes


class NormalizationError(AssumptionError):
    """Normalization constant too noisy (or not computable) for safe use."""


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

def log_kappa(model: HawkesModel, T: float, times) -> float:
    """log kappa(times), with -inf as the off-simplex sentinel: off
    0 < t_1 < ... < t_n <= T the density is 0."""
    t = np.asarray(times, dtype=float).ravel()
    if t.size < 1:
        raise ValueError("need at least one jump time")
    if t[0] <= 0.0 or t[-1] > T or not np.all(np.diff(t) > 0.0):
        return _NEG_INF
    return float(log_kappa_rows(model, T, t[None, :])[0])


def log_kappa_rows(model: HawkesModel, T: float, rows: np.ndarray) -> np.ndarray:
    """Vectorized log kappa over rows of sorted, strictly increasing times
    inside (0, T], in contiguous `_slices` of n times a row: every row has
    the same width, so no sort by jump count is needed.  No simplex
    check is performed here."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise ValueError("rows must be (n_points, n) shaped")
    P, n = rows.shape
    counts = np.full(P, n)
    base = float(model.baseline.integral(np.float64(T)))
    out = np.empty(P)
    for s in _slices(P, n):
        log_prod, exc = _log_kappa_parts(model, rows[s], counts[s], T)
        out[s] = log_prod - (base + exc)
    return out


def _log_kappa_parts(model: HawkesModel, times: np.ndarray, counts: np.ndarray, T: float):
    """(sum_j log lambda*(T_j), int_0^T gamma(excitation)) for each row of a
    padded (P, K) block holding counts[p] jumps in row p, padded with values
    >= T: log kappa is the first minus the second minus the baseline
    integral.  The excitation at the jumps comes from `_excitation_sums`, and
    the compensator reuses it."""
    S, _ = _excitation_sums(model, times, counts)
    lam = model.baseline.value(times) + model.nonlinearity.value(S)
    log_prod = _row_sums(np.log(lam), np.arange(times.shape[1]) < counts[:, None])
    return log_prod, _excitation_compensator(model, times, T, S)


# ---------------------------------------------------------------------------
# normalization  P(N_T = n)
# ---------------------------------------------------------------------------

# Entries each normalization cache keeps, least recently used dropped first:
# far above the one or two (model, T) keys a run uses.  An entry is a float
# or a histogram of N_T over 200 000 paths, 8 bytes a count up to the
# largest (a few hundred bytes on the reference model).
_CACHE_SIZE = 64


@_reference_cache(_CACHE_SIZE)
def count_distribution(model: HawkesModel, T: float) -> np.ndarray:
    """Histogram of N_T over the DEFAULT_NORMALIZATION_PATHS paths simulated
    at seed DEFAULT_NORMALIZATION_SEED, cached per model and T and handed
    out read-only."""
    batch = simulate_batch(model, float(T), DEFAULT_NORMALIZATION_SEED, DEFAULT_NORMALIZATION_PATHS)
    return np.bincount(batch.counts())


def normalization_constant(model: HawkesModel, T: float, n: int) -> Tuple[float, float]:
    """Z_n = P(N_T = n) as (value, standard error).

    For n <= 3 the chained Gauss-Legendre rule (order 64 per axis) integrates
    kappa over the ordered simplex, for any gamma, with standard error 0.
    The rule has 64^n nodes, so for larger n Z_n is the share of paths with
    N_T = n in `count_distribution`, with its binomial standard error.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n <= _QUADRATURE_MAX_N:
        return _simplex_quadrature_mass(model, float(T), int(n)), 0.0
    hist = count_distribution(model, T)
    p = float(hist[n]) / DEFAULT_NORMALIZATION_PATHS if n < hist.size else 0.0
    return p, math.sqrt(p * (1.0 - p) / DEFAULT_NORMALIZATION_PATHS)


def _chained_rule(lo, hi, n: int):
    """Nodes and weights of the chained Gauss-Legendre rule on the ordered
    simplex lo < t_1 < ... < t_n < hi: t_1 runs over the order-64 nodes of
    (lo, hi) and each t_{k+1} over those of (t_k, hi).  lo and hi are
    scalars or (B,) arrays; returns nodes (B, 64, ..., 64, n) and weights
    (B, 64, ..., 64), without the B axis when both bounds are scalars."""
    x, w = _GL64
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    shape = np.broadcast(lo, hi).shape
    weights = np.ones(shape)
    nodes: List[np.ndarray] = []
    for _ in range(n):
        lo, hi = lo[..., None], hi[..., None]
        half = 0.5 * (hi - lo)
        t = lo + half * (x + 1.0)
        weights = weights[..., None] * (half * w)
        nodes = [np.broadcast_to(c[..., None], t.shape) for c in nodes] + [t]
        lo = t
    return np.stack(nodes, axis=-1) if nodes else np.empty(shape + (0,)), weights


@_reference_cache(_CACHE_SIZE)
def _simplex_quadrature_mass(model: HawkesModel, T: float, n: int) -> float:
    """int over 0 < t_1 < ... < t_n <= T of kappa, by the chained rule; cached."""
    nodes, weights = _chained_rule(0.0, T, n)
    vals = np.exp(log_kappa_rows(model, T, nodes.reshape(-1, n))).reshape(weights.shape)
    return float(np.sum(weights * vals))


# ---------------------------------------------------------------------------
# conditional density and its bound
# ---------------------------------------------------------------------------

def _usable(n: int, z: float, se: float) -> float:
    """Z_n, refused unless positive and at least 10x its own standard error:
    a ratio to it would otherwise be dominated by noise (or not a number)."""
    if not (z > 0.0 and z >= 10.0 * se):
        raise NormalizationError(f"Z_{n} = {z:.3g} (se {se:.3g}) is too uncertain to normalize with")
    return z


def conditional_density_kn(model: HawkesModel, T: float, times) -> float:
    """k_n(times) = kappa(times) / Z_n with n = len(times), on the simplex;
    0 off it.  Refuses a Z_n that `_usable` refuses."""
    t = np.asarray(times, dtype=float).ravel()
    z = _usable(t.size, *normalization_constant(model, T, t.size))
    lk = log_kappa(model, T, t)
    return 0.0 if lk == _NEG_INF else math.exp(lk) / z


def conditional_density_bound(model: HawkesModel, T: float, n: int) -> float:
    """Uniform bound (lambda^T + n a ||mu||_inf)^n / Z_n for k_n, with Z_n
    from `normalization_constant`.  Refuses a Z_n that `_usable` refuses."""
    z = _usable(n, *normalization_constant(model, T, n))
    lam_top = model.baseline.sup_upper(T)
    a = model.nonlinearity.lipschitz
    return (lam_top + n * a * model.kernel.sup_norm) ** n / z


# ---------------------------------------------------------------------------
# goodness of fit
# ---------------------------------------------------------------------------

def _cumulative_trapezoid(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Running trapezoid integral of y over the grid x, from 0: scipy's
    `cumulative_trapezoid(y, x, initial=0.0)` term for term, without its
    import."""
    return np.concatenate(([0.0], np.cumsum(np.diff(x) * (y[1:] + y[:-1]) / 2.0)))


def _simpson(y: np.ndarray, x: np.ndarray) -> float:
    """Composite Simpson integral of y over a strictly increasing grid x of
    an odd number of points: scipy's `simpson(y, x=x)` term for term, with
    each parabola fitted to its two unequal spacings, without its import."""
    h = np.diff(x)
    h0, h1 = h[0::2], h[1::2]
    hsum, hprod, ratio = h0 + h1, h0 * h1, h0 / h1
    terms = (
        y[:-2:2] * (2.0 - 1.0 / ratio)
        + y[1::2] * (hsum * (hsum / hprod))
        + y[2::2] * (2.0 - ratio)
    )
    return float(np.sum(hsum / 6.0 * terms))


def _factorial_ratio(n: int) -> Tuple[float, int]:
    """n!/n^n = prod_j (j/n) as (mantissa, binary exponent): products of
    frexp mantissas in blocks of 512 (no block underflows), the exponents
    summed exactly, so the ratio keeps double precision at any n."""
    x, e = np.frexp(np.arange(1, n + 1) / n)
    exp2 = int(e.sum())
    while x.size > 1:
        blocks = np.pad(x, (0, -x.size % 512), constant_values=1.0).reshape(-1, 512)
        x, e = np.frexp(blocks.prod(axis=1))
        exp2 += int(e.sum())
    return float(x[0]), exp2


def _rescaled(A: np.ndarray) -> Tuple[np.ndarray, int]:
    """A scaled exactly by the power of two that brings its largest entry
    into [0.5, 1), and that power's exponent."""
    shift = int(np.frexp(np.abs(A).max())[1])
    return np.ldexp(A, -shift), shift


def _durbin_cdf(n: int, d: float) -> float:
    """P(D_n < d) for 1/(2n) <= d < 1 by the Durbin matrix (Marsaglia, Tsang
    & Wang 2003): n!/n^n (H^n)_{kk} with k = ceil(n d), h = k - n d and H the
    (2k-1)-square matrix of 1/(i-j+1)! terms corrected by powers of h in its
    first column and last row.  H^n is taken by squaring, each product
    rescaled by a power of two whose exponent is kept apart, and the scale
    n!/n^n joins it as a mantissa and an exponent: no logarithm of a large
    number cancels another."""
    k = math.ceil(n * d)
    m = 2 * k - 1
    h = k - n * d
    lag = np.subtract.outer(np.arange(m), np.arange(m)) + 1  # i - j + 1
    H = (lag >= 0).astype(float)
    powers = h ** np.arange(1.0, m + 1)
    H[:, 0] -= powers
    H[-1, :] -= powers[::-1]
    if 2.0 * h > 1.0:
        H[-1, 0] += (2.0 * h - 1.0) ** m
    H *= np.concatenate(([1.0], np.cumprod(1.0 / np.arange(1.0, m + 1))))[np.maximum(lag, 0)]

    # binary powering: H^(2^i) = H * 2^e, the power so far = power * 2^exp2
    power, exp2, e, bits = None, 0, 0, n
    while True:
        if bits & 1:
            power, exp2 = (H, e) if power is None else (power @ H, exp2 + e)
            power, shift = _rescaled(power)
            exp2 += shift
        bits >>= 1
        if not bits:
            break
        H, shift = _rescaled(H @ H)
        e = 2 * e + shift
    mant, scale_exp2 = _factorial_ratio(n)
    return math.ldexp(power[k - 1, k - 1] * mant, exp2 + scale_exp2)


def _kolmogorov_sf(n: int, d: float) -> float:
    """P(D_n >= d), the exact two-sided Kolmogorov survival function at n
    samples.  Below n d^2 = 4 it is 1 - `_durbin_cdf`; from 4 up, and from
    d = 0.5 up, it is twice the Birnbaum-Tingey one-sided tail

        P(D_n^+ >= d) = d sum_{j < n(1-d)} C(n, j) (1 - d - j/n)^(n-j) (d + j/n)^(j-1),

    summed in log space: there 1 - CDF would cancel.  Doubling the one-sided
    tail (Miller's approximation) is off by about 1e-11 relative from
    n d^2 = 4 up, and exact from d = 0.5 up, where D_n^+ >= d and
    D_n^- >= d exclude each other.  The branch point n d^2 = 4 follows
    Simard & L'Ecuyer (2011)."""
    if d >= 1.0:
        return 0.0
    if n * d * d < 4.0 and d < 0.5:
        return min(1.0, 1.0 - _durbin_cdf(n, d))  # a CDF of 0 may round below it
    j = np.arange(n + 1.0)
    base = 1.0 - d - j / n
    j, base = j[base > 0.0], base[base > 0.0]
    log_binom = np.concatenate(([0.0], np.cumsum(np.log((n - j[1:] + 1.0) / j[1:]))))
    terms = log_binom + (n - j) * np.log(base) + (j - 1.0) * np.log(d + j / n)
    top = terms.max()
    return min(1.0, 2.0 * d * math.exp(top) * float(np.exp(terms - top).sum()))


def _ks_two_sided(samples: np.ndarray, cdf) -> Tuple[float, float]:
    """(D, p) of the two-sided one-sample Kolmogorov-Smirnov test of
    samples against the continuous CDF `cdf`: D as `scipy.stats.kstest`
    takes it (D+ only where D+ > D-), p exact by `_kolmogorov_sf`."""
    x = np.sort(samples)
    n = x.size
    F = cdf(x)
    d_plus = float((np.arange(1.0, n + 1) / n - F).max())
    d_minus = float((F - np.arange(0.0, n) / n).max())
    D = d_plus if d_plus > d_minus else d_minus
    return D, _kolmogorov_sf(n, D)


# Entries the marginal cache keeps, least recently used dropped first: a
# density-check fills three, (n, coord) = (1, 0), (2, 0) and (2, 1), for its
# (model, T).  An entry is a grid and its CDF, 2 x 8 193 doubles (131 KB) at
# n = 1 and 2 x 1 025 (16 KB) at n = 2, so the cache holds at most 1.05 MB.
_MARGINAL_CACHE_SIZE = 8


@_reference_cache(_MARGINAL_CACHE_SIZE)
def _marginal_cdf(model: HawkesModel, T: float, n: int, coord: int):
    """CDF of T_{coord+1} under k_n (n <= 2) on a grid of [0, T], cached:
    the other jump time integrated out by the chained rule, the grid by
    trapezoids, the normalization cancelling in the ratio to the total mass.

    The grid points go in `_slices` of n 64^(n-1) times a point, the times
    of its 64^(n-1) rows (128 points a slice for n = 2): each row's log
    kappa and each point's sum over its nodes are its own, so the density
    has the same bits in any block."""
    grid = np.linspace(0.0, T, 8193 if n == 1 else 1025)
    ev = grid.copy()
    ev[0] = 0.5 * grid[1]  # kappa is defined for t > 0; continuous limit at 0
    dens = np.empty(ev.size)
    for s in _slices(ev.size, n * _GL64[0].size ** (n - 1)):
        pts = ev[s]
        lo, hi = (0.0, pts) if coord else (pts, T)  # the other jump lies before or after
        nodes, weights = _chained_rule(lo, hi, n - 1)
        fixed = np.broadcast_to(pts.reshape((-1,) + (1,) * n), nodes.shape[:-1] + (1,))
        rows = np.concatenate([nodes, fixed] if coord else [fixed, nodes], axis=-1)
        vals = np.exp(log_kappa_rows(model, T, rows.reshape(-1, n))).reshape(weights.shape)
        dens[s] = (weights * vals).reshape(pts.size, -1).sum(axis=1)
    cdf = _cumulative_trapezoid(dens, grid)
    if cdf[-1] <= 0.0:
        raise NormalizationError("degenerate marginal: zero total mass")
    return grid, cdf / cdf[-1]


def density_vs_empirical(
    model: HawkesModel,
    n: int,
    batch: PathBatch,
    min_conditioned: int = 1000,
) -> List[GoodnessOfFit]:
    """KS tests of the jump times of the batch's paths with N_T = n against
    the k_n marginals obtained by quadrature up to the batch's horizon,
    cached per (model, horizon, n, coordinate).  Supports n = 1 and n = 2;
    for the conditional CDF the normalization cancels (cumulative over
    total mass)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if min_conditioned < 1:
        raise ValueError(f"min_conditioned must be >= 1, got {min_conditioned}")
    counts = batch.counts()
    sel = np.nonzero(counts == n)[0]
    m = int(sel.size)
    if m < min_conditioned:
        raise NormalizationError(
            f"only {m} paths with N_T={n}; need at least {min_conditioned}"
        )
    if n > 2:
        raise NormalizationError(
            "marginal quadrature is implemented for n <= 2; higher orders need "
            "multi-dimensional integration"
        )
    out = []
    for coord in range(n):
        samples = batch.flat_times[batch.offsets[sel] + coord]
        grid, cdf = _marginal_cdf(model, float(batch.horizon), n, coord)
        stat, p = _ks_two_sided(samples, lambda v: np.interp(v, grid, cdf))
        name = "ks_T1" if n == 1 else f"ks_T{coord + 1}_of_{n}"
        out.append(GoodnessOfFit(n, name, stat, p, m))
    return out
