"""Jump-time Malliavin calculus: the gradient D, the carre du champ Gamma,
the psi/Gamma1/Gamma2 weight terms, the divergence delta, and the
change-of-measure factors Z^eps.

Directions live in the Cameron-Martin space H = {m in L2(0,T): int m = 0}.
For a smooth functional F = f_n(T_1..T_n) the gradient is the step function

    D_s F = sum_j  df_n/dt_j * (T_j/T - 1_{[0,T_j]}(s)),

whose H-geometry is encoded by the kernel xi(u, v) = u^v - uv/T:
Gamma[F, G] = <DF, DG> = sum_{ij} p_i q_j xi(T_i, T_j).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .density import _log_kappa_parts
from .model import AssumptionError, HawkesModel, _check_positive_finite, _row_sums
from .simulate import (
    HawkesPath,
    PathBatch,
    _excitation_gamma2,
    _excitation_sums,
    _path_blocks,
    _segment_quad,
    padded_jumps,
)

__all__ = [
    "CameronMartinFunction",
    "SmoothFunctional",
    "MalliavinGradient",
    "WeightTerms",
    "xi_kernel",
    "condition2_slack",
    "grad_smooth",
    "carre_du_champ",
    "weight_terms",
    "divergence_m",
    "z_eps",
    "basis_projection_check",
    "capped_jump_time",
    "compose_smooth",
    "product_smooth",
    "weight_arrays",
    "divergence_m_batch",
    "z_eps_batch",
]


# ---------------------------------------------------------------------------
# directions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CameronMartinFunction:
    """A direction m on [0,T] with int_0^T m = 0, plus its antiderivative
    m_hat(t) = int_0^t m and the bound sup|m| (inf when unbounded).  The
    constructor checks the horizon, sup|m| and that m_hat vanishes at 0 and
    T; `from_callables` also integrates m."""

    horizon: float
    m: Callable[[np.ndarray], np.ndarray]
    m_hat: Callable[[np.ndarray], np.ndarray]
    sup_m: float

    def __post_init__(self):
        _check_positive_finite(self.horizon)
        if not self.sup_m >= 0.0:
            raise ValueError(f"sup_m must be a nonnegative bound or inf, got {self.sup_m}")
        h0 = float(self.m_hat(np.float64(0.0)))
        hT = float(self.m_hat(np.float64(self.horizon)))
        if not (abs(h0) <= 1e-12 and abs(hT) <= 1e-10):
            raise ValueError(
                f"m_hat must vanish at 0 and T (got {h0:.3g}, {hT:.3g}); "
                "the direction must integrate to zero"
            )

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.sup_m)

    @staticmethod
    def default(T: float) -> "CameronMartinFunction":
        """m(t) = 1 - 2t/T; m_hat(t) = t(1 - t/T), positive on (0,T)."""
        return CameronMartinFunction(
            horizon=float(T),
            m=lambda t: 1.0 - 2.0 * np.asarray(t, dtype=float) / T,
            m_hat=lambda t: np.asarray(t, dtype=float)
            * (1.0 - np.asarray(t, dtype=float) / T),
            sup_m=1.0,
        )

    @staticmethod
    def cosine(T: float, k: int = 1) -> "CameronMartinFunction":
        """Normalized sqrt(2/T) cos(2 pi k t / T)."""
        return CameronMartinFunction._fourier(T, k, np.cos, np.sin)

    @staticmethod
    def sine(T: float, k: int = 1) -> "CameronMartinFunction":
        """Normalized sqrt(2/T) sin(2 pi k t / T)."""
        return CameronMartinFunction._fourier(T, k, np.sin, lambda x: 1.0 - np.cos(x))

    @staticmethod
    def _fourier(T, k, wave, anti) -> "CameronMartinFunction":
        """sqrt(2/T) wave(w t) with m_hat = (sqrt(2/T) / w) anti(w t), w = 2 pi k / T."""
        _check_positive_finite(T)
        if not k >= 1:
            raise ValueError("k must be >= 1")
        amp = math.sqrt(2.0 / T)
        w = 2.0 * math.pi * k / T
        return CameronMartinFunction(
            horizon=float(T),
            m=lambda t: amp * wave(w * np.asarray(t, dtype=float)),
            m_hat=lambda t: (amp / w) * anti(w * np.asarray(t, dtype=float)),
            sup_m=amp,
        )

    @staticmethod
    def step(knots, values) -> "CameronMartinFunction":
        """Left-continuous step function on [0, knots[-1]]: value values[i]
        on (knots[i], knots[i+1]], with the exact, piecewise linear m_hat.
        A random step is a valid direction when it is predictable
        (measurable with respect to strictly earlier jumps); that is the
        caller's contract."""
        k = np.asarray(knots, dtype=float)
        v = np.asarray(values, dtype=float)
        if k.ndim != 1 or v.ndim != 1 or k.size != v.size + 1:
            raise ValueError("need len(knots) == len(values) + 1")
        if not (k[0] == 0.0 and np.all(np.diff(k) > 0)):
            raise ValueError("knots must start at 0 and increase strictly")
        cum = np.concatenate([[0.0], np.cumsum(v * np.diff(k))])

        def interval(t):
            return np.clip(np.searchsorted(k, t, side="left"), 1, v.size) - 1

        def value(t):
            return v[interval(np.asarray(t, dtype=float))]

        def m_hat(t):
            t = np.asarray(t, dtype=float)
            i = interval(t)
            return cum[i] + v[i] * (t - k[i])

        return CameronMartinFunction(
            horizon=float(k[-1]), m=value, m_hat=m_hat, sup_m=float(np.max(np.abs(v), initial=0.0))
        )

    @staticmethod
    def from_callables(
        T: float, m: Callable, m_hat: Callable, sup_m: float
    ) -> "CameronMartinFunction":
        """Custom direction; also checks int_0^T m = 0 by the segment
        engine's adaptive quadrature (`_segment_quad`).  A direction that
        quadrature cannot resolve, but whose m_hat is exact, is built with
        the constructor."""
        cm = CameronMartinFunction(horizon=float(T), m=m, m_hat=m_hat, sup_m=float(sup_m))
        total = float(_segment_quad(lambda _, u: m(u), np.zeros(1), np.full(1, cm.horizon))[0])
        if not abs(total) <= 1e-10:
            raise ValueError(f"int_0^T m = {total:.3g} exceeds the 1e-10 tolerance")
        return cm


# ---------------------------------------------------------------------------
# smooth functionals and gradients
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SmoothFunctional:
    """F = f_n(T_1..T_n): a value map plus its exact partials.

    ``value(times, T)`` and ``partials(times, T)`` receive a padded (P, K)
    block of jump times, one path per row as from `padded_jumps`, and give
    values (P,) and partials (P, K); `supports` restricts the jump counts
    the functional is defined for.  Padded slots hold the horizon T and
    their partials are ignored.  With that padding T_j ^ T needs no jump
    count: a missing j-th jump reads as T, and the partial 1{T_j < T} is
    exact.  One path is the one-row block (`grad_smooth`).
    """

    value: Callable[[np.ndarray, float], np.ndarray]
    partials: Callable[[np.ndarray, float], np.ndarray]
    supports: Callable[[int], bool] = lambda n: True


def capped_jump_time(j: int) -> SmoothFunctional:
    """T_j ^ T: the j-th jump time, equal to T when fewer than j jumps."""
    if j < 1:
        raise ValueError("j must be >= 1")

    def value(times, T):
        if times.shape[1] < j:
            return np.full(times.shape[0], float(T))
        return times[:, j - 1]

    def partials(times, T):
        p = np.zeros(times.shape)
        if times.shape[1] >= j:
            p[:, j - 1] = times[:, j - 1] < T
        return p

    return SmoothFunctional(value=value, partials=partials)


def compose_smooth(phi, phi_prime, F: SmoothFunctional) -> SmoothFunctional:
    """phi(F) with chain-rule partials phi'(F) * dF/dt_j; phi and phi_prime
    act elementwise on F's values."""
    return SmoothFunctional(
        value=lambda times, T: phi(F.value(times, T)),
        partials=lambda times, T: phi_prime(F.value(times, T))[:, None] * F.partials(times, T),
        supports=F.supports,
    )


def product_smooth(F: SmoothFunctional, G: SmoothFunctional) -> SmoothFunctional:
    """F*G with product-rule partials."""
    return SmoothFunctional(
        value=lambda times, T: F.value(times, T) * G.value(times, T),
        partials=lambda times, T: F.partials(times, T) * G.value(times, T)[:, None]
        + F.value(times, T)[:, None] * G.partials(times, T),
        supports=lambda n: F.supports(n) and G.supports(n),
    )


def _smooth_blocks(batch: PathBatch, functionals):
    """(positions, block, rows) over the batch's `_path_blocks`, where rows
    holds each (label, F) entry's values (B,) and partials (B, K) on the
    block's padded jump times.  Raises ValueError before the first block
    for an entry whose `supports` rejects a jump count of the batch, and
    on a block where an entry gives other shapes."""
    T = batch.horizon
    counts = np.unique(batch.counts()).tolist()
    for label, F in functionals:
        rejected = [n for n in counts if not F.supports(n)]
        if rejected:
            raise ValueError(f"functional {label} does not support N_T = {rejected[0]}")
    for idx, block in _path_blocks(batch):
        times, _ = padded_jumps(block)
        rows = []
        for label, F in functionals:
            values = np.asarray(F.value(times, T), dtype=float)
            partials = np.asarray(F.partials(times, T), dtype=float)
            if values.shape != times.shape[:1] or partials.shape != times.shape:
                raise ValueError(
                    f"functional {label} gave values {values.shape} and partials {partials.shape} "
                    f"on a {times.shape} block; expected {times.shape[:1]} and {times.shape}"
                )
            rows.append((values, partials))
        yield idx, block, rows


@dataclass(frozen=True)
class MalliavinGradient:
    """D_s F = sum_j partials_j (T_j/T - 1_{[0,T_j]}(s)): a step function in
    s with breakpoints at the jump times, integrating to zero."""

    jump_times: np.ndarray
    partials: np.ndarray
    horizon: float

    def evaluate(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        t = self.jump_times
        if t.size == 0:
            return np.zeros_like(s)
        shapes = t / self.horizon - (s[..., None] <= t)
        return shapes @ self.partials

    def directional(self, m: CameronMartinFunction) -> float:
        """<DF, m> = -sum_j partials_j m_hat(T_j), added in jump order as a
        batch row is (`_row_sums`)."""
        return -float(_row_sums(self.partials * m.m_hat(self.jump_times)))


def grad_smooth(F: SmoothFunctional, path: HawkesPath) -> MalliavinGradient:
    """Gradient of F at the realized path, from its exact partials: row 0 of
    F on the one-path block (`_smooth_blocks`)."""
    ((_, _, [(_, partials)]),) = _smooth_blocks(PathBatch.of(path), [("F", F)])
    return MalliavinGradient(path.jump_times, partials[0], path.horizon)


# ---------------------------------------------------------------------------
# xi kernel and the carre du champ
# ---------------------------------------------------------------------------

def xi_kernel(T: float, t_i, t_j):
    """xi(t_i, t_j) = t_i ^ t_j - t_i t_j / T, the H-inner product of the
    gradient shapes anchored at t_i and t_j."""
    a = np.asarray(t_i, dtype=float)
    b = np.asarray(t_j, dtype=float)
    if np.any(a < 0) or np.any(a > T) or np.any(b < 0) or np.any(b > T):
        raise ValueError(f"arguments must lie in [0, {T}]")
    out = np.minimum(a, b) - a * b / T
    return float(out) if out.ndim == 0 else out


def _bridge_coefficients(T: float, t: np.ndarray, prev: np.ndarray):
    """(a_j, sqrt(c_j)) of the Brownian-bridge factor Xi = L L^T of the xi
    kernel, for jumps at t_j whose previous jump (or 0) is prev_j.

    xi(s, t) = s ^ t - s t / T is the Brownian-bridge covariance, whose
    sequential construction B_{t_j} = a_j B_{t_{j-1}} + sqrt(c_j) Z_j
    (Glasserman, Monte Carlo Methods in Financial Engineering, 2003, 3.1)
    factors Xi = L L^T, with t_0 = 0,
    a_j = (T - t_j) / (T - t_{j-1}) and c_j = (t_j - t_{j-1}) a_j.  A jump
    at T gets c_j = 0, and so does a tie; jumps after one at T get
    a_j = 0, as the bridge is pinned there."""
    a = np.divide(T - t, T - prev, out=np.zeros_like(t), where=prev < T)
    return a, np.sqrt((t - prev) * a)


def _bridge_product(T: float, t: np.ndarray, c: np.ndarray) -> np.ndarray:
    """W = L^T c for sorted jump times t in [0, T] and coefficients c, by
    the O(n) recursion u_n = c_n, u_j = c_j + a_{j+1} u_{j+1},
    w_j = sqrt(c_j) u_j (`_bridge_coefficients`): c' Xi c = |W|^2 with no
    dense Gram."""
    if t[0] < 0.0 or t[-1] > T or np.any(np.diff(t) < 0.0):
        raise ValueError(f"jump times must be sorted in [0, {T}]")
    a, root_c = _bridge_coefficients(T, t, np.concatenate([[0.0], t[:-1]]))
    u = np.array(c, dtype=float)
    for j in range(t.size - 2, -1, -1):
        u[j] += a[j + 1] * u[j + 1]
    return root_c * u


def carre_du_champ(gF: MalliavinGradient, gG: MalliavinGradient) -> float:
    """Gamma[F, G] = sum_{ij} p_i q_j xi(T_i, T_j) = (L^T p) . (L^T q)
    (`_bridge_product`); both gradients must be taken on the same path."""
    if gF.horizon != gG.horizon or gF.jump_times.shape != gG.jump_times.shape:
        raise ValueError("gradients were taken on different paths")
    if gF.jump_times.size and not np.array_equal(gF.jump_times, gG.jump_times):
        raise ValueError("gradients were taken on different paths")
    t = gF.jump_times
    if t.size == 0:
        return 0.0
    T = gF.horizon
    return float(_bridge_product(T, t, gF.partials) @ _bridge_product(T, t, gG.partials))


def condition2_slack(T: float, times: np.ndarray, coeffs: np.ndarray) -> float:
    """Quadratic-form slack: c' Xi c = |L^T c|^2 (`_bridge_product`) minus
    the spacing lower bound (1/T) sum_k (t_k - t_{k-1})(t_{k+1} - t_k) c_k^2,
    with t_0 = 0 and t_{n+1} = T.  Nonnegative for every path and
    coefficient vector."""
    t = np.asarray(times, dtype=float)
    c = np.asarray(coeffs, dtype=float)
    if t.size != c.size:
        raise ValueError("times and coeffs must have the same length")
    if t.size == 0:
        return 0.0
    w = _bridge_product(T, t, c)
    quad = float(w @ w)
    padded = np.concatenate([[0.0], t, [T]])
    gaps_prev = np.diff(padded)[:-1]   # t_k - t_{k-1}
    gaps_next = np.diff(padded)[1:]    # t_{k+1} - t_k
    lower = float(np.sum(gaps_prev * gaps_next * c * c)) / T
    return quad - lower


# ---------------------------------------------------------------------------
# weight terms psi / Gamma1 / Gamma2
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WeightTerms:
    """Per-jump ingredients of the divergence: arrays indexed by jump
    ordinal j (empty for a path with no jumps)."""

    jump_times: np.ndarray
    psi_at_jump: np.ndarray
    gamma1_at_jump: np.ndarray
    gamma2_at_jump: np.ndarray
    m_at_jump: np.ndarray
    m_hat_at_jump: np.ndarray
    horizon: float


def weight_terms(
    model: HawkesModel, path: HawkesPath, m: CameronMartinFunction
) -> WeightTerms:
    """psi(m, T_j), Gamma1(T_j), Gamma2(T_j) and the direction samples at
    every jump of the path: the one row of its `weight_arrays` block."""
    _, _, psi, g1, g2, mv, mh = weight_arrays(model, PathBatch.of(path), m)
    return WeightTerms(path.jump_times, psi[0], g1[0], g2[0], mv[0], mh[0], path.horizon)


def divergence_m(model: HawkesModel, path: HawkesPath, m: CameronMartinFunction) -> float:
    """delta(m) = sum_j [psi(m,T_j) + m_hat(T_j)(Gamma1+Gamma2)(T_j) + m(T_j)]."""
    return float(divergence_m_batch(model, PathBatch.of(path), m)[0])


# ---------------------------------------------------------------------------
# change of measure Z^eps
# ---------------------------------------------------------------------------

def z_eps(model: HawkesModel, path: HawkesPath, m: CameronMartinFunction, eps: float) -> float:
    """Z^eps along one path (see `z_eps_batch`)."""
    return float(z_eps_batch(model, PathBatch.of(path), m, eps)[0])


def _check_horizon(m: CameronMartinFunction, T: float) -> None:
    """Refuse a direction built for another horizon: m_hat need not vanish at
    T, so on [0, T] it leaves H and every weight built on it is wrong."""
    if not abs(m.horizon - T) <= 1e-12:
        raise ValueError(f"direction horizon {m.horizon:g} does not match the batch horizon {T:g}")


def _truncated_direction(m: CameronMartinFunction, eps: float) -> CameronMartinFunction:
    """Clamp an unbounded direction at +-1/(3 eps), re-center so it stays in
    H, and rebuild the antiderivative on a dense grid: the clamped m is
    integrated over each grid panel by the segment engine's adaptive
    quadrature (`_segment_quad`), which resolves the clamp's kinks and
    evaluates m only inside the panels, and m_hat interpolates the running
    sums."""
    cap = 1.0 / (3.0 * eps)
    T = m.horizon
    grid = np.linspace(0.0, T, 8193)

    def clipped(t):
        return np.clip(np.asarray(m.m(t), dtype=float), -cap, cap)

    panels = _segment_quad(lambda _, u: clipped(u), grid[:-1], grid[1:])
    cum = np.concatenate(([0.0], np.cumsum(panels)))
    shift = cum[-1] / T

    def m_val(t):
        return clipped(t) - shift

    def m_hat(t):
        t = np.asarray(t, dtype=float)
        return np.interp(t, grid, cum) - shift * t

    return CameronMartinFunction(T, m_val, m_hat, sup_m=cap + abs(shift))


# ---------------------------------------------------------------------------
# basis projection
# ---------------------------------------------------------------------------

def basis_projection_check(gradient: MalliavinGradient, K: int) -> float:
    """L2 residual of projecting D_sF on the first K cosine + K sine
    directions (each integrates to zero on [0,T]).  DF integrates to zero,
    so the family is asymptotically complete for it and the residual is
    nonincreasing in K."""
    if K < 0:
        raise ValueError("K must be >= 0")
    total_sq = carre_du_champ(gradient, gradient)
    t = gradient.jump_times
    if t.size == 0 or K == 0:
        return math.sqrt(max(total_sq, 0.0))
    T = gradient.horizon
    k = np.arange(1, K + 1, dtype=float)
    scale = math.sqrt(2.0 / T) * (T / (2.0 * math.pi)) / k  # (K,)
    ang = 2.0 * math.pi * np.outer(k, t) / T                # (K, n)
    # <DF, m_i> = -sum_j p_j m_hat_i(T_j)
    coeff_cos = -(scale[:, None] * np.sin(ang)) @ gradient.partials
    coeff_sin = -(scale[:, None] * (1.0 - np.cos(ang))) @ gradient.partials
    proj_sq = float(np.sum(coeff_cos**2) + np.sum(coeff_sin**2))
    return math.sqrt(max(total_sq - proj_sq, 0.0))


# ---------------------------------------------------------------------------
# the block engine: every model, on the padded (P, K) block
# ---------------------------------------------------------------------------

def weight_arrays(model: HawkesModel, batch: PathBatch, m: CameronMartinFunction):
    """psi, Gamma1, Gamma2 and the direction samples at every jump of a
    batch, for any kernel and nonlinearity: returns (times, mask, psi,
    gamma1, gamma2, m_at, m_hat_at) as padded (n_paths, K) arrays whose
    padded slots hold the horizon (mask them out).  m must have the
    batch's horizon.

    The excitation sums and Gamma2 come from the excitation engine
    (`_excitation_sums`, `_excitation_gamma2`), which picks each one's route.
    """
    T = batch.horizon
    _check_horizon(m, T)
    gam = model.nonlinearity
    times, mask = padded_jumps(batch)
    if times.shape[1] == 0:
        empty = np.zeros_like(times)
        return times, mask, empty, empty, empty, empty, empty

    m_hat_at = np.asarray(m.m_hat(times), dtype=float)
    m_at = np.asarray(m.m(times), dtype=float)
    S, cross = _excitation_sums(model, times, batch.counts(), m_hat_at)
    lam_star = model.baseline.value(times) + gam.value(S)
    psi = (m_hat_at * model.baseline.derivative(times) + gam.derivative(S) * cross) / lam_star
    gamma1 = gam.value(float(model.kernel.mu(np.float64(0.0))) + S) - gam.value(S)
    gamma2 = _excitation_gamma2(model, times, T, S)
    return times, mask, psi, gamma1, gamma2, m_at, m_hat_at


def _divergence_rows(mask, psi, gamma1, gamma2, m_at, m_hat_at) -> np.ndarray:
    """delta = sum_j [psi + m_hat (Gamma1 + Gamma2) + m] per row of a
    `weight_arrays` block."""
    return _row_sums(psi + m_hat_at * (gamma1 + gamma2) + m_at, mask)


def divergence_m_batch(model: HawkesModel, batch: PathBatch, m: CameronMartinFunction) -> np.ndarray:
    """delta(m) for every path of a batch, from the `weight_arrays` of its
    `_path_blocks`."""
    out = np.empty(batch.n_paths)
    for idx, block in _path_blocks(batch):
        out[idx] = _divergence_rows(*weight_arrays(model, block, m)[1:])
    return out


def z_eps_batch(model: HawkesModel, batch: PathBatch, m: CameronMartinFunction, eps) -> np.ndarray:
    """Z^eps for every path: the density ratio under the time shift
    Phi_eps(u) = u + eps m_hat(u), times prod_i (1 + eps m(T_i)).  eps is
    one value, giving (n_paths,), or a sequence of E values, giving
    (E, n_paths) whose rows have the bits of one-value calls.

    Bounded m requires eps sup|m| < 1/3 (no truncation needed); an
    unbounded direction is clamped at +-1/(3 eps) and re-centered, once per
    eps and batch.  log kappa of the E shifted copies and of the unshifted
    jumps comes from one stacked ((E+1)B, K) block of each of the
    `_path_blocks` through the density's `_log_kappa_parts`, so every eps
    shares the unshifted rows, and a bounded m's samples at the jumps; the
    baseline integral is left out, as it cancels in the ratio.  m must have
    the batch's horizon, and eps must not be empty: both are refused before
    any work.
    """
    _check_horizon(m, batch.horizon)
    eps_values = [float(e) for e in np.atleast_1d(eps)]
    if not eps_values:
        raise ValueError("eps is empty: there is no Z^eps to compute")
    directions = []
    for e in eps_values:
        if not 0.0 < e < math.inf:
            raise ValueError(f"eps must be positive and finite, got {e}")
        if not m.bounded:
            directions.append(_truncated_direction(m, e))
        elif not e * m.sup_m < 1.0 / 3.0:
            raise AssumptionError(f"eps * sup|m| = {e * m.sup_m:.3g} must stay below 1/3")
        else:
            directions.append(m)

    T = batch.horizon
    E = len(eps_values)
    distinct = {id(d): d for d in directions}  # a bounded m is every eps's direction
    out = np.empty((E, batch.n_paths))
    for idx, block in _path_blocks(batch, lambda K: (E + 1) * K):
        times, mask = padded_jumps(block)
        at = {
            key: (np.asarray(d.m_hat(times), dtype=float), np.asarray(d.m(times), dtype=float))
            for key, d in distinct.items()
        }
        shifted = [
            np.where(mask, times + e * at[id(d)][0], T) for e, d in zip(eps_values, directions)
        ]
        log_prod, exc = _log_kappa_parts(
            model, np.concatenate(shifted + [times]), np.tile(block.counts(), E + 1), T
        )
        log_kappa = (log_prod - exc).reshape(E + 1, idx.size)
        for row, e, d, lk in zip(out, eps_values, directions, log_kappa):
            log_jac = _row_sums(np.log1p(e * at[id(d)][1]), mask)
            row[idx] = np.exp(lk - log_kappa[E] + log_jac)
    return out if np.ndim(eps) else out[0]
