"""Cross-validation harness: mean-intensity Volterra check, shift-family
unit-mass check, and integration-by-parts checks, each returning a report
whose statistics pass at |z| <= 3 and which is reproducible bit-exactly
from (inputs digest, master seed)."""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .greeks import UnsupportedModelError, mc_estimate
from .malliavin import (
    CameronMartinFunction,
    SmoothFunctional,
    _divergence_rows,
    _smooth_blocks,
    capped_jump_time,
    compose_smooth,
    divergence_m_batch,  # noqa: F401  bench/layers.py traces experiments.divergence_m_batch
    grad_smooth,  # noqa: F401  bench/layers.py traces experiments.grad_smooth
    product_smooth,
    weight_arrays,
    z_eps_batch,
)
from .model import AssumptionError, HawkesModel, _reference_cache, _row_sums
from .simulate import PathBatch, _path_blocks, padded_jumps

_Z_THRESHOLD = 3.0
_VOLTERRA_STEPS = 2048


# ---- report plumbing ----

@dataclass(frozen=True)
class ReportRow:
    label: str
    estimate: float
    reference: float
    std_error: float
    z: float
    passed: bool


@dataclass(frozen=True)
class ExperimentReport:
    name: str
    digest: str
    rows: Tuple[ReportRow, ...]
    passed: bool
    diagnostics: Tuple[Tuple[str, float], ...] = ()


def inputs_digest(**parts) -> str:
    """12-hex digest of the canonicalized inputs (sorted key=value pairs)."""
    canon = ";".join(f"{k}={parts[k]!r}" for k in sorted(parts))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


def _row(label: str, estimate: float, reference: float, se: float) -> ReportRow:
    if se > 0.0:
        z = (estimate - reference) / se
    else:
        z = 0.0 if estimate == reference else math.copysign(math.inf, estimate - reference)
    return ReportRow(
        label=label,
        estimate=float(estimate),
        reference=float(reference),
        std_error=float(se),
        z=float(z),
        passed=bool(abs(z) <= _Z_THRESHOLD),
    )


def _finish(name: str, digest: str, rows, diagnostics=()) -> ExperimentReport:
    """The report of `rows`; refuses an empty row set, which would pass
    having checked nothing."""
    rows = tuple(rows)
    if not rows:
        raise ValueError(f"{name}: no rows to check")
    return ExperimentReport(
        name=name,
        digest=digest,
        rows=rows,
        passed=all(r.passed for r in rows),
        diagnostics=tuple(diagnostics),
    )


def _refuse_empty(name: str, what: str, items) -> None:
    """Refuse an empty `what` before any work: the check would pass having
    checked nothing (`_finish` refuses an empty row set as well)."""
    if len(items) == 0:
        raise ValueError(f"{name}: no rows to check, {what} is empty")


def _batch_digest(model: HawkesModel, batch: PathBatch, **extra) -> str:
    return inputs_digest(
        model=model.digest_key(),
        horizon=batch.horizon,
        master_seed=batch.master_seed,
        first_index=batch.first_index,
        n_paths=batch.n_paths,
        **extra,
    )


def _direction_key(m: CameronMartinFunction) -> tuple:
    """Deterministic fingerprint of a direction: m sampled on a fixed grid."""
    probe = np.linspace(0.0, m.horizon, 9)
    return tuple(float(v) for v in np.asarray(m.m(probe), dtype=float))


# ---- mean intensity via the Volterra equation ----

# Entries the Volterra cache keeps, least recently used dropped first: a
# mean-intensity check fills two, at n_steps and 2 n_steps, for its
# (model, T).  An entry is a grid and g, 16 (n_steps + 1) bytes (98 KB for
# the two of the default 2 048 steps).
_VOLTERRA_CACHE_SIZE = 8


@_reference_cache(_VOLTERRA_CACHE_SIZE)
def volterra_mean_intensity(model: HawkesModel, T: float, n_steps: int):
    """Solve g(s) = lambda_s + int_0^s mu(s-t) g(t) dt on a uniform grid.

    Product trapezoidal rule:
    g_k = [lambda_k + h(mu_k g_0 / 2 + sum_{j=1}^{k-1} mu_{k-j} g_j)]
          / (1 - h mu_0 / 2).
    Returns (grid, g), cached per (model, T, n_steps) and read-only.  The
    mean conditional intensity solves this equation for linear models only.
    """
    if not model.nonlinearity.is_linear():
        raise UnsupportedModelError("the mean-intensity equation needs linear gamma")
    if n_steps < 2:
        raise ValueError("n_steps must be >= 2")
    h = T / n_steps
    s = np.linspace(0.0, T, n_steps + 1)
    lam = np.asarray(model.baseline.value(s), dtype=float)
    mu = np.asarray(model.kernel.mu(s), dtype=float)
    denom = 1.0 - h * float(mu[0]) / 2.0
    if denom <= 0.0:
        raise AssumptionError("grid too coarse for the product trapezoidal rule")
    g = np.empty(n_steps + 1)
    g[0] = lam[0]
    # rev[n - j] = mu[j]: the convolution's mu[k-1], ..., mu[1] are the
    # contiguous rev[n - k + 1:n], which np.dot takes with no copy; the
    # recurrence runs in Python floats, the same IEEE arithmetic as numpy's
    # scalars at a fraction of their cost
    rev = mu[::-1].copy()
    mu_f, lam_f, g0 = mu.tolist(), lam.tolist(), float(g[0])
    for k in range(1, n_steps + 1):
        conv = 0.5 * mu_f[k] * g0
        if k > 1:
            conv += float(np.dot(rev[n_steps - k + 1:n_steps], g[1:k]))
        g[k] = (lam_f[k] + h * conv) / denom
    return s, g


def mean_intensity_batch(model: HawkesModel, batch: PathBatch, grid) -> np.ndarray:
    """Per-path lambda*(s) at each grid point, shape (n_grid, n_paths), over
    the batch's `_path_blocks`.

    Each grid point adds its excitation terms along the contiguous
    jump-ordinal rows of the block's (K, B) transpose, in jump order from
    0.0 as `model.excitation` adds a row, and stops after the last ordinal
    with any jump before s: the rows' minima are nondecreasing, so every
    later term is an exact 0 (padding equals the horizon, so it never
    counts)."""
    grid = np.asarray(grid, dtype=float)
    base = [float(model.baseline.value(np.float64(s))) for s in grid]
    out = np.empty((grid.size, batch.n_paths))
    for idx, block in _path_blocks(batch):
        tt = np.ascontiguousarray(padded_jumps(block)[0].T)
        earliest = tt.min(axis=1)
        for i, s in enumerate(grid):
            rows = tt[:np.searchsorted(earliest, s)]
            exc = model.excitation(rows.T, s)
            out[i, idx] = base[i] + np.asarray(model.nonlinearity.value(exc), dtype=float)
    return out


def mean_intensity_check(
    model: HawkesModel,
    batch: PathBatch,
    grid=None,
    n_steps: int = _VOLTERRA_STEPS,
) -> ExperimentReport:
    """MC mean of lambda*(s) against the Volterra solution on a grid.

    Solves at step T/n_steps and T/(2 n_steps); the discretization bound
    max|g_h - g_{h/2}|/3 (order-2 Richardson) is reported alongside.
    """
    T = batch.horizon
    if grid is None:
        grid = np.linspace(0.0, T, 33)[1:]
    grid = np.asarray(grid, dtype=float)
    _refuse_empty("mean-intensity", "grid", grid)
    if not np.all((grid >= 0.0) & (grid <= T)):
        raise ValueError(f"grid points must lie in [0, T] = [0, {T:g}]; the reference stops at T")
    s_coarse, g_coarse = volterra_mean_intensity(model, T, n_steps)
    s_fine, g_fine = volterra_mean_intensity(model, T, 2 * n_steps)
    bound = float(np.max(np.abs(g_fine[::2] - g_coarse))) / 3.0
    reference = np.interp(grid, s_fine, g_fine)
    values = mean_intensity_batch(model, batch, grid)
    rows = []
    for i, s in enumerate(grid):
        mean, se, _ = mc_estimate(values[i])
        rows.append(_row(f"s={s:.6g}", mean, float(reference[i]), se))
    digest = _batch_digest(
        model, batch, grid=tuple(float(s) for s in grid), n_steps=n_steps
    )
    return _finish(
        "mean-intensity",
        digest,
        rows,
        diagnostics=(
            ("volterra_bound", bound),
            ("volterra_steps", float(2 * n_steps)),
        ),
    )


# ---- unit mass of the shifted-path likelihood family ----

def unit_mass_check(
    model: HawkesModel,
    batch: PathBatch,
    m: Optional[CameronMartinFunction] = None,
    eps_values: Sequence[float] = (1e-1, 1e-2, 1e-3),
) -> ExperimentReport:
    """E[Z^eps] = 1 for each eps, at 3 standard errors; one `z_eps_batch`
    walk of the batch serves every eps."""
    _refuse_empty("unit-mass", "eps_values", eps_values)
    if m is None:
        m = CameronMartinFunction.default(batch.horizon)
    rows = []
    z_rows = z_eps_batch(model, batch, m, [float(eps) for eps in eps_values])
    for eps, z_vals in zip(eps_values, z_rows):
        mean, se, _ = mc_estimate(z_vals)
        rows.append(_row(f"eps={eps:g}", mean, 1.0, se))
    digest = _batch_digest(
        model, batch, direction=_direction_key(m), eps=tuple(float(e) for e in eps_values)
    )
    return _finish("unit-mass", digest, rows)


# ---- integration by parts on the smooth catalog ----

def smooth_catalog() -> Tuple[Tuple[str, SmoothFunctional], ...]:
    """Functionals with exact gradients used by the duality check, on padded
    blocks of jump times (see SmoothFunctional)."""
    one = SmoothFunctional(
        value=lambda times, T: np.ones(times.shape[0]),
        partials=lambda times, T: np.zeros(times.shape),
    )
    t1 = capped_jump_time(1)
    return (
        ("1", one),
        ("T1", t1),
        ("exp(-T1)", compose_smooth(lambda x: np.exp(-x), lambda x: -np.exp(-x), t1)),
        ("T1*T2", product_smooth(t1, capped_jump_time(2))),
    )


def _ibp_differences(
    model: HawkesModel, batch: PathBatch, m: CameronMartinFunction, catalog
) -> np.ndarray:
    """<DF, m> - F delta(m) per catalog entry and path, shaped (entries, P).

    One walk over the batch's blocks, each catalog entry evaluated once on
    the padded (B, K) jump-time block (`_smooth_blocks`, which refuses an
    unsupported jump count before any weight work); each block's
    `weight_arrays` give delta(m) (`_divergence_rows`) and m_hat at the
    jumps, and <DF, m> = -sum_j dF/dt_j m_hat(T_j) is a masked `_row_sums`.
    """
    out = np.empty((len(catalog), batch.n_paths))
    for idx, block, rows in _smooth_blocks(batch, catalog):
        _, mask, *terms = weight_arrays(model, block, m)
        delta, m_hat = _divergence_rows(mask, *terms), terms[-1]
        for row, (values, partials) in zip(out, rows):
            row[idx] = -_row_sums(partials * m_hat, mask) - values * delta
    return out


def ibp_check(
    model: HawkesModel,
    batch: PathBatch,
    m: Optional[CameronMartinFunction] = None,
    catalog=None,
) -> ExperimentReport:
    """Paired z-scores of E[D_m F - F delta(m)] = 0 per catalog entry (see
    `_ibp_differences`)."""
    if m is None:
        m = CameronMartinFunction.default(batch.horizon)
    if catalog is None:
        catalog = smooth_catalog()
    _refuse_empty("ibp", "catalog", catalog)
    rows = []
    for (label, _), diffs in zip(catalog, _ibp_differences(model, batch, m, catalog)):
        mean, se, _ = mc_estimate(diffs)
        rows.append(_row(f"F={label}", mean, 0.0, se))
    digest = _batch_digest(
        model, batch, direction=_direction_key(m), catalog=tuple(label for label, _ in catalog)
    )
    return _finish("ibp", digest, rows)
