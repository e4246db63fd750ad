"""Hawkes model ingredients: baseline, excitation kernel, nonlinearity.

A nonlinear Hawkes process on [0, T] has conditional intensity

    lambda*(s; t_1..t_n) = lambda_s + gamma( sum_{t_i < s} mu(s - t_i) )

where only strictly earlier jumps contribute (left-limit convention at
s = t_i).  The standing assumptions are: lambda_t >= lambda_* > 0 with
bounded derivative; mu >= 0, C^1 with bounded derivative and finite L1
norm; gamma nonnegative, C^1 with bounded derivative a = sup|gamma'| and
gamma(0) = 0; and the stability margin a*||mu||_1 < 1.

All spec objects here are immutable after construction and safe to share
across threads.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "AssumptionError",
    "InternalError",
    "KernelSpec",
    "BaselineSpec",
    "NonlinearitySpec",
    "HawkesModel",
    "ValidationReport",
    "validate_assumptions",
    "intensity",
    "strict_lags",
    "kernel_tail_mass",
]

# Lags at which a custom kernel's mu and mu_hat fingerprint its shape.
_KERNEL_PROBE = np.array([0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])


class AssumptionError(ValueError):
    """A model clause required by the standing assumptions fails."""


class InternalError(RuntimeError):
    """An internal invariant failed: a fault of the program, not of the
    model, the config or the data."""


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Excitation kernel mu on [0, inf).

    Use :meth:`exponential` or :meth:`custom`; the constructor is not meant
    to be called directly.  ``mu_hat`` is the antiderivative of mu from 0,
    so that the linear-case compensator stays in closed form.
    """

    family: str
    mu: Callable[[np.ndarray], np.ndarray]
    mu_prime: Callable[[np.ndarray], np.ndarray]
    mu_hat: Callable[[np.ndarray], np.ndarray]
    l1_norm: float
    sup_norm: float
    sup_deriv: float
    alpha: Optional[float] = None
    beta: Optional[float] = None
    # Decreasing kernels make the thinning envelope exact; without this
    # promise `simulate._check_simulable` refuses a custom kernel with
    # AssumptionError (exit 3 on the command line).
    nonincreasing: bool = False

    @staticmethod
    def exponential(alpha: float, beta: float) -> "KernelSpec":
        """mu(t) = alpha * exp(-beta t); alpha >= 0, beta > 0."""
        if alpha < 0:
            raise AssumptionError(f"exponential kernel needs alpha >= 0, got {alpha}")
        if beta <= 0:
            raise AssumptionError(f"exponential kernel needs beta > 0, got {beta}")
        a, b = float(alpha), float(beta)
        return KernelSpec(
            family="exponential",
            mu=lambda t: a * np.exp(-b * np.asarray(t, dtype=float)),
            mu_prime=lambda t: -a * b * np.exp(-b * np.asarray(t, dtype=float)),
            mu_hat=lambda t: (a / b) * (-np.expm1(-b * np.asarray(t, dtype=float))),
            l1_norm=a / b,
            sup_norm=a,
            sup_deriv=a * b,
            alpha=a,
            beta=b,
            nonincreasing=True,
        )

    @staticmethod
    def custom(
        mu: Callable,
        mu_prime: Callable,
        mu_hat: Callable,
        l1_norm: float,
        sup_norm: float,
        sup_deriv: float,
        nonincreasing: bool = False,
    ) -> "KernelSpec":
        """Custom kernel; the antiderivative and norms must be supplied
        explicitly (no auto-integration -- closed forms keep the linear-case
        compensator exact)."""
        if l1_norm < 0 or sup_norm < 0 or sup_deriv < 0:
            raise AssumptionError("kernel norms must be nonnegative")
        return KernelSpec(
            family="custom",
            mu=mu,
            mu_prime=mu_prime,
            mu_hat=mu_hat,
            l1_norm=float(l1_norm),
            sup_norm=float(sup_norm),
            sup_deriv=float(sup_deriv),
            nonincreasing=nonincreasing,
        )

    def is_null(self) -> bool:
        """True when mu is identically zero (Poisson reduction)."""
        return self.sup_norm == 0.0


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaselineSpec:
    """Deterministic baseline intensity lambda_t on [0, T]."""

    family: str
    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    integral: Callable[[np.ndarray], np.ndarray]  # int_0^t lambda_s ds
    lower_bound: float  # lambda_* over [0, horizon]
    params: tuple = ()

    @staticmethod
    def constant(lam: float) -> "BaselineSpec":
        lam = float(lam)
        if lam <= 0:
            raise AssumptionError(f"constant baseline must be positive, got {lam}")
        return BaselineSpec(
            family="constant",
            value=lambda t: np.full_like(np.asarray(t, dtype=float), lam),
            derivative=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
            integral=lambda t: lam * np.asarray(t, dtype=float),
            lower_bound=lam,
            params=(lam,),
        )

    @staticmethod
    def affine(lam0: float, slope: float, horizon: float) -> "BaselineSpec":
        """lambda_t = lam0 + slope * t; must stay positive on [0, horizon]."""
        lam0, slope, horizon = float(lam0), float(slope), float(horizon)
        lo = min(lam0, lam0 + slope * horizon)
        if lo <= 0:
            raise AssumptionError(
                f"affine baseline dips to {lo} on [0, {horizon}]; must stay > 0"
            )
        return BaselineSpec(
            family="affine",
            value=lambda t: lam0 + slope * np.asarray(t, dtype=float),
            derivative=lambda t: np.full_like(np.asarray(t, dtype=float), slope),
            integral=lambda t: (lam0 + 0.5 * slope * np.asarray(t, dtype=float))
            * np.asarray(t, dtype=float),
            lower_bound=lo,
            params=(lam0, slope, horizon),
        )

    @staticmethod
    def sinusoidal(lam0: float, amp: float, period: float) -> "BaselineSpec":
        """lambda_t = lam0 + amp * sin(2 pi t / period)."""
        lam0, amp, period = float(lam0), float(amp), float(period)
        if period <= 0:
            raise AssumptionError("sinusoidal baseline needs period > 0")
        lo = lam0 - abs(amp)
        if lo <= 0:
            raise AssumptionError(
                f"sinusoidal baseline lower bound {lo} must be positive"
            )
        w = 2.0 * math.pi / period
        return BaselineSpec(
            family="sinusoidal",
            value=lambda t: lam0 + amp * np.sin(w * np.asarray(t, dtype=float)),
            derivative=lambda t: amp * w * np.cos(w * np.asarray(t, dtype=float)),
            integral=lambda t: lam0 * np.asarray(t, dtype=float)
            + (amp / w) * (1.0 - np.cos(w * np.asarray(t, dtype=float))),
            lower_bound=lo,
            params=(lam0, amp, period),
        )

    def sup_on(self, a, b) -> np.ndarray:
        """Exact sup of lambda_t over [a, b] per family (vectorized in a).

        Used by the thinning envelope; must be a true upper bound.
        """
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if self.family == "constant":
            return np.broadcast_to(np.float64(self.params[0]), a.shape).copy()
        if self.family == "affine":
            slope = self.params[1]
            end = b if slope >= 0 else a
            return np.asarray(self.value(end), dtype=float)
        if self.family == "sinusoidal":
            # lam0 + amp sin(w t) peaks at the crest lam0 + |amp| on an
            # interval that spans a period or holds a crest phase, and at the
            # larger end value otherwise
            lam0, amp, period = self.params
            w = 2.0 * math.pi / period
            # phase (w t - pi/2) mod 2pi == 0 marks a crest of +amp (trough for amp<0)
            crest_phase = (math.pi / 2.0) if amp >= 0 else (3.0 * math.pi / 2.0)
            k_lo = np.ceil((w * a - crest_phase) / (2.0 * math.pi))
            t_crest = (crest_phase + 2.0 * math.pi * k_lo) / w
            inside = (t_crest >= a) & (t_crest <= b)
            ends = np.maximum(self.value(a), self.value(b))
            return np.where(((b - a) >= period) | inside, lam0 + abs(amp), ends)
        raise NotImplementedError(self.family)

    def sup_upper(self, horizon: float) -> float:
        """lambda^T = sup_{[0,T]} lambda_t, the exact family maximum
        (`sup_on`)."""
        return float(self.sup_on(0.0, horizon))


# ---------------------------------------------------------------------------
# nonlinearity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearitySpec:
    """gamma wrapping the excitation sum; gamma(0) = 0, nondecreasing.

    Both built-in families have Lipschitz constant a = 1.  Monotonicity is
    required by the thinning simulator's envelope argument (not by the
    underlying assumptions).
    """

    family: str
    value: Callable[[np.ndarray], np.ndarray]
    derivative: Callable[[np.ndarray], np.ndarray]
    lipschitz: float
    monotone: bool = True
    params: tuple = ()

    @staticmethod
    def linear() -> "NonlinearitySpec":
        return NonlinearitySpec(
            family="linear",
            value=lambda x: np.asarray(x, dtype=float),
            derivative=lambda x: np.ones_like(np.asarray(x, dtype=float)),
            lipschitz=1.0,
        )

    @staticmethod
    def saturating_tanh(cap: float) -> "NonlinearitySpec":
        """gamma(x) = c * tanh(x / c); saturates at c, gamma'(0) = 1."""
        cap = float(cap)
        if cap <= 0:
            raise AssumptionError(f"saturating cap must be positive, got {cap}")

        def derivative(x):
            # cosh^2 overflows to inf past |x / c| ~ 355, where sech^2 has
            # underflowed to 0 anyway: 1/inf gives that 0, without a warning
            with np.errstate(over="ignore"):
                return 1.0 / np.cosh(np.asarray(x, dtype=float) / cap) ** 2

        return NonlinearitySpec(
            family="saturating_tanh",
            value=lambda x: cap * np.tanh(np.asarray(x, dtype=float) / cap),
            derivative=derivative,
            lipschitz=1.0,
            params=(cap,),
        )

    def is_linear(self) -> bool:
        return self.family == "linear"


# ---------------------------------------------------------------------------
# model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ValidationReport:
    baseline_positive: bool
    kernel_ok: bool
    gamma_zero_at_zero: bool
    stable: bool
    margin: float

    def all_pass(self) -> bool:
        return (
            self.baseline_positive
            and self.kernel_ok
            and self.gamma_zero_at_zero
            and self.stable
        )


@dataclass(frozen=True)
class HawkesModel:
    baseline: BaselineSpec
    kernel: KernelSpec
    nonlinearity: NonlinearitySpec

    def __post_init__(self):
        report = validate_assumptions(self)
        if not report.all_pass():
            raise AssumptionError(
                "model violates the standing assumptions: "
                f"baseline_positive={report.baseline_positive}, "
                f"kernel_ok={report.kernel_ok}, "
                f"gamma_zero={report.gamma_zero_at_zero}, "
                f"stable={report.stable} "
                f"(a*||mu||_1 = {self.nonlinearity.lipschitz * self.kernel.l1_norm:.6g})"
            )

    def excitation(self, jump_times: np.ndarray, s) -> np.ndarray:
        """sum_{t_i < s} mu(s - t_i), vectorized in s (strict inequality),
        added in jump order as a batch row is (`_row_sums`)."""
        return _row_sums(strict_lags(self.kernel.mu, jump_times, s))

    def digest_key(self) -> tuple:
        """Hashable identity for report digests; it ends with the
        nonlinearity's parameters (none for the linear family) and, for a
        custom kernel, with mu and mu_hat sampled on a fixed probe grid.
        `_reference_cache` keys a model by this key and, for a custom
        kernel, the kernel's callables."""
        key = (
            self.baseline.family,
            self.baseline.params,
            self.kernel.family,
            self.kernel.alpha,
            self.kernel.beta,
            self.kernel.l1_norm,
            self.nonlinearity.family,
            self.nonlinearity.lipschitz,
            *self.nonlinearity.params,
        )
        if self.kernel.family == "custom":
            key += tuple(
                float(v)
                for fn in (self.kernel.mu, self.kernel.mu_hat)
                for v in np.asarray(fn(_KERNEL_PROBE), dtype=float)
            )
        return key


@dataclass(frozen=True)
class _ModelKey:
    """A model as `_reference_cache` keys it: compared and hashed by
    `identity` alone, so equal models built apart share entries."""

    identity: tuple
    model: HawkesModel = field(compare=False)


# Bytes of arrays one cache entry may hold: a value over it is handed out
# read-only but not kept, so each cache holds at most maxsize * 2 MiB.
_CACHE_ENTRY_BYTES = 2 << 20


class _Unkept(Exception):
    """Carries its one argument, a value not to keep, past
    `functools.lru_cache`, which keeps no call that raises."""


def _arrays(value) -> list:
    """The numpy arrays of a value: itself, the items of a tuple or the
    fields of a dataclass such as a `PathBatch`."""
    if isinstance(value, tuple):
        items = value
    elif is_dataclass(value):
        items = [getattr(value, f.name) for f in fields(value)]
    else:
        items = (value,)
    return [a for a in items if isinstance(a, np.ndarray)]


def _reference_cache(maxsize: int):
    """Cache fn(model, *args, **kwargs), a pure function of its arguments,
    in an lru_cache of `maxsize` entries, least recently used dropped first.
    The model is keyed by its digest key and, for a custom kernel, the
    kernel itself with its callables, which can differ off the digest's
    probe grid; the rest of the call as bound to fn's signature, defaults
    filled in and a numpy scalar made the Python scalar it holds, so every
    form of a call shares one entry.  Every array returned, alone, in a
    tuple or as a dataclass field, is read-only; a value whose arrays hold
    more than _CACHE_ENTRY_BYTES is returned but not kept.  `cache_info`
    and `cache_clear` are lru_cache's, and `__wrapped__` is fn, uncached."""

    def decorate(fn):
        signature = inspect.signature(fn)

        @functools.lru_cache(maxsize=maxsize)
        def cached(key: _ModelKey, *args, **kwargs):
            value = fn(key.model, *args, **kwargs)
            arrays = _arrays(value)
            for a in arrays:
                a.flags.writeable = False
            if sum(a.nbytes for a in arrays) > _CACHE_ENTRY_BYTES:
                raise _Unkept(value)
            return value

        @functools.wraps(fn)
        def reference(model: HawkesModel, *args, **kwargs):
            call = signature.bind(model, *args, **kwargs)
            call.apply_defaults()
            custom = (model.kernel,) if model.kernel.family == "custom" else ()
            args = (a.item() if isinstance(a, (np.ndarray, np.generic)) and a.ndim == 0 else a
                    for a in call.args[1:])
            try:
                return cached(_ModelKey(model.digest_key() + custom, model), *args, **call.kwargs)
            except _Unkept as unkept:
                return unkept.args[0]

        reference.cache_info = cached.cache_info
        reference.cache_clear = cached.cache_clear
        return reference

    return decorate


def validate_assumptions(model: HawkesModel) -> ValidationReport:
    """Per-clause check of the standing assumptions.

    Returns a report; constructors use it to reject bad models.  The margin
    reported is 1 - a*||mu||_1 (positive iff stable).
    """
    k = model.kernel
    gamma0 = float(model.nonlinearity.value(np.float64(0.0)))
    margin = 1.0 - model.nonlinearity.lipschitz * k.l1_norm
    kernel_ok = (
        math.isfinite(k.l1_norm)
        and math.isfinite(k.sup_deriv)
        and k.l1_norm >= 0
        and float(k.mu(np.float64(0.0))) >= 0
    )
    return ValidationReport(
        baseline_positive=model.baseline.lower_bound > 0,
        kernel_ok=kernel_ok,
        gamma_zero_at_zero=abs(gamma0) < 1e-14,
        stable=margin > 0,
        margin=margin,
    )


def intensity(model: HawkesModel, jump_times, s):
    """Conditional intensity lambda*(s; t_1..t_n).

    Only jumps strictly before s contribute; evaluating exactly at a jump
    time gives the left limit (the pre-jump intensity).  Vectorized in s.
    """
    t = np.asarray(jump_times, dtype=float)
    if t.size > 1 and np.any(np.diff(t) < 0):
        raise ValueError("jump_times must be sorted increasingly")
    s_arr = np.asarray(s, dtype=float)
    lam = model.baseline.value(s_arr) + model.nonlinearity.value(
        model.excitation(t, s_arr)
    )
    return float(lam) if np.isscalar(s) or np.ndim(s) == 0 else lam


def strict_lags(fn, jump_times, s) -> np.ndarray:
    """fn(s - t_i) where t_i < s and 0 elsewhere, shaped s.shape + (n,) and
    broadcast against `jump_times`: only strictly earlier jumps count, so
    its sum over the last axis with fn = mu is the pre-jump excitation."""
    lag = np.asarray(s, dtype=float)[..., None] - np.asarray(jump_times, dtype=float)
    return np.where(lag > 0.0, fn(np.maximum(lag, 0.0)), 0.0)


def _row_sums(x, mask=None) -> np.ndarray:
    """Sums over the last axis, each row's cells added one at a time in
    order from cell 0; cells outside `mask` (broadcast against x) count as
    0.  Zeros after a row's last real cell leave its sum as it is, so a
    path's sum has the same bits at any padded width, where numpy's
    pairwise `.sum` would regroup its cells by the width.  One column a
    step: unlike `np.cumsum`, no temporary as large as x."""
    x = np.asarray(x, dtype=float)
    if mask is not None:
        x = np.where(mask, x, 0.0)
    out = np.zeros(x.shape[:-1])
    for j in range(x.shape[-1]):
        out += x[..., j]
    return out


def kernel_tail_mass(model: HawkesModel, start: float) -> float:
    """int_start^inf mu = ||mu||_1 - mu_hat(start)."""
    if start < 0:
        raise ValueError(f"tail mass start must be >= 0, got {start}")
    return float(model.kernel.l1_norm - model.kernel.mu_hat(np.float64(start)))
