"""Hawkes model ingredients: baseline, excitation kernel, nonlinearity.

A nonlinear Hawkes process on [0, T] has conditional intensity

    lambda*(s; t_1..t_n) = lambda_s + gamma( sum_{t_i < s} mu(s - t_i) )

where only strictly earlier jumps contribute (left-limit convention at
s = t_i).  The standing assumptions are: lambda_t >= lambda_* > 0 with
bounded derivative; mu >= 0, C^1 with bounded derivative and finite L1
norm; gamma nonnegative, C^1 with bounded derivative a = sup|gamma'| and
gamma(0) = 0; and the stability margin a*||mu||_1 < 1.

Each spec is a frozen dataclass of its family and parameters (and a
custom kernel's functions), whence every method, so a model's own
equality and hash are its identity.  All spec objects here are immutable
after construction and safe to share across threads.
"""
from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, fields, is_dataclass
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


def _set_params(spec, kind: str, arity: dict) -> None:
    """Store a spec's `params` as a tuple of floats, or refuse the spec with
    AssumptionError if `arity` has no such family or another params count."""
    family, params = spec.family, spec.params
    if family not in arity:
        raise AssumptionError(f"unknown {kind} family {family!r}")
    if len(params) != arity[family]:
        raise AssumptionError(f"{family} {kind} takes {arity[family]} parameters, got {len(params)}")
    object.__setattr__(spec, "params", tuple(float(v) for v in params))


# ---------------------------------------------------------------------------
# kernel
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSpec:
    """Excitation kernel mu on [0, inf).  An exponential kernel is its
    `params` (alpha, beta), whence mu, mu_prime, the norms and ``mu_hat``,
    the antiderivative from 0 that keeps the linear-case compensator in
    closed form.  A custom kernel carries (mu, mu_prime, mu_hat) in
    `functions`, compared as objects, and (l1_norm, sup_norm, sup_deriv) in
    `params`.  The constructor runs the factories' checks."""

    family: str
    params: tuple
    # Decreasing kernels make the thinning envelope exact; without this promise
    # `simulate._check_simulable` refuses a kernel (exit 3 on the command line).
    nonincreasing: bool = False
    functions: tuple = ()

    def __post_init__(self):
        _set_params(self, "kernel", {"exponential": 2, "custom": 3})
        if self.family == "custom":
            if min(self.params) < 0:
                raise AssumptionError("kernel norms must be nonnegative")
            if len(self.functions) != 3:
                raise AssumptionError("a custom kernel takes (mu, mu_prime, mu_hat)")
        elif self.alpha < 0:
            raise AssumptionError(f"exponential kernel needs alpha >= 0, got {self.alpha}")
        elif self.beta <= 0:
            raise AssumptionError(f"exponential kernel needs beta > 0, got {self.beta}")
        elif self.functions:
            raise AssumptionError("an exponential kernel takes no functions")

    @staticmethod
    def exponential(alpha: float, beta: float) -> "KernelSpec":
        """mu(t) = alpha * exp(-beta t); alpha >= 0, beta > 0."""
        return KernelSpec("exponential", (alpha, beta), nonincreasing=True)

    @staticmethod
    def custom(mu: Callable, mu_prime: Callable, mu_hat: Callable, l1_norm: float,
               sup_norm: float, sup_deriv: float, nonincreasing: bool = False) -> "KernelSpec":
        """Custom kernel; the antiderivative and norms must be supplied
        explicitly (no auto-integration -- closed forms keep the linear-case
        compensator exact)."""
        return KernelSpec("custom", (l1_norm, sup_norm, sup_deriv), nonincreasing, (mu, mu_prime, mu_hat))

    def _norms(self) -> tuple:
        """(l1_norm, sup_norm, sup_deriv), as supplied or from (alpha, beta)."""
        if self.family == "custom":
            return self.params
        alpha, beta = self.params
        return alpha / beta, alpha, alpha * beta

    alpha = property(lambda self: None if self.family == "custom" else self.params[0])
    beta = property(lambda self: None if self.family == "custom" else self.params[1])
    l1_norm = property(lambda self: self._norms()[0])
    sup_norm = property(lambda self: self._norms()[1])
    sup_deriv = property(lambda self: self._norms()[2])

    def mu(self, t):
        if self.family == "custom":
            return self.functions[0](t)
        alpha, beta = self.params
        return alpha * np.exp(-beta * np.asarray(t, dtype=float))

    def mu_prime(self, t):
        if self.family == "custom":
            return self.functions[1](t)
        alpha, beta = self.params
        return -alpha * beta * np.exp(-beta * np.asarray(t, dtype=float))

    def mu_hat(self, t):
        if self.family == "custom":
            return self.functions[2](t)
        alpha, beta = self.params
        return (alpha / beta) * (-np.expm1(-beta * np.asarray(t, dtype=float)))

    def is_null(self) -> bool:
        """True when mu is identically zero (Poisson reduction)."""
        return self.sup_norm == 0.0


# ---------------------------------------------------------------------------
# baseline
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BaselineSpec:
    """Deterministic baseline intensity lambda_t on [0, T]: its family and
    `params`, constant (lam,), affine (lam0, slope, horizon) or sinusoidal
    (lam0, amp, period).  The constructor runs the factories' checks."""

    family: str
    params: tuple

    def __post_init__(self):
        _set_params(self, "baseline", {"constant": 1, "affine": 3, "sinusoidal": 3})
        if self.family == "sinusoidal" and self.params[2] <= 0:
            raise AssumptionError("sinusoidal baseline needs period > 0")
        lo = self.lower_bound
        if self.family == "constant" and lo <= 0:
            raise AssumptionError(f"constant baseline must be positive, got {lo}")
        if self.family == "affine" and lo <= 0:
            raise AssumptionError(f"affine baseline dips to {lo} on [0, {self.params[2]}]; must stay > 0")
        if self.family == "sinusoidal" and lo <= 0:
            raise AssumptionError(f"sinusoidal baseline lower bound {lo} must be positive")

    @staticmethod
    def constant(lam: float) -> "BaselineSpec":
        return BaselineSpec("constant", (lam,))

    @staticmethod
    def affine(lam0: float, slope: float, horizon: float) -> "BaselineSpec":
        """lambda_t = lam0 + slope * t; must stay positive on [0, horizon]."""
        return BaselineSpec("affine", (lam0, slope, horizon))

    @staticmethod
    def sinusoidal(lam0: float, amp: float, period: float) -> "BaselineSpec":
        """lambda_t = lam0 + amp * sin(2 pi t / period)."""
        return BaselineSpec("sinusoidal", (lam0, amp, period))

    @property
    def lower_bound(self) -> float:
        """lambda_*: the inf of lambda_t, over [0, horizon] if affine."""
        p = self.params
        if self.family == "constant":
            return p[0]
        if self.family == "affine":
            return min(p[0], p[0] + p[1] * p[2])
        return p[0] - abs(p[1])

    def value(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "constant":
            return np.full_like(t, self.params[0])
        if self.family == "affine":
            lam0, slope, _ = self.params
            return lam0 + slope * t
        lam0, amp, period = self.params
        w = 2.0 * math.pi / period
        return lam0 + amp * np.sin(w * t)

    def derivative(self, t):
        t = np.asarray(t, dtype=float)
        if self.family == "constant":
            return np.zeros_like(t)
        if self.family == "affine":
            return np.full_like(t, self.params[1])
        _, amp, period = self.params
        w = 2.0 * math.pi / period
        return amp * w * np.cos(w * t)

    def integral(self, t):
        """int_0^t lambda_s ds."""
        t = np.asarray(t, dtype=float)
        if self.family == "constant":
            return self.params[0] * t
        if self.family == "affine":
            lam0, slope, _ = self.params
            return (lam0 + 0.5 * slope * t) * t
        lam0, amp, period = self.params
        w = 2.0 * math.pi / period
        return lam0 * t + (amp / w) * (1.0 - np.cos(w * t))

    def sup_on(self, a, b) -> np.ndarray:
        """Exact sup of lambda_t over [a, b] per family (vectorized in a):
        the thinning envelope needs a true upper bound."""
        a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        if self.family == "constant":
            return np.broadcast_to(np.float64(self.params[0]), a.shape).copy()
        if self.family == "affine":
            end = b if self.params[1] >= 0 else a
            return np.asarray(self.value(end), dtype=float)
        # sinusoidal: lam0 + amp sin(w t) peaks at the crest lam0 + |amp| on
        # an interval that spans a period or holds a crest phase, and at the
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

    def sup_upper(self, horizon: float) -> float:
        """lambda^T = sup_{[0,T]} lambda_t, the exact family maximum
        (`sup_on`)."""
        return float(self.sup_on(0.0, horizon))


# ---------------------------------------------------------------------------
# nonlinearity
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NonlinearitySpec:
    """gamma wrapping the excitation sum: linear, gamma(x) = x, or
    saturating_tanh, gamma(x) = c tanh(x / c) with `params` (c,).  Both are
    nondecreasing, which the thinning envelope needs, with gamma(0) = 0 and
    Lipschitz constant a = 1.  The constructor runs the factories' checks."""

    family: str
    params: tuple = ()

    lipschitz = 1.0  # a = sup|gamma'|, the same for both families

    def __post_init__(self):
        _set_params(self, "nonlinearity", {"linear": 0, "saturating_tanh": 1})
        if self.family == "saturating_tanh" and self.params[0] <= 0:
            raise AssumptionError(f"saturating cap must be positive, got {self.params[0]}")

    @staticmethod
    def linear() -> "NonlinearitySpec":
        return NonlinearitySpec("linear")

    @staticmethod
    def saturating_tanh(cap: float) -> "NonlinearitySpec":
        """gamma(x) = c * tanh(x / c); saturates at c, gamma'(0) = 1."""
        return NonlinearitySpec("saturating_tanh", (cap,))

    def value(self, x):
        x = np.asarray(x, dtype=float)
        if self.is_linear():
            return x
        (cap,) = self.params
        return cap * np.tanh(x / cap)

    def derivative(self, x):
        x = np.asarray(x, dtype=float)
        if self.is_linear():
            return np.ones_like(x)
        (cap,) = self.params
        # cosh^2 overflows to inf past |x / c| ~ 355, where sech^2 has
        # underflowed to 0 anyway: 1/inf gives that 0, without a warning
        with np.errstate(over="ignore"):
            return 1.0 / np.cosh(x / cap) ** 2

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
        """The model as report digests (the CSV `parameter_digest` column)
        hash it; it ends with the nonlinearity's parameters and, for a custom
        kernel, mu and mu_hat sampled on a fixed probe grid and its
        `nonincreasing` promise.  The built-in families keep their keys (an
        exponential kernel is nonincreasing by construction), and a custom
        kernel's functions are known only by their samples, so the model
        itself, not this key, is its identity."""
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
            ) + (self.kernel.nonincreasing,)
        return key


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
    The call is keyed as bound to fn's signature, defaults filled in and a
    numpy scalar made the Python scalar it holds, so every form of a call
    shares one entry; the model keys by its own equality, so equal models
    built apart share entries (a custom kernel's functions compare as
    objects).  Every array returned, alone, in a tuple or as a dataclass
    field, is read-only; a value whose arrays hold more than
    _CACHE_ENTRY_BYTES is returned but not kept.  `cache_info`
    and `cache_clear` are lru_cache's, and `__wrapped__` is fn, uncached."""

    def decorate(fn):
        signature = inspect.signature(fn)

        @functools.lru_cache(maxsize=maxsize)
        def cached(*args, **kwargs):
            value = fn(*args, **kwargs)
            arrays = _arrays(value)
            for a in arrays:
                a.flags.writeable = False
            if sum(a.nbytes for a in arrays) > _CACHE_ENTRY_BYTES:
                raise _Unkept(value)
            return value

        @functools.wraps(fn)
        def reference(*args, **kwargs):
            call = signature.bind(*args, **kwargs)
            call.apply_defaults()
            args = (a.item() if isinstance(a, (np.ndarray, np.generic)) and a.ndim == 0 else a
                    for a in call.args)
            try:
                return cached(*args, **call.kwargs)
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
