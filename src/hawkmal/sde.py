"""Jump SDEs driven by a Hawkes path.

dX_t = f(t, X_t) dt + g(t, X_{t-}) dN_t

Between jumps the state follows the deterministic flow of f; at a jump it
maps through Psi(t, x) = x + g(t, x).  The terminal state is the composition
X_T = Phi_{T_n,T} . Psi(T_n, .) . ... . Psi(T_1, .) . Phi_{0,T_1} applied to
x0.  The tangent K_{s->t} (derivative of that composition from time s to
t) propagates jump-time sensitivities; the per-jump vectors

    v_i = -K_{T_i->T} phi(T_i, X_{T_i-}),
    phi(t, x) = f(t, x + g(t, x)) - (I + grad_x g) f(t, x) - dg/dt,

assemble the gradient D_s X_T = sum_i v_i (T_i/T - 1_{[0,T_i]}(s)) and the
carre du champ Gamma[X_T] = sum_{ij} v_i v_j^T xi(T_i, T_j), whose
non-degeneracy is the absolute-continuity criterion.

The batch engines carry only x forward and form K_{T_i->T} backward, as a
product of segment tangents and jump factors (`_backward_vectors`).  The
same walk forms the bridge factor W = L^T V, where Xi = L L^T is the
Brownian-bridge factorization of the xi kernel, so Gamma = W^T W; the
criterion reads det, the smallest eigenvalue and the rank off the singular
values of W and never forms Gamma.  The per-path solvers carry
K_t = K_{0->t} and its inverse K_tilde_t forward, take
K_{T_i->T} = K_T K_tilde_{T_i} and sum the dense xi Gram; they serve as
the engines' oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .malliavin import MalliavinGradient, xi_kernel
from .model import AssumptionError
from .simulate import HawkesPath, PathBatch

_STEP_FRACTION = 1e-3     # h <= 1e-3 * horizon
_MIN_SEGMENT_STEPS = 16   # h <= (t - s) / 16
_DET_FLOOR = 1e-12
_PRODUCT_RESET = 1e-10    # renormalize K_tilde when |K K~ - I| exceeds this
_CLOSE_EVERY = 4          # RK4 engine: iterations between segment-end passes
# Pade 13 coefficients b_k / b_0, so that r_13(0) = I exactly, and the
# 1-norm up to which r_13 needs no scaling (Higham, SIAM J. Matrix Anal.
# Appl. 26(4), 2005, Table 2.3)
_PADE13 = tuple(np.array([
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
]) / 64764752532480000.0)
_THETA13 = 5.371920351148152


class LinearCoeffs(NamedTuple):
    """Constant coefficients of dX = (A X + b) dt + (M X- + beta) dN."""

    A: np.ndarray
    b: np.ndarray
    M: np.ndarray
    beta: np.ndarray


@dataclass(frozen=True, eq=False)
class JumpSde:
    """Coefficients of the jump SDE, in vector form.

    The callables broadcast: they take `t` and `x` of shape (..., d), the
    state on the last axis behind any number of leading axes, with `t` a
    scalar or an array of the leading shape.  `drift` and `jump` return
    (..., d); `drift_jac` and `jump_jac` return (..., d, d), or a constant
    (d, d) Jacobian, which the batch engines broadcast; `jump_dt` is the
    partial of g in t.  Optional extras: exact linear coefficients, and
    user-supplied bounds for the Wronskian certificate
    |W(f,g)| > 0.5 * sup|f''| * (sup|g|)^2.
    """

    dim: int
    x0: np.ndarray
    drift: Callable
    drift_jac: Callable
    jump: Callable
    jump_jac: Callable
    jump_dt: Callable
    linear: Optional[LinearCoeffs] = None
    wronskian_inf: Optional[float] = None
    f_second_sup: Optional[float] = None
    g_sup: Optional[float] = None
    label: str = "custom"

    def __post_init__(self):
        object.__setattr__(
            self, "x0", np.atleast_1d(np.asarray(self.x0, dtype=float)).copy()
        )
        if self.x0.shape != (self.dim,):
            raise ValueError(f"x0 must have shape ({self.dim},)")

    # ---- constructors ----

    @staticmethod
    def scalar(
        f: Callable,
        f_x: Callable,
        g: Callable,
        g_x: Callable,
        g_t: Callable = None,
        *,
        x0: float,
        wronskian_inf: float = None,
        f_second_sup: float = None,
        g_sup: float = None,
        label: str = "custom-scalar",
    ) -> "JumpSde":
        """One-dimensional SDE from elementwise callables (t, x) -> float.

        The callables must broadcast over ndarray `t` and `x` (write them
        with numpy operations); they see x with its state axis of length 1.
        """
        if g_t is None:
            g_t = lambda t, x: np.zeros_like(np.asarray(x, dtype=float))

        def value(fn):
            return lambda t, x: np.asarray(fn(np.asarray(t)[..., None], x), dtype=float)

        def jac(fn):
            return lambda t, x: np.asarray(fn(np.asarray(t)[..., None], x), dtype=float)[..., None]

        return JumpSde(
            dim=1,
            x0=np.array([x0], dtype=float),
            drift=value(f),
            drift_jac=jac(f_x),
            jump=value(g),
            jump_jac=jac(g_x),
            jump_dt=value(g_t),
            wronskian_inf=wronskian_inf,
            f_second_sup=f_second_sup,
            g_sup=g_sup,
            label=label,
        )

    @staticmethod
    def linear_scalar(
        a: float, b: float, alpha: float, beta: float, *, x0: float
    ) -> "JumpSde":
        """dX = (aX + b) dt + (alpha X- + beta) dN; phi = a beta - alpha b.
        The 1 x 1 case of `linear_dd`."""
        return JumpSde.linear_dd(
            A=[[a]], b=[b], M=[[alpha]], beta=[beta], x0=[x0], label="linear-scalar"
        )

    @staticmethod
    def linear_dd(
        A: np.ndarray,
        b: np.ndarray,
        M: np.ndarray,
        beta: np.ndarray,
        *,
        x0: np.ndarray,
        label: str = "linear",
    ) -> "JumpSde":
        """dX = (AX + b) dt + (MX- + beta) dN in dimension d."""
        A = np.asarray(A, dtype=float)
        M = np.asarray(M, dtype=float)
        b = np.asarray(b, dtype=float)
        beta = np.asarray(beta, dtype=float)
        d = A.shape[0]
        if A.shape != (d, d) or M.shape != (d, d):
            raise ValueError("A and M must be square with matching shape")
        if abs(np.linalg.det(np.eye(d) + M)) < _DET_FLOOR:
            raise AssumptionError("det(I + M) must be nonzero")
        return JumpSde(
            dim=d,
            x0=np.asarray(x0, dtype=float),
            drift=lambda t, x: (A @ x[..., None])[..., 0] + b,
            drift_jac=lambda t, x: A,
            jump=lambda t, x: (M @ x[..., None])[..., 0] + beta,
            jump_jac=lambda t, x: M,
            jump_dt=lambda t, x: np.zeros(d),
            linear=LinearCoeffs(A=A, b=b, M=M, beta=beta),
            label=label,
        )

    @staticmethod
    def cos_sin(x0: float = 0.0) -> "JumpSde":
        """f = cos, g = sin: |W(f,g)| = cos^2 + sin^2 = 1 > 1/2 = bound."""
        return JumpSde.scalar(
            f=lambda t, x: np.cos(x),
            f_x=lambda t, x: -np.sin(x),
            g=lambda t, x: np.sin(x),
            g_x=lambda t, x: np.cos(x),
            x0=x0,
            wronskian_inf=1.0,
            f_second_sup=1.0,
            g_sup=1.0,
            label="cos-sin",
        )


def sde_preset(name: str) -> JumpSde:
    """Named example systems used by the command-line runner."""
    if name == "linear-scalar":
        return JumpSde.linear_scalar(a=0.5, b=0.1, alpha=0.3, beta=0.2, x0=1.0)
    if name == "cos-sin":
        return JumpSde.cos_sin(x0=0.0)
    if name == "linear-d2":
        return JumpSde.linear_dd(
            A=np.eye(2),
            b=np.zeros(2),
            M=np.diag([1.0, 2.0]),
            beta=np.ones(2),
            x0=np.ones(2),
            label="linear-d2",
        )
    raise ValueError(f"unknown SDE preset {name!r}")


# ---- results ----

@dataclass(frozen=True, eq=False)
class FlowResult:
    state: np.ndarray
    error_estimate: float
    n_steps: int


@dataclass(frozen=True, eq=False)
class PathSolution:
    jump_times: np.ndarray
    horizon: float
    terminal: np.ndarray
    pre_jump_states: np.ndarray   # (n, d): X_{T_i-}
    post_jump_states: np.ndarray  # (n, d): X_{T_i}
    flow_error: float


@dataclass(frozen=True, eq=False)
class TangentResult:
    K_T: np.ndarray
    K_tilde_T: np.ndarray
    k_tilde_at_jumps: np.ndarray  # (n, d, d), post-jump values
    jump_dets: np.ndarray         # det(I + grad_x g) per jump
    product_drift: float          # max |K K~ - I| observed

    def k_T_from(self, i: int) -> np.ndarray:
        """K_T^{T_i} = K_T K_tilde_{T_i} for the i-th jump (0-based)."""
        return self.K_T @ self.k_tilde_at_jumps[i]


@dataclass(frozen=True, eq=False)
class SensitivityReport:
    jump_times: np.ndarray
    horizon: float
    vectors: np.ndarray    # (n, d): v_i = -K_T^{T_i} phi(T_i, X_{T_i-})
    gamma: np.ndarray      # (d, d)
    det: float
    min_eig: float
    product_drift: float
    terminal: np.ndarray

    def gradient_component(self, component: int = 0):
        """The scalar-component gradient in the shared jump-time
        representation (partials = v_i[component])."""
        return MalliavinGradient(
            self.jump_times, self.vectors[:, component].copy(), self.horizon
        )


# ---- deterministic flow ----

def _rk4_step(rhs, t, h, y: tuple) -> tuple:
    """One classical RK4 step of y' = rhs(t, y) for a tuple of arrays; `t`
    and `h` may be per-path arrays that broadcast against them."""
    half = 0.5 * h
    t_half = t + half
    k1 = rhs(t, y)
    k2 = rhs(t_half, tuple(a + half * k for a, k in zip(y, k1)))
    k3 = rhs(t_half, tuple(a + half * k for a, k in zip(y, k2)))
    k4 = rhs(t + h, tuple(a + h * k for a, k in zip(y, k3)))
    return tuple(
        a + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
        for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)
    )


def _rk4_run(rhs, s: float, span: float, y: tuple, n: int) -> tuple:
    """n equal RK4 steps over [s, s + span], at t = s + k h."""
    h = span / n
    for k in range(n):
        y = _rk4_step(rhs, s + k * h, h, y)
    return y


def _segment_steps(span, horizon: float) -> np.ndarray:
    """RK4 steps over jump-free spans, elementwise: h <= min(1e-3 * horizon,
    span / 16), and no step over an empty span."""
    span = np.asarray(span, dtype=float)
    live = span > 0.0
    h = np.minimum(_STEP_FRACTION * horizon, span[live] / _MIN_SEGMENT_STEPS)
    # a subnormal span underflows span / 16 to 0; it still takes 16 steps
    ratio = np.divide(
        span[live], h, out=np.full(h.shape, float(_MIN_SEGMENT_STEPS)), where=h > 0.0
    )
    steps = np.zeros(span.shape, dtype=np.int64)
    steps[live] = np.maximum(1, np.ceil(ratio))
    return steps


def _segments(batch: PathBatch):
    """Every path's jump-free segments in CSR order: path i owns segments
    seg_offsets[i]:seg_offsets[i+1], one per jump plus the last one, which
    ends at T.  Returns (seg_offsets, starts, ends)."""
    offsets = batch.offsets
    seg_offsets = offsets + np.arange(offsets.size)
    starts = np.insert(batch.flat_times, offsets[:-1], 0.0)
    ends = np.insert(batch.flat_times, offsets[1:], batch.horizon)
    return seg_offsets, starts, ends


def solve_flow(
    sde: JumpSde, s: float, t: float, x, horizon: float = None
) -> FlowResult:
    """Phi_{s,t}(x) by fixed-step RK4 (h = min(1e-3 * horizon, (t-s)/16)),
    with the step-halving (Richardson) error estimate."""
    if t < s:
        raise ValueError("flow requires s <= t")
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if t == s:
        return FlowResult(x.copy(), 0.0, 0)
    span = t - s
    H = horizon if horizon is not None else t
    if H <= 0.0:
        raise ValueError("horizon must be positive")
    n = int(_segment_steps(span, H))
    rhs = lambda t, y: (sde.drift(t, y[0]),)
    (coarse,) = _rk4_run(rhs, s, span, (x,), n)
    (fine,) = _rk4_run(rhs, s, span, (x,), 2 * n)
    if not np.all(np.isfinite(fine)):
        raise RuntimeError("flow integration produced non-finite state")
    err = float(np.max(np.abs(fine - coarse))) / 15.0
    return FlowResult(fine, err, 2 * n)


def _apply_jump(sde: JumpSde, t: float, x: np.ndarray) -> tuple:
    """Psi(t, x) = x + g(t, x), guarding det(I + grad_x g) != 0."""
    grad = np.atleast_2d(np.asarray(sde.jump_jac(t, x), dtype=float))
    det = float(np.linalg.det(np.eye(sde.dim) + grad))
    if abs(det) < _DET_FLOOR:
        raise AssumptionError(
            f"det(I + grad_x g) = {det:.3e} at jump time {t:.6g}: "
            "the jump map is not invertible"
        )
    return x + np.atleast_1d(np.asarray(sde.jump(t, x), dtype=float)), grad, det


def solve_path(sde: JumpSde, path: HawkesPath) -> PathSolution:
    """Terminal state by flow composition, with the state just before and
    just after every jump."""
    T = path.horizon
    x = sde.x0.copy()
    pre = np.empty((path.count, sde.dim))
    post = np.empty((path.count, sde.dim))
    err = 0.0
    prev = 0.0
    for i, tj in enumerate(path.jump_times):
        res = solve_flow(sde, prev, float(tj), x, horizon=T)
        err += res.error_estimate
        pre[i] = res.state
        x, _, _ = _apply_jump(sde, float(tj), res.state)
        post[i] = x
        prev = float(tj)
    res = solve_flow(sde, prev, T, x, horizon=T)
    err += res.error_estimate
    return PathSolution(
        jump_times=path.jump_times,
        horizon=T,
        terminal=res.state,
        pre_jump_states=pre,
        post_jump_states=post,
        flow_error=err,
    )


def _matvec(A, v) -> np.ndarray:
    """A v for stacks of (..., d, d) matrices, or one constant (d, d), against
    (..., d) vectors; for d = 1 an elementwise product."""
    if v.shape[-1] == 1:
        return A[..., 0] * v
    return (A @ v[..., None])[..., 0]


def _matmul(A, B) -> np.ndarray:
    """A B for stacks of (..., d, d) matrices, either one possibly a
    constant (d, d); for d = 1 an elementwise product."""
    if B.shape[-1] == 1:
        return A * B
    return A @ B


def phi_jump_sensitivity(sde: JumpSde, t, x) -> np.ndarray:
    """phi(t, x) = f(t, x + g(t, x)) - (I + grad_x g(t, x)) f(t, x) - dg/dt,
    for x of shape (..., d) and t a scalar or an array of the leading shape."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _phi(sde, t, x, np.asarray(sde.jump(t, x), dtype=float), sde.jump_jac(t, x))


def _phi(sde: JumpSde, t, x, g, grad) -> np.ndarray:
    """phi at (t, x), given the jump g and its Jacobian there."""
    f_here = np.asarray(sde.drift(t, x), dtype=float)
    f_shift = np.asarray(sde.drift(t, x + g), dtype=float)
    dgdt = np.asarray(sde.jump_dt(t, x), dtype=float)
    return f_shift - f_here - _matvec(np.asarray(grad, dtype=float), f_here) - dgdt


# ---- tangent process ----

def _tangent_sweep(sde: JumpSde, path: HawkesPath):
    """One pass integrating (x, K, K_tilde) jointly.

    Between jumps: x' = f, K' = (grad f) K, K~' = -K~ (grad f); at a jump,
    K <- (I + grad g) K and K~ <- K~ (I + grad g)^{-1}.  Returns the
    pre-jump states, post-jump K_tilde snapshots, jump determinants, the
    terminal triple, and the largest |K K~ - I| seen before renormalizing.
    """
    T = path.horizon
    d = sde.dim
    eye = np.eye(d)
    x = sde.x0.copy()
    K = eye.copy()
    Kt = eye.copy()
    drift_max = 0.0
    n = path.count
    pre = np.empty((n, d))
    ktil_post = np.empty((n, d, d))
    dets = np.empty(n)

    rhs = lambda t, y: _tangent_rhs(sde, t, y)

    def advance(s, e, x, K, Kt):
        span = e - s
        if span <= 0.0:
            return x, K, Kt
        return _rk4_run(rhs, s, span, (x, K, Kt), int(_segment_steps(span, T)))

    prev = 0.0
    for i, tj in enumerate(path.jump_times):
        x, K, Kt = advance(prev, float(tj), x, K, Kt)
        pre[i] = x
        x, grad, det = _apply_jump(sde, float(tj), x)
        dets[i] = det
        K = (eye + grad) @ K
        Kt = np.linalg.solve((eye + grad).T, Kt.T).T  # Kt (I + grad)^{-1}
        drift = float(np.max(np.abs(K @ Kt - eye)))
        drift_max = max(drift_max, drift)
        if drift > _PRODUCT_RESET:
            Kt = np.linalg.solve(K, eye)
        ktil_post[i] = Kt
        prev = float(tj)
    x, K, Kt = advance(prev, T, x, K, Kt)
    drift_max = max(drift_max, float(np.max(np.abs(K @ Kt - eye))))
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(K))):
        raise RuntimeError("tangent integration produced non-finite state")
    return x, pre, K, Kt, ktil_post, dets, drift_max


def _tangent_rhs(sde: JumpSde, t: float, y: tuple) -> tuple:
    """(f, (grad f) K, -K~ (grad f)) at the triple y = (x, K, K~)."""
    x, K, Kt = y
    J = np.atleast_2d(np.asarray(sde.drift_jac(t, x), dtype=float))
    return np.atleast_1d(np.asarray(sde.drift(t, x), dtype=float)), J @ K, -Kt @ J


def tangents(sde: JumpSde, path: HawkesPath) -> TangentResult:
    """K_T, its inverse, and the post-jump K_tilde snapshots that give
    K_T^{T_i} = K_T K_tilde_{T_i}."""
    _, _, K, Kt, ktil_post, dets, drift = _tangent_sweep(sde, path)
    return TangentResult(
        K_T=K,
        K_tilde_T=Kt,
        k_tilde_at_jumps=ktil_post,
        jump_dets=dets,
        product_drift=drift,
    )


def grad_and_gamma_XT(sde: JumpSde, path: HawkesPath) -> SensitivityReport:
    """Per-jump coefficients v_i = -K_T^{T_i} phi(T_i, X_{T_i-}) and
    Gamma[X_T] = sum_{ij} v_i v_j^T (T_i ^ T_j - T_i T_j / T)."""
    xT, pre, K, _, ktil_post, _, drift = _tangent_sweep(sde, path)
    n = path.count
    d = sde.dim
    t = path.jump_times
    v = np.zeros((n, d))
    for i in range(n):
        phi = phi_jump_sensitivity(sde, float(t[i]), pre[i])
        v[i] = -(K @ ktil_post[i]) @ phi
    if n:
        xi = xi_kernel(path.horizon, t[:, None], t)
        gamma = v.T @ xi @ v
        gamma = 0.5 * (gamma + gamma.T)
    else:
        gamma = np.zeros((d, d))
    det, min_eig = _gamma_spectrum(gamma[None], np.array([n]))
    return SensitivityReport(
        jump_times=t,
        horizon=path.horizon,
        vectors=v,
        gamma=gamma,
        det=float(det[0]),
        min_eig=float(min_eig[0]),
        product_drift=drift,
        terminal=xT,
    )


def _gamma_spectrum(gamma: np.ndarray, counts: np.ndarray) -> tuple:
    """(det, smallest eigenvalue) of every (d, d) Gamma in a (P, d, d) stack,
    for the per-path oracles' dense Gram.  Below d jumps Gamma has rank < d,
    so both are exactly 0 there rather than the rounding noise of a
    computed value."""
    full = counts >= gamma.shape[-1]
    dets = np.zeros(full.shape)
    min_eigs = np.zeros(full.shape)
    dets[full] = np.linalg.det(gamma[full])
    min_eigs[full] = np.linalg.eigvalsh(gamma[full])[:, 0]
    return dets, min_eigs


# ---- exact linear engine ----

def _expm_stack(X) -> np.ndarray:
    """exp of every slice of a (..., n, n) stack, by Pade-13 scaling and
    squaring (Higham 2005).  Slice k is scaled by its own 2^-s_k, s_k =
    max(0, ceil(log2(|X_k|_1 / theta_13))); one batched solve gives every
    r_13(2^-s_k X_k), and squaring round r then runs over the slices with
    s_k > r.  Every slice takes this one route, defective generators
    included; a zero slice gives exactly I."""
    X = np.asarray(X, dtype=float)
    shape = X.shape
    n = shape[-1]
    X = X.reshape(-1, n, n)
    # |X_k|_1 / theta_13 = m 2^e with m in [0.5, 1): its ceil(log2) is e,
    # or e - 1 when m = 0.5
    mant, s = np.frexp(np.abs(X).sum(axis=1).max(axis=1) / _THETA13)
    s = np.maximum(s - (mant == 0.5), 0)
    X = np.ldexp(X, -s[:, None, None])
    b = _PADE13
    eye = np.eye(n)
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X4 @ X2
    U = X @ (
        X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
        + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye
    )
    V = (
        X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
        + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye
    )
    R = np.linalg.solve(V - U, V + U)
    for r in range(int(s.max(initial=0))):
        live = np.flatnonzero(s > r)
        R[live] = R[live] @ R[live]
    return R.reshape(shape)


def _linear_propagators(lin: LinearCoeffs, span, d: int):
    """(state map, K factor) over jump-free intervals of length `span` (a
    scalar or an array of them): x -> E x + c with E = exp(A span), read off
    the exponential of the augmented generator [[A, b], [0, 0]] span, all
    spans in one `_expm_stack` call."""
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = lin.A
    aug[:d, d] = lin.b
    big = _expm_stack(aug * np.asarray(span, dtype=float)[..., None, None])
    return big[..., :d, :d], big[..., :d, d]


def _linear_phi(lin: LinearCoeffs):
    """phi(x) = phi0 + C x for linear coefficients: phi0 = A beta - M b and
    C = A M - M A, which vanishes when A and M commute."""
    return lin.A @ lin.beta - lin.M @ lin.b, lin.A @ lin.M - lin.M @ lin.A


def _linear_sensitivity(sde: JumpSde, path: HawkesPath) -> SensitivityReport:
    """Closed-form flow and tangents of one path for constant-coefficient
    linear SDEs: the n + 1 segment propagators come from one
    `_expm_stack` call, as in `_linear_batch`, so both engines start from
    the same bits; exact up to the Pade-13 rounding."""
    lin = sde.linear
    d = sde.dim
    T = path.horizon
    t = path.jump_times
    n = path.count
    eye = np.eye(d)
    J = eye + lin.M
    det_j = float(np.linalg.det(J))
    if abs(det_j) < _DET_FLOOR:
        raise AssumptionError("det(I + M) vanished in the linear jump map")
    J_inv = np.linalg.solve(J, eye)
    phi0, comm = _linear_phi(lin)
    E, c = _linear_propagators(lin, np.diff(t, prepend=0.0, append=T), d)
    E_inv = np.linalg.solve(E, eye)
    phi = np.empty((n, d))
    x = sde.x0.copy()
    K = eye.copy()
    Kt = eye.copy()
    ktil_post = np.empty((n, d, d))
    for i in range(n):
        x = E[i] @ x + c[i]
        K = E[i] @ K
        Kt = Kt @ E_inv[i]
        phi[i] = phi0 + comm @ x
        x = J @ x + lin.beta
        K = J @ K
        Kt = Kt @ J_inv
        ktil_post[i] = Kt
    x = E[n] @ x + c[n]
    K = E[n] @ K
    Kt = Kt @ E_inv[n]
    if not (np.all(np.isfinite(x)) and np.all(np.isfinite(K))):
        raise RuntimeError("linear flow produced non-finite state")
    v = np.zeros((n, d))
    for i in range(n):
        v[i] = -(K @ ktil_post[i]) @ phi[i]
    if n:
        xi = xi_kernel(T, t[:, None], t)
        gamma = v.T @ xi @ v
        gamma = 0.5 * (gamma + gamma.T)
    else:
        gamma = np.zeros((d, d))
    det, min_eig = _gamma_spectrum(gamma[None], np.array([n]))
    return SensitivityReport(
        jump_times=t,
        horizon=T,
        vectors=v,
        gamma=gamma,
        det=float(det[0]),
        min_eig=float(min_eig[0]),
        product_drift=float(np.max(np.abs(K @ Kt - eye))),
        terminal=x,
    )


def _linear_batch(sde: JumpSde, batch: PathBatch):
    """Exact flow, per-jump vectors and bridge factor of a
    constant-coefficient linear system over a whole batch.

    The segment propagators E_s come from one `_expm_stack` call over the
    real (path, segment) pairs, in the CSR order of `_segments`.  x then
    advances one ordinal at a time, vectorized over the paths that reach
    it, and each jump records phi(X_{T_i-}); `_backward_vectors` forms the
    v_i and the bridge factor from the E_s and the jump factor I + M.

    Returns (terminal (P, d), vectors (J, d), factor (J, d)), both in
    flat_times order.  A flow that overflows (say a large positive
    eigenvalue of A over a long span) raises RuntimeError, as the RK4
    engine does, rather than reporting nan Gammas, and without numpy's
    overflow warnings: propagators that overflow are refused before the
    ordinal loop, and the final check catches a state or a vector that
    overflows over many finite ones.
    """
    lin = sde.linear
    d = sde.dim
    P = batch.n_paths
    counts = batch.counts()
    n_max = int(counts.max()) if P else 0
    J = np.eye(d) + lin.M
    if abs(float(np.linalg.det(J))) < _DET_FLOOR:
        raise AssumptionError("det(I + M) vanished in the linear jump map")
    phi0, comm = _linear_phi(lin)
    seg_offsets, starts, ends = _segments(batch)
    with np.errstate(over="ignore", invalid="ignore"):
        E, c = _linear_propagators(lin, ends - starts, d)
    if not (np.all(np.isfinite(E)) and np.all(np.isfinite(c))):
        raise RuntimeError("linear flow propagators overflow: non-finite state")
    x = np.tile(sde.x0, (P, 1))
    phi = np.empty((batch.flat_times.size, d))
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(n_max + 1):
            idx = np.flatnonzero(counts >= j)
            s = seg_offsets[idx] + j
            x[idx] = _matvec(E[s], x[idx]) + c[s]
            idx = idx[counts[idx] > j]
            phi[batch.offsets[idx] + j] = phi0 + _matvec(comm, x[idx])
            x[idx] = _matvec(J, x[idx]) + lin.beta
        vectors, factor = _backward_vectors(batch, E, np.broadcast_to(J, phi.shape + (d,)), phi)
    if not all(np.all(np.isfinite(a)) for a in (x, vectors, factor)):
        raise RuntimeError("batch flow integration produced non-finite state")
    return x, vectors, factor


def _backward_vectors(batch: PathBatch, E: np.ndarray, F: np.ndarray, phi: np.ndarray) -> tuple:
    """(v, w) of every jump, each (J, d) in flat_times order: the vectors
    v_i = -K_{T_i->T} phi_i and the bridge factor w_i, with
    sum_i w_i w_i^T = Gamma[X_T] on each path.  From the tangent E_s of
    every `_segments` segment (S, d, d), the jump factors
    F_i = I + grad_x g (J, d, d) and phi_i (J, d).

    K_{T_i->T} = E_n F_{n-1} E_{n-1} ... F_{i+1} E_{i+1} on a path with n
    jumps, where segment i ends at jump i.  Each path's jumps are walked
    from the last, in adjoint order (Giles and Glasserman, "Smoking
    adjoints", Risk 2006): B = E_n, v_i = -B phi_i, then B <- B F_i E_i,
    vectorized over the paths with a jump at each step back.  Only products
    appear, so no inverse is taken, and a flow that contracts to 0 gives
    v_i = 0.

    xi(s, t) = s ^ t - s t / T is the Brownian-bridge covariance, whose
    sequential construction B_{t_j} = a_j B_{t_{j-1}} + sqrt(c_j) Z_j
    (Glasserman, Monte Carlo Methods in Financial Engineering, 2003, 3.1)
    factors Xi = L L^T; with t_0 = 0,
    c_j = (t_j - t_{j-1}) (T - t_j) / (T - t_{j-1}) and
    a_j = (T - t_j) / (T - t_{j-1}).  The same walk forms W = L^T V:
    u_n = v_n, u_j = v_j + a_{j+1} u_{j+1}, w_j = sqrt(c_j) u_j.  No
    denominator vanishes, a jump at T gets c_n = 0, and no term cancels.
    Every product is a stacked one, so a path's bits do not depend on its
    batch.
    """
    counts = batch.counts()
    t = batch.flat_times
    path_of_jump = np.repeat(np.arange(counts.size), counts)
    # segment i of path p, which ends at jump i, is segment flat + p of the
    # CSR order; it starts at the previous jump, or at 0
    seg = np.arange(t.size) + path_of_jump
    prev = _segments(batch)[1][seg]
    a = (batch.horizon - t) / (batch.horizon - prev)
    root_c = np.sqrt((t - prev) * a)
    step_back = _matmul(F, E[seg])
    B = E[batch.offsets[1:] + np.arange(counts.size)]
    u = np.zeros((counts.size, phi.shape[1]))
    v = np.empty(phi.shape)
    w = np.empty(phi.shape)
    for r in range(int(counts.max(initial=0))):
        idx = np.flatnonzero(counts > r)
        flat = batch.offsets[idx + 1] - 1 - r
        v[flat] = -_matvec(B[idx], phi[flat])
        u[idx] = v[flat] if r == 0 else v[flat] + a[flat + 1, None] * u[idx]
        w[flat] = root_c[flat, None] * u[idx]
        more = counts[idx] > r + 1
        B[idx[more]] = _matmul(B[idx[more]], step_back[flat[more]])
    return v, w


# ---- lockstep RK4 engine ----

def _rk4_batch(sde: JumpSde, batch: PathBatch):
    """Flow, per-jump vectors and bridge factor of every path, by time-major
    lockstep RK4, for any system without exact linear coefficients.

    Each path walks its own segment schedule: `_segment_steps` steps of
    h = span / steps per jump-free segment, at t = t_start + k h, the
    schedule of the per-path solvers.  One lockstep iteration advances every
    unfinished path by one step of x' = f and K' = (grad f) K, with the
    state (P, d) and the tangent (P, d, d) packed into one array.  K starts
    from I on every segment, so at the segment's end it is that segment's
    tangent E_s.  A path that reaches a segment end takes steps of h = 0
    until the next pass over segment ends; a pass costs a few steps' time,
    and on a large batch some path ends a segment at almost every
    iteration, so the passes run every _CLOSE_EVERY iterations.  There the
    path stores E_s and restarts K from I, and if a jump ends the segment,
    it stores F_i = I + grad g and phi_i and takes x <- x + g.  Waiting
    moves no bit of a path.  `_backward_vectors` then forms the v_i and the
    bridge factor.  For d = 1 the products are elementwise, since a
    (P, 1, 1) matmul costs several times a multiply.

    Returns (terminal (P, d), vectors (J, d), factor (J, d)), as
    `_linear_batch` does.
    """
    d = sde.dim
    T = batch.horizon
    P = batch.n_paths
    eye = np.eye(d)
    seg_offsets, starts, ends = _segments(batch)
    span = ends - starts
    steps = _segment_steps(span, T)
    h_seg = span / np.maximum(steps, 1)
    last = seg_offsets[1:] - 1
    seg = seg_offsets[:-1].copy()     # current segment of every path
    t0 = starts[seg]
    h = h_seg[seg]
    n = steps[seg]                    # -1 while a path waits for its segment end
    k = np.zeros(P, dtype=np.int64)   # steps taken in the current segment
    # one column per path, rows x (d) and K (d * d): the RK4 update is one
    # array operation, and each component is a contiguous row
    y = np.repeat(np.concatenate([sde.x0, eye.ravel()])[:, None], P, axis=1)
    xs, Ks = slice(0, d), slice(d, d + d * d)
    E = np.empty((span.size, d, d))
    F = np.empty((batch.flat_times.size, d, d))
    phi = np.empty((batch.flat_times.size, d))

    def rhs(t, ys):
        (y,) = ys
        x = y[xs].T
        out = np.empty_like(y)
        out[xs] = sde.drift(t, x).T
        K = y[Ks].T.reshape(-1, d, d)
        out[Ks] = _matmul(sde.drift_jac(t, x), K).reshape(-1, d * d).T
        return (out,)

    def close(idx):
        """Segment ends of paths `idx`, which all have h = 0 (finished paths
        keep it); returns the paths whose next segment is empty and so ends
        at once."""
        s = seg[idx]
        E[s] = y[Ks, idx].T.reshape(-1, d, d)
        y[Ks, idx] = eye.reshape(-1, 1)
        jumping = s < last[idx]
        if jumping.any():
            jump = idx[jumping]
            sj = s[jumping]
            tj = ends[sj]
            xj = y[xs, jump].T
            gval = np.asarray(sde.jump(tj, xj), dtype=float)
            grad = sde.jump_jac(tj, xj)
            factor = eye + grad
            det = factor[..., 0, 0] if d == 1 else np.linalg.det(factor)
            if (np.abs(det) < _DET_FLOOR).any():
                raise AssumptionError(
                    "det(I + grad_x g) vanished at a jump in the batch"
                )
            # segment s of path p ends jump s - p (flat_times order)
            flat = sj - jump
            F[flat] = factor
            phi[flat] = _phi(sde, tj, xj, gval, grad)
            y[xs, jump] = (xj + gval).T
        s += 1
        seg[idx] = s
        done = s > last[idx]
        idx = idx[~done]
        s = s[~done]
        t0[idx] = starts[s]
        h[idx] = h_seg[s]
        n[idx] = steps[s]
        k[idx] = 0
        return idx[steps[s] == 0]

    # a path that ends a segment waits with h = 0, as finished paths do, for
    # the next pass over segment ends
    ended = [np.flatnonzero(n == 0)]
    it = 0
    while True:
        if it % _CLOSE_EVERY == 0:
            idx = np.concatenate(ended)
            ended = []
            while idx.size:
                idx = close(idx)
            if (seg > last).all():
                break
        (y,) = _rk4_step(rhs, t0 + k * h, h, (y,))
        k += 1
        idx = np.flatnonzero(k == n)
        n[idx] = -1
        h[idx] = 0.0
        ended.append(idx)
        it += 1
    x = y[xs].T.copy()
    vectors, factor = _backward_vectors(batch, E, F, phi)
    if not all(np.all(np.isfinite(a)) for a in (x, vectors, factor)):
        raise RuntimeError("batch flow integration produced non-finite state")
    return x, vectors, factor


# ---- absolute-continuity criteria ----

@dataclass(frozen=True, eq=False)
class DensityCriteria:
    """Batch evidence for the absolute-continuity of X_T.

    Every system reports, per path, det Gamma[X_T], its smallest eigenvalue
    and the rank of the bridge factor W (Gamma = W^T W), from the singular
    values of W; the criterion is rank d on {N_T >= min_jumps}.
    `min_gamma` is the smallest eigenvalue there.  Scalar systems add the
    analytic Wronskian certificate when bounds were supplied.
    """

    label: str
    kind: str
    n_paths: int
    n_conditioned: int
    min_jumps: int
    counts: np.ndarray
    terminal: np.ndarray        # (P, d)
    per_path_det: np.ndarray
    per_path_min_eig: np.ndarray
    per_path_flag: np.ndarray   # criterion satisfied on this path
    min_gamma: float
    n_nonpositive: int          # conditioned paths that fail the criterion
    wronskian_margin: Optional[float]
    wronskian_certified: Optional[bool]
    min_rank: Optional[int]
    rank_target: Optional[int]
    passed: bool


def density_criteria(
    sde: JumpSde, batch: PathBatch, min_jumps: int = None
) -> DensityCriteria:
    """Evaluate the non-degeneracy criterion over a simulated batch.

    `min_jumps` is the conditioning threshold (how many jumps the spanning
    argument needs); it defaults to the dimension d.  Linear systems, d = 1
    included, take the exact batched engine; every other system takes the
    lockstep RK4 engine.  The singular values s_1 >= ... >= s_d of each
    path's (n, d) block of W give det = prod s_k^2, the smallest eigenvalue
    s_d^2 and the rank, the number of s_k above s_1 max(n, d) eps
    (`np.linalg.matrix_rank`'s tolerance).  Below d jumps the missing s_k
    are 0, so det and the smallest eigenvalue are exactly 0.  Paths are
    grouped by jump count, so each comes from that path's own block.
    """
    counts = batch.counts()
    P = batch.n_paths
    d = sde.dim
    engine = _linear_batch if sde.linear is not None else _rk4_batch
    terminal, _, factor = engine(sde, batch)
    sigma = np.zeros((P, d))
    for n in np.unique(counts[counts > 0]):
        paths = np.flatnonzero(counts == n)
        rows = batch.offsets[paths][:, None] + np.arange(n)
        sigma[paths, :min(n, d)] = np.linalg.svd(factor[rows], compute_uv=False)
    tol = sigma[:, 0] * np.maximum(counts, d) * np.finfo(float).eps
    ranks = np.sum(sigma > tol[:, None], axis=1)
    ell = d if min_jumps is None else int(min_jumps)
    cond = counts >= ell
    flags = cond & (ranks == d)
    min_eigs = sigma[:, -1] ** 2
    n_cond = int(cond.sum())
    margin = certified = None
    if d == 1 and None not in (sde.wronskian_inf, sde.f_second_sup, sde.g_sup):
        margin = sde.wronskian_inf - 0.5 * sde.f_second_sup * sde.g_sup**2
        certified = margin > 0.0
    return DensityCriteria(
        label=sde.label,
        kind="scalar" if d == 1 else "linear-ddim" if sde.linear is not None else "general-ddim",
        n_paths=P,
        n_conditioned=n_cond,
        min_jumps=ell,
        counts=counts,
        terminal=terminal,
        per_path_det=np.prod(sigma**2, axis=1),
        per_path_min_eig=min_eigs,
        per_path_flag=flags,
        min_gamma=float(min_eigs[cond].min()) if n_cond else math.nan,
        n_nonpositive=n_cond - int(flags.sum()),
        wronskian_margin=margin,
        wronskian_certified=certified,
        min_rank=int(ranks[cond].min()) if n_cond else None,
        rank_target=d,
        passed=n_cond > 0 and bool(flags[cond].all()),
    )
