"""Per-path reference solvers for the jump SDEs of `hawkmal.sde`.

An independent algorithm for the tests to check the batch engines against:
they carry the tangent K_t = K_{0->t} and its inverse K_tilde_t forward
along one path, take K_{T_i->T} = K_T K_tilde_{T_i}, and sum the dense xi
Gram Gamma[X_T] = sum_{ij} v_i v_j^T xi(T_i, T_j).  They step with their
own RK4 on tuples of arrays, `_rk4_step`, in the arithmetic order of the
library's in-place stepper.  `solve_flow` adds a step-halving
(Richardson) error estimate to the RK4 flow.  The library's
engines instead carry only x forward, form the tangent products backward
and never invert one, and factor Gamma through the Brownian bridge.

`composition_sensitivity` inverts nothing: it takes Gamma from central
differences of the flow composition in the jump times, for paths whose
jump map is singular, where K_tilde does not exist.

Inverting tangents limits these solvers: a flow that contracts hard makes
K_tilde overflow or the solve singular, and their dense det is some 1e-11
off a 60-digit value on `linear-d2`.  Compare with them where they hold.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from hawkmal.malliavin import MalliavinGradient, xi_kernel
from hawkmal.model import AssumptionError
from hawkmal.sde import (
    JumpSde,
    _linear_phi,
    _linear_propagators,
    _phi,
    _rk4_batch,
    _segment_steps,
)
from hawkmal.simulate import HawkesPath, PathBatch

_PRODUCT_RESET = 1e-10    # renormalize K_tilde when |K K~ - I| exceeds this
_DET_FLOOR = 1e-12        # K_tilde inverts every jump factor: refuse |det| below this


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
class TangentReport:
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

def _rk4_step(rhs, t: float, h: float, y: tuple) -> tuple:
    """One classical RK4 step of y' = rhs(t, y) for a tuple of arrays, in
    the arithmetic order of the library's in-place `sde._rk4_step`."""
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


def flow_composition(sde: JumpSde, times: np.ndarray, T: float, steps: np.ndarray) -> np.ndarray:
    """X_T of the jump times `times` by composing RK4 flows, `steps[k]`
    steps over jump-free segment k, with the jump maps x <- x + g(t, x),
    which it neither inverts nor checks."""
    starts = np.concatenate([[0.0], times])
    ends = np.concatenate([times, [T]])
    rhs = lambda t, y: (np.asarray(sde.drift(t, y[0]), dtype=float),)
    x = sde.x0.copy()
    for k, (s, e) in enumerate(zip(starts, ends)):
        if steps[k]:
            (x,) = _rk4_run(rhs, s, e - s, (x,), int(steps[k]))
        if k < times.size:
            x = x + np.asarray(sde.jump(e, x), dtype=float)
    return x


def composition_sensitivity(sde: JumpSde, path: HawkesPath) -> tuple:
    """(X_T, Gamma[X_T]) of one path with no tangent and no inverse, for
    singular jump maps: v_i = dX_T/dT_i by central differences of
    `flow_composition` at a step of a quarter of T_i's distance to its
    nearer neighbour (0 and T at the ends), at most 1e-5 T, with every
    segment's step count held at the engines' schedule for the path
    (`_segment_steps`), so the composition is smooth in T_i; then
    Gamma = sum_ij v_i v_j^T xi(T_i, T_j).  A jump at T has xi(T, .) = 0, so
    its v_i is left at 0."""
    T = path.horizon
    t = path.jump_times
    bounds = np.concatenate([[0.0], t, [T]])
    steps = _segment_steps(np.diff(bounds), T)
    room = np.minimum(0.25 * np.minimum(t - bounds[:-2], bounds[2:] - t), 1e-5 * T)
    v = np.zeros((t.size, sde.dim))
    for i in np.flatnonzero(room > 0.0):
        up, down = t.copy(), t.copy()
        up[i] += room[i]
        down[i] -= room[i]
        rise = flow_composition(sde, up, T, steps) - flow_composition(sde, down, T, steps)
        v[i] = rise / (up[i] - down[i])
    gamma = v.T @ xi_kernel(T, t[:, None], t) @ v
    return flow_composition(sde, t, T, steps), gamma


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


def phi_jump_sensitivity(sde: JumpSde, t, x) -> np.ndarray:
    """phi(t, x) = f(t, x + g(t, x)) - (I + grad_x g(t, x)) f(t, x) - dg/dt,
    for x of shape (..., d) and t a scalar or an array of the leading shape."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    return _phi(sde, t, x, np.asarray(sde.jump(t, x), dtype=float), sde.jump_jac(t, x))


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


def tangent_sensitivity(sde: JumpSde, path: HawkesPath) -> TangentReport:
    """Per-jump coefficients v_i = -K_T^{T_i} phi(T_i, X_{T_i-}) and
    Gamma[X_T] = sum_{ij} v_i v_j^T (T_i ^ T_j - T_i T_j / T), by RK4."""
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
    return TangentReport(
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
    for the dense Gram.  Below d jumps Gamma has rank < d, so both are
    exactly 0 there rather than the rounding noise of a computed value."""
    full = counts >= gamma.shape[-1]
    dets = np.zeros(full.shape)
    min_eigs = np.zeros(full.shape)
    dets[full] = np.linalg.det(gamma[full])
    min_eigs[full] = np.linalg.eigvalsh(gamma[full])[:, 0]
    return dets, min_eigs


def linear_tangent_sensitivity(sde: JumpSde, path: HawkesPath) -> TangentReport:
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
    return TangentReport(
        jump_times=t,
        horizon=T,
        vectors=v,
        gamma=gamma,
        det=float(det[0]),
        min_eig=float(min_eig[0]),
        product_drift=float(np.max(np.abs(K @ Kt - eye))),
        terminal=x,
    )


# ---- batches and finite differences ----

def batch_of(paths, T):
    """PathBatch holding the given sorted jump-time lists."""
    counts = [len(t) for t in paths]
    return PathBatch(
        horizon=T,
        master_seed=0,
        first_index=0,
        offsets=np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        flat_times=np.concatenate([np.asarray(t, dtype=float) for t in paths] + [np.empty(0)]),
    )


def jump_time_fd(sde: JumpSde, paths, T: float, h: float) -> np.ndarray:
    """Central differences (X_T(t + h e_i) - X_T(t - h e_i)) / 2h of the
    first state component in every jump time of every path, in flat order.
    The 2 J bumped paths take their terminal states from one `_rk4_batch`
    call, which gives each path the bits it has alone."""
    bumped = []
    for t in paths:
        for i in range(len(t)):
            for sign in (1.0, -1.0):
                b = np.array(t, dtype=float)
                b[i] += sign * h
                bumped.append(b)
    terminal = _rk4_batch(sde, batch_of(bumped, T))[0][:, 0]
    return (terminal[0::2] - terminal[1::2]) / (2.0 * h)
