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
values of W and never forms Gamma.  Tangents and their products carry a
power of two, so a flow that contracts past the double range keeps its
verdict.  `grad_and_gamma_XT` is the one-path view of these engines.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .malliavin import MalliavinGradient, _bridge_coefficients
from .model import AssumptionError
from .simulate import HawkesPath, PathBatch, _runs, _slices

_STEP_FRACTION = 1e-3     # h <= 1e-3 * horizon
_MIN_SEGMENT_STEPS = 16   # h <= (t - s) / 16
_SCALE_RANGE = 500        # products leaving [2^-500, 2^500] carry a power of two
_CLOSE_EVERY = 4          # RK4 engine: iterations between segment-end passes
_RESCALE_EVERY = 16       # RK4 engine: iterations between checks of K's scale
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
    partial of g in t.  The RK4 engine passes views of buffers that it
    reuses at every stage: a callable must not keep `t` or `x` past its
    return, nor write to them.  Optional extras: exact linear coefficients,
    and user-supplied bounds for the Wronskian certificate
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
        """dX = (AX + b) dt + (MX- + beta) dN in dimension d.  I + M may be
        singular: no engine inverts the jump map, and the criterion needs
        only det Gamma > 0."""
        A = np.asarray(A, dtype=float)
        M = np.asarray(M, dtype=float)
        b = np.asarray(b, dtype=float)
        beta = np.asarray(beta, dtype=float)
        d = A.shape[0]
        if A.shape != (d, d) or M.shape != (d, d):
            raise ValueError("A and M must be square with matching shape")
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


# ---- deterministic flow ----

def _rk4_step(rhs, t, h, y: np.ndarray, work: tuple) -> None:
    """One classical RK4 step of y' = rhs(t, y), in place: rhs(t, y, out)
    writes the derivative into `out`.  `t` and `h` are per-path arrays that
    broadcast against y; `work` is (k1, k2, k3, k4, z, times), the four
    stages and the stage input z of y's shape, and three rows of t's shape
    for the stage times.  Stage inputs are y + half k_i, and the update is
    y + (h/6) (((k1 + 2 k2) + 2 k3) + k4), each product and sum rounded as
    the out-of-place expressions round it."""
    k1, k2, k3, k4, z, (half, t_half, t_end) = work
    np.multiply(h, 0.5, out=half)
    np.add(t, half, out=t_half)
    np.add(t, h, out=t_end)
    rhs(t, y, k1)
    for k_in, k_out in ((k1, k2), (k2, k3)):
        np.multiply(k_in, half, out=z)
        np.add(y, z, out=z)
        rhs(t_half, z, k_out)
    np.multiply(k3, h, out=z)
    np.add(y, z, out=z)
    rhs(t_end, z, k4)
    np.multiply(k2, 2.0, out=k2)
    np.add(k1, k2, out=k1)
    np.multiply(k3, 2.0, out=k3)
    np.add(k1, k3, out=k1)
    np.add(k1, k4, out=k1)
    np.divide(h, 6.0, out=half)  # the half step is spent: its row takes h / 6
    np.multiply(k1, half, out=k1)
    np.add(y, k1, out=y)


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


def _far_slices(M: np.ndarray) -> tuple:
    """(indices, largest |entry|) of the slices M[k] outside [2^-500, 2^500)."""
    mag = np.abs(M).max(axis=tuple(range(1, M.ndim)), initial=0.0)
    far = np.flatnonzero((mag < 2.0**-_SCALE_RANGE) | (mag >= 2.0**_SCALE_RANGE))
    return far, mag[far]


def _rescale(M: np.ndarray, e: np.ndarray) -> None:
    """Scale each far slice M[k] (`_far_slices`) into [0.5, 1) by a power of
    two, in place, adding the power to e[k].  That rounds only entries 2^1021
    below the slice's largest, so products keep their unscaled bits."""
    far, mag = _far_slices(M)
    if far.size:
        k = np.frexp(mag)[1]
        M[far] = _ldexp(M[far], -k)
        e[far] += k


def _ldexp(M: np.ndarray, e: np.ndarray) -> np.ndarray:
    """M[k] 2^e[k] for every slice M[k]."""
    return np.ldexp(M, e.reshape(e.shape + (1,) * (M.ndim - e.ndim)))


def _phi(sde: JumpSde, t, x, g, grad) -> np.ndarray:
    """phi at (t, x), given the jump g and its Jacobian there."""
    f_here = np.asarray(sde.drift(t, x), dtype=float)
    f_shift = np.asarray(sde.drift(t, x + g), dtype=float)
    dgdt = np.asarray(sde.jump_dt(t, x), dtype=float)
    return f_shift - f_here - _matvec(np.asarray(grad, dtype=float), f_here) - dgdt


# ---- exact linear engine ----

def _expm_stack(X) -> np.ndarray:
    """exp of every slice of a (..., n, n) stack (`_expm_scaled`)."""
    return _ldexp(*_expm_scaled(X))


def _expm_scaled(X) -> tuple:
    """(R, e) with exp(X_k) = R_k 2^{e_k} for every slice of a (..., n, n)
    stack, by Pade-13 scaling and squaring (Higham 2005), one run of slices
    at a time (`_pade13_scaled`), so its temporaries stay bounded at any
    stack size.  A run is `_slices` of 4 n^2 elements a slice, so each of
    the call's dozen temporaries holds a quarter of the block budget: runs of
    the whole budget held 0.7 MB more peak RSS on the `sde-presets` bench
    (2 vCPU), and runs of 128 to 512 slices at n = 3 read alike.  Each
    slice's arithmetic is its own, so a slice has the same bits alone and in
    any stack."""
    X = np.asarray(X, dtype=float)
    shape = X.shape
    n = shape[-1]
    X = X.reshape(-1, n, n)
    R = np.empty(X.shape)
    e = np.empty(X.shape[0], dtype=np.int64)
    for s in _slices(X.shape[0], 4 * n * n):
        R[s], e[s] = _pade13_scaled(X[s])
    return R.reshape(shape), e.reshape(shape[:-2])


def _pade13_scaled(X: np.ndarray) -> tuple:
    """`_expm_scaled` of a (k, n, n) stack.  Slice k is scaled by its own
    2^-s_k, s_k = max(0, ceil(log2(|X_k|_1 / theta_13))); one batched solve
    gives every r_13(2^-s_k X_k), and squaring round r then runs over the
    slices with s_k > r, each carrying its scale in e_k (`_rescale`).  Every
    slice takes this one route, defective generators included; a zero slice
    gives exactly I."""
    n = X.shape[-1]
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
    e = np.zeros(R.shape[0], dtype=np.int64)
    for r in range(int(s.max(initial=0))):
        live = np.flatnonzero(s > r)
        square, e_live = R[live] @ R[live], 2 * e[live]
        _rescale(square, e_live)
        R[live], e[live] = square, e_live
    return R, e


def _linear_propagators(lin: LinearCoeffs, span, d: int):
    """(state map, K factor) over jump-free intervals of length `span` (a
    scalar or an array of them): x -> E x + c with E = exp(A span), read off
    the exponential of the augmented generator [[A, b], [0, 0]] span.  The
    augmented stack is formed one `_expm_scaled` run at a time, so only E
    and c are held whole."""
    span = np.asarray(span, dtype=float)
    aug = np.zeros((d + 1, d + 1))
    aug[:d, :d] = lin.A
    aug[:d, d] = lin.b
    flat = span.reshape(-1)
    E, c = np.empty((flat.size, d, d)), np.empty((flat.size, d))
    for s in _slices(flat.size, 4 * (d + 1) ** 2):
        big = _expm_stack(aug * flat[s, None, None])
        E[s], c[s] = big[:, :d, :d], big[:, :d, d]
    return E.reshape(span.shape + (d, d)), c.reshape(span.shape + (d,))


def _linear_phi(lin: LinearCoeffs):
    """phi(x) = phi0 + C x for linear coefficients: phi0 = A beta - M b and
    C = A M - M A, which vanishes when A and M commute."""
    return lin.A @ lin.beta - lin.M @ lin.b, lin.A @ lin.M - lin.M @ lin.A


def _linear_batch(sde: JumpSde, batch: PathBatch):
    """Exact flow, per-jump vectors and bridge factor of a
    constant-coefficient linear system over a whole batch.

    The segment propagators E_s come from `_linear_propagators` over the
    real (path, segment) pairs, in the CSR order of `_segments`; a tangent
    E_s outside [2^-500, 2^500) is taken again from exp(A span) alone, with
    its power of two (`_expm_scaled`).  x then advances one ordinal at a
    time, vectorized over the paths that reach it, and each jump records
    phi(X_{T_i-}); `_backward_vectors` forms the v_i and the bridge factor
    from the E_s and the jump factor I + M.  Returns (terminal (P, d),
    vectors, factor, scale), the last three as `_backward_vectors` gives them.

    A flow that overflows (say a large positive eigenvalue of A over a long
    span) raises AssumptionError, as the RK4 engine does, rather than report
    nan Gammas or numpy's overflow warnings: overflowing propagators are
    refused before the ordinal loop, and the final check catches a state
    or vector that overflows over many finite ones.
    """
    lin = sde.linear
    d = sde.dim
    P = batch.n_paths
    counts = batch.counts()
    n_max = int(counts.max()) if P else 0
    J = np.eye(d) + lin.M
    phi0, comm = _linear_phi(lin)
    seg_offsets, starts, ends = _segments(batch)
    span = ends - starts
    with np.errstate(over="ignore", invalid="ignore"):
        E, c = _linear_propagators(lin, span, d)
    if not (np.all(np.isfinite(E)) and np.all(np.isfinite(c))):
        raise AssumptionError("linear flow propagators overflow: non-finite state")
    tangent, e_seg = E, np.zeros(span.size, dtype=np.int64)
    far, _ = _far_slices(E)
    if far.size:  # the forward sweep reads E unscaled
        tangent = E.copy()
        tangent[far], e_seg[far] = _expm_scaled(lin.A * span[far, None, None])
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
        vectors, factor, scale = _backward_vectors(
            batch, tangent, e_seg, np.broadcast_to(J, phi.shape + (d,)), phi
        )
    if not all(np.all(np.isfinite(a)) for a in (x, vectors, factor)):
        raise AssumptionError("batch flow integration produced non-finite state")
    return x, vectors, factor, scale


def _backward_vectors(
    batch: PathBatch, E: np.ndarray, e_seg: np.ndarray, F: np.ndarray, phi: np.ndarray
) -> tuple:
    """(v, w, scale): the vectors v_i = -K_{T_i->T} phi_i and the bridge
    factor w_i of every jump, (J, d) in flat_times order, in units of
    2^scale, a power of two per path (P,): sum_i w_i w_i^T = 4^-scale
    Gamma[X_T].  From the tangents E_s 2^{e_seg} of the `_segments`
    segments (S, d, d), the jump factors F_i = I + grad_x g (J, d, d) and
    phi_i (J, d).

    K_{T_i->T} = E_n F_{n-1} E_{n-1} ... F_{i+1} E_{i+1} on a path with n
    jumps, where segment i ends at jump i.  Each path's jumps are walked
    from the last, in adjoint order (Giles and Glasserman, "Smoking
    adjoints", Risk 2006): B = E_n, v_i = -B phi_i, then B <- B F_i E_i,
    vectorized over the paths with a jump at each step back.  No inverse is
    taken, and B carries its power of two (`_rescale`), so a flow that
    contracts past the double range keeps its v_i.  Every path takes this
    one walk; on a path whose powers stay 0, each ldexp is by 0 and exact,
    so it keeps scale 0 and every bit of the unscaled products.

    The same walk forms W = L^T V, where Xi = L L^T is the Brownian-bridge
    factor of the xi kernel (`malliavin._bridge_coefficients`):
    u_n = v_n, u_j = v_j + a_{j+1} u_{j+1}, w_j = sqrt(c_j) u_j, u at the
    larger power of two of its terms.  No denominator vanishes, a jump at T
    gets c_n = 0, and no term cancels.  Every product is a stacked one, so a
    path's bits do not depend on its batch.
    """
    counts = batch.counts()
    t = batch.flat_times
    path_of_jump = np.repeat(np.arange(counts.size), counts)
    # segment i of path p, which ends at jump i, is segment flat + p of the
    # CSR order; it starts at the previous jump, or at 0
    seg = np.arange(t.size) + path_of_jump
    prev = _segments(batch)[1][seg]
    a, root_c = _bridge_coefficients(batch.horizon, t, prev)
    step_back = _matmul(F, E[seg])
    last = batch.offsets[1:] + np.arange(counts.size)
    B, e_B = E[last], e_seg[last]
    u, e_u = np.zeros((counts.size, phi.shape[1])), np.zeros(counts.size, dtype=np.int64)
    v, e_v = np.empty(phi.shape), np.empty(t.size, dtype=np.int64)
    w, e_w = np.empty(phi.shape), np.empty(t.size, dtype=np.int64)
    for r in range(int(counts.max(initial=0))):
        idx = np.flatnonzero(counts > r)
        flat = batch.offsets[idx + 1] - 1 - r
        v[flat], e_v[flat] = -_matvec(B[idx], phi[flat]), e_B[idx]
        if r == 0:
            u[idx], e_u[idx] = v[flat], e_B[idx]
        else:
            top = np.maximum(e_u[idx], e_B[idx])
            u[idx] = _ldexp(v[flat], e_B[idx] - top) + a[flat + 1, None] * _ldexp(u[idx], e_u[idx] - top)
            e_u[idx] = top
        w[flat], e_w[flat] = root_c[flat, None] * u[idx], e_u[idx]
        more, back = idx[counts[idx] > r + 1], flat[counts[idx] > r + 1]
        B_more, e_more = _matmul(B[more], step_back[back]), e_B[more] + e_seg[seg[back]]
        _rescale(B_more, e_more)
        B[more], e_B[more] = B_more, e_more
    shift = e_u[path_of_jump]
    return _ldexp(v, e_v - shift), _ldexp(w, e_w - shift), e_u


# ---- lockstep RK4 engine ----

def _rk4_batch(sde: JumpSde, batch: PathBatch):
    """Flow, per-jump vectors and bridge factor of every path, by time-major
    lockstep RK4, for any system without exact linear coefficients.

    Each path walks its own schedule, whatever its batch: `_segment_steps`
    steps of h = span / steps per jump-free segment, at t = t_start + k h.
    One lockstep iteration advances every unfinished path by one step of
    x' = f and K' = (grad f) K, the state (P, d) and the tangent (P, d, d)
    packed into one array.  K starts from I on every segment, so at the
    segment's end it is that segment's tangent E_s.  A path that reaches a
    segment end steps with h = 0 until the next pass over segment ends,
    every _CLOSE_EVERY iterations, since on a large batch some path ends a
    segment at almost every iteration.  There the path stores E_s and
    restarts K from I, and if a jump ends the segment, it stores
    F_i = I + grad g, singular or not, as nothing inverts it, and phi_i and
    takes x <- x + g.  Waiting moves no bit
    of a path.  Every _RESCALE_EVERY iterations a K outside [2^-500, 2^500)
    moves its scale to a power of two (`_rescale`); an RK4 step multiplies
    a stable real mode by at least 0.27.  `_backward_vectors` then forms
    the v_i and the bridge factor, and the result is (terminal (P, d),
    vectors, factor, scale), as `_linear_batch` gives it.  For d = 1 the
    products are elementwise: a (P, 1, 1) matmul costs several multiplies.

    The step runs in place (`_rk4_step`): the stage buffers, the (P, d) and
    (P, d, d) views of each and the step times are made once per call, so
    an iteration makes no state-shaped array.  A flow that blows up raises
    AssumptionError, with numpy's overflow and invalid-value warnings held
    back, as in `_linear_batch`.
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
    E, e_seg = np.empty((span.size, d, d)), np.zeros(span.size, dtype=np.int64)
    e_K = np.zeros(P, dtype=np.int64)  # the power of two of every path's K
    F = np.empty((batch.flat_times.size, d, d))
    phi = np.empty((batch.flat_times.size, d))
    t = np.empty(P)
    work = tuple(np.empty_like(y) for _ in range(5)) + (np.empty((3, P)),)
    # the (P, d) state and (P, d, d) tangent views of every state-shaped
    # buffer, bound once: rhs looks them up by the buffer it is handed
    views = {id(b): (b[xs].T, b[Ks].T.reshape(P, d, d)) for b in (y,) + work[:5]}
    product = np.multiply if d == 1 else np.matmul

    def rhs(t, y, out):
        x, K = views[id(y)]
        out_x, out_K = views[id(out)]
        out_x[...] = sde.drift(t, x)
        product(sde.drift_jac(t, x), K, out=out_K)

    def close(idx):
        """Segment ends of paths `idx`, which all have h = 0 (finished paths
        keep it); returns the paths whose next segment is empty and so ends
        at once."""
        s = seg[idx]
        E[s] = y[Ks, idx].T.reshape(-1, d, d)
        e_seg[s] = e_K[idx]
        y[Ks, idx] = eye.reshape(-1, 1)
        e_K[idx] = 0
        jumping = s < last[idx]
        if jumping.any():
            jump = idx[jumping]
            sj = s[jumping]
            tj = ends[sj]
            xj = y[xs, jump].T
            gval = np.asarray(sde.jump(tj, xj), dtype=float)
            grad = sde.jump_jac(tj, xj)
            # segment s of path p ends jump s - p (flat_times order)
            flat = sj - jump
            F[flat] = eye + grad
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
    K_rows = y[Ks].T
    it = 0
    # a flow that blows up raises below, not numpy's warnings on the way
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            if it % _RESCALE_EVERY == 0:
                _rescale(K_rows, e_K)
            if it % _CLOSE_EVERY == 0:
                idx = np.concatenate(ended)
                ended = []
                while idx.size:
                    idx = close(idx)
                if (seg > last).all():
                    break
            np.multiply(k, h, out=t)
            np.add(t0, t, out=t)
            _rk4_step(rhs, t, h, y, work)
            k += 1
            idx = np.flatnonzero(k == n)
            n[idx] = -1
            h[idx] = 0.0
            ended.append(idx)
            it += 1
        x = y[xs].T.copy()
        vectors, factor, scale = _backward_vectors(batch, E, e_seg, F, phi)
    if not all(np.all(np.isfinite(a)) for a in (x, vectors, factor)):
        raise AssumptionError("batch flow integration produced non-finite state")
    return x, vectors, factor, scale


# ---- absolute-continuity criteria ----

@dataclass(frozen=True, eq=False)
class DensityCriteria:
    """Batch evidence for the absolute-continuity of X_T.

    Every system reports, per path, det Gamma[X_T], its smallest eigenvalue
    and the rank of the bridge factor W (Gamma = W^T W), from the singular
    values of W; the criterion is rank d on {N_T >= d}.
    `min_gamma` is the smallest eigenvalue there.  Scalar systems add the
    margin of the analytic Wronskian certificate, which holds where it is
    positive, when bounds were supplied.
    """

    label: str
    kind: str
    n_paths: int
    n_conditioned: int
    counts: np.ndarray
    terminal: np.ndarray        # (P, d)
    per_path_det: np.ndarray
    per_path_min_eig: np.ndarray
    per_path_flag: np.ndarray   # criterion satisfied on this path
    min_gamma: float
    n_nonpositive: int          # conditioned paths that fail the criterion
    wronskian_margin: Optional[float]
    min_rank: Optional[int]
    passed: bool


def density_criteria(sde: JumpSde, batch: PathBatch) -> DensityCriteria:
    """Evaluate the non-degeneracy criterion over a simulated batch.

    The criterion conditions on N_T >= d, the jumps the spanning argument
    needs.  Linear systems, d = 1 included, take the exact batched engine;
    every other system takes the lockstep RK4 engine.  det, the smallest
    eigenvalue and the rank come from the singular values of each path's
    block of W (`_spectrum`).  Both run on blocks of the count-sorted
    paths, longest first: `_runs` sized by a path's segments, its jumps plus
    one, or a single path that has more.  Both engines hold flat per-segment
    and per-jump arrays, so a block's segments bound them, and a batch of
    jump-free paths is bounded too.  A path's results have the same bits in
    any batch, so memory stays bounded at any path count, and a 500-path
    reference batch is one block.  A lockstep RK4 sweep runs as long as its
    block's longest path, so sorting keeps paths of like length together:
    blocks in batch order took 18.7-19.7 s against 14.8-17.6 s for
    `cos-sin` at 100 000 reference paths (2 vCPU).
    """
    counts = batch.counts()
    d = sde.dim
    engine = _linear_batch if sde.linear is not None else _rk4_batch
    terminal = np.empty((batch.n_paths, d))
    dets, min_eigs = np.empty((2, batch.n_paths))
    ranks = np.empty(batch.n_paths, dtype=np.int64)
    order = np.argsort(-counts, kind="stable")
    for s in _runs(counts[order] + 1):
        idx = order[s]
        block = batch.take(idx)
        terminal[idx], _, factor, scale = engine(sde, block)
        dets[idx], min_eigs[idx], ranks[idx] = _spectrum(block, factor, scale, d)
    cond = counts >= d
    flags = cond & (ranks == d)
    n_cond = int(cond.sum())
    margin = None
    if d == 1 and None not in (sde.wronskian_inf, sde.f_second_sup, sde.g_sup):
        margin = sde.wronskian_inf - 0.5 * sde.f_second_sup * sde.g_sup**2
    return DensityCriteria(
        label=sde.label,
        kind="scalar" if d == 1 else "linear-ddim" if sde.linear is not None else "general-ddim",
        n_paths=batch.n_paths, n_conditioned=n_cond, counts=counts, terminal=terminal,
        per_path_det=dets, per_path_min_eig=min_eigs, per_path_flag=flags,
        min_gamma=float(min_eigs[cond].min()) if n_cond else math.nan,
        n_nonpositive=n_cond - int(flags.sum()),
        wronskian_margin=margin, min_rank=int(ranks[cond].min()) if n_cond else None,
        passed=n_cond > 0 and bool(flags[cond].all()),
    )


def _spectrum(batch: PathBatch, factor: np.ndarray, scale: np.ndarray, d: int) -> tuple:
    """(det, smallest eigenvalue, rank) of every path's Gamma = 4^scale W^T W.
    The singular values s_1 >= ... >= s_d of the path's (n, d) block of W
    give det = 4^(d scale) prod s_k^2 and the smallest eigenvalue
    4^scale s_d^2, rounded to doubles (0.0 below 2^-1074, inf above the
    largest double, with no overflow warning), and the rank, the number of
    s_k above s_1 max(n, d) eps (`np.linalg.matrix_rank`'s tolerance).
    Below d jumps the missing s_k are 0, so det and the smallest eigenvalue
    are exactly 0.  Grouping paths by jump count gives each its own block's
    bits.

    The rank does not depend on the units of the state: scaling a column of
    W by c > 0 scales det Gamma by c^2.  So a block of n >= d rows whose
    rank falls short of d is read again with each column divided by its
    largest |entry| (a zero column stays as it is), as when the components'
    scales are 1e43 apart and s_d is under s_1 eps."""
    counts = batch.counts()
    sigma = np.zeros((counts.size, d))
    ranks = np.zeros(counts.size, dtype=np.int64)
    for n in np.unique(counts[counts > 0]):
        paths = np.flatnonzero(counts == n)
        block = factor[batch.offsets[paths][:, None] + np.arange(n)]
        sigma[paths, :min(n, d)] = s = np.linalg.svd(block, compute_uv=False)
        ranks[paths] = rank = _rank(s, n, d)
        short = np.flatnonzero((rank < d) & (n >= d))
        if short.size:
            top = np.abs(block[short]).max(axis=1, keepdims=True)
            equilibrated = block[short] / np.where(top > 0.0, top, 1.0)
            ranks[paths[short]] = _rank(np.linalg.svd(equilibrated, compute_uv=False), n, d)
    with np.errstate(over="ignore"):  # inf is the double rounding above the range
        dets = np.ldexp(np.prod(sigma**2, axis=1), 2 * d * scale)
        return dets, np.ldexp(sigma[:, -1] ** 2, 2 * scale), ranks


def _rank(s: np.ndarray, n: int, d: int) -> np.ndarray:
    """The number of singular values in each row of s (descending) above
    s_1 max(n, d) eps."""
    return np.sum(s > s[:, :1] * max(n, d) * np.finfo(float).eps, axis=1)


# ---- one path ----

@dataclass(frozen=True, eq=False)
class SensitivityReport:
    jump_times: np.ndarray
    horizon: float
    vectors: np.ndarray    # (n, d): v_i = -K_{T_i->T} phi(T_i, X_{T_i-})
    gamma: np.ndarray      # (d, d): W^T W
    det: float
    min_eig: float
    terminal: np.ndarray

    def gradient_component(self, component: int = 0):
        """The scalar-component gradient in the shared jump-time
        representation (partials = v_i[component])."""
        return MalliavinGradient(
            self.jump_times, self.vectors[:, component].copy(), self.horizon
        )


def grad_and_gamma_XT(sde: JumpSde, path: HawkesPath) -> SensitivityReport:
    """Per-jump vectors v_i = -K_{T_i->T} phi(T_i, X_{T_i-}) and
    Gamma[X_T] = W^T W of one path: the one-path view of the engine that
    `density_criteria` takes, so the terminal state, det and smallest
    eigenvalue are the bits it reports for the path in any batch."""
    if sde.linear is not None:
        return _linear_sensitivity(sde, path)
    return _one_path(sde, path, _rk4_batch)


def _linear_sensitivity(sde: JumpSde, path: HawkesPath) -> SensitivityReport:
    """`grad_and_gamma_XT` of a linear system, on the exact engine."""
    return _one_path(sde, path, _linear_batch)


def _one_path(sde: JumpSde, path: HawkesPath, engine) -> SensitivityReport:
    batch = PathBatch.of(path)
    terminal, v, w, scale = engine(sde, batch)
    dets, min_eigs, _ = _spectrum(batch, w, scale, sde.dim)
    with np.errstate(over="ignore"):  # as in `_spectrum`
        vectors, gamma = np.ldexp(v, scale[0]), np.ldexp(w.T @ w, 2 * scale[0])
    return SensitivityReport(
        jump_times=path.jump_times, horizon=path.horizon, vectors=vectors, gamma=gamma,
        det=float(dets[0]), min_eig=float(min_eigs[0]), terminal=terminal[0],
    )
