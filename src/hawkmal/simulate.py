"""Hawkes path simulation by thinning, with a counter-based RNG so batches
are bit-reproducible under any parallelism.

The proposal envelope between candidates is

    lambda_bar = sup_{[t_now, T]} lambda_base  +  gamma(S(t_now))

where S(t_now) is the excitation sum including any jump at t_now.  This
dominates the true intensity on (t_now, next jump] whenever mu is
nonincreasing and gamma is nondecreasing, as both its families are; a kernel
not promised nonincreasing is refused.  A guard raises if a proposal ever
exceeds the envelope (symptom of a broken promise or a bad baseline bound).

Every kernel runs in lockstep over fixed-width chunks of paths: each round,
every live path proposes one candidate from its u1 and u2, and the state
arrays are then compressed to the paths whose candidate fell inside [0, T].
One `_uniforms_at` call, the routine `RngStream` draws through, gives u1
and u2 for all live paths at once, for one round while many paths are live
and for a block of rounds once few are, so a narrow tail pays Philox's
fixed cost once per block.  The exponential kernel carries the excitation
as one Markov sum; any other kernel, a null one too, sums mu over a padded
history of each live path's jumps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, List, Optional, Tuple

import numpy as np

from .model import AssumptionError, HawkesModel, InternalError, _reference_cache, _row_sums, strict_lags

__all__ = [
    "HawkesPath",
    "RngStream",
    "PathBatch",
    "simulate_batch",
    "compensator",
    "compensator_batch",
]

# Fixed chunk width of `simulate_batch`: a memory bound on the lockstep
# arrays, which hold only a chunk's live paths, and on the block of rounds
# drawn ahead, at most 2 _CHUNK doubles.  Each path's arithmetic and draws
# are its own (see `_simulate_chunk`), so the width never changes bytes.
# Each lockstep round has a fixed cost of some 100 numpy calls, so wider
# chunks pay it for more paths; a sweep of one 50 000-path reference batch
# (2 vCPU, median of 21) took 179/144/129/136/144 ms at widths
# 4 096/8 192/16 384/32 768/65 536, before narrow rounds drew ahead.
_CHUNK = 16384
_MAX_ROUNDS = 500_000  # lockstep safety cap (candidates per path)
_ENVELOPE_SLACK = 1e-12


# ---------------------------------------------------------------------------
# counter-based RNG (Philox-4x32, 10 rounds)
# ---------------------------------------------------------------------------
# Each draw is addressed by (master_seed, path_index, draw_counter): the seed
# is the 2x32 key, the path index fills counter words 2-3 and the draw
# counter words 0-1.  One double in (0,1) per tick, from output words 0-1.

# Constants are 0-d uint64 arrays: numpy operates on them faster than on
# numpy scalars.
_M0 = np.array(0xD2511F53, dtype=np.uint64)
_M1 = np.array(0xCD9E8D57, dtype=np.uint64)
_BUMP0 = 0x9E3779B9
_BUMP1 = 0xBB67AE85
_U32 = np.array(0xFFFFFFFF, dtype=np.uint64)
_S32 = np.array(32, dtype=np.uint64)
_S11 = np.array(11, dtype=np.uint64)


def _round_keys(k0: int, k1: int):
    """The ten Philox round keys for the key (k0, k1), as pairs of 0-d
    uint64 arrays; the key is bumped as Python integers, modulo 2**32."""
    keys = []
    for _ in range(10):
        keys.append((np.array(k0, dtype=np.uint64), np.array(k1, dtype=np.uint64)))
        k0 = (k0 + _BUMP0) & 0xFFFFFFFF
        k1 = (k1 + _BUMP1) & 0xFFFFFFFF
    return tuple(keys)


def _seed_keys(master_seed: int):
    """Round keys of a 64-bit master seed: its low word is k0, its high k1."""
    seed = int(master_seed) & 0xFFFFFFFFFFFFFFFF
    return _round_keys(seed & 0xFFFFFFFF, seed >> 32)


def _philox_rounds(c0, c1, c2, c3, keys):
    """Ten Philox rounds under precomputed round keys; returns output words
    0-1, the only ones the package draws from, as uint64 arrays of the
    counter words' broadcast shape.

    The counter words are unsigned arrays holding values below 2**32.  A
    product of two 32-bit words fits in uint64, so the rounds run in uint64
    with no dtype conversion: the high half is ``p >> 32`` and the low half
    ``p & 0xFFFFFFFF``.  Words 0-1 come from the last round's product of c2
    alone, so that round skips the product of c0.
    """
    for r, (k0, k1) in enumerate(keys[:-1]):
        p0 = c0 * _M0
        p1 = c2 * _M1
        if r == 0 and p0.shape != p1.shape:  # the words broadcast to a larger shape
            c0 = (p1 >> _S32) ^ c1
            c2 = (p0 >> _S32) ^ c3
        else:
            c0 = p1 >> _S32
            c0 ^= c1
            c2 = p0 >> _S32
            c2 ^= c3
        c0 ^= k0
        c2 ^= k1
        p1 &= _U32
        p0 &= _U32
        c1, c3 = p1, p0
    k0 = keys[-1][0]
    p1 = c2 * _M1
    w0 = p1 >> _S32
    w0 ^= c1
    w0 ^= k0
    p1 &= _U32
    return w0, p1


def _unit_doubles(w0, w1):
    """Doubles in (0,1) from Philox output words 0-1."""
    bits = (w0 << _S32) | w1
    # 53-bit mantissa, offset by half an ulp: strictly inside (0,1)
    return ((bits >> _S11).astype(np.float64) + 0.5) * 2.0**-53


def _uniforms_at(keys, path_index: np.ndarray, draw: np.ndarray) -> np.ndarray:
    """Uniforms in (0,1), one per (path_index, draw) pair of the two arrays
    broadcast together, under the round keys of a master seed
    (`_seed_keys`).  Every draw of the package goes through here."""
    pi = np.asarray(path_index, dtype=np.uint64)
    dc = np.asarray(draw, dtype=np.uint64)
    w0, w1 = _philox_rounds(dc & _U32, dc >> _S32, pi & _U32, pi >> _S32, keys)
    return _unit_doubles(w0, w1)


@dataclass
class RngStream:
    """Substream addressed by (master_seed, path_index).

    Draws are a pure function of (master_seed, path_index, draw_counter),
    so substreams are independent of thread scheduling and of how many
    other paths are being simulated.
    """

    master_seed: int
    path_index: int
    draw_counter: int = 0

    def uniforms(self, n: int) -> np.ndarray:
        idx = np.full(n, self.path_index, dtype=np.uint64)
        ctr = np.arange(self.draw_counter, self.draw_counter + n, dtype=np.uint64)
        self.draw_counter += n
        return _uniforms_at(_seed_keys(self.master_seed), idx, ctr)


# ---------------------------------------------------------------------------
# path containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HawkesPath:
    """Jump instants 0 < t_1 < ... <= T on the window [0, T]."""

    jump_times: np.ndarray
    horizon: float

    def __post_init__(self):
        if not 0.0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be positive and finite, got {self.horizon}")
        t = np.asarray(self.jump_times, dtype=float).ravel()
        if t.size:
            if not (t[0] > 0.0 and t[-1] <= self.horizon and np.all(np.diff(t) > 0.0)):
                raise ValueError(
                    "jump times must be strictly increasing in (0, T]"
                )
        t = t.copy()
        t.flags.writeable = False
        object.__setattr__(self, "jump_times", t)
        object.__setattr__(self, "horizon", float(self.horizon))

    @property
    def count(self) -> int:
        """N_T, the number of jumps on [0, T]."""
        return int(self.jump_times.size)


@dataclass(frozen=True)
class PathBatch:
    """A contiguous block of simulated paths in compressed form.

    ``flat_times[offsets[i]:offsets[i+1]]`` are the jump times of path
    ``first_index + i``.  Reproducible bit-exactly from
    (master_seed, index range, model, T).  Both arrays are read-only views,
    so a batch, which `simulate_batch` may hand out again, and every block
    taken from it keep their bytes.
    """

    horizon: float
    master_seed: int
    first_index: int
    offsets: np.ndarray   # (n_paths + 1,) int64
    flat_times: np.ndarray

    def __post_init__(self):
        for name in ("offsets", "flat_times"):
            view = np.asarray(getattr(self, name)).view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)

    @property
    def n_paths(self) -> int:
        return int(self.offsets.size - 1)

    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    @classmethod
    def of(cls, path: HawkesPath) -> "PathBatch":
        """A batch holding `path` alone: every one-path quantity is its batch
        routine called on it."""
        return cls(path.horizon, 0, 0, np.array([0, path.count], dtype=np.int64), path.jump_times)

    def take(self, idx) -> "PathBatch":
        """The paths at positions `idx` of this batch, in that order, as a
        batch of their own.  Its first_index is that of the first path taken,
        so a cut index range keeps its path indices.  A slice (of step 1)
        takes its contiguous paths with no copy of their jump times: the
        block's flat_times is a view of this batch's.  A position outside
        [0, n_paths) raises IndexError."""
        if isinstance(idx, slice):
            lo, hi, step = idx.indices(self.n_paths)
            if step != 1:
                raise ValueError(f"a slice of paths needs step 1, got {step}")
            hi = max(lo, hi)
            a, b = self.offsets[lo], self.offsets[hi]
            return PathBatch(
                self.horizon, self.master_seed, self.first_index + lo,
                self.offsets[lo:hi + 1] - a, self.flat_times[a:b],
            )
        idx = np.asarray(idx, dtype=np.int64)
        if idx.size and not (0 <= idx.min() and idx.max() < self.n_paths):
            raise IndexError(f"path positions must lie in [0, {self.n_paths})")
        counts = self.counts()[idx]
        offsets = np.zeros(idx.size + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        # each taken jump's flat position here, shifted to its path's start there
        shift = np.repeat(self.offsets[idx] - offsets[:-1], counts)
        flat = self.flat_times[np.arange(offsets[-1]) + shift]
        first = self.first_index + (int(idx[0]) if idx.size else 0)
        return PathBatch(self.horizon, self.master_seed, first, offsets, flat)

    def path(self, i: int) -> HawkesPath:
        if not 0 <= i < self.n_paths:
            raise IndexError(f"path position {i} outside [0, {self.n_paths})")
        lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
        return HawkesPath(self.flat_times[lo:hi], self.horizon)

    def __len__(self) -> int:
        return self.n_paths

    def __iter__(self) -> Iterator[HawkesPath]:
        for i in range(self.n_paths):
            yield self.path(i)


# ---------------------------------------------------------------------------
# thinning engines
# ---------------------------------------------------------------------------

def _check_simulable(model: HawkesModel) -> None:
    k = model.kernel
    if not (k.nonincreasing or k.is_null()):
        raise AssumptionError(
            "thinning envelope requires a nonincreasing kernel; "
            "construct it with nonincreasing=True if that holds"
        )


def _simulate_chunk(model, T, seed, first, n):
    """Lockstep thinning of the paths [first, first + n), for any kernel.

    Returns the accepted jumps as per-round lists (rows, times), for
    `_assemble`: the rows, 0..n-1 within the chunk, of the paths that
    accepted a candidate in that round, and the candidates' times.  The
    state arrays hold the live paths only and are compressed each round.
    Every live path proposes once a round, so all of them share the draw
    counters: round r (from 1) draws u1 and u2 at counters 2r - 2 and
    2r - 1, and a path that leaves discards its u2.  A path's draws thus
    depend on its index alone, not on the chunk it runs in.

    A draw is a pure function of (seed, path, counter), so drawing ahead
    moves no bit.  When its drawn rounds run out, the chunk draws the next R
    rounds of every live lane in one `_uniforms_at` call, R = min(rounds run,
    _CHUNK // live) and at least 1: a wide round draws its own round alone,
    and a narrow tail pays Philox's fixed cost once per block of rounds,
    within the chunk's memory bound of 2 _CHUNK doubles.  `lane` maps the
    live lanes to their columns of the drawn block.

    S is the excitation at the last proposal, plus mu(0) if it was accepted.
    The exponential kernel is Markov: S decays by exp(-beta dt).  Any other
    kernel, a null one too, sums mu over `hist`, each live path's accepted
    jumps padded with +inf.  Its width stays a power of two of at least 8,
    so that numpy's pairwise row sum adds the real lags in the same order at
    every width: a path's bytes then do not depend on its chunk's longest
    path; `filled` counts each live path's jumps in `hist`.
    """
    base = model.baseline
    gam = model.nonlinearity
    k = model.kernel
    jump = float(k.mu(0.0))  # a custom kernel has no alpha
    markov = k.family == "exponential"
    keys = _seed_keys(seed)

    rows = np.arange(n)
    pidx = np.arange(first, first + n, dtype=np.uint64)
    t = np.zeros(n)
    S = np.zeros(n)
    if not markov:
        hist = np.full((n, 8), np.inf)
        filled = np.zeros(n, dtype=np.int64)
    u, used, lane = np.empty((0, n)), 0, None  # the drawn block, its rows consumed
    rows_acc: List[np.ndarray] = []
    times_acc: List[np.ndarray] = []

    rounds = 0
    while True:
        rounds += 1
        if rounds > _MAX_ROUNDS:
            raise InternalError("thinning failed to terminate")
        if used == u.shape[0]:
            R = max(1, min(rounds, _CHUNK // rows.size))
            draws = np.arange(2 * rounds - 2, 2 * (rounds + R) - 2, dtype=np.uint64)[:, None]
            u, used, lane = _uniforms_at(keys, pidx[rows], draws), 0, None
        u1, u2 = u[used:used + 2] if lane is None else u[used:used + 2, lane]
        used += 2

        lam_bar = base.sup_on(t, T) + gam.value(S)
        t_prop = t - np.log(u1) / lam_bar
        keep = ~(t_prop > T)
        if not keep.all():
            rows = rows[keep]
            t, S, t_prop, lam_bar, u2 = t[keep], S[keep], t_prop[keep], lam_bar[keep], u2[keep]
            lane = np.flatnonzero(keep) if lane is None else lane[keep]
            if not markov:
                hist, filled = hist[keep], filled[keep]
            if not rows.size:
                break

        if markov:
            S_prop = S * np.exp(-k.beta * (t_prop - t))
        else:
            S_prop = strict_lags(k.mu, hist, t_prop).sum(axis=-1)
        lam_star = base.value(t_prop) + gam.value(S_prop)
        if np.any(lam_star > lam_bar * (1.0 + _ENVELOPE_SLACK)):
            raise InternalError("thinning envelope violated")
        accept = u2 * lam_bar <= lam_star
        if accept.any():
            lanes = np.flatnonzero(accept)
            rows_acc.append(rows[lanes])
            times_acc.append(t_prop[lanes])
            S_prop[lanes] += jump
            if not markov:
                col = filled[lanes]
                filled[lanes] = col + 1
                if col.max() == hist.shape[1]:
                    hist = np.concatenate([hist, np.full_like(hist, np.inf)], axis=1)
                hist[lanes, col] = t_prop[lanes]
        S, t = S_prop, t_prop

    return rows_acc, times_acc


def _assemble(offsets, flat, rows_acc, times_acc):
    """Lays a chunk's per-round (rows, times) of accepted jumps out in CSR
    form, in place: `offsets` is the chunk's n + 1 slots of its batch's
    offsets, the first one set, and `flat` the batch's jump times so far,
    grown in place (a realloc) by the chunk's jumps, so the batch's times
    exist once; no view of `flat` may be alive.  A row accepts at most once
    a round: counting its rounds counts its jumps, and a running slot per
    row, bumped round by round, puts each time after the row's earlier
    ones."""
    slot = np.zeros(offsets.size - 1, dtype=np.int64)
    for rows in rows_acc:
        slot[rows] += 1
    np.cumsum(slot, out=offsets[1:])
    offsets[1:] += offsets[0]
    slot[:] = offsets[:-1]
    flat.resize(int(offsets[-1]), refcheck=False)
    for rows, times in zip(rows_acc, times_acc):
        flat[slot[rows]] = times
        slot[rows] += 1


# ---------------------------------------------------------------------------
# public API
# ---------------------------------------------------------------------------

# One entry: the commands and estimators of a run read one batch at a time.
@_reference_cache(1)
def simulate_batch(
    model: HawkesModel,
    T: float,
    master_seed: int,
    n_paths: int,
    n_workers: int = 1,
    first_index: int = 0,
) -> PathBatch:
    """n_paths independent paths with indices [first_index, first_index+n).

    Bit-identical output for fixed (master_seed, first_index, n_paths): each
    path owns its RNG substream, and the paths are simulated in fixed-width
    chunks by path index, which bound the lockstep arrays' memory.  Each
    chunk's offsets go straight into the batch's, and its jump times onto
    the end of one array grown in place, so peak memory is the batch plus
    one chunk's working set (its lockstep arrays and 16 bytes a jump of
    per-round rows and times), not twice the batch.
    `n_workers` is accepted for compatibility and ignored; threads only
    slowed the GIL-bound chunks down.

    A pure function of its arguments, so the last batch of at most
    model._CACHE_ENTRY_BYTES (some 28 000 reference paths at T = 5) is
    kept, and a repeat call returns it with its bits; `__wrapped__` always
    simulates.
    """
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not 0.0 < T < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {T}")
    if not 0 <= first_index <= 2**64 - n_paths:
        raise ValueError(f"path indices [{first_index}, {first_index} + {n_paths}) leave [0, 2^64)")
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    _check_simulable(model)

    offsets = np.zeros(n_paths + 1, dtype=np.int64)
    flat = np.empty(0)
    for s in range(0, n_paths, _CHUNK):
        n = min(_CHUNK, n_paths - s)
        # the chunk's rounds live only through this call, not into the next chunk's
        _assemble(
            offsets[s:s + n + 1], flat, *_simulate_chunk(model, T, master_seed, first_index + s, n)
        )
    return PathBatch(
        horizon=float(T),
        master_seed=int(master_seed),
        first_index=int(first_index),
        offsets=offsets,
        flat_times=flat,
    )


# ---------------------------------------------------------------------------
# segment quadrature, excitation sums and the compensator
# ---------------------------------------------------------------------------

_GL8 = np.polynomial.legendre.leggauss(8)
_GL16 = np.polynomial.legendre.leggauss(16)
_GL32 = np.polynomial.legendre.leggauss(32)
_QUAD_TOL = 1e-10          # accepted |32-node - 16-node| and |32 - 8| per panel
_QUAD_MAX_PANELS = 1 << 14  # most panels one segment may be split into
# Elements of the largest temporary of one block, the one budget of every
# blocked pass, read here alone and at each call: the (segments, nodes,
# lags) quadratures, the count-sorted padded blocks (`_path_blocks`), runs
# of consecutive items of varying size (`_runs`) and slices of items of one
# size (`_slices`).  So a pass costs each path its own jump count and its
# memory stays bounded whatever the batch's longest path.  At 128 KB a
# block keeps peak memory flat (2 MB blocks added 5 MB of peak RSS), and it
# is the fastest width measured: `z_eps_batch` at three eps over 5 000
# reference paths (2 vCPU, median of 7) took 26/18/41/86 ms at
# 4 096/16 384/65 536/262 144 elements.
_BLOCK_ELEMS = 1 << 14


def _gauss_rule(f, seg, lo, hi, rule=_GL32):
    """Gauss-Legendre values (panels,) + vshape of f on the panels [lo, hi];
    f(seg, u) takes nodes u shaped (panels, order), strictly inside them.
    Each panel reduces its own nodes (no BLAS call, whose blocking would
    depend on the panel count), as a contiguous last axis for every vshape:
    numpy orders a sum over a middle axis by the axes after it.  So a
    panel's value has the same bits in any call."""
    x, w = rule
    half = 0.5 * (hi - lo)
    vals = np.asarray(f(seg, lo[:, None] + half[:, None] * (x + 1.0)), dtype=float)
    nodes_last = np.ascontiguousarray(np.moveaxis(vals, 1, -1))
    return (nodes_last * w).sum(axis=-1) * half.reshape((-1,) + (1,) * (vals.ndim - 2))


def _segment_quad(f, a, b):
    """Integrals of f over the segments [a_s, b_s], shaped (S,) + vshape.

    f(seg, u) gets the segment index of each panel and nodes u shaped
    (panels, order), at most _BLOCK_ELEMS // 32 panels a call (at least one;
    _BLOCK_ELEMS is read at the call), and never more than segments given,
    so a caller's block of segments bounds f's temporaries as well.  A
    panel's 32-node value is accepted when the 16- and 8-node values agree
    with it to _QUAD_TOL in every component; failing panels are halved.  A
    segment's result has the same bits alone and in any batch, whatever the
    panels a call takes, as long as f gives a panel's nodes the same bits in
    any call: each panel's value is its own (`_gauss_rule`), and a segment
    adds its accepted panels in the order of its own refinement, as the
    queue is first in, first out.  A half must also meet a quarter of its
    parent's disagreement: the error falls at least fourfold per halving on
    the C^0 integrands the model allows, so one chance agreement of the
    orders at a kink does not end the refinement.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    panels = np.ones(a.size, dtype=np.int64)
    seg = np.nonzero(b > a)[0]  # the queue of panels, oldest first; empty segments give 0
    q = np.stack([a[seg], b[seg], np.zeros(seg.size)], axis=1)  # lo, hi, inherited bound
    # a call on no panels gives vshape even when every segment is empty
    out = np.zeros((a.size,) + _gauss_rule(f, seg[:0], q[:0, 0], q[:0, 1]).shape[1:])
    most = max(1, min(a.size, _BLOCK_ELEMS // _GL32[0].size))
    while seg.size:
        s, (l, h, bound), n = seg[:most], q[:most].T, min(seg.size, most)
        fine = _gauss_rule(f, s, l, h, _GL32)
        coarse = np.stack([_gauss_rule(f, s, l, h, rule) for rule in (_GL16, _GL8)])
        err = np.abs(fine - coarse).reshape(2, n, -1).max(axis=(0, 2))
        ok = ~(np.maximum(err, bound) > _QUAD_TOL)  # NaN propagates, unrefined
        np.add.at(out, s[ok], fine[ok])
        s, l, h, err = s[~ok], l[~ok], h[~ok], 0.25 * err[~ok]
        panels += np.bincount(s, minlength=a.size)
        if s.size and panels.max() > _QUAD_MAX_PANELS:
            raise InternalError(f"segment quadrature needs over {_QUAD_MAX_PANELS} panels")
        m = 0.5 * (l + h)
        seg = np.concatenate([seg[n:], np.repeat(s, 2)])
        q = np.concatenate([q[n:], np.stack([l, m, err, m, h, err], 1).reshape(-1, 3)])
    return out


def _row_blocks(counts: np.ndarray, elems_per_row):
    """Blocks (row indices, width) over the rows of a padded block, longest
    rows first: a block is as wide as its first row's count and holds as
    many rows as keep its elems_per_row(width) * rows within _BLOCK_ELEMS.
    Rows sorted by count keep one long path from widening the short ones."""
    order = np.argsort(-counts, kind="stable")
    r = 0
    while r < order.size:
        width = int(counts[order[r]])
        step = max(1, _BLOCK_ELEMS // max(elems_per_row(width), 1))
        yield order[r:r + step], width
        r += step


def _path_blocks(batch: PathBatch, elems_per_row=lambda K: K):
    """(positions, sub-batch) over the count-sorted `_row_blocks` of a
    batch: a padded pass over each sub-batch (`PathBatch.take`) holds about
    elems_per_row(K) cells a row, within _BLOCK_ELEMS.  Each per-path result
    has the same bits in any block, so a pass scatters its block's results
    to `positions` of the full path-ordered vector."""
    for idx, _ in _row_blocks(batch.counts(), elems_per_row):
        yield idx, batch.take(idx)


def _runs(sizes) -> Iterator[slice]:
    """Slices over runs of consecutive items, each run as long as keeps the
    sum of its items' sizes within _BLOCK_ELEMS; an item larger than that
    is a run alone."""
    ends = np.cumsum(sizes)
    lo = 0
    while lo < ends.size:
        base = int(ends[lo - 1]) if lo else 0
        hi = max(lo + 1, int(np.searchsorted(ends, base + _BLOCK_ELEMS, side="right")))
        yield slice(lo, hi)
        lo = hi


def _slices(n: int, size: int) -> Iterator[slice]:
    """Slices over n items of `size` elements each, as many a slice as fit
    in _BLOCK_ELEMS (at least one): `_runs` of items of one size."""
    step = max(1, _BLOCK_ELEMS // max(size, 1))
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def padded_jumps(batch: PathBatch) -> Tuple[np.ndarray, np.ndarray]:
    """(times, mask) as (n_paths, K) arrays, K = max jump count; padded
    slots hold the horizon value and are masked out."""
    counts = batch.counts()
    P = batch.n_paths
    K = int(counts.max()) if P else 0
    mask = np.arange(K)[None, :] < counts[:, None]
    times = np.full((P, K), batch.horizon, dtype=float)
    times[mask] = batch.flat_times
    return times, mask


def _excitation_recurrences(times, alpha, beta, anti_vals=None):
    """Per-jump sums for the exponential kernel via O(P K) recurrences:

    S_j     = sum_{i<j} alpha e^{-beta (T_j - T_i)}        (pre-jump excitation)
    C_j     = sum_{i<j} anti(T_i) e^{-beta (T_j - T_i)}     (for psi's cross sum)

    C is None when no anti_vals are given.  The recurrences step along the
    contiguous rows of the (K, P) transposes; S and C come back as C-ordered
    (P, K) arrays.
    """
    tt = np.ascontiguousarray(times.T)
    decay = np.exp(-beta * np.diff(tt, axis=0))
    S = np.zeros_like(tt)
    C = None if anti_vals is None else np.zeros_like(tt)
    at = None if anti_vals is None else np.ascontiguousarray(anti_vals.T)
    for j in range(1, tt.shape[0]):
        np.add(S[j - 1], alpha, out=S[j])
        S[j] *= decay[j - 1]
        if C is not None:
            np.add(C[j - 1], at[j - 1], out=C[j])
            C[j] *= decay[j - 1]
    return np.ascontiguousarray(S.T), None if C is None else np.ascontiguousarray(C.T)


def _excitation_sums(model: HawkesModel, times: np.ndarray, counts: np.ndarray, anti=None):
    """Sums over the strictly earlier jumps of each row of a padded (P, K)
    block holding counts[p] jumps in row p:

    S_j     = sum_{i<j} mu(T_j - T_i)                       (pre-jump excitation)
    cross_j = sum_{i<j} (anti_j - anti_i) mu'(T_j - T_i)    (psi's cross sum)

    cross is None when no `anti` is given.  The exponential kernel takes the
    O(P K) recurrences, S and C in one walk; any other kernel takes
    `model.excitation` at each row's own jumps over `_row_blocks`; padded
    slots then read 0.
    """
    kernel = model.kernel
    if kernel.family == "exponential":
        alpha, beta = float(kernel.alpha), float(kernel.beta)
        S, C = _excitation_recurrences(times, alpha, beta, anti)
        # cross_j = -beta (anti_j S_j - alpha C_j)
        return S, None if anti is None else -beta * (anti * S - alpha * C)
    S = np.zeros(times.shape)
    cross = None if anti is None else np.zeros(times.shape)
    for idx, K in _row_blocks(counts, lambda K: K * K):
        at = times[idx, :K]
        S[idx, :K] = model.excitation(at[:, None, :], at)
        if anti is not None:
            a = anti[idx, :K]
            mup = strict_lags(kernel.mu_prime, at[:, None, :], at)
            cross[idx, :K] = _row_sums((a[:, :, None] - a[:, None, :]) * mup)
    return S, cross


def _markov_segments(
    model: HawkesModel, rows: np.ndarray, t: float, S: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray]:
    """The exponential kernel's (alpha, beta) segment table for rows of
    sorted jump times padded with any value >= t: the post-jump sums
    S_k^+ = S_k + alpha and the decays e^{-beta Delta_k} over the segments
    [T_k ^ t, T_{k+1} ^ t] (T_{n+1} = t), both shaped as the rows.  After
    jump k the excitation is S_k^+ e^{-beta (u - T_k)}.  The pre-jump sums
    S come from `_excitation_recurrences` on the rows cut at t unless given;
    given S must hold them at every jump before t.  Other slots are free, as
    their segments are empty (Delta = 0)."""
    alpha, beta = float(model.kernel.alpha), float(model.kernel.beta)
    cuts = np.minimum(rows, t)
    ends = np.concatenate([cuts[:, 1:], np.full((cuts.shape[0], 1), t)], axis=1)
    top = (_excitation_recurrences(cuts, alpha, beta)[0] if S is None else S) + alpha
    return top, np.exp(-beta * (ends - cuts))


def _history_segments(model: HawkesModel, rows: np.ndarray, t: float, integrand):
    """Any kernel's segment table for rows of sorted jump times padded with
    any value >= t: yields (idx, K, quad) over the `_row_blocks` of the
    rows' counts of jumps before t.  quad[p, k] is the `_segment_quad` of
    integrand(exc, jumps, u) over segment k of row idx[p],
    [T_k ^ t, T_{k+1} ^ t] (T_{n+1} = t), where `jumps` are the row's first
    K jump times, shaped (panels, 1, K), and exc the excitation at the nodes
    u.  The segment before the first jump is left out, as the excitation is
    0 there; rows with no jump before t get no block."""
    for idx, K in _row_blocks((rows < t).sum(axis=1), lambda K: K * _GL32[0].size * K):
        if K == 0:
            break  # the remaining rows have no jumps before t
        block = rows[idx, :K]
        cuts = np.minimum(block, t)
        ends = np.concatenate([cuts[:, 1:], np.full((idx.size, 1), t)], axis=1)

        def f(seg, u):
            jumps = block[seg // K, None, :]
            return integrand(model.excitation(jumps, u), jumps, u)

        quad = _segment_quad(f, cuts.ravel(), ends.ravel())
        yield idx, K, quad.reshape((idx.size, K) + quad.shape[1:])


# The two integrals over the excitation's segments.  Here alone the kernel
# family picks a route: the Markov one on the exponential kernel, the
# history one on any other.

def _excitation_compensator(
    model: HawkesModel, rows: np.ndarray, t: float, S: Optional[np.ndarray] = None
) -> np.ndarray:
    """int_0^t gamma(excitation) ds per row of sorted jump times, padded
    with any value >= t (such jumps never count; their segments are empty):
    Lambda_t without the baseline integral.  Linear gamma is closed form.

    On the exponential kernel (`_markov_segments`, which reuses the rows'
    pre-jump sums S from `_excitation_sums` when the caller has them), the
    substitution y = S_k^+ e^{-beta (u - T_k)} turns segment k into

        int_{S_k^+ e^{-beta Delta_k}}^{S_k^+} gamma(y) / (beta y) dy,

    a scalar integral for `_segment_quad`, whose tolerance thus holds in the
    compensator's units; small caps still refine there, as tanh's poles lie
    near the real axis.  One call takes every cell of the rows, as
    `_segment_quad` skips the empty segments (padded slots, alpha = 0) and
    bounds its own calls.  Any other kernel integrates gamma(excitation) on
    `_history_segments`.  A segment's integral has the same bits in any
    block (`_segment_quad`), and each row adds its segments in order
    (`_row_sums`)."""
    gam = model.nonlinearity.value
    if model.nonlinearity.is_linear():
        return _row_sums(strict_lags(model.kernel.mu_hat, rows, t))
    if model.kernel.family != "exponential":
        out = np.zeros(rows.shape[0])
        for idx, _, quad in _history_segments(model, rows, t, lambda exc, jumps, u: gam(exc)):
            out[idx] = _row_sums(quad)
        return out
    beta = float(model.kernel.beta)
    top, decay = _markov_segments(model, rows, t, S)
    vals = _segment_quad(lambda seg, y: gam(y) / (beta * y), (top * decay).ravel(), top.ravel())
    return _row_sums(vals.reshape(rows.shape))


def _excitation_gamma2(model: HawkesModel, times: np.ndarray, T: float, S: np.ndarray) -> np.ndarray:
    """Gamma2(T_j) = int_{T_j}^T gamma'(excitation at u) mu'(u - T_j) du for
    every cell of a padded (P, K) block of jump times padded with T, whose
    pre-jump excitation is S (`_excitation_sums`); padded slots read 0.
    Linear gamma is closed form: mu(T - T_j) - mu(0).

    On the exponential kernel a backward recurrence on `_markov_segments`
    needs no quadrature, as y = S_k^+ e^{-beta (u - T_k)} integrates each
    segment in closed form:

        G_j = c_j + e^{-beta Delta_j} G_{j+1},
        c_j = (alpha / S_j^+) [gamma(S_j^+ e^{-beta Delta_j}) - gamma(S_j^+)],

    with G = 0 past the last jump; alpha = 0 gives S^+ = 0 and Gamma2 = 0
    with no division.  Any other kernel integrates on `_history_segments`,
    one component per T_j, which vanishes before T_j."""
    kernel, gam = model.kernel, model.nonlinearity
    if gam.is_linear():
        return kernel.mu(T - times) - float(kernel.mu(np.float64(0.0)))
    if kernel.family != "exponential":
        mu_prime, gprime = kernel.mu_prime, gam.derivative
        out = np.zeros(times.shape)

        def integrand(exc, jumps, u):
            return gprime(exc)[..., None] * strict_lags(mu_prime, jumps, u)

        for idx, K, quad in _history_segments(model, times, T, integrand):
            # quad[p, k, j]: segment k's share of Gamma2(T_j), added over k in order
            out[idx, :K] = _row_sums(np.swapaxes(quad, 1, 2))
        return out
    top, decay = _markov_segments(model, times, T, S)
    scale = np.divide(float(kernel.alpha), top, out=np.zeros_like(top), where=top > 0.0)
    # the backward walk steps along the contiguous rows of the (K, P) transposes
    c = np.ascontiguousarray((scale * (gam.value(top * decay) - gam.value(top))).T)
    decay = np.ascontiguousarray(decay.T)
    G = c.copy()
    for j in range(G.shape[0] - 2, -1, -1):
        G[j] += decay[j] * G[j + 1]
    return np.ascontiguousarray(G.T)


def _window_time(t: Optional[float], T: float) -> float:
    """t, or the horizon T when t is None; it must lie in [0, T]."""
    t = T if t is None else t
    if not (0.0 <= t <= T):
        raise ValueError(f"t must lie in [0, {T}], got {t}")
    return t


def compensator(model: HawkesModel, path: HawkesPath, t: Optional[float] = None) -> float:
    """Lambda_t on one path: its row of `compensator_batch`."""
    return float(compensator_batch(model, PathBatch.of(path), t)[0])


def compensator_batch(model: HawkesModel, batch: PathBatch, t: Optional[float] = None) -> np.ndarray:
    """Lambda_t = int_0^t lambda*(s) ds for every path of a batch; a jump at
    0 acts as the limit of jumps at 0+.  Each path sums its own terms in
    order, so its bits do not depend on the other paths of the batch: a
    path has the same Lambda_t alone (`compensator`) and in any batch.

    Linear gamma sums each path's closed-form terms mu_hat(t - T_i) straight
    from the flat jump times, over `_runs` of whole consecutive paths, each
    path sized as its jumps plus one: one `np.bincount` a run adds a path's
    terms in jump order from 0.0, as
    `_row_sums` adds its padded row in `_excitation_compensator`, so the
    bits are those of the jump-time density's Lambda.  Nonlinear gamma
    needs the excitation's segments: the paths go through `_path_blocks`,
    and each padded block through `_excitation_compensator`."""
    t = _window_time(t, batch.horizon)
    base = float(model.baseline.integral(np.float64(t)))
    out = np.empty(batch.n_paths)
    if model.nonlinearity.is_linear():
        for s in _runs(batch.counts() + 1):
            block = batch.take(s)
            path = np.repeat(np.arange(block.n_paths), block.counts())
            terms = strict_lags(model.kernel.mu_hat, block.flat_times, t)
            out[s] = base + np.bincount(path, weights=terms, minlength=block.n_paths)
        return out
    for idx, block in _path_blocks(batch):
        out[idx] = base + _excitation_compensator(model, padded_jumps(block)[0], t)
    return out
