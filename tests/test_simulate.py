"""Simulation-layer checks: RNG known answers, determinism under
parallelism, thinning reductions, compensator closed forms, and the segment
quadrature against scipy quad."""
import hashlib
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.integrate import quad

import hawkmal.model
import hawkmal.simulate
from hawkmal.density import _log_kappa_parts, log_kappa, log_kappa_rows
from hawkmal.experiments import _ibp_differences, mean_intensity_batch, smooth_catalog
from hawkmal.greeks import (
    AssetModel,
    Payoff,
    fd_delta,
    malliavin_delta,
    pathwise_delta,
    terminal_price,
    terminal_price_batch,
)
from hawkmal.malliavin import (
    CameronMartinFunction,
    divergence_m,
    divergence_m_batch,
    weight_arrays,
    weight_terms,
    z_eps,
    z_eps_batch,
)
from hawkmal.model import (
    AssumptionError,
    BaselineSpec,
    HawkesModel,
    InternalError,
    KernelSpec,
    NonlinearitySpec,
    intensity,
)
from hawkmal.simulate import (
    HawkesPath,
    PathBatch,
    _BLOCK_ELEMS,
    RngStream,
    _excitation_compensator,
    _path_blocks,
    _philox_rounds,
    _round_keys,
    _row_blocks,
    _runs,
    _seed_keys,
    _segment_quad,
    _slices,
    _uniforms_at,
    compensator,
    compensator_batch,
    padded_jumps,
    simulate_batch,
)


def reference_model():
    return HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )


def reference_tanh_model():
    return HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=NonlinearitySpec.saturating_tanh(cap=2.0),
    )


def poisson_model(lam=1.0):
    return HawkesModel(
        baseline=BaselineSpec.constant(lam),
        kernel=KernelSpec.exponential(alpha=0.0, beta=1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )


def triangular_kernel():
    """0.6 (1 - t)^+: compact support, so the excitation is not Markov."""
    return KernelSpec.custom(
        mu=lambda t: 0.6 * np.clip(1.0 - np.asarray(t, dtype=float), 0.0, None),
        mu_prime=lambda t: np.where(np.asarray(t, dtype=float) < 1.0, -0.6, 0.0),
        mu_hat=lambda t: 0.6
        * (np.minimum(np.asarray(t, dtype=float), 1.0)
           - 0.5 * np.minimum(np.asarray(t, dtype=float), 1.0) ** 2),
        l1_norm=0.3,
        sup_norm=0.6,
        sup_deriv=0.6,
        nonincreasing=True,
    )


def power_law_kernel(a=0.4, c=0.7, p=2.5):
    """a (1 + t/c)^-p: smooth, nonincreasing and not Markov."""

    def mu(t):
        return a * (1.0 + np.asarray(t, dtype=float) / c) ** -p

    def mu_prime(t):
        return -a * p / c * (1.0 + np.asarray(t, dtype=float) / c) ** (-p - 1.0)

    def mu_hat(t):
        return a * c / (p - 1.0) * (1.0 - (1.0 + np.asarray(t, dtype=float) / c) ** (1.0 - p))

    l1, sup, sup_deriv = a * c / (p - 1.0), a, a * p / c
    return KernelSpec.custom(mu, mu_prime, mu_hat, l1, sup, sup_deriv, nonincreasing=True)


def exp_as_custom(alpha, beta):
    """The exponential kernel wrapped as a custom kernel: the same mu, but
    the engines then take strict_lags sums, not recurrences."""
    k = KernelSpec.exponential(alpha=alpha, beta=beta)
    return KernelSpec.custom(
        k.mu, k.mu_prime, k.mu_hat, k.l1_norm, k.sup_norm, k.sup_deriv, nonincreasing=True
    )


def linear_model(kernel, lam=1.0):
    return HawkesModel(
        baseline=BaselineSpec.constant(lam),
        kernel=kernel,
        nonlinearity=NonlinearitySpec.linear(),
    )


# ---------------------------------------------------------------- RNG core

def _run_kat(ctr, key):
    c = [np.array([w], dtype=np.uint32) for w in ctr]
    # Philox-4x32-10 of the counter under the key: output words 0-1, the
    # only ones the package computes
    out = _philox_rounds(c[0], c[1], c[2], c[3], _round_keys(key[0], key[1]))
    return tuple(int(w[0]) for w in out)


def test_philox_known_answers():
    # words 0-1 of the standard 10-round known-answer vectors for the 4x32
    # variant, whose words 2-3 are 0xBC57AC4C 0x9B00DBD8, 0xA20BC7C6
    # 0x6D5451FD and 0x5001E420 0x24126EA1
    assert _run_kat((0, 0, 0, 0), (0, 0)) == (0x6627E8D5, 0xE169C58D)
    ff = 0xFFFFFFFF
    assert _run_kat((ff, ff, ff, ff), (ff, ff)) == (0x408F276D, 0x41C83B0E)
    assert _run_kat(
        (0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344),
        (0xA4093822, 0x299F31D0),
    ) == (0xD16CFE09, 0x94FDCCEB)


def test_uniforms_known_answer_digest():
    # 4096 (seed, path, draw) triples from a PCG64 bit stream, whose raw
    # output numpy keeps stable: 16 seeds, 0 and 2**64 - 1 among them, with
    # 256 (path, draw) addresses each, the all-ones address and small draws
    # included.  The digest pins every bit of the stream.
    raw = np.random.PCG64(20261018).random_raw(16 + 2 * 4096).astype(np.uint64)
    seeds = [2**64 - 1, 0] + [int(s) for s in raw[2:16]]
    addr = raw[16:].reshape(2, 16, 256)
    addr[:, 0, 0] = np.uint64(2**64 - 1)
    addr[:, 1, :8] = np.arange(8, dtype=np.uint64)
    h = hashlib.sha256()
    for k, seed in enumerate(seeds):
        h.update(_uniforms_at(_seed_keys(seed), addr[0, k], addr[1, k]).astype("<f8").tobytes())
    assert h.hexdigest() == "aefef1a0e1baaf7b96d038ec3547ac72bfde2c5077c4fad31d0c94c61096929e"


def test_uniforms_open_interval_and_determinism():
    idx = np.zeros(4096, dtype=np.uint64)
    ctr = np.arange(4096, dtype=np.uint64)
    u = _uniforms_at(_seed_keys(2024), idx, ctr)
    assert np.all(u > 0.0) and np.all(u < 1.0)
    # same address -> same value; different seed -> different stream
    v = _uniforms_at(_seed_keys(2024), idx, ctr)
    np.testing.assert_array_equal(u, v)
    w = _uniforms_at(_seed_keys(2025), idx, ctr)
    assert np.any(u != w)
    # rough uniformity sanity
    assert abs(float(u.mean()) - 0.5) < 0.03


def test_stream_advances_counter():
    s = RngStream(master_seed=7, path_index=3)
    a = s.uniforms(5)
    b = s.uniforms(5)
    assert s.draw_counter == 10
    assert not np.any(a == b)
    # a fresh stream replays the same ten draws
    s2 = RngStream(master_seed=7, path_index=3)
    np.testing.assert_array_equal(s2.uniforms(10), np.concatenate([a, b]))


# ---------------------------------------------------------------- containers

def test_path_invariants_enforced():
    HawkesPath(np.array([0.5, 1.0, 5.0]), horizon=5.0)  # tie at T is fine
    with pytest.raises(ValueError):
        HawkesPath(np.array([0.0, 1.0]), horizon=5.0)
    with pytest.raises(ValueError):
        HawkesPath(np.array([1.0, 1.0]), horizon=5.0)
    with pytest.raises(ValueError):
        HawkesPath(np.array([1.0, 5.1]), horizon=5.0)


def test_batch_csr_roundtrip():
    model = reference_model()
    batch = simulate_batch(model, T=5.0, master_seed=11, n_paths=50)
    assert batch.n_paths == 50
    assert int(batch.offsets[-1]) == batch.flat_times.size
    total = 0
    for i, p in enumerate(batch):
        assert p.count == int(batch.counts()[i])
        total += p.count
    assert total == batch.flat_times.size


def test_take_of_a_slice_is_a_view_of_the_same_paths():
    # a slice takes what take(np.arange(...)) takes, with its jump times a
    # view of the batch's, not a copy
    batch = simulate_batch(reference_model(), T=5.0, master_seed=11, n_paths=50, first_index=9)
    for lo, hi in ((0, 50), (7, 23), (49, 50), (10, 10), (40, 99)):
        view, copy = batch.take(slice(lo, hi)), batch.take(np.arange(lo, min(hi, 50)))
        assert view.n_paths == copy.n_paths
        assert view.offsets.tobytes() == copy.offsets.tobytes()
        assert view.flat_times.tobytes() == copy.flat_times.tobytes()
        assert (view.horizon, view.master_seed) == (batch.horizon, batch.master_seed)
        if view.n_paths:
            assert view.first_index == copy.first_index == 9 + lo
        if view.flat_times.size:
            assert np.shares_memory(view.flat_times, batch.flat_times)
    with pytest.raises(ValueError, match="step 1"):
        batch.take(slice(0, 50, 2))


def test_path_and_take_refuse_positions_outside_the_batch():
    # counts [10, 5, 5, 5]: path(-1) once read an empty path, path(-2) path
    # 3, take([-2]) path 3's times with first_index -2, and take([-1])
    # failed inside numpy
    times = [np.linspace(0.25, 4.75, 10)] + [np.linspace(0.5, 4.5, 5) + 0.1 * k for k in (1, 2, 3)]
    batch = PathBatch(5.0, 1, 0, np.array([0, 10, 15, 20, 25]), np.concatenate(times))
    for i in range(4):
        assert batch.path(i).jump_times.tobytes() == times[i].tobytes()
    kept = batch.take([3, 0])
    assert (kept.first_index, kept.counts().tolist()) == (3, [5, 10])
    for i in (-1, -2, -4, -5, 4, 5):
        with pytest.raises(IndexError):
            batch.path(i)
    for idx in ([-1], [-2], [0, -4], [4], [1, 4]):
        with pytest.raises(IndexError):
            batch.take(idx)
    assert batch.take([]).n_paths == 0


def test_a_batch_and_its_blocks_are_read_only():
    # a write to a batch, simulated or built from writable arrays, or to any
    # block taken from it raises: before, a write to a slice's block changed
    # its batch
    simulated = simulate_batch(reference_model(), 5.0, 13, 40)
    built = PathBatch(5.0, 13, 0, simulated.offsets.copy(), simulated.flat_times.copy())
    for batch in (simulated, built):
        before = (batch.offsets.tobytes(), batch.flat_times.tobytes())
        for part in (batch, batch.take(slice(3, 9)), batch.take([5, 2])):
            for array in (part.offsets, part.flat_times):
                with pytest.raises(ValueError, match="read-only"):
                    array[-1] = 0
        assert (batch.offsets.tobytes(), batch.flat_times.tobytes()) == before


def test_simulate_batch_cache_keys_every_form_of_a_call_and_keeps_no_large_batch():
    # one entry serves a call made positionally, by keyword, with numpy
    # scalars or with a model built apart, with the bits of a fresh thinning;
    # a batch over model._CACHE_ENTRY_BYTES comes back read-only, unkept
    model = reference_model()
    simulate_batch.cache_clear()
    batch = simulate_batch(model, 5.0, 11, 300, first_index=4)
    for call in (
        lambda: simulate_batch(model, 5.0, 11, 300, 1, 4),
        lambda: simulate_batch(model=model, T=5.0, master_seed=11, n_paths=300, first_index=4),
        lambda: simulate_batch(model, np.float64(5.0), np.int64(11), np.int64(300), first_index=4),
        lambda: simulate_batch(reference_model(), 5.0, np.uint64(11), 300, first_index=np.int64(4)),
    ):
        assert call() is batch
    info = simulate_batch.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 4)
    fresh = simulate_batch.__wrapped__(model, 5.0, 11, 300, first_index=4)
    assert (fresh.offsets.tobytes(), fresh.flat_times.tobytes()) == (
        batch.offsets.tobytes(), batch.flat_times.tobytes()
    )

    large = simulate_batch(model, 5.0, 11, 50_000)
    assert large.offsets.nbytes + large.flat_times.nbytes > hawkmal.model._CACHE_ENTRY_BYTES
    assert not (large.offsets.flags.writeable or large.flat_times.flags.writeable)
    assert simulate_batch.cache_info().currsize == 1
    assert simulate_batch(model, 5.0, 11, 300, first_index=4) is batch
    info = simulate_batch.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 2, 5)


# ---------------------------------------------------------------- determinism

def test_batch_matches_single_paths():
    model = reference_model()
    batch = simulate_batch(model, T=5.0, master_seed=42, n_paths=20)
    for i in range(20):
        solo = simulate_batch(model, 5.0, 42, 1, first_index=i).path(0)
        np.testing.assert_array_equal(solo.jump_times, batch.path(i).jump_times)


def test_parallelism_bit_identity():
    model = reference_model()
    a = simulate_batch(model, T=5.0, master_seed=9, n_paths=10_000, n_workers=1)
    b = simulate_batch(model, T=5.0, master_seed=9, n_paths=10_000, n_workers=8)
    np.testing.assert_array_equal(a.offsets, b.offsets)
    np.testing.assert_array_equal(a.flat_times, b.flat_times)


def _batch_digest(batch):
    h = hashlib.sha256()
    h.update(batch.offsets.astype("<i8").tobytes())
    h.update(batch.flat_times.astype("<f8").tobytes())
    return h.hexdigest()


def test_reference_batch_known_answer():
    # 40 000 paths from index 1234 span several chunks at widths 4 096 and
    # 16 384; the digest pins every offset and every bit of every jump time
    batch = simulate_batch(reference_model(), T=5.0, master_seed=20261018, n_paths=40_000,
                           first_index=1234)
    assert batch.flat_times.size == 326_628
    assert _batch_digest(batch) == "df8e09bb5a78d31f13377fa14a96ec916845820fdb18024bab14825cfc46c44f"


def test_tanh_batch_known_answer():
    model = HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=NonlinearitySpec.saturating_tanh(cap=2.0),
    )
    batch = simulate_batch(model, T=5.0, master_seed=7, n_paths=2_000, first_index=99)
    assert batch.flat_times.size == 15_339
    assert _batch_digest(batch) == "0a74519aec244fd15f01b1a35a9a767a66991df7c1db6e49c15875d43ebaf8af"


def test_one_path_batch_known_answer():
    # a path is a function of (model, T, seed, path index) alone: its count
    # as a one-path batch, for the Markov route and for a kernel summed over
    # the jump history
    path = simulate_batch(reference_model(), 5.0, 31, 1, first_index=5).path(0)
    assert path.count == 19
    path = simulate_batch(linear_model(triangular_kernel()), 4.0, 4242, 1, first_index=7).path(0)
    assert path.count == 5


def _joined(a, b):
    """The bytes of batch `a` followed by batch `b`, as one batch's."""
    offsets = np.concatenate([a.offsets, a.offsets[-1] + b.offsets[1:]])
    return offsets.tobytes(), np.concatenate([a.flat_times, b.flat_times]).tobytes()


SPLIT_MODELS = {
    "reference": reference_model(),
    # about 14 jumps a path at T = 5, so the history outgrows its first width
    "triangular": linear_model(triangular_kernel(), lam=2.0),
}


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(sorted(SPLIT_MODELS)),
    first=st.one_of(
        st.integers(0, 1000), st.integers(2**32 - 40, 2**32 + 40), st.integers(0, 2**64 - 41)
    ),
    n=st.integers(2, 40),
    cut=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**64 - 1),
)
def test_batch_equals_its_split_at_any_chunk_width(name, first, n, cut, seed):
    # substream independence: paths [first, first + n) are the same bytes
    # whether simulated together, as two adjacent batches or one by one, at
    # any width; every call thins, none reads the cache
    model = SPLIT_MODELS[name]
    split = min(n - 1, max(1, int(cut * n)))
    thin = simulate_batch.__wrapped__
    ref = thin(model, 5.0, seed, n, first_index=first)
    for width in (1, 7, hawkmal.simulate._CHUNK):
        with mock.patch.object(hawkmal.simulate, "_CHUNK", width):
            whole = thin(model, 5.0, seed, n, first_index=first)
            a = thin(model, 5.0, seed, split, first_index=first)
            b = thin(model, 5.0, seed, n - split, first_index=first + split)
        assert (whole.offsets.tobytes(), whole.flat_times.tobytes()) == (
            ref.offsets.tobytes(), ref.flat_times.tobytes()
        )
        assert _joined(a, b) == (ref.offsets.tobytes(), ref.flat_times.tobytes())
    for i in range(n):
        solo = thin(model, 5.0, seed, 1, first_index=first + i).path(0)
        assert solo.jump_times.tobytes() == ref.path(i).jump_times.tobytes()


DEPTH_MODELS = {
    "linear": reference_model(),
    "tanh": reference_tanh_model(),
    "custom": linear_model(triangular_kernel(), lam=2.0),
}


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(DEPTH_MODELS)),
    first=st.one_of(st.integers(0, 1000), st.integers(0, 2**64 - 81)),
    n=st.integers(1, 80),
    seed=st.integers(0, 2**64 - 1),
)
def test_draw_ahead_depth_moves_no_bit(name, first, n, seed):
    # the draw-ahead depth R = min(rounds, _CHUNK // live) changes with the
    # chunk width; at width 1 every round draws its own round alone.  The
    # batch bytes and a one-path batch's bytes must not change with it.
    # Every call thins, none reads the cache.
    model = DEPTH_MODELS[name]
    thin = simulate_batch.__wrapped__
    seen = set()
    for width in (1, 37, hawkmal.simulate._CHUNK, 2**20):
        with mock.patch.object(hawkmal.simulate, "_CHUNK", width):
            batch = thin(model, 5.0, seed, n, first_index=first)
            path = thin(model, 5.0, seed, 1, first_index=first).path(0)
        seen.add((batch.offsets.tobytes(), batch.flat_times.tobytes(),
                  path.jump_times.tobytes()))
    assert len(seen) == 1


def test_uneven_chunks_lay_out_the_same_batch():
    # 2 000 paths in chunks of 333 (six and a two-path tail), 1 000 and
    # 1 999 (a one-path tail): each chunk's offsets and times go into the
    # batch's arrays in place, with the bytes of one default-width chunk;
    # every call thins, none reads the cache
    thin = simulate_batch.__wrapped__
    for model in (reference_model(), reference_tanh_model(),
                  linear_model(triangular_kernel(), lam=2.0)):
        want = thin(model, 5.0, 29, 2000, first_index=3)
        for width in (333, 1000, 1999):
            with mock.patch.object(hawkmal.simulate, "_CHUNK", width):
                got = thin(model, 5.0, 29, 2000, first_index=3)
            assert got.offsets.tobytes() == want.offsets.tobytes(), width
            assert got.flat_times.tobytes() == want.flat_times.tobytes(), width


def test_at_most_one_philox_call_per_lockstep_round(monkeypatch):
    # no per-path Philox calls: each round calls the baseline's envelope once
    # on its live paths, and round r draws in at most one Philox call, which
    # draws R rounds (counters 2r - 2 .. 2(r + R) - 3) for every live lane; the
    # rounds that follow consume that block before the next call, and a
    # round with over half a chunk live draws its own round alone.  Checked
    # for a Markov kernel and for one that sums over the jump history.
    sup_on = BaselineSpec.sup_on
    philox = hawkmal.simulate._philox_rounds
    chunk = hawkmal.simulate._CHUNK
    for kernel, n_paths in [
        (KernelSpec.exponential(alpha=0.5, beta=1.0), 20_000),
        (power_law_kernel(), 2_000),
    ]:
        events = []

        def counted_sup_on(self, a, b):
            events.append(("round", np.shape(a)))
            return sup_on(self, a, b)

        def counted_philox(c0, c1, c2, c3, keys, **kw):
            words = philox(c0, c1, c2, c3, keys, **kw)
            events.append(("draw", words[0].shape, np.shape(c0), np.shape(c2)))
            return words

        monkeypatch.setattr(BaselineSpec, "sup_on", counted_sup_on)
        monkeypatch.setattr(hawkmal.simulate, "_philox_rounds", counted_philox)
        batch = simulate_batch.__wrapped__(linear_model(kernel), T=5.0, master_seed=8, n_paths=n_paths)
        assert batch.n_paths == n_paths
        draws = [i for i, e in enumerate(events) if e[0] == "draw"]
        assert draws and draws[0] == 0
        for i, j in zip(draws, draws[1:] + [len(events)]):
            _, shape, ctr_shape, live = events[i]
            depth = shape[0] // 2
            # every live lane of the round that follows, R rounds of each
            assert shape == (2 * depth,) + live and ctr_shape == (2 * depth, 1)
            assert events[i + 1] == ("round", live)
            # the block lasts the rounds up to the next call, and no longer
            assert 1 <= j - i - 1 <= depth
            if live[0] > chunk // 2:
                assert depth == 1
        rounds = len(events) - len(draws)
        assert len(draws) < rounds  # the narrow tail draws ahead


def test_disjoint_ranges_no_collisions():
    model = reference_model()
    batch = simulate_batch(model, T=5.0, master_seed=5, n_paths=10_000)
    seen = set()
    for p in batch:
        key = p.jump_times.tobytes()
        if p.count > 0:
            assert key not in seen
            seen.add(key)


def test_custom_kernel_engine_agrees_with_invariants():
    # the triangular kernel runs the lockstep engine on its jump history
    model = linear_model(triangular_kernel())
    batch = simulate_batch(model, T=4.0, master_seed=3, n_paths=200)
    for p in batch:
        if p.count:
            assert p.jump_times[0] > 0 and p.jump_times[-1] <= 4.0
    solo = simulate_batch(model, 4.0, 3, 1, first_index=7).path(0)
    np.testing.assert_array_equal(solo.jump_times, batch.path(7).jump_times)


@pytest.mark.parametrize(
    "gamma", [NonlinearitySpec.linear(), NonlinearitySpec.saturating_tanh(cap=2.0)]
)
def test_custom_wrapped_exponential_matches_markov_route(gamma):
    # the history sum and the Markov recursion are the same excitation in a
    # different order of rounding: equal counts, times within 1e-12
    markov, hist = (
        simulate_batch(HawkesModel(BaselineSpec.constant(1.0), k, gamma), 5.0, 2718, 2_000,
                       first_index=31)
        for k in (KernelSpec.exponential(alpha=0.5, beta=1.0), exp_as_custom(0.5, 1.0))
    )
    np.testing.assert_array_equal(hist.offsets, markov.offsets)
    assert hist.counts().max() > 16
    np.testing.assert_allclose(hist.flat_times, markov.flat_times, rtol=0.0, atol=1e-12)


def test_null_custom_kernel_is_poisson_bit_for_bit():
    null = KernelSpec.custom(
        mu=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        mu_prime=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        mu_hat=lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        l1_norm=0.0,
        sup_norm=0.0,
        sup_deriv=0.0,
    )
    a = simulate_batch(linear_model(null), 5.0, 606, 3_000, first_index=5)
    b = simulate_batch(poisson_model(), 5.0, 606, 3_000, first_index=5)
    assert _batch_digest(a) == _batch_digest(b)


def test_power_law_batch_known_answer():
    batch = simulate_batch(linear_model(power_law_kernel()), T=5.0, master_seed=20261018,
                           n_paths=2_000, first_index=777)
    assert batch.flat_times.size == 12_001
    assert _batch_digest(batch) == "52c33f7b6a087dec55eb9655b234abbc50fb4c8682373de79f67f430e36f82f7"


def test_envelope_guard_catches_an_increasing_kernel():
    # mu(t) = 0.1 + 0.3 min(t, 1) rises after each jump, though it claims
    # not to: the first proposal after a jump exceeds the envelope
    def mu(t):
        return 0.1 + 0.3 * np.minimum(np.asarray(t, dtype=float), 1.0)

    def mu_prime(t):
        return np.where(np.asarray(t, dtype=float) < 1.0, 0.3, 0.0)

    def mu_hat(t):
        t = np.asarray(t, dtype=float)
        return 0.1 * t + 0.15 * np.minimum(t, 1.0) ** 2 + 0.3 * np.maximum(t - 1.0, 0.0)

    # the norms are stand-ins: only the guard is under test
    rising = KernelSpec.custom(mu, mu_prime, mu_hat, 0.4, 0.4, 0.3, nonincreasing=True)
    with pytest.raises(InternalError, match="thinning envelope violated"):
        simulate_batch(linear_model(rising), T=5.0, master_seed=1, n_paths=50)


def test_non_monotone_kernel_rejected_for_simulation():
    k = KernelSpec.custom(
        mu=lambda t: 0.3 * np.sin(np.asarray(t, dtype=float)) ** 2,
        mu_prime=lambda t: 0.3 * np.sin(2 * np.asarray(t, dtype=float)),
        mu_hat=lambda t: 0.15 * (np.asarray(t, dtype=float)
                                 - 0.5 * np.sin(2 * np.asarray(t, dtype=float))),
        l1_norm=0.9,  # stand-in; only simulability is under test
        sup_norm=0.3,
        sup_deriv=0.3,
    )
    model = HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=k,
        nonlinearity=NonlinearitySpec.linear(),
    )
    with pytest.raises(AssumptionError, match="nonincreasing"):
        simulate_batch(model, T=2.0, master_seed=1, n_paths=2)


# ---------------------------------------------------------------- reductions

def test_poisson_reduction_mean():
    model = poisson_model()
    batch = simulate_batch(model, T=5.0, master_seed=101, n_paths=100_000, n_workers=4)
    n = batch.counts().astype(float)
    se = n.std(ddof=1) / math.sqrt(n.size)
    assert abs(n.mean() - 5.0) <= 3.0 * se


def test_poisson_reduction_chisquare():
    model = poisson_model()
    batch = simulate_batch(model, T=5.0, master_seed=202, n_paths=100_000, n_workers=4)
    counts = batch.counts()
    kmax = int(counts.max())
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    pmf = stats.poisson.pmf(np.arange(kmax + 1), 5.0)
    pmf[-1] = 1.0 - pmf[:-1].sum()  # fold the tail into the last cell
    expected = pmf * counts.size
    # merge cells until every expected count is >= 5
    obs_m, exp_m = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(observed, expected):
        acc_o += o
        acc_e += e
        if acc_e >= 5.0:
            obs_m.append(acc_o)
            exp_m.append(acc_e)
            acc_o = acc_e = 0.0
    obs_m[-1] += acc_o
    exp_m[-1] += acc_e
    chi2, p = stats.chisquare(obs_m, f_exp=exp_m)
    assert p > 0.01, f"chi-square p={p:.4g}"


def test_conditional_uniformity_given_one_jump():
    model = poisson_model(lam=0.25)  # small rate -> many N_T = 1 paths
    batch = simulate_batch(model, T=5.0, master_seed=303, n_paths=60_000, n_workers=4)
    counts = batch.counts()
    ones = np.nonzero(counts == 1)[0]
    assert ones.size >= 10_000
    t1 = batch.flat_times[batch.offsets[ones]]
    stat, p = stats.kstest(t1 / 5.0, "uniform")
    assert p > 0.01, f"KS p={p:.4g}"


def test_hawkes_mean_exceeds_poisson():
    # self-excitation must raise the mean count above lambda*T
    model = reference_model()
    batch = simulate_batch(model, T=5.0, master_seed=404, n_paths=20_000, n_workers=4)
    assert float(batch.counts().mean()) > 5.5


# ---------------------------------------------------------------- compensator

def test_compensator_no_jumps():
    model = reference_model()
    path = HawkesPath(np.empty(0), horizon=5.0)
    assert compensator(model, path, 5.0) == pytest.approx(5.0)


def test_compensator_single_jump_closed_form():
    model = reference_model()
    path = HawkesPath(np.array([1.0]), horizon=5.0)
    expected = 5.0 + 0.5 * (1.0 - math.exp(-4.0))
    assert compensator(model, path, 5.0) == pytest.approx(expected, rel=1e-12)
    assert compensator(model, path) == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        compensator(model, path, 5.5)


def test_compensator_nonlinear_matches_linear_when_unsaturated():
    # a huge cap makes tanh effectively linear; the segment quadrature
    # should agree with the closed form to its tolerance
    lin = reference_model()
    sat = HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=NonlinearitySpec.saturating_tanh(cap=1e8),
    )
    path = HawkesPath(np.array([0.7, 1.9, 3.2]), horizon=5.0)
    a = compensator(lin, path, 5.0)
    b = compensator(sat, path, 5.0)
    assert b == pytest.approx(a, abs=1e-7)


def test_compensator_nonlinear_quadrature_oracle():
    from scipy.integrate import quad

    model = HawkesModel(
        baseline=BaselineSpec.sinusoidal(lam0=1.5, amp=0.4, period=2.5),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.2),
        nonlinearity=NonlinearitySpec.saturating_tanh(cap=0.8),
    )
    times = np.array([0.6, 1.1, 2.8])
    path = HawkesPath(times, horizon=4.0)

    def lam(s):
        exc = float(np.sum(model.kernel.mu(s - times[times < s])))
        return float(model.baseline.value(np.float64(s))) + float(
            model.nonlinearity.value(np.float64(exc))
        )

    ref = 0.0
    cuts = [0.0, 0.6, 1.1, 2.8, 4.0]
    for a, b in zip(cuts[:-1], cuts[1:]):
        val, err = quad(lam, a, b, limit=200)
        ref += val
    assert compensator(model, path, 4.0) == pytest.approx(ref, abs=1e-8)


def test_compensator_batch_matches_scalar():
    model = reference_model()
    batch = simulate_batch(model, T=5.0, master_seed=77, n_paths=300)
    vec = compensator_batch(model, batch)
    scal = np.array([compensator(model, p) for p in batch])
    np.testing.assert_allclose(vec, scal, rtol=1e-12)


@pytest.mark.parametrize("t_frac", [1.0, 0.5])
def test_compensator_batch_bits_do_not_depend_on_the_split(t_frac):
    # Lambda_t of a path must not depend on the paths before it: the batch
    # equals, bit for bit, the concatenation of any (first_index, n_paths)
    # split of it, for linear gamma and on the nonlinear Markov route
    T, n = 5.0, 3000
    t = t_frac * T
    for model in (reference_model(), reference_tanh_model()):
        whole = compensator_batch(model, simulate_batch(model, T=T, master_seed=31, n_paths=n), t)
        for cuts in ([1], [1000], [7, 1500, 2999]):
            edges = [0, *cuts, n]
            parts = [
                compensator_batch(
                    model,
                    simulate_batch(model, T=T, master_seed=31, n_paths=hi - lo, first_index=lo),
                    t,
                )
                for lo, hi in zip(edges, edges[1:])
            ]
            np.testing.assert_array_equal(np.concatenate(parts), whole)


def test_martingale_property():
    # E[N_T - Lambda_T] = 0 for the compensated count
    model = reference_model()
    batch = simulate_batch(model, T=5.0, master_seed=505, n_paths=100_000, n_workers=4)
    diff = batch.counts().astype(float) - compensator_batch(model, batch)
    se = diff.std(ddof=1) / math.sqrt(diff.size)
    assert abs(diff.mean()) <= 3.0 * se, f"mean={diff.mean():.4g} se={se:.4g}"


# ---------------------------------------------------------------- segment quadrature

_QT = 3.0


def tanh_model(alpha, beta, cap, kernel=None):
    return HawkesModel(
        baseline=BaselineSpec.sinusoidal(lam0=1.5, amp=0.4, period=2.5),
        kernel=kernel or KernelSpec.exponential(alpha=alpha, beta=beta),
        nonlinearity=NonlinearitySpec.saturating_tanh(cap=cap),
    )


@st.composite
def tanh_paths(draw):
    """Sorted jump times in (0, _QT], sometimes with a jump at _QT and with
    pairs 1e-9 apart."""
    raw = draw(st.lists(st.floats(0.0, _QT, exclude_min=True), max_size=8))
    ties = draw(st.lists(st.sampled_from(raw), max_size=2)) if raw else []
    extra = [_QT] if draw(st.booleans()) else []
    times = np.unique(np.array(raw + [t + 1e-9 for t in ties] + extra, dtype=float))
    return times[times <= _QT]


def quad_segments(f, edges):
    """Sum of scipy quad over the consecutive segments of `edges`.  Each
    segment's error estimate must be at most 1e-11, 100 times under the
    tests' 1e-9 comparison, so the oracle checks its own error."""
    total = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        if b > a:
            value, err, _ = quad(f, a, b, epsabs=1e-13, epsrel=1e-13, limit=200, full_output=1)[:3]
            assert err <= 1e-11, (a, b, value, err)
            total += value
    return total


def quad_compensator(model, times, t, kinks=()):
    """Lambda_t by scipy quad on the inter-jump segments, split at `kinks`."""
    mu, gam = model.kernel.mu, model.nonlinearity.value

    def lam(s):
        exc = float(np.sum(mu(s - times[times < s])))
        return float(model.baseline.value(np.float64(s))) + float(gam(np.float64(exc)))

    edges = np.unique(np.concatenate([[0.0, t], times[times < t], [k for k in kinks if k < t]]))
    return quad_segments(lam, edges)


def quad_gamma2(model, times, T, j, kinks=()):
    """Gamma2(T_j) by scipy quad on [T_j, T], split at the later jumps and
    at `kinks`."""
    mu, mu_prime = model.kernel.mu, model.kernel.mu_prime
    gprime = model.nonlinearity.derivative
    s = times[j]

    def f(u):
        exc = float(np.sum(mu(u - times[times < u])))
        return float(gprime(np.float64(exc))) * float(mu_prime(np.float64(u - s)))

    edges = np.unique(np.concatenate([times[times >= s], [T], [k for k in kinks if k > s]]))
    return quad_segments(f, edges[edges <= T])


@given(counts=st.lists(st.integers(0, 60), max_size=300))
def test_row_blocks_cover_each_row_once_longest_first(counts):
    counts = np.array(counts, dtype=np.int64)
    blocks = list(_row_blocks(counts, lambda K: K * 32 * K))
    rows = np.concatenate([idx for idx, _ in blocks]) if blocks else np.empty(0, int)
    assert sorted(rows.tolist()) == list(range(counts.size))
    widths = [K for _, K in blocks]
    assert widths == sorted(widths, reverse=True)
    for idx, K in blocks:
        assert counts[idx].max() == K
        assert idx.size == 1 or idx.size * K * 32 * K <= _BLOCK_ELEMS


@given(
    sizes=st.lists(st.integers(0, 60), max_size=200),
    size=st.integers(1, 60),
    elems=st.integers(1, 200),
)
def test_runs_and_slices_cover_each_item_once_in_order_within_the_budget(sizes, size, elems):
    # every item once, in order, in runs of at most elems elements unless a
    # run is one item alone; a run ends only where the next item would
    # overflow it.  `_slices` cuts n items of one size as `_runs` does
    n = len(sizes)
    with mock.patch.object(hawkmal.simulate, "_BLOCK_ELEMS", elems):
        runs = list(_runs(np.array(sizes, dtype=np.int64)))
        slices = list(_slices(n, size))
        assert slices == list(_runs(np.full(n, size)))
    for items, cuts in ((np.array(sizes, dtype=np.int64), runs), (np.full(n, size), slices)):
        bounds = [0] + [c.stop for c in cuts]
        assert [c.start for c in cuts] == bounds[:-1] and bounds[-1] == n
        for c, nxt in zip(cuts, cuts[1:] + [None]):
            total = int(items[c].sum())
            assert c.stop > c.start and (total <= elems or c.stop - c.start == 1)
            assert nxt is None or total + items[nxt.start] > elems


def markov_batch(paths):
    """The paths, arrays of sorted jump times in (0, _QT], as one batch."""
    counts = [p.size for p in paths]
    return PathBatch(
        horizon=_QT,
        master_seed=0,
        first_index=0,
        offsets=np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        flat_times=np.concatenate(paths),
    )


@settings(max_examples=60, deadline=None)
@given(
    paths=st.lists(tanh_paths(), min_size=1, max_size=4),
    beta=st.floats(0.5, 3.0),
    ratio=st.floats(0.05, 0.9),
    cap=st.floats(0.2, 3.0),
    frac=st.sampled_from([1.0, 0.999, 0.6, 0.0]),
)
def test_compensator_batch_nonlinear_matches_scalar_and_quad(paths, beta, ratio, cap, frac):
    model = tanh_model(ratio * beta, beta, cap)
    batch = markov_batch(paths)
    t = frac * _QT
    vec = compensator_batch(model, batch, t)
    for i, path in enumerate(batch):
        scalar = compensator(model, path, t)
        assert vec[i] == pytest.approx(scalar, rel=1e-13, abs=0.0)
        assert scalar == pytest.approx(quad_compensator(model, path.jump_times, t), rel=0.0, abs=1e-9)


@settings(max_examples=60, deadline=None)
@given(
    paths=st.lists(tanh_paths(), min_size=1, max_size=4),
    custom=st.booleans(),
    linear=st.booleans(),
    beta=st.floats(0.5, 3.0),
    ratio=st.floats(0.05, 0.9),
    cap=st.floats(0.2, 3.0),
)
def test_price_compensator_is_the_density_compensator(paths, custom, linear, beta, ratio, cap):
    # the Lambda_T of S_T (`compensator_batch`, over count-sorted blocks) is
    # the Lambda_T inside log kappa (`_log_kappa_parts` on the whole padded
    # batch) bit for bit; a path with a jump exactly at T always rides along
    paths = paths + [np.array([1.0, _QT])]
    model = HawkesModel(
        baseline=BaselineSpec.sinusoidal(lam0=1.5, amp=0.4, period=2.5),
        kernel=triangular_kernel() if custom else KernelSpec.exponential(ratio * beta, beta),
        nonlinearity=NonlinearitySpec.linear() if linear else NonlinearitySpec.saturating_tanh(cap),
    )
    batch = markov_batch(paths)
    times, _ = padded_jumps(batch)
    _, exc = _log_kappa_parts(model, times, batch.counts(), _QT)
    want = float(model.baseline.integral(np.float64(_QT))) + exc
    np.testing.assert_array_equal(compensator_batch(model, batch), want)


@settings(max_examples=60, deadline=None)
@given(
    paths=st.lists(tanh_paths(), max_size=6),
    custom=st.booleans(),
    frac=st.sampled_from([1.0, 0.6, 0.25, 0.0]),
    elems=st.sampled_from([1, 5, 16, 37]),
)
def test_linear_compensator_adds_the_flat_terms_as_the_padded_rows(paths, custom, frac, elems):
    # the flat route of linear gamma (one bincount over each run of whole
    # paths) equals the padded rows of `_excitation_compensator` bit for bit:
    # jump-free paths, a jump exactly at t and a path longer than a block
    # always ride along
    t = frac * _QT
    at_t = [np.array([0.5 * t, t])] if t > 0.0 else []
    longest = np.linspace(_QT / 40, _QT, 40)
    batch = markov_batch([np.empty(0), *paths, *at_t, longest, np.empty(0)])
    model = HawkesModel(
        baseline=BaselineSpec.sinusoidal(lam0=1.5, amp=0.4, period=2.5),
        kernel=triangular_kernel() if custom else KernelSpec.exponential(0.5, 1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )
    base = float(model.baseline.integral(np.float64(t)))
    want = np.empty(batch.n_paths)
    for idx, block in _path_blocks(batch):
        want[idx] = base + _excitation_compensator(model, padded_jumps(block)[0], t)
    with mock.patch.object(hawkmal.simulate, "_BLOCK_ELEMS", elems):
        got = compensator_batch(model, batch, t)
    np.testing.assert_array_equal(got, want)


def padded_mean_intensity(model, batch, grid):
    """lambda*(s) from `model.excitation` on each padded block, one grid
    point at a time: the oracle of `mean_intensity_batch`'s ordinal walk."""
    out = np.empty((grid.size, batch.n_paths))
    for idx, block in _path_blocks(batch):
        times, _ = padded_jumps(block)
        for i, s in enumerate(grid):
            exc = model.excitation(times, s)
            out[i, idx] = float(model.baseline.value(np.float64(s))) + model.nonlinearity.value(exc)
    return out


@settings(max_examples=40, deadline=None)
@given(
    paths=st.lists(tanh_paths(), max_size=6),
    kind=st.sampled_from(["exponential", "triangular", "tanh"]),
    elems=st.sampled_from([5, _BLOCK_ELEMS]),
)
def test_mean_intensity_walk_stops_where_every_later_term_is_zero(paths, kind, elems):
    # at 0, at T and at every jump time (whose own jump must not count) the
    # ordinal walk equals the whole padded row's excitation bit for bit
    batch = markov_batch([np.empty(0), *paths, np.array([1.0, _QT])])
    model = HawkesModel(
        baseline=BaselineSpec.sinusoidal(lam0=1.5, amp=0.4, period=2.5),
        kernel=triangular_kernel() if kind == "triangular" else KernelSpec.exponential(0.5, 1.0),
        nonlinearity=NonlinearitySpec.saturating_tanh(2.0) if kind == "tanh" else NonlinearitySpec.linear(),
    )
    grid = np.concatenate([[0.0, _QT], batch.flat_times, np.linspace(0.0, _QT, 7)])
    with mock.patch.object(hawkmal.simulate, "_BLOCK_ELEMS", elems):
        got = mean_intensity_batch(model, batch, grid)
        want = padded_mean_intensity(model, batch, grid)
    np.testing.assert_array_equal(got, want)


@settings(max_examples=40, deadline=None)
@given(
    times=tanh_paths(),
    beta=st.floats(0.5, 3.0),
    ratio=st.floats(0.05, 0.9),
    cap=st.floats(0.2, 3.0),
)
def test_gamma2_nonlinear_matches_quad(times, beta, ratio, cap):
    model = tanh_model(ratio * beta, beta, cap)
    terms = weight_terms(model, HawkesPath(times, _QT), CameronMartinFunction.default(_QT))
    for j in range(times.size):
        assert terms.gamma2_at_jump[j] == pytest.approx(
            quad_gamma2(model, times, _QT, j), rel=0.0, abs=1e-9
        )


@settings(max_examples=40, deadline=None)
@given(
    segs=st.lists(
        st.tuples(st.floats(0.0, 4.0), st.floats(0.0, 4.0), st.floats(0.05, 3.0)),
        min_size=1, max_size=40,
    ),
    vector=st.booleans(),
    kinked=st.booleans(),
    data=st.data(),
)
def test_segment_quad_gives_each_segment_its_own_bits(segs, vector, kinked, data):
    # the integral of a segment has the same bits alone and inside any
    # batch, whichever segments share its calls and refinement rounds, and
    # at any number of panels a call (_BLOCK_ELEMS 1 and 37 give one)
    a, b, cap = (np.array(v) for v in zip(*segs))
    kink = a + 0.3 * (b - a)
    mu = c1_kernel().mu  # C^1 at 0.8, the end of its support

    def integrand(rows):
        def f(seg, y):  # the Markov compensator's tanh integrand, one cap a segment
            s = rows[seg][:, None]
            val = cap[s] * np.tanh(y / cap[s]) / y
            if kinked:  # plus a custom kernel's kink inside each segment, which refines
                val = val + mu(y - kink[s] + 0.8)
            return np.stack([val, val * y], axis=-1) if vector else val
        return f

    every = np.arange(a.size)
    whole = _segment_quad(integrand(every), a, b)
    for i in range(a.size):
        np.testing.assert_array_equal(_segment_quad(integrand(every[[i]]), a[[i]], b[[i]])[0], whole[i])
    pick = np.array(data.draw(st.permutations(range(a.size))))[: data.draw(st.integers(1, a.size))]
    np.testing.assert_array_equal(_segment_quad(integrand(pick), a[pick], b[pick]), whole[pick])
    for elems in (1, 37, 2**40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hawkmal.simulate, "_BLOCK_ELEMS", elems)
            got = _segment_quad(integrand(every), a, b)
        np.testing.assert_array_equal(got, whole, err_msg=f"at _BLOCK_ELEMS = {elems}")


def c1_kernel(a=0.6, c=0.8):
    """a (1 - t/c)^2 on [0, c) and 0 after: C^1 at c but not C^2, so
    gamma(excitation) is not smooth inside an inter-jump segment."""

    def mu(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < c, a * (1.0 - t / c) ** 2, 0.0)

    def mu_prime(t):
        t = np.asarray(t, dtype=float)
        return np.where(t < c, -2.0 * a / c * (1.0 - t / c), 0.0)

    def mu_hat(t):
        t = np.minimum(np.asarray(t, dtype=float), c)
        return a * c / 3.0 * (1.0 - (1.0 - t / c) ** 3)

    return KernelSpec.custom(mu, mu_prime, mu_hat, a * c / 3.0, a, 2.0 * a / c, nonincreasing=True)


def test_segment_quadrature_refines_on_c1_kernel(monkeypatch):
    model = tanh_model(None, None, 0.8, kernel=c1_kernel())
    batch = simulate_batch(model, T=_QT, master_seed=17, n_paths=8)
    assert batch.counts().max() >= 3
    m = CameronMartinFunction.default(_QT)
    for path in batch:
        t = path.jump_times
        kinks = t + 0.8
        assert compensator(model, path) == pytest.approx(
            quad_compensator(model, t, _QT, kinks), rel=0.0, abs=1e-9
        )
        g2 = weight_terms(model, path, m).gamma2_at_jump
        for j in range(t.size):
            assert g2[j] == pytest.approx(quad_gamma2(model, t, _QT, j, kinks), rel=0.0, abs=1e-9)
    # the kinks need more than one panel per segment: at a cap of one the
    # engine reports an internal error
    monkeypatch.setattr(hawkmal.simulate, "_QUAD_MAX_PANELS", 1)
    with pytest.raises(InternalError):
        compensator_batch(model, batch)


# ---------------------------------------------------------------- exponential kernel, nonlinear gamma

# beta = 400 makes S+ e^{-beta Delta} underflow to 0 on any gap over about 1.9
_MARKOV_BETAS = st.one_of(st.floats(0.5, 3.0), st.just(400.0))


@st.composite
def markov_paths(draw):
    """Sorted jump times in (0, _QT], sometimes with pairs one or two ulps
    apart, where gamma(S e^{-beta Delta}) - gamma(S) cancels, and with a
    jump at _QT."""
    raw = draw(st.lists(st.floats(0.0, _QT, exclude_min=True, exclude_max=True), max_size=8))
    close = []
    for t in draw(st.lists(st.sampled_from(raw), max_size=2)) if raw else []:
        up = np.nextafter(t, np.inf)
        close += [up, np.nextafter(up, np.inf)] if draw(st.booleans()) else [up]
    extra = [_QT] if draw(st.booleans()) else []
    times = np.unique(np.array(raw + close + extra, dtype=float))
    return times[times <= _QT]


@st.composite
def view_batches(draw):
    """Small batches on [0, _QT] that always hold a path of 8 or more jumps,
    sometimes ending at _QT, next to shorter and empty paths."""
    unit = st.floats(0.0, _QT, exclude_min=True)
    paths = [np.unique(draw(st.lists(unit, min_size=8, max_size=20, unique=True)))]
    paths += [np.unique(np.array(p, dtype=float)) for p in draw(st.lists(st.lists(unit, max_size=10), max_size=4))]
    if draw(st.booleans()):
        paths[0] = np.union1d(paths[0], [_QT])
    return markov_batch(draw(st.permutations(paths)))


@settings(max_examples=40, deadline=None)
@given(batch=view_batches(), tanh=st.booleans(), t_frac=st.sampled_from([1.0, 0.5, 0.0]))
def test_one_path_views_are_their_batch_rows(batch, tanh, t_frac):
    # compensator and terminal_price are their batch routines on a one-path
    # batch, so a path's values have the same bits alone and in any batch
    model = reference_tanh_model() if tanh else reference_model()
    t = t_frac * _QT
    lam = compensator_batch(model, batch, t)
    asset = AssetModel(x0=100.0, r=0.05, sigma=0.3, hawkes=model)
    prices, units = terminal_price_batch(asset, batch)
    for i, path in enumerate(batch):
        assert compensator(model, path, t) == lam[i]
        assert terminal_price(asset, path) == (prices[i], units[i])


_CONTRACT_GRID = np.linspace(0.0, 5.0, 33)[1:]


def contract_model(kind):
    """The reference model ("linear"), under tanh at cap 2 ("tanh"), and
    under tanh with the kernel wrapped as custom ("custom")."""
    kernel = exp_as_custom(0.5, 1.0) if kind == "custom" else KernelSpec.exponential(0.5, 1.0)
    gamma = NonlinearitySpec.linear() if kind == "linear" else NonlinearitySpec.saturating_tanh(2.0)
    return HawkesModel(BaselineSpec.constant(1.0), kernel, gamma)


def batch_rows(model, batch):
    """Every per-path quantity from its batch routine, first axis over the
    paths (over the jumps, in flat order, for the weight terms)."""
    T = batch.horizon
    m = CameronMartinFunction.default(T)
    asset = AssetModel(x0=100.0, r=0.05, sigma=0.3, hawkes=model)
    times, mask = padded_jumps(batch)
    log_prod, exc = _log_kappa_parts(model, times, batch.counts(), T)
    terms = np.stack(weight_arrays(model, batch, m)[2:], axis=-1)
    return {
        "compensator": compensator_batch(model, batch),
        "compensator at T/2": compensator_batch(model, batch, 0.5 * T),
        "terminal_price": np.stack(terminal_price_batch(asset, batch), axis=1),
        "divergence_m": divergence_m_batch(model, batch, m),
        "z_eps": z_eps_batch(model, batch, m, 0.1),
        "weight_terms": terms[mask],
        "log_kappa": log_prod - (float(model.baseline.integral(np.float64(T))) + exc),
        "intensity": mean_intensity_batch(model, batch, _CONTRACT_GRID).T,
    }


@st.composite
def index_splits(draw):
    """(n_paths, cuts): a path count and the inner edges of a split of its
    index range."""
    n = draw(st.integers(2, 100))
    return n, sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=3))))


@settings(max_examples=8, deadline=None)
@given(kind=st.sampled_from(["linear", "tanh", "custom"]), seed=st.integers(0, 2**32 - 1),
       split=index_splits())
@example(kind="linear", seed=5, split=(600, [300]))
@example(kind="custom", seed=31, split=(600, [7, 300, 599]))
def test_every_per_path_quantity_is_its_batch_row(kind, seed, split):
    # each one-path view equals its batch row bit for bit, and every batch
    # row is the same in the whole batch and in the parts of a split
    model = contract_model(kind)
    (n, cuts), T = split, 5.0
    batch = simulate_batch(model, T, seed, n)
    whole = batch_rows(model, batch)
    edges = [0, *cuts, n]
    parts = [batch_rows(model, simulate_batch(model, T, seed, hi - lo, first_index=lo))
             for lo, hi in zip(edges, edges[1:])]
    for key, rows in whole.items():
        np.testing.assert_array_equal(np.concatenate([p[key] for p in parts]), rows, err_msg=key)

    m = CameronMartinFunction.default(T)
    asset = AssetModel(x0=100.0, r=0.05, sigma=0.3, hawkes=model)
    for i, path in enumerate(batch):
        lo, hi = batch.offsets[i], batch.offsets[i + 1]
        terms = weight_terms(model, path, m)
        assert compensator(model, path) == whole["compensator"][i]
        assert compensator(model, path, 0.5 * T) == whole["compensator at T/2"][i]
        assert terminal_price(asset, path) == tuple(whole["terminal_price"][i])
        assert divergence_m(model, path, m) == whole["divergence_m"][i]
        assert z_eps(model, path, m, 0.1) == whole["z_eps"][i]
        np.testing.assert_array_equal(
            np.stack([terms.psi_at_jump, terms.gamma1_at_jump, terms.gamma2_at_jump,
                      terms.m_at_jump, terms.m_hat_at_jump], axis=-1),
            whole["weight_terms"][lo:hi],
        )
        if path.count:
            assert log_kappa(model, T, path.jump_times) == whole["log_kappa"][i]
        np.testing.assert_array_equal(
            intensity(model, path.jump_times, _CONTRACT_GRID), whole["intensity"][i]
        )


def blocked_results(model, batch):
    """Every routine that runs over count-sorted blocks of paths (of rows,
    for log_kappa_rows), on one batch; the Malliavin delta on linear gamma
    only, where it is derived."""
    T = batch.horizon
    m = CameronMartinFunction.default(T)
    times = padded_jumps(batch)[0]
    out = {
        "z_eps": z_eps_batch(model, batch, m, 0.1),
        "divergence_m": divergence_m_batch(model, batch, m),
        "ibp": _ibp_differences(model, batch, m, smooth_catalog()),
        "intensity": mean_intensity_batch(model, batch, _CONTRACT_GRID),
        "compensator": compensator_batch(model, batch),
        "compensator at T/2": compensator_batch(model, batch, 0.5 * T),
        "log_kappa_rows": log_kappa_rows(model, T, times[batch.counts() >= 2, :2]),
    }
    asset = AssetModel(100.0, 0.05, 0.3, model)
    for name, est in (
        ("fd_delta", fd_delta(asset, Payoff.digital(100.0), batch, bump=1.0)),
        ("pathwise_delta", pathwise_delta(asset, Payoff.capped_linear(90.0, 110.0), batch)),
    ):
        out[name] = np.array([est.mean, est.std_error, est.effective_sample_size])
    if model.nonlinearity.is_linear():
        est = malliavin_delta(asset, Payoff.digital(100.0), batch)
        out["malliavin_delta"] = np.array([
            est.mean, est.std_error, est.effective_sample_size, est.excluded,
            est.min_abs_denominator,
        ])
    return out


@settings(max_examples=6, deadline=None)
@given(kind=st.sampled_from(["linear", "tanh", "custom"]), seed=st.integers(0, 2**32 - 1),
       n=st.integers(20, 60))
@example(kind="custom", seed=31, n=60)
def test_blocked_routines_give_the_same_bits_at_any_block_size(kind, seed, n):
    # one row a block, odd blocks, the default and the whole batch in one
    # block: every per-path result, and so every estimate, keeps its bits;
    # the FD and pathwise deltas take contiguous blocks of as many paths
    model = contract_model(kind)
    batch = simulate_batch(model, 5.0, seed, n)
    want = blocked_results(model, batch)
    for elems in (1, 37, 2**40):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(hawkmal.simulate, "_BLOCK_ELEMS", elems)
            got = blocked_results(model, batch)
        for key, rows in want.items():
            np.testing.assert_array_equal(got[key], rows, err_msg=f"{key} at {elems}")


# tracemalloc peak allowed to each pass over the outlier batch below; the
# padded passes of the whole batch took 0.4 to 1.3 GB there
_OUTLIER_BUDGET = 4 << 20


def test_outlier_path_keeps_memory_bounded():
    # 5 000 reference paths (at most 30 jumps) and one path of 2 000 jumps:
    # the outlier widens its own block only
    model, T = reference_model(), 5.0
    batch = simulate_batch(model, T, 5, 5000)
    outlier = np.linspace(T / 2000, T, 2000)
    batch = PathBatch(
        horizon=T,
        master_seed=5,
        first_index=0,
        offsets=np.append(batch.offsets, batch.offsets[-1] + outlier.size),
        flat_times=np.concatenate([batch.flat_times, outlier]),
    )
    m = CameronMartinFunction.default(T)
    asset = AssetModel(100.0, 0.05, 0.3, model)
    passes = {
        "z_eps_batch": lambda: z_eps_batch(model, batch, m, 0.1),
        "divergence_m_batch": lambda: divergence_m_batch(model, batch, m),
        "malliavin_delta": lambda: malliavin_delta(asset, Payoff.digital(100.0), batch),
        "mean_intensity_batch": lambda: mean_intensity_batch(model, batch, _CONTRACT_GRID),
        "compensator_batch": lambda: compensator_batch(model, batch),
        "compensator_batch, tanh": lambda: compensator_batch(reference_tanh_model(), batch),
    }
    for name, run in passes.items():
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < _OUTLIER_BUDGET, f"{name} peaked at {peak / 2**20:.1f} MB"


# tracemalloc peak allowed to `simulate_batch` beyond its output: one
# chunk's working set, whatever the batch size.  It reads about 3 MB on
# reference paths; a second copy of the jump times, as a concatenation of
# the chunks' results made, would add the 5.6 MB of an 80 000-path batch.
_CHUNK_WORKING_SET = 4 << 20


def test_simulate_batch_holds_its_batch_once():
    # the uncached routine: a batch the cache kept would allocate nothing
    for n in (20_000, 80_000):
        tracemalloc.start()
        try:
            batch = simulate_batch.__wrapped__(reference_model(), 5.0, 7, n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        excess = peak - batch.offsets.nbytes - batch.flat_times.nbytes
        assert excess < _CHUNK_WORKING_SET, f"{n} paths: {excess / 2**20:.2f} MB over the batch"


def check_markov_route(paths, alpha, beta, cap):
    """The exponential kernel's route (a scalar integral per segment for
    Lambda, a backward recurrence for Gamma2) against the same kernel
    wrapped as custom, on the K-wide quadratures, and against scipy quad;
    compensator_batch at t = 0, T/2 and T.  The routes under test run with
    every warning an error."""
    fast = tanh_model(alpha, beta, cap)
    slow = tanh_model(None, None, cap, kernel=exp_as_custom(alpha, beta))
    batch = markov_batch(paths)
    m = CameronMartinFunction.default(_QT)
    ts = (0.0, 0.5 * _QT, _QT)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        comps = [compensator_batch(fast, batch, t) for t in ts]
        mask, g2 = weight_arrays(fast, batch, m)[1:5:3]
    slow_g2 = weight_arrays(slow, batch, m)[4]
    np.testing.assert_allclose(g2[mask], slow_g2[mask], rtol=1e-12, atol=1e-14)
    for t, comp in zip(ts, comps):
        np.testing.assert_allclose(comp, compensator_batch(slow, batch, t), rtol=1e-12)
        for i, path in enumerate(batch):
            want = quad_compensator(fast, path.jump_times, t)
            assert comp[i] == pytest.approx(want, rel=0.0, abs=1e-9), (t, i)
    for i, path in enumerate(batch):
        for j in range(path.count):
            want = quad_gamma2(fast, path.jump_times, _QT, j)
            assert g2[i, j] == pytest.approx(want, rel=0.0, abs=1e-9), (i, j)
    return comps, g2, mask


@settings(max_examples=40, deadline=None)
@given(
    paths=st.lists(markov_paths(), min_size=1, max_size=3),
    beta=_MARKOV_BETAS,
    ratio=st.floats(0.05, 0.9),
    cap=st.sampled_from([0.05, 0.3, 2.0]),
)
def test_markov_route_matches_wrapped_kernel_and_quad(paths, beta, ratio, cap):
    check_markov_route(paths, ratio * beta, beta, cap)


@pytest.mark.parametrize("cap", [0.05, 0.3, 2.0])
@pytest.mark.parametrize(
    "times",
    [
        [0.4, np.nextafter(0.4, 1.0), 1.3],  # one ulp apart
        [0.2, 1.1, _QT],                     # a jump at T
        [0.05],                              # one long gap
    ],
)
def test_markov_route_edge_paths(times, cap):
    # beta = 400 also underflows S+ e^{-beta Delta} to 0 on the long gaps
    paths = [np.array(times), np.empty(0)]
    for beta in (1.3, 400.0):
        check_markov_route(paths, 0.6 * beta, beta, cap)


_ROUTE_KERNELS = {
    "exponential": lambda: KernelSpec.exponential(alpha=0.5, beta=1.0),
    "wrapped": lambda: exp_as_custom(0.5, 1.0),
    "triangular": triangular_kernel,
}


@pytest.mark.parametrize(
    "kernel, gamma, digest",
    [
        ("exponential", "linear",
         "75533b9f9477266b192d3a9f305819353c492df969180578d456cb328568532f"),
        ("exponential", "tanh",
         "4c40d20f378c07a593506153fd483afceb7fdc795c15e6d688ccbd9d8c5346c6"),
        ("wrapped", "linear",
         "93003b1630328a17025fffb451536b5d3ae0b0d285dd91f3dc6ce491e5ce7ffa"),
        ("wrapped", "tanh",
         "bea81f03371acf60d6b5f8c75f9e105e33d937a21abfe76ffda75e02c762cd2f"),
        ("triangular", "linear",
         "5edeb2411a88fab169c7a30ccdd9a9ad80d280f4b4cd6554e368a3d5c51aa74e"),
        ("triangular", "tanh",
         "7387e732805357fdab80eb0f96e461b356b861bbd4bb9aa6a51ef7e2bc021a9b"),
    ],
)
def test_excitation_routes_known_answer(kernel, gamma, digest):
    """sha256 of every output of the compensator and Gamma2 routes, on each
    kernel route (Markov on the exponential, the jump history on a custom
    kernel) under linear and tanh gamma: `weight_arrays`,
    `compensator_batch` at T and inside the window, `z_eps_batch` and
    `log_kappa_rows` on fixed rows."""
    T = 5.0
    nonlinearity = {"linear": NonlinearitySpec.linear(),
                    "tanh": NonlinearitySpec.saturating_tanh(cap=2.0)}[gamma]
    model = HawkesModel(BaselineSpec.constant(1.0), _ROUTE_KERNELS[kernel](), nonlinearity)
    batch = simulate_batch(model, T=T, master_seed=2027, n_paths=120)
    m = CameronMartinFunction.default(T)
    rows = np.sort(np.random.default_rng(3).uniform(0.0, T, (40, 4)), axis=1)
    h = hashlib.sha256()
    for out in (
        *weight_arrays(model, batch, m),
        compensator_batch(model, batch),
        compensator_batch(model, batch, 3.1),
        z_eps_batch(model, batch, m, 0.1),
        log_kappa_rows(model, T, rows),
    ):
        h.update(np.asarray(out, dtype="<f8").tobytes())
    assert h.hexdigest() == digest


@pytest.mark.parametrize("cap", [0.05, 0.3, 2.0])
def test_markov_route_without_excitation(cap):
    # alpha = 0: S+ = 0, so Gamma2 and the excitation compensator are 0,
    # with no division by S+
    paths = [np.array([0.3, 0.3000001, 1.7, _QT]), np.empty(0)]
    comps, g2, mask = check_markov_route(paths, 0.0, 1.5, cap)
    assert np.all(g2 == 0.0)
    base = tanh_model(0.0, 1.5, cap).baseline.integral
    for t, comp in zip((0.0, 0.5 * _QT, _QT), comps):
        assert np.array_equal(comp, np.full(2, float(base(np.float64(t)))))
