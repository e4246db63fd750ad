"""Cross-validation harness: Volterra mean-intensity solver against the
closed-form resolvent, unit-mass and duality reports, reproducibility."""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hawkmal import experiments
from hawkmal.density import density_vs_empirical
from hawkmal.experiments import (
    ExperimentReport,
    _ibp_differences,
    _row,
    ibp_check,
    inputs_digest,
    mean_intensity_batch,
    mean_intensity_check,
    smooth_catalog,
    unit_mass_check,
    volterra_mean_intensity,
)
from hawkmal.greeks import UnsupportedModelError
from hawkmal.malliavin import (
    CameronMartinFunction,
    SmoothFunctional,
    capped_jump_time,
    compose_smooth,
    divergence_m_batch,
    grad_smooth,
    product_smooth,
)
from hawkmal.model import (
    BaselineSpec,
    HawkesModel,
    KernelSpec,
    NonlinearitySpec,
    intensity,
)
from hawkmal.simulate import PathBatch, simulate_batch


@pytest.fixture(scope="module")
def model():
    return HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )


@pytest.fixture(scope="module")
def batch(model):
    return simulate_batch(model, T=5.0, master_seed=909, n_paths=20_000, n_workers=4)


# ---- Volterra solver ----

@pytest.fixture
def cold_volterra():
    """A Volterra test solves the equation, not reads an earlier solution."""
    volterra_mean_intensity.cache_clear()


@pytest.mark.usefixtures("cold_volterra")
def test_volterra_matches_closed_form(model):
    s, g = volterra_mean_intensity(model, T=5.0, n_steps=4096)
    exact = 2.0 - np.exp(-0.5 * s)
    assert np.max(np.abs(g - exact)) <= 1e-6


@pytest.mark.usefixtures("cold_volterra")
def test_volterra_poisson_reduces_to_baseline():
    poisson = HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.0, beta=1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )
    s, g = volterra_mean_intensity(poisson, T=5.0, n_steps=256)
    assert np.array_equal(g, np.ones_like(s))


@pytest.mark.usefixtures("cold_volterra")
def test_volterra_expected_count(model):
    # E[N_T] = int_0^T g; trapezoid on the fine grid
    s, g = volterra_mean_intensity(model, T=5.0, n_steps=8192)
    count = np.trapezoid(g, s)
    assert count == pytest.approx(10.0 - 2.0 * (1.0 - math.exp(-2.5)), abs=1e-6)


@pytest.mark.usefixtures("cold_volterra")
def test_volterra_order_two_convergence(model):
    _, g1 = volterra_mean_intensity(model, T=5.0, n_steps=1024)
    _, g2 = volterra_mean_intensity(model, T=5.0, n_steps=2048)
    _, g4 = volterra_mean_intensity(model, T=5.0, n_steps=4096)
    bound = np.max(np.abs(g2[::2] - g1)) / 3.0
    next_diff = np.max(np.abs(g4[::2] - g2))
    assert next_diff <= 4.0 * bound  # halving the step quarters the error
    assert bound / (next_diff / 3.0) == pytest.approx(4.0, rel=0.15)


@pytest.mark.usefixtures("cold_volterra")
def test_volterra_rejects_nonlinear():
    bent = HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(alpha=0.5, beta=1.0),
        nonlinearity=NonlinearitySpec.saturating_tanh(cap=3.0),
    )
    with pytest.raises(UnsupportedModelError, match="linear"):
        volterra_mean_intensity(bent, T=5.0, n_steps=64)


def test_checks_refuse_input_that_checks_nothing(model, monkeypatch):
    # an empty row set would pass having checked nothing; past T the
    # reference would be np.interp's clamp of g at T; and min_conditioned = 0
    # admits a KS test of no samples.  Each refusal comes before any solve
    # or walk of the batch.
    small = simulate_batch(model, T=5.0, master_seed=17, n_paths=200)

    def no_work(*args, **kwargs):
        raise AssertionError("the check worked before refusing")

    with monkeypatch.context() as patch:
        for name in ("z_eps_batch", "_ibp_differences", "volterra_mean_intensity",
                     "mean_intensity_batch"):
            patch.setattr(experiments, name, no_work)
        for refused in (
            lambda: unit_mass_check(model, small, eps_values=()),
            lambda: ibp_check(model, small, catalog=()),
            lambda: mean_intensity_check(model, small, grid=[]),
        ):
            with pytest.raises(ValueError, match="no rows to check"):
                refused()
        for grid in ([7.0], [-0.5, 1.0], [math.nan]):
            with pytest.raises(ValueError, match=r"must lie in \[0, T\]"):
                mean_intensity_check(model, small, grid=grid)
    with pytest.raises(ValueError, match="no rows to check"):
        experiments._finish("unit-mass", "digest", [])
    assert len(mean_intensity_check(model, small, grid=[0.0, 5.0]).rows) == 2
    with pytest.raises(ValueError, match="min_conditioned must be >= 1"):
        density_vs_empirical(model, 1, small, min_conditioned=0)


def test_volterra_cache_is_bounded_read_only_and_keyed_by_model(model):
    # solutions are cached per (model, T, n_steps), at most
    # _VOLTERRA_CACHE_SIZE of them, and handed out read-only
    cached = volterra_mean_intensity
    assert experiments._VOLTERRA_CACHE_SIZE == 8
    assert cached.cache_info().maxsize == experiments._VOLTERRA_CACHE_SIZE
    cached.cache_clear()
    steps = [64 + k for k in range(experiments._VOLTERRA_CACHE_SIZE + 1)]
    for n_steps in steps:
        s, g = volterra_mean_intensity(model, 5.0, n_steps)
        want_s, want = volterra_mean_intensity.__wrapped__(model, 5.0, n_steps)
        assert s.tobytes() == want_s.tobytes() and g.tobytes() == want.tobytes()
    info = cached.cache_info()
    assert (info.currsize, info.misses, info.hits) == (experiments._VOLTERRA_CACHE_SIZE, len(steps), 0)
    again = volterra_mean_intensity(
        HawkesModel(BaselineSpec.constant(1.0), KernelSpec.exponential(0.5, 1.0), NonlinearitySpec.linear()),
        5.0,
        steps[-1],
    )
    assert again[1] is g and cached.cache_info().hits == 1
    for array in again:
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    other = HawkesModel(BaselineSpec.constant(1.0), KernelSpec.exponential(0.4, 1.0), NonlinearitySpec.linear())
    assert not np.array_equal(volterra_mean_intensity(other, 5.0, steps[-1])[1], g)


def test_reference_cache_keys_one_entry_per_call_whatever_its_form(model):
    # positional and keyword forms of one call, and a numpy T (scalar or
    # 0-d array), are one reference: one miss, then hits on the same arrays
    volterra_mean_intensity.cache_clear()
    first = volterra_mean_intensity(model, 5.0, 64)
    for call in (
        lambda: volterra_mean_intensity(model, T=5.0, n_steps=64),
        lambda: volterra_mean_intensity(model, 5.0, n_steps=64),
        lambda: volterra_mean_intensity(model=model, n_steps=64, T=5.0),
        lambda: volterra_mean_intensity(model, np.float64(5.0), np.int64(64)),
        lambda: volterra_mean_intensity(model, np.array(5.0), 64),
    ):
        again = call()
        assert again[0] is first[0] and again[1] is first[1]
    info = volterra_mean_intensity.cache_info()
    assert (info.currsize, info.misses, info.hits) == (1, 1, 5)
    with pytest.raises(TypeError):
        volterra_mean_intensity(model, 5.0, 64, 3)


# ---- MC mean intensity ----

def test_mean_intensity_batch_matches_pointwise(model, batch):
    grid = np.array([0.7, 2.3, 5.0])
    values = mean_intensity_batch(model, batch, grid)
    for i, s in enumerate(grid):
        for j in (0, 11, 19_999):
            direct = intensity(model, batch.path(j).jump_times, float(s))
            assert values[i, j] == pytest.approx(direct, rel=1e-12)


def test_mean_intensity_check_passes(model, batch):
    report = mean_intensity_check(model, batch)
    assert isinstance(report, ExperimentReport)
    assert report.name == "mean-intensity"
    assert report.passed
    assert len(report.rows) == 32
    assert all(abs(r.z) <= 3.0 for r in report.rows)
    diag = dict(report.diagnostics)
    assert 0.0 < diag["volterra_bound"] < 1e-6


def test_zero_spread_row_has_the_sign_of_its_error(model):
    # at T = 0.001 one of 300 paths jumps: up to its jump every intensity is
    # exactly 1, with se 0, below the Volterra mean; such a row fails at -inf
    report = mean_intensity_check(model, simulate_batch(model, T=0.001, master_seed=201, n_paths=300))
    flat = [r for r in report.rows if r.std_error == 0.0]
    assert len(flat) == 19
    assert all(r.estimate < r.reference and r.z == -math.inf and not r.passed for r in flat)
    assert _row("above", 2.0, 1.0, 0.0).z == math.inf
    assert _row("equal", 1.0, 1.0, 0.0).z == 0.0


# ---- unit mass ----

def test_unit_mass_check_passes(model, batch):
    report = unit_mass_check(model, batch)
    assert report.name == "unit-mass"
    assert report.passed
    assert [r.label for r in report.rows] == ["eps=0.1", "eps=0.01", "eps=0.001"]
    for r in report.rows:
        assert r.reference == 1.0
        assert r.std_error > 0.0


# ---- integration by parts ----

def test_ibp_check_passes(model, batch):
    report = ibp_check(model, batch)
    assert report.name == "ibp"
    assert report.passed
    assert [r.label for r in report.rows] == ["F=1", "F=T1", "F=exp(-T1)", "F=T1*T2"]


def test_catalog_values():
    entries = dict(smooth_catalog())
    # a padded block: the second path has one jump, so T2 caps at the horizon
    times = np.array([[0.5, 1.25], [0.5, 5.0]])
    np.testing.assert_array_equal(entries["1"].value(times, 5.0), [1.0, 1.0])
    np.testing.assert_array_equal(entries["T1"].value(times, 5.0), [0.5, 0.5])
    np.testing.assert_allclose(entries["exp(-T1)"].value(times, 5.0), [math.exp(-0.5)] * 2)
    np.testing.assert_allclose(entries["T1*T2"].value(times, 5.0), [0.625, 2.5])


# ---- the batched IBP pass against the per-path gradients ----

_T = 2.0


def batch_of(paths, T=_T):
    """PathBatch holding the given sorted jump-time lists."""
    counts = [len(t) for t in paths]
    return PathBatch(
        horizon=T,
        master_seed=0,
        first_index=0,
        offsets=np.concatenate([[0], np.cumsum(counts)]).astype(np.int64),
        flat_times=np.concatenate([np.asarray(t, dtype=float) for t in paths] + [np.empty(0)]),
    )


@st.composite
def hand_batches(draw):
    """Drawn paths of up to 8 jumps, plus a path with no jump, one with a
    single jump, one whose last jump is exactly at T and an outlier of up
    to 60 jumps."""

    def jumps(max_jumps):
        raw = draw(st.lists(st.floats(0.0, 1.0, exclude_min=True), max_size=max_jumps))
        return np.unique(np.asarray(raw) * _T).tolist()

    paths = [jumps(8) for _ in range(draw(st.integers(0, 4)))]
    at_T = [t for t in jumps(5) if t < _T] + [_T]
    return batch_of(paths + [[], jumps(1) or [0.5 * _T], at_T, jumps(60)])


def block_functionals():
    t1, t2 = capped_jump_time(1), capped_jump_time(2)
    return [
        ("T2", t2),
        ("T3", capped_jump_time(3)),
        ("exp(-T2)", compose_smooth(lambda x: np.exp(-x), lambda x: -np.exp(-x), t2)),
        ("T1*T3", product_smooth(t1, capped_jump_time(3))),
        # np.square, not ** 2: numpy takes a float64 scalar's ** 2 to a pow
        # that is not correctly rounded, an array's to an exact square
        ("tanh(T1*T2)", compose_smooth(
            np.tanh, lambda v: 1.0 / np.square(np.cosh(v)), product_smooth(t1, t2)
        )),
    ] + list(smooth_catalog())


_DIRECTIONS = (CameronMartinFunction.default(_T), CameronMartinFunction.cosine(_T, 2))


@settings(max_examples=60, deadline=None)
@given(batch=hand_batches(), m=st.sampled_from(_DIRECTIONS))
def test_ibp_differences_match_grad_smooth_loop(model, batch, m):
    # each path's row of a batch block has the bits of its one-path block
    catalog = block_functionals()
    got = _ibp_differences(model, batch, m, catalog)
    delta = divergence_m_batch(model, batch, m)
    for (label, F), row in zip(catalog, got):
        for i, path in enumerate(batch):
            d_m = grad_smooth(F, path).directional(m)
            f_delta = F.value(path.jump_times[None, :], _T)[0] * delta[i]
            # both add -dF/dt_j m_hat(T_j) in jump order: the same bits
            assert row[i] == d_m - f_delta, (label, i)


def test_ibp_check_refuses_unusable_entries(model, monkeypatch):
    batch = batch_of([[], [0.5], [0.25, 1.0]])
    needs_a_jump = SmoothFunctional(
        value=capped_jump_time(1).value,
        partials=capped_jump_time(1).partials,
        supports=lambda n: n >= 1,
    )
    # one path a block, longest first: the jump-free path is the last block,
    # and the refusal still comes before any weight work
    monkeypatch.setattr("hawkmal.simulate._BLOCK_ELEMS", 1)
    with monkeypatch.context() as patch:
        patch.setattr(experiments, "weight_arrays", lambda *args: pytest.fail("weight work ran"))
        with pytest.raises(ValueError, match="N_T = 0"):
            ibp_check(model, batch, catalog=[("T1", needs_a_jump)])
    scalar_only = SmoothFunctional(
        value=lambda times, T: 1.0, partials=lambda times, T: np.zeros(times.shape)
    )
    with pytest.raises(ValueError, match="expected"):
        ibp_check(model, batch, catalog=[("1", scalar_only)])


# ---- reproducibility ----

def test_reports_reproducible(model):
    a = simulate_batch(model, T=5.0, master_seed=4242, n_paths=2_000, n_workers=1)
    b = simulate_batch(model, T=5.0, master_seed=4242, n_paths=2_000, n_workers=8)
    ra = unit_mass_check(model, a)
    rb = unit_mass_check(model, b)
    assert ra == rb  # dataclass equality: bitwise-identical statistics
    other = simulate_batch(model, T=5.0, master_seed=4243, n_paths=2_000, n_workers=1)
    assert unit_mass_check(model, other).digest != ra.digest


def test_inputs_digest_is_order_insensitive():
    assert inputs_digest(a=1, b=2.5) == inputs_digest(b=2.5, a=1)
    assert inputs_digest(a=1, b=2.5) != inputs_digest(a=1, b=2.6)
    assert len(inputs_digest(x="y")) == 12
