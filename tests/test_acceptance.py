"""End-to-end acceptance checks on the reference configuration.

One test per numbered criterion, each printing exactly one PASS/FAIL
verdict line (run with ``-s`` or read captured output).  Reference setup
throughout: constant baseline 1, exponential kernel (0.5, 1), linear
nonlinearity, horizon 5, fixed master seeds.
"""

from __future__ import annotations

import itertools
import math
import time

import numpy as np
import pytest
from scipy import integrate, stats

import hawkmal.simulate
from hawkmal.cli import main as cli_main
from hawkmal.density import (
    conditional_density_bound,
    density_vs_empirical,
    log_kappa_rows,
    normalization_constant,
)
from hawkmal.experiments import (
    ibp_check,
    mean_intensity_check,
    volterra_mean_intensity,
)
from hawkmal.greeks import (
    AssetModel,
    Payoff,
    fd_delta,
    malliavin_delta,
    pathwise_delta,
)
from hawkmal.malliavin import (
    CameronMartinFunction,
    carre_du_champ,
    condition2_slack,
    divergence_m_batch,
    grad_smooth,
    weight_terms,
    z_eps_batch,
)
from hawkmal.experiments import smooth_catalog
from hawkmal.model import (
    AssumptionError,
    BaselineSpec,
    HawkesModel,
    KernelSpec,
    NonlinearitySpec,
    validate_assumptions,
)
from hawkmal.sde import (
    JumpSde,
    _rk4_batch,
    density_criteria,
    grad_and_gamma_XT,
    sde_preset,
)
from hawkmal.simulate import compensator_batch, simulate_batch
from sde_oracles import jump_time_fd, tangents
from hawkmal.greeks import mc_estimate

T = 5.0
SEED = 424200


class _verdict:
    """Context manager printing one `criterion k: PASS/FAIL` line."""

    def __init__(self, num: int, label: str):
        self.num = num
        self.label = label

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    @property
    def elapsed(self) -> float:
        return time.perf_counter() - self.t0

    def __exit__(self, exc_type, exc, tb):
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"criterion {self.num:2d} [{verdict}] ({self.elapsed:6.2f}s) {self.label}")
        return False


def reference_model() -> HawkesModel:
    return HawkesModel(
        baseline=BaselineSpec.constant(1.0),
        kernel=KernelSpec.exponential(0.5, 1.0),
        nonlinearity=NonlinearitySpec.linear(),
    )


@pytest.fixture(scope="module")
def model():
    return reference_model()


@pytest.fixture(scope="module")
def m_default():
    return CameronMartinFunction.default(T)


# ---- 1: assumption gate ----

def test_01_assumption_gate(model):
    with _verdict(1, "assumption gate: margin 0.5, doubled kernel rejected, < 1 ms") as v:
        baseline = BaselineSpec.constant(1.0)
        linear = NonlinearitySpec.linear()
        bad_kernel = KernelSpec.exponential(2.0, 1.0)
        # warm both code paths before timing
        validate_assumptions(model)
        with pytest.raises(AssumptionError):
            HawkesModel(baseline=baseline, kernel=bad_kernel, nonlinearity=linear)

        t0 = time.perf_counter()
        report = validate_assumptions(model)
        try:
            HawkesModel(baseline=baseline, kernel=bad_kernel, nonlinearity=linear)
            rejected = False
        except AssumptionError:
            rejected = True
        gate_time = time.perf_counter() - t0

        assert report.all_pass()
        assert abs(report.margin - 0.5) < 1e-15
        assert rejected
        assert gate_time < 1e-3, f"gate took {gate_time * 1e3:.3f} ms"


# ---- 2: Poisson reduction ----

def test_02_poisson_reduction():
    with _verdict(2, "kernel off: N_T chi-square vs Poisson(5), T1|N=1 uniform, < 5 s") as v:
        poisson = HawkesModel(
            baseline=BaselineSpec.constant(1.0),
            kernel=KernelSpec.exponential(0.0, 1.0),
            nonlinearity=NonlinearitySpec.linear(),
        )
        batch = simulate_batch(poisson, T, SEED + 2, 100_000)
        counts = batch.counts()
        n = counts.size

        kmax = int(counts.max())
        pmf = stats.poisson(5.0).pmf(np.arange(kmax + 1))
        observed = np.bincount(counts, minlength=kmax + 1).astype(float)
        # lump the upper tail so every expected cell count is >= 5
        expected = pmf * n
        cut = kmax
        while expected[cut:].sum() + n * (1.0 - pmf.sum()) < 5.0:
            cut -= 1
        obs_cells = np.append(observed[:cut], observed[cut:].sum())
        exp_cells = np.append(expected[:cut], n - expected[:cut].sum())
        chi2 = stats.chisquare(obs_cells, exp_cells)
        assert chi2.pvalue >= 0.01, f"chi-square p={chi2.pvalue:.4f}"

        first = batch.flat_times[batch.offsets[:-1][counts == 1]]
        ks = stats.kstest(first, stats.uniform(loc=0.0, scale=T).cdf)
        assert first.size > 1000
        assert ks.pvalue >= 0.01, f"KS p={ks.pvalue:.4f}"
        assert v.elapsed < 5.0


# ---- 3: compensator martingale ----

def test_03_martingale_gap(model):
    with _verdict(3, "mean(N_T - Lambda_T) within 3 SE of 0 at 1e5 paths, < 10 s") as v:
        batch = simulate_batch(model, T, SEED + 3, 100_000)
        gap = batch.counts() - compensator_batch(model, batch)
        mean, se, _ = mc_estimate(gap)
        assert abs(mean) <= 3.0 * se, f"gap {mean:.5f} vs 3*SE {3 * se:.5f}"
        assert v.elapsed < 10.0


# ---- 4: mean intensity vs Volterra ----

def test_04_mean_intensity(model):
    with _verdict(4, "E[lambda*] matches Volterra at 32 points; Volterra matches closed form, < 30 s") as v:
        batch = simulate_batch(model, T, SEED + 4, 100_000)
        report = mean_intensity_check(model, batch)
        assert len(report.rows) == 32
        assert report.passed, [r.label for r in report.rows if not r.passed]

        volterra_mean_intensity.cache_clear()  # solve, not read the check's solution
        s, g = volterra_mean_intensity(model, T, 4096)
        closed = 2.0 - np.exp(-0.5 * s)
        assert float(np.max(np.abs(g - closed))) <= 1e-6
        assert v.elapsed < 30.0


# ---- 5: density normalization, conditioned KS, uniform bound ----

def test_05_density(model):
    with _verdict(5, "k1 mass = 1 to 1e-6; conditioned T1 KS at 1e4 samples; k_n bound on simplex") as v:
        z1, _ = normalization_constant(model, T, 1)
        grid = np.linspace(0.0, T, 8193)
        k1 = np.exp(log_kappa_rows(model, T, grid.reshape(-1, 1))) / z1
        mass = float(integrate.simpson(k1, x=grid))
        assert abs(mass - 1.0) <= 1e-6, f"k1 mass deviates by {mass - 1.0:.2e}"

        big = simulate_batch(model, T, SEED + 5, 500_000, n_workers=4)
        fit = density_vs_empirical(model, 1, big, min_conditioned=10_000)[0]
        assert fit.samples >= 10_000
        assert fit.p_value >= 0.01, f"KS p={fit.p_value:.4f}"

        rng = np.random.default_rng(SEED + 55)
        for n in (1, 2, 3):
            zn, _ = normalization_constant(model, T, n)
            bound = conditional_density_bound(model, T, n)
            pts = np.sort(rng.uniform(0.0, T, size=(1000, n)), axis=1)
            dens = np.exp(log_kappa_rows(model, T, pts)) / zn
            worst = float(dens.max())
            assert worst <= bound * (1.0 + 1e-12), f"n={n}: {worst:.4g} > {bound:.4g}"


# ---- 6: Radon-Nikodym unit mass and first-order expansion ----

def test_06_radon_nikodym(model, m_default):
    with _verdict(6, "E[Z^eps] = 1 at three eps; (Z^eps-1)/eps -> divergence at order eps, < 30 s") as v:
        batch = simulate_batch(model, T, SEED + 6, 100_000)
        for eps in (1e-1, 1e-2, 1e-3):
            mean, se, _ = mc_estimate(z_eps_batch(model, batch, m_default, eps))
            assert abs(mean - 1.0) <= 3.0 * se, f"eps={eps}: {mean:.5f} +- {se:.5f}"

        delta = divergence_m_batch(model, batch, m_default)
        sweep = (0.2, 0.1, 0.05, 0.025)
        errs = [
            float(np.mean(np.abs((z_eps_batch(model, batch, m_default, eps) - 1.0) / eps - delta)))
            for eps in sweep
        ]
        for lo, hi in zip(errs[1:], errs[:-1]):
            ratio = lo / hi
            assert 0.3 <= ratio <= 0.75, f"halving eps scaled error by {ratio:.3f}"
        assert v.elapsed < 30.0


# ---- 7: integration-by-parts suite ----

def test_07_ibp_suite(model):
    with _verdict(7, "E[D_m F] = E[F delta(m)] for the smooth catalog; E[delta(m)] = 0, < 60 s") as v:
        batch = simulate_batch(model, T, SEED + 7, 100_000)
        report = ibp_check(model, batch)
        labels = [r.label for r in report.rows]
        assert labels == ["F=1", "F=T1", "F=exp(-T1)", "F=T1*T2"]
        assert report.passed, [
            f"{r.label}: z={r.z:.2f}" for r in report.rows if not r.passed
        ]
        assert v.elapsed < 60.0


# ---- 8: linear-case split of the kernel term ----

def test_08_linear_weight_identity(model, m_default):
    with _verdict(8, "Gamma1 + Gamma2 = mu(T - T_j) to 1e-10 on every jump of 1e3 paths") as v:
        batch = simulate_batch(model, T, SEED + 8, 1000)
        worst = 0.0
        for path in batch:
            if path.count == 0:
                continue
            terms = weight_terms(model, path, m_default)
            mu = 0.5 * np.exp(-(T - terms.jump_times))
            gap = np.abs(terms.gamma1_at_jump + terms.gamma2_at_jump - mu)
            worst = max(worst, float(gap.max()))
        assert worst <= 1e-10, f"max |Gamma1 + Gamma2 - mu(T-t)| = {worst:.2e}"


# ---- 9: gradient oracles ----

def _piecewise_energy(gradient) -> float:
    """int_0^T (D_s F)^2 ds, exact for the step function D_s F."""
    t = gradient.jump_times
    p = gradient.partials
    bp = np.concatenate([[0.0], t, [gradient.horizon]])
    total = 0.0
    for k in range(bp.size - 1):
        mid = 0.5 * (bp[k] + bp[k + 1])
        val = float(p @ (t / gradient.horizon - (mid <= t)))
        total += val * val * (bp[k + 1] - bp[k])
    return total


def test_09_gradient_oracles(model):
    with _verdict(9, "exact partials vs jump-time FD at 1e-4 rel; xi-Gram = piecewise energy at 1e-12") as v:
        batch = simulate_batch(model, T, SEED + 9, 200)
        h = 1e-6

        checked = 0
        for label, F in smooth_catalog()[1:]:
            for path in itertools.islice(batch, 60):
                n = path.count
                if n == 0 or not F.supports(n):
                    continue
                g = grad_smooth(F, path)
                for i in range(n):
                    # one path is the one-row block of jump times
                    up, dn = path.jump_times[None, :].copy(), path.jump_times[None, :].copy()
                    up[0, i] += h
                    dn[0, i] -= h
                    fd = (F.value(up, T)[0] - F.value(dn, T)[0]) / (2.0 * h)
                    assert g.partials[i] == pytest.approx(fd, rel=1e-4, abs=1e-9), (
                        f"{label}, jump {i}"
                    )
                energy = _piecewise_energy(g)
                gram = carre_du_champ(g, g)
                assert abs(gram - energy) <= 1e-12 * max(1.0, abs(energy))
                checked += 1
        assert checked > 50

        sde = JumpSde.cos_sin(x0=0.3)
        paths = [path for path in itertools.islice(batch, 20) if path.count]
        fd = jump_time_fd(sde, [path.jump_times for path in paths], T, h)
        start = 0
        for path in paths:
            rep = grad_and_gamma_XT(sde, path)
            for i in range(path.count):
                # abs floor: FD noise dominates when the coefficient is ~0
                assert rep.vectors[i, 0] == pytest.approx(fd[start + i], rel=1e-4, abs=1e-6), (
                    f"jump {i}"
                )
            start += path.count
            g = rep.gradient_component(0)
            energy = _piecewise_energy(g)
            assert abs(rep.gamma[0, 0] - energy) <= 1e-12 * max(1.0, abs(energy))


# ---- 10: quadratic-form lower bound ----

def test_10_condition2_slack(model):
    with _verdict(10, "xi quadratic form dominates the spacing bound on 1e3 (path, c) pairs") as v:
        batch = simulate_batch(model, T, SEED + 10, 1000)
        rng = np.random.default_rng(SEED + 10)
        worst = math.inf
        for path in batch:
            c = rng.standard_normal(path.count)
            worst = min(worst, condition2_slack(T, path.jump_times, c))
        assert worst >= -1e-10, f"most negative slack {worst:.2e}"


# ---- 11: SDE flows, tangents, and density criteria ----

def _euler_terminal(sde: JumpSde, batch, n_grid: int) -> np.ndarray:
    h = batch.horizon / n_grid
    x = np.tile(sde.x0, (batch.n_paths, 1))
    slot = np.minimum(np.floor(batch.flat_times / h).astype(np.int64), n_grid - 1)
    order = np.argsort(slot, kind="stable")
    slots = slot[order]
    jpath = np.repeat(np.arange(batch.n_paths), batch.counts())[order]
    jtime = batch.flat_times[order]
    ptr = 0
    for k in range(n_grid):
        x += h * sde.drift(k * h, x)
        while ptr < slots.size and slots[ptr] == k:
            i = jpath[ptr]
            x[i] += sde.jump(jtime[ptr], x[i])
            ptr += 1
    return x[:, 0]


def test_11_sde_suite(model):
    with _verdict(11, "flow vs Euler 1e-3; K K~ = I at 1e-8; strict/degenerate/spanning criteria") as v:
        sde = JumpSde.cos_sin(x0=0.0)
        short = simulate_batch(model, 2.0, SEED + 11, 100)
        euler = _euler_terminal(sde, short, n_grid=200_000)
        terminal = _rk4_batch(sde, short)[0][:, 0]
        for i in range(short.n_paths):
            assert abs(terminal[i] - euler[i]) <= 1e-3 * max(1.0, abs(terminal[i]))

        for path in itertools.islice(short, 40):
            assert tangents(sde, path).product_drift <= 1e-8

        batch_1e4 = simulate_batch(model, T, SEED + 111, 10_000, n_workers=4)
        crit = density_criteria(sde, batch_1e4)
        assert crit.passed and crit.n_nonpositive == 0
        assert bool(np.all(crit.per_path_flag[batch_1e4.counts() >= 1]))

        degenerate = JumpSde.linear_scalar(a=0.5, b=0.25, alpha=0.4, beta=0.2, x0=1.0)
        small = simulate_batch(model, T, SEED + 112, 1000)
        dcrit = density_criteria(degenerate, small)
        assert float(np.max(np.abs(dcrit.per_path_det))) <= 1e-12
        assert not dcrit.passed

        d2 = density_criteria(sde_preset("linear-d2"), small)
        assert d2.passed and d2.min_rank == 2


# ---- 12: Greeks triangle ----

def test_12_greeks_triangle(model):
    with _verdict(12, "smooth/digital/constant delta estimators agree pairwise, < 5 min") as v:
        asset = AssetModel(x0=100.0, r=0.05, sigma=0.3, hawkes=model)
        n = 100_000
        seed = SEED + 12
        batches = [
            simulate_batch(model, T, seed, n, n_workers=4, first_index=k * n)
            for k in range(3)
        ]
        strike = 100.0

        def fn(x):
            return np.tanh((np.asarray(x, dtype=float) - strike) / strike)

        def der(x):
            return (1.0 - np.tanh((np.asarray(x, dtype=float) - strike) / strike) ** 2) / strike

        smooth = Payoff.smooth(fn, der)
        mal = malliavin_delta(asset, smooth, batches[0])
        fd = fd_delta(asset, smooth, batches[1])
        pw = pathwise_delta(asset, smooth, batches[2])
        estimates = {"malliavin": mal, "fd": fd, "pathwise": pw}
        for (la, ea), (lb, eb) in itertools.combinations(estimates.items(), 2):
            tol = 3.0 * math.hypot(ea.std_error, eb.std_error)
            assert abs(ea.mean - eb.mean) <= tol, (
                f"smooth {la}={ea.mean:.5f} vs {lb}={eb.mean:.5f}, tol {tol:.5f}"
            )

        digital = Payoff.digital(strike)
        dig_mal = malliavin_delta(asset, digital, batches[0])
        fd_batch = simulate_batch(model, T, seed, 1_000_000, n_workers=8, first_index=3 * n)
        dig_fd = fd_delta(asset, digital, fd_batch, bump=0.01 * asset.x0)
        tol = 3.0 * math.hypot(dig_mal.std_error, dig_fd.std_error)
        assert abs(dig_mal.mean - dig_fd.mean) <= tol, (
            f"digital malliavin={dig_mal.mean:.5f} vs fd={dig_fd.mean:.5f}, tol {tol:.5f}"
        )

        const = malliavin_delta(asset, Payoff.constant(1.0), batches[1])
        assert abs(const.mean) <= 3.0 * const.std_error

        for est in (mal, dig_mal, const):
            assert est.excluded / n < 0.001
        assert v.elapsed < 300.0


# ---- 13: command-line determinism across chunk widths and block budgets ----

def test_13_cli_determinism(tmp_path, monkeypatch):
    label = "every command: chunk 7 and block 1000 give the defaults' CSV bytes (timestamp off)"
    with _verdict(13, label) as v:
        ini = tmp_path / "acceptance.ini"
        ini.write_text(
            "[density]\nmax_n = 1\nmin_conditioned = 20\n"
            "[experiment]\ngrid_points = 4\nvolterra_steps = 128\n"
            "[greeks]\npayoff = digital\nfd_paths = 3000\n"
        )
        commands = (
            "simulate",
            "density-check",
            "ibp-check",
            "unit-mass",
            "mean-intensity",
            "sde-density",
            "greeks",
        )
        # the reproducibility contract: (seed, first_index, n_paths) fixes
        # every output byte, whatever the thinning's chunk width and the one
        # block budget of every blocked pass; at 1 000 each command cuts more
        # than one block (greeks' 3 000-path FD range three slices)
        small = (
            (hawkmal.simulate, "_CHUNK", 7),
            (hawkmal.simulate, "_BLOCK_ELEMS", 1000),
        )
        settings = {"default": (), "small": small}
        for command in commands:
            outputs = {}
            for name, patches in settings.items():
                out = tmp_path / f"{command}-{name}"
                # each run thins its own batch, not the one the last run kept
                simulate_batch.cache_clear()
                with monkeypatch.context() as mp:
                    for module, attr, value in patches:
                        mp.setattr(module, attr, value)
                    code = cli_main([
                        command,
                        "--config", str(ini),
                        "--paths", "3000",
                        "--seed", str(SEED + 13),
                        "--out", str(out),
                        "--no-timestamp",
                    ])
                assert code == 0, f"{command} exited {code} ({name})"
                outputs[name] = {
                    p.name: p.read_bytes() for p in sorted(out.iterdir())
                }
            assert outputs["default"], f"{command} wrote nothing"
            assert outputs["default"] == outputs["small"], f"{command} varies with the chunking"
