"""Per-layer numbers: which hawkmal functions the traced run wraps, how one
cycle's spans become per-layer metrics, and the two simulation
micro-benchmarks (Philox throughput and worker fan-out).

A layer is a module of ``src/hawkmal``.  Each span is named after the
function's home module (``malliavin.divergence_m_batch``), whichever module
the call went through, so a layer's spans are the ones whose name starts with
its module name.  A layer's self time is the part of its spans' time that no
span of another layer covers.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

from spans import END, INFO, NAME, PARENT, START, self_times

# (module the call resolves through, attribute, span name): the call sites
# the three workloads reach, plus `grad_and_gamma_XT`, counted as
# `sde.grad_and_gamma_calls` though no preset reaches it today.  The first module is the caller's, so a
# function imported by two modules is wrapped twice.
_SITES = (
    ("cli", "main", "cli.main"),
    ("cli", "load_config", "cli.load_config"),
    ("cli", "_write_csv", "cli._write_csv"),
    ("cli", "simulate_batch", "simulate.simulate_batch"),
    ("simulate", "simulate_batch", "simulate.simulate_batch"),
    ("cli", "compensator_batch", "simulate.compensator_batch"),
    ("greeks", "compensator_batch", "simulate.compensator_batch"),
    ("simulate", "compensator", "simulate.compensator"),
    ("density", "compensator", "simulate.compensator"),
    ("cli", "weight_terms", "malliavin.weight_terms"),
    ("experiments", "divergence_m_batch", "malliavin.divergence_m_batch"),
    ("greeks", "divergence_m_batch", "malliavin.divergence_m_batch"),
    ("experiments", "z_eps_batch", "malliavin.z_eps_batch"),
    ("experiments", "grad_smooth", "malliavin.grad_smooth"),
    ("malliavin", "divergence_m", "malliavin.divergence_m"),
    ("malliavin", "z_eps", "malliavin.z_eps"),
    ("cli", "ibp_check", "experiments.ibp_check"),
    ("cli", "unit_mass_check", "experiments.unit_mass_check"),
    ("cli", "mean_intensity_check", "experiments.mean_intensity_check"),
    ("experiments", "mean_intensity_batch", "experiments.mean_intensity_batch"),
    ("experiments", "volterra_mean_intensity", "experiments.volterra_mean_intensity"),
    ("experiments", "mc_estimate", "greeks.mc_estimate"),
    ("greeks", "mc_estimate", "greeks.mc_estimate"),
    ("greeks", "malliavin_delta", "greeks.malliavin_delta"),
    ("greeks", "fd_delta", "greeks.fd_delta"),
    ("greeks", "terminal_price_batch", "greeks.terminal_price_batch"),
    ("cli", "log_kappa_rows", "density.log_kappa_rows"),
    ("density", "log_kappa_rows", "density.log_kappa_rows"),
    ("cli", "normalization_constant", "density.normalization_constant"),
    ("cli", "density_vs_empirical", "density.density_vs_empirical"),
    ("cli", "density_criteria", "sde.density_criteria"),
    ("sde", "grad_and_gamma_XT", "sde.grad_and_gamma_XT"),
    ("sde", "_linear_sensitivity", "sde._linear_sensitivity"),
)


def _batch_info(args, kwargs, batch):
    counts = batch.counts()
    return {"paths": int(batch.n_paths), "jumps": int(counts.sum()), "max_jumps": int(counts.max())}


def _csv_info(args, kwargs, path):
    rows = args[4] if len(args) > 4 else kwargs["rows"]
    return {"rows": len(rows), "bytes": os.path.getsize(path)}


_INFO = {
    "simulate.simulate_batch": _batch_info,
    "cli._write_csv": _csv_info,
    "density.log_kappa_rows": lambda args, kwargs, out: {"rows": int(np.shape(out)[0])},
    "sde.density_criteria": lambda args, kwargs, crit: {"label": crit.label, "paths": crit.n_paths},
}

SDE_PRESETS = ("linear-scalar", "cos-sin", "linear-d2")

# Per-layer metric names and units, in report order.  Times and rates are
# medians over cycles; counts are means over cycles; max_jumps is the maximum.
METRICS = (
    ("simulate.batch_s", "s"),
    ("simulate.paths", "count"),
    ("simulate.jumps", "count"),
    ("simulate.max_jumps", "count"),
    ("simulate.paths_per_s", "1/s"),
    ("simulate.compensator_s", "s"),
    ("simulate.compensator_calls", "count"),
    ("malliavin.divergence_batch_s", "s"),
    ("malliavin.z_eps_batch_s", "s"),
    ("malliavin.weight_terms_s", "s"),
    ("malliavin.grad_smooth_s", "s"),
    ("malliavin.grad_smooth_calls", "count"),
    ("malliavin.perpath_calls", "count"),
    ("malliavin.padding_efficiency", "1"),
    ("experiments.ibp_check_s", "s"),
    ("experiments.unit_mass_check_s", "s"),
    ("experiments.mean_intensity_check_s", "s"),
    ("experiments.mean_intensity_batch_s", "s"),
    ("experiments.volterra_s", "s"),
    ("experiments.self_s", "s"),
    ("greeks.malliavin_delta_s", "s"),
    ("greeks.fd_delta_s", "s"),
    ("greeks.terminal_price_batch_s", "s"),
    ("greeks.self_s", "s"),
    ("density.log_kappa_rows_s", "s"),
    ("density.log_kappa_rows_rows", "count"),
    ("density.normalization_s", "s"),
    ("density.vs_empirical_s", "s"),
) + tuple(
    (f"sde.density_criteria_{p.replace('-', '_')}_s", "s") for p in SDE_PRESETS
) + (
    ("sde.paths_per_s", "1/s"),
    ("sde.grad_and_gamma_calls", "count"),
    ("sde.linear_sensitivity_calls", "count"),
    ("cli.self_s", "s"),
    ("cli.csv_rows", "count"),
    ("cli.csv_bytes", "B"),
    ("cli.load_config_s", "s"),
)


def install(tracer, hawkmal_modules):
    """Wrap every call site in `_SITES` on `tracer`."""
    for module, attr, name in _SITES:
        tracer.wrap(hawkmal_modules[module], attr, name, _INFO.get(name))


def cycle_metrics(spans, first):
    """Per-layer metrics of the spans recorded since index `first`."""
    cycle = spans[first:]
    own = self_times(spans, first)
    total = {}
    calls = {}
    layer_self = {}
    for rec, self_s in zip(cycle, own):
        name = rec[NAME]
        total[name] = total.get(name, 0.0) + rec[END] - rec[START]
        calls[name] = calls.get(name, 0) + 1
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + self_s

    def outermost(names):
        # time of spans in `names` not nested in another span of `names`
        return sum(
            rec[END] - rec[START]
            for rec in cycle
            if rec[NAME] in names
            and not (rec[PARENT] >= first and spans[rec[PARENT]][NAME] in names)
        )

    def info_sum(name, key):
        return sum(rec[INFO][key] for rec in cycle if rec[NAME] == name)

    batches = [rec[INFO] for rec in cycle if rec[NAME] == "simulate.simulate_batch"]
    paths = sum(b["paths"] for b in batches)
    jumps = sum(b["jumps"] for b in batches)
    cells = sum(b["paths"] * b["max_jumps"] for b in batches)
    batch_s = total.get("simulate.simulate_batch", 0.0)
    crit = [rec for rec in cycle if rec[NAME] == "sde.density_criteria"]
    crit_s = sum(rec[END] - rec[START] for rec in crit)
    batch_names = ("malliavin.divergence_m_batch", "malliavin.z_eps_batch")
    perpath = sum(
        1
        for rec in cycle
        if rec[NAME] in ("malliavin.divergence_m", "malliavin.z_eps")
        and rec[PARENT] >= first
        and spans[rec[PARENT]][NAME] in batch_names
    )
    out = {
        "simulate.batch_s": batch_s,
        "simulate.paths": paths,
        "simulate.jumps": jumps,
        "simulate.max_jumps": max((b["max_jumps"] for b in batches), default=0),
        "simulate.paths_per_s": paths / batch_s if batch_s > 0 else 0.0,
        "simulate.compensator_s": outermost(
            ("simulate.compensator_batch", "simulate.compensator")
        ),
        "simulate.compensator_calls": calls.get("simulate.compensator", 0),
        "malliavin.divergence_batch_s": total.get("malliavin.divergence_m_batch", 0.0),
        "malliavin.z_eps_batch_s": total.get("malliavin.z_eps_batch", 0.0),
        "malliavin.weight_terms_s": total.get("malliavin.weight_terms", 0.0),
        "malliavin.grad_smooth_s": total.get("malliavin.grad_smooth", 0.0),
        "malliavin.grad_smooth_calls": calls.get("malliavin.grad_smooth", 0),
        "malliavin.perpath_calls": perpath,
        "malliavin.padding_efficiency": jumps / cells if cells else 0.0,
        "experiments.ibp_check_s": total.get("experiments.ibp_check", 0.0),
        "experiments.unit_mass_check_s": total.get("experiments.unit_mass_check", 0.0),
        "experiments.mean_intensity_check_s": total.get("experiments.mean_intensity_check", 0.0),
        "experiments.mean_intensity_batch_s": total.get("experiments.mean_intensity_batch", 0.0),
        "experiments.volterra_s": total.get("experiments.volterra_mean_intensity", 0.0),
        "experiments.self_s": layer_self.get("experiments", 0.0),
        "greeks.malliavin_delta_s": total.get("greeks.malliavin_delta", 0.0),
        "greeks.fd_delta_s": total.get("greeks.fd_delta", 0.0),
        "greeks.terminal_price_batch_s": total.get("greeks.terminal_price_batch", 0.0),
        "greeks.self_s": layer_self.get("greeks", 0.0),
        "density.log_kappa_rows_s": outermost(("density.log_kappa_rows",)),
        "density.log_kappa_rows_rows": info_sum("density.log_kappa_rows", "rows"),
        "density.normalization_s": total.get("density.normalization_constant", 0.0),
        "density.vs_empirical_s": total.get("density.density_vs_empirical", 0.0),
        "sde.paths_per_s": sum(r[INFO]["paths"] for r in crit) / crit_s if crit_s > 0 else 0.0,
        "sde.grad_and_gamma_calls": calls.get("sde.grad_and_gamma_XT", 0),
        "sde.linear_sensitivity_calls": calls.get("sde._linear_sensitivity", 0),
        "cli.self_s": layer_self.get("cli", 0.0),
        "cli.csv_rows": info_sum("cli._write_csv", "rows"),
        "cli.csv_bytes": info_sum("cli._write_csv", "bytes"),
        "cli.load_config_s": total.get("cli.load_config", 0.0),
    }
    for preset in SDE_PRESETS:
        out[f"sde.density_criteria_{preset.replace('-', '_')}_s"] = sum(
            rec[END] - rec[START] for rec in crit if rec[INFO]["label"] == preset
        )
    return out


def philox_draws_per_s(simulate_module, seed, repeats=3):
    """Uniforms per second from one RngStream, 2**20 draws a call."""
    n = 1 << 20
    rates = []
    for k in range(repeats):
        stream = simulate_module.RngStream(master_seed=seed, path_index=k)
        t0 = time.perf_counter()
        stream.uniforms(n)
        rates.append(n / (time.perf_counter() - t0))
    return statistics.median(rates)


def fanout(simulate_module, model, horizon, seed, n_paths=200_000, repeats=2):
    """Median seconds of the same `simulate_batch` at 1 and 2 workers, run
    alternately, and whether the two outputs are bit-identical."""
    times = {1: [], 2: []}
    outputs = {}
    for _ in range(repeats):
        for workers in (1, 2):
            t0 = time.perf_counter()
            batch = simulate_module.simulate_batch(
                model, horizon, seed, n_paths, n_workers=workers
            )
            times[workers].append(time.perf_counter() - t0)
            outputs[workers] = batch
    same = np.array_equal(outputs[1].offsets, outputs[2].offsets) and np.array_equal(
        outputs[1].flat_times, outputs[2].flat_times
    )
    return statistics.median(times[1]), statistics.median(times[2]), bool(same)
