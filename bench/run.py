#!/usr/bin/env python3
"""hawkmal benchmark: closed-loop workloads of CLI commands and library calls.

Run from the repository root:

    python3 bench/run.py --workload linear-reference --seed 1 --seconds 24 --trace 0

One client runs the workload's operations in order, each starting when the
previous one ends; one pass over the list is a cycle.  Cycle k gets its own
inputs: the CLI seed and ``master_seed`` are a hash of (--seed, k), and the
model and path count come from an INI file generated here.  The number of
cycles is fixed by --seconds and the workload's nominal cycle time, so a
given (--seed, --seconds) always feeds the program the same inputs.

Every operation is checked (`_check_cli`, `_pair_deltas`, `_check_pooled`),
and the sha256 of every output is recorded.  With --trace 0 the last line
of standard output is a JSON object carrying the end-to-end metrics.  With
--trace 1 the same cycles run once untraced and once under the span
recorder of ``spans.py``, the two must agree byte for byte, and the JSON
carries the per-layer metrics.  Outputs and a full record of the run go
to ``.bench_out/`` under the current directory.  The notes beside this file
explain the workloads and the known defect they steer around.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

import layers
from spans import Tracer

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
BENCH = os.path.dirname(os.path.abspath(__file__))

# Oracle width in standard errors, applied to rows pooled over a run's
# cycles (`_check_pooled`).  The CLI's own verdicts use 3 on each cycle and
# fail by chance in a good share of runs; past 5 the odds are below 1e-6 a row.
_Z = 5.0
_MIN_P = 1e-6          # KS p-value floor, the same odds as 5 standard errors
_MASS_TOLERANCE = 1e-6  # the CLI's own bound on k_1 mass; deterministic
_SETUP_SAMPLES = 3

# Machine speed.  The 2-vCPU machine the bounds were set on shares its cores
# with other tenants: the same work runs up to half again slower for seconds
# at a time, in phases that hit the interpreter and numpy alike.  So every timed operation is bracketed by
# `calibrate`, a fixed mix of interpreter and small-numpy work that does not
# touch hawkmal, and is reported in reference seconds: its wall time times
# _CAL_REF_S over the mean calibration time on either side.  _CAL_REF_S is the
# calibration's median on the machine the bounds were set on, so reference
# seconds read as plain seconds there.
_CAL_REF_S = 0.022
_CAL_SMALL = np.linspace(0.0, 1.0, 12)


def calibrate() -> float:
    """Seconds for the fixed calibration work (about 20 ms here)."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    total = 0.0
    for i in range(1200):
        x = np.exp(-_CAL_SMALL * i)
        total += float(np.sum(np.where(x > 0.5, x, 0.0)))
    return time.perf_counter() - t0


def reference_seconds(seconds: float, cal_before: float, cal_after: float) -> float:
    return seconds * 2.0 * _CAL_REF_S / (cal_before + cal_after)


def measured(fn, *args, **kwargs):
    """(result, seconds, reference seconds) of one call."""
    before = calibrate()
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    seconds = time.perf_counter() - t0
    return result, seconds, reference_seconds(seconds, before, calibrate())


_SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); from hawkmal import cli; "
    "cli.load_config(sys.argv[2], seed=int(sys.argv[3])).model()"
)


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    settings: tuple  # (section, key, value) lines of the generated INI
    ops: tuple       # CLI command, "sde-density:<preset>", or "delta-<estimator>"
    cycle_s: float   # nominal seconds per cycle here; sets the cycle count


_REFERENCE = (("run", "horizon", "5.0"),)

WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "linear-reference",
            "reference linear model: batched routes (Philox thinning, recurrences, CSV, "
            "the ibp per-path gradient loop) do the work; sde does none",
            _REFERENCE
            # about 115 of 5000 paths have one jump; the CLI's default floor of
            # 200 conditioned paths would refuse density-check
            + (("run", "paths", "5000"), ("density", "min_conditioned", "50")),
            (
                "simulate",
                "mean-intensity",
                "unit-mass",
                "ibp-check",
                "density-check",
                "delta-malliavin",
                "delta-fd",
            ),
            1.9,
        ),
        Workload(
            "tanh-perpath",
            "tanh model: every path takes the per-path adaptive-Simpson fallbacks; "
            "thinning and Philox do almost nothing",
            _REFERENCE
            + (
                ("model", "nonlinearity", "tanh"),
                ("model", "cap", "2"),
                ("run", "paths", "20"),
                # one eps, not the CLI's three: they repeat the same per-path
                # z_eps work, and the time saved buys more paths per run
                ("experiment", "eps", "0.1"),
            ),
            ("simulate", "unit-mass", "ibp-check"),
            1.5,
        ),
        Workload(
            "sde-presets",
            "reference model under each sde-density preset: the RK4 sweeps and the "
            "per-path expm engine dominate; simulation is a small share",
            _REFERENCE + (("run", "paths", "500"),),
            tuple(f"sde-density:{p}" for p in ("linear-scalar", "cos-sin", "linear-d2")),
            3.2,
        ),
    )
}

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def cycle_seed(seed: int, k: int) -> int:
    digest = hashlib.sha256(f"hawkmal-bench:{seed}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def op_slug(op: str) -> str:
    return op.replace("sde-density:", "sde-").replace(":", "-")


def metric_name(op: str) -> str:
    return op_slug(op).replace("-", "_") + "_s"


def write_ini(path: str, settings, preset=None) -> None:
    sections: dict = {}
    for section, key, value in settings:
        sections.setdefault(section, []).append(f"{key} = {value}")
    if preset is not None:
        sections.setdefault("sde", []).append(f"preset = {preset}")
    with open(path, "w") as fh:
        for section, lines in sections.items():
            fh.write(f"[{section}]\n" + "\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# operations and their oracles
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class OpResult:
    op: str
    seconds: float
    ok: bool = True
    note: str = ""
    exit_code: int = 0
    digests: dict = dataclasses.field(default_factory=dict)
    estimate: tuple = ()  # (mean, std_error) for the delta ops
    rows: dict = dataclasses.field(default_factory=dict)  # label -> (estimate, reference, se)
    ref_seconds: float = 0.0  # `seconds` at reference machine speed

    def fail(self, note: str) -> None:
        self.ok = False
        self.note = self.note or note


def _read_csv(path):
    with open(path, newline="") as fh:
        lines = fh.read().splitlines()
    comments = dict(
        line[2:].split("=", 1) for line in lines if line.startswith("# ") and "=" in line
    )
    rows = list(csv.DictReader(line for line in lines if not line.startswith("#")))
    return rows, comments


def _sha256(path) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


_REPORT_ROWS = {  # report file, and its row count under a config
    "mean-intensity": ("mean_intensity_report.csv", lambda cfg: cfg[("experiment", "grid_points")]),
    "unit-mass": ("unit_mass_report.csv", lambda cfg: len(cfg[("experiment", "eps")])),
    "ibp-check": ("ibp_report.csv", lambda cfg: 4),  # the smooth catalog
}


def _check_cli(res: OpResult, out_dir: str, cfg) -> None:
    """The per-cycle part of the oracle for one CLI command, read back from
    its CSVs.  Rows of the form estimate ± se against a reference are kept in
    `res.rows` for `_check_pooled`.  Exit code 1 means one of the CLI's own
    3-standard-error verdicts failed; it is recorded, not failed.
    """
    cmd = res.op.split(":", 1)[0]
    allowed = (0,) if cmd in ("simulate", "sde-density") else (0, 1)
    if res.exit_code not in allowed:
        res.fail(f"exit code {res.exit_code}")
        return
    if cmd == "simulate":
        (summary,), _ = _read_csv(os.path.join(out_dir, "simulate_summary.csv"))
        with open(os.path.join(out_dir, "simulate_paths.csv"), "rb") as fh:
            dumped = sum(1 for line in fh if not line.startswith(b"#")) - 1  # minus header
        n = int(summary["n_paths"])
        gap, se = float(summary["mean_martingale_gap"]), float(summary["se_martingale_gap"])
        if n != cfg.n_paths or round(float(summary["mean_count"]) * n) != dumped:
            res.fail("path dump disagrees with the summary")
        res.rows["martingale_gap"] = (gap, 0.0, se)
    elif cmd in _REPORT_ROWS:
        name, count = _REPORT_ROWS[cmd]
        rows, _ = _read_csv(os.path.join(out_dir, name))
        expected = count(cfg)
        if len(rows) != expected:
            res.fail(f"{len(rows)} report rows, expected {expected}")
        for r in rows:
            res.rows[r["experiment"]] = tuple(
                float(r[key]) for key in ("estimate", "reference", "std_error")
            )
    elif cmd == "density-check":
        rows, _ = _read_csv(os.path.join(out_dir, "density_report.csv"))
        for r in rows:
            if r["test_name"] == "k1_mass_minus_one":
                if not abs(float(r["statistic"])) <= _MASS_TOLERANCE:
                    res.fail(f"k1 mass off by {r['statistic']}")
            elif not float(r["p_value"]) >= _MIN_P:
                res.fail(f"{r['test_name']} p={r['p_value']}")
        if len(rows) != 4:
            res.fail(f"{len(rows)} density rows, expected 4")
    elif cmd == "sde-density":
        rows, comments = _read_csv(os.path.join(out_dir, "sde_density_paths.csv"))
        if len(rows) != cfg.n_paths or comments.get("passed") != "true":
            res.fail("density criteria not met")


def run_cli(cli, op: str, ini: str, cfg, seed: int, out_dir: str) -> OpResult:
    cmd = op.split(":", 1)[0]
    argv = [cmd, "--config", ini, "--seed", str(seed), "--out", out_dir,
            "--no-timestamp", "--workers", "1"]
    sink = io.StringIO()
    t0 = time.perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
    except Exception:  # an operation that raises is a failed operation
        res = OpResult(op, time.perf_counter() - t0)
        res.fail(traceback.format_exc(limit=3).strip().splitlines()[-1])
        return res
    res = OpResult(op, time.perf_counter() - t0, exit_code=code)
    try:
        _check_cli(res, out_dir, cfg)
    except (OSError, KeyError, ValueError) as exc:
        res.fail(f"unreadable output: {exc!r}")
    if not res.ok:
        res.note += f" | {sink.getvalue().strip()[-200:]}"
    for name in sorted(os.listdir(out_dir)):
        if name.endswith(".csv"):
            res.digests[name] = _sha256(os.path.join(out_dir, name))
    return res


def run_delta(hw, op: str, cfg, seed: int) -> OpResult:
    """The library estimators, on disjoint path ranges as the greeks command
    lays them out: Malliavin on [0, n), finite differences on [2n, 12n)."""
    greeks, simulate = hw["greeks"], hw["simulate"]
    model = cfg.model()
    asset = greeks.AssetModel(
        x0=cfg[("greeks", "x0")], r=cfg[("greeks", "r")], sigma=cfg[("greeks", "sigma")],
        hawkes=model,
    )
    payoff = greeks.Payoff.digital(cfg[("greeks", "strike")])
    n = cfg.n_paths
    t0 = time.perf_counter()
    try:
        if op == "delta-malliavin":
            batch = simulate.simulate_batch(model, cfg.horizon, seed, n, first_index=0)
            est = greeks.malliavin_delta(asset, payoff, batch)
        else:
            batch = simulate.simulate_batch(model, cfg.horizon, seed, 10 * n, first_index=2 * n)
            est = greeks.fd_delta(asset, payoff, batch, bump=0.01 * asset.x0)
    except Exception:
        res = OpResult(op, time.perf_counter() - t0)
        res.fail(traceback.format_exc(limit=3).strip().splitlines()[-1])
        return res
    res = OpResult(op, time.perf_counter() - t0, estimate=(est.mean, est.std_error))
    res.digests["estimate"] = hashlib.sha256(repr(res.estimate).encode()).hexdigest()
    if not (math.isfinite(est.mean) and est.std_error > 0.0):
        res.fail(f"estimate {est.mean!r} se {est.std_error!r}")
    return res


def _pair_deltas(results) -> None:
    """The Greeks triangle: the Malliavin and FD means differ by 0 ± hypot(se).
    Both operations carry the row, so failing it fails both."""
    pair = [r for r in results if r.op.startswith("delta-") and r.estimate]
    if len(pair) == 2:
        (m1, s1), (m2, s2) = pair[0].estimate, pair[1].estimate
        for r in pair:
            r.rows["malliavin-fd"] = (m1 - m2, 0.0, math.hypot(s1, s2))


def _check_pooled(cycles) -> dict:
    """The statistical part of the oracle, over all of a run's cycles.

    Cycles draw independent inputs, so for each operation and row the mean
    of the per-cycle estimates has standard error sqrt(sum se_k^2) / K.  A
    row more than `_Z` of those from its reference fails every instance of
    the operation.  Pooling keeps the test sharp (more paths, not fewer) and
    its false-alarm rate at the normal tail even when one cycle's handful of
    paths gives a poor standard error, as in `tanh-perpath`.
    Returns the pooled z of every row.
    """
    by_op: dict = {}
    for results in cycles:
        for r in results:
            by_op.setdefault(r.op, []).append(r)
    pooled = {}
    for op, runs in by_op.items():
        for label in runs[0].rows:
            vals = [r.rows.get(label) for r in runs]
            if any(v is None or not all(map(math.isfinite, v)) for v in vals):
                for r in runs:
                    r.fail(f"row {label} missing or not finite")
                continue
            diff = sum(v[0] - v[1] for v in vals) / len(vals)
            se = math.sqrt(sum(v[2] ** 2 for v in vals)) / len(vals)
            z = diff / se if se > 0.0 else (0.0 if diff == 0.0 else math.inf)
            pooled[f"{op}/{label}"] = z
            if not abs(z) <= _Z:
                for r in runs:
                    r.fail(f"row {label}: pooled z {z:+.2f} beyond {_Z}")
    return pooled


# ---------------------------------------------------------------------------
# a workload run
# ---------------------------------------------------------------------------

class Runner:
    def __init__(self, wl: Workload, seed: int, hw):
        self.wl = wl
        self.seed = seed
        self.hw = hw
        self.dir = os.path.join(OUT, wl.name)
        os.makedirs(self.dir, exist_ok=True)
        self.inis = {}
        for op in wl.ops:
            preset = op.split(":", 1)[1] if op.startswith("sde-density:") else None
            ini = os.path.join(self.dir, op_slug(op) + ".ini")
            write_ini(ini, wl.settings, preset)
            self.inis[op] = ini
            os.makedirs(os.path.join(self.dir, op_slug(op)), exist_ok=True)
        self.configs = {op: hw["cli"].load_config(ini) for op, ini in self.inis.items()}
        self.calibrations: list = []

    def cycle(self, k: int):
        """One pass over the operations, with a calibration between each two."""
        cli = self.hw["cli"]
        s = cycle_seed(self.seed, k)
        results = []
        cal = [calibrate()]
        for op in self.wl.ops:
            if op.startswith("delta-"):
                results.append(run_delta(self.hw, op, self.configs[op], s))
            else:
                out_dir = os.path.join(self.dir, op_slug(op))
                results.append(run_cli(cli, op, self.inis[op], self.configs[op], s, out_dir))
            cal.append(calibrate())
        self.calibrations.extend(cal)
        for i, r in enumerate(results):
            r.ref_seconds = reference_seconds(r.seconds, cal[i], cal[i + 1])
        _pair_deltas(results)
        return results


def wall(results, ref=True) -> float:
    return sum(r.ref_seconds if ref else r.seconds for r in results)


def measure_setup(ini: str, seed: int, samples: int) -> float:
    """Median seconds from a fresh interpreter to `hawkmal.cli` imported and
    the config and model built, after one untimed start that fills the
    bytecode cache."""
    argv = [sys.executable, "-c", _SETUP_CODE, SRC, ini, str(seed)]
    times = []
    for i in range(samples + 1):
        t0 = time.perf_counter()
        subprocess.run(argv, check=True, timeout=120, stdout=subprocess.DEVNULL)
        if i:
            times.append(time.perf_counter() - t0)
    return statistics.median(times)


def machine_identity() -> dict:
    """Where and on what the numbers were taken."""
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    llc, level = "unknown", 0
    cache = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(cache)) if os.path.isdir(cache) else ():
        try:
            with open(os.path.join(cache, index, "level")) as fh:
                lv = int(fh.read())
            with open(os.path.join(cache, index, "size")) as fh:
                size = fh.read().strip()
        except (OSError, ValueError):
            continue
        if lv > level:
            llc, level = f"L{lv} {size}", lv
    commit = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--short=12", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        commit = done.stdout.strip() or "none"
    source = hashlib.sha256()
    pkg = os.path.join(SRC, "hawkmal")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                source.update(name.encode() + b"\0" + fh.read())
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "llc": llc,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
    }


def _median_by_op(cycles, key):
    by_op: dict = {}
    for results in cycles:
        for r in results:
            by_op.setdefault(r.op, []).append(key(r))
    return {op: statistics.median(v) for op, v in by_op.items()}


def run_workload(
    wl: Workload,
    seed: int,
    seconds: float,
    trace: bool,
    hw,
    setup_samples: int = _SETUP_SAMPLES,
    fanout_paths: int = 200_000,
    log=print,
) -> dict:
    runner = Runner(wl, seed, hw)
    record = {
        "workload": wl.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": machine_identity(), "settings": [list(s) for s in wl.settings],
    }
    if not trace:
        record["setup_s"] = measure_setup(runner.inis[wl.ops[0]], seed, setup_samples)
    n = max(3, round(seconds / wl.cycle_s))
    if trace:
        n = max(3, math.ceil(n / 2))  # the same cycles run once untraced, once traced
    record["cycles"] = n

    untraced = [runner.cycle(k) for k in range(n)]
    attempted = [r for rs in untraced for r in rs]
    record["pooled_z"] = _check_pooled(untraced)

    op_s = _median_by_op(untraced, lambda r: r.ref_seconds)
    wall_s = statistics.median(wall(rs) for rs in untraced)
    if not trace:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # A fresh process does not keep pace with the calibrations next to it,
        # but the run's median calibration follows the machine's state over
        # the run, and scaling by it keeps two sets of runs comparable.
        record["setup_ref_s"] = (
            record["setup_s"] * _CAL_REF_S / statistics.median(runner.calibrations)
        )
        metrics = {"setup_s": record["setup_ref_s"], "wall_s": wall_s, "peak_rss_mb": peak}
    else:
        metrics = trace_metrics(runner, untraced, wall_s, seed, fanout_paths, record, attempted)
        for op in ALL_OPS:
            metrics[metric_name(op)] = op_s.get(op, 0.0)
        wnv = _median_by_op(
            untraced, lambda r: r.estimate[1] ** 2 * r.ref_seconds if r.estimate else 0.0
        )
        metrics["malliavin_wnv"] = wnv.get("delta-malliavin", 0.0)
        metrics["fd_wnv"] = wnv.get("delta-fd", 0.0)

    failed = [r for r in attempted if not r.ok]
    record.update(
        attempted=len(attempted),
        failed=len(failed),
        failures=[f"{r.op}: {r.note}" for r in failed],
        verdicts_3se_failed=sum(1 for r in attempted if r.exit_code == 1),
        wall_s=[wall(rs, ref=False) for rs in untraced],
        wall_ref_s=[wall(rs) for rs in untraced],
        op_seconds={op: [r.seconds for rs in untraced for r in rs if r.op == op] for op in wl.ops},
        op_ref_seconds={
            op: [r.ref_seconds for rs in untraced for r in rs if r.op == op] for op in wl.ops
        },
        digests=[{r.op: r.digests for r in rs} for rs in untraced],
        calibration_median_s=statistics.median(runner.calibrations),
        metrics=metrics,
    )
    _report(record, op_s, log)
    return record


ALL_OPS = tuple(dict.fromkeys(op for wl in WORKLOADS.values() for op in wl.ops))


def trace_metrics(runner, untraced, wall_s, seed, fanout_paths, record, attempted):
    """Per-layer metrics: the micro-benchmarks, then the traced cycles.

    Span times are scaled to reference seconds by their cycle's ratio of
    reference to plain seconds; counts are left as they are.
    """
    hw = runner.hw
    cfg = runner.configs[runner.wl.ops[0]]
    rate, raw, ref = measured(layers.philox_draws_per_s, hw["simulate"], seed)
    out = {"simulate.philox_draws_per_s": rate * raw / ref}
    (w1, w2, same), raw, ref = measured(
        layers.fanout, hw["simulate"], cfg.model(), cfg.horizon, cycle_seed(seed, -1), fanout_paths
    )
    out["simulate.fanout_w1_s"], out["simulate.fanout_w2_s"] = w1 * ref / raw, w2 * ref / raw
    fan = OpResult("simulate-fanout", raw, ref_seconds=ref)
    if not same:
        fan.fail("simulate_batch output depends on the worker count")
    attempted.append(fan)

    tracer = Tracer()
    layers.install(tracer, hw)
    per_cycle, walls = [], []
    try:
        for k, expected in enumerate(untraced):
            first = len(tracer.spans)
            with tracer.span("bench.cycle"):
                results = runner.cycle(k)
            attempted.extend(results)
            for a, b in zip(expected, results):
                if a.digests != b.digests:
                    b.fail("traced outputs differ from untraced outputs")
            walls.append(wall(results))
            scale = wall(results) / wall(results, ref=False)
            metrics = layers.cycle_metrics(tracer.spans, first + 1)
            for name, unit in layers.METRICS:
                if unit == "s":
                    metrics[name] *= scale
                elif unit == "1/s":
                    metrics[name] /= scale
            per_cycle.append(metrics)
    finally:
        tracer.restore()
    for name, unit in layers.METRICS:
        values = [c[name] for c in per_cycle]
        if name == "simulate.max_jumps":
            out[name] = max(values)
        elif unit in ("count", "B"):
            out[name] = sum(values) / len(values)  # exact for a given --seed and --seconds
        else:
            out[name] = statistics.median(values)
    out["trace.overhead_s"] = statistics.median(walls) - wall_s
    path = os.path.join(OUT, "results", f"{runner.wl.name}-seed{seed}-spans.jsonl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        for i, rec in enumerate(tracer.spans):
            fh.write(json.dumps({"id": i, "name": rec[0], "start": rec[1], "end": rec[2],
                                 "parent": rec[3], "info": rec[4]}) + "\n")
    return out


def per_layer_units() -> dict:
    units = dict(layers.METRICS)
    units.update({
        "simulate.philox_draws_per_s": "1/s",
        "simulate.fanout_w1_s": "s",
        "simulate.fanout_w2_s": "s",
        "trace.overhead_s": "s",
        "malliavin_wnv": "se2.s",
        "fd_wnv": "se2.s",
    })
    units.update({metric_name(op): "s" for op in ALL_OPS})
    return units


def _report(record, op_s, log) -> None:
    m = record["machine"]
    log(f"# workload={record['workload']} seed={record['seed']} seconds={record['seconds']} "
        f"trace={record['trace']} cycles={record['cycles']}")
    log("# machine " + " ".join(f"{k}={v!r}" if " " in str(v) else f"{k}={v}" for k, v in m.items()))
    first = record["digests"][0]
    for op, secs in op_s.items():
        log(f"# op {op}: median {secs:.4f} reference s over {len(record['op_seconds'][op])} cycles")
        for name, digest in first[op].items():
            log(f"#   cycle 0 sha256 {name} {digest}")
    log(f"# failed_frac {record['failed']}/{record['attempted']} = "
        f"{record['failed'] / record['attempted']:.4g}; CLI 3-se verdicts failed: "
        f"{record['verdicts_3se_failed']}")
    for note in record["failures"][:10]:
        log(f"# FAILED {note}")
    for name, value in record["metrics"].items():
        log(f"# {name} = {value:.6g}")
    path = os.path.join(
        OUT, "results", f"{record['workload']}-seed{record['seed']}-trace{record['trace']}.json"
    )
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)


def result_line(record, units) -> dict:
    return {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in record["metrics"].items()},
    }


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def load_hawkmal() -> dict:
    """Import hawkmal from ./src of the current directory, nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "hawkmal", "__init__.py")):
        raise SystemExit(f"bench: no hawkmal sources under {SRC}; run from the repository root")
    sys.path.insert(0, SRC)
    import hawkmal
    from hawkmal import cli, density, experiments, greeks, malliavin, sde, simulate

    if not os.path.abspath(hawkmal.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"bench: imported hawkmal from {hawkmal.__file__}, not {SRC}")
    return {
        "cli": cli, "density": density, "experiments": experiments, "greeks": greeks,
        "malliavin": malliavin, "sde": sde, "simulate": simulate,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    hw = load_hawkmal()
    record = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), hw)
    units = per_layer_units() if args.trace else E2E_UNITS
    print(json.dumps(result_line(record, units)))
    return 0


def run_all(args) -> int:
    """Each workload in its own interpreter, so peak memory is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            return done.returncode
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}/{key}"] = value
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
