"""Config-driven command line: simulations, checks, and Greek estimates.

One parser reads ``hawkmal <command> [options]``: the seven commands take
the same six options, before or after the command name.  Each invocation
reads one INI-style config file (``key = value`` inside named blocks, with
``;`` or ``#`` starting an inline comment; a key under ``[DEFAULT]`` is
refused), merges the command-line overrides (``--seed``, ``--paths``)
into it, builds its model once, and stamps a 12-hex digest of the
resulting effective settings into the first header line of every CSV
written.  Every table whose rows grow with paths or jumps is written a
slice of rows at a time (`_Rows`).  A second
``# generated=...`` line carries the wall clock and is suppressed by
``--no-timestamp``, so a rerun with the same config and seed produces
byte-identical files.  ``--workers`` is accepted for compatibility and
ignored: it never enters the digest and never changes an output byte.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 invalid
config or command line (`ConfigError`; an ``--out`` that cannot be created
among them), 3 a model or estimator assumption was violated
(`AssumptionError`: a refused estimate, a flow that blows up, a setting
outside a formula's domain; `NormalizationError` among them), 4 an
internal error (`InternalError`, or any other exception, printed with its
traceback).  Only the program's own error classes pick codes 2 and 3: a
ValueError or RuntimeError raised by Python or numpy is a fault, exit 4.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import hashlib
import itertools
import math
import os
import sys
import traceback
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .density import (
    _simpson,
    _usable,
    density_vs_empirical,
    log_kappa_rows,
    normalization_constant,
)
from .experiments import (
    _Z_THRESHOLD,
    ExperimentReport,
    ibp_check,
    mean_intensity_check,
    unit_mass_check,
)
from .greeks import (
    AssetModel,
    Payoff,
    fd_delta,
    malliavin_delta,
    pathwise_delta,
)
from .malliavin import CameronMartinFunction, weight_arrays
from .malliavin import weight_terms  # noqa: F401  bench/layers.py traces cli.weight_terms
from .model import (
    AssumptionError,
    BaselineSpec,
    HawkesModel,
    InternalError,
    KernelSpec,
    NonlinearitySpec,
)
from ._numtext import column_text
from .sde import density_criteria, sde_preset
from .simulate import _slices, compensator_batch, simulate_batch

DEFAULT_SEED = 12345
_KS_LEVEL = 0.01
_MASS_TOLERANCE = 1e-6
_WEIGHT_DUMP_PATHS = 200
# `_Rows` forms the text of a slice this long or longer in numpy.  Its fixed
# cost, 0.2-0.5 ms a column (2 vCPU), is repaid from about 500 rows on the
# three-column jump dump and from about 1 000 on the tables of six to eight
# columns, whose full slices (2 048 to 2 730 rows) then take about 0.5-0.7
# of the time `repr` takes
_NUMPY_TEXT_ROWS = 1000


class ConfigError(ValueError):
    """Invalid config file or command-line override."""


# ---------------------------------------------------------------------------
# config schema
# ---------------------------------------------------------------------------

# (section, key) -> (kind, default[, choices]), or for "posint" (kind,
# default[, least[, most]]), the least value being 1 unless given.  Every
# effective key enters the digest, whether it came from the file, an
# override, or a default.
_SCHEMA: Dict[Tuple[str, str], tuple] = {
    ("model", "baseline"): ("choice", "constant", ("constant", "affine", "sinusoidal")),
    ("model", "lambda0"): ("float", 1.0),
    ("model", "slope"): ("float", 0.0),
    ("model", "amplitude"): ("float", 0.0),
    ("model", "period"): ("posfloat", 1.0),
    ("model", "kernel"): ("choice", "exponential", ("exponential",)),
    ("model", "alpha"): ("float", 0.5),
    ("model", "beta"): ("posfloat", 1.0),
    ("model", "nonlinearity"): ("choice", "linear", ("linear", "tanh")),
    ("model", "cap"): ("posfloat", 2.0),
    ("run", "horizon"): ("posfloat", 5.0),
    ("run", "seed"): ("u64", DEFAULT_SEED),
    ("run", "paths"): ("posint", 20000, 2),  # standard errors need two paths
    ("density", "max_n"): ("posint", 2, 1, 2),  # the marginal quadrature stops at n = 2
    ("density", "min_conditioned"): ("posint", 200),
    ("greeks", "x0"): ("posfloat", 100.0),
    ("greeks", "r"): ("float", 0.05),
    ("greeks", "sigma"): ("float", 0.3),
    ("greeks", "payoff"): (
        "choice",
        "digital",
        ("smooth", "digital", "constant", "capped-linear"),
    ),
    ("greeks", "strike"): ("posfloat", 100.0),
    ("greeks", "lower"): ("posfloat", 90.0),
    ("greeks", "upper"): ("posfloat", 110.0),
    ("greeks", "bump"): ("float", 0.0),  # 0 -> per-payoff default; else in (0, x0)
    ("greeks", "fd_paths"): ("int", 0),  # 0 -> per-payoff default; else >= 2
    ("sde", "preset"): ("choice", "linear-scalar", ("linear-scalar", "cos-sin", "linear-d2")),
    ("experiment", "grid_points"): ("posint", 32),
    ("experiment", "volterra_steps"): ("posint", 2048, 2),  # the trapezoid rule needs two steps
    ("experiment", "eps"): ("floats", (0.1, 0.01, 0.001)),
    ("experiment", "direction"): ("choice", "default", ("default", "cosine", "sine")),
}


def _coerce(section: str, key: str, raw: str, spec: tuple, where: Optional[str] = None):
    kind = spec[0]
    where = where or f"[{section}] {key} = {raw!r}"
    if kind == "choice":
        value = raw.strip().lower()
        if value not in spec[2]:
            raise ConfigError(f"{where}: expected one of {', '.join(spec[2])}")
        return value
    if kind == "floats":
        try:
            values = tuple(float(part) for part in raw.split(","))
        except ValueError:
            raise ConfigError(f"{where}: expected a comma-separated list of numbers")
        if not values or any(not math.isfinite(v) or v <= 0.0 for v in values):
            raise ConfigError(f"{where}: every entry must be a positive number")
        return values
    try:
        if kind in ("int", "posint", "u64"):
            value = int(raw, 0)
        else:
            value = float(raw)
    except ValueError:
        noun = "an integer" if kind in ("int", "posint", "u64") else "a number"
        raise ConfigError(f"{where}: expected {noun}")
    if kind == "posint":
        least = spec[2] if len(spec) > 2 else 1
        most = spec[3] if len(spec) > 3 else None
        if value < least:
            raise ConfigError(f"{where}: must be >= {least}")
        if most is not None and value > most:
            raise ConfigError(f"{where}: must be <= {most}")
    if kind == "u64" and not 0 <= value < 2**64:
        raise ConfigError(f"{where}: must fit in an unsigned 64-bit integer")
    if kind == "posfloat" and not value > 0.0:
        raise ConfigError(f"{where}: must be positive")
    if kind in ("float", "posfloat") and not math.isfinite(value):
        raise ConfigError(f"{where}: must be finite")
    return value


def _canonical(value) -> str:
    return ",".join(map(_cell, value)) if isinstance(value, tuple) else _cell(value)


@dataclass(frozen=True)
class RunConfig:
    """Effective settings for one invocation, with their digest.

    `values` holds every (section, key) of the schema coerced to canonical
    Python types; the digest hashes the sorted ``section.key=value`` lines,
    so two invocations agree on the digest exactly when they agree on every
    effective setting.
    """

    values: Dict[Tuple[str, str], object]
    digest: str

    def __getitem__(self, sec_key: Tuple[str, str]):
        return self.values[sec_key]

    # ---- model assembly -------------------------------------------------

    def model(self) -> HawkesModel:
        m = {key: value for (section, key), value in self.values.items() if section == "model"}
        params = {
            "constant": (m["lambda0"],),
            "affine": (m["lambda0"], m["slope"], self.horizon),
            "sinusoidal": (m["lambda0"], m["amplitude"], m["period"]),
        }[m["baseline"]]
        linear = m["nonlinearity"] == "linear"
        return HawkesModel(
            BaselineSpec(m["baseline"], params),
            KernelSpec.exponential(m["alpha"], m["beta"]),
            NonlinearitySpec.linear() if linear else NonlinearitySpec.saturating_tanh(m["cap"]),
        )

    def direction(self) -> CameronMartinFunction:
        name = self.values[("experiment", "direction")]
        if name == "cosine":
            return CameronMartinFunction.cosine(self.horizon)
        if name == "sine":
            return CameronMartinFunction.sine(self.horizon)
        return CameronMartinFunction.default(self.horizon)

    @property
    def horizon(self) -> float:
        return self.values[("run", "horizon")]

    @property
    def seed(self) -> int:
        return self.values[("run", "seed")]

    @property
    def n_paths(self) -> int:
        return self.values[("run", "paths")]


def load_config(
    path: Optional[str], seed: Optional[int] = None, paths: Optional[int] = None
) -> RunConfig:
    """Parse the INI file (if any), apply overrides, fill defaults, digest."""
    raw: Dict[Tuple[str, str], str] = {}
    if path is not None:
        parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=(";", "#"))
        try:
            with open(path, "r") as fh:
                parser.read_file(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path!r}: {exc.strerror}")
        except configparser.Error as exc:
            raise ConfigError(f"malformed config file {path!r}: {exc}")
        for key in parser.defaults():  # it would leak into every section
            raise ConfigError(f"[DEFAULT] {key}: every setting belongs to a named section")
        for section in parser.sections():
            for key, value in parser.items(section):
                if (section, key) not in _SCHEMA:
                    raise ConfigError(f"[{section}] {key}: unknown setting")
                raw[(section, key)] = value
    values: Dict[Tuple[str, str], object] = {}
    for sec_key, spec in _SCHEMA.items():
        if sec_key in raw:
            values[sec_key] = _coerce(sec_key[0], sec_key[1], raw[sec_key], spec)
        else:
            values[sec_key] = spec[1]
    overrides = {("run", "seed"): ("--seed", seed), ("run", "paths"): ("--paths", paths)}
    for sec_key, (flag, value) in overrides.items():
        if value is not None:
            values[sec_key] = _coerce(*sec_key, str(value), _SCHEMA[sec_key], f"{flag} {value}")
    lines = ";".join(
        f"{sec}.{key}={_canonical(values[(sec, key)])}"
        for sec, key in sorted(values)
    )
    digest = hashlib.sha256(lines.encode()).hexdigest()[:12]
    return RunConfig(values=values, digest=digest)


# ---------------------------------------------------------------------------
# CSV plumbing
# ---------------------------------------------------------------------------

def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def _write_csv(
    out_dir: str,
    name: str,
    digest: str,
    header: Sequence[str],
    rows: Sequence[Sequence],
    timestamp: Optional[str],
    comments: Sequence[Tuple[str, object]] = (),
) -> str:
    path = os.path.join(out_dir, name)
    with open(path, "w", newline="") as fh:
        fh.write(f"# digest={digest}\n")
        if timestamp is not None:
            fh.write(f"# generated={timestamp}\n")
        for key, value in comments:
            fh.write(f"# {key}={_cell(value)}\n")
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, _Rows):
            for s in _slices(len(rows), len(header)):
                fh.write(rows.text(s.start, s.stop))
        else:
            writer.writerows([_cell(v) for v in row] for row in rows)
    return path


class _Rows:
    """Table rows made a slice at a time, for `_write_csv`: columns(lo, hi)
    gives the integer, float or string column arrays of rows [lo, hi).  So
    a per-path or per-jump table holds Python objects for the slice being
    written only, not for every row of the batch.  Every cell is written as
    `_cell` writes it, ``str`` of an int and ``repr`` of a float: a slice of
    at least _NUMPY_TEXT_ROWS rows forms that text in numpy
    (`_numtext.column_text`), a shorter one through the Python objects."""

    # a cell's text by its column's dtype kind, as `_cell` gives it
    _FORMAT = {"i": "{}", "u": "{}", "f": "{!r}", "U": "{}"}

    def __init__(self, n_rows: int, columns):
        self.n_rows = n_rows
        self.columns = columns

    def __len__(self) -> int:
        return self.n_rows

    def text(self, lo: int, hi: int) -> str:
        """The CSV lines of rows [lo, hi): ints and floats need no quoting,
        and strings are written unquoted, so a string column holds ASCII
        with no comma, quote or newline."""
        columns = self.columns(lo, hi)
        rows = len(columns[0])
        if rows < _NUMPY_TEXT_ROWS:
            fmt = ",".join(self._FORMAT[c.dtype.kind] for c in columns) + "\n"
            return "".join(map(fmt.format, *(c.tolist() for c in columns)))
        # a cell per column of `lines`, its characters down from the top and
        # NUL after them, a separator after each cell; read row by row
        sep = np.full((1, rows), ord(","), dtype=np.uint8)
        lines = np.concatenate([part for c in columns for part in (column_text(c), sep)])
        lines[-1] = ord("\n")
        return lines.T.tobytes().translate(None, b"\0").decode("ascii")


_REPORT_HEADER = ("experiment", "parameter_digest", "estimate", "reference", "std_error", "z", "pass")


def _report(inv: _Invocation, name: str, report: ExperimentReport) -> bool:
    """Write a z-score report to `name`, its diagnostics as CSV comments;
    echo its rows; return its verdict."""
    rows = [
        (f"{report.name}:{row.label}", report.digest, row.estimate, row.reference,
         row.std_error, row.z, row.passed)
        for row in report.rows
    ]
    inv.write(name, _REPORT_HEADER, rows, comments=report.diagnostics)
    for row in report.rows:
        print(
            f"{'PASS' if row.passed else 'FAIL'} {report.name}:{row.label} "
            f"estimate={row.estimate:.6g} reference={row.reference:.6g} z={row.z:+.3f}"
        )
    return report.passed


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Invocation:
    config: RunConfig
    model: HawkesModel
    out_dir: str
    timestamp: Optional[str]

    def batch(self, n_paths=None, first_index=0):
        return simulate_batch(
            self.model,
            self.config.horizon,
            self.config.seed,
            self.config.n_paths if n_paths is None else n_paths,
            first_index=first_index,
        )

    def write(self, name, header, rows, comments=()) -> str:
        return _write_csv(
            self.out_dir, name, self.config.digest, header, rows, self.timestamp, comments
        )


def _cmd_simulate(inv: _Invocation) -> bool:
    """Simulate paths; dump jump times and the martingale gap N_T - Lambda_T."""
    model, batch = inv.model, inv.batch()

    def jumps(lo, hi):  # the jumps at flat positions [lo, hi)
        flat = np.arange(lo, hi)
        path = np.searchsorted(batch.offsets, flat, side="right") - 1
        # a jump's ordinal is its flat position past its path's offset, from 1
        return batch.first_index + path, flat - batch.offsets[path] + 1, batch.flat_times[lo:hi]

    dump = _Rows(batch.flat_times.size, jumps)
    inv.write("simulate_paths.csv", ("path_index", "jump_ordinal", "jump_time"), dump)

    counts = batch.counts().astype(float)
    comp = compensator_batch(model, batch)
    gap = counts - comp
    n = batch.n_paths
    summary = [
        (
            n,
            float(counts.mean()),
            float(counts.std(ddof=1) / math.sqrt(n)),
            float(comp.mean()),
            float(comp.std(ddof=1) / math.sqrt(n)),
            float(gap.mean()),
            float(gap.std(ddof=1) / math.sqrt(n)),
            int(counts.max()),
        )
    ]
    inv.write(
        "simulate_summary.csv",
        (
            "n_paths",
            "mean_count",
            "se_count",
            "mean_compensator",
            "se_compensator",
            "mean_martingale_gap",
            "se_martingale_gap",
            "max_count",
        ),
        summary,
    )
    print(
        f"simulate: {n} paths, mean N_T = {summary[0][1]:.6g} "
        f"(se {summary[0][2]:.3g}), mean compensator = {summary[0][3]:.6g}"
    )
    return True


def _cmd_density_check(inv: _Invocation) -> bool:
    """Check k_1 closure and KS fits of the jump-time densities to the paths."""
    model, batch = inv.model, inv.batch()
    T = inv.config.horizon
    rows: List[tuple] = []
    flags: List[bool] = []

    # closure of the one-jump density: integrate k_1 against an independent
    # quadrature of the normalization constant.
    # Z_1 underflows to 0 when Lambda_T is in the thousands
    z1 = _usable(1, *normalization_constant(model, T, 1))
    grid = np.linspace(0.0, T, 8193)
    vals = np.exp(log_kappa_rows(model, T, grid.reshape(-1, 1))) / z1
    mass = _simpson(vals, grid)
    mass_ok = abs(mass - 1.0) <= _MASS_TOLERANCE
    rows.append((1, "k1_mass_minus_one", mass - 1.0, None, grid.size))
    flags.append(mass_ok)

    for n in range(1, inv.config[("density", "max_n")] + 1):
        for fit in density_vs_empirical(
            model, n, batch, min_conditioned=inv.config[("density", "min_conditioned")]
        ):
            rows.append((fit.n, fit.test_name, fit.statistic, fit.p_value, fit.samples))
            flags.append(fit.p_value >= _KS_LEVEL)

    inv.write(
        "density_report.csv", ("n", "test_name", "statistic", "p_value", "samples"), rows
    )
    for row, ok in zip(rows, flags):
        p = "" if row[3] is None else f" p={row[3]:.4f}"
        print(f"{'PASS' if ok else 'FAIL'} density n={row[0]} {row[1]} stat={row[2]:.4g}{p}")
    return all(flags)


def _cmd_mean_intensity(inv: _Invocation) -> bool:
    """Compare the MC mean intensity with the Volterra solution."""
    cfg = inv.config
    model, batch = inv.model, inv.batch()
    grid = np.linspace(0.0, cfg.horizon, cfg[("experiment", "grid_points")] + 1)[1:]
    report = mean_intensity_check(
        model, batch, grid=grid, n_steps=cfg[("experiment", "volterra_steps")]
    )
    return _report(inv, "mean_intensity_report.csv", report)


def _cmd_unit_mass(inv: _Invocation) -> bool:
    """Check E[Z^eps] = 1 for the Radon-Nikodym weights."""
    cfg = inv.config
    model, batch = inv.model, inv.batch()
    report = unit_mass_check(
        model, batch, m=cfg.direction(), eps_values=cfg[("experiment", "eps")]
    )
    return _report(inv, "unit_mass_report.csv", report)


def _cmd_ibp_check(inv: _Invocation) -> bool:
    """Check the integration-by-parts identity per catalog functional."""
    cfg = inv.config
    model, batch = inv.model, inv.batch()
    m = cfg.direction()
    report = ibp_check(model, batch, m=m)
    passed = _report(inv, "ibp_report.csv", report)

    head = batch.take(slice(0, _WEIGHT_DUMP_PATHS))
    times, mask, *terms = weight_arrays(model, head, m)
    rows, ordinal = np.nonzero(mask)  # row-major: by path, then by jump
    columns = (head.first_index + rows, ordinal + 1, *(c[mask] for c in (times, *terms)))
    dump = _Rows(rows.size, lambda lo, hi: [c[lo:hi] for c in columns])
    inv.write(
        "ibp_weights.csv",
        ("path_index", "j", "T_j", "psi", "gamma1", "gamma2", "m", "m_hat"),
        dump,
    )
    return passed


def _cmd_sde_density(inv: _Invocation) -> bool:
    """Evaluate the absolute-continuity criteria of a preset jump SDE."""
    sde = sde_preset(inv.config[("sde", "preset")])
    batch = inv.batch()
    crit = density_criteria(sde, batch)
    d = crit.terminal.shape[1]
    header = (
        ["path_index", "n_jumps"]
        + [f"x_{k + 1}" for k in range(d)]
        + ["det_gamma", "min_eigenvalue", "criterion"]
    )
    columns = (
        batch.first_index + np.arange(crit.n_paths),
        crit.counts,
        *crit.terminal.T,
        crit.per_path_det,
        crit.per_path_min_eig,
        np.where(crit.per_path_flag, "true", "false"),
    )
    rows = _Rows(crit.n_paths, lambda lo, hi: [c[lo:hi] for c in columns])
    comments = [
        ("preset", crit.label),
        ("kind", crit.kind),
        ("n_conditioned", crit.n_conditioned),
        ("min_jumps", d),
        ("n_nonpositive", crit.n_nonpositive),
        ("passed", crit.passed),
    ]
    if crit.kind == "scalar":
        comments.append(("min_gamma", crit.min_gamma))
        if crit.wronskian_margin is not None:
            comments.append(("wronskian_margin", crit.wronskian_margin))
    else:
        comments.append(("min_rank", crit.min_rank))
        comments.append(("rank_target", d))
    inv.write("sde_density_paths.csv", header, rows, comments=comments)
    verdict = "PASS" if crit.passed else "FAIL"
    print(
        f"{verdict} sde-density preset={crit.label} conditioned={crit.n_conditioned} "
        f"nonpositive={crit.n_nonpositive}"
    )
    return crit.passed


def _build_payoff(cfg: RunConfig) -> Payoff:
    kind = cfg[("greeks", "payoff")]
    if kind == "digital":
        return Payoff.digital(cfg[("greeks", "strike")])
    if kind == "constant":
        return Payoff.constant(1.0)
    if kind == "capped-linear":
        lower = cfg[("greeks", "lower")]
        upper = cfg[("greeks", "upper")]
        if not lower < upper:
            raise ConfigError(
                f"[greeks] lower = {lower!r}, upper = {upper!r}: need lower < upper"
            )
        return Payoff.capped_linear(lower, upper)
    strike = cfg[("greeks", "strike")]

    def fn(x):
        return np.tanh((np.asarray(x, dtype=float) - strike) / strike)

    def derivative(x):
        return (1.0 - np.tanh((np.asarray(x, dtype=float) - strike) / strike) ** 2) / strike

    return Payoff.smooth(fn, derivative, label="smooth")


def _cmd_greeks(inv: _Invocation) -> bool:
    """Estimate delta by Malliavin weights, finite differences and pathwise."""
    cfg = inv.config
    asset = AssetModel(
        x0=cfg[("greeks", "x0")],
        r=cfg[("greeks", "r")],
        sigma=cfg[("greeks", "sigma")],
        hawkes=inv.model,
    )
    payoff = _build_payoff(cfg)
    n = cfg.n_paths
    fd_n = cfg[("greeks", "fd_paths")]
    if fd_n < 0 or fd_n == 1:  # standard errors need two paths
        raise ConfigError(f"[greeks] fd_paths = {fd_n}: must be 0 (the default) or >= 2")
    if fd_n == 0:
        fd_n = 10 * n if payoff.kind == "digital" else n
    bump = cfg[("greeks", "bump")]
    if not 0.0 <= bump < asset.x0:  # the down bump prices at x0 - bump
        raise ConfigError(
            f"[greeks] bump = {bump!r}: must be 0 (the default) or in (0, x0 = {asset.x0!r})"
        )
    if bump == 0.0:
        bump = 0.01 * asset.x0 if payoff.kind == "digital" else 1e-4 * asset.x0

    # disjoint path-index ranges, [0, n) Malliavin, [n, 2n) pathwise and
    # [2n, 2n + fd_n) FD, keep the estimators independent, so the combined
    # standard error of any pairwise difference is the hypotenuse.  The
    # pathwise range is simulated only for a payoff with a derivative.
    mal = malliavin_delta(asset, payoff, inv.batch(n_paths=n))
    fd = fd_delta(asset, payoff, inv.batch(n_paths=fd_n, first_index=2 * n), bump=bump)
    estimates = [("malliavin", mal), ("fd", fd)]
    if payoff.differentiable:
        pw = pathwise_delta(asset, payoff, inv.batch(n_paths=n, first_index=n))
        estimates.append(("pathwise", pw))
    rows = [
        (label, payoff.label, est.n_paths, est.mean, est.std_error,
         est.effective_sample_size, est.excluded)
        for label, est in estimates
    ]
    if not payoff.differentiable:
        # the estimator is undefined for a payoff without a derivative; the
        # row stays so the file always carries all three estimators.
        rows.append(("pathwise", payoff.label, 0, None, None, None, None))

    header = ("estimator", "payoff", "n_paths", "mean", "std_error", "ESS", "excluded_paths")
    comments = [
        ("payoff", payoff.label),
        ("bump", bump),
        ("malliavin_boundary_term", mal.boundary_term),
        ("malliavin_zero_jump_term", mal.zero_jump_term),
        ("malliavin_min_abs_denominator", mal.min_abs_denominator),
    ]
    inv.write("greeks.csv", header, rows, comments=comments)

    all_ok = True
    for label, est in estimates:
        print(
            f"greeks {label}: mean={est.mean:.6g} se={est.std_error:.3g} "
            f"n={est.n_paths} ess={est.effective_sample_size:.1f} excluded={est.excluded}"
        )
    for (la, ea), (lb, eb) in itertools.combinations(estimates, 2):
        tol = _Z_THRESHOLD * math.hypot(ea.std_error, eb.std_error)
        ok = abs(ea.mean - eb.mean) <= tol
        all_ok = all_ok and ok
        print(
            f"{'PASS' if ok else 'FAIL'} greeks {la} vs {lb}: "
            f"|diff|={abs(ea.mean - eb.mean):.4g} tol={tol:.4g}"
        )
    return all_ok


_COMMANDS = {
    "simulate": _cmd_simulate,
    "density-check": _cmd_density_check,
    "ibp-check": _cmd_ibp_check,
    "unit-mass": _cmd_unit_mass,
    "mean-intensity": _cmd_mean_intensity,
    "sde-density": _cmd_sde_density,
    "greeks": _cmd_greeks,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hawkmal",
        description="Hawkes-process simulation, jump-time calculus checks, and Greeks.",
        epilog="commands:\n" + "".join(f"  {k:<16}{fn.__doc__}\n" for k, fn in _COMMANDS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=_COMMANDS, metavar="command", help="see the list below")
    parser.add_argument("--config", metavar="<path>", help="INI config file")
    parser.add_argument("--seed", type=int, metavar="<u64>", help="override run.seed")
    parser.add_argument("--paths", type=int, metavar="<n>", help="override run.paths")
    parser.add_argument("--out", metavar="<dir>", default=".", help="output directory")
    parser.add_argument(
        "--no-timestamp",
        action="store_true",
        help="omit the generated-at header line from CSV outputs",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="<n>",
        help="accepted for compatibility and ignored (must be >= 1)",
    )
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.workers < 1:
            raise ConfigError(f"--workers {args.workers}: must be >= 1")
        config = load_config(args.config, seed=args.seed, paths=args.paths)
        try:
            os.makedirs(args.out, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out {args.out}: {exc}") from exc
        timestamp = (
            None
            if args.no_timestamp
            else datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
        )
        print(f"digest {config.digest}")
        inv = _Invocation(config, config.model(), args.out, timestamp)
        passed = _COMMANDS[args.command](inv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except AssumptionError as exc:
        print(f"assumption violation: {exc}", file=sys.stderr)
        return 3
    except InternalError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    except Exception as exc:  # a crash is not a failed check (exit 1)
        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
