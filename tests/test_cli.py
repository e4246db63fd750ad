"""Command-line runner: config parsing, digests, CSV artifacts, exit codes,
byte-identical output across worker counts, and outputs that agree with
themselves over edge values of the config schema."""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import math
import os
import re
import subprocess
import sys
import warnings
from contextlib import redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hawkmal._numtext import column_text
from hawkmal.cli import (
    ConfigError,
    _cell,
    _cmd_simulate,
    _Invocation,
    _Rows,
    _build_parser,
    _write_csv,
    load_config,
    main,
)
from hawkmal.malliavin import CameronMartinFunction


def run_cli(*argv: str) -> int:
    return main(list(argv))


def read_csv(path):
    """(comment dict, header row, data rows) of one artifact."""
    comments = {}
    body = []
    with open(path, "r") as fh:
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                comments[key] = value
            elif line.startswith("#"):
                key, _, value = line[1:].rstrip("\n").partition("=")
                comments[key] = value
            else:
                body.append(line)
    rows = list(csv.reader(io.StringIO("".join(body))))
    return comments, rows[0], rows[1:]


# ---- config loading ----

def test_defaults_and_digest_shape():
    cfg = load_config(None)
    assert cfg.seed == 12345
    assert cfg.horizon == 5.0
    assert cfg.n_paths == 20000
    assert len(cfg.digest) == 12
    assert all(c in "0123456789abcdef" for c in cfg.digest)


def test_flag_override_matches_file_setting(tmp_path):
    ini = tmp_path / "run.ini"
    ini.write_text("[run]\nseed = 99\npaths = 777\n")
    from_file = load_config(str(ini))
    from_flags = load_config(None, seed=99, paths=777)
    assert from_file.digest == from_flags.digest
    assert from_file.values == from_flags.values
    assert load_config(None).digest != from_flags.digest


def test_config_rejections(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nalpha = fast\n")
    with pytest.raises(ConfigError, match=r"\[model\] alpha"):
        load_config(str(bad))
    bad.write_text("[model]\nwarp = 9\n")
    with pytest.raises(ConfigError, match="unknown setting"):
        load_config(str(bad))
    bad.write_text("[experiment]\neps = 0.1,-0.2\n")
    with pytest.raises(ConfigError, match="positive"):
        load_config(str(bad))
    with pytest.raises(ConfigError, match="--paths"):
        load_config(None, paths=1)
    with pytest.raises(ConfigError, match="--seed"):
        load_config(None, seed=-1)


def test_config_error_exit_codes(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[model]\nbeta = zero\n")
    assert run_cli("simulate", "--config", str(bad), "--out", str(tmp_path)) == 2
    assert run_cli("simulate", "--paths", "1", "--out", str(tmp_path)) == 2
    assert run_cli("simulate", "--workers", "0", "--out", str(tmp_path)) == 2
    missing = tmp_path / "nowhere.ini"
    assert run_cli("simulate", "--config", str(missing), "--out", str(tmp_path)) == 2


def test_valid_config_digests_are_pinned(tmp_path):
    # digests identify runs across versions: range checks must not move them
    ini = tmp_path / "edge.ini"
    ini.write_text(
        "[run]\npaths = 2\nseed = 0x10\n[density]\nmax_n = 2\n"
        "[model]\nbaseline = sinusoidal\namplitude = 0.25\n"
    )
    assert load_config(None).digest == "2b8a8867f529"
    assert load_config(None, seed=99, paths=777).digest == "9082b08fc8a2"
    assert load_config(str(ini)).digest == "5fed48cb3ac9"
    assert load_config(str(ini), seed=2**64 - 1, paths=2).digest == "ab615e5b3450"


@pytest.mark.parametrize(
    "text, message",
    [
        ("[model]\nkernel = gamma\n", "expected one of exponential"),
        ("[experiment]\neps = 0.1,x\n", "comma-separated list of numbers"),
        ("[experiment]\neps = 0.1,0\n", "every entry must be a positive number"),
        ("[run]\nseed = 1.5\n", "expected an integer"),
        ("[model]\nalpha = fast\n", "expected a number"),
        ("[experiment]\ngrid_points = 0\n", "must be >= 1"),
        ("[run]\npaths = 1\n", r"\[run\] paths = '1': must be >= 2"),
        ("[density]\nmax_n = 3\n", r"\[density\] max_n = '3': must be <= 2"),
        ("[experiment]\nvolterra_steps = 1\n", r"\[experiment\] volterra_steps = '1': must be >= 2"),
        ("[run]\nseed = 0x10000000000000000\n", "unsigned 64-bit integer"),
        ("[model]\nbeta = -1\n", "must be positive"),
        ("[model]\nalpha = nan\n", "must be finite"),
        ("[run]\nhorizon = inf\n", "must be finite"),
    ],
)
def test_every_coercion_error_exits_2_before_any_work(tmp_path, capsys, text, message):
    ini = tmp_path / "bad.ini"
    ini.write_text(text)
    with pytest.raises(ConfigError, match=message):
        load_config(str(ini))
    out = tmp_path / "out"
    assert run_cli("density-check", "--config", str(ini), "--out", str(out)) == 2
    assert "config error" in capsys.readouterr().err
    assert not list(out.glob("*.csv"))


def test_readme_example_config_loads_as_the_defaults(tmp_path):
    # the README's ini block carries inline `;` comments; every value in it
    # is a default, so it digests as the empty config does
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        block = re.search(r"```ini\n(.*?)```", fh.read(), re.S).group(1)
    ini = tmp_path / "readme.ini"
    ini.write_text(block)
    assert load_config(str(ini)).digest == load_config(None).digest
    ini.write_text("[run]\npaths = 30    # hash comments too\n")
    assert load_config(str(ini)).n_paths == 30


@pytest.mark.parametrize(
    "text",
    [
        "[DEFAULT]\npaths = 3\nalpha = 0.9\n",  # would be dropped
        "[DEFAULT]\npaths = 3\nalpha = 0.9\n[run]\nhorizon = 2\n",  # would leak into [run]
    ],
)
def test_default_section_keys_exit_2(tmp_path, capsys, text):
    ini = tmp_path / "default.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(ini), "--out", str(out)) == 2
    assert "config error: [DEFAULT] paths" in capsys.readouterr().err
    assert not out.exists()


def test_overrides_take_the_file_bounds():
    with pytest.raises(ConfigError, match="--paths 1: must be >= 2"):
        load_config(None, paths=1)
    with pytest.raises(ConfigError, match="--seed 18446744073709551616: must fit"):
        load_config(None, seed=2**64)
    assert load_config(None, paths=2).n_paths == 2


def test_help_describes_every_command(capsys):
    from hawkmal.cli import _COMMANDS

    with pytest.raises(SystemExit) as exc:
        run_cli("--help")
    assert exc.value.code == 0
    text = "".join(capsys.readouterr().out.split())
    for name, fn in _COMMANDS.items():
        assert fn.__doc__ and "\n" not in fn.__doc__.strip(), name
        assert name + "".join(fn.__doc__.split()) in text, name


def test_every_command_help_lists_every_command(capsys):
    from hawkmal.cli import _COMMANDS

    for name in _COMMANDS:
        with pytest.raises(SystemExit) as exc:
            run_cli(name, "--help")
        assert exc.value.code == 0, name
        text = capsys.readouterr().out
        assert all(other in text for other in _COMMANDS), name


def run_tanh_density_check(tmp_path, horizon, paths):
    """density-check on a tanh model: exit 0 or 1, and k_1 closes to 1e-6."""
    ini = tmp_path / "tanh.ini"
    ini.write_text(
        f"[run]\nhorizon = {horizon}\npaths = {paths}\n"
        "[model]\nnonlinearity = tanh\ncap = 2\n"
        "[density]\nmax_n = 1\nmin_conditioned = 5\n"
    )
    out = tmp_path / "out"
    code = run_cli(
        "density-check", "--config", str(ini), "--seed", "3", "--out", str(out), "--no-timestamp"
    )
    assert code in (0, 1)
    _, header, rows = read_csv(out / "density_report.csv")
    assert rows[0][1] == "k1_mass_minus_one"
    assert abs(float(rows[0][2])) <= 1e-6
    return rows


def test_density_check_on_tanh_model(tmp_path):
    run_tanh_density_check(tmp_path, 1.0, 200)


def test_density_check_on_tanh_model_long_horizon(tmp_path):
    # at T = 5 only a few percent of the paths have one jump
    rows = run_tanh_density_check(tmp_path, 5.0, 400)
    assert rows[1][1] == "ks_T1" and int(rows[1][4]) >= 5


def test_ibp_check_at_a_tiny_tanh_cap_is_warning_free(tmp_path):
    # at cap 0.001 the excitation over the cap passes 355, where cosh^2
    # overflows in gamma' = sech^2; the value is 0 and numpy must not warn
    ini = tmp_path / "tiny.ini"
    ini.write_text("[run]\npaths = 200\n[model]\nnonlinearity = tanh\ncap = 0.001\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("ibp-check", "--config", str(ini), "--seed", "3", "--out", str(out))
    assert code in (0, 1)
    _, _, rows = read_csv(out / "ibp_report.csv")
    assert rows and all(math.isfinite(float(r[2])) for r in rows)


def test_unknown_command_is_usage_error():
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2


def test_assumption_violation_exit_code(tmp_path):
    unstable = tmp_path / "unstable.ini"
    unstable.write_text("[model]\nalpha = 2.0\n")
    assert (
        run_cli("simulate", "--config", str(unstable), "--paths", "10", "--out", str(tmp_path))
        == 3
    )


def test_refused_estimate_exit_code(tmp_path, capsys):
    # too few paths with N_T = 1 for the KS fit: a refusal, not a fault
    ini = tmp_path / "few.ini"
    ini.write_text("[run]\npaths = 20\n[density]\nmin_conditioned = 50\n")
    assert run_cli("density-check", "--config", str(ini), "--out", str(tmp_path)) == 3
    assert "assumption violation" in capsys.readouterr().err


def test_malliavin_delta_without_jumps_exit_code(tmp_path, capsys):
    # a valid config whose batch has no jumps: the weight is undefined, an
    # assumption of the estimator, not a config error
    ini = tmp_path / "quiet.ini"
    ini.write_text("[model]\nlambda0 = 1e-9\nalpha = 0.0\n")
    argv = ("greeks", "--config", str(ini), "--paths", "4", "--seed", "1", "--out", str(tmp_path))
    assert run_cli(*argv) == 3
    assert "assumption violation: batch contains no jumps" in capsys.readouterr().err


def test_unnormalizable_one_jump_density_exit_code(tmp_path, capsys):
    # lambda0 = 200 puts Lambda_T over 1000, so Z_1 underflows to 0: the
    # k_1 closure refuses before it divides by Z_1, warnings as errors too
    ini = tmp_path / "busy.ini"
    ini.write_text("[model]\nlambda0 = 200\n")
    argv = ("density-check", "--config", str(ini), "--paths", "20", "--out", str(tmp_path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(*argv) == 3
    assert "assumption violation: Z_1 = 0 " in capsys.readouterr().err


def test_internal_error_exit_code(tmp_path, monkeypatch, capsys):
    import hawkmal.simulate

    monkeypatch.setattr(hawkmal.simulate, "_MAX_ROUNDS", 0)
    hawkmal.simulate.simulate_batch.cache_clear()  # thin, not read a kept batch
    assert run_cli("simulate", "--paths", "10", "--out", str(tmp_path)) == 4
    assert "internal error: thinning failed to terminate" in capsys.readouterr().err


def test_unexpected_exception_exit_code(tmp_path, monkeypatch, capsys):
    # a crash is an internal error, not the exit 1 of a failed check
    import hawkmal.cli

    def crash(*args, **kwargs):
        raise IndexError("index 3 is out of bounds")

    monkeypatch.setattr(hawkmal.cli, "simulate_batch", crash)
    assert run_cli("simulate", "--paths", "10", "--out", str(tmp_path)) == 4
    assert "internal error: IndexError: index 3 is out of bounds" in capsys.readouterr().err


def _broadcast_fault():
    return np.ones(2) + np.ones(3)


def _raise(exc):
    def fault():
        raise exc

    return fault


@pytest.mark.parametrize(
    "fault, message",
    [
        (_broadcast_fault, "ValueError: operands could not be broadcast together"),
        (_raise(RuntimeError("stray state")), "RuntimeError: stray state"),
        (_raise(NotImplementedError("no route")), "NotImplementedError: no route"),
    ],
    ids=["ValueError", "RuntimeError", "NotImplementedError"],
)
def test_python_error_classes_from_a_fault_exit_4(tmp_path, monkeypatch, capsys, fault, message):
    # ValueError and RuntimeError are Python's classes, not the program's:
    # raised by a fault, they are an internal error, not a config error
    # (exit 2) or a refusal (exit 3)
    import hawkmal.cli

    monkeypatch.setattr(hawkmal.cli, "compensator_batch", lambda *args, **kwargs: fault())
    assert run_cli("simulate", "--paths", "10", "--out", str(tmp_path)) == 4
    err = capsys.readouterr().err
    assert f"internal error: {message}" in err
    assert "Traceback" in err


def test_linalg_error_in_sde_density_exits_4(tmp_path, monkeypatch, capsys):
    # numpy's LinAlgError is a ValueError: a failed SVD is a fault, not a
    # config error
    def svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", svd)
    assert run_cli("sde-density", "--paths", "50", "--out", str(tmp_path)) == 4
    assert "internal error: LinAlgError: SVD did not converge" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("greeks", "[greeks]\nsigma = -2\n", "sigma must be greater than -1"),
        ("unit-mass", "[experiment]\neps = 0.5\n", r"eps \* sup\|m\| = 0.5 must stay below 1/3"),
        (
            "mean-intensity",
            "[model]\nalpha = 0.9\n[experiment]\nvolterra_steps = 2\n",
            "grid too coarse for the product trapezoidal rule",
        ),
    ],
    ids=["sigma", "eps", "coarse-grid"],
)
def test_settings_outside_a_formula_domain_exit_3(tmp_path, capsys, command, text, message):
    # schema-valid settings on which a formula is undefined: an assumption
    # of the model or estimator (exit 3), as an unstable alpha is
    ini = tmp_path / "domain.ini"
    ini.write_text(text)
    out = tmp_path / "out"
    assert run_cli(command, "--config", str(ini), "--paths", "20", "--out", str(out)) == 3
    assert re.search("assumption violation: " + message, capsys.readouterr().err)
    assert not list(out.glob("*.csv"))


def test_out_that_cannot_be_created_exit_code(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("")
    for out in (blocker, blocker / "x"):
        assert run_cli("simulate", "--paths", "10", "--out", str(out)) == 2
        assert f"config error: --out {out}" in capsys.readouterr().err


def _hawkmal_env():
    """The environment with hawkmal's source directory on PYTHONPATH."""
    import hawkmal

    src = os.path.dirname(os.path.dirname(os.path.abspath(hawkmal.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_import_leaves_scipy_out():
    """A fresh `import hawkmal, hawkmal.cli` loads no scipy module at all:
    scipy is the tests' oracle, not a runtime dependency."""
    code = (
        "import sys, hawkmal, hawkmal.cli\n"
        "print(' '.join(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=_hawkmal_env(), capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == ""


_NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ImportError(f"{name} is blocked")
        return None

sys.meta_path.insert(0, NoScipy())
from hawkmal.cli import main
"""


def test_every_command_runs_with_scipy_blocked(tmp_path):
    # each command, run where any scipy import raises, exits as it does here
    ini = tmp_path / "small.ini"
    ini.write_text(
        "[density]\nmax_n = 2\nmin_conditioned = 5\n"
        "[experiment]\ngrid_points = 4\nvolterra_steps = 128\n"
        "[greeks]\npayoff = digital\nfd_paths = 500\n"
        "[sde]\npreset = linear-scalar\n"
    )
    commands = (
        "simulate", "density-check", "ibp-check", "unit-mass", "mean-intensity", "sde-density", "greeks"
    )

    def argv(command, where):
        return [
            command, "--config", str(ini), "--paths", "500", "--seed", "83",
            "--out", str(tmp_path / where / command), "--no-timestamp",
        ]

    usual = [run_cli(*argv(c, "usual")) for c in commands]
    script = _NO_SCIPY + f"print([main(a) for a in {[argv(c, 'blocked') for c in commands]!r}])"
    out = subprocess.run(
        [sys.executable, "-c", script], env=_hawkmal_env(), capture_output=True, text=True
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip().splitlines()[-1] == repr(usual)
    assert set(usual) <= {0, 1}


def test_blown_up_linear_flow_exit_code(tmp_path, monkeypatch, capsys):
    # dX = 200 X dt overflows on [0, 5]: a refusal (exit 3), not a pass, and
    # without numpy's overflow warnings ahead of the refusal, on the exact
    # engine and on the RK4 engine (the same callables without `linear`)
    import hawkmal.cli
    from hawkmal.sde import JumpSde

    blown = JumpSde.linear_scalar(a=200.0, b=0.1, alpha=0.3, beta=0.2, x0=1.0)
    for engine, sde in (("exact", blown), ("rk4", dataclasses.replace(blown, linear=None))):
        monkeypatch.setattr(hawkmal.cli, "sde_preset", lambda name: sde)
        out = tmp_path / engine
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run_cli("sde-density", "--paths", "50", "--out", str(out))
        assert code == 3, engine
        assert "non-finite state" in capsys.readouterr().err
        assert not (out / "sde_density_paths.csv").exists()


def test_contracting_linear_flow_reports_its_criterion(tmp_path, monkeypatch):
    # dX = (-200 X + 0.1) dt contracts the tangents to 0 on [0, 5]: a report
    # with finite Gammas, not a singular solve read as a config error (exit
    # 2).  Gamma = s^2 underflows to 0 on the paths whose last jump lies far
    # from T, but the singular value s of the bridge factor does not, so
    # the criterion holds there and on every path (exit 0).
    import hawkmal.cli
    from hawkmal.sde import JumpSde

    contracting = JumpSde.linear_scalar(a=-200.0, b=0.1, alpha=0.3, beta=0.2, x0=1.0)
    monkeypatch.setattr(hawkmal.cli, "sde_preset", lambda name: contracting)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("sde-density", "--paths", "50", "--seed", "7", "--out", str(tmp_path))
    assert code == 0
    comments, header, rows = read_csv(tmp_path / "sde_density_paths.csv")
    det = [float(r[header.index("det_gamma")]) for r in rows]
    assert all(math.isfinite(g) and g >= 0.0 for g in det)
    assert sum(g == 0.0 for g in det) == 3
    assert all(r[header.index("criterion")] == "true" for r in rows)
    assert comments["n_nonpositive"] == "0" and comments["passed"] == "true"


# ---- simulate ----

def test_simulate_artifacts(tmp_path):
    out = tmp_path / "sim"
    assert run_cli(
        "simulate", "--paths", "400", "--seed", "21", "--out", str(out), "--no-timestamp"
    ) == 0
    comments, header, rows = read_csv(out / "simulate_paths.csv")
    assert header == ["path_index", "jump_ordinal", "jump_time"]
    assert len(comments["digest"]) == 12
    first = rows[0]
    assert first[0] == "0" and first[1] == "1"
    assert 0.0 < float(first[2]) < 5.0

    _, sheader, srows = read_csv(out / "simulate_summary.csv")
    assert sheader[:2] == ["n_paths", "mean_count"]
    summary = dict(zip(sheader, srows[0]))
    assert int(summary["n_paths"]) == 400
    assert 6.0 < float(summary["mean_count"]) < 10.0
    gap = float(summary["mean_martingale_gap"])
    assert abs(gap) <= 5.0 * float(summary["se_martingale_gap"])


def test_simulate_paths_known_bytes(tmp_path):
    # sha256 of the jump dump of a fixed small config, with the generated
    # line and without it; pins every byte of simulate_paths.csv
    ini = tmp_path / "small.ini"
    ini.write_text("[run]\nseed = 4242\npaths = 40\nhorizon = 3.0\n")
    expected = {
        None: "5d4669ef187358ad967e4731968c4cc4f16c5542c95ada616220dee335f750cc",
        "2026-01-02T03:04:05Z": "46c60b1838eaa03e49a223a23e5386de707045404ea871fa455cf719ce188a99",
    }
    for timestamp, digest in expected.items():
        out = tmp_path / str(timestamp is None)
        out.mkdir()
        cfg = load_config(str(ini))
        inv = _Invocation(config=cfg, model=cfg.model(), out_dir=str(out), timestamp=timestamp)
        assert _cmd_simulate(inv)
        data = (out / "simulate_paths.csv").read_bytes()
        assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "command, ini, paths, name, digest",
    [
        ("simulate", "[run]\nseed = 4242\nhorizon = 3.0\n", "2000", "simulate_paths.csv",
         "36d3b1ffc3be91614c015b7e293d16196eb422cc13bceea43a3cd19936eb9b53"),
        # its det_gamma column has cells in exponent notation
        ("sde-density", "[run]\nseed = 11\n[sde]\npreset = linear-d2\n", "3000",
         "sde_density_paths.csv",
         "cc4df34b97a5380bbb0e2abefbc3a9918f50bab3102d95b04bcf06ecd4869f1e"),
    ],
)
def test_numpy_text_known_bytes(tmp_path, command, ini, paths, name, digest):
    # sha256 of dumps whose slices are long enough to take the numpy text,
    # recorded when every cell went through repr
    (tmp_path / "run.ini").write_text(ini)
    with mock.patch("hawkmal.cli.column_text", wraps=column_text) as numpy_text:
        assert run_cli(
            command, "--config", str(tmp_path / "run.ini"), "--paths", paths,
            "--out", str(tmp_path), "--no-timestamp",
        ) == 0
    assert numpy_text.called
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


_CELLS = st.one_of(
    st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(['a,b', 'q"q', "x\ny", " ", ""]),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False).map(np.float64),
    st.integers(-2**62, 2**62).map(np.int64),
    st.booleans().map(np.bool_),
)


@settings(max_examples=60, deadline=None)
@given(rows=st.lists(st.lists(_CELLS, min_size=1, max_size=4), max_size=6))
def test_write_csv_bytes_match_cell_text(tmp_path_factory, rows):
    # a table that is not a `_Rows` writes each cell's `_cell` text
    out = tmp_path_factory.mktemp("csv")
    path = _write_csv(str(out), "t.csv", "abc", ("x", "y"), rows, None, (("k", 1.5),))
    ref = io.StringIO(newline="")
    ref.write("# digest=abc\n# k=1.5\n")
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(("x", "y"))
    writer.writerows([_cell(v) for v in row] for row in rows)
    with open(path, newline="") as fh:
        assert fh.read() == ref.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    ints=st.lists(st.integers(-2**62, 2**62), max_size=40),
    floats=st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40),
    unsigned=st.booleans(),
    flags=st.lists(st.booleans(), max_size=40),
)
def test_write_csv_rows_slices_match_cell_text(tmp_path_factory, ints, floats, unsigned, flags):
    # a `_Rows` table writes its slices by column dtype; the file must read
    # as if each cell went through `_cell`, at any slice boundary and by
    # either route (a full slice of 2 rows in numpy, a last row of 1 through
    # repr), a "true"/"false" string column as a column of bools
    n = min(len(ints), len(floats), len(flags))
    a = np.array(ints[:n], dtype=np.int64)
    b = np.abs(a).astype(np.uint64) if unsigned else a
    c = np.array(floats[:n], dtype=float)
    f = np.array(flags[:n], dtype=bool)
    text = np.where(f, "true", "false")
    dump = _Rows(n, lambda lo, hi: [a[lo:hi], b[lo:hi], c[lo:hi], text[lo:hi]])
    out = tmp_path_factory.mktemp("rows")
    with mock.patch("hawkmal.simulate._BLOCK_ELEMS", 9), mock.patch("hawkmal.cli._NUMPY_TEXT_ROWS", 2):
        path = _write_csv(str(out), "t.csv", "abc", ("x", "y", "z", "w"), dump, None)
    ref = io.StringIO(newline="")
    ref.write("# digest=abc\n")
    writer = csv.writer(ref, lineterminator="\n")
    writer.writerow(("x", "y", "z", "w"))
    writer.writerows([_cell(v) for v in row] for row in zip(a, b, c, f))
    with open(path, newline="") as fh:
        assert fh.read() == ref.getvalue()
    assert len(dump) == n


def test_every_command_parses_the_shared_options():
    # the six shared options are declared once; every command takes them,
    # with the same defaults, before or after the command name
    from hawkmal.cli import _COMMANDS

    parser = _build_parser()
    options = [
        "--config", "c.ini", "--seed", "7", "--paths", "9", "--out", "o",
        "--no-timestamp", "--workers", "3",
    ]
    for name in _COMMANDS:
        args = parser.parse_args([name])
        assert (args.config, args.seed, args.paths, args.out, args.no_timestamp, args.workers) == (
            None, None, None, ".", False, 1
        ), name
        for argv in ([name] + options, options + [name]):
            args = parser.parse_args(argv)
            assert (args.command, args.config, args.seed, args.paths, args.out) == (
                name, "c.ini", 7, 9, "o"
            )
            assert (args.no_timestamp, args.workers) == (True, 3)


def test_simulate_zero_jump_batch_writes_header_only(tmp_path):
    ini = tmp_path / "quiet.ini"
    ini.write_text("[model]\nlambda0 = 1e-12\n[run]\nseed = 7\npaths = 3\nhorizon = 1.0\n")
    out = tmp_path / "out"
    assert run_cli("simulate", "--config", str(ini), "--out", str(out), "--no-timestamp") == 0
    assert (out / "simulate_paths.csv").read_bytes() == (
        b"# digest=c7e163e43a43\npath_index,jump_ordinal,jump_time\n"
    )
    _, header, rows = read_csv(out / "simulate_summary.csv")
    assert dict(zip(header, rows[0]))["max_count"] == "0"


def test_simulate_poisson_reduction(tmp_path):
    ini = tmp_path / "poisson.ini"
    ini.write_text("[model]\nalpha = 0.0\n")
    out = tmp_path / "out"
    assert run_cli(
        "simulate",
        "--config", str(ini),
        "--paths", "4000",
        "--seed", "5",
        "--out", str(out),
        "--no-timestamp",
    ) == 0
    _, header, rows = read_csv(out / "simulate_summary.csv")
    summary = dict(zip(header, rows[0]))
    mean, se = float(summary["mean_count"]), float(summary["se_count"])
    assert abs(mean - 5.0) <= 4.0 * se


# ---- checks and reports ----

def test_density_check_report(tmp_path):
    ini = tmp_path / "density.ini"
    ini.write_text("[density]\nmax_n = 2\nmin_conditioned = 50\n")
    out = tmp_path / "out"
    assert run_cli(
        "density-check",
        "--config", str(ini),
        "--paths", "8000",
        "--seed", "31",
        "--out", str(out),
        "--no-timestamp",
    ) == 0
    _, header, rows = read_csv(out / "density_report.csv")
    assert header == ["n", "test_name", "statistic", "p_value", "samples"]
    names = [r[1] for r in rows]
    assert names == ["k1_mass_minus_one", "ks_T1", "ks_T1_of_2", "ks_T2_of_2"]
    assert abs(float(rows[0][2])) <= 1e-6
    assert rows[0][3] == ""
    for r in rows[1:]:
        assert float(r[3]) >= 0.01


def test_mean_intensity_report(tmp_path):
    ini = tmp_path / "mi.ini"
    ini.write_text("[experiment]\ngrid_points = 8\nvolterra_steps = 512\n")
    out = tmp_path / "out"
    assert run_cli(
        "mean-intensity",
        "--config", str(ini),
        "--paths", "5000",
        "--seed", "47",
        "--out", str(out),
        "--no-timestamp",
    ) == 0
    comments, header, rows = read_csv(out / "mean_intensity_report.csv")
    assert header[0] == "experiment" and header[-1] == "pass"
    assert len(rows) == 8
    assert all(r[-1] == "true" for r in rows)
    assert 0.0 < float(comments["volterra_bound"]) < 1e-4


def test_cached_references_write_the_same_files_cold_and_warm(tmp_path):
    # density-check's KS marginals, mean-intensity's Volterra solutions and
    # the simulated batch are cached: the run that fills a cache and the run
    # that reads it write the same bytes
    from hawkmal import density, experiments, simulate

    ini = tmp_path / "cache.ini"
    ini.write_text(
        "[density]\nmax_n = 2\nmin_conditioned = 5\n"
        "[experiment]\ngrid_points = 4\nvolterra_steps = 128\n"
    )

    def run(command, where):
        out = tmp_path / command / where
        code = run_cli(
            command, "--config", str(ini), "--paths", "500", "--seed", "83",
            "--out", str(out), "--no-timestamp",
        )
        return code, _artifact_bytes(out)

    # each command's cache and the entries one run fills: three marginals, two solutions
    caches = {
        "density-check": (density._marginal_cdf, 3),
        "mean-intensity": (experiments.volterra_mean_intensity, 2),
    }
    for command, (cache, entries) in caches.items():
        cache.cache_clear()
        runs = [run(command, where) for where in ("cold", "warm")]
        assert runs[0][1], f"{command} wrote no CSV artifacts"
        assert runs[0] == runs[1], f"{command} wrote other files from its cache"
        info = cache.cache_info()
        assert info.hits == info.misses == entries

    # simulate, ibp-check and density-check read one batch: run in one
    # process, the first simulates it and the others read it from the cache,
    # and each writes the bytes of a fresh run
    shared = ("simulate", "ibp-check", "density-check")
    fresh = {}
    for command in shared:
        simulate.simulate_batch.cache_clear()
        fresh[command] = run(command, "fresh")
        assert fresh[command][1], f"{command} wrote no CSV artifacts"
    simulate.simulate_batch.cache_clear()
    for command in shared:
        assert run(command, "shared") == fresh[command], f"{command} wrote other files from a kept batch"
    info = simulate.simulate_batch.cache_info()
    assert (info.misses, info.hits, info.currsize) == (1, len(shared) - 1, 1)


def test_unit_mass_and_ibp_reports(tmp_path):
    out = tmp_path / "out"
    assert run_cli(
        "unit-mass", "--paths", "500", "--seed", "53", "--out", str(out), "--no-timestamp"
    ) == 0
    _, _, rows = read_csv(out / "unit_mass_report.csv")
    assert [r[0] for r in rows] == [
        "unit-mass:eps=0.1", "unit-mass:eps=0.01", "unit-mass:eps=0.001",
    ]

    assert run_cli(
        "ibp-check", "--paths", "500", "--seed", "53", "--out", str(out), "--no-timestamp"
    ) == 0
    _, _, rows = read_csv(out / "ibp_report.csv")
    assert [r[0] for r in rows] == ["ibp:F=1", "ibp:F=T1", "ibp:F=exp(-T1)", "ibp:F=T1*T2"]

    _, wheader, wrows = read_csv(out / "ibp_weights.csv")
    assert wheader == ["path_index", "j", "T_j", "psi", "gamma1", "gamma2", "m", "m_hat"]
    assert len({r[0] for r in wrows}) <= 200
    t = float(wrows[0][2])
    assert float(wrows[0][6]) == pytest.approx(1.0 - 2.0 * t / 5.0, rel=1e-12)
    assert float(wrows[0][7]) == pytest.approx(t * (1.0 - t / 5.0), rel=1e-12)


def test_sde_density_report(tmp_path):
    ini = tmp_path / "sde.ini"
    ini.write_text("[sde]\npreset = cos-sin\n")
    out = tmp_path / "out"
    assert run_cli(
        "sde-density",
        "--config", str(ini),
        "--paths", "300",
        "--seed", "61",
        "--out", str(out),
        "--no-timestamp",
    ) == 0
    comments, header, rows = read_csv(out / "sde_density_paths.csv")
    assert header == ["path_index", "n_jumps", "x_1", "det_gamma", "min_eigenvalue", "criterion"]
    assert comments["preset"] == "cos-sin"
    assert comments["passed"] == "true"
    assert len(rows) == 300
    for r in rows:
        if int(r[1]) >= 1:
            assert float(r[3]) > 0.0
            assert r[5] == "true"


def test_sde_density_linear_d2_rank_comments(tmp_path):
    ini = tmp_path / "sde.ini"
    ini.write_text("[sde]\npreset = linear-d2\n")
    out = tmp_path / "out"
    assert run_cli(
        "sde-density", "--config", str(ini), "--paths", "300", "--seed", "61",
        "--out", str(out), "--no-timestamp",
    ) == 0
    comments, header, rows = read_csv(out / "sde_density_paths.csv")
    assert header[2:4] == ["x_1", "x_2"]
    assert comments["kind"] == "linear-ddim"
    assert comments["min_rank"] == "2" and comments["rank_target"] == "2"
    assert "min_gamma" not in comments
    assert int(comments["n_conditioned"]) == sum(int(r[1]) >= 2 for r in rows)


def test_sde_density_rank_does_not_depend_on_units(tmp_path):
    # at lambda0 = 40 under tanh, linear-d2 reaches x_1 ~ 1e76 and x_2 ~ 1e119:
    # the columns of W are some 1e43 apart, so s_2 falls under s_1 eps, and
    # the rank read off W as it is was 1 on all 50 paths (exit 1)
    ini = tmp_path / "sde.ini"
    ini.write_text("[model]\nlambda0 = 40\nnonlinearity = tanh\n[sde]\npreset = linear-d2\n")
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(
            "sde-density", "--config", str(ini), "--paths", "50", "--seed", "53",
            "--out", str(out), "--no-timestamp",
        ) == 0
    comments, _, rows = read_csv(out / "sde_density_paths.csv")
    assert comments["min_rank"] == "2" and comments["n_nonpositive"] == "0"
    assert len(rows) == 50 and all(r[-1] == "true" for r in rows)


@pytest.mark.parametrize(
    "preset, digest",
    [
        ("linear-scalar", "fba1b56b66fb3e1dc8cf668ea1443ef54d0b70351008b89a850fc7fceecd1613"),
        ("linear-d2", "f100963c96ef38bffb860490ab65eaaac826bce2f4cb1711f2717e5bcb34282f"),
    ],
)
def test_sde_density_linear_known_bytes(tmp_path, preset, digest):
    # sha256 of the exact linear engine's sde_density_paths.csv on a fixed
    # config: det and the smallest eigenvalue come from the singular values
    # of the bridge factor, and must not move a bit
    ini = tmp_path / "sde.ini"
    ini.write_text(f"[sde]\npreset = {preset}\n")
    out = tmp_path / "out"
    assert run_cli(
        "sde-density", "--config", str(ini), "--paths", "300", "--seed", "61",
        "--out", str(out), "--no-timestamp",
    ) == 0
    data = (out / "sde_density_paths.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize(
    "preset, digest",
    [
        ("linear-scalar", "3e102160ce21e1cb981895adaa2017126cd91c0aaba6fa770ce885029992acd0"),
        ("cos-sin", "3eced7b1f40e6e8d34c58fb0e81bb682a0001a35d28d4b44c25420951f1cd5aa"),
        ("linear-d2", "b178eff36cff5f0f47ba9fc4b6afc710da18a519846bb21f7449e9d25bf58bc9"),
    ],
)
def test_sde_density_paths_known_bytes_every_preset(tmp_path, preset, digest):
    # sha256 of sde_density_paths.csv, recorded when its rows were written as
    # tuples through csv.writer: the slice writer must give the same bytes,
    # the criterion cells as true/false
    ini = tmp_path / "sde.ini"
    ini.write_text(f"[sde]\npreset = {preset}\n")
    out = tmp_path / "out"
    assert run_cli(
        "sde-density", "--config", str(ini), "--paths", "300", "--seed", "11",
        "--out", str(out), "--no-timestamp",
    ) == 0
    data = (out / "sde_density_paths.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


def test_config_baselines_and_directions(tmp_path):
    ini = tmp_path / "m.ini"
    t = np.linspace(0.0, 4.0, 9)
    for body, family, params, direction in (
        ("lambda0 = 1.5\nslope = -0.25", "affine", (1.5, -0.25, 4.0), "cosine"),
        ("amplitude = 0.5\nperiod = 2.0", "sinusoidal", (1.0, 0.5, 2.0), "sine"),
    ):
        ini.write_text(
            f"[run]\nhorizon = 4.0\n[model]\nbaseline = {family}\n{body}\n"
            f"[experiment]\ndirection = {direction}\n"
        )
        cfg = load_config(str(ini))
        base = cfg.model().baseline
        assert (base.family, base.params) == (family, params)
        m, ref = cfg.direction(), getattr(CameronMartinFunction, direction)(4.0)
        np.testing.assert_array_equal(m.m(t), ref.m(t))
        np.testing.assert_array_equal(m.m_hat(t), ref.m_hat(t))


def test_ibp_weights_follow_the_sine_direction(tmp_path):
    ini = tmp_path / "sine.ini"
    ini.write_text(
        "[run]\nhorizon = 4.0\n[model]\nbaseline = sinusoidal\namplitude = 0.5\n"
        "[experiment]\ndirection = sine\n"
    )
    out = tmp_path / "out"
    assert run_cli(
        "ibp-check", "--config", str(ini), "--paths", "400", "--seed", "67",
        "--out", str(out), "--no-timestamp",
    ) == 0
    _, header, rows = read_csv(out / "ibp_weights.csv")
    assert header[6:] == ["m", "m_hat"]
    amp, w = math.sqrt(2.0 / 4.0), 2.0 * math.pi / 4.0
    for r in rows:
        t = float(r[2])
        m, m_hat = amp * math.sin(w * t), amp / w * (1.0 - math.cos(w * t))
        assert float(r[6]) == pytest.approx(m, rel=1e-12, abs=1e-15)
        assert float(r[7]) == pytest.approx(m_hat, rel=1e-12, abs=1e-15)


# ---- greeks ----

def test_greeks_constant_and_capped_linear_payoffs(tmp_path):
    ini = tmp_path / "gk.ini"
    ini.write_text("[greeks]\npayoff = constant\n")
    out = tmp_path / "constant"
    assert run_cli(
        "greeks", "--config", str(ini), "--paths", "2000", "--seed", "5",
        "--out", str(out), "--no-timestamp",
    ) == 0
    _, _, rows = read_csv(out / "greeks.csv")
    assert [r[:2] for r in rows] == [[e, "constant"] for e in ("malliavin", "fd", "pathwise")]
    # a constant payoff has delta 0: exactly, wherever no weight is involved
    assert [float(r[3]) for r in rows[1:]] == [0.0, 0.0]

    ini.write_text("[greeks]\npayoff = capped-linear\nlower = 95\nupper = 105\n")
    out = tmp_path / "capped"
    assert run_cli(
        "greeks", "--config", str(ini), "--paths", "2000", "--seed", "5",
        "--out", str(out), "--no-timestamp",
    ) == 0
    comments, _, rows = read_csv(out / "greeks.csv")
    assert comments["payoff"] == "capped-linear"
    assert all(r[3] != "" and float(r[4]) > 0.0 for r in rows)

    for lower, upper in (("110", "110"), ("120", "110")):
        ini.write_text(f"[greeks]\npayoff = capped-linear\nlower = {lower}\nupper = {upper}\n")
        assert run_cli("greeks", "--config", str(ini), "--paths", "20", "--out", str(out)) == 2


def test_greeks_digital_three_rows(tmp_path):
    ini = tmp_path / "gk.ini"
    ini.write_text("[greeks]\npayoff = digital\nfd_paths = 20000\n")
    out = tmp_path / "out"
    assert run_cli(
        "greeks",
        "--config", str(ini),
        "--paths", "2000",
        "--seed", "71",
        "--out", str(out),
        "--no-timestamp",
    ) == 0
    comments, header, rows = read_csv(out / "greeks.csv")
    assert header == [
        "estimator", "payoff", "n_paths", "mean", "std_error", "ESS", "excluded_paths",
    ]
    assert [r[0] for r in rows] == ["malliavin", "fd", "pathwise"]
    assert all(r[1] == "digital" for r in rows)
    assert float(rows[0][3]) > 0.0 and float(rows[1][3]) > 0.0
    assert rows[2][3] == ""  # no pathwise estimate for a discontinuous payoff
    assert float(comments["bump"]) == pytest.approx(1.0)  # 1% of x0 = 100


def test_greeks_smooth_all_three_populated(tmp_path):
    ini = tmp_path / "gk.ini"
    ini.write_text("[greeks]\npayoff = smooth\n")
    out = tmp_path / "out"
    assert run_cli(
        "greeks",
        "--config", str(ini),
        "--paths", "4000",
        "--seed", "73",
        "--out", str(out),
        "--no-timestamp",
    ) == 0
    comments, _, rows = read_csv(out / "greeks.csv")
    for r in rows:
        assert float(r[3]) != 0.0
        assert float(r[4]) > 0.0
    assert comments["malliavin_zero_jump_term"] != ""
    assert comments["malliavin_boundary_term"] != ""


def test_greeks_on_tanh_model_refuses_the_malliavin_weight(tmp_path, capsys):
    # the fd and pathwise deltas take any gamma, the Malliavin weight only
    # linear gamma: the command refuses before it writes a file
    ini = tmp_path / "gk.ini"
    ini.write_text("[model]\nnonlinearity = tanh\ncap = 2\n")
    out = tmp_path / "out"
    assert run_cli("greeks", "--config", str(ini), "--paths", "100", "--out", str(out)) == 3
    assert "Malliavin delta weight" in capsys.readouterr().err
    assert not (out / "greeks.csv").exists()


def test_greeks_sigma_zero_is_assumption_violation(tmp_path, capsys):
    # a valid asset model on which the Malliavin weight, which divides by
    # sigma, is undefined: an estimator assumption, as for nonlinear gamma
    ini = tmp_path / "gk.ini"
    ini.write_text("[greeks]\nsigma = 0.0\n")
    assert run_cli(
        "greeks", "--config", str(ini), "--paths", "100", "--out", str(tmp_path)
    ) == 3
    assert "assumption violation: Malliavin weight requires sigma != 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "setting, message",
    [
        ("bump = -1", r"bump = -1\.0: must be 0"),
        ("bump = 100", r"bump = 100\.0: must be 0 \(the default\) or in \(0, x0 = 100\.0\)"),
        ("bump = 150", r"bump = 150\.0: must be 0"),
        ("fd_paths = -5", r"fd_paths = -5: must be 0 \(the default\) or >= 2"),
        ("fd_paths = 1", r"fd_paths = 1: must be 0"),
    ],
)
def test_greeks_bump_and_fd_paths_refused_before_any_work(tmp_path, capsys, setting, message):
    # a negative bump or fd_paths is not the default, a bump of x0 or more
    # prices the down bump at or below 0, and one fd path has no std_error
    ini = tmp_path / "gk.ini"
    ini.write_text(f"[greeks]\n{setting}\n")
    out = tmp_path / "out"
    assert run_cli("greeks", "--config", str(ini), "--paths", "100", "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    assert re.search(message, err)
    assert not (out / "greeks.csv").exists()


# ---- determinism ----

def _artifact_bytes(out_dir):
    files = sorted(p.name for p in out_dir.iterdir() if p.suffix == ".csv")
    return {name: (out_dir / name).read_bytes() for name in files}


def test_every_command_byte_identical_across_workers(tmp_path):
    ini = tmp_path / "all.ini"
    ini.write_text(
        "[density]\nmax_n = 1\nmin_conditioned = 20\n"
        "[experiment]\ngrid_points = 4\nvolterra_steps = 128\n"
        "[greeks]\npayoff = digital\nfd_paths = 3000\n"
        "[sde]\npreset = linear-scalar\n"
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
    for command in commands:
        runs = {}
        for workers in ("1", "8"):
            out = tmp_path / f"{command}-w{workers}"
            code = run_cli(
                command,
                "--config", str(ini),
                "--paths", "3000",
                "--seed", "83",
                "--out", str(out),
                "--no-timestamp",
                "--workers", workers,
            )
            assert code == 0, f"{command} exited {code} with {workers} workers"
            runs[workers] = _artifact_bytes(out)
        assert runs["1"], f"{command} wrote no CSV artifacts"
        assert runs["1"] == runs["8"], f"{command} output depends on worker count"


def test_timestamp_header_is_suppressible(tmp_path):
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out, flags in ((out_a, ()), (out_b, ("--no-timestamp",))):
        assert run_cli(
            "simulate", "--paths", "50", "--seed", "91", "--out", str(out), *flags
        ) == 0
    with_ts = (out_a / "simulate_summary.csv").read_text().splitlines()
    without = (out_b / "simulate_summary.csv").read_text().splitlines()
    assert with_ts[1].startswith("# generated=")
    assert not any(line.startswith("# generated=") for line in without)
    assert [with_ts[0], *with_ts[2:]] == without


# ---- outputs that agree with themselves over the config schema ----

# edge values of the schema's model, run and experiment keys: rates near 0,
# alpha at and past the stability bound, stiff and slow kernels, horizons
# from 1e-3 to 30
_EDGE_SETTINGS = {
    ("model", "lambda0"): ("-1", "0", "1e-6", "0.5", "1", "5", "40"),
    ("model", "alpha"): ("-0.5", "0", "0.5", "0.95", "1", "3"),
    ("model", "beta"): ("1e-3", "0.1", "1", "100"),
    ("model", "nonlinearity"): ("linear", "tanh"),
    ("run", "horizon"): ("1e-3", "0.3", "5", "30"),
    ("sde", "preset"): ("linear-scalar", "cos-sin", "linear-d2"),
    ("experiment", "eps"): ("0.1, 0.01, 0.001", "0.3", "0.5", "1e-9"),
    ("greeks", "payoff"): ("smooth", "digital", "constant", "capped-linear"),
}
_COMMAND_NAMES = (
    "simulate", "greeks", "ibp-check", "unit-mass", "mean-intensity", "density-check",
    "sde-density",
)
_Z_REPORTS = ("ibp_report.csv", "unit_mass_report.csv", "mean_intensity_report.csv")


@st.composite
def _edge_settings(draw):
    keys = draw(st.lists(st.sampled_from(sorted(_EDGE_SETTINGS)), max_size=4, unique=True))
    return {key: draw(st.sampled_from(_EDGE_SETTINGS[key])) for key in keys}


@settings(max_examples=20, deadline=None, derandomize=True)
@given(
    command=st.sampled_from(_COMMAND_NAMES),
    edges=_edge_settings(),
    paths=st.sampled_from((2, 50)),
    seed=st.integers(0, 1000),
)
@example(command="mean-intensity", edges={("run", "horizon"): "0.001"}, paths=300, seed=201)
@example(
    command="sde-density",
    edges={("model", "lambda0"): "40", ("model", "nonlinearity"): "tanh",
           ("sde", "preset"): "linear-d2"},
    paths=50,
    seed=53,
)
# a greeks comparison that reads FAIL, a KS row under 0.01, and a passing
# density-check with n = 2 rows: the draws alone reach none of them
@example(command="greeks", edges={("greeks", "payoff"): "smooth"}, paths=50, seed=7)
@example(
    command="density-check",
    edges={("density", "max_n"): "1", ("run", "horizon"): "0.3"},
    paths=1000,
    seed=2,
)
@example(command="density-check", edges={("density", "min_conditioned"): "20"}, paths=1000, seed=2)
def test_outputs_agree_with_themselves_over_the_schema(
    tmp_path_factory, command, edges, paths, seed
):
    # a run on edge values of the schema ends in a verdict or a refusal
    # (exit 0 to 3) under warnings as errors, and what it writes agrees with
    # itself: a report's pass cell is |z| <= 3 with z of the sign of
    # estimate - reference, each file's counts match its rows, and a file
    # that carries a verdict exits 1 exactly when its rows fail
    out = tmp_path_factory.mktemp("schema")
    ini = out / "run.ini"
    sections = sorted({section for section, _ in edges})
    ini.write_text("".join(
        f"[{section}]\n" + "".join(f"{k} = {v}\n" for (s, k), v in edges.items() if s == section)
        for section in sections
    ))
    stdout = io.StringIO()
    with warnings.catch_warnings(), redirect_stdout(stdout):
        warnings.simplefilter("error")
        code = run_cli(command, "--config", str(ini), "--paths", str(paths), "--seed", str(seed),
                       "--out", str(out), "--no-timestamp")
    assert code in (0, 1, 2, 3)
    printed = stdout.getvalue().splitlines()

    for name in _Z_REPORTS:
        if (out / name).exists():
            _, header, rows = read_csv(out / name)
            assert header[-1] == "pass"
            for row in rows:
                estimate, reference, z = float(row[2]), float(row[3]), float(row[5])
                assert row[6] == ("true" if abs(z) <= 3.0 else "false"), row
                assert np.sign(z) == np.sign(estimate - reference), row
    if (out / "sde_density_paths.csv").exists():
        comments, _, rows = read_csv(out / "sde_density_paths.csv")
        assert len(rows) == paths
        conditioned = [int(r[1]) >= int(comments["min_jumps"]) for r in rows]
        failed = sum(c and r[-1] == "false" for c, r in zip(conditioned, rows))
        assert int(comments["n_conditioned"]) == sum(conditioned)
        assert int(comments["n_nonpositive"]) == failed
        assert comments["passed"] == ("true" if any(conditioned) and not failed else "false")
        assert not any(r[-1] == "true" for c, r in zip(conditioned, rows) if not c)
    if (out / "simulate_summary.csv").exists():
        _, header, (summary,) = read_csv(out / "simulate_summary.csv")
        summary = dict(zip(header, summary))
        _, _, rows = read_csv(out / "simulate_paths.csv")
        assert len(rows) == round(float(summary["mean_count"]) * int(summary["n_paths"]))
        assert max((int(r[1]) for r in rows), default=0) == int(summary["max_count"])
    if (out / "greeks.csv").exists():
        _, header, rows = read_csv(out / "greeks.csv")
        assert [r[0] for r in rows] == ["malliavin", "fd", "pathwise"]
        cells = [dict(zip(header, r)) for r in rows]
        no_derivative = edges.get(("greeks", "payoff"), "digital") == "digital"
        assert (cells[2]["mean"] == "") == no_derivative
        if no_derivative:
            assert cells[2]["n_paths"] == "0"
            assert all(cells[2][k] == "" for k in header[3:])
        for cell in cells[: 2 if no_derivative else 3]:
            assert float(cell["ESS"]) <= int(cell["n_paths"]) * (1.0 + 1e-9), cell
        assert int(cells[0]["n_paths"]) + int(cells[0]["excluded_paths"]) == paths
        comparisons = [line for line in printed if " vs " in line]
        assert len(comparisons) == (1 if no_derivative else 3)
        assert (code == 1) == any(line.startswith("FAIL") for line in comparisons)
    if (out / "density_report.csv").exists():
        _, _, rows = read_csv(out / "density_report.csv")
        (mass_row,) = [r for r in rows if r[1] == "k1_mass_minus_one"]
        ks_rows = [r for r in rows if r is not mass_row]
        for row in ks_rows:
            assert 0.0 <= float(row[2]) <= 1.0 and 0.0 <= float(row[3]) <= 1.0, row
        failed = abs(float(mass_row[2])) > 1e-6 or any(float(r[3]) < 0.01 for r in ks_rows)
        assert code == (1 if failed else 0)
