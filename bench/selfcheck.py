#!/usr/bin/env python3
"""Self-check of the benchmark at a tiny size; takes about a minute.

    python3 bench/selfcheck.py

Run from the repository root.  It checks that

* every workload, at trace 0 and trace 1, passes its oracles and emits
  exactly the metrics BENCHMARK.json names, each with its unit, as finite
  numbers (end-to-end ones positive);
* an operation that fails is counted: a workload that adds ``mean-intensity``
  on the tanh model (which the CLI refuses, exit 3) reports one failure per
  cycle against all operations attempted, and ``correct`` false;
* in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.

Exits 0 when all hold and prints each problem otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import run

_TINY_PATHS = {"linear-reference": 600, "tanh-perpath": 3, "sde-presets": 40}


def tiny(wl: run.Workload, paths: int) -> run.Workload:
    """`wl` at `paths` paths; density-check then needs a lower conditioning floor."""
    resized = (("run", "paths"), ("density", "min_conditioned"))
    settings = tuple(s for s in wl.settings if s[:2] not in resized)
    settings += (("run", "paths", str(paths)), ("density", "min_conditioned", "5"))
    return dataclasses.replace(wl, settings=settings)


def _quiet(*_args) -> None:
    pass


def main() -> int:
    problems = []
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    if sorted(w["name"] for w in spec["workloads"]) != sorted(run.WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    hw = run.load_hawkmal()
    kwargs = dict(seed=1, seconds=0, hw=hw, setup_samples=1, fanout_paths=2000, log=_quiet)

    for name, wl in run.WORKLOADS.items():
        for trace in (0, 1):
            record = run.run_workload(tiny(wl, _TINY_PATHS[name]), trace=bool(trace), **kwargs)
            units = run.per_layer_units() if trace else run.E2E_UNITS
            line = json.loads(json.dumps(run.result_line(record, units)))
            where = f"{name} trace={trace}"
            if not line["correct"] or line["failed"]:
                problems.append(f"{where}: failures {record['failures']}")
            got = {k: v["unit"] for k, v in line["metrics"].items()}
            if got != wanted[trace]:
                missing = sorted(set(wanted[trace]) - set(got))
                extra = sorted(set(got) - set(wanted[trace]))
                wrong = sorted(k for k in got if k in wanted[trace] and got[k] != wanted[trace][k])
                problems.append(f"{where}: missing {missing} extra {extra} unit mismatch {wrong}")
            for key, metric in line["metrics"].items():
                value = metric["value"]
                if not isinstance(value, (int, float)) or not math.isfinite(value):
                    problems.append(f"{where}: {key} = {value!r}")
                elif trace == 0 and value <= 0:
                    problems.append(f"{where}: end-to-end {key} = {value!r} is not positive")

    failing = dataclasses.replace(
        tiny(run.WORKLOADS["tanh-perpath"], 3),
        name="selfcheck-failing",
        ops=("simulate", "mean-intensity"),
    )
    record = run.run_workload(failing, trace=False, **kwargs)
    runs = record["cycles"]
    line = run.result_line(record, run.E2E_UNITS)
    if (line["attempted"], line["failed"], line["correct"]) != (2 * runs, runs, False):
        problems.append(
            f"failure accounting: attempted {line['attempted']} failed {line['failed']} "
            f"correct {line['correct']}, expected {2 * runs}, {runs}, False"
        )

    bare = os.path.join(run.OUT, "selfcheck-bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.BENCH, os.path.join(bare, "bench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy("BENCHMARK.json", bare)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "linear-reference", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    if done.returncode == 0 or '"metrics"' in done.stdout:
        problems.append("without the sources the benchmark still printed a result")
    shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print("FAIL", problem)
    print("selfcheck:", "ok" if not problems else f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
