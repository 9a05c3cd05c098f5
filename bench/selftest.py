#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes (about two minutes).

Run from the repository root:

    python3 bench/selftest.py

It checks that

* BENCHMARK.json names exactly the metrics, with the units, that run.py
  and spans.py emit;
* every workload emits every end-to-end metric with ``--trace 0`` and
  fails no operation outside the Monte Carlo stage, whose verdicts at
  256 paths are statistics;
* every workload emits every per-layer metric with ``--trace 1``, and
  the traced counts repeat exactly in a second run with the same seed;
* the negative control ``schwartz-c2fault`` (a C2 fault injected through
  the CLI's ``[debug] c2_offset`` hook) fails operations, so the gate can
  fail;
* without the forwardperf sources the benchmark exits nonzero and
  prints no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run
from spans import PER_LAYER

SEED = 11
COUNT_SUFFIXES = (".calls", ".points", ".rows", ".path_steps", ".grid_points", ".bytes")

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"selftest: {'ok  ' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def bench(workload: str, trace: int, cwd: Path = run.ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout


def result(workload: str, trace: int) -> dict:
    code, stdout = bench(workload, trace)
    check(code == 0, f"{workload} --trace {trace} exits 0")
    return json.loads(stdout.strip().splitlines()[-1]) if code == 0 else {"metrics": {}}


def emits(res: dict, expected: list[tuple[str, str]], what: str) -> None:
    got = {k: m.get("unit") for k, m in res["metrics"].items()}
    check(got == dict(expected), f"{what}: every metric present with its unit")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = [(m["name"], m["unit"]) for m in spec["end_to_end"]]
    check(declared == run.END_TO_END, "BENCHMARK.json end_to_end matches run.py")
    declared = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    check(declared == PER_LAYER, "BENCHMARK.json per_layer matches spans.py")

    for wl in spec["workloads"]:
        name = wl["name"]
        res = result(name, 0)
        emits(res, run.END_TO_END, f"{name} --trace 0")
        record = run.OUT / name / f"result-seed{SEED}-trace0.json"
        notes = json.loads(record.read_text(encoding="utf-8"))["failures"]
        # Monte Carlo verdicts are statistics of 256 paths; see README.md.
        other = [n for n in notes if " simulate:" not in n]
        check(res.get("attempted", 0) > 0 and not other,
              f"{name}: no failed operation outside simulate "
              f"({len(other)} others, {len(notes) - len(other)} in simulate)")
        first, second = result(name, 1), result(name, 1)
        emits(first, PER_LAYER, f"{name} --trace 1")
        counts = [k for k in first["metrics"] if k.endswith(COUNT_SUFFIXES)]
        same = all(first["metrics"][k]["value"] == second["metrics"].get(k, {}).get("value")
                   for k in counts)
        check(bool(counts) and same, f"{name}: {len(counts)} traced counts repeat exactly")

    res = result("schwartz-c2fault", 0)
    frac = res["metrics"].get("passed_frac", {}).get("value", 1.0)
    check(res.get("failed", 0) > 0 and frac < 1.0,
          f"negative control fails operations (failed_frac {1.0 - frac:.3f})")

    bare = run.OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    code, stdout = bench("stochvol-wide", 0, cwd=bare)
    check(code != 0 and '"correct"' not in stdout, "without sources: nonzero exit, no result")
    shutil.rmtree(bare)

    print(f"selftest: {'FAILED' if failures else 'passed'}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
