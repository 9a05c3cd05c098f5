#!/usr/bin/env python3
"""forwardperf benchmark: CLI pipelines on three workloads, timed and gated.

Run from the repository root:

    python3 bench/run.py --workload schwartz-dual --seed 1 --seconds 40 --trace 0

Each workload is a closed loop: one process calls ``forwardperf.cli.main``
for build-surface, verify, simulate and solve-elliptic, one after the
other, and repeats them in rounds until ``--seconds`` is used up.  The
workload seed goes to ``simulate --seed``.  Every output is checked
against the committed references (see gate.py).

``--trace 0`` prints the end-to-end metrics (medians over the samples).
``--trace 1`` runs the pipeline once untraced and once with the tracer
of spans.py installed, and prints the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed,
metrics.  See README.md for the workloads and the metric map.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SCENARIOS = BENCH / "scenarios"

sys.path.insert(0, str(BENCH))
from gate import Gate, Tally  # noqa: E402
from spans import PER_LAYER, Tracer, layer_metrics  # noqa: E402

END_TO_END = [
    ("setup_s", "s"),
    ("build_s", "s"),
    ("verify_s", "s"),
    ("simulate_s", "s"),
    ("solve_s", "s"),
    ("pipeline_s", "s"),
    ("peak_rss_mib", "MiB"),
    ("passed_frac", "ratio"),
]
STAGE_METRIC = {
    "build-surface": "build_s",
    "verify": "verify_s",
    "simulate": "simulate_s",
    "solve-elliptic": "solve_s",
}
SETUP_RUNS = 3
STAGE_SECONDS = 1.0
TINY_PATHS = 256
TINY_STEPS_PER_UNIT = 64
# The bundled stochvol profile loses positivity when shot over the full
# scenario span; [-1, 1] is its certified window.
SOLVE_ARGS = {"stochvol": ("--span", "1.0")}


@dataclass(frozen=True)
class Workload:
    """One CLI pipeline: the workload's own scenario plus solve targets."""

    scenario: str              # bundled name or benchmark-owned file
    label: str                 # reference directory of that scenario
    paths: int | None          # simulate --paths; None keeps the scenario's
    parallel: bool             # simulate --workers nproc
    solves: tuple[str, ...]    # bundled scenarios for solve-elliptic


WORKLOADS = {
    "schwartz-dual": Workload("schwartz", "schwartz", 2048, False, ("schwartz",)),
    "stochvol-wide": Workload("stochvol", "stochvol", None, True, ("stochvol",)),
    "stochvol-long": Workload(str(SCENARIOS / "stochvol_long.scenario"), "stochvol", None,
                              False, ("schwartz", "stochvol", "merton")),
    # Negative control for the self-test: C2 shifted after certification.
    "schwartz-c2fault": Workload(str(SCENARIOS / "schwartz_c2fault.scenario"), "schwartz",
                                 2048, False, ("schwartz",)),
}


@dataclass(frozen=True)
class Stage:
    command: str
    argv: tuple[str, ...]
    label: str


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def tiny_scenario(path: str) -> str:
    """A copy of a scenario file with fewer steps, for the self-test."""
    text = Path(path).read_text(encoding="utf-8")
    text = re.sub(r"(?m)^steps_per_unit\s*=.*$", f"steps_per_unit = {TINY_STEPS_PER_UNIT}", text)
    OUT.mkdir(exist_ok=True)
    dest = OUT / f"tiny-{Path(path).name}"
    dest.write_text(text, encoding="utf-8")
    return str(dest)


def stages(wl: Workload, seed: int, tiny: bool) -> list[Stage]:
    scenario = tiny_scenario(wl.scenario) if tiny and wl.scenario.endswith(".scenario") \
        else wl.scenario
    sim = ["simulate", "--scenario", scenario, "--seed", str(seed)]
    paths = TINY_PATHS if tiny else wl.paths
    if paths is not None:
        sim += ["--paths", str(paths)]
    if wl.parallel:
        sim += ["--workers", str(nproc())]
    out = [Stage(cmd, (cmd, "--scenario", scenario), wl.label)
           for cmd in ("build-surface", "verify")]
    out.append(Stage("simulate", tuple(sim), wl.label))
    out += [Stage("solve-elliptic", ("solve-elliptic", "--scenario", name, *SOLVE_ARGS.get(name, ())),
                  name) for name in wl.solves]
    return out


def load_forwardperf():
    """Import forwardperf from this checkout's sources, never from elsewhere."""
    if not (SRC / "forwardperf" / "__init__.py").is_file():
        raise SystemExit(f"bench: no forwardperf sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import forwardperf
    import forwardperf.cli

    if Path(forwardperf.__file__).resolve().parent != SRC / "forwardperf":
        raise SystemExit(f"bench: imported forwardperf from {forwardperf.__file__}, not {SRC}")
    return forwardperf


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


_SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
import forwardperf.cli
forwardperf.cli.load_scenario(sys.argv[1])
print(time.perf_counter() - t0)
"""


def setup_seconds(scenario: str) -> float:
    """import forwardperf plus load_scenario, timed inside a fresh interpreter."""
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE, scenario], env=_child_env(),
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def import_times() -> dict:
    """Cumulative import times from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import forwardperf"],
                          env=_child_env(), capture_output=True, text=True, timeout=120, check=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and line.startswith("import time:"):
            name = parts[2].strip()
            with contextlib.suppress(ValueError):
                cumulative.setdefault(name, int(parts[1]) * 1e-6)
    # A module that is never imported costs nothing.
    return {"import.forwardperf.s": cumulative.get("forwardperf", 0.0),
            "import.scipy_interpolate.s": cumulative.get("scipy.interpolate", 0.0)}


def run_stage(fp, stage: Stage, out: Path) -> tuple[int | None, float, str]:
    """One CLI call: exit code (None if it raised), wall seconds, stdout."""
    if out.exists():
        shutil.rmtree(out)
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = fp.cli.main([*stage.argv, "--out", str(out)])
    except Exception:
        traceback.print_exc()
        code = None
    return code, time.perf_counter() - start, buf.getvalue()


def run_round(fp, gate: Gate, name: str, plan: list[Stage], repeats: list[int],
              samples: list[list[float]]) -> Tally:
    """One round: stage i runs repeats[i] times, spread evenly over the round.

    Spreading the calls of a quick stage makes its samples cover the
    whole round, not one burst, so its median follows the machine's
    speed over the run the way a slow stage's median does.
    """
    tally = Tally()
    for _, i in sorted(((k + 0.5) / r, i) for i, r in enumerate(repeats) for k in range(r)):
        stage = plan[i]
        out = OUT / name / f"{i}-{stage.command}-{stage.label}"
        code, dt, stdout = run_stage(fp, stage, out)
        samples[i].append(dt)
        tally.add(gate.stage(stage.command, code, out, stdout, stage.label))
    return tally


def stage_metrics(plan: list[Stage], samples: list[list[float]]) -> dict:
    """Median seconds per stage kind, and their sum as pipeline_s."""
    out = dict.fromkeys(STAGE_METRIC.values(), 0.0)
    for stage, s in zip(plan, samples):
        out[STAGE_METRIC[stage.command]] += statistics.median(s)
    out["pipeline_s"] = sum(out.values())
    return out


def measure(fp, gate, name, plan, seconds, tiny) -> tuple[dict, Tally]:
    """Untraced closed loop: set-ups, then rounds of stages, within ``seconds``."""
    start = time.perf_counter()
    setups = [setup_seconds(plan[0].argv[2]) for _ in range(1 if tiny else SETUP_RUNS)]
    samples: list[list[float]] = [[] for _ in plan]
    repeats = [1] * len(plan)
    tally = Tally()
    while True:
        tally.add(run_round(fp, gate, name, plan, repeats, samples))
        medians = [statistics.median(s) for s in samples]
        # A quick stage runs several times per round, so that every
        # stage's median rests on about STAGE_SECONDS of samples per round.
        repeats = [max(1, int(STAGE_SECONDS / m)) for m in medians]
        left = seconds - (time.perf_counter() - start)
        if sum(r * m for r, m in zip(repeats, medians)) > left:
            # The last round keeps what fits in the time left, quickest first.
            last = [0] * len(plan)
            for i in sorted(range(len(plan)), key=medians.__getitem__):
                last[i] = max(0, min(repeats[i], int(left / medians[i])))
                left -= last[i] * medians[i]
            tally.add(run_round(fp, gate, name, plan, last, samples))
            break
    metrics = {"setup_s": statistics.median(setups), **stage_metrics(plan, samples)}
    metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics["passed_frac"] = 1.0 - tally.failed / tally.attempted
    counts = ", ".join(f"{st.command} {st.label} x{len(s)}" for st, s in zip(plan, samples))
    print(f"bench: {len(setups)} set-ups; samples: {counts}")
    return metrics, tally


def scaling_probe(fp, stage: Stage, seed: int, paths: int | None, workers: int) -> None:
    """One simulate_paths call of the workload's simulate problem."""
    sc = fp.cli.load_scenario(stage.argv[2], seed=seed, paths=paths, workers=workers)
    fp.simulate_paths(sc.model, fp.optimal_rule(sc.surface, sc.model), sc.y0, sc.x0, sc.sim)


def measure_traced(fp, gate, name, wl, plan, seed, tiny) -> tuple[dict, Tally]:
    """Per-layer run: one untraced and one traced pipeline, plus the probes."""
    imports = import_times()
    cpus = nproc()
    paths = TINY_PATHS if tiny else wl.paths
    sim_stage = next(s for s in plan if s.command == "simulate")
    # Warm the process so that neither timed pipeline pays first-call costs.
    scaling_probe(fp, sim_stage, seed, paths, 1)
    once = [1] * len(plan)
    untraced: list[list[float]] = [[] for _ in plan]
    tally = run_round(fp, gate, name, plan, once, untraced)
    tracer = Tracer()
    tracer.install()
    try:
        for run, workers in (("scale-n", cpus), ("scale-1", 1)):
            tracer.run = run
            scaling_probe(fp, sim_stage, seed, paths, workers)
        tracer.run = "pipeline"
        traced: list[list[float]] = [[] for _ in plan]
        tally.add(run_round(fp, gate, name, plan, once, traced))
    finally:
        tracer.uninstall()
    tracer.write(str(OUT / name / f"spans-seed{seed}.jsonl"))
    overhead = sum(map(sum, traced)) / sum(map(sum, untraced)) - 1.0
    metrics = layer_metrics(tracer, "pipeline", ("scale-n", "scale-1"), cpus, imports, overhead)
    return metrics, tally


def machine_facts() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    commit = "unavailable"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "loadavg_start": list(os.getloadavg()),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="self-test sizes: few paths and steps, one set-up sample")
    args = parser.parse_args(argv)

    facts = machine_facts()
    fp = load_forwardperf()
    wl = WORKLOADS[args.workload]
    plan = stages(wl, args.seed, args.tiny)
    gate = Gate()
    if args.trace:
        values, tally = measure_traced(fp, gate, args.workload, wl, plan, args.seed, args.tiny)
        units = dict(PER_LAYER)
    else:
        values, tally = measure(fp, gate, args.workload, plan, args.seconds, args.tiny)
        units = dict(END_TO_END)
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items() if k in values}

    for note in tally.notes:
        print(f"bench: FAILED {note}")
    for key, m in metrics.items():
        print(f"{key} = {m['value']:.6g} {m['unit']}")
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": facts, "failures": tally.notes, **result}
    dest = OUT / args.workload / f"result-seed{args.seed}-trace{args.trace}.json"
    dest.parent.mkdir(parents=True, exist_ok=True)
    dest.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    print("machine: " + json.dumps(facts, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
