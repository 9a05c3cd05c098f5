#!/usr/bin/env python3
"""Rebuild the correctness references in reference/<label>/.

Run from the repository root:

    python3 bench/make_reference.py

The references record what the program produced when the benchmark was
defined.  They are the yardstick for later changes, so rebuild them only
when a change is meant to alter the deterministic artifacts, and say so.
"""

from __future__ import annotations

import json
import shutil
import sys

import numpy as np

import run
from gate import ARRAY_ARTIFACTS, REFERENCE_DIR, read_csv_array, residual_maxima

# Reference label -> the stages whose artifacts it records.
COMMANDS = {
    "schwartz": ("build-surface", "verify", "solve-elliptic"),
    "stochvol": ("build-surface", "verify", "solve-elliptic"),
    "merton": ("solve-elliptic",),
}


def main() -> int:
    fp = run.load_forwardperf()
    for label, commands in COMMANDS.items():
        work = run.OUT / "reference" / label
        dest = REFERENCE_DIR / label
        dest.mkdir(parents=True, exist_ok=True)
        arrays = {}
        for command in commands:
            extra = run.SOLVE_ARGS.get(label, ()) if command == "solve-elliptic" else ()
            argv = (command, "--scenario", label, *extra)
            code, _, _ = run.run_stage(fp, run.Stage(command, argv, label), work / command)
            if code != 0:
                raise SystemExit(f"make_reference: {label} {command} exited with {code}")
            for name in ARRAY_ARTIFACTS:
                path = work / command / f"{name}.csv"
                if path.is_file():
                    arrays[name] = read_csv_array(path)
            if command == "build-surface":
                shutil.copyfile(work / command / "atoms.csv", dest / "atoms.csv")
            if command == "verify":
                payloads = json.loads((work / command / "residuals.json").read_text(encoding="utf-8"))
                (dest / "residual_maxima.json").write_text(
                    json.dumps(residual_maxima(payloads), indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
        np.savez_compressed(dest / "arrays.npz", **arrays)
        print(f"make_reference: {label}: {', '.join(sorted(arrays))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
