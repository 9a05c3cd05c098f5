"""Correctness gate: every CLI stage's outputs against committed references.

An operation is one subcommand invocation or one check inside it:

* the subcommand's exit code (0 passes);
* each entry of ``residuals.json`` (its ``passed`` flag);
* each residual maximum in ``residuals.json`` against the reference;
  a residual may shrink, so only growth beyond RTOL is a miss;
* each deterministic artifact (``surface.csv``, ``portfolio.csv``,
  ``atoms.csv``, ``psi.csv``) against the reference, value by value:
  a value misses when |value - ref| > RTOL * max(|value|, |ref|);
* the ``solve-elliptic`` residual line (``ok`` and at most 1e-6);
* each Monte Carlo report row: its numbers are finite and its verdict
  is not ``violation``.  Draws depend on the stream layout, so only the
  verdicts and finiteness are gated, never the estimates.

References live in ``reference/<label>/`` and are rebuilt with
``make_reference.py``; they come from the seed commit of the benchmark.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

RTOL = 1e-10
SOLVE_RESIDUAL_TOL = 1e-6
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
ARRAY_ARTIFACTS = ("surface", "portfolio", "psi")
_SOLVE_LINE = re.compile(r"solve-elliptic: lam=\S+ residual=(\S+) (ok|FAIL)")


@dataclass
class Tally:
    """Attempted and failed operations, with a note per failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.notes.append(what)

    def add(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes)


def read_csv_array(path: Path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def residual_maxima(payloads: list[dict]) -> dict[str, float]:
    """The residual figures of a residuals.json payload, keyed by check."""
    out = {}
    for p in payloads:
        if "max_abs_residual" in p:
            out[p["equation"]] = p["max_abs_residual"]
        elif "max_rel_error" in p:
            out[p["check"]] = p["max_rel_error"]
    return out


def arrays_match(value: np.ndarray, ref: np.ndarray) -> bool:
    if value.shape != ref.shape or not np.all(np.isfinite(value)):
        return False
    scale = np.maximum(np.abs(value), np.abs(ref))
    return bool(np.all(np.abs(value - ref) <= RTOL * scale))


def _csv_cells(path: Path) -> tuple[np.ndarray, list[str]]:
    """Numbers and non-numeric cells of a CSV file, each in file order."""
    nums, text = [], []
    with open(path, newline="") as fh:
        for row in csv.reader(fh):
            for cell in row:
                try:
                    vals = [float(v) for v in cell.split()]
                except ValueError:
                    vals = []
                if vals:
                    nums += vals
                else:
                    text.append(cell)
    return np.array(nums), text


def _atoms_match(path: Path, ref_path: Path) -> bool:
    nums, text = _csv_cells(path)
    ref_nums, ref_text = _csv_cells(ref_path)
    return text == ref_text and arrays_match(nums, ref_nums)


class Gate:
    """Checks one stage's outputs against the reference of its scenario."""

    def __init__(self):
        self.dir = REFERENCE_DIR
        self._arrays: dict[str, dict[str, np.ndarray]] = {}
        self._maxima: dict[str, dict[str, float]] = {}

    def _ref_array(self, label: str, name: str) -> np.ndarray:
        if label not in self._arrays:
            with np.load(self.dir / label / "arrays.npz") as data:
                self._arrays[label] = {k: data[k] for k in data.files}
        return self._arrays[label][name]

    def _ref_maxima(self, label: str) -> dict[str, float]:
        if label not in self._maxima:
            text = (self.dir / label / "residual_maxima.json").read_text(encoding="utf-8")
            self._maxima[label] = json.loads(text)
        return self._maxima[label]

    def _artifact(self, tally: Tally, out: Path, label: str, name: str) -> None:
        path = out / f"{name}.csv"
        if name == "atoms":
            ok = path.is_file() and _atoms_match(path, self.dir / label / "atoms.csv")
        else:
            ok = path.is_file() and arrays_match(read_csv_array(path),
                                                 self._ref_array(label, name))
        tally.check(ok, f"{label}: {name}.csv differs from the reference")

    def stage(self, command: str, code, out: Path, stdout: str, label: str) -> Tally:
        """Tally the operations of one subcommand run into ``out``."""
        tally = Tally()
        tally.check(code == 0, f"{label} {command}: exited with {code}")
        if code not in (0, 1):
            return tally
        produced = {"verify": "residuals.json", "simulate": "mc_reports.csv"}.get(command)
        if produced and not (out / produced).is_file():
            tally.check(False, f"{label} {command}: wrote no {produced}")
            return tally
        if command == "build-surface":
            for name in ("surface", "portfolio", "atoms"):
                self._artifact(tally, out, label, name)
        elif command == "verify":
            payloads = json.loads((out / "residuals.json").read_text(encoding="utf-8"))
            for p in payloads:
                tag = p.get("equation") or p.get("check") or p.get("form")
                tally.check(bool(p["passed"]), f"{label} verify: {tag} failed")
            got = residual_maxima(payloads)
            for key, ref in self._ref_maxima(label).items():
                val = got.get(key)
                ok = val is not None and math.isfinite(val) and val <= ref * (1.0 + RTOL)
                tally.check(ok, f"{label} verify: residual {key} = {val} exceeds reference {ref}")
        elif command == "solve-elliptic":
            m = _SOLVE_LINE.search(stdout)
            ok = m is not None and m.group(2) == "ok" and float(m.group(1)) <= SOLVE_RESIDUAL_TOL
            tally.check(ok, f"{label} solve-elliptic: residual check failed")
            self._artifact(tally, out, label, "psi")
        elif command == "simulate":
            with open(out / "mc_reports.csv", newline="") as fh:
                for row in csv.DictReader(fh):
                    nums = [float(row[k]) for k in ("estimate", "stderr", "reference", "z_score")]
                    ok = all(map(math.isfinite, nums)) and row["verdict"] != "violation"
                    tally.check(ok, f"{label} simulate: {row['kind']} t={row['t']} "
                                    f"z={row['z_score']} {row['verdict']}")
        return tally
