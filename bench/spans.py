"""In-memory span tracer for the forwardperf benchmark's traced run.

The tracer wraps public entry points of the ``forwardperf`` modules from
outside the package: module-level functions are replaced in every
``forwardperf.*`` namespace that holds them (``cli`` imports most of them
by name), methods are replaced on their class.  Every wrapped call
records one span with its name, layer group, start, end, parent span and
run id.  Spans stay in memory until the run ends and are then written as
JSON lines.

A target that no longer exists is reported as absent with a warning, and
the metrics of a group whose targets are all absent are left out; the
benchmark keeps running.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import os
import statistics
import sys
import threading
import time
from collections import defaultdict

# Per-layer metrics, in the order BENCHMARK.json lists them.
PER_LAYER = [
    ("import.forwardperf.s", "s"),
    ("import.scipy_interpolate.s", "s"),
    ("cli.load_scenario.s", "s"),
    ("closed_form.value_surface.s", "s"),
    ("elliptic.solve_positive_solution.calls", "count"),
    ("elliptic.solve_positive_solution.s", "s"),
    ("elliptic.solve_positive_solution.grid_points", "count"),
    ("elliptic.solve_positive_solution.points_per_s", "1/s"),
    ("elliptic.ode_residual.s", "s"),
    ("widder.harmonic.calls", "count"),
    ("widder.harmonic.points", "count"),
    ("widder.harmonic.s", "s"),
    ("duality.inversion.calls", "count"),
    ("duality.inversion.points", "count"),
    ("duality.inversion.s", "s"),
    ("duality.inversion.call_p50_us", "us"),
    ("duality.inversion.call_p99_us", "us"),
    ("duality.export_surface_csv.s", "s"),
    ("duality.export_surface_csv.self_s", "s"),
    ("duality.export_surface_csv.rows", "count"),
    ("duality.export_surface_csv.bytes", "B"),
    ("control.export_portfolio_csv.s", "s"),
    ("control.export_portfolio_csv.self_s", "s"),
    ("control.export_portfolio_csv.rows", "count"),
    ("control.export_portfolio_csv.bytes", "B"),
    ("control.optimal_portfolio.calls", "count"),
    ("control.optimal_portfolio.points", "count"),
    ("control.optimal_portfolio.s", "s"),
    ("control.hamiltonian_argmax_check.s", "s"),
    ("factor_model.fields.calls", "count"),
    ("factor_model.fields.s", "s"),
    ("pde_verify.hjb_residual.calls", "count"),
    ("pde_verify.hjb_residual.s", "s"),
    ("pde_verify.hjb_residual.grid_points", "count"),
    ("pde_verify.appendix_bounds_check.s", "s"),
    ("monte_carlo.simulate_paths.calls", "count"),
    ("monte_carlo.simulate_paths.s", "s"),
    ("monte_carlo.simulate_paths.self_s", "s"),
    ("monte_carlo.simulate_paths.path_steps", "count"),
    ("monte_carlo.simulate_paths.path_steps_per_s", "1/s"),
    ("monte_carlo.draw_bytes", "B"),
    ("monte_carlo.scaling_eff", "ratio"),
    ("monte_carlo.tests.s", "s"),
    ("trace.overhead_frac", "ratio"),
]


def _points(bound, result):
    first = result[0] if isinstance(result, tuple) else result
    return {"points": int(getattr(first, "size", 1))}


def _portfolio_points(bound, result):
    shape = getattr(result, "shape", ())
    return {"points": int(math.prod(shape[:-1]))}


def _grid_points(bound, result):
    return {"grid_points": int(result.grid.size)}


def _residual_points(bound, result):
    return {"grid_points": int(result.values.size)}


def _file_rows_bytes(bound, result):
    path = bound.arguments["path"]
    with open(path, "rb") as fh:
        rows = sum(1 for _ in fh) - 1
    return {"rows": rows, "bytes": os.path.getsize(path)}


def _path_steps(bound, result):
    cfg = bound.arguments["config"]
    model = bound.arguments["model"]
    steps = int(round(cfg.horizon * cfg.steps_per_unit))
    out = {"path_steps": cfg.paths * steps}
    chunk = getattr(sys.modules.get("forwardperf.monte_carlo"), "CHUNK", None)
    if chunk is not None:
        per_chunk = min(chunk, cfg.paths)
        concurrent = min(cfg.workers, math.ceil(cfg.paths / chunk))
        out["draw_bytes"] = per_chunk * steps * model.d * 8 * concurrent
    return out


_DUAL_METHODS = ("value", "d_x", "d_xx", "d_xy", "foc_ratios", "d_y", "d_t", "d_yy")
_HARMONIC_METHODS = ("value", "d_t", "d_y", "d_yy", "d_z", "d_zz", "d_yz")

# (module, attribute path, layer group, measure).  All are names that
# forwardperf/__init__.py exports, plus the cli stages and three public
# helpers that the listed metrics need: the two CSV exports, which cli
# imports by name, and CoefficientField.__call__, which is how
# FactorModel.mu and FactorModel.sigma are evaluated.
TARGETS = [
    ("cli", "load_scenario", "cli.load_scenario", None),
    ("cli", "cmd_*", "cli.stage", None),
    *[("closed_form", f"{m}_value_surface", "closed_form.value_surface", None)
      for m in ("merton", "schwartz", "stochvol")],
    ("elliptic", "solve_positive_solution", "elliptic.solve_positive_solution", _grid_points),
    ("elliptic", "ode_residual", "elliptic.ode_residual", None),
    *[("widder", f"HarmonicFunction.{m}", "widder.harmonic", _points) for m in _HARMONIC_METHODS],
    *[("duality", f"DualInversionSurface.{m}", "duality.inversion", _points) for m in _DUAL_METHODS],
    ("duality", "invert_dual_marginal", "duality.inversion", _points),
    ("duality", "export_surface_csv", "duality.export_surface_csv", _file_rows_bytes),
    ("control", "export_portfolio_csv", "control.export_portfolio_csv", _file_rows_bytes),
    ("control", "optimal_portfolio", "control.optimal_portfolio", _portfolio_points),
    ("control", "hamiltonian_argmax_check", "control.hamiltonian_argmax_check", None),
    ("factor_model", "CoefficientField.__call__", "factor_model.fields", None),
    ("factor_model", "market_price_of_risk", "factor_model.fields", None),
    ("pde_verify", "hjb_residual", "pde_verify.hjb_residual", _residual_points),
    ("pde_verify", "appendix_bounds_check", "pde_verify.appendix_bounds_check", None),
    ("monte_carlo", "simulate_paths", "monte_carlo.simulate_paths", _path_steps),
    ("monte_carlo", "martingale_test", "monte_carlo.tests", None),
    ("monte_carlo", "supermartingale_test", "monte_carlo.tests", None),
]


class Tracer:
    """Records spans for wrapped calls while installed."""

    def __init__(self):
        self.spans: list[dict] = []
        self.run = None
        self.present: set[str] = set()
        self._ids = itertools.count(1)
        self._main = threading.get_ident()
        self._main_stack: list[int] = []
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrap(self, fn, name: str, group: str, measure):
        tracer = self
        sig = inspect.signature(fn) if measure else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            # Work that simulate_paths hands to its thread pool starts on
            # an empty stack; it belongs to the span the main thread is in.
            parent = stack[-1] if stack else (
                tracer._main_stack[-1] if tracer._main_stack else None)
            sid = next(tracer._ids)
            stack.append(sid)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                span = {"id": sid, "name": name, "group": group, "run": tracer.run,
                        "parent": parent, "start": start, "end": end, "ok": ok}
                if ok and measure is not None:
                    try:
                        span.update(measure(sig.bind(*args, **kwargs), result))
                    except (AttributeError, KeyError, OSError, TypeError) as exc:
                        tracer._warn(f"{name}: counts not recorded ({type(exc).__name__}: {exc})")
                tracer.spans.append(span)

        return traced

    def install(self) -> None:
        """Wrap every target that exists; warn about the ones that do not."""
        for module_name, attr, group, measure in TARGETS:
            label = f"forwardperf.{module_name}.{attr}"
            try:
                module = importlib.import_module(f"forwardperf.{module_name}")
            except ImportError:
                self._missing(label)
                continue
            if attr == "cmd_*":
                names = [n for n in vars(module) if n.startswith("cmd_")]
                for n in names:
                    self._patch_function(module, n, f"{module_name}.{n}", group, measure)
                if not names:
                    self._missing(label)
                continue
            owner_name, _, method = attr.rpartition(".")
            if owner_name:
                owner = getattr(module, owner_name, None)
                original = vars(owner).get(method) if isinstance(owner, type) else None
                if original is None:
                    self._missing(label)
                    continue
                setattr(owner, method, self._wrap(original, f"{module_name}.{attr}", group, measure))
                self._undo.append((owner, method, original))
                self.present.add(group)
            elif callable(getattr(module, attr, None)):
                self._patch_function(module, attr, f"{module_name}.{attr}", group, measure)
            else:
                self._missing(label)

    def _patch_function(self, module, attr, name, group, measure) -> None:
        original = getattr(module, attr)
        wrapped = self._wrap(original, name, group, measure)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "forwardperf" and not mod_name.startswith("forwardperf."):
                continue
            for key, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, key, wrapped)
                    self._undo.append((mod, key, original))
        self.present.add(group)

    def _missing(self, label: str) -> None:
        self._warn(f"{label} not found; its metrics are absent")

    @staticmethod
    def _warn(text: str) -> None:
        print(f"trace: warning: {text}", file=sys.stderr)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span, sort_keys=True))
                fh.write("\n")


def _union_length(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanIndex:
    """Top-level spans per group and self times, for one run id."""

    def __init__(self, spans, run):
        self.by_id = {s["id"]: s for s in spans if s["run"] == run}
        self.children = defaultdict(list)
        for s in self.by_id.values():
            if s["parent"] in self.by_id:
                self.children[s["parent"]].append(s)
        self.top = defaultdict(list)
        for s in self.by_id.values():
            if not self._inside_own_group(s):
                self.top[s["group"]].append(s)

    def _inside_own_group(self, span) -> bool:
        # A call made by another call of the same layer (d_x calling
        # invert_dual_marginal) is one unit of that layer's work.
        parent = self.by_id.get(span["parent"])
        while parent is not None:
            if parent["group"] == span["group"]:
                return True
            parent = self.by_id.get(parent["parent"])
        return False

    def calls(self, group) -> int:
        return len(self.top[group])

    def busy(self, group) -> float:
        return sum(s["end"] - s["start"] for s in self.top[group])

    def total(self, group, key) -> int:
        return sum(s.get(key, 0) for s in self.top[group])

    def self_time(self, group) -> float:
        out = 0.0
        for s in self.top[group]:
            covered = _union_length(
                (max(c["start"], s["start"]), min(c["end"], s["end"]))
                for c in self.children[s["id"]]
            )
            out += (s["end"] - s["start"]) - covered
        return out

    def durations_us(self, group) -> list[float]:
        return [1e6 * (s["end"] - s["start"]) for s in self.top[group]]


def _rate(count, seconds) -> float:
    return count / seconds if seconds > 0 else 0.0


def _pct(values, q) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer, run: str, scale_runs: tuple[str, str], nproc: int,
                  imports: dict, overhead_frac: float) -> dict:
    """Every per-layer metric whose layer was present, as name -> value."""
    ix = SpanIndex(tracer.spans, run)
    g = {}
    g["cli.load_scenario"] = {"s": ix.busy("cli.load_scenario")}
    g["closed_form.value_surface"] = {"s": ix.busy("closed_form.value_surface")}
    sp = "elliptic.solve_positive_solution"
    g[sp] = {"calls": ix.calls(sp), "s": ix.busy(sp), "grid_points": ix.total(sp, "grid_points"),
             "points_per_s": _rate(ix.total(sp, "grid_points"), ix.busy(sp))}
    g["elliptic.ode_residual"] = {"s": ix.busy("elliptic.ode_residual")}
    g["widder.harmonic"] = {"calls": ix.calls("widder.harmonic"),
                            "points": ix.total("widder.harmonic", "points"),
                            "s": ix.busy("widder.harmonic")}
    inv = "duality.inversion"
    durs = ix.durations_us(inv)
    g[inv] = {"calls": ix.calls(inv), "points": ix.total(inv, "points"), "s": ix.busy(inv),
              "call_p50_us": statistics.median(durs) if durs else 0.0,
              "call_p99_us": _pct(durs, 99)}
    for grp in ("duality.export_surface_csv", "control.export_portfolio_csv"):
        g[grp] = {"s": ix.busy(grp), "self_s": ix.self_time(grp),
                  "rows": ix.total(grp, "rows"), "bytes": ix.total(grp, "bytes")}
    op = "control.optimal_portfolio"
    g[op] = {"calls": ix.calls(op), "points": ix.total(op, "points"), "s": ix.busy(op)}
    g["control.hamiltonian_argmax_check"] = {"s": ix.busy("control.hamiltonian_argmax_check")}
    g["factor_model.fields"] = {"calls": ix.calls("factor_model.fields"),
                                "s": ix.busy("factor_model.fields")}
    hj = "pde_verify.hjb_residual"
    g[hj] = {"calls": ix.calls(hj), "s": ix.busy(hj), "grid_points": ix.total(hj, "grid_points")}
    g["pde_verify.appendix_bounds_check"] = {"s": ix.busy("pde_verify.appendix_bounds_check")}
    mc = "monte_carlo.simulate_paths"
    steps = ix.total(mc, "path_steps")
    g[mc] = {"calls": ix.calls(mc), "s": ix.busy(mc), "self_s": ix.self_time(mc),
             "path_steps": steps, "path_steps_per_s": _rate(steps, ix.busy(mc))}
    g["monte_carlo.tests"] = {"s": ix.busy("monte_carlo.tests")}

    out = {}
    for grp, vals in g.items():
        if grp in tracer.present:
            out.update({f"{grp}.{k}": v for k, v in vals.items()})
    if mc in tracer.present:
        draws = [s["draw_bytes"] for s in ix.top[mc] if "draw_bytes" in s]
        if draws:
            out["monte_carlo.draw_bytes"] = max(draws)
        wide, one = (SpanIndex(tracer.spans, r) for r in scale_runs)
        rate_wide = _rate(wide.total(mc, "path_steps"), wide.busy(mc))
        rate_one = _rate(one.total(mc, "path_steps"), one.busy(mc))
        if rate_one > 0:
            out["monte_carlo.scaling_eff"] = rate_wide / (nproc * rate_one)
    out.update(imports)
    out["trace.overhead_frac"] = overhead_frac
    return out
