"""Spans around calls into the package layers, installed from outside.

The tracer wraps every public module-level function of each layer (plus
the private helpers a sibling layer imports, and the CSV/JSON writers
the CLI calls) and rebinds every name in the `blockstat` modules that
refers to a wrapped function, so calls between layers are seen too.
Each call records a span (op, parent, name, start, end) in memory;
spans are written out when the run ends.  Self time is a span's
duration minus the time covered by its child spans.  Counts are read
from arguments and returned objects at the same boundaries.

Leaf arithmetic helpers called once per integrand evaluation are not
wrapped: a span would cost about as much as the call it times.
"""

from __future__ import annotations

import array
import functools
import inspect
import math
import sys
import time
from collections import defaultdict
from pathlib import Path

import spec

LEAF = {
    "specfun.log_beta",
    "specfun.rising_factorial",
    "specfun.falling_factorial",
    "measures.tail_bracket",
    "geomfix.phi_big",
    "geomfix.phi_small",
    "geomfix.phi_iterate",
    "geomfix.cg1_integrand",
}
PRIVATE = {
    "recursions._solve_prlm",
    "recursions._solve_moran_banded",
    "cli._json_out",
    "cli._pmf_csv",
}
WRITERS = {
    "cli._json_out",
    "cli._pmf_csv",
    "simulate.JumpPath.to_csv",
    "simulate.OccupancyEstimate.to_csv",
    "duality.MomentSequence.to_csv",
}
QUADRATURE = {"specfun.adaptive_quad", "specfun.quad_power_endpoints"}
PATH_SIMULATORS = {"simulate.simulate_moran_L", "simulate.simulate_lambda_L",
                   "simulate.simulate_moran_X"}


def _bound(fn, args, kwargs, name: str):
    ba = inspect.signature(fn).bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments[name]


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.op_id = -1
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_idx = array.array("q")
        self.span_op = array.array("i")
        self.span_parent = array.array("q")
        self.span_name = array.array("i")
        self.span_start = array.array("d")
        self.span_end = array.array("d")
        self._next = 0
        self._stack: list[list] = []  # [span index, start, child time]
        self._quad_depth = 0
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.c: dict[str, float] = defaultdict(float)  # counters
        self.cnk_keys: set = set()
        self._saved: list[tuple[object, str, object]] = []

    # -- spans ------------------------------------------------------------

    def _intern(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _wrap(self, fn, layer: str, qualname: str):
        full = f"{layer}.{qualname}"
        name_id = self._intern(full)
        hook = _HOOKS.get(full)
        is_quad = full in QUADRATURE
        extra = full in WRITERS or full in PATH_SIMULATORS or full == "simulate.occupancy"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            idx = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1][0] if tracer._stack else -1
            if is_quad:
                tracer._quad_depth += 1
            frame = [idx, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - frame[1]
                tracer.calls[layer] += 1
                tracer.self_s[layer] += dur - frame[2]
                if tracer._stack:
                    tracer._stack[-1][2] += dur
                if is_quad:
                    tracer._quad_depth -= 1
                    if tracer._quad_depth == 0:
                        tracer.c["specfun.quad_s"] += dur
                if extra:
                    tracer.c["time:" + full] += dur
                tracer.span_idx.append(idx)
                tracer.span_op.append(tracer.op_id)
                tracer.span_parent.append(parent)
                tracer.span_name.append(name_id)
                tracer.span_start.append(frame[1])
                tracer.span_end.append(end)
            if hook is not None:
                hook(tracer, fn, args, kwargs, result, dur)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def install(self, bs) -> None:
        """Wrap the layer functions and rebind every reference to them."""
        originals: dict[int, object] = {}
        for layer in spec.LAYERS:
            mod = sys.modules[f"blockstat.{layer}"]
            for name, obj in list(vars(mod).items()):
                full = f"{layer}.{name}"
                if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                    continue
                if full in LEAF or (name.startswith("_") and full not in PRIVATE):
                    continue
                originals[id(obj)] = self._wrap(obj, layer, name)
        for full in WRITERS:
            layer, *rest = full.split(".")
            if len(rest) == 2:
                cls = getattr(sys.modules[f"blockstat.{layer}"], rest[0])
                fn = vars(cls)[rest[1]]
                self._saved.append((cls, rest[1], fn))
                setattr(cls, rest[1], self._wrap(fn, layer, ".".join(rest)))
        for modname, mod in list(sys.modules.items()):
            if modname != "blockstat" and not modname.startswith("blockstat."):
                continue
            for name, obj in list(vars(mod).items()):
                wrapped = originals.get(id(obj))
                if wrapped is not None:
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, wrapped)

    def uninstall(self) -> None:
        for owner, name, obj in reversed(self._saved):
            setattr(owner, name, obj)
        self._saved.clear()

    # -- results ------------------------------------------------------------

    def metrics(self, warnings_by_layer: dict[str, int], cli_bytes: int) -> dict[str, float]:
        c = self.c
        out: dict[str, float] = {}
        for layer in spec.LAYERS:
            out[f"{layer}.calls"] = float(self.calls[layer])
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.warnings"] = float(warnings_by_layer.get(layer, 0))
        coeffs = c["measures.cnk_coeffs"]
        out["measures.cnk_coeffs"] = coeffs
        out["measures.cnk_coeffs_per_s"] = _ratio(coeffs, c["measures.cnk_s"])
        out["measures.cnk_unique_ratio"] = _ratio(len(self.cnk_keys), coeffs)
        out["measures.lambda_rate.calls"] = c["measures.lambda_rate.calls"]
        out["specfun.quad_calls"] = c["specfun.quad_calls"]
        out["specfun.quad_s"] = c["specfun.quad_s"]
        out["recursions.truncated_K_sum"] = c["recursions.truncated_K_sum"]
        out["recursions.doublings"] = c["recursions.doublings"]
        out["recursions.doubling_useful_ratio"] = _ratio(c["recursions.truncated_calls"],
                                                          c["recursions.truncated_solves"])
        out["recursions.moran_shooting_accept_ratio"] = _ratio(c["recursions.shooting_accepted"],
                                                                c["recursions.moran_calls"])
        out["recursions.gth_states"] = c["recursions.gth_states"]
        out["closedform.formula_valid_frac"] = _ratio(c["closedform.valid_to_sum"],
                                                       c["closedform.n_max_sum"])
        out["closedform.banded_fill_calls"] = c["closedform.banded_fill_calls"]
        out["duality.w_K_sum"] = c["duality.w_K_sum"]
        path_s = sum(c["time:" + n] for n in PATH_SIMULATORS)
        out["simulate.events"] = c["simulate.events"]
        out["simulate.events_per_s"] = _ratio(c["simulate.events"], path_s)
        out["simulate.occupancy_s"] = c["time:simulate.occupancy"]
        out["simulate.asg_reps"] = c["simulate.asg_reps"]
        out["simulate.asg_reps_per_s"] = _ratio(c["simulate.asg_reps"], c["simulate.asg_s"])
        out["cli.write_s"] = sum(c["time:" + n] for n in WRITERS)
        out["cli.bytes_written"] = float(cli_bytes)
        return out

    def write_spans(self, path: Path) -> int:
        """Write the spans as CSV: idx,op,parent,name,start_s,end_s."""
        t0 = min(self.span_start) if self.span_start else 0.0
        with open(path, "w") as fh:
            fh.write("idx,op,parent,name,start_s,end_s\n")
            for i in range(len(self.span_idx)):
                fh.write(f"{self.span_idx[i]},{self.span_op[i]},{self.span_parent[i]},"
                         f"{self.names[self.span_name[i]]},{self.span_start[i] - t0:.9f},"
                         f"{self.span_end[i] - t0:.9f}\n")
        return len(self.span_idx)


def _ratio(num: float, den: float) -> float:
    return float(num) / den if den > 0 else 0.0


# ----------------------------------------------------------------------
# Counters read at the boundaries, from arguments and returned objects
# ----------------------------------------------------------------------


def _cnk(t, fn, args, kwargs, result, dur):
    t.c["measures.cnk_coeffs"] += 1
    t.c["measures.cnk_s"] += dur
    measure, n, k = (list(args) + [kwargs.get("measure"), kwargs.get("n"), kwargs.get("k")])[:3]
    t.cnk_keys.add((measure, int(n), int(k)))


def _count(name):
    def hook(t, fn, args, kwargs, result, dur):
        t.c[name] += 1
    return hook


def _truncated(t, fn, args, kwargs, result, dur):
    k0 = int(_bound(fn, args, kwargs, "K"))
    doublings = int(round(math.log2(result.truncation_K / k0)))
    t.c["recursions.truncated_calls"] += 1
    t.c["recursions.truncated_solves"] += doublings + 1
    t.c["recursions.doublings"] += doublings
    t.c["recursions.truncated_K_sum"] += result.truncation_K


def _moran(t, fn, args, kwargs, result, dur):
    t.c["recursions.moran_calls"] += 1
    t.c["recursions.shooting_accepted"] += result.solver_tag == "moran-shooting"


def _gth(t, fn, args, kwargs, result, dur):
    t.c["recursions.gth_states"] += result.truncation_K


def _closed(t, fn, args, kwargs, result, dur):
    pmf = result[0]
    valid_to = pmf.extras.get("formula_valid_to")
    if valid_to is not None:
        t.c["closedform.valid_to_sum"] += valid_to
        t.c["closedform.n_max_sum"] += pmf.truncation_K
        t.c["closedform.banded_fill_calls"] += valid_to < pmf.truncation_K


def _w_moments(t, fn, args, kwargs, result, dur):
    t.c["duality.w_K_sum"] += result.truncation_K


def _path(t, fn, args, kwargs, result, dur):
    t.c["simulate.events"] += result.n_events


def _asg(t, fn, args, kwargs, result, dur):
    t.c["simulate.asg_reps"] += int(_bound(fn, args, kwargs, "n_reps"))
    t.c["simulate.asg_s"] += dur


_HOOKS = {
    "measures.cnk": _cnk,
    "measures.lambda_rate": _count("measures.lambda_rate.calls"),
    "specfun.adaptive_quad": _count("specfun.quad_calls"),
    "recursions.solve_lambda_truncated": _truncated,
    "recursions.solve_moran": _moran,
    "recursions.solve_moran_nullspace": _gth,
    "closedform.moran_closed": _closed,
    "closedform.wf_closed": _closed,
    "duality.solve_w_moments": _w_moments,
    "simulate.simulate_moran_L": _path,
    "simulate.simulate_lambda_L": _path,
    "simulate.simulate_moran_X": _path,
    "simulate.simulate_killed_asg": _asg,
}
