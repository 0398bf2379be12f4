"""What the benchmark measures: workloads, metrics, units and bounds.

BENCHMARK.json at the repository root is generated from this module by
`python3 perfbench/run.py --write-spec`; the smoke test checks that the
committed file and this module agree.
"""

from __future__ import annotations

import json
from pathlib import Path

RUN_SECONDS = 30
COMMAND = ["python3", "perfbench/run.py"]
PATHS = ["perfbench"]

# Truncated Beta(a,b) solves are sized below the library defaults so that a
# run completes several of them; every beta-quad solve uses these.
BETA_K0 = 10
BETA_TOL = 1e-6

WORKLOADS = [
    {
        "name": "beta-quad",
        "why": "Worst case: truncated solves for seeded Beta(a,b) measures at K0=10, "
        "tol=1e-6 plus their duality moments; time is in measures.cnk quadrature",
    },
    {
        "name": "simulate",
        "why": "Gillespie paths with occupancy and killed-ASG batches; the per-event "
        "Python loop of simulate does the work and measures only builds rate tables",
    },
    {
        "name": "cli",
        "why": "In-process cli.main for every subcommand and validate --suite full: the "
        "only workload where the cli layer writes CSV/JSON artifacts; no Beta quadrature, "
        "so a control for beta-quad",
    },
]

# Times (setup_s, op_p50_ms, ops_per_s) are scaled to a reference host
# speed, measured by a calibration kernel timed during and around each op
# and set-up (hostspeed.py); the report line carries the wall-clock
# figures beside them.
END_TO_END = [
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
]

LAYERS = ["measures", "specfun", "recursions", "closedform", "duality", "geomfix", "simulate", "cli"]


def _per_layer() -> list[dict]:
    out = []
    for layer in LAYERS:
        out.append({"name": f"{layer}.calls", "unit": "count", "better": "lower"})
        out.append({"name": f"{layer}.self_s", "unit": "s", "better": "lower"})
        out.append({"name": f"{layer}.warnings", "unit": "count", "better": "lower"})
    specific = [
        ("measures.cnk_coeffs", "count", "lower"),
        ("measures.cnk_coeffs_per_s", "1/s", "higher"),
        ("measures.cnk_unique_ratio", "1", "higher"),
        ("measures.lambda_rate.calls", "count", "lower"),
        ("specfun.quad_calls", "count", "lower"),
        ("specfun.quad_s", "s", "lower"),
        ("recursions.truncated_K_sum", "count", "lower"),
        ("recursions.doublings", "count", "lower"),
        ("recursions.doubling_useful_ratio", "1", "higher"),
        ("recursions.moran_shooting_accept_ratio", "1", "higher"),
        ("recursions.gth_states", "count", "lower"),
        ("closedform.formula_valid_frac", "1", "higher"),
        ("closedform.banded_fill_calls", "count", "lower"),
        ("duality.w_K_sum", "count", "lower"),
        ("simulate.events", "count", "higher"),
        ("simulate.events_per_s", "1/s", "higher"),
        ("simulate.occupancy_s", "s", "lower"),
        ("simulate.asg_reps", "count", "higher"),
        ("simulate.asg_reps_per_s", "1/s", "higher"),
        ("cli.write_s", "s", "lower"),
        ("cli.bytes_written", "bytes", "lower"),
        ("trace.overhead_s", "s", "lower"),
        ("trace.overhead_frac", "1", "lower"),
    ]
    out.extend({"name": n, "unit": u, "better": b} for n, u, b in specific)
    return out


PER_LAYER = _per_layer()

# The nine end-to-end figures of the human-readable report line.  Only
# those valid on every workload are in END_TO_END, because the result
# line must carry every listed metric on every workload.
REPORT_METRICS = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ops_per_s": "1/s",
    "events_per_s": "1/s",
    "asg_reps_per_s": "1/s",
    "validate_full_s": "s",
    "fail_frac": "1",
    "peak_rss_mb": "MiB",
}


def benchmark_json() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": WORKLOADS,
        "end_to_end": END_TO_END,
        "per_layer": PER_LAYER,
    }


def render() -> str:
    return json.dumps(benchmark_json(), indent=2) + "\n"


def write(root: Path) -> Path:
    path = root / "BENCHMARK.json"
    path.write_text(render())
    return path
