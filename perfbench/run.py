"""blockstat benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload beta-quad --seed 1 --seconds 30 --trace 0

Run from the repository root.  The package is imported from ./src (it
need not be installed).  Each run starts fresh interpreters: set-up
probes before and after the worker (import blockstat, generate the
inputs, first op ready), whose median is setup_s, and one worker that
runs the workload as a closed loop, one op at a time, with BLAS/OpenMP
pinned to one thread, for --seconds of wall time (ops and their checks).
With --trace 0 the worker reports end-to-end figures; with --trace 1 it
replays a fixed number of rounds untraced and then traced, and reports
per-layer figures and the tracing overhead.

End-to-end times (setup_s, op latencies and rates) are scaled to a
reference host speed with a calibration kernel timed during and around
each op and around each set-up (hostspeed.py); the report line also
carries the wall-clock figures and the kernel times.

The output ends with a report line (all nine end-to-end figures, the
environment and any failures) and, last, the result line:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

`--write-spec` regenerates BENCHMARK.json from spec.py.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"
# Set-up probes run before and after the worker, so that they sample the
# host at both ends of the run; with the worker's own set-up, setup_s is a
# median of five.
SETUP_PROBES = 2
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PINNED)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(RUNS / "tmp")
    return env


def source_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "blockstat").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


class Worker:
    """A worker process; the set-up time is read when it prints `ready`, in
    wall seconds (setup_wall_s) and at the reference host speed (setup_s)."""

    def __init__(self, args: list[str], deadline: float) -> None:
        self.deadline = deadline
        k0 = hostspeed.kernel_s()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
        line = self.proc.stdout.readline()
        self.setup_wall_s = time.perf_counter() - t0
        self.setup_s = hostspeed.scale(self.setup_wall_s, [k0, hostspeed.kernel_s()])
        if line.strip() != "ready":
            self.finish()
            raise RuntimeError("worker failed before its first op was ready")

    def finish(self) -> str:
        try:
            out, _ = self.proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            raise RuntimeError("worker exceeded the run deadline") from None
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited with code {self.proc.returncode}")
        return out


def probe(common: list[str], deadline: float) -> Worker:
    worker = Worker(common + ["--setup-only"], deadline)
    worker.finish()
    return worker


def run(args) -> int:
    deadline = time.monotonic() + DEADLINE_S
    RUNS.mkdir(exist_ok=True)
    (RUNS / "tmp").mkdir(exist_ok=True)
    workdir = RUNS / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed), "--workdir", str(workdir)]
    try:
        if not (ROOT / "src" / "blockstat" / "__pycache__").exists():
            Worker(common + ["--setup-only"], deadline).finish()  # compile once, untimed
        setups = [probe(common, deadline) for _ in range(SETUP_PROBES)]
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans-out", str(RUNS / f"spans-{args.workload}-seed{args.seed}.csv")]
        worker = Worker(common + extra, deadline)
        setups.append(worker)
        lines = worker.finish().strip().splitlines()
        setups += [probe(common, deadline) for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    res = json.loads(lines[-1])
    setup_s = statistics.median(w.setup_s for w in setups)

    if args.trace:
        names = [m["name"] for m in spec.PER_LAYER]
        units = {m["name"]: m["unit"] for m in spec.PER_LAYER}
        metrics = {n: res["metrics"][n] for n in names}
    else:
        names = [m["name"] for m in spec.END_TO_END]
        units = {m["name"]: m["unit"] for m in spec.END_TO_END}
        metrics = dict(res["metrics"], setup_s=setup_s)
        for name, unit in spec.REPORT_METRICS.items():
            value = metrics[name]
            shown = "n/a" if value is None else f"{value:.6g}"
            print(f"{name:>16} {shown:>12} {unit}")
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "setup_runs_s": [w.setup_s for w in setups],
        "setup_runs_wall_s": [w.setup_wall_s for w in setups],
        "source": {"git_commit": git_commit(), "src_sha256_16": source_fingerprint()},
        **{k: v for k, v in res.items() if k != "metrics"},
    }
    if not args.trace:
        report["end_to_end"] = {n: {"value": metrics[n], "unit": u}
                                for n, u in spec.REPORT_METRICS.items()}
    print("report " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {n: {"value": metrics[n], "unit": units[n]} for n in names},
    }))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=[w["name"] for w in spec.WORKLOADS])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-spec", action="store_true", help="regenerate BENCHMARK.json")
    args = ap.parse_args(argv)
    if args.write_spec:
        print(spec.write(ROOT))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    if not (ROOT / "src" / "blockstat" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'blockstat'}", file=sys.stderr)
        return 2
    try:
        return run(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
