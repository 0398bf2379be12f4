"""One workload in a fresh interpreter: the closed-loop client.

Started by run.py.  Prints `ready` once blockstat is imported and the
first round's inputs exist, then (unless --setup-only) runs rounds back
to back, one op at a time, and prints one JSON line with its figures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import sys
import threading
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

import hostspeed
import spec
import workloads

ROOT = Path(__file__).resolve().parent.parent
PER_OP_CAP_S = 60.0
SRC_PREFIX = str(ROOT / "src" / "blockstat") + os.sep


def import_blockstat():
    import blockstat
    import blockstat.cli  # noqa: F401  (ops call blockstat.cli.main)

    if not str(Path(blockstat.__file__).resolve()).startswith(SRC_PREFIX):
        raise ImportError(f"blockstat imported from {blockstat.__file__}, not {SRC_PREFIX}")
    return blockstat


@dataclass
class Tally:
    """Per-op records of one pass over some rounds.  Wall seconds are in
    `latencies`; the same at the reference host speed in `scaled`, with the
    kernel time around each op in `kernels` (see hostspeed.py)."""

    latencies: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)
    kernels: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    failed: int = 0
    events: int = 0
    events_s: float = 0.0
    reps: int = 0
    reps_s: float = 0.0
    validate_s: list[float] = field(default_factory=list)
    warnings: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    cli_bytes: int = 0
    pools: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    rounds: int = 0

    @property
    def timed_s(self) -> float:
        return math.fsum(self.latencies)

    def fail(self, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.failures) < 20:
            self.failures.append(message)


def _layer_of(filename: str, default: str) -> str:
    if filename.startswith(SRC_PREFIX):
        mod = filename[len(SRC_PREFIX):].removesuffix(".py")
        if mod in spec.LAYERS:
            return mod
    return default


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_round(rd: workloads.Round, tally: Tally, tracer=None, mutate=None,
              sampler: hostspeed.Sampler | None = None) -> None:
    """Run a round's ops back to back, then its checks outside the timed region.
    With a sampler, op times are also scaled to the reference host speed."""
    results: dict = {}
    failed_keys: set[str] = set()
    timed = sampler.time if sampler is not None else hostspeed.wall_time
    for i, op in enumerate(rd.ops):
        before = _dir_bytes(rd.workdir) if tracer is not None and rd.workdir else 0
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            if tracer is not None:
                tracer.op_id = tally.rounds * 1000 + i
                tracer.enabled = True
            out, exc, timing = timed(lambda: op.run(results))
            if tracer is not None:
                tracer.enabled = False
        err = None if exc is None else f"{op.key}: {type(exc).__name__}: {exc}"
        lat, ref = timing.wall_s, timing.scaled_s
        tally.latencies.append(lat)
        tally.scaled.append(ref)
        tally.kernels.append(timing.kernel_s)
        tally.kinds.append(op.kind)
        for w in caught:
            tally.warnings[_layer_of(str(w.filename), op.layer)] += 1
        if tracer is not None and rd.workdir:
            tally.cli_bytes += _dir_bytes(rd.workdir) - before
        if err is None and lat > PER_OP_CAP_S:
            err = f"{op.key}: {lat:.1f} s exceeds the per-op cap of {PER_OP_CAP_S} s"
        if err is not None:
            failed_keys.add(op.key)
            tally.fail(err)
            continue
        results[op.key] = out
        if op.events is not None:
            tally.events += op.events(out)
            tally.events_s += ref
        if op.reps:
            tally.reps += op.reps
            tally.reps_s += ref
        if op.kind == "cli validate":
            tally.validate_s.append(ref)

    if mutate is not None:
        mutate(results)
    for chk in rd.checks:
        if failed_keys.intersection(chk.keys):
            continue  # already counted as failed ops
        try:
            value, tol = chk.fn(results)
        except Exception as exc:
            value, tol = math.nan, 0.0
            chk_err = f"{type(exc).__name__}: {exc}"
        else:
            chk_err = ""
        if chk.pool is not None and not chk_err:
            tally.pools[chk.pool].append(float(value))
            continue
        if not value <= tol:  # NaN fails
            newly = [k for k in chk.keys if k not in failed_keys]
            failed_keys.update(newly)
            tally.fail(f"check '{chk.name}': {value!r} > {tol!r} {chk_err}".rstrip(),
                       len(newly))
    rd.close()
    tally.rounds += 1


def close_pools(tally: Tally) -> None:
    """Judge pooled checks: |sum(z)| / sqrt(count) within the pool's bound."""
    for pool, zs in tally.pools.items():
        z = math.fsum(zs) / math.sqrt(len(zs))
        if not abs(z) <= workloads.POOL_Z[pool]:
            tally.fail(f"pooled check '{pool}': |z| = {abs(z):.3f} over {len(zs)} ops", len(zs))
    tally.pools.clear()


def run_pass(build, n_rounds: int | None, seconds: float, tally: Tally, tracer=None,
             first: workloads.Round | None = None, sampler=None) -> None:
    """Whole rounds until `seconds` of wall time (ops and checks) have passed,
    or exactly n_rounds."""
    start = time.perf_counter()
    r = 0
    while True:
        if n_rounds is not None and r >= n_rounds:
            break
        if n_rounds is None and r > 0 and time.perf_counter() - start >= seconds:
            break
        rd = first if (r == 0 and first is not None) else build(r)
        run_round(rd, tally, tracer, sampler=sampler)
        r += 1
    close_pools(tally)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except Exception:
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": threading.active_count(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spans-out", default=None)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    bs = import_blockstat()
    workdir = Path(args.workdir)
    builder = workloads.BUILDERS[args.workload]

    def build(r):
        return builder(bs, args.seed, r, workdir)

    first = build(0)
    print("ready", flush=True)
    if args.setup_only:
        first.close()
        return 0

    if args.trace == 0:
        tally = Tally()
        sampler = hostspeed.Sampler()
        sampler.start()
        try:
            run_pass(build, None, args.seconds, tally, first=first, sampler=sampler)
        finally:
            sampler.stop()
        passes = [tally]
        lat = tally.scaled
        metrics = {
            "op_p50_ms": 1e3 * statistics.median(lat),
            "op_p90_ms": 1e3 * float(np.quantile(lat, 0.9)) if len(lat) >= 100 else None,
            "ops_per_s": len(lat) / math.fsum(lat),
            "events_per_s": tally.events / tally.events_s if tally.events_s else None,
            "asg_reps_per_s": tally.reps / tally.reps_s if tally.reps_s else None,
            "validate_full_s": statistics.median(tally.validate_s) if tally.validate_s else None,
            "fail_frac": tally.failed / len(lat),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        extra = {"wall": {
            "op_p50_ms": 1e3 * statistics.median(tally.latencies),
            "ops_per_s": len(lat) / tally.timed_s,
            "kernel_p50_ms": 1e3 * statistics.median(tally.kernels),
            "kernel_range_ms": [1e3 * min(tally.kernels), 1e3 * max(tally.kernels)],
        }}
    else:
        import tracer as tracing

        n_rounds = max(1, round(args.seconds / 2 / workloads.NOMINAL_ROUND_S[args.workload]))
        plain = Tally()
        run_pass(build, n_rounds, args.seconds, plain, first=first)
        tr = tracing.Tracer()
        tr.install(bs)
        tally = Tally()
        try:
            run_pass(build, n_rounds, args.seconds, tally, tracer=tr)
        finally:
            tr.uninstall()
        passes = [plain, tally]
        metrics = tr.metrics(tally.warnings, tally.cli_bytes)
        metrics["trace.overhead_s"] = tally.timed_s - plain.timed_s
        metrics["trace.overhead_frac"] = tally.timed_s / plain.timed_s - 1.0
        extra = {"untraced_timed_s": plain.timed_s}
        if args.spans_out:
            extra["spans"] = tr.write_spans(Path(args.spans_out))
    print(json.dumps({
        "env": environment(),
        "metrics": metrics,
        "attempted": sum(len(t.latencies) for t in passes),
        "failed": sum(t.failed for t in passes),
        "failures": [f for t in passes for f in t.failures],
        "rounds": tally.rounds,
        "timed_s": tally.timed_s,
        "warnings": dict(tally.warnings),
        "ops_by_kind": _by_kind(tally),
        **extra,
    }), flush=True)
    return 0


def _by_kind(tally: Tally) -> dict:
    groups: dict[str, list[float]] = defaultdict(list)
    for kind, lat in zip(tally.kinds, tally.scaled):
        groups[kind].append(lat)
    return {k: {"n": len(v), "p50_ms": 1e3 * statistics.median(v)} for k, v in sorted(groups.items())}


if __name__ == "__main__":
    sys.exit(main())
