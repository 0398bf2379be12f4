"""Smoke test of the benchmark itself (takes a few minutes).

    python3 perfbench/smoke.py

Runs every workload for one round, untraced and twice traced, and
asserts that every metric of BENCHMARK.json is printed with its unit,
that all correctness checks pass, and that traced counts repeat exactly
for a fixed seed.  Two negative controls: a perturbed result must be
flagged as a failed op, and the benchmark must refuse to run in a
directory that holds only BENCHMARK.json and perfbench/.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = ROOT / ".perfbench_runs"


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)


def result_of(proc: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    res = json.loads(lines[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}, res.keys()
    report = json.loads(lines[-2].removeprefix("report "))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1, report["failures"]
    return res, report


def check_metrics(metrics: dict, listed: list[dict]) -> None:
    assert list(metrics) == [m["name"] for m in listed], list(metrics)
    for m in listed:
        got = metrics[m["name"]]
        assert got["unit"] == m["unit"], (m["name"], got)
        assert isinstance(got["value"], (int, float)), (m["name"], got)


def negative_control() -> None:
    """A result perturbed after its op ran must fail its check."""
    sys.path.insert(0, str(ROOT / "src"))
    import worker
    import workloads

    bs = worker.import_blockstat()
    rd = workloads.simulate(bs, 1, 0, RUNS / "negative-control")

    def perturb(results):
        weights = results["moranL"][1].weights
        top = max(weights, key=weights.get)
        weights[top] *= 2.0

    tally = worker.Tally()
    worker.run_round(rd, tally, mutate=perturb)
    assert tally.failed == 1, tally.failures
    assert "moran occupancy vs recursion" in tally.failures[0], tally.failures


def refuses_without_package() -> None:
    bare = RUNS / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / "perfbench")
    try:
        proc = run_bench("simulate", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    RUNS.mkdir(exist_ok=True)
    assert (ROOT / "BENCHMARK.json").read_text() == spec.render(), \
        "BENCHMARK.json is stale: run python3 perfbench/run.py --write-spec"
    count_units = {"count", "bytes"}
    for w in spec.WORKLOADS:
        name = w["name"]
        res, report = result_of(run_bench(name, 0))
        check_metrics(res["metrics"], spec.END_TO_END)
        shown = report["end_to_end"]
        assert {k: v["unit"] for k, v in shown.items()} == spec.REPORT_METRICS, shown
        traced = [result_of(run_bench(name, 1))[0] for _ in range(2)]
        for t in traced:
            check_metrics(t["metrics"], spec.PER_LAYER)
        counts = [{m["name"]: t["metrics"][m["name"]]["value"] for m in spec.PER_LAYER
                   if m["unit"] in count_units} for t in traced]
        assert counts[0] == counts[1], (name, counts)
        print(f"ok  {name}: {res['attempted']} ops untraced, "
              f"{traced[0]['attempted']} ops per traced run, counts repeat")
    negative_control()
    print("ok  negative control: a perturbed occupancy is flagged")
    refuses_without_package()
    print("ok  refuses to run without src/blockstat")
    return 0


if __name__ == "__main__":
    sys.exit(main())
