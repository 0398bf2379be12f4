"""The workloads: seeded rounds of operations and their checks.

A round is a list of ops, each one public call a user makes, plus the
checks that compare every op's result with an independent route.  Ops
run back to back (closed loop, one client); checks run afterwards,
outside the timed region.  Round r of a workload is a pure function of
(seed, r), so a traced run can replay exactly the rounds of an untraced
one.  Ops find package functions through the `blockstat` namespace at
call time, so timing wrappers installed by the tracer are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import refs
import spec

@dataclass
class Op:
    key: str
    kind: str
    layer: str
    run: Callable[[dict], Any]
    events: Callable[[Any], int] | None = None  # Gillespie events in the result
    reps: int = 0  # killed-ASG replicates


@dataclass
class Check:
    """value <= tol passes; a pooled check's value is a z-score, judged with its
    pool at the end of the pass (see POOL_Z)."""

    name: str
    keys: tuple[str, ...]
    fn: Callable[[dict], tuple[float, float]]
    pool: str | None = None


@dataclass
class Round:
    ops: list[Op] = field(default_factory=list)
    checks: list[Check] = field(default_factory=list)
    workdir: Path | None = None

    def op(self, key, kind, layer, run, **kw) -> None:
        self.ops.append(Op(key, kind, layer, run, **kw))

    def check(self, name, keys, fn, pool=None) -> None:
        self.checks.append(Check(name, tuple(keys), fn, pool))

    def close(self) -> None:
        if self.workdir is not None:
            shutil.rmtree(self.workdir, ignore_errors=True)


# Pooled checks: the signed z-scores of a pool are combined as
# sum(z) / sqrt(count) and must stay within this many standard errors.
POOL_Z = {"killed-asg": 3.0}


def _rng(seed: int, workload: str, r: int) -> np.random.Generator:
    index = [w["name"] for w in spec.WORKLOADS].index(workload)
    return np.random.default_rng([seed, index, r])


def _u(rng, lo, hi) -> float:
    return float(rng.uniform(lo, hi))


def _bool(v: bool) -> tuple[float, float]:
    return (0.0 if v else 1.0), 0.0


def _fixed_point_inputs(bs, rng):
    """Parameters near those of `validate --suite full`, whose pushforward
    measure has about 50 atoms; rho* stays within [0.63, 0.69], where the
    truncated solve settles at K = 128."""
    prm = bs.ModelParams(_u(rng, 0.95, 1.0), _u(rng, 0.19, 0.21), _u(rng, 0.19, 0.21))
    return prm, _u(rng, 0.29, 0.31), _u(rng, 0.048, 0.052)


# ----------------------------------------------------------------------
# beta-quad
# ----------------------------------------------------------------------

# (a, b) is drawn from a small cell with non-integer b: there the quadrature
# cost of c_{n,k} varies by a few percent, while integer b (polynomial
# (1-x)^(b-1)) is a 3-5x cheaper special case and a < 1 a 2x dearer one.
BETA_CELL = (2.4, 2.6)
W_EVERY = 3  # rounds; the duality moments cost 1% of a truncated solve


def beta_quad(bs, seed: int, r: int, workdir: Path) -> Round:
    rng = _rng(seed, "beta-quad", r)
    rd = Round()
    K0, tol = spec.BETA_K0, spec.BETA_TOL
    a, b = _u(rng, *BETA_CELL), _u(rng, *BETA_CELL)
    # in this range the head settles at K = 20 (one doubling) with a 25x
    # margin; larger sigma doubles again and costs four times as much
    prm = bs.ModelParams(_u(rng, 0.2, 0.4), _u(rng, 0.5, 0.9), _u(rng, 0.5, 0.9))
    spots = [(int(n), int(rng.integers(n + 1, 2 * K0 + 1))) for n in rng.integers(1, K0, size=3)]
    rd.op("beta", "solve_lambda_truncated", "recursions",
          lambda res: bs.solve_lambda_truncated(bs.LambdaMeasure.beta(a, b), prm, K=K0, tol=tol))
    rd.check("beta pmf sums to one", ["beta"],
             lambda res: (abs(res["beta"].probs.sum() - 1.0), 1e-12))
    rd.check("beta reported residual within the solve tolerance", ["beta"],
             lambda res: (res["beta"].residual, tol))
    rd.check("beta pmf vs closed-form-coefficient route", ["beta"],
             lambda res: (refs.sup_distance(res["beta"].probs, refs.truncated_pmf(
                 refs.beta_cnk_table(a, b, 1.0, res["beta"].truncation_K),
                 0.0, 0.0, prm.sigma, prm.theta0, prm.theta1)), 1e-9))
    rd.check("beta c_{n,k} spot check (relative)", ["beta"],
             lambda res: (max(abs(bs.cnk(bs.LambdaMeasure.beta(a, b), n, k)
                                  / refs.beta_cnk(a, b, 1.0, n, k) - 1.0)
                              for n, k in spots), 1e-10))
    if r % W_EVERY == 0:
        rd.op("w", "solve_w_moments", "duality",
              lambda res: bs.solve_w_moments(bs.LambdaMeasure.beta(a, b), prm))
        rd.check("beta moments vs own duality assembly", ["w"],
                 lambda res: (refs.sup_distance(res["w"].w, refs.w_moments(
                     "beta", {"a": a, "b": b, "mass": 1.0}, prm.sigma, prm.theta0,
                     prm.theta1, res["w"].truncation_K)), 1e-9))
    return rd


# ----------------------------------------------------------------------
# simulate
# ----------------------------------------------------------------------

SIM_EVENTS_MORAN = 100_000
SIM_EVENTS_LAMBDA = 30_000
SIM_EVENTS_X = 100_000
ASG_REPS = 5_000
ASG_START = 3  # replicate length, hence cost, grows with the start
TV_TOL = 0.03


def _path_events(out) -> int:
    return int(out[0].n_events)


def simulate(bs, seed: int, r: int, workdir: Path) -> Round:
    rng = _rng(seed, "simulate", r)
    rd = Round()
    M = bs.LambdaMeasure

    def sim_seed() -> int:
        return int(rng.integers(2**31))

    mp = bs.MoranParams(int(rng.integers(40, 61)), _u(rng, 0.3, 0.7),
                        _u(rng, 0.05, 0.15), _u(rng, 0.05, 0.15))
    sd = sim_seed()
    rd.op("moranL", "simulate_moran_L+occupancy", "simulate",
          lambda res: _with_occupancy(bs, bs.simulate_moran_L(mp, 5, SIM_EVENTS_MORAN, sd)),
          events=_path_events)
    rd.check("moran occupancy vs recursion (TV)", ["moranL"],
             lambda res: (res["moranL"][1].tv_distance(bs.solve_moran(mp).probs), TV_TOL))

    prm = bs.ModelParams(_u(rng, 0.8, 1.2), _u(rng, 0.4, 0.6), _u(rng, 0.4, 0.6))
    a, b = _u(rng, 1.5, 2.5), _u(rng, 1.5, 2.5)
    lam_cases = [
        ("kingman", M.kingman(2.0), None),
        ("uniform", M.uniform(1.0), None),
        ("beta31", M.beta31(1.0), None),
        ("beta", M.beta(a, b), (a, b)),
    ]
    for name, measure, ab in lam_cases:
        key = f"lamL.{name}"
        sd = sim_seed()
        rd.op(key, "simulate_lambda_L+occupancy", "simulate",
              lambda res, measure=measure, sd=sd: _with_occupancy(
                  bs, bs.simulate_lambda_L(measure, prm, 3, SIM_EVENTS_LAMBDA, sd)),
              events=_path_events)

        def ref(measure=measure, ab=ab):
            if ab is not None:  # quadrature-free route for a general Beta
                return refs.beta_pmf(ab[0], ab[1], 1.0, prm.sigma, prm.theta0, prm.theta1)
            return bs.solve_lambda_truncated(measure, prm).probs

        rd.check(f"{name} occupancy vs stationary pmf (TV)", [key],
                 lambda res, key=key, ref=ref: (res[key][1].tv_distance(ref()), TV_TOL))

    mx = bs.MoranParams(int(rng.integers(8, 13)), _u(rng, 0.3, 0.7),
                        _u(rng, 0.2, 0.4), _u(rng, 0.2, 0.4))
    sd = sim_seed()
    rd.op("moranX", "simulate_moran_X+occupancy", "simulate",
          lambda res: _with_occupancy(bs, bs.simulate_moran_X(mx, mx.N // 2, SIM_EVENTS_X, sd)),
          events=_path_events)
    rd.check("moran frequency chain vs detailed balance (TV)", ["moranX"],
             lambda res: (refs.tv(res["moranX"][1].weights,
                                  refs.moran_x_stationary(mx.N, mx.s, mx.u0, mx.u1), 0), TV_TOL))

    prm_a = bs.ModelParams(_u(rng, 0.8, 1.2), _u(rng, 0.8, 1.2), _u(rng, 0.8, 1.2))
    for name, measure in (("kingman", M.kingman(2.0)), ("uniform", M.uniform(1.0))):
        key = f"asg.{name}"
        sd = sim_seed()
        rd.op(key, "simulate_killed_asg", "simulate",
              lambda res, measure=measure, sd=sd: bs.simulate_killed_asg(
                  measure, prm_a, ASG_START, ASG_REPS, sd), reps=ASG_REPS)

        def z_score(res, key=key, measure=measure):
            w = bs.solve_w_moments(measure, prm_a, tol=1e-10)[ASG_START]
            return (res[key] - w) / math.sqrt(w * (1.0 - w) / ASG_REPS), math.inf

        rd.check("killed-ASG absorption vs duality moments (pooled |z|)", [key], z_score,
                 pool="killed-asg")
    return rd


def _with_occupancy(bs, path):
    return path, bs.occupancy(path, 0.2)


# ----------------------------------------------------------------------
# cli
# ----------------------------------------------------------------------

CLI_EVENTS = 100_000
MORAN_RUNS = 8


def run_cli(bs, argv: list[str]) -> tuple[int, str]:
    """cli.main(argv) in process; returns (exit code, captured stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = bs.cli.main(argv)
        except SystemExit as exc:  # argparse rejects
            code = exc.code if isinstance(exc.code, int) else 2
    return int(code), out.getvalue()


def _csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    return lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _csv_column(path: Path, col: int) -> np.ndarray:
    return np.array([float(row[col]) for row in _csv(path)[1]])


def _exit_and_json(res, key, want_code, json_path) -> bool:
    code = res[key][0]
    if code != want_code:
        return False
    json.loads(Path(json_path).read_text())
    return True


def cli(bs, seed: int, r: int, workdir: Path) -> Round:
    rng = _rng(seed, "cli", r)
    d = workdir / f"round{r}"
    d.mkdir(parents=True, exist_ok=True)
    rd = Round(workdir=d)
    f = lambda v: repr(float(v))  # noqa: E731

    def cli_op(key, argv, **kw):
        rd.op(key, "cli " + argv[0], "cli", lambda res: run_cli(bs, argv), **kw)

    sig, t0, t1 = _u(rng, 0.5, 1.5), _u(rng, 0.3, 1.0), _u(rng, 0.3, 1.0)
    prm = bs.ModelParams(sig, t0, t1)
    mparams = ["--sigma", f(sig), "--theta0", f(t0), "--theta1", f(t1)]

    cli_op("stat.uniform", ["stationary", "--model", "uniform", *mparams, "--out", str(d / "uni")])

    def uniform_ok(res):
        if not _exit_and_json(res, "stat.uniform", 0, d / "uni.json"):
            return _bool(False)
        p = _csv_column(d / "uni.csv", 1)
        return refs.sup_distance(p, refs.geometric(bs.bs_rho(prm), p.size)), 1e-6

    rd.check("cli stationary uniform vs geometric", ["stat.uniform"], uniform_ok)

    # Moran solves of one size (about 18 ms each): two ops of a round are
    # cheaper and seven dearer, so with eight of them the median op of a
    # run is a Moran solve, not the gap to the geom-check ops (about 22 ms)
    for i in range(MORAN_RUNS):
        mp = bs.MoranParams(2000, _u(rng, 0.5, 1.5), _u(rng, 0.2, 0.8), _u(rng, 0.2, 0.8))
        out = d / f"moran{i}"
        cli_op(f"stat.moran{i}", ["stationary", "--model", "moran", "--N", str(mp.N),
                                  "--s", f(mp.s), "--u0", f(mp.u0), "--u1", f(mp.u1),
                                  "--out", str(out)])

        def moran_ok(res, key=f"stat.moran{i}", mp=mp, out=out):
            if not _exit_and_json(res, key, 0, out.with_suffix(".json")):
                return _bool(False)
            p = _csv_column(out.with_suffix(".csv"), 1)
            if p.size != mp.N:
                return _bool(False)
            return refs.sup_distance(p[:60], bs.moran_closed(mp, n_max=60)[0].probs), 1e-9

        rd.check("cli stationary moran vs closed-form head", [f"stat.moran{i}"], moran_ok)

    # atoms file: the fixed-point pushforward measure, whose law is geometric
    prm_f, x0, m0 = _fixed_point_inputs(bs, rng)
    rs = bs.rho_star(x0, m0, prm_f)
    measure = bs.pushforward_to_lambda(bs.build_discrete_fixed_point(rs, x0, m0), rs)
    (d / "fixed_point.json").write_text(measure.to_json())
    cli_op("stat.atoms", ["stationary", "--model", str(d / "fixed_point.json"), "--sigma",
                          f(prm_f.sigma), "--theta0", f(prm_f.theta0), "--theta1",
                          f(prm_f.theta1), "--out", str(d / "atoms")])

    def atoms_ok(res):
        if not _exit_and_json(res, "stat.atoms", 0, d / "atoms.json"):
            return _bool(False)
        p = _csv_column(d / "atoms.csv", 1)
        return refs.sup_distance(p, refs.geometric(rs, p.size)), 1e-6

    rd.check("cli stationary atoms file vs geometric", ["stat.atoms"], atoms_ok)

    # the same simulation twice: artifacts must be byte-identical
    sd = int(rng.integers(2**31))
    for tag in ("a", "b"):
        cli_op(f"sim.{tag}", ["simulate", "--model", "kingman", *mparams, "--start", "5",
                              "--events", str(CLI_EVENTS), "--seed", str(sd),
                              "--out", str(d / f"sim_{tag}")],
               events=lambda out: CLI_EVENTS if out[0] == 0 else 0)

    def sim_ok(res):
        if not _exit_and_json(res, "sim.a", 0, d / "sim_a.json"):
            return _bool(False)
        meta = json.loads((d / "sim_a.json").read_text())
        header, rows = _csv(d / "sim_a_path.csv")
        if meta["events"] != CLI_EVENTS or len(rows) != CLI_EVENTS + 1:
            return _bool(False)
        _, occ_rows = _csv(d / "sim_a_occupancy.csv")
        weights = {int(s): float(w) for s, w in occ_rows}
        ref = bs.solve_lambda_truncated(bs.LambdaMeasure.kingman(2.0), prm).probs
        return refs.tv(weights, ref, 1), TV_TOL

    def same_bytes(res):
        if res["sim.b"][0] != 0:
            return _bool(False)
        return _bool(all(
            (d / f"sim_a{suffix}").read_bytes() == (d / f"sim_b{suffix}").read_bytes()
            for suffix in ("_path.csv", "_occupancy.csv", ".json")))

    rd.check("cli simulate artifacts, occupancy vs recursion (TV)", ["sim.a"], sim_ok)
    rd.check("cli simulate byte-identical for equal seeds", ["sim.a", "sim.b"], same_bytes)

    cli_op("moments", ["moments", "--model", "uniform", *mparams, "--out", str(d / "mom")])

    def moments_ok(res):
        if not _exit_and_json(res, "moments", 0, d / "mom.json"):
            return _bool(False)
        w = _csv_column(d / "mom.csv", 1)
        wg = bs.bs_w_generating(prm, n_taylor=10)
        return max(abs(wg.taylor[n] - w[n]) for n in range(1, 11)), 1e-5

    rd.check("cli moments vs generating-function Taylor head", ["moments"], moments_ok)

    cli_op("geom.beta31", ["geom-check", "--model", "beta31", "--rho", "0.5",
                           "--out", str(d / "gc_beta31.json")])
    cli_op("geom.uniform", ["geom-check", "--model", "uniform", *mparams,
                            "--out", str(d / "gc_uniform.json")])
    rd.check("cli geom-check beta31 fails by design (exit 1)", ["geom.beta31"],
             lambda res: _bool(_exit_and_json(res, "geom.beta31", 1, d / "gc_beta31.json")
                               and not json.loads((d / "gc_beta31.json").read_text())["passed"]))
    rd.check("cli geom-check uniform passes (exit 0)", ["geom.uniform"],
             lambda res: _bool(_exit_and_json(res, "geom.uniform", 0, d / "gc_uniform.json")
                               and json.loads((d / "gc_uniform.json").read_text())["passed"]))

    x, m0k = _u(rng, 0.1, 0.9), _u(rng, 0.5, 3.0)
    k, s = int(rng.integers(1, 20)), _u(rng, 0.1, 1.0)
    cli_op("dual", ["dual", "--x", f(x), "--sigma", f(sig), "--m0", f(m0k), "--N", "20",
                    "--k", str(k), "--s", f(s), "--out", str(d / "dual.json")])

    def dual_ok(res):
        if not _exit_and_json(res, "dual", 0, d / "dual.json"):
            return _bool(False)
        got = json.loads((d / "dual.json").read_text())
        e = math.exp(-sig)
        want = {
            "bs_absorption": (1 - x) * e / (x + (1 - x) * e),
            "kimura_fixation": (1 - math.exp(-2 * sig * x / m0k)) / (1 - math.exp(-2 * sig / m0k)),
            "moran_fixation": ((1 + s) ** 20 - (1 + s) ** (20 - k)) / ((1 + s) ** 20 - 1),
        }
        return max(abs(got[name] - v) for name, v in want.items()), 1e-12

    rd.check("cli dual vs absorption formulas", ["dual"], dual_ok)

    cli_op("validate", ["validate", "--suite", "full"])

    def validate_ok(res):
        code, text = res["validate"]
        last = text.strip().splitlines()[-1].split()[0].split("/")
        return _bool(code == 0 and last[0] == last[1])

    rd.check("cli validate --suite full exits 0, all checks pass", ["validate"], validate_ok)
    return rd


BUILDERS = {"beta-quad": beta_quad, "simulate": simulate, "cli": cli}

# Untraced seconds per round on a 2-core x86 VM; a traced run replays
# max(1, round(seconds / 2 / NOMINAL_ROUND_S)) rounds once untraced and
# once traced, so its op list, and hence every count, depends only on
# the seed and --seconds.
NOMINAL_ROUND_S = {"beta-quad": 3.0, "simulate": 2.0, "cli": 4.0}
