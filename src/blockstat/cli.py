"""Command-line front end.

Subcommands: stationary, simulate, moments, geom-check, dual, validate.
Artifacts are deterministic for a fixed seed: CSV floats are written as
their repr (textio.write_csv), JSON keys are sorted, and nothing
time-dependent is recorded.  Validation failures exit 1; argument/spec
errors exit 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys
import warnings

import numpy as np

from . import __version__
from .errors import BlockstatError, DomainError
from .measures import LambdaMeasure, ModelParams, MoranParams, UniformScaled
from . import closedform, duality, geomfix, recursions, simulate
from .textio import write_csv

_KEYWORD_MEASURES = {
    "kingman": lambda: LambdaMeasure.kingman(2.0),
    "star": lambda: LambdaMeasure.star(1.0),
    "uniform": lambda: LambdaMeasure.uniform(1.0),
    "beta31": lambda: LambdaMeasure.beta31(1.0),
    "zero": LambdaMeasure.crow_kimura,
    "crow-kimura": LambdaMeasure.crow_kimura,
}


def load_measure(spec: str) -> LambdaMeasure:
    """A measure keyword (kingman, star, uniform, beta31, zero) or JSON file."""
    if spec in _KEYWORD_MEASURES:
        return _KEYWORD_MEASURES[spec]()
    try:
        with open(spec) as fh:
            d = json.load(fh)
    except OSError:
        raise BlockstatError(
            f"measure {spec!r} is neither a keyword ({', '.join(_KEYWORD_MEASURES)}) "
            "nor a readable JSON file"
        )
    except ValueError as exc:
        raise BlockstatError(f"measure file {spec!r} is not valid JSON: {exc}")
    return LambdaMeasure.from_dict(d)


def _json_out(payload: dict, path: str | None) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=float)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _pmf_csv(pmf: recursions.StationaryPmf, path: str) -> None:
    n = np.arange(1, pmf.truncation_K + 1)
    write_csv(path, ("n", "p_n", "a_n"), (n, pmf.probs, pmf.tails()[1:]))


# Caps on the sizes that a run's cost grows with, so that every legal value
# ends within seconds: geom-check's integrals grow linearly in --n-max
# (0.13 s at 10^4), a simulation's first steps superlinearly in --start
# (0.7 s from 10^4 Kingman blocks, over 20 s from 10^5), and its path and
# CSV linearly in --events (0.5 s per 10^6).
_MAX_N_MAX = 10**4
_MAX_START = 10**4
_MAX_EVENTS = 10**7


def _size(cap: int, parse=int):
    """An argparse type: a count in 0..cap (not NaN or inf), read by parse."""

    def size(text: str) -> int:
        if not 0 <= (value := parse(text)) <= cap:
            raise argparse.ArgumentTypeError(f"{text} is not in 0..{cap}")
        return int(value)

    return size


def _model_params(args) -> ModelParams:
    return ModelParams(args.sigma, args.theta0, args.theta1)


def _messages(caught: list[warnings.WarningMessage]) -> list[str]:
    """The recorded warnings as "Category: message" strings, in the order raised."""
    return [f"{w.category.__name__}: {w.message}" for w in caught]


def cmd_stationary(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.model == "moran":
            mp = MoranParams(args.N, args.s, args.u0, args.u1)
            pmf = recursions.solve_moran(mp)
            params_rec = dataclasses.asdict(mp)
        else:
            measure = load_measure(args.model)
            prm = _model_params(args)
            params_rec = {**dataclasses.asdict(prm), "measure": measure.to_dict()}
            if measure.is_zero():
                pmf, _ = closedform.crow_kimura_geometric(prm)
            else:
                pmf = recursions.solve_lambda_truncated(measure, prm, tol=args.tol)
                interior = measure.interior
                if isinstance(interior, UniformScaled) and measure.m0 == measure.m1 == 0.0:
                    # c * uniform has the law of uniform at the rates over c
                    c = interior.c
                    pmf.extras["rho"] = closedform.bs_rho(
                        ModelParams(prm.sigma / c, prm.theta0 / c, prm.theta1 / c)
                    )
    out = args.out or "stationary"
    _pmf_csv(pmf, out + ".csv")
    _json_out(
        {
            "command": "stationary",
            "params": params_rec,
            "diagnostics": {**pmf.diagnostics(), "warnings": _messages(caught)},
            "version": __version__,
        },
        out + ".json",
    )
    return 0


def cmd_simulate(args) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        if args.model in ("moran", "moran-x"):
            mp = MoranParams(args.N, args.s, args.u0, args.u1)
            sim = simulate.simulate_moran_L if args.model == "moran" else simulate.simulate_moran_X
            path = sim(mp, args.start, args.events, args.seed)
            params_rec = dataclasses.asdict(mp)
        else:
            measure = load_measure(args.model)
            prm = _model_params(args)
            path = simulate.simulate_lambda_L(measure, prm, args.start, args.events, args.seed)
            params_rec = {**dataclasses.asdict(prm), "measure": measure.to_dict()}
        occ = simulate.occupancy(path, args.burn_in)
    out = args.out or "simulate"
    path.to_csv(out + "_path.csv")
    occ.to_csv(out + "_occupancy.csv")
    _json_out(
        {
            "command": "simulate",
            "params": params_rec,
            "seed": args.seed,
            "rng": path.rng_algorithm,
            "events": path.n_events,
            "burn_in": args.burn_in,
            "warnings": _messages(caught),
            "version": __version__,
        },
        out + ".json",
    )
    return 0


def cmd_moments(args) -> int:
    measure = load_measure(args.model)
    prm = _model_params(args)
    ms = duality.solve_w_moments(measure, prm, tol=args.tol)
    out = args.out or "moments"
    ms.to_csv(out + ".csv")
    _json_out(
        {
            "command": "moments",
            "params": {**dataclasses.asdict(prm), "measure": measure.to_dict()},
            "diagnostics": {
                "K": ms.truncation_K,
                "residual": ms.residual,
                "closure_bound": ms.extras["closure_bound"],
                "monotonicity_defect": ms.monotonicity_defect,
            },
            "version": __version__,
        },
        out + ".json",
    )
    return 0


def cmd_geom_check(args) -> int:
    measure = load_measure(args.model)
    prm = _model_params(args) if args.sigma is not None else None
    rho = args.rho
    if rho is None:
        if prm is None:
            raise BlockstatError("--rho or model parameters required")
        rho = closedform.bs_rho(prm)
    rep = geomfix.check_geometric(measure, rho, n_max=args.n_max, params=prm, tol=args.tol)
    _json_out(
        {
            "command": "geom-check",
            "rho": rho,
            "passed": rep.passed,
            "reasons": rep.reasons,
            "cg3a_max_residual": float(np.max(rep.cg3a_residuals)),
            "cg3b_residual": None if prm is None else rep.cg3b_residual,
            "cg1_max_residual": float(np.max(rep.cg1_residuals))
            if rep.cg1_residuals.size
            else None,
            "dust_free": rep.dust_free,
            "version": __version__,
        },
        args.out,
    )
    return 0 if rep.passed else 1


def cmd_dual(args) -> int:
    payload: dict = {"command": "dual", "version": __version__}
    if args.sigma is not None and args.x is not None:
        payload["bs_absorption"] = duality.bs_absorption(args.x, args.sigma)
        if args.m0 is not None:
            payload["kimura_fixation"] = duality.kimura_fixation(
                args.x, args.sigma, args.m0
            )
    if args.N is not None and args.k is not None and args.s is not None:
        payload["moran_fixation"] = duality.moran_fixation(args.k, args.N, args.s)
    if len(payload) <= 2:
        raise BlockstatError("dual needs --x/--sigma [--m0] and/or --k/--N/--s")
    _json_out(payload, args.out)
    return 0


# ----------------------------------------------------------------------
# validate: the cross-check matrix
# ----------------------------------------------------------------------


def _validate_checks(suite: str):
    checks = []

    def add(name, value, tol):
        checks.append((name, float(value), float(tol), bool(value <= tol)))

    mp = MoranParams(12, 0.7, 0.25, 0.15)
    closed, pg = closedform.moran_closed(mp)
    banded = recursions.solve_moran(mp)
    gth = recursions.solve_moran_nullspace(mp)
    add("moran closed vs banded (sup)", closed.sup_distance(banded), 1e-9)
    add("moran closed vs nullspace (sup)", closed.sup_distance(gth), 1e-9)
    zg = np.linspace(0.05, 0.9, 10)
    add(
        "moran pgf master-equation residual",
        closedform.verify_master_equation(pg, None, mp, zg),
        1e-6,
    )

    king = LambdaMeasure.kingman(2.0)
    prm = ModelParams(1.0, 1.0, 0.5)
    wfp, wfg = closedform.wf_closed(2.0, prm)
    lam = recursions.solve_lambda_truncated(king, prm, tol=1e-11)
    add("kingman closed vs recursion (sup)", wfp.sup_distance(lam), 1e-8)
    add(
        "kingman pgf master-equation residual",
        closedform.verify_master_equation(wfg, king, prm, zg),
        1e-6,
    )

    prm_bs = ModelParams(1.0, 0.5, 0.5)
    geo, _ = closedform.bs_geometric_pmf(prm_bs)
    rho = geo.extras["rho"]
    uni = LambdaMeasure.uniform()
    bs = recursions.solve_lambda_truncated(uni, prm_bs, tol=1e-11)
    add("uniform recursion vs geometric (sup)", bs.sup_distance(geo), 1e-6)
    rep = geomfix.check_geometric(uni, rho, n_max=20, params=prm_bs)
    add("uniform geometric-condition residual", np.max(rep.cg3a_residuals), 1e-8)

    prm_star = ModelParams(1.0, 0.4, 0.0)
    starp, _ = closedform.star_closed(1.0, prm_star)
    star_rec = recursions.solve_lambda_truncated(LambdaMeasure.star(1.0), prm_star, tol=1e-11)
    add("star closed vs recursion (sup)", starp.sup_distance(star_rec), 1e-12)

    ck, _ = closedform.crow_kimura_geometric(ModelParams(1.0, 1.0, 0.5))
    ck_rec = recursions.solve_lambda_truncated(
        LambdaMeasure.crow_kimura(), ModelParams(1.0, 1.0, 0.5), tol=1e-11
    )
    add("zero-measure recursion vs geometric (sup)", ck.sup_distance(ck_rec), 1e-10)

    if suite == "full":
        prm_fp = ModelParams(1.0, 0.2, 0.2)
        rs = geomfix.rho_star(0.3, 0.05, prm_fp)
        mu = geomfix.build_discrete_fixed_point(rs, 0.3, 0.05)
        lam_fp = geomfix.pushforward_to_lambda(mu, rs)
        pmf_fp = recursions.solve_lambda_truncated(lam_fp, prm_fp, tol=1e-10)
        n = np.arange(1, pmf_fp.truncation_K + 1)
        add(
            "fixed-point pushforward vs geometric (sup)",
            np.max(np.abs(pmf_fp.probs - (1 - rs) * rs ** (n - 1.0))),
            1e-6,
        )

        beta22 = LambdaMeasure.beta(2.0, 2.0)
        beta_rec = recursions.solve_lambda_truncated(beta22, prm_bs, tol=1e-11)
        for name, measure, pmf, params in [
            ("uniform", uni, bs, prm_bs),
            ("beta(2,2)", beta22, beta_rec, prm_bs),
            ("fixed-point atoms", lam_fp, pmf_fp, prm_fp),
        ]:
            pgf = closedform.PgfEvaluator.of_probs(pmf.probs)
            residual = closedform.verify_master_equation(pgf, measure, params, zg)
            add(f"{name} pgf identity residual", residual, 1e-10)

        # two-weight pgfs at mid z and moderate N, against their pmfs' series
        zs = np.linspace(0.05, 0.95, 10)
        mp62, prm_k = MoranParams(62, 0.4886, 0.6376, 0.04176), ModelParams(4.32, 7.04, 0.16)
        for name, (_, pgf), pmf in [
            ("moran pgf vs pmf series, N = 62 (sup)", closedform.moran_closed(mp62),
             recursions.solve_moran(mp62)),
            ("kingman pgf vs pmf series (sup)", closedform.wf_closed(0.625, prm_k, n_max=40),
             recursions.solve_lambda_truncated(LambdaMeasure.kingman(0.625), prm_k, tol=1e-14)),
        ]:
            series = closedform.PgfEvaluator.of_probs(pmf.probs)
            add(name, np.max(np.abs(pgf(zs) - series(zs))), 1e-9)

        path = simulate.simulate_moran_L(MoranParams(10, 0.5, 0.1, 0.1), 5, 10**5, seed=11)
        occ = simulate.occupancy(path, 0.2)
        add(
            "moran occupancy vs recursion (TV)",
            occ.tv_distance(recursions.solve_moran(MoranParams(10, 0.5, 0.1, 0.1)).probs),
            0.03,
        )

        ms = duality.solve_w_moments(uni, prm_bs, tol=1e-11)
        wg = duality.bs_w_generating(prm_bs, n_taylor=10)
        add(
            "moment generating function Taylor head",
            max(abs(wg.taylor[n] - ms[n]) for n in range(1, 11)),
            1e-5,
        )
    return checks


def cmd_validate(args) -> int:
    checks = _validate_checks(args.suite)
    width = max(len(c[0]) for c in checks)
    failed = 0
    for name, value, tol, ok in checks:
        status = "pass" if ok else "FAIL"
        print(f"{name:<{width}}  {value:9.3e}  <= {tol:7.1e}  {status}")
        failed += 0 if ok else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 0 if failed == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="blockstat",
        description="Stationary block counting distributions for population "
        "models with mutation and selection.",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_model_params(p, moran=False):
        p.add_argument("--model", required=True,
                       help="measure keyword or JSON file" + (", or 'moran'" if moran else ""))
        p.add_argument("--sigma", type=float, default=None)
        p.add_argument("--theta0", type=float, default=0.0)
        p.add_argument("--theta1", type=float, default=0.0)
        if moran:
            p.add_argument("--N", type=int, default=None)
            p.add_argument("--s", type=float, default=None)
            p.add_argument("--u0", type=float, default=0.0)
            p.add_argument("--u1", type=float, default=0.0)

    p = sub.add_parser("stationary", help="stationary pmf of the block counting chain")
    add_model_params(p, moran=True)
    p.add_argument("--tol", type=float, default=recursions.DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("simulate", help="exact jump-chain simulation")
    add_model_params(p, moran=True)
    p.add_argument("--start", type=_size(_MAX_START), required=True)
    p.add_argument("--events", type=_size(_MAX_EVENTS, float), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burn-in", dest="burn_in", type=float, default=0.2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    # moments and geom-check have no Moran options; without prefix matching
    # a stray --s is refused there rather than read as --sigma
    p = sub.add_parser("moments", help="stationary moments w_n via duality", allow_abbrev=False)
    add_model_params(p)
    p.add_argument("--tol", type=float, default=recursions.DEFAULT_TOL)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("geom-check", help="test the geometric-law conditions", allow_abbrev=False)
    add_model_params(p)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--n-max", dest="n_max", type=_size(_MAX_N_MAX), default=30)
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_geom_check)

    p = sub.add_parser("dual", help="absorption and fixation formulas")
    p.add_argument("--x", type=float, default=None)
    p.add_argument("--sigma", type=float, default=None)
    p.add_argument("--m0", type=float, default=None)
    p.add_argument("--N", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--s", type=float, default=None)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_dual)

    p = sub.add_parser("validate", help="run the cross-check matrix")
    p.add_argument("--suite", choices=["quick", "full"], default="quick")
    p.set_defaults(func=cmd_validate)
    return ap


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built once per process: a build costs more than most commands' parse
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # refused for every model, those that read no tol too
        if args.command == "stationary" and not 0.0 < args.tol < np.inf:
            raise DomainError(f"tol must lie in (0, inf), not {args.tol}")
        if args.command in ("stationary", "simulate") and args.model in ("moran", "moran-x"):
            if args.N is None or args.s is None:
                raise BlockstatError("the Moran model needs --N and --s")
        elif args.command in ("stationary", "simulate", "moments"):
            if args.sigma is None:
                raise BlockstatError(f"{args.command} needs --sigma")
        # by name, so a module-level wrapper installed after the parser was
        # built (a profiler's, say) sees the call
        return globals()[args.func.__name__](args)
    except BlockstatError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
