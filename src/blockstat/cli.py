"""Command-line front end.

Subcommands: stationary, simulate, moments, geom-check, dual, validate.
Artifacts are deterministic for a fixed seed: floats are emitted with
repr round-tripping, JSON keys are sorted, and nothing time-dependent is
recorded.  Validation failures exit 1; argument/spec errors exit 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings

import numpy as np

from . import __version__
from .errors import BlockstatError
from .measures import LambdaMeasure, ModelParams, MoranParams, UniformScaled
from . import closedform, duality, geomfix, recursions, simulate

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
    probs = pmf.probs.astype(float).tolist()
    a = pmf.tails().tolist()
    rows = "".join(f"{i + 1},{p!r},{a[i + 1]!r}\n" for i, p in enumerate(probs))
    with open(path, "w") as fh:
        fh.write("n,p_n,a_n\n" + rows)


def _model_params(args) -> ModelParams:
    return ModelParams(args.sigma, args.theta0, args.theta1)


def cmd_stationary(args) -> int:
    extras: dict = {}
    if args.model == "moran":
        mp = MoranParams(args.N, args.s, args.u0, args.u1)
        pmf = recursions.solve_moran(mp)
        params_rec = {"N": mp.N, "s": mp.s, "u0": mp.u0, "u1": mp.u1}
    else:
        measure = load_measure(args.model)
        prm = _model_params(args)
        params_rec = {
            "sigma": prm.sigma,
            "theta0": prm.theta0,
            "theta1": prm.theta1,
            "measure": measure.to_dict(),
        }
        if measure.is_zero():
            p, pmf = recursions.crow_kimura_geometric(prm)
            extras["geometric_p"] = p
        else:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                pmf = recursions.solve_lambda_truncated(
                    measure, prm, K=args.K, tol=args.tol
                )
            if isinstance(measure.interior, UniformScaled):
                extras["rho"] = closedform.bs_rho(prm)
    out = args.out or "stationary"
    _pmf_csv(pmf, out + ".csv")
    _json_out(
        {
            "command": "stationary",
            "params": params_rec,
            "diagnostics": pmf.diagnostics(),
            "extras": extras,
            "version": __version__,
        },
        out + ".json",
    )
    return 0


def cmd_simulate(args) -> int:
    if args.model == "moran":
        mp = MoranParams(args.N, args.s, args.u0, args.u1)
        path = simulate.simulate_moran_L(mp, args.start, args.events, args.seed)
        params_rec = {"N": mp.N, "s": mp.s, "u0": mp.u0, "u1": mp.u1}
    elif args.model == "moran-x":
        mp = MoranParams(args.N, args.s, args.u0, args.u1)
        path = simulate.simulate_moran_X(mp, args.start, args.events, args.seed)
        params_rec = {"N": mp.N, "s": mp.s, "u0": mp.u0, "u1": mp.u1}
    else:
        measure = load_measure(args.model)
        prm = _model_params(args)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            path = simulate.simulate_lambda_L(
                measure, prm, args.start, args.events, args.seed
            )
        params_rec = {
            "sigma": prm.sigma,
            "theta0": prm.theta0,
            "theta1": prm.theta1,
            "measure": measure.to_dict(),
        }
    out = args.out or "simulate"
    path.to_csv(out + "_path.csv")
    occ = simulate.occupancy(path, args.burn_in)
    occ.to_csv(out + "_occupancy.csv")
    _json_out(
        {
            "command": "simulate",
            "params": params_rec,
            "seed": args.seed,
            "rng": path.rng_algorithm,
            "events": path.n_events,
            "burn_in": args.burn_in,
            "version": __version__,
        },
        out + ".json",
    )
    return 0


def cmd_moments(args) -> int:
    measure = load_measure(args.model)
    prm = _model_params(args)
    ms = duality.solve_w_moments(measure, prm, K=args.K, tol=args.tol)
    out = args.out or "moments"
    ms.to_csv(out + ".csv")
    _json_out(
        {
            "command": "moments",
            "params": {
                "sigma": prm.sigma,
                "theta0": prm.theta0,
                "theta1": prm.theta1,
                "measure": measure.to_dict(),
            },
            "diagnostics": {
                "K": ms.truncation_K,
                "residual": ms.residual,
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
            "cg3b_residual": rep.cg3b_residual,
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

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")

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
        rho, geo = closedform.bs_geometric_pmf(prm_bs)
        uni = LambdaMeasure.uniform()
        bs = recursions.solve_lambda_truncated(uni, prm_bs, tol=1e-11)
        add("uniform recursion vs geometric (sup)", bs.sup_distance(geo), 1e-6)
        rep = geomfix.check_geometric(uni, rho, n_max=20, params=prm_bs)
        add("uniform geometric-condition residual", np.max(rep.cg3a_residuals), 1e-8)

        prm_star = ModelParams(1.0, 0.4, 0.0)
        starp, starg = closedform.star_closed(1.0, prm_star, K=400)
        star_rec = recursions.solve_star(prm_star, 1.0, K=400)
        add("star closed vs recursion (sup)", starp.sup_distance(star_rec), 1e-12)

        p, ck = recursions.crow_kimura_geometric(ModelParams(1.0, 1.0, 0.5))
        ck_rec = recursions.solve_lambda_truncated(
            LambdaMeasure.crow_kimura(), ModelParams(1.0, 1.0, 0.5), tol=1e-11
        )
        add("zero-measure recursion vs geometric (sup)", ck.sup_distance(ck_rec), 1e-10)

        from .specfun import gauss_2f1, gauss_2f1_quadrature, integral_I, integral_I_gauss_form

        add(
            "2F1 series vs integral form",
            abs(gauss_2f1(0.7, 1.1, 2.4, 0.5).value - gauss_2f1_quadrature(0.7, 1.1, 2.4, 0.5)),
            1e-10,
        )
        add(
            "integral family vs 2F1 closed form",
            abs(integral_I(1.5, 2.5, 1.2, 0.8, 1.0) - integral_I_gauss_form(1.5, 2.5, 1.2, 0.8)),
            1e-9,
        )

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
        p.add_argument("--model", required=True, help="measure keyword, JSON file, or 'moran'")
        p.add_argument("--sigma", type=float, default=None)
        p.add_argument("--theta0", type=float, default=0.0)
        p.add_argument("--theta1", type=float, default=0.0)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--s", type=float, default=None)
        p.add_argument("--u0", type=float, default=0.0)
        p.add_argument("--u1", type=float, default=0.0)

    p = sub.add_parser("stationary", help="stationary pmf of the block counting chain")
    add_model_params(p)
    p.add_argument("--K", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_stationary)

    p = sub.add_parser("simulate", help="exact jump-chain simulation")
    add_model_params(p)
    p.add_argument("--start", type=int, required=True)
    p.add_argument("--events", type=lambda v: int(float(v)), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--burn-in", dest="burn_in", type=float, default=0.2)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("moments", help="stationary moments w_n via duality")
    add_model_params(p)
    p.add_argument("--K", type=int, default=64)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("geom-check", help="test the geometric-law conditions")
    add_model_params(p)
    p.add_argument("--rho", type=float, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=30)
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


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if getattr(args, "model", None) in ("moran", "moran-x"):
            if args.N is None or args.s is None:
                raise BlockstatError("the Moran model needs --N and --s")
        elif args.command in ("stationary", "simulate", "moments"):
            if args.sigma is None:
                raise BlockstatError(f"{args.command} needs --sigma")
        return args.func(args)
    except BlockstatError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
