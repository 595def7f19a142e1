"""Command-line front end: every module surface behind one deterministic tool.

Each subcommand prints one canonical JSON document to stdout (sorted keys,
two-space indent) whose ``meta`` block records the subcommand, seed, and
tolerance, so equal invocations produce byte-identical output.  Side
artifacts (CSV tables, grid containers, profile CSVs) land in ``--out``
when given.  Every CSV carries a header row; the tables (``lp_bands``,
``bound_sweep``, ``plan_levels``) also carry the seed column, while
``profile.csv`` keeps gridio's band-profile format, which has none.  A
handler lists the files it can write as (name, writer) pairs under
``"artifacts"``, and ``main`` writes them in order and lists their paths.

Exit status: 0 on success, 1 on a domain error (the error is reported as
a one-line JSON object on stderr; a result holding NaN or Infinity is one,
and so is an allocation the process cannot make, reported as
``OutOfMemory``), 2 on usage errors (argparse).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .bands import band_profile, bandlimited_noise_form, closedness
from .construct import layered_profile, recursion_plan, GeometryConstants
from .degbound import (
    averaged_bound,
    fit_polylog_exponent,
    spectral_gap_profile,
    uniform_layer_profile,
)
from .errors import LipdegError, OutOfMemory, ParameterError, UnsupportedPresentation
from .exterior import jsonable
from .gridio import read_gridform, write_band_profile, write_csv, write_gridform
from .rings import (
    intersection_form,
    lipschitz_lower_exponent,
    positive_weight_exponents,
    preset_cohomology_action,
    preset_presentations,
    preset_weights,
)
from .scalability import ScalabilityVerdict, SearchConfig, check_middle_form, search_embedding


def _preset_params(args) -> dict:
    params = {}
    for key in ("k", "n", "p", "q"):
        val = getattr(args, key, None)
        if val is not None:
            params[key] = val
    return params


def _csv(header: list, rows: list):
    """Writer of a CSV file holding the header row, then ``rows``."""
    return lambda path: write_csv(path, header, rows)


# -- subcommand handlers -------------------------------------------------------


def _cmd_scalable(args) -> tuple:
    pres = preset_presentations(args.preset, **_preset_params(args))
    cfg = SearchConfig(
        restarts=args.restarts,
        max_iters=args.max_iters,
        seed=args.seed,
        tolerance=args.tol,
    )
    try:
        form = intersection_form(pres)
    except UnsupportedPresentation as err:
        verdict = ScalabilityVerdict("evidence_only", notes=f"no exact verdict: {err}")
    else:
        verdict = check_middle_form(form, pres.manifold_dim // 2, cfg)
    search = search_embedding(pres, list(args.ambient), cfg)
    payload = {
        "preset": args.preset,
        "parameters": _preset_params(args),
        "verdict": verdict,
        "search": search,
    }
    return payload, 0


def _cmd_lp(args) -> tuple:
    d, N, p = args.dim, args.resolution, args.degree
    a = bandlimited_noise_form(d, p, N, 1.0, radius=N / 2.5, seed=args.seed)
    recon, commute, k_mid, prof = acceptance.lp_battery(a)
    rows = [
        [k, repr(prof.l1[k]), repr(prof.l2[k]), repr(prof.linf[k]), args.seed]
        for k in prof.bands
    ]
    payload = {
        "dim": d,
        "degree": p,
        "resolution": N,
        "bands": prof.bands,
        "reconstruction_error": recon,
        "commutator_error": commute,
        "commutator_band": k_mid,
        "orthogonality_ratio": prof.orthogonality_ratio(),
        "band_l1": prof.l1,
        "band_l2": prof.l2,
        "total_l2": prof.total_l2,
        "artifacts": [("lp_bands.csv", _csv(["band", "l1", "l2", "linf", "seed"], rows))],
    }
    return payload, 0


def _cmd_bound(args) -> tuple:
    window = tuple(args.window)
    if args.sweep is not None:
        e_lo, e_hi = args.sweep
        if not e_lo < e_hi < 1024:
            raise ParameterError("sweep needs exponents lo < hi < 1024")
        exponents = list(range(e_lo, e_hi + 1))
    elif args.scale is not None:
        mantissa, e = math.frexp(args.scale)
        if mantissa != 0.5:
            raise ParameterError("scale must be a positive power of two")
        exponents = [e - 1]
    else:
        raise ParameterError("need --scale or --sweep")
    # a stored grid's profile does not depend on L: measure it once
    grid_profile = None
    if args.gridform is not None:
        grid_profile = band_profile(read_gridform(args.gridform))
    reports = []
    for e in exponents:
        L = 2.0**e
        if grid_profile is not None:
            prof = grid_profile
        elif args.gap is not None:
            prof = spectral_gap_profile(L, args.gap[0], args.gap[1])
        else:
            prof = uniform_layer_profile(L)
        reports.append((e, averaged_bound([prof], L, window, args.tail)))
    rows = [
        [e, repr(rep.final_bound), repr(rep.averaged), repr(rep.averaged_cross), args.seed]
        for e, rep in reports
    ]
    table = _csv(["log2_L", "final_bound", "averaged", "averaged_cross", "seed"], rows)
    payload = {
        "window": window,
        "tail": args.tail,
        "sweep": [
            {
                "log2_L": e,
                "final_bound": rep.final_bound,
                "averaged": rep.averaged,
                "averaged_cross": rep.averaged_cross,
            }
            for e, rep in reports
        ],
        "artifacts": [("bound_sweep.csv", table)],
    }
    if len(reports) == 1:
        payload["report"] = reports[0][1]
    else:
        payload["fitted_polylog_exponent"] = fit_polylog_exponent(
            [(rep.scale, rep.averaged_cross) for _, rep in reports]
        )
    return payload, 0


def _cmd_profile(args) -> tuple:
    a = read_gridform(args.input)
    prof = band_profile(a)
    payload = {
        "input": str(args.input),
        "dim": a.spatial_dim,
        "degree": a.form_degree,
        "resolution": a.resolution,
        "bands": prof.bands,
        "l1": prof.l1,
        "l2": prof.l2,
        "linf": prof.linf,
        "total_l2": prof.total_l2,
        "orthogonality_ratio": prof.orthogonality_ratio(),
        "artifacts": [("profile.csv", lambda path: write_band_profile(path, prof))],
    }
    return payload, 0


def _cmd_plan(args) -> tuple:
    geometry = GeometryConstants() if args.geometry == "unit" else None
    plan = recursion_plan(args.p, args.levels, args.degree_count, geometry)
    rows = [
        [t, repr(plan.bounds_by_level[t]), repr(normalized), args.seed]
        for t, normalized in enumerate(plan.normalized_bounds, start=1)
    ]
    table = _csv(["level", "bound", "normalized", "seed"], rows)
    return {"plan": plan, "artifacts": [("plan_levels.csv", table)]}, 0


def _cmd_synth(args) -> tuple:
    ens = layered_profile(
        args.p,
        args.levels,
        args.mass,
        N=args.resolution,
        T=args.period,
        seed=args.seed,
    )
    files = [("profile.csv", lambda path: write_band_profile(path, ens.profile))]
    payload = {"ensemble": ens, "artifacts": files}
    if ens.ensemble is not None:
        payload["closedness"] = closedness(ens.ensemble)
        files.append(("ensemble.gfrm", lambda path: write_gridform(path, ens.ensemble)))
    return payload, 0


def _cmd_exponent(args) -> tuple:
    action = preset_cohomology_action(args.preset, t=args.t)
    rep = lipschitz_lower_exponent(action, tol=args.tol)
    payload = {"preset": args.preset, "exponent": rep}
    try:
        weights = preset_weights(args.preset)
    except LipdegError:
        weights = None
    if weights is not None:
        alpha, mult = positive_weight_exponents(weights)
        payload["weights"] = {"pairs": weights, "alpha": alpha, "multiplicity": mult}
    return payload, 0


def _cmd_verify(args) -> tuple:
    report = acceptance.run_all(args.level, args.seed)
    for crit in report["criteria"]:
        sys.stderr.write(crit.line() + "\n")
    sys.stderr.write(
        ("all criteria passed\n" if report["all_passed"] else "FAILURES above\n")
    )
    return report, 0 if report["all_passed"] else 1


# -- parser --------------------------------------------------------------------


def _add_common(sub) -> None:
    sub.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    sub.add_argument(
        "--tol", type=float, default=1e-9, help="numeric tolerance (default 1e-9)"
    )
    sub.add_argument("--out", type=str, default=None, help="artifact directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lipdeg",
        description="Band analysis, scalability checks, degree bounds, "
        "and self-map plans on periodic grids.",
    )
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sc = subs.add_parser("scalable", help="sum-of-squares scalability verdict")
    sc.add_argument("--preset", required=True, help="presentation preset (Xk, CPn, ...)")
    sc.add_argument("--k", type=int, default=None)
    sc.add_argument("--n", type=int, default=None)
    sc.add_argument("--p", type=int, default=None)
    sc.add_argument("--q", type=int, default=None)
    sc.add_argument("--ambient", type=int, nargs="+", default=[4])
    sc.add_argument("--restarts", type=int, default=SearchConfig.restarts)
    sc.add_argument("--max-iters", type=int, default=SearchConfig.max_iters)
    sc.set_defaults(func=_cmd_scalable)

    lp = subs.add_parser("lp", help="band-decomposition diagnostics battery")
    lp.add_argument("--dim", type=int, default=2)
    lp.add_argument("--degree", type=int, default=0)
    lp.add_argument("--resolution", type=int, default=64)
    lp.set_defaults(func=_cmd_lp)

    bd = subs.add_parser("bound", help="three-term degree bound on a profile")
    bd.add_argument("--scale", type=float, default=None, help="L, a power of two")
    bd.add_argument(
        "--sweep", type=int, nargs=2, default=None, metavar=("LO", "HI"),
        help="log2 L range, inclusive",
    )
    kind = bd.add_mutually_exclusive_group()
    kind.add_argument("--uniform", action="store_true", help="equal-mass profile")
    kind.add_argument(
        "--gap", type=float, nargs=2, default=None, metavar=("B1", "B2"),
        help="spectral-gap profile exponents",
    )
    kind.add_argument("--gridform", type=str, default=None, help="measure this container")
    bd.add_argument("--window", type=float, nargs=2, default=[0.1, 0.9])
    bd.add_argument("--tail", choices=["auto", "hold", "zero"], default="auto")
    bd.set_defaults(func=_cmd_bound)

    pf = subs.add_parser("profile", help="band profile of a grid container")
    pf.add_argument("--input", required=True, help="GridForm container path")
    pf.set_defaults(func=_cmd_profile)

    pl = subs.add_parser("plan", help="layer-equalized recursion plan")
    pl.add_argument("--p", type=int, default=2)
    pl.add_argument("--levels", type=int, default=20)
    pl.add_argument("--degree-count", type=int, default=2)
    pl.add_argument("--geometry", choices=["unit", "measured"], default="measured")
    pl.set_defaults(func=_cmd_plan)

    sy = subs.add_parser("synth", help="synthesize layered closed ensembles")
    sy.add_argument("--p", type=int, default=2)
    sy.add_argument("--levels", type=int, default=4)
    sy.add_argument("--mass", type=float, default=1.0)
    sy.add_argument(
        "--resolution", type=int, default=None,
        help="grid size; omit for a synthetic profile only",
    )
    sy.add_argument("--period", type=float, default=1.0)
    sy.set_defaults(func=_cmd_synth)

    ex = subs.add_parser("exponent", help="growth exponents of ring presets")
    ex.add_argument("--preset", default="s3-bundle")
    ex.add_argument("--t", type=int, default=2, help="degree-2 scaling factor")
    ex.set_defaults(func=_cmd_exponent)

    vf = subs.add_parser("verify", help="run the acceptance battery")
    vf.add_argument("--level", choices=["full", "quick"], default="full")
    vf.set_defaults(func=_cmd_verify)

    for sub in subs.choices.values():
        _add_common(sub)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.seed < 0:
            raise ParameterError(f"seed must be >= 0, got {args.seed}")
        # a non-finite result fails typed below, so numpy's floating-point
        # warnings would only put extra lines on stderr
        with np.errstate(all="ignore"):
            payload, code = args.func(args)
            if "artifacts" in payload:
                files, payload["artifacts"] = payload["artifacts"], []
                if args.out:
                    out = Path(args.out)
                    out.mkdir(parents=True, exist_ok=True)
                    for name, write in files:
                        write(out / name)
                        payload["artifacts"].append(str(out / name))
        payload["meta"] = {
            "subcommand": args.subcommand,
            "seed": args.seed,
            "tol": args.tol,
        }
        try:
            text = json.dumps(jsonable(payload), sort_keys=True, indent=2, allow_nan=False)
        except ValueError as exc:
            raise ParameterError(f"result is not finite: {exc}") from None
    except (LipdegError, OSError, MemoryError) as exc:
        if isinstance(exc, MemoryError):  # an allocation past what the process may use
            exc = OutOfMemory(str(exc) or "out of memory")
        err = {"error": type(exc).__name__, "message": str(exc)}
        sys.stderr.write(json.dumps(err, sort_keys=True) + "\n")
        return 1
    sys.stdout.write(text + "\n")
    return code


if __name__ == "__main__":
    sys.exit(main())
