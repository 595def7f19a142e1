"""Job lists of the three benchmark workloads.

A workload function takes the tracer, a seed and the size (``"full"`` or
``"smoke"``) and returns a list of ``(job name, thunk)``.  A thunk calls
lipdeg's public functions through ``Tracer.call`` and raises
``CheckFailed`` when an output misses the guarantee the paper states for
it.  Every random input is drawn from the seed, so one seed gives one job
list.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import zlib
from functools import partial
from pathlib import Path

import numpy as np

from lipdeg import bands, cli, construct, degbound, exterior, gridio, rings, scalability


class CheckFailed(Exception):
    """An output of lipdeg missed its reference value."""


def _check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def derive_seed(seed: int, *tags) -> int:
    """A 31-bit seed drawn from ``seed`` and string or integer tags."""
    words = [seed] + [t if isinstance(t, int) else zlib.crc32(t.encode()) for t in tags]
    return int(np.random.SeedSequence(words).generate_state(1)[0] >> 1)


def _check_finite(obj, where: str) -> None:
    """Every number in a JSON-like value must be finite."""
    if isinstance(obj, dict):
        for v in obj.values():
            _check_finite(v, where)
    elif isinstance(obj, (list, tuple)):
        for v in obj:
            _check_finite(v, where)
    elif isinstance(obj, float):
        _check(math.isfinite(obj), f"{where}: non-finite number {obj!r}")


# -- algebra -----------------------------------------------------------------

# Scalable presets search from their structured start alone, whose cost does
# not depend on the seed.  The two non-scalable presets run random restarts,
# which is where the search kernel spends its time.  The work of one such
# restart (residual evaluations) depends on its start, with a coefficient of
# variation of about 0.31 at any iteration cap from 10 to 40: it comes from
# the damping retries inside an iteration, not from early stops.  So the
# job list's work varies from seed to seed as 0.31 / sqrt(restarts).  Short
# restarts (20 iterations) allow 128 of them per pass, which keeps that
# variation near 3 %.  Jobs of 4 restarts keep each job short, so the host
# probe timed on either side of it (run.py) sees the speed it ran at.
SCALABLE = ("X1", "X2", "X3", "connected-sum(2,1)", "S2xS2")
NOT_SCALABLE = ("X4", "connected-sum(4,0)")
# (search jobs per non-scalable preset, restarts per job)
SEARCHES = {"full": (16, 4), "smoke": (1, 1)}
NOT_SCALABLE_MAX_ITERS = 20


def _scalability_job(tr, name: str, scalable: bool, cfg) -> None:
    pres = tr.call("rings", rings.preset_presentations, name)
    Q = np.array(tr.call("rings", rings.intersection_form, pres), dtype=float)
    search = tr.call("scalability", scalability.search_embedding, pres, [4], cfg)
    verdict = tr.call("scalability", scalability.check_middle_form, Q, 2, cfg)
    tr.count("restarts", len(search.restart_defects))
    tr.count("converged", sum(d < cfg.tolerance for d in search.restart_defects))
    _check_finite(search.to_json_dict(), name)
    _check_finite(verdict.to_json_dict(), name)
    if scalable:
        _check(search.defect < 1e-6, f"{name}: search defect {search.defect:.3e}")
        _check(
            verdict.status == "scalable" and verdict.defect < 1e-6,
            f"{name}: verdict {verdict.status}, defect {verdict.defect}",
        )
    else:
        _check(search.defect > 1e-2, f"{name}: defect floor {search.defect:.3e}")
        _check(verdict.status == "not_scalable", f"{name}: verdict {verdict.status}")


def _signature_job(tr, n: int, p: int, want: tuple) -> None:
    W = tr.call("exterior", exterior.wedge_pairing_matrix, n, p)
    sig = tr.call("exterior", exterior.signature_exact, W)
    _check(tuple(sig) == want, f"wedge({n},{p}) signature {tuple(sig)}")


def _kge4_job(tr, seed: int) -> None:
    rep = tr.call("scalability", scalability.kge4_certificate, samples=10, seed=seed, k=3)
    _check(
        rep.status == "counterexample" and abs(rep.lhs - 1.0) <= 1e-12 and abs(rep.rhs) <= 1e-12,
        f"k=3 certificate {rep.status}, lhs {rep.lhs}, rhs {rep.rhs}",
    )


def _exponent_job(tr) -> None:
    action = tr.call("rings", rings.preset_cohomology_action, "s3-bundle")
    rep = tr.call("rings", rings.lipschitz_lower_exponent, action)
    weights = tr.call("rings", rings.preset_weights, "s3-bundle")
    alpha, mult = tr.call("rings", rings.positive_weight_exponents, weights)
    _check(
        str(rep.degree_exponent_rational) == "20/3" and (str(alpha), mult) == ("3/5", 1),
        f"s3-bundle exponents {rep.degree_exponent_rational}, ({alpha}, {mult})",
    )


def algebra(tr, seed: int, size: str) -> list:
    jobs = []
    for name in SCALABLE:
        cfg = scalability.SearchConfig(restarts=1, seed=derive_seed(seed, "search", name))
        jobs.append((f"scalable:{name}", partial(_scalability_job, tr, name, True, cfg)))
    n_jobs, restarts = SEARCHES[size]
    for name in NOT_SCALABLE:
        for j in range(n_jobs):
            cfg = scalability.SearchConfig(
                restarts=restarts,
                max_iters=NOT_SCALABLE_MAX_ITERS,
                seed=derive_seed(seed, "search", name, j),
            )
            jobs.append((f"not_scalable:{name}#{j}", partial(_scalability_job, tr, name, False, cfg)))
    jobs.append(("signature:4,2", partial(_signature_job, tr, 4, 2, (3, 3, 0))))
    jobs.append(("signature:8,4", partial(_signature_job, tr, 8, 4, (35, 35, 0))))
    jobs.append(("kge4:k=3", partial(_kge4_job, tr, derive_seed(seed, "kge4"))))
    jobs.append(("exponent:s3-bundle", partial(_exponent_job, tr)))
    return jobs


# -- spectral ----------------------------------------------------------------

# (d, N) -> form degrees.  4D keeps p = 0 only: each 4D degree above 0 costs
# several seconds, which would leave too few passes in a run.
SPECTRAL_GRIDS = {
    "full": {(2, 256): (0, 1, 2), (3, 64): (0, 1, 2, 3), (4, 32): (0,)},
    "smoke": {(2, 64): (0, 1), (3, 16): (0, 1)},
}
SPHERE_MAPS = {"full": ((1, 2, 4), 256), "smoke": ((1, 2), 128)}


def _rel(tr, diff, ref) -> float:
    return tr.call("bands", bands.lp_norm, diff, "inf") / max(
        tr.call("bands", bands.lp_norm, ref, "inf"), 1e-300
    )


def _band_job(tr, d: int, N: int, p: int, seed: int) -> None:
    tag = f"{d}D N={N} p={p}"
    part = tr.call("bands", bands.build_partition, d, N, 1.0)
    a = tr.call("bands", bands.bandlimited_noise_form, d, p, N, 1.0, radius=N / 2.5, seed=seed)

    pieces = tr.call("bands", bands.band_decompose, a, part)
    total = sum(piece.data for piece in pieces.values())
    recon = float(np.max(np.abs(total - a.data)) / np.max(np.abs(a.data)))
    del pieces, total
    _check(recon < 1e-10, f"{tag}: reconstruction error {recon:.2e}")

    prof = tr.call("bands", bands.band_profile, a, part)
    ortho = prof.orthogonality_ratio()
    _check_finite([prof.l1, prof.l2, prof.linf, prof.total_l2], tag)
    _check(0.1 <= ortho <= 1.0, f"{tag}: orthogonality ratio {ortho:.3f}")

    k_mid = part.bands[len(part.bands) // 2]
    if p < d:
        da = tr.call("bands", bands.exterior_derivative, a)
        if p + 1 < d:
            dd = _rel(tr, tr.call("bands", bands.exterior_derivative, da), da)
            _check(dd < 1e-10, f"{tag}: |dd a| / |da| = {dd:.2e}")
        left = tr.call("bands", bands.exterior_derivative, tr.call("bands", bands.project_band, a, k_mid, part))
        right = tr.call("bands", bands.project_band, da, k_mid, part)
        commute = _rel(tr, left - right, da)
        _check(commute < 1e-10, f"{tag}: commutator {commute:.2e}")
        # right = P_k(da) is exact, closed and mean-free: primitive inverts d
        prim = tr.call("bands", bands.primitive, right, band=k_mid, part=part)
        inv = _rel(tr, tr.call("bands", bands.exterior_derivative, prim) - right, right)
        _check(inv < 1e-10, f"{tag}: |d primitive - id| {inv:.2e}")

    if 2 * p <= d:
        # band-k factors multiply into the ball of radius 2^(k+2)
        k_sup = int(math.log2(N)) - 4
        b = tr.call(
            "bands", bands.bandlimited_noise_form, d, p, N, 1.0, radius=N / 2.5, seed=seed + 1
        )
        pa = tr.call("bands", bands.project_band, a, k_sup, part)
        pb = tr.call("bands", bands.project_band, b, k_sup, part)
        prod = tr.call("bands", bands.wedge_grid, pa, pb)
        radius = tr.call("bands", bands.product_support_radius, pa, pb)
        lattice = tr.call("bands", bands.spectral_support, prod, 1e-10)
        reach = float(np.sqrt((lattice.astype(float) ** 2).sum(axis=1)).max()) if len(lattice) else 0.0
        cap = 2.0 ** (k_sup + 2)
        _check(
            radius <= cap and reach <= radius + 1e-9,
            f"{tag}: support radius {radius:.2f}, product reach {reach:.2f}, cap {cap}",
        )


def _sphere_job(tr, d: int, N: int) -> None:
    f = tr.call("construct", construct.sphere_map, d, N)
    top = tr.call("degbound", degbound.pullback_area_form, f)
    deg = tr.call("degbound", degbound.degree_integral, top)
    _check(abs(deg - d * d) < 1e-5, f"sphere map d={d}: degree {deg!r}, want {d * d}")


def spectral(tr, seed: int, size: str) -> list:
    jobs = []
    for (d, N), degrees in SPECTRAL_GRIDS[size].items():
        for p in degrees:
            job_seed = derive_seed(seed, "noise", d, N, p)
            jobs.append((f"bands:{d}D/{N}/p{p}", partial(_band_job, tr, d, N, p, job_seed)))
    ds, N = SPHERE_MAPS[size]
    for d in ds:
        jobs.append((f"sphere:d={d}", partial(_sphere_job, tr, d, N)))
    return jobs


# -- pipeline ----------------------------------------------------------------

# grid size, layers, and the log2 scale sweep that re-profiles the grid
PIPELINE = {"full": (32, 3, (6, 7)), "smoke": (16, 2, (4, 5))}


def run_cli(tr, argv: list) -> tuple:
    """``lipdeg.cli.main`` in-process; returns (exit code, stdout JSON or None, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = tr.call("cli", cli.main, argv)
    tr.count("cli_exit1", int(code == 1))
    payload = json.loads(out.getvalue()) if out.getvalue() else None
    if payload is not None:
        _check_finite(payload, " ".join(argv[:1]))
    return code, payload, err.getvalue()


def _cli_ok(tr, argv: list) -> dict:
    code, payload, err = run_cli(tr, argv)
    _check(code == 0 and payload is not None, f"lipdeg {' '.join(argv)}: exit {code} {err.strip()}")
    return payload


def _same_profile(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(math.isclose(a[k], b[k], rel_tol=1e-12) for k in a)


def _request_error(l1: dict, requested: dict) -> float:
    return max(abs(l1[str(k)] - m) / m for k, m in requested.items())


def _synth_job(tr, work: Path, N: int, levels: int, seed: int, state: dict) -> None:
    """The CLI path: synth writes the container that profile and bound read."""
    out = work / "cli"
    syn = _cli_ok(tr, ["synth", "--levels", str(levels), "--resolution", str(N),
                       "--seed", str(seed), "--out", str(out)])
    grid = out / "ensemble.gfrm"
    _check(syn["closedness"] < 1e-9, f"synth closedness {syn['closedness']:.2e}")
    ens = syn["ensemble"]
    err = _request_error(ens["l1"], {int(k): v for k, v in ens["requested"].items()})
    _check(err < 0.05, f"synth profile request error {err:.4f}")
    _check(str(grid) in syn["artifacts"] and grid.is_file(), "synth wrote no grid container")
    state["synth"] = (out, grid, ens["l1"])


def _profile_cli_job(tr, state: dict) -> None:
    out, grid, l1 = state["synth"]
    prof = _cli_ok(tr, ["profile", "--input", str(grid), "--out", str(out)])
    _check(_same_profile(prof["l1"], l1), "profile of the stored grid differs from synth's")


def _bound_grid_job(tr, sweep: tuple, state: dict) -> None:
    out, grid, _ = state["synth"]
    lo, hi = sweep
    bound = _cli_ok(tr, ["bound", "--gridform", str(grid), "--sweep", str(lo), str(hi)])
    stored = tr.call("gridio", gridio.read_band_profile, out / "profile.csv")
    for row in bound["sweep"]:
        rep = tr.call("degbound", degbound.averaged_bound, [stored], 2.0 ** row["log2_L"])
        _check(
            math.isclose(rep.final_bound, row["final_bound"], rel_tol=1e-12),
            f"bound at L=2^{row['log2_L']}: {row['final_bound']!r} vs {rep.final_bound!r}",
        )


def _layered_job(tr, N: int, levels: int, seed: int, state: dict) -> None:
    """The library path: construct the ensemble that the next job stores."""
    ens = tr.call("construct", construct.layered_profile, 2, levels, 1.0, N=N, seed=seed)
    closed = _rel(tr, tr.call("bands", bands.exterior_derivative, ens.ensemble), ens.ensemble)
    _check(closed < 1e-9, f"ensemble closedness {closed:.2e}")
    err = _request_error({str(k): v for k, v in ens.profile.l1.items()}, ens.requested)
    _check(err < 0.05, f"ensemble profile request error {err:.4f}")
    state["layered"] = ens


def _gridio_job(tr, work: Path, state: dict) -> None:
    form = state["layered"].ensemble
    grid = work / "library.gfrm"
    tr.call("gridio", gridio.write_gridform, grid, form)
    back = tr.call("gridio", gridio.read_gridform, grid)
    tr.count("gridio_bytes", 2 * grid.stat().st_size)
    _check(np.array_equal(back.data, form.data), "GFRM round trip changed the grid")


def _bound_uniform_job(tr) -> None:
    res = _cli_ok(tr, ["bound", "--sweep", "10", "20", "--uniform"])
    slope = res["fitted_polylog_exponent"]
    _check(abs(slope + 0.5) <= 0.1, f"uniform polylog exponent {slope:.3f}")


def _bound_gap_job(tr) -> None:
    L = 2.0**20
    res = _cli_ok(tr, ["bound", "--scale", str(int(L)), "--gap", "0.3", "0.6"])
    _check(res["report"]["final_bound"] <= L**3.8, "gap bound above L^3.8")


def _plan_job(tr) -> None:
    res = _cli_ok(tr, ["plan", "--p", "2", "--levels", "20", "--degree-count", "2"])
    plan = tr.call("construct", construct.recursion_plan, 2, 20, 2)
    _check(res["plan"] == json.loads(json.dumps(plan.to_json_dict())), "CLI plan differs from recursion_plan")
    cap = plan.envelope_constant
    ok = all(
        plan.bounds_by_level[t] / (t * 2.0**t) <= cap * (1.0 + 1e-12) for t in range(1, 21)
    )
    _check(ok, "plan leaves its envelope")


def _exponent_cli_job(tr) -> None:
    res = _cli_ok(tr, ["exponent", "--preset", "s3-bundle"])
    got = (res["exponent"]["degree_exponent_rational"], res["weights"]["alpha"], res["weights"]["multiplicity"])
    _check(got == ("20/3", "3/5", 1), f"exponent CLI gives {got}")


def _cp2_job(tr) -> None:
    """CP2 is scalable.  Until its presentation is supported the CLI must
    refuse it the documented way: exit 1 with one JSON line on stderr."""
    code, payload, err = run_cli(tr, ["scalable", "--preset", "CP2"])
    if code == 0:
        _check(payload["verdict"]["status"] == "scalable", f"CP2 verdict {payload['verdict']['status']}")
        return
    lines = err.strip().splitlines()
    _check(
        code == 1 and len(lines) == 1 and json.loads(lines[0])["error"] == "UnsupportedPresentation",
        f"CP2: exit {code}, stderr {err.strip()!r}",
    )


def pipeline(tr, seed: int, size: str, work: Path) -> list:
    N, levels, sweep = PIPELINE[size]
    state = {}  # outputs that later jobs of the same pass read
    return [
        ("synth:cli", partial(_synth_job, tr, work, N, levels, derive_seed(seed, "ensemble", 0), state)),
        ("profile:cli", partial(_profile_cli_job, tr, state)),
        ("bound:gridform", partial(_bound_grid_job, tr, sweep, state)),
        ("layered:library", partial(_layered_job, tr, N, levels, derive_seed(seed, "ensemble", 1), state)),
        ("gridio:roundtrip", partial(_gridio_job, tr, work, state)),
        ("bound:uniform", partial(_bound_uniform_job, tr)),
        ("bound:gap", partial(_bound_gap_job, tr)),
        ("plan", partial(_plan_job, tr)),
        ("exponent", partial(_exponent_cli_job, tr)),
        ("scalable:CP2", partial(_cp2_job, tr)),
    ]
