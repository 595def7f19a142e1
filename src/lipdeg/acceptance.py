"""Deterministic acceptance battery: one runnable check per shipped guarantee.

Each criterion function returns a CriterionResult whose details are pure
numbers (no wall times, no environment data), so a verify run serializes
to byte-identical JSON for a fixed seed and level.  level="quick" shrinks
grid sizes and restart counts for smoke runs; level="full" runs the sizes
the guarantees are stated at.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .bands import (
    BandProfile,
    GridForm,
    _stream_profile,
    band_fields,
    bandlimited_noise_form,
    closedness,
    exterior_derivative,
    lp_norm,
    primitive,
    product_support_radius,
    project_band,
    spectral_support,
    wedge_grid,
)
from .construct import layered_profile, recursion_plan, sphere_map
from .degbound import (
    averaged_bound,
    degree_integral,
    fit_polylog_exponent,
    pullback_area_form,
    spectral_gap_profile,
    uniform_layer_profile,
)
from .exterior import JsonFields, jsonable, signature_exact, wedge_pairing_matrix
from .rings import (
    intersection_form,
    lipschitz_lower_exponent,
    positive_weight_exponents,
    preset_cohomology_action,
    preset_presentations,
    preset_weights,
)
from .scalability import (
    SearchConfig,
    check_middle_form,
    kge4_certificate,
    search_embedding,
)


@dataclass(frozen=True)
class CriterionResult(JsonFields):
    number: int
    name: str
    passed: bool
    details: dict

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        summary = self.details.get("summary", "")
        return f"criterion {self.number:2d} [{tag}] {self.name}: {summary}"


def criterion_1(level: str = "full", seed: int = 0) -> CriterionResult:
    """Wedge-pairing signatures in the exact rational mode."""
    sig4 = signature_exact(wedge_pairing_matrix(4, 2))
    sig8 = signature_exact(wedge_pairing_matrix(8, 4))
    ok = tuple(sig4) == (3, 3, 0) and tuple(sig8) == (35, 35, 0)
    return CriterionResult(
        1,
        "wedge_signature",
        ok,
        {
            "middle_form_dim4": list(sig4),
            "middle_form_dim8": list(sig8),
            "summary": f"dim4 ({sig4.pos},{sig4.neg}), "
            f"dim8 ({sig8.pos},{sig8.neg})",
        },
    )


def criterion_2(level: str = "full", seed: int = 0) -> CriterionResult:
    """Sum-of-squares verdicts: scalable iff at most three summands."""
    restarts = 100 if level == "full" else 20
    defects = {}
    statuses = {}
    for k in (1, 2, 3, 4):
        pres = preset_presentations("Xk", k=k)
        cfg = SearchConfig(restarts=restarts if k == 4 else SearchConfig.restarts, seed=seed)
        res = search_embedding(pres, [4], cfg)
        defects[k] = res.defect
        statuses[k] = check_middle_form(intersection_form(pres), 2, cfg).status
    ok = (
        all(defects[k] < 1e-6 for k in (1, 2, 3))
        and defects[4] > 1e-2
        and all(statuses[k] == "scalable" for k in (1, 2, 3))
        and statuses[4] == "not_scalable"
    )
    return CriterionResult(
        2,
        "scalability_verdicts",
        ok,
        {
            "defects": defects,
            "statuses": statuses,
            "restarts_k4": restarts,
            "summary": f"defects k<=3 max {max(defects[k] for k in (1, 2, 3)):.2e}, "
            f"k=4 floor {defects[4]:.4f}",
        },
    )


def criterion_3(level: str = "full", seed: int = 0) -> CriterionResult:
    """Self-dual triple falsifies the pairing estimate below four factors."""
    rep = kge4_certificate(samples=10, seed=seed, k=3)
    ok = (
        rep.status == "counterexample"
        and abs(rep.lhs - 1.0) <= 1e-12
        and abs(rep.rhs) <= 1e-12
    )
    return CriterionResult(
        3,
        "selfdual_falsification",
        ok,
        {
            "status": rep.status,
            "lhs": rep.lhs,
            "rhs": rep.rhs,
            "summary": f"k=3 triple gives lhs {rep.lhs}, rhs {rep.rhs}",
        },
    )


def lp_battery(a: GridForm) -> tuple:
    """(recon error, commutator error, middle band, band profile) of one form.

    Reconstruction compares the sum of all band projections with the form;
    the commutator compares d P_k a with P_k d a at the middle band k, both
    relative to the form's (or its derivative's) sup norm.  The profile is
    read off the same band stream that the reconstruction sums.
    """
    total = np.zeros_like(a.data)

    def summed():
        for k, c, fld in band_fields(a):
            total[c] += fld
            yield k, c, fld
            del fld  # free it before the stream computes the next field

    profile = _stream_profile(a, summed())
    np.subtract(total, a.data, out=total)
    # a float64 quotient: a zero form gives NaN, not ZeroDivisionError
    recon = float(np.float64(lp_norm(a.copy_with(total), "inf")) / lp_norm(a, "inf"))
    del total
    k_mid = profile.bands[len(profile.bands) // 2]
    da = exterior_derivative(a)
    scale = max(lp_norm(da, "inf"), 1e-300)
    right = project_band(da, k_mid)
    del da  # only its sup norm and band k_mid are needed below
    left = exterior_derivative(project_band(a, k_mid))
    np.subtract(left.data, right.data, out=left.data)
    commute = float(lp_norm(left, "inf") / scale)
    return recon, commute, k_mid, profile


def criterion_4(level: str = "full", seed: int = 0) -> CriterionResult:
    """Band-calculus battery across dimensions and resolutions."""
    if level == "full":
        cases = [(d, N) for d in (2, 3, 4) for N in (32, 64)]
    else:
        cases = [(2, 32), (3, 32)]
    worst = {"recon": 0.0, "commute": 0.0}
    ortho = {}
    support_ok = True
    for d, N in cases:
        a = bandlimited_noise_form(d, 0, N, 1.0, radius=N / 2.5, seed=seed + d)
        recon, commute, _, profile = lp_battery(a)
        worst["recon"] = max(worst["recon"], recon)
        worst["commute"] = max(worst["commute"], commute)
        ortho[f"{d}x{N}"] = profile.orthogonality_ratio()

        # product support: band-k factors multiply into radius 2^(k+2),
        # checked on the integer frequency lattice
        k_sup = int(math.log2(N)) - 4
        b = bandlimited_noise_form(
            d, 0, N, 1.0, radius=N / 2.5, seed=seed + 17 * d
        )
        pa = project_band(a, k_sup)
        pb = project_band(b, k_sup)
        prod = wedge_grid(pa, pb)
        radius = product_support_radius(pa, pb)
        lattice = spectral_support(prod, 1e-10)
        lattice_max = float(np.linalg.norm(lattice, axis=1).max()) if len(lattice) else 0.0
        cap = 2.0 ** (k_sup + 2)
        support_ok = support_ok and radius <= cap and lattice_max <= cap
        del a, b, pa, pb, prod
    ok = (
        worst["recon"] < 1e-10
        and worst["commute"] < 1e-10
        and all(0.1 <= r <= 1.0 for r in ortho.values())
        and support_ok
    )
    return CriterionResult(
        4,
        "lp_battery",
        ok,
        {
            "cases": [f"{d}x{N}" for d, N in cases],
            "worst_reconstruction": worst["recon"],
            "worst_commutator": worst["commute"],
            "orthogonality": ortho,
            "support_within_cap": support_ok,
            "summary": f"recon {worst['recon']:.1e}, commute {worst['commute']:.1e}, "
            f"ortho in [{min(ortho.values()):.2f}, {max(ortho.values()):.2f}]",
        },
    )


def criterion_5(level: str = "full", seed: int = 0) -> CriterionResult:
    """Primitive norm gain of one dyadic factor per band."""
    N = 256 if level == "full" else 128
    trials = 20 if level == "full" else 8
    ks = list(range(3, int(math.log2(N)) - 1))
    xs, ys = [], []
    for trial in range(trials):
        u = bandlimited_noise_form(
            2, 0, N, 1.0, radius=N / 2.5, seed=seed + 1000 + trial
        )
        a = exterior_derivative(u)
        for k in ks:
            pk = project_band(a, k)
            n2 = lp_norm(pk, 2)
            if n2 <= 1e-300:
                continue
            pr = primitive(pk, band=k)
            xs.append(float(k))
            ys.append(math.log2(lp_norm(pr, 2) / n2))
    slope = float(np.polyfit(xs, ys, 1)[0])
    ok = abs(slope + 1.0) <= 0.1
    return CriterionResult(
        5,
        "primitive_rate",
        ok,
        {
            "slope": slope,
            "bands": ks,
            "trials": trials,
            "summary": f"slope {slope:.4f} over k in [{ks[0]}, {ks[-1]}]",
        },
    )


def criterion_6(level: str = "full", seed: int = 0) -> CriterionResult:
    """Realized sphere maps: integer degree and linear Lipschitz growth."""
    N = 256 if level == "full" else 128
    ds = (1, 2, 4) if level == "full" else (1, 2)
    errs = {}
    ratios = {}
    for d in ds:
        f = sphere_map(d, N)
        errs[d] = abs(degree_integral(pullback_area_form(f)) - d * d)
        ratios[d] = f.lipschitz / d
    spread = max(ratios.values()) / min(ratios.values())
    ok = all(e < 1e-5 for e in errs.values()) and spread <= 2.0
    return CriterionResult(
        6,
        "sphere_degree",
        ok,
        {
            "degree_errors": errs,
            "lipschitz_over_d": ratios,
            "ratio_spread": spread,
            "summary": f"max degree error {max(errs.values()):.1e}, "
            f"Lip/d spread {spread:.3f}",
        },
    )


def criterion_7(level: str = "full", seed: int = 0) -> CriterionResult:
    """Recursion plans track their stated envelopes."""
    band = recursion_plan(2, 20, 2).normalized_bounds
    factor = max(band) / min(band)
    envelope_ok = True
    growth_ok = True
    for p in (2, 3):
        for d in (1, 2, 3):
            plan = recursion_plan(p, 20, d)
            cap = plan.envelope_constant * (1.0 + 1e-12)
            envelope_ok = envelope_ok and all(r <= cap for r in plan.normalized_bounds)
            if d <= 2:
                # the per-stage reduction multiplies the bound by at most
                # 2p; for d = 3 the polynomial factor alone gives 4p at
                # the second level, so the ratio claim is a d <= 2 fact
                rates = plan.growth_rates()
                growth_ok = growth_ok and all(
                    r <= 2.0 * p + 1e-9 for r in rates[1:]
                )
    ok = factor <= 4.0 and envelope_ok and growth_ok
    return CriterionResult(
        7,
        "recursion_plan",
        ok,
        {
            "warmup_band_factor": factor,
            "envelope_ok": envelope_ok,
            "growth_ok": growth_ok,
            "summary": f"warmup band factor {factor:.3f}, envelope and "
            f"growth checks {'hold' if envelope_ok and growth_ok else 'FAIL'}",
        },
    )


def criterion_8(level: str = "full", seed: int = 0) -> CriterionResult:
    """Worst-case profile exponents at desk scale."""
    samples = []
    for e in range(10, 21):
        L = 2.0**e
        rep = averaged_bound([uniform_layer_profile(L)], L)
        samples.append((L, rep.averaged_cross))
    slope = fit_polylog_exponent(samples)
    L = 2.0**20
    gap = averaged_bound([spectral_gap_profile(L, 0.3, 0.6)], L)
    gap_ratio = gap.final_bound / L**3.8
    ok = abs(slope + 0.5) <= 0.1 and gap.final_bound <= L**3.8
    return CriterionResult(
        8,
        "worst_case_exponents",
        ok,
        {
            "polylog_slope": slope,
            "gap_bound_over_L3.8": gap_ratio,
            "summary": f"polylog slope {slope:.3f}, gap bound "
            f"{gap_ratio:.3f} * L^3.8",
        },
    )


def _scaled_profile(prof: BandProfile, c: float) -> BandProfile:
    """Profile of c*a given the profile of a (all norms are 1-homogeneous)."""
    return BandProfile(
        bands=prof.bands,
        l1={k: c * v for k, v in prof.l1.items()},
        l2={k: c * v for k, v in prof.l2.items()},
        linf={k: c * v for k, v in prof.linf.items()},
        per_component={
            key: tuple(c * x for x in val)
            for key, val in prof.per_component.items()
        },
        total_l2=c * prof.total_l2,
    )


def criterion_9(level: str = "full", seed: int = 0) -> CriterionResult:
    """End-to-end: synthesize layered ensembles, measure, bound."""
    if level == "full":
        N, levels = 64, 4
    else:
        N, levels = 32, 3
    ens = layered_profile(2, levels, 1.0, N=N, seed=seed + 3)
    closed = closedness(ens.ensemble)
    request_err = max(
        abs(ens.profile.l1[k] - m) / m for k, m in ens.requested.items()
    )
    bounds = {}
    for e in (4, 6, 8, 10):
        L = 2.0**e
        prof = _scaled_profile(ens.profile, L**2)
        rep = averaged_bound([prof], L)
        bounds[e] = rep.final_bound / L**4
    ok = (
        closed < 1e-9
        and request_err < 0.05
        and all(v < 1.0 for v in bounds.values())
    )
    return CriterionResult(
        9,
        "end_to_end_pipeline",
        ok,
        {
            "grid": N,
            "layers": levels,
            "closedness": closed,
            "profile_request_error": request_err,
            "bound_over_L4": bounds,
            "summary": f"closedness {closed:.1e}, profile error "
            f"{request_err:.4f}, max bound {max(bounds.values()):.3f} * L^4",
        },
    )


def criterion_10(level: str = "full", seed: int = 0) -> CriterionResult:
    """Growth exponents of the 7-manifold presets, exact arithmetic."""
    rep = lipschitz_lower_exponent(preset_cohomology_action("s3-bundle"))
    alpha, mult = positive_weight_exponents(preset_weights("s3-bundle"))
    ok = rep.degree_exponent_rational == Fraction(20, 3) and (
        alpha,
        mult,
    ) == (Fraction(3, 5), 1)
    return CriterionResult(
        10,
        "growth_exponents",
        ok,
        {
            "degree_exponent": rep.degree_exponent_rational,
            "weight_alpha": alpha,
            "weight_multiplicity": mult,
            "summary": f"degree exponent {rep.degree_exponent_rational}, "
            f"weights ({alpha}, {mult})",
        },
    )


def criterion_11(level: str = "full", seed: int = 0) -> CriterionResult:
    """In-process determinism: stochastic runners repeat byte-identically.

    The cross-process guarantee (two `verify` invocations with one seed
    produce byte-identical JSON) is exercised by the CLI test suite; this
    criterion re-runs the seeded stochastic checks twice in-process and
    compares their serialized output.
    """
    first = [criterion_2("quick", seed), criterion_5("quick", seed)]
    second = [criterion_2("quick", seed), criterion_5("quick", seed)]
    blob_a = json.dumps(jsonable(first), sort_keys=True)
    blob_b = json.dumps(jsonable(second), sort_keys=True)
    ok = blob_a == blob_b
    return CriterionResult(
        11,
        "determinism",
        ok,
        {
            "bytes": len(blob_a),
            "identical": ok,
            "summary": f"repeated stochastic runs serialize to "
            f"{'identical' if ok else 'DIFFERENT'} JSON ({len(blob_a)} bytes)",
        },
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all(level: str = "full", seed: int = 0) -> dict:
    """Run the full battery; ``jsonable`` of the result is deterministic."""
    results = [fn(level, seed) for fn in CRITERIA]
    return {
        "level": level,
        "seed": seed,
        "criteria": results,
        "all_passed": all(r.passed for r in results),
    }
