"""Degree bounds from band-limited analysis of pulled-back forms.

The pipeline in this module turns sampled maps and closed-form ensembles
into degree estimates:

* ``pullback_area_form`` / ``degree_integral`` compute mapping degrees by
  integrating the pulled-back normalized area form;
* ``relation_primitives`` and ``low_band_relation_check`` quantify how
  well the ensemble satisfies its ring relations band by band, through
  primitives of the relation forms;
* ``finalbound_terms`` / ``averaged_bound`` evaluate the three-term
  cutoff estimate (high-frequency, low-band relation, cross terms) and
  its cutoff-averaged Cauchy-Schwarz refinement, including the polylog
  exponent fit over a scale sweep;
* ``nullstellensatz_bound`` evaluates the certificate-exponent variant,
  and ``ball_extension`` provides the radial extension used to localize
  degree counts to a ball.

All implicit inequality constants are set to 1 and the terms are
reported separately, so callers see the exponent structure rather than
tuned prefactors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping, Optional, Sequence, Union

import numpy as np

from .bands import (
    BandProfile,
    DyadicPartition,
    GridForm,
    _smooth_step,
    build_partition,
    exterior_derivative,
    gradient_kernels,
    grid_axes,
    lp_norm,
    primitive,
    project_band,
    project_upto,
    synthetic_profile,
    wedge_grid,
    zero_form,
)
from .construct import SampledSphereMap
from .errors import (
    BandRangeError,
    DimensionMismatch,
    EmptyData,
    GeometryError,
    NotExact,
    ParameterError,
    ShapeError,
    WindowError,
)
from .exterior import JsonFields
from .rings import RingPresentation, relation_value, word_value

__all__ = [
    "PullbackEnsemble",
    "BoundReport",
    "RelationBandCheck",
    "pullback_area_form",
    "degree_integral",
    "bump_cutoff",
    "relation_primitives",
    "low_band_relation_check",
    "finalbound_terms",
    "averaged_bound",
    "fit_polylog_exponent",
    "uniform_layer_profile",
    "spectral_gap_profile",
    "allfreq_exponent",
    "nullstellensatz_bound",
    "ball_extension",
]


# -- stencil derivatives ---------------------------------------------------------

_STENCILS = {
    2: np.array([-0.5, 0.0, 0.5]),
    4: np.array([1 / 12, -2 / 3, 0.0, 2 / 3, -1 / 12]),
    6: np.array([-1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60]),
}


def _stencil_derivative(values: np.ndarray, axis: int, h: float, order: int):
    coeffs = _STENCILS[order]
    half = len(coeffs) // 2
    out = np.zeros_like(values)
    for off, c in zip(range(-half, half + 1), coeffs):
        if c != 0.0:
            out += c * np.roll(values, -off, axis=axis)
    return out / h


# -- degree integrals ------------------------------------------------------------


def pullback_area_form(f: SampledSphereMap, order: int = 6) -> GridForm:
    """Discrete pullback of the normalized sphere area form.

    Cell density (1/4pi) f . (df/du x df/dv) from centered periodic
    stencils (order 2, 4, or 6); integrating the result over the square
    recovers the mapping degree.
    """
    if order not in _STENCILS:
        raise ParameterError(f"stencil order must be one of {sorted(_STENCILS)}")
    N = f.resolution
    if N < 8:
        raise ParameterError("resolution must be at least 8")
    norms = np.sqrt((f.values**2).sum(axis=0))
    if float(np.max(np.abs(norms - 1.0))) > 1e-9:
        raise GeometryError("samples are not unit vectors")
    h = 1.0 / N
    fu = _stencil_derivative(f.values, axis=1, h=h, order=order)
    fv = _stencil_derivative(f.values, axis=2, h=h, order=order)
    density = (f.values * np.cross(fu, fv, axis=0)).sum(axis=0) / (4.0 * np.pi)
    out = zero_form(2, 2, N, 1.0)
    out.data[0] = density
    return out


def degree_integral(top: GridForm, psi: Optional[GridForm] = None) -> float:
    """Riemann sum of psi times a top-degree form (psi omitted = 1)."""
    if top.form_degree != top.spatial_dim:
        raise ShapeError(
            f"need a top-degree form, got degree {top.form_degree} "
            f"in dimension {top.spatial_dim}"
        )
    cell = (top.period / top.resolution) ** top.spatial_dim
    if psi is None:
        return float(top.data[0].sum() * cell)
    if psi.form_degree != 0:
        raise ShapeError("weight must be a 0-form")
    if not psi.same_grid(top):
        raise DimensionMismatch("weight lives on a different grid")
    if float(psi.data[0].min()) < -1e-12:
        raise GeometryError("weight must be nonnegative")
    return float((psi.data[0] * top.data[0]).sum() * cell)


def bump_cutoff(d: int, N: int, T: float = 1.0, margin: float = 0.25) -> GridForm:
    """Smooth tensor-product bump: 1 on the center block, 0 near the seam.

    Each axis factor ramps smoothly from 0 at the seam to 1 on
    [margin*T, (1-margin)*T]; the product is a valid localization weight
    whose derivative is supported in the ramp collars.
    """
    if not 0.0 < margin < 0.5:
        raise ParameterError("margin must lie in (0, 1/2)")
    out = zero_form(d, 0, N, T)
    vals = np.ones((N,) * d)
    for axis, x in enumerate(grid_axes(d, N, T)):
        t = np.minimum(x, T - x) / (margin * T)
        vals = vals * _smooth_step(t)
    out.data[0] = vals
    return out


# -- ensembles and relation checks ------------------------------------------------


@dataclass(frozen=True)
class PullbackEnsemble:
    """Closed 2-forms with a localization weight and optional primitives.

    forms are the per-generator closed 2-forms (all on one grid), scale
    is the nominal Lipschitz budget L they were built for, psi the
    nonnegative localization 0-form.  primitives, when present, map
    relation names to 3-forms g_r with d g_r = R_r(forms).
    """

    forms: tuple
    scale: float
    psi: GridForm
    primitives: Optional[Mapping] = None
    primitive_norms: Optional[Mapping] = None

    def __post_init__(self):
        if not self.forms:
            raise EmptyData("ensemble needs at least one form")
        base = self.forms[0]
        for a in self.forms:
            if not a.same_grid(base):
                raise DimensionMismatch("ensemble forms live on different grids")
            if a.form_degree != 2:
                raise ShapeError("ensemble forms must be 2-forms")
        if self.psi.form_degree != 0 or not self.psi.same_grid(base):
            raise ShapeError("psi must be a 0-form on the ensemble grid")
        if self.scale <= 0:
            raise ParameterError("scale must be positive")

    def validate_closedness(self, tol: float = 1e-8) -> float:
        worst = 0.0
        for a in self.forms:
            da = exterior_derivative(a)
            scale = max(lp_norm(a, "inf"), 1e-300)
            worst = max(worst, lp_norm(da, "inf") / scale)
        if worst > tol:
            raise NotExact(f"ensemble forms are not closed: residual {worst:.3e}")
        return worst


def _forms_by_name(E: PullbackEnsemble, P: RingPresentation) -> dict:
    gens = [g for g, _ in P.generators]
    if len(gens) != len(E.forms):
        raise DimensionMismatch(
            f"presentation has {len(gens)} generators, ensemble {len(E.forms)} forms"
        )
    return dict(zip(gens, E.forms))


def relation_primitives(
    E: PullbackEnsemble, P: RingPresentation, tol: float = 1e-6
) -> PullbackEnsemble:
    """Attach primitives g_r with d g_r = R_r(forms) to the ensemble.

    Each relation form is a top-degree (hence closed) combination of
    wedge products; it admits a primitive exactly when its mean
    vanishes, i.e. when the relation holds in cohomology.  A mean beyond
    tol (relative to the form's size) raises; a tiny numerical mean is
    removed before inverting d.
    """
    named = _forms_by_name(E, P)
    prims, norms = {}, {}
    for rel in P.relations:
        form = relation_value(rel, named, wedge_grid)
        cell = (form.period / form.resolution) ** form.spatial_dim
        mean = float(form.data[0].sum() * cell / form.period**form.spatial_dim)
        size = max(lp_norm(form, "inf"), 1e-300)
        if abs(mean) > tol * max(size, 1.0):
            raise NotExact(
                f"relation {rel.name} has nonzero mean {mean:.3e}: "
                "it fails in cohomology, no primitive exists"
            )
        form = form.copy_with(form.data - np.asarray(mean).reshape((1,) * form.data.ndim))
        if lp_norm(form, "inf") <= 1e-14:
            g = zero_form(form.spatial_dim, form.form_degree - 1,
                          form.resolution, form.period)
        else:
            g = primitive(form)
        check = exterior_derivative(g) - form
        if lp_norm(check, "inf") > 1e-7 * max(size, 1.0):
            raise NotExact(
                f"primitive for relation {rel.name} failed verification"
            )
        prims[rel.name] = g
        norms[rel.name] = lp_norm(g, "inf")
    return replace(E, primitives=prims, primitive_norms=norms)


@dataclass(frozen=True)
class RelationBandCheck:
    low_norm: float  # sup of the lowpassed relation form
    dyadic_ratio: float  # low_norm / (2^k * sup g_r)
    kernel_ratio: float  # low_norm / (grad-kernel L1 * sup g_r), <= 1 by Young


def low_band_relation_check(
    E: PullbackEnsemble,
    P: RingPresentation,
    k: int,
    part: Optional[DyadicPartition] = None,
) -> dict:
    """Per-relation sup norms of P_{<=k} R_r(a) against the 2^k g_r scale.

    The identity P_{<=k} d g_r = (d K_{<=k}) * g_r bounds the lowpassed
    relation form by the L1 mass of the gradient lowpass kernel times
    the primitive's sup; kernel_ratio reports the sharpness of that
    bound (Young's inequality keeps it at most 1 up to the form's
    component count), dyadic_ratio the classical 2^k-scaled version.
    """
    if E.primitives is None:
        raise EmptyData("attach primitives first (relation_primitives)")
    base = E.forms[0]
    part = part or build_partition(base.spatial_dim, base.resolution, base.period)
    named = _forms_by_name(E, P)
    # L1 mass of the lowpass kernel's gradient, summed over axes
    grad_l1 = sum(
        float(np.abs(g).sum())
        for g in gradient_kernels(part, part.lowpass_multiplier(k))
    )
    out = {}
    for rel in P.relations:
        form = relation_value(rel, named, wedge_grid)
        low = project_upto(form, k, part)
        low_norm = lp_norm(low, "inf")
        gnorm = E.primitive_norms[rel.name]
        if gnorm <= 1e-13 and low_norm <= 1e-10:
            out[rel.name] = RelationBandCheck(low_norm, 0.0, 0.0)
            continue
        denom = max(gnorm, 1e-300)
        out[rel.name] = RelationBandCheck(
            low_norm=low_norm,
            dyadic_ratio=low_norm / (2.0**k * denom),
            kernel_ratio=low_norm / (grad_l1 * denom),
        )
    return out


# -- the three-term bound ----------------------------------------------------------


@dataclass(frozen=True)
class BoundReport(JsonFields):
    scale: float
    window: tuple  # (low cutoff, high cutoff), inclusive dyadic exponents
    per_cutoff: dict  # cutoff -> (T_high, T_low, T_cross)
    chosen_cutoff: int
    final_bound: float  # min over cutoffs of the term sum
    averaged: float  # cutoff-averaged Cauchy-Schwarz bound
    averaged_cross: float  # the Cauchy-Schwarz cross component alone
    averaged_highlow: float  # the window-endpoint component (scales ~ L^3.9)


def _profile_bands(profile: BandProfile):
    return [(k, profile.l1.get(k, 0.0)) for k in profile.bands]


def _tail_mode(profile: BandProfile, tail: str, L: float) -> str:
    """Resolve the beyond-last-band convention for one profile.

    Grid-measured profiles (they carry sup norms) cover every
    representable frequency, and synthetic profiles whose bands already
    reach the target scale describe a complete spectrum; in both cases
    the series genuinely ends.  A synthetic profile truncated short of
    the scale is an incomplete description and gets the safe held tail.
    """
    if tail != "auto":
        return tail
    if profile.linf:
        return "zero"
    return "zero" if profile.bands[-1] >= math.floor(math.log2(L)) else "hold"


# the high-frequency term L^4 stays inside float64 below this scale
_MAX_SCALE = 2.0**256


def finalbound_terms(
    profiles: Sequence[BandProfile],
    L: float,
    cutoff: int,
    tail: str = "auto",
) -> tuple:
    """The three cutoff terms (T_high, T_low, T_cross), constants 1.

    T_high = 2^-cutoff L^4 (high-frequency remainder), T_low =
    2^cutoff L^3 (low-band relation term), T_cross the geometric sum of
    band L1 masses above the cutoff.  tail controls the series beyond
    the last profiled band: "hold" adds a remainder that keeps the last
    mass for all further bands (safe for truncated synthetic profiles),
    "zero" ends the series there (grid-measured profiles cover every
    representable frequency), "auto" picks by profile kind.
    """
    if not profiles:
        raise EmptyData("no band profiles supplied")
    if tail not in ("auto", "hold", "zero"):
        raise ParameterError("tail must be auto, hold, or zero")
    if not 1 < L < _MAX_SCALE:
        raise ParameterError("scale must exceed 1 and stay below 2^256")
    lo = min(p.bands[0] for p in profiles)
    hi = max(p.bands[-1] for p in profiles)
    if not lo - 1 <= cutoff <= hi:
        raise BandRangeError(
            f"cutoff {cutoff} outside band range [{lo - 1}, {hi}]"
        )
    t_high = 2.0 ** (-cutoff) * L**4
    t_low = 2.0**cutoff * L**3
    t_cross = 0.0
    for prof in profiles:
        mode = _tail_mode(prof, tail, L)
        last_k, last_mass = None, 0.0
        for k, mass in _profile_bands(prof):
            if k > cutoff:
                t_cross += 2.0 ** (cutoff - k) * L**2 * mass
            last_k, last_mass = k, mass
        if mode == "hold" and last_k is not None:
            # continue the series at the last mass: sum over k beyond
            # both the profile and the cutoff telescopes to one copy of
            # 2^(cutoff - max(cutoff, last_k)) * last_mass
            t_cross += (
                2.0 ** (cutoff - max(cutoff, last_k)) * L**2 * last_mass
            )
    return (t_high, t_low, t_cross)


def averaged_bound(
    profiles: Sequence[BandProfile],
    L: float,
    window: tuple = (0.1, 0.9),
    tail: str = "auto",
) -> BoundReport:
    """Cutoff-window evaluation of the three-term bound.

    Evaluates finalbound_terms at every dyadic cutoff with
    L^window[0] <= 2^cutoff <= L^window[1]; final_bound is the best
    (minimum) term sum.  The averaged figure replaces the per-cutoff
    cross terms by their Cauchy-Schwarz aggregate: summing the geometric
    factors over cutoffs first, then l2-aggregating band masses
    (||P_k a||_1 <= sqrt(vol) ||P_k a||_2 with vol taken as 1, and
    sqrt(band count) from Cauchy-Schwarz), divided by the cutoff count.
    averaged >= final always holds.

    The profile's polylog structure lives entirely in averaged_cross
    (for the equal-mass worst case it scales like L^4 (log L)^(-1/2));
    the window-endpoint component averaged_highlow scales like
    L^3.9 / log L with no log-power content, so scale sweeps fitting the
    log exponent should regress on averaged_cross.
    """
    if not profiles:
        raise EmptyData("no band profiles supplied")
    if not 0.0 <= window[0] < window[1] <= 1.0:
        raise ParameterError("window exponents must satisfy 0 <= a < b <= 1")
    log2L = math.log2(L)
    w_lo = window[0] * log2L
    w_hi = window[1] * log2L
    lo = min(p.bands[0] for p in profiles)
    hi = max(p.bands[-1] for p in profiles)
    # fractional window occupancy: cutoff c owns [c - 1/2, c + 1/2]; its
    # weight is the overlap with the continuous window, so the effective
    # cutoff count varies smoothly in L instead of staircasing
    weights = {}
    for c in range(max(math.floor(w_lo), lo - 1), math.ceil(w_hi) + 1):
        if not lo - 1 <= c <= hi:
            continue
        w = min(c + 0.5, w_hi) - max(c - 0.5, w_lo)
        if w > 1e-12:
            weights[c] = w
    cutoffs = sorted(weights)
    if len(cutoffs) < 2:
        raise WindowError(
            f"cutoff window [{w_lo:.2f}, {w_hi:.2f}] holds {len(cutoffs)} "
            "dyadic cutoffs; need at least 2 (raise L)"
        )
    per = {}
    for c in cutoffs:
        per[c] = finalbound_terms(profiles, L, c, tail=tail)
    sums = {c: sum(t) for c, t in per.items()}
    chosen = min(sums, key=lambda c: (sums[c], c))
    final = sums[chosen]
    # averaged: weighted mean of the first two terms, Cauchy-Schwarz on
    # the cross
    W = sum(weights.values())
    avg_highlow = sum(weights[c] * (per[c][0] + per[c][1]) for c in cutoffs) / W
    cs_cross = 0.0
    for prof in profiles:
        active = [prof.l2.get(k, 0.0) for k in prof.bands]
        active = [v for v in active if v > 0.0]
        if _tail_mode(prof, tail, L) == "hold" and active:
            # the held tail telescopes to one extra band per cutoff, but
            # cutoffs at or above the truncation point each keep a full
            # copy of the last mass; pad with enough phantom bands that
            # the Cauchy-Schwarz aggregate still dominates the weighted
            # per-cutoff sum
            last_k = prof.bands[-1]
            held_weight = sum(w for c, w in weights.items() if c >= last_k)
            active.extend([active[-1]] * (1 + math.ceil(held_weight)))
        if active:
            cs_cross += (
                L**2
                * math.sqrt(len(active))
                * math.sqrt(sum(v**2 for v in active))
            )
    averaged = avg_highlow + cs_cross / W
    if not averaged >= final * (1.0 - 1e-12):
        raise ParameterError(
            f"averaged bound {averaged!r} fell below the minimum {final!r}; "
            "band masses must be finite and nonnegative"
        )
    return BoundReport(
        scale=L,
        window=(cutoffs[0], cutoffs[-1]),
        per_cutoff=per,
        chosen_cutoff=chosen,
        final_bound=final,
        averaged=averaged,
        averaged_cross=cs_cross / W,
        averaged_highlow=avg_highlow,
    )


def fit_polylog_exponent(samples: Sequence[tuple], power: float = 4.0) -> float:
    """Slope of log(bound / L^power) against log log L over a sweep."""
    if len(samples) < 2:
        raise EmptyData("need at least two (L, bound) samples to fit")
    xs, ys = [], []
    for L, value in samples:
        if L <= 2 or value <= 0:
            raise ParameterError("sweep needs L > 2 and positive bounds")
        xs.append(math.log(math.log(L)))
        ys.append(math.log(value / L**power))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope


def uniform_layer_profile(L: float, mass_total: Optional[float] = None) -> BandProfile:
    """Equal-mass synthetic profile on bands 0..log2 L (worst case)."""
    if not 4 <= L < _MAX_SCALE:
        raise ParameterError("scale must be at least 4 and below 2^256")
    top = int(round(math.log2(L)))
    mass_total = L**2 if mass_total is None else mass_total
    per = mass_total / math.sqrt(top + 1)
    return synthetic_profile({k: per for k in range(top + 1)}, total_l2=mass_total)


def spectral_gap_profile(
    L: float, beta1: float, beta2: float, mass_total: Optional[float] = None
) -> BandProfile:
    """Uniform masses with a gap: nothing between L^beta1 and L^beta2."""
    if not 0.0 < beta1 < beta2 < 1.0:
        raise ParameterError("need 0 < beta1 < beta2 < 1")
    if not L < _MAX_SCALE:
        raise ParameterError("scale must stay below 2^256")
    top = int(round(math.log2(L)))
    lo = beta1 * math.log2(L)
    hi = beta2 * math.log2(L)
    bands = [k for k in range(top + 1) if not lo <= k <= hi]
    if not bands:
        raise EmptyData("gap swallowed every band")
    mass_total = L**2 if mass_total is None else mass_total
    per = mass_total / math.sqrt(len(bands))
    return synthetic_profile({k: per for k in bands}, total_l2=mass_total)


def allfreq_exponent(beta1: float, beta2: float, gamma: float) -> float:
    """Degree-saving exponent min(beta1, beta2 - beta1, gamma)."""
    if not 0.0 < beta1 < beta2 < 1.0:
        raise ParameterError("need 0 < beta1 < beta2 < 1")
    if gamma <= 0.0:
        raise ParameterError("gamma must be positive")
    return min(beta1, beta2 - beta1, gamma)


# -- certificate-exponent variant ---------------------------------------------------


def nullstellensatz_bound(
    E: PullbackEnsemble,
    P: RingPresentation,
    m: int,
    k: int,
    psi: Optional[GridForm] = None,
    part: Optional[DyadicPartition] = None,
    details: bool = False,
):
    """Certificate-exponent bound on the localized top-class integral.

    Low part: sum over relations of (integral psi |R_r(P_{<=k} a)|)^(1/2m),
    from the certificate identity that controls the 2m-th power of the
    top form by the relation forms.  High part: for every band above k,
    the integration-by-parts remainder  integral |d psi wedge Prim(P_l a_top)|
    with a_top the top-class word of the ensemble.  Returns their sum
    (the caller scales by L^n); with details=True also the breakdown.
    """
    if m < 1:
        raise ParameterError("certificate exponent m must be >= 1")
    psi = psi if psi is not None else E.psi
    base = E.forms[0]
    part = part or build_partition(base.spatial_dim, base.resolution, base.period)
    if not part.bands or not part.bands[0] - 1 <= k <= part.bands[-1]:
        raise BandRangeError(f"cutoff {k} outside partition range")
    named = _forms_by_name(E, P)
    low_named = {g: project_upto(a, k, part) for g, a in named.items()}
    cell = (base.period / base.resolution) ** base.spatial_dim
    low_sum = 0.0
    low_terms = {}
    for rel in P.relations:
        form = relation_value(rel, low_named, wedge_grid)
        integral = float((psi.data[0] * np.abs(form.data[0])).sum() * cell)
        low_terms[rel.name] = integral
        low_sum += integral ** (1.0 / (2.0 * m))
    a_top = word_value(P.top_class, named, wedge_grid)
    dpsi = exterior_derivative(psi)
    tail_sum = 0.0
    tail_terms = {}
    for band in part.bands:
        if band <= k:
            continue
        piece = project_band(a_top, band, part)
        if lp_norm(piece, "inf") <= 1e-13 * max(lp_norm(a_top, "inf"), 1e-300):
            tail_terms[band] = 0.0
            continue
        g = primitive(piece, band=band, part=part)
        boundary = wedge_grid(dpsi, g)
        term = float(np.abs(boundary.data[0]).sum() * cell)
        tail_terms[band] = term
        tail_sum += term
    total = low_sum + tail_sum
    if details:
        return total, {
            "low_terms": low_terms,
            "low_sum": low_sum,
            "tail_terms": tail_terms,
            "tail_sum": tail_sum,
        }
    return total


# -- ball extension ----------------------------------------------------------------


def _bilinear(values: np.ndarray, x: np.ndarray, y: np.ndarray, M: int):
    """Bilinear sample of (C, M, M) values on [-1,1]^2 at points (x, y)."""
    gx = (x + 1.0) * (M - 1) / 2.0
    gy = (y + 1.0) * (M - 1) / 2.0
    i0 = np.clip(np.floor(gx).astype(int), 0, M - 2)
    j0 = np.clip(np.floor(gy).astype(int), 0, M - 2)
    tx = gx - i0
    ty = gy - j0
    v00 = values[:, i0, j0]
    v10 = values[:, i0 + 1, j0]
    v01 = values[:, i0, j0 + 1]
    v11 = values[:, i0 + 1, j0 + 1]
    # lerp-of-lerps keeps constants exact (weights sum to 1 bit-exactly)
    vx0 = v00 + tx * (v10 - v00)
    vx1 = v01 + tx * (v11 - v01)
    return vx0 + ty * (vx1 - vx0)


def ball_extension(
    f: Union[np.ndarray, Callable], M: Optional[int] = None
) -> Union[np.ndarray, Callable]:
    """Extend a map on the unit ball to the radius-2 ball, constant on rays.

    Callable input: returns x -> f(x / max(|x|, 1)) (exact radial
    extension, any dimension).  Array input (C, M, M) sampled on the
    [-1,1]^2 grid with M odd: returns (C, 2M-1, 2M-1) samples on
    [-2,2]^2 at the same spacing; nodes inside the closed unit disk are
    bit-exact copies, all other nodes (the square's corners included)
    take the bilinear value at the radial projection onto the unit
    circle.  Rays are collapsed, so the extension's top-degree Jacobian
    vanishes outside the unit ball and its Lipschitz constant is at
    most twice the input's.
    """
    if callable(f):

        def extended(x, _f=f):
            x = np.asarray(x, dtype=float)
            r = np.sqrt((x**2).sum(axis=0))
            scale = np.maximum(r, 1.0)
            return _f(x / scale)

        return extended
    values = np.asarray(f, dtype=float)
    if values.ndim != 3:
        raise ShapeError("expected samples of shape (components, M, M)")
    Mv = values.shape[1]
    if values.shape[2] != Mv:
        raise ShapeError("sample grid must be square")
    if Mv < 3 or Mv % 2 == 0:
        raise ParameterError("grid side must be odd and at least 3")
    K = 2 * Mv - 1
    h = 2.0 / (Mv - 1)
    coords = -2.0 + h * np.arange(K)
    X, Y = np.meshgrid(coords, coords, indexing="ij")
    R = np.sqrt(X**2 + Y**2)
    out = np.zeros((values.shape[0], K, K))
    # bit-exact copy on the aligned interior block (unit-ball nodes
    # never get touched again below)
    half = (Mv - 1) // 2
    out[:, half : half + Mv, half : half + Mv] = values
    proj = np.maximum(R, 1.0)
    samp = _bilinear(values, (X / proj).ravel(), (Y / proj).ravel(), Mv)
    samp = samp.reshape(values.shape[0], K, K)
    mask = R > 1.0
    out[:, mask] = samp[:, mask]
    return out
