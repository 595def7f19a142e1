"""Degree bounds from band-limited analysis of pulled-back forms.

The pipeline in this module turns sampled maps and band profiles into
degree estimates:

* ``pullback_area_form`` / ``degree_integral`` compute mapping degrees by
  integrating the pulled-back normalized area form;
* ``finalbound_terms`` / ``averaged_bound`` evaluate the three-term
  cutoff estimate (high-frequency, low-band relation, cross terms) and
  its cutoff-averaged Cauchy-Schwarz refinement, including the polylog
  exponent fit over a scale sweep.

All implicit inequality constants are set to 1 and the terms are
reported separately, so callers see the exponent structure rather than
tuned prefactors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bands import BandProfile, GridForm, synthetic_profile, zero_form
from .construct import SampledSphereMap
from .errors import (
    BandRangeError,
    EmptyData,
    ParameterError,
    ShapeError,
    WindowError,
)
from .exterior import JsonFields

__all__ = [
    "BoundReport",
    "pullback_area_form",
    "degree_integral",
    "finalbound_terms",
    "averaged_bound",
    "fit_polylog_exponent",
    "uniform_layer_profile",
    "spectral_gap_profile",
]


# -- stencil derivatives ---------------------------------------------------------

# centered sixth-order first-derivative weights at offsets -3..3
_STENCIL = np.array([-1 / 60, 3 / 20, -3 / 4, 0.0, 3 / 4, -3 / 20, 1 / 60])


def _stencil_derivative(values: np.ndarray, axis: int, h: float):
    terms = zip(range(-3, 4), _STENCIL)
    return sum(c * np.roll(values, -off, axis=axis) for off, c in terms if c != 0.0) / h


# -- degree integrals ------------------------------------------------------------


def pullback_area_form(f: SampledSphereMap) -> GridForm:
    """Discrete pullback of the normalized sphere area form.

    Cell density (1/4pi) f . (df/du x df/dv) from centered sixth-order
    periodic stencils; integrating the result over the square recovers
    the mapping degree.
    """
    N = f.resolution
    if N < 8:
        raise ParameterError("resolution must be at least 8")
    h = 1.0 / N
    fu = _stencil_derivative(f.values, axis=1, h=h)
    fv = _stencil_derivative(f.values, axis=2, h=h)
    density = (f.values * np.cross(fu, fv, axis=0)).sum(axis=0) / (4.0 * np.pi)
    out = zero_form(2, 2, N, 1.0)
    out.data[0] = density
    return out


def degree_integral(top: GridForm) -> float:
    """Riemann sum of a top-degree form."""
    if top.form_degree != top.spatial_dim:
        raise ShapeError(
            f"need a top-degree form, got degree {top.form_degree} "
            f"in dimension {top.spatial_dim}"
        )
    return float(top.data[0].sum() * top.cell)


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


def _tail_mode(profile: BandProfile, tail: str, L: float) -> str:
    """Resolve the beyond-last-band convention for one profile.

    Grid-measured profiles (they carry per-component norms, which
    synthetic ones lack and the profile CSV keeps) cover every
    representable frequency, and synthetic profiles whose bands already
    reach the target scale describe a complete spectrum; in both cases
    the series genuinely ends.  A synthetic profile truncated short of
    the scale is an incomplete description and gets the safe held tail.
    """
    if tail != "auto":
        return tail
    if profile.per_component:
        return "zero"
    return "zero" if profile.bands[-1] >= math.floor(math.log2(L)) else "hold"


# the high-frequency term L^4 stays inside float64 below this scale
_MAX_SCALE = 2.0**256


def _check_scale(L: float) -> None:
    """Refuse L outside (1, 2^256), NaN included: the bound reads log2 L and L^4."""
    if not 1 < L < _MAX_SCALE:
        raise ParameterError("scale must exceed 1 and stay below 2^256")


def _band_range(profiles: Sequence[BandProfile]) -> tuple:
    """(lowest, highest) band over the profiles, each of which has a band."""
    if not profiles:
        raise EmptyData("no band profiles supplied")
    if not all(p.bands for p in profiles):
        raise EmptyData("a band profile has no bands")
    return min(p.bands[0] for p in profiles), max(p.bands[-1] for p in profiles)


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
    lo, hi = _band_range(profiles)
    if tail not in ("auto", "hold", "zero"):
        raise ParameterError("tail must be auto, hold, or zero")
    _check_scale(L)
    if not lo - 1 <= cutoff <= hi:
        raise BandRangeError(
            f"cutoff {cutoff} outside band range [{lo - 1}, {hi}]"
        )
    t_high = 2.0 ** (-cutoff) * L**4
    t_low = 2.0**cutoff * L**3
    t_cross = 0.0
    for prof in profiles:
        for k in prof.bands:
            if k > cutoff:
                t_cross += 2.0 ** (cutoff - k) * L**2 * prof.l1.get(k, 0.0)
        if _tail_mode(prof, tail, L) == "hold":
            # continue the series at the last mass: sum over k beyond
            # both the profile and the cutoff telescopes to one copy of
            # 2^(cutoff - max(cutoff, last_k)) * last_mass
            last_k = prof.bands[-1]
            last_mass = prof.l1.get(last_k, 0.0)
            t_cross += 2.0 ** (cutoff - max(cutoff, last_k)) * L**2 * last_mass
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
    lo, hi = _band_range(profiles)
    if not 0.0 <= window[0] < window[1] <= 1.0:
        raise ParameterError("window exponents must satisfy 0 <= a < b <= 1")
    _check_scale(L)
    log2L = math.log2(L)
    w_lo = window[0] * log2L
    w_hi = window[1] * log2L
    # fractional window occupancy: cutoff c owns [c - 1/2, c + 1/2]; its
    # weight is the overlap with the continuous window, so the effective
    # cutoff count varies smoothly in L instead of staircasing
    weights = {}
    for c in range(max(math.floor(w_lo), lo - 1), min(math.ceil(w_hi), hi) + 1):
        w = min(c + 0.5, w_hi) - max(c - 0.5, w_lo)
        if w > 1e-12:
            weights[c] = w
    cutoffs = sorted(weights)
    if len(cutoffs) < 2:
        # once the window reaches the top band's cutoff, a larger L only
        # drops cutoffs from its bottom
        raise WindowError(
            f"cutoff window [{w_lo:.2f}, {w_hi:.2f}] holds {len(cutoffs)} "
            "dyadic cutoffs; need at least 2 "
            + (f"(lower L: the top band is {hi})" if w_hi > hi - 0.5 else "(raise L)")
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
    if averaged == math.inf:  # L^2 times the masses' L2 aggregate, before the / W
        raise ParameterError(f"averaged bound at L = {L!r} overflows float64")
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


def fit_polylog_exponent(samples: Sequence[tuple]) -> float:
    """Slope of log(bound / L^4) against log log L over a sweep."""
    if len(samples) < 2:
        raise EmptyData("need at least two (L, bound) samples to fit")
    xs, ys = [], []
    for L, value in samples:
        if L <= 2 or value <= 0:
            raise ParameterError("sweep needs L > 2 and positive bounds")
        xs.append(math.log(math.log(L)))
        ys.append(math.log(value / L**4))
    slope = float(np.polyfit(xs, ys, 1)[0])
    return slope


def uniform_layer_profile(L: float) -> BandProfile:
    """Equal-mass profile of total mass L^2 on bands 0..log2 L (worst case)."""
    if not 4 <= L < _MAX_SCALE:
        raise ParameterError("scale must be at least 4 and below 2^256")
    top = int(round(math.log2(L)))
    per = L**2 / math.sqrt(top + 1)
    return synthetic_profile({k: per for k in range(top + 1)}, total_l2=L**2)


def spectral_gap_profile(L: float, beta1: float, beta2: float) -> BandProfile:
    """Uniform masses, total L^2, with a gap: none between L^beta1 and L^beta2."""
    if not 0.0 < beta1 < beta2 < 1.0:
        raise ParameterError("need 0 < beta1 < beta2 < 1")
    _check_scale(L)
    top = int(round(math.log2(L)))
    lo = beta1 * math.log2(L)
    hi = beta2 * math.log2(L)
    bands = [k for k in range(top + 1) if not lo <= k <= hi]
    if not bands:
        raise EmptyData("gap swallowed every band")
    per = L**2 / math.sqrt(len(bands))
    return synthetic_profile({k: per for k in bands}, total_l2=L**2)
