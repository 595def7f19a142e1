import math

import numpy as np
import pytest

from lipdeg.bands import (
    grid_form,
    lp_norm,
    synthetic_profile,
)
from lipdeg.construct import sphere_map
from lipdeg.degbound import (
    averaged_bound,
    degree_integral,
    finalbound_terms,
    fit_polylog_exponent,
    pullback_area_form,
    spectral_gap_profile,
    uniform_layer_profile,
)
from lipdeg.construct import SampledSphereMap
from lipdeg.errors import (
    BandRangeError,
    DimensionMismatch,
    EmptyData,
    GeometryError,
    ParameterError,
    ShapeError,
    WindowError,
)


def constant_map(N, vec=(0.0, 0.0, 1.0)):
    values = np.zeros((3, N, N))
    values[0] = vec[0]
    values[1] = vec[1]
    values[2] = vec[2]
    return SampledSphereMap(
        block_count=1, resolution=N, values=values, lipschitz=0.0
    )


def bump(N):
    """Nonnegative 0-form on the unit 2-torus, vanishing on the seam."""
    return grid_form(
        2, 0, N, 1.0, {(): lambda x, y: (np.sin(np.pi * x) * np.sin(np.pi * y)) ** 2}
    )


# -- pullback of the area form ---------------------------------------------------


def test_pullback_constant_map_is_zero():
    pb = pullback_area_form(constant_map(16))
    assert lp_norm(pb, "inf") == 0.0


def test_pullback_degree_oracles():
    # quadrature against the exact block-map degree d^2
    for d, tol in ((1, 1e-9), (2, 1e-7), (4, 1e-5)):
        pb = pullback_area_form(sphere_map(d, 256))
        assert abs(degree_integral(pb) - d * d) < tol


def test_pullback_stencil_order():
    f = sphere_map(1, 64)
    err2 = abs(degree_integral(pullback_area_form(f, order=2)) - 1.0)
    err6 = abs(degree_integral(pullback_area_form(f, order=6)) - 1.0)
    assert err6 < err2
    with pytest.raises(ParameterError):
        pullback_area_form(f, order=3)


def test_pullback_requires_resolution():
    with pytest.raises(ParameterError):
        pullback_area_form(constant_map(6))


def test_sphere_map_sample_validation():
    values = np.full((3, 16, 16), 2.0)
    with pytest.raises(GeometryError):
        SampledSphereMap(
            block_count=1, resolution=16, values=values, lipschitz=0.0
        )


def test_boundary_collapse_flag():
    assert sphere_map(2, 64).boundary_collapsed
    # flagging a map whose edge row is not at the basepoint must fail
    values = np.zeros((3, 16, 16))
    values[2] = 1.0
    with pytest.raises(GeometryError):
        SampledSphereMap(
            block_count=1,
            resolution=16,
            values=values,
            lipschitz=0.0,
            boundary_collapsed=True,
        )


# -- degree integral ---------------------------------------------------------------


def test_degree_integral_matches_block_count():
    pb = pullback_area_form(sphere_map(2, 256))
    assert abs(degree_integral(pb) - 4.0) < 1e-5


def test_degree_integral_zero_form():
    zero = grid_form(2, 2, 16, 1.0)
    assert degree_integral(zero) == 0.0


def test_degree_integral_linear_in_weight():
    pb = pullback_area_form(sphere_map(2, 64))
    psi = bump(64)
    full = degree_integral(pb, psi)
    half = degree_integral(pb, psi.scale(0.5))
    assert abs(half - 0.5 * full) < 1e-12 * max(abs(full), 1.0)


def test_degree_integral_validation():
    two_form = grid_form(4, 2, 8, 1.0)
    with pytest.raises(ShapeError):
        degree_integral(two_form)
    top = grid_form(2, 2, 16, 1.0)
    with pytest.raises(ShapeError):
        degree_integral(top, psi=top)
    with pytest.raises(DimensionMismatch):
        degree_integral(top, psi=bump(32))
    negative = bump(16).scale(-1.0)
    with pytest.raises(GeometryError):
        degree_integral(top, psi=negative)


def test_degree_integrality_under_refinement():
    # the integral settles on the integer degree once the grid resolves
    # the block structure
    for d in (4, 8):
        pb = pullback_area_form(sphere_map(d, 512))
        assert abs(degree_integral(pb) - d * d) < 1e-5


# -- three-term bound --------------------------------------------------------------


def test_finalbound_zero_profile_exact():
    L = 2.0**12
    prof = synthetic_profile({k: 0.0 for k in range(13)}, 0.0)
    for cutoff in (2, 5, 9):
        t = finalbound_terms([prof], L, cutoff)
        assert t == (2.0 ** (-cutoff) * L**4, 2.0**cutoff * L**3, 0.0)


def test_finalbound_uniform_cross_scale():
    # equal band masses L^2 / sqrt(#bands) put the cross term at
    # L^4 (log2 L)^(-1/2) up to a factor-2 booking of the geometric sum
    L = 2.0**16
    prof = uniform_layer_profile(L)
    cross = finalbound_terms([prof], L, 8)[2]
    target = L**4 / math.sqrt(math.log2(L))
    assert 0.5 * target <= cross <= 2.5 * target


def test_finalbound_two_shell_exact():
    L = 2.0**10
    m = 7.0
    prof = synthetic_profile({0: m, 10: m}, m * math.sqrt(2.0))
    t = finalbound_terms([prof], L, 1)
    assert t[2] == 2.0 ** (1 - 10) * L**2 * m


def test_finalbound_cross_monotone_in_masses():
    L = 2.0**10
    rng = np.random.default_rng(11)
    masses = {k: float(rng.uniform(0.0, 5.0)) for k in range(11)}
    base = synthetic_profile(masses, math.sqrt(sum(v**2 for v in masses.values())))
    t0 = finalbound_terms([base], L, 3)[2]
    for k in range(4, 11):
        bigger = dict(masses)
        bigger[k] += 1.0
        prof = synthetic_profile(
            bigger, math.sqrt(sum(v**2 for v in bigger.values()))
        )
        assert finalbound_terms([prof], L, 3)[2] > t0


def test_finalbound_tail_conventions():
    L = 2.0**10
    short = synthetic_profile({0: 1.0, 1: 1.0}, math.sqrt(2.0))
    # truncated synthetic profile: "auto" resolves to the held tail
    hold = finalbound_terms([short], L, 1)[2]
    zero = finalbound_terms([short], L, 1, tail="zero")[2]
    assert zero == 0.0
    assert hold == L**2  # one full copy of the last mass at the cutoff
    # a profile reaching log2 L counts as complete: auto = zero
    full = synthetic_profile({k: 1.0 for k in range(11)}, math.sqrt(11.0))
    assert finalbound_terms([full], L, 10)[2] == 0.0
    with pytest.raises(ParameterError):
        finalbound_terms([short], L, 1, tail="maybe")


def test_finalbound_validation():
    L = 2.0**10
    prof = synthetic_profile({0: 1.0}, 1.0)
    with pytest.raises(EmptyData):
        finalbound_terms([], L, 0)
    with pytest.raises(ParameterError):
        finalbound_terms([prof], 1.0, 0)
    with pytest.raises(BandRangeError):
        finalbound_terms([prof], L, 5)
    with pytest.raises(BandRangeError):
        finalbound_terms([prof], L, -2)


# -- averaged bound ----------------------------------------------------------------


def test_averaged_bound_dominates_minimum():
    for e in (10, 14, 20):
        L = 2.0**e
        rep = averaged_bound([uniform_layer_profile(L)], L)
        assert rep.averaged >= rep.final_bound
        assert rep.final_bound == min(sum(t) for t in rep.per_cutoff.values())


def test_averaged_bound_mixed_truncated_profiles():
    # a heavy truncated profile (held tail at every cutoff) must not
    # defeat the averaged >= final invariant
    L = 2.0**10
    heavy = synthetic_profile({0: 2.0**30, 1: 2.0**30}, 2.0**30 * math.sqrt(2))
    wide = synthetic_profile({k: 0.0 for k in range(11)}, 0.0)
    rep = averaged_bound([heavy, wide], L)
    assert rep.averaged >= rep.final_bound


def test_averaged_bound_zero_profile_two_term_minimum():
    # min over cutoffs of 2^-c L^4 + 2^c L^3 is 2 L^3.5 at 2^c = sqrt(L)
    L = 2.0**20
    prof = synthetic_profile({k: 0.0 for k in range(21)}, 0.0)
    rep = averaged_bound([prof], L)
    assert rep.chosen_cutoff == 10
    assert rep.final_bound == 2.0 * L**3.5


def test_averaged_bound_spectral_gap_exponent_drop():
    L = 2.0**20
    rep = averaged_bound([spectral_gap_profile(L, 0.3, 0.6)], L)
    assert rep.final_bound <= L**3.8
    assert rep.final_bound >= L**3.5  # but not all the way down


def test_averaged_bound_window_error():
    short = synthetic_profile({0: 1.0, 1: 1.0}, math.sqrt(2.0))
    with pytest.raises(WindowError):
        averaged_bound([short], 2.0**10)
    with pytest.raises(ParameterError):
        averaged_bound([uniform_layer_profile(2.0**10)], 2.0**10, window=(0.9, 0.1))


def test_averaged_bound_custom_window():
    L = 2.0**14
    rep = averaged_bound([uniform_layer_profile(L)], L, window=(0.2, 0.8))
    lo, hi = rep.window
    assert 0.2 * 14 - 1.0 <= lo <= 0.2 * 14 + 1.0
    assert 0.8 * 14 - 1.0 <= hi <= 0.8 * 14 + 1.0


def test_uniform_profile_polylog_fit():
    samples = []
    for e in range(10, 21):
        L = 2.0**e
        rep = averaged_bound([uniform_layer_profile(L)], L)
        samples.append((L, rep.averaged_cross))
    slope = fit_polylog_exponent(samples)
    assert -0.6 <= slope <= -0.4


def test_fit_polylog_exponent_recovers_planted():
    samples = [
        (2.0**e, 3.0 * (2.0**e) ** 4 * math.log(2.0**e) ** -0.5)
        for e in range(10, 21)
    ]
    assert abs(fit_polylog_exponent(samples) + 0.5) < 1e-9
    with pytest.raises(EmptyData):
        fit_polylog_exponent(samples[:1])


def test_profile_factories():
    L = 2.0**12
    uni = uniform_layer_profile(L)
    assert uni.bands == tuple(range(13))
    assert all(
        abs(uni.l1[k] - L**2 / math.sqrt(13.0)) < 1e-6 for k in uni.bands
    )
    gap = spectral_gap_profile(L, 0.3, 0.6)
    lo = math.ceil(0.3 * 12)
    hi = math.floor(0.6 * 12)
    for k in gap.bands:
        if lo <= k <= hi:
            assert gap.l1[k] == 0.0
    assert max(gap.l1.values()) > 0.0


# -- report serialization -----------------------------------------------------------


def test_bound_report_json_round_trip():
    import json

    L = 2.0**12
    rep = averaged_bound([uniform_layer_profile(L)], L)
    blob = json.dumps(rep.to_json_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["final_bound"] == rep.final_bound
    assert back["chosen_cutoff"] == rep.chosen_cutoff
    assert back["averaged"] == rep.averaged
