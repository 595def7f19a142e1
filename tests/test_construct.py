import math

import numpy as np
import pytest

from lipdeg.bands import exterior_derivative, lp_norm
from lipdeg.construct import (
    GeometryConstants,
    LayerSpec,
    default_geometry,
    homotopy_bound,
    layered_profile,
    recursion_plan,
    sphere_map,
)
from lipdeg.errors import (
    GeometryError,
    ParameterError,
    ResolutionError,
)

UNIT = GeometryConstants.unit()


# -- sphere maps ---------------------------------------------------------------


def test_sphere_map_rejects_bad_parameters():
    with pytest.raises(ResolutionError):
        sphere_map(3, 64)  # 64 not divisible by 3
    with pytest.raises(ParameterError):
        sphere_map(0, 64)


def test_sphere_map_unit_vectors_and_landmarks():
    f = sphere_map(1, 8)
    norms = np.sqrt((f.values**2).sum(axis=0))
    assert np.max(np.abs(norms - 1.0)) < 1e-12
    # center of the block is the north pole
    assert np.allclose(f.values[:, 4, 4], [0.0, 0.0, 1.0], atol=1e-12)
    # corner and edge midpoint reach the south pole (r clamps at 1)
    assert np.allclose(f.values[:, 0, 0], [0.0, 0.0, -1.0], atol=1e-12)
    assert np.allclose(f.values[:, 0, 4], [0.0, 0.0, -1.0], atol=1e-12)
    # halfway out along the x-axis sits on the equator
    assert np.allclose(f.values[:, 2, 4], [-1.0, 0.0, 0.0], atol=1e-12)


def test_sphere_map_blocks_glue_at_south_pole():
    f = sphere_map(2, 16)
    # every node on an interior block edge maps to the south pole,
    # so the d x d blocks (and the periodic wrap) glue continuously
    south = np.array([0.0, 0.0, -1.0]).reshape(3, 1)
    assert np.allclose(f.values[:, 8, :], south, atol=1e-12)
    assert np.allclose(f.values[:, :, 8], south, atol=1e-12)
    assert np.allclose(f.values[:, 0, :], south, atol=1e-12)


def test_sphere_map_lipschitz_scales_linearly_in_blocks():
    ratios = []
    for d in (1, 2, 4, 8):
        f = sphere_map(d, 256)
        ratios.append(f.lipschitz / d)
    spread = max(ratios) / min(ratios)
    assert spread <= 2.0
    # the cap profile has |gradient| <= 2 pi d; the measured chordal
    # slope must sit just under that
    assert 0.85 * 2 * math.pi <= ratios[0] <= 2 * math.pi + 1e-6


def test_sphere_map_plan_records():
    f = sphere_map(2, 64)
    assert (f.block_count, f.resolution, f.target_dim) == (2, 64, 2)
    assert f.values.shape == (3, 64, 64)
    assert f.boundary_collapsed
    assert f.degree_target == 4


# -- homotopy bound ------------------------------------------------------------


def test_homotopy_bound_symmetric_and_linear():
    geo = UNIT
    assert homotopy_bound(3, 4, geo) == pytest.approx(homotopy_bound(4, 3, geo))
    assert homotopy_bound(4, 5, geo) == pytest.approx(2 * homotopy_bound(2, 5, geo))
    assert homotopy_bound(2, 6, geo) == pytest.approx(12.0)  # c2 = 1
    with pytest.raises(ParameterError):
        homotopy_bound(0, 3, geo)


def test_measured_geometry_comes_from_base_realization():
    geo = default_geometry()
    base = sphere_map(1, 128)
    assert geo.lip_g == pytest.approx(base.lipschitz)
    assert geo.c2 == pytest.approx(base.lipschitz**2)
    assert geo.c2 >= 1.0


# -- recursion plans -----------------------------------------------------------


def test_recursion_closed_form_two_stages_unit_geometry():
    # with unit constants the two-stage recursion solves exactly to
    # K(t) = (1 + t) * p^t
    plan = recursion_plan(2, 12, 2, geometry=UNIT)
    for t, k in enumerate(plan.bounds_by_level):
        assert k == pytest.approx((1 + t) * 2**t, rel=1e-12)
    assert plan.bound == pytest.approx(13 * 2**12, rel=1e-12)


@pytest.mark.parametrize("geo", [UNIT, None], ids=["unit", "measured"])
def test_recursion_bound_stays_in_factor_4_band(geo):
    plan = recursion_plan(2, 20, 2, geometry=geo)
    normalized = [
        plan.bounds_by_level[t] / (t * 2**t) for t in range(1, plan.levels + 1)
    ]
    assert max(normalized) / min(normalized) <= 4.0


@pytest.mark.parametrize("geo", [UNIT, None], ids=["unit", "measured"])
def test_recursion_growth_ratio_at_most_2p(geo):
    plan = recursion_plan(2, 20, 2, geometry=geo)
    rates = plan.growth_rates()
    assert all(r <= 2 * plan.p + 1e-9 for r in rates[1:])
    plan3 = recursion_plan(3, 15, 2, geometry=geo)
    assert all(r <= 2 * plan3.p + 1e-9 for r in plan3.growth_rates()[1:])


@pytest.mark.parametrize("geo", [UNIT, None], ids=["unit", "measured"])
def test_naive_iterate_overtaken_at_level_five(geo):
    # iterating the basic self-map pays its full Lipschitz constant 2.5
    # per level; the plan's per-level growth sinks below that from level
    # 5 on, for unit and for measured constants alike
    plan = recursion_plan(2, 12, 2, geometry=geo)
    assert plan.naive_rate == pytest.approx(2.5)
    assert plan.naive_crossover_level() == 5
    rates = plan.growth_rates()
    assert rates[3] >= 2.5 - 1e-9  # level 4 still at or above the naive rate
    assert all(r < 2.5 for r in rates[4:])


def test_single_stage_grows_exactly_like_p_to_ell():
    plan = recursion_plan(3, 10, 1, geometry=UNIT)
    vals = [plan.bounds_by_level[t] / 3**t for t in range(plan.levels + 1)]
    assert max(vals) - min(vals) < 1e-12
    assert plan.layers == ()


def test_recursion_bound_monotone_in_levels_and_scale():
    plan = recursion_plan(2, 10, 2, geometry=UNIT)
    diffs = np.diff(plan.bounds_by_level)
    assert np.all(diffs > 0)
    bounds_p = [recursion_plan(p, 5, 2, geometry=UNIT).bound for p in (2, 3, 4)]
    assert bounds_p[0] < bounds_p[1] < bounds_p[2]
    bounds_d = [recursion_plan(2, 5, d, geometry=UNIT).bound for d in (1, 2, 3)]
    assert bounds_d[0] < bounds_d[1] < bounds_d[2]


def test_recursion_degree_and_layer_geometry():
    plan = recursion_plan(2, 3, 2, geometry=UNIT)
    assert plan.degree == 2**12
    assert recursion_plan(3, 2, 1, geometry=UNIT).degree == 3**4
    assert len(plan.layers) == 3
    for t, layer in enumerate(plan.layers, start=1):
        assert layer.level == t
        assert layer.grid_width + layer.interstitial_width == pytest.approx(0.5)
        assert layer.subcube_side == pytest.approx(0.25)  # 1/(2p)
        assert layer.L3 == pytest.approx(
            plan.bounds_by_level[t - 1] / layer.subcube_side
        )
        assert layer.bound == pytest.approx(plan.bounds_by_level[t])


def test_recursion_parameter_validation():
    with pytest.raises(ParameterError):
        recursion_plan(1, 5, 2)
    with pytest.raises(ParameterError):
        recursion_plan(2, 0, 2)
    with pytest.raises(ParameterError):
        recursion_plan(2, 5, 0)
    with pytest.raises(GeometryError):
        GeometryConstants(lip_g=-1.0)
    with pytest.raises(GeometryError):
        recursion_plan(2, 3, 2, geometry=GeometryConstants(subcube_ratio=0.7))
    with pytest.raises(GeometryError):
        LayerSpec(1, 0.25, 0.3, 0.3, 0.5, 1.0, 1.0, 1.0, 1.0)


def test_recursion_envelope_escape_is_reported():
    # shrinking the subcubes below the equalizing width feeds the
    # interstitial term and breaks the ell * p^ell envelope at depth;
    # the plan refuses rather than report a bound outside its envelope
    squeezed = GeometryConstants(subcube_ratio=0.4)
    recursion_plan(2, 3, 2, geometry=squeezed)  # shallow is fine
    with pytest.raises(GeometryError):
        recursion_plan(2, 20, 2, geometry=squeezed)


def test_recursion_plan_json_round_trip_fields():
    plan = recursion_plan(2, 4, 2, geometry=UNIT)
    d = plan.to_json_dict()
    assert d["naive_crossover_level"] is None or d["naive_crossover_level"] >= 1
    assert d["degree_log_p"] == 16
    assert len(d["layers"]) == 4
    assert d["bound"] == pytest.approx(plan.bound)


# -- layered profiles ----------------------------------------------------------


def test_layered_profile_synthetic_equal_masses():
    out = layered_profile(2, 7, 4.0)
    assert out.ensemble is None
    per = 4.0 / math.sqrt(8)
    assert set(out.requested) == set(range(8))
    for k in range(8):
        assert out.profile.l1[k] == pytest.approx(per)
    # equal masses are the Cauchy-Schwarz equality case: the l2 total
    # reproduces the requested budget
    assert out.profile.total_l2 == pytest.approx(4.0)
    assert out.layer_frequencies == tuple(2**k for k in range(8))


def test_layered_profile_grid_realization_masses_and_closedness():
    out = layered_profile(2, 3, 2.0, N=32, seed=5)
    a = out.ensemble
    assert a is not None
    per = 2.0 / math.sqrt(4)
    for k in range(4):
        assert out.profile.l1[k] == pytest.approx(per, rel=5e-2)
        assert out.profile.l1[k] == pytest.approx(per, rel=1e-9)  # exact placement
    # everything else in the partition carries nothing
    for k in out.profile.bands:
        if k not in out.requested:
            assert out.profile.l1[k] < 1e-9
    da = exterior_derivative(a)
    assert lp_norm(da, "inf") <= 1e-9 * max(lp_norm(a, "inf"), 1.0)


def test_layered_profile_uniformity_within_tolerance():
    out = layered_profile(2, 3, 3.0, N=32, seed=1)
    masses = [out.profile.l1[k] for k in range(4)]
    assert max(masses) / min(masses) <= 1.05


def test_layered_profile_odd_base_books_dominant_bands():
    out = layered_profile(3, 3, 2.0)
    # frequencies 1, 3, 9, 27 live in windows 0, 1, 3, 5
    assert set(out.requested) == {0, 1, 3, 5}
    assert out.profile.l1[5] == pytest.approx(1.0)


def test_layered_profile_band_overflow_and_validation():
    with pytest.raises(ResolutionError):
        layered_profile(2, 4, 1.0, N=32)  # frequency 16 hits Nyquist
    with pytest.raises(ParameterError):
        layered_profile(1, 3, 1.0)
    with pytest.raises(ParameterError):
        layered_profile(2, -1, 1.0)
    with pytest.raises(ParameterError):
        layered_profile(2, 3, 0.0)
    single = layered_profile(2, 0, 1.5)
    assert single.requested == {0: pytest.approx(1.5)}


def test_layered_profile_deterministic_per_seed():
    a = layered_profile(2, 2, 1.0, N=16, seed=9).ensemble
    b = layered_profile(2, 2, 1.0, N=16, seed=9).ensemble
    c = layered_profile(2, 2, 1.0, N=16, seed=10).ensemble
    assert np.array_equal(a.data, b.data)
    assert not np.allclose(a.data, c.data)
