import math

import numpy as np
import pytest

from lipdeg.bands import (
    bandlimited_noise_form,
    exterior_derivative,
    grid_form,
    lp_norm,
    synthetic_profile,
)
from lipdeg.construct import layered_profile, sphere_map
from lipdeg.degbound import (
    PullbackEnsemble,
    allfreq_exponent,
    averaged_bound,
    ball_extension,
    bump_cutoff,
    degree_integral,
    finalbound_terms,
    fit_polylog_exponent,
    low_band_relation_check,
    nullstellensatz_bound,
    pullback_area_form,
    relation_primitives,
    spectral_gap_profile,
    uniform_layer_profile,
)
from lipdeg.construct import SampledSphereMap
from lipdeg.errors import (
    BandRangeError,
    DimensionMismatch,
    EmptyData,
    GeometryError,
    NotExact,
    ParameterError,
    ShapeError,
    WindowError,
)
from lipdeg.rings import preset_presentations


def constant_map(N, vec=(0.0, 0.0, 1.0)):
    values = np.zeros((3, N, N))
    values[0] = vec[0]
    values[1] = vec[1]
    values[2] = vec[2]
    return SampledSphereMap(
        block_count=1, resolution=N, values=values, lipschitz=0.0
    )


def witness_ensemble(N=16, scale=64.0):
    """Constant-coefficient X2 witness: a1 = dx12 + dx34, a2 = dx13 + dx42.

    Then a1 ^ a2 = 0 and a1 ^ a1 = a2 ^ a2 = 2 dx1234, so every relation
    form of the X2 presentation vanishes identically.
    """
    a1 = grid_form(4, 2, N, 1.0)
    a2 = grid_form(4, 2, N, 1.0)
    pos = {I: c for c, I in enumerate(a1.indices)}
    a1.data[pos[(1, 2)]] += 1.0
    a1.data[pos[(3, 4)]] += 1.0
    a2.data[pos[(1, 3)]] += 1.0
    a2.data[pos[(2, 4)]] -= 1.0
    psi = bump_cutoff(4, N)
    return PullbackEnsemble(forms=(a1, a2), scale=scale, psi=psi)


def noise_ensemble(P, N=32, radius=6.0, seed=100, scale=2.0**8):
    """Exact closed 2-forms a_i = d(band-limited 1-form), one per generator."""
    forms = []
    for i in range(len(P.generators)):
        a1 = bandlimited_noise_form(4, 1, N, 1.0, radius=radius, seed=seed + i)
        forms.append(exterior_derivative(a1))
    return PullbackEnsemble(
        forms=tuple(forms), scale=scale, psi=bump_cutoff(4, N)
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
    psi = bump_cutoff(2, 64)
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
        degree_integral(top, psi=bump_cutoff(2, 32))
    negative = bump_cutoff(2, 16).scale(-1.0)
    with pytest.raises(GeometryError):
        degree_integral(top, psi=negative)


def test_degree_integrality_under_refinement():
    # the integral settles on the integer degree once the grid resolves
    # the block structure
    for d in (4, 8):
        pb = pullback_area_form(sphere_map(d, 512))
        assert abs(degree_integral(pb) - d * d) < 1e-5


# -- localization bump -------------------------------------------------------------


def test_bump_cutoff_landmarks():
    psi = bump_cutoff(4, 16)
    assert psi.form_degree == 0
    grid = psi.data[0]
    assert grid[8, 8, 8, 8] == 1.0
    assert grid[0, 0, 0, 0] == 0.0
    assert grid.min() >= 0.0 and grid.max() <= 1.0
    # smooth: the derivative stays modest instead of blowing up at the seam
    assert lp_norm(exterior_derivative(psi), "inf") < 20.0


def test_bump_cutoff_margin_widens_plateau():
    wide = bump_cutoff(2, 32, margin=0.1).data[0]
    narrow = bump_cutoff(2, 32, margin=0.4).data[0]
    assert wide.sum() > narrow.sum()


# -- ensembles ---------------------------------------------------------------------


def test_ensemble_validation():
    N = 16
    psi = bump_cutoff(4, N)
    good = exterior_derivative(bandlimited_noise_form(4, 1, N, 1.0, 4.0, seed=1))
    with pytest.raises(EmptyData):
        PullbackEnsemble(forms=(), scale=1.0, psi=psi)
    with pytest.raises(ShapeError):
        PullbackEnsemble(forms=(psi,), scale=1.0, psi=psi)
    other = exterior_derivative(bandlimited_noise_form(4, 1, 8, 1.0, 2.0, seed=1))
    with pytest.raises(DimensionMismatch):
        PullbackEnsemble(forms=(good, other), scale=1.0, psi=psi)
    with pytest.raises(ShapeError):
        PullbackEnsemble(forms=(good,), scale=1.0, psi=good)
    with pytest.raises(ParameterError):
        PullbackEnsemble(forms=(good,), scale=0.0, psi=psi)


def test_ensemble_closedness_gate():
    N = 16
    E = witness_ensemble(N)
    assert E.validate_closedness(1e-12) <= 1e-12
    raw = bandlimited_noise_form(4, 2, N, 1.0, radius=4.0, seed=3)
    bad = PullbackEnsemble(forms=(raw,), scale=1.0, psi=bump_cutoff(4, N))
    with pytest.raises(NotExact):
        bad.validate_closedness(1e-8)


# -- relation primitives -----------------------------------------------------------


def test_relation_primitives_witness_vanishes():
    E = relation_primitives(witness_ensemble(), preset_presentations("X2"))
    assert set(E.primitive_norms) == {"u1u2", "u1^2-u2^2"}
    assert all(v == 0.0 for v in E.primitive_norms.values())


def test_relation_primitives_recover_exact_products():
    P = preset_presentations("S2xS2")
    E = noise_ensemble(P, N=16, radius=4.0, seed=40)
    E2 = relation_primitives(E, P, tol=1e-8)
    # dg_r really reproduces the relation 4-form
    for rel in P.relations:
        g = E2.primitives[rel.name]
        a = E2.forms[0] if rel.name == "u1^2" else E2.forms[1]
        from lipdeg.bands import wedge_grid

        target = wedge_grid(a, a)
        resid = lp_norm(exterior_derivative(g) - target, "inf")
        assert resid <= 1e-8 * max(lp_norm(target, "inf"), 1e-300)
        assert E2.primitive_norms[rel.name] == lp_norm(g, "inf")


def test_relation_primitives_rejects_nonzero_mean():
    # a = dx12 + dx34 has a ^ a = 2 dx1234, mean 2: not exact on the torus
    N = 8
    a = grid_form(4, 2, N, 1.0)
    pos = {I: c for c, I in enumerate(a.indices)}
    a.data[pos[(1, 2)]] += 1.0
    a.data[pos[(3, 4)]] += 1.0
    E = PullbackEnsemble(
        forms=(a, a.copy_with(a.data.copy())),
        scale=1.0,
        psi=bump_cutoff(4, N),
    )
    with pytest.raises(NotExact):
        relation_primitives(E, preset_presentations("S2xS2"))


# -- low-band relation check -------------------------------------------------------


def test_low_band_check_nyquist_reconstructs():
    P = preset_presentations("S2xS2")
    E = relation_primitives(noise_ensemble(P, N=16, radius=4.0, seed=7), P)
    from lipdeg.bands import build_partition

    part = build_partition(4, 16, 1.0)
    checks = low_band_relation_check(E, P, part.bands[-1], part=part)
    from lipdeg.bands import wedge_grid

    for rel in P.relations:
        a = E.forms[0] if rel.name == "u1^2" else E.forms[1]
        full = lp_norm(wedge_grid(a, a), "inf")
        assert abs(checks[rel.name].low_norm - full) <= 1e-10 * full


def test_low_band_check_witness_is_zero():
    P = preset_presentations("X2")
    E = relation_primitives(witness_ensemble(), P)
    for k in (0, 1, 2, 3):
        for chk in low_band_relation_check(E, P, k).values():
            assert chk.low_norm == 0.0
            assert chk.dyadic_ratio == 0.0
            assert chk.kernel_ratio == 0.0


def test_low_band_check_layered_sweep_bounded():
    # layered ensembles keep both ratios bounded uniformly in k
    form = layered_profile(2, 3, 9.0, N=32, seed=5).ensemble
    P = preset_presentations("S2xS2")
    psi = bump_cutoff(4, 32)
    E = relation_primitives(
        PullbackEnsemble(forms=(form, form), scale=8.0, psi=psi), P
    )
    for k in range(0, 6):
        for chk in low_band_relation_check(E, P, k).values():
            assert chk.kernel_ratio <= 1.0 + 1e-9
            assert chk.dyadic_ratio <= 10.0


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


# -- frequency-coverage exponent ----------------------------------------------------


def test_allfreq_exponent_examples():
    assert allfreq_exponent(0.3, 0.6, 0.2) == 0.2
    assert allfreq_exponent(0.1, 0.9, 1.0) == pytest.approx(0.1)
    assert allfreq_exponent(0.4, 0.5, 0.3) == pytest.approx(0.1)


def test_allfreq_exponent_saturates_in_gamma():
    b1, b2 = 0.3, 0.55
    cap = min(b1, b2 - b1)
    assert allfreq_exponent(b1, b2, cap) == allfreq_exponent(b1, b2, 2.0)


def test_allfreq_exponent_validation():
    with pytest.raises(ParameterError):
        allfreq_exponent(0.0, 0.5, 0.1)
    with pytest.raises(ParameterError):
        allfreq_exponent(0.5, 0.5, 0.1)
    with pytest.raises(ParameterError):
        allfreq_exponent(0.3, 1.0, 0.1)
    with pytest.raises(ParameterError):
        allfreq_exponent(0.3, 0.6, 0.0)


# -- certificate bound --------------------------------------------------------------


def test_nullstellensatz_validation():
    P = preset_presentations("X2")
    E = relation_primitives(witness_ensemble(), P)
    with pytest.raises(ParameterError):
        nullstellensatz_bound(E, P, m=0, k=1)
    with pytest.raises(BandRangeError):
        nullstellensatz_bound(E, P, m=1, k=99)


def test_nullstellensatz_witness_and_zero_weight():
    P = preset_presentations("X2")
    E = relation_primitives(witness_ensemble(), P)
    assert nullstellensatz_bound(E, P, m=1, k=0) == 0.0
    # psi == 0 kills the bound for any ensemble
    P4 = preset_presentations("X4")
    E4 = relation_primitives(noise_ensemble(P4, N=16, radius=4.0, seed=60), P4)
    zero_psi = E4.psi.scale(0.0)
    assert nullstellensatz_bound(E4, P4, m=1, k=1, psi=zero_psi) == 0.0


def test_nullstellensatz_exact_ensemble_reduces_to_tail():
    P = preset_presentations("X2")
    E = relation_primitives(witness_ensemble(), P)
    total, det = nullstellensatz_bound(E, P, m=1, k=0, details=True)
    assert det["low_sum"] == 0.0
    assert total == det["tail_sum"]


def test_nullstellensatz_grouping_factor():
    # m = 1 separates the per-relation square roots; regrouping them
    # under one root changes the answer by at most sqrt(#relations) < 4
    P = preset_presentations("X4")
    E = relation_primitives(noise_ensemble(P, N=32, radius=6.0, seed=100), P)
    for k in (1, 2, 3):
        total, det = nullstellensatz_bound(E, P, m=1, k=k, details=True)
        grouped = math.sqrt(sum(det["low_terms"].values())) + det["tail_sum"]
        assert grouped > 0.0
        ratio = total / grouped
        assert 1.0 <= ratio <= 4.0


def test_nullstellensatz_tail_vanishes_with_band_limit():
    # radius-6 noise squares live within frequency 24 < 2^5: nothing
    # survives above band 5 and the k = 5 bound is pure relation terms
    P = preset_presentations("X4")
    E = relation_primitives(noise_ensemble(P, N=32, radius=6.0, seed=100), P)
    total, det = nullstellensatz_bound(E, P, m=1, k=5, details=True)
    assert det["tail_sum"] == 0.0
    assert total == det["low_sum"]


# -- ball extension -----------------------------------------------------------------


def test_ball_extension_constant():
    arr = np.ones((3, 9, 9)) * np.array([0.2, -1.0, 3.0]).reshape(3, 1, 1)
    out = ball_extension(arr)
    assert out.shape == (3, 17, 17)
    assert np.all(out == arr[:, :1, :1])


def test_ball_extension_disk_bit_exact():
    # nodes inside the closed unit disk are untouched copies; the square's
    # corners lie outside the disk and get radialized like everything else
    rng = np.random.default_rng(21)
    for M in (5, 9, 17):
        arr = rng.standard_normal((2, M, M))
        out = ball_extension(arr)
        half = (M - 1) // 2
        assert out.shape == (2, 2 * M - 1, 2 * M - 1)
        xs = np.linspace(-1.0, 1.0, M)
        X, Y = np.meshgrid(xs, xs, indexing="ij")
        disk = X**2 + Y**2 <= 1.0
        block = out[:, half : half + M, half : half + M]
        assert np.array_equal(block[:, disk], arr[:, disk])


def test_ball_extension_callable_identity_rank_drop():
    ext = ball_extension(lambda x: x)
    rng = np.random.default_rng(2)
    pts = rng.uniform(-1.9, 1.9, size=(2, 400))
    pts = pts[:, np.sqrt((pts**2).sum(axis=0)) > 1.05]
    eps = 1e-3
    worst = 0.0
    for col in pts.T:
        x = col[:, None]
        radial = (ext(x * (1 + eps)) - ext(x * (1 - eps))) / (2 * eps)
        t_hat = np.array([[-x[1, 0]], [x[0, 0]]])
        t_hat /= np.linalg.norm(t_hat)
        tangent = (ext(x + eps * t_hat) - ext(x - eps * t_hat)) / (2 * eps)
        det = abs(radial[0, 0] * tangent[1, 0] - radial[1, 0] * tangent[0, 0])
        worst = max(worst, det)
    assert worst < 1e-8
    # inside the ball the extension is the map itself
    inside = np.array([[0.3], [-0.4]])
    assert np.array_equal(ext(inside), inside)


def test_ball_extension_area_collapse_outside():
    M = 33
    xs = np.linspace(-1.0, 1.0, M)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    out = ball_extension(np.stack([X, Y]))
    h = 2.0 / (M - 1)
    du = np.diff(out, axis=1)[:, :, :-1]
    dv = np.diff(out, axis=2)[:, :-1, :]
    area = du[0] * dv[1] - du[1] * dv[0]
    K = 2 * M - 1
    cx = np.linspace(-2.0, 2.0, K)
    CX, CY = np.meshgrid(cx, cx, indexing="ij")
    Rc = np.sqrt((CX[:-1, :-1] + h / 2) ** 2 + (CY[:-1, :-1] + h / 2) ** 2)
    outside = Rc > 1.0 + h * math.sqrt(2.0)
    inside = Rc < 1.0 - h * math.sqrt(2.0)
    assert np.abs(area[outside]).max() <= 0.02 * np.abs(area[inside]).max()


def test_ball_extension_lipschitz_at_most_doubled():
    M = 33
    xs = np.linspace(-1.0, 1.0, M)
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    field = np.stack([np.sin(np.pi * X) * np.cos(Y), X * Y, X + 0.3 * Y])
    out = ball_extension(field)
    h = 2.0 / (M - 1)

    def max_slope(v):
        worst = 0.0
        for axis in (1, 2):
            d = np.diff(v, axis=axis) / h
            worst = max(worst, float(np.sqrt((d**2).sum(axis=0)).max()))
        return worst

    assert max_slope(out) <= 2.0 * max_slope(field) + 1e-12


def test_ball_extension_validation():
    with pytest.raises(ShapeError):
        ball_extension(np.zeros((4, 4)))
    with pytest.raises(ShapeError):
        ball_extension(np.zeros((2, 5, 7)))
    with pytest.raises(ParameterError):
        ball_extension(np.zeros((2, 4, 4)))
    with pytest.raises(ParameterError):
        ball_extension(np.zeros((2, 1, 1)))


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
