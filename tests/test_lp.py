"""Band calculus on periodic grids: partitions, d, primitives, supports."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipdeg.acceptance import lp_battery
from lipdeg.bands import (
    GridForm,
    _freq_axis,
    _freq_radius,
    band_decompose,
    band_fields,
    band_profile,
    bandlimited_noise_form,
    build_partition,
    exterior_derivative,
    grid_axes,
    grid_form,
    lp_norm,
    primitive,
    product_support_radius,
    project_band,
    project_upto,
    spectral_support,
    wedge_grid,
    zero_form,
)
from lipdeg.construct import layered_profile
from lipdeg.errors import (
    BandRangeError,
    MeanObstruction,
    NotClosed,
    ParameterError,
    ResolutionError,
    ShapeError,
)
from lipdeg.exterior import (
    ExteriorElement,
    dense_vector,
    multi_indices,
    wedge,
    wedge_pairing_matrix,
    wedge_table,
)

TAU = 2.0 * np.pi


def noise(d, p, N, seed, radius=6.0, T=1.0):
    return bandlimited_noise_form(d, p, N, T=T, radius=radius, seed=seed)


# -- containers and validation -------------------------------------------------


def test_grid_form_validation():
    with pytest.raises(ResolutionError):
        zero_form(2, 1, 48)
    with pytest.raises(ShapeError):
        zero_form(2, 3, 16)
    for period in (-1.0, float("nan"), float("inf")):
        with pytest.raises(ParameterError):
            GridForm(2, 1, 16, period, np.zeros((2, 16, 16)))
        with pytest.raises(ParameterError):
            build_partition(2, 16, period)
    with pytest.raises(ShapeError):
        GridForm(2, 1, 16, 1.0, np.zeros((3, 16, 16)))


def test_lp_norm_exact_values():
    N = 64
    f = grid_form(2, 0, N, components={(): lambda x, y: 2.0 + 0.0 * x})
    assert lp_norm(f, 1) == pytest.approx(2.0, abs=1e-14)
    assert lp_norm(f, 2) == pytest.approx(2.0, abs=1e-14)
    assert lp_norm(f, "inf") == pytest.approx(2.0, abs=1e-14)
    g = grid_form(2, 0, N, components={(): lambda x, y: np.sin(TAU * x) + 0.0 * y})
    # discrete |sin| average over N nodes has the closed form (2/N) cot(pi/N)
    assert lp_norm(g, 1) == pytest.approx(2.0 / N / np.tan(np.pi / N), abs=1e-12)
    assert lp_norm(g, 2) == pytest.approx(np.sqrt(0.5), abs=1e-12)
    with pytest.raises(ParameterError):
        lp_norm(f, "l1")  # only the documented 1, 2 and "inf"


# -- partition structure -------------------------------------------------------


def test_partition_band_range():
    part = build_partition(2, 64, 1.0)
    assert part.k_min == 0
    assert 2.0**part.k_max >= np.sqrt(2) * 32
    part2 = build_partition(3, 32, 4.0)
    assert part2.k_min == -2  # lowest nonzero |xi| = 1/4


def test_partition_sums_to_one_and_plateaus():
    part = build_partition(2, 64, 1.0)
    total = sum(part.band_multiplier(k) for k in part.bands)
    assert np.max(np.abs(total - 1.0)) < 1e-14
    top = part.lowpass_multiplier(part.k_max)
    assert np.all(top == 1.0)  # grid radius below the last cutoff: exact ones
    low = part.lowpass_multiplier(part.k_min)
    assert low[0, 0] == 1.0  # zero mode sits in the lowest band
    for k in part.bands:
        if k > part.k_min:
            assert part.band_multiplier(k)[0, 0] == 0.0


def test_partition_band_disjointness_and_overlap():
    part = build_partition(2, 64, 1.0)
    for k in part.bands:
        for j in part.bands:
            prod = part.band_multiplier(k) * part.band_multiplier(j)
            if abs(k - j) >= 2:
                assert np.all(prod == 0.0)
    # adjacent bands genuinely overlap (partition, not a sharp split)
    mid = part.band_multiplier(3) * part.band_multiplier(4)
    assert np.max(mid) > 1e-4


def test_lowpass_idempotence_is_exact():
    part = build_partition(2, 64, 1.0)
    a = noise(2, 1, 64, seed=3, radius=20.0)
    inner = project_upto(a, 2, part)
    again = project_upto(inner, 5, part)
    assert np.max(np.abs(again.data - inner.data)) < 1e-13 * np.max(np.abs(a.data))
    # multiplier-level identity: chi_5 == 1 on the support of chi_2
    m2, m5 = part.lowpass_multiplier(2), part.lowpass_multiplier(5)
    assert np.all(m5[m2 > 0] == 1.0)


def test_reconstruction_from_bands():
    for d, N, p, seed in [(2, 64, 1, 4), (3, 16, 2, 5)]:
        a = noise(d, p, N, seed=seed, radius=N / 4)
        parts = band_decompose(a)
        total = sum(piece.data for piece in parts.values())
        assert np.max(np.abs(total - a.data)) < 1e-10 * np.max(np.abs(a.data))


def test_band_decompose_matches_project_band():
    a = noise(2, 1, 32, seed=6)
    part = build_partition(2, 32, 1.0)
    pieces = band_decompose(a, part)
    for k in part.bands:
        direct = project_band(a, k, part)
        assert np.max(np.abs(pieces[k].data - direct.data)) < 1e-13


def test_band_index_validation():
    a = noise(2, 0, 16, seed=7)
    part = build_partition(2, 16, 1.0)
    with pytest.raises(BandRangeError):
        project_band(a, part.k_max + 1, part)
    with pytest.raises(BandRangeError):
        part.band_multiplier(part.k_min - 1)


@pytest.fixture(scope="module")
def layered():
    # one plane wave per layer at frequencies 1, 2, 4 (N=16 leaves no room
    # below Nyquist for a fourth layer at 8)
    return layered_profile(2, 2, 1.0, N=16)


def test_band_stream_skips_silent_pairs(layered):
    a = layered.ensemble
    part = build_partition(4, 16, 1.0)
    # a power-of-two frequency lies in exactly one band window
    live = [(k, c) for k, c, _ in band_fields(a, part)]
    assert len(live) == len(layered.layer_frequencies) == 3
    assert {k for k, _ in live} == set(layered.requested)
    prof = band_profile(a, part)
    for k in part.bands:
        if k not in layered.requested:
            assert prof.l1[k] == 0.0
    assert list(prof.per_component) == [(k, I) for k in part.bands for I in a.indices]
    assert all(prof.per_component[(k, a.indices[c])] > (0.0, 0.0, 0.0) for k, c in live)
    pieces = band_decompose(a, part)
    for k in part.bands:
        direct = project_band(a, k, part)
        for c in range(a.data.shape[0]):
            if (k, c) in live:
                assert np.max(np.abs(pieces[k].data[c] - direct.data[c])) < 1e-13
            else:
                assert not np.any(pieces[k].data[c])


def test_dense_form_streams_every_pair():
    a = noise(2, 1, 16, seed=8, radius=16.0)  # every lattice point, Nyquist too
    part = build_partition(2, 16, 1.0)
    n = sum(1 for _ in band_fields(a, part))
    assert n == len(part.bands) * a.data.shape[0]


def test_grid_profile_counts_requested_bands(layered):
    # roundoff bands are silent, so averaged_bound's active-band count is
    # the number of requested bands
    prof = layered.profile
    assert sum(1 for v in prof.l2.values() if v > 0.0) == len(layered.requested)


@pytest.mark.parametrize("d,p,N", [(2, 1, 32), (3, 2, 16), (4, 0, 16)])
def test_lp_battery_profile_is_band_profile(d, p, N):
    a = noise(d, p, N, seed=d + p, radius=N / 2.5)
    part = build_partition(d, N, 1.0)
    got, want = lp_battery(a, part)[3], band_profile(a, part)
    assert got.bands == want.bands
    assert got.l1 == want.l1
    assert got.l2 == want.l2
    assert got.linf == want.linf
    assert got.per_component == want.per_component
    assert len(got.per_component) == len(part.bands) * a.data.shape[0]


def test_orthogonality_ratio_window():
    for seed in (8, 9):
        a = noise(2, 1, 64, seed=seed, radius=24.0)
        prof = band_profile(a)
        ratio = prof.orthogonality_ratio()
        assert 0.1 <= ratio <= 1.0
        assert ratio >= 0.5 - 1e-9  # at most two bands share any frequency


# -- exterior derivative -------------------------------------------------------


def test_derivative_matches_analytic_gradient():
    N = 32
    a = grid_form(
        2, 1, N, components={(2,): lambda x, y: np.sin(TAU * x) * np.cos(2 * TAU * y)}
    )
    da = exterior_derivative(a)
    x, y = grid_axes(2, N)
    want = TAU * np.cos(TAU * x) * np.cos(2 * TAU * y)
    got = da.component((1, 2))
    assert np.max(np.abs(got - np.broadcast_to(want, (N, N)))) < 1e-10


@pytest.mark.parametrize(
    "d,p", [(d, p) for d in (2, 3, 4) for p in range(d - 1)]
)
def test_derivative_squares_to_zero(d, p):
    a = noise(d, p, 16, seed=10, radius=5.0)
    dda = exterior_derivative(exterior_derivative(a))
    scale = np.max(np.abs(a.data)) * (TAU * 16) ** 2
    assert np.max(np.abs(dda.data)) < 1e-12 * scale


def test_derivative_of_top_degree_vanishes():
    a = noise(2, 2, 16, seed=11)
    da = exterior_derivative(a)
    assert da.form_degree == 2
    assert np.all(da.data == 0.0)


def test_derivative_commutes_with_band_projection():
    a = noise(2, 1, 64, seed=12, radius=20.0)
    part = build_partition(2, 64, 1.0)
    scale = TAU * 64 * np.max(np.abs(a.data))
    for k in (2, 4):
        lhs = exterior_derivative(project_band(a, k, part))
        rhs = project_band(exterior_derivative(a), k, part)
        assert np.max(np.abs(lhs.data - rhs.data)) < 1e-10 * scale


# -- primitives ----------------------------------------------------------------


def test_primitive_recovers_potential():
    for T in (1.0, 2.5):
        N = 32
        g = grid_form(
            2,
            0,
            N,
            T,
            components={
                (): lambda x, y: np.cos(TAU * x / T) * np.sin(2 * TAU * y / T)
                + 0.3 * np.sin(3 * TAU * y / T)
            },
        )
        a = exterior_derivative(g)
        rec = primitive(a)
        assert np.max(np.abs(rec.data - g.data)) < 1e-10 * np.max(np.abs(g.data))


@pytest.mark.parametrize(
    "d,p", [(d, p) for d in (2, 3, 4) for p in range(1, d + 1)]
)
def test_primitive_is_right_inverse(d, p):
    b = noise(d, p - 1, 16, seed=13, radius=5.0)
    a = exterior_derivative(b)
    prim = primitive(a)
    back = exterior_derivative(prim)
    assert np.max(np.abs(back.data - a.data)) < 1e-10 * np.max(np.abs(a.data))


def test_primitive_gains_one_band_factor():
    N, part = 128, build_partition(2, 128, 1.0)
    ratios = {}
    for k in (3, 6):
        u = project_band(noise(2, 0, N, seed=14, radius=60.0), k, part)
        a = exterior_derivative(u)
        prim = primitive(a, band=k, part=part)
        ratios[k] = lp_norm(prim, 2) * 2.0**k / lp_norm(a, 2)
    assert 0.4 < ratios[6] / ratios[3] < 2.5


def test_primitive_obstructions():
    N = 16
    const = grid_form(2, 1, N, components={(1,): lambda x, y: 1.0 + 0.2 * np.sin(TAU * x)})
    with pytest.raises(MeanObstruction):
        primitive(const)
    shear = grid_form(2, 1, N, components={(1,): lambda x, y: np.sin(TAU * y) + 0.0 * x})
    with pytest.raises(NotClosed):
        primitive(shear)


def test_primitive_band_leak_detection():
    part = build_partition(2, 64, 1.0)
    u = project_band(noise(2, 0, 64, seed=15, radius=20.0), 2, part)
    a = exterior_derivative(u)
    with pytest.raises(BandRangeError):
        primitive(a, band=5, part=part)


# -- wedge, supports, kernels ----------------------------------------------------


def test_wedge_grid_cross_term():
    N = 16
    f = lambda x, y: np.sin(TAU * x) + 0.0 * y
    g = lambda x, y: np.cos(TAU * y) + 0.0 * x
    a = grid_form(2, 1, N, components={(1,): f})
    b = grid_form(2, 1, N, components={(2,): g})
    ab = wedge_grid(a, b)
    x, y = grid_axes(2, N)
    want = np.broadcast_to(f(x, y) * g(x, y), (N, N))
    assert np.max(np.abs(ab.component((1, 2)) - want)) < 1e-14
    ba = wedge_grid(b, a)
    assert np.max(np.abs(ba.data + ab.data)) < 1e-14


def _constant_form(d, p, N, rng):
    """Random integer-valued constant p-form on the grid and in exterior."""
    coeffs = {I: float(rng.integers(-3, 4)) for I in multi_indices(d, p)}
    return grid_form(d, p, N, components=coeffs), ExteriorElement(d, coeffs)


@pytest.mark.parametrize(
    "d,p,q",
    [(d, p, q) for d in (2, 3, 4) for p in range(d + 1) for q in range(d + 1 - p)],
)
def test_grid_calculus_uses_exterior_sign_convention(d, p, q):
    """wedge_grid and d agree with the exact exterior.wedge oracle."""
    N = 4
    rng = np.random.default_rng(100 * d + 10 * p + q)
    a, A = _constant_form(d, p, N, rng)
    b, B = _constant_form(d, q, N, rng)
    want = dense_vector(wedge(A, B), p + q).reshape((-1,) + (1,) * d)
    np.testing.assert_array_equal(
        wedge_grid(a, b).data, np.broadcast_to(want, (len(want),) + (N,) * d)
    )
    if p == d:
        return
    # d(cos(2 pi m.x) c) = -2 pi sin(2 pi m.x) (m ^ c), frequencies below Nyquist
    m = (1, -1, 1, 1)[:d]
    phase = TAU * sum(mi * x for mi, x in zip(m, grid_axes(d, N)))
    got = exterior_derivative(a.copy_with(a.data * np.cos(phase)))
    M = ExteriorElement(d, {(i + 1,): float(mi) for i, mi in enumerate(m)})
    mc = dense_vector(wedge(M, A), p + 1).reshape((-1,) + (1,) * d)
    assert np.max(np.abs(got.data + TAU * np.sin(phase) * mc)) < 1e-12


@pytest.mark.parametrize(
    "cached",
    [
        lambda: wedge_pairing_matrix(4, 2),
        lambda: wedge_table(4, 2, 1)[0],
        lambda: wedge_table(4, 2, 1)[1],
        lambda: _freq_radius(3, 8, 1.0),
        lambda: _freq_axis(3, 8, 1.0, 1),
    ],
    ids=["pairing", "table-target", "table-sign", "freq-radius", "freq-axis"],
)
def test_cached_arrays_are_read_only(cached):
    arr = cached()
    with pytest.raises(ValueError):
        arr[(0,) * arr.ndim] = 7


def test_wedge_grid_degree_overflow():
    a = noise(2, 1, 16, seed=16)
    b = noise(2, 2, 16, seed=17)
    with pytest.raises(ShapeError):
        wedge_grid(a, b)


def _support_oracle(a, thresh=1e-12):
    """Support read off the complex FFT of every component (full lattice)."""
    d, N = a.spatial_dim, a.resolution
    mag = np.max(np.abs(np.fft.fftn(a.data, axes=tuple(range(1, d + 1)))), axis=0)
    freqs = (np.fft.fftfreq(N) * N).astype(np.int64)
    return freqs[np.argwhere(mag > thresh * mag.max())]


@pytest.mark.parametrize("d,p,N", [(2, 0, 32), (2, 1, 8), (3, 2, 16), (4, 2, 8)])
@pytest.mark.parametrize("kind", ["white", "bandlimited"])
def test_spectral_support_matches_complex_fft(d, p, N, kind):
    if kind == "white":  # every mode, the Nyquist planes included
        rng = np.random.default_rng(10 * d + p)
        a = GridForm(d, p, N, 1.0, rng.standard_normal((math.comb(d, p),) + (N,) * d))
    else:
        a = noise(d, p, N, seed=d + p, radius=N / 4)
    got = [tuple(int(x) for x in row) for row in spectral_support(a)]
    pts = set(got)
    assert len(got) == len(pts)  # no lattice point listed twice
    assert pts == {tuple(int(x) for x in row) for row in _support_oracle(a)}
    assert all(-N // 2 <= x < N // 2 for m in pts for x in m)
    # a real form's support is closed under negation mod N
    assert {tuple((-x + N // 2) % N - N // 2 for x in m) for m in pts} == pts


@pytest.mark.parametrize("d", [2, 3])
def test_product_support_radius_is_exact(d):
    a = noise(d, 0, 16, seed=30 + d, radius=3.0)
    b = noise(d, 1, 16, seed=40 + d, radius=3.5)
    want = max(
        math.sqrt(sum((int(x) + int(y)) ** 2 for x, y in zip(u, v)))
        for u in spectral_support(a)
        for v in spectral_support(b)
    )
    assert product_support_radius(a, b) == want


def test_spectral_support_exact_points():
    N = 16
    a = grid_form(2, 0, N, components={(): lambda x, y: np.cos(3 * TAU * x) + 0.0 * y})
    pts = {tuple(row) for row in spectral_support(a)}
    assert pts == {(3, 0), (-3, 0)}


def test_product_support_is_sum_of_supports():
    N = 64
    a = project_upto(noise(2, 0, N, seed=18, radius=28.0), 3)
    b = project_upto(noise(2, 0, N, seed=19, radius=28.0), 3)
    prod = a.copy_with(a.data * b.data)
    sum_set = {
        (int(u[0] + v[0]), int(u[1] + v[1]))
        for u in spectral_support(a)
        for v in spectral_support(b)
    }
    prod_set = {tuple(int(x) for x in row) for row in spectral_support(prod, 1e-10)}
    assert prod_set <= sum_set  # bit-exact set containment
    assert product_support_radius(a, b) <= 2 * 16.0 + 1e-9


def test_product_support_alias_guard():
    N = 16
    a = grid_form(2, 0, N, components={(): lambda x, y: np.cos(5 * TAU * x) + 0.0 * y})
    with pytest.raises(BandRangeError):
        product_support_radius(a, a)


def _wave_form(d, p, N, waves):
    """Sum of amplitude * cos(2 pi <m, x> + phase) placed in component c."""
    a = zero_form(d, p, N)
    axes = grid_axes(d, N)
    for m, amp, phase, c in waves:
        arg = sum(mi * x for mi, x in zip(m, axes))
        a.data[c % a.data.shape[0]] += amp * np.cos(TAU * arg + phase)
    return a


def _waves(d, N, most):
    r = N // 4
    wave = st.tuples(
        st.lists(st.integers(-r, r), min_size=d, max_size=d),
        st.floats(0.5, 2.0),
        st.floats(0.0, TAU),
        st.integers(0, 2),
    )
    return st.lists(wave, min_size=1, max_size=most)


@st.composite
def sparse_pairs(draw):
    d = draw(st.sampled_from([2, 3]))
    N = draw(st.sampled_from([16, 32]))
    a = _wave_form(d, 0, N, draw(_waves(d, N, 2)))
    b = _wave_form(d, 1, N, draw(_waves(d, N, 6)))
    return a, b


@settings(max_examples=60, derandomize=True, deadline=None)
@given(sparse_pairs())
def test_pruned_product_support_matches_all_pairs(pair):
    a, b = pair
    sa, sb = spectral_support(a), spectral_support(b)

    def sq(m):
        return sum(int(x) ** 2 for x in m)

    reach = math.sqrt(max(sq(u) for u in sa)) + math.sqrt(max(sq(v) for v in sb))
    if reach >= a.resolution / 2:
        with pytest.raises(BandRangeError):
            product_support_radius(a, b)
        return
    want = math.sqrt(max(sq(u + v) for u in sa for v in sb))
    assert product_support_radius(a, b) == want
    assert product_support_radius(b, a) == want


def test_product_support_single_point():
    const = grid_form(2, 0, 16, components={(): np.full((16, 16), 2.0)})
    assert {tuple(m) for m in spectral_support(const)} == {(0, 0)}
    b = _wave_form(2, 1, 16, [((3, -1), 1.0, 0.4, 1), ((0, 2), 0.7, 1.1, 0)])
    assert product_support_radius(const, b) == math.sqrt(10)
    assert product_support_radius(b, const) == math.sqrt(10)
    assert product_support_radius(const, const) == 0.0


def test_bandlimited_noise_respects_radius():
    a = bandlimited_noise_form(2, 1, 32, radius=7.0, seed=20)
    pts = spectral_support(a, thresh=1e-9)
    assert np.all(np.linalg.norm(pts, axis=1) <= 7.0 + 1e-9)
