"""Band calculus on periodic grids: partitions, d, primitives, supports."""

import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipdeg import acceptance, bands
from lipdeg.acceptance import lp_battery
from lipdeg.bands import (
    SILENT_FLOOR,
    GridForm,
    _chi,
    _closedness_residual,
    _smooth_step,
    band_decompose,
    band_fields,
    band_profile,
    bandlimited_noise_form,
    build_partition,
    closedness,
    exterior_derivative,
    grid_axes,
    grid_form,
    lp_norm,
    primitive,
    product_support_radius,
    project_band,
    spectral_support,
    wedge_grid,
    zero_form,
)
from lipdeg.construct import layered_profile
from lipdeg.errors import (
    BandRangeError,
    DimensionMismatch,
    MeanObstruction,
    NotClosed,
    ParameterError,
    ResolutionError,
    ShapeError,
)
from lipdeg.exterior import multi_indices, wedge_nonzeros, wedge_pairing_matrix
from lipdeg.rings import intersection_form, preset_presentations
import oracles
from oracles import (
    ExteriorElement,
    dense_vector,
    lowpass_multiplier,
    project_upto,
    wedge,
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
    # the last three put the cell volume or the Nyquist radius's square
    # outside float64
    for period in (-1.0, float("nan"), float("inf"), 5e-324, 1e-300, 1e300):
        with pytest.raises(ParameterError):
            GridForm(2, 1, 16, period, np.zeros((2, 16, 16)))
        with pytest.raises(ParameterError):
            build_partition(2, 16, period)
    with pytest.raises(ShapeError):
        GridForm(2, 1, 16, 1.0, np.zeros((3, 16, 16)))


@pytest.mark.parametrize(
    "d,N,T,ok",
    [
        (2, 4, 2.0**-509, True),
        (2, 4, 2.0**-510, False),
        (1, 2**600, 2.0**1021, True),
        (1, 2**600, 2.0**1022, False),
    ],
    ids=["cell-at", "cell-below", "band-at", "band-below"],
)
def test_partition_scales_at_the_smallest_normal(d, N, T, ok):
    """A grid whose smallest scale is 2^-1022, the smallest normal float64,
    is accepted, and one whose smallest scale is below it is refused.  On
    the 4^2 grid that scale is the cell volume (T / N)^2; on a 2^600-point
    line, which no form may hold but the partition reads, it is 2^(k_min - 1)
    one band below the lowest."""
    if ok:
        part = build_partition(d, N, T)
        assert min((T / N) ** d, 2.0 ** (part.k_min - 1)) == 2.0**-1022
    else:
        with pytest.raises(ParameterError):
            build_partition(d, N, T)


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


def test_sup_norm_is_exact_without_a_form_sized_temporary():
    a = noise(3, 2, 64, seed=14, radius=10.0)
    tracemalloc.start()
    try:
        got = lp_norm(a, "inf")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got == float(np.max(np.abs(a.data)))
    assert peak < 2**16  # the form is 6 MiB
    for zero in (0.0, -0.0):  # an all-zero form of either sign: +0.0
        z = zero_form(2, 1, 8)
        z.data[:] = zero
        assert math.copysign(1.0, lp_norm(z, "inf")) == 1.0 and lp_norm(z, "inf") == 0.0
    for c, value in ((0, np.nan), (2, np.nan), (1, -np.inf)):
        b = a.copy_with(a.data.copy())
        b.data[c, 5, 6, 7] = value
        assert np.array_equal(lp_norm(b, "inf"), float(np.max(np.abs(b.data))), equal_nan=True)


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
    top = lowpass_multiplier(part, part.k_max)
    assert np.all(top == 1.0)  # grid radius below the last cutoff: exact ones
    low = lowpass_multiplier(part, part.k_min)
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


def _lattice(d, N, T):
    """(xi per half-lattice axis, |xi|), built from fftfreq alone: the last
    axis holds 0..N/2, the others fftfreq's order."""
    xi = []
    for i in range(d):
        m = np.fft.fftfreq(N) * N
        if i == d - 1:
            m = np.abs(m[: N // 2 + 1])
        shape = [1] * d
        shape[i] = len(m)
        xi.append((m / T).reshape(shape))
    return xi, np.sqrt(sum(x**2 for x in xi))


@pytest.mark.parametrize("T", [0.5, 1.0, 2.5])
@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_class_windows_equal_lattice_windows(d, T):
    """The partition's axes and radius classes are the fftfreq lattice, and
    windows evaluated once per radius class and gathered by the class
    index are the lattice windows chi(|xi| / 2^k), bit for bit."""
    for N in (4, 8, 16, 32):
        part = build_partition(d, N, T)
        u, inv = part.classes
        xi, r = _lattice(d, N, T)
        assert len(part.axes) == d and all(map(np.array_equal, part.axes, xi))
        assert np.array_equal(u[inv], r)
        assert inv.dtype == np.int32 and len(u) == len(np.unique(r))
        for k in range(part.k_min - 1, part.k_max + 1):
            assert np.array_equal(lowpass_multiplier(part, k), _chi(r / 2.0**k))
        windows = dict(part.windows())
        for k in part.bands:
            low = _chi(r / 2.0**k)
            want = low if k == part.k_min else low - _chi(r / 2.0 ** (k - 1))
            assert np.array_equal(part.band_multiplier(k), want)
            assert np.array_equal(windows[k][inv], want)


def test_smooth_step_is_exact_at_and_past_its_ends():
    """The 1e-300 floor alone makes exp(-1/t) exactly +0.0 at and past either
    end, so the step is exactly 0 at t <= 0 and exactly 1 at t >= 1,
    infinities included, with no floating-point warning."""
    low = np.array([-np.inf, -1.0, -0.0, 0.0, 5e-324])
    high = np.array([1.0, 1.0 + 2.0**-52, 2.0, np.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        at_low, at_high = _smooth_step(low), _smooth_step(high)
    assert np.array_equal(at_low, np.zeros(5)) and not np.signbit(at_low).any()
    assert np.array_equal(at_high, np.ones(4))


def test_lowpass_idempotence_is_exact():
    part = build_partition(2, 64, 1.0)
    a = noise(2, 1, 64, seed=3, radius=20.0)
    inner = project_upto(a, 2)
    again = project_upto(inner, 5)
    assert np.max(np.abs(again.data - inner.data)) < 1e-13 * np.max(np.abs(a.data))
    # multiplier-level identity: chi_5 == 1 on the support of chi_2
    m2, m5 = lowpass_multiplier(part, 2), lowpass_multiplier(part, 5)
    assert np.all(m5[m2 > 0] == 1.0)


# small grids for the calculus properties: N <= 16 keeps each example in
# milliseconds, and a period T != 1 moves the frequencies off the integers
GRID_N = st.sampled_from([4, 8, 16])
PERIOD = st.sampled_from([0.5, 1.0, 2.5])
SEED = st.integers(0, 2**31 - 1)


@st.composite
def dims_and_degree(draw):
    d = draw(st.integers(1, 4))
    return d, draw(st.integers(0, d))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(dp=dims_and_degree(), N=GRID_N, T=PERIOD, seed=SEED)
def test_reconstruction_from_bands(dp, N, T, seed):
    # full-spectrum noise: the bands must tile every lattice point
    d, p = dp
    a = noise(d, p, N, seed=seed, radius=N / T, T=T)
    parts = band_decompose(a)
    total = sum(piece.data for piece in parts.values())
    assert np.max(np.abs(total - a.data)) < 1e-10 * np.max(np.abs(a.data))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(dp=dims_and_degree(), N=GRID_N, T=PERIOD, seed=SEED)
def test_parseval_whole_and_band_by_band(dp, N, T, seed):
    # the Riemann L2 norm, of the form and of each band, is the spectral sum
    # (T/N)^d N^-d sum_m |w(m) a^(m)|^2 over the full lattice; a half
    # spectrum counts its last-axis interior planes twice
    d, p = dp
    a = noise(d, p, N, seed=seed, radius=N / T, T=T)
    power = np.abs(np.fft.rfftn(a.data, axes=tuple(range(1, d + 1)))) ** 2
    twice = np.full(N // 2 + 1, 2.0)
    twice[0] = twice[-1] = 1.0
    power = (power * twice).sum(axis=0) * (T / N) ** d / N**d
    assert lp_norm(a, 2) ** 2 == pytest.approx(power.sum(), rel=1e-12)
    prof, part = band_profile(a), build_partition(d, N, T)
    assert prof.bands == tuple(part.bands)
    for k in part.bands:
        want = float((power * part.band_multiplier(k) ** 2).sum())
        assert prof.l2[k] ** 2 == pytest.approx(want, rel=1e-9, abs=1e-12 * power.sum())


def _support_radius(a):
    pts = spectral_support(a)
    return math.sqrt(max(int((m**2).sum()) for m in pts)) if len(pts) else 0.0


@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    dp=dims_and_degree(),
    q=st.integers(0, 4),
    N=GRID_N,
    T=st.sampled_from([0.5, 2.5]),
    seed=SEED,
    fa=st.floats(0.0, 0.24),
    fb=st.floats(0.0, 0.24),
)
def test_product_support_within_sum_of_radii(dp, q, N, T, seed, fa, fb):
    # lattice radii below N/4 each keep the sum off the Nyquist shell
    d, p = dp
    a = noise(d, p, N, seed=seed, radius=fa * N / T, T=T)
    b = noise(d, min(q, d - p), N, seed=seed + 1, radius=fb * N / T, T=T)
    got = product_support_radius(a, b)
    assert got <= _support_radius(a) + _support_radius(b)
    lattice = spectral_support(wedge_grid(a, b), 1e-10)
    if len(lattice):
        assert np.linalg.norm(lattice, axis=1).max() <= got + 1e-9


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


@pytest.mark.parametrize(
    "other", [(2, 32, 1.0), (2, 16, 2.0)], ids=["other_N", "other_T"]
)
@pytest.mark.parametrize(
    "call",
    [
        band_decompose,
        band_profile,
        lambda a, part: project_band(a, 0, part),
        lambda a, part: primitive(a, part=part),
    ],
    ids=["band_decompose", "band_profile", "project_band", "primitive"],
)
def test_partition_of_another_grid_is_a_dimension_mismatch(call, other):
    a = exterior_derivative(noise(2, 0, 16, seed=9))  # closed and mean-free
    with pytest.raises(DimensionMismatch):
        call(a, build_partition(*other))


@pytest.fixture(scope="module")
def layered():
    # one plane wave per layer at frequencies 1, 2, 4 (N=16 leaves no room
    # below Nyquist for a fourth layer at 8)
    return layered_profile(2, 2, 1.0, N=16)


def test_band_stream_skips_silent_pairs(layered):
    a = layered.ensemble
    part = build_partition(4, 16, 1.0)
    # a power-of-two frequency lies in exactly one band window
    live = [(k, c) for k, c, _ in band_fields(a)]
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


def _half_spectra(a):
    """Every component's half-spectrum, each plane transformed."""
    return [np.fft.rfftn(c, axes=tuple(range(a.spatial_dim))) for c in a.data]


def _live_pairs(a, complex_product: bool) -> list:
    """The (band, component) pairs above their component's silent floor,
    component by component, tested on the whole lattice: on |spectrum *
    window| with ``complex_product``, else on |spectrum| * window."""
    part = build_partition(a.spatial_dim, a.resolution, a.period)
    live = []
    for c, spec in enumerate(_half_spectra(a)):
        mag = np.abs(spec)
        floor = SILENT_FLOOR * float(mag.max())
        for k in part.bands:
            w = part.band_multiplier(k)
            peak = np.abs(spec * w).max() if complex_product else (mag * w).max()
            if float(peak) > floor:
                live.append((k, c))
    return live


def _near_floor_form(N=32):
    """cos(2 pi x) plus, on the 7 half-lattice points of |m| = 5, waves whose
    peaks lie just below the silent floor, and on those of |m| = 10 waves
    just above it: a class's sum crosses the floor where its peak does not."""
    x, y = grid_axes(2, N)
    f = np.cos(TAU * x) + 0.0 * y
    for r2, amp in ((25, 0.5e-12), (100, 1.5e-12)):
        for m0 in range(-N // 2, N // 2):
            for m1 in range(0, N // 2):
                if m0 * m0 + m1 * m1 == r2 and (m1 > 0 or m0 > 0):
                    f = f + amp * np.cos(TAU * (m0 * x + m1 * y))
    return grid_form(2, 0, N, components={(): f})


@pytest.mark.parametrize("kind", ["dense", "layered", "near-floor"])
def test_class_peak_silence_test_is_the_lattice_test(kind):
    if kind == "dense":
        a = noise(3, 1, 16, seed=12, radius=16 / 2.5)
    elif kind == "layered":
        a = layered_profile(2, 2, 1.0, N=16, T=2.5, seed=4).ensemble
    else:
        a = _near_floor_form()
    part = build_partition(a.spatial_dim, a.resolution, a.period)
    u, inv = part.classes
    windows = dict(part.windows())
    for mag in (np.abs(s) for s in _half_spectra(a)):
        peak = np.zeros(len(u))
        np.maximum.at(peak, inv.ravel(), mag.ravel())
        assert peak.max() == mag.max()
        # the window is constant on a class and rounding is monotone
        for k in part.bands:
            assert (peak * windows[k]).max() == (mag * part.band_multiplier(k)).max()
    live = [(k, c) for k, c, _ in band_fields(a)]
    assert live == _live_pairs(a, complex_product=False)
    assert 0 < len(live) < len(part.bands) * a.data.shape[0]


# the benchmark's dense forms: (d, N) -> degrees, noise at radius N / 2.5
SPECTRAL_FORMS = {(2, 256): (0, 1, 2), (3, 64): (0, 1, 2, 3), (4, 32): (0,)}


@pytest.mark.parametrize(
    "d,N,p", [(d, N, p) for (d, N), ps in SPECTRAL_FORMS.items() for p in ps] + [(4, 32, 2)]
)
def test_live_pairs_match_the_complex_test(d, N, p):
    if p == 2 and d == 4:  # a layered ensemble: zero components and zero bands
        a = layered_profile(2, 3, 1.0, N=N, seed=7).ensemble
    else:
        a = noise(d, p, N, seed=10 * d + p, radius=N / 2.5)
    live = [(k, c) for k, c, _ in band_fields(a)]
    assert live == _live_pairs(a, complex_product=True)
    # the top band is silent in every dense form
    k_top = build_partition(d, N, 1.0).k_max
    assert all(k != k_top for k, _ in live)


def _profile_bytes(prof) -> bytes:
    """A band profile's keys and every number in it, in its own order."""
    maps = (prof.l1, prof.l2, prof.linf, prof.per_component)
    nums = [prof.total_l2] + [x for m in maps for v in m.values() for x in np.atleast_1d(v)]
    return repr((prof.bands, [list(m) for m in maps])).encode() + np.array(nums).tobytes()


def _recorded(stream, pairs: list):
    """``stream`` of (k, c, field), recording each (k, c) in ``pairs``."""
    for k, c, fld in stream:
        pairs.append((k, c))
        yield k, c, fld


def _component_major(pairs) -> list:
    return sorted(pairs, key=lambda kc: (kc[1], kc[0]))


def _check_band_stream(a, decompose: bool):
    """band_profile and band_decompose equal the band-major oracle's bit for
    bit, and the stream visits the oracle's live pairs component-major."""
    got, want = [], []
    prof = bands._stream_profile(a, _recorded(band_fields(a), got))
    oracle = oracles.stream_profile(a, _recorded(oracles.band_fields(a), want))
    assert _profile_bytes(prof) == _profile_bytes(oracle)
    assert _profile_bytes(band_profile(a)) == _profile_bytes(oracle)
    assert got == _component_major(want)
    if decompose:
        pieces = band_decompose(a)
        planes = {k: np.zeros_like(a.data) for k in pieces}
        for k, c, fld in oracles.band_fields(a):
            planes[k][c] = fld
        assert all(pieces[k].data.tobytes() == planes[k].tobytes() for k in pieces)
    return got


# the forms the stream must reproduce: (d, p, N) of noise at radius N / 2.5,
# or the layered 4D N=32 ensemble; decomposed where every band stays small
BAND_STREAM_FORMS = [(2, 1, 256), (3, 1, 64), (3, 2, 64), (4, 0, 32), (4, 2, 32), "layered"]


@pytest.mark.parametrize("form", BAND_STREAM_FORMS, ids=str)
def test_band_stream_equals_the_band_major_oracle(form):
    if form == "layered":
        a = layered_profile(2, 3, 1.0, N=32, seed=7).ensemble
    else:
        d, p, N = form
        a = noise(d, p, N, seed=40 + 10 * d + p, radius=N / 2.5)
    _check_band_stream(a, decompose=a.data.nbytes <= 2**23)


@pytest.mark.parametrize("d,p,N", [(3, 1, 32), (2, 2, 64)])
def test_lp_battery_equals_its_band_major_oracle(monkeypatch, d, p, N):
    a = noise(d, p, N, seed=50 + d, radius=N / 2.5)
    got = lp_battery(a)
    monkeypatch.setattr(acceptance, "band_fields", oracles.band_fields)
    monkeypatch.setattr(acceptance, "_stream_profile", oracles.stream_profile)
    want = lp_battery(a)
    assert np.array(got[:3]).tobytes() == np.array(want[:3]).tobytes()
    assert _profile_bytes(got[3]) == _profile_bytes(want[3])


def test_lp_battery_recon_is_the_sup_quotient():
    a = noise(3, 1, 16, seed=64, radius=16 / 2.5)
    total = np.zeros_like(a.data)
    for piece in band_decompose(a).values():
        total += piece.data
    want = np.max(np.abs(total - a.data)) / np.max(np.abs(a.data))
    assert lp_battery(a)[0] == want
    with np.errstate(invalid="ignore"):  # 0 / 0 in float64, not ZeroDivisionError
        assert math.isnan(lp_battery(zero_form(2, 0, 8))[0])


def test_a_faint_component_keeps_its_bands(monkeypatch):
    # component 0 at 1e-13 of the others: every magnitude of it lies below
    # SILENT_FLOOR times the form's largest, yet its bands stay live
    a = noise(3, 2, 32, seed=61, radius=32 / 2.5)
    a.data[0] *= 1e-13
    tops = [float(np.abs(s).max()) for s in _half_spectra(a)]
    assert tops[0] <= SILENT_FLOOR * max(tops)
    live = _check_band_stream(a, decompose=True)
    zero = [(k, c) for k, c in live if c == 0]
    assert zero and zero == [(k, c) for k, c in _live_pairs(a, False) if c == 0]
    pieces = band_decompose(a)
    recon = sum(pieces[k].data[0] for k in pieces)
    ref = np.max(np.abs(a.data[0]))
    assert np.max(np.abs(recon - a.data[0])) <= 1e-14 * ref
    with monkeypatch.context() as m:
        counts = _count_transforms(m)
        assert sum(1 for _ in band_fields(a)) == len(live)
    # one rfftn per nonzero component, one irfftn per live pair
    assert counts == {"rfftn": 3, "irfftn": len(live)}


def test_a_nan_component_floors_as_in_the_band_major_stream():
    # each component sets its own floor, so a NaN sample silences the
    # component it sits in and no other, wherever that component sits
    for zero, nan in ((0, 1), (1, 2), (2, 1), (2, 0)):
        a = noise(3, 1, 16, seed=63, radius=5.0)
        a.data[zero] = 0.0
        a.data[nan, 1, 2, 3] = np.nan
        with np.errstate(all="ignore"):
            got, want = [], []
            prof = bands._stream_profile(a, _recorded(band_fields(a), got))
            oracle = oracles.stream_profile(a, _recorded(oracles.band_fields(a), want))
        assert _profile_bytes(prof) == _profile_bytes(oracle)
        assert got == _component_major(want)
        assert {c for _, c in got} == {0, 1, 2} - {zero, nan}


def test_band_stream_holds_one_half_spectrum():
    a = noise(4, 2, 32, seed=62, radius=32 / 2.5)  # six 8 MiB components
    build_partition(4, 32, 1.0).classes  # built beforehand: not the stream's
    half = 16 * 32**3 * 17  # one complex half-spectrum, 8.5 MiB
    tracemalloc.start()
    try:
        band_profile(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the stream with every spectrum live rose about 10.4 half-spectra
    assert peak <= 6 * half


# tracemalloc peak / form bytes of each operator on a dense 3D N=64 1-form,
# after one warm-up call: the measured ratio plus 0.01
MEMORY_PINS = {
    "project_band": 1.547,
    "exterior_derivative": 2.407,
    "exterior_derivative_zeroed": 2.402,
    "closedness_zeroed": 2.402,
    "band_profile": 1.384,
    "primitive": 3.782,
    "spectral_support": 0.733,
    "lp_battery": 4.407,
    "wedge_grid": 1.343,
    "bandlimited_noise_form": 2.547,
}


@pytest.mark.parametrize("op", MEMORY_PINS)
def test_operator_memory_is_pinned(op):
    a = noise(3, 1, 64, seed=3, radius=64 / 2.5)
    zeroed = a.copy_with(a.data.copy())
    zeroed.data[1] = 0.0
    ks = build_partition(3, 64, 1.0).bands
    k = ks[len(ks) // 2]
    piece = project_band(exterior_derivative(a), k)
    call = {
        "project_band": lambda: project_band(a, k),
        "exterior_derivative": lambda: exterior_derivative(a),
        "exterior_derivative_zeroed": lambda: exterior_derivative(zeroed),
        "closedness_zeroed": lambda: closedness(zeroed),
        "band_profile": lambda: band_profile(a),
        "primitive": lambda: primitive(piece),
        "spectral_support": lambda: spectral_support(a),
        "lp_battery": lambda: lp_battery(a),
        "wedge_grid": lambda: wedge_grid(a, a),
        "bandlimited_noise_form": lambda: noise(3, 1, 64, seed=3, radius=64 / 2.5),
    }[op]
    call()  # warm-up: the cached partition and its classes are not the operator's
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= MEMORY_PINS[op] * a.data.nbytes


def _full_transforms(monkeypatch):
    """Route bands through a transform on every plane and every output
    spectrum, zero or not."""
    monkeypatch.setattr(bands, "_all_zero", lambda x: False)


def _count_transforms(monkeypatch) -> dict:
    """Count bands' n-D transforms: each ``_spectrum`` is one rfftn and each
    ``_field`` one irfftn, however many 1-D passes and halves it runs."""
    counts = {"rfftn": 0, "irfftn": 0}
    for name, fn in (("rfftn", bands._spectrum), ("irfftn", bands._field)):

        def counted(*args, _fn=fn, _name=name, **kw):
            counts[_name] += 1
            return _fn(*args, **kw)

        monkeypatch.setattr(bands, fn.__name__, counted)
    return counts


@pytest.mark.parametrize("kind", ["layered", "zeroed"])
def test_zero_planes_skip_their_transforms_exactly(monkeypatch, kind):
    if kind == "layered":  # 3 of 6 components carry a layer; d is exactly zero
        a = layered_profile(2, 2, 1.0, N=16, seed=5).ensemble
    else:  # one zero input plane, a nonzero derivative
        a = noise(3, 1, 16, seed=21)
        a.data[1] = 0.0
    zero = sum(1 for c in a.data if not c.any())
    assert zero > 0
    k_top = build_partition(a.spatial_dim, a.resolution, a.period).k_max
    with monkeypatch.context() as m:
        counts = _count_transforms(m)
        da = exterior_derivative(a)
        prof = band_profile(a)
        top = project_band(a, k_top)
    with monkeypatch.context() as m:
        _full_transforms(m)
        full_da = exterior_derivative(a)
        full_prof = band_profile(a)
        full_top = project_band(a, k_top)
    assert np.array_equal(da.data, full_da.data)
    assert np.array_equal(top.data, full_top.data)
    for field in ("bands", "l1", "l2", "linf", "per_component", "total_l2"):
        assert getattr(prof, field) == getattr(full_prof, field)
    n = a.data.shape[0]
    live = sum(1 for _ in band_fields(a))
    zero_out = sum(1 for c in da.data if not c.any())
    zero_top = sum(1 for c in top.data if not c.any())
    # one rfftn per nonzero plane in d, the profile and the projection; one
    # irfftn per live pair and per nonzero output plane
    assert counts == {
        "rfftn": 3 * (n - zero),
        "irfftn": live + da.data.shape[0] - zero_out + n - zero_top,
    }
    if kind == "layered":  # d is zero, and the top band is out of reach
        assert zero_out == da.data.shape[0]
        assert zero_top == n


def test_dense_form_streams_every_pair():
    a = noise(2, 1, 16, seed=8, radius=16.0)  # every lattice point, Nyquist too
    part = build_partition(2, 16, 1.0)
    n = sum(1 for _ in band_fields(a))
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
    got, want = lp_battery(a)[3], band_profile(a, part)
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
@settings(max_examples=15, derandomize=True, deadline=None)
@given(N=GRID_N, T=PERIOD, seed=SEED)
def test_derivative_squares_to_zero(d, p, N, T, seed):
    # spectrum below 0.3 N modes, clear of the Nyquist plane
    a = noise(d, p, N, seed=seed, radius=0.3 * N / T, T=T)
    dda = exterior_derivative(exterior_derivative(a))
    scale = np.max(np.abs(a.data)) * (TAU * N / T) ** 2
    assert np.max(np.abs(dda.data)) < 1e-12 * scale


def test_derivative_of_top_degree_vanishes():
    a = noise(2, 2, 16, seed=11)
    da = exterior_derivative(a)
    assert da.form_degree == 2
    assert np.all(da.data == 0.0)


def test_closedness_is_the_relative_sup_of_d():
    assert closedness(noise(2, 2, 16, seed=11)) == 0.0  # top degree
    for a in (noise(3, 1, 16, seed=13), layered_profile(2, 2, 1.0, N=16, seed=4).ensemble):
        want = lp_norm(exterior_derivative(a), "inf") / max(lp_norm(a, "inf"), 1e-300)
        assert closedness(a) == want
    assert closedness(noise(3, 1, 16, seed=13)) > 1e-3  # a noise 1-form is not closed


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
    "d,p", [(d, p) for d in (1, 2, 3, 4) for p in range(1, d + 1)]
)
@settings(max_examples=12, derandomize=True, deadline=None)
@given(N=GRID_N, T=PERIOD, seed=SEED)
def test_primitive_is_right_inverse(d, p, N, T, seed):
    b = noise(d, p - 1, N, seed=seed, radius=0.3 * N / T, T=T)
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


def _lattice_primitive(a, xi, r):
    """The primitive's output planes, with 1 / (2 pi |xi|^2) evaluated on
    the lattice |xi| = r."""
    d, p, N = a.spatial_dim, a.form_degree, a.resolution
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(r > 0, 1.0 / np.maximum(r, 1e-300) ** 2, 0.0) / (2.0 * np.pi)
    high, axis, low, sign = wedge_nonzeros(d, 1, p - 1)
    out = oracles.combine(
        oracles.spectra(a),
        (low, axis, high, sign),
        lambda axis, sign: sign * xi[axis] * inv * (-1j),
        math.comb(d, p - 1),
    )
    return oracles.synthesize(out, d, N)


def _lattice_residual(a, xi, r):
    """Relative spectral l2 of d(a), weighted by the lattice |xi| = r."""
    d, p = a.spatial_dim, a.form_degree
    specs = _half_spectra(a)
    acc = oracles.combine(
        specs, wedge_nonzeros(d, 1, p), lambda axis, sign: sign * xi[axis], math.comb(d, p + 1)
    )
    num = sum(float(np.sum(np.abs(t) ** 2)) for t in acc if t is not None)
    den = sum(float(np.sum((np.abs(s) * r) ** 2)) for s in specs)
    return np.sqrt(num / den)


@pytest.mark.parametrize("T", [0.5, 1.0, 2.5])
def test_radial_quantities_equal_their_lattice_formulas(T):
    """Noise mask, primitive (with and without a band) and the closedness
    residual read the radius classes, and equal, bit for bit, the same
    formulas evaluated on the fftfreq lattice."""
    d, N, radius = 3, 16, 5.0 / T
    xi, r = _lattice(d, N, T)
    raw = GridForm(d, 1, N, T, np.random.default_rng(7).standard_normal((d,) + (N,) * d))
    mask = (r <= radius).astype(float)
    want = [np.fft.irfftn(s * mask, s=(N,) * d, axes=tuple(range(d))) for s in _half_spectra(raw)]
    a = noise(d, 1, N, seed=7, radius=radius, T=T)
    assert np.array_equal(a.data, np.stack(want))
    # mean-free, not closed: the residual is the lattice one, and primitive
    # reports it
    part = build_partition(d, N, T)
    b = a.copy_with(a.data - a.data.mean(axis=tuple(range(1, d + 1)), keepdims=True))
    resid = _lattice_residual(b, xi, r)
    assert _closedness_residual(b, part, list(enumerate(_half_spectra(b)))) == resid
    with pytest.raises(NotClosed, match=re.escape(f"residual {resid:.3e}")):
        primitive(b)
    # closed: d of the noise, then its band-k piece
    da = exterior_derivative(a)
    assert np.array_equal(primitive(da).data, _lattice_primitive(da, xi, r))
    k = part.k_min + 2
    piece = project_band(da, k)
    want = _lattice_primitive(piece, xi, r)
    assert np.array_equal(primitive(piece, band=k).data, want)
    assert np.array_equal(primitive(piece, band=k, part=part).data, want)
    # band k+1's annulus holds part of the piece: the leak is the lattice one
    inside = (r >= 2.0**k) & (r <= 2.0 ** (k + 2))
    specs = _half_spectra(piece)
    leak = np.sqrt(sum(float(np.sum(np.abs(np.where(inside, 0, s)) ** 2)) for s in specs))
    total = np.sqrt(sum(float(np.sum(np.abs(s) ** 2)) for s in specs))
    assert 0 < leak < total
    with pytest.raises(BandRangeError, match=re.escape(f"relative {leak / total:.3e}")):
        primitive(piece, band=k + 1)


@pytest.mark.parametrize("T", [0.5, 1.0])
def test_primitive_band_annulus_is_closed(T):
    """A plane wave on the circle |xi| = 2^(k+1) is inside band k and band
    k+2, whose closed annuli both reach it, and outside band k-1."""
    k, N = 2, 32
    m = 2.0 ** (k + 1) * T  # |xi| = m / T exactly
    a = grid_form(2, 1, N, T, {(1,): lambda x, y: np.cos(TAU * m * x / T) + 0.0 * y})
    assert np.array_equal(primitive(a, band=k).data, primitive(a).data)
    assert np.array_equal(primitive(a, band=k + 2).data, primitive(a).data)
    with pytest.raises(BandRangeError):
        primitive(a, band=k - 1)


@pytest.mark.parametrize("band", [99, -50, 2.5])
def test_primitive_rejects_a_band_outside_the_partition(band):
    """A band outside the partition's range fails as band_multiplier fails
    on it, for a zero form as for a nonzero one (2D N=16: bands 0..4)."""
    part = build_partition(2, 16, 1.0)
    msg = re.escape(f"band {band} outside 0..4")
    with pytest.raises(BandRangeError, match=msg):
        part.band_multiplier(band)
    for a in (zero_form(2, 1, 16), exterior_derivative(noise(2, 0, 16, seed=24, radius=5.0))):
        with pytest.raises(BandRangeError, match=msg):
            primitive(a, band=band)


def test_one_radius_class_pass_per_grid(monkeypatch):
    """A grid's partition is cached, and noise, its band profile, d and the
    primitive on one grid share its radius classes: one np.unique call."""
    assert build_partition(3, 16, 2.5) is build_partition(3, 16, 2.5)
    calls = []
    unique = np.unique

    def counted(*args, **kw):
        calls.append(args[0].shape)
        return unique(*args, **kw)

    bands.build_partition.cache_clear()
    monkeypatch.setattr(np, "unique", counted)
    a = noise(3, 1, 16, seed=5, radius=2.0, T=2.5)
    band_profile(a)
    primitive(exterior_derivative(a))
    assert calls == [(16, 16, 9)]


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
        lambda: wedge_nonzeros(4, 2, 1)[0],
        lambda: wedge_nonzeros(4, 2, 1)[3],
        lambda: build_partition(3, 8, 1.0).axes[1],
        lambda: build_partition(3, 8, 1.0).classes[0],
        lambda: build_partition(3, 8, 1.0).classes[1],
        lambda: intersection_form(preset_presentations("X3")),
    ],
    ids=[
        "pairing", "table-target", "table-sign", "freq-axis",
        "radius-classes", "radius-class-index", "intersection-form",
    ],
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


def test_grids_equal_only_in_exact_period():
    """Periods 1e-13 and 3e-13 are different grids, though they differ by
    less than 1e-12; equal grids still combine."""
    a, b, c = (
        noise(2, 1, 8, seed=s, radius=1.2 / T, T=T) for s, T in ((1, 1e-13), (2, 3e-13), (3, 1e-13))
    )
    for call in (wedge_grid, GridForm.__add__, GridForm.__sub__, product_support_radius):
        with pytest.raises(DimensionMismatch):
            call(a, b)
    assert wedge_grid(a, c).period == 1e-13
    assert np.array_equal((a + c).data, a.data + c.data)
    assert (a - c).data.tobytes() == (a.data - c.data).tobytes()
    assert product_support_radius(a, c) > 0


# -- the one operator kernel -----------------------------------------------------


def _with_zeros(a):
    """a with its first grid slice set to exact zeros, whose products with
    negative samples are -0.0."""
    data = a.data.copy()
    data[:, 0] = 0.0
    return a.copy_with(data)


def _with_specials(a):
    """a with -0.0, inf, -inf and NaN samples spread over its components."""
    data = a.data.copy()
    flat = data.reshape(-1)
    for start, value in enumerate((-0.0, np.inf, -np.inf, np.nan)):
        flat[start::5] = value
    return a.copy_with(data)


@pytest.mark.parametrize("T", [1.0, 2.5])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_operators_equal_their_one_loop_oracles(d, T):
    """Noise, projection, d, the closedness residual, the primitive (with
    and without a band) and the pointwise wedge equal, bit for bit, the
    one-loop-per-operator oracles."""
    N = 16 if d < 4 else 8
    part = build_partition(d, N, T)
    u, inv = part.classes
    xi, r = part.axes, u[inv]
    radius = 0.3 * N / T
    forms, zeroed = [], []
    for p in range(d + 1):
        seed = 10 * d + p
        raw = np.random.default_rng(seed).standard_normal((math.comb(d, p),) + (N,) * d)
        want = oracles.apply_multiplier(GridForm(d, p, N, T, raw), (r <= radius).astype(float))
        a = noise(d, p, N, seed=seed, radius=radius, T=T)
        assert a.data.tobytes() == want.data.tobytes()
        # and a with one zero component, which bands never transforms: the
        # first at odd p, else the last (all of a 0- or d-form)
        z = a.copy_with(a.data.copy())
        z.data[p % 2 - 1] = 0.0
        forms.append(a)
        zeroed.append(z)
        for b in (a, z):
            for k in part.bands:
                want = oracles.apply_multiplier(b, part.band_multiplier(k))
                assert project_band(b, k).data.tobytes() == want.data.tobytes()
            if p < d:
                spec = oracles.combine(
                    oracles.spectra(b),
                    wedge_nonzeros(d, 1, p),
                    lambda axis, sign: 2j * np.pi * sign * xi[axis],
                    math.comb(d, p + 1),
                )
                want = oracles.synthesize(spec, d, N)
                assert exterior_derivative(b).data.tobytes() == want.tobytes()
            if p < d and b.data.any():
                resid = _closedness_residual(b, part, list(bands._spectra(b)))
                assert resid == _lattice_residual(b, xi, r) > 0
        if p > 0:  # d of the degree p-1 forms is closed and mean-free
            for da in (exterior_derivative(forms[p - 1]), exterior_derivative(zeroed[p - 1])):
                assert primitive(da).data.tobytes() == _lattice_primitive(da, xi, r).tobytes()
                k = part.k_min + 1
                piece = project_band(da, k)
                want = _lattice_primitive(piece, xi, r)
                assert primitive(piece, band=k).data.tobytes() == want.tobytes()
    for p, a in enumerate(forms):
        for b in forms[: d + 1 - p]:
            for x, y in ((_with_zeros(a), b), (_with_specials(a), _with_specials(b))):
                with np.errstate(invalid="ignore"):  # inf - inf and 0 * inf are NaN
                    got, want = wedge_grid(x, y), oracles.wedge_loop(x, y)
                assert got.data.tobytes() == want.data.tobytes()


def test_residual_sums_in_output_order(monkeypatch):
    """The squared norms of d's outputs are summed in output order, whatever
    order the kernel yields them in: 2^53 then five 1.0s sums to 2^53, the
    1.0s first to 2^53 + 4."""
    a = noise(4, 1, 8, seed=4)
    part, specs = build_partition(4, 8, 1.0), list(enumerate(_half_spectra(a)))
    planes = [np.array([2.0**26, 2.0**26])] + [np.array([1.0])] * 5
    got = set()
    for order in (range(6), range(5, -1, -1)):
        stream = [(o, planes[o]) for o in order]
        monkeypatch.setattr(bands, "_combine", lambda *_, stream=stream: iter(stream))
        got.add(_closedness_residual(a, part, specs))
    assert len(got) == 1


def _tracked(shape, refs: dict, n: int):
    """n fresh (i, input) pairs, each input with a weakref in ``refs``; the
    generator itself holds none of them."""

    def make(i):
        x = np.full(shape, i + 1.0)
        refs[i] = weakref.ref(x)
        return i, x

    return (make(i) for i in range(n))


@pytest.mark.parametrize("p,transposed", [(0, False), (2, False), (2, True)])
def test_kernel_releases_each_input_before_its_outputs(p, transposed):
    """d on a 4D 0-form and 2-form, and the primitive's transposed table on
    a 2-form: when an output arrives, every input whose outputs have all
    arrived is dead."""
    if transposed:
        high, axis, low, sign = wedge_nonzeros(4, 1, p - 1)
        table = (low, axis, high, sign)
    else:
        table = wedge_nonzeros(4, 1, p)
    outputs_of = {}
    for o, i in zip(table[0].tolist(), table[2].tolist()):
        outputs_of.setdefault(i, set()).add(o)
    refs, seen = {}, set()
    stream = bands._combine(_tracked((4, 3), refs, math.comb(4, p)), table, lambda x, ax, s: x * s)
    for o, _ in stream:
        seen.add(o)
        assert all(refs[i]() is None for i in refs if outputs_of[i] <= seen)
    assert seen == set(table[0].tolist())
    assert all(ref() is None for ref in refs.values())


def _support_oracle(a, thresh=1e-12):
    """Support read off the complex FFT of every component (full lattice),
    each component cut at thresh times its own largest magnitude."""
    d, N = a.spatial_dim, a.resolution
    axes = tuple(range(1, d + 1))
    mag = np.abs(np.fft.fftn(a.data, axes=axes))
    keep = np.any(mag > thresh * mag.max(axis=axes, keepdims=True), axis=0)
    freqs = (np.fft.fftfreq(N) * N).astype(np.int64)
    return freqs[np.argwhere(keep)]


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


def test_a_faint_component_keeps_its_support():
    # component (1,) at 1e-13 of component (2,): its own peak sets its cut,
    # so (13, 0) stays in the support and the product with a 4-wave reaches
    # 13 + 4 >= Nyquist 16
    N = 32
    a = grid_form(2, 1, N, components={
        (1,): lambda x, y: 1e-13 * np.cos(13 * TAU * x) + 0.0 * y,
        (2,): lambda x, y: np.cos(2 * TAU * y) + 0.0 * x,
    })
    pts = {tuple(int(x) for x in row) for row in spectral_support(a)}
    assert pts == {(13, 0), (-13, 0), (0, 2), (0, -2)}
    b = grid_form(2, 0, N, components={(): lambda x, y: np.cos(4 * TAU * x) + 0.0 * y})
    with pytest.raises(BandRangeError):
        product_support_radius(a, b)


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


# -- the transform pair --------------------------------------------------------


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize(
    "d,N",
    [(1, 64), (2, 32), (2, 512), (3, 16), (3, 32), (3, 64), (4, 8), (4, 32), (5, 8), (5, 16)],
)
def test_split_transforms_equal_numpys(d, N, forced):
    """The pass-by-pass transforms equal numpy's rfftn and irfftn bytewise,
    on the calling thread or, ``forced``, on a thread split off from it."""
    c = np.random.default_rng(d * N).standard_normal((N,) * d)
    axes = tuple(range(d))
    out = np.empty((N,) * d)
    got = {}

    def run():
        got["spec"] = bands._spectrum(c)
        got["want"] = np.fft.irfftn(got["spec"], s=(N,) * d, axes=axes)
        got["field"] = bands._field(got["spec"].copy(), out)

    if forced:
        thread = threading.Thread(target=run)
        thread.start()
        thread.join()
    else:
        run()
    assert got["spec"].tobytes() == np.fft.rfftn(c, axes=axes).tobytes()
    assert got["field"] is out
    assert out.tobytes() == got["want"].tobytes()


@pytest.mark.parametrize("d,N", [(3, 64), (4, 32)])
def test_each_transform_allocates_only_its_output(d, N):
    """After a warm-up call, the forward transform's tracemalloc peak is its
    one half-spectrum and the inverse's next to nothing: every pass but the
    forward rfft runs in place."""
    c = np.random.default_rng(d * N).standard_normal((N,) * d)
    half = 16 * N ** (d - 1) * (N // 2 + 1)
    out = np.empty((N,) * d)
    bands._field(bands._spectrum(c), out)
    tracemalloc.start()
    try:
        spec = bands._spectrum(c)
        forward = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        bands._field(spec, out)
        inverse = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert forward <= 1.05 * half
    assert inverse <= 0.05 * half


def _fresh_process(code: str) -> list:
    """Whitespace-split stdout of ``code`` run by a fresh interpreter."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert res.returncode == 0, res.stderr
    return res.stdout.split()


def test_transforms_start_no_thread():
    """In a fresh process, transforms on the 64^3 and 32^4 grids run on the
    calling thread alone and never load concurrent.futures."""
    code = (
        "import sys, threading\nimport numpy as np\n"
        "from lipdeg.bands import _field, _spectrum\n"
        "for shape in ((64,) * 3, (32,) * 4):\n"
        "    _field(_spectrum(np.ones(shape)), np.empty(shape))\n"
        "print('concurrent.futures' in sys.modules, threading.active_count())\n"
    )
    assert _fresh_process(code) == ["False", "1"]
