"""Dyadic band calculus for differential forms on periodic grids.

A ``GridForm`` stores one real scalar field per multi-index component of a
degree-p form on the flat torus ``(R/T Z)^d``, sampled on an ``N^d`` grid
(N a power of two).  All calculus is spectral:

* frequencies are integer lattice vectors ``m``; the physical frequency is
  ``xi = m / T`` and plane waves are ``exp(2 pi i <m, x> / T)``;
* every spectrum lives on the half lattice of a real FFT (last axis
  ``0..N/2``), and one transform pair moves between grid and spectrum:
  ``_spectrum`` (rfftn of one component, read through ``_spectra`` alone,
  which yields a form's nonzero components one at a time, so an all-zero
  plane reaches no consumer) and ``_field`` (irfftn, called by
  ``band_fields`` and the collector alone, which hand it a spectrum they
  give up and its output plane; an all-zero output spectrum is skipped);
* both transforms run on the calling thread.  The forward one is numpy's
  ``rfftn`` through ``out=`` into a fresh half-spectrum, where every fft
  pass runs in place.  The inverse spells out ``irfftn``'s 1-D passes in
  numpy's order (ifft on axes 0 up to d-2 in place on the spectrum, then
  irfft into the output plane), because ``irfftn`` allocates a fresh
  array for each ifft pass; so the bits are ``irfftn``'s;
* the exterior derivative multiplies by ``(2 pi i / T) m ^ .``;
* dyadic bands are cut by a radial partition of unity built from the
  ``exp(-1/t)`` mollifier: the low-pass profile ``chi(|xi| / 2^k)`` equals
  1 inside radius ``2^k``, 0 outside ``2^{k+1}``, and band multipliers are
  consecutive differences, so they sum to exactly 1 and band k is
  supported in the annulus ``2^{k-1} <= |xi| <= 2^{k+1}``;
* the zero mode belongs to the lowest band;
* ``_window`` alone applies those two rules; the partition's windows and
  lattice multipliers and ``dominant_band`` (the band where one radius
  weighs most) all read it;
* a form's grid (d, N, T) fixes its partition (``_partition``, cached
  per grid), which owns the grid's lattice: ``DyadicPartition.axes`` (xi
  per axis) and ``DyadicPartition.classes`` (the distinct values of |xi|
  on the half lattice and each point's class index); every radial
  quantity, window or not, is evaluated once per radius class and
  gathered onto the lattice by the class index;
* the grid also fixes the cell volume ``(T / N)^d`` of every Riemann sum
  (``GridForm.cell``);
* a closed, mean-free form has the explicit primitive obtained by
  contracting with the frequency vector and dividing by
  ``2 pi i |xi|^2``, frequency by frequency; on band k this shrinks
  norms by ``~ 2^{-k}``.

One kernel, ``_combine``, carries out every spectral operator off one of
exterior's wedge tables: projection and the noise mask read the (0, p)
table, and d, its closedness residual and the primitive the (1, p) table
or its transpose; the pointwise wedge sums the (p, q) table's products
itself.  So Koszul signs and basis order come from ``exterior`` alone;
every band loop reads one stream of band windows.  ``closedness(a)`` is
``sup |d a| / sup |a|``, the measure the CLI and the battery report.

The band stream ``band_fields`` runs component by component, and band by
band within a component, with one half-spectrum live: it reads component
c's spectrum off ``_spectra``, folds its magnitudes into one peak per
radius class, yields c's live fields (each windowed spectrum written into
one plane that the whole stream reuses) and drops the spectrum before the
next one.  It skips silent (band, component) pairs: those where
|spectrum| * window peaks at or below ``SILENT_FLOOR`` times that
component's own largest spectral magnitude, the scale its transform's
roundoff grows with; ``spectral_support`` cuts each component at the same
reference.  So whether a pair or a support point is live reads no other
component: a component far below the others keeps its bands and its
support, and a NaN sample silences its own component alone.
Consumers sum over components in increasing c for each band, and over
bands in increasing k for each component, in either order, so every
number is the band-major stream's.  A silent pair gets no inverse
transform; ``band_decompose`` leaves its plane zero, and a band profile
keeps every band and every (band, component) key, reporting a silent pair
as ``(0, 0, 0)``.

Norms are Riemann sums: ``L1 = sum_I integral |a_I|``,
``L2 = sqrt(sum_I integral a_I^2)``, ``Linf = max |a_I|``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from math import comb
from typing import Mapping, Optional

import numpy as np

from .errors import (
    BandRangeError,
    DimensionMismatch,
    MeanObstruction,
    NotClosed,
    ParameterError,
    ResolutionError,
    ShapeError,
)
from .exterior import multi_indices, wedge_nonzeros

__all__ = [
    "GridForm",
    "DyadicPartition",
    "BandProfile",
    "grid_form",
    "zero_form",
    "grid_axes",
    "build_partition",
    "dominant_band",
    "project_band",
    "band_decompose",
    "band_fields",
    "exterior_derivative",
    "primitive",
    "lp_norm",
    "band_profile",
    "closedness",
    "synthetic_profile",
    "wedge_grid",
    "spectral_support",
    "product_support_radius",
    "bandlimited_noise_form",
]


# largest grid one form may hold: 2**27 float64 samples, 1 GiB
_MAX_SAMPLES = 2**27

# relative spectral floor: a magnitude at or below SILENT_FLOOR times its
# component's largest counts as roundoff (band stream, spectral_support)
SILENT_FLOOR = 1e-12

_TINY = 2.0**-1022  # smallest normal float64


def _check_resolution(N: int) -> None:
    if N < 4 or (N & (N - 1)) != 0:
        raise ResolutionError(f"resolution must be a power of two >= 4, got {N}")


def _check_grid(d: int, p: int, N: int, T: float) -> None:
    """Reject a degree-p form on the period-T N^d grid before any allocation."""
    if d < 1:
        raise DimensionMismatch("spatial dimension must be >= 1")
    if not 0 <= p <= d:
        raise ShapeError(f"form degree {p} outside 0..{d}")
    _check_resolution(N)
    # N^d alone past the cap settles it before any big-integer power
    if d * math.log2(N) > math.log2(_MAX_SAMPLES) or comb(d, p) * N**d > _MAX_SAMPLES:
        raise ResolutionError(
            f"a degree-{p} form on the {N}^{d} grid exceeds the cap of "
            f"{_MAX_SAMPLES} samples"
        )
    build_partition(d, N, T)


def _check_period(T: float) -> None:
    if not (math.isfinite(T) and T > 0):
        raise ParameterError(f"period must be positive and finite, got {T}")


@dataclass(frozen=True)
class GridForm:
    """Degree-p form on the N^d periodic grid with period T per axis."""

    spatial_dim: int
    form_degree: int
    resolution: int
    period: float
    data: np.ndarray  # shape (comb(d, p), N, .., N), float64

    def __post_init__(self):
        d, p, N = self.spatial_dim, self.form_degree, self.resolution
        _check_grid(d, p, N, self.period)
        want = (comb(d, p),) + (N,) * d
        if self.data.shape != want:
            raise ShapeError(f"data shape {self.data.shape}, want {want}")
        if self.data.dtype != np.float64:
            object.__setattr__(self, "data", self.data.astype(np.float64))

    @property
    def cell(self) -> float:
        """Volume of one grid cell, the weight of every Riemann sum."""
        return _cell(self.spatial_dim, self.resolution, self.period)

    @property
    def indices(self) -> list:
        return multi_indices(self.spatial_dim, self.form_degree)

    def component(self, I) -> np.ndarray:
        return self.data[self.indices.index(tuple(I))]

    def same_grid(self, other: "GridForm") -> bool:
        """Equal (d, N, T), compared exactly, as partitions compare."""
        return (
            self.spatial_dim == other.spatial_dim
            and self.resolution == other.resolution
            and self.period == other.period
        )

    def copy_with(self, data: np.ndarray) -> "GridForm":
        return GridForm(self.spatial_dim, self.form_degree, self.resolution, self.period, data)

    def __add__(self, other: "GridForm") -> "GridForm":
        if not self.same_grid(other) or self.form_degree != other.form_degree:
            raise DimensionMismatch("grid forms live on different grids/degrees")
        return self.copy_with(self.data + other.data)

    def __sub__(self, other: "GridForm") -> "GridForm":
        return self + other.copy_with(-other.data)


def zero_form(d: int, p: int, N: int, T: float = 1.0) -> GridForm:
    _check_grid(d, p, N, T)
    return GridForm(d, p, N, T, np.zeros((comb(d, p),) + (N,) * d))


def grid_axes(d: int, N: int, T: float = 1.0) -> tuple:
    """Node coordinates per axis (shape-(N,) arrays, broadcastable)."""
    return np.meshgrid(*[np.arange(N) * (T / N)] * d, indexing="ij", sparse=True)


def grid_form(
    d: int, p: int, N: int, T: float = 1.0, components: Optional[Mapping] = None
) -> GridForm:
    """Assemble a form from {multi-index: ndarray or callable(axes)}."""
    out = zero_form(d, p, N, T)
    if components:
        idx = out.indices
        axes = grid_axes(d, N, T)
        for I, f in components.items():
            vals = f(*axes) if callable(f) else f
            out.data[idx.index(tuple(I))] = np.broadcast_to(vals, (N,) * d)
    return out


# -- frequency lattice and the dyadic partition ------------------------------


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step from exp(-1/t): 0 at t<=0 rising to 1 at t>=1."""
    # exp(-1 / 1e-300) is exactly +0.0: a is 0 at t <= 0 and b is 0 at t >= 1
    # (infinities included) while the other stays positive, so never 0 / 0
    a = np.exp(-1.0 / np.maximum(t, 1e-300))
    b = np.exp(-1.0 / np.maximum(1.0 - t, 1e-300))
    return a / (a + b)


def _chi(r: np.ndarray) -> np.ndarray:
    """Radial low-pass profile: 1 on r<=1, 0 on r>=2, smooth between."""
    return _smooth_step(2.0 - r)


def _window(r, k, k_min: int) -> np.ndarray:
    """Band k's window at radius r: chi(r / 2^k) - chi(r / 2^(k-1)), except
    that the lowest band k_min keeps all of chi(r / 2^k_min), zero mode
    included.  Radii or bands may be an array, not both."""
    return _chi(r / 2.0**k) - np.where(k == k_min, 0.0, _chi(r / 2.0 ** (k - 1)))


@dataclass(frozen=True)
class DyadicPartition:
    """Dyadic radial partition of unity on the frequency lattice."""

    spatial_dim: int
    resolution: int
    period: float
    k_min: int
    k_max: int

    @property
    def bands(self) -> range:
        return range(self.k_min, self.k_max + 1)

    @cached_property
    def axes(self) -> tuple:
        """xi = m / T along each half-lattice axis, broadcastable (read-only)."""
        d, N = self.spatial_dim, self.resolution
        m = [np.fft.fftfreq(N, 1 / N)] * (d - 1) + [np.arange(N // 2 + 1)]
        out = np.meshgrid(*(x / self.period for x in m), indexing="ij", sparse=True)
        for x in out:
            x.setflags(write=False)
        return out

    @cached_property
    def classes(self) -> tuple:
        """(u, inv): the distinct values u of |xi| on the half lattice and the
        int32 class of every lattice point, so that ``u[inv]`` is |xi| (both
        read-only).  A radial multiplier is evaluated on u and gathered by inv."""
        r = np.sqrt(sum(x**2 for x in self.axes))
        u, inv = np.unique(r, return_inverse=True)
        inv = inv.astype(np.int32).reshape(r.shape)
        u.setflags(write=False)
        inv.setflags(write=False)
        return u, inv

    def check_band(self, k) -> None:
        """BandRangeError unless k is one of the partition's bands."""
        if k not in self.bands:
            raise BandRangeError(f"band {k} outside {self.k_min}..{self.k_max}")

    def band_multiplier(self, k: int) -> np.ndarray:
        """Band window on the lattice (see ``windows``)."""
        self.check_band(k)
        return _window(self.classes[0], k, self.k_min)[self.classes[1]]

    def windows(self):
        """Yield (k, band window on the radius classes) for every band."""
        for k in self.bands:
            yield k, _window(self.classes[0], k, self.k_min)


def _cell(d: int, N: int, T: float) -> float:
    """(T / N)^d, the cell volume of the N^d grid with period T."""
    return (T / N) ** d


def _lowest_band(T: float) -> int:
    """The lowest band at period T: the one whose cutoff 2^k holds the
    smallest nonzero |xi| = 1 / T.  OverflowError when 1 / T is infinite."""
    return int(math.floor(math.log2(1.0 / T)))


def dominant_band(rho: float, T: float) -> int:
    """The band whose window is largest at radius rho > 0 of the period-T
    lattice, not capped at any resolution's top band."""
    k_min = _lowest_band(T)
    lo = max(int(math.floor(math.log2(rho))) - 1, k_min)
    return lo + int(np.argmax(_window(rho, np.arange(lo, lo + 4), k_min)))


@lru_cache(maxsize=3)
def build_partition(d: int, N: int, T: float = 1.0) -> DyadicPartition:
    """Partition covering the whole lattice: lowest nonzero |xi| up to Nyquist.

    Also the grid check of every GridForm: ParameterError when the cell
    volume, the Nyquist radius, its square, or 2^k one band beyond either
    end is not a normal float64."""
    _check_resolution(N)
    _check_period(T)
    r_max = math.sqrt(d) * (N / 2) / T
    try:
        k_min = _lowest_band(T)
        k_max = int(np.ceil(np.log2(r_max)))
        scales = (r_max * r_max, 2.0 ** (k_min - 1), 2.0 ** (k_max + 1), _cell(d, N, T))
    except OverflowError:  # 1/T, 2^k or the cell volume left float64
        scales = (math.inf,)
    if not all(_TINY <= s < math.inf for s in scales):
        raise ParameterError(f"period {T!r} puts the scales of the {N}^{d} grid outside float64")
    return DyadicPartition(d, N, T, k_min, k_max)


def _partition(a: GridForm, part: Optional[DyadicPartition] = None) -> DyadicPartition:
    """The partition a's grid fixes; a ``part`` passed in must be that one."""
    own = build_partition(a.spatial_dim, a.resolution, a.period)
    if part is not None and part != own:
        raise DimensionMismatch(f"{part!r} is not the form's partition {own!r}")
    return own


# -- the transform pair and the one operator kernel ---------------------------


def _all_zero(x: np.ndarray) -> bool:
    """True when every entry of x is zero.  A strided sample settles almost
    every nonzero array without a pass over all of it."""
    flat = x.reshape(-1)
    return not flat[::61].any() and not flat.any()


def _spectra(a: GridForm):
    """Yield (c, half-spectrum of component c) in component order, one live,
    for every component whose plane is not all zero (the one zero skip)."""
    for c, plane in enumerate(a.data):
        if not _all_zero(plane):
            yield c, _spectrum(plane)


def _spectrum(c: np.ndarray) -> np.ndarray:
    """``np.fft.rfftn(c)`` for one plane c of the N^d grid, through ``out=``:
    numpy's rfft pass fills one fresh half-spectrum, and every fft pass runs in place."""
    return np.fft.rfftn(c, out=np.empty(c.shape[:-1] + (c.shape[-1] // 2 + 1,), complex))


def _field(spec: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into ``out``, a float64 plane of the N^d grid, the real field
    with half-spectrum ``spec`` (``np.fft.irfftn``, pass by pass).  The ifft
    passes run in place: ``spec`` is consumed, and nothing may read it after."""
    d, N = out.ndim, out.shape[0]
    for axis in range(d - 1):
        np.fft.ifft(spec, N, axis, out=spec)
    return np.fft.irfft(spec, N, d - 1, out=out)


def _combine(inputs, table, term):
    """Yield (o, out[o]) for every output o an input reaches, where out[o]
    sums term(x, axis, sign) in increasing i over the rows (o, axis, i, sign)
    of ``table`` (a wedge_nonzeros table of exterior) whose input (i, x)
    arrives.  Output o is yielded at the first input past its last row, or
    at the end; each input is released first, so a generator of fresh
    (i, x) pairs keeps one live."""
    rows = list(zip(*(x.tolist() for x in table)))
    last = {o: max(r[2] for r in rows if r[0] == o) for o, *_ in rows}
    out = {}
    # a last input past every row, (inf, None), yields the outputs still pending
    for i, x in itertools.chain(inputs, [(math.inf, None)]):
        for o, axis, _, sign in (r for r in rows if r[2] == i):
            if o in out:
                out[o] += term(x, axis, sign)
            else:
                out[o] = term(x, axis, sign)
        del x
        for o in sorted(o for o in out if last[o] <= i):
            yield o, out.pop(o)


def _collect(outputs, a: GridForm, p: int) -> GridForm:
    """The degree-p form on a's grid whose component o is the field of each
    half-spectrum (o, x) of ``outputs``; an all-zero x, or an o never
    yielded, stays zero.  ``_field`` consumes each x: a term returning a
    spectrum still held elsewhere would see it overwritten."""
    out = zero_form(a.spatial_dim, p, a.resolution, a.period)
    for o, x in outputs:
        if not _all_zero(x):
            _field(x, out.data[o])
        del x  # released before the stream computes the next spectrum
    return out


def _radial_wedge(a: GridForm, mult: np.ndarray) -> GridForm:
    """a wedged with the real radial 0-form ``mult``, frequency by frequency:
    exterior's (0, p) table, all signs +1; each fresh spectrum scales in place."""
    table = wedge_nonzeros(a.spatial_dim, 0, a.form_degree)
    outputs = _combine(_spectra(a), table, lambda s, ax, sg: np.multiply(s, mult, out=s))
    return _collect(outputs, a, a.form_degree)


def project_band(a: GridForm, k: int, part: Optional[DyadicPartition] = None) -> GridForm:
    return _radial_wedge(a, _partition(a, part).band_multiplier(k))


def band_fields(a: GridForm):
    """Yield (k, c, component c of P_k a) component by component and, within
    a component, band by band, one field at a time, skipping the zero
    components and the silent pairs (their field is zero up to roundoff).

    Each component's spectral magnitudes are folded once into a peak per
    radius class, and pair (k, c) is live when max(peak_c * window_k) over
    the classes exceeds ``SILENT_FLOOR`` times max(peak_c), the component's
    own largest magnitude.  Rounding is monotone and the window is constant
    on a class, so that is max |spectrum| * window over the lattice, bit for
    bit.  One component's spectrum is live at a time, transformed once."""
    d, N = a.spatial_dim, a.resolution
    part = _partition(a)
    u, inv = part.classes  # before any spectrum is live: np.unique's temporaries
    windows = list(part.windows())
    prod = None  # the one windowed-spectrum plane, rewritten (and consumed) by every pair
    for c, spec in _spectra(a):
        peak = np.zeros(len(u))
        # flat operands keep ufunc.at on its fast path; one magnitude plane live
        np.maximum.at(peak, inv.ravel(), np.abs(spec).ravel())
        floor = SILENT_FLOOR * peak.max()  # NaN for a NaN plane: every pair silent
        for k, window in windows:
            if (peak * window).max() > floor:
                prod = np.multiply(spec, window[inv], out=prod)
                yield k, c, _field(prod, np.empty((N,) * d))
        del spec  # before the next component's transform


def band_decompose(a: GridForm, part: Optional[DyadicPartition] = None) -> dict:
    """All band projections in one spectral pass: {k: P_k a}."""
    out = {k: a.copy_with(np.zeros_like(a.data)) for k in _partition(a, part).bands}
    for k, c, fld in band_fields(a):
        out[k].data[c] = fld
        del fld  # free it before the stream computes the next field
    return out


# -- exterior derivative and primitive ---------------------------------------


def exterior_derivative(a: GridForm) -> GridForm:
    """Spectral d; a top-degree input returns the zero form of its own degree."""
    d, p, N, T = a.spatial_dim, a.form_degree, a.resolution, a.period
    if p == d:
        return zero_form(d, d, N, T)
    xi = _partition(a).axes
    outputs = _combine(
        _spectra(a), wedge_nonzeros(d, 1, p), lambda s, ax, sg: s * (2j * np.pi * sg * xi[ax])
    )
    return _collect(outputs, a, p + 1)


def _closedness_residual(a: GridForm, part: DyadicPartition, specs: list) -> float:
    """Relative spectral l2 of d(a), scale- and resolution-invariant."""
    d, p = a.spatial_dim, a.form_degree
    outputs = _combine(specs, wedge_nonzeros(d, 1, p), lambda s, ax, sg: s * (sg * part.axes[ax]))
    # summed in output order, not arrival order
    num = sum(n for _, n in sorted((o, float(np.sum(np.abs(t) ** 2))) for o, t in outputs))
    u, inv = part.classes
    r = u[inv]
    den = sum(float(np.sum((np.abs(s) * r) ** 2)) for _, s in specs)
    return np.sqrt(num / den) if den > 0 else 0.0


def primitive(
    a: GridForm, band: Optional[int] = None, part: Optional[DyadicPartition] = None
) -> GridForm:
    """Primitive b with d(b) = a for a closed, mean-free form.

    Acts frequency-wise: contract with the frequency vector and divide by
    ``2 pi i |xi|^2 / T``; exact on closed spectra, and on band k the
    output is smaller by ``~ 2^{-k}``.  Raises MeanObstruction when a
    component carries a zero mode, NotClosed when d(a) is not ~0, and
    BandRangeError when ``band`` is given but is not one of the partition's
    bands or spectral mass leaks outside that band's annulus; each test is
    relative, at tolerance 1e-8.
    """
    part = _partition(a, part)
    d, p = a.spatial_dim, a.form_degree
    tol = 1e-8
    if p == 0:
        raise ShapeError("a 0-form has no primitive")
    if band is not None:
        part.check_band(band)
    specs = list(_spectra(a))
    # a zero form passes every test below and has zero outputs
    total = np.sqrt(sum(float(np.sum(np.abs(s) ** 2)) for _, s in specs))
    zero_mode = max((abs(s[(0,) * d]) for _, s in specs), default=0.0)
    if zero_mode > tol * total:
        raise MeanObstruction(
            f"nonzero zero mode {zero_mode:.3e} (relative {zero_mode / total:.3e})"
        )
    resid = _closedness_residual(a, part, specs)
    if resid > tol:
        raise NotClosed(f"input is not closed: relative residual {resid:.3e}")
    u, inv = part.classes
    if band is not None:
        inside = ((u >= 2.0 ** (band - 1)) & (u <= 2.0 ** (band + 1)))[inv]
        leak = np.sqrt(sum(float(np.sum(np.abs(np.where(inside, 0, s)) ** 2)) for _, s in specs))
        if leak > tol * total:
            raise BandRangeError(f"spectral mass outside band {band}: relative {leak / total:.3e}")
    with np.errstate(divide="ignore", invalid="ignore"):
        recip = (np.where(u > 0, 1.0 / np.maximum(u, 1e-300) ** 2, 0.0) / (2.0 * np.pi))[inv]
    # contraction with xi is the adjoint of xi ^: read the degree p-1 table
    # transposed, then divide by 2 pi i |xi|^2
    high, axis, low, sign = wedge_nonzeros(d, 1, p - 1)
    outputs = _combine(
        specs, (low, axis, high, sign), lambda s, ax, sg: s * (sg * part.axes[ax] * recip * (-1j))
    )
    return _collect(outputs, a, p - 1)


# -- norms and profiles -------------------------------------------------------


def lp_norm(a: GridForm, which) -> float:
    """Riemann-sum norms: which in {1, 2, "inf"}."""
    cell = a.cell
    if which == 1:
        return float(sum(np.abs(c).sum() * cell for c in a.data))
    if which == 2:
        return float(np.sqrt(sum((c**2).sum() * cell for c in a.data)))
    if which == "inf":
        # max |c| without an |c| temporary: the larger of |max c| and |min c|,
        # NaN where c holds one; np.max keeps a NaN
        return float(np.max([max(abs(c.max()), abs(c.min())) for c in a.data]))
    raise ParameterError(f"unsupported norm {which!r}")


def closedness(a: GridForm) -> float:
    """sup |d a| / sup |a|: 0.0 for a closed form, a top-degree one included."""
    return lp_norm(exterior_derivative(a), "inf") / max(lp_norm(a, "inf"), 1e-300)


@dataclass(frozen=True)
class BandProfile:
    """Per-band L1/L2/Linf norms plus per-component detail."""

    bands: tuple  # sorted band indices
    l1: Mapping  # k -> float
    l2: Mapping
    linf: Mapping
    per_component: Mapping  # (k, multi-index) -> (l1, l2, linf)
    total_l2: float

    def orthogonality_ratio(self) -> float:
        s = sum(v**2 for v in self.l2.values())
        return s / self.total_l2**2 if self.total_l2 else 0.0


def band_profile(a: GridForm, part: Optional[DyadicPartition] = None) -> BandProfile:
    _partition(a, part)
    return _stream_profile(a, band_fields(a))


def _stream_profile(a: GridForm, fields) -> BandProfile:
    """Band norms of a, read off a stream of its (k, c, field) band fields;
    a pair the stream skips keeps its zero entries."""
    bands, cell = _partition(a).bands, a.cell
    idx = a.indices
    l1, s2, linf = ({k: 0.0 for k in bands} for _ in range(3))
    per = {(k, I): (0.0, 0.0, 0.0) for k in bands for I in idx}
    for k, c, fld in fields:
        mag = np.abs(fld)
        del fld  # free it before the stream computes the next field
        c1 = float(mag.sum() * cell)
        ci = float(mag.max())
        c2 = float(np.sqrt(np.square(mag, out=mag).sum() * cell))  # |x| |x| == x x
        del mag
        per[(k, idx[c])] = (c1, c2, ci)
        l1[k] += c1
        s2[k] += c2**2
        linf[k] = max(linf[k], ci)
    return BandProfile(
        bands=tuple(bands),
        l1=l1,
        l2={k: float(np.sqrt(v)) for k, v in s2.items()},
        linf=linf,
        per_component=per,
        total_l2=lp_norm(a, 2),
    )


def synthetic_profile(masses: Mapping, total_l2: float) -> BandProfile:
    """Profile from prescribed per-band L1 masses (analysis-only pipelines)."""
    bands = tuple(sorted(masses))
    return BandProfile(
        bands=bands,
        l1=dict(masses),
        l2={k: float(m) for k, m in masses.items()},
        linf={},
        per_component={},
        total_l2=float(total_l2),
    )


# -- pointwise wedge and spectral supports ------------------------------------


def wedge_grid(a: GridForm, b: GridForm) -> GridForm:
    """Pointwise wedge product (Koszul signs included), each target summed
    onto a zeroed plane in the table's row-major (left, right) order."""
    if not a.same_grid(b):
        raise DimensionMismatch("grid forms live on different grids")
    d, p, q = a.spatial_dim, a.form_degree, b.form_degree
    out = zero_form(d, p + q, a.resolution, a.period)
    for o, i, j, s in zip(*wedge_nonzeros(d, p, q)):
        out.data[o] += s * a.data[i] * b.data[j]
    return out


def spectral_support(a: GridForm, thresh: float = SILENT_FLOOR) -> np.ndarray:
    """Integer lattice points where some component's spectrum exceeds
    thresh times that component's largest spectral magnitude; shape (m, d)."""
    d, N = a.spatial_dim, a.resolution
    keep = None
    for _, spec in _spectra(a):
        mag = np.abs(spec)
        del spec
        cut = mag > thresh * mag.max()
        del mag  # one magnitude plane live, freed before the OR
        keep = cut if keep is None else np.logical_or(keep, cut, out=keep)
    if keep is None:
        return np.zeros((0, d), dtype=np.int64)
    pts = np.argwhere(keep)
    # a real form's spectrum is Hermitian, so add -m off the last-index 0 and
    # N/2 planes (the half lattice holds both there); wrap like fftfreq
    inner = (pts[:, -1] > 0) & (pts[:, -1] < N // 2)
    return (np.concatenate([pts, -pts[inner]]) + N // 2) % N - N // 2


def product_support_radius(a: GridForm, b: GridForm) -> float:
    """Largest |m1 + m2| over the two spectral supports (exact set sum),
    each cut at ``SILENT_FLOOR``.

    This is the support statement behind low-pass products: inputs
    supported in balls of radius r_a, r_b give a product supported in the
    ball of radius r_a + r_b.  Raises BandRangeError if that sum reaches
    the Nyquist shell (the cyclic sum would alias).
    """
    if not a.same_grid(b):
        raise DimensionMismatch("grid forms live on different grids")
    sa = spectral_support(a)
    sb = spectral_support(b)
    if sa.size == 0 or sb.size == 0:
        return 0.0
    # squared norms in exact integers
    na = (sa**2).sum(axis=1)
    nb = int((sb**2).sum(axis=1).max())
    ra, rb = math.sqrt(int(na.max())), math.sqrt(nb)
    if ra + rb >= a.resolution / 2:
        raise BandRangeError(
            f"support radii {ra:.1f} + {rb:.1f} reach Nyquist {a.resolution // 2}"
        )
    # rows of sa by norm, largest first, in chunks that double up to the
    # memory cap; stop once |m1| + max|m2| cannot beat the best, tested as
    # 2 sqrt(n1 nb) <= best - n1 - nb without square roots
    order = np.argsort(-na, kind="stable")
    sa, na = sa[order], na[order]
    best, lo, chunk = 0, 0, 1
    cap = max(1, 10**7 // len(sb))
    while lo < len(sa):
        n1 = int(na[lo])
        slack = best - n1 - nb
        if slack >= 0 and 4 * n1 * nb <= slack * slack:
            break
        sq = sum((sa[lo : lo + chunk, None, i] + sb[:, i]) ** 2 for i in range(sa.shape[1]))
        best = max(best, int(sq.max()))
        lo += chunk
        chunk = min(2 * chunk, cap)
    return math.sqrt(best)


def bandlimited_noise_form(
    d: int,
    p: int,
    N: int,
    T: float = 1.0,
    radius: float = 8.0,
    seed: int = 0,
) -> GridForm:
    """Random real form with spectrum confined to |xi| <= radius."""
    _check_grid(d, p, N, T)
    rng = np.random.default_rng(seed)
    a = GridForm(d, p, N, T, rng.standard_normal((comb(d, p),) + (N,) * d))
    u, inv = _partition(a).classes
    return _radial_wedge(a, (u <= radius).astype(float)[inv])
