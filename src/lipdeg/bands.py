"""Dyadic band calculus for differential forms on periodic grids.

A ``GridForm`` stores one real scalar field per multi-index component of a
degree-p form on the flat torus ``(R/T Z)^d``, sampled on an ``N^d`` grid
(N a power of two).  All calculus is spectral:

* frequencies are integer lattice vectors ``m``; the physical frequency is
  ``xi = m / T`` and plane waves are ``exp(2 pi i <m, x> / T)``;
* every spectrum lives on the half lattice of a real FFT (last axis
  ``0..N/2``), and one transform pair moves between grid and spectrum:
  ``_spectra`` (rfftn, one component at a time) and ``_field`` (irfftn);
* the exterior derivative multiplies by ``(2 pi i / T) m ^ .``;
* dyadic bands are cut by a radial partition of unity built from the
  ``exp(-1/t)`` mollifier: the low-pass profile ``chi(|xi| / 2^k)`` equals
  1 inside radius ``2^k``, 0 outside ``2^{k+1}``, and band multipliers are
  consecutive differences, so they sum to exactly 1 and band k is
  supported in the annulus ``2^{k-1} <= |xi| <= 2^{k+1}``;
* the zero mode belongs to the lowest band;
* a closed, mean-free form has the explicit primitive obtained by
  contracting with the frequency vector and dividing by
  ``2 pi i |xi|^2``, frequency by frequency; on band k this shrinks
  norms by ``~ 2^{-k}``.

d, its closedness residual and the primitive all read exterior's (1, p)
wedge table, so Koszul signs and basis order come from ``exterior`` alone;
every band loop reads one stream of band windows.

The band stream skips silent (band, component) pairs: those whose windowed
half-spectrum peaks at or below ``SILENT_FLOOR`` times the form's largest
spectral magnitude, the same relative floor ``spectral_support`` cuts at.
A silent pair gets no inverse transform; ``band_decompose`` leaves its plane
zero, and a band profile keeps every band and every (band, component) key,
reporting a silent pair as ``(0, 0, 0)``.

Norms are Riemann sums: ``L1 = sum_I integral |a_I|``,
``L2 = sqrt(sum_I integral a_I^2)``, ``Linf = max |a_I|``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
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
    "project_band",
    "project_upto",
    "band_decompose",
    "band_fields",
    "exterior_derivative",
    "primitive",
    "lp_norm",
    "band_profile",
    "synthetic_profile",
    "wedge_grid",
    "spectral_support",
    "product_support_radius",
    "bandlimited_noise_form",
]


# largest grid one form may hold: 2**27 float64 samples, 1 GiB
_MAX_SAMPLES = 2**27

# relative spectral floor: magnitudes at or below SILENT_FLOOR times the
# form's largest spectral magnitude count as roundoff
SILENT_FLOOR = 1e-12


def _check_resolution(N: int) -> None:
    if N < 4 or (N & (N - 1)) != 0:
        raise ResolutionError(f"resolution must be a power of two >= 4, got {N}")


def _check_grid(d: int, p: int, N: int) -> None:
    """Reject a degree-p form on the N^d grid before anything is allocated."""
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
        _check_grid(d, p, N)
        _check_period(self.period)
        want = (comb(d, p),) + (N,) * d
        if self.data.shape != want:
            raise ShapeError(f"data shape {self.data.shape}, want {want}")
        if self.data.dtype != np.float64:
            object.__setattr__(self, "data", self.data.astype(np.float64))

    @property
    def indices(self) -> list:
        return multi_indices(self.spatial_dim, self.form_degree)

    def component(self, I) -> np.ndarray:
        return self.data[self.indices.index(tuple(I))]

    def same_grid(self, other: "GridForm") -> bool:
        return (
            self.spatial_dim == other.spatial_dim
            and self.resolution == other.resolution
            and abs(self.period - other.period) < 1e-12
        )

    def copy_with(self, data: np.ndarray) -> "GridForm":
        return GridForm(self.spatial_dim, self.form_degree, self.resolution, self.period, data)

    def __add__(self, other: "GridForm") -> "GridForm":
        if not self.same_grid(other) or self.form_degree != other.form_degree:
            raise DimensionMismatch("grid forms live on different grids/degrees")
        return self.copy_with(self.data + other.data)

    def __sub__(self, other: "GridForm") -> "GridForm":
        return self + other.scale(-1.0)

    def scale(self, c: float) -> "GridForm":
        return self.copy_with(self.data * float(c))


def zero_form(d: int, p: int, N: int, T: float = 1.0) -> GridForm:
    _check_grid(d, p, N)
    return GridForm(d, p, N, T, np.zeros((comb(d, p),) + (N,) * d))


def grid_axes(d: int, N: int, T: float = 1.0) -> list:
    """Node coordinates per axis (shape-(N,) arrays, broadcastable)."""
    x = np.arange(N) * (T / N)
    return [x.reshape((1,) * i + (N,) + (1,) * (d - 1 - i)) for i in range(d)]


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


@lru_cache(maxsize=64)
def _freq_axis(d: int, N: int, T: float, axis: int) -> np.ndarray:
    """xi = m / T along one half-lattice axis, broadcastable (read-only)."""
    m = np.arange(N // 2 + 1) if axis == d - 1 else np.fft.fftfreq(N) * N
    shape = [1] * d
    shape[axis] = len(m)
    out = (m / T).reshape(shape)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=3)
def _freq_radius(d: int, N: int, T: float) -> np.ndarray:
    """|xi| on the half lattice (read-only)."""
    r = np.sqrt(sum(_freq_axis(d, N, T, i) ** 2 for i in range(d)))
    r.setflags(write=False)
    return r


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity step from exp(-1/t): 0 at t<=0 rising to 1 at t>=1."""
    t = np.clip(t, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)), 0.0)
    return a / (a + b)


def _chi(r: np.ndarray) -> np.ndarray:
    """Radial low-pass profile: 1 on r<=1, 0 on r>=2, smooth between."""
    out = np.ones_like(r)
    trans = (r > 1.0) & (r < 2.0)
    out[r >= 2.0] = 0.0
    if np.any(trans):
        out[trans] = _smooth_step(2.0 - r[trans])
    return out


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

    def lowpass_multiplier(self, k: int) -> np.ndarray:
        """chi(|xi| / 2^k); exactly 1 once k >= k_max."""
        if k < self.k_min - 1 or k > self.k_max:
            raise BandRangeError(f"cutoff {k} outside bands {self.k_min}..{self.k_max}")
        r = _freq_radius(self.spatial_dim, self.resolution, self.period)
        return _chi(r / float(2.0**k))

    def band_multiplier(self, k: int) -> np.ndarray:
        """Band window; the lowest band absorbs everything below (zero mode)."""
        if k not in self.bands:
            raise BandRangeError(f"band {k} outside {self.k_min}..{self.k_max}")
        if k == self.k_min:
            return self.lowpass_multiplier(k)
        return self.lowpass_multiplier(k) - self.lowpass_multiplier(k - 1)

    def windows(self):
        """Yield (k, band window) for every band, one lowpass per band."""
        prev = None
        for k in self.bands:
            low = self.lowpass_multiplier(k)
            window = low if prev is None else low - prev
            prev = low  # the only lowpass kept across the yield
            yield k, window


def build_partition(d: int, N: int, T: float = 1.0) -> DyadicPartition:
    """Partition covering the whole lattice: lowest nonzero |xi| up to Nyquist."""
    _check_resolution(N)
    _check_period(T)
    k_min = int(np.floor(np.log2(1.0 / T)))
    r_max = np.sqrt(d) * (N / 2) / T
    k_max = int(np.ceil(np.log2(r_max)))
    return DyadicPartition(d, N, T, k_min, k_max)


# -- the transform pair: every spectrum in this module passes through these ---


def _spectra(a: GridForm):
    """Yield each component's half-spectrum in component order (one live)."""
    axes = tuple(range(a.spatial_dim))
    for c in a.data:
        yield np.fft.rfftn(c, axes=axes)


def _field(spec: np.ndarray, d: int, N: int) -> np.ndarray:
    """The real field on the N^d grid with half-spectrum ``spec``."""
    return np.fft.irfftn(spec, s=(N,) * d, axes=tuple(range(d)))


def _apply_multiplier(a: GridForm, mult: np.ndarray) -> GridForm:
    """Multiply every component's half-spectrum by a real radial multiplier."""
    out = np.empty_like(a.data)
    for c, spec in enumerate(_spectra(a)):
        spec *= mult
        out[c] = _field(spec, a.spatial_dim, a.resolution)
    return a.copy_with(out)


def project_band(a: GridForm, k: int, part: Optional[DyadicPartition] = None) -> GridForm:
    part = part or build_partition(a.spatial_dim, a.resolution, a.period)
    return _apply_multiplier(a, part.band_multiplier(k))


def project_upto(a: GridForm, k: int, part: Optional[DyadicPartition] = None) -> GridForm:
    part = part or build_partition(a.spatial_dim, a.resolution, a.period)
    return _apply_multiplier(a, part.lowpass_multiplier(k))


def band_fields(a: GridForm, part: DyadicPartition):
    """Yield (k, c, component c of P_k a) band by band, one field at a time,
    skipping the silent pairs (their field is zero up to roundoff)."""
    specs = list(_spectra(a))
    floor = SILENT_FLOOR * max(float(np.abs(s).max()) for s in specs)
    for k, mult in part.windows():
        for c, spec in enumerate(specs):
            out = spec * mult
            if float(np.abs(out).max()) > floor:
                out = _field(out, a.spatial_dim, a.resolution)  # frees the spectrum
                yield k, c, out
            del out  # free it before the next pair's spectrum is made


def band_decompose(a: GridForm, part: Optional[DyadicPartition] = None) -> dict:
    """All band projections in one spectral pass: {k: P_k a}."""
    part = part or build_partition(a.spatial_dim, a.resolution, a.period)
    out = {k: a.copy_with(np.zeros_like(a.data)) for k in part.bands}
    for k, c, fld in band_fields(a, part):
        out[k].data[c] = fld
        del fld  # free it before the stream computes the next field
    return out


# -- exterior derivative and primitive ---------------------------------------


def _combine(specs, table, factor, n_out: int) -> list:
    """out[o] = sum of factor(axis, sign) * specs[i] over rows (o, axis, i, sign)
    of ``table``, exterior's wedge_nonzeros(d, 1, p) or its transpose.

    ``specs`` is consumed in component order, so a generator keeps one input
    spectrum live; an output no row reaches stays None.
    """
    rows = list(zip(*(x.tolist() for x in table)))
    out = [None] * n_out
    for src, spec in enumerate(specs):
        for tgt, axis, _, sign in (r for r in rows if r[2] == src):
            term = spec * factor(axis, sign)
            if out[tgt] is None:
                out[tgt] = term
            else:
                out[tgt] += term
    return out


def _synthesize(out_spec: list, d: int, N: int) -> np.ndarray:
    """Component planes from half-spectra (None is the zero plane)."""
    data = np.empty((len(out_spec),) + (N,) * d)
    for i, spec in enumerate(out_spec):
        data[i] = 0.0 if spec is None else _field(spec, d, N)
    return data


def exterior_derivative(a: GridForm) -> GridForm:
    """Spectral d; a top-degree input returns the zero form of its own degree."""
    d, p, N, T = a.spatial_dim, a.form_degree, a.resolution, a.period
    if p == d:
        return zero_form(d, d, N, T)
    out_spec = _combine(
        _spectra(a),
        wedge_nonzeros(d, 1, p),
        lambda axis, sign: 2j * np.pi * sign * _freq_axis(d, N, T, axis),
        comb(d, p + 1),
    )
    return GridForm(d, p + 1, N, T, _synthesize(out_spec, d, N))


def _closedness_residual(a: GridForm, specs: list) -> float:
    """Relative spectral l2 of d(a), scale- and resolution-invariant."""
    d, p, N, T = a.spatial_dim, a.form_degree, a.resolution, a.period
    acc = _combine(
        specs,
        wedge_nonzeros(d, 1, p),
        lambda axis, sign: sign * _freq_axis(d, N, T, axis),
        comb(d, p + 1),
    )
    num = sum(float(np.sum(np.abs(t) ** 2)) for t in acc if t is not None)
    r = _freq_radius(d, N, T)
    den = sum(float(np.sum((np.abs(s) * r) ** 2)) for s in specs)
    return np.sqrt(num / den) if den > 0 else 0.0


def primitive(
    a: GridForm,
    band: Optional[int] = None,
    part: Optional[DyadicPartition] = None,
    tol: float = 1e-8,
) -> GridForm:
    """Primitive b with d(b) = a for a closed, mean-free form.

    Acts frequency-wise: contract with the frequency vector and divide by
    ``2 pi i |xi|^2 / T``; exact on closed spectra, and on band k the
    output is smaller by ``~ 2^{-k}``.  Raises MeanObstruction when a
    component carries a zero mode, NotClosed when d(a) is not ~0, and
    BandRangeError when ``band`` is given but spectral mass leaks outside
    that band's annulus.
    """
    d, p, N, T = a.spatial_dim, a.form_degree, a.resolution, a.period
    if p == 0:
        raise ShapeError("a 0-form has no primitive")
    specs = list(_spectra(a))
    total = np.sqrt(sum(float(np.sum(np.abs(s) ** 2)) for s in specs))
    if total == 0.0:
        return zero_form(d, p - 1, N, T)
    zero_mode = max(abs(s[(0,) * d]) for s in specs)
    if zero_mode > tol * total:
        raise MeanObstruction(
            f"nonzero zero mode {zero_mode:.3e} (relative {zero_mode / total:.3e})"
        )
    resid = _closedness_residual(a, specs)
    if resid > tol:
        raise NotClosed(f"input is not closed: relative residual {resid:.3e}")
    r = _freq_radius(d, N, T)
    if band is not None:
        inside = (r >= 2.0 ** (band - 1)) & (r <= 2.0 ** (band + 1))
        leak = np.sqrt(
            sum(float(np.sum(np.abs(np.where(inside, 0, s)) ** 2)) for s in specs)
        )
        if leak > tol * total:
            raise BandRangeError(
                f"spectral mass outside band {band}: relative {leak / total:.3e}"
            )
    with np.errstate(divide="ignore", invalid="ignore"):
        inv = np.where(r > 0, 1.0 / np.maximum(r, 1e-300) ** 2, 0.0) / (2.0 * np.pi)
    # contraction with xi is the adjoint of xi ^: read the degree p-1 table
    # transposed, then divide by 2 pi i |xi|^2
    high, axis, low, sign = wedge_nonzeros(d, 1, p - 1)
    out_spec = _combine(
        specs,
        (low, axis, high, sign),
        lambda axis, sign: sign * _freq_axis(d, N, T, axis) * inv * (-1j),
        comb(d, p - 1),
    )
    return GridForm(d, p - 1, N, T, _synthesize(out_spec, d, N))


# -- norms and profiles -------------------------------------------------------


def lp_norm(a: GridForm, which) -> float:
    """Riemann-sum norms: which in {1, 2, "inf"}."""
    cell = (a.period / a.resolution) ** a.spatial_dim
    if which == 1:
        return float(sum(np.abs(c).sum() * cell for c in a.data))
    if which == 2:
        return float(np.sqrt(sum((c**2).sum() * cell for c in a.data)))
    if which == "inf":
        return float(np.max(np.abs(a.data))) if a.data.size else 0.0
    raise ParameterError(f"unsupported norm {which!r}")


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
    part = part or build_partition(a.spatial_dim, a.resolution, a.period)
    return _stream_profile(a, part, band_fields(a, part))


def _stream_profile(a: GridForm, part: DyadicPartition, fields) -> BandProfile:
    """Band norms of a, read off a stream of its (k, c, field) band fields;
    a pair the stream skips keeps its zero entries."""
    cell = (a.period / a.resolution) ** a.spatial_dim
    idx = a.indices
    l1, s2, linf = ({k: 0.0 for k in part.bands} for _ in range(3))
    per = {(k, I): (0.0, 0.0, 0.0) for k in part.bands for I in idx}
    for k, c, fld in fields:
        c1 = float(np.abs(fld).sum() * cell)
        c2 = float(np.sqrt((fld**2).sum() * cell))
        ci = float(np.max(np.abs(fld)))
        del fld  # free it before the stream computes the next field
        per[(k, idx[c])] = (c1, c2, ci)
        l1[k] += c1
        s2[k] += c2**2
        linf[k] = max(linf[k], ci)
    return BandProfile(
        bands=tuple(part.bands),
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
    """Pointwise wedge product of grid forms (Koszul signs included)."""
    if not a.same_grid(b):
        raise DimensionMismatch("grid forms live on different grids")
    d, N, T = a.spatial_dim, a.resolution, a.period
    p, q = a.form_degree, b.form_degree
    if p + q > d:
        raise ShapeError(f"wedge degree {p} + {q} exceeds dimension {d}")
    out = np.zeros((comb(d, p + q),) + (N,) * d)
    for t, i, j, s in zip(*wedge_nonzeros(d, p, q)):
        out[t] += s * a.data[i] * b.data[j]
    return GridForm(d, p + q, N, T, out)


def spectral_support(a: GridForm, thresh: float = SILENT_FLOOR) -> np.ndarray:
    """Integer lattice points where some component's spectrum exceeds
    thresh * (largest spectral magnitude); shape (m, d)."""
    d, N = a.spatial_dim, a.resolution
    mag = None
    for spec in _spectra(a):
        mag = np.abs(spec) if mag is None else np.maximum(mag, np.abs(spec), out=mag)
    top = float(mag.max())
    if top == 0.0:
        return np.zeros((0, d), dtype=np.int64)
    pts = np.argwhere(mag > thresh * top)
    # a real form's spectrum is Hermitian, so add -m off the last-index 0 and
    # N/2 planes (the half lattice holds both there); wrap like fftfreq
    inner = (pts[:, -1] > 0) & (pts[:, -1] < N // 2)
    return (np.concatenate([pts, -pts[inner]]) + N // 2) % N - N // 2


def product_support_radius(
    a: GridForm, b: GridForm, thresh: float = SILENT_FLOOR
) -> float:
    """Largest |m1 + m2| over the two spectral supports (exact set sum).

    This is the support statement behind low-pass products: inputs
    supported in balls of radius r_a, r_b give a product supported in the
    ball of radius r_a + r_b.  Raises BandRangeError if that sum reaches
    the Nyquist shell (the cyclic sum would alias).
    """
    if not a.same_grid(b):
        raise DimensionMismatch("grid forms live on different grids")
    sa = spectral_support(a, thresh)
    sb = spectral_support(b, thresh)
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
    _check_grid(d, p, N)
    rng = np.random.default_rng(seed)
    a = GridForm(d, p, N, T, rng.standard_normal((comb(d, p),) + (N,) * d))
    r = _freq_radius(d, N, T)
    mask = (r <= radius).astype(float)
    return _apply_multiplier(a, mask)
