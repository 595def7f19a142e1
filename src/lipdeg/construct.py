"""Lower-bound constructions: sphere cap maps, self-map plans, layered forms.

Three kinds of artifacts come out of this module:

* grid realizations of the block cap maps S^2 -> S^2 of degree d^2
  (``sphere_map``), with measured discrete Lipschitz constants;
* verified arithmetic plans for the layer-equalizing self-map recursion
  (``recursion_plan``): at every level the map is assembled from a
  homotopy shell, an interstitial composition region, and a homothetic
  subcube grid, and the Lipschitz bookkeeping is the width-weighted sum
  of the three regional slopes;
* closed 2-form ensembles on the 4-torus whose dyadic band masses are
  equalized layer by layer (``layered_profile``), the frequency signature
  the plans predict, in both grid-realized and profile-only form.

The geometry constants feeding the plans default to values measured from
the degree-1 cap realization; every constant is an explicit input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .bands import (
    BandProfile,
    GridForm,
    _check_period,
    _chi,
    band_profile,
    build_partition,
    grid_form,
    synthetic_profile,
)
from .errors import (
    GeometryError,
    ParameterError,
    ResolutionError,
)
from .exterior import jsonable

__all__ = [
    "SampledSphereMap",
    "GeometryConstants",
    "LayerSpec",
    "RecursionPlan",
    "LayeredEnsemble",
    "sphere_map",
    "homotopy_bound",
    "recursion_plan",
    "layered_profile",
    "default_geometry",
]


# -- sphere cap maps -----------------------------------------------------------


@dataclass(frozen=True)
class SampledSphereMap:
    """Unit-sphere-valued samples of a degree d^2 block map on the 2-torus.

    values has shape (3, N, N); the map is the cap map on each of the d x d
    subsquares (north pole at the center, south pole on every subsquare
    edge), so it glues periodically and its mapping degree is d^2.
    """

    block_count: int
    resolution: int
    values: np.ndarray
    lipschitz: float
    target_dim: int = 2
    boundary_collapsed: bool = False
    basepoint: tuple = (0.0, 0.0, -1.0)

    def __post_init__(self):
        norms = np.sqrt((self.values**2).sum(axis=0))
        if np.abs(norms - 1.0).max() > 1e-9:
            raise GeometryError("sphere map samples must be unit vectors")
        if self.boundary_collapsed:
            base = np.asarray(self.basepoint).reshape(3, 1)
            edge = np.concatenate(
                [self.values[:, 0, :], self.values[:, :, 0]], axis=1
            )
            if np.abs(edge - base).max() > 1e-9:
                raise GeometryError(
                    "boundary nodes must sit at the basepoint when the "
                    "collapse flag is set"
                )

    @property
    def degree_target(self) -> int:
        return self.block_count**self.target_dim


def _measured_lipschitz(values: np.ndarray, N: int) -> float:
    """Max chordal slope over grid edges and diagonals (periodic)."""
    h = 1.0 / N
    best = 0.0
    for sx, sy in ((1, 0), (0, 1), (1, 1), (1, -1)):
        diff = np.roll(values, shift=(-sx, -sy), axis=(1, 2)) - values
        slope = np.sqrt((diff**2).sum(axis=0)) / (h * math.hypot(sx, sy))
        best = max(best, float(slope.max()))
    return best


def sphere_map(d: int, N: int) -> SampledSphereMap:
    """Realize the degree d^2 block cap map on an N x N periodic grid.

    The map goes from the 2-torus to the 2-sphere, the one target
    dimension the grid realization covers.

    Each of the d x d subsquares runs the radial cap: with r the radial
    coordinate scaled so the inscribed circle is r = 1, the point maps to
    (sin(pi r) * unit_radial, cos(pi r)), and everything at r >= 1 sits
    at the south pole.  Subsquare edges are therefore constant, which is
    what makes the blocks (and the periodic wrap) glue.
    """
    if d < 1:
        raise ParameterError("block count must be >= 1")
    if N < 4 or N % d != 0:
        raise ResolutionError(f"resolution {N} not divisible by block count {d}")
    xs = np.arange(N) / N
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    bx = np.minimum((X * d).astype(int), d - 1)
    by = np.minimum((Y * d).astype(int), d - 1)
    dx = X - (bx + 0.5) / d
    dy = Y - (by + 0.5) / d
    rho = np.sqrt(dx**2 + dy**2)
    r = np.minimum(2.0 * d * rho, 1.0)
    safe = np.maximum(rho, 1e-300)
    ux = np.where(rho > 0, dx / safe, 1.0)
    uy = np.where(rho > 0, dy / safe, 0.0)
    s = np.sin(np.pi * r)
    values = np.stack([s * ux, s * uy, np.cos(np.pi * r)])
    return SampledSphereMap(
        block_count=d,
        resolution=N,
        values=values,
        lipschitz=_measured_lipschitz(values, N),
        boundary_collapsed=True,
    )


# -- geometry constants ---------------------------------------------------------


@dataclass(frozen=True)
class GeometryConstants:
    """Explicit constants feeding the recursion bookkeeping.

    c0: bilipschitz chart factor (1 by convention on the flat model);
    lip_g: Lipschitz constant of the basic cap/attaching map;
    c1: Lipschitz-per-block constant of the block maps;
    lip_rp_per_p: Lipschitz of the basic self-map divided by p (the
    degree-2 basic map has Lipschitz 2.5, hence the 1.25 default);
    subcube_ratio: subcube side as a multiple of 1/p.
    """

    c0: float = 1.0
    lip_g: float = 1.0
    c1: float = 1.0
    lip_rp_per_p: float = 1.25
    subcube_ratio: float = 0.5

    def __post_init__(self):
        for name in ("c0", "lip_g", "c1", "lip_rp_per_p"):
            if getattr(self, name) <= 0:
                raise GeometryError(f"{name} must be positive")

    @property
    def c2(self) -> float:
        """Homotopy constant: c0^4 * lip_g^2."""
        return self.c0**4 * self.lip_g**2

    def lip_rp(self, p: int) -> float:
        return self.lip_rp_per_p * p

    def subcube_side(self, p: int) -> float:
        return self.subcube_ratio / p

    @classmethod
    def unit(cls) -> "GeometryConstants":
        return cls()

    @classmethod
    def measured(cls, N: int = 128) -> "GeometryConstants":
        base = sphere_map(1, N)
        return cls(c0=1.0, lip_g=base.lipschitz, c1=base.lipschitz)


@lru_cache(maxsize=4)
def default_geometry(N: int = 128) -> GeometryConstants:
    return GeometryConstants.measured(N)


def homotopy_bound(p: int, d: int, geometry: Optional[GeometryConstants] = None) -> float:
    """Plan-level Lipschitz bound c2 * p * d for the block-map homotopy.

    This is the cost of sliding between the pd-block map and the
    composite of the p-block and d-block maps; it feeds the homotopy
    shell of the recursion.  Symmetric and linear in each factor.
    """
    if p < 1 or d < 1:
        raise ParameterError("block counts must be >= 1")
    geo = geometry or default_geometry()
    return geo.c2 * p * d


# -- the layer-equalizing recursion ---------------------------------------------


@dataclass(frozen=True)
class LayerSpec:
    """One level of the construction in the top dimension.

    Regions across a half-width: the homothetic subcube grid (width
    p * D), the interstitial composition collar (width 1/2 - p * D), and
    the homotopy shell occupying the other half.  L3, L2, L1 are their
    slopes; the level bound is the width-weighted sum.
    """

    level: int
    subcube_side: float
    grid_width: float
    interstitial_width: float
    shell_width: float
    L1: float
    L2: float
    L3: float
    bound: float

    def __post_init__(self):
        if self.subcube_side <= 0:
            raise GeometryError("subcube side must be positive")
        if abs(self.grid_width + self.interstitial_width - 0.5) > 1e-12:
            raise GeometryError("grid and interstitial widths must sum to 1/2")


@dataclass(frozen=True)
class RecursionPlan:
    p: int
    levels: int
    degree_count: int  # number of cohomological stages in the assembly
    geometry: GeometryConstants
    layers: tuple  # LayerSpec per level 1..levels (top stage)
    bound: float
    bounds_by_level: tuple  # K(0..levels) in the top stage
    naive_rate: float  # Lip of the basic self-map, iterated ell times
    envelope_constant: float  # bound(ell) <= envelope * ell^(d-1) p^ell

    @property
    def degree(self) -> int:
        """Mapping degree p^(n*levels) on the top-dimensional stratum."""
        return self.p ** (2 * self.degree_count * self.levels)

    def growth_rates(self) -> tuple:
        return tuple(
            self.bounds_by_level[t] / self.bounds_by_level[t - 1]
            for t in range(1, self.levels + 1)
        )

    def naive_crossover_level(self) -> Optional[int]:
        """First level from which the naive iterate grows strictly faster.

        The naive construction iterates the basic self-map, paying its
        full Lipschitz constant per level; the plan's per-level growth
        factor decays toward p.  Returns the first level where the naive
        factor strictly exceeds the plan's (and stays above, since the
        plan's factors are nonincreasing).
        """
        rates = self.growth_rates()
        for t, rate in enumerate(rates, start=1):
            if self.naive_rate > rate + 1e-12:
                if all(self.naive_rate > r - 1e-12 for r in rates[t - 1 :]):
                    return t
        return None

    def to_json_dict(self) -> dict:
        return jsonable({
            "p": self.p,
            "levels": self.levels,
            "degree_count": self.degree_count,
            "bound": self.bound,
            "bounds_by_level": self.bounds_by_level,
            "naive_rate": self.naive_rate,
            "naive_crossover_level": self.naive_crossover_level(),
            "envelope_constant": self.envelope_constant,
            "degree_log_p": 2 * self.degree_count * self.levels,
            "layers": [
                {
                    "level": s.level,
                    "subcube_side": s.subcube_side,
                    "widths": [s.grid_width, s.interstitial_width, s.shell_width],
                    "L1": s.L1,
                    "L2": s.L2,
                    "L3": s.L3,
                    "bound": s.bound,
                }
                for s in self.layers
            ],
        })


def recursion_plan(
    p: int,
    levels: int,
    degree_count: int,
    geometry: Optional[GeometryConstants] = None,
) -> RecursionPlan:
    """Run the layer-equalized recursion and verify its envelope.

    Stage 1 is the block-map base (Lipschitz c1 * p^level).  Each later
    stage assembles level ell from level ell-1 through three regions:

    * homothetic grid of subcubes of side D, slope L3 = K(ell-1) / D;
    * interstitial collar composing the basic self-map, slope
      L2 = Lip(r_p) * K(ell-1);
    * homotopy shell interpolating the two block decompositions, slope
      L1 = 2 * H_prev(ell) from the previous stage's homotopy cost.

    The level bound is the width-weighted sum p*D*L3 + (1/2 - p*D)*L2 +
    L1/2, and the stage's homotopy cost is the worst regional slope.
    With the default D = 1/(2p) the weighted sum telescopes to
    K(ell) = p*K(ell-1) + H_prev(ell), which is what produces the
    ell^(stages-1) * p^ell envelope this function asserts.
    """
    if p < 2:
        raise ParameterError("scale base p must be >= 2")
    if levels < 1:
        raise ParameterError("levels must be >= 1")
    if degree_count < 1:
        raise ParameterError("degree count must be >= 1")
    # the envelope t^(stages-1) * p^t must stay well inside float64
    if levels * math.log2(p) + (degree_count - 1) * math.log2(levels) > 1000:
        raise ParameterError(f"{levels} levels at base {p} overflow float64")
    geo = geometry or default_geometry()
    D = geo.subcube_side(p)
    if D <= 0:
        raise GeometryError("subcube side must be positive")
    if p * D > 0.5 + 1e-12:
        raise GeometryError(
            f"subcube grid width p*D = {p * D:.3f} exceeds the half-width"
        )
    # stage 1: block maps and their homotopies
    K_prev = [geo.c1 * p**t for t in range(levels + 1)]
    H_prev = [homotopy_bound(p, p ** max(t - 1, 0), geo) for t in range(levels + 1)]
    layers = []
    for stage in range(2, degree_count + 1):
        K = [1.0]  # level 0 is the identity
        H = [H_prev[0]]
        stage_layers = []
        for t in range(1, levels + 1):
            L1 = 2.0 * H_prev[t]
            L2 = geo.lip_rp(p) * K[t - 1]
            L3 = K[t - 1] / D
            bound = p * D * L3 + (0.5 - p * D) * L2 + 0.5 * L1
            K.append(bound)
            H.append(max(L1, L2, L3))
            stage_layers.append(
                LayerSpec(
                    level=t,
                    subcube_side=D,
                    grid_width=p * D,
                    interstitial_width=0.5 - p * D,
                    shell_width=0.5,
                    L1=L1,
                    L2=L2,
                    L3=L3,
                    bound=bound,
                )
            )
        K_prev, H_prev = K, H
        layers = stage_layers
    bounds = tuple(K_prev)
    bound = bounds[levels]
    # envelope check: bound(t) <= C * t^(stages-1) * p^t with C from level 1
    envelope = bounds[1] / p if levels >= 1 else bounds[0]
    for t in range(1, levels + 1):
        cap = envelope * t ** (degree_count - 1) * p**t
        if bounds[t] > cap * (1.0 + 1e-9):
            raise GeometryError(
                f"level {t} bound {bounds[t]:.3e} escapes envelope {cap:.3e}"
            )
    return RecursionPlan(
        p=p,
        levels=levels,
        degree_count=degree_count,
        geometry=geo,
        layers=tuple(layers),
        bound=bound,
        bounds_by_level=bounds,
        naive_rate=geo.lip_rp(p),
        envelope_constant=envelope,
    )


# -- layered frequency ensembles -------------------------------------------------


@dataclass(frozen=True)
class LayeredEnsemble:
    profile: BandProfile
    ensemble: Optional[GridForm]
    requested: dict  # band -> L1 mass
    layer_frequencies: tuple

    def to_json_dict(self) -> dict:
        return jsonable({
            "requested": self.requested,
            "bands": self.profile.bands,
            "l1": self.profile.l1,
            "layer_frequencies": self.layer_frequencies,
            "grid_realized": self.ensemble is not None,
        })


def _dominant_band(rho: float, k_min: int) -> int:
    """Band window taking the largest value at radius rho."""
    if rho <= 0:
        return k_min
    lo = max(int(math.floor(math.log2(rho))) - 1, k_min)
    ks = np.arange(lo - 1, lo + 4)
    low = _chi(rho / 2.0**ks)  # lowpass at cutoffs lo-1 .. lo+3
    windows = low[1:] - np.where(ks[1:] == k_min, 0.0, low[:-1])
    return lo + int(np.argmax(windows))


_PAIR_CYCLE = ((1, 2), (3, 4), (1, 3), (2, 4), (1, 4), (2, 3))


def layered_profile(
    p: int,
    levels: int,
    mass_total: float,
    N: Optional[int] = None,
    T: float = 1.0,
    seed: int = 0,
) -> LayeredEnsemble:
    """Closed 2-form data on the 4-torus with equalized band masses.

    Layer k in 0..levels contributes a plane-wave 2-form at frequency p^k
    whose component pair contains the frequency axis (hence exactly
    closed), scaled so its band L1 mass is mass_total / sqrt(levels+1) —
    the equal-mass splitting that saturates the averaging step of the
    degree-bound pipeline.  With N given the ensemble is realized as a
    GridForm and profiled through the actual band projections; without N
    only the synthetic profile is built (arbitrarily many levels).
    """
    if p < 2:
        raise ParameterError("scale base p must be >= 2")
    if levels < 0:
        raise ParameterError("levels must be >= 0")
    if not (math.isfinite(mass_total) and mass_total > 0):
        raise ParameterError("mass must be positive and finite")
    _check_period(T)
    if levels * math.log2(p) - math.log2(T) > 1000:  # top radius p^levels / T
        raise ParameterError(f"{levels} levels at base {p}, period {T} overflow float64")
    per_layer = mass_total / math.sqrt(levels + 1)
    freqs = [p**k for k in range(levels + 1)]
    k_min = int(math.floor(math.log2(1.0 / T)))
    requested: dict = {}
    for f in freqs:
        band = _dominant_band(f / T, k_min)
        requested[band] = requested.get(band, 0.0) + per_layer
    try:
        total_l2 = math.sqrt(sum(v**2 for v in requested.values()))
    except OverflowError:
        raise ParameterError(f"mass {mass_total!r} overflows the band L2 norms") from None
    if N is None:
        return LayeredEnsemble(
            profile=synthetic_profile(requested, total_l2),
            ensemble=None,
            requested=requested,
            layer_frequencies=tuple(freqs),
        )
    part = build_partition(4, N, T)
    if freqs[-1] / T >= (N / 2) / T:
        raise ResolutionError(
            f"top layer frequency {freqs[-1]} reaches Nyquist {N // 2}"
        )
    rng = np.random.default_rng(seed)
    total = grid_form(4, 2, N, T)
    cell = (T / N) ** 4
    comp_index = {I: c for c, I in enumerate(total.indices)}
    xs = np.arange(N) * (T / N)
    for idx, f in enumerate(freqs):
        i, j = _PAIR_CYCLE[idx % len(_PAIR_CYCLE)]
        phase = float(rng.uniform(0.0, 2.0 * np.pi))
        wave = np.cos(2.0 * np.pi * f * xs / T + phase)
        shape = [1, 1, 1, 1]
        shape[i - 1] = N
        wave = wave.reshape(shape)
        norm = float(np.abs(wave).sum()) * N ** 3 * cell
        total.data[comp_index[(i, j)]] += (per_layer / norm) * wave
    profile = band_profile(total, part)
    return LayeredEnsemble(
        profile=profile,
        ensemble=total,
        requested=requested,
        layer_frequencies=tuple(freqs),
    )
