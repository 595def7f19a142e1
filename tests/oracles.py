"""Exact oracles that the tests check lipdeg's float kernels against.

Nothing in lipdeg calls these: the command line, ``lipdeg verify`` and the
benchmark run the kernels, and the tests compare them with this reference
arithmetic, which is exact on Fraction coefficients.

* ``ExteriorElement`` is lipdeg's element with sums, scaling and the
  queries; ``wedge`` is the Koszul-signed product term by term, and
  ``dense_vector`` the flat coefficient vector of one degree.
* ``word_value`` .. ``relation_defect`` evaluate a presentation's
  relations on an assignment of elements, after ``check_degrees``.
* ``project_upto`` is the lowpass P_{<=k} through ``lowpass_multiplier``.
* ``spectra`` is the dense spectrum stream: every component's half-spectrum,
  the zero one for an all-zero plane, where ``bands`` skips that component.
* ``apply_multiplier``, ``combine`` with ``synthesize``, and ``wedge_loop``
  are one loop per operator, each with its own order of sums: the float
  reference that ``bands``' one operator kernel must match bit for bit.
  They transform back with numpy's one-call ``irfftn``, so that match also
  checks ``bands``' pass-by-pass inverse against numpy's.
* ``band_fields`` is the band-major band stream, every component's
  half-spectrum live and every component's silent floor taken before the
  first field, and ``stream_profile`` reads band norms off a stream
  with one temporary per norm: the reference for ``bands``' component-major
  stream and its fused norms.
"""

from fractions import Fraction
from math import comb
from typing import Mapping, Union

import numpy as np

from lipdeg import exterior
from lipdeg.bands import (
    SILENT_FLOOR,
    BandProfile,
    DyadicPartition,
    GridForm,
    _all_zero,
    _chi,
    _partition,
    _spectrum,
    lp_norm,
)
from lipdeg.errors import BandRangeError, DimensionMismatch, LipdegError, ShapeError
from lipdeg.exterior import (
    _check_index,
    _index_positions,
    merge_sign,
    multi_indices,
    wedge_nonzeros,
)
from lipdeg.rings import Assignment, Relation, RingPresentation

Scalar = Union[int, float, Fraction]


class AssignmentError(LipdegError):
    """Generator assignment inconsistent with the presentation."""


# -- exterior elements --------------------------------------------------------


class ExteriorElement(exterior.ExteriorElement):
    """lipdeg's exterior element with its arithmetic and queries."""

    @property
    def degrees(self) -> set:
        return {len(I) for I in self.coefficients}

    @property
    def degree(self):
        """Common degree of all terms; None for 0; error if mixed."""
        degs = self.degrees
        if not degs:
            return None
        if len(degs) > 1:
            raise ShapeError(f"element has mixed degrees {sorted(degs)}")
        return degs.pop()

    def coefficient(self, I) -> Scalar:
        return self.coefficients.get(_check_index(self.ambient_dim, I), 0)

    def sup_norm(self) -> float:
        """Largest absolute basis coefficient (0 for the zero element)."""
        if not self.coefficients:
            return 0
        return max(abs(c) for c in self.coefficients.values())

    def is_zero(self) -> bool:
        return not self.coefficients  # zero coefficients are dropped

    def _binary(self, other: exterior.ExteriorElement, sign: int) -> "ExteriorElement":
        if self.ambient_dim != other.ambient_dim:
            raise DimensionMismatch(
                f"ambient dimensions differ: {self.ambient_dim} vs {other.ambient_dim}"
            )
        out = dict(self.coefficients)
        for I, c in other.coefficients.items():
            out[I] = out.get(I, 0) + sign * c
        return ExteriorElement(self.ambient_dim, out)

    def __add__(self, other):
        return self._binary(other, +1)

    def __sub__(self, other):
        return self._binary(other, -1)

    def scale(self, c: Scalar) -> "ExteriorElement":
        return ExteriorElement(
            self.ambient_dim, {I: c * v for I, v in self.coefficients.items()}
        )


def lift(a: exterior.ExteriorElement) -> ExteriorElement:
    """The same element with the oracle arithmetic."""
    return a if isinstance(a, ExteriorElement) else ExteriorElement(a.ambient_dim, a.coefficients)


def basis_element(n: int, I, c: Scalar = 1) -> ExteriorElement:
    return ExteriorElement(n, {tuple(I): c})


def volume_element(n: int, c: Scalar = 1) -> ExteriorElement:
    return ExteriorElement(n, {tuple(range(1, n + 1)): c})


def wedge(a: exterior.ExteriorElement, b: exterior.ExteriorElement) -> ExteriorElement:
    """Bilinear wedge product with Koszul signs."""
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch(
            f"ambient dimensions differ: {a.ambient_dim} vs {b.ambient_dim}"
        )
    out: dict = {}
    for I, ca in a.coefficients.items():
        for J, cb in b.coefficients.items():
            sign, K = merge_sign(I, J)
            if sign:
                out[K] = out.get(K, 0) + sign * ca * cb
    return ExteriorElement(a.ambient_dim, out)


def dense_vector(a: exterior.ExteriorElement, p: int) -> np.ndarray:
    """Float coefficient vector of the degree-p part, lexicographic basis."""
    pos = _index_positions(a.ambient_dim, p)
    v = np.zeros(len(pos))
    for I, c in a.coefficients.items():
        if len(I) == p:
            v[pos[I]] = float(c)
    return v


def selfdual_triple_exact() -> list:
    """``exterior.selfdual_triple`` unnormalized, with Fraction coefficients:
    b_i = e_I + *e_I for I = (1,2), (1,3), (1,4), so b_i ^ b_i = 2 vol."""
    out = []
    for I in multi_indices(4, 2)[:3]:
        J = tuple(j for j in range(1, 5) if j not in I)
        s, _ = merge_sign(I, J)
        out.append(ExteriorElement(4, {I: Fraction(1), J: Fraction(s)}))
    return out


# -- relations on an assignment -------------------------------------------------


def check_degrees(a: Assignment, pres: RingPresentation) -> None:
    for name, d in pres.degrees.items():
        if name not in a.forms:
            raise AssignmentError(f"no form assigned to generator {name}")
        el = lift(a.forms[name])
        if not el.is_zero() and el.degree != d:
            raise AssignmentError(
                f"form for {name} has degree {el.degree}, generator has {d}"
            )


def word_value(word: tuple, values: Mapping) -> ExteriorElement:
    """Left-to-right wedge of the generator values along a word."""
    acc = lift(values[word[0]])
    for g in word[1:]:
        acc = wedge(acc, values[g])
    return acc


def relation_value(rel: Relation, values: Mapping) -> ExteriorElement:
    """Sum of c * word over the monomials."""
    total = None
    for c, word in rel.monomials:
        term = word_value(word, values).scale(c)
        total = term if total is None else total + term
    return total


def evaluate_relations(pres: RingPresentation, a: Assignment) -> list:
    """Images of all relations under the assignment (exact when rational)."""
    check_degrees(a, pres)
    return [relation_value(rel, a.forms) for rel in pres.relations]


def relation_defect(pres: RingPresentation, a: Assignment) -> float:
    """Largest sup-coefficient norm among all relation images (0 if none)."""
    values = evaluate_relations(pres, a)
    return max((float(v.sup_norm()) for v in values), default=0.0)


# -- the band lowpass -----------------------------------------------------------


def lowpass_multiplier(part: DyadicPartition, k: int) -> np.ndarray:
    """chi(|xi| / 2^k) on the lattice; exactly 1 once k >= k_max."""
    if k < part.k_min - 1 or k > part.k_max:
        raise BandRangeError(f"cutoff {k} outside bands {part.k_min}..{part.k_max}")
    u, inv = part.classes
    return _chi(u / 2.0**k)[inv]


def project_upto(a: GridForm, k: int) -> GridForm:
    return apply_multiplier(a, lowpass_multiplier(_partition(a), k))


# -- one loop per operator ------------------------------------------------------


def irfftn(spec: np.ndarray, d: int, N: int) -> np.ndarray:
    """numpy's n-D inverse real transform onto the N^d grid, in one call."""
    return np.fft.irfftn(spec, s=(N,) * d, axes=tuple(range(d)))


def spectra(a: GridForm):
    """Yield every component's half-spectrum in component order (one live);
    an all-zero plane gets the zero half-spectrum with no transform."""
    d, N = a.spatial_dim, a.resolution
    for c in a.data:
        if _all_zero(c):
            yield np.zeros((N,) * (d - 1) + (N // 2 + 1,), dtype=complex)
        else:
            yield _spectrum(c)


def apply_multiplier(a: GridForm, mult: np.ndarray) -> GridForm:
    """Every component's half-spectrum times a real radial multiplier, in
    place, then transformed back, zero or not."""
    out = np.empty_like(a.data)
    for c, spec in enumerate(spectra(a)):
        spec *= mult
        out[c] = irfftn(spec, a.spatial_dim, a.resolution)
    return a.copy_with(out)


def combine(specs, table, factor, n_out: int) -> list:
    """out[o] = sum of specs[i] * factor(axis, sign) over the rows
    (o, axis, i, sign) of ``table``, summed in increasing i; an output no
    row reaches stays None."""
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


def synthesize(out_spec: list, d: int, N: int) -> np.ndarray:
    """Component planes from half-spectra; None or an all-zero spectrum is
    the zero plane, with no transform."""
    data = np.empty((len(out_spec),) + (N,) * d)
    for i, spec in enumerate(out_spec):
        data[i] = 0.0 if spec is None or _all_zero(spec) else irfftn(spec, d, N)
    return data


def wedge_loop(a: GridForm, b: GridForm) -> GridForm:
    """Pointwise wedge, summed into zeroed planes in the table's row-major
    (left, right) order."""
    d, p, q = a.spatial_dim, a.form_degree, b.form_degree
    out = np.zeros((comb(d, p + q),) + (a.resolution,) * d)
    for t, i, j, s in zip(*wedge_nonzeros(d, p, q)):
        out[t] += s * a.data[i] * b.data[j]
    return GridForm(d, p + q, a.resolution, a.period, out)


def band_fields(a: GridForm):
    """Yield (k, c, component c of P_k a) band by band over live pairs: a
    pair is live when max |spectrum_c| * window_k, folded per radius class,
    exceeds SILENT_FLOOR times the largest magnitude of spectrum_c."""
    d, N = a.spatial_dim, a.resolution
    part = _partition(a)
    u, inv = part.classes
    specs, peaks, floors = [], [], []
    for spec in spectra(a):
        peak = np.zeros(len(u))
        np.maximum.at(peak, inv.ravel(), np.abs(spec).ravel())
        specs.append(spec)
        peaks.append(peak)
        floors.append(SILENT_FLOOR * float(peak.max()))
    for k, window in part.windows():
        for c, (spec, peak, floor) in enumerate(zip(specs, peaks, floors)):
            if float((peak * window).max()) > floor:
                yield k, c, irfftn(spec * window[inv], d, N)


def stream_profile(a: GridForm, fields) -> BandProfile:
    """Band norms of a off a stream of (k, c, field), each norm from its
    own temporary; a pair the stream skips keeps zero entries."""
    bands, cell, idx = _partition(a).bands, a.cell, a.indices
    l1, s2, linf = ({k: 0.0 for k in bands} for _ in range(3))
    per = {(k, I): (0.0, 0.0, 0.0) for k in bands for I in idx}
    for k, c, fld in fields:
        c1 = float(np.abs(fld).sum() * cell)
        c2 = float(np.sqrt((fld**2).sum() * cell))
        ci = float(np.max(np.abs(fld)))
        per[(k, idx[c])] = (c1, c2, ci)
        l1[k] += c1
        s2[k] += c2**2
        linf[k] = max(linf[k], ci)
    l2 = {k: float(np.sqrt(v)) for k, v in s2.items()}
    return BandProfile(tuple(bands), l1, l2, linf, per, lp_norm(a, 2))
