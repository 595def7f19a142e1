"""File containers for grid forms and band profiles.

Grid forms use a little binary format ("GFRM"): a 4-byte magic, three
little-endian u32 fields (dimension, degree, resolution), one f64 period,
then the component planes as float64 in lexicographic multi-index order,
row-major.  Band profiles round-trip through a plain CSV with one row per
(band, component) plus an "all" aggregate row per band and a final
"total" row carrying the global L2 norm.
"""

from __future__ import annotations

import csv
import struct
from math import comb
from pathlib import Path

import numpy as np

from .bands import BandProfile, GridForm, _check_grid
from .errors import ShapeError

__all__ = [
    "write_gridform",
    "read_gridform",
    "write_band_profile",
    "read_band_profile",
]

_MAGIC = b"GFRM"
_HEADER = struct.Struct("<4sIIId")


def write_gridform(path, a: GridForm) -> None:
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                _MAGIC, a.spatial_dim, a.form_degree, a.resolution, a.period
            )
        )
        fh.write(np.ascontiguousarray(a.data, dtype="<f8").tobytes())


def read_gridform(path) -> GridForm:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ShapeError(f"{path}: truncated header")
    magic, d, p, N, T = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ShapeError(f"{path}: bad magic {magic!r}")
    _check_grid(d, p, N)
    count = comb(d, p) * N**d
    body = raw[_HEADER.size :]
    if len(body) != 8 * count:
        raise ShapeError(f"{path}: payload {len(body)} bytes, want {8 * count}")
    data = np.frombuffer(body, dtype="<f8").astype(np.float64)
    if not np.isfinite(data).all():
        raise ShapeError(f"{path}: non-finite samples")
    return GridForm(d, p, N, T, data.reshape((comb(d, p),) + (N,) * d))


def _fmt_component(I) -> str:
    return "all" if I is None else "-".join(str(i) for i in I)


def _parse_component(s: str):
    return None if s == "all" else tuple(int(t) for t in s.split("-") if t)


def write_band_profile(path, prof: BandProfile) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["band", "component", "l1", "l2", "linf"])
        for k in prof.bands:
            for (kk, I), (c1, c2, ci) in sorted(prof.per_component.items()):
                if kk == k:
                    w.writerow([k, _fmt_component(I), repr(c1), repr(c2), repr(ci)])
            w.writerow(
                [
                    k,
                    "all",
                    repr(prof.l1.get(k, 0.0)),
                    repr(prof.l2.get(k, 0.0)),
                    repr(prof.linf.get(k, 0.0)),
                ]
            )
        w.writerow(["total", "all", "", repr(prof.total_l2), ""])


def read_band_profile(path) -> BandProfile:
    l1, l2, linf, per = {}, {}, {}, {}
    total_l2 = 0.0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["band", "component", "l1", "l2", "linf"]:
        raise ShapeError(f"{path}: not a band-profile CSV")
    for row in rows[1:]:
        if not row:
            continue
        band, comp = row[0], _parse_component(row[1])
        if band == "total":
            total_l2 = float(row[3])
            continue
        k = int(band)
        if comp is None:
            l1[k], l2[k], linf[k] = (float(v) for v in row[2:5])
        else:
            per[(k, comp)] = tuple(float(v) for v in row[2:5])
    return BandProfile(
        bands=tuple(sorted(l1)),
        l1=l1,
        l2=l2,
        linf=linf,
        per_component=per,
        total_l2=total_l2,
    )
