"""File containers for grid forms and band profiles.

Grid forms use a little binary format ("GFRM"): a 4-byte magic, three
little-endian u32 fields (dimension, degree, resolution), one f64 period,
then the component planes as float64 in lexicographic multi-index order,
row-major.  Band profiles round-trip through a plain CSV with one row per
(band, component) plus an "all" aggregate row per band and a final
"total" row carrying the global L2 norm.  ``write_csv`` writes every CSV
file lipdeg makes.
"""

from __future__ import annotations

import csv
import os
import stat
import struct
from math import comb

import numpy as np

from .bands import BandProfile, GridForm, _check_grid
from .errors import ShapeError

__all__ = [
    "write_csv",
    "write_gridform",
    "read_gridform",
    "write_band_profile",
    "read_band_profile",
]

_MAGIC = b"GFRM"
_HEADER = struct.Struct("<4sIIId")
_PROFILE_HEADER = ["band", "component", "l1", "l2", "linf"]


def write_csv(path, header: list, rows) -> None:
    """Write a CSV file holding the header row, then ``rows``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def write_gridform(path, a: GridForm) -> None:
    with open(path, "wb") as fh:
        fh.write(
            _HEADER.pack(
                _MAGIC, a.spatial_dim, a.form_degree, a.resolution, a.period
            )
        )
        fh.write(np.ascontiguousarray(a.data, dtype="<f8"))  # its buffer, not a bytes copy


def read_gridform(path) -> GridForm:
    """The grid form stored at ``path``.  The header, and a regular file's
    size, are checked before the payload is read, straight into one array;
    a pipe is read to one byte past the payload."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ShapeError(f"{path}: truncated header")
        magic, d, p, N, T = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ShapeError(f"{path}: bad magic {magic!r}")
        _check_grid(d, p, N, T)
        count = comb(d, p) * N**d
        info = os.fstat(fh.fileno())
        size = info.st_size - _HEADER.size
        if stat.S_ISREG(info.st_mode) and size != 8 * count:
            raise ShapeError(f"{path}: payload {size} bytes, want {8 * count}")
        data = np.empty(count, dtype="<f8")
        if fh.readinto(data) != 8 * count or fh.read(1):
            raise ShapeError(f"{path}: payload is not the {8 * count} bytes the header gives")
    if not np.isfinite(data).all():
        raise ShapeError(f"{path}: non-finite samples")
    return GridForm(d, p, N, T, data.reshape((comb(d, p),) + (N,) * d))


def _fmt_component(I) -> str:
    return "all" if I is None else "-".join(str(i) for i in I)


def _parse_component(s: str):
    return None if s == "all" else tuple(int(t) for t in s.split("-") if t)


def write_band_profile(path, prof: BandProfile) -> None:
    rows = []
    for k in prof.bands:
        for (kk, I), (c1, c2, ci) in sorted(prof.per_component.items()):
            if kk == k:
                rows.append([k, _fmt_component(I), repr(c1), repr(c2), repr(ci)])
        rows.append([k, "all"] + [repr(m.get(k, 0.0)) for m in (prof.l1, prof.l2, prof.linf)])
    rows.append(["total", "all", "", repr(prof.total_l2), ""])
    write_csv(path, _PROFILE_HEADER, rows)


def read_band_profile(path) -> BandProfile:
    l1, l2, linf, per = {}, {}, {}, {}
    total_l2 = 0.0
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != _PROFILE_HEADER:
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
