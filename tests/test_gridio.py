"""Round trips for the binary grid container and the profile CSV."""

import struct

import numpy as np
import pytest

from lipdeg.bands import band_profile, bandlimited_noise_form, synthetic_profile
from lipdeg.degbound import averaged_bound
from lipdeg.errors import DimensionMismatch, ResolutionError, ShapeError
from lipdeg.gridio import (
    read_band_profile,
    read_gridform,
    write_band_profile,
    write_gridform,
)


def test_gridform_binary_round_trip(tmp_path):
    a = bandlimited_noise_form(3, 2, 16, T=2.0, radius=5.0, seed=3)
    path = tmp_path / "a.gfrm"
    write_gridform(path, a)
    b = read_gridform(path)
    assert b.spatial_dim == 3 and b.form_degree == 2
    assert b.resolution == 16 and b.period == 2.0
    assert np.array_equal(a.data, b.data)  # bit-exact float64 payload


def test_gridform_header_is_portable(tmp_path):
    a = bandlimited_noise_form(2, 0, 8, seed=1)
    path = tmp_path / "a.gfrm"
    write_gridform(path, a)
    raw = path.read_bytes()
    assert raw[:4] == b"GFRM"
    assert int.from_bytes(raw[4:8], "little") == 2  # dimension, little-endian
    assert int.from_bytes(raw[12:16], "little") == 8  # resolution


def test_gridform_rejects_corruption(tmp_path):
    a = bandlimited_noise_form(2, 1, 8, seed=2)
    path = tmp_path / "a.gfrm"
    write_gridform(path, a)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"NOPE"
    bad = tmp_path / "bad.gfrm"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ShapeError):
        read_gridform(bad)
    short = tmp_path / "short.gfrm"
    short.write_bytes(path.read_bytes()[:-16])
    with pytest.raises(ShapeError):
        read_gridform(short)
    # a header alone claiming a huge grid fails before its size is computed
    huge = tmp_path / "huge.gfrm"
    huge.write_bytes(struct.pack("<4sIIId", b"GFRM", 2**32 - 1, 0, 2**31, 1.0))
    with pytest.raises(ResolutionError):
        read_gridform(huge)
    # headers whose payload size matches still fail on their grid
    for name, (d, N, samples), err in [
        ("dim0", (0, 8, 1), DimensionMismatch),
        ("res6", (1, 6, 6), ResolutionError),
    ]:
        bad = tmp_path / f"{name}.gfrm"
        header = struct.pack("<4sIIId", b"GFRM", d, 0, N, 1.0)
        bad.write_bytes(header + bytes(8 * samples))
        with pytest.raises(err):
            read_gridform(bad)


def test_band_profile_csv_round_trip(tmp_path):
    a = bandlimited_noise_form(2, 1, 32, radius=12.0, seed=4)
    prof = band_profile(a)
    path = tmp_path / "prof.csv"
    write_band_profile(path, prof)
    back = read_band_profile(path)
    assert back.bands == prof.bands
    assert back.total_l2 == prof.total_l2  # repr round trip is exact
    for k in prof.bands:
        assert back.l1[k] == prof.l1[k]
        assert back.l2[k] == prof.l2[k]
        assert back.linf[k] == prof.linf[k]
    assert back.per_component == prof.per_component
    assert back.orthogonality_ratio() == pytest.approx(prof.orthogonality_ratio())


def test_synthetic_profile_csv_round_trip_keeps_tail(tmp_path):
    """A truncated synthetic profile read back from CSV still resolves the
    auto tail to "hold", so its bound report is unchanged."""
    prof = synthetic_profile({0: 1.0, 1: 1.0, 2: 1.0}, 3.0**0.5)
    path = tmp_path / "prof.csv"
    write_band_profile(path, prof)
    back = read_band_profile(path)
    L = 2.0**12
    assert averaged_bound([back], L) == averaged_bound([prof], L)


def test_band_profile_csv_rejects_other_files(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ShapeError):
        read_band_profile(path)
