"""Round trips for the binary grid container and the profile CSV."""

import os
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from lipdeg.bands import band_profile, bandlimited_noise_form, synthetic_profile
from lipdeg.degbound import averaged_bound
from lipdeg.errors import DimensionMismatch, ParameterError, ResolutionError, ShapeError
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


def test_gridform_file_is_header_then_payload(tmp_path):
    a = bandlimited_noise_form(3, 1, 8, T=1.5, seed=6)
    path = tmp_path / "a.gfrm"
    write_gridform(path, a)
    header = struct.pack("<4sIIId", b"GFRM", 3, 1, 8, 1.5)
    assert path.read_bytes() == header + a.data.astype("<f8").tobytes()


def test_gridform_payload_size_is_checked_before_reading(tmp_path):
    """A valid header, its 2 MiB payload and 256 MiB of trailing bytes (a
    sparse file) fail typed before the payload is read."""
    path = tmp_path / "long.gfrm"
    path.write_bytes(struct.pack("<4sIIId", b"GFRM", 3, 0, 64, 1.0))
    os.truncate(path, path.stat().st_size + 8 * 64**3 + 2**28)
    tracemalloc.start()
    try:
        with pytest.raises(ShapeError, match="payload"):
            read_gridform(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_gridform_period_is_checked_before_reading(tmp_path):
    """A header whose period fails the grid check, with its full 6 MiB
    payload (a sparse file), fails typed before the payload is read."""
    payload = 8 * 3 * 64**3
    for period in (float("nan"), 0.0, -1.0, 1e-300):
        path = tmp_path / "bad.gfrm"
        path.write_bytes(struct.pack("<4sIIId", b"GFRM", 3, 1, 64, period))
        os.truncate(path, path.stat().st_size + payload)
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match="period"):
                read_gridform(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < payload


def _through_fifo(tmp_path, raw: bytes):
    """read_gridform of a named pipe that another thread fills with raw."""
    fifo = tmp_path / "pipe.gfrm"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "wb") as fh:
            fh.write(raw)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return read_gridform(fifo)
    finally:
        writer.join()


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_gridform_reads_from_a_pipe(tmp_path):
    a = bandlimited_noise_form(2, 1, 8, seed=8)
    path = tmp_path / "a.gfrm"
    write_gridform(path, a)
    raw = path.read_bytes()
    assert np.array_equal(_through_fifo(tmp_path, raw).data, a.data)
    for bad in (raw[:-8], raw + b"\0"):
        (tmp_path / "pipe.gfrm").unlink()
        with pytest.raises(ShapeError, match="payload"):
            _through_fifo(tmp_path, bad)


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
    nan = tmp_path / "nan.gfrm"
    nan.write_bytes(path.read_bytes()[:-8] + struct.pack("<d", float("nan")))
    with pytest.raises(ShapeError, match="non-finite"):
        read_gridform(nan)
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
