"""CLI contract: JSON shapes, exit codes, artifacts, determinism.

Every byte is pinned as well: ``data/pinned_cli.json`` holds, for each
command line of ``PINNED_CALLS``, the sha256 of its stdout, its stderr, its
exit code and every file it writes under ``--out`` (see ``cli_digests``).
Regenerate it, with ``json.dumps(cli_digests(), indent=1, sort_keys=True)``
run from an empty working directory, only for a change that means to move
an output, and say so where the change is described.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lipdeg import cli, errors
from lipdeg.bands import bandlimited_noise_form, zero_form
from lipdeg.construct import recursion_plan
from lipdeg.cli import main
from lipdeg.gridio import write_gridform
from test_hygiene import CLI_CALLS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_scalable_x3_verdict(capsys):
    doc = run_json(capsys, "scalable", "--preset", "Xk", "--k", "3")
    assert doc["verdict"]["status"] == "scalable"
    assert doc["search"]["defect"] < 1e-6
    assert doc["meta"] == {
        "subcommand": "scalable",
        "seed": 0,
        "tol": 1e-9,
    }


def test_scalable_x4_verdict(capsys):
    doc = run_json(capsys, "scalable", "--preset", "Xk", "--k", "4", "--restarts", "8")
    assert doc["verdict"]["status"] == "not_scalable"
    assert doc["search"]["defect"] > 1e-2
    assert doc["search"]["seed"] == 0


def test_scalable_cp2_verdict(capsys):
    doc = run_json(capsys, "scalable", "--preset", "CP2")
    assert doc["verdict"]["status"] == "scalable"
    assert doc["verdict"]["defect"] < 1e-6


@pytest.mark.parametrize("preset", ["torus(3)", "CP3"])
def test_scalable_beyond_four_manifolds(capsys, preset):
    """A 6-manifold preset has no middle-degree form to decide exactly: the
    verdict is evidence only, and the search still runs."""
    doc = run_json(capsys, "scalable", "--preset", preset, "--ambient", "6", "--restarts", "1")
    assert doc["verdict"]["status"] == "evidence_only"
    assert "middle degree" in doc["verdict"]["notes"]
    assert doc["search"]["summand_dim"] == 6


def test_scalable_numeric_preset_name(capsys):
    doc = run_json(capsys, "scalable", "--preset", "X2")
    assert doc["verdict"]["status"] == "scalable"


def test_unknown_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nosuchcmd"])
    assert exc.value.code == 2


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["scalable"])  # --preset is required
    assert exc.value.code == 2


def test_domain_error_exits_one_with_json_stderr(capsys):
    code, out, err = run_cli(capsys, "scalable", "--preset", "nosuch")
    assert code == 1
    assert out == ""
    doc = json.loads(err)
    assert doc["error"] == "PresetLookupError"


def test_preset_with_trailing_newline_exits_one(capsys):
    code, out, err = run_cli(capsys, "scalable", "--preset", "X3\n", "--restarts", "1")
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "PresetLookupError"


@pytest.mark.parametrize("name", ["X\u0663", "CP\uff12", "torus(\u0663)", "connected-sum(1,\n2)"])
def test_preset_with_non_ascii_digit_or_newline_exits_one(capsys, name):
    code, out, err = run_cli(capsys, "scalable", "--preset", name, "--restarts", "1")
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "PresetLookupError"


def test_missing_input_file_exits_one(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "profile", "--input", str(tmp_path / "missing.gfrm")
    )
    assert code == 1
    assert json.loads(err)["error"] == "FileNotFoundError"


# byte offsets of a NaN written into a zero 2D GFRM file (None: no NaN):
# the period follows the magic and three u32 fields, the first sample
# follows the period
NAN_AT = {"NAN_PERIOD_GFRM": 16, "NAN_SAMPLE_GFRM": 24, "ZERO_GFRM": None}


def _nan_gfrm(tmp_path, offset):
    path = tmp_path / "nan.gfrm"
    write_gridform(path, zero_form(2, 0, 8))
    if offset is not None:
        raw = bytearray(path.read_bytes())
        struct.pack_into("<d", raw, offset, float("nan"))
        path.write_bytes(bytes(raw))
    return str(path)


# (argv, the error class it fails with), with ids argv0, argv1, ...
TYPED_ERRORS = [
    (["scalable", "--preset", "Xk"], "ParameterError"),
    (["scalable", "--preset", "CPn"], "ParameterError"),
    (["scalable", "--preset", "torus"], "ParameterError"),
    (["scalable", "--preset", "connected-sum", "--p", "2"], "ParameterError"),
    (["bound", "--scale", "nan"], "ParameterError"),
    (["bound", "--scale", "inf"], "ParameterError"),
    (["plan", "--p", "2", "--levels", "2000", "--degree-count", "3"], "ParameterError"),
    (["synth", "--period", "nan"], "ParameterError"),
    (["synth", "--mass", "inf"], "ParameterError"),
    (["profile", "--input", "NAN_PERIOD_GFRM"], "ParameterError"),
    (["profile", "--input", "NAN_SAMPLE_GFRM"], "ShapeError"),
    (["bound", "--sweep", "200", "260", "--uniform"], "ParameterError"),
    (["synth", "--mass", "1e308", "--levels", "3"], "ParameterError"),
    (["synth", "--levels", "1024"], "ParameterError"),
    (["synth", "--levels", "1100", "--resolution", "32"], "ParameterError"),
    (["synth", "--levels", "1000", "--period", "1e-10"], "ParameterError"),
    (["lp", "--dim", "-1"], "DimensionMismatch"),
    (["lp", "--degree", "-1"], "ShapeError"),
    (["lp", "--dim", "4", "--resolution", "256"], "ResolutionError"),
    (["scalable", "--preset", "X3", "--ambient", "60"], "ParameterError"),
    # 2^-2000 is 0.0: the scale check comes before any log
    (["bound", "--sweep", "-2000", "-1999", "--gap", "0.3", "0.6"], "ParameterError"),
    (["bound", "--sweep", "-2000", "-1999", "--gridform", "ZERO_GFRM"], "ParameterError"),
    (["scalable", "--preset", "Xk", "--k", "3", "--restarts", "0"], "ParameterError"),
    (["scalable", "--preset", "Xk", "--k", "3", "--max-iters", "0"], "ParameterError"),
    (["scalable", "--preset", "torus(0)"], "ParameterError"),
    (["scalable", "--preset", "Xk", "--k", "0"], "ParameterError"),
    (["scalable", "--preset", "CPn", "--n", "0"], "ParameterError"),
    (["scalable", "--preset", "connected-sum(0,0)"], "EmptyData"),
    (["bound", "--sweep", "255", "300", "--gap", "0.3", "0.6"], "ParameterError"),
]


@pytest.mark.parametrize(
    "argv,error", TYPED_ERRORS, ids=[f"argv{i}" for i in range(len(TYPED_ERRORS))]
)
def test_bad_parameters_fail_as_typed_errors(capsys, tmp_path, argv, error):
    argv = [_nan_gfrm(tmp_path, NAN_AT[a]) if a in NAN_AT else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == error


def test_window_above_the_top_band_advises_lowering_l(capsys, tmp_path):
    """A cutoff window above the profile's top band (3 on the 8^2 grid)
    moves further up as L grows, so the refusal advises lowering L."""
    argv = ["bound", "--sweep", "250", "251", "--gridform", _nan_gfrm(tmp_path, None)]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    (line,) = err.splitlines()
    assert json.loads(line)["error"] == "WindowError"
    assert "lower L: the top band is 3" in json.loads(line)["message"]


def _gfrm_bytes(magic, d, p, N, T, samples) -> bytes:
    """A GFRM container: header, then the samples as little-endian f64."""
    return struct.pack("<4sIIId", magic, d, p, N, T) + np.asarray(samples, "<f8").tobytes()


# zero 0-forms whose period puts a scale of the grid outside float64:
# (dimension, resolution, period)
EXTREME_GFRM = {
    "1D_5e-324": (1, 4, 5e-324),
    "1D_1e-310": (1, 4, 1e-310),
    "1D_1e-300": (1, 4, 1e-300),
    "4D_1e100": (4, 4, 1e100),
}


@pytest.mark.parametrize(
    "argv",
    [
        ["profile", "--input", "1D_5e-324"],
        ["bound", "--gridform", "1D_5e-324", "--sweep", "4", "5"],
        ["profile", "--input", "1D_1e-310"],
        ["bound", "--gridform", "1D_1e-310", "--sweep", "4", "5"],
        ["profile", "--input", "1D_1e-300"],
        ["profile", "--input", "4D_1e100"],
        ["synth", "--period", "1e80", "--levels", "0", "--resolution", "8"],
        ["synth", "--period", "1e-300", "--levels", "0", "--resolution", "8"],
    ],
)
def test_extreme_period_is_a_parameter_error(capsys, tmp_path, argv):
    path = tmp_path / "form.gfrm"
    for name in EXTREME_GFRM.keys() & set(argv):
        d, N, T = EXTREME_GFRM[name]
        path.write_bytes(_gfrm_bytes(b"GFRM", d, 0, N, T, np.zeros(N**d)))
    argv = [str(path) if a in EXTREME_GFRM else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "ParameterError"
    assert "period" in doc["message"]


def test_overflow_leaves_one_json_line_on_stderr(tmp_path):
    """A profile whose norms overflow fails typed, and numpy's overflow
    warnings stay off stderr; a subprocess, since pytest captures warnings."""
    path = tmp_path / "big.gfrm"
    path.write_bytes(_gfrm_bytes(b"GFRM", 2, 0, 8, 1.0, np.full(64, 1e300)))
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run(
        [sys.executable, "-m", "lipdeg.cli", "profile", "--input", str(path)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert (res.returncode, res.stdout) == (1, "")
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ParameterError"


def test_out_of_memory_leaves_one_json_line_on_stderr():
    """An allocation past the process's address-space limit fails typed:
    the child alone runs under a 512 MiB RLIMIT_AS, and the 1 GiB noise
    form of the 512^3 grid is its first large array."""
    import resource

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (512 * 2**20, 512 * 2**20))

    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    res = subprocess.run(
        [sys.executable, "-m", "lipdeg.cli", "lp", "--dim", "3", "--resolution", "512"],
        capture_output=True, text=True, env=env, timeout=120, preexec_fn=cap,
    )
    assert (res.returncode, res.stdout) == (1, "")
    lines = res.stderr.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "OutOfMemory"
    assert "allocate" in doc["message"]


# GFRM resolutions: powers of two, twice as often as small non-powers
GFRM_N = st.one_of(
    st.sampled_from([4, 8, 16]), st.sampled_from([4, 8]), st.sampled_from([0, 1, 2, 3, 5, 6, 12])
)
GFRM_PERIOD = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [float("nan"), float("inf"), -float("inf"), 5e-324, 1e-310, 1e-300, 1e100, 0.5, 1.0, 2.5]
)
# samples per container, so no example reads or transforms a large grid
GFRM_MAX_SAMPLES = 4096


@st.composite
def gfrm_files(draw):
    # each field leans to a valid value, so that some containers reach the
    # band code with a drawn period
    magic = draw(st.sampled_from([b"GFRM"] * 6 + [b"GFRX", b"\0\0\0\0"]))
    d = draw(st.integers(1, 3) | st.integers(0, 6))
    p, N = draw(st.integers(0, d) | st.integers(0, 7)), draw(GFRM_N)
    count = math.comb(d, p) * N**d
    payload = draw(st.sampled_from(["exact"] * 6 + ["short", "long", "header", "cut"]))
    n = {"exact": count, "short": count - 1, "long": count + 1}.get(payload, 0)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = draw(st.sampled_from([1.0, 1e-300, 1e150, 1e300]))
    samples = scale * rng.standard_normal(min(max(n, 0), GFRM_MAX_SAMPLES))
    if samples.size and draw(st.integers(0, 5)) == 0:
        samples[draw(st.integers(0, samples.size - 1))] = float("nan")
    raw = _gfrm_bytes(magic, d, p, N, draw(GFRM_PERIOD), samples)
    return raw[: draw(st.integers(0, 27))] if payload == "cut" else raw


@settings(max_examples=300, derandomize=True, deadline=None)
@given(raw=gfrm_files())
def test_gfrm_bytes_exit_zero_or_with_a_typed_error(tmp_path_factory, raw):
    path = tmp_path_factory.mktemp("gfrm") / "form.gfrm"
    path.write_bytes(raw)
    for argv in (
        ["profile", "--input", str(path)],
        ["bound", "--gridform", str(path), "--sweep", "4", "5"],
    ):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if code == 0:
            json.loads(out.getvalue())
            continue
        assert code == 1 and out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["error"] in errors.__all__


@pytest.mark.parametrize(
    "argv",
    [
        ["scalable", "--preset", "X3", "--tol", "nan"],
        ["exponent", "--tol", "nan"],
        ["exponent", "--tol", "inf"],
    ],
)
def test_non_finite_tolerance_is_a_parameter_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    doc = json.loads(err)
    assert doc["error"] == "ParameterError"
    assert "tolerance" in doc["message"]


@pytest.mark.parametrize(
    "argv",
    [
        ["scalable", "--preset", "X3", "--seed", "-1"],
        ["synth", "--seed", "-1"],
        ["verify", "--level", "quick", "--seed", "-1"],
    ],
)
def test_negative_seed_is_a_parameter_error(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    doc = json.loads(lines[0])
    assert doc["error"] == "ParameterError"
    assert "seed" in doc["message"]


SCALABLE_PRESETS = (
    ["X1"], ["Xk", "--k", "4"], ["CP2"], ["CPn", "--n", "3"], ["S2xS2"],
    ["connected-sum(2,1)"], ["torus(3)"], ["torus(4)"],
)


# ambient dimensions up to 8 keep every preset here within the Jacobian cap;
# the small seeds make negative ones common
@settings(max_examples=40, derandomize=True, deadline=None)
@given(
    preset=st.sampled_from(SCALABLE_PRESETS),
    ambient=st.lists(st.integers(3, 8), min_size=1, max_size=3),
    restarts=st.integers(1, 2),
    max_iters=st.integers(1, 5),
    seed=st.integers(-3, 3) | st.integers(-3, 2**32 + 3),
)
def test_scalable_exits_zero_or_with_a_typed_error(preset, ambient, restarts, max_iters, seed):
    argv = ["scalable", "--preset", *preset, "--ambient", *map(str, ambient)]
    argv += ["--restarts", str(restarts), "--max-iters", str(max_iters), "--seed", str(seed)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        assert json.loads(out.getvalue())["meta"]["seed"] == seed
        assert seed >= 0
        return
    assert code == 1 and out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] in errors.__all__
    if seed < 0:
        assert json.loads(lines[0])["error"] == "ParameterError"


# levels run past the float64 guard, which at p = 2 sits between 985 and
# 1000 levels for every degree count here; a non-integer token in place of
# one number is a usage error
@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    p=st.integers(2, 3) | st.integers(2, 2**24) | st.integers(-1, 1),
    levels=st.integers(1, 40) | st.integers(985, 1005) | st.integers(-1, 1100),
    degree_count=st.integers(1, 6) | st.integers(-1, 0),
    geometry=st.sampled_from(["unit", "measured"]),
    seed=st.integers(-1, 6),
    garbled=st.sampled_from([None] * 9 + ["--p", "--levels", "--degree-count"]),
)
def test_plan_exits_zero_or_with_a_typed_error(p, levels, degree_count, geometry, seed, garbled):
    argv = ["plan", "--p", str(p), "--levels", str(levels), "--degree-count", str(degree_count)]
    argv += ["--geometry", geometry, "--seed", str(seed)]
    if garbled is not None:
        argv[argv.index(garbled) + 1] = "1.5"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    if code == 2:
        assert garbled is not None and out.getvalue() == ""
        return
    if code == 0:
        assert json.loads(out.getvalue())["plan"]["levels"] == levels
        return
    assert code == 1 and out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] in errors.__all__


def _typed_run(argv: list, out_dir) -> None:
    """Run argv, with ``--out out_dir`` unless out_dir is None, and check the
    exit contract: 0, 1 with empty stdout and one JSON line naming a
    LipdegError on stderr, or 2; on 0 every listed artifact exists."""
    if out_dir is not None:
        argv = argv + ["--out", str(out_dir)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), argv
    if code == 0:
        doc = json.loads(out.getvalue())
        assert doc["meta"]["subcommand"] == argv[0]
        assert all(Path(path).is_file() for path in doc.get("artifacts", []))
        return
    assert out.getvalue() == ""
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1, argv
        assert json.loads(lines[0])["error"] in errors.__all__, argv


def _maybe_out(tmp_path_factory, use: bool):
    return tmp_path_factory.mktemp("out") / "artifacts" if use else None


# float tokens, two thirds of them usable values; "-inf" reads as an
# unknown flag, a usage error
FLOAT_TOKENS = st.one_of(
    st.sampled_from(["1", "0.5", "2.5", "0.3"]),
    st.sampled_from(["1", "0.5", "2.5", "0.3"]),
    st.sampled_from(["0", "-1", "1e-300", "5e-324", "1e300", "nan", "inf", "-inf"]),
)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    dim=st.integers(1, 3) | st.integers(-1, 3),
    degree=st.integers(0, 3) | st.integers(-1, 4),
    resolution=st.sampled_from([4, 8, 16]) | st.integers(-1, 16),
    seed=st.integers(-1, 6),
    out=st.booleans(),
)
def test_lp_exits_zero_or_with_a_typed_error(tmp_path_factory, dim, degree, resolution, seed, out):
    argv = ["lp", "--dim", str(dim), "--degree", str(degree), "--resolution", str(resolution)]
    _typed_run(argv + ["--seed", str(seed)], _maybe_out(tmp_path_factory, out))


# sweeps stay a few scales long; the bad ones reach the scale guards at
# 4, 2^256 and the 1024 exponent
@settings(max_examples=100, derandomize=True, deadline=None)
@given(
    scale=st.sampled_from(["1024", "16", "1048576"])
    | st.sampled_from([None, "2", "0.5", "3", "0", "-2", "1e308", "inf", "nan"]),
    sweep=st.none()
    | st.tuples(st.integers(2, 30), st.integers(1, 4))
    | st.tuples(st.sampled_from([-3, 0, 1, 254, 255, 1023, 1024]), st.integers(-1, 4)),
    kind=st.sampled_from([[], ["--uniform"], ["--gap"]]),
    gap=st.tuples(st.sampled_from(["0.3", "0.6", "0.1"]), st.sampled_from(["0.6", "0.9"]))
    | st.tuples(FLOAT_TOKENS, FLOAT_TOKENS),
    window=st.none() | st.tuples(st.sampled_from(["0.1", "0.3"]), st.sampled_from(["0.5", "0.9"]))
    | st.tuples(FLOAT_TOKENS, FLOAT_TOKENS),
    tail=st.sampled_from(["auto", "hold", "zero"]),
    out=st.booleans(),
)
def test_bound_exits_zero_or_with_a_typed_error(
    tmp_path_factory, scale, sweep, kind, gap, window, tail, out
):
    argv = ["bound", "--tail", tail]
    if scale is not None:
        argv += ["--scale", scale]
    if sweep is not None:
        argv += ["--sweep", str(sweep[0]), str(sweep[0] + sweep[1])]
    argv += [*kind, *gap] if kind == ["--gap"] else kind
    if window is not None:
        argv += ["--window", *window]
    _typed_run(argv, _maybe_out(tmp_path_factory, out))


# levels reach past the float64 guard, which sits near 1000 levels at p = 2
@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    p=st.integers(2, 5) | st.integers(-1, 10**6),
    levels=st.integers(0, 4) | st.integers(-1, 1100),
    mass=FLOAT_TOKENS,
    resolution=st.none() | st.sampled_from([4, 8, 16]) | st.integers(-1, 16),
    period=FLOAT_TOKENS,
    seed=st.integers(-1, 6),
    out=st.booleans(),
)
def test_synth_exits_zero_or_with_a_typed_error(
    tmp_path_factory, p, levels, mass, resolution, period, seed, out
):
    argv = ["synth", "--p", str(p), "--levels", str(levels), "--mass", mass]
    argv += ["--period", period, "--seed", str(seed)]
    if resolution is not None:
        argv += ["--resolution", str(resolution)]
    _typed_run(argv, _maybe_out(tmp_path_factory, out))


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    preset=st.sampled_from(["s3-bundle", "sphere"])
    | st.sampled_from(["s3-bundle\n", "S3-bundle", "", "nope"]),
    t=st.integers(-3, 5) | st.integers(-(2**80), 2**80),
    out=st.booleans(),
)
def test_exponent_exits_zero_or_with_a_typed_error(tmp_path_factory, preset, t, out):
    _typed_run(["exponent", "--preset", preset, "--t", str(t)], _maybe_out(tmp_path_factory, out))


def test_non_finite_result_fails_as_typed_error(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_cmd_plan", lambda args: ({"bound": float("nan")}, 0))
    code, out, err = run_cli(capsys, "plan")
    assert code == 1
    assert out == ""
    assert json.loads(err)["error"] == "ParameterError"


def test_bound_profile_flags_are_exclusive(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bound", "--scale", "1048576", "--uniform", "--gap", "0.3", "0.6"])
    assert exc.value.code == 2


def test_bound_requires_scale_or_sweep(capsys):
    code, out, err = run_cli(capsys, "bound", "--uniform")
    assert code == 1
    assert json.loads(err)["error"] == "ParameterError"


def test_bound_rejects_non_power_of_two_scale(capsys):
    code, out, err = run_cli(capsys, "bound", "--scale", "1000")
    assert code == 1


def test_bound_single_scale_report(capsys):
    doc = run_json(capsys, "bound", "--scale", "1024", "--uniform")
    rep = doc["report"]
    assert rep["scale"] == 1024.0
    assert rep["final_bound"] <= rep["averaged"]
    assert doc["sweep"][0]["final_bound"] == rep["final_bound"]


def test_bound_sweep_csv_and_fit(capsys, tmp_path):
    doc = run_json(
        capsys,
        "bound", "--sweep", "10", "16", "--uniform", "--out", str(tmp_path),
    )
    assert len(doc["sweep"]) == 7
    assert -0.8 < doc["fitted_polylog_exponent"] < -0.3
    with open(tmp_path / "bound_sweep.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["log2_L", "final_bound", "averaged", "averaged_cross", "seed"]
    assert len(rows) == 8
    assert [r[0] for r in rows[1:]] == [str(e) for e in range(10, 17)]


def test_bound_gap_profile(capsys):
    doc = run_json(capsys, "bound", "--scale", "1048576", "--gap", "0.3", "0.6")
    assert doc["report"]["final_bound"] <= (2.0**20) ** 3.8


@pytest.mark.parametrize("degree", [0, 1])
def test_lp_battery_on_the_smallest_grid(capsys, degree):
    doc = run_json(capsys, "lp", "--dim", "2", "--degree", str(degree), "--resolution", "4")
    assert doc["resolution"] == 4
    assert doc["reconstruction_error"] < 1e-12
    assert doc["commutator_error"] < 1e-12


def test_lp_below_the_smallest_grid_is_a_resolution_error(capsys):
    code, out, err = run_cli(capsys, "lp", "--dim", "2", "--resolution", "2")
    assert (code, out) == (1, "")
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "ResolutionError"


def test_lp_battery_json(capsys):
    doc = run_json(capsys, "lp", "--dim", "2", "--resolution", "32")
    assert doc["reconstruction_error"] < 1e-10
    assert doc["commutator_error"] < 1e-10
    assert 0.1 <= doc["orthogonality_ratio"] <= 1.0
    assert doc["bands"] == [0, 1, 2, 3, 4, 5]


def test_plan_json_and_csv(capsys, tmp_path):
    doc = run_json(
        capsys,
        "plan", "--p", "2", "--levels", "12", "--degree-count", "2",
        "--out", str(tmp_path),
    )
    plan = doc["plan"]
    assert plan["p"] == 2 and plan["levels"] == 12
    assert len(plan["bounds_by_level"]) == 13
    with open(tmp_path / "plan_levels.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["level", "bound", "normalized", "seed"]
    assert len(rows) == 13
    # normalized column is bound / (level * 2^level), within a small band
    normalized = [float(r[2]) for r in rows[1:]]
    assert max(normalized) / min(normalized) <= 4.0
    plan = recursion_plan(2, 12, 2)
    assert [r[2] for r in rows[1:]] == [repr(x) for x in plan.normalized_bounds]


# per subcommand: argv with "{grid}" for a stored form, and the files that
# --out receives, in order
ARTIFACT_CALLS = {
    "lp": (["lp", "--dim", "2", "--degree", "1", "--resolution", "16"], ["lp_bands.csv"]),
    "bound": (["bound", "--sweep", "4", "6", "--uniform"], ["bound_sweep.csv"]),
    "profile": (["profile", "--input", "{grid}"], ["profile.csv"]),
    "plan": (["plan", "--levels", "5"], ["plan_levels.csv"]),
    "synth": (["synth", "--levels", "2", "--resolution", "16"], ["profile.csv", "ensemble.gfrm"]),
    "synth-profile-only": (["synth", "--levels", "5"], ["profile.csv"]),
}


@pytest.mark.parametrize("name", list(ARTIFACT_CALLS))
def test_artifacts_list_exactly_the_files_written(capsys, tmp_path, name):
    argv, files = ARTIFACT_CALLS[name]
    grid = tmp_path / "form.gfrm"
    write_gridform(grid, bandlimited_noise_form(2, 1, 16, radius=5.0))
    argv = [a.format(grid=grid) for a in argv]
    out = tmp_path / "out"
    assert run_json(capsys, *argv)["artifacts"] == []
    assert not out.exists()
    doc = run_json(capsys, *argv, "--out", str(out))
    assert doc["artifacts"] == [str(out / f) for f in files]
    assert sorted(p.name for p in out.iterdir()) == sorted(files)


def test_synth_profile_round_trip(capsys, tmp_path):
    doc = run_json(
        capsys,
        "synth", "--levels", "3", "--resolution", "32", "--out", str(tmp_path),
    )
    assert doc["closedness"] < 1e-9
    grid = tmp_path / "ensemble.gfrm"
    assert str(grid) in doc["artifacts"]
    prof_doc = run_json(capsys, "profile", "--input", str(grid))
    measured = {k: v for k, v in prof_doc["l1"].items() if v > 1e-12}
    requested = doc["ensemble"]["requested"]
    for band, mass in requested.items():
        assert measured[band] == pytest.approx(mass, rel=0.05)


def test_synth_without_resolution_is_synthetic_only(capsys):
    doc = run_json(capsys, "synth", "--levels", "6")
    assert "closedness" not in doc
    assert doc["ensemble"]["requested"]


def test_exponent_rationals(capsys):
    doc = run_json(capsys, "exponent", "--preset", "s3-bundle")
    assert doc["exponent"]["degree_exponent_rational"] == "20/3"
    assert doc["weights"]["alpha"] == "3/5"
    assert doc["weights"]["multiplicity"] == 1


def test_output_is_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "bound", "--sweep", "10", "14", "--uniform")
    _, out2, _ = run_cli(capsys, "bound", "--sweep", "10", "14", "--uniform")
    assert out1 == out2
    _, out3, _ = run_cli(capsys, "lp", "--dim", "2", "--resolution", "32")
    _, out4, _ = run_cli(capsys, "lp", "--dim", "2", "--resolution", "32")
    assert out3 == out4


# the traced session's command lines, plus a 2^20-point grid
PINNED_CALLS = CLI_CALLS + (["lp", "--dim", "4", "--resolution", "32", "--degree", "2"],)
PINNED_CLI = json.loads((Path(__file__).parent / "data" / "pinned_cli.json").read_text())


def cli_digests() -> dict:
    """Run ``PINNED_CALLS`` in order through ``cli.main`` in the working
    directory, with ``{tmp}`` as ``out``, and return {argv: {"stdout",
    "stderr", "exit", "files": {path: digest}}}, every value a sha256."""

    def sha(blob: bytes) -> str:
        return hashlib.sha256(blob).hexdigest()

    digests = {}
    for argv in PINNED_CALLS:
        argv = [a.format(tmp="out") for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        written = json.loads(out.getvalue()).get("artifacts", []) if code == 0 else []
        digests[" ".join(argv)] = {
            "stdout": sha(out.getvalue().encode()),
            "stderr": sha(err.getvalue().encode()),
            "exit": sha(str(code).encode()),
            "files": {path: sha(Path(path).read_bytes()) for path in written},
        }
    return digests


def test_cli_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert cli_digests() == PINNED_CLI


def test_seed_changes_search_but_stays_recorded(capsys):
    doc5 = run_json(
        capsys, "scalable", "--preset", "Xk", "--k", "4",
        "--restarts", "4", "--seed", "5",
    )
    assert doc5["meta"]["seed"] == 5
    assert doc5["search"]["seed"] == 5
