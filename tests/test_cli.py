"""CLI contract: JSON shapes, exit codes, artifacts, determinism."""

import csv
import json
import struct

import pytest

from lipdeg import cli, errors
from lipdeg.bands import zero_form
from lipdeg.cli import main
from lipdeg.gridio import write_gridform


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


def test_missing_input_file_exits_one(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "profile", "--input", str(tmp_path / "missing.gfrm")
    )
    assert code == 1
    assert json.loads(err)["error"] == "FileNotFoundError"


# byte offsets of a NaN written into a GFRM file: the period follows the
# magic and three u32 fields, the first sample follows the period
NAN_AT = {"NAN_PERIOD_GFRM": 16, "NAN_SAMPLE_GFRM": 24}


def _nan_gfrm(tmp_path, offset):
    path = tmp_path / "nan.gfrm"
    write_gridform(path, zero_form(2, 0, 8))
    raw = bytearray(path.read_bytes())
    struct.pack_into("<d", raw, offset, float("nan"))
    path.write_bytes(bytes(raw))
    return str(path)


@pytest.mark.parametrize(
    "argv",
    [
        ["scalable", "--preset", "Xk"],
        ["scalable", "--preset", "CPn"],
        ["scalable", "--preset", "torus"],
        ["scalable", "--preset", "connected-sum", "--p", "2"],
        ["bound", "--scale", "nan"],
        ["bound", "--scale", "inf"],
        ["plan", "--p", "2", "--levels", "2000", "--degree-count", "3"],
        ["synth", "--period", "nan"],
        ["synth", "--mass", "inf"],
        ["profile", "--input", "NAN_PERIOD_GFRM"],
        ["profile", "--input", "NAN_SAMPLE_GFRM"],
        ["bound", "--sweep", "200", "260", "--uniform"],
        ["synth", "--mass", "1e308", "--levels", "3"],
        ["synth", "--levels", "1024"],
        ["synth", "--levels", "1100", "--resolution", "32"],
        ["synth", "--levels", "1000", "--period", "1e-10"],
        ["lp", "--dim", "-1"],
        ["lp", "--degree", "-1"],
        ["lp", "--dim", "4", "--resolution", "256"],
        ["scalable", "--preset", "X3", "--ambient", "60"],
    ],
)
def test_bad_parameters_fail_as_typed_errors(capsys, tmp_path, argv):
    argv = [_nan_gfrm(tmp_path, NAN_AT[a]) if a in NAN_AT else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] in errors.__all__


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


def test_seed_changes_search_but_stays_recorded(capsys):
    doc5 = run_json(
        capsys, "scalable", "--preset", "Xk", "--k", "4",
        "--restarts", "4", "--seed", "5",
    )
    assert doc5["meta"]["seed"] == 5
    assert doc5["search"]["seed"] == 5
