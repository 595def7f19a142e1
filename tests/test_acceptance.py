"""Acceptance gate: every shipped guarantee at full size, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines; each test asserts its criterion so the suite fails loudly
if any guarantee regresses.

Every number is pinned as well: ``data/pinned_verify.json`` holds the
sha256 of each full-level criterion's JSON and of the ``verify --level
quick`` stdout, so a change that moves any bit of a reported result fails
here even where the criterion still passes.  Regenerate a digest only for
a change that means to move a result, and say so where the change is
described.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from lipdeg import acceptance
from lipdeg.exterior import jsonable

SRC = Path(__file__).resolve().parents[1] / "src"
PINNED = json.loads((Path(__file__).parent / "data" / "pinned_verify.json").read_text())


def _sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _check(fn):
    result = fn("full", 0)
    tag = "PASS" if result.passed else "FAIL"
    print(f"CRITERION {result.number} {tag}: {result.details['summary']}")
    assert result.passed, result.details
    blob = json.dumps(jsonable(result), sort_keys=True).encode()
    assert _sha256(blob) == PINNED["criteria"][str(result.number)], result.details
    return result


def test_criterion_1_wedge_signature():
    _check(acceptance.criterion_1)


def test_criterion_2_scalability_verdicts():
    _check(acceptance.criterion_2)


def test_criterion_3_selfdual_falsification():
    _check(acceptance.criterion_3)


def test_criterion_4_lp_battery():
    _check(acceptance.criterion_4)


def test_criterion_5_primitive_rate():
    result = _check(acceptance.criterion_5)
    assert abs(result.details["slope"] + 1.0) <= 0.1


def test_criterion_6_sphere_degree():
    result = _check(acceptance.criterion_6)
    assert all(e < 1e-5 for e in result.details["degree_errors"].values())
    assert result.details["ratio_spread"] <= 2.0


def test_criterion_7_recursion_plan():
    result = _check(acceptance.criterion_7)
    assert result.details["warmup_band_factor"] <= 4.0


def test_criterion_8_worst_case_exponents():
    result = _check(acceptance.criterion_8)
    assert abs(result.details["polylog_slope"] + 0.5) <= 0.1
    assert result.details["gap_bound_over_L3.8"] <= 1.0


def test_criterion_9_end_to_end_pipeline():
    result = _check(acceptance.criterion_9)
    assert result.details["closedness"] < 1e-9
    assert result.details["profile_request_error"] < 0.05
    assert all(v < 1.0 for v in result.details["bound_over_L4"].values())


def test_criterion_10_growth_exponents():
    _check(acceptance.criterion_10)


def test_criterion_11_verify_byte_identical():
    # the criterion as stated: two CLI verify runs with one seed must emit
    # byte-identical JSON (quick level keeps the double run tractable)
    cmd = [sys.executable, "-m", "lipdeg.cli", "verify", "--level", "quick"]
    first = subprocess.run(cmd, capture_output=True, timeout=280)
    second = subprocess.run(cmd, capture_output=True, timeout=280)
    assert first.returncode == 0, first.stderr.decode()[-2000:]
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert _sha256(first.stdout) == PINNED["verify_quick"]
    tag = "PASS" if first.stdout == second.stdout else "FAIL"
    print(f"CRITERION 11 {tag}: verify twice -> byte-identical "
          f"({len(first.stdout)} bytes)")


def test_criteria_pass_under_python_O():
    # -O strips every assert, so a guarantee resting on one would go unchecked
    code = (
        "import json, sys\n"
        "from lipdeg import acceptance\n"
        "print(json.dumps([sys.flags.optimize] + [\n"
        "    getattr(acceptance, f'criterion_{n}')('full', 0).passed for n in (1, 3, 7, 8, 10)\n"
        "]))\n"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    res = subprocess.run(
        [sys.executable, "-O", "-c", code], capture_output=True, text=True, env=env, timeout=280
    )
    assert res.returncode == 0, res.stderr[-2000:]
    assert json.loads(res.stdout) == [1, True, True, True, True, True]
