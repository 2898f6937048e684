"""Developer tools stay in step with the package they build documents for."""

import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

from gridbed.regmap import render_register_map

ROOT = Path(__file__).resolve().parents[1]


def test_make_fixture_check_scorecard_agrees():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "make_fixture.py"), "--check"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    agree = re.findall(r"^case (\d): .* agree=(\w+)$", proc.stdout, re.MULTILINE)
    assert agree == [(str(case), "True") for case in range(1, 7)]


def test_make_fixture_builds_the_bundled_fixture_byte_for_byte():
    # what `tools/make_fixture.py --write` would write is the committed file
    tool = ROOT / "tools" / "make_fixture.py"
    spec = importlib.util.spec_from_file_location("make_fixture", tool)
    make_fixture = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_fixture)
    bundled = (ROOT / "src" / "gridbed" / "data" / "ieee123.json").read_bytes()
    assert json.dumps(make_fixture.build_doc(), indent=1).encode("utf-8") == bundled


def test_register_map_doc_matches_render(fixture_model, fixture_meter_map):
    committed = (ROOT / "docs" / "register_map.md").read_text(encoding="utf-8")
    assert render_register_map(fixture_meter_map, fixture_model.switch_names) == committed


# tools/state_digest.py over every switch config and load pattern.
STATE_SHA256 = "5dbf6104e6372712c0eff83a6e99e761cd3a92c6c78e2bf9956bff49e1aea68b"


def test_state_digest_prints_one_sha256():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "state_digest.py")],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == STATE_SHA256 + "\n"


def test_state_digest_diff_of_a_dump_against_itself_is_empty(tmp_path):
    dump = tmp_path / "states.npz"
    run = [sys.executable, str(ROOT / "tools" / "state_digest.py")]
    proc = subprocess.run(
        run + ["--dump", str(dump)], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"[0-9a-f]{64}\n", proc.stdout)
    proc = subprocess.run(
        run + ["--diff", str(dump), str(dump)], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (
        "0 of 1792 states differ: 0 in converged, 0 in iterations, 0 in max_mismatch_pu, "
        "0 in voltage bytes only; max |dV| 0\n"
    )


def _dump(path, converged, iterations, voltages, mismatch=(3e-7, 2e-7, 4e-7, 1e-7)):
    """A small state dump in ``state_digest.py --dump``'s layout: two
    switches, four states."""
    np.savez(
        path,
        switch_names=np.array(["S1", "S2"]),
        closed=np.array([[False, False], [True, False], [False, True], [True, True]]),
        pattern=np.array([0, 0, 1, 1]),
        meshed=np.array([False, False, False, True]),
        converged=np.array(converged),
        iterations=np.array(iterations),
        max_mismatch_pu=np.array(mismatch),
        voltages=np.array(voltages, dtype=complex),
    )


def _diff(before, after):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "state_digest.py"), "--diff", str(before), str(after)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_state_digest_diff_lists_each_moved_state_then_a_summary(tmp_path):
    before, after = tmp_path / "before.npz", tmp_path / "after.npz"
    volts = [[1.0, 0.99j], [0.98, 0.97], [1.0, 1.0], [0.96, 0.95]]
    _dump(before, [True, True, True, True], [3, 3, 4, 5], volts)
    moved = [row[:] for row in volts]
    moved[1][0] += 2e-16
    moved[3][1] -= 5e-7
    _dump(after, [True, True, False, True], [3, 3, 4, 6], moved)
    assert _diff(before, after) == [
        "S1 pattern 0 (no loop): converged True -> True, iterations 3 -> 3, "
        "max_mismatch_pu 2e-07 -> 2e-07, max |dV| 2.22e-16",
        "S2 pattern 1 (no loop): converged True -> False, iterations 4 -> 4, "
        "max_mismatch_pu 4e-07 -> 4e-07, max |dV| 0",
        "S1+S2 pattern 1 (meshed): converged True -> True, iterations 5 -> 6, "
        "max_mismatch_pu 1e-07 -> 1e-07, max |dV| 5e-07",
        "3 of 4 states differ: 1 in converged, 1 in iterations, 0 in max_mismatch_pu, "
        "0 in voltage bytes only; max |dV| 5e-07",
    ]


def test_state_digest_diff_lists_a_moved_mismatch_and_a_zero_that_changed_sign(tmp_path):
    # each of these moves the digest while every voltage keeps its value
    before, after = tmp_path / "before.npz", tmp_path / "after.npz"
    volts = [[1.0, 0.0], [0.98, 0.97], [1.0, 0.0], [0.96, 0.95]]
    _dump(before, [True] * 4, [3, 3, 4, 5], volts)
    signed = [row[:] for row in volts]
    signed[2][1] = complex(-0.0, 0.0)
    _dump(after, [True] * 4, [3, 3, 4, 5], signed, mismatch=(3e-7, 2.5e-7, 4e-7, 1e-7))
    assert _diff(before, after) == [
        "S1 pattern 0 (no loop): converged True -> True, iterations 3 -> 3, "
        "max_mismatch_pu 2e-07 -> 2.5e-07, max |dV| 0",
        "S2 pattern 1 (no loop): converged True -> True, iterations 4 -> 4, "
        "max_mismatch_pu 4e-07 -> 4e-07, max |dV| 0 (voltage bytes only)",
        "2 of 4 states differ: 0 in converged, 0 in iterations, 1 in max_mismatch_pu, "
        "1 in voltage bytes only; max |dV| 0",
    ]


# The first line of tools/plan_digest.py: every plan's fields but its search
# log, over both searches, meshing allowed and not, and cases 1-6.
PLAN_HEADS_SHA256 = "61ad440cdf3be6584fbe7b432c8eae7f81999d1d22b5c6c1f66028100be01c3b"
# Its second line: the full texts, search logs included.
PLAN_TEXTS_SHA256 = "53a4cc6b463a0038646bf4cefd2b589f6210b02101d8f4cba947d42f83606de9"


def test_plan_digest_prints_two_sha256_lines():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "plan_digest.py")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert re.fullmatch(r"([0-9a-f]{64}\n){2}", proc.stdout)
    assert proc.stdout.split() == [PLAN_HEADS_SHA256, PLAN_TEXTS_SHA256]
