"""Developer tools stay in step with the package they build documents for."""

import re
import subprocess
import sys
from pathlib import Path

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


def test_register_map_doc_matches_render(fixture_meter_map):
    committed = (ROOT / "docs" / "register_map.md").read_text(encoding="utf-8")
    assert render_register_map(fixture_meter_map) == committed


# tools/state_digest.py over every switch config and load pattern.
STATE_SHA256 = "28f27356a9a77fa44ad094b559c62936c5704202e61331d4ad69daeff227f8c0"


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
    assert proc.stdout == "0 of 1792 states differ; max |dV| 0\n"


# The first line of tools/plan_digest.py: every plan's fields but its search
# log, over both searches, meshing allowed and not, and cases 1-6.
PLAN_HEADS_SHA256 = "61ad440cdf3be6584fbe7b432c8eae7f81999d1d22b5c6c1f66028100be01c3b"
# Its second line: the full texts, search logs included.
PLAN_TEXTS_SHA256 = "7b44146c772206dfaafdbe5a95672842f6094b80fc84a50e434087ce620d53f0"


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
