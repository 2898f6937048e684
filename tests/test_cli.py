"""Console entry points, run in-process (and the server via subprocess)."""

import json
import re
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gridbed import attack, mitigate, scenario
from gridbed.feeder import default_feeder_text
from gridbed.modbus.client import ModbusClient


@pytest.fixture()
def feeder_file(tmp_path):
    path = tmp_path / "feeder.json"
    path.write_text(default_feeder_text())
    return path


def _addr(server):
    return f"{server.address[0]}:{server.address[1]}"


def test_attack_cli_writes_trace(tmp_path, live_server, fixture_meter_map):
    params = tmp_path / "params.json"
    params.write_text(json.dumps({"n_tar": 1, "av_max_mw": 2.0, "max_steps": 3}))
    trace = tmp_path / "trace.csv"
    rc = attack.main(
        [
            "--server", _addr(live_server),
            "--mode", "C",
            "--params", str(params),
            "--trace-out", str(trace),
        ]
    )
    assert rc == 0
    header = trace.read_text().splitlines()[0]
    assert header.startswith("step,N102,N103,N104,N106,N107,N99,N109,N111,N114")
    # put the shared server back to baseline
    with ModbusClient(*live_server.address) as client:
        client.write_setpoints(fixture_meter_map, {n: 40 for n, _ in fixture_meter_map.setpoints})


def test_mitigate_cli_once(tmp_path, live_server, feeder_file, fixture_meter_map, fixture_model):
    with ModbusClient(*live_server.address) as client:
        client.write_setpoints(
            fixture_meter_map, scenario.case_vector(fixture_meter_map, 1)
        )
    plan_out = tmp_path / "plan.json"
    rc = mitigate.main(
        [
            "--server", _addr(live_server),
            "--feeder", str(feeder_file),
            "--once",
            "--allow-meshed",
            "--plan-out", str(plan_out),
        ]
    )
    assert rc == 0
    plan = json.loads(plan_out.read_text())
    assert plan["toggles"] == ["S7"]
    with ModbusClient(*live_server.address) as client:
        client.write_switch(fixture_model.switch_names, "S7", False)
        client.write_setpoints(fixture_meter_map, {n: 40 for n, _ in fixture_meter_map.setpoints})


def test_scenario_cli_single_case(tmp_path):
    out = tmp_path / "report"
    rc = scenario.main(["--case", "2", "--replay", "--out-dir", str(out)])
    assert rc == 0
    assert (out / "summary.csv").exists()
    assert (out / "voltage_case2_post.csv").exists()


def test_scenario_cli_rejects_case_and_all():
    with pytest.raises(SystemExit):
        scenario.main(["--case", "1", "--all", "--out-dir", "x"])


def test_server_cli_subprocess(tmp_path, feeder_file):
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "gridbed.modbus.server",
            "--feeder", str(feeder_file),
            "--bind", "127.0.0.1:0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    try:
        match = None
        deadline = time.time() + 20
        while time.time() < deadline and match is None:
            line = proc.stdout.readline()
            match = re.search(r"on ([\d.]+):(\d+)", line)
        assert match, "no bind line from server CLI"
        host, port = match.group(1), int(match.group(2))
        with ModbusClient(host, port, timeout=5.0) as client:
            words = client.read_holding(1, 10)
        assert len(words) == 10 and all(0 < w < 11000 for w in words)
    finally:
        proc.terminate()
        proc.wait(timeout=10)
        proc.stdout.close()
