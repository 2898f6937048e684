"""Console entry points, run in-process (and the server via subprocess)."""

import importlib
import json
import os
import re
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from gridbed import attack, mitigate, scenario
from gridbed.feeder import DEFAULT_FEEDER_RESOURCE, default_feeder_text
from gridbed.modbus import server
from gridbed.modbus.client import ModbusClient

from conftest import BAD_NUMBERS, two_bus_doc


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
        client.write_setpoints(fixture_meter_map, (40,) * len(fixture_meter_map.setpoints))


def test_attack_cli_closed_port_exits_1(capsys):
    with socket.create_server(("127.0.0.1", 0)) as sock:
        port = sock.getsockname()[1]
    assert attack.main(["--server", f"127.0.0.1:{port}", "--mode", "C"]) == 1
    assert capsys.readouterr().out.startswith("error: ")


@pytest.mark.parametrize(
    "main, args",
    [
        (server.main, ["--bind", "{address}", "--feeder", "{feeder}"]),
        (attack.main, ["--server", "{address}", "--mode", "C", "--feeder", "{feeder}"]),
        (mitigate.main, ["--server", "{address}", "--feeder", "{feeder}", "--once"]),
    ],
    ids=["server", "attack", "mitigate"],
)
@pytest.mark.parametrize(
    "address, content",
    [
        ("nohost", None),
        ("127.0.0.1:notaport", None),
        ("foo", None),
        ("127.0.0.1:0", b"missing"),
        ("127.0.0.1:0", b"{not json"),
        ("127.0.0.1:0", b"{}"),
        # a valid feeder without the default setpoint nodes
        ("127.0.0.1:0", json.dumps(two_bus_doc()).encode()),
    ],
    ids=["no-port", "bad-port", "bare-word", "missing-feeder", "bad-json", "bad-feeder",
         "no-setpoint-nodes"],
)
def test_cli_bad_address_or_feeder_exits_1(
    tmp_path, capsys, feeder_file, main, args, address, content
):
    feeder = feeder_file
    if content is not None:
        feeder = tmp_path / "bad.json"
        if content != b"missing":
            feeder.write_bytes(content)
    assert main([arg.format(address=address, feeder=feeder) for arg in args]) == 1
    assert capsys.readouterr().out.startswith("error: ")


def test_server_cli_feeder_without_a_converging_base_exits_1(tmp_path, capsys):
    doc = json.loads(default_feeder_text())
    for bus in doc["buses"]:
        bus["load_kw"] = [kw * 60 for kw in bus["load_kw"]]
    feeder = tmp_path / "heavy.json"
    feeder.write_text(json.dumps(doc))
    assert server.main(["--bind", "127.0.0.1:0", "--feeder", str(feeder)]) == 1
    assert capsys.readouterr().out.startswith("error: base state does not converge")


def from_json(text):
    """Attack parameters from JSON text, as ``gridbed-attack --params`` reads them."""
    return attack.AttackParams.from_doc(json.loads(text))


# Each place in a scenario config that holds a number, as a document holding x.
SCENARIO_NUMBER_PLACES = (
    ("weights.violation", lambda x: {"weights": {"violation": x}}),
    ("weights.cost", lambda x: {"weights": {"cost": x}}),
    ("band low", lambda x: {"band": [x, 1.05]}),
)


@pytest.mark.parametrize(
    "parse, text, key",
    [
        (from_json, '{"n_max": "x"}', "n_max"),
        (from_json, '{"n_max": {"kind": "constant"}}', "value"),
        (from_json, '{"n_max": {"kind": [1]}}', "n_max"),
        (from_json, '{"n_max": {"kind": "linear", "cap": "4"}}', "cap"),
        (from_json, '{"band": 5}', "band"),
        (from_json, '{"band": [1.05, 0.95]}', "band"),
        (from_json, '{"band": [0.9, "1.1"]}', "band"),
        (from_json, '{"band": [0.9, 1.0, 1.1]}', "band"),
        (from_json, '{"alpha_mw": "0.5"}', "alpha_mw"),
        (from_json, '{"max_steps": 2.5}', "max_steps"),
        (from_json, "[1]", "attack parameters"),
        (from_json, '{"gamma_a_mw": -0.5}', "gamma_a_mw"),
        (from_json, '{"gamma_c_mw": 0}', "gamma_c_mw"),
        (from_json, '{"av_max_mw": -1.0}', "av_max_mw"),
        (from_json, '{"n_tar": -3}', "n_tar"),
        (from_json, '{"max_steps": -1}', "max_steps"),
        (from_json, '{"n_max": -1.0}', "n_max value"),
        (from_json, '{"n_max": {"kind": "linear", "cap": -1}}', "n_max cap"),
        (from_json, '{"n_max": {"kind": "linear", "base": -1, "cap": 2}}',
         "n_max base must be positive"),
        (from_json, '{"n_max": {"kind": "linear", "base": NaN}}',
         "n_max base must be a finite number"),
        (from_json, '{"n_max": {"kind": "constant", "value": 0}}',
         "n_max value must be positive"),
        (from_json, '{"n_max": {"kind": "constant", "value": Infinity}}',
         "n_max value must be a finite number"),
        (attack.NMaxRule, "bogus", "n_max rule"),
        (scenario.ScenarioConfig.from_json, '{"weights": 5}', "weights"),
        (scenario.ScenarioConfig.from_json, '{"weights": {"cost": "1"}}', "cost"),
        (scenario.ScenarioConfig.from_json, "[1]", "document"),
        (scenario.ScenarioConfig.from_json, '{"attack_params": [1]}', "attack_params"),
        (scenario.ScenarioConfig.from_json, '{"attack_params": {"band": 5}}', "band"),
        (scenario.ScenarioConfig.from_json, '{"band": [1.1, 0.9]}', "band"),
        (scenario.ScenarioConfig.from_json, '{"allow_meshed": "no"}', "allow_meshed"),
        (scenario.ScenarioConfig.from_json, '{"feeder": 3}', "feeder"),
    ]
    + [
        pytest.param(
            scenario.ScenarioConfig.from_json, json.dumps(doc(bad.values[0])),
            f"{place} must be a finite number", id=f"{place}-{bad.id}",
        )
        for place, doc in SCENARIO_NUMBER_PLACES
        for bad in BAD_NUMBERS
    ],
)
def test_config_errors_name_the_bad_key(parse, text, key):
    with pytest.raises(ValueError, match=key):
        parse(text)


def test_attack_params_reject_inverted_band():
    with pytest.raises(ValueError, match="band"):
        attack.AttackParams(band=(1.05, 0.95))


@pytest.mark.parametrize(
    "content",
    [None, b"{not json", b"\xff\xfe", b'{"alpha": 1}',
     pytest.param(b'{"n_max": %d}' % 10**400, id="n_max-past-float-range")],
)
def test_attack_cli_bad_params_file_exits_1(tmp_path, capsys, content):
    params = tmp_path / "params.json"
    if content is not None:
        params.write_bytes(content)
    rc = attack.main(["--server", "127.0.0.1:1", "--mode", "C", "--params", str(params)])
    assert rc == 1
    assert capsys.readouterr().out.startswith("error: ")


@pytest.mark.parametrize(
    "content",
    [None, b"{not json", b'{"weights": 5}',
     pytest.param(b'{"weights": {"violation": %d}}' % 10**400, id="violation-past-float-range")],
)
def test_scenario_cli_bad_config_file_exits_1(tmp_path, capsys, content):
    config = tmp_path / "config.json"
    if content is not None:
        config.write_bytes(content)
    rc = scenario.main(["--config", str(config), "--case", "1", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().out.startswith("error: ")
    assert not (tmp_path / "summary.csv").exists()


@pytest.mark.parametrize(
    "content", [b'{"weights": {"violation": -5, "cost": NaN}}', b'{"weights": {"cost": -1}}']
)
def test_scenario_cli_bad_weights_exit_1(tmp_path, capsys, content):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    rc = scenario.main(["--config", str(config), "--case", "1", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert re.match(r"error: .*weights\.(violation|cost) must be finite", capsys.readouterr().out)
    assert not (tmp_path / "summary.csv").exists()


def test_scenario_cli_unreadable_feeder_exits_1(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"feeder": str(tmp_path / "missing.json")}))
    rc = scenario.main(["--config", str(config), "--case", "1", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().out.startswith("error: cannot load feeder")
    assert not (tmp_path / "summary.csv").exists()


def test_scenario_cli_feeder_without_the_setpoint_nodes_exits_1(tmp_path, capsys):
    feeder, config = tmp_path / "feeder.json", tmp_path / "config.json"
    feeder.write_text(json.dumps(two_bus_doc()))
    config.write_text(json.dumps({"feeder": str(feeder)}))
    rc = scenario.main(["--config", str(config), "--case", "1", "--out-dir", str(tmp_path)])
    assert rc == 1
    assert capsys.readouterr().out.startswith("error: cannot load feeder")
    assert not (tmp_path / "summary.csv").exists()


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
        client.write_setpoints(fixture_meter_map, (40,) * len(fixture_meter_map.setpoints))


def test_mitigate_cli_negative_interval_exits_1(
    capsys, live_server, feeder_file, fixture_meter_map, fixture_model
):
    # under attack, a loop started with it would toggle S7 and then fail to sleep
    with ModbusClient(*live_server.address) as client:
        client.write_setpoints(fixture_meter_map, scenario.case_vector(fixture_meter_map, 1))
    args = ["--server", _addr(live_server), "--feeder", str(feeder_file), "--allow-meshed"]
    try:
        assert mitigate.main([*args, "--interval", "-1"]) == 1
        assert capsys.readouterr().out.startswith("error: --interval must not be negative")
        with ModbusClient(*live_server.address) as client:
            assert client.read_switches(fixture_model.switch_names)["S7"] is False
    finally:
        with ModbusClient(*live_server.address) as client:
            client.write_switch(fixture_model.switch_names, "S7", False)
            client.write_setpoints(fixture_meter_map, (40,) * len(fixture_meter_map.setpoints))


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
    env = {"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"}
    if "PYTHONDONTWRITEBYTECODE" in os.environ:
        env["PYTHONDONTWRITEBYTECODE"] = os.environ["PYTHONDONTWRITEBYTECODE"]
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "gridbed.modbus.server",
            "--feeder", str(feeder_file),
            "--bind", "127.0.0.1:0",
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
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


def test_pyproject_scripts_import_and_package_data_holds_the_feeder():
    # the tests import gridbed from src/, so check what an install would wire
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parents[1]
    project = tomllib.loads((root / "pyproject.toml").read_text(encoding="utf-8"))
    scripts = project["project"]["scripts"]
    assert sorted(scripts) == [
        "gridbed-attack", "gridbed-mitigate", "gridbed-scenario", "gridbed-server",
    ]
    for target in scripts.values():
        module, _, name = target.partition(":")
        assert callable(getattr(importlib.import_module(module), name)), target
    package_data = project["tool"]["setuptools"]["package-data"]["gridbed"]
    package = root / "src" / "gridbed"
    shipped = {p.relative_to(package).as_posix() for g in package_data for p in package.glob(g)}
    assert f"data/{DEFAULT_FEEDER_RESOURCE}" in shipped  # data/ieee123.json
