"""Scenario runner: end-to-end cases over real sockets, reports on disk."""

import csv
import dataclasses
import hashlib
import json

import pytest

from gridbed import scenario
from gridbed.feeder import default_feeder_text
from gridbed.mitigate import Weights
from gridbed.regmap import MeterMap
from gridbed.scenario import (
    CASE_PATTERNS,
    ScenarioConfig,
    case_vector,
    emit_report,
    run_case,
    run_scenario,
)


def test_case_vector_patterns(fixture_meter_map):
    v1 = case_vector(fixture_meter_map, 1)
    # N102, N103, N104 (C), N106, N107, N99 (B), N109, N111, N114 (A)
    assert v1 == (80, 80, 80, 1, 1, 1, 1, 1, 1)
    assert case_vector(fixture_meter_map, 6) == (1, 1, 1, 1, 1, 1, 160, 160, 160)


def test_replay_case_one_end_to_end():
    result = run_case(ScenarioConfig(), 1)
    assert result.status == "ok"
    assert result.violations_baseline == 0
    assert result.violations_pre > 0
    assert result.unbalance_pre_pct < 3.0
    assert set(result.toggles) <= {"S7"}
    assert result.violations_post == 0
    assert len(result.profile_pre) == 206
    assert result.max_read_error_pu <= 5e-5


def test_live_case_three_end_to_end():
    from gridbed.attack import AttackParams

    config = ScenarioConfig()
    config.attack_params = AttackParams(n_tar=2, av_max_mw=50.0, max_steps=40)
    result = run_case(config, 3, live=True)
    assert result.status == "ok"
    assert result.attack_status == "target-reached"
    assert result.violations_pre > 0
    assert result.violations_post == 0


def test_a_repeated_case_reuses_the_shared_model():
    config = ScenarioConfig()
    first = run_case(config, 6)
    topologies = config.load_model()._topologies
    before = topologies.cache_info()
    second = run_case(config, 6)
    after = topologies.cache_info()
    # the second case walks nothing: every topology it meets is a hit
    assert after.misses == before.misses and after.hits > before.hits
    assert dataclasses.replace(second, wall_ms=first.wall_ms) == first


@pytest.fixture()
def counted_feeder_loads(tmp_path, monkeypatch):
    """A feeder file, and the list of paths ``scenario`` parses from then on."""
    path = tmp_path / "feeder.json"
    path.write_text(default_feeder_text())
    parsed = []
    load = scenario.load_feeder_file

    def counting_load(path):
        parsed.append(path)
        return load(path)

    monkeypatch.setattr(scenario, "load_feeder_file", counting_load)
    return path, parsed


def test_a_feeder_file_is_parsed_once_per_run(counted_feeder_loads):
    path, parsed = counted_feeder_loads
    report = run_scenario(ScenarioConfig(feeder=str(path)), sorted(CASE_PATTERNS))
    assert report.ok
    assert parsed == [str(path)]


def test_the_scenario_cli_parses_a_feeder_file_once(counted_feeder_loads, tmp_path):
    path, parsed = counted_feeder_loads
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"feeder": str(path)}))
    rc = scenario.main(["--config", str(config), "--case", "1", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert parsed == [str(path)]


def test_run_case_still_loads_the_configs_model(counted_feeder_loads):
    path, parsed = counted_feeder_loads
    assert run_case(ScenarioConfig(feeder=str(path)), 1).status == "ok"
    assert parsed == [str(path)]


@pytest.mark.parametrize(
    "weights, field",
    [({"violation": -5}, "weights.violation"), ({"cost": float("nan")}, "weights.cost"),
     ({"violation": float("inf")}, "weights.violation"), ({"cost": -1e-9}, "weights.cost")],
)
def test_config_rejects_negative_or_non_finite_weights(weights, field):
    with pytest.raises(ValueError, match=f"scenario config {field}"):
        ScenarioConfig.from_json(json.dumps({"weights": weights}))


def test_config_keeps_zero_weights():
    config = ScenarioConfig.from_json('{"weights": {"violation": 0, "cost": 0}}')
    assert config.weights == Weights(0.0, 0.0)


def test_emit_report_files(tmp_path):
    config = ScenarioConfig()
    report = run_scenario(config, [1, 6])
    meter_map = MeterMap.for_model(config.load_model())
    written = emit_report(report, tmp_path, meter_map)
    names = {p.name for p in written}
    assert "summary.csv" in names and "detail.json" in names
    assert "voltage_case1_pre.csv" in names and "voltage_case6_post.csv" in names

    with open(tmp_path / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert [r["case"] for r in rows] == ["1", "6"]
    assert all(r["status"] == "ok" for r in rows)
    assert int(rows[0]["violations_post"]) == 0

    with open(tmp_path / "voltage_case1_pre.csv") as fh:
        profile = list(csv.DictReader(fh))
    assert len(profile) == 206
    assert profile[0]["register"] == "1"

    detail = json.loads((tmp_path / "detail.json").read_text())
    assert len(detail["cases"]) == 2
    assert "environment" in detail


def test_detail_json_keys_each_case_by_its_result_fields(tmp_path):
    report = run_scenario(ScenarioConfig(), [1])
    emit_report(report, tmp_path, MeterMap.for_model(ScenarioConfig().load_model()))
    (case,) = json.loads((tmp_path / "detail.json").read_text())["cases"]
    assert list(case) == [
        "case", "status", "group", "level_mw", "violations_baseline", "violations_pre",
        "unbalance_pre_pct", "toggles", "violations_post", "unbalance_post_pct",
        "attack_status", "attack_steps", "budget_spent_mw", "max_read_error_pu", "wall_ms",
    ]
    assert case["toggles"] == list(report.results[0].toggles)


def test_failed_case_emits_partial_row(tmp_path):
    config = ScenarioConfig(feeder="/nonexistent/feeder.json")
    report = run_scenario(config, [2])
    assert report.results[0].status.startswith("failed:")
    # emit with the bundled map (the model never loaded)
    meter_map = MeterMap.for_model(ScenarioConfig().load_model())
    emit_report(report, tmp_path, meter_map)
    with open(tmp_path / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert rows[0]["status"] != "ok"


def test_config_json_parsing():
    text = json.dumps(
        {
            "allow_meshed": False,
            "oracle": True,
            "band": [0.9, 1.1],
            "weights": {"violation": 500, "cost": 2},
            "attack_params": {"n_tar": 3, "alpha_mw": 0.02},
        }
    )
    config = ScenarioConfig.from_json(text)
    assert config.allow_meshed is False
    assert config.use_oracle is True
    assert config.band == (0.9, 1.1)
    assert config.weights.violation == 500
    assert config.attack_params.n_tar == 3


def test_config_json_rejects_unknown_keys():
    with pytest.raises(ValueError, match="use_oracle"):
        ScenarioConfig.from_json('{"use_oracle": true}')
    with pytest.raises(ValueError, match="scenario config weights: violations"):
        ScenarioConfig.from_json('{"weights": {"violations": 5}}')


# SHA-256 of every CSV that `gridbed-scenario --all --replay` and
# `--all --live` write. The reports are a cross-commit contract: a change that
# moves any CSV byte fails here, not only one whose two runs disagree.
REPLAY_CSV_SHA256 = {
    "summary.csv": "5efa1c99868c50604d483fc10e3b498b28a3585f0b356ea0de3e24ef056abf64",
    "voltage_case1_post.csv": "708766192f51bbec33763bedb24e3d45679878a3af0b2efe32e3820bf5859ce1",
    "voltage_case1_pre.csv": "bdf52542ff9afcc51421e237799947b21718bb0485e79e22411d33dbb415b8fb",
    "voltage_case2_post.csv": "ec7c3d6955ef93e53ac7923343722884dc4dcae7bb60c4aaacc357ea77c5006c",
    "voltage_case2_pre.csv": "02d997957f6ce527506841f33f503abed4a481cadf8799963158b8f29a24e9f6",
    "voltage_case3_post.csv": "4744c6e7d0b48d0a948e655d8a37c3d4bc8418e221205c1f5a046dd53e84fa29",
    "voltage_case3_pre.csv": "c9ef1d84a2bca664457475fd3cdb0241babe0c90f9006b6033837678707c9861",
    "voltage_case4_post.csv": "06b60c0978a51421e8d2ff622d649ac2c21bb9bac49ade7e135fc15fddef1264",
    "voltage_case4_pre.csv": "0f09be0dcdc4b29f05a586a22ed26c8070b5fc8cd45f5bb1af4bd1ca6a459772",
    "voltage_case5_post.csv": "23dc55fe280954bd10128ab7345c6034e5dad1ad25e77f2077a11b2c7299a7a5",
    "voltage_case5_pre.csv": "d6d4a05dd063e5d16861a29f4c5ed8656ce36903e210bfd32cbbdd1f8c4531a7",
    "voltage_case6_post.csv": "dc5948bddd8d4573faa4c8bc9025314296069556c9dbd7a62aa8f4f3502495f9",
    "voltage_case6_pre.csv": "289428436159ebda1815b5743164dc794cf464dc3522bb5c17c75a9358f60f3c",
}

LIVE_CSV_SHA256 = {
    "summary.csv": "c12543839aaedfdb1a95897f2e6a9e4f40c46011b6343c167627a5c6875b5f3d",
    "voltage_case1_post.csv": "06b60c0978a51421e8d2ff622d649ac2c21bb9bac49ade7e135fc15fddef1264",
    "voltage_case1_pre.csv": "0f09be0dcdc4b29f05a586a22ed26c8070b5fc8cd45f5bb1af4bd1ca6a459772",
    "voltage_case2_post.csv": "23dc55fe280954bd10128ab7345c6034e5dad1ad25e77f2077a11b2c7299a7a5",
    "voltage_case2_pre.csv": "d6d4a05dd063e5d16861a29f4c5ed8656ce36903e210bfd32cbbdd1f8c4531a7",
    "voltage_case3_post.csv": "dc5948bddd8d4573faa4c8bc9025314296069556c9dbd7a62aa8f4f3502495f9",
    "voltage_case3_pre.csv": "289428436159ebda1815b5743164dc794cf464dc3522bb5c17c75a9358f60f3c",
    "voltage_case4_post.csv": "06b60c0978a51421e8d2ff622d649ac2c21bb9bac49ade7e135fc15fddef1264",
    "voltage_case4_pre.csv": "0f09be0dcdc4b29f05a586a22ed26c8070b5fc8cd45f5bb1af4bd1ca6a459772",
    "voltage_case5_post.csv": "23dc55fe280954bd10128ab7345c6034e5dad1ad25e77f2077a11b2c7299a7a5",
    "voltage_case5_pre.csv": "d6d4a05dd063e5d16861a29f4c5ed8656ce36903e210bfd32cbbdd1f8c4531a7",
    "voltage_case6_post.csv": "dc5948bddd8d4573faa4c8bc9025314296069556c9dbd7a62aa8f4f3502495f9",
    "voltage_case6_pre.csv": "289428436159ebda1815b5743164dc794cf464dc3522bb5c17c75a9358f60f3c",
}


def _csv_digests(tmp_path, live):
    config = ScenarioConfig()
    report = run_scenario(config, sorted(CASE_PATTERNS), live=live)
    emit_report(report, tmp_path, MeterMap.for_model(config.load_model()))
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(tmp_path.glob("*.csv"))
    }


def test_replay_all_csvs_match_frozen_digests(tmp_path):
    assert _csv_digests(tmp_path, live=False) == REPLAY_CSV_SHA256


def test_live_all_csvs_match_frozen_digests(tmp_path):
    assert _csv_digests(tmp_path, live=True) == LIVE_CSV_SHA256
