"""Attack engine: step sizing, clamping, the adaptive loop over live TCP."""

import json
import math
import random

import pytest

from gridbed.attack import (
    STATUS_BUDGET,
    STATUS_ERROR,
    STATUS_STEALTH,
    STATUS_STEP_CAP,
    STATUS_TARGET,
    AttackError,
    AttackParams,
    NMaxRule,
    clamp,
    phase_groups,
    run_attack,
    step,
    step_size,
)
from gridbed.modbus import frames
from gridbed.modbus.client import ModbusClient
from gridbed.regmap import READ_LIMIT

from conftest import mbap_frame
from oracles import demand_with


def _params(**kw):
    return AttackParams(**kw)


# ---------------------------------------------------------------------------
# step_size
# ---------------------------------------------------------------------------


def test_step_size_zero_violations_uses_alpha():
    assert step_size(0, _params(alpha_mw=0.01)) == 0.01


def test_step_size_feedback_branch():
    p = _params(k_mw=0.02, delta_mw=0.001, n_tar=25)
    assert step_size(10, p) == pytest.approx(0.01)


def test_step_size_floor_applies():
    p = _params(k_mw=0.02, delta_mw=0.001, floor_step_mw=0.001, n_tar=30)
    assert step_size(25, p) == pytest.approx(0.001)  # raw would be -0.005


def test_step_size_rejects_met_target():
    with pytest.raises(AttackError):
        step_size(25, _params(n_tar=25))


def test_per_group_gamma_defaults_to_alpha():
    p = _params(alpha_mw=0.02, gamma_b_mw=0.005)
    assert step_size(0, p, "A") == 0.02
    assert step_size(0, p, "B") == 0.005


# ---------------------------------------------------------------------------
# clamp
# ---------------------------------------------------------------------------


BASELINES = {"X": 0.04, "Y": 0.04}


def test_clamp_bounds_from_multipliers():
    p = _params(n_min=0.025, n_max=NMaxRule("constant", 4.0))
    out = clamp({"X": 0.2, "Y": 0.0001}, BASELINES, p)
    assert out["X"] == pytest.approx(0.16)
    assert out["Y"] == pytest.approx(0.001)


def test_clamp_inside_bounds_unchanged_and_idempotent():
    p = _params(n_min=0.025, n_max=NMaxRule("constant", 4.0))
    vec = {"X": 0.08, "Y": 0.001}
    once = clamp(vec, BASELINES, p)
    assert once == vec
    assert clamp(once, BASELINES, p) == once


def test_clamp_with_doubling_rule():
    p = _params(n_min=0.025, n_max=NMaxRule("constant", 2.0))
    out = clamp({"X": 0.2}, {"X": 0.04}, p)
    assert out["X"] == pytest.approx(0.08)


def test_linear_n_max_rule_caps():
    rule = NMaxRule("linear", value=2.0, slope=0.1, cap=4.0)
    assert rule.evaluate(0) == 2.0
    assert rule.evaluate(10) == 3.0
    assert rule.evaluate(100) == 4.0


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------


GROUPS = {"A": ("X",), "B": ("Y",), "C": ("Z",)}
BASE3 = {"X": 0.04, "Y": 0.04, "Z": 0.04}


def test_step_hold_branch_when_target_met():
    p = _params(n_tar=5)
    prev = {"X": 0.05, "Y": 0.03, "Z": 0.07}
    assert step(prev, 5, p, "C", GROUPS, BASE3) == prev


def test_step_pushes_mode_group_up_others_down():
    p = _params(alpha_mw=0.01, n_tar=25)
    prev = {"X": 0.04, "Y": 0.04, "Z": 0.07}
    out = step(prev, 0, p, "C", GROUPS, BASE3)
    assert out["Z"] == pytest.approx(0.08)
    assert out["X"] == pytest.approx(0.03)
    assert out["Y"] == pytest.approx(0.03)


def test_step_clamps_at_lower_bound():
    p = _params(alpha_mw=0.01, n_min=0.025, n_tar=25)
    prev = {"X": 0.001, "Y": 0.001, "Z": 0.15}
    out = step(prev, 0, p, "C", GROUPS, BASE3)
    assert out["X"] == pytest.approx(0.001)
    assert out["Y"] == pytest.approx(0.001)


def test_step_unknown_mode_rejected():
    with pytest.raises(AttackError):
        step({"X": 0.04}, 0, _params(), "D", GROUPS, BASE3)


# ---------------------------------------------------------------------------
# run_attack against a live server
# ---------------------------------------------------------------------------


def test_zero_budget_means_no_steps_no_writes(live_server, fixture_meter_map):
    with ModbusClient(*live_server.address) as client:
        before = client.read_setpoints(fixture_meter_map)
        trace = run_attack(client, fixture_meter_map, _params(av_max_mw=0.0), "C")
        assert trace.status == STATUS_BUDGET
        assert trace.steps == []
        assert client.read_setpoints(fixture_meter_map) == before


def test_degenerate_zero_target_stops_at_first_step(live_server, fixture_meter_map):
    with ModbusClient(*live_server.address) as client:
        trace = run_attack(client, fixture_meter_map, _params(n_tar=0), "C")
        assert trace.status == STATUS_STEP_CAP
        assert trace.steps == []


def test_malformed_reply_mid_run_ends_with_error_status(scripted_peer, fixture_meter_map):
    # baseline setpoints and a flat 1.0 pu profile, then the first setpoint
    # write is answered as if it were a read
    n = len(fixture_meter_map.meters)

    def words(*values):  # a read response; its start is not on the wire
        return frames.Pdu(frames.FC_READ_HOLDING, 0, len(values), values)

    peer = scripted_peer(
        [
            mbap_frame(1, words(*(40,) * len(fixture_meter_map.setpoints))),
            mbap_frame(2, words(*(10_000,) * READ_LIMIT)),
            mbap_frame(3, words(*(10_000,) * (n - READ_LIMIT))),
            mbap_frame(4, words(0)),
        ]
    )
    with ModbusClient(*peer.address) as client:
        trace = run_attack(client, fixture_meter_map, _params(), "C")
    assert trace.status == STATUS_ERROR
    assert trace.steps == []
    peer.join()
    assert [frame[1][0] for frame in peer.requests] == [0x03, 0x03, 0x03, 0x10]


def test_bad_first_reply_ends_with_error_status(scripted_peer, fixture_meter_map):
    # the baseline setpoint read is answered as if it were a coil read
    peer = scripted_peer([mbap_frame(1, frames.Pdu(frames.FC_READ_COILS, 0, 1, (True,)))])
    with ModbusClient(*peer.address) as client:
        trace = run_attack(client, fixture_meter_map, _params(), "C")
    assert trace.status == STATUS_ERROR
    assert (trace.steps, trace.baseline_mw, trace.v_vio_init) == ([], {}, -1)


def test_attack_reaches_violation_target(live_server, fixture_meter_map):
    params = _params(alpha_mw=0.01, n_tar=2, av_max_mw=100.0, max_steps=60)
    with ModbusClient(*live_server.address) as client:
        trace = run_attack(client, fixture_meter_map, params, "C")
        # restore baseline for the shared server
        client.write_setpoints(
            fixture_meter_map,
            tuple(round(trace.baseline_mw[n] * 1000) for n, _ in fixture_meter_map.setpoints),
        )
    assert trace.status == STATUS_TARGET
    assert trace.steps[-1].violations >= 2
    assert all(s.unbalance_pct < 3.0 for s in trace.steps if s.kept)


def test_attack_respects_budget_and_bounds_randomized(live_server, fixture_meter_map):
    rng = random.Random(1234)
    groups = phase_groups(fixture_meter_map)
    with ModbusClient(*live_server.address) as client:
        baseline = client.read_setpoints(fixture_meter_map)
        for _ in range(25):
            params = _params(
                alpha_mw=rng.choice([0.005, 0.01, 0.02]),
                k_mw=rng.choice([0.01, 0.02]),
                delta_mw=rng.choice([0.0005, 0.001]),
                n_tar=rng.choice([1, 3, 8, 25]),
                av_max_mw=rng.choice([0.5, 2.0, 8.0]),
                n_min=0.025,
                n_max=NMaxRule("constant", rng.choice([2.0, 4.0])),
                max_steps=rng.choice([1, 3, 7]),
            )
            mode = rng.choice(["A", "B", "C"])
            trace = run_attack(client, fixture_meter_map, params, mode)
            client.write_setpoints(fixture_meter_map, baseline)

            total = sum(sum(s.vector_mw.values()) for s in trace.steps)
            assert total <= params.av_max_mw + 1e-9
            assert trace.budget_spent_mw == pytest.approx(total)
            n_max = params.n_max.evaluate(0)
            for s in trace.steps:
                for node, mw in s.vector_mw.items():
                    base = trace.baseline_mw[node]
                    assert base * params.n_min - 1e-9 <= mw <= base * n_max + 1e-9


def test_doubling_bounds_reach_case_pattern(live_server, fixture_meter_map):
    # with the doubling rule the loop must saturate at 0.08 on the pushed
    # group and 0.001 on the others, i.e. the first case's terminal pattern
    params = _params(
        alpha_mw=0.01,
        n_tar=1000,
        av_max_mw=1000.0,
        max_steps=30,
        n_max=NMaxRule("constant", 2.0),
        n_min=0.025,
    )
    with ModbusClient(*live_server.address) as client:
        baseline = client.read_setpoints(fixture_meter_map)
        trace = run_attack(client, fixture_meter_map, params, "C")
        client.write_setpoints(fixture_meter_map, baseline)
    terminal = next(s.vector_mw for s in reversed(trace.steps) if s.kept)
    groups = phase_groups(fixture_meter_map)
    for node in groups["C"]:
        assert terminal[node] == pytest.approx(0.08)
    for node in groups["A"] + groups["B"]:
        assert terminal[node] == pytest.approx(0.001)
    assert trace.steps[-1].violations > 0
    assert trace.steps[-1].unbalance_pct < 3.0


def test_hold_property_in_trace(live_server, fixture_meter_map):
    params = _params(alpha_mw=0.01, n_tar=1, av_max_mw=100.0, max_steps=40)
    with ModbusClient(*live_server.address) as client:
        baseline = client.read_setpoints(fixture_meter_map)
        trace = run_attack(client, fixture_meter_map, params, "C")
        client.write_setpoints(fixture_meter_map, baseline)
    # whenever a step logs violations >= target, the attack stopped there
    for k, s in enumerate(trace.steps):
        if s.violations >= params.n_tar:
            assert k == len(trace.steps) - 1


def test_stealth_block_reverts_and_stops(live_server, fixture_meter_map):
    # an absurdly low threshold trips on the very first step
    params = _params(stealth_limit_pct=0.05, n_tar=50, av_max_mw=100.0, max_steps=10)
    with ModbusClient(*live_server.address) as client:
        before = client.read_setpoints(fixture_meter_map)
        trace = run_attack(client, fixture_meter_map, params, "C")
        after = client.read_setpoints(fixture_meter_map)
    assert trace.status == STATUS_STEALTH
    assert after == before  # reverted
    assert trace.steps[-1].kept is False


def test_trace_csv_round_trip(tmp_path, live_server, fixture_meter_map):
    params = _params(n_tar=1, av_max_mw=3.0, max_steps=3)
    with ModbusClient(*live_server.address) as client:
        baseline = client.read_setpoints(fixture_meter_map)
        trace = run_attack(client, fixture_meter_map, params, "B")
        client.write_setpoints(fixture_meter_map, baseline)
    out = tmp_path / "trace.csv"
    node_order = [n for n, _ in fixture_meter_map.setpoints]
    trace.write_csv(out, node_order)
    lines = out.read_text().strip().splitlines()
    assert lines[0].split(",")[:1] == ["step"]
    assert len(lines) == len(trace.steps) + 1


def test_monotone_pressure_on_radial_fixture(fixture_model, fixture_meter_map):
    # sweeping the overloaded group's setpoint upward never reduces the
    # violation count while everything else stays fixed
    from gridbed.feeder import SwitchConfig, apply_switch_config
    from gridbed.powerflow import count_violations, solve

    view = apply_switch_config(fixture_model, SwitchConfig.normal(fixture_model))
    groups = phase_groups(fixture_meter_map)
    last = -1
    for kw in range(40, 161, 10):
        loads = {node: {"C": (float(kw), 0.0)} for node in groups["C"]}
        demand = demand_with(fixture_model, loads)
        solution = solve(fixture_model, view, demand)
        assert solution.converged
        count = count_violations(solution.magnitudes())
        assert count >= last
        last = count
    assert last > 0


def test_params_json_rejects_unknown_key():
    with pytest.raises(AttackError, match="alpha"):
        AttackParams.from_json('{"alpha": 0.5}')


def test_n_max_rule_rejects_unknown_kind():
    with pytest.raises(AttackError, match="quadratic"):
        NMaxRule.from_doc({"kind": "quadratic"})


FLOAT_PARAMS = (
    "alpha_mw", "k_mw", "delta_mw", "floor_step_mw", "gamma_a_mw", "gamma_b_mw",
    "gamma_c_mw", "av_max_mw", "n_min", "stealth_limit_pct",
)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("key", FLOAT_PARAMS + ("value", "slope", "cap"))
def test_params_reject_non_finite_numbers(key, value):
    # value, slope and cap are the linear n_max rule's; its JSON, and so its
    # errors, call value "base"
    if key in FLOAT_PARAMS:
        build, doc = (lambda: AttackParams(**{key: value})), {key: value}
    else:
        rule = {"value": 4.0, "slope": 0.0, "cap": 4.0, key: value}
        build = lambda: AttackParams(n_max=NMaxRule("linear", **rule))
        doc = {"n_max": {"kind": "linear", "base": rule["value"], "slope": rule["slope"],
                         "cap": rule["cap"]}}
    text = json.dumps(doc)  # NaN, Infinity or -Infinity, as json.loads accepts
    for make in (build, lambda: AttackParams.from_json(text)):
        with pytest.raises(AttackError, match=f"{'base' if key == 'value' else key} must be finite"):
            make()


def test_params_json_round_trip():
    p = _params(alpha_mw=0.015, n_tar=7, n_max=NMaxRule("linear", 2.0, 0.5, 4.0))
    q = AttackParams.from_json(p.to_json())
    assert q == p
