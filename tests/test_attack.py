"""Attack engine: step sizing, clamping, the adaptive loop over live TCP."""

import hashlib
import json
import random

import pytest

from gridbed.attack import (
    MODES,
    STATUS_BUDGET,
    STATUS_ERROR,
    STATUS_STEALTH,
    STATUS_STEP_CAP,
    STATUS_TARGET,
    AttackError,
    AttackParams,
    NMaxRule,
    clamp,
    run_attack,
    step,
    step_size,
)
from gridbed.modbus import frames
from gridbed.modbus.client import ModbusClient
from gridbed.modbus.server import FeederServer
from gridbed.regmap import READ_LIMIT, MeterMap

from conftest import BAD_NUMBERS, mbap_frame
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


BASELINES = (0.04, 0.04)


def test_clamp_bounds_from_multipliers():
    p = _params(n_min=0.025, n_max=NMaxRule("constant", 4.0))
    assert clamp((0.2, 0.0001), BASELINES, p) == pytest.approx((0.16, 0.001))


def test_clamp_inside_bounds_unchanged_and_idempotent():
    p = _params(n_min=0.025, n_max=NMaxRule("constant", 4.0))
    vec = (0.08, 0.001)
    once = clamp(vec, BASELINES, p)
    assert once == vec
    assert clamp(once, BASELINES, p) == once


def test_clamp_with_doubling_rule():
    p = _params(n_min=0.025, n_max=NMaxRule("constant", 2.0))
    assert clamp((0.2,), (0.04,), p) == pytest.approx((0.08,))


def test_clamp_rejects_a_vector_of_another_length():
    with pytest.raises(ValueError):
        clamp((0.04,), BASELINES, _params())


def test_linear_n_max_rule_caps():
    rule = NMaxRule("linear", value=2.0, slope=0.1, cap=4.0)
    assert rule.evaluate(0) == 2.0
    assert rule.evaluate(10) == 3.0
    assert rule.evaluate(100) == 4.0


# ---------------------------------------------------------------------------
# step
# ---------------------------------------------------------------------------


PHASES = ("A", "B", "C")
BASE3 = (0.04, 0.04, 0.04)


def test_step_hold_branch_when_target_met():
    p = _params(n_tar=5)
    prev = (0.05, 0.03, 0.07)
    assert step(prev, 5, p, "C", PHASES, BASE3) == prev


def test_step_pushes_mode_group_up_others_down():
    p = _params(alpha_mw=0.01, n_tar=25)
    out = step((0.04, 0.04, 0.07), 0, p, "C", PHASES, BASE3)
    assert out == pytest.approx((0.03, 0.03, 0.08))


def test_step_moves_each_position_by_its_own_phase_group():
    # two positions per group, interleaved, each with its own gamma
    p = _params(gamma_a_mw=0.01, gamma_b_mw=0.002, gamma_c_mw=0.005, n_tar=25)
    phases = ("C", "A", "B", "A", "C", "B")
    out = step((0.04,) * 6, 0, p, "A", phases, (0.04,) * 6)
    assert out == pytest.approx((0.035, 0.05, 0.038, 0.05, 0.035, 0.038))


def test_step_clamps_at_lower_bound():
    p = _params(alpha_mw=0.01, n_min=0.025, n_tar=25)
    out = step((0.001, 0.001, 0.15), 0, p, "C", PHASES, BASE3)
    assert out[:2] == pytest.approx((0.001, 0.001))


def test_step_unknown_mode_rejected():
    with pytest.raises(AttackError):
        step((0.04,), 0, _params(), "D", ("A",), (0.04,))


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


@pytest.mark.parametrize("mode", MODES)
def test_a_step_that_spends_exactly_the_budget_is_taken(live_server, fixture_meter_map, mode):
    # the first step of every mode writes 3 x 50 + 6 x 30 kW; the budget is
    # counted in whole kW, so no summation order makes that exceed 0.33 MW
    with ModbusClient(*live_server.address) as client:
        baseline = client.read_setpoints(fixture_meter_map)
        trace = run_attack(client, fixture_meter_map, _params(av_max_mw=0.33), mode)
        client.write_setpoints(fixture_meter_map, baseline)
    assert (trace.status, len(trace.steps), trace.budget_spent_mw) == (STATUS_BUDGET, 1, 0.33)


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
            tuple(round(mw * 1000) for mw in trace.baseline_mw.values()),
        )
    assert trace.status == STATUS_TARGET
    assert trace.steps[-1].violations >= 2
    assert all(s.unbalance_pct < 3.0 for s in trace.steps if s.kept)


def test_attack_respects_budget_and_bounds_randomized(live_server, fixture_meter_map):
    rng = random.Random(1234)
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
    for (node, phase), mw in zip(fixture_meter_map.setpoints, terminal.values()):
        assert mw == pytest.approx(0.08 if phase == "C" else 0.001)
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
    trace.write_csv(out)
    lines = out.read_text().strip().splitlines()
    nodes = [n for n, _ in fixture_meter_map.setpoints]
    assert lines[0].split(",")[: 1 + len(nodes)] == ["step"] + nodes
    assert len(lines) == len(trace.steps) + 1


def test_attack_keeps_several_phases_of_one_bus_apart(fixture_model):
    # three setpoints on one bus: each phase keeps its own baseline and
    # moves by its own group's step
    meter_map = MeterMap.for_model(fixture_model, [("N52", p) for p in "ABC"])
    with FeederServer(fixture_model, meter_map, bind=("127.0.0.1", 0)) as server:
        with ModbusClient(*server.address) as client:
            client.write_setpoints(meter_map, (10, 20, 30))
            trace = run_attack(client, meter_map, _params(max_steps=1), "A")
            assert client.read_setpoints(meter_map) == (20, 10, 20)
    assert trace.baseline_mw == {"N52.A": 0.01, "N52.B": 0.02, "N52.C": 0.03}
    assert [s.vector_mw for s in trace.steps] == [{"N52.A": 0.02, "N52.B": 0.01, "N52.C": 0.02}]
    assert trace.steps[0].budget_spent_mw == pytest.approx(0.05)


# SHA-256 of the trace CSV of a default-parameter attack on the bundled
# feeder, from a fresh server: pins every step's vector, violation count,
# unbalance and budget, which the scenario CSVs do not.
TRACE_CSV_SHA256 = {
    "A": "ddb3afffd1f8de5b0233cb6dc62de7afecde7a4d18691be96834b416d17fd37d",
    "B": "6007aa389867862f3c162165aefe45b1e8b60003ee37f7211b6a07dfaa61294b",
    "C": "f44f0fdd91fd523b3ae7c3ab73497888a77728fcbe35ea8f946a21c956422c0f",
}


@pytest.mark.parametrize("mode", MODES)
def test_default_attack_trace_csv_is_pinned(tmp_path, fixture_model, fixture_meter_map, mode):
    with FeederServer(fixture_model, fixture_meter_map, bind=("127.0.0.1", 0)) as server:
        with ModbusClient(*server.address) as client:
            trace = run_attack(client, fixture_meter_map, AttackParams(), mode)
    out = tmp_path / "trace.csv"
    trace.write_csv(out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == TRACE_CSV_SHA256[mode]


def test_monotone_pressure_on_radial_fixture(fixture_model, fixture_meter_map):
    # sweeping the overloaded group's setpoint upward never reduces the
    # violation count while everything else stays fixed
    from gridbed.feeder import SwitchConfig, apply_switch_config
    from gridbed.powerflow import count_violations, solve

    view = apply_switch_config(fixture_model, SwitchConfig.normal(fixture_model))
    group_c = [node for node, phase in fixture_meter_map.setpoints if phase == "C"]
    last = -1
    for kw in range(40, 161, 10):
        loads = {node: {"C": (float(kw), 0.0)} for node in group_c}
        demand = demand_with(fixture_model, loads)
        solution = solve(fixture_model, view, demand)
        assert solution.converged
        count = count_violations(solution.magnitudes())
        assert count >= last
        last = count
    assert last > 0


def test_params_json_rejects_unknown_key():
    with pytest.raises(AttackError, match="alpha"):
        AttackParams.from_doc(json.loads('{"alpha": 0.5}'))


def test_n_max_rule_rejects_unknown_kind():
    with pytest.raises(AttackError, match="quadratic"):
        NMaxRule.from_doc({"kind": "quadratic"})


def test_params_build_an_n_max_rule_from_its_document_form():
    assert AttackParams(n_max=5.0).n_max == NMaxRule("constant", 5.0)
    assert AttackParams(n_max={"kind": "linear", "cap": 3}).n_max == NMaxRule("linear", 1, 0, 3)
    with pytest.raises(AttackError, match="n_max"):
        AttackParams(n_max="x")


FLOAT_PARAMS = (
    "alpha_mw", "k_mw", "delta_mw", "floor_step_mw", "gamma_a_mw", "gamma_b_mw",
    "gamma_c_mw", "av_max_mw", "n_min", "stealth_limit_pct",
)
N_MAX_FORMS = ("value", "slope", "cap", "n_max", "constant")


def _n_max_form(form, x):
    """An n_max rule holding ``x``: its NMaxRule arguments, its document and
    the key its errors name.  value, slope and cap are the linear rule's,
    whose document calls value "base"; n_max is the constant rule written
    as a bare number, constant the same rule written as an object."""
    if form in ("n_max", "constant"):
        doc = x if form == "n_max" else {"kind": "constant", "value": x}
        return ("constant", x), doc, "value"
    rule = {"value": 4.0, "slope": 0.0, "cap": 4.0, form: x}
    doc = {"kind": "linear", "base": rule["value"], "slope": rule["slope"], "cap": rule["cap"]}
    return ("linear", *rule.values()), doc, "base" if form == "value" else form


@pytest.mark.parametrize(
    "key, value",
    [
        pytest.param(key, bad.values[0], id=f"{key}-{bad.id}")
        for key in FLOAT_PARAMS + N_MAX_FORMS
        for bad in BAD_NUMBERS
        if not (key.startswith("gamma_") and bad.values[0] is None)  # null means alpha
    ],
)
def test_params_reject_non_finite_numbers(key, value):
    if key in FLOAT_PARAMS:
        build, doc, named = (lambda: AttackParams(**{key: value})), {key: value}, key
    else:
        args, rule_doc, named = _n_max_form(key, value)
        build, doc = (lambda: AttackParams(n_max=NMaxRule(*args))), {"n_max": rule_doc}
        named = f"n_max {named}"
    text = json.dumps(doc)  # NaN, Infinity or -Infinity, as json.loads accepts
    for make in (build, lambda: AttackParams.from_doc(json.loads(text))):
        with pytest.raises(AttackError, match=f"{named} must be a finite number"):
            make()


@pytest.mark.parametrize("key, value", [("max_steps", 2.5), ("n_tar", True)])
def test_params_counts_must_be_integers(key, value):
    with pytest.raises(AttackError, match=f"{key} must be an integer"):
        AttackParams(**{key: value})


def test_params_from_doc_reads_a_linear_rule():
    doc = {"alpha_mw": 0.015, "n_tar": 7,
           "n_max": {"kind": "linear", "base": 2, "slope": 0.5, "cap": 4}}
    expected = _params(alpha_mw=0.015, n_tar=7, n_max=NMaxRule("linear", 2.0, 0.5, 4.0))
    assert AttackParams.from_doc(doc) == expected
