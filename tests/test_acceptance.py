"""Acceptance suite: one test per exit criterion, each printing a verdict.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here, not configurable.
"""

import csv
import json
import random
import struct
import time

import pytest

from gridbed.attack import AttackParams, NMaxRule, run_attack
from gridbed.feeder import SwitchConfig, apply_switch_config, feasible, load_feeder
from gridbed.mitigate import best_response_sweep, exhaustive_best, payoff
from gridbed.modbus import frames
from gridbed.modbus.client import ModbusClient, ModbusExceptionError
from gridbed.modbus.server import FeederServer
from gridbed.powerflow import count_violations, solve
from gridbed.regmap import (
    FLOAT_BLOCK_START,
    MeterMap,
    decode_float_pair,
    encode_float_pair,
    plan_chunked_read,
)
from gridbed.scenario import CASE_PATTERNS, ScenarioConfig, case_vector, emit_report, run_scenario

from conftest import four_bus_doc, two_bus_doc, z_matrix
from oracles import dense_nodal_solve
from test_modbus_frames import _matching_response, _random_request


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS: {text}")


def _case_demand(model, meter_map, case):
    return meter_map.demand(model, case_vector(meter_map, case))


# ---------------------------------------------------------------------------


def test_criterion_1_baseline_health(fixture_model):
    started = time.perf_counter()
    config = SwitchConfig.normal(fixture_model)
    assert all(config.closed(f"S{i}") for i in range(1, 7))
    assert not config.closed("S7") and not config.closed("S8")
    view = apply_switch_config(fixture_model, config)
    assert feasible(view)
    solution = solve(fixture_model, view)
    assert solution.converged
    assert count_violations(solution.magnitudes(), band=(0.95, 1.05)) == 0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    _report(1, f"baseline converged, 0 violations, {elapsed*1000:.0f} ms")


def test_criterion_2_solver_matches_dense_oracle():
    docs = {
        "two-bus": two_bus_doc(),
        "two-bus-reactive": two_bus_doc(load_kw=220.0, load_kvar=80.0, r=0.03, x=0.06, phase="C"),
        "three-bus": _three_bus_doc(),
        "four-bus": four_bus_doc(),
    }
    worst = 0.0
    for name, doc in docs.items():
        model = load_feeder(json.dumps(doc))
        solution = solve(model, apply_switch_config(model, SwitchConfig.normal(model)))
        assert solution.converged, name
        oracle = dense_nodal_solve(model)
        for bus in model.buses:
            for p in bus.phases:
                err = abs(solution.voltages[solution.meters.index((bus.id, p))] - oracle[bus.id][p])
                worst = max(worst, err)
                assert err <= 1e-6, (name, bus.id, p, err)
    _report(2, f"{len(docs)} small fixtures match the dense oracle, worst {worst:.2e} pu")


def _three_bus_doc():
    r1, x1 = z_matrix({(0, 0): (0.02, 0.03), (1, 1): (0.02, 0.03), (0, 1): (0.002, 0.006)})
    r2, x2 = z_matrix({(0, 0): (0.04, 0.04)})
    return {
        "base_kv_ln": 2.4018,
        "base_kva": 5000.0,
        "source": "G",
        "buses": [
            {"id": "G", "phases": "AB", "load_kw": [0, 0, 0], "load_kvar": [0, 0, 0]},
            {"id": "H", "phases": "AB", "load_kw": [90, 40, 0], "load_kvar": [30, 10, 0]},
            {"id": "I", "phases": "A", "load_kw": [70, 0, 0], "load_kvar": [20, 0, 0]},
        ],
        "branches": [
            {"from": "G", "to": "H", "r_ohm": r1, "x_ohm": x1},
            {"from": "H", "to": "I", "r_ohm": r2, "x_ohm": x2},
        ],
    }


def test_criterion_3_attack_pattern_replay(fixture_model, fixture_meter_map):
    started = time.perf_counter()
    unbalance = {}
    violations = {}
    with FeederServer(fixture_model, fixture_meter_map, bind=("127.0.0.1", 0)) as server:
        for case in sorted(CASE_PATTERNS):
            with ModbusClient(*server.address) as client:
                client.write_setpoints(fixture_meter_map, case_vector(fixture_meter_map, case))
                mags = client.read_all_voltages(fixture_meter_map)
                from gridbed.powerflow import (
                    count_violations,
                    max_unbalance,
                )

                violations[case] = count_violations(mags, (0.95, 1.05))
                unbalance[case] = max_unbalance(mags, fixture_meter_map.layout)
                client.write_setpoints(
                    fixture_meter_map, (40,) * len(fixture_meter_map.setpoints)
                )
    elapsed = time.perf_counter() - started
    assert all(violations[c] > 0 for c in CASE_PATTERNS), violations
    assert unbalance[4] > unbalance[1]
    assert unbalance[5] > unbalance[2]
    assert unbalance[6] > unbalance[3]
    assert all(u < 3.0 for u in unbalance.values()), unbalance
    assert elapsed < 10.0
    _report(
        3,
        "all 6 replayed cases violate; unbalance "
        + ", ".join(f"c{c}={unbalance[c]:.3f}%" for c in sorted(unbalance))
        + f"; {elapsed:.1f} s",
    )


def test_criterion_4_stealth_in_live_mode(fixture_model, fixture_meter_map):
    params = AttackParams(
        alpha_mw=0.01,
        n_tar=10_000,  # never met: run to the step cap
        av_max_mw=1e9,
        max_steps=200,
        stealth_limit_pct=3.0,
    )
    kept_max = 0.0
    with FeederServer(fixture_model, fixture_meter_map, bind=("127.0.0.1", 0)) as server:
        for mode in ("A", "B", "C"):
            with ModbusClient(*server.address) as client:
                baseline = client.read_setpoints(fixture_meter_map)
                trace = run_attack(client, fixture_meter_map, params, mode)
                client.write_setpoints(fixture_meter_map, baseline)
            assert len(trace.steps) == 200, trace.status
            kept = [s.unbalance_pct for s in trace.steps if s.kept]
            assert kept and max(kept) < 3.0, (mode, max(kept))
            kept_max = max(kept_max, max(kept))
    _report(4, f"3 modes x 200 live steps, kept-step unbalance max {kept_max:.3f}% < 3%")


def test_criterion_5_mitigation_efficacy(fixture_model, fixture_meter_map):
    started = time.perf_counter()
    base = SwitchConfig.normal(fixture_model)
    for case in (1, 2, 3, 4, 5):
        demand = _case_demand(fixture_model, fixture_meter_map, case)
        plan = best_response_sweep(fixture_model, base, demand, allow_meshed=True)
        assert plan.post_violations == 0, (case, plan.post_violations)
        assert set(plan.toggles) <= {"S7", "S8"}, (case, plan.toggles)
        assert len(plan.toggles) <= 2

    demand = _case_demand(fixture_model, fixture_meter_map, 6)
    sweep = best_response_sweep(fixture_model, base, demand, allow_meshed=True)
    oracle = exhaustive_best(fixture_model, base, demand, allow_meshed=True)
    assert oracle.candidates_evaluated == 256

    def scalar(plan):
        cfg = SwitchConfig.from_mapping(fixture_model, plan.chosen)
        return payoff(fixture_model, base, cfg, demand, allow_meshed=True).scalar

    gap = scalar(oracle) - scalar(sweep)
    if gap != 0:
        print(f"\ncase 6: sweep/oracle payoff gap {gap} (local optimum, logged)")
    assert gap >= 0  # the oracle can never lose
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(
        5,
        f"cases 1-5 cleared with toggles in {{S7,S8}}; case 6 sweep"
        f"{' = oracle' if gap == 0 else f' trails oracle by {gap}'} "
        f"(post={sweep.post_violations}); {elapsed:.1f} s",
    )


def test_criterion_6_budget_and_bounds_randomized():
    # a small three-controllable-node feeder keeps 1000 live runs fast
    doc = _bulk_run_doc()
    model = load_feeder(json.dumps(doc))
    meter_map = MeterMap.for_model(
        model, setpoint_nodes=[("LA", "A"), ("LB", "B"), ("LC", "C")]
    )
    rng = random.Random(20240817)
    checked = 0
    with FeederServer(model, meter_map, bind=("127.0.0.1", 0)) as server:
        with ModbusClient(*server.address) as client:
            baseline = client.read_setpoints(meter_map)
            for _ in range(1000):
                params = AttackParams(
                    alpha_mw=rng.choice([0.004, 0.01, 0.03]),
                    k_mw=rng.choice([0.01, 0.02, 0.05]),
                    delta_mw=rng.choice([0.0005, 0.001, 0.004]),
                    n_tar=rng.choice([1, 2, 5, 40]),
                    av_max_mw=rng.choice([0.05, 0.3, 1.5]),
                    n_min=rng.choice([0.025, 0.1]),
                    n_max=NMaxRule("constant", rng.choice([2.0, 4.0])),
                    max_steps=rng.choice([1, 2, 4]),
                    stealth_limit_pct=rng.choice([0.4, 3.0]),
                )
                mode = rng.choice(["A", "B", "C"])
                trace = run_attack(client, meter_map, params, mode)
                client.write_setpoints(meter_map, baseline)

                total = sum(sum(s.vector_mw.values()) for s in trace.steps)
                assert total <= params.av_max_mw + 1e-9
                n_max = params.n_max.evaluate(0)
                for s in trace.steps:
                    for node, mw in s.vector_mw.items():
                        base = trace.baseline_mw[node]
                        assert base * params.n_min - 1e-9 <= mw <= base * n_max + 1e-9
                checked += 1
    assert checked == 1000
    _report(6, "1000 randomized runs: budget and bound checks all hold")


def _bulk_run_doc():
    rt, xt = z_matrix(
        {(0, 0): (0.05, 0.08), (1, 1): (0.05, 0.08), (2, 2): (0.05, 0.08)}
    )
    docs = {
        "base_kv_ln": 2.4018,
        "base_kva": 5000.0,
        "source": "S",
        "buses": [
            {"id": "S", "phases": "ABC", "load_kw": [0, 0, 0], "load_kvar": [0, 0, 0]},
            {"id": "M", "phases": "ABC", "load_kw": [20, 20, 20], "load_kvar": [8, 8, 8]},
            {"id": "LA", "phases": "A", "load_kw": [40, 0, 0], "load_kvar": [0, 0, 0]},
            {"id": "LB", "phases": "B", "load_kw": [0, 40, 0], "load_kvar": [0, 0, 0]},
            {"id": "LC", "phases": "C", "load_kw": [0, 0, 40], "load_kvar": [0, 0, 0]},
        ],
        "branches": [
            {"from": "S", "to": "M", "r_ohm": rt, "x_ohm": xt},
            {"from": "M", "to": "LA", "r_ohm": z_matrix({(0, 0): (0.6, 0.5)})[0],
             "x_ohm": z_matrix({(0, 0): (0.6, 0.5)})[1]},
            {"from": "M", "to": "LB", "r_ohm": z_matrix({(1, 1): (0.6, 0.5)})[0],
             "x_ohm": z_matrix({(1, 1): (0.6, 0.5)})[1]},
            {"from": "M", "to": "LC", "r_ohm": z_matrix({(2, 2): (0.6, 0.5)})[0],
             "x_ohm": z_matrix({(2, 2): (0.6, 0.5)})[1]},
        ],
    }
    return docs


def test_criterion_7_protocol_conformance(fixture_model, fixture_meter_map):
    rng = random.Random(777)
    for _ in range(100_000):
        request = _random_request(rng)
        encoded = frames.encode_pdu(request)
        assert frames.decode_request(encoded) == request
        response = _matching_response(rng, request)
        assert frames.decode_response(frames.encode_pdu(response), request) == response

    accepted = []  # FC05 values other than OFF (0x0000) and ON (0xFF00) raise
    for value in range(0x10000):
        try:
            accepted.append(frames.decode_request(struct.pack(">BHH", 0x05, 6, value)))
        except frames.FrameError:
            pass
    assert accepted == [frames.Pdu(0x05, 6, 1, (False,)), frames.Pdu(0x05, 6, 1, (True,))]

    for _ in range(100_000):
        bits = rng.getrandbits(32)
        if (bits >> 23) & 0xFF == 0xFF:
            continue  # skip NaN/inf exponents: encoder rejects non-finite
        value = struct.unpack(">f", struct.pack(">I", bits))[0]
        assert struct.pack(">f", decode_float_pair(encode_float_pair(value))) == struct.pack(
            ">f", value
        )

    spans = plan_chunked_read(FLOAT_BLOCK_START, 2 * 206)
    assert len(spans) == 4

    with FeederServer(fixture_model, fixture_meter_map, bind=("127.0.0.1", 0)) as server:
        with ModbusClient(*server.address) as client:
            with pytest.raises(ModbusExceptionError) as exc:
                client.read_holding(1, 126)
            assert exc.value.code == 0x03

            calls = []
            original = client.request

            def counting(request):
                calls.append(request)
                return original(request)

            client.request = counting
            mirror = client.read_all_voltages(fixture_meter_map, source="float")
            assert len(calls) == 4
            assert len(mirror) == 206
    _report(
        7,
        "1e5 PDU and 1e5 FLOAT32 round-trips bit-exact; FC05 takes only ON/OFF; "
        "qty-126 read -> 0x03; "
        "float mirror read = 4 transactions",
    )


def test_criterion_8_end_to_end_determinism(tmp_path):
    started = time.perf_counter()
    config = ScenarioConfig()
    meter_map = MeterMap.for_model(config.load_model())
    outputs = []
    for run in ("a", "b"):
        report = run_scenario(config, sorted(CASE_PATTERNS))
        assert report.ok
        out = tmp_path / run
        emit_report(report, out, meter_map)
        outputs.append(out)
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0

    names = sorted(p.name for p in outputs[0].iterdir() if p.suffix == ".csv")
    assert "summary.csv" in names
    for name in names:
        a = (outputs[0] / name).read_bytes()
        b = (outputs[1] / name).read_bytes()
        assert a == b, f"{name} differs between runs"

    with open(outputs[0] / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 and all(r["status"] == "ok" for r in rows)
    detail = json.loads((outputs[0] / "detail.json").read_text())
    assert all(c["violations_baseline"] == 0 for c in detail["cases"])
    _report(8, f"two full 6-case replays byte-identical across {len(names)} CSVs; {elapsed:.1f} s")
