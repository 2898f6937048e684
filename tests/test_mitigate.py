"""Defender: payoff scoring, best-response sweep, exhaustive oracle, live loop."""

import hashlib
import itertools
import json
import math
import random
import sys
import threading

import pytest

from gridbed import mitigate
from gridbed.feeder import SwitchConfig, default_feeder_text, load_feeder
from gridbed.mitigate import (
    INFEASIBLE,
    MitigationError,
    Weights,
    best_response_sweep,
    exhaustive_best,
    mitigate_once,
    payoff,
    run_mitigation,
    switching_cost,
)
from gridbed.modbus import frames
from gridbed.modbus.client import ModbusClient
from gridbed.modbus.server import FeederServer
from gridbed.powerflow import DEFAULT_BAND
from gridbed.scenario import CASE_PATTERNS, case_vector

from conftest import mbap_frame, three_bus_switch_doc
from oracles import best_response_sweep_reference, exhaustive_best_reference, exhaustive_key


def _case_demand(model, meter_map, case):
    return meter_map.demand(model, case_vector(meter_map, case))


def _normal(model):
    return SwitchConfig.normal(model)


# ---------------------------------------------------------------------------
# switching_cost
# ---------------------------------------------------------------------------


def test_cost_identical_configs(fixture_model):
    c = _normal(fixture_model)
    assert switching_cost(c, c) == 0


def test_cost_single_and_double_toggle(fixture_model):
    base = _normal(fixture_model)
    assert switching_cost(base, base.with_switch("S7", True)) == 1
    assert switching_cost(
        base, base.with_switch("S7", True).with_switch("S8", True)
    ) == 2


def test_cost_mismatched_sets_rejected(fixture_model):
    base = _normal(fixture_model)
    with pytest.raises(MitigationError):
        switching_cost(base, SwitchConfig(("S1",), 1))


# ---------------------------------------------------------------------------
# payoff
# ---------------------------------------------------------------------------


def test_payoff_dead_load_bus_is_infeasible(fixture_model):
    base = _normal(fixture_model)
    candidate = base.with_switch("S5", False)  # far zone (loaded) goes dark
    result = payoff(fixture_model, base, candidate)
    assert not result.feasible
    assert result.scalar == INFEASIBLE


def test_payoff_mesh_infeasible_unless_allowed(fixture_model):
    base = _normal(fixture_model)
    meshed = base.with_switch("S7", True)
    assert not payoff(fixture_model, base, meshed).feasible
    assert payoff(fixture_model, base, meshed, allow_meshed=True).feasible


def test_payoff_cost_orders_equal_violations(fixture_model):
    base = _normal(fixture_model)
    one = payoff(fixture_model, base, base.with_switch("S7", True), allow_meshed=True)
    two = payoff(
        fixture_model,
        base,
        base.with_switch("S7", True).with_switch("S8", True),
        allow_meshed=True,
    )
    assert one.violations == two.violations == 0
    assert one.scalar > two.scalar  # cheaper wins


def test_payoff_violations_dominate_cost(fixture_model, fixture_meter_map):
    demand = _case_demand(fixture_model, fixture_meter_map, 1)
    base = _normal(fixture_model)
    keep = payoff(fixture_model, base, base, demand, allow_meshed=True)
    fix = payoff(
        fixture_model, base, base.with_switch("S7", True), demand, allow_meshed=True
    )
    assert keep.violations > 0 and fix.violations == 0
    assert fix.scalar > keep.scalar  # one toggle beats any violation count


def test_payoff_scale_invariance(fixture_model, fixture_meter_map):
    demand = _case_demand(fixture_model, fixture_meter_map, 4)
    base = _normal(fixture_model)
    candidates = [
        base,
        base.with_switch("S7", True),
        base.with_switch("S8", True),
        base.with_switch("S7", True).with_switch("S8", True),
    ]

    def argmax(weights):
        scored = [
            payoff(fixture_model, base, c, demand, weights, allow_meshed=True).scalar
            for c in candidates
        ]
        return scored.index(max(scored))

    assert argmax(Weights(1000.0, 1.0)) == argmax(Weights(37000.0, 37.0))


# ---------------------------------------------------------------------------
# best_response_sweep / exhaustive_best
# ---------------------------------------------------------------------------


def test_sweep_fixed_point_on_clean_state(fixture_model):
    plan = best_response_sweep(fixture_model, _normal(fixture_model))
    assert plan.toggles == ()
    assert plan.sweeps == 1
    assert plan.post_violations == 0


def test_sweep_closes_s7_for_case_one(fixture_model, fixture_meter_map):
    demand = _case_demand(fixture_model, fixture_meter_map, 1)
    plan = best_response_sweep(
        fixture_model, _normal(fixture_model), demand, allow_meshed=True
    )
    assert plan.toggles == ("S7",)
    assert plan.post_violations == 0
    assert plan.feasible


def test_sweep_case_six_uses_both_ties(fixture_model, fixture_meter_map):
    demand = _case_demand(fixture_model, fixture_meter_map, 6)
    plan = best_response_sweep(
        fixture_model, _normal(fixture_model), demand, allow_meshed=True
    )
    assert set(plan.toggles) <= {"S7", "S8"}
    oracle = exhaustive_best(
        fixture_model, _normal(fixture_model), demand, allow_meshed=True
    )
    assert plan.post_violations == oracle.post_violations
    assert sorted(plan.toggles) == sorted(oracle.toggles)


def test_sweep_radial_default_keeps_configuration(fixture_model, fixture_meter_map):
    # under the radiality constraint no {S7,S8} toggle can help: closing a tie
    # onto the energized tree is a cycle, so the sweep must stand pat
    demand = _case_demand(fixture_model, fixture_meter_map, 1)
    plan = best_response_sweep(fixture_model, _normal(fixture_model), demand)
    assert plan.toggles == ()
    assert plan.post_violations > 0


def test_exhaustive_enumerates_all_configs(fixture_model):
    plan = exhaustive_best(fixture_model, _normal(fixture_model))
    assert plan.candidates_evaluated == 256
    assert plan.toggles == ()  # no attack: any toggle only adds cost


def test_exhaustive_ties_prefer_open_before_closed_in_switch_order(monkeypatch):
    # closing SW1 alone and closing SW2 alone score the same; enumeration by
    # mask meets SW1 first, but SW1 open comes first in switch order
    model = load_feeder(json.dumps(three_bus_switch_doc()))
    both_open = SwitchConfig.from_mapping(model, {"SW1": False, "SW2": False})

    def one_closed_wins(model, current, candidate, *args):
        cost = switching_cost(current, candidate)
        return mitigate.Payoff(True, 0, cost, -1.0 if cost == 1 else -10.0)

    monkeypatch.setattr(mitigate, "payoff", one_closed_wins)
    plan = exhaustive_best(model, both_open)
    assert plan.chosen == {"SW1": False, "SW2": True}
    assert plan.toggles == ("SW2",)


def test_exhaustive_guard():
    doc = three_bus_switch_doc()
    model = load_feeder(json.dumps(doc))
    big = SwitchConfig(tuple(f"X{i}" for i in range(17)), 2 ** 17 - 1)

    class FakeModel:
        switch_names = tuple(f"X{i}" for i in range(17))

    with pytest.raises(MitigationError, match="exceeds"):
        exhaustive_best(FakeModel(), big)


@pytest.mark.parametrize("case", sorted(CASE_PATTERNS))
def test_oracle_dominates_sweep(case, fixture_model, fixture_meter_map):
    demand = _case_demand(fixture_model, fixture_meter_map, case)
    base = _normal(fixture_model)
    sweep = best_response_sweep(fixture_model, base, demand, allow_meshed=True)
    oracle = exhaustive_best(fixture_model, base, demand, allow_meshed=True)

    def scalar(plan):
        final = SwitchConfig.from_mapping(fixture_model, plan.chosen)
        return payoff(
            fixture_model, base, final, demand, allow_meshed=True
        ).scalar

    assert scalar(oracle) >= scalar(sweep)


def test_each_search_solves_each_candidate_once(fixture_model, fixture_meter_map, monkeypatch):
    # a candidate the sweep revisits is scored from the search's own record,
    # and the oracle visits each config once; the logs still list every visit
    solved = []  # the view of every solve, one object per topology
    solve = mitigate.solve

    def counting_solve(model, view, demand):
        solved.append(view)
        return solve(model, view, demand)

    monkeypatch.setattr(mitigate, "solve", counting_solve)
    base = _normal(fixture_model)
    for case in sorted(CASE_PATTERNS):
        demand = _case_demand(fixture_model, fixture_meter_map, case)
        del solved[:]
        sweep = best_response_sweep(fixture_model, base, demand, allow_meshed=True)
        assert len(solved) == len(set(map(id, solved))) == (4 if case == 6 else 2), case
        assert (sweep.sweeps, sweep.candidates_evaluated, len(sweep.search_log)) == (2, 17, 16)
        del solved[:]
        oracle = exhaustive_best(fixture_model, base, demand, allow_meshed=True)
        assert len(solved) == len(set(map(id, solved))) == (8 if case == 6 else 3), case
        assert (oracle.candidates_evaluated, len(oracle.search_log)) == (256, 256)


# Solves per oracle search from the normal config, cases 1-6, by allow_meshed:
# the start and every candidate not bounded out by the incumbent.
ORACLE_SOLVES = {False: (2, 2, 2, 5, 2, 7), True: (3, 3, 3, 3, 3, 8)}


@pytest.mark.parametrize("allow_meshed", [False, True], ids=["radial", "meshed"])
def test_oracle_solves_per_case_are_pinned(
    allow_meshed, fixture_model, fixture_meter_map, monkeypatch
):
    solves = []
    solve = mitigate.solve
    monkeypatch.setattr(mitigate, "solve", lambda *args: solves.append(args) or solve(*args))
    counts = []
    for case in sorted(CASE_PATTERNS):
        demand = _case_demand(fixture_model, fixture_meter_map, case)
        del solves[:]
        exhaustive_best(fixture_model, _normal(fixture_model), demand, allow_meshed=allow_meshed)
        counts.append(len(solves))
    assert tuple(counts) == ORACLE_SOLVES[allow_meshed]


def test_exhaustive_search_shares_its_model_with_a_live_server(fixture_meter_map):
    # the server thread walks and solves new topologies on the model whose
    # topology cache the search fills at the same time
    alone = load_feeder(default_feeder_text())
    demand = _case_demand(alone, fixture_meter_map, 6)
    expected = exhaustive_best(alone, _normal(alone), demand, allow_meshed=True)

    model = load_feeder(default_feeder_text())
    server = FeederServer(model, fixture_meter_map, bind=("127.0.0.1", 0))
    server.start()
    stop, writes = threading.Event(), []

    def toggle_coils():
        with ModbusClient(*server.address) as client:
            closed = _normal(model).as_dict()
            for name in itertools.cycle(model.switch_names):
                if stop.is_set():
                    return
                closed[name] = not closed[name]
                client.write_switch(model.switch_names, name, closed[name])
                writes.append(name)

    writer = threading.Thread(target=toggle_coils)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # interleave the three threads finely
    writer.start()
    try:
        while not writes:
            stop.wait(0.001)
        before = len(writes)
        shared = exhaustive_best(model, _normal(model), demand, allow_meshed=True)
        during = len(writes) - before
    finally:
        stop.set()
        writer.join(10.0)
        server.close()
        sys.setswitchinterval(interval)
    assert not writer.is_alive()
    assert during > 0
    assert shared.to_json() == expected.to_json()


# SHA-256 of MitigationPlan.to_json() under the radiality constraint (the
# gridbed-mitigate default), per case: (exhaustive_best, best_response_sweep).
# Through search_log these pin feasibility of all 256 candidates per case.
RADIAL_PLAN_DIGESTS = {
    1: ("c890b607c4f43d0790acdfb8bf205b6cffac58a07e88a7e3c0fbb78f3613d565",
        "daf152a963d85c5938074576a9468c0c0c6a8b26d82d187a9b4e49bba2a659f9"),
    2: ("c890b607c4f43d0790acdfb8bf205b6cffac58a07e88a7e3c0fbb78f3613d565",
        "daf152a963d85c5938074576a9468c0c0c6a8b26d82d187a9b4e49bba2a659f9"),
    3: ("fe768e11fa83afc4c26dd3dfac5d42828ad29af03299b05e81dadd61c328319b",
        "c4f7bdfd489f246f391ed52111847fd234c1e9b3d2770a565422e260f53b54cf"),
    4: ("dc18014a643f39d0ba3a86ef4868cad4c47101808991f9e56ac40bd4a5e413b4",
        "5ea720e7fb5a84ce02025d60054dac03267e041938e9202bd99fb6ec5c3ed41e"),
    5: ("f19f4ead40fb8e50c06a823a75ce53644d6340a5438be23773f89e0e297f54bc",
        "1c0ae69832d42d5af7675b639a7910fd4eef672a6554d159dfa292bd5d591245"),
    6: ("8ef5500e2f1d0e88c25acddd17494d537fd62d9465593eb55764a03e0d80303e",
        "1c0ae69832d42d5af7675b639a7910fd4eef672a6554d159dfa292bd5d591245"),
}


def test_radial_only_plans_are_pinned(fixture_model, fixture_meter_map):
    base = _normal(fixture_model)
    for case, expected in sorted(RADIAL_PLAN_DIGESTS.items()):
        demand = _case_demand(fixture_model, fixture_meter_map, case)
        plans = [
            search(fixture_model, base, demand, allow_meshed=False)
            for search in (exhaustive_best, best_response_sweep)
        ]
        digests = tuple(hashlib.sha256(p.to_json().encode()).hexdigest() for p in plans)
        assert digests == expected, f"case {case}"


def _parity_draws():
    """(case, weights, band): each case with the defaults, then seeded draws
    of bands and of non-negative weights over five decades, some of them
    zero, so that a violation can also weigh less than a toggle."""
    for case in sorted(CASE_PATTERNS):
        yield case, Weights(), DEFAULT_BAND
    rng = random.Random(20)
    for _ in range(12):
        weights = Weights(*(rng.choice([0.0, 10.0 ** rng.uniform(-2.0, 3.0)]) for _ in "vc"))
        band = (rng.uniform(0.93, 0.97), rng.uniform(1.03, 1.07))
        yield rng.choice(sorted(CASE_PATTERNS)), weights, band


def _without_log(plan):
    doc = json.loads(plan.to_json())
    del doc["search_log"]
    return doc


def _skipped_as_reference(search, reference, args, case) -> int:
    """Check that ``search(*args)`` plans as ``reference(*args)``, that every
    entry it did not skip is the reference's, and that every skipped one
    provably loses; return the number skipped."""
    model, start = args[:2]
    plan, expected = search(*args), reference(*args)
    where = (case, start.as_dict(), *args[3:])
    assert _without_log(plan) == _without_log(expected), where
    assert len(plan.search_log) == len(expected.search_log), where
    chosen = SwitchConfig.from_mapping(model, expected.chosen).mask
    chosen_key = exhaustive_key(expected.search_log[chosen]) if search is exhaustive_best else None
    working = payoff(model, start, start, *args[2:]).scalar
    skipped = 0
    for got, want in zip(plan.search_log, expected.search_log):
        want_scalar = INFEASIBLE if want["scalar"] is None else want["scalar"]
        if got["violations"] is not None:  # scored, or ruled out by the walk
            assert got == want, where
        else:  # skipped: the walk's feasibility, and it provably loses
            skipped += 1
            assert got["scalar"] is None, where
            assert [got[k] for k in ("switch", "feasible", "cost", "config")] == [
                want[k] for k in ("switch", "feasible", "cost", "config")
            ], where
            if chosen_key is not None:
                assert exhaustive_key(want) < chosen_key, where
            else:
                assert want_scalar <= working, where
        working = max(working, want_scalar)
    return skipped


SEARCHES = pytest.mark.parametrize(
    "search, reference",
    [(exhaustive_best, exhaustive_best_reference),
     (best_response_sweep, best_response_sweep_reference)],
    ids=["exhaustive", "sweep"],
)


@pytest.mark.parametrize("allow_meshed", [True, False])
@SEARCHES
def test_skipping_searches_plan_as_the_unpruned_references(
    search, reference, allow_meshed, fixture_model, fixture_meter_map
):
    base = _normal(fixture_model)
    skipped_total = 0
    for case, weights, band in _parity_draws():
        demand = _case_demand(fixture_model, fixture_meter_map, case)
        args = (fixture_model, base, demand, weights, allow_meshed, band)
        skipped_total += _skipped_as_reference(search, reference, args, case)
    if allow_meshed or search is exhaustive_best:
        assert skipped_total > 0


# Starts other than the normal config, as (switch, closed) changes to it.
OTHER_STARTS = {
    "S7-closed": {"S7": True},
    "S7-S8-closed": {"S7": True, "S8": True},
    "S3-open": {"S3": False},
    "all-open": {f"S{i}": False for i in range(1, 9)},
}


@pytest.mark.parametrize("start", sorted(OTHER_STARTS))
@pytest.mark.parametrize("allow_meshed", [True, False])
@SEARCHES
def test_skipping_searches_plan_as_the_references_from_other_starts(
    search, reference, allow_meshed, start, fixture_model, fixture_meter_map
):
    config = _normal(fixture_model)
    for name, closed in OTHER_STARTS[start].items():
        config = config.with_switch(name, closed)
    skipped_total = 0
    for case in sorted(CASE_PATTERNS):
        demand = _case_demand(fixture_model, fixture_meter_map, case)
        args = (fixture_model, config, demand, Weights(), allow_meshed, DEFAULT_BAND)
        skipped_total += _skipped_as_reference(search, reference, args, case)
    # even from an infeasible start, where nothing is skipped before a feasible plan
    if search is exhaustive_best:
        assert skipped_total > 0


def test_minimal_toggle_tie_break(fixture_model):
    # with no attack, every feasible zero-violation config is tied on
    # violations; the oracle must hand back the zero-toggle plan
    oracle = exhaustive_best(fixture_model, _normal(fixture_model))
    assert oracle.toggles == ()
    assert oracle.post_violations == 0


def test_sweep_scalar_never_decreases(fixture_model, fixture_meter_map):
    demand = _case_demand(fixture_model, fixture_meter_map, 4)
    plan = best_response_sweep(
        fixture_model, _normal(fixture_model), demand, allow_meshed=True
    )
    accepted = [e for e in plan.search_log if e["scalar"] is not None]
    # replay the sweep's accepted moves: payoffs of successive working configs
    best_so_far = None
    for entry in accepted:
        if best_so_far is None or entry["scalar"] > best_so_far:
            best_so_far = entry["scalar"]
    final = payoff(
        fixture_model,
        _normal(fixture_model),
        SwitchConfig.from_mapping(fixture_model, plan.chosen),
        demand,
        allow_meshed=True,
    )
    assert final.scalar >= (best_so_far if best_so_far is not None else INFEASIBLE)


# ---------------------------------------------------------------------------
# live loop
# ---------------------------------------------------------------------------


def test_mitigate_once_quiescent_makes_no_writes(live_server, fixture_model, fixture_meter_map):
    with ModbusClient(*live_server.address) as client:
        coils_before = client.read_switches(fixture_model.switch_names)
        plan = mitigate_once(client, fixture_model, fixture_meter_map, allow_meshed=True)
        assert plan is None
        assert client.read_switches(fixture_model.switch_names) == coils_before


def test_mitigate_once_case_one_single_coil_write(
    live_server, fixture_model, fixture_meter_map
):
    pattern = (80, 80, 80, 1, 1, 1, 1, 1, 1)  # N102..N104 on C at 80 kW, the rest at 1
    with ModbusClient(*live_server.address) as attacker:
        attacker.write_setpoints(fixture_meter_map, pattern)
    try:
        with ModbusClient(*live_server.address) as defender:
            plan = mitigate_once(
                defender, fixture_model, fixture_meter_map, allow_meshed=True
            )
            assert plan is not None
            assert plan.toggles == ("S7",)
            assert plan.pre_violations > 0
            assert plan.observed_post_violations == 0
            coils = defender.read_switches(fixture_model.switch_names)
            assert coils["S7"] is True and coils["S8"] is False
    finally:
        with ModbusClient(*live_server.address) as cleanup:
            cleanup.write_switch(fixture_model.switch_names, "S7", False)
            cleanup.write_setpoints(fixture_meter_map, (40,) * len(pattern))


def test_mitigate_once_two_toggles_make_one_server_commit(
    live_server, fixture_model, fixture_meter_map
):
    # case 6 closes S7 and S8: one write-multiple-coils request, one solve,
    # and no reader ever meets the S7-only topology
    commits = []
    commit = live_server._commit

    def counting_commit(config, setpoints):
        commits.append(config)
        commit(config, setpoints)

    names = fixture_model.switch_names
    with ModbusClient(*live_server.address) as attacker:
        attacker.write_setpoints(fixture_meter_map, case_vector(fixture_meter_map, 6))
    live_server._commit = counting_commit
    try:
        with ModbusClient(*live_server.address) as defender:
            plan = mitigate_once(
                defender, fixture_model, fixture_meter_map, use_oracle=True, allow_meshed=True
            )
            assert plan.toggles == ("S7", "S8")
            assert plan.observed_post_violations == 0
            assert len(commits) == 1
            assert commits[0].as_dict() == plan.chosen
            assert defender.read_switches(names) == plan.chosen
    finally:
        del live_server._commit
        with ModbusClient(*live_server.address) as cleanup:
            cleanup.write_switches(names, {"S7": False, "S8": False})
            cleanup.write_setpoints(
                fixture_meter_map, (40,) * len(fixture_meter_map.setpoints)
            )
            assert cleanup.read_switches(names) == _normal(fixture_model).as_dict()


def test_write_switches_read_back_mismatch_raises(scripted_peer, fixture_model):
    # the write is acknowledged but the read-back shows S8 still open
    peer = scripted_peer([
        mbap_frame(1, frames.Pdu(frames.FC_WRITE_COILS, 6, 2)),
        mbap_frame(2, frames.Pdu(frames.FC_READ_COILS, 6, 2, (True, False))),
    ])
    with ModbusClient(*peer.address) as client:
        with pytest.raises(RuntimeError, match="read-back mismatch"):
            client.write_switches(fixture_model.switch_names, {"S7": True, "S8": True})
    peer.join()
    assert [frames.decode_request(pdu) for _, pdu in peer.requests] == [
        frames.Pdu(frames.FC_WRITE_COILS, 6, 2, (True, True)),
        frames.Pdu(frames.FC_READ_COILS, 6, 2),
    ]


def test_write_switches_rejects_unmapped_names_and_gaps(scripted_peer, fixture_model):
    peer = scripted_peer([])
    names = fixture_model.switch_names
    with ModbusClient(*peer.address) as client:
        with pytest.raises(ValueError, match="S99"):
            client.write_switches(names, {"S99": True})
        with pytest.raises(ValueError, match="'S7'"):  # S6 and S8 named, S7 between them not
            client.write_switches(names, {"S6": True, "S8": True})
        client.write_switches(names, {})
    peer.join()
    assert peer.requests == []


@pytest.mark.parametrize("field", ["violation", "cost"])
@pytest.mark.parametrize("value", [-5.0, -1e-9, math.nan, math.inf, -math.inf])
def test_weights_reject_negative_and_non_finite_values(field, value):
    with pytest.raises(ValueError, match=f"weights.{field}"):
        Weights(**{field: value})


def test_weights_accept_zero():
    assert Weights(0.0, 0.0) == Weights(violation=0, cost=0)


def test_run_mitigation_unreachable_server_retries_then_fails(fixture_model, fixture_meter_map):
    def connect():
        return ModbusClient("127.0.0.1", 9, timeout=0.2)

    with pytest.raises(MitigationError, match="unreachable"):
        run_mitigation(
            connect, fixture_model, fixture_meter_map, once=True, max_retries=2
        )


def test_run_mitigation_reconnects_after_malformed_reply(
    scripted_peer, live_server, fixture_model, fixture_meter_map
):
    # the first connection's voltage read is answered as if it read coils
    peer = scripted_peer([mbap_frame(1, frames.Pdu(frames.FC_READ_COILS, 0, 1, (False,)))])
    addresses = iter([peer.address, live_server.address])
    pattern = (80, 80, 80, 1, 1, 1, 1, 1, 1)  # N102..N104 on C at 80 kW, the rest at 1
    with ModbusClient(*live_server.address) as attacker:
        attacker.write_setpoints(fixture_meter_map, pattern)
    try:
        plans = run_mitigation(
            lambda: ModbusClient(*next(addresses)),
            fixture_model, fixture_meter_map, once=True, allow_meshed=True,
        )
        assert len(peer.requests) == 1
        assert [plan.toggles for plan in plans] == [("S7",)]
    finally:
        with ModbusClient(*live_server.address) as cleanup:
            cleanup.write_switch(fixture_model.switch_names, "S7", False)
            cleanup.write_setpoints(fixture_meter_map, (40,) * len(pattern))


def test_plan_json_round_trip(fixture_model, fixture_meter_map):
    demand = _case_demand(fixture_model, fixture_meter_map, 1)
    plan = best_response_sweep(
        fixture_model, _normal(fixture_model), demand, allow_meshed=True
    )
    doc = json.loads(plan.to_json())
    assert doc["toggles"] == ["S7"]
    assert doc["method"] == "sweep"
    assert doc["post_violations"] == 0
