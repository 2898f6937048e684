#!/usr/bin/env python3
"""Builds the bundled IEEE-123-like feeder fixture.

The layout: a stiff three-phase trunk from the substation (N150) down to the
far zone (N97..N108), side branches and single-phase twigs sized so the far
zone sits a little above the lower service limit at base load, and two
normally-open ties:

* S7 bridges mid-trunk N54 to far-zone spine N105 (three-phase),
* S8 bridges lateral end N71 to lateral end N114 (phase A).

The nine controllable load nodes live in the far zone: N102-N104 on phase C,
N106/N107/N99 on phase B, N109/N111/N114 on phase A, each at 40 kW base.

Usage:
    python tools/make_fixture.py --check          # print the tuning scorecard
    python tools/make_fixture.py --write          # write src/gridbed/data/ieee123.json
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

BASE_KV_LN = 2.4018  # 4.16 kV line-to-line
BASE_KVA = 5000.0

# ---------------------------------------------------------------------------
# Impedance knobs (ohms per segment)
# ---------------------------------------------------------------------------
Z_HEAD = dict(rs=0.0050, xs=0.012, rm=0.0006, xm=0.0025)  # source..N54
Z_MID = dict(rs=0.0085, xs=0.019, rm=0.0009, xm=0.0038)   # N55..N97
Z_FEED = dict(rs=0.010, xs=0.018, rm=0.0010, xm=0.0036)   # far-zone spine
Z_BRANCH = dict(rs=0.040, xs=0.060, rm=0.004, xm=0.012)   # side branches
TWIG_Z = (0.110, 0.110)       # generic single-phase twig segment
CTWIG_Z = (0.155, 0.145)      # N101 -> N102 -> N103 -> N104
BTWIG_Z = (0.350, 0.270)      # N105 -> N106 -> N107 and N197 -> N98..N100
ALAT_Z = (0.210, 0.190)       # N108 -> N109 .. N114 (weak lateral)
XTRA_Z = (0.100, 0.100)       # N300/N350/N450/N451 stubs

# Load knobs (kW; kvar produced from a fixed power factor ratio)
KVAR_RATIO = 0.45
TWIG_KW = 35.0
ZONE3_HELPER_KW = 8.0       # non-controlled single-phase nodes in the far zone
ZONE3_STUB_KW = 20.0        # stub ends past the controlled twigs
ZONE3_SPINE_KW = 30.0       # per-phase balanced load at N197/N101/N105/N108
TRUNK_SPOT_KW = 20.0        # per-phase balanced load at selected trunk buses
ATTACK_NODE_KW = 40.0

TRUNK = [
    "N150", "N149", "N1", "N7", "N8", "N13", "N152", "N52", "N53", "N54",
    "N55", "N57", "N60", "N160", "N67", "N72", "N76", "N77", "N80", "N81",
    "N82", "N86", "N87", "N89", "N91", "N93", "N95", "N97", "N197", "N101",
    "N105", "N108",
]
TRUNK_SWITCHES = {
    ("N149", "N1"): ("S1", "closed"),
    ("N13", "N152"): ("S2", "closed"),
    ("N54", "N55"): ("S3", "closed"),
    ("N60", "N160"): ("S4", "closed"),
    ("N97", "N197"): ("S5", "closed"),
}
HEAD_SPAN = set(TRUNK[: TRUNK.index("N55")])
FEED_SPAN = {"N197", "N101", "N105", "N108"}

R2_CHAIN = ["N18", "N21", "N23", "N25", "N28", "N29", "N30"]  # off N13

# (bus, phase, parent)
ONE_PHASE = [
    # head region
    ("N2", "B", "N1"), ("N3", "C", "N1"), ("N4", "C", "N3"),
    ("N5", "C", "N7"), ("N6", "C", "N5"),
    ("N9", "A", "N8"), ("N10", "A", "N9"), ("N11", "A", "N10"),
    ("N12", "B", "N13"), ("N14", "A", "N13"),
    ("N15", "C", "N13"), ("N16", "C", "N15"), ("N17", "C", "N16"),
    # branch off N13
    ("N19", "A", "N18"), ("N20", "A", "N19"),
    ("N22", "B", "N21"), ("N24", "C", "N23"),
    ("N26", "A", "N25"), ("N27", "A", "N26"),
    ("N31", "C", "N28"), ("N32", "C", "N31"),
    ("N33", "A", "N29"), ("N34", "C", "N30"), ("N250", "B", "N30"),
    # branch behind S6
    ("N35", "A", "N135"), ("N36", "A", "N35"), ("N37", "A", "N36"),
    ("N38", "B", "N135"), ("N39", "B", "N38"), ("N40", "B", "N39"),
    ("N41", "C", "N135"), ("N42", "C", "N41"),
    # mid trunk
    ("N43", "B", "N52"),
    ("N44", "A", "N52"), ("N45", "A", "N44"), ("N46", "A", "N45"),
    ("N47", "C", "N53"), ("N48", "C", "N47"), ("N49", "C", "N48"),
    ("N50", "C", "N49"), ("N51", "C", "N50"),
    ("N56", "B", "N55"), ("N58", "B", "N57"), ("N59", "B", "N58"),
    ("N61", "C", "N60"),
    # branch off N60
    ("N62", "A", "N63"), ("N64", "B", "N63"),
    ("N65", "C", "N63"), ("N66", "C", "N65"),
    # lower trunk
    ("N68", "A", "N67"), ("N69", "A", "N68"), ("N70", "A", "N69"), ("N71", "A", "N70"),
    ("N73", "C", "N72"), ("N74", "C", "N73"), ("N75", "C", "N74"),
    ("N78", "B", "N77"),
    ("N83", "C", "N82"), ("N84", "C", "N83"), ("N85", "C", "N84"),
    ("N88", "A", "N87"), ("N90", "B", "N89"), ("N92", "C", "N91"),
    ("N94", "A", "N93"), ("N96", "B", "N95"),
    # far zone
    ("N98", "B", "N197"), ("N99", "B", "N98"), ("N100", "B", "N99"),
    ("N102", "C", "N101"), ("N103", "C", "N102"), ("N104", "C", "N103"),
    ("N106", "B", "N105"), ("N107", "B", "N106"),
    ("N109", "A", "N108"), ("N110", "A", "N109"), ("N111", "A", "N110"),
    ("N112", "A", "N111"), ("N113", "A", "N112"), ("N114", "A", "N113"),
    # far-zone stubs
    ("N300", "C", "N104"), ("N350", "C", "N300"),
    ("N450", "B", "N107"), ("N451", "B", "N450"),
]

ATTACK_NODES = {
    "N102": "C", "N103": "C", "N104": "C",
    "N106": "B", "N107": "B", "N99": "B",
    "N109": "A", "N111": "A", "N114": "A",
}
ZONE3_HELPERS = {"N98", "N100", "N110", "N112", "N113"}
ZONE3_STUBS = {"N300", "N350", "N450", "N451"}
TRUNK_SPOT_BUSES = {"N76", "N82", "N89", "N25", "N29", "N52", "N57"}
CTWIG = {("N101", "N102"), ("N102", "N103"), ("N103", "N104")}
BTWIG = {("N105", "N106"), ("N106", "N107"), ("N197", "N98"), ("N98", "N99"), ("N99", "N100")}
ALAT = {("N108", "N109"), ("N109", "N110"), ("N110", "N111"),
        ("N111", "N112"), ("N112", "N113"), ("N113", "N114")}
XTRA = {("N104", "N300"), ("N300", "N350"), ("N107", "N450"), ("N450", "N451")}


def z3(spec) -> tuple[list, list]:
    r = [[spec["rm"]] * 3 for _ in range(3)]
    x = [[spec["xm"]] * 3 for _ in range(3)]
    for i in range(3):
        r[i][i] = spec["rs"]
        x[i][i] = spec["xs"]
    return r, x


def z1(phase: str, rx: tuple[float, float]) -> tuple[list, list]:
    idx = {"A": 0, "B": 1, "C": 2}[phase]
    r = [[0.0] * 3 for _ in range(3)]
    x = [[0.0] * 3 for _ in range(3)]
    r[idx][idx], x[idx][idx] = rx
    return r, x


ZERO3 = [[0.0] * 3 for _ in range(3)]


def build_doc() -> dict:
    phases: dict[str, str] = {}
    parents: dict[str, tuple[str, dict]] = {}

    three_phase = set(TRUNK) | set(R2_CHAIN) | {"N135", "N63"}
    for bus in three_phase:
        phases[bus] = "ABC"
    for bus, phase, _ in ONE_PHASE:
        phases[bus] = phase

    branches: list[dict] = []

    def add_line(u, v, zspec, tag=None):
        if isinstance(zspec, dict):
            r, x = z3(zspec)
        else:
            r, x = z1(phases[v], zspec)
        branches.append({"from": u, "to": v, "r_ohm": r, "x_ohm": x})

    def add_switch(u, v, name, normal):
        branches.append(
            {"from": u, "to": v, "r_ohm": ZERO3, "x_ohm": ZERO3,
             "switch": name, "normal": normal}
        )

    for u, v in zip(TRUNK, TRUNK[1:]):
        if (u, v) in TRUNK_SWITCHES:
            name, normal = TRUNK_SWITCHES[(u, v)]
            add_switch(u, v, name, normal)
        elif v in FEED_SPAN:
            add_line(u, v, Z_FEED)
        elif u in HEAD_SPAN:
            add_line(u, v, Z_HEAD)
        else:
            add_line(u, v, Z_MID)

    add_line("N13", "N18", Z_BRANCH)
    for u, v in zip(R2_CHAIN, R2_CHAIN[1:]):
        add_line(u, v, Z_BRANCH)
    add_switch("N18", "N135", "S6", "closed")
    add_line("N60", "N63", Z_BRANCH)

    for bus, phase, parent in ONE_PHASE:
        edge = (parent, bus)
        if edge in CTWIG:
            rx = CTWIG_Z
        elif edge in BTWIG:
            rx = BTWIG_Z
        elif edge in ALAT:
            rx = ALAT_Z
        elif edge in XTRA:
            rx = XTRA_Z
        else:
            rx = TWIG_Z
        add_line(parent, bus, rx)

    add_switch("N54", "N105", "S7", "open")
    add_switch("N71", "N114", "S8", "open")

    buses = []
    order = (
        TRUNK
        + R2_CHAIN
        + ["N135", "N63"]
        + [b for b, _, _ in ONE_PHASE]
    )
    for bus in order:
        kw = [0.0, 0.0, 0.0]
        kvar = [0.0, 0.0, 0.0]
        pstr = phases[bus]
        if bus in ATTACK_NODES:
            idx = {"A": 0, "B": 1, "C": 2}[ATTACK_NODES[bus]]
            kw[idx] = ATTACK_NODE_KW
        elif bus in ZONE3_HELPERS:
            idx = {"A": 0, "B": 1, "C": 2}[pstr]
            kw[idx] = ZONE3_HELPER_KW
            kvar[idx] = round(ZONE3_HELPER_KW * KVAR_RATIO, 3)
        elif bus in ZONE3_STUBS:
            idx = {"A": 0, "B": 1, "C": 2}[pstr]
            kw[idx] = ZONE3_STUB_KW
            kvar[idx] = round(ZONE3_STUB_KW * KVAR_RATIO, 3)
        elif len(pstr) == 1:
            idx = {"A": 0, "B": 1, "C": 2}[pstr]
            kw[idx] = TWIG_KW
            kvar[idx] = round(TWIG_KW * KVAR_RATIO, 3)
        elif bus in FEED_SPAN:
            kw = [ZONE3_SPINE_KW] * 3
            kvar = [round(ZONE3_SPINE_KW * KVAR_RATIO, 3)] * 3
        elif bus in TRUNK_SPOT_BUSES:
            kw = [TRUNK_SPOT_KW] * 3
            kvar = [round(TRUNK_SPOT_KW * KVAR_RATIO, 3)] * 3
        buses.append(
            {"id": bus, "phases": pstr, "load_kw": kw, "load_kvar": kvar}
        )

    doc = {
        "base_kv_ln": BASE_KV_LN,
        "base_kva": BASE_KVA,
        "source": "N150",
        "buses": buses,
        "branches": branches,
    }
    return doc


def check(doc: dict):
    from gridbed.feeder import (
        SwitchConfig,
        apply_switch_config,
        is_radial,
        load_feeder,
    )
    from gridbed.mitigate import Weights, best_response_sweep, exhaustive_best
    from gridbed.powerflow import count_violations, max_unbalance, solve
    from gridbed.regmap import MeterMap
    from gridbed.scenario import CASE_PATTERNS, case_vector
    from state_digest import unbalance_by_bus, worst_bus

    model = load_feeder(json.dumps(doc))
    meter_map = MeterMap.for_model(model)
    print(f"buses={len(model.buses)} meters={len(meter_map.meters)} "
          f"switches={len(model.switch_names)} branches={len(model.branches)}")
    assert len(model.buses) >= 123
    assert len(meter_map.meters) == 206
    assert len(model.switch_names) == 8

    base = SwitchConfig.normal(model)
    view = apply_switch_config(model, base)
    print(f"base radial={is_radial(view)} energized={len(view.energized)}")
    sol = solve(model, view)
    reading = sol.magnitudes()
    mags = sorted(reading)
    print(f"baseline: converged={sol.converged} iters={sol.iterations} "
          f"min={mags[0]:.4f} max={mags[-1]:.4f} violations={count_violations(reading)} "
          f"maxU={max_unbalance(reading, meter_map.layout):.3f}% "
          f"at {worst_bus(unbalance_by_bus(reading, meter_map))}")

    unbalances = {}
    for case in sorted(CASE_PATTERNS):
        demand = meter_map.demand(model, case_vector(meter_map, case))
        s = solve(model, view, demand)
        reading = s.magnitudes()
        unbalances[case] = max_unbalance(reading, meter_map.layout)
        max_bus = worst_bus(unbalance_by_bus(reading, meter_map))
        margin = min(abs(m - 0.95) for m in reading if m > 0)
        plan = best_response_sweep(model, base, demand, Weights(), allow_meshed=True)
        oracle = exhaustive_best(model, base, demand, Weights(), allow_meshed=True)
        agree = (plan.post_violations, sorted(plan.toggles)) == (
            oracle.post_violations, sorted(oracle.toggles))
        print(
            f"case {case}: pre={count_violations(reading):3d} "
            f"maxU={unbalances[case]:.3f}% at {max_bus:6s} "
            f"margin={margin:.4f} | sweep toggles={sorted(plan.toggles)} "
            f"post={plan.post_violations} | oracle toggles={sorted(oracle.toggles)} "
            f"post={oracle.post_violations} agree={agree}"
        )
    print("orderings:",
          f"4>1: {unbalances[4] > unbalances[1]}",
          f"5>2: {unbalances[5] > unbalances[2]}",
          f"6>3: {unbalances[6] > unbalances[3]}",
          f"all<3: {all(u < 3.0 for u in unbalances.values())}")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--check", action="store_true")
    parser.add_argument("--write", action="store_true")
    args = parser.parse_args()
    doc = build_doc()
    if args.check:
        check(doc)
    if args.write:
        out = Path(__file__).resolve().parents[1] / "src" / "gridbed" / "data" / "ieee123.json"
        out.parent.mkdir(parents=True, exist_ok=True)
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1)
        print(f"wrote {out}")
    if not args.check and not args.write:
        parser.error("nothing to do: pass --check and/or --write")


if __name__ == "__main__":
    main()
