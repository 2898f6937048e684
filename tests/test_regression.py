"""Frozen per-case metrics of the bundled fixture.

These are regression baselines, not physical targets: they pin the fixture's
behavior so that accidental edits to the feeder data or the solver show up
as diffs here. Regenerating the fixture with different knobs is expected to
change them (update deliberately).
"""

import pytest

from gridbed.feeder import SwitchConfig, apply_switch_config
from gridbed.powerflow import count_violations, max_unbalance, solve
from gridbed.scenario import CASE_PATTERNS, OFF_LEVEL_MW

from oracles import demand_with, max_unbalance_reference

BASELINE_MIN_PU = 0.957075

# case -> (violation count, max unbalance %, bus where the max sits)
CASE_BASELINES = {
    1: (3, 1.038271, "N101"),
    2: (3, 0.528855, "N105"),
    3: (4, 0.810964, "N108"),
    4: (5, 1.770090, "N101"),
    5: (6, 1.266459, "N105"),
    6: (6, 1.617921, "N108"),
}


@pytest.fixture(scope="module")
def base_view(fixture_model):
    return apply_switch_config(fixture_model, SwitchConfig.normal(fixture_model))


def test_baseline_minimum_voltage(fixture_model, base_view):
    solution = solve(fixture_model, base_view)
    low = min(solution.magnitudes())
    assert low == pytest.approx(BASELINE_MIN_PU, abs=1e-5)


@pytest.mark.parametrize("case", sorted(CASE_BASELINES))
def test_case_metrics_frozen(case, fixture_model, fixture_meter_map, base_view):
    group, level = CASE_PATTERNS[case]
    demand = demand_with(fixture_model, {
        node: {phase: ((level if phase == group else OFF_LEVEL_MW) * 1000.0, 0.0)}
        for node, phase in fixture_meter_map.setpoints
    })
    solution = solve(fixture_model, base_view, demand)
    count, unbalance, at_bus = CASE_BASELINES[case]
    reading = solution.magnitudes()
    assert count_violations(reading) == count
    max_pct = max_unbalance(reading, fixture_meter_map.layout)
    assert max_pct == pytest.approx(unbalance, abs=1e-4)
    _, reference_pct, max_bus = max_unbalance_reference(fixture_meter_map.meters, reading)
    assert (reference_pct, max_bus) == (max_pct, at_bus)
