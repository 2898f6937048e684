"""Sweep solver and voltage metrics against independent oracles."""

import itertools
import json
import math
import random
import warnings

import numpy as np
import pytest

from gridbed.feeder import (
    PHASES,
    SwitchConfig,
    apply_switch_config,
    default_feeder_text,
    load_feeder,
)
from gridbed.modbus import frames
from gridbed.modbus.client import ModbusClient
from gridbed.powerflow import (
    PowerFlowError,
    _Tree,
    count_violations,
    max_unbalance,
    solve,
)
from gridbed.regmap import MeterMap
from gridbed.scenario import CASE_PATTERNS, case_vector

from conftest import four_bus_doc, mbap_frame, two_bus_doc
from oracles import (
    demand_with,
    dense_nodal_solve,
    max_unbalance_reference,
    reachable_from,
    sweep_reference,
    tree_branches,
    two_bus_receiving_magnitude,
    unbalance_at,
    violations_reference,
)


def _view(model, config=None):
    return apply_switch_config(model, config or SwitchConfig.normal(model))


def _complex(solution):
    """{(bus, phase): complex pu} from the solution's meter-order array."""
    return dict(zip(solution.meters, solution.voltages))


def _mags(solution):
    """{(bus, phase): pu} from the solution's meter-order reading."""
    return dict(zip(solution.meters, solution.magnitudes()))


def _layout(meters):
    return MeterMap(meters, ()).layout


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_zero_load_is_flat_in_one_iteration():
    model = load_feeder(json.dumps(two_bus_doc(load_kw=0.0)))
    solution = solve(model, _view(model))
    assert solution.converged
    assert solution.iterations == 1
    assert _mags(solution)[("B1", "A")] == pytest.approx(1.0, abs=1e-12)


def test_two_bus_matches_closed_form():
    # 100 kW through 0.01 + j0.01 ohm (= per-unit on the 1 kV / 1 MVA-phase
    # base); closed-form quadratic solution computed in oracles.py
    model = load_feeder(json.dumps(two_bus_doc(load_kw=100.0, r=0.01, x=0.01)))
    solution = solve(model, _view(model))
    assert solution.converged
    expected = two_bus_receiving_magnitude(1000.0, 0.01, 0.01, 100e3, 0.0) / 1000.0
    assert expected == pytest.approx(0.998998496489339, abs=1e-12)
    assert _mags(solution)[("B1", "A")] == pytest.approx(expected, abs=1e-6)


def test_fixture_baseline_converges_clean(fixture_model):
    solution = solve(fixture_model, _view(fixture_model))
    assert solution.converged
    reading = solution.magnitudes()
    assert count_violations(reading) == 0
    assert violations_reference(solution.meters, reading) == ([], [])


def test_source_voltage_exact(fixture_model):
    solution = solve(fixture_model, _view(fixture_model))
    v = _complex(solution)
    assert v[("N150", "A")] == 1.0 + 0j
    assert abs(v[("N150", "B")] - complex(-0.5, -(3 ** 0.5) / 2)) < 1e-15
    assert abs(v[("N150", "C")] - complex(-0.5, +(3 ** 0.5) / 2)) < 1e-15


def test_de_energized_buses_report_zero(fixture_model):
    config = SwitchConfig.normal(fixture_model).with_switch("S5", False)
    view = apply_switch_config(fixture_model, config)
    solution = solve(fixture_model, view)
    assert solution.converged
    assert "N101" not in view.energized
    v = _complex(solution)
    assert v[("N101", "A")] == 0.0
    assert v[("N104", "C")] == 0.0


def test_override_on_dead_bus_draws_nothing(fixture_model):
    config = SwitchConfig.normal(fixture_model).with_switch("S5", False)
    view = apply_switch_config(fixture_model, config)
    assert "N102" not in view.energized
    without = solve(fixture_model, view)
    dead_load = demand_with(fixture_model, {"N102": {"C": (80.0, 0.0)}})
    with_dead = solve(fixture_model, view, dead_load)
    assert with_dead.converged and with_dead.iterations == without.iterations
    assert with_dead.voltages.tobytes() == without.voltages.tobytes()


def test_demand_on_an_uncarried_phase_draws_nothing(fixture_model):
    view = _view(fixture_model)
    row = fixture_model.bus_index["N102"]
    missing = next(p for p in PHASES if p not in fixture_model.bus("N102").phases)
    demand = fixture_model.base_demand.copy()
    demand[row, PHASES.index(missing)] = 80e3 + 10e3j
    without = solve(fixture_model, view)
    with_uncarried = solve(fixture_model, view, demand)
    assert with_uncarried.iterations == without.iterations
    assert with_uncarried.voltages.tobytes() == without.voltages.tobytes()


@pytest.mark.parametrize("shape", [(0, 3), (10, 3), (124, 2), (372,)])
def test_demand_of_another_shape_raises(fixture_model, shape):
    assert fixture_model.base_demand.shape != shape
    with pytest.raises(PowerFlowError, match="demand of shape"):
        solve(fixture_model, _view(fixture_model), np.zeros(shape, dtype=complex))


def test_solve_leaves_the_demand_it_is_given_untouched(fixture_model):
    # a search shares one demand across every candidate it solves
    config = SwitchConfig.normal(fixture_model).with_switch("S5", False)
    demand = fixture_model.base_demand.copy()
    solve(fixture_model, _view(fixture_model, config), demand)
    assert demand.tobytes() == fixture_model.base_demand.tobytes()


def test_meshed_configs_solve_with_loop_compensation(fixture_model):
    both = (
        SwitchConfig.normal(fixture_model)
        .with_switch("S7", True)
        .with_switch("S8", True)
    )
    view = apply_switch_config(fixture_model, both)
    solution = solve(fixture_model, view)
    assert solution.converged
    # zero-impedance ties: endpoints ride at one voltage, to solver tolerance
    v = _complex(solution)
    for a, b in (("N54", "N105"), ("N71", "N114")):
        pa = set(fixture_model.bus(a).phases) & set(fixture_model.bus(b).phases)
        for p in pa:
            assert v[(a, p)] == pytest.approx(v[(b, p)], abs=2e-6)


def test_meshed_iterates_meet_the_ties_at_case_six_load(fixture_model, fixture_meter_map):
    # each loop-current correction moves the voltages in its own iteration,
    # so a meshed solve converges in about as many iterations as a radial one
    demand = fixture_meter_map.demand(fixture_model, case_vector(fixture_meter_map, 6))
    normal = SwitchConfig.normal(fixture_model)
    for ties, most in ((("S8",), 6), (("S7", "S8"), 5)):
        config = normal
        for tie in ties:
            config = config.with_switch(tie, True)
        solution = solve(fixture_model, _view(fixture_model, config), demand)
        assert solution.converged
        assert solution.iterations <= most, (ties, solution.iterations)


def test_solve_on_a_warm_model_is_bit_identical_to_a_cold_one(fixture_meter_map):
    model = load_feeder(default_feeder_text())
    demand = fixture_meter_map.demand(model, case_vector(fixture_meter_map, 6))
    configs = [
        SwitchConfig(model.switch_names, sum(b << i for i, b in enumerate(closed)))
        for closed in itertools.product((False, True), repeat=len(model.switch_names))
    ]
    cold = [solve(model, _view(model, config), demand) for config in configs]
    for config, first in zip(configs, cold):
        view = _view(model, config)
        tree = view.derived["tree"]
        warm = solve(model, view, demand)
        assert view.derived["tree"] is tree
        assert (warm.converged, warm.iterations, warm.max_mismatch_pu) == (
            first.converged, first.iterations, first.max_mismatch_pu,
        )
        assert warm.voltages.tobytes() == first.voltages.tobytes()
    meshed = next(_Tree.of(_view(model, c)) for c in configs if _view(model, c).loops)
    for array in (meshed.fed, meshed.ends, meshed.tie_z, meshed.d, meshed.response,
                  meshed.loop_matrix):
        assert not array.flags.writeable
    # a one-phase branch's step holds its phase and self-impedance, any
    # other branch's its nine impedances and three mask entries
    assert type(meshed.steps) is tuple
    shapes = set()
    for row, up, phase, z, mask in meshed.steps:
        assert type(row) is int and type(up) is int
        if mask is None:
            assert type(phase) is int and 0 <= phase < 3 and type(z) is complex
        else:
            assert phase is None and type(z) is tuple and type(mask) is tuple
            assert (len(z), len(mask)) == (9, 3)
        shapes.add(mask is None)
    assert shapes == {True, False}


def _every_view(model):
    for closed in itertools.product((False, True), repeat=len(model.switch_names)):
        config = SwitchConfig(model.switch_names, sum(b << i for i, b in enumerate(closed)))
        yield _view(model, config)


def _conducts(view):
    """Where a sweep's voltages may be nonzero: the source's row and, per
    tree bus, the phases its tree branch conducts, read from the view and the
    model."""
    conducts = np.zeros((len(view.model.buses), 3), dtype=bool)
    conducts[view.model.bus_index[view.order[0]]] = True
    for row, _, _, mask in tree_branches(view):
        conducts[row] = mask
    return conducts


def _assert_agrees_with_reference(view, rng):
    # the kernel matches the numpy reference, and buses off the tree and
    # phases a bus's branch does not conduct read exactly 0, with or
    # without a trailing axis
    tree = _Tree.of(view)
    shape = (len(view.model.buses), 3)
    source = rng.normal(size=3) + 1j * rng.normal(size=3)
    for current in (
        rng.normal(size=shape) + 1j * rng.normal(size=shape),
        rng.normal(size=(*shape, 4)) + 1j * rng.normal(size=(*shape, 4)),
    ):
        source_k = source if current.ndim == 2 else source[:, None]
        volts = tree.sweep(source_k, current)
        expected = sweep_reference(view, source_k, current)
        assert volts.shape == expected.shape and volts.dtype == complex
        assert np.abs(volts - expected).max() <= 1e-15 * np.abs(expected).max()
        assert not volts[~_conducts(view)].any()


def test_sweep_agrees_with_the_numpy_reference_on_every_view():
    model = load_feeder(default_feeder_text())
    rng = np.random.default_rng(23)
    for view in _every_view(model):
        _assert_agrees_with_reference(view, rng)


def test_sweep_agrees_with_the_numpy_reference_on_a_two_phase_spur():
    # the bundled feeder has no two-phase branch; this spur conducts A and B
    model = load_feeder(json.dumps(four_bus_doc()))
    view = _view(model)
    assert sorted(mask.sum() for _, _, _, mask in tree_branches(view)) == [2, 3, 3]
    _assert_agrees_with_reference(view, np.random.default_rng(24))


def test_sweep_propagates_nan_as_the_numpy_reference_does(fixture_model):
    # a NaN current reaches the same voltages as in the reference on every
    # phase a bus's branch conducts, and phases it does not conduct read 0
    config = SwitchConfig.normal(fixture_model).with_switch("S7", True)
    view = _view(fixture_model, config)
    current = np.zeros((len(fixture_model.buses), 3), dtype=complex)
    current[fixture_model.bus_index[view.order[-1]]] = np.nan
    volts = _Tree.of(view).sweep(np.ones(3), current)
    expected = sweep_reference(view, np.ones(3), current)
    conducts = _conducts(view)
    live, reference = volts[conducts], expected[conducts]
    assert np.isnan(live).any()
    assert (np.isnan(live) == np.isnan(reference)).all()
    assert (live[~np.isnan(reference)] == reference[~np.isnan(reference)]).all()
    assert not volts[~conducts].any()


@pytest.mark.parametrize("bus", ["T", "U"])
@pytest.mark.parametrize("phase", range(3))
def test_sweep_propagates_nan_through_a_two_phase_spur(bus, phase):
    # The spur M-U conducts A and B and keeps its mask multiplies next to the
    # all-phase trunk, which skips them.  A NaN current at the three-phase
    # leaf T or at U reaches the same voltages as in the reference on every
    # phase a bus's branch conducts.  On the phase the spur does not conduct
    # both read NaN, as NaN * 0 does, where a finite current reads 0.
    model = load_feeder(json.dumps(four_bus_doc()))
    view = _view(model)
    tree = _Tree.of(view)
    current = np.zeros((len(model.buses), 3), dtype=complex)
    current[model.bus_index[bus], phase] = np.nan
    volts = tree.sweep(np.ones(3), current)
    expected = sweep_reference(view, np.ones(3), current)
    conducts = _conducts(view)
    assert (np.isnan(volts) == np.isnan(expected)).all()
    live, reference = volts[conducts], expected[conducts]
    assert np.isnan(live).any()
    assert (live[~np.isnan(reference)] == reference[~np.isnan(reference)]).all()
    unfed = model.bus_index["U"], 2
    assert not conducts[unfed] and np.isnan(volts[unfed])
    current[model.bus_index[bus], phase] = 1.0
    assert tree.sweep(np.ones(3), current)[unfed] == 0


def test_non_convergence_flagged_not_raised():
    # load far beyond deliverable power collapses the fixed point
    model = load_feeder(json.dumps(two_bus_doc(load_kw=40000.0)))
    solution = solve(model, _view(model))
    assert not solution.converged
    assert solution.iterations == 100
    with pytest.raises(PowerFlowError, match="non-converged"):
        solution.magnitudes()


@pytest.mark.xfail(
    strict=True,
    reason="sweep defect, mended by a spanning tree whose every branch conducts "
    "each phase fed at its lower bus: a phase counts as fed only along its tree "
    "path, so closing the phase-A tie S8 starves 15 B/C meter points; N108 B/C "
    "read 0, but the other 13 read 7.2e-5 to 1.65e-4 pu, the mutual drop of the "
    "phase-A current, and count_violations counts them as violations, not outages",
)
def test_meters_connected_on_their_phase_are_fed_with_s8_closed(fixture_model):
    config = SwitchConfig.normal(fixture_model).with_switch("S8", True)
    solution = solve(fixture_model, _view(fixture_model, config))
    assert solution.converged
    closed = config.as_dict()
    mags = _mags(solution)
    starved = []
    for p in PHASES:
        # branches that carry phase p: in service, and p at both endpoints
        edges = [
            (br.from_bus, br.to_bus)
            for br in fixture_model.branches
            if (not br.is_switch or closed[br.switch])
            and p in fixture_model.bus(br.from_bus).phases
            and p in fixture_model.bus(br.to_bus).phases
        ]
        for bus in sorted(reachable_from(fixture_model.source_bus, edges)):
            if p in fixture_model.bus(bus).phases and mags[(bus, p)] <= 0.5:
                starved.append((bus, p))
    assert not starved


# ---------------------------------------------------------------------------
# solver vs dense nodal oracle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "doc",
    [
        two_bus_doc(),
        two_bus_doc(load_kw=250.0, load_kvar=90.0, r=0.02, x=0.05, phase="B"),
        four_bus_doc(),
    ],
    ids=["two-bus", "two-bus-reactive", "four-bus"],
)
def test_solver_matches_dense_oracle(doc):
    model = load_feeder(json.dumps(doc))
    solution = solve(model, _view(model))
    assert solution.converged
    oracle = dense_nodal_solve(model)
    v = _complex(solution)
    for bus in model.buses:
        for p in bus.phases:
            assert abs(v[(bus.id, p)] - oracle[bus.id][p]) < 1e-6, (
                bus.id,
                p,
            )


def test_solver_matches_oracle_with_overrides(four_bus_model):
    demand = demand_with(four_bus_model, {"T": {"B": (260.0, 60.0)}, "U": {"A": (10.0, 2.0)}})
    solution = solve(four_bus_model, _view(four_bus_model), demand)
    oracle = dense_nodal_solve(four_bus_model, demand)
    v = _complex(solution)
    for bus in four_bus_model.buses:
        for p in bus.phases:
            assert abs(v[(bus.id, p)] - oracle[bus.id][p]) < 1e-6


@pytest.mark.parametrize("ties", [(), ("S7",), ("S7", "S8")], ids=["normal", "S7", "S7+S8"])
def test_fixture_matches_dense_oracle_radial_and_meshed(fixture_model, fixture_meter_map, ties):
    # the oracle merges the points a closed switch joins; it shares no code
    # with the sweep or its loop compensation
    config = SwitchConfig.normal(fixture_model)
    for tie in ties:
        config = config.with_switch(tie, True)
    view = _view(fixture_model, config)
    closed = {name for name, state in config.as_dict().items() if state}
    loads = [None] + [
        fixture_meter_map.demand(fixture_model, case_vector(fixture_meter_map, case))
        for case in sorted(CASE_PATTERNS)
    ]
    for pattern, demand in enumerate(loads):
        solution = solve(fixture_model, view, demand)
        assert solution.converged
        oracle = dense_nodal_solve(fixture_model, demand, closed=closed)
        worst = max(abs(v - oracle[b][p]) for (b, p), v in _complex(solution).items())
        assert worst < 1e-5, (pattern, worst)


# ---------------------------------------------------------------------------
# conservation / monotonicity properties
# ---------------------------------------------------------------------------


def _complex_power_balance(model, solution):
    """Source injection minus (loads + line losses), in VA."""
    v = {point: val * model.base_volts_ln for point, val in _complex(solution).items()}
    load = 0j
    for bus in model.buses:
        for p in bus.phases:
            load += complex(bus.load_kw[PHASES.index(p)], bus.load_kvar[PHASES.index(p)]) * 1000.0

    loss = 0j
    injected = 0j
    for br in model.branches:
        shared = [
            p
            for p in PHASES
            if p in model.bus(br.from_bus).phases and p in model.bus(br.to_bus).phases
        ]
        z = [
            [br.z_ohm[PHASES.index(pi)][PHASES.index(pj)] for pj in shared]
            for pi in shared
        ]
        dv = [v[(br.from_bus, p)] - v[(br.to_bus, p)] for p in shared]
        import numpy as np

        zm = np.array(z)
        if np.allclose(zm, 0):
            continue
        cur = np.linalg.solve(zm, np.array(dv))
        loss += complex(np.vdot(cur, np.array(dv)))
    return load, loss


def test_power_conservation(four_bus_model):
    solution = solve(four_bus_model, _view(four_bus_model))
    assert solution.converged
    load, loss = _complex_power_balance(four_bus_model, solution)

    # source injection computed independently from the source branch currents
    import numpy as np

    model = four_bus_model
    br = model.branches[0]
    z = np.array(
        [
            [br.z_ohm[i][j] for j in range(3)]
            for i in range(3)
        ]
    )
    vb = model.base_volts_ln
    v = _complex(solution)
    v_from = np.array([v[("S", p)] * vb for p in PHASES])
    v_to = np.array([v[("M", p)] * vb for p in PHASES])
    cur = np.linalg.solve(z, v_from - v_to)
    injected = complex(np.vdot(cur, v_from))
    assert abs(injected - (load + loss)) <= 10 * 1e-6 * model.base_va


def test_increasing_load_weakly_decreases_feed_path_voltage(fixture_model):
    view = _view(fixture_model)
    base = _mags(solve(fixture_model, view))
    heavier = demand_with(fixture_model, {"N104": {"C": (120.0, 0.0)}})
    bumped = _mags(solve(fixture_model, view, heavier))
    # every bus on the feed path to N104 sags (weakly) on the loaded phase
    for bus in ("N101", "N102", "N103", "N104", "N97", "N67"):
        assert bumped[(bus, "C")] <= base[(bus, "C")] + 1e-12


def test_load_scaling_to_zero_gives_flat_profile(fixture_model):
    solution = solve(fixture_model, _view(fixture_model), np.zeros_like(fixture_model.base_demand))
    assert solution.converged
    for mag in solution.magnitudes():
        assert mag == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_unbalance_examples():
    assert unbalance_at(1.0, 1.0, 1.0) == 0.0
    assert unbalance_at(1.0, 1.0, 0.94) == pytest.approx(4.081632653061225, rel=1e-12)
    assert unbalance_at(0.98, 0.98, 0.98) == 0.0


def test_unbalance_scale_invariance():
    rng = random.Random(7)
    for _ in range(200):
        mags = [rng.uniform(0.5, 1.5) for _ in range(3)]
        k = rng.uniform(0.1, 10.0)
        assert unbalance_at(*mags) == pytest.approx(
            unbalance_at(*(k * m for m in mags)), rel=1e-9
        )


def test_unbalance_rejects_nonpositive():
    with pytest.raises(ValueError):
        unbalance_at(1.0, 0.0, 1.0)


def test_max_unbalance_balanced_loading(fixture_model, fixture_meter_map):
    overrides = {
        b.id: {p: (10.0, 3.0) for p in b.phases}
        for b in fixture_model.buses
        if len(b.phases) == 3
    }
    # single-phase buses keep their loads; zero them for a fully balanced case
    for b in fixture_model.buses:
        if len(b.phases) == 1 and b.id in fixture_model.load_buses:
            overrides[b.id] = {b.phases[0]: (0.0, 0.0)}
    solution = solve(fixture_model, _view(fixture_model), demand_with(fixture_model, overrides))
    assert max_unbalance(solution.magnitudes(), fixture_meter_map.layout) == pytest.approx(
        0.0, abs=1e-6
    )


def test_max_unbalance_single_bus_case(four_bus_model):
    solution = solve(four_bus_model, _view(four_bus_model))
    reading = solution.magnitudes()
    per_bus, max_pct, max_bus = max_unbalance_reference(solution.meters, reading)
    assert set(per_bus) == {"S", "M", "T"}  # U carries two phases only
    assert max_unbalance(reading, _layout(solution.meters)) == max_pct == per_bus[max_bus]
    assert all(v >= 0 for v in per_bus.values())

    # no bus with three live phases, from the solver and as read off the wire
    # (D has a dead phase): nothing to measure
    two_bus = load_feeder(json.dumps(two_bus_doc()))
    solved = solve(two_bus, _view(two_bus))
    wire = (("B1", "A"), ("U", "A"), ("U", "B"), ("D", "A"), ("D", "B"), ("D", "C"))
    for meters, reading in (
        (solved.meters, solved.magnitudes()),
        (wire, (0.97, 1.0, 0.99, 1.0, 0.0, 1.0)),
    ):
        assert max_unbalance(reading, _layout(meters)) == 0.0
        assert max_unbalance_reference(meters, reading) == ({}, 0.0, None)


def _random_reading(rng):
    """A wire-shaped ``(meters, reading)`` pair over random buses carrying one,
    two or three phases, with outages, NaN and infinite magnitudes, repeated
    magnitude triples and shuffled meter order."""
    points = []
    triples = [tuple(rng.choice((0.85, 0.95, 1.0, 1.1)) for _ in range(3)) for _ in range(3)]
    for n in range(rng.randrange(0, 60)):
        phases = rng.choice(("A", "B", "C", "AB", "BC", "AC", "ABC", "ABC", "ABC"))
        if len(phases) == 3 and rng.random() < 0.4:
            mags = rng.choice(triples)
        else:
            mags = [rng.uniform(0.98, 1.02) for _ in phases]
        bus = f"N{rng.randrange(1000)}x{n}"
        for phase, mag in zip(phases, mags):
            draw = rng.random()
            if draw < 0.05:
                mag = 0.0
            elif draw < 0.08:
                mag = rng.choice((math.nan, math.inf, -math.inf))
            points.append(((bus, phase), mag))
    rng.shuffle(points)
    meters = tuple(point for point, _ in points)
    return meters, tuple(mag for _, mag in points)


def test_metrics_equal_scalar_references():
    rng = random.Random(15)
    counts, non_finite = [], 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for _ in range(300):
            meters, reading = _random_reading(rng)
            points, _ = violations_reference(meters, reading)
            _, max_pct, _ = max_unbalance_reference(meters, reading)
            counts.append(count_violations(reading))
            assert counts[-1] == len(points)
            assert max_unbalance(reading, _layout(meters)) == max_pct
            non_finite += not all(map(math.isfinite, reading))
    assert non_finite and max(counts) > 0


def test_max_unbalance_equals_reference_on_solver_output(fixture_model, fixture_meter_map):
    view = _view(fixture_model)
    for case in sorted(CASE_PATTERNS):
        demand = fixture_meter_map.demand(fixture_model, case_vector(fixture_meter_map, case))
        reading = solve(fixture_model, view, demand).magnitudes()
        _, max_pct, _ = max_unbalance_reference(fixture_meter_map.meters, reading)
        assert max_unbalance(reading, fixture_meter_map.layout) == max_pct


def test_infinite_phase_leaves_its_bus_out_in_either_key_order():
    x = ((("X", "A"), 1.0), (("X", "B"), float("inf")), (("X", "C"), 1.0))
    y = ((("Y", "A"), 1.0), (("Y", "B"), 1.1), (("Y", "C"), 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for points in (x + y, y + x):
            meters, reading = zip(*points)
            per_bus, max_pct, max_bus = max_unbalance_reference(meters, reading)
            assert per_bus == {"Y": max_pct}
            assert (max_bus, round(max_pct, 2)) == ("Y", 6.45)
            assert max_unbalance(reading, _layout(meters)) == max_pct


def test_non_finite_float_words_off_the_wire(scripted_peer, four_bus_model):
    # meters S A..C, M A..C, T A..C, U A..B; FLOAT32 words high word first
    meter_map = MeterMap.for_model(four_bus_model, setpoint_nodes=())
    one, low, nan, inf = (0x3F80, 0), (0x3F66, 0x6666), (0x7FC0, 0), (0x7F80, 0)
    pairs = [one, one, low, one, nan, one, one, one, inf, one, one]
    assert len(pairs) == len(meter_map.meters)
    words = tuple(w for pair in pairs for w in pair)
    peer = scripted_peer([mbap_frame(1, frames.Pdu(frames.FC_READ_HOLDING, 0, len(words), words))])
    with ModbusClient(*peer.address) as client:
        reading = client.read_all_voltages(meter_map, source="float")
    assert np.isnan(reading[4]) and reading[8] == float("inf")  # M B, T C
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        count = count_violations(reading)
        unbalance = max_unbalance(reading, meter_map.layout)
    # a non-finite magnitude is a violation, never an outage
    points, outages = violations_reference(meter_map.meters, reading)
    assert [(bus, phase) for bus, phase, _ in points] == [("S", "C"), ("M", "B"), ("T", "C")]
    assert (count, outages) == (3, [])
    # a bus with a non-finite phase is left out of unbalance
    per_bus, max_pct, max_bus = max_unbalance_reference(meter_map.meters, reading)
    assert set(per_bus) == {"S"} and max_bus == "S" and unbalance == max_pct


def test_count_violations_band_logic():
    meters, reading = (("B1", "A"), ("B2", "A"), ("B3", "A")), (1.0, 0.94, 0.0)
    assert count_violations(reading) == 1
    assert violations_reference(meters, reading) == ([("B2", "A", 0.94)], [("B3", "A")])
    with pytest.raises(PowerFlowError, match="inverted"):
        count_violations(reading, band=(1.05, 0.95))


def test_count_violations_reports_points_and_outages(fixture_model):
    config = SwitchConfig.normal(fixture_model).with_switch("S6", False)
    view = apply_switch_config(fixture_model, config)
    solution = solve(fixture_model, view)
    reading = solution.magnitudes()
    points, outages = violations_reference(solution.meters, reading)
    assert count_violations(reading) == len(points)
    assert ("N135", "A") in outages  # zone behind S6 went dark
    for _, _, mag in points:
        assert mag < 0.95 or mag > 1.05


def test_violation_count_invariant_under_bus_order(fixture_model):
    heavy = demand_with(fixture_model, {"N102": {"C": (160.0, 0.0)}})
    solution = solve(fixture_model, _view(fixture_model), heavy)
    reading = solution.magnitudes()
    points = sorted(zip(solution.meters, reading), key=lambda kv: hash(kv[0]))
    shuffled = [mag for _, mag in points]
    assert count_violations(shuffled) == count_violations(reading)
