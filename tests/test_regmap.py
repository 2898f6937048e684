"""Register codec: scaled words, FLOAT32 pairs, chunk planning, image build."""

import json
import random
import struct
from dataclasses import replace

import numpy as np
import pytest

from gridbed.feeder import PHASE_INDEX, SwitchConfig, apply_switch_config, load_feeder
from gridbed.powerflow import solve
from gridbed.regmap import (
    FLOAT_BLOCK_START,
    MAX_SCALED_PU,
    SETPOINT_BLOCK_START,
    STATUS_REGISTER,
    VOLTAGE_SCALE,
    MeterMap,
    RegisterMapError,
    build_image,
    decode_float_pair,
    decode_voltage_word,
    encode_float_pair,
    encode_voltage_word,
    plan_chunked_read,
    render_register_map,
)

from conftest import three_bus_switch_doc
from oracles import demand_with


# ---------------------------------------------------------------------------
# scaled voltage words
# ---------------------------------------------------------------------------


def test_voltage_word_examples():
    assert encode_voltage_word(1.0) == 10000
    assert encode_voltage_word(0.95) == 9500
    assert encode_voltage_word(1.05) == 10500
    assert encode_voltage_word(0.98765) == 9877  # round half up
    assert decode_voltage_word(9877) == pytest.approx(0.9877)


def test_voltage_word_range():
    assert encode_voltage_word(0.0) == 0
    assert encode_voltage_word(6.5535) == 65535
    with pytest.raises(RegisterMapError):
        encode_voltage_word(6.6)
    with pytest.raises(RegisterMapError):
        encode_voltage_word(-0.001)
    with pytest.raises(RegisterMapError):
        decode_voltage_word(70000)


def test_voltage_word_round_trip_error_bound():
    rng = random.Random(11)
    for _ in range(5000):
        pu = rng.uniform(0.0, 6.5535)
        assert abs(decode_voltage_word(encode_voltage_word(pu)) - pu) <= 5e-5


# ---------------------------------------------------------------------------
# FLOAT32 pairs
# ---------------------------------------------------------------------------


def test_float_pair_examples():
    assert encode_float_pair(1.0) == (0x3F80, 0x0000)
    assert encode_float_pair(0.0) == (0x0000, 0x0000)
    assert encode_float_pair(-2.5) == (0xC020, 0x0000)


def test_float_pair_word_order():
    hi_lo = encode_float_pair(1.0, high_word_first=True)
    lo_hi = encode_float_pair(1.0, high_word_first=False)
    assert hi_lo == tuple(reversed(lo_hi))
    assert decode_float_pair(lo_hi, high_word_first=False) == 1.0


def test_float_pair_rejects_non_finite():
    with pytest.raises(RegisterMapError):
        encode_float_pair(float("nan"))
    with pytest.raises(RegisterMapError):
        encode_float_pair(float("inf"))


def test_float_pair_round_trip_bit_exact():
    rng = random.Random(23)
    for _ in range(5000):
        # draw a random FLOAT32 bit pattern, skipping NaN/inf exponents
        bits = rng.getrandbits(32)
        if (bits >> 23) & 0xFF == 0xFF:
            continue
        value = struct.unpack(">f", struct.pack(">I", bits))[0]
        words = encode_float_pair(value)
        assert struct.pack(">f", decode_float_pair(words)) == struct.pack(">f", value)


# ---------------------------------------------------------------------------
# chunk planning
# ---------------------------------------------------------------------------


def test_chunk_plan_examples():
    assert plan_chunked_read(1, 206) == [(1, 125), (126, 81)]
    assert plan_chunked_read(1, 100) == [(1, 100)]
    assert plan_chunked_read(1001, 412) == [
        (1001, 125),
        (1126, 125),
        (1251, 125),
        (1376, 37),
    ]


def test_chunk_plan_rejects_bad_count():
    with pytest.raises(RegisterMapError):
        plan_chunked_read(1, 0)


def test_chunk_plan_properties():
    rng = random.Random(5)
    for _ in range(300):
        start = rng.randint(1, 5000)
        count = rng.randint(1, 2000)
        limit = rng.randint(1, 300)
        spans = plan_chunked_read(start, count, limit)
        assert all(c <= limit for _, c in spans)
        at = start
        for s, c in spans:
            assert s == at  # contiguous, ordered, disjoint
            at += c
        assert at == start + count


# ---------------------------------------------------------------------------
# meter map and image
# ---------------------------------------------------------------------------


def test_fixture_meter_map_shape(fixture_model, fixture_meter_map):
    assert len(fixture_meter_map.meters) == 206
    assert [n for n, _ in fixture_meter_map.setpoints] == [
        "N102", "N103", "N104", "N106", "N107", "N99", "N109", "N111", "N114",
    ]
    assert SETPOINT_BLOCK_START + len(fixture_meter_map.setpoints) - 1 == 215


def test_demand_writes_each_setpoint_on_its_own_bus_and_phase(fixture_model):
    # three phases of one bus are three setpoints, each landing on its phase
    meter_map = MeterMap.for_model(fixture_model, [("N8", "A"), ("N8", "B"), ("N8", "C")])
    demand = meter_map.demand(fixture_model, (1, 2, 3))
    row = fixture_model.bus_index["N8"]
    assert demand[row].tolist() == [1000 + 0j, 2000 + 0j, 3000 + 0j]
    others = np.ones(demand.shape, dtype=bool)
    others[row] = False
    assert (demand[others] == fixture_model.base_demand[others]).all()
    with pytest.raises(RegisterMapError, match="2 setpoints for a map of 3"):
        meter_map.demand(fixture_model, (1, 2))


def test_demand_keeps_the_base_kvar_and_matches_the_per_point_loads(fixture_model):
    meter_map = MeterMap.for_model(fixture_model, [("N52", "B"), ("N102", "C")])
    assert fixture_model.bus("N52").load_kvar[PHASE_INDEX["B"]] == 9.0
    expected = demand_with(fixture_model, {"N52": {"B": (55.0, 9.0)}, "N102": {"C": (80.0, 0.0)}})
    assert meter_map.demand(fixture_model, (55, 80)).tobytes() == expected.tobytes()


def test_meter_map_rejects_a_repeated_setpoint_point(fixture_model):
    with pytest.raises(RegisterMapError, match=r"\('N8', 'B'\) is mapped twice"):
        MeterMap.for_model(fixture_model, [("N8", "A"), ("N8", "B"), ("N8", "B")])
    # one bus on several phases is no repeat
    MeterMap.for_model(fixture_model, [("N8", "A"), ("N8", "B")])


def test_meter_map_rejects_wrong_phase(fixture_model):
    with pytest.raises(RegisterMapError, match="N102"):
        MeterMap.for_model(fixture_model, setpoint_nodes=[("N102", "A")])


def _chain_doc(n_buses):
    """A single-phase chain of ``n_buses`` buses on phase A, one meter each."""
    bus = {"phases": "A", "load_kw": [1, 0, 0], "load_kvar": [0, 0, 0]}
    z = [[0.01, 0, 0], [0, 0, 0], [0, 0, 0]]
    line = {"r_ohm": z, "x_ohm": z}
    return {
        "base_kv_ln": 1.0,
        "base_kva": 3000.0,
        "source": "B0",
        "buses": [{"id": f"B{k}", **bus} for k in range(n_buses)],
        "branches": [{"from": f"B{k}", "to": f"B{k + 1}", **line} for k in range(n_buses - 1)],
    }


@pytest.mark.parametrize("n_buses, fits", [(206, True), (207, False), (220, False)])
def test_meter_map_refuses_a_voltage_block_that_reaches_the_setpoints(n_buses, fits):
    model = load_feeder(json.dumps(_chain_doc(n_buses)))
    if fits:
        meter_map = MeterMap.for_model(model, setpoint_nodes=[("B1", "A")])
        assert len(meter_map.meters) == SETPOINT_BLOCK_START - 1
        return
    with pytest.raises(RegisterMapError, match="setpoint block at register 207"):
        MeterMap.for_model(model, setpoint_nodes=[("B1", "A")])


@pytest.mark.parametrize("count, fits", [(STATUS_REGISTER - SETPOINT_BLOCK_START, True),
                                         (STATUS_REGISTER - SETPOINT_BLOCK_START + 1, False)])
def test_meter_map_refuses_a_setpoint_block_that_reaches_the_status_register(count, fits):
    setpoints = tuple((f"B{k}", "A") for k in range(count))
    if fits:
        meter_map = MeterMap((("B0", "A"),), setpoints)
        assert SETPOINT_BLOCK_START + len(meter_map.setpoints) - 1 == STATUS_REGISTER - 1
        return
    with pytest.raises(RegisterMapError, match="status register 500"):
        MeterMap((("B0", "A"),), setpoints)


ZEROS = (0,) * 9  # a setpoint vector for the bundled map


def _solved(fixture_model, demand=None, config=None):
    config = config or SwitchConfig.normal(fixture_model)
    view = apply_switch_config(fixture_model, config)
    return solve(fixture_model, view, demand), config


def test_build_image_flat_profile(fixture_model, fixture_meter_map):
    solution, config = _solved(fixture_model, np.zeros_like(fixture_model.base_demand))
    image = build_image(solution, ZEROS, config, fixture_meter_map)
    assert all(image.holding[k] == 10000 for k in range(1, 207))
    for k in range(206):
        pair = (
            image.holding[FLOAT_BLOCK_START + 2 * k],
            image.holding[FLOAT_BLOCK_START + 2 * k + 1],
        )
        assert decode_float_pair(pair) == 1.0


def test_build_image_coils_track_config(fixture_model, fixture_meter_map):
    config = SwitchConfig.normal(fixture_model).with_switch("S7", True)
    solution, _ = _solved(fixture_model, config=config)
    image = build_image(solution, ZEROS, config, fixture_meter_map)
    assert list(image.coils[1:9]) == [True] * 7 + [False]  # S1..S6 + S7 on, S8 off


def test_build_image_setpoint_words(fixture_model, fixture_meter_map):
    solution, config = _solved(fixture_model)
    setpoints = (80, 1, 2, 3, 4, 5, 6, 7, 0xFFFF)
    image = build_image(solution, setpoints, config, fixture_meter_map)
    assert image.holding[SETPOINT_BLOCK_START : SETPOINT_BLOCK_START + 9] == setpoints
    assert image.holding[STATUS_REGISTER] == 0
    stale = build_image(solution, setpoints, config, fixture_meter_map, stale=True)
    assert stale.holding[STATUS_REGISTER] == 1
    for bad in ((80,), setpoints + (1,)):
        with pytest.raises(RegisterMapError, match="setpoints for a map of 9"):
            build_image(solution, bad, config, fixture_meter_map)
    with pytest.raises(RegisterMapError, match="70000 kW for N103.C not a 16-bit value"):
        build_image(solution, (80, 70000) + ZEROS[2:], config, fixture_meter_map)


def test_build_image_is_pure(fixture_model, fixture_meter_map):
    solution, config = _solved(fixture_model)
    setpoints = (40,) * len(fixture_meter_map.setpoints)
    a = build_image(solution, setpoints, config, fixture_meter_map)
    b = build_image(solution, setpoints, config, fixture_meter_map)
    assert a == b


def test_scaled_and_float_blocks_agree(fixture_model, fixture_meter_map):
    solution, config = _solved(fixture_model)
    image = build_image(solution, ZEROS, config, fixture_meter_map)
    for k in range(206):
        scaled = decode_voltage_word(image.holding[1 + k])
        exact = decode_float_pair(
            (
                image.holding[FLOAT_BLOCK_START + 2 * k],
                image.holding[FLOAT_BLOCK_START + 2 * k + 1],
            )
        )
        assert abs(scaled - exact) <= 5e-5


def test_build_image_matches_per_meter_codec(fixture_model, fixture_meter_map):
    # a solved state with outages (S6 open) and an overloaded node, and the
    # same state carrying round-half-up boundaries and both range ends
    config = SwitchConfig.normal(fixture_model).with_switch("S6", False)
    heavy = demand_with(fixture_model, {"N102": {"C": (160.0, 0.0)}})
    solved, _ = _solved(fixture_model, heavy, config)
    rng = random.Random(31)
    edges = [(rng.randrange(65535) + 0.5) / VOLTAGE_SCALE for _ in range(204)]
    boundary = replace(solved, voltages=np.array([0.0, MAX_SCALED_PU] + edges, dtype=complex))
    for solution in (solved, boundary):
        mags = solution.magnitudes()
        for high_word_first in (True, False):
            image = build_image(
                solution, ZEROS, config, fixture_meter_map, high_word_first=high_word_first
            )
            assert list(image.holding[1:207]) == [encode_voltage_word(m) for m in mags]
            assert list(image.holding[FLOAT_BLOCK_START:]) == [
                w for m in mags for w in encode_float_pair(m, high_word_first)
            ]


@pytest.mark.parametrize("bad", [MAX_SCALED_PU + 1e-4, float("nan"), float("inf")])
def test_build_image_rejects_unencodable_magnitude(fixture_model, fixture_meter_map, bad):
    solution, config = _solved(fixture_model)
    voltages = solution.voltages.copy()
    voltages[5] = bad
    with pytest.raises(RegisterMapError, match="outside encodable range"):
        build_image(replace(solution, voltages=voltages), ZEROS, config, fixture_meter_map)


def test_build_image_rejects_meter_mismatch(fixture_model, fixture_meter_map):
    solution, config = _solved(fixture_model)
    reordered = replace(fixture_meter_map, meters=fixture_meter_map.meters[::-1])
    with pytest.raises(RegisterMapError, match="measurement points"):
        build_image(solution, ZEROS, config, reordered)


def test_render_register_map_mentions_all_blocks(fixture_model, fixture_meter_map):
    text = render_register_map(fixture_meter_map, fixture_model.switch_names)
    assert "| 206 |" in text or "1..206" in text
    assert "207" in text and "1001" in text and str(STATUS_REGISTER) in text


def test_render_register_map_lists_the_feeders_own_coils():
    model = load_feeder(json.dumps(three_bus_switch_doc()))
    meter_map = MeterMap.for_model(model, setpoint_nodes=[("B2", "A")])
    text = render_register_map(meter_map, model.switch_names)
    assert "| Coils | 1..2 | switch states SW1..SW2 | closed = 1 |" in text
    assert "| Holding | 1..3 | per-meter voltage magnitude |" in text
    assert "| Holding | 207..207 | load setpoints |" in text
    assert "S1..S8" not in text and "1..8" not in text
    # a feeder without switches has no coils
    model = load_feeder(json.dumps(_chain_doc(2)))
    text = render_register_map(MeterMap.for_model(model, [("B1", "A")]), model.switch_names)
    assert "| Coils | none | switch states none | closed = 1 |" in text
