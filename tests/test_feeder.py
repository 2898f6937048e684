"""Feeder ingestion, topology derivation, and radiality checks."""

import dataclasses
import itertools
import json

import numpy as np
import pytest

from gridbed import feeder
from gridbed.feeder import (
    PHASES,
    FeederError,
    SwitchConfig,
    TopologyView,
    apply_switch_config,
    default_feeder_text,
    feasible,
    load_default_feeder,
    load_feeder,
    load_feeder_file,
)
from gridbed.mitigate import switching_cost

from conftest import BAD_NUMBERS, three_bus_switch_doc, two_bus_doc
from oracles import edges_form_cycle, reachable_from


def test_bus_phase_arrays_follow_meter_order(fixture_model):
    rows, cols = np.nonzero(fixture_model.carried)
    ids = [fixture_model.buses[r].id for r in rows]
    assert list(zip(ids, (PHASES[c] for c in cols))) == list(fixture_model.meter_points())
    assert all(fixture_model.bus_index[b] == r for b, r in zip(ids, rows))
    for bus, row in zip(fixture_model.buses, fixture_model.base_demand):
        assert list(row) == [complex(p, q) * 1000.0 for p, q in zip(bus.load_kw, bus.load_kvar)]
    for i, br in enumerate(fixture_model.branches):
        ends = fixture_model.bus(br.from_bus), fixture_model.bus(br.to_bus)
        both = [all(p in bus.phases for bus in ends) for p in PHASES]
        assert list(fixture_model.branch_mask[i]) == both
    with pytest.raises(ValueError):
        fixture_model.base_demand[0, 0] = 1.0


# ---------------------------------------------------------------------------
# load_feeder
# ---------------------------------------------------------------------------


def test_two_bus_document_loads():
    model = load_feeder(json.dumps(two_bus_doc()))
    assert len(model.buses) == 2
    assert len(model.branches) == 1
    assert model.switch_names == ()
    assert model.source_bus == "B0"


def test_dangling_branch_endpoint_names_bus():
    doc = two_bus_doc()
    doc["branches"][0]["to"] = "B9"
    with pytest.raises(FeederError, match="B9"):
        load_feeder(json.dumps(doc))


def test_bundled_fixture_shape(fixture_model):
    assert len(fixture_model.buses) >= 123
    assert fixture_model.switch_names == tuple(f"S{i}" for i in range(1, 9))
    normal = SwitchConfig.normal(fixture_model)
    assert all(normal.closed(f"S{i}") for i in range(1, 7))
    assert not normal.closed("S7") and not normal.closed("S8")


def test_duplicate_bus_id_rejected():
    doc = two_bus_doc()
    doc["buses"].append(dict(doc["buses"][1]))
    with pytest.raises(FeederError, match="duplicate bus id"):
        load_feeder(json.dumps(doc))


def test_unknown_source_rejected():
    doc = two_bus_doc()
    doc["source"] = "nope"
    with pytest.raises(FeederError, match="source"):
        load_feeder(json.dumps(doc))


def test_load_on_missing_phase_rejected():
    doc = two_bus_doc()
    doc["buses"][1]["load_kw"] = [0, 50, 0]  # bus carries phase A only
    with pytest.raises(FeederError, match="phase B"):
        load_feeder(json.dumps(doc))


def test_negative_load_rejected():
    doc = two_bus_doc(load_kw=-5.0)
    with pytest.raises(FeederError, match="negative"):
        load_feeder(json.dumps(doc))


def test_asymmetric_impedance_rejected():
    doc = two_bus_doc()
    doc["branches"][0]["r_ohm"][0][1] = 0.5
    with pytest.raises(FeederError, match="symmetric"):
        load_feeder(json.dumps(doc))


# Where a number sits in a document: the container and the key or index.
NUMBER_PLACES = {
    "base_kva": lambda doc: (doc, "base_kva"),
    "load_kw": lambda doc: (doc["buses"][1]["load_kw"], 0),
    "r_ohm": lambda doc: (doc["branches"][0]["r_ohm"][0], 0),
}


@pytest.mark.parametrize("value", BAD_NUMBERS)
@pytest.mark.parametrize("place", sorted(NUMBER_PLACES))
def test_every_number_must_be_finite(place, value):
    doc = two_bus_doc()
    container, key = NUMBER_PLACES[place](doc)
    container[key] = value
    with pytest.raises(FeederError, match=f"{place}.* must be a finite number"):
        load_feeder(json.dumps(doc))


# A misspelt key in each object of a document: read as written, each would
# leave its value at the default (no load, a zero-impedance line).
UNKNOWN_KEY_PLACES = {
    "bases_kva": lambda doc: doc,
    "laod_kw": lambda doc: doc["buses"][1],
    "r_ohms": lambda doc: doc["branches"][0],
}


@pytest.mark.parametrize("key", sorted(UNKNOWN_KEY_PLACES))
def test_every_object_refuses_unknown_keys(key):
    doc = two_bus_doc()
    UNKNOWN_KEY_PLACES[key](doc)[key] = 1.0
    with pytest.raises(FeederError, match=f"unknown key.*: {key}$"):
        load_feeder(json.dumps(doc))


def _set(path, value):
    """A change to a document: ``path`` of keys and indices to the value."""
    def change(doc):
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value
    return change


def _second_switch_named_sw1(doc):
    doc["branches"][2]["switch"] = "SW1"


# Each refusal of load_feeder: a change to three_bus_switch_doc() and the
# words its message must hold, which name the key at fault.
REFUSALS = {
    "self-loop": (_set(("branches", 0, "to"), "B0"), r"branches\[0\]: self-loop at bus 'B0'"),
    "empty-switch-name": (_set(("branches", 1, "switch"), ""), r"branches\[1\]: switch name"),
    "duplicate-switch-name": (_second_switch_named_sw1, "duplicate switch name 'SW1'"),
    "bad-normal": (_set(("branches", 1, "normal"), "shut"), "switch 'SW1': normal state"),
    "normal-without-switch": (
        _set(("branches", 0, "normal"), "open"),
        r"branches\[0\]: key 'normal' is set on a branch without a switch",
    ),
    "zero-base-kva": (_set(("base_kva",), 0), "base_kv_ln and base_kva must be positive"),
    "negative-base-kv": (_set(("base_kv_ln",), -1), "base_kv_ln and base_kva must be positive"),
    "source-not-a-string": (_set(("source",), 3), "key 'source' must be str"),
    "empty-phases": (_set(("buses", 1, "phases"), ""), "bus 'B1': phases must be a non-empty"),
    "unknown-phase": (_set(("buses", 1, "phases"), "AD"), "bus 'B1': unknown phase 'D'"),
    "duplicate-phase": (_set(("buses", 1, "phases"), "AA"), "bus 'B1': duplicate phase 'A'"),
    "short-load-triplet": (_set(("buses", 1, "load_kw"), [50, 0]), "bus 'B1': load_kw must be"),
    "load-not-a-list": (_set(("buses", 1, "load_kvar"), 10), "bus 'B1': load_kvar must be"),
    "two-row-matrix": (
        _set(("branches", 0, "r_ohm"), [[0.02, 0, 0]] * 2), r"branches\[0\]: r_ohm must be a 3x3"
    ),
    "short-matrix-row": (
        _set(("branches", 0, "x_ohm", 2), [0, 0]), r"branches\[0\]: x_ohm must be a 3x3"
    ),
}


@pytest.mark.parametrize("refusal", sorted(REFUSALS))
def test_load_feeder_refusals_name_the_key(refusal):
    change, message = REFUSALS[refusal]
    doc = three_bus_switch_doc()
    load_feeder(json.dumps(doc))  # the unchanged document loads
    change(doc)
    with pytest.raises(FeederError, match=message):
        load_feeder(json.dumps(doc))


def test_branch_whose_endpoints_share_no_phase_rejected():
    doc = two_bus_doc(phase="A")
    doc["buses"][1]["phases"] = "B"
    doc["buses"][1]["load_kw"] = [0, 0, 0]
    doc["buses"][1]["load_kvar"] = [0, 0, 0]
    with pytest.raises(FeederError, match="'B0'-'B1': endpoints share no phase"):
        load_feeder(json.dumps(doc))


def test_switch_with_impedance_rejected():
    doc = three_bus_switch_doc()
    doc["branches"][1]["r_ohm"][0][0] = 0.1
    with pytest.raises(FeederError, match="impedance must be zero"):
        load_feeder(json.dumps(doc))


# ---------------------------------------------------------------------------
# apply_switch_config
# ---------------------------------------------------------------------------


def _closed_edges(model, config):
    """(branch index, from bus, to bus) of every line and closed switch."""
    return [
        (i, b.from_bus, b.to_bus)
        for i, b in enumerate(model.branches)
        if not b.is_switch or config.closed(b.switch)
    ]


def _oracle_energized(model, config):
    edges = [(u, v) for _, u, v in _closed_edges(model, config)]
    return reachable_from(model.source_bus, edges)


def test_all_closed_single_component(fixture_model):
    config = SwitchConfig.from_mapping(
        fixture_model, {n: True for n in fixture_model.switch_names}
    )
    view = apply_switch_config(fixture_model, config)
    assert view.energized == frozenset(b.id for b in fixture_model.buses)
    assert view.energized == frozenset(_oracle_energized(fixture_model, config))


def test_opening_sectionalizer_isolates_subtree(fixture_model):
    config = SwitchConfig.normal(fixture_model).with_switch("S1", False)
    view = apply_switch_config(fixture_model, config)
    oracle = _oracle_energized(fixture_model, config)
    assert view.energized == frozenset(oracle)
    assert "N150" in view.energized
    assert "N101" not in view.energized  # everything past the head switch


def test_empty_switch_set_model(two_bus_model):
    view = apply_switch_config(two_bus_model, SwitchConfig((), 0))
    assert view.energized == {"B0", "B1"}


def test_config_coverage_errors(fixture_model):
    with pytest.raises(FeederError, match="missing"):
        apply_switch_config(fixture_model, SwitchConfig(("S1",), 1))
    bogus = SwitchConfig(fixture_model.switch_names + ("S99",), 2 ** 9 - 1)
    with pytest.raises(FeederError, match="S99"):
        apply_switch_config(fixture_model, bogus)
    names = fixture_model.switch_names
    config = SwitchConfig.normal(fixture_model)
    with pytest.raises(FeederError, match="unknown switch 'S99'"):
        config.closed("S99")
    with pytest.raises(FeederError, match="unknown switch 'S99'"):
        config.with_switch("S99", True)
    # the same switch set in another order: a set comparison would accept it
    with pytest.raises(FeederError, match=r"switches in order \(missing=\[\], extra=\[\]\)"):
        apply_switch_config(fixture_model, SwitchConfig(names[::-1], config.mask))
    # each would be cached as a key of its own for a topology it shares
    for mask in (-1, 2 ** len(names), 2 ** len(names) + config.mask):
        with pytest.raises(FeederError, match="not a set of the model's 8 switches"):
            apply_switch_config(fixture_model, SwitchConfig(names, mask))


def test_config_mask_agrees_with_its_bits_for_every_config(fixture_model):
    # the reference is a name -> bool dict built from the enumerated bits
    names = fixture_model.switch_names
    normal = {b.switch: b.normal_closed for b in fixture_model.branches if b.is_switch}
    base = SwitchConfig.normal(fixture_model)
    assert base.as_dict() == normal
    for bits in itertools.product((False, True), repeat=len(names)):
        reference = dict(zip(names, bits))
        config = SwitchConfig(names, sum(2 ** i for i, b in enumerate(bits) if b))
        assert list(config.as_dict().items()) == list(reference.items())
        assert [config.closed(n) for n in names] == list(bits)
        for name in names:
            for state in (False, True):
                moved = config.with_switch(name, state)
                assert moved.as_dict() == {**reference, name: state}
        toggled = config.toggled_from(base)
        assert toggled == tuple(n for n in names if reference[n] != normal[n])
        assert switching_cost(base, config) == len(toggled)


def test_energized_set_is_monotone_in_closures(fixture_model):
    # closing any additional switch never shrinks the energized set
    normal = SwitchConfig.normal(fixture_model)
    base = apply_switch_config(fixture_model, normal).energized
    for name in fixture_model.switch_names:
        if not normal.closed(name):
            grown = apply_switch_config(
                fixture_model, normal.with_switch(name, True)
            ).energized
            assert base <= grown


# ---------------------------------------------------------------------------
# feasible
# ---------------------------------------------------------------------------


def test_fixture_base_state_is_radial(fixture_model):
    view = apply_switch_config(fixture_model, SwitchConfig.normal(fixture_model))
    assert feasible(view)


def test_closing_tie_breaks_radiality(fixture_model):
    config = SwitchConfig.normal(fixture_model).with_switch("S7", True)
    view = apply_switch_config(fixture_model, config)
    assert not feasible(view)
    live_edges = [(u, v) for _, u, v in _closed_edges(fixture_model, config)]
    assert edges_form_cycle([b.id for b in fixture_model.buses], live_edges)


def test_single_bus_no_edges_is_radial():
    doc = {
        "base_kv_ln": 1.0,
        "base_kva": 100.0,
        "source": "S",
        "buses": [{"id": "S", "phases": "ABC", "load_kw": [0, 0, 0], "load_kvar": [0, 0, 0]}],
        "branches": [],
    }
    model = load_feeder(json.dumps(doc))
    assert feasible(apply_switch_config(model, SwitchConfig((), 0)))


def test_radial_views_contain_no_cycle(fixture_model):
    # every switch config, against union-find and reachability oracles built
    # from the config alone
    names = fixture_model.switch_names
    for bits in itertools.product((False, True), repeat=len(names)):
        config = SwitchConfig(names, sum(b << i for i, b in enumerate(bits)))
        view = apply_switch_config(fixture_model, config)
        energized = _oracle_energized(fixture_model, config)
        assert view.energized == frozenset(energized)
        live = {
            i: (u, v)
            for i, u, v in _closed_edges(fixture_model, config)
            if u in energized and v in energized
        }
        spans_loads = fixture_model.load_buses <= energized
        assert feasible(view) == (
            spans_loads and not edges_form_cycle(list(energized), live.values())
        )

        # the walk: a spanning tree rooted at the source, in walk order
        assert view.order[0] == fixture_model.source_bus
        assert len(set(view.order)) == len(view.order)
        for k in range(1, len(view.order)):
            assert view.parent[k] < k
            assert set(live[view.via[k]]) == {view.order[k], view.order[view.parent[k]]}
        assert not set(view.via[1:]) & set(view.loops)
        assert set(view.via[1:]) | set(view.loops) == set(live)
        assert list(view.loops) == sorted(view.loops)


def test_de_energized_load_bus_is_not_radial():
    model = load_feeder(json.dumps(three_bus_switch_doc()))
    # B1 carries load; opening SW1 with SW2 open leaves B2 dark (no load, ok),
    # but opening the line... here: open both switches -> B2 dark, still
    # radial because B2 carries no load.
    both_open = SwitchConfig.from_mapping(model, {"SW1": False, "SW2": False})
    assert feasible(apply_switch_config(model, both_open))
    # close both -> cycle -> not radial
    both_closed = SwitchConfig.from_mapping(model, {"SW1": True, "SW2": True})
    assert not feasible(apply_switch_config(model, both_closed))


# ---------------------------------------------------------------------------
# per-model topology cache
# ---------------------------------------------------------------------------


def _every_config(model):
    return [
        SwitchConfig(model.switch_names, sum(b << i for i, b in enumerate(closed)))
        for closed in itertools.product((False, True), repeat=len(model.switch_names))
    ]


def test_bundled_model_is_shared_and_file_loads_are_fresh(tmp_path):
    shared = load_default_feeder()
    assert load_default_feeder() is shared
    parsed = load_feeder(default_feeder_text())
    assert parsed is not shared and parsed == shared
    path = tmp_path / "feeder.json"
    path.write_text(default_feeder_text(), encoding="utf-8")
    assert load_feeder_file(path) is not load_feeder_file(path)
    assert shared.meter_points() is shared.meter_points()


def test_cached_views_equal_fresh_walks():
    model = load_feeder(default_feeder_text())
    configs = _every_config(model)
    assert len(configs) <= feeder.TOPOLOGY_CACHE_SIZE
    for config in configs:
        apply_switch_config(model, config)
    for config in configs:
        cached = apply_switch_config(model, config)
        fresh = feeder._walk(model, config.mask)
        assert cached is not fresh
        for f in dataclasses.fields(TopologyView):
            if f.name != "derived":
                assert getattr(cached, f.name) == getattr(fresh, f.name), (config, f.name)
        assert cached.energized == fresh.energized
    info = model._topologies.cache_info()
    assert (info.misses, info.hits, info.currsize) == (len(configs), len(configs), len(configs))


def test_repeated_apply_returns_the_same_view_from_one_walk():
    model = load_feeder(default_feeder_text())
    config = SwitchConfig.normal(model)
    first = apply_switch_config(model, config)
    assert apply_switch_config(model, SwitchConfig(config.names, config.mask)) is first
    info = model._topologies.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    # a config that fails the coverage check is checked again, never kept
    for _ in range(2):
        with pytest.raises(FeederError, match="missing"):
            apply_switch_config(model, SwitchConfig(("S1",), 1))
    assert model._topologies.cache_info().currsize == 1


def test_cache_never_exceeds_its_bound(monkeypatch):
    monkeypatch.setattr(feeder, "TOPOLOGY_CACHE_SIZE", 4)
    model = load_feeder(default_feeder_text())
    configs = _every_config(model)
    views = []
    for config in configs:
        views.append(apply_switch_config(model, config))
        assert model._topologies.cache_info().currsize <= 4
    # the four most recent configs hit; the one before them was evicted
    for config, view in zip(configs[-4:], views[-4:]):
        assert apply_switch_config(model, config) is view
    assert apply_switch_config(model, configs[-5]) is not views[-5]
    info = model._topologies.cache_info()
    assert (info.hits, info.misses, info.currsize) == (4, len(configs) + 1, 4)
