"""Distribution feeder model: document ingestion, switch topology, radiality.

A feeder is described by a JSON document listing buses with per-phase
constant-power spot loads, branches with 3x3 series impedance matrices, and
named switches (zero-impedance branches with a normal open/closed state).
See ``docs/feeder_format.md`` for the schema.

:func:`apply_switch_config` takes the one graph walk a topology gets: a
breadth-first walk from the source over the closed branches.  Its
:class:`TopologyView` is both the energized set and the spanning tree the
solver sweeps, and :func:`is_radial` reads it without walking again.  Each
branch's conducting phases and phase-masked impedance are computed once per
:class:`FeederModel`, as are its per-(bus, phase) arrays (see there).

A switch config is one bit mask over the model's switches (see
:class:`SwitchConfig`), and each model keeps the views it has walked in one
cache keyed by that mask, filled on first use and bounded by
:data:`TOPOLOGY_CACHE_SIZE` (256, every config of the bundled feeder's eight
switches), evicting the least recently used view beyond that.  The walk reads
each branch's state from the model's ``switch_bits``: per branch, its switch's
bit in the mask, or -1 for a line, which is always closed.  A view keeps
what the solver gathers from it on its first solve (``derived``), so server
writes and both defense searches walk and gather each topology once per
model.  On the bundled feeder a view takes about 3.6 KB and a solved tree
about 105 bytes per energized bus (13.0 KB with all 124 fed), plus about
9.4 KB per loop coordinate (at most four there), so all 256 topologies solved
take about 1.6 MB (tracemalloc, Python 3.11).  The cache
lives and dies with its model, which it references, so a model and its cache
are freed together.

A model's document fields never change after construction, and its derived
data is read-only arrays and tuples.  The cache is a ``functools.lru_cache``,
safe to call from several threads: two threads that miss on one config at
once may each walk it, and either view is correct.  So one model can serve a
server thread and a defender at once; switching actions are expressed as new
:class:`SwitchConfig` values.

:func:`load_default_feeder` returns one model per process, parsed on its
first call, so every scenario case, CLI and tool in a process shares its
arrays, views and solved trees.  Its cache (at most 256 views, about 1.6 MB
with every topology solved) lives as long as the process.  Like the topology
cache it is a ``functools`` cache: two threads whose first calls race may
each parse the document, and either model is correct.
:func:`load_feeder` and :func:`load_feeder_file` return a fresh model on
every call, since a document or file can change.
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources
from typing import Mapping

import numpy as np

PHASES = ("A", "B", "C")
PHASE_INDEX = {"A": 0, "B": 1, "C": 2}

DEFAULT_FEEDER_RESOURCE = "ieee123.json"

_FLOAT_MAX = sys.float_info.max

# Topologies each model keeps, least recently used evicted first: every
# config of a feeder with up to eight switches, as the bundled one has.
TOPOLOGY_CACHE_SIZE = 256


class FeederError(ValueError):
    """Invalid feeder document, switch name, or switch configuration."""


@dataclass(frozen=True)
class Bus:
    """Network node with a per-phase constant-power spot load.

    ``load_kw`` / ``load_kvar`` are indexed (A, B, C); entries for phases the
    bus does not carry must be zero.
    """

    id: str
    phases: tuple[str, ...]
    load_kw: tuple[float, float, float]
    load_kvar: tuple[float, float, float]


@dataclass(frozen=True)
class Branch:
    """Series element between two buses.

    ``z_ohm`` is a 3x3 complex impedance matrix indexed (A, B, C); entries for
    phases absent at either endpoint are ignored.  A branch with a ``switch``
    name is an operable zero-impedance switch; ``normal_closed`` records its
    normal state.
    """

    from_bus: str
    to_bus: str
    z_ohm: tuple[tuple[complex, ...], ...]
    switch: str | None = None
    normal_closed: bool = True

    @property
    def is_switch(self) -> bool:
        return self.switch is not None


@dataclass(frozen=True)
class FeederModel:
    """Validated feeder: buses, branches, switches, and the slack source.

    Every per-(bus, phase) quantity has one shape: a ``(bus, 3)`` array with
    one row per bus in ``buses`` order (``bus_index`` maps an id to its row)
    and columns A, B, C.  ``carried`` marks the phases each bus carries; its
    True cells read row by row are :meth:`meter_points`, so ``array[carried]``
    is any such array in meter order.  The arrays are built once per model.
    """

    buses: tuple[Bus, ...]
    branches: tuple[Branch, ...]
    source_bus: str
    base_volts_ln: float
    base_va: float

    @cached_property
    def adjacency(self) -> Mapping[str, tuple[tuple[int, str], ...]]:
        """Bus id -> (branch index, far bus) for every incident branch, in
        branch-index order."""
        incident: dict[str, list[tuple[int, str]]] = {b.id: [] for b in self.buses}
        for i, br in enumerate(self.branches):
            incident[br.from_bus].append((i, br.to_bus))
            incident[br.to_bus].append((i, br.from_bus))
        return {b: tuple(edges) for b, edges in incident.items()}

    @cached_property
    def bus_index(self) -> Mapping[str, int]:
        """Bus id -> its row in every ``(bus, 3)`` array."""
        return {b.id: k for k, b in enumerate(self.buses)}

    @cached_property
    def carried(self) -> np.ndarray:
        """``(bus, phase)`` bool: the phases each bus carries."""
        carried = np.array(
            [[p in b.phases for p in PHASES] for b in self.buses], dtype=bool
        ).reshape(-1, 3)
        carried.flags.writeable = False
        return carried

    @cached_property
    def base_demand(self) -> np.ndarray:
        """``(bus, phase)`` complex spot load in VA, zero on phases not
        carried."""
        demand = np.array(
            [[complex(kw, kvar) * 1000.0 for kw, kvar in zip(b.load_kw, b.load_kvar)]
             for b in self.buses],
            dtype=complex,
        ).reshape(-1, 3)
        demand.flags.writeable = False
        return demand

    @cached_property
    def branch_mask(self) -> np.ndarray:
        """``(branch, phase)`` bool: the phases present at both endpoints,
        the only ones a branch conducts."""
        carried, row = self.carried, self.bus_index
        mask = np.array(
            [carried[row[br.from_bus]] & carried[row[br.to_bus]] for br in self.branches],
            dtype=bool,
        ).reshape(-1, 3)
        mask.flags.writeable = False
        return mask

    @cached_property
    def branch_z(self) -> np.ndarray:
        """``(branch, 3, 3)`` complex impedance (ohm), zeroed outside the
        phases each branch conducts."""
        mask = self.branch_mask
        z = np.array([br.z_ohm for br in self.branches], dtype=complex).reshape(-1, 3, 3)
        z = np.where(mask[:, :, None] & mask[:, None, :], z, 0)
        z.flags.writeable = False
        return z

    @cached_property
    def branch_rows(self) -> tuple[tuple[tuple[complex, ...], ...], tuple[tuple[float, ...], ...]]:
        """Per branch, its ``branch_z`` block row by row and its ``branch_mask``
        row as 0/1 floats: Python tuples that every topology's tree shares."""
        z = self.branch_z.reshape(-1, 9).tolist()
        mask = self.branch_mask.astype(float).tolist()
        return tuple(map(tuple, z)), tuple(map(tuple, mask))

    @cached_property
    def _topologies(self):
        """``config.mask`` -> :class:`TopologyView`, walked on first use and
        kept in an LRU cache of :data:`TOPOLOGY_CACHE_SIZE` entries."""
        return functools.lru_cache(maxsize=TOPOLOGY_CACHE_SIZE)(
            functools.partial(_walk, self)
        )

    @cached_property
    def switch_names(self) -> tuple[str, ...]:
        return tuple(b.switch for b in self.branches if b.is_switch)

    @cached_property
    def switch_bits(self) -> tuple[int, ...]:
        """Per branch, the bit of its switch in a config mask, or -1 for a
        line."""
        bit = {name: i for i, name in enumerate(self.switch_names)}
        return tuple(bit.get(b.switch, -1) for b in self.branches)

    @cached_property
    def load_buses(self) -> frozenset[str]:
        return frozenset(b.id for b, load in zip(self.buses, self.base_demand) if load.any())

    def bus(self, bus_id: str) -> Bus:
        try:
            return self.buses[self.bus_index[bus_id]]
        except KeyError:
            raise FeederError(f"unknown bus {bus_id!r}") from None

    def meter_points(self) -> tuple[tuple[str, str], ...]:
        """All (bus, phase) measurement points, in document order: the
        ``carried`` cells read row by row.  One tuple per model."""
        return self._meter_points

    @cached_property
    def _meter_points(self) -> tuple[tuple[str, str], ...]:
        return tuple((b.id, p) for b in self.buses for p in b.phases)


@dataclass(frozen=True)
class SwitchConfig:
    """Open/closed state of a model's named switches as one bit mask.

    Bit ``i`` of ``mask`` is set when switch ``names[i]`` is closed.  A config
    a model accepts lists its ``switch_names`` in order, and sets no bit at or
    past ``len(names)``.
    """

    names: tuple[str, ...]
    mask: int

    @classmethod
    def from_mapping(cls, model: FeederModel, states: Mapping[str, bool]) -> "SwitchConfig":
        names = model.switch_names
        missing = [n for n in names if n not in states]
        if missing:
            raise FeederError(f"switch config missing switches: {missing}")
        extra = [n for n in states if n not in names]
        if extra:
            raise FeederError(f"switch config names unknown switches: {extra}")
        return cls(names, sum(1 << i for i, n in enumerate(names) if states[n]))

    @classmethod
    def normal(cls, model: FeederModel) -> "SwitchConfig":
        return cls.from_mapping(
            model, {b.switch: b.normal_closed for b in model.branches if b.is_switch}
        )

    def _bit(self, name: str) -> int:
        try:
            return 1 << self.names.index(name)
        except ValueError:
            raise FeederError(f"unknown switch {name!r}") from None

    def closed(self, name: str) -> bool:
        return bool(self.mask & self._bit(name))

    def as_dict(self) -> dict[str, bool]:
        """``{name: closed}`` in switch order, a new dict on every call."""
        return dict(_switch_items(self.names, self.mask))

    def with_switch(self, name: str, closed: bool) -> "SwitchConfig":
        bit = self._bit(name)
        return SwitchConfig(self.names, self.mask | bit if closed else self.mask & ~bit)

    def toggled_from(self, other: "SwitchConfig") -> tuple[str, ...]:
        """Names whose state differs from ``other``, in this config's order."""
        return tuple(n for n in self.names if other.closed(n) != self.closed(n))


@functools.lru_cache(maxsize=TOPOLOGY_CACHE_SIZE)
def _switch_items(names: tuple[str, ...], mask: int) -> tuple[tuple[str, bool], ...]:
    """``(name, closed)`` per switch of a config, kept for the
    :data:`TOPOLOGY_CACHE_SIZE` configs used last: every config of the bundled
    feeder, about 175 KB for all 256 (tracemalloc, Python 3.11), so an
    exhaustive search's log builds each dict from one tuple."""
    return tuple((n, bool(mask >> i & 1)) for i, n in enumerate(names))


@dataclass(frozen=True)
class TopologyView:
    """One switch config's breadth-first walk from the source.

    ``order`` lists the energized buses, source first.  Bus ``order[k]``
    (``k > 0``) was reached from ``order[parent[k]]`` through branch
    ``via[k]``, so ``parent[k] < k``; ``parent[0]`` is 0 and ``via[0]`` is -1.
    ``loops`` holds the closed branches between energized buses that the walk
    did not take, in branch order.  ``derived`` keeps what other modules
    compute from the walk alone (the solver's gathered tree), filled on first
    use; it takes no part in comparisons.
    """

    model: FeederModel
    order: tuple[str, ...]
    parent: tuple[int, ...]
    via: tuple[int, ...]
    loops: tuple[int, ...]
    derived: dict = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def energized(self) -> frozenset[str]:
        return frozenset(self.order)


def apply_switch_config(model: FeederModel, config: SwitchConfig) -> TopologyView:
    """The topology ``config`` energizes: the model's cached view of it, or
    one new walk.  Equal masks give the same view object."""
    names = model.switch_names
    if config.names != names:
        missing = [n for n in names if n not in config.names]
        extra = [n for n in config.names if n not in names]
        raise FeederError(
            f"switch config does not list the model's switches in order "
            f"(missing={missing}, extra={extra})"
        )
    if config.mask >> len(names):  # negative, or a bit past the last switch
        raise FeederError(
            f"switch mask {config.mask} is not a set of the model's {len(names)} switches"
        )
    return model._topologies(config.mask)


def _walk(model: FeederModel, mask: int) -> TopologyView:
    """Walk the energized subgraph once, breadth first from the source.

    Closed branches are all lines plus the switches set in ``mask``; each bus
    takes its branches in branch-index order.
    """
    closed = [bit < 0 or mask >> bit & 1 for bit in model.switch_bits]
    order = [model.source_bus]
    index = {model.source_bus: 0}
    parent = [0]
    via = [-1]
    for head, u in enumerate(order):  # order grows as the walk reaches buses
        for i, v in model.adjacency[u]:
            if closed[i] and v not in index:
                index[v] = len(order)
                order.append(v)
                parent.append(head)
                via.append(i)
    taken = set(via)
    loops = tuple(
        i
        for i, br in enumerate(model.branches)
        if closed[i] and br.from_bus in index and i not in taken
    )
    return TopologyView(model, tuple(order), tuple(parent), tuple(via), loops)


def is_radial(view: TopologyView) -> bool:
    """True iff the energized subgraph is a tree spanning every load bus."""
    return view.model.load_buses <= view.energized and not view.loops


# ---------------------------------------------------------------------------
# Document ingestion
# ---------------------------------------------------------------------------


def number(value, what: str, error: type[ValueError] = FeederError) -> float:
    """``value`` as a float: an ``int`` or ``float`` that is not a boolean,
    is finite and lies within float range.  The one rule for every number in
    a feeder, attack or scenario document; ``error`` is the reader's class.
    The bound also refuses NaN and an integer too large for a float."""
    if isinstance(value, bool) or not (
        isinstance(value, (int, float)) and abs(value) <= _FLOAT_MAX
    ):
        raise error(f"{what} must be a finite number")
    return float(value)


def known_keys(doc, keys, what: str, error: type[ValueError] = FeederError) -> None:
    """Refuse ``doc`` unless it is a JSON object with no key outside ``keys``."""
    if not isinstance(doc, dict):
        raise error(f"{what} must be a JSON object")
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise error(f"unknown key(s) in {what}: {', '.join(unknown)}")


def _require(doc: Mapping, key: str, kind, where: str):
    if key not in doc:
        raise FeederError(f"{where}: missing required key {key!r}")
    value = doc[key]
    if kind is float:
        return number(value, f"{where}: key {key!r}")
    if not isinstance(value, kind):
        raise FeederError(f"{where}: key {key!r} must be {kind.__name__}")
    return value


def _parse_phases(raw, where: str) -> tuple[str, ...]:
    if not isinstance(raw, str) or not raw:
        raise FeederError(f"{where}: phases must be a non-empty string of A/B/C")
    seen = []
    for ch in raw:
        if ch not in PHASES:
            raise FeederError(f"{where}: unknown phase {ch!r}")
        if ch in seen:
            raise FeederError(f"{where}: duplicate phase {ch!r}")
        seen.append(ch)
    return tuple(p for p in PHASES if p in seen)


def _parse_triplet(raw, key: str, where: str) -> tuple[float, float, float]:
    if not isinstance(raw, list) or len(raw) != 3:
        raise FeederError(f"{where}: {key} must be a list of 3 numbers")
    what = f"{where}: {key} entry"
    return tuple(number(v, what) for v in raw)  # type: ignore[return-value]


def _parse_matrix(raw, key: str, where: str) -> list[list[float]]:
    if not isinstance(raw, list) or len(raw) != 3:
        raise FeederError(f"{where}: {key} must be a 3x3 matrix")
    rows, what = [], f"{where}: {key} entry"
    for row in raw:
        if not isinstance(row, list) or len(row) != 3:
            raise FeederError(f"{where}: {key} must be a 3x3 matrix")
        rows.append([number(v, what) for v in row])
    for i in range(3):
        for j in range(3):
            if rows[i][j] != rows[j][i]:
                raise FeederError(f"{where}: {key} is not symmetric at [{i}][{j}]")
    return rows


def load_feeder(text: str) -> FeederModel:
    """Parse and validate a feeder description document (JSON text)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FeederError(f"feeder document is not valid JSON: {exc}") from exc
    known_keys(doc, ("base_kv_ln", "base_kva", "source", "buses", "branches"), "feeder document")

    base_kv_ln = _require(doc, "base_kv_ln", float, "document")
    base_kva = _require(doc, "base_kva", float, "document")
    if base_kv_ln <= 0 or base_kva <= 0:
        raise FeederError("base_kv_ln and base_kva must be positive")
    source = _require(doc, "source", str, "document")
    raw_buses = _require(doc, "buses", list, "document")
    raw_branches = _require(doc, "branches", list, "document")

    buses: list[Bus] = []
    ids: set[str] = set()
    for n, raw in enumerate(raw_buses):
        where = f"buses[{n}]"
        known_keys(raw, ("id", "phases", "load_kw", "load_kvar"), where)
        bus_id = _require(raw, "id", str, where)
        if bus_id in ids:
            raise FeederError(f"duplicate bus id {bus_id!r}")
        ids.add(bus_id)
        phases = _parse_phases(_require(raw, "phases", str, where), f"bus {bus_id!r}")
        load_kw = _parse_triplet(raw.get("load_kw", [0, 0, 0]), "load_kw", f"bus {bus_id!r}")
        load_kvar = _parse_triplet(
            raw.get("load_kvar", [0, 0, 0]), "load_kvar", f"bus {bus_id!r}"
        )
        for p, kw, kvar in zip(PHASES, load_kw, load_kvar):
            if (kw != 0 or kvar != 0) and p not in phases:
                raise FeederError(
                    f"bus {bus_id!r}: load on phase {p} not carried by the bus"
                )
            if kw < 0:
                raise FeederError(f"bus {bus_id!r}: negative load_kw on phase {p}")
        buses.append(Bus(bus_id, phases, load_kw, load_kvar))

    if source not in ids:
        raise FeederError(f"source bus {source!r} is not in the bus list")

    branches: list[Branch] = []
    switch_names: set[str] = set()
    for n, raw in enumerate(raw_branches):
        where = f"branches[{n}]"
        known_keys(raw, ("from", "to", "r_ohm", "x_ohm", "switch", "normal"), where)
        from_bus = _require(raw, "from", str, where)
        to_bus = _require(raw, "to", str, where)
        for endpoint in (from_bus, to_bus):
            if endpoint not in ids:
                raise FeederError(
                    f"{where}: endpoint references unknown bus {endpoint!r}"
                )
        if from_bus == to_bus:
            raise FeederError(f"{where}: self-loop at bus {from_bus!r}")
        r = _parse_matrix(raw.get("r_ohm", [[0] * 3] * 3), "r_ohm", where)
        x = _parse_matrix(raw.get("x_ohm", [[0] * 3] * 3), "x_ohm", where)
        z = tuple(
            tuple(complex(r[i][j], x[i][j]) for j in range(3)) for i in range(3)
        )
        switch = raw.get("switch")
        normal_closed = True
        if switch is not None:
            if not isinstance(switch, str) or not switch:
                raise FeederError(f"{where}: switch name must be a non-empty string")
            if switch in switch_names:
                raise FeederError(f"duplicate switch name {switch!r}")
            switch_names.add(switch)
            normal = raw.get("normal", "closed")
            if normal not in ("open", "closed"):
                raise FeederError(
                    f"switch {switch!r}: normal state must be 'open' or 'closed'"
                )
            normal_closed = normal == "closed"
            if any(v != 0 for row in z for v in row):
                raise FeederError(f"switch {switch!r}: impedance must be zero")
        branches.append(Branch(from_bus, to_bus, z, switch, normal_closed))

    model = FeederModel(
        buses=tuple(buses),
        branches=tuple(branches),
        source_bus=source,
        base_volts_ln=base_kv_ln * 1000.0,
        base_va=base_kva * 1000.0,
    )
    orphans = np.flatnonzero(~model.branch_mask.any(axis=1))
    if orphans.size:
        br = model.branches[orphans[0]]
        raise FeederError(f"branch {br.from_bus!r}-{br.to_bus!r}: endpoints share no phase")
    return model


def load_feeder_file(path) -> FeederModel:
    """A fresh model of the feeder file at ``path``, read on every call."""
    with open(path, "r", encoding="utf-8") as fh:
        return load_feeder(fh.read())


def default_feeder_text() -> str:
    """Text of the bundled IEEE-123-like feeder description."""
    return (
        resources.files("gridbed")
        .joinpath("data", DEFAULT_FEEDER_RESOURCE)
        .read_text(encoding="utf-8")
    )


@functools.cache
def load_default_feeder() -> FeederModel:
    """The bundled feeder: one model per process, parsed on first call."""
    return load_feeder(default_feeder_text())
