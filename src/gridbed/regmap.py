"""Codec between simulation state and the Modbus-visible register image.

Registers are numbered from 1 (wire address = register - 1).  The holding
registers carry the meters' scaled voltages (pu x 10^4) from 1, the load
setpoints (kW) from 207, the solver status (0 fresh, 1 stale) at 500 and a
FLOAT32 mirror of the voltages, two words each, from 1001; coils 1..S carry
the switch states, closed = 1.  The bases stay fixed for every model, so
client code never recomputes them.  :meth:`MeterMap.holding` is the one
table of the holding blocks, which the overlap check, the server's address
rule and :func:`render_register_map` read.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .feeder import PHASE_INDEX, FeederModel, SwitchConfig
from .powerflow import PowerFlowError, VoltageSolution

VOLTAGE_BLOCK_START = 1
SETPOINT_BLOCK_START = 207
STATUS_REGISTER = 500
FLOAT_BLOCK_START = 1001
READ_LIMIT = 125

VOLTAGE_SCALE = 10_000.0
MAX_SCALED_PU = 6.5535

# Controllable load points served by setpoint registers, in register order.
DEFAULT_SETPOINT_NODES: tuple[tuple[str, str], ...] = (
    ("N102", "C"),
    ("N103", "C"),
    ("N104", "C"),
    ("N106", "B"),
    ("N107", "B"),
    ("N99", "B"),
    ("N109", "A"),
    ("N111", "A"),
    ("N114", "A"),
)


class RegisterMapError(ValueError):
    """Value out of codec range or map/solution mismatch."""


class HoldingBlock(NamedTuple):
    """``size`` holding registers from ``first``, and their row of the
    rendered map; a ``register`` is one register, written by its number."""

    first: int
    size: int
    contents: str
    units: str
    register: bool = False


def encode_voltage_word(pu: float) -> int:
    """Scale a pu magnitude into a 16-bit word (round half up)."""
    if not 0.0 <= pu <= MAX_SCALED_PU:
        raise RegisterMapError(f"magnitude {pu} outside encodable range [0, {MAX_SCALED_PU}]")
    return int(math.floor(pu * VOLTAGE_SCALE + 0.5))


def decode_voltage_word(word: int) -> float:
    if not 0 <= word <= 0xFFFF:
        raise RegisterMapError(f"word {word} is not a 16-bit value")
    return word / VOLTAGE_SCALE


def encode_float_pair(value: float, high_word_first: bool = True) -> tuple[int, int]:
    """Split a real into the two 16-bit halves of its FLOAT32 bit pattern."""
    if not math.isfinite(value):
        raise RegisterMapError(f"cannot encode non-finite value {value!r}")
    raw = struct.pack(">f", value)
    hi, lo = struct.unpack(">HH", raw)
    return (hi, lo) if high_word_first else (lo, hi)


def decode_float_pair(words: Sequence[int], high_word_first: bool = True) -> float:
    if len(words) != 2:
        raise RegisterMapError("float decode needs exactly two words")
    for w in words:
        if not 0 <= w <= 0xFFFF:
            raise RegisterMapError(f"word {w} is not a 16-bit value")
    hi, lo = words if high_word_first else (words[1], words[0])
    return struct.unpack(">f", struct.pack(">HH", hi, lo))[0]


def plan_chunked_read(start: int, count: int, limit: int = READ_LIMIT) -> list[tuple[int, int]]:
    """Partition [start, start+count) into consecutive spans of at most limit."""
    if count < 1:
        raise RegisterMapError("count must be >= 1")
    if limit < 1:
        raise RegisterMapError("limit must be >= 1")
    end = start + count
    return [(at, min(limit, end - at)) for at in range(start, end, limit)]


@dataclass(frozen=True)
class MeterMap:
    """Register assignment: meters to voltage registers, controllable
    (bus, phase) points to setpoint registers, each point at most once.

    A setpoint vector is a tuple of kW in ``setpoints`` order, which is
    register order; :meth:`demand` turns one into the solver's load input.

    ``layout`` groups the meters by bus, in first-seen order: a ``(bus, 3)``
    grid of each bus's A, B, C positions in meter order, with
    ``len(meters)`` standing for a phase the bus lacks.  It is the grid
    :func:`~gridbed.powerflow.max_unbalance` reads a reading through.  A
    map is refused when one of its :meth:`holding` blocks runs into the next.
    """

    meters: tuple[tuple[str, str], ...]
    setpoints: tuple[tuple[str, str], ...]
    layout: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        blocks = list(self.holding().items())
        for (name, block), (next_name, after) in zip(blocks, blocks[1:]):
            if block.first + block.size > after.first:
                at = ("register " if after.register else "block at register ") + str(after.first)
                raise RegisterMapError(
                    f"{block.size} registers of the {name} block overrun the {next_name} {at}: "
                    f"at most {after.first - block.first} fit"
                )
        if len(set(self.setpoints)) != len(self.setpoints):
            repeated = next(p for p in self.setpoints if self.setpoints.count(p) > 1)
            raise RegisterMapError(f"setpoint point {repeated} is mapped twice")
        cells: dict[str, list[int]] = {}
        for k, (bus, phase) in enumerate(self.meters):
            cells.setdefault(bus, [len(self.meters)] * 3)[PHASE_INDEX[phase]] = k
        layout = np.array(list(cells.values()), dtype=int).reshape(-1, 3)
        layout.flags.writeable = False
        object.__setattr__(self, "layout", layout)

    @classmethod
    def for_model(
        cls,
        model: FeederModel,
        setpoint_nodes: Sequence[tuple[str, str]] = DEFAULT_SETPOINT_NODES,
    ) -> "MeterMap":
        meters = model.meter_points()
        for node, phase in setpoint_nodes:
            bus = model.bus(node)
            if phase not in bus.phases:
                raise RegisterMapError(
                    f"setpoint node {node!r} does not carry phase {phase}"
                )
        return cls(meters=meters, setpoints=tuple(setpoint_nodes))

    def holding(self) -> dict[str, HoldingBlock]:
        """The holding-register layout, one block per name in register order;
        the server's address rule and :func:`render_register_map` read it."""
        n = len(self.meters)
        return {
            "voltage": HoldingBlock(VOLTAGE_BLOCK_START, n, "per-meter voltage magnitude",
                                    "pu x 10^4"),
            "setpoint": HoldingBlock(SETPOINT_BLOCK_START, len(self.setpoints), "load setpoints",
                                     "kW, unsigned"),
            "status": HoldingBlock(STATUS_REGISTER, 1, "solver status", "0 fresh, 1 stale", True),
            "float": HoldingBlock(FLOAT_BLOCK_START, 2 * n, "FLOAT32 voltage mirror",
                                  "IEEE 754 single, two words per meter"),
        }

    def check_setpoints(self, setpoints_kw: Sequence[int]):
        """Raise :class:`RegisterMapError` unless ``setpoints_kw`` is a
        setpoint vector of this map: one whole kW per setpoint, an ``int``
        in 0..65535, with no conversion (a float, string or bool is refused)."""
        if len(setpoints_kw) != len(self.setpoints):
            k = len(self.setpoints)
            raise RegisterMapError(f"{len(setpoints_kw)} setpoints for a map of {k}")
        for (node, phase), kw in zip(self.setpoints, setpoints_kw):
            if type(kw) is not int or not 0 <= kw <= 0xFFFF:
                raise RegisterMapError(
                    f"setpoint {kw!r} kW for {node}.{phase} not a 16-bit value"
                )

    def demand(self, model: FeederModel, setpoints_kw: Sequence[int]) -> np.ndarray:
        """``model.base_demand`` with a setpoint vector written in: each
        setpoint's kW as commanded on its (bus, phase), kvar kept at the
        bus's base load.  This is the ``(bus, 3)`` VA array
        :func:`~gridbed.powerflow.solve` takes."""
        self.check_setpoints(setpoints_kw)
        demand = model.base_demand.copy()
        for (node, phase), kw in zip(self.setpoints, setpoints_kw):
            p = PHASE_INDEX[phase]
            demand[model.bus_index[node], p] = complex(kw, model.bus(node).load_kvar[p]) * 1000.0
        return demand

    def base_setpoints(self, model: FeederModel) -> tuple[int, ...]:
        """``model``'s base loads as a setpoint vector in whole kW: :meth:`demand` reversed."""
        return tuple(round(model.bus(n).load_kw[PHASE_INDEX[p]]) for n, p in self.setpoints)


@dataclass(frozen=True)
class RegisterImage:
    """The Modbus-visible state, immutable."""

    holding: tuple[int, ...]  # index = register number; [0] unused
    coils: tuple[bool, ...]  # index = coil number; [0] unused


def build_image(
    solution: VoltageSolution,
    setpoints_kw: Sequence[int],
    config: SwitchConfig,
    meter_map: MeterMap,
    stale: bool = False,
    high_word_first: bool = True,
) -> RegisterImage:
    """Render a solved state and its setpoint vector (kW in
    ``meter_map.setpoints`` order) into the register image.

    Pure function of its inputs: equal arguments produce identical images.
    """
    if solution.meters != meter_map.meters:
        raise RegisterMapError("meter map and solution list different measurement points")
    if not solution.converged:
        raise PowerFlowError("refusing to read magnitudes of a non-converged solution")
    mags = np.hypot(solution.voltages.real, solution.voltages.imag)
    # The comparison is False for NaN, so this also rejects non-finite values.
    bad = ~(mags <= MAX_SCALED_PU)
    if bad.any():
        k = int(np.argmax(bad))
        raise RegisterMapError(
            f"magnitude {mags[k]} at {meter_map.meters[k]} outside encodable range "
            f"[0, {MAX_SCALED_PU}]"
        )
    n = len(meter_map.meters)
    words = np.zeros(FLOAT_BLOCK_START + 2 * n, dtype=np.int64)
    words[VOLTAGE_BLOCK_START : VOLTAGE_BLOCK_START + n] = np.floor(mags * VOLTAGE_SCALE + 0.5)
    pairs = mags.astype(">f4").view(">u2").reshape(n, 2)
    words[FLOAT_BLOCK_START:] = (pairs if high_word_first else pairs[:, ::-1]).ravel()
    meter_map.check_setpoints(setpoints_kw)
    words[SETPOINT_BLOCK_START : SETPOINT_BLOCK_START + len(setpoints_kw)] = setpoints_kw
    words[STATUS_REGISTER] = 1 if stale else 0
    holding = words.tolist()

    coils = (False, *(bool(config.mask >> k & 1) for k in range(len(config.names))))
    return RegisterImage(holding=tuple(holding), coils=coils)


def render_register_map(meter_map: MeterMap, switch_names: Sequence[str]) -> str:
    """Markdown reference for the register layout (the repo's map document),
    with one coil per name in ``switch_names``."""
    coils = f"1..{len(switch_names)}" if switch_names else "none"
    names = f"{switch_names[0]}..{switch_names[-1]}" if switch_names else "none"
    lines = [
        "# Register map reference",
        "",
        "Holding registers are 16-bit unsigned words; numbers below are",
        "1-based register numbers (wire address = number - 1).",
        "",
        "| Entity | Range | Contents | Units / scaling |",
        "|---|---|---|---|",
        *(
            f"| Holding | {b.first if b.register else f'{b.first}..{b.first + b.size - 1}'} | "
            f"{b.contents} | {b.units} |"
            for b in meter_map.holding().values()
        ),
        f"| Coils | {coils} | switch states {names} | closed = 1 |",
        "",
        "## Voltage registers",
        "",
        "| Register | Float pair | Bus | Phase |",
        "|---|---|---|---|",
    ]
    for k, (bus, phase) in enumerate(meter_map.meters):
        lines.append(
            f"| {VOLTAGE_BLOCK_START + k} | "
            f"{FLOAT_BLOCK_START + 2 * k}-{FLOAT_BLOCK_START + 2 * k + 1} | {bus} | {phase} |"
        )
    lines += ["", "## Setpoint registers", "", "| Register | Node | Phase |", "|---|---|---|"]
    for k, (node, phase) in enumerate(meter_map.setpoints):
        lines.append(f"| {SETPOINT_BLOCK_START + k} | {node} | {phase} |")
    lines.append("")
    return "\n".join(lines)
