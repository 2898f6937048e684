"""Unbalanced three-phase steady-state solver and voltage-quality metrics.

The solver is one linear operator over the breadth-first spanning tree that
:func:`~gridbed.feeder.apply_switch_config` walked, ``sweep(source,
current)``: node currents accumulate leaf to root onto tree branches, then
voltages drop root to leaf through each branch's phase-masked 3x3 impedance.
The solver gathers the tree from the view and the model's per-branch arrays
and never walks the graph itself.  Each fixed-point iteration computes
``V = sweep(V_src, I_load + D J)`` for constant-power loads.

Radial and meshed topologies share that path.  A closed tie that closes a
loop is compensated at its breakpoint (Shirmohammadi et al., IEEE Trans.
Power Systems 3(2), 1988): each loop coordinate, one phase of a closed
non-tree branch fed at both ends, carries a loop current ``J`` drawn at one
end and returned at the other, so ``D`` holds +1 and -1 at the two ends.  The
loop matrix is the sweep's own response ``sweep(0, D)`` read across the ends,
plus the ties' impedance block; it is built once per solve, and only when loop
coordinates exist.  Each iteration corrects ``J`` toward the point where
every tie's end voltages differ by the tie's own drop.

All voltages are reported per-unit on the model's line-to-neutral base, as
one complex array in ``model.meter_points()`` order; power mismatch is
per-unit on the model's VA base.  De-energized buses report exactly zero on
all phases.

:meth:`VoltageSolution.magnitudes` returns the ``{(bus, phase): pu}`` mapping
that a client reads off the wire, so :func:`count_violations` and
:func:`max_unbalance` take that one shape and serve solver output and meter
readings alike.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .feeder import PHASES, PHASE_INDEX, FeederModel, TopologyView

DEFAULT_TOLERANCE_PU = 1e-6
DEFAULT_MAX_ITERATIONS = 100
DEFAULT_BAND = (0.95, 1.05)

# Source phase references: 1.0 pu at 0, -120, +120 degrees.
SOURCE_REFERENCE = (
    1.0 + 0.0j,
    cmath.exp(-2j * cmath.pi / 3),
    cmath.exp(2j * cmath.pi / 3),
)


class PowerFlowError(ValueError):
    """Invalid solver input (bad overrides, bad band) or a read of a
    non-converged solution."""


# Overrides: bus id -> phase -> (kw, kvar), replacing the base spot load on
# that phase only.
Overrides = Mapping[str, Mapping[str, tuple[float, float]]]


@dataclass
class VoltageSolution:
    """Complex voltages (pu) at every measurement point, plus convergence
    bookkeeping.  ``voltages[k]`` is the voltage at ``meters[k]``."""

    meters: tuple[tuple[str, str], ...]
    voltages: np.ndarray
    converged: bool
    iterations: int
    max_mismatch_pu: float

    def magnitudes(self) -> dict[tuple[str, str], float]:
        """``{(bus, phase): pu}`` in meter order, the shape of a wire read."""
        if not self.converged:
            raise PowerFlowError("refusing to read magnitudes of a non-converged solution")
        v = self.voltages
        return dict(zip(self.meters, np.hypot(v.real, v.imag).tolist()))


@dataclass
class ViolationReport:
    """Measurement points outside the service-voltage band."""

    count: int
    points: list[tuple[str, str, float]]
    band: tuple[float, float]
    outages: list[tuple[str, str]] = field(default_factory=list)


@dataclass
class UnbalanceReport:
    """Per-bus voltage unbalance percent over energized three-phase buses."""

    per_bus: dict[str, float]
    max_pct: float
    max_bus: str | None


def solve(
    model: FeederModel,
    view: TopologyView,
    overrides: Overrides | None = None,
) -> VoltageSolution:
    """Solve the energized subgraph; de-energized buses come back at 0 pu.

    An override on a de-energized bus draws nothing until a switch config
    energizes the bus.  Raises :class:`PowerFlowError` for overrides that
    reference unknown buses/phases.  Non-convergence is not an error: the
    solution is returned with ``converged`` False and callers decide.
    """
    overrides = dict(overrides or {})
    for bus_id, per_phase in overrides.items():
        if bus_id not in model.bus_map:
            raise PowerFlowError(f"override references unknown bus {bus_id!r}")
        for phase in per_phase:
            if phase not in model.bus(bus_id).phases:
                raise PowerFlowError(
                    f"override on bus {bus_id!r} phase {phase}: phase not carried"
                )

    tree = _Tree.build(model, view)
    v_base = model.base_volts_ln
    s_base = model.base_va

    # Complex power demand in VA per energized (bus, phase), overrides applied.
    demand = np.zeros((len(tree.order), 3), dtype=complex)
    for bi, bus_id in enumerate(tree.order):
        bus = model.bus(bus_id)
        per_phase = overrides.get(bus_id, {})
        for p in bus.phases:
            pi = PHASE_INDEX[p]
            if p in per_phase:
                kw, kvar = per_phase[p]
            else:
                kw, kvar = bus.load_kw[pi], bus.load_kvar[pi]
            demand[bi, pi] = complex(kw, kvar) * 1000.0
    demand[~tree.fed] = 0.0
    volts = np.where(tree.fed, np.array(SOURCE_REFERENCE) * v_base, 0)

    # Loop currents J, one per loop coordinate, drawn at its from end and
    # returned at its to end: D holds +1 and -1 there.  The ends' voltage gap
    # responds to J through sweep(0, D), so the loop matrix is the ties' own
    # impedance less that response read at the ends.
    fr, to, ph = tree.ends
    loops = np.zeros(len(ph), dtype=complex)
    if loops.size:
        d = np.zeros((len(tree.order), 3, loops.size))
        d[fr, ph, range(loops.size)] = 1.0
        d[to, ph, range(loops.size)] = -1.0
        response = tree.sweep(0, d)
        loop_matrix = tree.tie_z - (response[fr, ph] - response[to, ph])

    converged = False
    iterations = 0
    mismatch = float("inf")
    for iterations in range(1, DEFAULT_MAX_ITERATIONS + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            inj = np.where(volts != 0, np.conj(demand / np.where(volts == 0, 1, volts)), 0)
        new_volts = tree.sweep(volts[0], inj + d @ loops if loops.size else inj)

        # Tie compensation: drive V_u - V_v - Z_tie * J to zero at every
        # loop coordinate.
        gap_pu = 0.0
        if loops.size:
            gap = new_volts[fr, ph] - new_volts[to, ph] - tree.tie_z @ loops
            try:
                delta = np.linalg.solve(loop_matrix, gap)
            except np.linalg.LinAlgError:
                break
            loops = loops + delta
            gap_pu = float(np.max(np.abs(gap))) / v_base

        # Power mismatch: demand versus power actually drawn by the currents
        # used this iteration, evaluated at the updated voltages.
        drawn = new_volts * np.conj(inj)
        mismatch = float(np.max(np.abs(demand - drawn))) / s_base if demand.size else 0.0
        volts = new_volts
        if mismatch <= DEFAULT_TOLERANCE_PU and gap_pu <= DEFAULT_TOLERANCE_PU:
            converged = True
            break

    meters = model.meter_points()
    voltages = np.array(
        [volts[tree.index[b], PHASE_INDEX[p]] if b in tree.index else 0j for b, p in meters],
        dtype=complex,
    ) / v_base

    return VoltageSolution(
        meters=meters,
        voltages=voltages,
        converged=converged,
        iterations=iterations,
        max_mismatch_pu=mismatch,
    )


@dataclass
class _Tree:
    """The view's BFS spanning tree, gathered for the sweep, and its loop
    coordinates.

    Buses are numbered in BFS order from the source (0).  Bus ``k > 0`` hangs
    off bus ``parent[k]`` through its tree branch, whose impedance ``z[k]``
    (ohm) and 0/1 phase ``mask[k]`` cover only the phases that branch conducts.
    A phase is fed at a bus when every tree branch from the source carries
    it.  A loop coordinate is one phase of a closed non-tree branch fed at
    both ends; column ``c`` of ``ends`` holds its from bus, to bus and phase,
    and ``tie_z`` couples coordinates of the same tie through its impedance.
    """

    order: tuple[str, ...]
    index: dict[str, int]
    parent: tuple[int, ...]
    z: list[np.ndarray]
    mask: list[np.ndarray]
    fed: np.ndarray
    ends: np.ndarray
    tie_z: np.ndarray

    @staticmethod
    def build(model: FeederModel, view: TopologyView) -> "_Tree":
        order, parent, via = view.order, view.parent, list(view.via[1:])
        index = {b: k for k, b in enumerate(order)}
        mask = np.zeros((len(order), 3), dtype=bool)
        mask[1:] = model.branch_mask[via]
        z = np.zeros((len(order), 3, 3), dtype=complex)
        z[1:] = model.branch_z[via]
        fed = np.empty_like(mask)
        fed[0] = [p in model.bus(model.source_bus).phases for p in PHASES]
        for k in range(1, len(order)):
            fed[k] = fed[parent[k]] & mask[k]

        coords = []
        for i in view.loops:
            u, v = index[model.branches[i].from_bus], index[model.branches[i].to_bus]
            for pi in np.flatnonzero(model.branch_mask[i] & fed[u] & fed[v]):
                coords.append((u, v, pi, i))
        fr, to, ph, tie = np.array(coords, dtype=int).reshape(-1, 4).T
        same_tie = tie[:, None] == tie[None, :]
        tie_z = np.where(same_tie, model.branch_z[tie[:, None], ph[:, None], ph[None, :]], 0)

        return _Tree(
            order=order,
            index=index,
            parent=parent,
            z=list(z),
            mask=list(mask.astype(float)),
            fed=fed,
            ends=np.array([fr, to, ph]),
            tie_z=tie_z,
        )

    def sweep(self, source, current: np.ndarray) -> np.ndarray:
        """Bus voltages with the source bus held at ``source`` and
        ``current`` drawn at every bus; linear in both.

        Currents accumulate leaf to root onto each bus's tree branch, then
        voltages drop root to leaf.  Phases a branch does not conduct read 0
        below it.  A trailing axis on ``current`` is carried through, so one
        call answers several right-hand sides.
        """
        parent, z = self.parent, self.z
        mask = self.mask if current.ndim == 2 else [m[:, None] for m in self.mask]
        node = current.astype(complex)
        branch = np.zeros_like(node)
        for bi in range(len(parent) - 1, 0, -1):
            branch[bi] = carried = node[bi] * mask[bi]
            node[parent[bi]] += carried
        volts = np.zeros_like(node)
        volts[0] = source
        for bi in range(1, len(parent)):
            volts[bi] = (volts[parent[bi]] - z[bi] @ branch[bi]) * mask[bi]
        return volts


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def count_violations(
    magnitudes: Mapping[tuple[str, str], float], band: tuple[float, float] = DEFAULT_BAND
) -> ViolationReport:
    """Count ``{(bus, phase): pu}`` points outside the band.

    A magnitude of exactly 0 is an outage (de-energized), not a violation.
    """
    low, high = band
    if low >= high:
        raise PowerFlowError(f"inverted band: {band}")
    points = [
        (bus, phase, mag)
        for (bus, phase), mag in magnitudes.items()
        if mag != 0.0 and (mag < low or mag > high)
    ]
    outages = [point for point, mag in magnitudes.items() if mag == 0.0]
    return ViolationReport(count=len(points), points=points, band=band, outages=outages)


def unbalance_at(v_a: float, v_b: float, v_c: float) -> float:
    """Percent deviation of the worst phase from the three-phase mean."""
    if v_a <= 0 or v_b <= 0 or v_c <= 0:
        raise PowerFlowError("unbalance needs three positive phase magnitudes")
    v_avg = (v_a + v_b + v_c) / 3.0
    dev = max(abs(v_a - v_avg), abs(v_b - v_avg), abs(v_c - v_avg))
    return dev / v_avg * 100.0


def max_unbalance(magnitudes: Mapping[tuple[str, str], float]) -> UnbalanceReport:
    """Worst unbalance over buses with three nonzero ``{(bus, phase): pu}``
    magnitudes; ``max_pct`` 0.0 and ``max_bus`` None when no bus qualifies."""
    by_bus: dict[str, dict[str, float]] = {}
    for (bus, phase), mag in magnitudes.items():
        by_bus.setdefault(bus, {})[phase] = mag
    per_bus = {
        bus: unbalance_at(*(phases[p] for p in PHASES))
        for bus, phases in by_bus.items()
        if all(phases.get(p, 0.0) > 0 for p in PHASES)
    }
    max_bus = max(per_bus, key=lambda b: (per_bus[b], b), default=None)
    max_pct = 0.0 if max_bus is None else per_bus[max_bus]
    return UnbalanceReport(per_bus=per_bus, max_pct=max_pct, max_bus=max_bus)
