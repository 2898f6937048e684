"""Unbalanced three-phase steady-state solver and voltage-quality metrics.

The solver runs a backward/forward sweep over a spanning tree of the
energized subgraph.  Closed ties that create cycles are handled by
loop-breakpoint current compensation: each non-tree active branch carries a
compensation current solved each iteration from the loop impedance matrix, so
weakly meshed configurations converge without rebuilding the sweep.

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

from .feeder import (
    PHASES,
    PHASE_INDEX,
    FeederModel,
    TopologyView,
    conduction_phases,
)

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
    energized: frozenset[str]

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


def effective_overrides(view: TopologyView, overrides: Overrides | None) -> Overrides:
    """Drop override entries for de-energized buses.

    Commanded setpoints on a dead section draw nothing until the section is
    re-energized; callers that consider switching candidates use this to stay
    physical without forgetting the command.
    """
    if not overrides:
        return {}
    return {b: v for b, v in overrides.items() if b in view.energized}


def solve(
    model: FeederModel,
    view: TopologyView,
    overrides: Overrides | None = None,
    tolerance_pu: float = DEFAULT_TOLERANCE_PU,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
) -> VoltageSolution:
    """Solve the energized subgraph; de-energized buses come back at 0 pu.

    Raises :class:`PowerFlowError` for overrides that reference de-energized
    or unknown buses/phases.  Non-convergence is not an error: the solution
    is returned with ``converged`` False and callers decide.
    """
    overrides = dict(overrides or {})
    for bus_id, per_phase in overrides.items():
        if bus_id not in model.bus_map:
            raise PowerFlowError(f"override references unknown bus {bus_id!r}")
        if bus_id not in view.energized:
            raise PowerFlowError(f"override references de-energized bus {bus_id!r}")
        for phase in per_phase:
            if phase not in model.bus(bus_id).phases:
                raise PowerFlowError(
                    f"override on bus {bus_id!r} phase {phase}: phase not carried"
                )

    plan = _SweepPlan.build(model, view)
    v_base = model.base_volts_ln
    s_base = model.base_va

    # Complex power demand in VA per energized (bus, phase), overrides applied.
    demand = np.zeros((len(plan.order), 3), dtype=complex)
    for bi, bus_id in enumerate(plan.order):
        bus = model.bus(bus_id)
        per_phase = overrides.get(bus_id, {})
        for p in bus.phases:
            pi = PHASE_INDEX[p]
            if p in per_phase:
                kw, kvar = per_phase[p]
            else:
                kw, kvar = bus.load_kw[pi], bus.load_kvar[pi]
            demand[bi, pi] = complex(kw, kvar) * 1000.0

    volts = np.zeros((len(plan.order), 3), dtype=complex)
    for bi, bus_id in enumerate(plan.order):
        for p in model.bus(bus_id).phases:
            if plan.fed_mask[bi, PHASE_INDEX[p]]:
                volts[bi, PHASE_INDEX[p]] = SOURCE_REFERENCE[PHASE_INDEX[p]] * v_base
    demand[~plan.fed_mask] = 0.0

    loop_currents = (
        np.zeros(len(plan.loop_coords), dtype=complex) if plan.loop_coords else None
    )

    converged = False
    iterations = 0
    mismatch = float("inf")
    for iterations in range(1, max_iterations + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            inj = np.where(volts != 0, np.conj(demand / np.where(volts == 0, 1, volts)), 0)

        # Backward: accumulate branch currents leaf-to-root, including tie
        # compensation currents injected at breakpoint endpoints.
        node_current = inj.copy()
        if loop_currents is not None:
            for k, (tie_idx, pi) in enumerate(plan.loop_coords):
                u_bi, v_bi = plan.tie_endpoints[tie_idx]
                node_current[u_bi, pi] += loop_currents[k]
                node_current[v_bi, pi] -= loop_currents[k]
        branch_current = np.zeros((len(plan.tree_edges), 3), dtype=complex)
        for ei in range(len(plan.tree_edges) - 1, -1, -1):
            child = plan.tree_child[ei]
            total = node_current[child]
            branch_current[ei] = np.where(plan.tree_mask[ei], total, 0)
            parent = plan.tree_parent[ei]
            node_current[parent] += branch_current[ei]

        # Forward: propagate voltages root-to-leaf through branch impedances.
        new_volts = volts.copy()
        for ei in range(len(plan.tree_edges)):
            parent = plan.tree_parent[ei]
            child = plan.tree_child[ei]
            drop = plan.tree_z[ei] @ branch_current[ei]
            mask = plan.tree_mask[ei]
            new_volts[child] = np.where(mask, new_volts[parent] - drop, new_volts[child])

        # Tie compensation: enforce V_u - V_v = Z_tie * J for every tie.
        gap_pu = 0.0
        if loop_currents is not None:
            gap = np.zeros(len(plan.loop_coords), dtype=complex)
            for k, (tie_idx, pi) in enumerate(plan.loop_coords):
                u_bi, v_bi = plan.tie_endpoints[tie_idx]
                z_row = plan.tie_z[tie_idx][pi]
                drop = sum(
                    z_row[q] * loop_currents[plan.coord_index.get((tie_idx, q), -1)]
                    if (tie_idx, q) in plan.coord_index
                    else 0
                    for q in range(3)
                )
                gap[k] = new_volts[u_bi, pi] - new_volts[v_bi, pi] - drop
            try:
                delta = np.linalg.solve(plan.loop_matrix, gap)
            except np.linalg.LinAlgError:
                break
            loop_currents = loop_currents + delta
            gap_pu = float(np.max(np.abs(gap))) / v_base

        # Power mismatch: demand versus power actually drawn by the currents
        # used this iteration, evaluated at the updated voltages.
        drawn = new_volts * np.conj(inj)
        mismatch = float(np.max(np.abs(demand - drawn))) / s_base if demand.size else 0.0
        volts = new_volts
        if mismatch <= tolerance_pu and gap_pu <= tolerance_pu:
            converged = True
            break

    meters = model.meter_points()
    voltages = np.array(
        [volts[plan.index[b], PHASE_INDEX[p]] if b in plan.index else 0j for b, p in meters],
        dtype=complex,
    ) / v_base

    return VoltageSolution(
        meters=meters,
        voltages=voltages,
        converged=converged,
        iterations=iterations,
        max_mismatch_pu=mismatch,
        energized=view.energized,
    )


@dataclass
class _SweepPlan:
    """Spanning tree, conduction masks, and loop system for one topology."""

    order: list[str]
    index: dict[str, int]
    fed_mask: np.ndarray
    tree_edges: list[int]
    tree_parent: list[int]
    tree_child: list[int]
    tree_z: list[np.ndarray]
    tree_mask: list[np.ndarray]
    tie_endpoints: list[tuple[int, int]]
    tie_z: list[np.ndarray]
    loop_coords: list[tuple[int, int]]
    coord_index: dict[tuple[int, int], int]
    loop_matrix: np.ndarray | None

    @staticmethod
    def build(model: FeederModel, view: TopologyView) -> "_SweepPlan":
        adjacency: dict[str, list[int]] = {b: [] for b in view.energized}
        for i in view.active_branches:
            br = model.branches[i]
            if br.from_bus in view.energized and br.to_bus in view.energized:
                adjacency[br.from_bus].append(i)
                adjacency[br.to_bus].append(i)

        order = [model.source_bus]
        index = {model.source_bus: 0}
        parent_edge: dict[str, int] = {}
        tree_edges: list[int] = []
        tree_parent: list[int] = []
        tree_child: list[int] = []
        used: set[int] = set()
        head = 0
        while head < len(order):
            u = order[head]
            head += 1
            for ei in adjacency[u]:
                if ei in used:
                    continue
                br = model.branches[ei]
                v = br.other(u)
                if v in index:
                    continue
                used.add(ei)
                index[v] = len(order)
                order.append(v)
                parent_edge[v] = ei
                tree_edges.append(ei)
                tree_parent.append(index[u])
                tree_child.append(index[v])

        ties = [
            i
            for i in view.active_branches
            if i not in used
            and model.branches[i].from_bus in view.energized
            and model.branches[i].to_bus in view.energized
        ]

        z_cache: dict[int, np.ndarray] = {}
        mask_cache: dict[int, np.ndarray] = {}
        for i in view.active_branches:
            br = model.branches[i]
            phases = conduction_phases(model, br)
            mask = np.zeros(3, dtype=bool)
            for p in phases:
                mask[PHASE_INDEX[p]] = True
            z = np.array(br.z_ohm, dtype=complex)
            z[~mask, :] = 0
            z[:, ~mask] = 0
            z_cache[i] = z
            mask_cache[i] = mask

        # Per-bus fed mask: a phase is fed iff carried along the whole tree
        # path from the source.
        fed = np.zeros((len(order), 3), dtype=bool)
        src_phases = model.bus(model.source_bus).phases
        for p in src_phases:
            fed[0, PHASE_INDEX[p]] = True
        for ei, pbi, cbi in zip(tree_edges, tree_parent, tree_child):
            fed[cbi] = fed[pbi] & mask_cache[ei]
            bus_phases = model.bus(order[cbi]).phases
            for p in PHASES:
                if p not in bus_phases:
                    fed[cbi, PHASE_INDEX[p]] = False

        tie_endpoints: list[tuple[int, int]] = []
        tie_z: list[np.ndarray] = []
        loop_coords: list[tuple[int, int]] = []
        tie_paths: list[dict[int, int]] = []
        tie_masks: list[np.ndarray] = []
        for t in ties:
            br = model.branches[t]
            u_bi = index[br.from_bus]
            v_bi = index[br.to_bus]
            path = _tree_path(u_bi, v_bi, order, parent_edge, model, index)
            loop_mask = mask_cache[t].copy()
            for ei in path:
                loop_mask &= mask_cache[ei]
            if not loop_mask.any():
                continue
            tie_endpoints.append((u_bi, v_bi))
            tie_z.append(z_cache[t])
            tie_paths.append(path)
            tie_masks.append(loop_mask)
            ti = len(tie_endpoints) - 1
            for pi in range(3):
                if loop_mask[pi]:
                    loop_coords.append((ti, pi))

        coord_index = {c: k for k, c in enumerate(loop_coords)}
        loop_matrix = None
        if loop_coords:
            n = len(loop_coords)
            loop_matrix = np.zeros((n, n), dtype=complex)
            for a, (ti, pi) in enumerate(loop_coords):
                for b, (tj, pj) in enumerate(loop_coords):
                    total = 0j
                    if ti == tj:
                        total += tie_z[ti][pi][pj]
                    for ei, sgn_i in tie_paths[ti].items():
                        sgn_j = tie_paths[tj].get(ei)
                        if sgn_j is not None:
                            total += sgn_i * sgn_j * z_cache[ei][pi][pj]
                    loop_matrix[a, b] = total

        return _SweepPlan(
            order=order,
            index=index,
            fed_mask=fed,
            tree_edges=tree_edges,
            tree_parent=tree_parent,
            tree_child=tree_child,
            tree_z=[z_cache[e] for e in tree_edges],
            tree_mask=[mask_cache[e] for e in tree_edges],
            tie_endpoints=tie_endpoints,
            tie_z=tie_z,
            loop_coords=loop_coords,
            coord_index=coord_index,
            loop_matrix=loop_matrix,
        )


def _tree_path(u_bi, v_bi, order, parent_edge, model, index) -> dict[int, int]:
    """Tree path u->v as {edge index: direction}, +1 when walked parent->child."""
    depth: dict[int, int] = {}

    def _depth(bi: int) -> int:
        d = 0
        b = bi
        while order[b] in parent_edge:
            ei = parent_edge[order[b]]
            br = model.branches[ei]
            b = index[br.other(order[b])]
            d += 1
        return d

    du, dv = _depth(u_bi), _depth(v_bi)
    path: dict[int, int] = {}
    u, v = u_bi, v_bi
    # Walk u up (child->parent = -1) and v up (+1 relative to the u->v walk)
    while du > dv:
        ei = parent_edge[order[u]]
        path[ei] = -1
        u = index[model.branches[ei].other(order[u])]
        du -= 1
    while dv > du:
        ei = parent_edge[order[v]]
        path[ei] = 1
        v = index[model.branches[ei].other(order[v])]
        dv -= 1
    while u != v:
        ei_u = parent_edge[order[u]]
        path[ei_u] = -1
        u = index[model.branches[ei_u].other(order[u])]
        ei_v = parent_edge[order[v]]
        path[ei_v] = 1
        v = index[model.branches[ei_v].other(order[v])]
    return path


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
