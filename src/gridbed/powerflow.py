"""Unbalanced three-phase steady-state solver and voltage-quality metrics.

The solver is one linear operator over the breadth-first spanning tree that
:func:`~gridbed.feeder.apply_switch_config` walked, ``sweep(source,
current)``: node currents accumulate leaf to root onto tree branches, then
voltages drop root to leaf through each branch's impedance.  A branch that
conducts one phase, as a single-phase lateral does, drops that phase through
its self-impedance alone; any other branch through its phase-masked 3x3
impedance.
The solver gathers the tree from the view and the model's per-branch rows on
the view's first solve, keeps it with the view (see
:mod:`gridbed.feeder` for the per-model topology cache), and never walks the
graph itself.  Each fixed-point iteration computes
``V = sweep(V_src, I_load + D J)`` for constant-power loads.

Radial and meshed topologies share that path.  A closed tie that closes a
loop is compensated at its breakpoint (Shirmohammadi et al., IEEE Trans.
Power Systems 3(2), 1988): each loop coordinate, one phase of a closed
non-tree branch fed at both ends, carries a loop current ``J`` drawn at one
end and returned at the other, so ``D`` holds +1 and -1 at the two ends.  The
loop matrix is the sweep's own response ``sweep(0, D)`` read across the ends,
plus the ties' impedance block; it is built with the tree, and only when loop
coordinates exist.  Each iteration corrects ``J`` toward the point where
every tie's end voltages differ by the tie's own drop, and moves the voltages
by the correction's response ``sweep(0, D) @ delta`` in the same iteration,
so every iterate meets the ties exactly and only the constant-power
nonlinearity is left to converge: meshed topologies take about as many
iterations as radial ones.

A solve spends most of its time in the sweep, whose per-bus arithmetic runs
on Python ``complex`` scalars held in one list per phase: a bus below a
one-phase branch costs one add on the way up and one multiply and subtract on
the way down, any other bus a dozen products and sums on three phases, both
less than the fixed cost of one numpy call on a 3-element array.  A branch
that conducts all three phases skips its mask multiplies, and a two-phase
branch keeps them.  Each iteration hands the sweep one list per phase and the
source triple, and forms the injection with one masked division, under one
``np.errstate`` per solve.  On the bundled feeder a case-6 solve takes about
0.55 ms radial (6 iterations) and 0.6 ms with S7 and S8 closed (5
iterations), on 2 vCPUs with Python 3.11 and numpy 2.4.

Every per-(bus, phase) quantity is a ``(bus, 3)`` array in the model's bus
order (see :class:`~gridbed.feeder.FeederModel`): the demand is complex VA
shaped as ``model.base_demand``, which a setpoint vector reaches through
:meth:`~gridbed.regmap.MeterMap.demand`, and the sweep runs on model bus
rows.  Voltages are reported per-unit on the model's line-to-neutral
base, read at ``model.carried`` into one complex array in meter order; power
mismatch is per-unit on the model's VA base.  De-energized buses report
exactly zero on all phases.

A reading is a tuple of magnitudes (pu) in meter order, one per
``model.meter_points()`` entry.  :meth:`VoltageSolution.magnitudes` returns
one, as a client's read off the wire does, so :func:`count_violations` and
:func:`max_unbalance` take that one shape and serve solver output and meter
readings alike; :attr:`~gridbed.regmap.MeterMap.layout` groups a reading's
positions by bus for the unbalance.
"""

from __future__ import annotations

import cmath
import dataclasses
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .feeder import FeederModel, TopologyView, number

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
    """Invalid solver input (a demand of the wrong shape, a bad band) or a
    read of a non-converged solution."""


@dataclass(frozen=True)
class VoltageSolution:
    """Complex voltages (pu) at every measurement point, plus convergence
    bookkeeping.  ``voltages[k]`` is the voltage at ``meters[k]``; the
    solver's own solutions are read-only."""

    meters: tuple[tuple[str, str], ...]
    voltages: np.ndarray
    converged: bool
    iterations: int
    max_mismatch_pu: float

    def magnitudes(self) -> tuple[float, ...]:
        """Magnitudes (pu) in meter order, the shape of a wire read."""
        if not self.converged:
            raise PowerFlowError("refusing to read magnitudes of a non-converged solution")
        v = self.voltages
        return tuple(np.hypot(v.real, v.imag).tolist())


def solve(
    model: FeederModel,
    view: TopologyView,
    demand: np.ndarray | None = None,
) -> VoltageSolution:
    """Solve the energized subgraph; de-energized buses come back at 0 pu.

    ``demand`` is the complex power (VA) each (bus, phase) draws, a
    ``(bus, 3)`` array in model bus order; None means ``model.base_demand``.
    A cell that is not fed draws nothing: a phase the bus does not carry,
    or a bus no switch config energizes yet.  Raises :class:`PowerFlowError`
    for a demand of another shape.  Non-convergence is not an error: the
    solution is returned with ``converged`` False and callers decide.
    """
    if demand is None:
        demand = model.base_demand
    elif np.shape(demand) != model.base_demand.shape:
        raise PowerFlowError(
            f"demand of shape {np.shape(demand)}, not {model.base_demand.shape} (bus, phase)"
        )
    tree = _Tree.of(view)
    v_base = model.base_volts_ln
    s_base = model.base_va
    demand = np.where(tree.fed, demand, 0j)
    volts = np.where(tree.fed, np.array(SOURCE_REFERENCE) * v_base, 0)
    source = volts[tree.order[0]].tolist()
    fr, to, ph = tree.ends
    loops = np.zeros(len(ph), dtype=complex)

    converged = False
    iterations = 0
    mismatch = float("inf")
    with np.errstate(divide="ignore", invalid="ignore"):
        for iterations in range(1, DEFAULT_MAX_ITERATIONS + 1):
            # conj(S / V) where the voltage is nonzero, 0 elsewhere
            live = volts != 0
            inj = np.divide(demand, volts, out=np.zeros_like(demand), where=live)
            np.conjugate(inj, out=inj, where=live)
            current = inj + tree.d @ loops if loops.size else inj
            new_volts = np.array(tree.kernel(current.T.tolist(), source)).T

            # Tie compensation: drive V_u - V_v - Z_tie * J to zero at every
            # loop coordinate, and move the voltages by the correction's own
            # response, so that every iterate meets the ties exactly.
            gap_pu = 0.0
            if loops.size:
                gap = new_volts[fr, ph] - new_volts[to, ph] - tree.tie_z @ loops
                try:
                    delta = np.linalg.solve(tree.loop_matrix, gap)
                except np.linalg.LinAlgError:
                    break
                loops = loops + delta
                new_volts = new_volts + tree.response @ delta
                gap_pu = float(np.abs(gap).max()) / v_base

            # Power mismatch: demand versus power actually drawn by the
            # currents used this iteration, evaluated at the updated voltages.
            drawn = new_volts * np.conj(inj)
            mismatch = float(np.abs(demand - drawn).max()) / s_base
            volts = new_volts
            if mismatch <= DEFAULT_TOLERANCE_PU and gap_pu <= DEFAULT_TOLERANCE_PU:
                converged = True
                break

    voltages = volts[model.carried] / v_base
    voltages.flags.writeable = False
    return VoltageSolution(
        meters=model.meter_points(),
        voltages=voltages,
        converged=converged,
        iterations=iterations,
        max_mismatch_pu=mismatch,
    )


# The mask of a branch that conducts all three phases, which the sweep skips.
_ALL_PHASES = (1.0, 1.0, 1.0)


@dataclass(frozen=True)
class _Tree:
    """The view's BFS spanning tree over model bus rows, gathered for the
    sweep, and its loop coordinates.

    ``order`` lists the energized buses' rows in BFS order, source first.
    ``steps`` holds one ``(row, up, phase, z, mask)`` per tree bus but the
    source, in that order: bus row ``row`` hangs off row ``up`` through its
    tree branch, in one of two shapes.  A branch that conducts one phase
    gives ``phase`` (0, 1 or 2), its self-impedance ``z`` (ohm, one complex
    number) and ``mask`` None.  Any other branch gives ``phase`` None, its
    impedance ``z`` (ohm, nine complex numbers row by row) and its 0/1 phase
    ``mask`` (three floats), which cover only the phases the branch conducts
    and are the model's shared per-branch rows; a branch that conducts all
    three phases shares the one all-ones mask, which the sweep skips.  A
    phase is fed at a bus when every tree branch from the source carries it.
    A loop coordinate is one phase of a closed non-tree branch fed at both
    ends; column ``c`` of ``ends`` holds its from row, to row and phase, and
    ``tie_z`` couples coordinates of the same tie through its impedance.

    With loop coordinates, ``d`` draws each coordinate's loop current at its
    from end and returns it at its to end (+1 and -1), ``response`` is
    ``sweep(0, d)``, and ``loop_matrix`` is ``tie_z`` less the response's gap
    across the ends; without them all three are None.  Every array is
    read-only and every step a tuple, so one tree serves every thread that
    solves its view.  The sweep reads the steps as Python scalars, since one
    numpy call costs more than a bus's arithmetic.
    """

    order: tuple[int, ...]
    steps: tuple[tuple[int, int, int | None, complex | tuple[complex, ...],
                       tuple[float, ...] | None], ...]
    fed: np.ndarray
    ends: np.ndarray
    tie_z: np.ndarray
    d: np.ndarray | None = None
    response: np.ndarray | None = None
    loop_matrix: np.ndarray | None = None

    @staticmethod
    def of(view: TopologyView) -> "_Tree":
        """The view's tree, gathered on its first solve and kept with it."""
        tree = view.derived.get("tree")
        if tree is None:
            tree = view.derived.setdefault("tree", _Tree.build(view))
        return tree

    @staticmethod
    def build(view: TopologyView) -> "_Tree":
        model = view.model
        row, n = model.bus_index, len(model.buses)
        branch_z, branch_mask = model.branch_rows
        order = tuple(row[b] for b in view.order)
        steps = []
        fed = np.zeros((n, 3), dtype=bool)
        fed[order[0]] = model.carried[order[0]]
        for b, up, i in zip(order[1:], view.parent[1:], view.via[1:]):
            mask = branch_mask[i]
            if sum(mask) == 1:
                p = mask.index(1.0)
                steps.append((b, order[up], p, branch_z[i][4 * p], None))
            else:
                steps.append((b, order[up], None, branch_z[i],
                              _ALL_PHASES if mask == _ALL_PHASES else mask))
            fed[b] = fed[order[up]] & model.branch_mask[i]

        coords = []
        for i in view.loops:
            u, v = row[model.branches[i].from_bus], row[model.branches[i].to_bus]
            for pi in np.flatnonzero(model.branch_mask[i] & fed[u] & fed[v]):
                coords.append((u, v, pi, i))
        fr, to, ph, tie = np.array(coords, dtype=int).reshape(-1, 4).T
        same_tie = tie[:, None] == tie[None, :]
        tie_z = np.where(same_tie, model.branch_z[tie[:, None], ph[:, None], ph[None, :]], 0)
        tree = _Tree(order, tuple(steps), fed, np.array([fr, to, ph]), tie_z)
        if ph.size:
            # The ends' voltage gap responds to the loop currents through
            # sweep(0, d), so the loop matrix is the ties' own impedance less
            # that response read at the ends.
            d = np.zeros((n, 3, ph.size))
            d[fr, ph, range(ph.size)] = 1.0
            d[to, ph, range(ph.size)] = -1.0
            response = tree.sweep(0, d)
            loop_matrix = tie_z - (response[fr, ph] - response[to, ph])
            tree = dataclasses.replace(tree, d=d, response=response, loop_matrix=loop_matrix)
        for array in (fed, tree.ends, tie_z, tree.d, tree.response, tree.loop_matrix):
            if array is not None:
                array.flags.writeable = False
        return tree

    def sweep(self, source, current: np.ndarray) -> np.ndarray:
        """Bus voltages with the source bus held at ``source`` and
        ``current`` drawn at every bus; linear in both.

        Currents accumulate leaf to root onto each bus's tree branch, then
        voltages drop root to leaf, in one list of Python ``complex`` per
        phase (:meth:`kernel`).  Buses off the tree read 0.  A phase a branch
        does not conduct reads 0 at the branch's lower bus: a one-phase
        branch moves its own phase only and leaves the others at exactly 0,
        even for a NaN current, and a two-phase branch multiplies by its
        phase mask, so there a NaN current on the phase the branch does not
        conduct reads NaN, as ``NaN * 0`` does.  A branch that conducts all
        three phases skips its mask: a Python ``complex`` times 1.0 differs
        from itself only in the sign of a zero part or a part made NaN next
        to a NaN or infinite one, and no voltage a solve reports moves.
        Further down, a branch that conducts the phase again subtracts the
        other phases' mutual drop from that 0, so an unfed phase need not
        read 0 (up to 1.65e-4 pu with S8 closed on the bundled feeder).  A
        trailing axis on ``current`` is carried through, one column at a
        time, so one call answers several right-hand sides.
        """
        if current.ndim == 3:
            columns = zip(np.broadcast_to(source, current.shape[1:]).T, np.moveaxis(current, 2, 0))
            return np.stack([self.sweep(*column) for column in columns], axis=2)
        flows = current.T.astype(complex).tolist()
        return np.array(self.kernel(flows, np.broadcast_to(source, 3).astype(complex).tolist())).T

    def kernel(self, flows: list, source: list) -> list:
        """:meth:`sweep` on one list of Python ``complex`` per phase: the
        node currents ``flows``, which it overwrites with the branch flows,
        and the source triple.  Returns the voltages, one list per phase."""
        fa, fb, fc = flows
        # A bus's flow is its node current, then its tree branch's.
        for row, up, phase, _, mask in reversed(self.steps):
            if mask is None:
                f = flows[phase]
                f[up] += f[row]
            elif mask is _ALL_PHASES:
                fa[up] += fa[row]
                fb[up] += fb[row]
                fc[up] += fc[row]
            else:
                ma, mb, mc = mask
                fa[row] = ia = fa[row] * ma
                fb[row] = ib = fb[row] * mb
                fc[row] = ic = fc[row] * mc
                fa[up] += ia
                fb[up] += ib
                fc[up] += ic
        n = len(fa)
        volts = va, vb, vc = [0j] * n, [0j] * n, [0j] * n
        va[self.order[0]], vb[self.order[0]], vc[self.order[0]] = source
        for row, up, phase, z, mask in self.steps:
            if mask is None:
                v = volts[phase]
                v[row] = v[up] - z * flows[phase][row]
                continue
            zaa, zab, zac, zba, zbb, zbc, zca, zcb, zcc = z
            ia, ib, ic = fa[row], fb[row], fc[row]
            if mask is _ALL_PHASES:
                va[row] = va[up] - (zaa * ia + zab * ib + zac * ic)
                vb[row] = vb[up] - (zba * ia + zbb * ib + zbc * ic)
                vc[row] = vc[up] - (zca * ia + zcb * ib + zcc * ic)
            else:
                ma, mb, mc = mask
                va[row] = (va[up] - (zaa * ia + zab * ib + zac * ic)) * ma
                vb[row] = (vb[up] - (zba * ia + zbb * ib + zbc * ic)) * mb
                vc[row] = (vc[up] - (zca * ia + zcb * ib + zcc * ic)) * mc
        return volts


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def check_band(band) -> tuple[float, float]:
    """``band`` as a ``(low, high)`` pair of finite numbers, each as
    :func:`~gridbed.feeder.number` reads it, with low < high."""
    if isinstance(band, (list, tuple)) and len(band) == 2:
        low = number(band[0], "band low", PowerFlowError)
        high = number(band[1], "band high", PowerFlowError)
        if low < high:
            return low, high
    raise PowerFlowError(f"inverted or malformed band {band!r}: need two numbers, low < high")


def count_violations(reading: Sequence[float], band: tuple[float, float] = DEFAULT_BAND) -> int:
    """Count the magnitudes of a meter-order reading that fall outside the band.

    A magnitude of exactly 0 is an outage (de-energized), not a violation; a
    non-finite one is a violation.
    """
    low, high = check_band(band)
    return sum(mag != 0.0 and not low <= mag <= high for mag in reading)


def max_unbalance(reading: Sequence[float], layout: np.ndarray) -> float:
    """Worst unbalance (percent) over the buses of a meter-order reading with
    three nonzero, finite magnitudes; 0.0 when no bus qualifies.

    ``layout`` is the reading's ``(bus, 3)`` grid of A, B, C positions, with
    ``len(reading)`` standing for a phase the bus lacks (see
    :attr:`~gridbed.regmap.MeterMap.layout`).  A bus's unbalance is the
    deviation of its worst phase magnitude from the mean of its three, in
    percent of that mean.
    """
    mags = np.array([*reading, 0.0])[layout]
    mags = mags[((mags > 0) & np.isfinite(mags)).all(axis=1)]
    if not len(mags):
        return 0.0
    mean = (mags[:, 0] + mags[:, 1] + mags[:, 2]) / 3.0
    return float((np.abs(mags - mean[:, None]).max(axis=1) / mean * 100.0).max())
