"""Independent numerical oracles for the test suite.

Nothing here shares code paths with the package solver: the dense oracle
assembles the full nodal admittance system over (bus, phase) coordinates and
fixed-point iterates on injected currents; the graph oracles are plain
union-find / breadth-first implementations; the Modbus address oracle checks
every register of a span against sets written out from the documented
register layout; the metric references take a meter-order reading with its
meters, list the points outside the band and the outages one point at a
time, and group the reading by bus in a dict to apply the scalar unbalance
formula one bus at a time.  The two defender search
references score every candidate with the package's ``payoff``, as the
searches did before they learned to skip candidates that cannot win.
:func:`sweep_reference` is the tree sweep as it ran before its per-bus
arithmetic moved onto Python scalars: it reads the tree the solver gathered,
but does each bus's arithmetic in numpy, the 3x3 product through ``@``.
"""

from __future__ import annotations

import cmath
import functools

import numpy as np

PHASES = ("A", "B", "C")
ANGLES = (1.0 + 0j, cmath.exp(-2j * cmath.pi / 3), cmath.exp(2j * cmath.pi / 3))


def demand_with(model, loads):
    """``model.base_demand`` with ``loads``, ``{bus: {phase: (kw, kvar)}}``,
    written in: the ``(bus, 3)`` VA array ``solve`` and
    :func:`dense_nodal_solve` take."""
    demand = model.base_demand.copy()
    for bus_id, per_phase in loads.items():
        for p, (kw, kvar) in per_phase.items():
            demand[model.bus_index[bus_id], PHASES.index(p)] = complex(kw, kvar) * 1000.0
    return demand


def dense_nodal_solve(model, demand=None, tol=1e-12, max_iter=2000, closed=()):
    """Full Y-bus fixed-point solution over (bus, phase) nodes.

    ``demand`` is the ``(bus, 3)`` VA array, in model bus order, that
    ``solve`` takes; None means each bus's own ``load_kw`` and ``load_kvar``.
    A switch named in ``closed`` merges the (bus, phase) points it joins into
    one node; every other switch is open and ignored.  Lines enter the Y-bus.
    Returns {bus: {phase: complex pu}}.
    """
    points = [(bus.id, p) for bus in model.buses for p in bus.phases]
    merged = UnionFind(points)
    for br in model.branches:
        if br.is_switch and br.switch in closed:
            for p in model.bus(br.from_bus).phases:
                if p in model.bus(br.to_bus).phases:
                    merged.union((br.from_bus, p), (br.to_bus, p))
    roots = {}
    for point in points:
        roots.setdefault(merged.find(point), len(roots))
    index = {point: roots[merged.find(point)] for point in points}
    n = len(roots)

    ybus = np.zeros((n, n), dtype=complex)
    for br in model.branches:
        if br.is_switch:
            continue
        from_phases = model.bus(br.from_bus).phases
        to_phases = model.bus(br.to_bus).phases
        shared = [p for p in PHASES if p in from_phases and p in to_phases]
        z = np.array(
            [
                [br.z_ohm[PHASES.index(pi)][PHASES.index(pj)] for pj in shared]
                for pi in shared
            ],
            dtype=complex,
        )
        y = np.linalg.inv(z)
        fi = [index[(br.from_bus, p)] for p in shared]
        ti = [index[(br.to_bus, p)] for p in shared]
        for a, ia in enumerate(fi):
            for b, ib in enumerate(fi):
                ybus[ia, ib] += y[a, b]
            for b, ib in enumerate(ti):
                ybus[ia, ib] -= y[a, b]
        for a, ia in enumerate(ti):
            for b, ib in enumerate(ti):
                ybus[ia, ib] += y[a, b]
            for b, ib in enumerate(fi):
                ybus[ia, ib] -= y[a, b]

    v_base = model.base_volts_ln
    source_phase = {index[(model.source_bus, p)]: p for p in model.bus(model.source_bus).phases}
    source = sorted(source_phase)
    load = [k for k in range(n) if k not in source_phase]
    v_src = np.array(
        [ANGLES[PHASES.index(source_phase[k])] * v_base for k in source], dtype=complex
    )

    drawn = np.zeros(n, dtype=complex)
    for row, bus in enumerate(model.buses):
        for p in bus.phases:
            pi = PHASES.index(p)
            if demand is None:
                va = complex(bus.load_kw[pi], bus.load_kvar[pi]) * 1000.0
            else:
                va = demand[row, pi]
            drawn[index[(bus.id, p)]] += va

    y_ll = ybus[np.ix_(load, load)]
    y_ls = ybus[np.ix_(load, source)]
    z_ll = np.linalg.inv(y_ll)
    v0 = -z_ll @ (y_ls @ v_src)
    v = v0.copy()
    for _ in range(max_iter):
        inj = -np.conj(drawn[load] / v)
        v_new = v0 + z_ll @ inj
        if np.max(np.abs(v_new - v)) < tol * v_base:
            v = v_new
            break
        v = v_new

    node_v = np.zeros(n, dtype=complex)
    node_v[source] = v_src
    node_v[load] = v
    out = {bus.id: {} for bus in model.buses}
    for (bus_id, p), k in index.items():
        out[bus_id][p] = node_v[k] / v_base
    return out


def tree_branches(view):
    """``(row, up, z, mask)`` per bus of ``view``'s BFS tree but the source, in
    BFS order: the bus's model row, its parent's row, and its tree branch's
    3x3 impedance and phase mask, read from the view and the model's arrays."""
    model = view.model
    rows = [model.bus_index[bus] for bus in view.order]
    return [
        (rows[k], rows[view.parent[k]], model.branch_z[i], model.branch_mask[i])
        for k, i in enumerate(view.via) if k
    ]


def sweep_reference(view, source, current):
    """The solver's tree sweep over ``view`` with numpy calls per bus, a
    trailing axis on ``current`` broadcast through each bus's phase mask."""
    trailing = (slice(None),) + (None,) * (current.ndim - 2)
    steps = [(row, up, z, mask.astype(float)[trailing])
             for row, up, z, mask in tree_branches(view)]
    node = current.astype(complex)
    branch = np.zeros_like(node)
    for row, up, _, mask in reversed(steps):
        branch[row] = carried = node[row] * mask
        node[up] += carried
    volts = np.zeros_like(node)
    volts[view.model.bus_index[view.order[0]]] = source
    for row, up, z, mask in steps:
        volts[row] = (volts[up] - z @ branch[row]) * mask
    return volts


def two_bus_receiving_magnitude(vs, r, x, p_w, q_var):
    """Closed-form receiving-end |V| for one constant-power load over one line.

    Solves |V|^4 + (2(PR+QX) - Vs^2)|V|^2 + (P^2+Q^2)|Z|^2 = 0 for the high
    root, all in SI units.
    """
    b = 2.0 * (p_w * r + q_var * x) - vs * vs
    c = (p_w * p_w + q_var * q_var) * (r * r + x * x)
    disc = b * b - 4.0 * c
    assert disc >= 0, "load exceeds deliverable power"
    v2 = (-b + disc ** 0.5) / 2.0
    return v2 ** 0.5


def unbalance_at(v_a: float, v_b: float, v_c: float) -> float:
    """Percent deviation of the worst phase from the three-phase mean."""
    if v_a <= 0 or v_b <= 0 or v_c <= 0:
        raise ValueError("unbalance needs three positive phase magnitudes")
    v_avg = (v_a + v_b + v_c) / 3.0
    dev = max(abs(v_a - v_avg), abs(v_b - v_avg), abs(v_c - v_avg))
    return dev / v_avg * 100.0


def violations_reference(meters, reading, band=(0.95, 1.05)):
    """(points, outages) of a meter-order reading: ``(bus, phase, pu)`` for
    each nonzero magnitude outside the band, non-finite ones included, and
    ``(bus, phase)`` for each magnitude of exactly 0."""
    low, high = band
    points = [
        (bus, phase, mag)
        for (bus, phase), mag in zip(meters, reading, strict=True)
        if mag != 0.0 and not (mag >= low and mag <= high)
    ]
    outages = [point for point, mag in zip(meters, reading) if mag == 0.0]
    return points, outages


def max_unbalance_reference(meters, reading):
    """(per_bus, max_pct, max_bus) of a meter-order reading over buses with
    three nonzero, finite phase magnitudes; ties go to the greatest bus id."""
    by_bus = {}
    for (bus, phase), mag in zip(meters, reading, strict=True):
        by_bus.setdefault(bus, {})[phase] = mag
    per_bus = {
        bus: unbalance_at(*(phases[p] for p in PHASES))
        for bus, phases in by_bus.items()
        if all(0 < phases.get(p, 0.0) < float("inf") for p in PHASES)
    }
    max_bus = max(per_bus, key=lambda b: (per_bus[b], b), default=None)
    return per_bus, 0.0 if max_bus is None else per_bus[max_bus], max_bus


class UnionFind:
    def __init__(self, items):
        self.parent = {i: i for i in items}

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b) -> bool:
        """Returns False when a and b were already connected (cycle edge)."""
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[ra] = rb
        return True


def edges_form_cycle(nodes, edges) -> bool:
    uf = UnionFind(nodes)
    return any(not uf.union(u, v) for u, v in edges)


def reachable_from(start, edges) -> set:
    adj = {}
    for u, v in edges:
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    seen = {start}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in adj.get(u, []):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return seen


def modbus_address_sets(n_meters, n_setpoints, n_switches) -> dict:
    """Registers (or coils) each function code may touch, 1-based, as the
    register map documents them."""
    setpoints = set(range(207, 207 + n_setpoints))
    holding = (
        set(range(1, 1 + n_meters)) | setpoints | {500} | set(range(1001, 1001 + 2 * n_meters))
    )
    coils = set(range(1, 1 + n_switches))
    return {0x01: coils, 0x03: holding, 0x05: coils, 0x06: setpoints, 0x0F: coils, 0x10: setpoints}


def modbus_address_verdict(mapped: dict, function: int, first: int, count: int):
    """Exception code a request must get, or None when it is served."""
    registers = mapped[function]
    if first not in registers:
        return 0x02
    if count < 1 or (function == 0x03 and count > 125):
        return 0x03
    if any(r not in registers for r in range(first, first + count)):
        return 0x03
    return None


def best_response_sweep_reference(model, current, demand, weights, allow_meshed, band):
    """The best-response sweep with every flip scored (``mitigate.payoff``)."""
    from gridbed import mitigate

    score = functools.cache(
        lambda candidate: mitigate.payoff(
            model, current, candidate, demand, weights, allow_meshed, band
        )
    )
    pre = score(current)
    working, working_payoff = current, pre
    log_entries = []
    evaluated, sweeps = 1, 0
    for sweeps in range(1, mitigate.DEFAULT_SWEEP_CAP + 1):
        changed = False
        for name in model.switch_names:
            flipped = working.with_switch(name, not working.closed(name))
            contender = score(flipped)
            evaluated += 1
            log_entries.append(mitigate._log_entry(name, flipped, contender))
            if contender.scalar > working_payoff.scalar:
                working, working_payoff = flipped, contender
                changed = True
        if not changed:
            break
    return mitigate.MitigationPlan(
        initial=current.as_dict(),
        chosen=working.as_dict(),
        toggles=working.toggled_from(current),
        pre_violations=pre.violations if pre.feasible else -1,
        post_violations=working_payoff.violations if working_payoff.feasible else -1,
        method="sweep",
        feasible=working_payoff.feasible,
        sweeps=sweeps,
        candidates_evaluated=evaluated,
        search_log=log_entries,
    )


def exhaustive_key(entry):
    """The exhaustive search's key of a scored log entry: (scalar, -cost,
    open before closed in switch order)."""
    scalar = entry["scalar"] if entry["scalar"] is not None else float("-inf")
    return (scalar, -entry["cost"], tuple(-int(closed) for closed in entry["config"].values()))


def exhaustive_best_reference(model, current, demand, weights, allow_meshed, band):
    """The exhaustive search with all ``2**n`` configurations scored, in mask
    order."""
    from gridbed import mitigate
    from gridbed.feeder import SwitchConfig

    names = model.switch_names
    pre = mitigate.payoff(model, current, current, demand, weights, allow_meshed, band)
    best_key = best_config = best_payoff = None
    log_entries = []
    for mask in range(2 ** len(names)):
        candidate = SwitchConfig(names, mask)
        result = mitigate.payoff(model, current, candidate, demand, weights, allow_meshed, band)
        entry = mitigate._log_entry("*", candidate, result)
        log_entries.append(entry)
        key = exhaustive_key(entry)
        if best_key is None or key > best_key:
            best_key, best_config, best_payoff = key, candidate, result
    return mitigate.MitigationPlan(
        initial=current.as_dict(),
        chosen=best_config.as_dict(),
        toggles=best_config.toggled_from(current),
        pre_violations=pre.violations if pre.feasible else -1,
        post_violations=best_payoff.violations if best_payoff.feasible else -1,
        method="exhaustive",
        feasible=best_payoff.feasible,
        candidates_evaluated=2 ** len(names),
        search_log=log_entries,
    )
