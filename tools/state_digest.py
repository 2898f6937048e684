#!/usr/bin/env python3
"""Prints one SHA-256 over the solver and metric outputs of every state.

The states are every switch config of the bundled feeder (256 for its eight
switches) under seven load patterns: the base loads, then the terminal
setpoint pattern of each of the six scenario cases.  Per state the digest
covers the energized set, ``is_radial``, ``converged``, ``iterations``,
``max_mismatch_pu``, the raw voltage bytes, the register image in both word
orders, the violation count, and the unbalance: its maximum, the bus where
it sits and every bus's percentage (:func:`unbalance_by_bus`).  A refactor
that leaves every output bit for bit unchanged leaves the digest unchanged:

    python3 tools/state_digest.py

When the digest moves, ``--dump PATH`` also writes each state's
``converged``, ``iterations``, ``max_mismatch_pu`` and voltages to an ``.npz``
file, and ``--diff A B`` prints every state whose convergence, iterations,
mismatch or voltage bytes differ between two dumps, with its max |dV| (pu),
then one line with the number of states that differ, how many of them changed
``converged``, ``iterations`` and ``max_mismatch_pu``, how many changed their
voltage bytes but no voltage's value (the sign of a zero), and the max |dV|
over all states:

    python3 tools/state_digest.py --dump before.npz
    python3 tools/state_digest.py --diff before.npz after.npz
"""

import argparse
import hashlib
import itertools
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gridbed.feeder import (
    PHASE_INDEX,
    SwitchConfig,
    apply_switch_config,
    is_radial,
    load_default_feeder,
)
from gridbed.powerflow import PowerFlowError, count_violations, max_unbalance, solve
from gridbed.regmap import MeterMap, RegisterMapError, build_image
from gridbed.scenario import CASE_PATTERNS, case_vector


# Per state: switch states, load pattern index, whether a closed branch
# closes a loop, and the solver's outputs.
DUMP_FIELDS = (
    "closed", "pattern", "meshed", "converged", "iterations", "max_mismatch_pu", "voltages",
)


def unbalance_by_bus(reading, meter_map) -> dict[str, float]:
    """``{bus: unbalance %}`` of a meter-order reading over the buses with
    three nonzero, finite magnitudes, in ``meter_map.layout`` order, by
    :func:`~gridbed.powerflow.max_unbalance`'s arithmetic."""
    layout = meter_map.layout
    mags = np.array([*reading, 0.0])[layout]
    live = ((mags > 0) & np.isfinite(mags)).all(axis=1)
    mags = mags[live]
    mean = (mags[:, 0] + mags[:, 1] + mags[:, 2]) / 3.0
    pct = np.abs(mags - mean[:, None]).max(axis=1) / mean * 100.0
    return {meter_map.meters[row[0]][0]: p for row, p in zip(layout[live], pct.tolist())}


def worst_bus(per_bus: dict[str, float]) -> str | None:
    """The bus with the greatest unbalance; a tie goes to the greatest id."""
    return max(per_bus, key=lambda b: (per_bus[b], b), default=None)


def load_patterns(model, meter_map):
    """(setpoint vector in kW, solver demand) for the base loads and each
    case."""
    base = tuple(
        int(round(model.bus(node).load_kw[PHASE_INDEX[phase]]))
        for node, phase in meter_map.setpoints
    )
    yield base, None
    for case in sorted(CASE_PATTERNS):
        setpoints = case_vector(meter_map, case)
        yield setpoints, meter_map.demand(model, setpoints)


def state_digest(dump=None) -> str:
    """The digest over every state; with ``dump``, also write the per-state
    arrays there."""
    model = load_default_feeder()
    meter_map = MeterMap.for_model(model)
    patterns = list(load_patterns(model, meter_map))
    digest = hashlib.sha256()
    rows = []

    def put(*items):
        digest.update(repr(items).encode())

    for closed in itertools.product((False, True), repeat=len(model.switch_names)):
        config = SwitchConfig(model.switch_names, sum(b << i for i, b in enumerate(closed)))
        view = apply_switch_config(model, config)
        put(sorted(view.energized), is_radial(view))
        for pattern, (setpoints, demand) in enumerate(patterns):
            solution = solve(model, view, demand)
            rows.append((closed, pattern, bool(view.loops), solution.converged,
                         solution.iterations, solution.max_mismatch_pu, solution.voltages))
            put(solution.converged, solution.iterations, solution.max_mismatch_pu)
            digest.update(solution.voltages.tobytes())
            for high_word_first in (True, False):
                try:
                    image = build_image(
                        solution, setpoints, config, meter_map,
                        high_word_first=high_word_first,
                    )
                    put(image.holding, image.coils)
                except (PowerFlowError, RegisterMapError) as exc:
                    put(type(exc).__name__, str(exc))
            if solution.converged:
                reading = solution.magnitudes()
                per_bus = unbalance_by_bus(reading, meter_map)
                put(
                    count_violations(reading),
                    max_unbalance(reading, meter_map.layout),
                    worst_bus(per_bus),
                    list(per_bus.items()),
                )
    if dump is not None:
        columns = (np.array(column) for column in zip(*rows))
        np.savez(dump, switch_names=model.switch_names, **dict(zip(DUMP_FIELDS, columns)))
    return digest.hexdigest()


def diff_dumps(path_a, path_b) -> list[str]:
    """One line per state that differs between two dumps, then a summary."""
    a, b = np.load(path_a), np.load(path_b)
    names = a["switch_names"]
    same = np.array_equal(names, b["switch_names"]) and all(
        np.array_equal(a[key], b[key]) for key in ("closed", "pattern")
    )
    if not same:
        raise SystemExit("error: the dumps do not cover the same states")
    va, vb = a["voltages"], b["voltages"]
    dv = np.abs(va - vb).max(axis=1)
    converged = a["converged"] != b["converged"]
    iterations = a["iterations"] != b["iterations"]
    # The digest hashes the raw bytes, so compare bits: a zero's sign or a
    # mismatch alone moves it as surely as a value does.
    mismatch = _bits(a["max_mismatch_pu"]) != _bits(b["max_mismatch_pu"])
    volt_bits = (_bits(va) != _bits(vb)).reshape(len(va), -1).any(axis=1)
    bits_only = volt_bits & (va == vb).all(axis=1)
    moved = converged | iterations | mismatch | volt_bits
    lines = []
    for k in np.flatnonzero(moved):
        closed = "+".join(names[a["closed"][k]]) or "all open"
        lines.append(
            f"{closed} pattern {a['pattern'][k]} "
            f"({'meshed' if a['meshed'][k] else 'no loop'}): "
            f"converged {a['converged'][k]} -> {b['converged'][k]}, "
            f"iterations {a['iterations'][k]} -> {b['iterations'][k]}, "
            f"max_mismatch_pu {float(a['max_mismatch_pu'][k])!r} -> "
            f"{float(b['max_mismatch_pu'][k])!r}, "
            f"max |dV| {dv[k]:.3g}" + (" (voltage bytes only)" if bits_only[k] else "")
        )
    lines.append(
        f"{moved.sum()} of {moved.size} states differ: {converged.sum()} in converged, "
        f"{iterations.sum()} in iterations, {mismatch.sum()} in max_mismatch_pu, "
        f"{bits_only.sum()} in voltage bytes only; max |dV| {dv.max():.3g}"
    )
    return lines


def _bits(values: np.ndarray) -> np.ndarray:
    """``values``' float64 words as integers, so equal bits compare equal,
    NaN and the sign of zero included."""
    return np.ascontiguousarray(values).view(np.int64)


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.partition("\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--dump", metavar="PATH", help="also write per-state arrays to PATH (.npz)")
    group.add_argument("--diff", nargs=2, metavar=("A", "B"), help="compare two dumps")
    args = parser.parse_args()
    if args.diff:
        print("\n".join(diff_dumps(*args.diff)))
    else:
        print(state_digest(args.dump))
