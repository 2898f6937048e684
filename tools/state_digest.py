#!/usr/bin/env python3
"""Prints one SHA-256 over the solver and metric outputs of every state.

The states are every switch config of the bundled feeder (256 for its eight
switches) under seven load patterns: the base loads, then the terminal
setpoint pattern of each of the six scenario cases.  Per state the digest
covers the energized set, ``is_radial``, ``converged``, ``iterations``,
``max_mismatch_pu``, the raw voltage bytes, the register image in both word
orders, the violation count, and the unbalance report (``max_pct``,
``max_bus`` and ``per_bus``).  A refactor that leaves every output bit for bit
unchanged leaves the digest unchanged:

    python3 tools/state_digest.py
"""

import hashlib
import itertools
import sys
from pathlib import Path

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


def load_patterns(model, meter_map):
    """(setpoints kW, solver overrides) for the base loads and each case."""
    base = {
        node: int(round(model.bus(node).load_kw[PHASE_INDEX[phase]]))
        for node, phase in meter_map.setpoints
    }
    yield base, None
    for case in sorted(CASE_PATTERNS):
        setpoints = case_vector(meter_map, case)
        yield setpoints, meter_map.overrides(model, setpoints)


def state_digest() -> str:
    model = load_default_feeder()
    meter_map = MeterMap.for_model(model)
    patterns = list(load_patterns(model, meter_map))
    digest = hashlib.sha256()

    def put(*items):
        digest.update(repr(items).encode())

    for closed in itertools.product((False, True), repeat=len(model.switch_names)):
        config = SwitchConfig(tuple(zip(model.switch_names, closed)))
        view = apply_switch_config(model, config)
        put(sorted(view.energized), is_radial(view))
        for setpoints, overrides in patterns:
            solution = solve(model, view, overrides)
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
                mags = solution.magnitudes()
                unbalance = max_unbalance(mags)
                put(
                    count_violations(mags).count,
                    unbalance.max_pct,
                    unbalance.max_bus,
                    list(unbalance.per_bus.items()),
                )
    return digest.hexdigest()


if __name__ == "__main__":
    print(state_digest())
