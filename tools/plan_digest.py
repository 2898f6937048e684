#!/usr/bin/env python3
"""Prints two SHA-256 lines over the defender's plans on the bundled cases.

The plans are those of both searches (``exhaustive_best`` and
``best_response_sweep``), with meshing allowed and not, on the terminal
setpoint pattern of each of the six scenario cases: 24 plans, from the
bundled feeder's normal switch config with the default weights and band.
The first line hashes each plan's ``to_json()`` without its ``search_log``,
so it moves only when a chosen config, toggle list, violation count,
feasibility or count of sweeps or candidates moves; the second hashes the
full text, log included:

    python3 tools/plan_digest.py
"""

import hashlib
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gridbed.feeder import SwitchConfig, load_default_feeder
from gridbed.mitigate import best_response_sweep, exhaustive_best
from gridbed.regmap import MeterMap
from gridbed.scenario import CASE_PATTERNS, case_vector


def plans():
    """The 24 plans, searches outermost, then ``allow_meshed``, then case."""
    model = load_default_feeder()
    meter_map = MeterMap.for_model(model)
    base = SwitchConfig.normal(model)
    for search in (exhaustive_best, best_response_sweep):
        for allow_meshed in (True, False):
            for case in sorted(CASE_PATTERNS):
                demand = meter_map.demand(model, case_vector(meter_map, case))
                yield search(model, base, demand, allow_meshed=allow_meshed)


def plan_digests() -> tuple[str, str]:
    """(digest without search logs, digest of the full texts)."""
    heads, full = hashlib.sha256(), hashlib.sha256()
    for plan in plans():
        text = plan.to_json()
        doc = json.loads(text)
        del doc["search_log"]
        heads.update(json.dumps(doc, indent=1).encode())
        full.update(text.encode())
    return heads.hexdigest(), full.hexdigest()


if __name__ == "__main__":
    print("\n".join(plan_digests()))
