#!/usr/bin/env python3
"""Regenerates docs/register_map.md from the bundled feeder's meter map."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from gridbed.feeder import load_default_feeder
from gridbed.regmap import MeterMap, render_register_map


def main():
    model = load_default_feeder()
    meter_map = MeterMap.for_model(model)
    out = Path(__file__).resolve().parents[1] / "docs" / "register_map.md"
    out.parent.mkdir(exist_ok=True)
    out.write_text(render_register_map(meter_map, model.switch_names), encoding="utf-8")
    print(f"wrote {out} ({len(meter_map.meters)} meters)")


if __name__ == "__main__":
    main()
