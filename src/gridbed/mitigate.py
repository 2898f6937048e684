"""Topology-control defender: payoff-driven switch reconfiguration.

Each switch is a player with strategies {open, closed}; a candidate
configuration's payoff rewards feasibility (energizing every load bus,
radial unless meshed operation is allowed), then penalizes violation count
and toggle count with violation weight far above cost weight, making the
order effectively lexicographic.  The default search is a best-response
sweep (each switch in turn picks its best state holding the others fixed,
ties keep the current state to minimize switching); an exhaustive search
over all configurations is available both as an oracle and as a CLI option.

The defender searches on its own model mirror using setpoints read from the
server, then applies only the toggled coils and verifies by read-back.
"""

from __future__ import annotations

import argparse
import json
import logging
import time
from dataclasses import dataclass, field

from .feeder import (
    FeederModel,
    SwitchConfig,
    apply_switch_config,
    is_radial,
    load_feeder_file,
)
from .modbus.client import ModbusClient
from .powerflow import (
    DEFAULT_BAND,
    count_violations,
    count_violations_from_magnitudes,
    effective_overrides,
    solve,
)
from .regmap import MeterMap

log = logging.getLogger("gridbed.mitigate")

INFEASIBLE = float("-inf")
DEFAULT_SWEEP_CAP = 10
EXHAUSTIVE_GUARD = 16


class MitigationError(RuntimeError):
    """Mismatched switch sets, guard exceeded, or an unusable server state."""


@dataclass(frozen=True)
class Weights:
    violation: float = 1000.0
    cost: float = 1.0


@dataclass(frozen=True)
class Payoff:
    feasible: bool
    violations: int
    cost: int
    scalar: float


@dataclass
class MitigationPlan:
    initial: dict[str, bool]
    chosen: dict[str, bool]
    toggles: tuple[str, ...]
    pre_violations: int
    post_violations: int
    method: str
    feasible: bool
    sweeps: int = 0
    candidates_evaluated: int = 0
    search_log: list[dict] = field(default_factory=list)
    observed_post_violations: int | None = None

    def to_json(self) -> str:
        doc = {
            "method": self.method,
            "initial": self.initial,
            "chosen": self.chosen,
            "toggles": list(self.toggles),
            "pre_violations": self.pre_violations,
            "post_violations": self.post_violations,
            "observed_post_violations": self.observed_post_violations,
            "feasible": self.feasible,
            "sweeps": self.sweeps,
            "candidates_evaluated": self.candidates_evaluated,
            "search_log": self.search_log,
        }
        return json.dumps(doc, indent=1)


def switching_cost(current: SwitchConfig, candidate: SwitchConfig) -> int:
    """Number of switches whose state differs between the two configs."""
    if set(current.as_dict()) != set(candidate.as_dict()):
        raise MitigationError("switch sets differ between configs")
    return len(candidate.toggled_from(current))


def payoff(
    model: FeederModel,
    current: SwitchConfig,
    candidate: SwitchConfig,
    overrides=None,
    weights: Weights = Weights(),
    allow_meshed: bool = False,
    band=DEFAULT_BAND,
) -> Payoff:
    """Score one candidate; infeasibility is a value, never an error."""
    cost = switching_cost(current, candidate)
    view = apply_switch_config(model, candidate)
    feasible = model.load_buses <= view.energized
    if not allow_meshed:
        feasible = feasible and is_radial(view)
    if not feasible:
        return Payoff(False, 0, cost, INFEASIBLE)
    solution = solve(model, view, effective_overrides(view, overrides))
    if not solution.converged:
        return Payoff(False, 0, cost, INFEASIBLE)
    violations = count_violations(solution, band).count
    scalar = -(weights.violation * violations + weights.cost * cost)
    return Payoff(True, violations, cost, scalar)


def _log_entry(name: str, candidate: SwitchConfig, result: Payoff) -> dict:
    return {
        "switch": name,
        "config": candidate.as_dict(),
        "feasible": result.feasible,
        "violations": result.violations,
        "cost": result.cost,
        "scalar": None if result.scalar == INFEASIBLE else result.scalar,
    }


def best_response_sweep(
    model: FeederModel,
    current: SwitchConfig,
    overrides=None,
    weights: Weights = Weights(),
    allow_meshed: bool = False,
    band=DEFAULT_BAND,
    sweep_cap: int = DEFAULT_SWEEP_CAP,
) -> MitigationPlan:
    """Iterate per-switch best responses until a full sweep changes nothing.

    Toggle costs are always counted against the starting config, so the
    scalar ordering reflects the total switching the plan would command.
    """
    pre = payoff(model, current, current, overrides, weights, allow_meshed, band)
    working = current
    working_payoff = pre
    log_entries: list[dict] = []
    evaluated = 1
    sweeps = 0
    for sweeps in range(1, sweep_cap + 1):
        changed = False
        for name in model.switch_names:
            flipped = working.with_switch(name, not working.closed(name))
            contender = payoff(model, current, flipped, overrides, weights, allow_meshed, band)
            evaluated += 1
            log_entries.append(_log_entry(name, flipped, contender))
            if contender.scalar > working_payoff.scalar:
                working = flipped
                working_payoff = contender
                changed = True
        if not changed:
            break
    final = working_payoff
    return MitigationPlan(
        initial=current.as_dict(),
        chosen=working.as_dict(),
        toggles=working.toggled_from(current),
        pre_violations=pre.violations if pre.feasible else -1,
        post_violations=final.violations if final.feasible else -1,
        method="sweep",
        feasible=final.feasible,
        sweeps=sweeps,
        candidates_evaluated=evaluated,
        search_log=log_entries,
    )


def exhaustive_best(
    model: FeederModel,
    current: SwitchConfig,
    overrides=None,
    weights: Weights = Weights(),
    allow_meshed: bool = False,
    band=DEFAULT_BAND,
) -> MitigationPlan:
    """Evaluate every switch configuration; ties prefer fewer toggles, then
    the lexicographically first config (open before closed, switch order)."""
    names = model.switch_names
    if len(names) > EXHAUSTIVE_GUARD:
        raise MitigationError(
            f"{len(names)} switches exceeds the exhaustive guard ({EXHAUSTIVE_GUARD})"
        )
    pre = payoff(model, current, current, overrides, weights, allow_meshed, band)
    best_key = None
    best_config = current
    best_payoff = None
    log_entries: list[dict] = []
    evaluated = 0
    for mask in range(2 ** len(names)):
        bits = tuple((mask >> i) & 1 for i in range(len(names)))
        candidate = SwitchConfig(tuple((n, bool(b)) for n, b in zip(names, bits)))
        result = payoff(model, current, candidate, overrides, weights, allow_meshed, band)
        evaluated += 1
        log_entries.append(_log_entry("*", candidate, result))
        key = (result.scalar, -result.cost, tuple(-b for b in bits))
        if best_key is None or key > best_key:
            best_key = key
            best_config = candidate
            best_payoff = result
    return MitigationPlan(
        initial=current.as_dict(),
        chosen=best_config.as_dict(),
        toggles=best_config.toggled_from(current),
        pre_violations=pre.violations if pre.feasible else -1,
        post_violations=best_payoff.violations if best_payoff.feasible else -1,
        method="exhaustive",
        feasible=best_payoff.feasible,
        candidates_evaluated=evaluated,
        search_log=log_entries,
    )


def mitigate_once(
    client: ModbusClient,
    model: FeederModel,
    meter_map: MeterMap,
    weights: Weights = Weights(),
    use_oracle: bool = False,
    allow_meshed: bool = False,
    band=DEFAULT_BAND,
) -> MitigationPlan | None:
    """One observe/decide/act cycle; returns None when already quiescent."""
    magnitudes = client.read_all_voltages(meter_map)
    observed_pre = count_violations_from_magnitudes(magnitudes, band)
    if observed_pre == 0:
        return None
    current = SwitchConfig.from_mapping(
        model, client.read_switches(model.switch_names)
    )
    overrides = meter_map.overrides(model, client.read_setpoints(meter_map))

    search = exhaustive_best if use_oracle else best_response_sweep
    plan = search(model, current, overrides, weights, allow_meshed, band)
    plan.pre_violations = observed_pre
    if not plan.feasible:
        log.warning("no feasible configuration found; leaving switches untouched")
        return plan
    for name in plan.toggles:
        client.write_switch(model.switch_names, name, plan.chosen[name])
    post = client.read_all_voltages(meter_map)
    plan.observed_post_violations = count_violations_from_magnitudes(post, band)
    return plan


def run_mitigation(
    client_factory,
    model: FeederModel,
    meter_map: MeterMap,
    weights: Weights = Weights(),
    interval_s: float = 0.5,
    once: bool = False,
    use_oracle: bool = False,
    allow_meshed: bool = False,
    band=DEFAULT_BAND,
    max_retries: int = 5,
) -> list[MitigationPlan]:
    """Control loop: observe, plan, apply, sleep.  ``client_factory`` makes a
    fresh connection after transport failures (retried with backoff)."""
    plans: list[MitigationPlan] = []
    attempt = 0
    client = None
    try:
        while True:
            try:
                if client is None:
                    client = client_factory()
                plan = mitigate_once(
                    client, model, meter_map, weights, use_oracle, allow_meshed, band
                )
                attempt = 0
                if plan is not None:
                    plans.append(plan)
                    log.info(
                        "plan: toggles=%s pre=%d post=%s",
                        list(plan.toggles),
                        plan.pre_violations,
                        plan.observed_post_violations,
                    )
                if once:
                    return plans
                time.sleep(interval_s)
            except (ConnectionError, OSError) as exc:
                attempt += 1
                if client is not None:
                    client.close()
                    client = None
                if attempt > max_retries:
                    raise MitigationError(
                        f"server unreachable after {max_retries} retries: {exc}"
                    ) from exc
                backoff = min(2.0 ** attempt * 0.1, 5.0)
                log.warning("transport failure (%s); retry %d in %.1fs", exc, attempt, backoff)
                time.sleep(backoff)
    finally:
        if client is not None:
            client.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridbed-mitigate", description="Topology-control defense client"
    )
    parser.add_argument("--server", required=True, help="addr:port of the feeder server")
    parser.add_argument("--feeder", required=True, help="feeder description JSON file")
    parser.add_argument("--interval", type=int, default=500, help="control interval, ms")
    parser.add_argument("--once", action="store_true", help="single observe/act cycle")
    parser.add_argument(
        "--oracle", action="store_true", help="exhaustive search instead of the sweep"
    )
    parser.add_argument(
        "--allow-meshed",
        action="store_true",
        help="accept configurations that close loops (full energization only)",
    )
    parser.add_argument("--plan-out", help="write the last plan as JSON")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO)

    model = load_feeder_file(args.feeder)
    meter_map = MeterMap.for_model(model)
    host, _, port = args.server.rpartition(":")

    def connect():
        return ModbusClient(host or "127.0.0.1", int(port))

    try:
        plans = run_mitigation(
            connect,
            model,
            meter_map,
            interval_s=args.interval / 1000.0,
            once=args.once,
            use_oracle=args.oracle,
            allow_meshed=args.allow_meshed,
        )
    except MitigationError as exc:
        print(f"error: {exc}")
        return 1
    if args.plan_out and plans:
        with open(args.plan_out, "w", encoding="utf-8") as fh:
            fh.write(plans[-1].to_json())
    if plans:
        last = plans[-1]
        print(
            f"mitigation: toggles={list(last.toggles)} pre={last.pre_violations} "
            f"post={last.observed_post_violations}"
        )
    else:
        print("mitigation: no violations observed, no action taken")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
