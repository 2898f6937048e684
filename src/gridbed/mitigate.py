"""Topology-control defender: payoff-driven switch reconfiguration.

Each switch is a player with strategies {open, closed}; a candidate
configuration's payoff rewards feasibility (:func:`~gridbed.feeder.feasible`:
every load bus energized, radial unless meshed operation is allowed), then
penalizes violation count and toggle count with violation weight far above
cost weight, making the order effectively lexicographic.  The default
search is a best-response sweep (each switch in turn picks its best state
holding the others fixed, ties keep the current state to minimize
switching); an exhaustive search over all configurations is available both
as an oracle and as a CLI option.  Both searches score each candidate
once: the exhaustive search visits each configuration once, and the sweep
reads back the payoff of one it revisits, which is exact because every
toggle cost is counted against its start.

Neither search solves a candidate that cannot beat the incumbent (the best
candidate found so far, seeded with the start and its own payoff), in the
manner of branch and bound.  Both accept a candidate by one rule: a strictly
higher scalar, so of two tied candidates the first one visited wins.  The
exhaustive search visits configurations in order of preference (toggle
count, then open before closed in switch order), so a tie goes to the
preferred one; that order is computed once per start and switch count, and
kept for the last :data:`PREFERENCE_CACHE_SIZE` starts.  With both weights
non-negative a candidate's payoff is at most ``-w_c * cost``, its payoff
with zero violations, so both searches skip a candidate when that payoff is
at most the incumbent's.  Plans are the same as with every candidate
solved.  A skipped candidate is logged with its walk's
:func:`~gridbed.feeder.feasible`: ``"violations": null`` and ``"scalar":
null`` when the walk passes, ``"violations": 0`` as for a scored infeasible
candidate when it does not.
Convergence is known only for solved candidates.

The defender searches on its own model mirror using setpoints read from the
server, then writes the toggled coils in one request and verifies by
read-back.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import logging
import time
from dataclasses import asdict, dataclass, field

from .feeder import (
    FeederModel,
    SwitchConfig,
    apply_switch_config,
    feasible,
    load_feeder_file,
    number,
)
from .modbus import parse_address
from .modbus.client import ModbusClient, ModbusExceptionError, ReadBackError
from .powerflow import DEFAULT_BAND, count_violations, solve
from .regmap import MeterMap

log = logging.getLogger("gridbed.mitigate")

INFEASIBLE = float("-inf")
DEFAULT_SWEEP_CAP = 10
EXHAUSTIVE_GUARD = 16
# Exhaustive preference orders kept, least recently used evicted first.
PREFERENCE_CACHE_SIZE = 8


class MitigationError(RuntimeError):
    """Mismatched switch sets, guard exceeded, or an unusable server state:
    one answered with a Modbus exception, or a switch write read back wrong."""


@dataclass(frozen=True)
class Weights:
    """Payoff weights; both finite and non-negative, which the lexicographic
    order and the searches' bound rely on."""

    violation: float = 1000.0
    cost: float = 1.0

    def __post_init__(self):
        for name in ("violation", "cost"):
            value = number(getattr(self, name), f"weights.{name}", ValueError)
            if value < 0:
                raise ValueError(f"weights.{name} must be finite and non-negative, got {value!r}")
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Payoff:
    feasible: bool
    violations: int | None
    cost: int
    scalar: float


@dataclass(kw_only=True)
class MitigationPlan:
    """A search's outcome, its fields in the order :meth:`to_json` writes
    them.  ``search_log`` holds one entry per flip in the order the sweep
    tried them, or one per configuration in mask order for the exhaustive
    search; a skipped candidate's entry is described in the module
    docstring."""

    method: str
    initial: dict[str, bool]
    chosen: dict[str, bool]
    toggles: tuple[str, ...]
    pre_violations: int
    post_violations: int
    observed_post_violations: int | None = None
    feasible: bool
    sweeps: int = 0
    candidates_evaluated: int = 0
    search_log: list[dict] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=1)


def switching_cost(current: SwitchConfig, candidate: SwitchConfig) -> int:
    """Number of switches whose state differs between the two configs."""
    if current.names != candidate.names:
        raise MitigationError("switch sets differ between configs")
    return (current.mask ^ candidate.mask).bit_count()


def payoff(
    model: FeederModel,
    current: SwitchConfig,
    candidate: SwitchConfig,
    demand=None,
    weights: Weights = Weights(),
    allow_meshed: bool = False,
    band=DEFAULT_BAND,
) -> Payoff:
    """Score one candidate under ``demand`` (see :func:`solve`);
    infeasibility is a value, never an error."""
    cost = switching_cost(current, candidate)
    view = apply_switch_config(model, candidate)
    if not feasible(view, allow_meshed):
        return Payoff(False, 0, cost, INFEASIBLE)
    solution = solve(model, view, demand)
    if not solution.converged:
        return Payoff(False, 0, cost, INFEASIBLE)
    violations = count_violations(solution.magnitudes(), band)
    scalar = -(weights.violation * violations + weights.cost * cost)
    return Payoff(True, violations, cost, scalar)


def _entry(name: str, candidate: SwitchConfig, feasible: bool, violations: int | None,
           cost: int, scalar: float | None = None) -> dict:
    """One search log entry; ``scalar`` is None for a candidate that was
    skipped or is infeasible."""
    return {
        "switch": name,
        "config": candidate.as_dict(),
        "feasible": feasible,
        "violations": violations,
        "cost": cost,
        "scalar": scalar,
    }


def _log_entry(name: str, candidate: SwitchConfig, result: Payoff) -> dict:
    """The log entry of a scored candidate."""
    scalar = None if result.scalar == INFEASIBLE else result.scalar
    return _entry(name, candidate, result.feasible, result.violations, result.cost, scalar)


class _Search:
    """One search from ``current``: its incumbent ``chosen`` and ``best``,
    seeded with ``current`` and its own payoff ``pre``."""

    def __init__(self, model, current, demand, weights, allow_meshed, band):
        self.model, self.current, self.weights, self.allow_meshed = (
            model, current, weights, allow_meshed
        )
        self.score = functools.cache(
            lambda candidate: payoff(model, current, candidate, demand, weights, allow_meshed, band)
        )
        self.chosen, self.pre = current, self.score(current)
        self.best = self.pre

    def visit(self, name: str, candidate: SwitchConfig) -> dict:
        """Score ``candidate`` unless its payoff with zero violations cannot
        beat the incumbent, take it if its scalar is strictly higher, and
        return its log entry."""
        cost = switching_cost(self.current, candidate)
        if -(self.weights.cost * cost) <= self.best.scalar:
            walk = feasible(apply_switch_config(self.model, candidate), self.allow_meshed)
            return _entry(name, candidate, walk, None if walk else 0, cost)
        result = self.score(candidate)
        if result.scalar > self.best.scalar:
            self.chosen, self.best = candidate, result
        return _log_entry(name, candidate, result)

    def plan(self, method: str, search_log: list, evaluated: int, sweeps: int = 0):
        return MitigationPlan(
            method=method,
            initial=self.current.as_dict(),
            chosen=self.chosen.as_dict(),
            toggles=self.chosen.toggled_from(self.current),
            pre_violations=self.pre.violations if self.pre.feasible else -1,
            post_violations=self.best.violations if self.best.feasible else -1,
            feasible=self.best.feasible,
            sweeps=sweeps,
            candidates_evaluated=evaluated,
            search_log=search_log,
        )


def best_response_sweep(
    model: FeederModel,
    current: SwitchConfig,
    demand=None,
    weights: Weights = Weights(),
    allow_meshed: bool = False,
    band=DEFAULT_BAND,
) -> MitigationPlan:
    """Iterate per-switch best responses until a full sweep changes nothing.

    Toggle costs are always counted against the starting config, so the
    scalar ordering reflects the total switching the plan would command.

    The sweep cannot leave an infeasible start that is two flips from every
    feasible config, as on the bundled feeder S7 and S8 both closed with
    radial operation required, or every switch open: each single flip is
    infeasible too, and an infeasible payoff never beats another, so the
    plan is infeasible and toggles nothing.  :func:`exhaustive_best` finds
    a plan from there.
    """
    search = _Search(model, current, demand, weights, allow_meshed, band)
    search_log: list[dict] = []
    for sweeps in range(1, DEFAULT_SWEEP_CAP + 1):
        start = search.chosen
        for name in model.switch_names:
            flipped = search.chosen.with_switch(name, not search.chosen.closed(name))
            search_log.append(search.visit(name, flipped))
        # an accepted flip raises the scalar strictly, so no sweep returns to its start
        if search.chosen == start:
            break
    return search.plan("sweep", search_log, 1 + len(search_log), sweeps)


def exhaustive_best(
    model: FeederModel,
    current: SwitchConfig,
    demand=None,
    weights: Weights = Weights(),
    allow_meshed: bool = False,
    band=DEFAULT_BAND,
) -> MitigationPlan:
    """Evaluate every switch configuration, in order of preference: toggle
    count, then open before closed in switch order.

    A candidate is taken only if its scalar is strictly higher than the
    incumbent's, so the first candidate visited wins a tie, and every
    costlier one is soon bounded out (module docstring).  The first one
    visited is ``current``, whose payoff is the plan's ``pre_violations``."""
    names = model.switch_names
    if len(names) > EXHAUSTIVE_GUARD:
        raise MitigationError(
            f"{len(names)} switches exceeds the exhaustive guard ({EXHAUSTIVE_GUARD})"
        )
    search = _Search(model, current, demand, weights, allow_meshed, band)
    search_log: list[dict | None] = [None] * 2 ** len(names)
    search_log[current.mask] = _log_entry("*", current, search.pre)
    for mask in _by_preference(len(names), current.mask)[1:]:
        search_log[mask] = search.visit("*", SwitchConfig(names, mask))
    return search.plan("exhaustive", search_log, len(search_log))


@functools.lru_cache(maxsize=PREFERENCE_CACHE_SIZE)
def _by_preference(count: int, start: int) -> tuple[int, ...]:
    """Every mask of ``count`` switches in order of preference from
    ``start``: toggle count, then open before closed in switch order.  One
    order is kept per (count, start) for the :data:`PREFERENCE_CACHE_SIZE`
    starts used last.  An order of the bundled feeder's eight switches takes
    about 2 KB; at the 16-switch guard one order holds 65536 masks, about
    2.4 MB, less than that search's own log."""
    # a mask's bits in switch order, as a string: "0" (open) sorts first
    return tuple(sorted(
        range(2 ** count),
        key=lambda mask: ((mask ^ start).bit_count(), f"{mask:0{count}b}"[::-1]),
    ))


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
    observed_pre = count_violations(client.read_all_voltages(meter_map), band)
    if observed_pre == 0:
        return None
    current = SwitchConfig.from_mapping(
        model, client.read_switches(model.switch_names)
    )
    demand = meter_map.demand(model, client.read_setpoints(meter_map))

    search = exhaustive_best if use_oracle else best_response_sweep
    plan = search(model, current, demand, weights, allow_meshed, band)
    plan.pre_violations = observed_pre
    if not plan.feasible:
        log.warning("no feasible configuration found; leaving switches untouched")
        return plan
    if plan.toggles:
        coils = [model.switch_names.index(name) for name in plan.toggles]
        span = model.switch_names[min(coils) : max(coils) + 1]
        client.write_switches(model.switch_names, {name: plan.chosen[name] for name in span})
    plan.observed_post_violations = count_violations(client.read_all_voltages(meter_map), band)
    return plan


def run_mitigation(
    client_factory,
    model: FeederModel,
    meter_map: MeterMap,
    weights: Weights = Weights(),
    interval_s: float = 0.5,
    use_oracle: bool = False,
    allow_meshed: bool = False,
    band=DEFAULT_BAND,
    max_retries: int = 5,
):
    """Control loop: observe, plan, apply, sleep.  Yields each cycle's plan,
    or None when there was nothing to fix, and sleeps ``interval_s`` when
    resumed; the caller decides how many cycles run, and closing the
    generator closes its connection.  A setpoint is read as the whole kW the
    server holds, with no conversion.  ``client_factory`` makes a fresh
    connection after transport failures (retried with backoff)."""
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
            except (ModbusExceptionError, ReadBackError) as exc:
                raise MitigationError(f"server refused the defense cycle: {exc}") from exc
            except OSError as exc:
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
                continue
            attempt = 0
            if plan is not None:
                log.info("plan: toggles=%s pre=%d post=%s", list(plan.toggles),
                         plan.pre_violations, plan.observed_post_violations)
            yield plan
            time.sleep(interval_s)
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
    parser.add_argument("--once", action="store_true", help="one cycle, not until Ctrl-C")
    parser.add_argument(
        "--oracle", action="store_true", help="exhaustive search instead of the sweep"
    )
    parser.add_argument(
        "--allow-meshed",
        action="store_true",
        help="accept configurations that close loops (full energization only)",
    )
    parser.add_argument("--plan-out", help="JSON file that holds the last plan")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO)

    try:
        if args.interval < 0:
            raise ValueError(f"--interval must not be negative, got {args.interval}")
        address = parse_address(args.server)
        model = load_feeder_file(args.feeder)
        meter_map = MeterMap.for_model(model)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}")
        return 1

    cycles = run_mitigation(
        lambda: ModbusClient(*address),
        model,
        meter_map,
        interval_s=args.interval / 1000.0,
        use_oracle=args.oracle,
        allow_meshed=args.allow_meshed,
    )
    last = None
    try:
        with contextlib.closing(cycles), contextlib.suppress(KeyboardInterrupt):
            for plan in itertools.islice(cycles, 1 if args.once else None):
                if plan is not None:
                    last = plan
                    if args.plan_out:
                        with open(args.plan_out, "w", encoding="utf-8") as fh:
                            fh.write(plan.to_json())
    except MitigationError as exc:
        print(f"error: {exc}")
        return 1
    if last is not None:
        print(
            f"mitigation: toggles={list(last.toggles)} pre={last.pre_violations} "
            f"post={last.observed_post_violations}"
        )
    else:
        print("mitigation: no violations observed, no action taken")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
