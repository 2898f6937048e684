"""Scenario runner: the six bundled attack/mitigation cases, end to end.

Each case starts a fresh in-process server on a loopback socket, over the
bundled feeder model that every case in the process shares (or a model of
the config's feeder file, read once per run).  It drives the attack (replay
mode writes the case's terminal setpoint pattern directly; live mode runs
the adaptive loop), reads metrics through a client connection, runs one
mitigation cycle through a second connection, reads them again, and tears
down.  All cross-activity traffic goes over real TCP; the server's internal
state is touched only to cross-check that client-read metrics agree with the
solver to within register quantization.

Runs are deterministic for a given config: no randomness, fixed iteration
orders, and CSV outputs carry no timestamps.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import platform
import sys
import time
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy

from . import __version__
from .attack import AttackParams, run_attack
from .feeder import FeederModel, known_keys, load_default_feeder, load_feeder_file
from .mitigate import MitigationPlan, Weights, mitigate_once
from .modbus.client import ModbusClient
from .modbus.server import FeederServer
from .powerflow import DEFAULT_BAND, check_band, count_violations, max_unbalance
from .regmap import MeterMap, VOLTAGE_BLOCK_START

log = logging.getLogger("gridbed.scenario")

# Case catalog: overloaded phase group and its per-node level in MW; the six
# other controllable nodes drop to the off level.
CASE_PATTERNS: dict[int, tuple[str, float]] = {
    1: ("C", 0.08),
    2: ("B", 0.08),
    3: ("A", 0.08),
    4: ("C", 0.16),
    5: ("B", 0.16),
    6: ("A", 0.16),
}
OFF_LEVEL_MW = 0.001

QUANTIZATION_PU = 5e-5


def _typed(doc: dict, key: str, default, kinds: tuple, what: str):
    """``doc[key]`` (``default`` when absent), which must be one of ``kinds``."""
    value = doc.get(key, default)
    if not isinstance(value, kinds):
        raise ValueError(f"scenario config {key} must be {what}, got {value!r}")
    return value


@dataclass
class ScenarioConfig:
    feeder: str | None = None  # None = bundled fixture
    allow_meshed: bool = True  # the bundled cases operate ties into loops
    use_oracle: bool = False
    band: tuple[float, float] = DEFAULT_BAND  # the run's one band, the attacker's too
    weights: Weights = field(default_factory=Weights)
    attack_params: AttackParams = field(default_factory=AttackParams)  # its band is replaced

    @classmethod
    def from_json(cls, text: str) -> "ScenarioConfig":
        doc = json.loads(text)
        known_keys(
            doc,
            ("feeder", "allow_meshed", "oracle", "band", "weights", "attack_params"),
            "scenario config document",
            ValueError,
        )
        weights = doc.get("weights", {})
        known_keys(weights, ("violation", "cost"), "scenario config weights", ValueError)
        cfg = cls()
        cfg.feeder = _typed(doc, "feeder", None, (str, type(None)), "a path")
        cfg.allow_meshed = _typed(doc, "allow_meshed", True, (bool,), "true or false")
        cfg.use_oracle = _typed(doc, "oracle", False, (bool,), "true or false")
        if "band" in doc:
            cfg.band = check_band(doc["band"])
        try:
            cfg.weights = Weights(**weights)
        except ValueError as exc:
            raise ValueError(f"scenario config {exc}") from exc
        params = doc.get("attack_params", {})
        try:
            if isinstance(params, dict) and "band" in params:
                raise ValueError("band is the scenario's own; set it at the top level")
            cfg.attack_params = AttackParams.from_doc(params)
        except ValueError as exc:
            raise ValueError(f"scenario config attack_params: {exc}") from exc
        return cfg

    def load_model(self) -> FeederModel:
        if self.feeder:
            return load_feeder_file(self.feeder)
        return load_default_feeder()


def case_vector(meter_map: MeterMap, case: int) -> tuple[int, ...]:
    """Terminal setpoint pattern for a case: a setpoint vector, kW in
    ``meter_map.setpoints`` order."""
    group, level = CASE_PATTERNS[case]
    return tuple(
        int(round((level if phase == group else OFF_LEVEL_MW) * 1000.0))
        for _, phase in meter_map.setpoints
    )


@dataclass
class CaseResult:
    case: int
    status: str
    group: str
    level_mw: float
    violations_baseline: int = -1
    violations_pre: int = -1
    unbalance_pre_pct: float = 0.0
    toggles: tuple[str, ...] = ()
    violations_post: int = -1
    unbalance_post_pct: float = 0.0
    attack_status: str = ""
    attack_steps: int = 0
    budget_spent_mw: float = 0.0
    max_read_error_pu: float = 0.0
    wall_ms: float = 0.0
    profile_pre: tuple[float, ...] = ()  # meter-order readings
    profile_post: tuple[float, ...] = ()
    plan: MitigationPlan | None = None


@dataclass
class ScenarioReport:
    results: list[CaseResult]
    environment: dict

    @property
    def ok(self) -> bool:
        return all(r.status == "ok" for r in self.results)


def _environment_stamp(config: ScenarioConfig) -> dict:
    return {
        "package": f"gridbed {__version__}",
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "allow_meshed": config.allow_meshed,
        "oracle": config.use_oracle,
        "band": list(config.band),
    }


def _check_read_consistency(server: FeederServer, reading: tuple[float, ...]) -> float:
    """Max |client-read - solver| over meters; must be within quantization."""
    direct = server.state.solution.magnitudes()
    return max((abs(d - read) for d, read in zip(direct, reading)), default=0.0)


def run_case(
    config: ScenarioConfig, case: int, live: bool = False, model: FeederModel | None = None
) -> CaseResult:
    """One case end to end, on ``model`` or, when it is None, the config's."""
    group, level = CASE_PATTERNS[case]
    result = CaseResult(case=case, status="ok", group=group, level_mw=level)
    started = time.monotonic()
    stage = "load-feeder"
    try:
        if model is None:
            model = config.load_model()
        meter_map = MeterMap.for_model(model)
        stage = "server-start"
        with FeederServer(model, meter_map, bind=("127.0.0.1", 0)).start() as server:
            host, port = server.address
            stage = "baseline"
            with ModbusClient(host, port) as attacker:
                result.violations_baseline = count_violations(
                    attacker.read_all_voltages(meter_map), config.band
                )

                stage = "attack"
                if live:
                    params = replace(config.attack_params, band=config.band)
                    trace = run_attack(attacker, meter_map, params, group)
                    result.attack_status = trace.status
                    result.attack_steps = len(trace.steps)
                    result.budget_spent_mw = trace.budget_spent_mw
                else:
                    attacker.write_setpoints(meter_map, case_vector(meter_map, case))
                    result.attack_status = "replayed"

                stage = "pre-snapshot"
                result.profile_pre = pre = attacker.read_all_voltages(meter_map)
                result.violations_pre = count_violations(pre, config.band)
                result.unbalance_pre_pct = max_unbalance(pre, meter_map.layout)
                result.max_read_error_pu = max(
                    result.max_read_error_pu, _check_read_consistency(server, pre)
                )

            stage = "mitigation"
            with ModbusClient(host, port) as defender:
                plan = mitigate_once(
                    defender,
                    model,
                    meter_map,
                    weights=config.weights,
                    use_oracle=config.use_oracle,
                    allow_meshed=config.allow_meshed,
                    band=config.band,
                )
                result.plan = plan
                if plan is not None:
                    result.toggles = plan.toggles

                stage = "post-snapshot"
                result.profile_post = post = defender.read_all_voltages(meter_map)
                result.violations_post = count_violations(post, config.band)
                result.unbalance_post_pct = max_unbalance(post, meter_map.layout)
                result.max_read_error_pu = max(
                    result.max_read_error_pu, _check_read_consistency(server, post)
                )
    except Exception as exc:  # stage-tagged diagnostic, partial result kept
        log.error("case %d failed during %s: %s", case, stage, exc)
        result.status = f"failed:{stage}"
        return result
    if result.max_read_error_pu > QUANTIZATION_PU + 1e-12:
        result.status = "failed:read-consistency"
    result.wall_ms = (time.monotonic() - started) * 1000.0
    return result


def run_scenario(
    config: ScenarioConfig,
    cases: list[int],
    live: bool = False,
    model: FeederModel | None = None,
) -> ScenarioReport:
    """Run ``cases`` on one model: ``model``, or the config's, loaded once
    here.  If that load fails, each case reports ``failed:load-feeder``."""
    if model is None:
        try:
            model = config.load_model()
        except (OSError, ValueError):  # each case loads again and reports the failure
            pass
    results = [run_case(config, case, live, model) for case in cases]
    return ScenarioReport(results=results, environment=_environment_stamp(config))


def emit_report(report: ScenarioReport, out_dir, meter_map: MeterMap) -> list[Path]:
    """Write summary CSV, detail JSON, and per-case voltage profiles."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []

    summary = out / "summary.csv"
    with open(summary, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["case", "status", "violations_pre", "unbalance_pct", "toggles", "violations_post"]
        )
        for r in report.results:
            writer.writerow(
                [
                    r.case,
                    r.status,
                    r.violations_pre,
                    f"{r.unbalance_pre_pct:.4f}",
                    ";".join(r.toggles),
                    r.violations_post,
                ]
            )
    written.append(summary)

    detail = out / "detail.json"
    # Every field of each case but the voltage profiles (a CSV each) and the plan.
    skipped = ("profile_pre", "profile_post", "plan")
    keys = [f.name for f in fields(CaseResult) if f.name not in skipped]
    doc = {
        "environment": report.environment,
        "cases": [{key: getattr(r, key) for key in keys} for r in report.results],
    }
    with open(detail, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    written.append(detail)

    for r in report.results:
        for tag, profile in (("pre", r.profile_pre), ("post", r.profile_post)):
            if not profile:
                continue
            path = out / f"voltage_case{r.case}_{tag}.csv"
            with open(path, "w", newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["register", "bus", "phase", "magnitude_pu"])
                for k, (bus, phase) in enumerate(meter_map.meters):
                    writer.writerow([VOLTAGE_BLOCK_START + k, bus, phase, f"{profile[k]:.4f}"])
            written.append(path)
    return written


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="gridbed-scenario", description="Run the bundled attack/mitigation cases"
    )
    parser.add_argument("--config", help="scenario config JSON (defaults built in)")
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--case", type=int, choices=sorted(CASE_PATTERNS), help="single case")
    group.add_argument("--all", action="store_true", help="run all six cases")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--replay", action="store_true", help="write terminal patterns (default)")
    mode.add_argument("--live", action="store_true", help="run the adaptive attack loop")
    parser.add_argument("--out-dir", required=True, help="directory for report files")
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO)

    config = ScenarioConfig()
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                config = ScenarioConfig.from_json(fh.read())
        except (OSError, ValueError) as exc:
            print(f"error: bad scenario config {args.config}: {exc}")
            return 1
    cases = [args.case] if args.case else sorted(CASE_PATTERNS)

    try:
        model = config.load_model()
        meter_map = MeterMap.for_model(model)
    except (OSError, ValueError) as exc:
        print(f"error: cannot load feeder {config.feeder}: {exc}")
        return 1
    report = run_scenario(config, cases, live=args.live, model=model)
    emit_report(report, args.out_dir, meter_map)

    for r in report.results:
        print(
            f"case {r.case}: status={r.status} pre={r.violations_pre} "
            f"unbalance={r.unbalance_pre_pct:.3f}% toggles={list(r.toggles)} "
            f"post={r.violations_post}"
        )
    return 0 if report.ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
