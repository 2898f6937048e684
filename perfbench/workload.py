"""One benchmark workload in its own process.

Runs a workload against the gridbed package on ``PYTHONPATH`` for at least
``--seconds`` seconds of whole passes, checks every output against what the
testbed is known to produce, and prints one JSON line with the timings,
counts and check results. ``run.py`` starts this file; see its docstring for
the workloads.

    PYTHONPATH=src python3 perfbench/workload.py --workload replay --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracer as tracing

CASES = (1, 2, 3, 4, 5, 6)
EXPECTED_VIOLATIONS_PRE = {1: 3, 2: 3, 3: 4, 4: 5, 5: 6, 6: 6}
EXPECTED_TOGGLES = {case: ("S7",) for case in range(1, 6)} | {6: ("S7", "S8")}
ATTACK_MODES = ("A", "B", "C")
ATTACK_STEPS = 200
EXPECTED_ATTACK_VIOLATIONS = {"A": 6, "B": 6, "C": 5}

READ_HOLDING = 0x03
WRITE_COIL = 0x05
WRITE_REGISTERS = 0x10


class Recorder:
    """Samples and check outcomes of one workload run."""

    def __init__(self):
        self.requests: list[tuple[int, float, float]] = []  # (fc, start, end)
        self.op_s: list[float] = []
        self.done = 0  # units of work completed: cases, attack steps, defense cycles
        self.busy_s = 0.0
        self.passes_from: float | None = None  # perf_counter() when the first pass starts
        self.attempted = 0
        self.failures: list[str] = []

    def check(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{what}: {'; '.join(problems)}")

    def unit(self, what: str, fn) -> None:
        """Run one checked unit of work; an exception fails the unit."""
        try:
            fn()
        except Exception:
            self.attempted += 1
            self.failures.append(f"{what}: {traceback.format_exc(limit=3)}")


def timed_client_class(base, rec: Recorder):
    """A ModbusClient subclass that records every request's round trip."""

    class TimedClient(base):
        def request(self, request):
            start = time.perf_counter()
            response = super().request(request)
            rec.requests.append((request.function, start, time.perf_counter()))
            return response

    return TimedClient


def expect(problems: list[str], what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what} {got!r} != {want!r}")


# -- workloads ----------------------------------------------------------------
#
# Each workload yields once per completed pass; the driver loop below stops
# at the first pass boundary after --seconds, so every run measures whole
# passes and the case mix per pass stays the same.


def replay(rec: Recorder, rng: random.Random, smoke: bool):
    """Fresh server per case: setpoint write, best-response sweep, teardown."""
    from gridbed import scenario

    scenario.ModbusClient = timed_client_class(scenario.ModbusClient, rec)
    config = scenario.ScenarioConfig()
    rec.passes_from = time.perf_counter()
    while True:
        for case in _order(rng, CASES, smoke):

            def one(case=case):
                start = time.perf_counter()
                result = scenario.run_case(config, case, live=False)
                elapsed = time.perf_counter() - start
                rec.op_s.append(elapsed)
                rec.done += 1
                rec.busy_s += elapsed
                problems = []
                expect(problems, "status", result.status, "ok")
                expect(
                    problems, "violations before", result.violations_pre,
                    EXPECTED_VIOLATIONS_PRE[case],
                )
                expect(problems, "toggles", tuple(result.toggles), EXPECTED_TOGGLES[case])
                expect(problems, "violations after", result.violations_post, 0)
                rec.check(f"replay case {case}", problems)

            rec.unit(f"replay case {case}", one)
        yield


def live_attack(rec: Recorder, rng: random.Random, smoke: bool):
    """One long-lived server and client; modes A, B, C of the adaptive attack
    with setpoints reset to baseline between modes."""
    from gridbed import attack

    with _served(rec) as (model, meter_map, client):
        baseline = client.read_setpoints(meter_map)
        reference = client.read_all_voltages(meter_map)
        digests: dict[str, str] = {}
        rec.passes_from = time.perf_counter()
        while True:
            for mode in _order(rng, ATTACK_MODES, smoke):

                def one(mode=mode):
                    first = len(rec.requests)
                    start = time.perf_counter()
                    trace = attack.run_attack(client, meter_map, attack.AttackParams(), mode)
                    rec.busy_s += time.perf_counter() - start
                    writes = [s for fc, s, _ in rec.requests[first:] if fc == WRITE_REGISTERS]
                    rec.op_s.extend(b - a for a, b in zip(writes, writes[1:]))
                    rec.done += len(trace.steps)
                    client.write_setpoints(meter_map, baseline)
                    problems = []
                    expect(problems, "status", trace.status, attack.STATUS_STEP_CAP)
                    expect(problems, "kept steps", sum(s.kept for s in trace.steps), ATTACK_STEPS)
                    if trace.steps:
                        expect(
                            problems, "terminal violations", trace.steps[-1].violations,
                            EXPECTED_ATTACK_VIOLATIONS[mode],
                        )
                    digest = _trace_digest(trace)
                    expect(problems, "trace digest", digest, digests.setdefault(mode, digest))
                    rec.check(f"attack mode {mode}", problems)

                rec.unit(f"attack mode {mode}", one)
            rec.unit(
                "baseline restored", lambda: _check_restored(rec, client, meter_map, reference)
            )
            yield


def defend(rec: Recorder, rng: random.Random, smoke: bool):
    """One long-lived server; per case the client writes the case pattern,
    runs one oracle defense cycle, then resets coils and setpoints."""
    from gridbed import mitigate, scenario

    with _served(rec) as (model, meter_map, client):
        baseline = client.read_setpoints(meter_map)
        reference = client.read_all_voltages(meter_map)
        switches = client.read_switches(model.switch_names)
        rec.passes_from = time.perf_counter()
        while True:
            for case in _order(rng, CASES, smoke):

                def one(case=case):
                    client.write_setpoints(meter_map, scenario.case_vector(meter_map, case))
                    start = time.perf_counter()
                    plan = mitigate.mitigate_once(
                        client, model, meter_map, use_oracle=True, allow_meshed=True
                    )
                    elapsed = time.perf_counter() - start
                    rec.op_s.append(elapsed)
                    rec.done += 1
                    rec.busy_s += elapsed
                    problems = []
                    if plan is None:
                        problems.append("no plan: no violations observed")
                    else:
                        for name in plan.toggles:
                            client.write_switch(model.switch_names, name, switches[name])
                        expect(problems, "toggles", tuple(plan.toggles), EXPECTED_TOGGLES[case])
                        expect(
                            problems, "violations before", plan.pre_violations,
                            EXPECTED_VIOLATIONS_PRE[case],
                        )
                        expect(problems, "violations after", plan.observed_post_violations, 0)
                    client.write_setpoints(meter_map, baseline)
                    rec.check(f"defend case {case}", problems)

                rec.unit(f"defend case {case}", one)

            def restored():
                _check_restored(rec, client, meter_map, reference)
                now = client.read_switches(model.switch_names)
                rec.check("switches restored", [] if now == switches else ["switch states differ"])

            rec.unit("baseline restored", restored)
            yield


WORKLOADS = {"replay": replay, "live-attack": live_attack, "defend": defend}


def _order(rng: random.Random, units, smoke: bool):
    order = rng.sample(units, len(units))
    return order[:1] if smoke else order


@contextlib.contextmanager
def _served(rec: Recorder):
    """Bundled feeder behind a loopback server, with one timed client."""
    from gridbed.feeder import load_default_feeder
    from gridbed.modbus.client import ModbusClient
    from gridbed.modbus.server import FeederServer
    from gridbed.regmap import MeterMap

    model = load_default_feeder()
    meter_map = MeterMap.for_model(model)
    server = FeederServer(model, meter_map, bind=("127.0.0.1", 0)).start()
    try:
        with timed_client_class(ModbusClient, rec)(*server.address) as client:
            yield model, meter_map, client
    finally:
        server.close()


def _check_restored(rec: Recorder, client, meter_map, reference) -> None:
    now = client.read_all_voltages(meter_map)
    rec.check("voltages restored", [] if now == reference else ["voltages differ from baseline"])


def _trace_digest(trace) -> str:
    rows = [
        (s.t, sorted(s.vector_mw.items()), s.violations, s.unbalance_pct, s.kept)
        for s in trace.steps
    ]
    return hashlib.sha256(repr((trace.status, rows)).encode()).hexdigest()


# -- result ---------------------------------------------------------------------


def _summary(values_ms: list[float]) -> dict:
    """Sample count, median, tails and mean of one timing, in ms."""
    if len(values_ms) < 2:
        value = values_ms[0] if values_ms else 0.0
        return dict.fromkeys(("p50", "p90", "p95", "p99", "mean"), value) | {"n": len(values_ms)}
    cuts = statistics.quantiles(values_ms, n=100, method="inclusive")
    return {
        "n": len(values_ms),
        "p50": cuts[49],
        "p90": cuts[89],
        "p95": cuts[94],
        "p99": cuts[98],
        "mean": statistics.fmean(values_ms),
    }


def timings(rec: Recorder) -> dict:
    """Summaries of every timing the run took; end-to-end metrics are drawn
    from these, and the rest goes to the detail line."""

    def rtts(functions):
        return _summary([(e - s) * 1e3 for fc, s, e in rec.requests if fc in functions])

    return {
        "op_ms": _summary([s * 1e3 for s in rec.op_s]),
        "setpoint_rtt_ms": rtts({WRITE_REGISTERS}),
        "coil_rtt_ms": rtts({WRITE_COIL}),
        "read_rtt_ms": rtts({READ_HOLDING}),
        "ops_per_s": rec.done / rec.busy_s if rec.busy_s else 0.0,
    }


def end_to_end(timed: dict) -> dict:
    return {
        "op_ms_p99": timed["op_ms"]["p99"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="one unit of work, one pass")
    parser.add_argument("--spans-out", help="file for the recorded spans (traced runs)")
    args = parser.parse_args(argv)

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    rec = Recorder()
    rng = random.Random(args.seed)
    passes = 0
    started = time.perf_counter()
    run = WORKLOADS[args.workload](rec, rng, args.smoke)
    try:
        for _ in run:
            passes += 1
            if args.smoke or time.perf_counter() - started >= args.seconds:
                break
    finally:
        run.close()
    wall_s = time.perf_counter() - started

    timed = timings(rec)
    doc = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": passes,
        "wall_s": wall_s,
        "attempted": rec.attempted,
        "failed": len(rec.failures),
        "failures": rec.failures[:20],
        "end_to_end": end_to_end(timed),
        "timings": timed,
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        doc["layers"] = tracing.layer_metrics(tracer, passes, rec.passes_from)
        doc["absent"] = tracer.absent
        if args.spans_out:
            Path(args.spans_out).parent.mkdir(parents=True, exist_ok=True)
            Path(args.spans_out).write_text(json.dumps(tracer.to_doc()), encoding="utf-8")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
