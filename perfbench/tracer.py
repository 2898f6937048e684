"""In-memory span recorder for the traced benchmark run, and the per-layer
metrics computed from its spans.

Spans are taken from outside the program: :meth:`Tracer.wrap` replaces the
module or class attribute through which callers look a function up, so a
function imported by name into another module is wrapped in that module.
A wrapped name that no longer exists is listed in ``Tracer.absent`` instead
of failing, so one benchmark runs on commits that have added or deleted API.

Each span has a name, a start, an end, and the span that caused it. Within a
thread the parent is the enclosing wrapped call. Spans of the server's
connection threads are linked afterwards to the client request that caused
them by the MBAP transaction id, so a client request's self time is its
round trip minus the server work it waited for.
"""

from __future__ import annotations

import itertools
import statistics
import threading
import time
from dataclasses import dataclass

WRITE_FUNCTIONS = frozenset({0x05, 0x06, 0x0F, 0x10})
CLIENT_FUNCTIONS = (0x01, 0x03, 0x05, 0x10)
CODEC_FUNCTIONS = (
    "encode_pdu", "encode_frame", "decode_request", "decode_response", "decode_frame"
)
# Violation and unbalance functions, by the modules that import them.
METRIC_FUNCTIONS = {
    "attack": ("count_violations_from_magnitudes", "unbalance_from_magnitudes"),
    "mitigate": ("count_violations", "count_violations_from_magnitudes"),
    "scenario": ("count_violations_from_magnitudes", "unbalance_from_magnitudes"),
}
# Server-thread work that a write waits for: resolve the topology, solve,
# and render the register image.
SERVICE_SPANS = frozenset({"feeder.apply_switch_config", "powerflow.solve", "regmap.build_image"})


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    attrs: dict | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped callables; spans stay in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self.main_thread = threading.get_ident()
        self._ids = itertools.count(1)
        self._local = threading.local()

    def wrap(self, owner, attr: str, name: str, attrs=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``attrs(args, result)`` may return a dict stored on the span; it is
        called only when the wrapped call returns.
        """
        original = getattr(owner, attr, None) if owner is not None else None
        if not callable(original):
            self.absent.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, ids, local = self.spans, self._ids, self._local

        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            sid = next(ids)
            stack.append(sid)
            result = None
            done = False
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                done = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                extra = attrs(args, result) if attrs is not None and done else None
                spans.append(
                    Span(sid, name, start, end, parent, threading.get_ident(), extra)
                )

        setattr(owner, attr, wrapper)

    def to_doc(self) -> dict:
        return {
            "absent": self.absent,
            "spans": [
                [s.id, s.name, s.start, s.end, s.parent, s.thread, s.attrs]
                for s in self.spans
            ],
        }


def instrument(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are taken at."""
    from gridbed import attack, feeder, mitigate, scenario
    from gridbed.modbus import client, frames, server

    def solve_attrs(args, result):
        return {"iterations": result.iterations, "converged": bool(result.converged)}

    tracer.wrap(feeder, "load_feeder", "feeder.load_feeder")
    for module in (server, mitigate):
        tracer.wrap(module, "apply_switch_config", "feeder.apply_switch_config")
        tracer.wrap(module, "solve", "powerflow.solve", solve_attrs)
    for module in (attack, mitigate, scenario):
        for fn in METRIC_FUNCTIONS[module.__name__.rpartition(".")[2]]:
            tracer.wrap(module, fn, "powerflow.metrics")
    tracer.wrap(server, "build_image", "regmap.build_image")

    for fn in CODEC_FUNCTIONS:
        tracer.wrap(frames, fn, "modbus.frames.codec", _codec_attrs(fn))
    FeederServer = getattr(server, "FeederServer", None)
    for method in ("__init__", "start", "close"):
        tracer.wrap(FeederServer, method, f"modbus.server.{method.strip('_')}")
    ModbusClient = getattr(client, "ModbusClient", None)
    tracer.wrap(
        ModbusClient, "request", "modbus.client.request",
        lambda args, result: {"fc": args[1].function},
    )
    tracer.wrap(ModbusClient, "read_all_voltages", "modbus.client.read_all_voltages")
    tracer.wrap(ModbusClient, "write_setpoints", "modbus.client.write_setpoints")

    tracer.wrap(attack, "run_attack", "attack.run_attack")
    tracer.wrap(attack, "step", "attack.step")
    tracer.wrap(
        mitigate, "payoff", "mitigate.payoff",
        lambda args, result: {"feasible": bool(result.feasible)},
    )
    for fn in ("best_response_sweep", "exhaustive_best"):
        tracer.wrap(mitigate, fn, "mitigate.search")
    for module in (mitigate, scenario):
        tracer.wrap(module, "mitigate_once", "mitigate.mitigate_once")
    tracer.wrap(scenario, "run_case", "scenario.run_case")


def _codec_attrs(fn: str):
    if fn == "encode_frame":
        return lambda args, result: {"txn": args[0].transaction_id}
    if fn == "decode_request":
        return lambda args, result: {"fc": result.function}
    return None


# -- per-layer metrics -------------------------------------------------------


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def _link_server_spans(spans: list[Span], main_thread: int) -> dict[int, float]:
    """Parent each server-thread request's spans to the client request with
    the same transaction id that was in flight, and return client request
    span id -> service time (seconds) of the write it caused."""
    by_id = {s.id: s for s in spans}
    client_requests: dict[int, list[Span]] = {}
    for s in spans:
        if s.thread == main_thread and s.attrs and "txn" in s.attrs:
            parent = by_id.get(s.parent)
            if parent is not None and parent.name == "modbus.client.request":
                client_requests.setdefault(s.attrs["txn"], []).append(parent)

    service: dict[int, float] = {}
    group: list[Span] = []
    group_fc = None
    server_top = sorted(
        (s for s in spans if s.thread != main_thread and s.parent is None),
        key=lambda s: (s.thread, s.start),
    )
    for s in server_top:
        if s.attrs and "fc" in s.attrs:  # decode_request opens a request
            group, group_fc = [], s.attrs["fc"]
        group.append(s)
        if s.attrs and "txn" in s.attrs:  # encode_frame of the response closes it
            in_flight = client_requests.get(s.attrs["txn"], ())
            caller = next((c for c in in_flight if c.start <= group[0].start <= c.end), None)
            if caller is not None:
                for member in group:
                    member.parent = caller.id
                if group_fc in WRITE_FUNCTIONS:
                    service[caller.id] = sum(m.duration for m in group if m.name in SERVICE_SPANS)
            group, group_fc = [], None
    return service


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def layer_metrics(
    tracer: Tracer, passes: int, passes_from: float
) -> dict[str, tuple[float, str]]:
    """Per-layer metric name -> (value, unit).

    Counts and total self times are per workload pass and take only spans
    that start at or after ``passes_from``, so the run's one-time set-up does
    not blur them; medians take every span. A layer the workload does not
    reach reads 0.
    """
    spans = tracer.spans
    service = _link_server_spans(spans, tracer.main_thread)
    self_s = _self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def in_passes(name):
        return [s for s in named(name) if s.start >= passes_from]

    def calls(name):
        return len(in_passes(name)) / passes

    def ms_p50(name):
        return _median(s.duration for s in named(name)) * 1e3

    def self_ms_p50(name):
        return _median(self_s[s.id] for s in named(name)) * 1e3

    def self_ms_total(name):
        return sum(self_s[s.id] for s in in_passes(name)) * 1e3 / passes

    def attr_mean(name, key):
        return _mean(s.attrs[key] for s in named(name) if s.attrs)

    requests = named("modbus.client.request")
    by_id = {s.id: s for s in spans}

    def inside(span, ancestor_name):
        parent = by_id.get(span.parent)
        while parent is not None:
            if parent.name == ancestor_name:
                return True
            parent = by_id.get(parent.parent)
        return False

    steps = len(named("attack.step"))
    attack_requests = sum(1 for r in requests if inside(r, "attack.run_attack"))
    codec = named("modbus.frames.codec")
    frames_sent = sum(1 for s in codec if s.attrs and "txn" in s.attrs)
    writes = [r for r in requests if r.id in service]

    ms, per_pass, count, ratio = "ms", "ms/pass", "count/pass", "ratio"
    metrics = {
        "feeder.load_feeder.ms": (ms_p50("feeder.load_feeder"), ms),
        "modbus.server.init.ms": (ms_p50("modbus.server.init"), ms),
        "modbus.server.start.ms": (ms_p50("modbus.server.start"), ms),
        "modbus.server.close.ms": (ms_p50("modbus.server.close"), ms),
        "powerflow.solve.calls": (calls("powerflow.solve"), count),
        "powerflow.solve.self_ms_p50": (self_ms_p50("powerflow.solve"), ms),
        "powerflow.solve.iterations_mean": (attr_mean("powerflow.solve", "iterations"), "count"),
        "powerflow.solve.converged_ratio": (attr_mean("powerflow.solve", "converged"), ratio),
        "powerflow.metrics.self_ms": (self_ms_total("powerflow.metrics"), per_pass),
        "modbus.server.write_service_ms_p50": (_median(service[r.id] for r in writes) * 1e3, ms),
        "modbus.server.wait_ms_p50": (
            _median(r.duration - service[r.id] for r in writes) * 1e3, ms
        ),
        "regmap.build_image.calls": (calls("regmap.build_image"), count),
        "regmap.build_image.self_ms_p50": (self_ms_p50("regmap.build_image"), ms),
        "feeder.apply_switch_config.calls": (calls("feeder.apply_switch_config"), count),
        "feeder.apply_switch_config.self_ms": (
            self_ms_total("feeder.apply_switch_config"), per_pass,
        ),
        "mitigate.payoff.calls": (calls("mitigate.payoff"), count),
        "mitigate.payoff.feasible_ratio": (attr_mean("mitigate.payoff", "feasible"), ratio),
        "mitigate.payoff.self_ms": (self_ms_total("mitigate.payoff"), per_pass),
        "mitigate.search.ms_p50": (ms_p50("mitigate.search"), ms),
        "mitigate.mitigate_once.ms_p50": (ms_p50("mitigate.mitigate_once"), ms),
        "modbus.client.requests_per_attack_step": (
            attack_requests / steps if steps else 0.0, "count",
        ),
        "modbus.client.read_all_voltages.ms_p50": (ms_p50("modbus.client.read_all_voltages"), ms),
        "modbus.client.write_setpoints.ms_p50": (ms_p50("modbus.client.write_setpoints"), ms),
        "attack.steps": (steps / passes, count),
        "attack.step.self_us": (self_ms_p50("attack.step") * 1e3, "us"),
        "modbus.frames.codec.self_us_per_frame": (
            sum(self_s[s.id] for s in codec) * 1e6 / frames_sent if frames_sent else 0.0,
            "us",
        ),
    }
    for fc in CLIENT_FUNCTIONS:
        of_fc = [r for r in requests if r.attrs and r.attrs["fc"] == fc]
        counted = sum(1 for r in of_fc if r.start >= passes_from)
        metrics[f"modbus.client.request.calls.fc{fc:02x}"] = (counted / passes, count)
        metrics[f"modbus.client.request.rtt_ms_p50.fc{fc:02x}"] = (
            _median(r.duration for r in of_fc) * 1e3, ms,
        )
    return metrics


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0
