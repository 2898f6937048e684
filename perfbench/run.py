"""The gridbed benchmark: one workload per invocation.

    python3 perfbench/run.py --workload replay --seed 1 --seconds 30 --trace 0

Run it from the root of a gridbed checkout: the package is imported from the
checkout's ``src/`` directory, so nothing needs installing. Only the standard
library and numpy are used.

Every workload is a closed loop over loopback TCP: the server runs in the
workload's own process and one client connection at a time waits for each
reply before it sends the next request. The seed only permutes the order of
cases or attack modes.

``replay``
    ``run_case(ScenarioConfig(), case, live=False)`` for cases 1..6: a fresh
    server per case, one setpoint write, a best-response sweep and two
    client connections. Server start and stop and the sweep do most of the
    work. One operation is one case.
``live-attack``
    One long-lived server and client; ``run_attack(AttackParams(), mode)``
    for modes A, B and C, setpoints reset to baseline between modes. The
    topology never changes, so the per-write re-solve on one radial
    topology, the register image, the client metrics and the Modbus round
    trip do the work. One operation is one attack step, timed from one
    setpoint write to the next.
``defend``
    One long-lived server; per case the client writes the case pattern,
    runs one oracle ``mitigate_once(use_oracle=True, allow_meshed=True)``,
    then resets coils and setpoints over the wire. Every candidate is a new
    topology. One operation is one defense cycle.

Each run checks the workload's outputs (see ``workload.py``); a failed check
or an exception counts in ``failed``. The workload runs in a process of its
own, so its peak RSS is its own.

With ``--trace 0`` the last line holds the end-to-end metrics:

* ``setup_s``: median over fresh processes of ``setup_probe.py``, from import
  to the first read answered by a started server;
* ``op_ms_p99``: 99th percentile of one operation; on live-attack that is
  one setpoint write, which the server answers only after re-solving, plus
  three cheap reads, so it carries the write-to-response latency;
* ``peak_rss_mb``: peak resident set of the workload process.

Latencies are gated on a far tail rather than the median because on small
shared hosts each CPU alternates, for seconds at a time, between two speeds
about 1.7x apart. A run's median then lands on either speed, depending on
which held most of the run, while nearly every run meets the slower state,
which the far tail measures. On defend the slowest case is a sixth of the
operations, so the 95th percentile still mixed both speeds and moved 41%
between sets of runs; the 99th moved at most 24%. Request
round trips are not gated on their own: every workload must report every
gated metric; replay makes only six setpoint writes per pass, too few for a
steady tail, and read round trips of 0.05-0.3 ms swung 12-14% between runs.
The line before the last holds the machine stamp, the seed, and every
timing's count, median, tails and mean, round trips of writes and reads
included.

With ``--trace 1`` the workload runs once untraced and once traced, and the
last line holds the per-layer metrics plus ``trace.overhead_pct``, the
traced run's 95th percentile operation time over the untraced one's; spans
go to ``.bench_out/``. ``layer_map.json`` says which end-to-end metric each
per-layer metric should move, on which workload.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("replay", "live-attack", "defend")
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 60
CHILD_GRACE_S = 100
OUT_DIR = ".bench_out"
TRANSPORT = "TCP over loopback (127.0.0.1), one closed-loop client connection at a time"

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_ms_p99": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def _child(argv: list[str], env: dict, timeout: float) -> dict:
    try:
        done = subprocess.run(
            [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{argv[0]} exceeded {timeout:.0f} s") from exc
    if done.returncode != 0:
        raise BenchError(f"{argv[0]} exited {done.returncode}:\n{done.stderr[-4000:]}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{argv[0]} printed no result:\n{done.stderr[-4000:]}")
    return json.loads(lines[-1])


def _git_commit(root: Path) -> str:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return f"unknown ({name})"


def run(args) -> tuple[dict, dict]:
    root = Path.cwd()
    src = root / "src"
    if not (src / "gridbed" / "__init__.py").is_file():
        raise BenchError(f"no gridbed sources under {src}; run from a gridbed checkout")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))

    probes = 1 if args.smoke else SETUP_PROBES
    setup_samples = [
        _child([str(HERE / "setup_probe.py")], env, PROBE_TIMEOUT_S)["setup_s"]
        for _ in range(probes)
    ]

    base = [
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
    ] + (["--smoke"] if args.smoke else [])
    timeout = args.seconds + CHILD_GRACE_S
    runs = [_child(base + ["--trace", "0"], env, timeout)]
    if args.trace:
        spans = root / OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        runs.append(_child(base + ["--trace", "1", "--spans-out", str(spans)], env, timeout))

    untraced = runs[0]
    if args.trace:
        traced = runs[1]
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in traced["layers"].items()}
        p95 = [r["timings"]["op_ms"]["p95"] for r in runs]
        overhead = p95[1] / p95[0] - 1
        metrics["trace.overhead_pct"] = {"value": 100.0 * overhead, "unit": "%"}
    else:
        values = dict(untraced["end_to_end"], setup_s=statistics.median(setup_samples))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END_UNITS.items()}

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    result = {
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "stamp": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": untraced["numpy"],
            "platform": platform.platform(),
            "git_commit": _git_commit(root),
            "transport": TRANSPORT,
        },
        "setup_s_samples": setup_samples,
        "runs": [
            {k: r[k] for k in ("passes", "wall_s", "failures", "timings")}
            | ({"absent": r["absent"]} if "absent" in r else {})
            for r in runs
        ],
    }
    return detail, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="gridbed benchmark (see module docstring)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke", action="store_true",
        help="one case or mode, one set-up probe: a quick check that everything runs",
    )
    args = parser.parse_args(argv)
    try:
        detail, result = run(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
