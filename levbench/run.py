"""Seeded benchmark of the levring package: end-to-end and per-layer metrics.

Run from the repository root:

    python3 levbench/run.py --workload point_solve --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json for why each is there): stability_map,
entanglement_sweep, point_solve, oracle_check. One caller runs rounds of
the workload back to back in this process (a closed loop); SIM_THREADS is
removed from the environment and its incoming value recorded.

--trace 0 measures the end-to-end metrics with no tracing: one warm-up
call, then for about --seconds timed rounds, with set-up probes (fresh
interpreters) spread between them. A fixed reference loop that does not
touch levring runs after every round and probe; its time tells how fast
the host runs at that moment, and each round's time is scaled to the
speed of the reference host (see host_scale). Each probe is scaled alike
by a fresh interpreter that imports only numpy (see setup_once).

--trace 1 alternates untraced and traced rounds on the same inputs and
reports the per-layer metrics of the traced rounds, per round, plus the
tracing overhead; its spans go to .levbench_out/.

Every output is checked. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics; the line before it holds
the run's provenance and details. The exit code is 0 only when no check
failed.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".levbench_out"

SETUP_PROBES = 9
MIN_ROUNDS = 5
PROBE_TIMEOUT_S = 120
# Median seconds of reference_s() on the host the baseline was taken on
# (2 vCPUs of a KVM guest at 2.1 GHz, Python 3.11, numpy 2). Only the
# unit of the scaled rate depends on it.
REFERENCE_HOST_S = 0.055
# Median seconds from spawning an interpreter that imports numpy to its
# `ready` line, on the same host.
NUMPY_START_HOST_S = 0.159
# Calls beyond the tail percentile; the percentile is the highest with
# this many samples beyond it.
TAIL_SAMPLES = 10

_REF_GRID = np.linspace(-3.0, 3.0, 3001)
_REF_MATRIX = np.random.default_rng(0).random((4, 4))


def reference_s():
    """Seconds a fixed loop that does not touch levring takes right now.

    The host's speed drifts by up to 1.7x within tens of seconds, with no
    steal time and no system time, and warm interpreted and numpy code
    slow alike. The loop mixes the three kinds of work levring does
    (interpreted scalar code, numpy calls on 4x4 matrices, arithmetic on
    3001-point arrays), so its time tracks the speed the workload sees.
    """
    start = time.perf_counter()
    x = 0.0
    for i in range(100000):
        x += math.sin(i * 1e-3)
    for _ in range(1500):
        x += float(np.linalg.eigvals(_REF_MATRIX).real.max())
    for _ in range(300):
        x += float((1.0 / ((_REF_GRID - 0.3) ** 2 + 0.01)).sum())
    return time.perf_counter() - start


def host_scale(ref_before, ref_after):
    """Factor that turns seconds measured now into reference-host seconds."""
    return REFERENCE_HOST_S / (0.5 * (ref_before + ref_after))


def parse_args(names, argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def check_layout():
    """The checkout must hold the package source and the shipped configs."""
    needed = [ROOT / "BENCHMARK.json", ROOT / "src" / "levring" / "__init__.py",
              ROOT / "configs" / "fig1.cfg", ROOT / "configs" / "fig2.cfg"]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"levbench: not a levring checkout, missing {', '.join(missing)}")


def git_sha(root):
    """HEAD commit read from .git without running git; None outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def read_loadavg():
    try:
        with open("/proc/loadavg", encoding="ascii") as fh:
            return fh.read().split()[:3]
    except OSError:
        return None


def ready_s(args):
    """Seconds from spawning a fresh interpreter to its `ready` line."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], stdout=subprocess.PIPE,
                            text=True, cwd=ROOT)
    # A probe that hangs before `ready` is killed, which ends the readline.
    watchdog = threading.Timer(PROBE_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{args} exited {proc.returncode}")
    return elapsed


def setup_once(workload):
    """One set-up probe, in seconds scaled to the reference host.

    Set-up is cold-start work (loading and running module code in a new
    process), whose speed here swings by 35% between stretches of minutes
    without the hot reference loop moving. A fresh interpreter that only
    imports numpy swings alike, so it is spawned after every probe and the
    probe is scaled by it. Returns (scaled, probe seconds, numpy seconds).
    """
    probe = ready_s([str(HERE / "probe.py"), workload])
    numpy_only = ready_s(["-c", "import numpy; print('ready', flush=True)"])
    return probe * NUMPY_START_HOST_S / numpy_only, probe, numpy_only


def timed_rounds(w, workload, seconds, totals):
    """Untraced rounds for about `seconds`, set-up probes spread among them.

    Returns the rounds' host-scaled seconds, the scaled time of each
    probe, and the raw figures for the detail line. Each round is scaled
    by the reference loops on either side of it.
    """
    scaled_s, setups = 0.0, []
    raw = {"round_s": [], "reference_s": [], "setup_s": [],
           "numpy_start_s": []}
    ref = reference_s()
    raw["reference_s"].append(ref)
    begin = time.perf_counter()
    round_no = 1
    while True:
        elapsed = time.perf_counter() - begin
        rounds_done = len(raw["round_s"]) >= MIN_ROUNDS and (
            elapsed + statistics.median(raw["round_s"]) > seconds)
        if len(setups) < SETUP_PROBES and (
                rounds_done or len(setups) * seconds <= elapsed * SETUP_PROBES):
            scaled, probe, numpy_only = setup_once(workload)
            setups.append(scaled)
            raw["setup_s"].append(probe)
            raw["numpy_start_s"].append(numpy_only)
            after = reference_s()
        elif rounds_done:
            return scaled_s, setups, raw
        else:
            inputs = w.inputs(round_no)
            round_no += 1
            t0 = time.perf_counter()
            result = w.run_round(inputs, contextlib.nullcontext)
            work_s = time.perf_counter() - t0
            after = reference_s()
            scaled_s += work_s * host_scale(ref, after)
            raw["round_s"].append(work_s)
            totals.add(result)
        raw["reference_s"].append(after)
        ref = after


def traced_rounds(w, seconds, totals, tracer):
    """Pairs of an untraced and a traced round on the same inputs."""
    overhead = []
    begin = time.perf_counter()
    round_no = 1
    while True:
        inputs = w.inputs(round_no)
        t0 = time.perf_counter()
        result = w.run_round(inputs, contextlib.nullcontext)
        plain = time.perf_counter() - t0
        totals.add(result)
        with tracer.installed():
            t0 = time.perf_counter()
            result = w.run_round(inputs, tracer.point_scope)
            traced = time.perf_counter() - t0
        totals.add(result)
        tracer.collect()
        overhead.append(traced - plain)
        round_no += 1
        elapsed = time.perf_counter() - begin
        if elapsed + elapsed / len(overhead) > seconds:
            return overhead


def main(argv=None):
    check_layout()
    sim_threads = os.environ.pop("SIM_THREADS", None)
    sys.path.insert(0, str(ROOT / "src"))
    import spans
    import workloads

    args = parse_args(sorted(workloads.WORKLOADS), argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    provenance = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "loadavg_start": read_loadavg(), "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "SIM_THREADS": sim_threads,
        "LEVRING_NO_NUMBA": os.environ.get("LEVRING_NO_NUMBA"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "jit_enabled": sys.modules["levring._kernels"].JIT_ENABLED,
        "git_sha": git_sha(ROOT),
    }
    detail = {}
    metrics = {}

    totals = workloads.RoundResult()
    w = workloads.make(args.workload, ROOT, args.seed)
    w.first_call()      # warm-up: lazy imports and, with numba, compilation

    if args.trace == 0:
        scaled_s, setups, raw = timed_rounds(w, args.workload, args.seconds,
                                             totals)
        values = {
            "setup_s": statistics.median(setups),
            "points_per_s": totals.points / scaled_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        detail.update(raw, rounds=len(raw["round_s"]),
                      host_factor=scaled_s / sum(raw["round_s"]))
        calls = totals.calls
        if len(calls) > TAIL_SAMPLES:
            percentile = 100.0 * (1.0 - TAIL_SAMPLES / len(calls))
            detail.update(calls=len(calls),
                          call_p50_ms=statistics.median(calls) * 1e3,
                          call_tail_ms=float(np.percentile(calls, percentile))
                          * 1e3,
                          tail_percentile=percentile)
        wanted = spec["end_to_end"]
    else:
        tracer = spans.Tracer()
        overhead = traced_rounds(w, args.seconds, tracer=tracer,
                                 totals=totals)
        values = {m["name"]: tracer.per_round(m["name"])
                  for m in spec["per_layer"] if m["name"] != "trace.overhead_s"}
        values["trace.overhead_s"] = statistics.median(overhead)
        OUT_DIR.mkdir(exist_ok=True)
        spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.npz"
        tracer.write(spans_file)
        detail.update(traced_rounds=tracer.rounds, overhead_s=overhead,
                      spans_file=str(spans_file.relative_to(ROOT)))
        wanted = spec["per_layer"]
    for m in wanted:
        metrics[m["name"]] = {"value": float(values[m["name"]]),
                              "unit": m["unit"]}

    print(json.dumps({"provenance": provenance, "detail": detail}))
    print(json.dumps({"correct": totals.failed == 0,
                      "attempted": totals.attempted, "failed": totals.failed,
                      "metrics": metrics}))
    return 0 if totals.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
