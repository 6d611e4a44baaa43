"""gwentropy benchmark: four closed-loop workloads, end-to-end and per layer.

    python3 perfbench/run.py --workload null-table --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; gwentropy is imported from its src/.  One
process, one caller, workers = 1: the next call is issued only when the
previous one has returned.  The loop issues calls until --seconds have passed
and always finishes the first full pass of the workload's operation list, so
every operation is checked against its oracle in every run.  Metrics are
taken over the complete passes.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the workload for
half of --seconds untraced, then the same operations again with spans, then
the per-layer probes of layers.py, and prints the per-layer metrics; the
spans go to perfbench/out/trace-<workload>-seed<seed>.json.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import package

package.load()

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracing import NullTracer, Tracer  # noqa: E402

SETUP_PROBES = 3

# Workload-specific names of the generic end-to-end metrics, printed as aliases.
ALIASES = {
    "null-table": {"items_per_s": "null_reps_per_s"},
    "power-alt": {"items_per_s": "alt_reps_per_s"},
    "measures": {"items_per_s": "measure_evals_per_s", "op_ms_p50": "measure_ms_p50", "op_ms_p90": "measure_ms_p90"},
    "estimator-study": {"items_per_s": "estimate_values_per_s"},
}


def _read(path: str) -> str:
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def environment() -> dict:
    cpu = next((line.split(":", 1)[1].strip() for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    llc = _read("/sys/devices/system/cpu/cpu0/cache/index3/size").strip() or "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "llc": llc,
        "pinning": "none",
        "machine_settings": "untouched; /proc and /sys are only read",
    }


def llc_bytes(llc: str) -> int | None:
    units = {"K": 2**10, "M": 2**20, "G": 2**30}
    if llc[-1:] in units and llc[:-1].isdigit():
        return int(llc[:-1]) * units[llc[-1]]
    return None


def setup_seconds(name: str) -> list[float]:
    """Fresh interpreter start to the first timed call, SETUP_PROBES times."""
    probe = Path(__file__).with_name("setup_probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        started = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(probe), "setup", name], capture_output=True, text=True, check=True, timeout=120
        )
        times.append(float(out.stdout.split()[-1]) - started)
    return times


def closed_loop(wl, tr, speed: SpeedProbe, seconds: float, min_ops: int):
    """Issue operations in list order, cycling, one at a time.

    Stops once `seconds` have passed and at least `min_ops` were issued.
    Samples the machine's speed between operations.  Returns
    [(op index, seconds, output)] and the failure messages.
    """
    done, failures = [], []
    started = time.perf_counter()
    while len(done) < min_ops or time.perf_counter() - started < seconds:
        index = len(done) % len(wl.ops)
        op = wl.ops[index]
        tr.op = len(done)
        speed.sample()
        speed.mark()
        t0 = time.perf_counter()
        try:
            out = op.run(tr)
        except Exception as exc:  # an unexpected raise is a failed operation; keep going
            dt = time.perf_counter() - t0
            out, err = None, f"raised {type(exc).__name__}: {exc}"
        else:
            dt = time.perf_counter() - t0
            err = op.check(out)
        if threading.active_count() > 1 or multiprocessing.active_children():
            err = "left a thread or a child process running"
        if err:
            failures.append(f"{op.name}: {err}")
        done.append((index, dt, out))
    speed.sample(force=True)
    return done, failures


def end_to_end(wl, done, factors: list[float]) -> dict:
    """Pass metrics; each operation's time is divided by its speed factor."""
    n_ops = len(wl.ops)
    complete = len(done) // n_ops * n_ops
    per_op = [[] for _ in range(n_ops)]
    for (index, dt, _), factor in zip(done[:complete], factors):
        per_op[index].append(dt / factor)
    medians = [statistics.median(t) for t in per_op]
    latencies = [m for op, m in zip(wl.ops, medians) if op.items]
    return {
        "wall_s": (sum(medians), "s"),
        "items_per_s": (sum(op.items for op in wl.ops) / sum(latencies), "1/s"),
        "op_ms_p50": (statistics.median(latencies) * 1e3, "ms"),
        "op_ms_p90": (statistics.quantiles(latencies, n=10, method="inclusive")[-1] * 1e3, "ms"),
    }


def digest(wl, done) -> str:
    """SHA-256 over the outputs of the first pass, in operation order."""
    first = [[wl.ops[index].name, out] for index, _, out in done[: len(wl.ops)]]
    return hashlib.sha256(json.dumps(first).encode()).hexdigest()


def phase_s(wl, done, prefix: str) -> float:
    """Median over complete passes of the time spent in operations named prefix*."""
    n_ops = len(wl.ops)
    passes = len(done) // n_ops
    totals = [
        sum(dt for index, dt, _ in done[p * n_ops:(p + 1) * n_ops] if wl.ops[index].name.startswith(prefix))
        for p in range(passes)
    ]
    return statistics.median(totals)


def run_end_to_end(wl, seed: int, seconds: float, env: dict):
    setups = setup_seconds(wl.name)
    workloads.warm_up(wl.name)
    speed = SpeedProbe()
    done, failures = closed_loop(wl, NullTracer(), speed, seconds, len(wl.ops))
    factors = speed.factors()
    metrics = {"setup_s": (statistics.median(setups), "s"), **end_to_end(wl, done, factors)}
    raw = end_to_end(wl, done, [1.0] * len(done))
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    metrics["ops_ok_frac"] = (1.0 - len(failures) / len(done), "1")
    info = [
        f"ops attempted={len(done)} failed={len(failures)} complete_passes={len(done) // len(wl.ops)}"
        f" ops_per_pass={len(wl.ops)} item={wl.item_unit}",
        f"setup_s samples: {' '.join(f'{t:.4f}' for t in setups)}",
        f"speed factor mean {statistics.fmean(factors):.4f}, range {min(factors):.4f}-{max(factors):.4f},"
        f" from {len(speed.samples)} kernel samples",
        f"outputs_sha256 {digest(wl, done)}",
    ]
    for name, (value, unit) in raw.items():
        info.append(f"raw {name} = {value:.6g} {unit}  (as measured, not divided by the speed factor)")
    for generic, alias in ALIASES[wl.name].items():
        value, unit = raw[generic]
        info.append(f"alias {alias} = {value:.6g} {unit}  (raw {generic})")
    info.append(f"alias ops_failed_frac = {len(failures) / len(done):.6g} 1  (= 1 - ops_ok_frac)")
    if wl.name == "measures":
        info.append(f"alias checks_s = {phase_s(wl, done, 'checks.'):.6g} s  (classify + bound checks, per pass)")
        info.append(f"alias verify_s = {phase_s(wl, done, 'verification.'):.6g} s  (closed-form suite, per pass)")
    info += workloads.diagnostics(wl.name, [out for _, _, out in done[: len(wl.ops)]], llc_bytes(env["llc"]))
    return metrics, len(done), failures, info


def run_traced(wl, seed: int, seconds: float, env: dict):
    workloads.warm_up(wl.name)
    plain_speed, traced_speed = SpeedProbe(), SpeedProbe()
    untraced, failures = closed_loop(wl, NullTracer(), plain_speed, seconds / 2, 1)
    tr = Tracer()
    traced, more = closed_loop(wl, tr, traced_speed, 0.0, len(untraced))
    failures += more
    base = sum(dt / f for (_, dt, _), f in zip(untraced, plain_speed.factors()))
    metrics, probe_failures = layers.measure(tr, seed)
    failures += probe_failures
    overhead = sum(dt / f for (_, dt, _), f in zip(traced, traced_speed.factors())) / base - 1.0
    metrics["trace.overhead_frac"] = (overhead, "1")
    package.OUT.mkdir(exist_ok=True)
    path = package.OUT / f"trace-{wl.name}-seed{seed}.json"
    tr.write(path)
    info = [
        f"ops attempted={len(untraced) + len(traced)} failed={len(failures)} (untraced then traced, same ops)",
        f"gof.rep_us.n20 = {metrics['gof.rep_us.n20'][0]:.4g} us beside its mirrored spans"
        f" generator + sample + statistic = {metrics['gof.rep_us.n20.mirrored_sum'][0]:.4g} us",
        f"gof.rng_share.n20 = {metrics['gof.rng_share.n20'][0]:.4g} of base gof.rep_us.n20",
        f"spans written: {path.relative_to(package.ROOT)} ({len(tr.spans)} spans)",
    ]
    attempted = len(untraced) + len(traced) + len(metrics)
    return metrics, attempted, failures, info


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    env = environment()
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("env " + " ".join(f"{k}={v!r}" if isinstance(v, str) else f"{k}={v}" for k, v in env.items()))
    wl = workloads.BUILDERS[args.workload](args.seed)
    run = run_traced if args.trace else run_end_to_end
    metrics, attempted, failures, info = run(wl, args.seed, args.seconds, env)
    for line in info:
        print(line)
    for message in failures:
        print(f"FAILED {message}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
