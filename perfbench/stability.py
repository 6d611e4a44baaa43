"""Run-to-run spread of the end-to-end metrics, checked against BENCHMARK.json.

    python3 perfbench/stability.py --seeds 1-10 --out perfbench/out/set-a.json
    python3 perfbench/stability.py --compare perfbench/out/set-a.json perfbench/out/set-b.json

The first form runs every workload (or --workloads a,b) once per seed, with
the run_seconds of BENCHMARK.json, one run at a time, and prints for each
metric the median, the quartiles and the spread: (Q3 - Q1) / median, with
quartiles from statistics.quantiles(values, n=4).  A spread (setup_s aside)
must stay within the metric's bound; the benchmark aims at a third of it.
The second form compares the medians of two such sets against the bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(workloads: list[str], seeds: list[int]) -> dict:
    spec = _spec()
    runs: dict[str, list[dict]] = {}
    for name in workloads:
        for seed in seeds:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if out.returncode != 0:
                sys.exit(f"{name} seed {seed} exited {out.returncode}:\n{out.stderr}")
            lines = out.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            result["seed"] = seed
            result["notes"] = [line for line in lines if line.startswith(("outputs_sha256", "alias", "diagnostic", "raw", "speed"))]
            runs.setdefault(name, []).append(result)
            print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}", flush=True)
    return runs


def summary(runs: dict) -> dict:
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    table = {}
    for name, results in runs.items():
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("inf")
            table[f"{name} {metric}"] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
                "steady": metric == "setup_s" or spread < bound / 3, "values": values,
            }
    return table


def compare(first: dict, second: dict) -> bool:
    better = {m["name"]: m["better"] for m in _spec()["end_to_end"]}
    ok = True
    for key, a in first["summary"].items():
        b = second["summary"][key]
        metric = key.split()[1]
        worse = (b["median"] - a["median"]) / a["median"]
        if better[metric] == "higher":
            worse = -worse
        holds = worse <= a["bound"]
        ok &= holds
        print(f"{key:40s} {a['median']:12.6g} -> {b['median']:12.6g}  worse by {worse:+.3f}"
              f" (bound {a['bound']}) {'ok' if holds else 'OUT OF BOUND'}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--out")
    parser.add_argument("--compare", nargs=2)
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        return 0 if compare(first, second) else 1
    names = [w["name"] for w in _spec()["workloads"]] if args.workloads == "all" else args.workloads.split(",")
    runs = collect(names, _seeds(args.seeds))
    table = summary(runs)
    for key, row in table.items():
        print(f"{key:40s} median {row['median']:12.6g}  q1 {row['q1']:12.6g}  q3 {row['q3']:12.6g}"
              f"  spread {row['spread']:.4f} (bound {row['bound']}) {'steady' if row['steady'] else 'NOT STEADY'}")
    if args.out:
        Path(args.out).parent.mkdir(exist_ok=True)
        Path(args.out).write_text(json.dumps({"seeds": args.seeds, "runs": runs, "summary": table}, indent=1))
    return 0 if all(row["steady"] for row in table.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
