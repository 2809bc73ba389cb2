"""Run the benchmark over workloads and seeds and print every metric.

    python3 bench/report.py                        # seed 1, all workloads, both runs
    python3 bench/report.py --seeds 1-10 --trace 0 # spread check

For each workload and run mode this prints every metric by name with its
unit and value; with more than one seed it also prints the median, the
quartiles and the quartile spread as a share of the median, next to the
bound BENCHMARK.json fixes for end-to-end metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out += range(int(lo), int(hi or lo) + 1)
    return out


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        command = json.load(fh)["command"]
    proc = subprocess.run(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1", help="e.g. 1-10 or 3,5")
    parser.add_argument("--trace", default="0,1", help="0, 1 or 0,1")
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = seed_list(args.seeds)
    seconds = bench["run_seconds"]
    worst_ok = True
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (int(t) for t in args.trace.split(",")):
            runs = [run_once(workload, s, seconds, trace) for s in seeds]
            correct = all(r["correct"] for r in runs)
            print(f"== {workload} trace={trace} seeds={args.seeds} "
                  f"correct={correct} attempted="
                  f"{[r['attempted'] for r in runs]} "
                  f"failed={[r['failed'] for r in runs]}")
            for name, first in runs[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in runs]
                line = f"  {name} [{first['unit']}]"
                if len(values) == 1:
                    print(f"{line} = {values[0]!r}")
                    continue
                q1, q2, q3 = statistics.quantiles(values, n=4)
                spread = metrics.quartile_spread(values)
                line += (f" median={q2:.6g} q1={q1:.6g} q3={q3:.6g} "
                         f"spread={spread:.4f}")
                if name in bounds:
                    ok = spread < bounds[name] / 3
                    worst_ok &= ok
                    line += f" bound={bounds[name]} {'ok' if ok else 'WIDE'}"
                print(line)
                if trace == 0:
                    print("    values: " + " ".join(f"{v:.6g}" for v in values))
            sys.stdout.flush()
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
