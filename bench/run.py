"""stalab benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload phase-sweep --seed 1 --seconds 20 --trace 0

Prints every metric by name with its unit, then, as the last line, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones; with --trace 1 the run repeats the timed
loop untraced, then runs a fixed number of rounds with every public stalab
function wrapped, and reports the per-layer metrics. Workloads are listed
in bench/README.md and BENCHMARK.json.
"""

import os

# one BLAS thread and one stalab grid thread, here and in every child
# process (the host has 2 cores, and the span recorder is single-threaded)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "STALAB_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import metrics  # noqa: E402
import tracing  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 6      # extra set-ups in child processes for the setup_s median
SETUP_CAL_RUNS = 15   # kernel runs per host-speed sample around a set-up
MAX_REPORTED_ERRORS = 3
TRACE_SLACK_S = 2e-4  # per item: loop item time outside its root span

END_TO_END = (("throughput_per_s", "1/s"), ("latency_p50_s", "s"),
              ("latency_tail_s", "s"), ("success_frac", "fraction"),
              ("peak_rss_mib", "MiB"), ("setup_s", "s"))


class Loop:
    """Item times and outputs of one timed loop."""

    def __init__(self):
        self.times: list[float] = []      # host seconds per item
        self.ref_times: list[float] = []  # the same in reference seconds
        self.records: list[tuple] = []    # (item, output, raised)
        self.elapsed = 0.0
        self.errors = 0
        self.peak_rss_kib = None

    @property
    def throughput(self) -> float:
        """Items per reference second of item time (one caller)."""
        return len(self.ref_times) / sum(self.ref_times)


def run_loop(wl, *, seconds=None, rounds=None, tracer=None) -> Loop:
    """Closed loop, one caller: whole rounds until `seconds` have passed
    (or `rounds` rounds are done). Host speed is sampled every
    CAL_EVERY_S between items, and each item time is converted to
    reference seconds with the two samples that bracket it. Peak memory
    is read after wl.rss_rounds rounds, a fixed amount of work."""
    loop = Loop()
    perf = time.perf_counter
    cal_prev = metrics.calibrate()
    cal_at = start = perf()
    segment: list[float] = []     # host times of items since cal_prev

    def close_segment():
        nonlocal cal_prev, cal_at, segment
        cal = metrics.calibrate()
        loop.ref_times += [metrics.to_reference(t, cal_prev, cal)
                           for t in segment]
        cal_prev, cal_at, segment = cal, perf(), []

    done = 0
    while (perf() - start < seconds) if rounds is None else (done < rounds):
        for item in wl.next_round():
            if perf() - cal_at >= metrics.CAL_EVERY_S:
                close_segment()
            t0 = perf()
            try:
                if tracer is None:
                    out = wl.run(item)
                else:
                    with tracer.span(wl.root_span):
                        out = wl.run(item)
                raised = False
            except Exception:  # an item that raises counts as failed
                out, raised = None, True
                loop.errors += 1
                if loop.errors <= MAX_REPORTED_ERRORS:
                    print(f"item {item.kind} raised:", file=sys.stderr)
                    traceback.print_exc()
            segment.append(perf() - t0)
            loop.times.append(segment[-1])
            loop.records.append((item, out, raised))
        done += 1
        if done == wl.rss_rounds:
            loop.peak_rss_kib = wl.peak_rss_kib()
    close_segment()
    loop.elapsed = perf() - start
    if loop.peak_rss_kib is None:
        loop.peak_rss_kib = wl.peak_rss_kib()
    return loop


def count_failed(wl, records) -> int:
    """Untimed reference checks; an item fails if it raised or its output
    is outside its reference check (or the check itself cannot run)."""
    failed = 0
    for item, out, raised in records:
        ok = False
        if not raised:
            try:
                ok = wl.check(item, out)
            except Exception:
                print(f"check of {item.kind} raised:", file=sys.stderr)
                traceback.print_exc()
        if not ok:
            failed += 1
            if failed <= MAX_REPORTED_ERRORS:
                print(f"FAILED {item.kind} round {item.round}: {item.spec}",
                      file=sys.stderr)
    return failed


def setup_probe(workload: str, seed: int) -> float:
    """Set-up time measured in a fresh process."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("phase-sweep", "response-sweep",
                                 "spot-queries", "cli-oneshot"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "stalab", "__init__.py")):
        print(f"error: stalab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    cal_before = metrics.calibrate(SETUP_CAL_RUNS)
    t0 = time.perf_counter()
    import workloads  # imports numpy and stalab: part of set-up
    wl = workloads.WORKLOADS[args.workload](args.seed, ROOT)
    try:
        wl.setup()
        setup_s = time.perf_counter() - t0
        setup_s = metrics.to_reference(setup_s, cal_before,
                                       metrics.calibrate(SETUP_CAL_RUNS))
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        loop = run_loop(wl, seconds=args.seconds)
        peak_rss_mib = loop.peak_rss_kib / 1024.0
        records = list(loop.records)
        if args.trace:
            tracer = tracing.Tracer()
            wl.tracer = tracer
            tracer.install()
            try:
                traced = run_loop(wl, rounds=wl.trace_rounds, tracer=tracer)
            finally:
                tracer.uninstall()
                wl.tracer = None
            records += traced.records
        failed = count_failed(wl, records)
    finally:
        wl.close()

    attempted = len(records)
    tail, pct, beyond = metrics.tail_latency(loop.ref_times)
    print(f"workload={args.workload} seed={args.seed} unit={wl.unit} "
          f"items={len(loop.times)} rounds={wl.rounds} "
          f"elapsed_s={loop.elapsed:.3f}")
    print(f"host seconds: throughput_per_s={len(loop.times) / sum(loop.times):.6g} "
          f"latency_p50_s={statistics.median(loop.times):.6g} "
          f"latency_tail_s={metrics.tail_latency(loop.times)[0]:.6g}; "
          f"host speed {sum(loop.ref_times) / sum(loop.times):.4f} x reference")
    print(f"latency_tail_s is p{pct:.2f}: {beyond} of {len(loop.times)} "
          f"item times lie beyond it")
    print(f"failed_frac={failed / attempted:.6g} ({failed} of {attempted} "
          f"items failed); literal_zero_misses={wl.literal_zero_misses}")
    if args.trace:
        overhead = loop.throughput / traced.throughput - 1.0
        new = sum(item.new_sequences for item, _, _ in traced.records)
        values, acct = tracing.layer_metrics(tracer, new, overhead,
                                             sum(traced.times))
        units = {name: unit for name, unit, _ in tracing.per_layer_spec()}
        print("trace accounting: item_time_s={item_time_s:.6f} "
              "self_sum_s={self_sum_s:.6f} residual_s={residual_s:.3g}"
              .format(**acct))
        path = os.path.join(HERE, "out",
                            f"spans-{args.workload}-{args.seed}.tsv")
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for name, start, end, parent in tracer.spans:
                fh.write(f"{name}\t{start!r}\t{end!r}\t{parent}\n")
        correct = failed == 0 and 0.0 <= acct["residual_s"] <= \
            TRACE_SLACK_S * len(traced.times)
    else:
        setups = [setup_s] + [setup_probe(args.workload, args.seed)
                              for _ in range(SETUP_PROBES)]
        values = {
            "throughput_per_s": loop.throughput,
            "latency_p50_s": statistics.median(loop.ref_times),
            "latency_tail_s": tail,
            "success_frac": 1.0 - failed / attempted,
            "peak_rss_mib": peak_rss_mib,
            "setup_s": statistics.median(setups),
        }
        units = dict(END_TO_END)
        correct = failed == 0
    for name, value in values.items():
        print(f"  {name} = {value!r} {units[name]}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in values.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
