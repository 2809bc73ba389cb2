"""Span recorder for the traced benchmark run.

The recorder wraps public stalab functions from outside at run time: each
wrapped call records a span (name, start, end, parent) in memory. Self time
is a span's duration minus the part of it that its child spans cover.

Standard library only, so that the CLI child script can load it before
``import stalab`` (and numpy) is timed.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from contextlib import contextmanager

perf_counter = time.perf_counter

# (module, attribute, layer name); "Class.method" attributes wrap the class.
_BUILDERS = ("build_mach_zehnder", "build_cab", "build_cab_kicktrain",
             "build_butterfly", "build_recoil_triangle",
             "build_const_accel_recoil")
TARGETS = tuple(("sequence", b, "sequence.build") for b in _BUILDERS) + tuple(
    (mod, attr, f"{mod}.{attr}") for mod, attrs in (
        ("sequence", ("closure_defect", "is_closed", "symmetry_class")),
        ("kinematics", ("integrate_arm", "arm_trajectories",
                        "path_difference", "mirror_velocity_equal",
                        "PathDifference.moment_poly_exact",
                        "PathDifference.moment_trig",
                        "PathDifference.mirror_parity")),
        ("phase", ("total_phase", "separation_phase", "kinetic_phase",
                   "inertial_phase", "inertial_phase_timevarying",
                   "laser_phase", "sagnac_phase", "fourier_phase")),
        ("response", ("response_curve", "transfer", "abs_area",
                      "sensitivity_R", "sensitivity_Rstar")),
        ("seqfile", ("load_sequence", "save_sequence")),
    ) for attr in attrs)

# layers timed by the CLI child script itself, not by a wrapper
CLI_LAYERS = ("cli.import", "cli.main")
# root span of one benchmark item; its self time is the unattributed part
ITEM_SPAN = "bench.item"
# root span of one CLI subprocess; its self time is interpreter start-up,
# teardown and process handling outside cli.import and cli.main
PROCESS_SPAN = "cli.process"
# prefix of the stderr line on which the CLI child script reports its spans
CHILD_MARKER = "@@bench-spans@@ "

LAYERS = tuple(dict.fromkeys(layer for _, _, layer in TARGETS)) + CLI_LAYERS

# counters the Tracer itself keeps at layer boundaries
TRACER_COUNTS = ("kinematics.path_difference.cache_hits",
                 "kinematics.path_difference.cache_misses",
                 "kinematics.pieces_merged",
                 "kinematics.moment_trig.series_pieces",
                 "kinematics.moment_trig.closed_pieces")

# counters: (metric name, unit, better)
COUNTERS = (
    ("kinematics.path_difference.cache_hits", "count", "higher"),
    ("kinematics.path_difference.cache_misses", "count", "lower"),
    ("kinematics.integrate_arm.useful_ratio", "ratio", "higher"),
    ("kinematics.pieces_merged", "count", "lower"),
    ("kinematics.moment_trig.series_pieces", "count", "lower"),
    ("kinematics.moment_trig.closed_pieces", "count", "lower"),
    ("cli.process_other_s", "s", "lower"),
    ("bench.unattributed_s", "s", "lower"),
    ("bench.trace_overhead_frac", "fraction", "lower"),
)


def per_layer_spec() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for layer in LAYERS:
        out += [(f"{layer}.calls", "count", "lower"),
                (f"{layer}.busy_s", "s", "lower"),
                (f"{layer}.self_s", "s", "lower")]
    return out + list(COUNTERS)


class Tracer:
    """In-memory span recorder plus the counters taken at layer boundaries.

    ``spans`` holds [name, start, end, parent index] lists; parent -1 marks
    a root. Spans are appended in start order, so a parent always precedes
    its children.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._trig: list[tuple] = []     # (PathDifference, omega) per call
        self._cache = None
        self._cache_base = None
        self._misses = 0
        self.counts: dict[str, int] = defaultdict(int)

    # -- recording ----------------------------------------------------

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def span(self, name):
        rec = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def adopt(self, exported: dict) -> None:
        """Attach a child process's spans under the current span."""
        offset = len(self.spans)
        here = self._stack[-1] if self._stack else -1
        for name, start, end, parent in exported["spans"]:
            self.spans.append([name, start, end,
                               parent + offset if parent >= 0 else here])
        for key, value in exported["counts"].items():
            self.counts[key] += value

    def export(self) -> dict:
        return {"spans": self.spans, "counts": dict(self.counts)}

    # -- installing wrappers -------------------------------------------

    def install(self) -> None:
        """Wrap every target wherever stalab binds it (module globals of
        each loaded stalab module, the package namespace, and classes)."""
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "stalab"
                                         or n.startswith("stalab."))]
        kin = sys.modules["stalab.kinematics"]
        self._cache = kin.path_difference
        self._cache_base = self._cache.cache_info()
        self._misses = self._cache_base.misses
        hooks = {"kinematics.path_difference": self._note_path_difference,
                 "kinematics.PathDifference.moment_trig": self._note_trig}
        for module, attr, layer in TARGETS:
            owner = sys.modules[f"stalab.{module}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self.wrap(layer, orig, hooks.get(layer)))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(owner, attr)
            wrapped = self.wrap(layer, orig, hooks.get(layer))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))

    def uninstall(self) -> None:
        """Restore the originals and fold the boundary counters in."""
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()
        if self._cache is None:
            return
        info = self._cache.cache_info()
        self.counts["kinematics.path_difference.cache_hits"] += \
            info.hits - self._cache_base.hits
        self.counts["kinematics.path_difference.cache_misses"] += \
            info.misses - self._cache_base.misses
        series, closed = classify_trig(self._trig)
        self.counts["kinematics.moment_trig.series_pieces"] += series
        self.counts["kinematics.moment_trig.closed_pieces"] += closed
        self._trig.clear()
        self._cache = None

    def _note_path_difference(self, args, kwargs, pd) -> None:
        misses = self._cache.cache_info().misses
        if misses != self._misses:
            self._misses = misses
            self.counts["kinematics.pieces_merged"] += len(pd.pieces)

    def _note_trig(self, args, kwargs, result) -> None:
        omega = args[2] if len(args) > 2 else kwargs["omega"]
        self._trig.append((args[0], omega))


def classify_trig(calls) -> tuple[int, int]:
    """Count (omega, piece) pairs on each side of the documented switch
    z = omega * max|t| < 1/2 (series) versus the closed form."""
    import numpy as np

    by_pd: dict[int, tuple] = {}
    for pd, omega in calls:
        if omega > 0:
            by_pd.setdefault(id(pd), (pd, []))[1].append(omega)
    series = total = 0
    for pd, omegas in by_pd.values():
        tmax = np.array([max(abs(float(p.t0)), abs(float(p.t1)))
                         for p in pd.pieces])
        z = np.asarray(omegas, dtype=float)[:, None] * tmax[None, :]
        series += int(np.count_nonzero(z < 0.5))
        total += z.size
    return series, total - series


# ----------------------------------------------------------------------
# span arithmetic
# ----------------------------------------------------------------------

def self_times(spans) -> list[float]:
    """Duration of each span minus the union of its children's intervals
    (clipped to the span)."""
    children = defaultdict(list)
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for j in sorted(children.get(i, ()), key=lambda k: spans[k][1]):
            s, e = max(spans[j][1], start), min(spans[j][2], end)
            if e <= s:
                continue
            if hi is None or s > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = s, e
            else:
                hi = max(hi, e)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """calls, busy_s (inclusive, outermost span of a name only) and self_s
    per span name."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
    for i, (name, start, end, parent) in enumerate(spans):
        row = out[name]
        row["calls"] += 1
        row["self_s"] += selfs[i]
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            row["busy_s"] += end - start
    return out


def layer_metrics(tracer: Tracer, new_sequences: int, overhead_frac: float,
                  item_time_s: float) -> tuple[dict, dict]:
    """Per-layer metric values plus the accounting of traced item time.

    Every recorded span is either a wrapped layer or an item root, so the
    self times (bench.unattributed_s and cli.process_other_s are the
    roots' self times) should add up to `item_time_s`, the item time the
    loop measured around each root span by itself; the residual is the
    span bookkeeping at the roots.
    """
    totals = layer_totals(tracer.spans)
    values: dict[str, float] = {}
    for layer in LAYERS:
        row = totals.get(layer, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        values[f"{layer}.calls"] = row["calls"]
        values[f"{layer}.busy_s"] = row["busy_s"]
        values[f"{layer}.self_s"] = row["self_s"]
    for name in TRACER_COUNTS:
        values[name] = tracer.counts.get(name, 0)
    calls = values["kinematics.integrate_arm.calls"]
    values["kinematics.integrate_arm.useful_ratio"] = \
        2 * new_sequences / calls if calls else 1.0
    values["cli.process_other_s"] = totals.get(PROCESS_SPAN, {}).get(
        "self_s", 0.0)
    values["bench.unattributed_s"] = totals.get(ITEM_SPAN, {}).get(
        "self_s", 0.0)
    values["bench.trace_overhead_frac"] = overhead_frac
    self_sum = sum(row["self_s"] for row in totals.values())
    accounting = {"item_time_s": item_time_s, "self_sum_s": self_sum,
                  "residual_s": item_time_s - self_sum}
    return values, accounting
