"""The four benchmark workloads.

Each workload turns the seed into rounds of items, runs one item as a call
(or a subprocess) into stalab, and checks an item's output against an
independent reference after the timed loop. A round holds a fixed mix of
item classes in seeded order with seeded parameters, and the loop only ends
on a round boundary, so throughput and latency percentiles depend on the
code and not on which classes a seed happened to draw.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import shutil
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

import stalab as st

import tracing

# reference tolerances, as in stalab.validate and the test suite
PHASE_REL = 1e-12        # catalog phase terms against closed forms
SAGNAC_REL = 1e-10       # first-order rotation phase against closed form
ACTION_REL = 1e-9        # phase decomposition against the action oracle
ACTION_ABS = 1e-9
CURVE_REL = 1e-8         # transfer curves against r_mz, r_cab, rstar
CURVE_ABS = 1e-12
QUAD_REL = 1e-8          # quadrature areas against the Simpson oracle
QUAD_FLOOR = 1e-12       # ... plus this share of xs * span
ABS_AREA_REL = 1e-12     # rectified area of single-signed separations

# Simpson points per piece for the action oracle with an oscillating g(t):
# at the default 4096, one grid refinement of a wave integral can move by
# 2e-10 of the result through rounding, above the oracle's own 1e-10.
WAVE_GRID_POINTS = 16384
WARM_SEED = 0            # seed of set-up warm-up items, whatever the run seed

_PHASE_COUNT = {"mz": 3, "cab": 3, "cab-kicktrain": 3, "butterfly": 4,
                "triangle": 3, "random": 0}


@dataclass
class Item:
    kind: str
    spec: dict
    round: int
    # sequences this item integrates for the first time in its process
    new_sequences: int = 1


def near(got: float, want: float, rel: float, abs_: float = 0.0) -> bool:
    """|got - want| within rel of the larger magnitude, or within abs_."""
    return abs(got - want) <= max(rel * max(abs(got), abs(want)), abs_)


def params(n: int):
    return st.PhysicalParams.rubidium87(n=n)


def draw_spec(rng: random.Random, kind: str, **opts) -> dict:
    """Seeded parameters of one sequence; T, g and phases differ per call,
    so every fresh sequence misses stalab's caches."""
    spec = {"kind": kind, "n": rng.choice((1, 2)),
            "T": Fraction(rng.randint(60, 150), 1000),
            "g": rng.uniform(-15.0, 15.0), **opts}
    spec["phases"] = tuple(rng.uniform(-math.pi, math.pi)
                           for _ in range(_PHASE_COUNT[kind]))
    if kind in ("cab", "cab-kicktrain"):
        spec["bloch"] = tuple(rng.uniform(-math.pi, math.pi)
                              for _ in range(4))
    if kind == "random":
        spec["rng"] = rng.getrandbits(63)
    if opts.get("rot"):
        spec["omega"] = tuple(rng.uniform(-1e-4, 1e-4) for _ in range(3))
        spec["v_i"] = tuple(rng.uniform(-0.5, 0.5) for _ in range(3))
    return spec


SIZED_DRAWS = 6   # candidates draw_sized_random always evaluates


def draw_sized_random(rng: random.Random, segments: bool) -> tuple:
    """(spec, sequence) of a random closed sequence with a fixed number of
    merged pieces (14 with acceleration windows on both arms, 10 with
    none), so that a long-lived input costs the same for every seed.

    It always builds SIZED_DRAWS candidates and keeps the first of the
    right size (drawing on only if none is), so that set-up does the same
    work for nearly every seed."""
    pieces = 14 if segments else 10
    found = None
    draws = 0
    while found is None or draws < SIZED_DRAWS:
        spec = draw_spec(rng, "random", segments=segments)
        seq = build(spec)
        draws += 1
        if found is None and len(st.path_difference(seq).pieces) == pieces:
            found = spec, seq
    return found


def build(spec: dict):
    """The sequence a spec describes (random ones carry g separately)."""
    p = params(spec["n"])
    kind, T, ph = spec["kind"], spec["T"], spec["phases"]
    if kind == "random":
        return st.random_closed_sequence(np.random.default_rng(spec["rng"]),
                                         p, T, with_segments=spec["segments"])
    common = dict(g=tuple(spec["g"] * p.k_hat),
                  omega=spec.get("omega", 0.0), v_i=spec.get("v_i", 0.0))
    if kind == "mz":
        return st.build_mach_zehnder(p, T, phases=ph, **common)
    if kind == "cab":
        return st.build_cab(p, T, spec["nb"], phases=ph,
                            bloch_phases=spec["bloch"], **common)
    if kind == "cab-kicktrain":
        return st.build_cab_kicktrain(p, T, spec["nb"], phases=ph,
                                      bloch_phases=spec["bloch"], **common)
    if kind == "butterfly":
        return st.build_butterfly(p, T, phases=ph, **common)
    if kind == "triangle":
        return st.build_recoil_triangle(p, T, phases=ph, **common)
    raise ValueError(f"unknown sequence kind {kind!r}")


def g_vector(spec: dict):
    return tuple(spec["g"] * params(spec["n"]).k_hat)


# ----------------------------------------------------------------------
# references
# ----------------------------------------------------------------------

def expected_terms(spec: dict) -> dict[str, tuple[float, float]]:
    """Closed-form phase terms of a catalog sequence: term -> (value, rel).

    Inertial, laser and rotation forms are those of stalab.validate; a
    tolerance of 0 demands the exact value (closed sequences have zero
    separation phase, mirror-symmetric ones zero kinetic phase).
    """
    kind = spec["kind"]
    p = params(spec["n"])
    n, k, T, g, ph = p.n, p.k_mag, float(spec["T"]), spec["g"], spec["phases"]
    if kind in ("mz", "cab", "cab-kicktrain"):
        nb = spec.get("nb", 0)
        laser = n * (ph[0] - 2 * ph[1] + ph[2])
        if nb:
            b = spec["bloch"]
            laser += nb * (b[0] - b[1] - b[2] + b[3])
        out = {"inertial": (2.0 * (n + nb / 2.0) * k * g * T ** 2, PHASE_REL),
               "laser": (laser, PHASE_REL), "separation": (0.0, 0.0)}
        if kind != "cab-kicktrain":
            out["kinetic"] = (0.0, 0.0)
        if "omega" in spec:
            cross = np.cross(spec["omega"], spec["v_i"])
            out["sagnac"] = (-2.0 * (2 * n + nb) * T ** 2
                             * float(np.dot(p.k, cross)), SAGNAC_REL)
        else:
            out["sagnac"] = (0.0, 0.0)
        return out
    if kind == "butterfly":
        return {"inertial": (0.0, 0.0), "kinetic": (0.0, 0.0),
                "separation": (0.0, 0.0),
                "laser": (n * (-ph[0] + 2 * ph[1] - 2 * ph[2] + ph[3]),
                          PHASE_REL)}
    if kind == "triangle":
        return {"kinetic": (8.0 * n ** 2 * p.recoil_frequency * T, PHASE_REL),
                "laser": (n * (-ph[0] + 2 * ph[1] - ph[2]), PHASE_REL)}
    return {}


def terms_ok(bd, expected: dict) -> bool:
    return all(near(getattr(bd, term), value, rel)
               for term, (value, rel) in expected.items())


def action_oracle(seq, g=None, **cfg) -> float:
    """Action-integral phase. The oracle's refinement test gets the same
    absolute slack as the comparison (ACTION_ABS rad), so that phases that
    vanish, such as a butterfly's in constant g, can converge."""
    slack = ACTION_ABS * seq.params.hbar / seq.params.m
    return st.action_phase(seq, g, st.OracleConfig(abs_tol=slack, **cfg))


def decomposition_ok(seq, bd, g=None) -> bool:
    """separation + kinetic + inertial against the action-integral oracle."""
    analytic = math.fsum((bd.separation, bd.kinetic, bd.inertial))
    return near(analytic, action_oracle(seq, g), ACTION_REL, ACTION_ABS)


def wave_action(seq, wave) -> float:
    """Action-integral oracle for a time-dependent g(t)."""
    return action_oracle(seq, wave, grid_points=WAVE_GRID_POINTS)


def quadrature_ok(seq, omega: float, ac, a_s) -> bool:
    """Quadrature areas against the refining Simpson oracle."""
    pd = st.path_difference(seq)
    xs, _ = pd.scales()
    floor = QUAD_FLOOR * xs * float(pd.end - pd.start)
    qc, qs = st.quadrature_transfer(seq, omega)
    return (float(np.max(np.abs(ac - qc))) <= QUAD_REL * float(np.max(np.abs(ac))) + floor
            and float(np.max(np.abs(a_s - qs))) <= QUAD_REL * float(np.max(np.abs(a_s))) + floor)


def golden_ok(got, gold) -> bool:
    got, gold = np.asarray(got), np.abs(np.asarray(gold))
    return bool(np.all(np.abs(got - gold) <= np.maximum(CURVE_REL * gold,
                                                        CURVE_ABS)))


def vanishing_quadrature(kind: str) -> str | None:
    """The quadrature that must vanish: sine for separation-symmetric
    sequences, cosine for antisymmetric ones."""
    if kind in ("mz", "cab", "cab-kicktrain"):
        return "sin"
    if kind == "butterfly":
        return "cos"
    return None


# Continuous-lattice cab is separation-symmetric, but the stalab code this
# benchmark was written against returns its sine quadrature at rounding
# level (up to ~2e-16 xs*span) instead of the literal 0.0 for about a third
# of frequencies. Until that is fixed, cab must stay below the quadrature
# floor and every miss of the literal zero is counted and reported; the
# other symmetric families must give the literal 0.0.
ROUNDING_ZERO_KINDS = ("cab",)


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------

class Workload:
    name = ""
    unit = ""            # what one item is
    classes: tuple = ()  # (kind, options) of one round, in a fixed mix
    trace_rounds = 1     # fixed work of the traced run
    rss_rounds = 1       # peak memory is read after this many rounds
    root_span = tracing.ITEM_SPAN

    def __init__(self, seed: int, root: str):
        self.rng = random.Random(seed)
        self.root = root
        self.rounds = 0
        self.tracer: tracing.Tracer | None = None
        self.literal_zero_misses = 0

    def vanishing_ok(self, kind: str, seq, ac, a_s) -> bool:
        """The quadrature a symmetry kills is the literal 0.0 (see
        ROUNDING_ZERO_KINDS for the one family held to the floor)."""
        zero = vanishing_quadrature(kind)
        if zero is None:
            return True
        values = np.asarray(a_s if zero == "sin" else ac)
        if not np.any(values != 0.0):
            return True
        if kind not in ROUNDING_ZERO_KINDS:
            return False
        self.literal_zero_misses += 1
        pd = st.path_difference(seq)
        xs, _ = pd.scales()
        return float(np.max(np.abs(values))) <= \
            QUAD_FLOOR * xs * float(pd.end - pd.start)

    def next_round(self) -> list[Item]:
        items = [self.make_item(kind, dict(opts)) for kind, opts in self.classes]
        self.rng.shuffle(items)
        self.rounds += 1
        return items

    def make_item(self, kind: str, opts: dict) -> Item:
        return Item(kind, draw_spec(self.rng, kind, **opts), self.rounds)

    def setup(self) -> None:
        """Warm-up after inputs exist (timed as set-up)."""

    def run(self, item: Item):
        raise NotImplementedError

    def check(self, item: Item, out) -> bool:
        raise NotImplementedError

    def peak_rss_kib(self) -> int:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def close(self) -> None:
        pass


class PhaseSweep(Workload):
    """Fresh sequence -> total_phase, space_time_area, abs_area."""

    name = "phase-sweep"
    unit = "sequences"
    trace_rounds = 4
    rss_rounds = 10
    # 19 classes; the middle three (n_b = 2 kick trains) hold the median
    # and the n_b = 64 kick train holds the tail.
    classes = (
        ("mz", {}), ("mz", {"rot": True}), ("triangle", {}),
        ("butterfly", {}), ("cab", {"nb": 1}), ("cab", {"nb": 4, "rot": True}),
        ("cab", {"nb": 16}),
        *(("cab-kicktrain", {"nb": nb}) for nb in (1, 2, 2, 2, 4, 8, 16, 32, 64)),
        ("random", {"segments": True}), ("random", {"segments": True}),
        ("random", {"segments": False}))
    # the action oracle re-checks catalog items of the first round up to
    # this many lattice cycles (random items are always oracle-checked)
    oracle_max_nb = 8

    def setup(self):
        for kind, opts in (("mz", {}), ("cab-kicktrain", {"nb": 1}),
                           ("random", {"segments": True})):
            self.run(self.make_item(kind, opts))

    def run(self, item):
        seq = build(item.spec)
        g = g_vector(item.spec) if item.kind == "random" else None
        bd = st.total_phase(seq, g=g)
        return bd, st.space_time_area(seq), st.abs_area(seq)

    def check(self, item, out):
        bd, area, astar = out
        spec = item.spec
        if not all(math.isfinite(v) for v in bd.terms().values()):
            return False
        if not near(bd.total, math.fsum(bd.terms().values()), 1e-15):
            return False
        if not terms_ok(bd, expected_terms(spec)):
            return False
        p = params(spec["n"])
        along = abs(float(np.dot(area, p.k_hat)))
        if item.kind == "butterfly":
            vr = float(np.linalg.norm(p.recoil_velocity))
            if not near(astar, vr * float(spec["T"]) ** 2 / 2, 1e-13):
                return False
        elif item.kind != "random":
            if not near(astar, along, ABS_AREA_REL):
                return False
        elif astar < along * (1 - ABS_AREA_REL):
            return False
        if item.kind == "random":
            return decomposition_ok(build(spec), bd, g_vector(spec))
        if item.round == 0 and spec.get("nb", 0) <= self.oracle_max_nb:
            return decomposition_ok(build(spec), bd)
        return True


class ResponseSweep(Workload):
    """Fresh sequence -> one response_curve on a log omega grid."""

    name = "response-sweep"
    unit = "curves"
    trace_rounds = 2
    rss_rounds = 2
    # Three cost tiers: five cheap catalog curves, a middle tier of nine
    # equal-size random curves (10 pieces x 250 points) that holds the
    # median, and a top tier of five equal-size kick-train curves (about
    # 15k omega-piece pairs each) that holds the tail. Curves of n_b = 32
    # or 64 kick trains (1-2 s each) left too few items per run for steady
    # percentiles.
    classes = (
        ("mz", {"points": 1000}),
        ("butterfly", {"points": 1000}), ("butterfly", {"points": 600}),
        ("cab", {"nb": 8, "points": 1000}), ("cab", {"nb": 64, "points": 800}),
        *(("random", {"segments": False, "points": 250}),) * 9,
        ("cab-kicktrain", {"nb": 4, "points": 830}),
        *(("cab-kicktrain", {"nb": 8, "points": 450}),
          ("cab-kicktrain", {"nb": 16, "points": 230})) * 2)

    def make_item(self, kind, opts):
        item = super().make_item(kind, opts)
        spec = item.spec
        spec["w_min"] = self.rng.uniform(0.8, 1.2)
        spec["w_max"] = self.rng.uniform(8e3, 1.2e4)
        spec["probe"] = self.rng.randrange(spec["points"])
        return item

    def setup(self):
        self.run(self.make_item("mz", {"points": 50}))

    def run(self, item):
        s = item.spec
        return st.response_curve(build(s), s["w_min"], s["w_max"],
                                 s["points"], "log")

    def check(self, item, tf):
        spec = item.spec
        n = len(tf.omega)
        if n != spec["points"] or not (np.all(np.isfinite(tf.area_cos))
                                       and np.all(np.isfinite(tf.area_sin))):
            return False
        if not self.vanishing_ok(item.kind, build(spec), tf.area_cos,
                                 tf.area_sin):
            return False
        T = float(spec["T"])
        if item.kind == "mz":
            return golden_ok(tf.r, st.r_mz(tf.omega, T))
        if item.kind == "cab":
            eps = spec["nb"] / (2.0 * spec["n"])
            return golden_ok(tf.r, st.r_cab(tf.omega, T, eps))
        if item.kind == "butterfly":
            return golden_ok(tf.r_star, st.rstar_butterfly(tf.omega, T))
        i = spec["probe"]
        return quadrature_ok(build(spec), float(tf.omega[i]),
                             tf.area_cos[i], tf.area_sin[i])


class SpotQueries(Workload):
    """One scalar query at a time on a warm pool of sequences."""

    name = "spot-queries"
    unit = "queries"
    trace_rounds = 40
    rss_rounds = 60
    pool_kinds = (("mz", {}), ("cab", {"nb": 8}), ("butterfly", {}),
                  ("cab-kicktrain", {"nb": 8}), ("random", {"segments": True}))
    classes = tuple(
        (query, {"seq": seq}) for query, seqs in (
            ("transfer", ("mz", "cab", "butterfly", "cab-kicktrain", "random")),
            ("R", ("mz", "cab", "cab-kicktrain", "random")),
            ("Rstar", ("butterfly", "mz", "random")),
            ("fourier", ("mz", "cab", "butterfly", "random")),
            ("total", ("mz", "cab", "butterfly", "cab-kicktrain", "random")),
        ) for seq in seqs)
    oracle_rounds = 2    # items of the first rounds also face the oracles

    def setup(self):
        self.pool = {}
        for kind, opts in self.pool_kinds:
            if kind == "random":
                self.pool[kind] = draw_sized_random(self.rng, **opts)
            else:
                spec = draw_spec(self.rng, kind, **opts)
                self.pool[kind] = (spec, build(spec))
        # warm-up round drawn from a fixed seed: the same work for every seed
        seeded, self.rng = self.rng, random.Random(WARM_SEED)
        for item in self.next_round():
            self.run(item)
        self.rng, self.rounds = seeded, 0

    def make_item(self, query, opts):
        rng = self.rng
        spec = {"seq": opts["seq"]}
        k_hat = params(1).k_hat
        if query in ("transfer", "R", "Rstar"):
            spec["omega"] = math.exp(rng.uniform(0.0, math.log(1e4)))
        elif query == "fourier":
            spec["coefficients"] = [
                (tuple(rng.uniform(-1, 1) / (j + 1) * k_hat),
                 tuple(rng.uniform(-1, 1) / (j + 1) * k_hat) if j else None)
                for j in range(rng.randint(10, 40))]
        else:
            spec["wave"] = dict(
                constant=tuple(rng.uniform(-15, 15) * k_hat),
                cosines=((tuple(rng.uniform(-1, 1) * k_hat),
                          rng.uniform(1.0, 1e3)),),
                sines=((tuple(rng.uniform(-1, 1) * k_hat),
                        rng.uniform(1.0, 1e3)),),
                polys=((tuple(rng.uniform(-10, 10) * k_hat), 1),))
        return Item(query, spec, self.rounds, new_sequences=0)

    def run(self, item):
        seq = self.pool[item.spec["seq"]][1]
        s = item.spec
        if item.kind == "transfer":
            return st.transfer(seq, s["omega"])
        if item.kind == "R":
            return st.sensitivity_R(seq, s["omega"])
        if item.kind == "Rstar":
            return st.sensitivity_Rstar(seq, s["omega"])
        if item.kind == "fourier":
            return st.fourier_phase(seq, s["coefficients"])
        return st.total_phase(seq, g_wave=st.Waveform(**s["wave"]))

    def check(self, item, out):
        spec, seq = self.pool[item.spec["seq"]]
        kind, s = spec["kind"], item.spec
        T = float(spec["T"])
        oracle = item.round < self.oracle_rounds
        if item.kind == "transfer":
            ac, a_s = out
            if not self.vanishing_ok(kind, seq, ac, a_s):
                return False
            return not oracle or quadrature_ok(seq, s["omega"], ac, a_s)
        if item.kind in ("R", "Rstar"):
            if not math.isfinite(out):
                return False
            if item.kind == "R" and kind == "mz":
                return golden_ok(out, st.r_mz(s["omega"], T))
            if item.kind == "R" and kind == "cab":
                eps = spec["nb"] / (2.0 * spec["n"])
                return golden_ok(out, st.r_cab(s["omega"], T, eps))
            if item.kind == "Rstar" and kind == "butterfly":
                return golden_ok(out, st.rstar_butterfly(s["omega"], T))
            if item.kind == "Rstar" and kind == "mz":
                return out == 0.0
            if not oracle:
                return True
            k_hat = params(spec["n"]).k_hat
            qc, qs = st.quadrature_transfer(seq, s["omega"])
            pd = st.path_difference(seq)
            xs, _ = pd.scales()
            floor = QUAD_FLOOR * xs * float(pd.end - pd.start)
            if item.kind == "R":
                scale = abs(float(np.dot(st.quadrature_transfer(seq, 0.0)[0],
                                         k_hat)))
                want = abs(float(np.dot(qc, k_hat)))
            else:
                scale = st.abs_area(seq)
                want = abs(float(np.dot(qs, k_hat)))
            return abs(out * scale - want) <= QUAD_REL * want + floor
        if item.kind == "fourier":
            if not oracle:
                return math.isfinite(out)
            w = [(j * math.pi / T, ac, a_s) for j, (ac, a_s)
                 in enumerate(s["coefficients"])]
            wave = st.Waveform(cosines=tuple((ac, om) for om, ac, _ in w),
                               sines=tuple((a_s, om) for om, _, a_s in w
                                           if a_s is not None))
            analytic = math.fsum((out, st.separation_phase(seq),
                                  st.kinetic_phase(seq)))
            return near(analytic, wave_action(seq, wave),
                         ACTION_REL, ACTION_ABS)
        bd = out
        expected = {term: ref for term, ref in expected_terms(spec).items()
                    if term in ("laser", "separation", "kinetic")}
        if not terms_ok(bd, expected):
            return False
        return not oracle or near(
            math.fsum((bd.separation, bd.kinetic, bd.inertial)),
            wave_action(seq, st.Waveform(**s["wave"])),
            ACTION_REL, ACTION_ABS)


class CliOneShot(Workload):
    """One `python -m stalab.cli` subprocess per item."""

    name = "cli-oneshot"
    unit = "commands"
    trace_rounds = 2
    rss_rounds = 3
    root_span = tracing.PROCESS_SPAN
    classes = tuple((c, {}) for c in (
        "phase-preset", "phase-preset-csv", "phase-input", "phase-input-csv",
        "area-preset", "area-input", "trajectory", "catalog-save",
        "response"))
    file_kinds = (("random", {"segments": True}), ("cab-kicktrain", {"nb": 8}),
                  ("butterfly", {}), ("mz", {"rot": True}))

    def setup(self):
        self.dir = os.path.join(self.root, "bench", "out", f"cli-{os.getpid()}")
        os.makedirs(self.dir, exist_ok=True)
        self.files = []
        for i, (kind, opts) in enumerate(self.file_kinds):
            if kind == "random":
                spec, seq = draw_sized_random(self.rng, **opts)
            else:
                spec = draw_spec(self.rng, kind, **opts)
                seq = build(spec)
            if kind == "random":  # carry g inside the file
                seq = st.InterferometerSequence(
                    seq.params, seq.T, seq.arm_a, seq.arm_b, g=g_vector(spec),
                    name=seq.name)
            path = os.path.join(self.dir, f"input-{i}.json")
            st.save_sequence(seq, path)
            self.files.append(os.path.relpath(path, self.root))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.child_peak_kib = 0
        self.spawn(["phase", "--preset", "mz"])
        self.child_peak_kib = 0

    def make_item(self, command, opts):
        rng = self.rng
        T = f"{rng.randint(60, 150) / 1000:.3f}"
        g = f"--g={rng.uniform(-15, 15):.6f}"  # '=' keeps '-1.2' a value
        n = str(rng.choice((1, 2)))
        if command.startswith("phase-preset"):
            preset = "mz" if command == "phase-preset" else "cab"
            phases = ",".join(f"{rng.uniform(-3, 3):.6f}" for _ in range(3))
            argv = ["phase", "--preset", preset, "--T", T, "--n", n, g,
                    "--nb", str(rng.randint(1, 16)), f"--phases={phases}"]
            if command.endswith("csv"):
                argv += ["--format", "csv"]
        elif command.startswith("phase-input"):
            argv = ["phase", "--input", rng.choice(self.files)]
            if command.endswith("csv"):
                argv += ["--format", "csv"]
        elif command == "area-preset":
            argv = ["area", "--preset", rng.choice(("mz", "butterfly", "cab")),
                    "--T", T, "--n", n, g]
        elif command == "area-input":
            argv = ["area", "--input", rng.choice(self.files)]
        elif command == "trajectory":
            argv = ["trajectory", "--preset", rng.choice(("mz", "cab")),
                    "--T", T, "--samples", str(rng.randint(101, 401))]
        elif command == "catalog-save":
            path = os.path.join(self.dir, f"save-{self.rounds}.json")
            argv = ["catalog", "--preset", "cab-kicktrain", "--T", T,
                    "--nb", str(rng.randint(1, 16)), g,
                    "--save", os.path.relpath(path, self.root)]
        else:
            argv = ["response", "--preset",
                    rng.choice(("mz", "cab", "butterfly")), "--T", T,
                    "--omega-min", f"{rng.uniform(0.5, 2):.4f}",
                    "--omega-max", f"{rng.uniform(5e3, 1e4):.1f}",
                    "--points", str(rng.randint(20, 100)), "--scale", "log"]
        new = 0 if command == "catalog-save" else 1
        return Item(command, {"argv": argv}, self.rounds, new_sequences=new)

    def spawn(self, argv):
        """Run one CLI process; returns (exit code, stdout text, stderr)."""
        if self.tracer is None:
            cmd = [sys.executable, "-m", "stalab.cli", *argv]
        else:
            cmd = [sys.executable,
                   os.path.join(self.root, "bench", "cli_child.py"), *argv]
        err_path = os.path.join(self.dir, "stderr.txt")
        with open(err_path, "w+b") as err:
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env,
                                    stdout=subprocess.PIPE, stderr=err)
            with proc.stdout:
                out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            err_text = err.read().decode("utf-8", "replace")
        self.child_peak_kib = max(self.child_peak_kib, usage.ru_maxrss)
        return proc.returncode, out.decode("utf-8"), err_text

    def run(self, item):
        code, out, err = self.spawn(item.spec["argv"])
        if self.tracer is not None:
            lines = err.rstrip("\n").rsplit("\n", 1)
            marker = tracing.CHILD_MARKER
            if not lines[-1].startswith(marker):
                raise RuntimeError("traced CLI child reported no spans")
            self.tracer.adopt(json.loads(lines[-1][len(marker):]))
        saved = None
        if "--save" in item.spec["argv"] and code == 0:
            path = item.spec["argv"][item.spec["argv"].index("--save") + 1]
            with open(os.path.join(self.root, path), "rb") as fh:
                saved = fh.read()
        return code, out, saved

    def check(self, item, out):
        code, text, saved = out
        if code != 0:
            return False
        from stalab import cli
        buf = io.StringIO()
        cwd = os.getcwd()
        os.chdir(self.root)
        try:
            with contextlib.redirect_stdout(buf):
                ref_code = cli.main(list(item.spec["argv"]))
        finally:
            os.chdir(cwd)
        if ref_code != 0 or buf.getvalue() != text:
            return False
        if saved is not None:
            argv = item.spec["argv"]
            with open(os.path.join(self.root, argv[argv.index("--save") + 1]),
                      "rb") as fh:
                return fh.read() == saved
        return True

    def peak_rss_kib(self):
        return self.child_peak_kib

    def close(self):
        shutil.rmtree(self.dir, ignore_errors=True)


WORKLOADS = {w.name: w for w in (PhaseSweep, ResponseSweep, SpotQueries,
                                 CliOneShot)}
