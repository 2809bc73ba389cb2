"""Brute-force numerical validators for the closed-form machinery.

Everything here checks results by dense numerical integration over the
shared trajectory types and deliberately avoids the closed-form segment
calculus: composite Simpson rules with grid-refinement checks stand in
for the exact piecewise integrals.

The action integrator works on the difference Lagrangian in the freely
falling frame, m [d(v^2)/2 + d(a_extra . x) + g . dx], which equals the
lab-frame action difference for closed sequences but stays numerically
well conditioned (the lab-frame form cancels ~1e8 of magnitude between
the arms, which doubles cannot survive at 1e-9 accuracy).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import kinematics
from .errors import SequenceError, ToleranceNotMet
from .phase import Waveform, total_phase
from .sequence import (ArmTimeline, ImpulseKick, AccelSegment,
                       InterferometerSequence, PhysicalParams, as_vec)


@dataclass(frozen=True)
class OracleConfig:
    """Grid sizes, tolerances and the seed for randomized property runs."""

    grid_points: int = 4096        # Simpson subintervals per trajectory piece
    refine_factor: int = 2
    rel_tol: float = 1e-10
    abs_tol: float = 0.0           # extra absolute slack, integral units
    floor_rel: float = 1e-14       # quadrature floor vs the separation scale
    nodes_per_period: int = 32     # oscillatory integrals: >= per trig period
    max_nodes: int = 1 << 22
    seed: int = 0

    def __post_init__(self):
        if self.grid_points < 2 or self.rel_tol <= 0 or self.abs_tol < 0 \
                or self.floor_rel <= 0:
            raise SequenceError("oracle config needs positive tolerances "
                                "and at least 2 grid points")


def _simpson(values: np.ndarray, dx: float) -> float:
    v = values.astype(np.longdouble)  # keep the big cancelling sums honest
    acc = v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-1:2].sum()
    return float(acc * dx / 3.0)


def _g_of_t(g, seq: InterferometerSequence):
    if g is None:
        g = seq.g
    if isinstance(g, Waveform):
        return g, None
    vec = np.asarray(as_vec(g))
    return None, vec


def action_phase(seq: InterferometerSequence, g=None,
                 cfg: OracleConfig | None = None) -> float:
    """Phase from dense integration of the difference Lagrangian.

    Kicks enter through their impulsive potential term dv . x(t_kick),
    which the delta model fixes in closed form (a delta cannot be put on a
    grid). Each Simpson pass is repeated on a refined grid; disagreement
    beyond tolerance raises ToleranceNotMet. Assumes a closed sequence.
    """
    cfg = cfg or OracleConfig()
    wave, gvec = _g_of_t(g, seq)
    ta, tb = kinematics.arm_trajectories(seq)
    pd = kinematics.path_difference(seq)

    if wave is None:
        base = cfg.grid_points
    else:
        # oscillation floor applies to the base grid so that each
        # refinement pass really doubles every piece
        w_max = max([w for _, w in wave.cosines + wave.sines], default=0.0)
        span = max(float(p.t1 - p.t0) for p in pd.pieces)
        periods = w_max * span / (2.0 * math.pi)
        base = max(cfg.grid_points, int(cfg.nodes_per_period * periods) + 2)

    def integral(points_per_piece: int) -> float:
        parts = []
        for piece in pd.pieces:
            t0, t1 = float(piece.t0), float(piece.t1)
            n = points_per_piece + points_per_piece % 2
            t = np.linspace(t0, t1, n + 1)
            # step from the exact width: adjacent-sample differences lose
            # ~eps*|t|/h of relative accuracy on narrow pieces
            h = float(piece.t1 - piece.t0) / n
            mid = (piece.t0 + piece.t1) / 2
            ia, ib = ta.piece_index(mid), tb.piece_index(mid)
            xa, va = ta.sample_piece(ia, t)
            xb, vb = tb.sample_piece(ib, t)
            aa = ta.acceleration(ia)
            ab = tb.acceleration(ib)
            f = 0.5 * ((va * va).sum(axis=1) - (vb * vb).sum(axis=1))
            f += xa @ aa - xb @ ab
            gt = wave(t) if wave is not None else gvec[None, :]
            f += ((xa - xb) * gt).sum(axis=1)
            parts.append(_simpson(f, h))
        for sign, traj, arm in ((+1, ta, seq.arm_a), (-1, tb, seq.arm_b)):
            for kick in arm.kicks:
                x = traj.position(kick.t)
                parts.append(sign * float(np.dot(kick.dv, x)))
        return math.fsum(parts)

    coarse = integral(base)
    fine = integral(base * cfg.refine_factor)
    scale = max(abs(coarse), abs(fine))
    if abs(fine - coarse) > max(cfg.abs_tol, cfg.rel_tol * scale):
        raise ToleranceNotMet(
            f"action integral moved {fine - coarse:g} under grid refinement")
    return seq.params.m / seq.params.hbar * fine


def quadrature_transfer(seq: InterferometerSequence, omega: float,
                        cfg: OracleConfig | None = None):
    """(Ac, As) by refining composite Simpson per trajectory piece.

    Subdivision tracks the oscillation: at least ``nodes_per_period`` nodes
    per trig period before refinement begins.
    """
    cfg = cfg or OracleConfig()
    if omega < 0:
        raise SequenceError("omega must be non-negative")
    pd = kinematics.path_difference(seq)
    xs, _ = pd.scales()
    span = float(pd.end - pd.start)
    eps = float(np.finfo(float).eps)
    floor = max(cfg.abs_tol, (cfg.floor_rel + 64.0 * eps) * xs * span, 1e-300)

    def one_pass(n_base: int):
        ac = np.zeros(3)
        a_s = np.zeros(3)
        for piece in pd.pieces:
            t0, t1 = float(piece.t0), float(piece.t1)
            n = n_base + n_base % 2
            t = np.linspace(t0, t1, n + 1)
            dx = pd.sample(t)
            cw = np.cos(omega * t)[:, None] * dx
            sw = np.sin(omega * t)[:, None] * dx
            h = float(piece.t1 - piece.t0) / n
            ac += [_simpson(cw[:, i], h) for i in range(3)]
            a_s += [_simpson(sw[:, i], h) for i in range(3)]
        return ac, a_s

    # oscillation-aware floor: every piece starts with enough nodes per
    # trig period, and each refinement pass doubles every piece's grid
    span_max = max(float(p.t1 - p.t0) for p in pd.pieces)
    periods = omega * span_max / (2.0 * math.pi)
    n = max(64, int(cfg.nodes_per_period * periods) + 2)
    prev = one_pass(n)
    while True:
        n *= 2
        if n > cfg.max_nodes:
            raise ToleranceNotMet("oscillatory quadrature failed to settle")
        cur = one_pass(n)
        err = max(float(np.max(np.abs(cur[0] - prev[0]))),
                  float(np.max(np.abs(cur[1] - prev[1]))))
        scale = max(float(np.max(np.abs(cur[0]))),
                    float(np.max(np.abs(cur[1]))))
        if err <= max(floor, cfg.rel_tol * scale):
            return cur
        prev = cur


def reference_trig_moments(seq: InterferometerSequence, omega: float):
    """(Ac, As) from the exact antiderivatives of t^j cos/sin(omega t),
    evaluated in mpmath at 80 significant digits from the exact rational
    piece coefficients, then rounded to doubles.

    A high-precision reference for the float trig-moment kernel: no series
    branch, no float coefficients and no parity shortcut. Needs mpmath.
    """
    import mpmath

    if not math.isfinite(omega) or omega < 0:
        raise SequenceError(f"omega must be finite and non-negative, "
                            f"got {omega}")
    pd = kinematics.path_difference(seq)
    with mpmath.workdps(80):
        def mp(x: Fraction):
            return mpmath.mpf(x.numerator) / x.denominator

        w = mpmath.mpf(omega)

        def antiderivatives(t):
            """(int t^j cos, int t^j sin) for j = 0, 1, 2 at t."""
            if omega == 0:
                return [t ** (j + 1) / (j + 1) for j in range(3)], [0, 0, 0]
            s, c = mpmath.sin(w * t), mpmath.cos(w * t)
            k = t * t / w - 2 / w ** 3
            return ([s / w, c / w ** 2 + t * s / w,
                     2 * t * c / w ** 2 + k * s],
                    [-c / w, s / w ** 2 - t * c / w,
                     2 * t * s / w ** 2 - k * c])

        ac = [mpmath.mpf(0)] * 3
        a_s = [mpmath.mpf(0)] * 3
        for piece in pd.pieces:
            lo_c, lo_s = antiderivatives(mp(piece.t0))
            hi_c, hi_s = antiderivatives(mp(piece.t1))
            for j, coeff in enumerate(piece.pos):
                for ax in range(3):
                    c = mp(coeff[ax])
                    ac[ax] += c * (hi_c[j] - lo_c[j])
                    a_s[ax] += c * (hi_s[j] - lo_s[j])
        return (np.array([float(v) for v in ac]),
                np.array([float(v) for v in a_s]))


def sagnac_oracle(seq: InterferometerSequence, omega_rot=None,
                  cfg: OracleConfig | None = None) -> float:
    """Rotation phase from the perturbative Lagrangian m Omega . (r x v)
    integrated along the unperturbed lab-frame paths."""
    cfg = cfg or OracleConfig()
    rot = np.asarray(as_vec(seq.omega if omega_rot is None else omega_rot))
    if not rot.any():
        return 0.0
    g = np.asarray(seq.g)
    v_i = np.asarray(seq.v_i)
    Tf = float(seq.T)
    ta, tb = kinematics.arm_trajectories(seq)
    pd = kinematics.path_difference(seq)

    def integral(points: int) -> float:
        parts = []
        for piece in pd.pieces:
            t0, t1 = float(piece.t0), float(piece.t1)
            n = points + points % 2
            t = np.linspace(t0, t1, n + 1)
            mid = (piece.t0 + piece.t1) / 2
            xa, va = ta.sample_piece(ta.piece_index(mid), t)
            xb, vb = tb.sample_piece(tb.piece_index(mid), t)
            tt = (t + Tf)[:, None]
            vg = v_i[None, :] + g[None, :] * tt
            xg = v_i[None, :] * tt + 0.5 * g[None, :] * tt * tt
            cr = (np.cross(xa, va) - np.cross(xb, vb)
                  + np.cross(xa - xb, vg) + np.cross(xg, va - vb))
            parts.append(_simpson(cr @ rot, float(piece.t1 - piece.t0) / n))
        return math.fsum(parts)

    coarse = integral(max(64, cfg.grid_points // 16))
    fine = integral(max(128, cfg.grid_points // 8))
    scale = max(abs(coarse), abs(fine))
    if abs(fine - coarse) > max(cfg.abs_tol, cfg.rel_tol * scale):
        raise ToleranceNotMet("rotation integral moved under refinement")
    return seq.params.m / seq.params.hbar * fine


@dataclass(frozen=True)
class EquivalenceReport:
    """Continuous-lattice versus kick-train comparison (deltas, no verdict)."""

    area_continuous: tuple[float, float, float]
    area_kicktrain: tuple[float, float, float]
    area_rel_err: float
    phase_continuous: float
    phase_kicktrain: float
    phase_abs_diff: float

    def as_text(self) -> str:
        return ("area_continuous=({},{},{})\n".format(
                    *(f"{v:.17g}" for v in self.area_continuous))
                + "area_kicktrain=({},{},{})\n".format(
                    *(f"{v:.17g}" for v in self.area_kicktrain))
                + f"area_rel_err={self.area_rel_err:.3e}\n"
                + f"phase_continuous={self.phase_continuous:.17g}\n"
                + f"phase_kicktrain={self.phase_kicktrain:.17g}\n"
                + f"phase_abs_diff={self.phase_abs_diff:.3e}\n")


def kicktrain_equivalence(seq_continuous: InterferometerSequence,
                          seq_kicktrain: InterferometerSequence) -> EquivalenceReport:
    """Compare space-time areas (exact) and total phases of the two
    lattice representations; whole cycle counts give matching areas."""
    a_c = kinematics.space_time_area(seq_continuous)
    a_k = kinematics.space_time_area(seq_kicktrain)
    scale = max(float(np.linalg.norm(a_c)), float(np.linalg.norm(a_k)), 1e-300)
    rel = float(np.linalg.norm(a_c - a_k)) / scale
    p_c = total_phase(seq_continuous).total
    p_k = total_phase(seq_kicktrain).total
    return EquivalenceReport(tuple(a_c), tuple(a_k), rel, p_c, p_k,
                             abs(p_c - p_k))


# ----------------------------------------------------------------------
# randomized sequences for property suites
# ----------------------------------------------------------------------

_TIME_DENOM = 840          # event times land on T * i / 840
_V_QUANTUM = 2.0 ** -27    # m/s; integer multiples add without rounding


def _random_times(rng: np.random.Generator, count: int,
                  lo: int = -_TIME_DENOM + 40,
                  hi: int = _TIME_DENOM - 40) -> list[int]:
    ticks = rng.choice(np.arange(lo, hi), size=count, replace=False)
    return sorted(int(t) for t in ticks)


def _quantized_kick(rng: np.random.Generator, direction: np.ndarray,
                    scale_ticks: int = 1 << 21):
    mag = int(rng.integers(scale_ticks // 4, scale_ticks)) * (
        1 if rng.random() < 0.5 else -1)
    return tuple(mag * _V_QUANTUM * direction)


def random_closed_sequence(rng: np.random.Generator, params: PhysicalParams,
                           T, *, n_kicks: int = 4, with_segments: bool = True,
                           collinear: bool = True) -> InterferometerSequence:
    """Random kick/segment timelines closed by a correction kick pair.

    The correction kick at 3T/4 cancels the position defect and a final
    kick at T matches the velocities, so the sequence closes to rounding
    accuracy (exactly, for the velocity part).
    """
    T = Fraction(T)
    denom = _TIME_DENOM

    def direction():
        if collinear:
            return params.k_hat
        d = rng.normal(size=3)
        return d / np.linalg.norm(d)

    arms = []
    for label in ("a", "b"):
        kicks = []
        ticks = _random_times(rng, n_kicks, lo=-denom + 40, hi=denom // 2)
        for tk in ticks:
            kicks.append(ImpulseKick(T * Fraction(tk, denom),
                                     _quantized_kick(rng, direction())))
        segments = []
        if with_segments and rng.random() < 0.7:
            s0, s1 = sorted(int(v) for v in rng.choice(
                np.arange(denom // 2 + 4, denom - 8), size=2, replace=False))
            if s1 - s0 >= 8:
                amag = float(rng.uniform(0.2, 2.0)) * params.single_photon_speed \
                    / float(T)
                segments.append(AccelSegment(
                    T * Fraction(s0, denom), T * Fraction(s1, denom),
                    tuple(amag * direction())))
        arms.append(ArmTimeline(label, kicks=tuple(kicks),
                                segments=tuple(segments)))

    # every event lies in [-T, T], so each draft's window is [-T, T]; the
    # drafts are integrated uncached so they never enter the trajectory cache
    ta = kinematics.integrate_arm(arms[0], params, T)

    def end_difference(arm_b: ArmTimeline):
        return kinematics.end_difference(
            ta, kinematics.integrate_arm(arm_b, params, T))

    dx, _ = end_difference(arms[1])
    t_c = T * Fraction(denom - 4, denom)
    dv_c = tuple(np.array([float(c) for c in dx]) / float(T - t_c))
    kicks_b = arms[1].kicks + (ImpulseKick(t_c, dv_c),)
    arm_b = ArmTimeline("b", kicks=kicks_b, segments=arms[1].segments)

    _, dv_end = end_difference(arm_b)
    patch = ImpulseKick(T, tuple(float(c) for c in dv_end))
    arm_b = ArmTimeline("b", kicks=kicks_b + (patch,),
                        segments=arms[1].segments)
    return InterferometerSequence(params, T, arms[0], arm_b, name="random")


def random_mirrored_sequence(rng: np.random.Generator,
                             params: PhysicalParams, T, kind: str = "i", *,
                             n_kicks: int = 3,
                             with_segments: bool = True) -> InterferometerSequence:
    """Random arm a with arm b its exact time mirror.

    kind "i" builds v_b(t) = v_a(-t) (closed exactly); kind "ii" builds
    v_b(t) = -v_a(-t) with a final velocity patch (closure then holds to
    rounding only, but the velocity symmetry itself is exact).
    """
    if kind not in ("i", "ii"):
        raise SequenceError("kind must be 'i' or 'ii'")
    T = Fraction(T)
    denom = _TIME_DENOM
    khat = params.k_hat

    kicks = [ImpulseKick(T * Fraction(tk, denom), _quantized_kick(rng, khat))
             for tk in _random_times(rng, n_kicks)]
    segments = []
    if with_segments and rng.random() < 0.7:
        picks = sorted(int(v) for v in rng.choice(
            np.arange(-denom + 30, denom - 30), size=4, replace=False))
        d = min(picks[1] - picks[0], picks[3] - picks[2], denom // 10)
        if d >= 4:
            amag = float(rng.uniform(0.2, 2.0)) * params.single_photon_speed \
                / float(T)
            a_vec = tuple(amag * khat)
            neg = tuple(-amag * khat)
            # equal-duration opposed lobes: net velocity gain cancels exactly
            segments = [
                AccelSegment(T * Fraction(picks[0], denom),
                             T * Fraction(picks[0] + d, denom), a_vec),
                AccelSegment(T * Fraction(picks[2], denom),
                             T * Fraction(picks[2] + d, denom), neg),
            ]

    def arm_a_trajectory():
        arm = ArmTimeline("a", kicks=tuple(kicks), segments=tuple(segments))
        probe = InterferometerSequence(params, T, arm, ArmTimeline("b"),
                                       name="probe")
        return arm, kinematics.arm_trajectories(probe)[0]

    if kind == "ii":
        # closure needs arm a's own displacement to vanish
        _, ta = arm_a_trajectory()
        disp = ta.position(T)
        t_p = T * Fraction(denom - 20, denom)
        kicks = kicks + [ImpulseKick(t_p, tuple(-disp / float(T - t_p)))]

    # velocity patch at T: both symmetries need v_a(T+) back at v0_a = 0
    _, ta = arm_a_trajectory()
    patch = tuple(-float(c) for c in ta.end_velocity)
    if any(patch):
        kicks = kicks + [ImpulseKick(T, patch)]
    arm_a, ta = arm_a_trajectory()
    v_end = ta.end_velocity

    sign = 1 if kind == "i" else -1
    mirror_kicks = tuple(
        ImpulseKick(-k.t, tuple(-sign * c for c in k.dv)) for k in kicks)
    mirror_segments = tuple(
        AccelSegment(-s.t_end, -s.t_start,
                     tuple(-sign * c for c in s.a)) for s in segments)
    v0_b = tuple(sign * float(c) for c in v_end)
    arm_b = ArmTimeline("b", kicks=mirror_kicks, segments=mirror_segments,
                        v0=v0_b)
    return InterferometerSequence(params, T, arm_a, arm_b,
                                  name=f"mirror-{kind}")
