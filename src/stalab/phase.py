"""Interferometric phase terms and their assembly into a total.

The total fringe phase separates into a boundary (separation) term, a
kinetic-energy term, the inertial term coupling the background acceleration
to the space-time area, the imprinted laser phase, and optional magnetic,
potential-offset and rotation contributions. Each operation here evaluates
one term from the exact piecewise trajectories; `total_phase` sums them.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Sequence

import numpy as np

from . import kinematics
from .errors import (NonPerturbativeRotationWarning, NotInterfering,
                     SequenceError, UnsupportedWaveform, ZeroAreaKickWarning)
from .sequence import HBAR, InterferometerSequence, Vec3, as_time, as_vec

__all__ = [
    "PhaseBreakdown", "MagneticSchedule", "OffsetSchedule", "Waveform",
    "separation_phase", "open_separation_phase", "kinetic_phase",
    "inertial_phase", "inertial_phase_timevarying", "fourier_phase",
    "fourier_coefficients", "laser_phase", "magnetic_phase", "offset_phase",
    "sagnac_phase", "total_phase",
]

TERM_NAMES = ("separation", "kinetic", "inertial", "laser", "magnetic",
              "offset", "sagnac")


@dataclass(frozen=True)
class PhaseBreakdown:
    """All phase terms of one sequence evaluation, in radians."""

    separation: float = 0.0
    kinetic: float = 0.0
    inertial: float = 0.0
    laser: float = 0.0
    magnetic: float = 0.0
    offset: float = 0.0
    sagnac: float = 0.0
    total: float = 0.0
    flags: tuple[str, ...] = ()

    @classmethod
    def build(cls, flags: Iterable[str] = (), **terms: float) -> "PhaseBreakdown":
        total = math.fsum(terms.get(name, 0.0) for name in TERM_NAMES)
        return cls(total=total, flags=tuple(sorted(flags)), **terms)

    def terms(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in TERM_NAMES}

    def to_kv_text(self) -> str:
        lines = [f"{name}={getattr(self, name):.17g}" for name in TERM_NAMES]
        lines.append(f"total={self.total:.17g}")
        lines.append("flags=" + ",".join(self.flags))
        return "\n".join(lines) + "\n"

    def to_csv(self) -> str:
        lines = ["term,radians"]
        for name in TERM_NAMES:
            lines.append(f"{name},{getattr(self, name):.17g}")
        lines.append(f"total,{self.total:.17g}")
        return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# schedules for magnetic and constant-offset potentials
# ----------------------------------------------------------------------

PiecewiseVec = tuple[tuple[Fraction, Fraction, Vec3], ...]
PiecewiseScalar = tuple[tuple[Fraction, Fraction, float], ...]


def _norm_pieces(pieces, vector: bool):
    out = []
    for t0, t1, value in pieces:
        t0, t1 = as_time(t0), as_time(t1)
        if not t0 < t1:
            raise SequenceError("schedule piece needs t0 < t1")
        out.append((t0, t1, as_vec(value) if vector else float(value)))
    out.sort(key=lambda p: p[0])
    for p0, p1 in zip(out, out[1:]):
        if p1[0] < p0[1]:
            raise SequenceError("schedule pieces overlap")
    return tuple(out)


@dataclass(frozen=True)
class MagneticSchedule:
    """Piecewise-constant field B(t) and per-arm dipole moments (J/T)."""

    b_field: PiecewiseVec
    mu_a: PiecewiseVec = ()
    mu_b: PiecewiseVec = ()

    def __post_init__(self):
        object.__setattr__(self, "b_field", _norm_pieces(self.b_field, True))
        object.__setattr__(self, "mu_a", _norm_pieces(self.mu_a, True))
        object.__setattr__(self, "mu_b", _norm_pieces(self.mu_b, True))


@dataclass(frozen=True)
class OffsetSchedule:
    """Piecewise-constant spatially uniform potential V0(t) per arm (J)."""

    v0_a: PiecewiseScalar = ()
    v0_b: PiecewiseScalar = ()

    def __post_init__(self):
        object.__setattr__(self, "v0_a", _norm_pieces(self.v0_a, False))
        object.__setattr__(self, "v0_b", _norm_pieces(self.v0_b, False))


def _pw_lookup(pieces, t: Fraction, zero):
    for t0, t1, value in pieces:
        if t0 <= t < t1:
            return value
    return zero


def _merged_grid(*piece_lists) -> list[Fraction]:
    times = set()
    for pieces in piece_lists:
        for t0, t1, _ in pieces:
            times.add(t0)
            times.add(t1)
    return sorted(times)


def magnetic_phase(schedule: MagneticSchedule, *, hbar: float = HBAR) -> float:
    """Phase from the magnetic-dipole energy: (1/hbar) int B . (mu_a - mu_b) dt."""
    grid = _merged_grid(schedule.b_field, schedule.mu_a, schedule.mu_b)
    zero = (0.0, 0.0, 0.0)
    parts = []
    for t0, t1 in zip(grid, grid[1:]):
        mid = (t0 + t1) / 2
        b = _pw_lookup(schedule.b_field, mid, zero)
        mua = _pw_lookup(schedule.mu_a, mid, zero)
        mub = _pw_lookup(schedule.mu_b, mid, zero)
        dmu = tuple(a - c for a, c in zip(mua, mub))
        parts.append(float(np.dot(b, dmu)) * float(t1 - t0))
    return math.fsum(parts) / hbar


def offset_phase(schedule: OffsetSchedule, *, hbar: float = HBAR) -> float:
    """Phase from uniform potential offsets: (1/hbar) int (V0_b - V0_a) dt.

    The sign matches the action convention used throughout: a potential on
    arm b raises the a-minus-b phase.
    """
    grid = _merged_grid(schedule.v0_a, schedule.v0_b)
    parts = []
    for t0, t1 in zip(grid, grid[1:]):
        mid = (t0 + t1) / 2
        va = _pw_lookup(schedule.v0_a, mid, 0.0)
        vb = _pw_lookup(schedule.v0_b, mid, 0.0)
        parts.append((vb - va) * float(t1 - t0))
    return math.fsum(parts) / hbar


# ----------------------------------------------------------------------
# time-dependent accelerations
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Waveform:
    """Acceleration g(t) as constant + polynomial + trigonometric terms.

    cosines/sines are tuples of (amplitude vector, omega); polys are
    (amplitude vector, integer power of t).
    """

    constant: Vec3 = (0.0, 0.0, 0.0)
    cosines: tuple[tuple[Vec3, float], ...] = ()
    sines: tuple[tuple[Vec3, float], ...] = ()
    polys: tuple[tuple[Vec3, int], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "constant", as_vec(self.constant))
        for name in ("cosines", "sines"):
            terms = tuple((as_vec(a), float(w)) for a, w in getattr(self, name))
            object.__setattr__(self, name, terms)
        object.__setattr__(self, "polys", tuple(
            (as_vec(a), int(p)) for a, p in self.polys))

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        out = np.tile(np.asarray(self.constant), (t.size, 1))
        for amp, w in self.cosines:
            out += np.cos(w * t)[:, None] * np.asarray(amp)
        for amp, w in self.sines:
            out += np.sin(w * t)[:, None] * np.asarray(amp)
        for amp, p in self.polys:
            out += (t ** p)[:, None] * np.asarray(amp)
        return out


# ----------------------------------------------------------------------
# individual phase terms
# ----------------------------------------------------------------------

def separation_phase(seq: InterferometerSequence, *,
                     rel_tol: float = 1e-9) -> float:
    """Boundary phase from how the arms begin and end.

    Closed sequences launched from a common state give exactly zero. Arms
    that start apart with a common velocity contribute -(m/hbar) v0 . dx0.
    Arms that end apart with matched velocities (an open interferometer,
    e.g. a mistimed final pulse) contribute k_e . dx_i, with k_e the
    momentum separation just after the first event and dx_i the traced-back
    launch-point separation. Raises NotInterfering when the final
    velocities differ, since no far-field fringe forms.
    """
    pd = kinematics.path_difference(seq)
    m_over_h = seq.params.m / seq.params.hbar

    _, vscale = pd.scales()
    vscale = max(vscale, float(np.linalg.norm(seq.params.recoil_velocity)))
    if any(pd.end_velocity) and float(np.linalg.norm(pd.velocity(pd.end))) \
            > rel_tol * vscale:
        raise NotInterfering(
            "final arm velocities differ; no stationary far-field fringe")

    terms = []
    start = (kinematics.dot_exact(seq.arm_b.v0, seq.arm_b.x0)
             - kinematics.dot_exact(seq.arm_a.v0, seq.arm_a.x0))
    if start:
        terms.append(m_over_h * float(start))

    events = [t for arm in seq.arms() for t in arm.event_times()]
    if any(pd.end_position) and events:
        dv_first = pd.velocity_exact(min(events))
        # k_e . dx_i with dx_i the initial separation of the points that
        # finally overlap: dx_i = -(final separation) for a common launch.
        terms.append(-m_over_h * float(kinematics.dot_exact(
            dv_first, pd.end_position)))
    return math.fsum(terms) if terms else 0.0


def open_separation_phase(x_i, delta_k) -> float:
    """Momentum-separation fringe phase x_i . delta_k for clouds whose
    overlapped output momenta trace back to different initial momenta."""
    return float(np.dot(as_vec(x_i), as_vec(delta_k)))


def kinetic_phase(seq: InterferometerSequence) -> float:
    """(m / 2 hbar) int (v_b^2 - v_a^2) dt, exact per polynomial piece.

    Mirror-symmetric sequences cancel this term identically; the rational
    arithmetic returns a literal zero in that case.
    """
    ta, tb = kinematics.arm_trajectories(seq)
    diff = (kinematics.speed_squared_integral_exact(tb)
            - kinematics.speed_squared_integral_exact(ta))
    return 0.5 * seq.params.m / seq.params.hbar * float(diff)


def inertial_phase(seq: InterferometerSequence, g=None) -> float:
    """(m/hbar) g . A with A the space-time area, for constant g."""
    g = seq.g if g is None else as_vec(g)
    area = kinematics.space_time_area(seq)
    return seq.params.m / seq.params.hbar * float(np.dot(g, area))


def inertial_phase_timevarying(seq: InterferometerSequence, g) -> float:
    """(m/hbar) int g(t) . dx(t) dt for a polynomial + trigonometric g(t).

    Pass a :class:`Waveform`; other callables raise UnsupportedWaveform
    (use the quadrature oracle for arbitrary g).
    """
    if not isinstance(g, Waveform):
        raise UnsupportedWaveform(
            "g(t) must be a Waveform of polynomial and trig terms")
    pd = kinematics.path_difference(seq)
    parts = []
    if any(g.constant):
        parts.append(float(np.dot(g.constant, pd.moment_poly(0))))
    for amp, p in g.polys:
        parts.append(float(np.dot(amp, pd.moment_poly(p))))
    trig = g.cosines + g.sines
    ac, a_s = pd.trig_moments([w for _, w in trig])
    for k, (amp, _) in enumerate(trig):
        moment = ac[k] if k < len(g.cosines) else a_s[k]
        parts.append(float(np.dot(amp, moment)))
    return seq.params.m / seq.params.hbar * math.fsum(parts)


def fourier_phase(seq: InterferometerSequence,
                  coefficients: Sequence[tuple]) -> float:
    """Inertial phase of g(t) given as discrete-series coefficients.

    ``coefficients[j]`` is the pair (a_c_j, a_s_j) of vector amplitudes at
    angular frequency j*pi/T (either entry may be None). Returns
    (m/hbar) sum_j [a_c_j . Ac(j pi/T) + a_s_j . As(j pi/T)].
    """
    pd = kinematics.path_difference(seq)
    T = float(seq.T)
    areas_cos, areas_sin = pd.trig_moments(
        [j * math.pi / T for j in range(len(coefficients))])
    parts = []
    for (ac, a_s), area_cos, area_sin in zip(coefficients, areas_cos,
                                             areas_sin):
        if ac is not None and any(as_vec(ac)):
            parts.append(float(np.dot(as_vec(ac), area_cos)))
        if a_s is not None and any(as_vec(a_s)):
            parts.append(float(np.dot(as_vec(a_s), area_sin)))
    return seq.params.m / seq.params.hbar * math.fsum(parts)


def fourier_coefficients(g: Callable[[np.ndarray], np.ndarray], T,
                         j_max: int, *, num: int = 8192) -> list[tuple]:
    """Series coefficients of g(t) over [-T, T] at frequencies j*pi/T.

    a_c_j = (1/T) int cos(j pi t/T) g(t) dt and likewise with sin; the
    j = 0 cosine coefficient is halved so the reconstruction
    sum_j [a_c_j cos + a_s_j sin] converges to g itself.
    """
    Tf = float(as_time(T))
    if num % 2:
        num += 1
    t = np.linspace(-Tf, Tf, num + 1)
    gt = np.asarray(g(t), dtype=float)
    if gt.shape != (t.size, 3):
        raise SequenceError("g(t) must return an (N, 3) array")
    w_simp = np.ones(t.size)
    w_simp[1:-1:2] = 4.0
    w_simp[2:-1:2] = 2.0
    w_simp *= (t[1] - t[0]) / 3.0
    out = []
    for j in range(j_max + 1):
        cw = np.cos(j * math.pi * t / Tf)
        sw = np.sin(j * math.pi * t / Tf)
        ac = (w_simp * cw) @ gt / Tf
        a_s = (w_simp * sw) @ gt / Tf
        if j == 0:
            ac = ac / 2.0
            a_s = np.zeros(3)
        out.append((tuple(ac), tuple(a_s)))
    return out


def _kick_area_sign(arm_sign: int, along_k: float) -> float:
    """Sign of a kick's forward-propagated space-time-area contribution.

    A velocity change dv at time t changes the area by
    arm_sign * dv . k_hat * (E - t)^2 / 2; the (E - t)^2 factor never flips
    the sign, so the recombination pulse keeps the sign of its limit.
    """
    return float(np.sign(arm_sign * along_k))


def laser_phase(seq: InterferometerSequence) -> float:
    """Imprinted laser phase: each interaction adds its phase with the sign
    of its contribution to the space-time area along k_hat.

    Kicks weigh |dn|/2 two-photon transitions; lattice windows weigh their
    cycle count. Interactions with no velocity component along k carry no
    area and contribute zero (flagged with ZeroAreaKickWarning).
    """
    khat = seq.params.k_hat
    parts = []
    for arm_sign, arm in ((+1, seq.arm_a), (-1, seq.arm_b)):
        for kick in arm.kicks:
            along = float(np.dot(kick.dv, khat))
            sign = _kick_area_sign(arm_sign, along)
            weight = abs(kick.dn) / 2.0
            if kick.phi != 0.0 and (sign == 0.0 or weight == 0.0):
                warnings.warn(
                    f"kick at t={float(kick.t):g} on arm {arm.label} carries "
                    "a phase but no area contribution",
                    ZeroAreaKickWarning, stacklevel=2)
            parts.append(sign * weight * kick.phi)
        for seg in arm.segments:
            if seg.tau_b is None:
                continue
            along = float(np.dot(seg.a, khat))
            sign = _kick_area_sign(arm_sign, along)
            parts.append(sign * float(seg.cycles) * seg.phi_b)
    return math.fsum(parts)


def sagnac_phase(seq: InterferometerSequence, omega=None, *, g=None) -> float:
    """First-order rotation phase -(2 m / hbar) Omega . A_enclosed.

    The enclosed spatial area comes from the launch velocity and the mean
    accelerated motion: A = v0 x A_st + g x int t dx dt (v0 the common
    velocity at t = 0) plus the exact in-plane term int x x v dt when the
    arm motion itself is not collinear. Valid to first order in Omega for
    closed sequences.
    """
    omega_v = np.asarray(as_vec(seq.omega if omega is None else omega))
    if not omega_v.any():
        return 0.0
    g = np.asarray(as_vec(seq.g if g is None else g))
    E = float(seq.horizon)
    if float(np.linalg.norm(omega_v)) * E >= 0.1:
        warnings.warn("Omega*T is not small; first-order rotation formula "
                      "loses accuracy", NonPerturbativeRotationWarning,
                      stacklevel=2)
    ta, tb = kinematics.arm_trajectories(seq)
    pd = kinematics.path_difference(seq)
    self_term = np.array([float(ca - cb) for ca, cb in zip(
        ta.self_cross_moment(), tb.self_cross_moment())])
    area = kinematics.space_time_area(seq)
    tmom = pd.moment_poly(1)
    v0 = np.asarray(seq.v_i) + g * float(seq.T)
    enclosed = self_term + 2.0 * np.cross(area, v0) + 2.0 * np.cross(tmom, g)
    return seq.params.m / seq.params.hbar * float(np.dot(omega_v, enclosed))


def total_phase(seq: InterferometerSequence, *, g=None, g_wave=None,
                omega=None, magnetic: MagneticSchedule | None = None,
                offset: OffsetSchedule | None = None,
                rel_tol: float = 1e-9) -> PhaseBreakdown:
    """Evaluate every phase term of the sequence and sum them.

    ``g`` overrides the sequence's constant background acceleration;
    ``g_wave`` (a Waveform) replaces it with a time-dependent one.
    The breakdown's flags report the detected exact symmetries.
    """
    from .sequence import is_closed, symmetry_class

    sep = separation_phase(seq, rel_tol=rel_tol)
    kin = kinetic_phase(seq)
    if g_wave is not None:
        inertial = inertial_phase_timevarying(seq, g_wave)
    else:
        inertial = inertial_phase(seq, g)
    laser = laser_phase(seq)
    mag = magnetic_phase(magnetic, hbar=seq.params.hbar) if magnetic else 0.0
    off = offset_phase(offset, hbar=seq.params.hbar) if offset else 0.0
    sag = sagnac_phase(seq, omega, g=g)

    flags = [s.value for s in symmetry_class(seq)]
    if is_closed(seq, rel_tol):
        flags.append("closed")
    if kin == 0.0:
        flags.append("kinetic-cancelled")
    return PhaseBreakdown.build(
        flags, separation=sep, kinetic=kin, inertial=inertial, laser=laser,
        magnetic=mag, offset=off, sagnac=sag)
