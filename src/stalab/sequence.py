"""Interferometer sequences as event timelines.

A sequence is two arm timelines (impulse velocity kicks plus constant-
acceleration windows) with the shared physical parameters of the atom and
the laser. Times are kept as exact rationals (`fractions.Fraction`) so that
breakpoint arithmetic, closure checks and symmetry tests are exact; all
physical quantities are ordinary doubles.

The catalog builders construct the standard configurations: the three-pulse
Mach-Zehnder, the Mach-Zehnder with continuous lattice acceleration on each
arm ("cab"), the four-pulse butterfly, the recoil-sensitive triangle and the
constant-acceleration recoil configuration.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import InconsistentBlochCount, OverlappingSegments, SequenceError

# Reduced Planck constant (J s), CODATA 2018.
HBAR = 1.054571817e-34

# Repo-chosen documentation defaults for 87Rb (not tied to any experiment):
# atomic mass in kg and effective two-photon wave number magnitude in rad/m.
RB87_MASS = 1.443e-25
RB87_KMAG = 8.055e6

Vec3 = tuple[float, float, float]

# Time text is bounded before its rational is built (1e-999999 alone makes
# exact arithmetic crawl). MAX_TIME_TEXT digits hold the exact decimal form
# of any double; beyond MAX_TIME_S the powers of T overflow a double.
MAX_TIME_TEXT = 1100
MAX_TIME_S = 10**6


def parse_time(text: str) -> Fraction:
    """Exact time in seconds from decimal or ``p/q`` text, within the
    bounds above (ValueError otherwise)."""
    text = text.strip()
    exponent = text.lower().partition("e")[2].lstrip("+-")
    if len(text) > MAX_TIME_TEXT or (
            exponent.isdecimal() and int(exponent) > MAX_TIME_TEXT):
        raise ValueError(f"time text is limited to {MAX_TIME_TEXT} "
                         f"characters and exponents of +-{MAX_TIME_TEXT}")
    t = Fraction(text)
    if abs(t) > MAX_TIME_S:
        raise ValueError(f"time beyond +-{MAX_TIME_S} s")
    return t


def as_time(value) -> Fraction:
    """Convert a time value to an exact rational number of seconds.

    Strings parse as exact decimals or ``p/q`` rationals (`parse_time`);
    floats embed exactly (every double is a rational), so no information
    is lost.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, (int, np.integer)):
        return Fraction(int(value))
    if isinstance(value, str):
        return parse_time(value)
    if isinstance(value, (float, np.floating)):
        return Fraction(float(value))
    raise TypeError(f"cannot interpret {value!r} as a time")


def as_vec(value) -> Vec3:
    """Coerce a 3-sequence (or scalar zero) to a float triple."""
    if isinstance(value, (int, float, np.floating)) and float(value) == 0.0:
        return (0.0, 0.0, 0.0)
    arr = tuple(float(c) for c in value)
    if len(arr) != 3:
        raise SequenceError(f"expected a 3-vector, got {value!r}")
    return arr  # type: ignore[return-value]


def _finite(vec: Iterable[float]) -> bool:
    return all(np.isfinite(c) for c in vec)


def _fields_only(self) -> dict:
    """Pickle state of the fields alone: derived values (the read-only
    k_hat, cycle counts, the horizon, the analysis) are rebuilt on use."""
    return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class PhysicalParams:
    """Atom and laser constants for one sequence.

    m       -- atomic mass (kg)
    k       -- two-photon wave vector of the beam splitters (rad/m)
    n       -- diffraction order; one kick transfers 2*n*hbar*k of momentum
    hbar    -- reduced Planck constant (J s)
    """

    m: float
    k: Vec3
    n: int = 1
    hbar: float = HBAR

    def __post_init__(self):
        object.__setattr__(self, "k", as_vec(self.k))
        if not (0 < self.m < np.inf and 0 < self.hbar < np.inf):
            raise SequenceError("mass and hbar must be positive and finite")
        with np.errstate(over="ignore"):  # |k| overflowing is rejected
            k_ok = 0.0 < self.k_mag < np.inf
        if not k_ok:
            raise SequenceError("wave vector must be finite and nonzero")
        if int(self.n) != self.n or self.n < 1:
            raise SequenceError("diffraction order n must be an integer >= 1")
        object.__setattr__(self, "n", int(self.n))

    __getstate__ = _fields_only

    @cached_property
    def k_mag(self) -> float:
        return float(np.linalg.norm(self.k))

    @cached_property
    def k_hat(self) -> np.ndarray:
        """Unit beam direction, computed once; one shared read-only array."""
        khat = np.asarray(self.k) / self.k_mag
        khat.flags.writeable = False
        return khat

    @property
    def recoil_frequency(self) -> float:
        """Single-photon recoil frequency hbar*|k|^2 / (2 m), rad/s."""
        return self.hbar * self.k_mag**2 / (2.0 * self.m)

    @property
    def recoil_velocity(self) -> np.ndarray:
        """Velocity change of one order-n kick, 2*n*hbar*k/m (m/s)."""
        return 2.0 * self.n * self.hbar * np.asarray(self.k) / self.m

    @property
    def single_photon_speed(self) -> float:
        """hbar*|k|/m, the speed of one photon recoil (m/s)."""
        return self.hbar * self.k_mag / self.m

    @classmethod
    def rubidium87(cls, n: int = 1, k_mag: float = RB87_KMAG,
                   direction: Sequence[float] = (0.0, 0.0, 1.0)) -> "PhysicalParams":
        d = np.asarray(direction, dtype=float)
        d = d / np.linalg.norm(d)
        return cls(m=RB87_MASS, k=tuple(k_mag * d), n=n)


@dataclass(frozen=True)
class ImpulseKick:
    """Instantaneous velocity change at time ``t``.

    dv  -- velocity change (m/s); phi -- laser phase imprinted by the pulse
    (rad); dn -- signed change of the photon-recoil count along k_hat.
    """

    t: Fraction
    dv: Vec3
    phi: float = 0.0
    dn: int = 0

    def __post_init__(self):
        object.__setattr__(self, "t", as_time(self.t))
        object.__setattr__(self, "dv", as_vec(self.dv))
        if not _finite(self.dv) or not np.isfinite(self.phi):
            raise SequenceError("kick velocity change and phase must be "
                                "finite")
        object.__setattr__(self, "dn", int(self.dn))


@dataclass(frozen=True)
class AccelSegment:
    """Constant extra acceleration ``a`` on one arm over (t_start, t_end).

    tau_b (s) is the optical-lattice cycle period when the segment is
    laser-driven; phi_b is the per-cycle laser phase. Non-laser segments
    leave tau_b as None.
    """

    t_start: Fraction
    t_end: Fraction
    a: Vec3
    phi_b: float = 0.0
    tau_b: Fraction | None = None

    def __post_init__(self):
        object.__setattr__(self, "t_start", as_time(self.t_start))
        object.__setattr__(self, "t_end", as_time(self.t_end))
        object.__setattr__(self, "a", as_vec(self.a))
        if self.tau_b is not None:
            object.__setattr__(self, "tau_b", as_time(self.tau_b))
            if self.tau_b <= 0:
                raise SequenceError("tau_b must be positive")
        if not self.t_start < self.t_end:
            raise SequenceError("segment must have t_start < t_end")
        if not _finite(self.a) or not np.isfinite(self.phi_b):
            raise SequenceError("segment acceleration and phase must be "
                                "finite")

    __getstate__ = _fields_only

    @property
    def duration(self) -> Fraction:
        return self.t_end - self.t_start

    @cached_property
    def cycles(self) -> Fraction | None:
        """Number of lattice cycles spanned, or None if not laser-driven."""
        if self.tau_b is None:
            return None
        return self.duration / self.tau_b


def _merge_kicks(kicks: Sequence[ImpulseKick]) -> tuple[ImpulseKick, ...]:
    """Sort kicks by time, merging simultaneous ones where well defined.

    Simultaneous kicks merge by vector addition of dv and dn. Kicks that
    carry distinct nonzero laser phases stay separate entries (their summed
    fringe contribution is not representable by a single phase).
    """
    out: list[ImpulseKick] = []
    for kick in sorted(kicks, key=lambda k: k.t):
        if out and out[-1].t == kick.t:
            prev = out[-1]
            phis = {p for p in (prev.phi, kick.phi) if p != 0.0}
            if len(phis) <= 1:
                merged = ImpulseKick(
                    t=kick.t,
                    dv=tuple(a + b for a, b in zip(prev.dv, kick.dv)),
                    phi=phis.pop() if phis else 0.0,
                    dn=prev.dn + kick.dn,
                )
                out[-1] = merged
                continue
        out.append(kick)
    return tuple(out)


@dataclass(frozen=True)
class ArmTimeline:
    """Events and initial conditions of a single interferometer arm.

    x0 and v0 are the position and inertial-frame velocity just before the
    first event. Kicks are stored sorted by time with simultaneous kicks
    merged; segments are sorted and must not overlap.
    """

    label: str
    kicks: tuple[ImpulseKick, ...] = ()
    segments: tuple[AccelSegment, ...] = ()
    x0: Vec3 = (0.0, 0.0, 0.0)
    v0: Vec3 = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if self.label not in ("a", "b"):
            raise SequenceError("arm label must be 'a' or 'b'")
        object.__setattr__(self, "x0", as_vec(self.x0))
        object.__setattr__(self, "v0", as_vec(self.v0))
        if not (_finite(self.x0) and _finite(self.v0)):
            raise SequenceError(f"arm {self.label}: x0 and v0 must be finite")
        object.__setattr__(self, "kicks", _merge_kicks(tuple(self.kicks)))
        segments = tuple(sorted(self.segments, key=lambda s: s.t_start))
        for s0, s1 in zip(segments, segments[1:]):
            if s1.t_start < s0.t_end:
                raise OverlappingSegments(
                    f"arm {self.label}: segments ({s0.t_start}, {s0.t_end}) "
                    f"and ({s1.t_start}, {s1.t_end}) overlap")
        object.__setattr__(self, "segments", segments)

    def event_times(self) -> list[Fraction]:
        times = [k.t for k in self.kicks]
        for s in self.segments:
            times.extend((s.t_start, s.t_end))
        return times

    def relabel(self, label: str) -> "ArmTimeline":
        return ArmTimeline(label, self.kicks, self.segments, self.x0, self.v0)


@dataclass(frozen=True)
class InterferometerSequence:
    """Two arm timelines plus shared physics over the window [-T, T].

    t = 0 sits at the midpoint of the nominal sequence. g is the constant
    background acceleration (overridable per operation), omega a constant
    rotation rate, v_i the common launch velocity at -T.

    The first query builds the sequence's exact analysis
    (`kinematics.SequenceAnalysis`: trajectories, path difference and the
    results derived from them) and keeps it on the instance, outside the
    dataclass fields, so equality, hashing and repr ignore it.
    """

    params: PhysicalParams
    T: Fraction
    arm_a: ArmTimeline
    arm_b: ArmTimeline
    g: Vec3 = (0.0, 0.0, 0.0)
    omega: Vec3 = (0.0, 0.0, 0.0)
    v_i: Vec3 = (0.0, 0.0, 0.0)
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "T", as_time(self.T))
        if self.T <= 0:
            raise SequenceError("half-duration T must be positive")
        for name in ("g", "omega", "v_i"):
            vec = as_vec(getattr(self, name))
            if not _finite(vec):
                raise SequenceError(f"{name} must be finite")
            object.__setattr__(self, name, vec)

    __getstate__ = _fields_only

    @cached_property
    def horizon(self) -> Fraction:
        """Half-width E of the integration window [-E, E].

        Equals T unless an event (for example a delayed recombination
        pulse) lies beyond it.
        """
        times = self.arm_a.event_times() + self.arm_b.event_times()
        extreme = max((abs(t) for t in times), default=Fraction(0))
        return max(self.T, extreme)

    def arms(self) -> tuple[ArmTimeline, ArmTimeline]:
        return (self.arm_a, self.arm_b)


def swap_arms(seq: InterferometerSequence) -> InterferometerSequence:
    """Exchange the arm labels; every phase term changes sign."""
    return InterferometerSequence(
        params=seq.params, T=seq.T,
        arm_a=seq.arm_b.relabel("a"), arm_b=seq.arm_a.relabel("b"),
        g=seq.g, omega=seq.omega, v_i=seq.v_i,
        name=(seq.name + "-swapped") if seq.name else "swapped")


class Symmetry(str, enum.Enum):
    """Exact time symmetries a sequence may satisfy."""

    VELOCITY_MIRROR = "velocity-sym-i"          # v_a(t) ==  v_b(-t)
    VELOCITY_ANTIMIRROR = "velocity-sym-ii"     # v_a(t) == -v_b(-t)
    SEPARATION_SYMMETRIC = "dx-symmetric"       # dx(t) ==  dx(-t)
    SEPARATION_ANTISYMMETRIC = "dx-antisymmetric"


# ----------------------------------------------------------------------
# catalog builders
# ----------------------------------------------------------------------

def _bragg_kick(params: PhysicalParams, t: Fraction, sign: int,
                phi: float) -> ImpulseKick:
    dv = sign * params.recoil_velocity
    return ImpulseKick(t=t, dv=tuple(dv), phi=phi, dn=sign * 2 * params.n)


def build_mach_zehnder(params: PhysicalParams, T, *,
                       phases: Sequence[float] = (0.0, 0.0, 0.0),
                       g=0.0, omega=0.0, v_i=0.0,
                       last_pulse_offset=0) -> InterferometerSequence:
    """Three-pulse Mach-Zehnder: splitter at -T, mirror at 0, closer at T.

    Arm a receives the first kick, which makes the space-time area
    +2n*hbar*k*T^2/m along k. ``last_pulse_offset`` shifts the final pulse
    to T + offset, producing an open sequence with a pure separation phase.
    """
    T = as_time(T)
    if T <= 0:
        raise SequenceError("T must be positive")
    dT = as_time(last_pulse_offset)
    p1, p2, p3 = (float(p) for p in phases)
    arm_a = ArmTimeline("a", kicks=(
        _bragg_kick(params, -T, +1, p1),
        _bragg_kick(params, Fraction(0), -1, p2),
    ))
    arm_b = ArmTimeline("b", kicks=(
        _bragg_kick(params, Fraction(0), +1, p2),
        _bragg_kick(params, T + dT, -1, p3),
    ))
    return InterferometerSequence(params, T, arm_a, arm_b, g=as_vec(g),
                                  omega=as_vec(omega), v_i=as_vec(v_i),
                                  name="mz")


def _bloch_accel(params: PhysicalParams, tau_b: Fraction) -> np.ndarray:
    """Lattice acceleration: one 2*hbar*k recoil per cycle period tau_b."""
    return 2.0 * params.hbar * np.asarray(params.k) / (params.m * float(tau_b))


def _cab_windows(T: Fraction, T_r: Fraction):
    """Acceleration windows of the lattice-boosted Mach-Zehnder.

    Each arm accelerates away and back with triangular velocity lobes
    centred at -T/2 (arm a) and +T/2 (arm b); each ramp stretch lasts
    (T - 4*T_r)/2 so that loading margins of 2*T_r surround each lobe.
    """
    early = ((2 * T_r - T, -T / 2), (-T / 2, -2 * T_r))
    late = ((2 * T_r, T / 2), (T / 2, T - 2 * T_r))
    return early, late


def build_cab(params: PhysicalParams, T, n_b: int, tau_b=None, T_r=0, *,
              phases: Sequence[float] = (0.0, 0.0, 0.0),
              bloch_phases: Sequence[float] = (0.0, 0.0, 0.0, 0.0),
              g=0.0, omega=0.0, v_i=0.0,
              rel_tol: float = 1e-9) -> InterferometerSequence:
    """Mach-Zehnder with a continuous lattice acceleration on one arm at
    a time, giving a space-time area 2*hbar*k*T^2/m * [n + n_b(1/2 - 2T_r/T)].

    n_b lattice cycles of period tau_b fit in each ramp stretch of duration
    (T - 4*T_r)/2. Omit tau_b to derive it from that relation; if both are
    given they must agree to ``rel_tol`` (InconsistentBlochCount otherwise).
    """
    T = as_time(T)
    T_r = as_time(T_r)
    if T_r < 0:
        raise SequenceError("T_r must be non-negative")
    if T - 4 * T_r <= 0:
        raise SequenceError("need T - 4*T_r > 0")
    if int(n_b) != n_b or n_b < 0:
        raise SequenceError("n_b must be a non-negative integer")
    n_b = int(n_b)

    stretch = (T - 4 * T_r) / 2
    if n_b == 0:
        return build_mach_zehnder(params, T, phases=phases, g=g, omega=omega,
                                  v_i=v_i)
    if tau_b is None:
        tau_b = stretch / n_b
    else:
        tau_b = as_time(tau_b)
        implied = stretch / tau_b
        if abs(n_b - implied) > Fraction(str(rel_tol)) * n_b:
            raise InconsistentBlochCount(
                f"n_b={n_b} but (T - 4*T_r)/(2*tau_b) = {float(implied):g}")

    aB = _bloch_accel(params, tau_b)
    (aw1, aw2), (bw1, bw2) = _cab_windows(T, T_r)
    b1, b2, b3, b4 = (float(p) for p in bloch_phases)
    p1, p2, p3 = (float(p) for p in phases)

    arm_a = ArmTimeline("a", kicks=(
        _bragg_kick(params, -T, +1, p1),
        _bragg_kick(params, Fraction(0), -1, p2),
    ), segments=(
        AccelSegment(*aw1, a=tuple(aB), phi_b=b1, tau_b=tau_b),
        AccelSegment(*aw2, a=tuple(-aB), phi_b=b2, tau_b=tau_b),
    ))
    arm_b = ArmTimeline("b", kicks=(
        _bragg_kick(params, Fraction(0), +1, p2),
        _bragg_kick(params, T, -1, p3),
    ), segments=(
        AccelSegment(*bw1, a=tuple(aB), phi_b=b3, tau_b=tau_b),
        AccelSegment(*bw2, a=tuple(-aB), phi_b=b4, tau_b=tau_b),
    ))
    return InterferometerSequence(params, T, arm_a, arm_b, g=as_vec(g),
                                  omega=as_vec(omega), v_i=as_vec(v_i),
                                  name="cab")


def build_cab_kicktrain(params: PhysicalParams, T, n_b: int, tau_b=None,
                        T_r=0, *, phases: Sequence[float] = (0.0, 0.0, 0.0),
                        bloch_phases: Sequence[float] = (0.0, 0.0, 0.0, 0.0),
                        g=0.0, omega=0.0, v_i=0.0,
                        rel_tol: float = 1e-9) -> InterferometerSequence:
    """Kick-train twin of :func:`build_cab`.

    Every lattice window becomes n_b kicks of 2*hbar*k/m spaced tau_b
    apart, the first half a cycle after the window opens. The space-time
    area of the full interferometer matches the continuous form exactly.
    """
    cont = build_cab(params, T, n_b, tau_b, T_r, phases=phases,
                     bloch_phases=bloch_phases, g=g, omega=omega, v_i=v_i,
                     rel_tol=rel_tol)
    if n_b == 0:
        return cont
    arms = []
    for arm in cont.arms():
        kicks = list(arm.kicks)
        for seg in arm.segments:
            tau = seg.tau_b
            whole = int(seg.cycles)  # partial cycles are dropped
            dv = np.asarray(seg.a) * float(tau)
            dn = 2 if float(np.dot(seg.a, cont.params.k_hat)) > 0 else -2
            for i in range(1, whole + 1):
                kicks.append(ImpulseKick(
                    t=seg.t_start + tau * (2 * i - 1) / 2,
                    dv=tuple(dv), phi=seg.phi_b, dn=dn))
        arms.append(ArmTimeline(arm.label, kicks=tuple(kicks), x0=arm.x0,
                                v0=arm.v0))
    return InterferometerSequence(cont.params, cont.T, arms[0], arms[1],
                                  g=cont.g, omega=cont.omega, v_i=cont.v_i,
                                  name="cab-kicktrain")


def build_butterfly(params: PhysicalParams, T, *,
                    phases: Sequence[float] = (0.0, 0.0, 0.0, 0.0),
                    g=0.0, omega=0.0, v_i=0.0) -> InterferometerSequence:
    """Four-pulse butterfly (pi/2 - pi - pi - pi/2 at -T, -T/2, T/2, T).

    The arm separation is antisymmetric about t = 0, so the space-time
    area vanishes and only the sine-quadrature vibration response remains.
    """
    T = as_time(T)
    p1, p2, p3, p4 = (float(p) for p in phases)
    arm_a = ArmTimeline("a", kicks=(
        _bragg_kick(params, -T / 2, +1, p2),
        _bragg_kick(params, T / 2, -1, p3),
        _bragg_kick(params, T, +1, p4),
    ))
    arm_b = ArmTimeline("b", kicks=(
        _bragg_kick(params, -T, +1, p1),
        _bragg_kick(params, -T / 2, -1, p2),
        _bragg_kick(params, T / 2, +1, p3),
    ))
    return InterferometerSequence(params, T, arm_a, arm_b, g=as_vec(g),
                                  omega=as_vec(omega), v_i=as_vec(v_i),
                                  name="butterfly")


def build_recoil_triangle(params: PhysicalParams, T, *,
                          phases: Sequence[float] = (0.0, 0.0, 0.0),
                          g=0.0, omega=0.0, v_i=0.0) -> InterferometerSequence:
    """Recoil-sensitive triangle: arm a stays inertial, arm b is kicked to
    +2n*hbar*k/m, reflected at t = 0 and stopped at T."""
    T = as_time(T)
    p1, p2, p3 = (float(p) for p in phases)
    vr = params.recoil_velocity
    arm_a = ArmTimeline("a")
    arm_b = ArmTimeline("b", kicks=(
        ImpulseKick(-T, tuple(vr), p1, 2 * params.n),
        ImpulseKick(Fraction(0), tuple(-2.0 * vr), p2, -4 * params.n),
        ImpulseKick(T, tuple(vr), p3, 2 * params.n),
    ))
    return InterferometerSequence(params, T, arm_a, arm_b, g=as_vec(g),
                                  omega=as_vec(omega), v_i=as_vec(v_i),
                                  name="triangle")


def build_const_accel_recoil(params: PhysicalParams, T, a, *,
                             g=0.0, omega=0.0, v_i=0.0) -> InterferometerSequence:
    """Constant-acceleration recoil configuration.

    Arm b's velocity ramps as +a, -a, +a over the thirds (-T, -T/2),
    (-T/2, T/2), (T/2, T) while arm a stays inertial; the total phase is
    (m/hbar) (|a|^2/12 - g.a/4) T^3.
    """
    T = as_time(T)
    if isinstance(a, (int, float, np.floating)):
        a_vec = float(a) * params.k_hat
    else:
        a_vec = np.asarray(as_vec(a))
    if not np.all(np.isfinite(a_vec)):
        raise SequenceError("acceleration must be finite")
    arm_a = ArmTimeline("a")
    if np.all(a_vec == 0.0):
        arm_b = ArmTimeline("b")
    else:
        arm_b = ArmTimeline("b", segments=(
            AccelSegment(-T, -T / 2, tuple(a_vec)),
            AccelSegment(-T / 2, T / 2, tuple(-a_vec)),
            AccelSegment(T / 2, T, tuple(a_vec)),
        ))
    return InterferometerSequence(params, T, arm_a, arm_b, g=as_vec(g),
                                  omega=as_vec(omega), v_i=as_vec(v_i),
                                  name="const-accel")


# ----------------------------------------------------------------------
# closure and symmetry checks (exact)
# ----------------------------------------------------------------------

def closure_defect(seq: InterferometerSequence) -> tuple[np.ndarray, np.ndarray]:
    """Final (position, velocity) difference between the arms.

    Evaluated just after the last event in exact rational arithmetic, so a
    sequence that closes algebraically returns exact zeros.
    """
    from . import kinematics

    dx, dv = kinematics.analysis(seq).closure_defect
    return dx.copy(), dv.copy()


def is_closed(seq: InterferometerSequence, rel_tol: float = 1e-9) -> bool:
    """True when the arms rejoin in position and velocity.

    Exact zeros pass outright; otherwise the defect is compared against the
    natural velocity and displacement scales of the sequence.
    """
    from . import kinematics

    found = kinematics.analysis(seq)
    dx, dv = found.closure_defect
    if not dx.any() and not dv.any():
        return True
    xs, vs = found.path_difference.scales()
    return (np.linalg.norm(dx) <= rel_tol * max(xs, vs * found.span, 1e-300)
            and np.linalg.norm(dv) <= rel_tol * max(vs, 1e-300))


def symmetry_class(seq: InterferometerSequence) -> frozenset[Symmetry]:
    """Exact time symmetries of the sequence (empty set when none hold).

    Velocity mirror symmetries compare v_a(t) against +/- v_b(-t) and the
    separation symmetries compare dx(t) against +/- dx(-t), all as exact
    piecewise polynomials, not numerical samples.
    """
    from . import kinematics

    found = kinematics.analysis(seq)
    mirror, antimirror = found.velocity_mirrors
    labels = set()
    if mirror:
        labels.add(Symmetry.VELOCITY_MIRROR)
    if antimirror:
        labels.add(Symmetry.VELOCITY_ANTIMIRROR)
    parity = found.path_difference.mirror_parity()
    if parity == +1:
        labels.add(Symmetry.SEPARATION_SYMMETRIC)
    elif parity == -1:
        labels.add(Symmetry.SEPARATION_ANTISYMMETRIC)
    return frozenset(labels)
