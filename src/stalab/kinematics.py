"""Exact piecewise-polynomial trajectories and their weighted integrals.

Each arm timeline integrates to velocity (degree <= 1) and position
(degree <= 2) polynomials in global time per breakpoint interval. The
coefficients are exact rationals: doubles embed exactly into Fraction, so
cancellations that hold algebraically (closure, mirror symmetries, the
vanishing area of an antisymmetric separation) come out as literal zeros.

Each arm is integrated once per sequence (`arm_trajectories` and
`path_difference` are cached); closure, symmetry and every phase term
read those trajectories through the public methods defined here.

Weighted integrals of the arm separation are evaluated per segment in
closed form. Polynomial weights stay in rational arithmetic; cos/sin
weights use stable antiderivatives, switching to a Taylor series in omega
below z = |omega| * max|t| = 1/2 where the closed forms lose digits. The
odd quadrature of an exactly (anti)symmetric separation is a literal zero.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np

from .errors import SequenceError
from .sequence import ArmTimeline, InterferometerSequence, PhysicalParams

FVec = tuple[Fraction, Fraction, Fraction]

_ZERO3 = (Fraction(0), Fraction(0), Fraction(0))

# z = |omega| * max|t| below which trig moments use the series branch
_SERIES_Z = 0.5


def _fvec(values) -> FVec:
    a, b, c = values
    return (Fraction(a), Fraction(b), Fraction(c))


def _fv_add(u: FVec, v: FVec) -> FVec:
    return (u[0] + v[0], u[1] + v[1], u[2] + v[2])


def _fv_sub(u: FVec, v: FVec) -> FVec:
    return (u[0] - v[0], u[1] - v[1], u[2] - v[2])


def _fv_scale(u: FVec, s: Fraction) -> FVec:
    return (u[0] * s, u[1] * s, u[2] * s)


def _fv_dot(u: FVec, v: FVec) -> Fraction:
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _fv_cross(u: FVec, v: FVec) -> FVec:
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _float3(u: FVec) -> np.ndarray:
    return np.array([float(u[0]), float(u[1]), float(u[2])])


class _Piece:
    """One interval [t0, t1) with exact polynomial coefficients in t."""

    __slots__ = ("t0", "t1", "pos", "vel", "nrec")

    def __init__(self, t0, t1, pos, vel, nrec):
        self.t0 = t0
        self.t1 = t1
        self.pos = pos      # (c0, c1, c2) FVec coefficients
        self.vel = vel      # (c0, c1) FVec coefficients
        self.nrec = nrec    # (c0, c1) Fraction coefficients

    def pos_at(self, t: Fraction) -> FVec:
        c0, c1, c2 = self.pos
        return _fv_add(c0, _fv_add(_fv_scale(c1, t), _fv_scale(c2, t * t)))

    def vel_at(self, t: Fraction) -> FVec:
        c0, c1 = self.vel
        return _fv_add(c0, _fv_scale(c1, t))


def _locate(times: list[Fraction], t: Fraction) -> int:
    """Index of the piece whose half-open interval contains t."""
    i = bisect.bisect_right(times, t) - 1
    return min(max(i, 0), len(times) - 2)


class PiecewiseTrajectory:
    """Exact inertial-frame trajectory of one arm over [-E, E].

    Velocity jumps by each kick's dv at its breakpoint; position is
    continuous everywhere. ``end_velocity`` includes kicks placed exactly
    at the window edge, which act after the final interval closes.
    """

    def __init__(self, pieces: list[_Piece], end_position: FVec,
                 end_velocity: FVec):
        self.pieces = pieces
        self.end_position = end_position
        self.end_velocity = end_velocity
        self.times = [p.t0 for p in pieces] + [pieces[-1].t1]
        self._ftimes = np.array([float(t) for t in self.times])
        self._fpos = [np.array([_float3(c) for c in p.pos]) for p in pieces]
        self._fvel = [np.array([_float3(c) for c in p.vel]) for p in pieces]

    @property
    def start(self) -> Fraction:
        return self.times[0]

    @property
    def end(self) -> Fraction:
        return self.times[-1]

    def piece_at(self, t: Fraction) -> _Piece:
        return self.pieces[_locate(self.times, t)]

    def position_coeffs(self, i: int) -> np.ndarray:
        """Float (c0, c1, c2) rows of piece i's position polynomial, (3, 3);
        a shared array, not to be modified."""
        return self._fpos[i]

    def acceleration(self, i: int) -> np.ndarray:
        """Float acceleration on piece i, (3,)."""
        return self._fvel[i][1]

    def position_exact(self, t) -> FVec:
        t = Fraction(t)
        if t >= self.end:
            return self.end_position
        return self.piece_at(t).pos_at(t)

    def velocity_exact(self, t) -> FVec:
        """Right-continuous velocity (post-kick at breakpoints)."""
        t = Fraction(t)
        if t >= self.end:
            return self.end_velocity
        return self.piece_at(t).vel_at(t)

    def position(self, t) -> np.ndarray:
        return _float3(self.position_exact(t))

    def velocity(self, t) -> np.ndarray:
        return _float3(self.velocity_exact(t))

    def sample(self, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised float evaluation -> (positions, velocities), (N, 3)."""
        t = np.asarray(t, dtype=float)
        idx = np.clip(np.searchsorted(self._ftimes, t, side="right") - 1,
                      0, len(self.pieces) - 1)
        pos = np.empty((t.size, 3))
        vel = np.empty((t.size, 3))
        for i in np.unique(idx):
            m = idx == i
            p, v = self.sample_piece(int(i), t[m])
            pos[m] = p
            vel[m] = v
        return pos, vel

    def sample_piece(self, i: int, t: np.ndarray):
        """Evaluate piece i's own polynomials at times t (floats).

        Use this when integrating over a known interval so that samples at
        a kick breakpoint take the interval's one-sided velocity.
        """
        ti = np.asarray(t, dtype=float)[:, None]
        c = self._fpos[i]
        v = self._fvel[i]
        return c[0] + ti * (c[1] + ti * c[2]), v[0] + ti * v[1]

    def piece_index(self, t: Fraction) -> int:
        return _locate(self.times, Fraction(t))

    def self_cross_moment(self) -> FVec:
        """Exact integral of x(t) x v(t) dt over the full window."""
        total = _ZERO3
        for p in self.pieces:
            # cross of (deg 2) and (deg 1) vector polynomials -> deg 3
            coeffs = [_ZERO3] * 4
            for i, ci in enumerate(p.pos):
                for j, vj in enumerate(p.vel):
                    coeffs[i + j] = _fv_add(coeffs[i + j], _fv_cross(ci, vj))
            for deg, c in enumerate(coeffs):
                total = _fv_add(total, _fv_scale(
                    c, _power_moment(p.t0, p.t1, deg)))
        return total


def _power_moment(t0: Fraction, t1: Fraction, p: int) -> Fraction:
    """Exact integral of t^p over [t0, t1]."""
    return (t1 ** (p + 1) - t0 ** (p + 1)) / (p + 1)


def speed_squared_integral_exact(traj: PiecewiseTrajectory) -> Fraction:
    """Exact integral of |v(t)|^2 dt over the trajectory window."""
    total = Fraction(0)
    for p in traj.pieces:
        c0, c1 = p.vel
        quad = (_fv_dot(c0, c0), 2 * _fv_dot(c0, c1), _fv_dot(c1, c1))
        for deg, q in enumerate(quad):
            total += q * _power_moment(p.t0, p.t1, deg)
    return total


def recoil_squared_integral_exact(traj: PiecewiseTrajectory) -> Fraction:
    """Exact integral of n(t)^2 dt, with n the photon-recoil count."""
    total = Fraction(0)
    for p in traj.pieces:
        c0, c1 = p.nrec
        quad = (c0 * c0, 2 * c0 * c1, c1 * c1)
        for deg, q in enumerate(quad):
            total += q * _power_moment(p.t0, p.t1, deg)
    return total


def integrate_arm(arm: ArmTimeline, params: PhysicalParams,
                  horizon) -> PiecewiseTrajectory:
    """Integrate kicks and acceleration windows into an exact trajectory.

    Kicks apply as instantaneous velocity jumps; a kick at a segment edge
    acts after the segment closes (left-limit convention). The recoil
    count n(t) follows dn at kicks and ramps linearly inside laser-driven
    segments.
    """
    E = Fraction(horizon)
    breaks = {-E, E}
    breaks.update(k.t for k in arm.kicks)
    for s in arm.segments:
        breaks.update((s.t_start, s.t_end))
    times = sorted(breaks)
    if times[0] < -E or times[-1] > E:
        raise SequenceError("event outside the integration window")

    khat = _fvec(params.k_hat)
    recoil_speed = Fraction(params.hbar) * Fraction(params.k_mag) / Fraction(params.m)

    kicks_at: dict[Fraction, list] = {}
    for k in arm.kicks:
        kicks_at.setdefault(k.t, []).append(k)

    x = _fvec(arm.x0)
    v = _fvec(arm.v0)
    nrec = _fv_dot(_fvec(arm.v0), khat) / recoil_speed

    pieces: list[_Piece] = []
    for t0, t1 in zip(times, times[1:]):
        for k in kicks_at.get(t0, ()):
            v = _fv_add(v, _fvec(k.dv))
            nrec += k.dn
        accel = _ZERO3
        nslope = Fraction(0)
        for s in arm.segments:
            if s.t_start <= t0 and t1 <= s.t_end:
                accel = _fv_add(accel, _fvec(s.a))
                if s.tau_b is not None:
                    nslope += _fv_dot(_fvec(s.a), khat) / recoil_speed
        # global-time coefficients from the state (x, v) at t0
        vel = (_fv_sub(v, _fv_scale(accel, t0)), accel)
        pos = (_fv_add(x, _fv_add(_fv_scale(v, -t0),
                                  _fv_scale(accel, t0 * t0 / 2))),
               _fv_sub(v, _fv_scale(accel, t0)),
               _fv_scale(accel, Fraction(1, 2)))
        nr = (nrec - nslope * t0, nslope)
        pieces.append(_Piece(t0, t1, pos, vel, nr))
        dt = t1 - t0
        x = _fv_add(x, _fv_add(_fv_scale(v, dt),
                               _fv_scale(accel, dt * dt / 2)))
        v = _fv_add(v, _fv_scale(accel, dt))
        nrec += nslope * dt
    for k in kicks_at.get(times[-1], ()):
        v = _fv_add(v, _fvec(k.dv))
        nrec += k.dn
    return PiecewiseTrajectory(pieces, x, v)


class PathDifference(PiecewiseTrajectory):
    """Arm separation dx(t) = x_a(t) - x_b(t) on the merged breakpoint grid.

    A piecewise trajectory in its own right: ``end_position`` and
    ``end_velocity`` are the exact (dx, dv) between the arms just after
    the last event.
    """

    def __init__(self, pieces: list[_Piece], end_position: FVec,
                 end_velocity: FVec):
        super().__init__(pieces, end_position, end_velocity)
        self._powers: dict[tuple[int, int], Fraction] = {}

    def separation(self, t) -> np.ndarray:
        t = Fraction(t)
        return _float3(self.piece_at(t).pos_at(t))

    def velocity_difference(self, t) -> np.ndarray:
        t = Fraction(t)
        return _float3(self.piece_at(t).vel_at(t))

    def sample(self, t: np.ndarray) -> np.ndarray:
        """Vectorised dx(t) evaluation, floats, shape (N, 3)."""
        return super().sample(t)[0]

    def is_zero(self) -> bool:
        return all(c == _ZERO3 for p in self.pieces for c in p.pos)

    def scales(self) -> tuple[float, float]:
        """Rough magnitude of the separation and its velocity (for tolerances)."""
        xs = vs = 0.0
        for i, p in enumerate(self.pieces):
            c = self._fpos[i]
            tm = max(abs(float(p.t0)), abs(float(p.t1)))
            xs = max(xs, float(np.max(
                np.abs(c[0]) + tm * np.abs(c[1]) + tm * tm * np.abs(c[2]))))
            vs = max(vs, float(np.max(np.abs(c[1]) + 2 * tm * np.abs(c[2]))))
        return xs, vs

    def _pow(self, i: int, p: int) -> Fraction:
        """Cached exact integral of t^p over piece i."""
        key = (i, p)
        val = self._powers.get(key)
        if val is None:
            piece = self.pieces[i]
            val = _power_moment(piece.t0, piece.t1, p)
            self._powers[key] = val
        return val

    def moment_poly_exact(self, p: int = 0) -> FVec:
        """Exact integral of t^p * dx(t) dt over the window."""
        total = _ZERO3
        for i, piece in enumerate(self.pieces):
            for j, c in enumerate(piece.pos):
                total = _fv_add(total, _fv_scale(c, self._pow(i, j + p)))
        return total

    def moment_poly(self, p: int = 0) -> np.ndarray:
        return _float3(self.moment_poly_exact(p))

    def moment_trig(self, kind: str, omega: float) -> np.ndarray:
        """Integral of cos(omega t) or sin(omega t) times dx(t) dt."""
        if omega < 0:
            raise SequenceError("omega must be non-negative")
        if kind not in ("cos", "sin"):
            raise SequenceError(f"unknown trig weight {kind!r}")
        if omega == 0.0:
            return self.moment_poly(0) if kind == "cos" else np.zeros(3)
        # the odd quadrature of a (anti)symmetric dx(t) vanishes identically
        if self.mirror_parity() == (1 if kind == "sin" else -1):
            return np.zeros(3)
        parts = [[], [], []]
        for i, piece in enumerate(self.pieces):
            z = omega * max(abs(float(piece.t0)), abs(float(piece.t1)))
            if z < _SERIES_Z:
                ints = _trig_series(self, i, kind, omega)
            else:
                ints = _trig_closed(float(piece.t0), float(piece.t1),
                                    kind, omega)
            c = self._fpos[i]
            for ax in range(3):
                parts[ax].append(c[0][ax] * ints[0] + c[1][ax] * ints[1]
                                 + c[2][ax] * ints[2])
        return np.array([math.fsum(p) for p in parts])

    def mirror_parity(self) -> int | None:
        """+1 if dx(t) == dx(-t), -1 if dx(t) == -dx(-t), else None (exact,
        computed once per instance)."""
        return self._parity

    @cached_property
    def _parity(self) -> int | None:
        return next((sign for sign in (+1, -1)
                     if _mirrored(self, self, "pos", sign)), None)


def _mirrored(ta: PiecewiseTrajectory, tb: PiecewiseTrajectory, attr: str,
              sign: int) -> bool:
    """Exact check of f_a(t) == sign * f_b(-t) as functions, where f is the
    polynomial whose power-basis coefficients each piece keeps in ``attr``
    ("pos" or "vel"); reflecting t flips the sign of odd powers."""
    if ta.start != -ta.end or tb.start != -tb.end or ta.end != tb.end:
        return False
    grid = sorted(set(ta.times) | {-t for t in tb.times})
    for u, w in zip(grid, grid[1:]):
        mid = (u + w) / 2
        pairs = zip(getattr(ta.piece_at(mid), attr),
                    getattr(tb.piece_at(-mid), attr))
        for j, (ca, cb) in enumerate(pairs):
            if ca != _fv_scale(cb, Fraction(sign if j % 2 == 0 else -sign)):
                return False
    return True


def mirror_velocity_equal(ta: PiecewiseTrajectory, tb: PiecewiseTrajectory,
                          sign: int) -> bool:
    """Exact check of v_a(t) == sign * v_b(-t) as functions."""
    return _mirrored(ta, tb, "vel", sign)


@lru_cache(maxsize=128)
def _trajectories(seq: InterferometerSequence):
    E = seq.horizon
    return (integrate_arm(seq.arm_a, seq.params, E),
            integrate_arm(seq.arm_b, seq.params, E))


def arm_trajectories(seq: InterferometerSequence):
    """Both arms' exact trajectories over the sequence window (cached)."""
    return _trajectories(seq)


@lru_cache(maxsize=128)
def path_difference(seq: InterferometerSequence) -> PathDifference:
    """Exact arm separation of a sequence (cached; sequences are frozen)."""
    ta, tb = _trajectories(seq)
    grid = sorted(set(ta.times) | set(tb.times))
    pieces = []
    for u, w in zip(grid, grid[1:]):
        mid = (u + w) / 2
        pa = ta.piece_at(mid)
        pb = tb.piece_at(mid)
        pos = tuple(_fv_sub(ca, cb) for ca, cb in zip(pa.pos, pb.pos))
        vel = tuple(_fv_sub(ca, cb) for ca, cb in zip(pa.vel, pb.vel))
        nr = tuple(na - nb for na, nb in zip(pa.nrec, pb.nrec))
        pieces.append(_Piece(u, w, pos, vel, nr))
    return PathDifference(pieces, *end_difference(ta, tb))


def end_difference(ta: PiecewiseTrajectory,
                   tb: PiecewiseTrajectory) -> tuple[FVec, FVec]:
    """Exact (dx, dv) between two trajectories just after the last event."""
    return (_fv_sub(ta.end_position, tb.end_position),
            _fv_sub(ta.end_velocity, tb.end_velocity))


def dot_exact(u, v) -> Fraction:
    """Exact dot product of two 3-vectors of doubles or rationals."""
    return _fv_dot(_fvec(u), _fvec(v))


def integrate_polynomial_moment(pd: PathDifference, weight) -> np.ndarray:
    """Weighted integral of the arm separation.

    weight is 1 (or "1"), "t", or a tuple ("cos"|"sin", omega). Returns
    the vector integral of weight(t) * dx(t) dt over the window.
    """
    if weight in (1, "1", "one"):
        return pd.moment_poly(0)
    if weight == "t":
        return pd.moment_poly(1)
    if isinstance(weight, tuple) and len(weight) == 2:
        kind, omega = weight
        return pd.moment_trig(kind, float(omega))
    raise SequenceError(f"unsupported weight {weight!r}")


def space_time_area(seq: InterferometerSequence) -> np.ndarray:
    """Space-time area: time integral of the arm separation (m s)."""
    return path_difference(seq).moment_poly(0)


def space_time_area_exact(seq: InterferometerSequence) -> FVec:
    return path_difference(seq).moment_poly_exact(0)


def first_time_moment(seq: InterferometerSequence) -> np.ndarray:
    """Integral of t * dx(t) dt, the lever arm of the rotation coupling."""
    return path_difference(seq).moment_poly(1)


# ----------------------------------------------------------------------
# trig-weighted segment integrals
# ----------------------------------------------------------------------

def _trig_closed(a: float, b: float, kind: str, w: float):
    """Stable antiderivative evaluation of int t^j trig(w t) dt, j = 0,1,2."""
    sa, ca = math.sin(w * a), math.cos(w * a)
    sb, cb = math.sin(w * b), math.cos(w * b)
    iw = 1.0 / w
    iw2 = iw * iw
    iw3 = iw2 * iw
    if kind == "cos":
        i0 = (sb - sa) * iw
        i1 = (cb - ca) * iw2 + (b * sb - a * sa) * iw
        i2 = (2.0 * (b * cb - a * ca)) * iw2 + (b * b * iw - 2.0 * iw3) * sb \
            - (a * a * iw - 2.0 * iw3) * sa
    else:
        i0 = (ca - cb) * iw
        i1 = (sb - sa) * iw2 - (b * cb - a * ca) * iw
        i2 = (2.0 * (b * sb - a * sa)) * iw2 - (b * b * iw - 2.0 * iw3) * cb \
            + (a * a * iw - 2.0 * iw3) * ca
    return (i0, i1, i2)


def _trig_series(pd: PathDifference, i: int, kind: str, w: float):
    """Series in omega for int t^j trig(w t) dt with exact power moments.

    cos: sum_m (-w^2)^m / (2m)! * P(j + 2m)
    sin: sum_m (-1)^m w^(2m+1) / (2m+1)! * P(j + 2m + 1)
    Terms fall at least as fast as (z^2/2)^m for z < 1/2, so a fixed cap
    of 16 terms reaches double precision with margin.
    """
    out = []
    for j in range(3):
        total = 0.0
        if kind == "cos":
            coeff = 1.0
            for m in range(17):
                term = coeff * float(pd._pow(i, j + 2 * m))
                total += term
                if abs(term) <= 1e-30 * (abs(total) + 1e-300) and m > 1:
                    break
                coeff *= -(w * w) / ((2 * m + 1) * (2 * m + 2))
        else:
            coeff = w
            for m in range(17):
                term = coeff * float(pd._pow(i, j + 2 * m + 1))
                total += term
                if abs(term) <= 1e-30 * (abs(total) + 1e-300) and m > 1:
                    break
                coeff *= -(w * w) / ((2 * m + 2) * (2 * m + 3))
        out.append(total)
    return tuple(out)
