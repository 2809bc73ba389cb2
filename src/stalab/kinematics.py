"""Exact piecewise-polynomial trajectories and their weighted integrals.

Each arm timeline integrates to velocity (degree <= 1) and position
(degree <= 2) polynomials in global time per breakpoint interval. The
coefficients are exact rationals: doubles embed exactly into Fraction, so
cancellations that hold algebraically (closure, mirror symmetries, the
vanishing area of an antisymmetric separation) come out as literal zeros.

Each sequence gets one `SequenceAnalysis`, built on first use and kept
on the sequence instance for its lifetime: both arm trajectories, their
difference and every exact or per-piece result the phase and response
layers read (kinetic sum, mirror symmetries, scales, collinearity, the
rectified area, the rotation moments). `arm_trajectories` and
`path_difference` read from it, so each arm is integrated once per
sequence instance and a repeated query hashes nothing.

Weighted integrals of the arm separation are evaluated per segment in
closed form. Polynomial weights stay in rational arithmetic. Cos/sin
weights go through one vectorised kernel, `PathDifference.trig_moments`,
over a whole omega grid at once. It works in each piece's own coordinate
u = t - m about the piece midpoint m, so its rounding does not grow with
where t = 0 sits: three integrals over [-h, h] in x = omega * h (closed
forms, or a short series below x = 1/2), then a rotation by e^{i omega m}.
The odd quadrature of an exactly (anti)symmetric separation is a literal
zero.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import SequenceError
from .sequence import ArmTimeline, InterferometerSequence

FVec = tuple[Fraction, Fraction, Fraction]

_ZERO3 = (Fraction(0), Fraction(0), Fraction(0))

# x = omega * h (a piece's half-width) below which the piece integrals
# use the series; above it the closed forms lose at most about two digits
_SERIES_X = 0.5
# Taylor coefficients in -x^2 of f0, f1 / x and f2 (see _piece_integrals):
# below the switch term k is at most x^(2k) / (2k)!, so eight terms reach
# double precision
_SERIES_TERMS = 8
_F0 = tuple(1 / (math.factorial(2 * k) * (2 * k + 1))
            for k in range(_SERIES_TERMS))
_F1 = tuple(1 / (math.factorial(2 * k + 1) * (2 * k + 3))
            for k in range(_SERIES_TERMS))
_F2 = tuple(1 / (math.factorial(2 * k) * (2 * k + 3))
            for k in range(_SERIES_TERMS))
# (omega, piece) pairs per kernel pass: a block holds max(1, this // pieces)
# omegas, which bounds the temporaries
_TRIG_PAIRS = 4096
# tolerance for deciding that the separation is collinear with k_hat
_COLLINEAR_RTOL = 1e-12


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

    __slots__ = ("t0", "t1", "pos")

    def __init__(self, t0, t1, pos):
        self.t0 = t0
        self.t1 = t1
        self.pos = pos      # (c0, c1, c2) FVec coefficients

    @property
    def vel(self) -> tuple[FVec, FVec]:
        """(c0, c1) velocity coefficients, the derivative of ``pos``."""
        return self.pos[1], _fv_scale(self.pos[2], 2)

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
        # (pieces, power, axis) float coefficients
        self._fpos = np.array([[_float3(c) for c in p.pos] for p in pieces])
        self._fvel = np.array([[_float3(c) for c in p.vel] for p in pieces])

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
        # Horner in place: c0 + t (c1 + t c2) and v0 + t v1, bit for bit
        pos = ti * c[2]
        pos += c[1]
        pos *= ti
        pos += c[0]
        vel = ti * v[1]
        vel += v[0]
        return pos, vel

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


def integrate_arm(arm: ArmTimeline, horizon) -> PiecewiseTrajectory:
    """Integrate kicks and acceleration windows into an exact trajectory.

    Kicks apply as instantaneous velocity jumps; a kick at a segment edge
    acts after the segment closes (left-limit convention).
    """
    E = Fraction(horizon)
    breaks = {-E, E}
    breaks.update(k.t for k in arm.kicks)
    for s in arm.segments:
        breaks.update((s.t_start, s.t_end))
    times = sorted(breaks)
    if times[0] < -E or times[-1] > E:
        raise SequenceError("event outside the integration window")

    kicks_at: dict[Fraction, list] = {}
    for k in arm.kicks:
        kicks_at.setdefault(k.t, []).append(k)

    x = _fvec(arm.x0)
    v = _fvec(arm.v0)

    pieces: list[_Piece] = []
    for t0, t1 in zip(times, times[1:]):
        for k in kicks_at.get(t0, ()):
            v = _fv_add(v, _fvec(k.dv))
        accel = _ZERO3
        for s in arm.segments:
            if s.t_start <= t0 and t1 <= s.t_end:
                accel = _fv_add(accel, _fvec(s.a))
        # global-time coefficients from the state (x, v) at t0
        pos = (_fv_add(x, _fv_add(_fv_scale(v, -t0),
                                  _fv_scale(accel, t0 * t0 / 2))),
               _fv_sub(v, _fv_scale(accel, t0)),
               _fv_scale(accel, Fraction(1, 2)))
        pieces.append(_Piece(t0, t1, pos))
        dt = t1 - t0
        x = _fv_add(x, _fv_add(_fv_scale(v, dt),
                               _fv_scale(accel, dt * dt / 2)))
        v = _fv_add(v, _fv_scale(accel, dt))
    for k in kicks_at.get(times[-1], ()):
        v = _fv_add(v, _fvec(k.dv))
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
        self._poly: dict[int, FVec] = {}
        self._fpoly: dict[int, np.ndarray] = {}

    def separation(self, t) -> np.ndarray:
        t = Fraction(t)
        return _float3(self.piece_at(t).pos_at(t))

    def sample(self, t: np.ndarray) -> np.ndarray:
        """Vectorised dx(t) evaluation, floats, shape (N, 3)."""
        return super().sample(t)[0]

    def is_zero(self) -> bool:
        """True when dx(t) vanishes identically (exact, computed once)."""
        return self._zero

    @cached_property
    def _zero(self) -> bool:
        return all(c == _ZERO3 for p in self.pieces for c in p.pos)

    def scales(self) -> tuple[float, float]:
        """Rough magnitude of the separation and its velocity (for
        tolerances; computed once)."""
        return self._scales

    @cached_property
    def _scales(self) -> tuple[float, float]:
        c = np.abs(self._fpos)
        tm = self._tmax[:, None]
        xs = float(np.max(c[:, 0] + tm * c[:, 1] + (tm * tm) * c[:, 2]))
        vs = float(np.max(c[:, 1] + 2 * tm * c[:, 2]))
        return xs, vs

    def moment_poly_exact(self, p: int = 0) -> FVec:
        """Exact integral of t^p * dx(t) dt over the window (cached per p)."""
        total = self._poly.get(p)
        if total is None:
            total = _ZERO3
            for piece in self.pieces:
                for j, c in enumerate(piece.pos):
                    total = _fv_add(total, _fv_scale(
                        c, _power_moment(piece.t0, piece.t1, j + p)))
            self._poly[p] = total
        return total

    def moment_poly(self, p: int = 0) -> np.ndarray:
        """moment_poly_exact(p) rounded to doubles (a fresh array; the
        rounding is done once per p)."""
        value = self._fpoly.get(p)
        if value is None:
            value = self._fpoly[p] = _float3(self.moment_poly_exact(p))
        return value.copy()

    def rectified_area(self, direction) -> float:
        """int |dx(t) . direction| dt over the window.

        Each quadratic piece splits at its real roots, so the integral of
        the absolute value is exact up to the usual floating-point rounding.
        """
        parts = []
        for i, piece in enumerate(self.pieces):
            c = self._fpos[i] @ direction  # scalar quadratic (c0, c1, c2)
            t0, t1 = float(piece.t0), float(piece.t1)
            cuts = [t0]
            for r in _quad_roots(c[2], c[1], c[0]):
                if t0 < r < t1:
                    cuts.append(r)
            cuts.append(t1)
            cuts.sort()
            for u, w in zip(cuts, cuts[1:]):
                parts.append(abs(_poly_defint(c, u, w)))
        return math.fsum(parts)

    def collinear_with(self, direction) -> bool:
        """True when every position coefficient of every piece is parallel
        to the unit vector ``direction`` (to a relative 1e-12)."""
        c = self._fpos.reshape(-1, 3)
        norms = np.linalg.norm(c, axis=1)
        off = np.linalg.norm(np.cross(c, direction), axis=1)
        return not np.any((norms != 0.0) & (off > _COLLINEAR_RTOL * norms))

    def moment_trig(self, kind: str, omega: float) -> np.ndarray:
        """Integral of cos(omega t) or sin(omega t) times dx(t) dt: one row
        of `trig_moments`."""
        if kind not in ("cos", "sin"):
            raise SequenceError(f"unknown trig weight {kind!r}")
        ac, a_s = self.trig_moments((omega,))
        return ac[0] if kind == "cos" else a_s[0]

    def trig_moments(self, omegas) -> tuple[np.ndarray, np.ndarray]:
        """Cosine and sine quadratures (Ac, As) of dx(t) at every omega of a
        1-D array, each of shape (N, 3), in one vectorised pass.

        Piece p, with midpoint m, half-width h and dx = d0 + d1 u + d2 u^2
        in u = t - m, contributes e^{i omega m} (d0 C0 + d2 C2 + i d1 S1),
        where C0, S1 and C2 integrate cos(omega u), u sin(omega u) and
        u^2 cos(omega u) over [-h, h] (`_piece_integrals`). Each
        (omega, axis) sums its pieces with math.fsum (correctly rounded),
        and every other step is elementwise, so a row does not depend on
        the other omegas of the grid. omega = 0 gives moment_poly(0) and a
        zero sine quadrature; mirror parity +1 makes the sine quadrature a
        literal zero and -1 the cosine quadrature.
        """
        w = np.atleast_1d(np.asarray(omegas, dtype=float))
        if w.ndim != 1:
            raise SequenceError("omegas must be a 1-D array")
        bad = w[~np.isfinite(w)]
        if bad.size:
            raise SequenceError(f"omega must be finite, got {float(bad[0])}")
        if (w < 0).any():
            raise SequenceError("omega must be non-negative")
        ac = np.zeros((w.size, 3))
        a_s = np.zeros((w.size, 3))
        # the odd quadrature of a (anti)symmetric dx(t) vanishes identically
        parity = self.mirror_parity()
        want_cos, want_sin = parity != -1, parity != 1
        rows = max(1, _TRIG_PAIRS // len(self.pieces))
        for start in range(0, w.size, rows):
            block = slice(start, start + rows)
            c, s = self._trig_block(w[block], want_cos, want_sin)
            if want_cos:
                ac[block] = c
            if want_sin:
                a_s[block] = s
        zero = w == 0.0
        if zero.any():  # the exact area, not the series' float sum
            ac[zero] = self.moment_poly(0)
            a_s[zero] = 0.0
        return ac, a_s

    def _trig_block(self, w: np.ndarray, want_cos: bool, want_sin: bool):
        """Both quadratures on one block of omegas (None for a quadrature
        not wanted)."""
        mid, h, d = self._flocal
        f0, f1, f2 = _piece_integrals(w[:, None] * h)
        # the even part d0 C0 + d2 C2 and the odd part d1 S1, (N, pieces, 3)
        even = (d[:, 0] * (2 * h * f0)[..., None]
                + d[:, 2] * (2 * h ** 3 * f2)[..., None])
        odd = d[:, 1] * (2 * h ** 2 * f1)[..., None]
        phase = w[:, None] * mid
        cos_m, sin_m = np.cos(phase)[..., None], np.sin(phase)[..., None]
        return (_fsum_pieces(cos_m * even - sin_m * odd) if want_cos else None,
                _fsum_pieces(sin_m * even + cos_m * odd) if want_sin else None)

    @cached_property
    def _tmax(self) -> np.ndarray:
        """max(|t0|, |t1|) per piece, the time scale of `scales`."""
        return np.maximum(np.abs(self._ftimes[:-1]), np.abs(self._ftimes[1:]))

    @cached_property
    def _flocal(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Each piece about its midpoint: midpoints m and half-widths h,
        (pieces,), and the coefficients (dx, dx', dx''/2) at m,
        (pieces, 3, 3); each computed exactly and rounded once."""
        mid, half, coeffs = [], [], []
        for piece in self.pieces:
            m = (piece.t0 + piece.t1) / 2
            mid.append(float(m))
            half.append(float(piece.t1 - m))
            coeffs.append([_float3(piece.pos_at(m)), _float3(piece.vel_at(m)),
                           _float3(piece.pos[2])])
        return np.array(mid), np.array(half), np.array(coeffs)

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


class CacheInfo(NamedTuple):
    """Analysis-object lookups: ``hits`` found one on the sequence,
    ``misses`` built it."""

    hits: int
    misses: int


class SequenceAnalysis:
    """The exact and per-piece results of one sequence, each computed at
    most once.

    Built by `analysis` on a sequence's first query and kept on that
    instance for its lifetime. Construction integrates both arms and
    merges them into the `PathDifference`; every other result is computed
    on first use and kept. Nothing here depends on a caller's tolerance,
    g, rotation rate, frequency or waveform, and nothing here warns or
    raises: that logic stays with the per-call functions that read it.
    """

    def __init__(self, seq: InterferometerSequence):
        E = seq.horizon
        self.trajectories = (integrate_arm(seq.arm_a, E),
                             integrate_arm(seq.arm_b, E))
        self.path_difference = _merge(*self.trajectories)
        self.span = float(2 * E)    # window length as a double
        self._arms = seq.arms()
        self._k_hat = seq.params.k_hat

    @cached_property
    def closure_defect(self) -> tuple[np.ndarray, np.ndarray]:
        """Exact end (dx, dv) rounded to doubles; read-only arrays."""
        pd = self.path_difference
        return (_readonly(_float3(pd.end_position)),
                _readonly(_float3(pd.end_velocity)))

    @cached_property
    def kinetic_integral(self) -> float:
        """int (v_b^2 - v_a^2) dt, exact and then rounded."""
        ta, tb = self.trajectories
        return float(speed_squared_integral_exact(tb)
                     - speed_squared_integral_exact(ta))

    @cached_property
    def velocity_mirrors(self) -> tuple[bool, bool]:
        """(v_a(t) == v_b(-t), v_a(t) == -v_b(-t)), exact."""
        ta, tb = self.trajectories
        return (mirror_velocity_equal(ta, tb, +1),
                mirror_velocity_equal(ta, tb, -1))

    @cached_property
    def boundary_products(self) -> tuple[float | None, float | None]:
        """The exact products behind the separation phase, rounded:
        v0_b . x0_b - v0_a . x0_a, and dv(first event) . dx(end) when the
        arms end apart. None where a product is zero or absent."""
        arm_a, arm_b = self._arms
        start = dot_exact(arm_b.v0, arm_b.x0) - dot_exact(arm_a.v0, arm_a.x0)
        pd = self.path_difference
        events = arm_a.event_times() + arm_b.event_times()
        end = None
        if any(pd.end_position) and events:
            end = float(_fv_dot(pd.velocity_exact(min(events)),
                                pd.end_position))
        return (float(start) if start else None), end

    @cached_property
    def collinear(self) -> bool:
        """The separation moves along k_hat only (see
        `PathDifference.collinear_with`)."""
        return self.path_difference.collinear_with(self._k_hat)

    @cached_property
    def abs_area(self) -> float:
        """Rectified area int |dx(t) . k_hat| dt (m s)."""
        return self.path_difference.rectified_area(self._k_hat)

    @cached_property
    def self_cross(self) -> np.ndarray:
        """int (x_a x v_a - x_b x v_b) dt, exact and then rounded;
        read-only."""
        ta, tb = self.trajectories
        return _readonly(np.array([float(ca - cb) for ca, cb in zip(
            ta.self_cross_moment(), tb.self_cross_moment())]))


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


_lookups = [0, 0]   # analysis-object hits, misses


def analysis(seq: InterferometerSequence) -> SequenceAnalysis:
    """The sequence's `SequenceAnalysis`, built on the first call and kept
    on the instance (frozen sequences never change, and nothing is hashed
    to find it)."""
    found = seq.__dict__.get("_analysis")
    if found is None:
        _lookups[1] += 1
        found = SequenceAnalysis(seq)
        object.__setattr__(seq, "_analysis", found)
    else:
        _lookups[0] += 1
    return found


def arm_trajectories(seq: InterferometerSequence):
    """Both arms' exact trajectories over the sequence window (kept on
    the sequence's analysis object)."""
    return analysis(seq).trajectories


def path_difference(seq: InterferometerSequence) -> PathDifference:
    """Exact arm separation of a sequence (kept on the sequence's analysis
    object; ``path_difference.cache_info()`` counts its lookups)."""
    return analysis(seq).path_difference


def _cache_info() -> CacheInfo:
    return CacheInfo(*_lookups)


# the functools.lru_cache name, which tracing tools already read
path_difference.cache_info = _cache_info


def _merge(ta: PiecewiseTrajectory,
           tb: PiecewiseTrajectory) -> PathDifference:
    """dx = x_a - x_b on the union of both breakpoint grids."""
    grid = sorted(set(ta.times) | set(tb.times))
    pieces = []
    for u, w in zip(grid, grid[1:]):
        mid = (u + w) / 2
        pa = ta.piece_at(mid)
        pb = tb.piece_at(mid)
        pos = tuple(_fv_sub(ca, cb) for ca, cb in zip(pa.pos, pb.pos))
        pieces.append(_Piece(u, w, pos))
    return PathDifference(pieces, *end_difference(ta, tb))


def end_difference(ta: PiecewiseTrajectory,
                   tb: PiecewiseTrajectory) -> tuple[FVec, FVec]:
    """Exact (dx, dv) between two trajectories just after the last event."""
    return (_fv_sub(ta.end_position, tb.end_position),
            _fv_sub(ta.end_velocity, tb.end_velocity))


def dot_exact(u, v) -> Fraction:
    """Exact dot product of two 3-vectors of doubles or rationals."""
    return _fv_dot(_fvec(u), _fvec(v))


def space_time_area(seq: InterferometerSequence) -> np.ndarray:
    """Space-time area: time integral of the arm separation (m s)."""
    return path_difference(seq).moment_poly(0)


def space_time_area_exact(seq: InterferometerSequence) -> FVec:
    return path_difference(seq).moment_poly_exact(0)


def first_time_moment(seq: InterferometerSequence) -> np.ndarray:
    """Integral of t * dx(t) dt, the lever arm of the rotation coupling."""
    return path_difference(seq).moment_poly(1)


# ----------------------------------------------------------------------
# trig-weighted segment integrals, vectorised over (omega, piece) pairs
# ----------------------------------------------------------------------

def _quad_roots(a2: float, a1: float, a0: float) -> list[float]:
    """Real roots of a2 t^2 + a1 t + a0, numerically stable."""
    if a2 == 0.0:
        if a1 == 0.0:
            return []
        return [-a0 / a1]
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        return []
    sq = math.sqrt(disc)
    q = -0.5 * (a1 + math.copysign(sq, a1)) if a1 != 0.0 else 0.5 * sq
    if q == 0.0:
        return [0.0]  # double root at the origin
    return sorted({q / a2, a0 / q})


def _poly_defint(c, u: float, w: float) -> float:
    """Definite integral of c0 + c1 t + c2 t^2 over [u, w]."""
    def F(t):
        return t * (c[0] + t * (c[1] / 2.0 + t * c[2] / 3.0))
    return F(w) - F(u)


def _horner(y: np.ndarray, coeffs: tuple[float, ...]) -> np.ndarray:
    """sum_k coeffs[k] y^k, elementwise."""
    acc = np.full_like(y, coeffs[-1])
    for c in coeffs[-2::-1]:
        acc *= y
        acc += c
    return acc


def _piece_integrals(x: np.ndarray):
    """(f0, f1, f2) elementwise in x = omega * h >= 0, where

    f0 = int_0^1 cos(x v) dv = sin x / x,
    f1 = int_0^1 v sin(x v) dv = (f0 - cos x) / x,
    f2 = int_0^1 v^2 cos(x v) dv = f0 - 2 f1 / x,

    so that C0 = 2h f0, S1 = 2h^2 f1 and C2 = 2h^3 f2. The closed forms,
    written in powers of 1/x, hold at x >= _SERIES_X and stay finite up to
    the largest double; the Taylor series in x holds below it.
    """
    f0, f1, f2 = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    small = x < _SERIES_X
    xs = x[small]
    y = -xs * xs
    f0[small] = _horner(y, _F0)
    f1[small] = xs * _horner(y, _F1)
    f2[small] = _horner(y, _F2)
    xl = x[~small]
    g0 = np.sin(xl) / xl
    g1 = (g0 - np.cos(xl)) / xl
    f0[~small] = g0
    f1[~small] = g1
    f2[~small] = g0 - 2 * g1 / xl
    return f0, f1, f2


def _fsum_pieces(parts: np.ndarray) -> np.ndarray:
    """Correctly rounded sum over the pieces axis of (omegas, pieces, 3)."""
    n, npc, _ = parts.shape
    rows = parts.transpose(0, 2, 1).reshape(-1, npc).tolist()
    return np.array(list(map(math.fsum, rows))).reshape(n, 3)
