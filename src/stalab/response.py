"""Vibration transfer functions and acceleration sensitivity curves.

The cosine and sine quadrature areas Ac(omega), As(omega) are the trig-
weighted integrals of the arm separation; the dimensionless ratios R and
R* normalise them to the space-time area |A| (symmetric sequences) or to
the rectified area int |dx| dt (antisymmetric sequences). Closed-form
references for the standard configurations live at the bottom.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kinematics
from .errors import DegenerateSequence, SequenceError, ZeroArea
from .sequence import InterferometerSequence

# tolerance for deciding that the separation is collinear with k_hat
_COLLINEAR_RTOL = 1e-12


def transfer(seq: InterferometerSequence, omega: float):
    """Quadrature areas (Ac, As) at angular frequency omega (rad/s)."""
    ac, a_s = kinematics.path_difference(seq).trig_moments((omega,))
    return ac[0], a_s[0]


def _is_collinear(seq: InterferometerSequence) -> bool:
    khat = seq.params.k_hat
    pd = kinematics.path_difference(seq)
    for i in range(len(pd.pieces)):
        for c in pd.position_coeffs(i):
            n = float(np.linalg.norm(c))
            if n and float(np.linalg.norm(np.cross(c, khat))) > _COLLINEAR_RTOL * n:
                return False
    return True


def _project(khat: np.ndarray, vec: np.ndarray, collinear: bool) -> float:
    if collinear:
        return float(np.dot(vec, khat))
    return float(np.linalg.norm(vec))


def abs_area(seq: InterferometerSequence) -> float:
    """Rectified space-time area int |dx(t) . k_hat| dt (m s).

    Each quadratic piece splits at its real roots so the integral of the
    absolute value is exact up to the usual floating-point rounding.
    """
    pd = kinematics.path_difference(seq)
    khat = seq.params.k_hat
    parts = []
    for i, piece in enumerate(pd.pieces):
        c = pd.position_coeffs(i) @ khat  # scalar quadratic (c0, c1, c2)
        t0, t1 = float(piece.t0), float(piece.t1)
        cuts = [t0]
        for r in _quad_roots(c[2], c[1], c[0]):
            if t0 < r < t1:
                cuts.append(r)
        cuts.append(t1)
        cuts.sort()
        for u, w in zip(cuts, cuts[1:]):
            val = _poly_defint(c, u, w)
            parts.append(abs(val))
    return math.fsum(parts)


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


def sensitivity_R(seq: InterferometerSequence, omega: float) -> float:
    """|Ac(omega)| / |A|: relative response of area-carrying sequences."""
    area_exact = kinematics.space_time_area_exact(seq)
    if not any(area_exact):
        raise ZeroArea("space-time area is zero; use sensitivity_Rstar")
    collinear = _is_collinear(seq)
    khat = seq.params.k_hat
    area = _project(khat, kinematics.space_time_area(seq), collinear)
    ac, _ = transfer(seq, omega)
    return abs(_project(khat, ac, collinear)) / abs(area)


def sensitivity_Rstar(seq: InterferometerSequence, omega: float) -> float:
    """|As(omega)| / int |dx| dt: response of area-free sequences."""
    pd = kinematics.path_difference(seq)
    if pd.is_zero():
        raise DegenerateSequence("arm separation is identically zero")
    astar = abs_area(seq)
    if astar == 0.0:
        raise DegenerateSequence("rectified area along k_hat is zero")
    collinear = _is_collinear(seq)
    _, asin = transfer(seq, omega)
    return abs(_project(seq.params.k_hat, asin, collinear)) / astar


@dataclass(frozen=True)
class TransferFunctions:
    """Tabulated quadrature areas and sensitivity ratios on an omega grid."""

    omega: np.ndarray           # (N,) rad/s
    area_cos: np.ndarray        # (N, 3) m s
    area_sin: np.ndarray        # (N, 3) m s
    r: np.ndarray               # (N,) |Ac|/|A|, NaN when A = 0
    r_star: np.ndarray          # (N,) |As|/A*, NaN when A* = 0
    area: np.ndarray            # (3,) space-time area
    rectified_area: float       # A* = int |dx . k_hat| dt

    def to_csv(self) -> str:
        lines = ["omega,Ac_x,Ac_y,Ac_z,As_x,As_y,As_z,R,Rstar"]
        for i, w in enumerate(self.omega):
            cells = [f"{w:.17g}"]
            cells += [f"{v:.17g}" for v in self.area_cos[i]]
            cells += [f"{v:.17g}" for v in self.area_sin[i]]
            cells.append(f"{self.r[i]:.17g}")
            cells.append(f"{self.r_star[i]:.17g}")
            lines.append(",".join(cells))
        return "\n".join(lines) + "\n"


def _omega_grid(omega_min: float, omega_max: float, points: int,
                scale: str) -> np.ndarray:
    for name, value in (("omega_min", omega_min), ("omega_max", omega_max)):
        if not math.isfinite(value):
            raise SequenceError(f"{name} must be finite, got {value}")
    if not (0 <= omega_min < omega_max) or points < 2:
        raise SequenceError("need 0 <= omega_min < omega_max and points >= 2")
    if scale == "linear":
        return np.linspace(omega_min, omega_max, points)
    if scale == "log":
        if omega_min <= 0:
            raise SequenceError("log scale needs omega_min > 0")
        return np.geomspace(omega_min, omega_max, points)
    raise SequenceError(f"unknown scale {scale!r}")


def response_curve(seq: InterferometerSequence, omega_min: float,
                   omega_max: float, points: int,
                   scale: str = "linear") -> TransferFunctions:
    """Evaluate the transfer functions on a deterministic omega grid."""
    grid = _omega_grid(omega_min, omega_max, points, scale)
    pd = kinematics.path_difference(seq)
    collinear = _is_collinear(seq)
    khat = seq.params.k_hat
    area_vec = kinematics.space_time_area(seq)
    area_proj = _project(khat, area_vec, collinear)
    astar = abs_area(seq)

    ac, a_s = pd.trig_moments(grid)
    if area_proj != 0.0:
        r = np.abs([_project(khat, v, collinear) for v in ac]) / abs(area_proj)
    else:
        r = np.full(grid.size, np.nan)
    if astar != 0.0:
        rs = np.abs([_project(khat, v, collinear) for v in a_s]) / astar
    else:
        rs = np.full(grid.size, np.nan)
    return TransferFunctions(omega=grid, area_cos=ac, area_sin=a_s, r=r,
                             r_star=rs, area=area_vec, rectified_area=astar)


# ----------------------------------------------------------------------
# closed-form reference curves (signed components before taking |.|)
# ----------------------------------------------------------------------

def r_mz(omega, T) -> np.ndarray:
    """Mach-Zehnder sensitivity 4 sin^2(wT/2) / (wT)^2, stable at 0."""
    y = 0.5 * np.asarray(omega, dtype=float) * float(T)
    return np.sinc(y / np.pi) ** 2


def r_t3(omega, T) -> np.ndarray:
    """Pure-lattice (T^3) sensitivity 64 cos(wT/4) sin^3(wT/4) / (wT)^3.

    Signed: negative lobes flag response opposite to the static one.
    """
    y = 0.25 * np.asarray(omega, dtype=float) * float(T)
    return np.cos(y) * np.sinc(y / np.pi) ** 3


def r_cab(omega, T, eps) -> np.ndarray:
    """Boosted Mach-Zehnder sensitivity for area ratio eps = n_b / (2 n):
    R_mz/(1+eps) + R_t3/(1+1/eps), the T_r -> 0 limit."""
    eps = float(eps)
    return r_mz(omega, T) / (1.0 + eps) + r_t3(omega, T) / (1.0 + 1.0 / eps)


def rstar_butterfly(omega, T) -> np.ndarray:
    """Butterfly sine-quadrature ratio 32 sin^3(wT/4) cos(wT/4) / (wT)^2."""
    w = np.asarray(omega, dtype=float)
    y = 0.25 * w * float(T)
    return np.sinc(y / np.pi) ** 2 * np.sin(0.5 * w * float(T))
