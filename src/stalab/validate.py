"""Golden closed forms and oracle checks, shared with the acceptance suite.

Each ``check_*`` function takes its cases and tolerances and returns one
:class:`CheckResult` per case_id, holding that case_id's worst case.
``stalab validate`` runs them on the fixed cases of ``_CHECKS`` and prints
one line per result in the format
``case_id=... analytic=... oracle=... abs_err=... rel_err=... verdict=...``;
the acceptance suite runs them on its own seeds, grids and tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

import numpy as np

from . import kinematics, oracle, phase, response
from .sequence import (PhysicalParams, build_butterfly, build_cab,
                       build_cab_kicktrain, build_const_accel_recoil,
                       build_mach_zehnder, build_recoil_triangle)


@dataclass(frozen=True)
class CheckResult:
    case_id: str
    analytic: float
    oracle: float
    tol: float
    rel_err: float

    @property
    def abs_err(self) -> float:
        return abs(self.analytic - self.oracle)

    @property
    def passed(self) -> bool:
        return self.rel_err <= self.tol

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (f"case_id={self.case_id} analytic={self.analytic:.12e} "
                f"oracle={self.oracle:.12e} abs_err={self.abs_err:.3e} "
                f"rel_err={self.rel_err:.3e} verdict={verdict}")


Measure = Callable[[float, float], float]


def rel_larger(analytic: float, reference: float) -> float:
    """Error relative to the larger magnitude of the two."""
    return abs(analytic - reference) / max(abs(analytic), abs(reference),
                                           1e-300)


def rel_reference(analytic: float, reference: float) -> float:
    """Error relative to |reference|."""
    return abs(analytic - reference) / abs(reference)


def floored(floor: float) -> Measure:
    """Error relative to max(reference, floor), for |R|-type references."""
    return lambda got, gold: abs(got - gold) / max(gold, floor)


def scored(analytic: float, reference: float,
           measure: Measure = rel_larger) -> tuple[float, float, float]:
    return analytic, reference, measure(analytic, reference)


def worst(case_id: str, tol: float, rows: Iterable[tuple]) -> CheckResult:
    """The first of the (analytic, reference, rel_err) rows whose rel_err
    is largest."""
    found = None
    for row in rows:
        if found is None or row[2] > found[2]:
            found = row
    return CheckResult(case_id, found[0], found[1], tol, found[2])


def _params(n: int = 1) -> PhysicalParams:
    return PhysicalParams.rubidium87(n=n)


G0 = 9.8  # m/s^2, along k_hat in all stock checks
T0 = Fraction(1, 10)


def const_accel_phase(p: PhysicalParams, T, n_b: int, gamma: float) -> float:
    """Constant-acceleration recoil phase 8/3 n_b^2 omega_r T - n_b k gamma T^2
    (ramps of 2 n_b recoils per half)."""
    return (8.0 / 3.0 * n_b**2 * p.recoil_frequency * float(T)
            - n_b * p.k_mag * gamma * float(T) ** 2)


def const_accel_phase_t3(p: PhysicalParams, T, n_b: int,
                         gamma: float) -> float:
    """The same phase as (2 omega_r / (3 tau^2) - k gamma / (2 tau)) T^3,
    tau = T / (2 n_b)."""
    tau = float(Fraction(T) / (2 * n_b))
    return (2.0 * p.recoil_frequency / (3.0 * tau**2)
            - p.k_mag * gamma / (2.0 * tau)) * float(T) ** 3


def check_phase(cases, tol: float = 1e-12,
                measure: Measure = rel_larger) -> list[CheckResult]:
    """Total phase of the Mach-Zehnder (n_b = 0) or lattice-boosted
    sequence against 2 (n + n_b (1/2 - 2 T_r / T)) k gamma T^2 and the
    action oracle, and a boosted sequence's area against its kick-train
    twin; ``cases`` are (n, T, n_b, T_r, gamma), g = gamma k_hat, all of
    one kind."""
    form, action, train = [], [], []
    for n, T, n_b, T_r, gamma in cases:
        p = _params(n)
        g = tuple(gamma * p.k_hat)
        seq = (build_cab(p, T, n_b, T_r=T_r, g=g) if n_b
               else build_mach_zehnder(p, T, g=g))
        total = phase.total_phase(seq).total
        expected = (2.0 * (p.n + n_b * (0.5 - 2.0 * float(T_r) / float(T)))
                    * p.k_mag * gamma * float(T) ** 2)
        form.append(scored(total, expected, measure))
        action.append(scored(total, oracle.action_phase(seq), measure))
        if n_b:
            rep = oracle.kicktrain_equivalence(
                seq, build_cab_kicktrain(p, T, n_b, T_r=T_r, g=g))
            train.append((float(np.linalg.norm(rep.area_continuous)),
                          float(np.linalg.norm(rep.area_kicktrain)),
                          rep.area_rel_err))
    name = "cab" if train else "mz"
    return [worst(f"{name}/phase-closed-form", tol, form),
            worst(f"{name}/phase-action-oracle", 1e-9, action)] + (
        [worst("cab/kicktrain-area", 1e-12, train)] if train else [])


def check_transfer_golden(name: str, T, omegas,
                          measure: Measure = floored(1e-12),
                          quadrature: bool = False) -> CheckResult:
    """R of the ``name`` ("mz" or 6-cycle "cab", T_r = 0) sequence against
    r_mz / r_cab; with ``quadrature`` R is the oracle's |Ac_z / A_z|."""
    p = _params()
    mz = name == "mz"
    seq = build_mach_zehnder(p, T) if mz else build_cab(p, T, 6, T_r=0)
    area = kinematics.space_time_area(seq)[2]
    rows = []
    for w in omegas:
        gold = (response.r_mz(w, T) if mz
                else response.r_cab(w, T, 6 / (2.0 * p.n)))
        if quadrature:
            got = abs(oracle.quadrature_transfer(seq, w)[0][2] / area)
        else:
            got = response.sensitivity_R(seq, w)
        rows.append(scored(got, abs(float(gold)), measure))
    kind = "quadrature-golden" if quadrature else "golden"
    return worst(f"{name}/transfer-{kind}", 1e-8, rows)


def check_butterfly(n: int, T, omegas,
                    measure: Measure = floored(1e-10)) -> list[CheckResult]:
    """Butterfly space-time area (exactly zero) and R* against
    rstar_butterfly."""
    seq = build_butterfly(_params(n), T)
    area = np.asarray(kinematics.space_time_area(seq))
    rows = [scored(response.sensitivity_Rstar(seq, w),
                   abs(float(response.rstar_butterfly(w, T))), measure)
            for w in omegas]
    return [CheckResult("butterfly/area-zero", float(np.linalg.norm(area)),
                        0.0, 0.0, float(area.any())),
            worst("butterfly/rstar-golden", 1e-8, rows)]


def check_recoil(n: int, T, n_b: int, tol: float = 1e-12,
                 measure: Measure = rel_larger) -> list[CheckResult]:
    """Recoil-triangle kinetic phase and the constant-acceleration phase
    (ramps of 2 n_b recoils per half, g = G0 k_hat) against both of its
    closed forms."""
    p = _params(n)
    kin = phase.kinetic_phase(build_recoil_triangle(p, T))
    a = 2.0 * p.hbar * p.k_mag / (p.m * float(Fraction(T) / (2 * n_b)))
    seq = build_const_accel_recoil(p, T, a, g=tuple(G0 * p.k_hat))
    total = phase.total_phase(seq).total
    return [
        worst("recoil/triangle-kinetic", tol,
              [scored(kin, 8.0 * p.n**2 * p.recoil_frequency * float(T),
                      measure)]),
        worst("recoil/const-accel-phase", 1e-10,
              [scored(total, const_accel_phase(p, T, n_b, G0), measure)]),
        worst("recoil/const-accel-T3-form", 1e-10,
              [scored(total, const_accel_phase_t3(p, T, n_b, G0), measure)]),
    ]


def check_separation(offsets, closed,
                     measure: Measure = rel_larger) -> list[CheckResult]:
    """Separation phase of an n = 2 Mach-Zehnder whose final pulse moves by
    each of ``offsets``, and exact zeros for the ``closed`` builders."""
    p = _params(n=2)
    out = []
    for dt in offsets:
        got = phase.separation_phase(
            build_mach_zehnder(p, T0, last_pulse_offset=dt))
        expected = 8.0 * p.n**2 * p.recoil_frequency * float(dt)
        out.append(worst(f"separation/timing-offset({float(dt):+.0e})", 1e-9,
                         [scored(got, expected, measure)]))
    # against an exact zero any nonzero value scores 1 on rel_larger
    zeros = [scored(phase.separation_phase(build(p, T0)), 0.0)
             for build in closed]
    out.append(worst("separation/closed-zero", 0.0, zeros))
    return out


def check_sagnac(cases, total: bool = False, tol: float = 1e-10,
                 measure: Measure = rel_larger) -> list[CheckResult]:
    """Rotation phase of the Mach-Zehnder and 4-cycle lattice-boosted
    sequences (g = G0 k_hat) against its closed form and the rotation
    oracle; ``cases`` are (Omega, v_i). With ``total`` the closed form is
    checked on the total phase, g term included, else on sagnac_phase."""
    p = _params()
    g = tuple(G0 * p.k_hat)
    T = float(T0)
    # lever arm of k.(g - 2 Omega x v_i): 2 n T^2, plus T^3 / (2 tau) with
    # tau = T / 8 for the lattice
    levers = {"mz": 2.0 * p.n * T ** 2,
              "cab": 2.0 * p.n * T ** 2 + T ** 3 / (2 * (T / 8))}
    form = {"mz": [], "cab": []}
    brute = {"mz": [], "cab": []}
    for rot, v_i in cases:
        gv = np.asarray(g if total else (0.0, 0.0, 0.0)) \
            - 2.0 * np.cross(rot, v_i)
        k_gv = float(np.dot(p.k_mag * p.k_hat, gv))
        common = dict(g=g, omega=rot, v_i=v_i)
        for name, seq in (("mz", build_mach_zehnder(p, T0, **common)),
                          ("cab", build_cab(p, T0, 4, T_r=0, **common))):
            sag = phase.sagnac_phase(seq)
            got = phase.total_phase(seq).total if total else sag
            form[name].append(scored(got, levers[name] * k_gv, measure))
            brute[name].append(scored(sag, oracle.sagnac_oracle(seq)))
    return [r for name in ("mz", "cab")
            for r in (worst(f"sagnac/{name}-closed-form", tol, form[name]),
                      worst(f"sagnac/{name}-oracle", 1e-8, brute[name]))]


def check_decomposition(rng: np.random.Generator, cases: int,
                        g_max: float) -> list[CheckResult]:
    """separation + kinetic + inertial against the action oracle on random
    closed sequences, g uniform in [-g_max, g_max] along k_hat."""
    p = _params()
    rows = []
    for _ in range(cases):
        seq = oracle.random_closed_sequence(rng, p, T0)
        g = tuple(float(rng.uniform(-g_max, g_max)) * p.k_hat)
        analytic = math.fsum((phase.separation_phase(seq),
                              phase.kinetic_phase(seq),
                              phase.inertial_phase(seq, g)))
        rows.append(scored(analytic, oracle.action_phase(seq, g)))
    return [worst("decomposition/randomized", 1e-9, rows)]


def check_symmetry(rng: np.random.Generator,
                   cases: int) -> list[CheckResult]:
    """Kinetic phase of ``cases`` random mirrored sequences of each kind,
    relative to the arms' own kinetic action; reports the worst ratio."""
    p = _params()
    rows = []
    for kind in ("i", "ii"):
        for _ in range(cases):
            seq = oracle.random_mirrored_sequence(rng, p, T0, kind)
            ta, tb = kinematics.arm_trajectories(seq)
            scale = 0.5 * p.m / p.hbar * float(
                kinematics.speed_squared_integral_exact(ta)
                + kinematics.speed_squared_integral_exact(tb))
            rel = abs(phase.kinetic_phase(seq)) / max(scale, 1e-300)
            rows.append((rel, 0.0, rel))
    return [worst("symmetry/kinetic-cancellation", 1e-12, rows)]


# ----------------------------------------------------------------------
# the fixed cases of `stalab validate`
# ----------------------------------------------------------------------

def _check_mz_transfer() -> list[CheckResult]:
    omegas = np.geomspace(0.3 / float(T0), 33.0 / float(T0), 40)
    seq = build_mach_zehnder(_params(), T0)
    rows = []
    for w in omegas:
        ac, _ = response.transfer(seq, w)
        qc, _ = oracle.quadrature_transfer(seq, w)
        scale = max(np.max(np.abs(ac)), 1e-18)
        rows.append((float(ac[2]), float(qc[2]),
                     float(np.max(np.abs(ac - qc))) / scale))
    return [check_transfer_golden("mz", T0, omegas),
            worst("mz/transfer-quadrature", 1e-8, rows)]


def _check_cab() -> list[CheckResult]:
    T = Fraction(1, 8)
    omegas = np.linspace(0.7 / float(T), 30.0 / float(T), 40)
    return check_phase([(1, T, 5, Fraction(1, 400), G0)]) + [
        check_transfer_golden("cab", T, omegas)]


def _check_laser() -> list[CheckResult]:
    p = _params(n=3)
    phis, bp = (0.21, -0.4, 1.13), (0.3, -0.7, 0.11, 0.5)
    mz = build_mach_zehnder(p, T0, phases=phis)
    cab = build_cab(p, T0, 4, T_r=Fraction(1, 200), phases=phis,
                    bloch_phases=bp)
    expected = p.n * (phis[0] - 2 * phis[1] + phis[2])
    return [worst("laser/mz-pattern", 1e-12,
                  [scored(phase.laser_phase(mz), expected)]),
            worst("laser/cab-pattern", 1e-12,
                  [scored(phase.laser_phase(cab),
                          expected + 4 * (bp[0] - bp[1] - bp[2] + bp[3]))])]


_CHECKS: dict[str, Callable[[], list[CheckResult]]] = {
    "mz/phase": lambda: check_phase([(2, T0, 0, 0, G0)]),
    "mz/transfer": _check_mz_transfer,
    "cab": _check_cab,
    "butterfly": lambda: check_butterfly(  # T = 1/5 s
        1, Fraction(1, 5), np.linspace(0.4 / 0.2, 25.0 / 0.2, 40)),
    "laser": _check_laser,
    "recoil": lambda: check_recoil(2, Fraction(3, 25), 7),
    "separation": lambda: check_separation(
        (Fraction(1, 10**6), -Fraction(1, 10**6)), (build_mach_zehnder,)),
    "sagnac": lambda: check_sagnac([((7.292e-5, 0.0, 0.0), (0.0, 0.25, 0.0))]),
    "decomposition": lambda: check_decomposition(np.random.default_rng(0),
                                                 20, 15.0),
    "symmetry": lambda: check_symmetry(np.random.default_rng(1), 10),
}


def run_checks(filter_substr: str = "") -> list[CheckResult]:
    """Run the check groups whose name contains ``filter_substr``."""
    results: list[CheckResult] = []
    for group, check in _CHECKS.items():
        if filter_substr and filter_substr not in group:
            continue
        results.extend(check())
    return results
