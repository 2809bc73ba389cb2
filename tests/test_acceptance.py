"""Acceptance suite: one test per criterion, each printing a verdict line.

The golden closed forms and their checks live in :mod:`stalab.validate`;
each criterion runs them on its own seeds, grids, tolerances and runtime
gates. Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion lines. Tolerances are fixed here, not tuned at runtime.
"""

import time
from fractions import Fraction

import numpy as np

import stalab as st
from stalab import validate
from stalab.validate import floored, rel_reference, scored, worst


def _report(num, label, start, results, max_seconds=None):
    elapsed = time.perf_counter() - start
    ok = all(r.passed for r in results) \
        and (max_seconds is None or elapsed < max_seconds)
    verdict = "PASS" if ok else "FAIL"
    detail = " ".join(f"{r.case_id}={r.rel_err:.2e}" for r in results)
    print(f"[criterion {num}] {verdict} {label} ({elapsed:.2f} s) {detail}")
    assert ok, f"criterion {num}: {label}: {detail}"


def test_criterion_1_mach_zehnder_phase():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    cases = [(int(rng.integers(1, 11)),
              Fraction(int(rng.integers(1, 1001)), 1000), 0, 0,
              float(rng.uniform(0.5, 20.0))) for _ in range(20)]
    results = validate.check_phase(cases, tol=1e-9, measure=rel_reference)
    _report(1, "mach-zehnder phase", start, results, max_seconds=1.0)


def test_criterion_2_cab_phase_and_kicktrain():
    rng = np.random.default_rng(202)
    start = time.perf_counter()
    cases = []
    for _ in range(20):
        n, n_b = int(rng.integers(1, 5)), int(rng.integers(1, 16))
        T = Fraction(int(rng.integers(40, 400)), 1000)
        cases.append((n, T, n_b, T * int(rng.integers(0, 12)) / 100,
                      float(rng.uniform(0.5, 15.0))))
    results = validate.check_phase(cases, tol=1e-9, measure=rel_reference)
    _report(2, "lattice-boosted phase + kick-train area", start, results)


def test_criterion_3_butterfly():
    start = time.perf_counter()
    p = st.PhysicalParams.rubidium87(n=2)
    T = Fraction(1, 8)
    results = validate.check_butterfly(
        2, T, np.linspace(0.21 / float(T), 36.0 / float(T), 200),
        measure=floored(1e-12))

    seq = st.build_butterfly(p, T)
    a_s = 0.47
    rows = []
    for wT in (0.002, 0.01, 0.03, 0.049):
        w = wT / float(T)
        wave = st.Waveform(sines=(((0.0, 0.0, a_s), w),))
        got = st.inertial_phase_timevarying(seq, wave)
        approx = p.n * p.k_mag * a_s * w * float(T) ** 3 / 2.0
        rows.append(scored(got, approx, rel_reference))
    results.append(worst("butterfly/low-frequency", 0.01, rows))
    _report(3, "butterfly area / R* / low-frequency response", start,
            results)


def test_criterion_4_transfer_golden_forms():
    start = time.perf_counter()
    T = Fraction(1, 10)

    def measure(got, gold):
        # 1e-8 relative with the documented 1e-12 absolute floor, which
        # only matters within rounding distance of the transfer zeros
        return abs(got - gold) / (max(gold, got) + 1e-4)

    omegas = np.linspace(0.17 / float(T), 40.0 / float(T), 200)
    results = [validate.check_transfer_golden(name, T, omegas, measure,
                                              quadrature)
               for name in ("mz", "cab") for quadrature in (False, True)]
    _report(4, "transfer-function golden forms", start, results,
            max_seconds=5.0)


def test_criterion_5_recoil_results():
    start = time.perf_counter()
    p = st.PhysicalParams.rubidium87(n=3)
    T, n_b = Fraction(3, 20), 9
    results = validate.check_recoil(3, T, n_b, tol=1e-10,
                                    measure=rel_reference)
    direct = validate.const_accel_phase(p, T, n_b, validate.G0)
    rewritten = validate.const_accel_phase_t3(p, T, n_b, validate.G0)
    results.append(worst("recoil/T3-rewrite", 1e-10,
                         [scored(direct, rewritten, rel_reference)]))
    _report(5, "recoil-sensitive configurations", start, results)


def test_criterion_6_separation_phase():
    start = time.perf_counter()
    offsets = (Fraction(1, 10**6), -Fraction(1, 10**6),
               Fraction(1, 10**5), -Fraction(1, 10**5))
    closed = (st.build_mach_zehnder, st.build_butterfly,
              st.build_recoil_triangle,
              lambda p, T: st.build_cab(p, T, 4, T_r=0),
              lambda p, T: st.build_const_accel_recoil(p, T, 0.2))
    results = validate.check_separation(offsets, closed,
                                        measure=rel_reference)
    _report(6, "separation phase", start, results)


def test_criterion_7_sagnac():
    start = time.perf_counter()
    rng = np.random.default_rng(707)
    p = st.PhysicalParams.rubidium87()
    cases = []
    for _ in range(6):
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        rot = tuple(float(rng.uniform(0.1, 1.0)) * 7.3e-5 * direction)
        v_perp = np.cross(p.k_hat, rng.normal(size=3))
        cases.append((rot, tuple(0.4 * v_perp
                                 / max(np.linalg.norm(v_perp), 1e-9))))
    results = validate.check_sagnac(cases, total=True, tol=1e-8,
                                    measure=rel_reference)
    _report(7, "rotation response", start, results)


def test_criterion_8_property_suites():
    start = time.perf_counter()
    p = st.PhysicalParams.rubidium87()
    T = Fraction(1, 10)
    rng = np.random.default_rng(808)

    # (a) velocity mirror symmetries cancel the kinetic term
    results = validate.check_symmetry(rng, 25)

    # (b) separation parity kills the matching quadrature everywhere
    rows = []
    for kind, trig in (("i", "sin"), ("ii", "cos")):
        for _ in range(15):
            seq = st.random_mirrored_sequence(rng, p, T, kind)
            pd = st.path_difference(seq)
            xs, _ = pd.scales()
            span = float(pd.end - pd.start)
            for w in rng.uniform(0.0, 50.0 / float(T), 3):
                moment = pd.moment_trig(trig, w)
                rel = float(np.max(np.abs(moment))) / max(xs * span, 1e-300)
                rows.append((rel, 0.0, rel))
    results.append(worst("parity/quadrature-cancellation", 1e-12, rows))

    # (c) decomposition identity against the action oracle
    results += validate.check_decomposition(rng, 100, 12.0)
    _report(8, "property suites", start, results, max_seconds=60.0)
