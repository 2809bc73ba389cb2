"""Brute-force validators: action integration, oscillatory quadrature,
lattice representation equivalence, rotation Lagrangian."""

import math
from fractions import Fraction

import numpy as np
import pytest

import stalab as st
from stalab.errors import ToleranceNotMet


class TestActionPhase:
    def test_mz_reproduces_closed_form(self, params, T, g_down):
        seq = st.build_mach_zehnder(params, T, g=g_down)
        expected = 2 * params.n * params.k_mag * 9.8 * float(T) ** 2
        assert st.action_phase(seq) == pytest.approx(expected, rel=1e-9)

    def test_triangle_without_gravity(self, params_n2, T):
        seq = st.build_recoil_triangle(params_n2, T)
        expected = 8 * params_n2.n**2 * params_n2.recoil_frequency * float(T)
        assert st.action_phase(seq) == pytest.approx(expected, rel=1e-9)

    def test_identical_arms_zero(self, params, T):
        kicks = (st.ImpulseKick(0, (0, 0, 0.01)),)
        seq = st.InterferometerSequence(
            params, T, st.ArmTimeline("a", kicks=kicks),
            st.ArmTimeline("b", kicks=kicks))
        assert st.action_phase(seq, g=(0, 0, 9.8)) == 0.0

    def test_oscillating_g_matches_transfer(self, params, T):
        seq = st.build_mach_zehnder(params, T)
        a_c = (0.0, 0.0, 0.84)
        w = 55.0
        wave = st.Waveform(cosines=((a_c, w),))
        got = st.action_phase(seq, g=wave)
        expected = st.inertial_phase_timevarying(seq, wave)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_unconverged_grid_raises(self, params, T):
        seq = st.build_mach_zehnder(params, T)
        wave = st.Waveform(cosines=(((0, 0, 1.0), 4000.0),))
        cfg = st.OracleConfig(grid_points=4, nodes_per_period=1,
                              rel_tol=1e-14)
        with pytest.raises(ToleranceNotMet):
            st.action_phase(seq, g=wave, cfg=cfg)


def _simpson_1d(values, dx):
    v = values.astype(np.longdouble)
    acc = v[0] + v[-1] + 4.0 * v[1:-1:2].sum() + 2.0 * v[2:-1:2].sum()
    return float(acc * dx / 3.0)


def _per_piece_quadrature(pd, omega):
    """quadrature_transfer as it was before its passes were vectorised:
    per piece, dx sampled through pd.sample, one Simpson sum per axis;
    the same node floor, doubling and default tolerances."""
    cfg = st.OracleConfig()
    xs, _ = pd.scales()
    span = float(pd.end - pd.start)
    floor = (cfg.floor_rel + 64.0 * np.finfo(float).eps) * xs * span

    def one_pass(n_base):
        n = n_base + n_base % 2
        ac, a_s = np.zeros(3), np.zeros(3)
        for piece in pd.pieces:
            t = np.linspace(float(piece.t0), float(piece.t1), n + 1)
            dx = pd.sample(t)
            h = float(piece.t1 - piece.t0) / n
            ac += [_simpson_1d(np.cos(omega * t) * dx[:, i], h)
                   for i in range(3)]
            a_s += [_simpson_1d(np.sin(omega * t) * dx[:, i], h)
                    for i in range(3)]
        return ac, a_s

    span_max = max(float(p.t1 - p.t0) for p in pd.pieces)
    n = max(64, int(cfg.nodes_per_period * omega * span_max
                    / (2.0 * math.pi)) + 2)
    prev = one_pass(n)
    while True:
        n *= 2
        cur = one_pass(n)
        err = max(np.max(np.abs(cur[0] - prev[0])),
                  np.max(np.abs(cur[1] - prev[1])))
        scale = max(np.max(np.abs(cur[0])), np.max(np.abs(cur[1])))
        if err <= max(floor, cfg.rel_tol * scale):
            return cur
        prev = cur


class TestQuadratureTransfer:
    def test_matches_closed_form_on_mz(self, params, T):
        seq = st.build_mach_zehnder(params, T)
        pd = st.path_difference(seq)
        xs, _ = pd.scales()
        floor = 1e-12 * xs * float(pd.end - pd.start)
        for w in np.geomspace(0.05, 100.0, 100) / float(T):
            ac, _ = st.transfer(seq, w)
            qc, _ = st.quadrature_transfer(seq, w)
            assert np.max(np.abs(ac - qc)) <= 1e-8 * np.max(np.abs(ac)) + floor

    def test_matches_per_piece_loop(self, params, T):
        # the vectorised passes against one Simpson pass per piece that
        # samples dx through pd.sample; they differ only in the polynomial
        # used at a breakpoint (a few eps * xs per node, weighted h/3) and
        # in the long-double summation order, which can move the rounded
        # result by an ulp
        seqs = (st.build_cab(params, T, 8), st.build_cab_kicktrain(params, T, 4),
                st.random_closed_sequence(np.random.default_rng(3), params, T,
                                          collinear=False))
        for seq in seqs:
            pd = st.path_difference(seq)
            xs, _ = pd.scales()
            floor = 1e-17 * xs * float(pd.end - pd.start)
            for w in (0.0, 37.0, 3000.0):
                got = st.quadrature_transfer(seq, w)
                for q, ref in zip(got, _per_piece_quadrature(pd, w)):
                    tol = 4 * np.finfo(float).eps * np.max(np.abs(ref))
                    assert np.max(np.abs(q - ref)) <= tol + floor

    def test_zero_frequency_is_area(self, params, T):
        seq = st.build_cab(params, T, 4, T_r=0)
        qc, qs = st.quadrature_transfer(seq, 0.0)
        np.testing.assert_allclose(qc, st.space_time_area(seq), rtol=1e-12)
        np.testing.assert_allclose(qs, 0.0, atol=1e-18)

    def test_butterfly_cosine_cancels(self, params, T):
        seq = st.build_butterfly(params, T)
        vr = params.recoil_velocity[2]
        for w in (3.0, 40.0, 210.0):
            qc, _ = st.quadrature_transfer(seq, w)
            assert np.max(np.abs(qc)) <= 1e-12 * vr * float(T) ** 2


class TestKicktrainEquivalence:
    def test_whole_cycle_area_match(self, params, T, g_down):
        n_b = 5
        cont = st.build_cab(params, T, n_b, T_r=Fraction(1, 400), g=g_down)
        train = st.build_cab_kicktrain(params, T, n_b, T_r=Fraction(1, 400),
                                       g=g_down)
        report = st.kicktrain_equivalence(cont, train)
        assert report.area_rel_err <= 1e-12

    def test_partial_cycles_reported_not_asserted(self, params, g_down):
        # a window of 4.5 cycles drops the fraction: areas now differ
        T = Fraction(1, 10)
        tau_b = Fraction(1, 90)  # (T - 4*T_r)/(2 tau_b) = 4.5
        cont = st.build_cab(params, T, 4, tau_b=tau_b, T_r=0, g=g_down,
                            rel_tol=0.2)
        train = st.build_cab_kicktrain(params, T, 4, tau_b=tau_b, T_r=0,
                                       g=g_down, rel_tol=0.2)
        report = st.kicktrain_equivalence(cont, train)
        assert report.area_rel_err > 1e-6

    def test_zero_cycles_identical(self, params, T, g_down):
        cont = st.build_cab(params, T, 0, g=g_down)
        train = st.build_cab_kicktrain(params, T, 0, g=g_down)
        report = st.kicktrain_equivalence(cont, train)
        assert report.area_rel_err == 0.0
        assert report.phase_abs_diff == 0.0


class TestSagnacOracle:
    def test_zero_rotation(self, params, T):
        assert st.sagnac_oracle(st.build_mach_zehnder(params, T)) == 0.0

    def test_mz_rotation_term(self, params, T):
        rot = (7.292e-5, 0.0, 0.0)
        v_i = (0.0, 0.4, 0.0)
        seq = st.build_mach_zehnder(params, T, omega=rot, v_i=v_i)
        got = st.sagnac_oracle(seq)
        expected = -4 * params.n * float(T) ** 2 * np.dot(
            params.k_mag * params.k_hat, np.cross(rot, v_i))
        assert got == pytest.approx(expected, rel=1e-10)

    def test_randomized_agreement_with_closed_form(self, params, T, rng):
        for _ in range(5):
            seq0 = st.random_closed_sequence(rng, params, T)
            seq = st.InterferometerSequence(
                params, T, seq0.arm_a, seq0.arm_b,
                g=tuple(rng.uniform(-5, 5, 3)),
                omega=tuple(rng.uniform(-7e-5, 7e-5, 3)),
                v_i=tuple(rng.uniform(-0.5, 0.5, 3)))
            a = st.sagnac_phase(seq)
            b = st.sagnac_oracle(seq)
            assert a == pytest.approx(b, rel=1e-8, abs=1e-14)


class TestRandomGenerators:
    def test_random_closed_sequence_closes(self, params, T, rng):
        for _ in range(5):
            seq = st.random_closed_sequence(rng, params, T)
            assert st.is_closed(seq)

    def test_mirrored_kind_i_exact(self, params, T, rng):
        for _ in range(5):
            seq = st.random_mirrored_sequence(rng, params, T, "i")
            assert st.Symmetry.VELOCITY_MIRROR in st.symmetry_class(seq)
            dx, dv = st.closure_defect(seq)
            assert not dx.any() and not dv.any()

    def test_mirrored_kind_ii_symmetry(self, params, T, rng):
        for _ in range(5):
            seq = st.random_mirrored_sequence(rng, params, T, "ii")
            assert st.kinetic_phase(seq) == pytest.approx(0.0, abs=1e-9)
            assert st.is_closed(seq, rel_tol=1e-7)


class TestReferenceTrigMoments:
    """The float trig-moment kernel against 80-digit exact antiderivatives."""

    @staticmethod
    def _worst(seq, omegas) -> float:
        pd = st.path_difference(seq)
        xs, _ = pd.scales()
        scale = xs * float(pd.end - pd.start)
        ac, a_s = pd.trig_moments(omegas)
        worst = 0.0
        for k, w in enumerate(omegas):
            rc, rs = st.reference_trig_moments(seq, float(w))
            worst = max(worst, float(np.max(np.abs(ac[k] - rc))),
                        float(np.max(np.abs(a_s[k] - rs))))
        return worst / scale

    def test_random_sequences(self, params, T):
        pytest.importorskip("mpmath")
        omegas = np.geomspace(0.1, 1e5, 40)
        for seed in range(4):
            seq = st.random_closed_sequence(np.random.default_rng(seed),
                                            params, T,
                                            collinear=bool(seed % 2))
            assert self._worst(seq, omegas) <= 1e-15

    def test_long_kick_train(self, params, T):
        pytest.importorskip("mpmath")
        seq = st.build_cab_kicktrain(params, T, 64)
        assert self._worst(seq, np.geomspace(0.1, 1e5, 12)) <= 1e-15

    def test_zero_frequency_is_the_area(self, params, T):
        pytest.importorskip("mpmath")
        seq = st.build_cab_kicktrain(params, T, 4)
        rc, rs = st.reference_trig_moments(seq, 0.0)
        np.testing.assert_array_equal(rc, st.space_time_area(seq))
        assert not rs.any()


class TestRandomClosedSequence:
    def test_drafts_integrated_uncached(self, params, T, monkeypatch):
        from stalab import kinematics

        labels = []
        original = kinematics.integrate_arm

        def counting(arm, *args, **kwargs):
            labels.append(arm.label)
            return original(arm, *args, **kwargs)

        monkeypatch.setattr(kinematics, "integrate_arm", counting)
        before = kinematics.path_difference.cache_info()
        st.random_closed_sequence(np.random.default_rng(11), params, T)
        after = kinematics.path_difference.cache_info()
        # arm a once, arm b once per correction kick
        assert labels == ["a", "b", "b"]
        # no analysis object was built or looked up
        assert after == before

    def test_same_rng_same_sequence(self, params, T):
        # seeded draws feed benchmarks and property suites; the corrections
        # below are the values this generator has always produced
        seq = st.random_closed_sequence(np.random.default_rng(11), params, T)
        (t_c, dv_c), (t_p, dv_p) = [(k.t, k.dv) for k in seq.arm_b.kicks[-2:]]
        assert (t_c, t_p) == (Fraction(209, 2100), Fraction(1, 10))
        assert dv_c == (0.0, 0.0, 18.269282525106792)
        assert dv_p == (0.0, 0.0, -18.208362556804413)
        assert seq == st.random_closed_sequence(np.random.default_rng(11),
                                                params, T)


class TestRandomMirroredSequence:
    @pytest.mark.parametrize("kind,drafts", [("i", 2), ("ii", 3)])
    def test_drafts_integrated_uncached(self, params, T, monkeypatch, kind,
                                        drafts):
        from stalab import kinematics

        labels = []
        original = kinematics.integrate_arm

        def counting(arm, *args, **kwargs):
            labels.append(arm.label)
            return original(arm, *args, **kwargs)

        monkeypatch.setattr(kinematics, "integrate_arm", counting)
        before = kinematics.path_difference.cache_info()
        st.random_mirrored_sequence(np.random.default_rng(11), params, T,
                                    kind)
        # arm a once per draft, arm b never; no analysis object
        assert labels == ["a"] * drafts
        assert kinematics.path_difference.cache_info() == before

    def test_same_rng_same_sequence(self, params, T):
        # the closing kicks this generator has always drawn for seed 11
        draws = {kind: st.random_mirrored_sequence(
            np.random.default_rng(11), params, T, kind) for kind in ("i", "ii")}
        assert [(k.t, k.dv[2]) for k in draws["i"].arm_a.kicks[-2:]] == [
            (Fraction(19, 336), 0.005639754235744476),
            (Fraction(1, 10), -0.006999075412750244)]
        assert [(k.t, k.dv[2]) for k in draws["ii"].arm_a.kicks[-2:]] == [
            (Fraction(41, 420), -0.2174151263207818),
            (Fraction(1, 10), 0.21041605090803156)]
        for kind, seq in draws.items():
            assert seq == st.random_mirrored_sequence(
                np.random.default_rng(11), params, T, kind)
