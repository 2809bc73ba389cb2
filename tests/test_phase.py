"""Individual phase terms: separation, kinetic, inertial, laser, magnetic,
offset, rotation, and the assembled total."""

import math
from fractions import Fraction

import numpy as np
import pytest

import stalab as st
from stalab.errors import (NotInterfering, UnsupportedWaveform,
                           ZeroAreaKickWarning)


class TestSeparationPhase:
    def test_closed_mz_exactly_zero(self, params, T):
        assert st.separation_phase(st.build_mach_zehnder(params, T)) == 0.0

    def test_initial_offset_with_common_velocity(self, params, T):
        v = (0.0, 0.0, 0.004)
        dx0 = (0.0, 0.0, 2e-6)
        kicks = (st.ImpulseKick(0, (0, 0, 0.01)),)
        seq = st.InterferometerSequence(
            params, T,
            st.ArmTimeline("a", kicks=kicks, x0=dx0, v0=v),
            st.ArmTimeline("b", kicks=kicks, v0=v))
        got = st.separation_phase(seq)
        expected = -params.m / params.hbar * v[2] * dx0[2]
        assert got == pytest.approx(expected, rel=1e-14)

    @pytest.mark.parametrize("dt_us", [1, -1, 10, -10])
    def test_timing_offset_mz(self, params_n2, T, dt_us):
        dt = Fraction(dt_us, 10**6)
        seq = st.build_mach_zehnder(params_n2, T, last_pulse_offset=dt)
        got = st.separation_phase(seq)
        expected = 8 * params_n2.n**2 * params_n2.recoil_frequency * float(dt)
        assert got == pytest.approx(expected, rel=1e-9)

    def test_not_interfering(self, params, T):
        arm_b = st.ArmTimeline("b", kicks=(
            st.ImpulseKick(0, tuple(params.recoil_velocity)),))
        seq = st.InterferometerSequence(params, T, st.ArmTimeline("a"), arm_b)
        with pytest.raises(NotInterfering):
            st.separation_phase(seq)

    def test_momentum_separation_formula(self):
        assert st.open_separation_phase((1e-5, 0, 0), (2e4, 0, 0)) \
            == pytest.approx(0.2)


class TestKineticPhase:
    def test_mz_exact_zero(self, params, T):
        assert st.kinetic_phase(st.build_mach_zehnder(params, T)) == 0.0

    def test_triangle(self, params_n2, T):
        got = st.kinetic_phase(st.build_recoil_triangle(params_n2, T))
        expected = 8 * params_n2.n**2 * params_n2.recoil_frequency * float(T)
        assert got == pytest.approx(expected, rel=1e-12)

    def test_triangle_matches_recoil_count_form(self, params_n2, T):
        from stalab import kinematics
        seq = st.build_recoil_triangle(params_n2, T)
        ta, tb = kinematics.arm_trajectories(seq)
        counts = kinematics.recoil_squared_integral_exact(tb) \
            - kinematics.recoil_squared_integral_exact(ta)
        assert st.kinetic_phase(seq) == pytest.approx(
            params_n2.recoil_frequency * float(counts), rel=1e-13)

    def test_const_accel_lattice_match(self, params, T):
        n_b = 7
        tau_b = T / (2 * n_b)
        a = 2 * params.hbar * params.k_mag / (params.m * float(tau_b))
        seq = st.build_const_accel_recoil(params, T, a)
        expected = 8.0 / 3.0 * n_b**2 * params.recoil_frequency * float(T)
        assert st.kinetic_phase(seq) == pytest.approx(expected, rel=1e-12)


class TestInertialPhase:
    def test_mz(self, params, T, g_down):
        got = st.inertial_phase(st.build_mach_zehnder(params, T, g=g_down))
        expected = 2 * params.n * params.k_mag * 9.8 * float(T) ** 2
        assert got == pytest.approx(expected, rel=1e-13)

    def test_cab_large_t_over_margin(self, params, g_down):
        # T >> T_r limit: 2 n k g T^2 + k g T^3 / (2 tau_b)
        T, n_b = Fraction(2, 5), 40
        seq = st.build_cab(params, T, n_b, T_r=0, g=g_down)
        tau_b = float(T) / (2 * n_b)
        expected = (2 * params.n * params.k_mag * 9.8 * float(T) ** 2
                    + params.k_mag * 9.8 * float(T) ** 3 / (2 * tau_b))
        assert st.inertial_phase(seq) == pytest.approx(expected, rel=1e-12)

    def test_linearity_in_g(self, params, T):
        seq = st.build_cab(params, T, 3, T_r=0)
        one = st.inertial_phase(seq, (0.1, 0.0, 4.0))
        two = st.inertial_phase(seq, (0.2, 0.0, 8.0))
        assert two == pytest.approx(2 * one, rel=1e-14)

    def test_butterfly_zero(self, params, T, g_down):
        assert st.inertial_phase(st.build_butterfly(params, T, g=g_down)) == 0.0


class TestTimeVaryingInertial:
    def test_cosine_matches_transfer(self, params, T):
        seq = st.build_mach_zehnder(params, T)
        a_c = (0.0, 0.0, 0.37)
        w = 41.0
        wave = st.Waveform(cosines=((a_c, w),))
        got = st.inertial_phase_timevarying(seq, wave)
        ac_area, _ = st.transfer(seq, w)
        expected = params.m / params.hbar * np.dot(a_c, ac_area)
        assert got == pytest.approx(expected, rel=1e-14)

    def test_sine_on_symmetric_mz_cancels(self, params, T):
        seq = st.build_mach_zehnder(params, T)
        wave = st.Waveform(sines=(((0, 0, 1.3), 27.0),))
        assert st.inertial_phase_timevarying(seq, wave) == 0.0

    def test_constant_waveform_matches_inertial(self, params, T, g_down):
        seq = st.build_mach_zehnder(params, T, g=g_down)
        wave = st.Waveform(constant=g_down)
        assert st.inertial_phase_timevarying(seq, wave) \
            == pytest.approx(st.inertial_phase(seq), rel=1e-14)

    def test_batched_moments_equal_per_frequency_fsum(self, params, T):
        seq = st.random_closed_sequence(np.random.default_rng(3), params, T,
                                        collinear=False)
        pd = st.path_difference(seq)
        wave = st.Waveform(constant=(0.0, 0.0, 1.1),
                           cosines=(((0.1, 0.0, 0.4), 17.0),
                                    ((0.0, 0.2, 0.3), 0.0)),
                           sines=(((0.0, 0.3, 0.1), 3.0),
                                  ((0.2, 0.0, 1.0), 4.0e4)))
        parts = [float(np.dot(wave.constant, pd.moment_poly(0)))]
        parts += [float(np.dot(a, pd.moment_trig("cos", w)))
                  for a, w in wave.cosines]
        parts += [float(np.dot(a, pd.moment_trig("sin", w)))
                  for a, w in wave.sines]
        expected = params.m / params.hbar * math.fsum(parts)
        assert st.inertial_phase_timevarying(seq, wave) == expected

    def test_non_finite_frequency_names_omega(self, params, T):
        wave = st.Waveform(sines=(((0, 0, 1.0), math.inf),))
        with pytest.raises(st.SequenceError, match="omega"):
            st.inertial_phase_timevarying(st.build_mach_zehnder(params, T),
                                          wave)

    def test_rejects_bare_callable(self, params, T):
        with pytest.raises(UnsupportedWaveform):
            st.inertial_phase_timevarying(
                st.build_mach_zehnder(params, T), lambda t: t)


class TestFourier:
    def test_single_zero_frequency_term(self, params, T, g_down):
        seq = st.build_mach_zehnder(params, T, g=g_down)
        got = st.fourier_phase(seq, [(g_down, None)])
        assert got == pytest.approx(st.inertial_phase(seq), rel=1e-14)

    def test_all_zero_coefficients(self, params, T):
        seq = st.build_mach_zehnder(params, T)
        coeffs = [((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))] * 5
        assert st.fourier_phase(seq, coeffs) == 0.0

    def test_batched_harmonics_equal_per_frequency_fsum(self, params, T):
        rng = np.random.default_rng(5)
        for seq in (st.build_cab_kicktrain(params, T, 4),
                    st.build_butterfly(params, T),
                    st.random_closed_sequence(rng, params, T)):
            pd = st.path_difference(seq)
            coeffs = [(tuple(rng.normal(size=3)),
                       None if j % 3 == 0 else tuple(rng.normal(size=3)))
                      for j in range(40)]
            parts = []
            for j, (ac, a_s) in enumerate(coeffs):
                w = j * math.pi / float(T)
                parts.append(float(np.dot(ac, pd.moment_trig("cos", w))))
                if a_s is not None:
                    parts.append(float(np.dot(a_s, pd.moment_trig("sin", w))))
            expected = params.m / params.hbar * math.fsum(parts)
            assert st.fourier_phase(seq, coeffs) == expected

    def test_step_function_series_vs_quadrature(self, params, T):
        # g(t) = G k_hat for t > 0, zero before; series truncated at j = 50
        seq = st.build_cab(params, T, 4, T_r=0)
        G = 3.7
        Tf = float(T)

        # exact series coefficients of the step (j = 0 term halved)
        coeffs = [((0.0, 0.0, G / 2), (0.0, 0.0, 0.0))]
        for j in range(1, 51):
            sj = G * (1 - math.cos(j * math.pi)) / (j * math.pi)
            coeffs.append(((0.0, 0.0, 0.0), (0.0, 0.0, sj)))
        got = st.fourier_phase(seq, coeffs)

        cfg = st.OracleConfig()
        pd = st.path_difference(seq)
        t = np.linspace(-Tf, Tf, 200001)
        gz = np.where(t > 0, G, 0.0)
        dx = pd.sample(t)[:, 2]
        w = np.ones(t.size)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        brute = params.m / params.hbar * float(
            (w * gz * dx).sum() * (t[1] - t[0]) / 3.0)
        assert got == pytest.approx(brute, rel=1e-3)

    def test_fourier_coefficients_reconstruct_constant(self, params, T):
        G = (0.0, 0.0, 5.5)
        coeffs = st.fourier_coefficients(
            lambda t: np.tile(G, (np.size(t), 1)), T, j_max=3)
        ac0 = coeffs[0][0]
        assert ac0[2] == pytest.approx(5.5, rel=1e-12)
        for ac, a_s in coeffs[1:]:
            assert abs(ac[2]) < 1e-9 and abs(a_s[2]) < 1e-9


class TestLaserPhase:
    def test_mz_pattern(self, params_n2, T):
        phis = (0.13, 0.57, -0.86)
        seq = st.build_mach_zehnder(params_n2, T, phases=phis)
        expected = params_n2.n * (phis[0] - 2 * phis[1] + phis[2])
        assert st.laser_phase(seq) == pytest.approx(expected, rel=1e-13)

    def test_cab_pattern(self, params, T):
        phis = (0.2, -0.4, 0.9)
        bp = (0.11, 0.23, -0.31, 0.47)
        n_b = 5
        seq = st.build_cab(params, T, n_b, T_r=Fraction(1, 400), phases=phis,
                           bloch_phases=bp)
        expected = (params.n * (phis[0] - 2 * phis[1] + phis[2])
                    + n_b * (bp[0] - bp[1] - bp[2] + bp[3]))
        assert st.laser_phase(seq) == pytest.approx(expected, rel=1e-13)

    def test_zero_phases(self, params, T):
        assert st.laser_phase(st.build_mach_zehnder(params, T)) == 0.0

    def test_transverse_kick_warns_and_contributes_nothing(self, params, T):
        arm_a = st.ArmTimeline("a", kicks=(
            st.ImpulseKick(0, (0.01, 0.0, 0.0), phi=0.5, dn=2),))
        seq = st.InterferometerSequence(params, T, arm_a, st.ArmTimeline("b"))
        with pytest.warns(ZeroAreaKickWarning):
            assert st.laser_phase(seq) == 0.0

    def test_kicktrain_matches_continuous(self, params, T):
        bp = (0.3, -0.2, 0.15, 0.6)
        cont = st.build_cab(params, T, 4, T_r=0, bloch_phases=bp)
        train = st.build_cab_kicktrain(params, T, 4, T_r=0, bloch_phases=bp)
        assert st.laser_phase(train) == pytest.approx(
            st.laser_phase(cont), rel=1e-13)


class TestMagneticPhase:
    def test_zero_moment_difference(self, T):
        sched = st.MagneticSchedule(
            b_field=((-T, T, (0, 0, 1e-4)),),
            mu_a=((-T, T, (0, 0, 3e-28)),),
            mu_b=((-T, T, (0, 0, 3e-28)),))
        assert st.magnetic_phase(sched) == 0.0

    def test_constant_field_and_moment(self, T):
        b, dmu = 2e-5, 4e-28
        sched = st.MagneticSchedule(
            b_field=((-T, T, (0, 0, b)),),
            mu_a=((-T, T, (0, 0, dmu)),))
        expected = 2 * float(T) * b * dmu / st.HBAR
        assert st.magnetic_phase(sched) == pytest.approx(expected, rel=1e-14)

    def test_field_sign_flip_cancels(self, T):
        b = 2e-5
        sched = st.MagneticSchedule(
            b_field=((-T, 0, (0, 0, b)), (0, T, (0, 0, -b))),
            mu_a=((-T, T, (0, 0, 1e-28)),))
        assert st.magnetic_phase(sched) == pytest.approx(0.0, abs=1e-30)

    def test_bilinear(self, T):
        def phase(b, dmu):
            sched = st.MagneticSchedule(
                b_field=((-T, T, (0, 0, b)),),
                mu_a=((-T, T, (0, 0, dmu)),))
            return st.magnetic_phase(sched)
        assert phase(2e-5, 6e-28) == pytest.approx(
            4 * phase(1e-5, 3e-28), rel=1e-13)


class TestOffsetPhase:
    def test_equal_offsets_cancel(self, T):
        sched = st.OffsetSchedule(v0_a=((-T, T, 1e-30),),
                                  v0_b=((-T, T, 1e-30),))
        assert st.offset_phase(sched) == 0.0

    def test_opposite_pulses_cancel(self, T):
        sched = st.OffsetSchedule(v0_b=((-T, 0, 1e-30), (0, T, -1e-30)))
        assert st.offset_phase(sched) == pytest.approx(0.0, abs=1e-30)

    def test_constant_on_arm_b(self, T):
        v0 = 2.5e-30
        sched = st.OffsetSchedule(v0_b=((-T, T, v0),))
        assert st.offset_phase(sched) == pytest.approx(
            2 * float(T) * v0 / st.HBAR, rel=1e-14)


class TestSagnacPhase:
    def test_zero_rotation(self, params, T):
        assert st.sagnac_phase(st.build_mach_zehnder(params, T)) == 0.0

    def test_mz_coriolis_total(self, params, T, g_down):
        rot = (7.292e-5, 0.0, 0.0)
        v_i = (0.0, 0.31, 0.0)
        seq = st.build_mach_zehnder(params, T, g=g_down, omega=rot, v_i=v_i)
        total = st.total_phase(seq).total
        gv = np.asarray(g_down) - 2 * np.cross(rot, v_i)
        expected = 2 * params.n * float(T) ** 2 * np.dot(
            params.k_mag * params.k_hat, gv)
        assert total == pytest.approx(expected, rel=1e-12)

    def test_cab_coriolis_form(self, params, T, g_down):
        rot = (7.292e-5, 0.0, 0.0)
        v_i = (0.0, 0.31, 0.0)
        n_b = 4
        seq = st.build_cab(params, T, n_b, T_r=0, g=g_down, omega=rot,
                           v_i=v_i)
        total = st.total_phase(seq).total
        tau = float(T) / (2 * n_b)
        gv = np.asarray(g_down) - 2 * np.cross(rot, v_i)
        expected = (2 * params.n * float(T) ** 2 + float(T) ** 3 / (2 * tau)) \
            * np.dot(params.k_mag * params.k_hat, gv)
        assert total == pytest.approx(expected, rel=1e-12)

    def test_against_oracle(self, params, T, g_down):
        seq = st.build_mach_zehnder(params, T, g=g_down,
                                    omega=(3e-5, 4e-5, 0.0),
                                    v_i=(0.2, -0.1, 0.0))
        assert st.sagnac_phase(seq) == pytest.approx(
            st.sagnac_oracle(seq), rel=1e-10)


class TestTotalPhase:
    def test_mz(self, params, T, g_down):
        bd = st.total_phase(st.build_mach_zehnder(params, T, g=g_down))
        expected = 2 * params.n * params.k_mag * 9.8 * float(T) ** 2
        assert bd.total == pytest.approx(expected, rel=1e-13)
        assert bd.separation == 0.0 and bd.kinetic == 0.0
        assert "closed" in bd.flags

    def test_triangle(self, params_n2, T, g_down):
        bd = st.total_phase(st.build_recoil_triangle(params_n2, T, g=g_down))
        expected = (8 * params_n2.n**2 * params_n2.recoil_frequency * float(T)
                    - 2 * params_n2.n * params_n2.k_mag * 9.8 * float(T) ** 2)
        assert bd.total == pytest.approx(expected, rel=1e-12)

    def test_total_is_sum_of_terms(self, params, T, g_down):
        bd = st.total_phase(st.build_cab(params, T, 3, T_r=0, g=g_down,
                                         phases=(0.1, 0.2, 0.3)))
        assert bd.total == pytest.approx(math.fsum(bd.terms().values()),
                                         abs=1e-18)

    def test_closed_sequence_matches_action_oracle(self, params, T, g_down):
        seq = st.build_cab(params, T, 4, T_r=Fraction(1, 1000), g=g_down)
        bd = st.total_phase(seq)
        assert bd.total == pytest.approx(st.action_phase(seq), rel=1e-9)

    def test_serialization_formats(self, params, T, g_down):
        bd = st.total_phase(st.build_mach_zehnder(params, T, g=g_down))
        kv = bd.to_kv_text()
        assert "inertial=" in kv and kv.endswith("\n")
        csv = bd.to_csv()
        assert csv.splitlines()[0] == "term,radians"
        assert csv.splitlines()[-1].startswith("total,")

    def test_each_arm_integrated_once(self, params, g_down, monkeypatch):
        from stalab import kinematics

        labels = []
        original = kinematics.integrate_arm

        def counting(arm, *args, **kwargs):
            labels.append(arm.label)
            return original(arm, *args, **kwargs)

        monkeypatch.setattr(kinematics, "integrate_arm", counting)
        # a half-duration no other test builds, so every cache starts cold
        seq = st.build_cab(params, Fraction(1234567, 10**7), 3,
                           g=g_down, omega=(1e-5, 2e-5, 0.0))
        st.total_phase(seq)
        assert sorted(labels) == ["a", "b"]
        labels.clear()
        st.total_phase(seq)
        assert labels == []
