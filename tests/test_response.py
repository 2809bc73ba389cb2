"""Transfer functions, sensitivity ratios and response curves."""

import numpy as np
import pytest

import stalab as st
from stalab.errors import DegenerateSequence, SequenceError, ZeroArea


class TestTransfer:
    def test_zero_frequency_gives_area(self, params, T):
        seq = st.build_cab(params, T, 3, T_r=0)
        ac, a_s = st.transfer(seq, 0.0)
        np.testing.assert_array_equal(ac, st.space_time_area(seq))
        np.testing.assert_array_equal(a_s, [0, 0, 0])

    def test_symmetric_sequence_sine_vanishes(self, params, T):
        seq = st.build_mach_zehnder(params, T)
        for w in np.linspace(0.0, 300.0, 7):
            _, a_s = st.transfer(seq, w)
            assert np.max(np.abs(a_s)) == 0.0

    def test_antisymmetric_sequence_cosine_vanishes(self, params, T):
        seq = st.build_butterfly(params, T)
        for w in np.linspace(0.0, 300.0, 7):
            ac, _ = st.transfer(seq, w)
            assert np.max(np.abs(ac)) == 0.0

    def test_negative_frequency_rejected(self, params, T):
        with pytest.raises(SequenceError):
            st.transfer(st.build_mach_zehnder(params, T), -1.0)


class TestSensitivityR:
    def test_mz_golden_form(self, params, T):
        seq = st.build_mach_zehnder(params, T)
        for w in np.geomspace(0.5, 300.0, 30):
            got = st.sensitivity_R(seq, w)
            gold = abs(float(st.r_mz(w, T)))
            assert got == pytest.approx(gold, rel=1e-8, abs=1e-12)

    def test_mz_zeros_at_harmonics(self, params, T):
        seq = st.build_mach_zehnder(params, T)
        for j in (1, 2, 3):
            w = 2 * np.pi * j / float(T)
            assert st.sensitivity_R(seq, w) < 1e-12

    def test_cab_golden_form(self, params, T):
        n_b = 6
        seq = st.build_cab(params, T, n_b, T_r=0)
        eps = n_b / (2 * params.n)
        for w in np.linspace(0.7, 380.0, 40):
            got = st.sensitivity_R(seq, w)
            gold = abs(float(st.r_cab(w, T, eps)))
            assert got == pytest.approx(gold, rel=1e-8, abs=1e-12)

    def test_cab_limits_interpolate_mz_and_t3(self, T):
        w = np.linspace(0.3 / float(T), 30.0 / float(T), 50)
        near_mz = st.r_cab(w, T, 1e-6)
        near_t3 = st.r_cab(w, T, 1e6)
        assert np.max(np.abs(near_mz - st.r_mz(w, T))) < 1e-4
        assert np.max(np.abs(near_t3 - st.r_t3(w, T))) < 1e-4

    def test_zero_area_raises(self, params, T):
        with pytest.raises(ZeroArea):
            st.sensitivity_R(st.build_butterfly(params, T), 1.0)


class TestSensitivityRstar:
    def test_butterfly_golden_form(self, params, T):
        seq = st.build_butterfly(params, T)
        for w in np.geomspace(0.3, 300.0, 30):
            got = st.sensitivity_Rstar(seq, w)
            gold = abs(float(st.rstar_butterfly(w, T)))
            assert got == pytest.approx(gold, rel=1e-8, abs=1e-12)

    def test_zero_frequency(self, params, T):
        assert st.sensitivity_Rstar(st.build_butterfly(params, T), 0.0) == 0.0

    def test_degenerate_sequence(self, params, T):
        seq = st.InterferometerSequence(params, T, st.ArmTimeline("a"),
                                        st.ArmTimeline("b"))
        with pytest.raises(DegenerateSequence):
            st.sensitivity_Rstar(seq, 1.0)


class TestAbsArea:
    def test_mz_single_signed(self, params, T):
        seq = st.build_mach_zehnder(params, T)
        assert st.abs_area(seq) == pytest.approx(
            abs(st.space_time_area(seq)[2]), rel=1e-14)

    def test_butterfly_two_lobes(self, params, T):
        seq = st.build_butterfly(params, T)
        vr = params.recoil_velocity[2]
        expected = vr * float(T) ** 2 / 2
        assert st.abs_area(seq) == pytest.approx(expected, rel=1e-13)

    def test_butterfly_matches_sampled_quadrature(self, params, T):
        seq = st.build_butterfly(params, T)
        pd = st.path_difference(seq)
        t = np.linspace(-float(T), float(T), 400001)
        w = np.ones(t.size)
        w[1:-1:2], w[2:-1:2] = 4.0, 2.0
        brute = float((w * np.abs(pd.sample(t)[:, 2])).sum()
                      * (t[1] - t[0]) / 3.0)
        assert st.abs_area(seq) == pytest.approx(brute, rel=1e-9)

    def test_zero_separation(self, params, T):
        seq = st.InterferometerSequence(params, T, st.ArmTimeline("a"),
                                        st.ArmTimeline("b"))
        assert st.abs_area(seq) == 0.0


class TestResponseCurve:
    def test_mz_envelope_rolloff(self, params, T):
        seq = st.build_mach_zehnder(params, T)
        curves = st.response_curve(seq, 0.0, 40.0 / float(T), 1000)
        assert np.argmax(curves.r) == 0
        wt = curves.omega * float(T)
        beyond = wt > 2 * np.pi
        assert np.all(curves.r[beyond] * wt[beyond] ** 2 <= 4.0 + 1e-9)

    def test_t3_envelope_rolloff(self, T):
        w = np.linspace(2 * np.pi / float(T), 60.0 / float(T), 2000)
        wt = w * float(T)
        assert np.all(np.abs(st.r_t3(w, T)) * wt**3 <= 64.0 * 0.33)

    def test_cab_inherits_both_zero_families(self, params, T):
        # insensitive both at the triangle harmonics and at extra points
        # where the two lobes cancel: double the zero count of either limit
        n_b = 2
        seq = st.build_cab(params, T, n_b, T_r=0)
        for j in (1, 2, 3):
            w = 2 * np.pi * j / float(T)
            assert st.sensitivity_R(seq, w) < 1e-10
        eps = n_b / (2 * params.n)
        w = np.linspace(2.2 * np.pi / float(T), 3.8 * np.pi / float(T), 4001)
        vals = st.r_cab(w, T, eps)
        crossings = np.sum(np.sign(vals[:-1]) != np.sign(vals[1:]))
        assert crossings >= 1

    @pytest.mark.parametrize("bounds, field", [
        ((1.0, float("inf")), "omega_max"),
        ((float("nan"), 5.0), "omega_min")])
    def test_non_finite_grid_bound_names_field(self, params, T, bounds,
                                               field):
        with pytest.raises(SequenceError, match=field):
            st.response_curve(st.build_mach_zehnder(params, T), *bounds, 10)

    def test_two_point_curve(self, params, T):
        curves = st.response_curve(st.build_mach_zehnder(params, T),
                                   1.0, 10.0, 2)
        text = curves.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "omega,Ac_x,Ac_y,Ac_z,As_x,As_y,As_z,R,Rstar"
        assert len(lines) == 3

    def test_log_grid_validation(self, params, T):
        with pytest.raises(SequenceError):
            st.response_curve(st.build_mach_zehnder(params, T), 0.0, 10.0, 5,
                              scale="log")
        with pytest.raises(SequenceError):
            st.response_curve(st.build_mach_zehnder(params, T), 5.0, 1.0, 5)

    def test_csv_round_trips_doubles(self, params, T):
        curves = st.response_curve(st.build_mach_zehnder(params, T),
                                   0.5, 200.0, 7, scale="log")
        lines = curves.to_csv().strip().split("\n")[1:]
        for i, line in enumerate(lines):
            cells = line.split(",")
            assert float(cells[0]) == curves.omega[i]
            assert float(cells[3]) == curves.area_cos[i][2]
            assert float(cells[7]) == curves.r[i]

    def test_butterfly_r_is_nan(self, params, T):
        curves = st.response_curve(st.build_butterfly(params, T), 1.0, 5.0, 3)
        assert np.all(np.isnan(curves.r))
        assert np.all(np.isfinite(curves.r_star))

    def test_csv_repeats_and_rows_match_transfer(self, params, T):
        for seq in (st.build_cab(params, T, 4, T_r=0),
                    st.build_recoil_triangle(params, T)):
            curves = st.response_curve(seq, 1.0, 300.0, 40, "log")
            assert curves.to_csv() \
                == st.response_curve(seq, 1.0, 300.0, 40, "log").to_csv()
            for i, w in enumerate(curves.omega):
                ac, a_s = st.transfer(seq, w)
                np.testing.assert_array_equal(curves.area_cos[i], ac)
                np.testing.assert_array_equal(curves.area_sin[i], a_s)

    def test_parseval_style_consistency(self, params, T, g_down):
        # discrete-series inertial phase at one harmonic equals the direct
        # cosine-area coupling at that frequency, exactly
        seq = st.build_cab(params, T, 3, T_r=0)
        j = 4
        w = j * np.pi / float(T)
        amp = (0.0, 0.0, 2.2)
        coeffs = [(None, None)] * j + [(amp, None)]
        got = st.fourier_phase(seq, coeffs)
        ac, _ = st.transfer(seq, w)
        assert got == params.m / params.hbar * np.dot(amp, ac)
