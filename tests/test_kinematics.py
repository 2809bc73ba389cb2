"""Exact trajectory integration and weighted moments of the separation."""

from fractions import Fraction

import numpy as np
import pytest

import stalab as st
from stalab import kinematics


def _empty_seq(params, T, v0=(0.0, 0.0, 0.0), x0=(0.0, 0.0, 0.0)):
    return st.InterferometerSequence(
        params, T, st.ArmTimeline("a", x0=x0, v0=v0), st.ArmTimeline("b"))


class TestIntegrateArm:
    def test_empty_timeline_is_constant(self, params, T):
        arm = st.ArmTimeline("a", x0=(1.0, 0.0, 2.0))
        traj = st.integrate_arm(arm, params, T)
        for t in (-float(T), 0.0, 0.03, float(T)):
            np.testing.assert_array_equal(traj.velocity(t), [0, 0, 0])
            np.testing.assert_array_equal(traj.position(t), [1.0, 0.0, 2.0])

    def test_single_kick_final_position(self, params, T):
        t1 = Fraction(-1, 40)
        dv = (0.0, 0.0, 0.031)
        arm = st.ArmTimeline("a", kicks=(st.ImpulseKick(t1, dv),))
        traj = st.integrate_arm(arm, params, T)
        expected = dv[2] * float(T - t1)
        assert traj.position(T)[2] == pytest.approx(expected, rel=1e-15)

    def test_derivative_consistency_exact(self, params, T):
        seq = st.build_cab(params, T, 3, T_r=Fraction(1, 200))
        for traj in kinematics.arm_trajectories(seq):
            for piece in traj.pieces:
                # d(pos)/dt == vel and d(vel)/dt == accel per interval
                assert piece.pos[1] == piece.vel[0]
                assert tuple(2 * c for c in piece.pos[2]) == piece.vel[1]

    def test_velocity_jump_at_kick(self, params, T):
        seq = st.build_mach_zehnder(params, T)
        traj = kinematics.arm_trajectories(seq)[0]
        vr = params.recoil_velocity[2]
        before = traj.velocity(-1e-9)[2]
        after = traj.velocity(0)[2]
        assert before == pytest.approx(vr)
        assert after == pytest.approx(0.0, abs=1e-18)

    def test_recoil_count_tracks_kicks_and_ramps(self, params, T):
        seq = st.build_cab(params, T, 4, T_r=0)
        ta, _ = kinematics.arm_trajectories(seq)
        # counts at breakpoints: after first kick 2n, lattice adds 2 per cycle
        piece = ta.piece_at(Fraction(-3, 40))  # inside the first-half ramp
        n_mid = piece.nrec[0] + piece.nrec[1] * Fraction(-3, 40)
        assert 2 * params.n < float(n_mid) < 2 * params.n + 8

    def test_kick_at_window_edge_only_affects_end_state(self, params, T):
        arm = st.ArmTimeline("a", kicks=(st.ImpulseKick(T, (0, 0, 0.5)),))
        traj = st.integrate_arm(arm, params, T)
        assert traj.velocity(float(T) - 1e-12)[2] == 0.0
        assert traj.end_velocity[2] == Fraction(0.5)


class TestPathDifference:
    def test_mz_triangle_shape(self, params, T):
        pd = st.path_difference(st.build_mach_zehnder(params, T))
        vr = params.recoil_velocity[2]
        Tf = float(T)
        assert pd.separation(0)[2] == pytest.approx(vr * Tf, rel=1e-15)
        assert pd.separation(T / 2)[2] == pytest.approx(vr * Tf / 2, rel=1e-15)
        assert pd.separation(-T / 2)[2] == pytest.approx(vr * Tf / 2, rel=1e-15)
        assert pd.separation(T)[2] == 0.0

    def test_butterfly_antisymmetric_at_breakpoints_and_midpoints(
            self, params, T):
        pd = st.path_difference(st.build_butterfly(params, T))
        probes = [t for t in pd.times] + \
            [(a + b) / 2 for a, b in zip(pd.times, pd.times[1:])]
        for t in probes:
            left = pd.separation(t)
            right = pd.separation(-t)
            np.testing.assert_allclose(left, -right, atol=1e-20)

    def test_identical_arms_zero(self, params, T):
        kicks = (st.ImpulseKick(0, (0, 0, 0.01)),)
        seq = st.InterferometerSequence(
            params, T, st.ArmTimeline("a", kicks=kicks),
            st.ArmTimeline("b", kicks=kicks))
        assert st.path_difference(seq).is_zero()


class TestContinuousVsKicktrainVelocity:
    def test_agreement_bounded_by_one_kick(self, params, T, rng):
        n_b = 6
        cont = st.build_cab(params, T, n_b, T_r=Fraction(1, 400))
        train = st.build_cab_kicktrain(params, T, n_b, T_r=Fraction(1, 400))
        tc = kinematics.arm_trajectories(cont)[1]
        tk = kinematics.arm_trajectories(train)[1]
        one_kick = 2 * params.hbar * params.k_mag / params.m
        for t in rng.uniform(-float(T), float(T), size=10):
            dv = np.linalg.norm(tc.velocity(t) - tk.velocity(t))
            assert dv <= one_kick * (1 + 1e-12)


class TestMoments:
    def test_cos_weight_at_zero_matches_area(self, params, T):
        pd = st.path_difference(st.build_cab(params, T, 3, T_r=0))
        np.testing.assert_array_equal(
            st.integrate_polynomial_moment(pd, ("cos", 0.0)),
            st.integrate_polynomial_moment(pd, 1))

    def test_sin_weight_symmetric_sequence_cancels(self, params, T):
        pd = st.path_difference(st.build_mach_zehnder(params, T))
        for w in (0.0, 3.0, 57.0, 400.0):
            asn = st.integrate_polynomial_moment(pd, ("sin", w))
            assert np.max(np.abs(asn)) == 0.0

    def test_parity_gives_literal_zero_quadratures(self, params, T):
        # continuous cab is separation-symmetric, the butterfly antisymmetric;
        # summing pieces alone leaves rounding residue in the odd quadrature
        for seq, kind in ((st.build_cab(params, T, 5), "sin"),
                          (st.build_butterfly(params, T), "cos")):
            pd = st.path_difference(seq)
            for w in np.geomspace(1.0, 1e4, 300):
                assert np.max(np.abs(pd.moment_trig(kind, w))) == 0.0

    def test_weight_one_mz(self, params, T):
        pd = st.path_difference(st.build_mach_zehnder(params, T))
        area = st.integrate_polynomial_moment(pd, 1)
        expected = params.recoil_velocity[2] * float(T) ** 2
        assert area[2] == pytest.approx(expected, rel=1e-14)

    def test_series_and_closed_form_branches_agree(self, params, T):
        # z = omega * T straddles the 0.5 series/antiderivative switch
        pd = st.path_difference(st.build_mach_zehnder(params, T))
        for w in (4.98, 4.999, 5.001, 5.02):
            ac = pd.moment_trig("cos", w)[2]
            qc, _ = st.quadrature_transfer(st.build_mach_zehnder(params, T), w)
            assert ac == pytest.approx(qc[2], rel=1e-12)

    def test_trig_moments_match_quadrature_over_band(self, params, T):
        seq = st.build_cab(params, T, 4, T_r=Fraction(1, 200))
        pd = st.path_difference(seq)
        xs, _ = pd.scales()
        floor = 1e-13 * xs * float(pd.end - pd.start)
        for w in np.geomspace(1e-3, 100.0, 25) / float(T):
            ac = pd.moment_trig("cos", w)
            asn = pd.moment_trig("sin", w)
            qc, qs = st.quadrature_transfer(seq, w)
            assert np.max(np.abs(ac - qc)) <= 1e-10 * np.max(np.abs(ac)) + floor
            assert np.max(np.abs(asn - qs)) <= 1e-10 * np.max(np.abs(asn)) + floor

    def test_time_moment_symmetric_is_zero(self, params, T):
        seq = st.build_mach_zehnder(params, T)
        np.testing.assert_array_equal(st.first_time_moment(seq), [0, 0, 0])


class TestKickOrderingInvariance:
    def test_permuted_insertion_same_trajectory(self, params, T, rng):
        kicks = [st.ImpulseKick(T * Fraction(k, 7), (0, 0, float(v)))
                 for k, v in zip((-5, -2, 1, 4), (0.01, -0.02, 0.005, 0.007))]
        perm = list(kicks)
        rng.shuffle(perm)
        t1 = st.integrate_arm(st.ArmTimeline("a", kicks=tuple(kicks)),
                              params, T)
        t2 = st.integrate_arm(st.ArmTimeline("a", kicks=tuple(perm)),
                              params, T)
        assert t1.times == t2.times
        for p1, p2 in zip(t1.pieces, t2.pieces):
            assert p1.pos == p2.pos and p1.vel == p2.vel
