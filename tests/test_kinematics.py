"""Exact trajectory integration and weighted moments of the separation."""

import dataclasses
import inspect
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

import stalab as st
from stalab import kinematics


def _empty_seq(params, T, v0=(0.0, 0.0, 0.0), x0=(0.0, 0.0, 0.0)):
    return st.InterferometerSequence(
        params, T, st.ArmTimeline("a", x0=x0, v0=v0), st.ArmTimeline("b"))


class TestIntegrateArm:
    def test_empty_timeline_is_constant(self, T):
        arm = st.ArmTimeline("a", x0=(1.0, 0.0, 2.0))
        traj = st.integrate_arm(arm, T)
        for t in (-float(T), 0.0, 0.03, float(T)):
            np.testing.assert_array_equal(traj.velocity(t), [0, 0, 0])
            np.testing.assert_array_equal(traj.position(t), [1.0, 0.0, 2.0])

    def test_single_kick_final_position(self, T):
        t1 = Fraction(-1, 40)
        dv = (0.0, 0.0, 0.031)
        arm = st.ArmTimeline("a", kicks=(st.ImpulseKick(t1, dv),))
        traj = st.integrate_arm(arm, T)
        expected = dv[2] * float(T - t1)
        assert traj.position(T)[2] == pytest.approx(expected, rel=1e-15)

    def test_derivative_consistency_exact(self, params, T):
        seq = st.build_cab(params, T, 3, T_r=Fraction(1, 200))
        for arm, traj in zip(seq.arms(), kinematics.arm_trajectories(seq)):
            for prev, piece in zip(traj.pieces, traj.pieces[1:]):
                # position is continuous at a breakpoint; its derivative
                # jumps there by exactly the kicks' dv
                t = piece.t0
                assert prev.pos_at(t) == piece.pos_at(t)
                jump = tuple(b - a for a, b in zip(prev.vel_at(t),
                                                   piece.vel_at(t)))
                dv = [k.dv for k in arm.kicks if k.t == t]
                assert jump == tuple(sum(Fraction(v[i]) for v in dv)
                                     for i in range(3))

    def test_velocity_jump_at_kick(self, params, T):
        seq = st.build_mach_zehnder(params, T)
        traj = kinematics.arm_trajectories(seq)[0]
        vr = params.recoil_velocity[2]
        before = traj.velocity(-1e-9)[2]
        after = traj.velocity(0)[2]
        assert before == pytest.approx(vr)
        assert after == pytest.approx(0.0, abs=1e-18)

    def test_kick_at_window_edge_only_affects_end_state(self, T):
        arm = st.ArmTimeline("a", kicks=(st.ImpulseKick(T, (0, 0, 0.5)),))
        traj = st.integrate_arm(arm, T)
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
        np.testing.assert_array_equal(pd.moment_trig("cos", 0.0),
                                      pd.moment_poly(0))

    def test_sin_weight_symmetric_sequence_cancels(self, params, T):
        pd = st.path_difference(st.build_mach_zehnder(params, T))
        for w in (0.0, 3.0, 57.0, 400.0):
            asn = pd.moment_trig("sin", w)
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
        area = pd.moment_poly(0)
        expected = params.recoil_velocity[2] * float(T) ** 2
        assert area[2] == pytest.approx(expected, rel=1e-14)

    def test_series_and_closed_form_branches_agree(self, params, T):
        # x = omega * T / 2 (both pieces' half-width) straddles the 0.5
        # series/closed-form switch
        pd = st.path_difference(st.build_mach_zehnder(params, T))
        for w in (9.96, 9.998, 10.002, 10.04):
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


    def test_poly_moments_cached_per_order(self, params, T):
        pd = st.path_difference(st.build_cab_kicktrain(params, T, 3))
        assert pd.moment_poly_exact(1) is pd.moment_poly_exact(1)
        assert pd.moment_poly_exact(0) == st.space_time_area_exact(
            st.build_cab_kicktrain(params, T, 3))

    def test_moment_methods_live_in_the_class_body(self):
        # the benchmark's tracer wraps these through PathDifference.__dict__
        for name in ("moment_poly_exact", "moment_trig", "mirror_parity",
                     "trig_moments"):
            assert inspect.isfunction(st.PathDifference.__dict__[name])


def _kernel_sequences(params, T):
    """Parity +1, parity -1, a kick train and a non-collinear random case."""
    return [st.build_mach_zehnder(params, T),
            st.build_butterfly(params, T),
            st.build_cab_kicktrain(params, T, 8),
            st.random_closed_sequence(np.random.default_rng(7), params, T,
                                      collinear=False)]


def _shifted(seq, tau):
    """seq with every event moved by tau and the window grown by |tau|."""
    move = dataclasses.replace
    arms = [move(a, kicks=[move(k, t=k.t + tau) for k in a.kicks],
                 segments=[move(s, t_start=s.t_start + tau,
                                t_end=s.t_end + tau) for s in a.segments])
            for a in seq.arms()]
    return move(seq, T=seq.T + abs(tau), arm_a=arms[0], arm_b=arms[1])


def _reference_sequences(params, T):
    """Every preset at the CLI defaults (cab with T_r > 0), random closed
    sequences 0-3, and each of them shifted by 2 s."""
    accel = 16.0 * params.hbar * params.k_mag / (params.m * float(T))
    seqs = [st.build_mach_zehnder(params, T),
            st.build_cab(params, T, 4, T_r=Fraction(1, 200)),
            st.build_cab_kicktrain(params, T, 4),
            st.build_butterfly(params, T),
            st.build_recoil_triangle(params, T),
            st.build_const_accel_recoil(params, T, accel)]
    seqs += [st.random_closed_sequence(np.random.default_rng(seed), params,
                                       T, collinear=bool(seed % 2))
             for seed in range(4)]
    return seqs + [_shifted(seq, 2) for seq in seqs]


def _max_abs_separation(pd) -> float:
    """max |dx_i(t)| over the window and the axes, exact: a piece's extremes
    lie at its end points or at the vertex of its parabola."""
    worst = Fraction(0)
    for piece in pd.pieces:
        for c0, c1, c2 in zip(*piece.pos):
            ts = [piece.t0, piece.t1]
            if c2 and piece.t0 < -c1 / (2 * c2) < piece.t1:
                ts.append(-c1 / (2 * c2))
            worst = max(worst, *(abs(c0 + c1 * t + c2 * t * t) for t in ts))
    return float(worst)


class TestTrigKernel:
    # zero in the middle, both branches, more omegas than one kernel block
    GRID = np.concatenate([np.geomspace(1e-3, 1e5, 300), [0.0],
                           np.linspace(1e5, 0.5, 299)])

    def test_grid_rows_equal_single_omega_calls_bitwise(self, params, T):
        for seq in _kernel_sequences(params, T):
            pd = st.path_difference(seq)
            ac, a_s = pd.trig_moments(self.GRID)
            assert ac.shape == a_s.shape == (self.GRID.size, 3)
            for k, w in enumerate(self.GRID):
                assert ac[k].tobytes() == pd.moment_trig("cos", w).tobytes()
                assert a_s[k].tobytes() == pd.moment_trig("sin", w).tobytes()
                c1, s1 = st.transfer(seq, w)
                assert (c1.tobytes(), s1.tobytes()) == (ac[k].tobytes(),
                                                        a_s[k].tobytes())

    def test_zero_omega_and_parity_zeros_are_literal(self, params, T):
        mz, fly, train, _ = (st.path_difference(s)
                             for s in _kernel_sequences(params, T))
        zero = self.GRID == 0.0
        for pd in (mz, fly, train):
            ac, a_s = pd.trig_moments(self.GRID)
            np.testing.assert_array_equal(ac[zero][0], pd.moment_poly(0))
            assert not a_s[zero].any()
        assert not mz.trig_moments(self.GRID)[1].any()
        assert not fly.trig_moments(self.GRID)[0].any()

    def test_tiny_omega_takes_the_series_without_warnings(self, params, T):
        for seq in _kernel_sequences(params, T)[2:]:
            pd = st.path_difference(seq)
            xs, _ = pd.scales()
            scale = xs * float(pd.end - pd.start)
            for w in (1e-300, 1e-12):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    ac, a_s = pd.trig_moments([w])
                # cos(wt) = 1 and sin(wt) = wt to double precision here
                assert np.max(np.abs(ac[0] - pd.moment_poly(0))) \
                    <= 1e-15 * scale
                assert np.max(np.abs(a_s[0] - w * pd.moment_poly(1))) \
                    <= 1e-15 * w * scale * float(pd.end)

    def test_within_1e15_of_the_reference_in_true_scale(self, params, T):
        # the bar is 1e-15 of max|dx| * span, the true size of the
        # separation; shifted by 2 s, global-time coefficients cancel
        # against |t| and a kernel built on them misses it by 300x
        pytest.importorskip("mpmath")
        omegas = np.geomspace(1e-3, 1e5, 24)
        for seq in _reference_sequences(params, T):
            pd = st.path_difference(seq)
            bar = 1e-15 * _max_abs_separation(pd) * float(pd.end - pd.start)
            ac, a_s = pd.trig_moments(omegas)
            for k, w in enumerate(omegas):
                rc, rs = st.reference_trig_moments(seq, float(w))
                assert np.max(np.abs(ac[k] - rc)) <= bar
                assert np.max(np.abs(a_s[k] - rs)) <= bar

    def test_huge_omega_stays_finite_without_warnings(self, params, T):
        omegas = [1e154, 1e300, 1.7e308]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for seq in _reference_sequences(params, T)[:4]:
                parts = list(st.path_difference(seq).trig_moments(omegas))
                for w in omegas:
                    parts += st.transfer(seq, w)
                tf = st.response_curve(seq, omegas[0], omegas[-1], 3, "log")
                parts += [tf.area_cos, tf.area_sin, tf.r_star]
                assert all(np.isfinite(part).all() for part in parts)
                assert np.isfinite(tf.r).all() or not tf.area.any()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_omega_is_rejected(self, params, T, bad):
        seq = st.build_mach_zehnder(params, T)
        pd = st.path_difference(seq)
        for call in (lambda: pd.trig_moments([1.0, bad]),
                     lambda: pd.moment_trig("sin", bad),
                     lambda: st.transfer(seq, bad)):
            with pytest.raises(st.SequenceError, match="omega"):
                call()

    def test_negative_omega_is_rejected(self, params, T):
        pd = st.path_difference(st.build_mach_zehnder(params, T))
        with pytest.raises(st.SequenceError, match="non-negative"):
            pd.trig_moments([1.0, -2.0])

    def test_empty_grid(self, params, T):
        ac, a_s = st.path_difference(
            st.build_mach_zehnder(params, T)).trig_moments([])
        assert ac.shape == a_s.shape == (0, 3)


class TestPerPieceResults:
    """Vectorised per-piece results against the loops they replaced."""

    def test_scales_equal_the_piece_loop(self, params, T):
        for seq in _kernel_sequences(params, T):
            pd = st.path_difference(seq)
            xs = vs = 0.0
            for i, p in enumerate(pd.pieces):
                c = pd.position_coeffs(i)
                tm = max(abs(float(p.t0)), abs(float(p.t1)))
                xs = max(xs, float(np.max(np.abs(c[0]) + tm * np.abs(c[1])
                                          + tm * tm * np.abs(c[2]))))
                vs = max(vs, float(np.max(np.abs(c[1])
                                          + 2 * tm * np.abs(c[2]))))
            assert pd.scales() == (xs, vs)

    def test_collinearity_equals_the_coefficient_loop(self, params, T):
        seqs = _kernel_sequences(params, T) + [
            st.random_closed_sequence(np.random.default_rng(seed), params, T,
                                      collinear=bool(seed % 2))
            for seed in range(6)]
        seen = set()
        for seq in seqs:
            pd = st.path_difference(seq)
            khat = params.k_hat
            loop = all(
                not np.linalg.norm(c)
                or np.linalg.norm(np.cross(c, khat))
                <= 1e-12 * np.linalg.norm(c)
                for i in range(len(pd.pieces)) for c in pd.position_coeffs(i))
            assert pd.collinear_with(khat) == loop
            seen.add(loop)
        assert seen == {True, False}


class TestKickOrderingInvariance:
    def test_permuted_insertion_same_trajectory(self, T, rng):
        kicks = [st.ImpulseKick(T * Fraction(k, 7), (0, 0, float(v)))
                 for k, v in zip((-5, -2, 1, 4), (0.01, -0.02, 0.005, 0.007))]
        perm = list(kicks)
        rng.shuffle(perm)
        t1 = st.integrate_arm(st.ArmTimeline("a", kicks=tuple(kicks)), T)
        t2 = st.integrate_arm(st.ArmTimeline("a", kicks=tuple(perm)), T)
        assert t1.times == t2.times
        for p1, p2 in zip(t1.pieces, t2.pieces):
            assert p1.pos == p2.pos and p1.vel == p2.vel
