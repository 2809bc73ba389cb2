"""The per-sequence analysis object: a repeated query redoes no exact work
and hashes nothing, but still warns and raises on every call."""

from fractions import Fraction

import numpy as np
import pytest

import stalab as st
from stalab import kinematics
from stalab.errors import (DegenerateSequence, NonPerturbativeRotationWarning,
                           NotInterfering, ZeroArea, ZeroAreaKickWarning)

# exact-layer functions a warm query must not reach: arm integration, the
# kinetic sums, the mirror walks and every exact power moment (the bodies
# of moment_poly_exact and self_cross_moment)
EXACT_WORK = ("integrate_arm", "speed_squared_integral_exact", "_mirrored",
              "_power_moment")


def _count_calls(monkeypatch) -> dict[str, int]:
    """Call counts of EXACT_WORK and of InterferometerSequence.__hash__
    from here on."""
    counts = dict.fromkeys(EXACT_WORK + ("__hash__",), 0)

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in EXACT_WORK:
        monkeypatch.setattr(kinematics, name,
                            counting(name, getattr(kinematics, name)))
    monkeypatch.setattr(st.InterferometerSequence, "__hash__",
                        counting("__hash__",
                                 st.InterferometerSequence.__hash__))
    return counts


def _queries(seq):
    return (st.total_phase(seq), st.sensitivity_R(seq, 123.0),
            st.sensitivity_Rstar(seq, 45.0), st.abs_area(seq))


class TestWarmQueries:
    @pytest.mark.parametrize("kind", ["cab-kicktrain", "random"])
    def test_second_round_does_no_exact_work(self, params, T, g_down,
                                             monkeypatch, kind):
        if kind == "random":
            seq = st.random_closed_sequence(np.random.default_rng(5), params,
                                            T)
        else:
            seq = st.build_cab_kicktrain(params, T, 8, g=g_down,
                                         omega=(1e-5, 2e-5, 0.0))
        calls = _count_calls(monkeypatch)
        first = _queries(seq)
        assert calls["integrate_arm"] == 2
        assert calls["speed_squared_integral_exact"] == 2
        assert calls["_mirrored"] >= 2 and calls["_power_moment"] > 0
        assert calls["__hash__"] == 0
        calls.update(dict.fromkeys(calls, 0))
        info = kinematics.path_difference.cache_info()
        second = _queries(seq)
        assert calls == dict.fromkeys(calls, 0)
        assert kinematics.path_difference.cache_info().misses == info.misses
        assert second == first

    def test_equal_instances_each_build_their_own(self, params, T,
                                                  monkeypatch):
        seq = st.build_butterfly(params, T)
        twin = st.build_butterfly(params, T)
        calls = _count_calls(monkeypatch)
        assert st.space_time_area(seq).tolist() == [0.0, 0.0, 0.0]
        assert calls["integrate_arm"] == 2
        st.space_time_area(twin)
        assert calls["integrate_arm"] == 4 and calls["__hash__"] == 0
        # the analysis lives outside the fields: equality, hash, repr
        assert seq == twin and repr(seq) == repr(twin)
        assert hash(seq) == hash(twin)

    def test_cache_info_counts_lookups(self, params, T):
        seq = st.build_mach_zehnder(params, Fraction(3, 41))
        before = kinematics.path_difference.cache_info()
        pd = st.path_difference(seq)
        assert st.path_difference(seq) is pd
        assert st.arm_trajectories(seq) is st.arm_trajectories(seq)
        after = kinematics.path_difference.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) \
            == (3, 1)

    def test_returned_arrays_are_fresh(self, params, T, g_down):
        seq = st.build_mach_zehnder(params, T, g=g_down)
        area = st.space_time_area(seq)
        dx, dv = st.closure_defect(seq)
        area[:] = dx[:] = dv[:] = 1.0
        assert st.space_time_area(seq)[2] != 1.0
        assert not any(np.concatenate(st.closure_defect(seq)))


class TestRepeatedCallsWarnAndRaise:
    def test_zero_area_kick_warns_every_call(self, params, T):
        arm_a = st.ArmTimeline("a", kicks=(
            st.ImpulseKick(0, (0.01, 0.0, 0.0), phi=0.5, dn=2),))
        seq = st.InterferometerSequence(params, T, arm_a, st.ArmTimeline("b"))
        for _ in range(3):
            with pytest.warns(ZeroAreaKickWarning):
                assert st.laser_phase(seq) == 0.0

    def test_not_interfering_raises_every_call(self, params, T):
        arm_b = st.ArmTimeline("b", kicks=(
            st.ImpulseKick(0, tuple(params.recoil_velocity)),))
        seq = st.InterferometerSequence(params, T, st.ArmTimeline("a"), arm_b)
        for _ in range(3):
            with pytest.raises(NotInterfering):
                st.total_phase(seq)

    def test_rotation_range_warns_every_call(self, params, T):
        seq = st.build_butterfly(params, T, omega=(1.0, 0.0, 0.0))
        for _ in range(3):
            with pytest.warns(NonPerturbativeRotationWarning):
                st.sagnac_phase(seq)

    def test_degenerate_ratios_raise_every_call(self, params, T):
        fly = st.build_butterfly(params, T)
        same = st.InterferometerSequence(params, T, st.ArmTimeline("a"),
                                         st.ArmTimeline("b"))
        for _ in range(3):
            with pytest.raises(ZeroArea):
                st.sensitivity_R(fly, 10.0)
            with pytest.raises(DegenerateSequence):
                st.sensitivity_Rstar(same, 10.0)

    def test_tolerance_stays_per_call(self, params, T):
        seq = st.build_mach_zehnder(params, T, last_pulse_offset=Fraction(
            1, 10**12))
        assert not st.is_closed(seq, rel_tol=1e-15)
        assert st.is_closed(seq, rel_tol=1e-3)
        assert not st.is_closed(seq, rel_tol=1e-15)
