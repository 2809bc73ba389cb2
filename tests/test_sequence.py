"""Sequence construction, catalog builders, closure and symmetry checks."""

import math
import pickle
from fractions import Fraction

import numpy as np
import pytest

import stalab as st
from stalab import Symmetry
from stalab.errors import (InconsistentBlochCount, OverlappingSegments,
                           SequenceError)


class TestPhysicalParams:
    def test_derived_quantities_consistent(self, params):
        k = params.k_mag
        assert params.recoil_frequency == params.hbar * k * k / (2 * params.m)
        np.testing.assert_array_equal(
            params.recoil_velocity,
            2 * params.n * params.hbar * np.asarray(params.k) / params.m)

    def test_k_hat_is_one_read_only_array(self, params):
        khat = params.k_hat
        assert params.k_hat is khat
        np.testing.assert_array_equal(khat, (0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            khat[0] = 1.0
        with pytest.raises(ValueError):
            khat *= 2.0
        np.testing.assert_array_equal(params.k_hat, (0.0, 0.0, 1.0))

    def test_equality_and_hash_ignore_derived_values(self):
        used = st.PhysicalParams(m=1e-25, k=(3e6, 0, 4e6), n=2)
        fresh = st.PhysicalParams(m=1e-25, k=(3e6, 0, 4e6), n=2)
        before = (hash(used), repr(used))
        assert (used.k_mag, tuple(used.k_hat)) == (5e6, (0.6, 0.0, 0.8))
        assert (hash(used), repr(used)) == before
        assert used == fresh and hash(used) == hash(fresh)
        assert hash(used) == hash((used.m, used.k, used.n, used.hbar))
        assert used != st.PhysicalParams(m=1e-25, k=(3e6, 0, 4e6), n=1)

    def test_validation(self):
        with pytest.raises(SequenceError):
            st.PhysicalParams(m=-1.0, k=(0, 0, 1e7))
        with pytest.raises(SequenceError):
            st.PhysicalParams(m=1e-25, k=(0, 0, 0))
        with pytest.raises(SequenceError):  # |k| overflows a double
            st.PhysicalParams(m=1e-25, k=(0, 0, 1e300))
        with pytest.raises(SequenceError):
            st.PhysicalParams(m=1e-25, k=(0, 0, 1e7), n=0)

    @pytest.mark.parametrize("m,hbar", [(math.inf, st.HBAR), (1e-25, math.nan),
                                        (1e-25, math.inf)])
    def test_non_finite_mass_or_hbar_rejected(self, m, hbar):
        with pytest.raises(SequenceError):
            st.PhysicalParams(m=m, k=(0, 0, 1e7), hbar=hbar)

    @pytest.mark.parametrize("name", ["g", "omega", "v_i"])
    def test_non_finite_sequence_vectors_rejected(self, params, T, name):
        with pytest.raises(SequenceError, match=name):
            st.InterferometerSequence(params, T, st.ArmTimeline("a"),
                                      st.ArmTimeline("b"),
                                      **{name: (0.0, math.nan, 0.0)})

    def test_pickle_round_trip_drops_derived_state(self, params, T):
        assert not params.k_hat.flags.writeable
        back = pickle.loads(pickle.dumps(params))
        assert not back.k_hat.flags.writeable
        assert back == params and hash(back) == hash(params)
        seq = st.build_cab(params, T, 4)
        fresh = pickle.dumps(seq)
        breakdown = st.total_phase(seq).to_kv_text()
        assert pickle.dumps(seq) == fresh
        back = pickle.loads(fresh)
        assert back == seq and hash(back) == hash(seq)
        assert st.total_phase(back).to_kv_text() == breakdown

    @pytest.mark.parametrize("field", ["x0", "v0"])
    def test_non_finite_arm_state_rejected(self, field):
        with pytest.raises(SequenceError, match=field):
            st.ArmTimeline("a", **{field: (0.0, math.inf, 0.0)})

    def test_non_finite_phases_rejected(self):
        with pytest.raises(SequenceError, match="phase"):
            st.ImpulseKick(0, (0.0, 0.0, 1e-2), phi=math.nan)
        with pytest.raises(SequenceError, match="phase"):
            st.AccelSegment(0, 1, (0.0, 0.0, 1.0), phi_b=-math.inf)

    def test_as_time_exact_decimal(self):
        assert st.as_time("0.1") == Fraction(1, 10)
        assert st.as_time("3/8") == Fraction(3, 8)
        assert st.as_time(0.5) == Fraction(1, 2)
        for text in ("1e-999999", "1e300"):  # digits, then magnitude
            with pytest.raises(ValueError):
                st.as_time(text)

    def test_catalog_kicks_carry_consistent_recoil_counts(self, params, T):
        # dn * (hbar |k| / m) along k_hat must equal the kick's dv projection
        for build in (st.build_mach_zehnder, st.build_butterfly,
                      st.build_recoil_triangle):
            seq = build(params, T)
            for arm in seq.arms():
                for kick in arm.kicks:
                    along = float(np.dot(kick.dv, params.k_hat))
                    assert along == pytest.approx(
                        kick.dn * params.single_photon_speed, rel=1e-15)


class TestTimelineValidation:
    def test_overlapping_segments_rejected(self, T):
        with pytest.raises(OverlappingSegments):
            st.ArmTimeline("a", segments=(
                st.AccelSegment(-T, T / 2, (0, 0, 1.0)),
                st.AccelSegment(0, T, (0, 0, 1.0)),
            ))

    def test_touching_segments_allowed(self, T):
        arm = st.ArmTimeline("a", segments=(
            st.AccelSegment(-T, 0, (0, 0, 1.0)),
            st.AccelSegment(0, T, (0, 0, -1.0)),
        ))
        assert len(arm.segments) == 2

    def test_kicks_sorted_and_merged(self, T):
        arm = st.ArmTimeline("a", kicks=(
            st.ImpulseKick(T / 2, (0, 0, 1.0), dn=2),
            st.ImpulseKick(-T, (0, 0, 2.0)),
            st.ImpulseKick(T / 2, (0, 0, -0.25), dn=-1),
        ))
        assert [k.t for k in arm.kicks] == [-T, T / 2]
        assert arm.kicks[1].dv == (0.0, 0.0, 0.75)
        assert arm.kicks[1].dn == 1

    def test_distinct_phases_not_merged(self, T):
        arm = st.ArmTimeline("a", kicks=(
            st.ImpulseKick(0, (0, 0, 1.0), phi=0.3),
            st.ImpulseKick(0, (0, 0, 1.0), phi=0.7),
        ))
        assert len(arm.kicks) == 2


class TestMachZehnder:
    def test_closure_exact(self, params, T):
        dx, dv = st.closure_defect(st.build_mach_zehnder(params, T))
        assert not dx.any() and not dv.any()

    def test_velocity_mirror_symmetry(self, params, T):
        labels = st.symmetry_class(st.build_mach_zehnder(params, T))
        assert Symmetry.VELOCITY_MIRROR in labels
        assert Symmetry.SEPARATION_SYMMETRIC in labels

    def test_space_time_area(self, params, T):
        area = st.space_time_area(st.build_mach_zehnder(params, T))
        expected = 2 * params.n * params.hbar * params.k_mag * float(T) ** 2 \
            / params.m
        assert area[2] == pytest.approx(expected, rel=1e-14)
        assert area[0] == area[1] == 0.0

    def test_delayed_last_pulse_defect(self, params, T):
        dT = Fraction(1, 10**6)
        seq = st.build_mach_zehnder(params, T, last_pulse_offset=dT)
        dx, dv = st.closure_defect(seq)
        vr = params.recoil_velocity[2]
        assert dx[2] == pytest.approx(-vr * 1e-6, rel=1e-12)
        assert not dv.any()


class TestCab:
    def test_closure_exact(self, params, T):
        seq = st.build_cab(params, T, 5, T_r=Fraction(1, 500))
        dx, dv = st.closure_defect(seq)
        assert not dx.any() and not dv.any()

    def test_area_formula_any_margin(self, params):
        T, T_r, n_b = Fraction(1, 8), Fraction(1, 80), 9
        seq = st.build_cab(params, T, n_b, T_r=T_r)
        area = st.space_time_area(seq)[2]
        expected = (2 * params.hbar * params.k_mag * float(T) ** 2 / params.m
                    * (params.n + n_b * (0.5 - 2 * float(T_r) / float(T))))
        assert area == pytest.approx(expected, rel=1e-13)

    def test_inconsistent_cycle_count(self, params, T):
        good = (float(T) - 0.0) / (2 * 5)
        with pytest.raises(InconsistentBlochCount):
            st.build_cab(params, T, 5, tau_b=Fraction(str(good * 1.01)))
        seq = st.build_cab(params, T, 5, tau_b=Fraction(1, 100))
        assert seq.arm_a.segments[0].tau_b == Fraction(1, 100)

    def test_zero_cycles_degenerates_to_mz(self, params, T, g_down):
        a = st.total_phase(st.build_cab(params, T, 0, g=g_down))
        b = st.total_phase(st.build_mach_zehnder(params, T, g=g_down))
        assert a.terms() == b.terms()

    def test_velocity_mirror_symmetry(self, params, T):
        seq = st.build_cab(params, T, 3, T_r=Fraction(1, 200))
        assert Symmetry.VELOCITY_MIRROR in st.symmetry_class(seq)


class TestButterfly:
    def test_zero_area_exact(self, params, T):
        area = st.space_time_area(st.build_butterfly(params, T))
        assert not area.any()

    def test_antisymmetric(self, params, T):
        labels = st.symmetry_class(st.build_butterfly(params, T))
        assert Symmetry.SEPARATION_ANTISYMMETRIC in labels

    def test_inertial_phase_vanishes(self, params, T, g_down):
        seq = st.build_butterfly(params, T, g=g_down)
        assert st.inertial_phase(seq) == 0.0

    def test_closure_exact(self, params, T):
        dx, dv = st.closure_defect(st.build_butterfly(params, T))
        assert not dx.any() and not dv.any()


class TestRecoilConfigs:
    def test_triangle_closed_and_asymmetric(self, params, T):
        seq = st.build_recoil_triangle(params, T)
        dx, dv = st.closure_defect(seq)
        assert not dx.any() and not dv.any()
        assert Symmetry.VELOCITY_MIRROR not in st.symmetry_class(seq)

    def test_const_accel_zero_is_trivial(self, params, T):
        seq = st.build_const_accel_recoil(params, T, 0.0)
        assert st.total_phase(seq).total == 0.0

    def test_const_accel_closed(self, params, T):
        seq = st.build_const_accel_recoil(params, T, 0.37)
        dx, dv = st.closure_defect(seq)
        assert not dx.any() and not dv.any()
        assert Symmetry.SEPARATION_SYMMETRIC in st.symmetry_class(seq)


class TestOpenSequences:
    def test_single_kick_velocity_defect(self, params, T):
        arm_b = st.ArmTimeline("b", kicks=(
            st.ImpulseKick(0, tuple(params.recoil_velocity), dn=2),))
        seq = st.InterferometerSequence(params, T, st.ArmTimeline("a"), arm_b)
        dx, dv = st.closure_defect(seq)
        assert np.linalg.norm(dv) > 0
        assert not st.is_closed(seq)

    def test_random_sequence_typically_no_symmetry(self, params, T, rng):
        seq = st.random_closed_sequence(rng, params, T)
        assert st.symmetry_class(seq) == frozenset()


class TestArmSwap:
    def test_swap_negates_breakdown(self, params, T, g_down):
        seq = st.build_cab(params, T, 4, T_r=Fraction(1, 400), g=g_down,
                           phases=(0.1, 0.2, -0.3),
                           bloch_phases=(0.4, -0.1, 0.2, 0.6),
                           omega=(3e-5, 0, 0), v_i=(0, 0.1, 0))
        fwd = st.total_phase(seq)
        rev = st.total_phase(st.swap_arms(seq))
        for name, value in fwd.terms().items():
            assert getattr(rev, name) == pytest.approx(-value, abs=1e-18,
                                                       rel=1e-12), name
