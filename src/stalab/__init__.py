"""Phase shifts, space-time areas and vibration transfer functions of
light-pulse atom interferometers built from impulse kicks and constant-
acceleration windows, validated against brute-force numerical oracles."""

from .errors import (DegenerateSequence, InconsistentBlochCount,
                     NonPerturbativeRotationWarning, NotInterfering,
                     OverlappingSegments, SequenceError, SequenceFileError,
                     StalabError, ToleranceNotMet, UnsupportedWaveform,
                     ZeroArea, ZeroAreaKickWarning)
from .kinematics import (PathDifference, PiecewiseTrajectory,
                         arm_trajectories, first_time_moment, integrate_arm,
                         integrate_polynomial_moment, path_difference,
                         space_time_area, space_time_area_exact)
from .oracle import (EquivalenceReport, OracleConfig, action_phase,
                     kicktrain_equivalence, quadrature_transfer,
                     random_closed_sequence, random_mirrored_sequence,
                     reference_trig_moments, sagnac_oracle)
from .phase import (MagneticSchedule, OffsetSchedule, PhaseBreakdown,
                    Waveform, fourier_coefficients, fourier_phase,
                    inertial_phase, inertial_phase_timevarying,
                    kinetic_phase, laser_phase, magnetic_phase,
                    offset_phase, open_separation_phase, sagnac_phase,
                    separation_phase, total_phase)
from .response import (TransferFunctions, abs_area, r_cab, r_mz, r_t3,
                       response_curve, rstar_butterfly, sensitivity_R,
                       sensitivity_Rstar, transfer)
from .seqfile import (load_sequence, save_sequence, sequence_from_dict,
                      sequence_to_dict)
from .sequence import (HBAR, AccelSegment, ArmTimeline, ImpulseKick,
                       InterferometerSequence, PhysicalParams, Symmetry,
                       as_time, build_butterfly, build_cab,
                       build_cab_kicktrain, build_const_accel_recoil,
                       build_mach_zehnder, build_recoil_triangle,
                       closure_defect, is_closed, swap_arms, symmetry_class)

__version__ = "0.1.0"
