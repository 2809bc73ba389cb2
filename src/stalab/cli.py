"""Command-line front end.

Commands: ``phase`` (term-by-term breakdown), ``area`` (space-time areas),
``response`` (transfer-function CSV), ``trajectory`` (sampled arm paths),
``validate`` (golden-formula / oracle suite) and ``catalog`` (list or
export presets). Sequences come from ``--preset`` plus parameter flags or
from a sequence file via ``--input``.

Exit codes: 0 success, 1 bad input (usage, file or schema errors),
2 sequence does not interfere in the far field.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

import numpy as np

from . import kinematics, response, seqfile
from .errors import NotInterfering, SequenceFileError, StalabError
from .phase import total_phase
from .sequence import (InterferometerSequence, PhysicalParams,
                       build_butterfly, build_cab, build_cab_kicktrain,
                       build_const_accel_recoil, build_mach_zehnder,
                       build_recoil_triangle, parse_time)

PRESETS = ("mz", "cab", "cab-kicktrain", "butterfly", "triangle",
           "const-accel")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); we reserve 2
        raise _UsageError(message)


def _frac(text: str) -> Fraction:
    try:
        return parse_time(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"bad rational/decimal value {text!r}: {exc}")


def _vec(text: str):
    parts = text.split(",")
    if len(parts) != 3:
        raise _UsageError(f"expected x,y,z but got {text!r}")
    return tuple(float(p) for p in parts)


def _add_source_args(sp: argparse.ArgumentParser):
    sp.add_argument("--input", help="sequence file (JSON)")
    sp.add_argument("--preset", choices=PRESETS, help="catalog sequence")
    sp.add_argument("--T", type=_frac, default=Fraction(1, 10),
                    help="half duration, s (decimal or p/q; default 0.1)")
    sp.add_argument("--n", type=int, default=1, help="diffraction order")
    sp.add_argument("--m", type=float, default=None,
                    help="atomic mass, kg (default 87Rb)")
    sp.add_argument("--kmag", type=float, default=None,
                    help="|k|, rad/m (default 8.055e6, along +z)")
    sp.add_argument("--nb", type=int, default=4,
                    help="lattice cycles per ramp (cab presets)")
    sp.add_argument("--taub", type=_frac, default=None,
                    help="lattice cycle period, s (cab presets)")
    sp.add_argument("--tr", type=_frac, default=Fraction(0),
                    help="lattice loading margin T_r, s (cab presets)")
    sp.add_argument("--accel", type=float, default=None,
                    help="ramp acceleration along k, m/s^2 (const-accel)")
    sp.add_argument("--delta-t", type=_frac, default=Fraction(0),
                    help="timing offset of the final pulse, s (mz)")
    sp.add_argument("--phases", type=str, default=None,
                    help="comma list of pulse phases, rad")
    sp.add_argument("--bloch-phases", type=str, default=None,
                    help="comma list of 4 lattice phases, rad (cab)")
    sp.add_argument("--g", type=str, default="0",
                    help="background acceleration: scalar (along k) or x,y,z")
    sp.add_argument("--omega-rot", type=str, default="0,0,0",
                    help="rotation rate vector, rad/s")
    sp.add_argument("--vi", type=str, default="0,0,0",
                    help="launch velocity at -T, m/s")


def _build_sequence(args) -> InterferometerSequence:
    if args.input and args.preset:
        raise _UsageError("give either --input or --preset, not both")
    if args.input:
        return seqfile.load_sequence(args.input)
    if not args.preset:
        raise _UsageError("a sequence source is required (--input/--preset)")

    params = PhysicalParams.rubidium87(n=args.n)
    if args.m is not None or args.kmag is not None:
        params = PhysicalParams(
            m=args.m if args.m is not None else params.m,
            k=(0.0, 0.0, args.kmag) if args.kmag is not None else params.k,
            n=args.n)
    if "," in args.g:
        g = _vec(args.g)
    else:
        g = tuple(float(args.g) * params.k_hat)
    omega = _vec(args.omega_rot)
    v_i = _vec(args.vi)

    def phases(count, flag):
        if flag is None:
            return (0.0,) * count
        parts = tuple(float(p) for p in flag.split(","))
        if len(parts) != count:
            raise _UsageError(f"expected {count} phases, got {len(parts)}")
        return parts

    common = dict(g=g, omega=omega, v_i=v_i)
    if args.preset == "mz":
        return build_mach_zehnder(params, args.T,
                                  phases=phases(3, args.phases),
                                  last_pulse_offset=args.delta_t, **common)
    if args.preset == "cab":
        return build_cab(params, args.T, args.nb, args.taub, args.tr,
                         phases=phases(3, args.phases),
                         bloch_phases=phases(4, args.bloch_phases), **common)
    if args.preset == "cab-kicktrain":
        return build_cab_kicktrain(params, args.T, args.nb, args.taub,
                                   args.tr, phases=phases(3, args.phases),
                                   bloch_phases=phases(4, args.bloch_phases),
                                   **common)
    if args.preset == "butterfly":
        return build_butterfly(params, args.T, phases=phases(4, args.phases),
                               **common)
    if args.preset == "triangle":
        return build_recoil_triangle(params, args.T,
                                     phases=phases(3, args.phases), **common)
    if args.preset == "const-accel":
        accel = args.accel
        if accel is None:
            # lattice-equivalent default: 2 n_b recoils over each half
            accel = 4.0 * args.nb * params.hbar * params.k_mag \
                / (params.m * float(args.T))
        return build_const_accel_recoil(params, args.T, accel, **common)
    raise _UsageError(f"unknown preset {args.preset!r}")


def _emit(text: str, path: str | None):
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_phase(args) -> int:
    seq = _build_sequence(args)
    breakdown = total_phase(seq)
    text = breakdown.to_csv() if args.format == "csv" \
        else breakdown.to_kv_text()
    _emit(text, args.output)
    return 0


def _cmd_area(args) -> int:
    seq = _build_sequence(args)
    area = kinematics.space_time_area(seq)
    astar = response.abs_area(seq)
    tmom = kinematics.first_time_moment(seq)
    lines = [f"area_x={area[0]:.17g}", f"area_y={area[1]:.17g}",
             f"area_z={area[2]:.17g}", f"abs_area={astar:.17g}",
             f"t_moment_x={tmom[0]:.17g}", f"t_moment_y={tmom[1]:.17g}",
             f"t_moment_z={tmom[2]:.17g}"]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_response(args) -> int:
    seq = _build_sequence(args)
    curves = response.response_curve(seq, args.omega_min, args.omega_max,
                                     args.points, args.scale)
    _emit(curves.to_csv(), args.output)
    return 0


def _cmd_trajectory(args) -> int:
    seq = _build_sequence(args)
    ta, tb = kinematics.arm_trajectories(seq)
    pd = kinematics.path_difference(seq)
    E = float(seq.horizon)
    grid = sorted(set(np.linspace(-E, E, args.samples))
                  | {float(t) for t in pd.times})
    header = ("t,xa_x,xa_y,xa_z,va_x,va_y,va_z,"
              "xb_x,xb_y,xb_z,vb_x,vb_y,vb_z,dx_x,dx_y,dx_z")
    lines = [header]
    t = np.asarray(grid)
    xa, va = ta.sample(t)
    xb, vb = tb.sample(t)
    dx = pd.sample(t)
    for i, ti in enumerate(grid):
        cells = [f"{ti:.17g}"]
        for block in (xa[i], va[i], xb[i], vb[i], dx[i]):
            cells.extend(f"{v:.17g}" for v in block)
        lines.append(",".join(cells))
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_validate(args) -> int:
    from . import validate

    results = validate.run_checks(args.filter)
    lines = [r.line() for r in results]
    failures = [r for r in results if not r.passed]
    lines.append(f"checks={len(results)} failures={len(failures)}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0 if results and not failures else 1


def _cmd_catalog(args) -> int:
    if args.save:
        seq = _build_sequence(args)
        seqfile.save_sequence(seq, args.save)
        return 0
    lines = ["preset=mz params: --T --n [--delta-t] [--phases p1,p2,p3]",
             "preset=cab params: --T --n --nb [--taub] [--tr] [--phases] "
             "[--bloch-phases b1,b2,b3,b4]",
             "preset=cab-kicktrain params: same as cab",
             "preset=butterfly params: --T --n [--phases p1,p2,p3,p4]",
             "preset=triangle params: --T --n [--phases p1,p2,p3]",
             "preset=const-accel params: --T [--accel | --nb]",
             "common: [--g scalar|x,y,z] [--omega-rot x,y,z] [--vi x,y,z] "
             "[--m kg] [--kmag rad_per_m]"]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def make_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="stalab", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("phase", help="phase breakdown of a sequence")
    _add_source_args(sp)
    sp.add_argument("--format", choices=("kv", "csv"), default="kv")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=_cmd_phase)

    sp = sub.add_parser("area", help="space-time areas of a sequence")
    _add_source_args(sp)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=_cmd_area)

    sp = sub.add_parser("response", help="transfer-function curve as CSV")
    _add_source_args(sp)
    sp.add_argument("--omega-min", type=float, required=True)
    sp.add_argument("--omega-max", type=float, required=True)
    sp.add_argument("--points", type=int, required=True)
    sp.add_argument("--scale", choices=("linear", "log"), default="linear")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=_cmd_response)

    sp = sub.add_parser("trajectory", help="sampled arm trajectories as CSV")
    _add_source_args(sp)
    sp.add_argument("--samples", type=int, default=201)
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=_cmd_trajectory)

    sp = sub.add_parser("validate", help="run the validation suite")
    sp.add_argument("--filter", default="", help="run matching check groups")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=_cmd_validate)

    sp = sub.add_parser("catalog", help="list presets or export one")
    _add_source_args(sp)
    sp.add_argument("--save", default=None,
                    help="write the preset to a sequence file")
    sp.add_argument("-o", "--output", default=None)
    sp.set_defaults(func=_cmd_catalog)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except SequenceFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NotInterfering as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (StalabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
