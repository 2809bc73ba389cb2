"""Sequence file format: a JSON document, SI units throughout.

Schema (all vectors are [x, y, z] in SI units)::

    {
      "format": "stalab-sequence/1",
      "params": {"m": kg, "hbar": J s, "k": [rad/m], "n": int},
      "T": seconds,
      "g": [m/s^2], "omega": [rad/s], "v_i": [m/s],
      "arm_a": {
        "x0": [m], "v0": [m/s],
        "kicks": [{"t": s, "dv": [m/s], "phi": rad, "dn": int}],
        "segments": [{"t_s": s, "t_e": s, "a": [m/s^2],
                      "phi_b": rad, "tau_b": s | null}]
      },
      "arm_b": {...}
    }

Times may be JSON numbers, decimal strings or "p/q" rational strings; they
load as exact rationals either way (JSON number tokens are parsed digit-
exactly, never through a double), within the size and magnitude bounds of
`sequence.parse_time`. The writer emits decimal strings when the rational
has a finite decimal form and "p/q" otherwise, so a save/load round trip
preserves every time bit-exactly.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from typing import Any

from .errors import SequenceError, SequenceFileError
from .sequence import (AccelSegment, ArmTimeline, ImpulseKick,
                       InterferometerSequence, PhysicalParams, parse_time)

FORMAT_TAG = "stalab-sequence/1"


def _time_to_str(t: Fraction) -> str:
    num, den = t.numerator, t.denominator
    if den == 1:
        return str(num)
    twos = fives = 0
    rest = den
    while rest % 2 == 0:
        rest //= 2
        twos += 1
    while rest % 5 == 0:
        rest //= 5
        fives += 1
    if rest != 1:
        return f"{num}/{den}"
    shift = max(twos, fives)
    scaled = num * 10**shift // den
    sign = "-" if scaled < 0 else ""
    digits = str(abs(scaled)).rjust(shift + 1, "0")
    head, tail = digits[:-shift], digits[-shift:]
    return f"{sign}{head}.{tail}"


class _Number(str):
    """Text of a JSON number token: each field bounds and parses it, so an
    oversized one is reported with the field's name."""


def _parse_time(value: Any, where: str) -> Fraction:
    try:
        if isinstance(value, Fraction):
            return value
        if isinstance(value, bool):
            raise TypeError("boolean is not a time")
        if isinstance(value, (int, str)):
            return parse_time(str(value))
        if isinstance(value, float):
            return Fraction(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise SequenceFileError(where, f"bad time value {value!r:.80}: {exc}")
    raise SequenceFileError(where, f"bad time value {value!r:.80}")


def _parse_float(value: Any, where: str) -> float:
    if isinstance(value, _Number):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float, Fraction)):
        raise SequenceFileError(where, f"expected a number, got {value!r}")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        raise SequenceFileError(where,
                                f"expected a finite number, got {value!r}")
    return out


def _parse_vec(value: Any, where: str) -> tuple[float, float, float]:
    if not isinstance(value, (list, tuple)) or len(value) != 3:
        raise SequenceFileError(where, f"expected a 3-vector, got {value!r}")
    return tuple(_parse_float(c, f"{where}[{i}]") for i, c in enumerate(value))


def _parse_int(value: Any, where: str) -> int:
    digits = value.lstrip("-") if isinstance(value, _Number) else ""
    if digits.isdecimal() and len(digits) <= 100:
        return int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise SequenceFileError(where, "expected an integer of at most 100 "
                                f"digits, got {value!r:.80}")
    return value


def _get(doc: dict, key: str, where: str) -> Any:
    if key not in doc:
        raise SequenceFileError(f"{where}{key}", "missing required field")
    return doc[key]


def _get_list(doc: dict, key: str, where: str) -> list:
    value = doc.get(key, [])
    if not isinstance(value, list):
        raise SequenceFileError(f"{where}.{key}",
                                f"expected a list, got {value!r:.80}")
    return value


def _parse_arm(doc: Any, label: str, where: str) -> ArmTimeline:
    if not isinstance(doc, dict):
        raise SequenceFileError(where, "expected an object")
    kicks = []
    for i, item in enumerate(_get_list(doc, "kicks", where)):
        w = f"{where}.kicks[{i}]"
        if not isinstance(item, dict):
            raise SequenceFileError(w, "expected an object")
        kicks.append(ImpulseKick(
            t=_parse_time(_get(item, "t", w + "."), w + ".t"),
            dv=_parse_vec(_get(item, "dv", w + "."), w + ".dv"),
            phi=_parse_float(item.get("phi", 0.0), w + ".phi"),
            dn=_parse_int(item.get("dn", 0), w + ".dn")))
    segments = []
    for i, item in enumerate(_get_list(doc, "segments", where)):
        w = f"{where}.segments[{i}]"
        if not isinstance(item, dict):
            raise SequenceFileError(w, "expected an object")
        tau = item.get("tau_b")
        segments.append(AccelSegment(
            t_start=_parse_time(_get(item, "t_s", w + "."), w + ".t_s"),
            t_end=_parse_time(_get(item, "t_e", w + "."), w + ".t_e"),
            a=_parse_vec(_get(item, "a", w + "."), w + ".a"),
            phi_b=_parse_float(item.get("phi_b", 0.0), w + ".phi_b"),
            tau_b=None if tau is None else _parse_time(tau, w + ".tau_b")))
    try:
        return ArmTimeline(
            label, kicks=tuple(kicks), segments=tuple(segments),
            x0=_parse_vec(doc.get("x0", (0.0, 0.0, 0.0)), where + ".x0"),
            v0=_parse_vec(doc.get("v0", (0.0, 0.0, 0.0)), where + ".v0"))
    except SequenceError as exc:
        raise SequenceFileError(where, str(exc))


def sequence_from_dict(doc: Any) -> InterferometerSequence:
    if not isinstance(doc, dict):
        raise SequenceFileError("$", "top level must be an object")
    tag = doc.get("format", FORMAT_TAG)
    if tag != FORMAT_TAG:
        raise SequenceFileError("format", f"unsupported format {tag!r}")
    p = _get(doc, "params", "")
    if not isinstance(p, dict):
        raise SequenceFileError("params", "expected an object")
    try:
        params = PhysicalParams(
            m=_parse_float(_get(p, "m", "params."), "params.m"),
            k=_parse_vec(_get(p, "k", "params."), "params.k"),
            n=_parse_int(_get(p, "n", "params."), "params.n"),
            hbar=_parse_float(_get(p, "hbar", "params."), "params.hbar"))
    except SequenceError as exc:
        raise SequenceFileError("params", str(exc))
    try:
        return InterferometerSequence(
            params=params,
            T=_parse_time(_get(doc, "T", ""), "T"),
            arm_a=_parse_arm(_get(doc, "arm_a", ""), "a", "arm_a"),
            arm_b=_parse_arm(_get(doc, "arm_b", ""), "b", "arm_b"),
            g=_parse_vec(doc.get("g", (0.0, 0.0, 0.0)), "g"),
            omega=_parse_vec(doc.get("omega", (0.0, 0.0, 0.0)), "omega"),
            v_i=_parse_vec(doc.get("v_i", (0.0, 0.0, 0.0)), "v_i"),
            name=str(doc.get("name", "")))
    except SequenceError as exc:
        raise SequenceFileError("$", str(exc))


def sequence_to_dict(seq: InterferometerSequence) -> dict:
    def arm(a: ArmTimeline) -> dict:
        return {
            "x0": list(a.x0),
            "v0": list(a.v0),
            "kicks": [{"t": _time_to_str(k.t), "dv": list(k.dv),
                       "phi": k.phi, "dn": k.dn} for k in a.kicks],
            "segments": [{"t_s": _time_to_str(s.t_start),
                          "t_e": _time_to_str(s.t_end), "a": list(s.a),
                          "phi_b": s.phi_b,
                          "tau_b": None if s.tau_b is None
                          else _time_to_str(s.tau_b)} for s in a.segments],
        }

    return {
        "format": FORMAT_TAG,
        "name": seq.name,
        "params": {"m": seq.params.m, "hbar": seq.params.hbar,
                   "k": list(seq.params.k), "n": seq.params.n},
        "T": _time_to_str(seq.T),
        "g": list(seq.g),
        "omega": list(seq.omega),
        "v_i": list(seq.v_i),
        "arm_a": arm(seq.arm_a),
        "arm_b": arm(seq.arm_b),
    }


def load_sequence(path) -> InterferometerSequence:
    """Read a sequence file; diagnostics name the offending field."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, parse_float=_Number, parse_int=_Number)
        except json.JSONDecodeError as exc:
            raise SequenceFileError("$", f"not valid JSON: {exc}")
    return sequence_from_dict(doc)


def save_sequence(seq: InterferometerSequence, path) -> None:
    """Write a sequence file that reloads bit-exactly."""
    text = json.dumps(sequence_to_dict(seq), indent=2, sort_keys=True,
                      default=_json_float) + "\n"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _json_float(value):
    raise TypeError(f"not JSON serializable: {value!r}")
