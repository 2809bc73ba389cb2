"""Command-line interface: outputs, exit codes, determinism."""

import json
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import stalab as st
from stalab import cli, seqfile


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _mz_file_with(tmp_path, where, token):
    """A Mach-Zehnder sequence file whose field at ``where`` holds the raw
    JSON text ``token``."""
    doc = seqfile.sequence_to_dict(
        st.build_mach_zehnder(st.PhysicalParams.rubidium87(), "0.1"))
    *outer, last = where
    target = doc
    for key in outer:
        target = target[key]
    target[last] = "@@"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace('"@@"', token))
    return str(path)


class TestPhaseCommand:
    def test_mz_preset_value(self, capsys):
        code, out, _ = run(["phase", "--preset", "mz", "--n", "1",
                            "--T", "0.1", "--g", "9.8"], capsys)
        assert code == 0
        total = dict(line.split("=", 1) for line in out.strip().splitlines())
        p = st.PhysicalParams.rubidium87()
        expected = 2 * p.n * p.k_mag * 9.8 * 0.01
        assert float(total["total"]) == pytest.approx(expected, rel=1e-12)

    def test_butterfly_inertial_zero(self, capsys):
        code, out, _ = run(["phase", "--preset", "butterfly", "--T", "0.1",
                            "--g", "9.8"], capsys)
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(fields["inertial"]) == 0.0

    def test_csv_format(self, capsys):
        code, out, _ = run(["phase", "--preset", "mz", "--format", "csv"],
                           capsys)
        assert code == 0
        assert out.splitlines()[0] == "term,radians"

    def test_malformed_file_exit_1_names_field(self, tmp_path, capsys):
        doc = seqfile.sequence_to_dict(
            st.build_mach_zehnder(st.PhysicalParams.rubidium87(), "0.1"))
        del doc["params"]["k"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(["phase", "--input", str(path)], capsys)
        assert code == 1
        assert "params.k" in err

    @pytest.mark.parametrize("where,token,field", [
        (("g", 2), "NaN", "g[2]"),
        (("arm_a", "kicks", 0, "phi"), "Infinity", "arm_a.kicks[0].phi"),
        (("params", "m"), "Infinity", "params.m"),
        (("params", "hbar"), "-Infinity", "params.hbar"),
        (("v_i", 0), "1e999", "v_i[0]"),
    ])
    def test_non_finite_value_exit_1_names_field(self, where, token, field,
                                                 tmp_path, capsys):
        code, out, err = run(["phase", "--input",
                              _mz_file_with(tmp_path, where, token)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: field '{field}'")

    @pytest.mark.parametrize("where,token,field", [
        (("arm_a", "kicks"), "5", "arm_a.kicks"),
        (("arm_b", "segments"), '{"t_s": 0}', "arm_b.segments"),
        (("T",), '"1e999999"', "T"),
        (("T",), '"1e-999999"', "T"),
        (("T",), "1e-999999", "T"),
        (("arm_b", "kicks", 0, "t"), '"1/1' + "0" * 1100 + '"',
         "arm_b.kicks[0].t"),
        # integer tokens past Python's 4300-digit conversion limit
        (("params", "n"), "1" * 5001, "params.n"),
        (("arm_a", "x0", 2), "1" * 5001, "arm_a.x0[2]"),
        (("T",), "1" * 5001, "T"),
    ])
    def test_malformed_value_exit_1_names_field_fast(self, where, token,
                                                     field, tmp_path, capsys):
        start = time.perf_counter()
        code, out, err = run(["phase", "--input",
                              _mz_file_with(tmp_path, where, token)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: field '{field}'")
        assert len(err.splitlines()) == 1
        assert time.perf_counter() - start < 1.0

    def test_missing_file_exit_1(self, capsys):
        code, _, err = run(["phase", "--input", "/nonexistent.json"], capsys)
        assert code == 1

    def test_not_interfering_exit_2(self, tmp_path, capsys):
        p = st.PhysicalParams.rubidium87()
        arm_b = st.ArmTimeline("b", kicks=(
            st.ImpulseKick(0, tuple(p.recoil_velocity), dn=2),))
        seq = st.InterferometerSequence(p, Fraction(1, 10),
                                        st.ArmTimeline("a"), arm_b)
        path = tmp_path / "open.json"
        seqfile.save_sequence(seq, path)
        code, _, err = run(["phase", "--input", str(path)], capsys)
        assert code == 2

    def test_usage_error_exit_1(self, capsys):
        code, _, err = run(["phase"], capsys)
        assert code == 1


class TestAreaCommand:
    def test_butterfly_area(self, capsys):
        code, out, _ = run(["area", "--preset", "butterfly", "--T", "0.1"],
                           capsys)
        assert code == 0
        fields = dict(line.split("=", 1) for line in out.strip().splitlines())
        assert float(fields["area_z"]) == 0.0
        assert float(fields["abs_area"]) > 0


class TestResponseCommand:
    def test_points_rows(self, capsys):
        code, out, _ = run(["response", "--preset", "mz", "--T", "0.1",
                            "--omega-min", "0", "--omega-max", "100",
                            "--points", "2"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3
        assert lines[0] == "omega,Ac_x,Ac_y,Ac_z,As_x,As_y,As_z,R,Rstar"

    def test_byte_deterministic(self, capsys):
        argv = ["response", "--preset", "cab", "--nb", "3", "--T", "0.1",
                "--omega-min", "1", "--omega-max", "300", "--points", "50",
                "--scale", "log"]
        _, out1, _ = run(argv, capsys)
        _, out2, _ = run(argv, capsys)
        assert out1 == out2

    @pytest.mark.parametrize("low, high, field", [
        ("1", "inf", "omega_max"), ("nan", "5", "omega_min"),
        ("-inf", "5", "omega_min")])
    def test_non_finite_omega_exit_1_names_field(self, capsys, low, high,
                                                 field):
        code, out, err = run(["response", "--preset", "mz",
                              f"--omega-min={low}", f"--omega-max={high}",
                              "--points", "5"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ") and field in err
        assert "Warning" not in err

    def test_omega_up_to_1e308_prints_finite_rows(self, capsys):
        code, out, err = run(["response", "--preset", "mz",
                              "--omega-min", "1", "--omega-max", "1e308",
                              "--points", "3", "--scale", "log"], capsys)
        assert code == 0 and err == ""
        assert "nan" not in out and "inf" not in out

    def test_mz_envelope(self, capsys):
        code, out, _ = run(["response", "--preset", "mz", "--T", "0.1",
                            "--omega-min", "0", "--omega-max", "400",
                            "--points", "1000"], capsys)
        rows = [line.split(",") for line in out.strip().splitlines()[1:]]
        omega = np.array([float(r[0]) for r in rows])
        rvals = np.array([float(r[7]) for r in rows])
        assert np.argmax(rvals) == 0
        wt = omega * 0.1
        sel = wt > 2 * np.pi
        assert np.all(rvals[sel] * wt[sel] ** 2 <= 4.0 + 1e-9)


class TestTrajectoryCommand:
    def test_sampled_columns(self, capsys):
        code, out, _ = run(["trajectory", "--preset", "triangle",
                            "--T", "0.1", "--samples", "11"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("t,xa_x")
        assert len(lines[1].split(",")) == 16


class TestCatalogCommand:
    def test_lists_presets(self, capsys):
        code, out, _ = run(["catalog"], capsys)
        assert code == 0
        assert "preset=mz" in out

    def test_export_round_trip(self, tmp_path, capsys):
        path = tmp_path / "cab.json"
        code, _, _ = run(["catalog", "--preset", "cab", "--T", "0.1",
                          "--nb", "4", "--g", "9.8", "--save", str(path)],
                         capsys)
        assert code == 0
        seq = seqfile.load_sequence(path)
        direct = st.build_cab(st.PhysicalParams.rubidium87(), "0.1", 4,
                              g=tuple(9.8 * st.PhysicalParams.rubidium87().k_hat))
        assert st.total_phase(seq).to_kv_text() \
            == st.total_phase(direct).to_kv_text()


class TestValidateCommand:
    def test_full_run_matches_golden_output(self, capsys):
        golden = Path(__file__).parent / "golden" / "validate.txt"
        code, out, _ = run(["validate"], capsys)
        assert code == 0
        assert out == golden.read_text(encoding="utf-8")

    def test_filtered_run_passes(self, capsys):
        code, out, _ = run(["validate", "--filter", "sagnac"], capsys)
        assert code == 0
        assert "sagnac/mz-closed-form" in out
        assert "FAIL" not in out
        assert "mz/phase-closed-form" not in out

    def test_laser_sign_mutation_is_caught(self, capsys, monkeypatch):
        """Deliberate mutation: flipping the kick-sign rule must trip the
        laser-pattern checks (guards the sign convention)."""
        import stalab.phase as phase_mod
        original = phase_mod._kick_area_sign
        monkeypatch.setattr(phase_mod, "_kick_area_sign",
                            lambda arm, along: -original(arm, along))
        code, out, _ = run(["validate", "--filter", "laser"], capsys)
        assert code == 1
        assert "verdict=FAIL" in out
