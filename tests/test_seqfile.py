"""Sequence file round trips and loader diagnostics."""

import json
from fractions import Fraction

import pytest

import stalab as st
from stalab import seqfile
from stalab.errors import SequenceFileError


@pytest.fixture
def cab_seq(params, g_down):
    return st.build_cab(params, Fraction(1, 8), 5, T_r=Fraction(1, 400),
                        g=g_down, phases=(0.1, 0.2, 0.3),
                        bloch_phases=(0.4, 0.5, 0.6, 0.7),
                        omega=(1e-5, 0, 0), v_i=(0, 0.2, 0))


class TestRoundTrip:
    def test_sequence_identity(self, cab_seq, tmp_path):
        path = tmp_path / "seq.json"
        seqfile.save_sequence(cab_seq, path)
        assert seqfile.load_sequence(path) == cab_seq

    def test_breakdown_identical(self, cab_seq, tmp_path):
        path = tmp_path / "seq.json"
        seqfile.save_sequence(cab_seq, path)
        back = seqfile.load_sequence(path)
        assert st.total_phase(back).to_kv_text() \
            == st.total_phase(cab_seq).to_kv_text()

    def test_non_decimal_rational_times(self, params, tmp_path):
        seq = st.build_mach_zehnder(params, Fraction(1, 3))
        path = tmp_path / "seq.json"
        seqfile.save_sequence(seq, path)
        text = path.read_text()
        assert "1/3" in text
        assert seqfile.load_sequence(path).T == Fraction(1, 3)

    def test_smallest_double_time_round_trips(self, params, tmp_path):
        # the longest exact decimal a double can need is within the bound
        seq = st.build_mach_zehnder(params, 5e-324)
        path = tmp_path / "seq.json"
        seqfile.save_sequence(seq, path)
        assert seqfile.load_sequence(path) == seq

    def test_numeric_time_tokens_parse_exactly(self, params, tmp_path):
        doc = seqfile.sequence_to_dict(st.build_mach_zehnder(params, "0.1"))
        doc["T"] = 0.1  # will be serialized as a JSON number
        path = tmp_path / "seq.json"
        path.write_text(json.dumps(doc))
        assert seqfile.load_sequence(path).T == Fraction(1, 10)


class TestDiagnostics:
    def _doc(self, params):
        return seqfile.sequence_to_dict(
            st.build_mach_zehnder(params, Fraction(1, 10)))

    def test_missing_field_named(self, params, tmp_path):
        doc = self._doc(params)
        del doc["params"]["m"]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SequenceFileError) as err:
            seqfile.load_sequence(path)
        assert err.value.field == "params.m"

    def test_bad_vector_named(self, params, tmp_path):
        doc = self._doc(params)
        doc["arm_a"]["kicks"][1]["dv"] = [1.0, 2.0]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SequenceFileError) as err:
            seqfile.load_sequence(path)
        assert err.value.field == "arm_a.kicks[1].dv"

    def test_bad_time_named(self, params, tmp_path):
        doc = self._doc(params)
        doc["arm_b"]["kicks"][0]["t"] = "not-a-time"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SequenceFileError) as err:
            seqfile.load_sequence(path)
        assert err.value.field == "arm_b.kicks[0].t"

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(SequenceFileError):
            seqfile.load_sequence(path)

    def test_bad_physics_rejected(self, params, tmp_path):
        doc = self._doc(params)
        doc["params"]["n"] = 0
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(SequenceFileError):
            seqfile.load_sequence(path)
