"""Bit-exact log round-trips: truncation flags, non-finite floats, refilters.

The paper publishes corrupted outputs "so to allow users to apply
different filters"; that only works if the log is *exact*.  These tests
pin the three corners the basic suite (``test_logs.py``) does not:

* the ``truncated`` flag survives a write→read→write cycle (a re-written
  log must not silently pretend its subsample is the full data);
* raw-byte storage keeps non-finite corruptions — ``inf``, ``-inf``,
  ``nan`` read values (payload and sign included), ``-0.0`` and infinite
  relative errors — bit-exact;
* re-filtering an *untruncated* logged record at a new threshold is
  byte-identical to evaluating the original observation directly at that
  threshold.
"""

import base64
import json
import math

import numpy as np
import pytest

from repro.arch.resources import ResourceKind
from repro.beam import read_log, write_log
from repro.beam.campaign import CampaignResult
from repro.core.criticality import evaluate_execution
from repro.core.metrics import ErrorObservation
from repro.faults.outcomes import ExecutionRecord, OutcomeKind


def observation(read_values, expected_values) -> ErrorObservation:
    n = len(read_values)
    return ErrorObservation(
        shape=(8, 8),
        indices=np.array([[i, i % 8] for i in range(n)], dtype=np.intp),
        read=np.array(read_values, dtype=np.float64),
        expected=np.array(expected_values, dtype=np.float64),
    )


def result_with(observations, threshold_pct=2.0) -> CampaignResult:
    """A minimal hand-built campaign holding SDC records for each obs."""
    records = [
        ExecutionRecord(
            index=i,
            outcome=OutcomeKind.SDC,
            resource=ResourceKind.REGISTER_FILE,
            site="a",
            report=evaluate_execution(obs, threshold_pct=threshold_pct),
        )
        for i, obs in enumerate(observations)
    ]
    return CampaignResult(
        kernel_name="dgemm",
        device_name="k40",
        label="handmade",
        records=records,
        fluence=1e7,
        cross_section=len(records) / 1e7,
        n_executions=len(records),
        threshold_pct=threshold_pct,
    )


NONFINITE_READ = [float("inf"), float("-inf"), float("nan"), 1.5, 0.25]
NONFINITE_EXPECTED = [1.0, 2.0, 3.0, 0.0, 0.25000000000000006]


class TestNonFiniteExactness:
    def test_inf_nan_reads_round_trip_bitwise(self, tmp_path):
        result = result_with([observation(NONFINITE_READ, NONFINITE_EXPECTED)])
        loaded = read_log(write_log(result, tmp_path / "log.jsonl"))
        obs = loaded.records[0].report.observation
        assert obs.read[0] == float("inf")
        assert obs.read[1] == float("-inf")
        assert math.isnan(obs.read[2])
        # bit-exact, not approximate: the subnormal-adjacent expected value
        # and the plain floats come back with identical bit patterns
        for got, want in zip(obs.read[3:], NONFINITE_READ[3:]):
            assert got.hex() == float(want).hex()
        for got, want in zip(obs.expected, NONFINITE_EXPECTED):
            assert got.hex() == float(want).hex()

    def test_infinite_relative_error_survives(self, tmp_path):
        """expected == 0 drives relative error through the floor constant
        to a huge value; inf reads drive it to inf.  Both must survive."""
        result = result_with([observation(NONFINITE_READ, NONFINITE_EXPECTED)])
        original = result.records[0].report
        loaded = read_log(write_log(result, tmp_path / "log.jsonl"))
        reloaded = loaded.records[0].report
        assert reloaded.max_relative_error == original.max_relative_error
        assert math.isinf(reloaded.max_relative_error) == math.isinf(
            original.max_relative_error
        )
        assert reloaded.n_incorrect == original.n_incorrect
        assert reloaded.locality == original.locality

    def test_json_payload_stores_raw_float_bits(self, tmp_path):
        """Format 2 stores the raw little-endian bytes, so every bit
        survives — including NaN payloads and signs, which ``float.hex``
        (format 1) collapsed to the canonical NaN, and ``-0.0``."""
        bits = np.array(
            [0x7FF8000000000001, 0xFFF4000000000abc, 0x8000000000000000,
             np.float64(3.5).view(np.uint64)],
            dtype=np.uint64,
        )
        read = bits.view(np.float64)
        expected = np.array([1.0, 2.0, 0.0, 1.0])
        obs = ErrorObservation(
            shape=(8, 8),
            indices=np.array([[i, i] for i in range(4)], dtype=np.intp),
            read=read,
            expected=expected,
        )
        result = result_with([obs])
        path = write_log(result, tmp_path / "log.jsonl")
        header, line = path.read_text().splitlines()[:2]
        assert json.loads(header)["format_version"] == 2
        payload = json.loads(line)["report"]
        loaded = read_log(path).records[0].report.observation
        for key in ("read", "expected"):
            want = getattr(obs, key).view(np.uint64).tolist()
            stored = np.frombuffer(base64.b64decode(payload[key]), "<u8")
            assert stored.tolist() == want
            assert getattr(loaded, key).view(np.uint64).tolist() == want
        assert loaded.indices.tolist() == obs.indices.tolist()

    def test_locality_indices_round_trip(self, tmp_path):
        base = observation([3.5, 4.5, 5.5], [1.0, 1.0, 1.0])
        locality = np.array([[0, 1, 2], [3, 4, 5], [6, 7, 8]])
        obs = ErrorObservation(
            base.shape, base.indices, base.read, base.expected, locality
        )
        loaded = read_log(write_log(result_with([obs]), tmp_path / "l.jsonl"))
        back = loaded.records[0].report.observation.locality_indices
        assert back.shape == (3, 3)
        assert back.tolist() == locality.tolist()


class TestTruncationFlag:
    def make_result(self, n_elements=50):
        read = [float(i) + 0.5 for i in range(n_elements)]
        expected = [float(i) for i in range(n_elements)]
        return result_with([observation(read, expected)])

    def test_flag_set_only_when_capped(self, tmp_path):
        result = self.make_result()
        full = write_log(result, tmp_path / "full.jsonl", max_elements=64)
        capped = write_log(result, tmp_path / "capped.jsonl", max_elements=8)
        full_row = json.loads(full.read_text().splitlines()[1])
        capped_row = json.loads(capped.read_text().splitlines()[1])
        assert full_row["report"]["truncated"] is False
        assert capped_row["report"]["truncated"] is True
        capped_report = capped_row["report"]
        for key, width in (("indices", 2 * 8), ("read", 8), ("expected", 8)):
            # 8 kept elements: 8 float64s, or 8 two-axis int64 coordinates
            assert len(base64.b64decode(capped_report[key])) == 8 * width
        full_read = base64.b64decode(full_row["report"]["read"])
        assert len(full_read) == 50 * 8
        assert capped_row["report"]["n_incorrect"] == 50  # summary stays exact

    def test_flag_survives_rewrite_cycle(self, tmp_path):
        """write(truncated) -> read -> write -> read is a fixpoint: the
        second log still admits it holds a subsample."""
        result = self.make_result()
        first = read_log(
            write_log(result, tmp_path / "a.jsonl", max_elements=8)
        )
        second_path = write_log(first, tmp_path / "b.jsonl", max_elements=8)
        row = json.loads(second_path.read_text().splitlines()[1])
        assert row["report"]["truncated"] is True
        second = read_log(second_path)
        a, b = first.records[0].report, second.records[0].report
        assert b.n_incorrect == a.n_incorrect
        assert b.max_relative_error == a.max_relative_error
        assert list(b.observation.read) == list(a.observation.read)

    def test_truncated_subsample_spans_the_record(self, tmp_path):
        """The kept elements are a uniform subsample including both ends."""
        result = self.make_result()
        loaded = read_log(
            write_log(result, tmp_path / "log.jsonl", max_elements=8)
        )
        obs = loaded.records[0].report.observation
        assert obs.read[0] == 0.5  # first element kept
        assert obs.read[-1] == 49.5  # last element kept


class TestRefilterMatchesDirect:
    @pytest.mark.parametrize("new_threshold", [0.5, 2.0, 10.0, 1000.0])
    def test_log_refilter_equals_direct_evaluation(self, tmp_path, new_threshold):
        """For untruncated records, refiltered(t) from the log must equal
        evaluate_execution(original_obs, threshold_pct=t) exactly."""
        rng = np.random.default_rng(42)
        read = rng.normal(loc=1.0, scale=5.0, size=30)
        expected = np.ones(30)
        obs = observation(read.tolist(), expected.tolist())
        result = result_with([obs])
        loaded = read_log(write_log(result, tmp_path / "log.jsonl"))

        refiltered = loaded.records[0].report.refiltered(new_threshold)
        direct = evaluate_execution(obs, threshold_pct=new_threshold)
        assert refiltered.filtered_n_incorrect == direct.filtered_n_incorrect
        assert refiltered.filtered_locality == direct.filtered_locality
        assert refiltered.threshold_pct == direct.threshold_pct
        assert refiltered.n_incorrect == direct.n_incorrect
        assert refiltered.max_relative_error == direct.max_relative_error
        assert refiltered.mean_relative_error == direct.mean_relative_error

    def test_truncated_refilter_is_an_estimate_not_a_crash(self, tmp_path):
        read = [float(i) + 0.5 for i in range(50)]
        expected = [float(i) for i in range(50)]
        result = result_with([observation(read, expected)])
        loaded = read_log(
            write_log(result, tmp_path / "log.jsonl", max_elements=8)
        )
        assert loaded.records[0].report.truncated
        report = loaded.records[0].report.refiltered(10.0)
        # refiltering a subsample re-estimates only the filtered view; the
        # stored exact summary is kept, and the report stays marked
        assert report.truncated
        assert report.n_incorrect == 50
        assert 0 <= report.filtered_n_incorrect <= 8
