"""The benchmark's own arithmetic.

    python3 -m pytest perfbench/tests -q
"""

import sys
import threading
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import pytest  # noqa: E402

from perfbench import bench, stats  # noqa: E402
from perfbench.tracing import (  # noqa: E402
    Recorder, Span, adopt_chunks, self_times,
)


# -- percentile and its sample count ---------------------------------------------


def test_median_odd_and_even_samples():
    assert stats.percentile([3.0, 1.0, 2.0], 0.5) == {"value": 2.0, "n": 3}
    assert stats.percentile([4.0, 1.0, 3.0, 2.0], 0.5) == {"value": 2.5, "n": 4}


def test_percentile_interpolates_between_ranks():
    values = [float(v) for v in range(1, 11)]  # 1..10
    assert stats.percentile(values, 0.9)["value"] == pytest.approx(9.1)
    assert stats.percentile(values, 0.0)["value"] == 1.0
    assert stats.percentile(values, 1.0)["value"] == 10.0


def test_percentile_small_samples():
    assert stats.percentile([], 0.5) == {"value": None, "n": 0}
    assert stats.percentile([7.0], 0.9) == {"value": 7.0, "n": 1}


def test_median_matches_statistics_module():
    import statistics

    values = [0.3, 9.1, 2.2, 2.2, 5.0, 1.7]
    assert stats.median(values) == statistics.median(values)


def test_grouped_median_takes_each_group_median_then_geometric_mean():
    samples = [("clamr", 4.0), ("clamr", 5.0), ("clamr", 6.0),
               ("hotspot", 1.0), ("hotspot", 1.0), ("hotspot", 9.0)]
    got = stats.grouped_median(samples)
    # Medians 5 and 1; pooled, the median would be 2.5, between the groups.
    assert got["value"] == pytest.approx(5.0 ** 0.5)
    assert (got["n"], got["groups"]) == (6, 2)


def test_grouped_median_of_one_group_is_its_median():
    assert stats.grouped_median([("a", 3.0), ("a", 1.0)]) == {
        "value": 2.0, "n": 2, "groups": 1,
    }
    assert stats.grouped_median([]) == {"value": None, "n": 0, "groups": 0}


def test_grouped_median_moves_by_a_root_of_one_group_ratio():
    base = [("a", 1.0), ("b", 4.0)]
    faster_b = [("a", 1.0), ("b", 1.0)]
    ratio = (stats.grouped_median(faster_b)["value"]
             / stats.grouped_median(base)["value"])
    assert ratio == pytest.approx(0.25 ** 0.5)


def test_iqr_share():
    values = [float(v) for v in range(1, 10)]
    q1, q2, q3 = __import__("statistics").quantiles(values, n=4)
    assert stats.iqr_share(values) == pytest.approx((q3 - q1) / q2)


# -- self time of nested spans -------------------------------------------------


def _span(span_id, layer, start, end, parent=None):
    return Span(span_id, f"s{span_id}", layer, start, end, parent=parent)


def test_self_time_subtracts_children_once():
    spans = [
        _span(1, "bench", 0.0, 10.0),
        _span(2, "beam", 1.0, 4.0, parent=1),
        _span(3, "beam", 3.0, 6.0, parent=1),   # overlaps span 2
        _span(4, "store", 2.0, 3.0, parent=2),  # grandchild of 1
    ]
    totals = self_times(spans)
    # 1 is covered by the union [1, 6] of its children only.
    assert totals["bench"] == pytest.approx(5.0)
    # 2 loses its own child; 3 has none.
    assert totals["beam"] == pytest.approx((3.0 - 1.0) + 3.0)
    assert totals["store"] == pytest.approx(1.0)


def test_self_time_clips_children_to_the_parent():
    spans = [
        _span(1, "beam", 0.0, 2.0),
        _span(2, "kernels", 1.5, 3.0, parent=1),  # runs past its parent
        _span(3, "kernels", 0.5, 0.5, parent=1),  # empty
    ]
    totals = self_times(spans)
    assert totals["beam"] == pytest.approx(1.5)
    assert totals["kernels"] == pytest.approx(1.5)


def test_recorder_nests_per_thread_and_shares_campaign_ids():
    recorder = Recorder()
    with recorder.span("campaign", "bench", campaign="run-a") as outer:
        with recorder.span("commit", "store") as inner:
            pass
        chunk = recorder.add("chunk", "beam", outer.start, outer.start)

    seen = {}

    def other():
        with recorder.span("load", "store") as span:
            seen["span"] = span

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    assert inner.parent == outer.span_id and inner.campaign == "run-a"
    assert chunk.parent == outer.span_id and chunk.campaign == "run-a"
    assert seen["span"].parent is None and seen["span"].campaign is None
    assert inner.start >= outer.start and inner.end <= outer.end
    assert len(recorder.dump()) == 4


def test_program_chunks_join_the_owner_that_contains_them():
    recorder = Recorder()
    outer = recorder.add("scheduler.run", "scheduler", 0.0, 10.0)
    inner = recorder.add("executor.run", "beam", 2.0, 5.0)
    outer.campaign, inner.campaign = "batch", "run-a"

    def event(kind, start):
        return SimpleNamespace(kind=kind, start=start, duration=2.0,
                               worker="pid:1/w",
                               attrs={"backend": "process", "n": 8})

    chunks = adopt_chunks(recorder, [
        event("chunk", 2.5),       # inside both: the inner one wins
        event("chunk", 6.0),       # inside the scheduler run only
        event("chunk", 11.0),      # after both
        event("execution", 2.5),   # not a chunk
    ])
    assert [chunk.parent for chunk in chunks] == [
        inner.span_id, outer.span_id, None,
    ]
    assert chunks[0].campaign == "run-a" and chunks[1].campaign == "batch"
    assert chunks[0].duration == 2.0 and chunks[0].attrs["backend"] == "process"
    # The chunk counts as the executor's child in its self time.
    assert self_times(recorder.spans)["beam"] == pytest.approx(
        (3.0 - 2.0) + 3 * 2.0
    )
    stamped = event("chunk", 6.0)
    stamped.attrs["run_id"] = "run-b"
    assert adopt_chunks(recorder, [stamped])[0].campaign == "run-b"


# -- the service-mix dispatcher ----------------------------------------------------


class _FakeProbes:
    """Probes due at fixed marks of timed seconds; each notes the load."""

    def __init__(self, marks):
        self.marks = marks
        self.samples = []
        self.in_flight = []
        self.dispatcher = None

    def due(self, timed):
        return len(self.samples) < len(self.marks) and (
            timed >= self.marks[len(self.samples)]
        )

    def run(self):
        assert len(self.samples) < len(self.marks), "probe run when not owed"
        self.in_flight.append(self.dispatcher._in_flight)
        time.sleep(0.01)
        self.samples.append(0.01)


def test_dispatcher_probes_run_once_each_with_no_campaign_in_flight():
    probes = _FakeProbes([0.0, 0.1, 0.2])
    dispatcher = bench._Dispatcher(seed=1, seconds=0.3, probes=probes)
    probes.dispatcher = dispatcher
    served = {0: [], 1: []}

    def client(number):
        while True:
            item = dispatcher.next()
            if item is None:
                return
            served[number].append(dispatcher._number)
            time.sleep(0.002)
            dispatcher.done()

    threads = [threading.Thread(target=client, args=(i,)) for i in (0, 1)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
    assert not any(thread.is_alive() for thread in threads)
    assert len(probes.samples) == 3
    assert probes.in_flight == [0, 0, 0]
    # Neither client is left waiting at a probe: both serve the last
    # block as well as the first.
    blocks = dispatcher._number + 1
    assert blocks >= 3
    assert all({0, blocks - 1} <= set(numbers) for numbers in served.values())
    assert dispatcher.paused >= 0.03


# -- failed_frac counting ------------------------------------------------------


def test_tally_counts_each_operation_once():
    tally = stats.Tally()
    tally.record([])
    tally.record(["campaign failed", "log mismatch"])
    tally.record([])
    tally.record(["http 500"])
    assert (tally.attempted, tally.failed) == (4, 2)
    assert tally.failed_frac == 0.5
    assert len(tally.reasons) == 3


def test_tally_empty():
    assert stats.Tally().failed_frac == 0.0


def test_tallies_of_several_phases_combine():
    warm, timed = stats.Tally(), stats.Tally()
    warm.record([])
    timed.record(["mismatch"])
    timed.record([])
    total = stats.Tally.combine([warm, timed])
    assert (total.attempted, total.failed, total.reasons) == (3, 1, ["mismatch"])
    assert total.failed_frac == 1 / 3


# -- the output check ------------------------------------------------------------


def test_compare_accepts_equal_and_tolerates_float_rounding():
    sig = {"outcomes": {"sdc": 3}, "fit": {"sdc": 1.0e-3}, "stop": "target_ci"}
    assert stats.compare(sig, sig) == []
    nudged = {"outcomes": {"sdc": 3}, "fit": {"sdc": 1.0e-3 * (1 + 1e-12)},
              "stop": "target_ci"}
    assert stats.compare(sig, nudged) == []


def test_compare_reports_every_difference():
    expected = {"outcomes": {"sdc": 3, "crash": 1}, "fit": {"sdc": 2.0},
                "locality": {"line": 2}}
    actual = {"outcomes": {"sdc": 4, "crash": 1}, "fit": {"sdc": 2.1},
              "locality": {"line": 2, "square": 1}, "extra": True}
    problems = stats.compare(expected, actual)
    assert problems == [
        "extra: unexpected True",
        "fit.sdc: expected 2.0, got 2.1",
        "locality.square: unexpected 1",
        "outcomes.sdc: expected 3, got 4",
    ]
    assert stats.compare({"a": 1}, {}) == ["a: missing (expected 1)"]


def test_compare_rejects_a_count_off_by_more_than_rounding():
    assert stats.compare({"n": 3}, {"n": 3.0000001}) != []


def _fake_result():
    from repro.core.locality import Locality
    from repro.faults.outcomes import OutcomeKind

    reports = [
        SimpleNamespace(locality=Locality.LINE, filtered_locality=Locality.SINGLE),
        SimpleNamespace(locality=Locality.LINE, filtered_locality=Locality.NONE),
    ]
    counts = {kind: 0 for kind in OutcomeKind}
    counts[OutcomeKind.SDC] = 2
    counts[OutcomeKind.MASKED] = 5
    return SimpleNamespace(
        counts=lambda: counts, sdc_reports=lambda: reports,
        records=[object()] * 7, n_executions=7, fluence=2.5,
    )


def test_signature_fields():
    from repro.beam.campaign import FIT_AU_SCALE
    from repro.core.fit import fit_from_events

    sig = stats.signature(_fake_result())
    assert sig["outcomes"]["sdc"] == 2 and sig["struck"] == 7
    assert sig["fit"]["sdc"] == fit_from_events(2, 2.5, scale=FIT_AU_SCALE)
    assert sig["fit"]["crash"] == 0.0
    assert sig["locality"] == {"line": 2}
    assert sig["filtered_locality"] == {"single": 1, "none": 1}
    assert "sampling" not in sig
    adaptive = stats.signature(
        _fake_result(),
        {"executed": 48, "rounds": 1, "stop_reason": "target_ci",
         "relative_halfwidth": 0.15, "pool": 192},
    )
    assert adaptive["sampling"] == {"executed": 48, "rounds": 1,
                                    "stop_reason": "target_ci",
                                    "relative_halfwidth": 0.15}


def test_signature_survives_a_json_round_trip():
    import json

    sig = stats.signature(_fake_result())
    assert stats.compare(json.loads(json.dumps(sig)), sig) == []
