"""The benchmark's metric math: percentiles, spreads, self time, failures
and answer digests.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

from __future__ import annotations

import statistics
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import metrics as m  # noqa: E402
from perfbench.run import Outcome, _answer_ok  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import Read  # noqa: E402


class TestPercentile:
    def test_p99_of_1000_samples_has_ten_beyond(self):
        values = list(range(1, 1001))
        assert m.percentile(values, 99) == 990
        assert m.samples_beyond(len(values), 99) == 10
        assert sum(v > m.percentile(values, 99) for v in values) == 10

    def test_p50_is_a_measured_value(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0, 9.0]
        assert m.percentile(values, 50) == 3.0
        assert m.percentile(values, 50) in values

    def test_order_does_not_matter(self):
        values = [float(v) for v in range(2000)]
        assert m.percentile(values[::-1], 99) == m.percentile(values, 99) == 1979.0

    def test_extremes_and_errors(self):
        assert m.percentile([7.0], 99) == 7.0
        assert m.percentile([3.0, 1.0], 0) == 1.0
        assert m.percentile([3.0, 1.0], 100) == 3.0
        with pytest.raises(ValueError):
            m.percentile([], 50)
        with pytest.raises(ValueError):
            m.percentile([1.0], 101)


class TestSpread:
    def test_matches_statistics_quantiles(self):
        values = [10.0, 11.0, 9.5, 10.5, 12.0, 10.2, 9.8, 10.1, 10.9, 11.3]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        result = m.spread(values)
        assert (result.q1, result.median, result.q3) == (q1, q2, q3)
        assert result.relative == pytest.approx((q3 - q1) / q2)

    def test_constant_values_have_no_spread(self):
        assert m.spread([4.0] * 10).relative == 0.0


def _span(span_id, start, end, parent=None, name="x"):
    return m.Span(span_id, name, start, end, parent)


class TestSelfTime:
    def test_children_are_subtracted(self):
        spans = [_span(1, 0.0, 10.0), _span(2, 1.0, 3.0, 1), _span(3, 5.0, 6.0, 1)]
        assert m.self_times(spans) == {1: 7.0, 2: 2.0, 3: 1.0}

    def test_overlapping_children_are_subtracted_once(self):
        # Two children on different threads overlap on [3, 4).
        spans = [_span(1, 0.0, 10.0), _span(2, 2.0, 4.0, 1), _span(3, 3.0, 7.0, 1)]
        assert m.self_times(spans)[1] == pytest.approx(5.0)

    def test_child_outliving_parent_is_clipped(self):
        spans = [_span(1, 0.0, 4.0), _span(2, 3.0, 9.0, 1)]
        own = m.self_times(spans)
        assert own[1] == pytest.approx(3.0)
        assert own[2] == pytest.approx(6.0)

    def test_totals_by_name_and_outermost(self):
        spans = [
            _span(1, 0.0, 10.0, name="core.query"),
            _span(2, 1.0, 8.0, 1, name="traverse"),
            _span(3, 2.0, 5.0, 2, name="traverse"),
            _span(4, 3.0, 4.0, 3, name="csr"),
        ]
        totals = m.self_time_by_name(spans)
        assert totals == {"core.query": 3.0, "traverse": 6.0, "csr": 1.0}
        assert sum(totals.values()) == spans[0].duration
        assert [s.span_id for s in m.outermost(spans, "traverse")] == [2]

    def test_tracer_parents_other_threads_to_the_open_request(self):
        import threading

        ticks = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(ticks)))
        work = tracer.wrap(lambda: [1, 2, 3], "traverse.find_pathways", count=True)
        with tracer.request(7, "server.query"):
            thread = threading.Thread(target=work)
            thread.start()
            thread.join(timeout=10)
        assert not thread.is_alive()
        child, root = tracer.spans
        assert root.parent is None and root.request == 7
        assert child.parent == root.span_id and child.request == 7
        assert child.items == 3


class TestOutcomes:
    def test_failures_count_against_attempts(self):
        outcomes = m.Outcomes()
        for status in (200, 503, 504, None, 201, 400):
            outcomes.attempt()
            outcomes.check_status(status, "q")
        assert outcomes.attempted == 6
        assert outcomes.failed == 4
        assert outcomes.by_kind == {"http_503": 1, "http_504": 1, "transport": 1,
                                    "http_400": 1}

    def test_wrong_answer_is_a_failure(self):
        read = Read("Host-Host (4)", "Host(id=1)->[ConnectedTo()]{1,4}->Host()")
        reference = (["Host#1 -ConnectedTo-> Host#2", "Host#1 -ConnectedTo-> Host#3"], True)
        outcomes = m.Outcomes()
        right = Outcome(read, digest=m.answer_digest(reversed(reference[0])))
        wrong = Outcome(read, digest=m.answer_digest(reference[0][:1]))
        _answer_ok(outcomes, right, reference)
        assert outcomes.failed == 0
        _answer_ok(outcomes, wrong, reference)
        assert outcomes.failed == 1
        assert outcomes.by_kind == {"mismatch": 1}

    def test_validity_disagreement_is_a_failure(self):
        read = Read("service path", "Entity(id=1)->[GenericEdge()]{1,4}->Entity()", "range",
                    between=(0.0, 10.0))
        outcomes = m.Outcomes()
        _answer_ok(outcomes, Outcome(read, digest=m.answer_digest(["a"])), (["a"], False))
        assert outcomes.by_kind == {"validity": 1}


class TestDigest:
    def test_order_does_not_matter(self):
        assert m.answer_digest(["b", "a", "a"]) == m.answer_digest(["a", "b", "a"])

    def test_duplicated_rows_matter(self):
        assert m.answer_digest(["b", "a", "a"]) != m.answer_digest(["a", "b"])

    def test_content_matters(self):
        assert m.answer_digest(["a"]) != m.answer_digest(["a", "b"])
        assert m.answer_digest(["a -E-> b"]) != m.answer_digest(["a -E-> c"])

    def test_validity_is_part_of_the_digest(self):
        one = m.answer_digest(["p"], {"p": [(1.0, 5.0)]})
        other = m.answer_digest(["p"], {"p": [(1.0, 6.0)]})
        assert one != other
        assert one == m.answer_digest(["p"], {"p": [(1.0, 5.0)]})


def test_reference_answer_carries_range_validity():
    from repro import NepalDB
    from repro.temporal.clock import TransactionClock

    from perfbench.run import reference_answer, served_validity_ok

    clock = TransactionClock(start=1000.0)
    db = NepalDB(clock=clock)
    vm = db.insert_node("VMWare", {"name": "vm"})
    host = db.insert_node("Host", {"name": "host"})
    clock.advance(100.0)
    edge = db.insert_edge("OnServer", vm, host)
    clock.advance(100.0)
    db.delete(edge)
    read = Read("placement", f"VM(id={vm})->OnServer()->Host()", "range",
                between=(1000.0, 1500.0))
    renders, validity_ok = reference_answer(db, read)
    assert len(renders) == 1 and validity_ok
    assert served_validity_ok(db, read)
    outcomes = m.Outcomes()
    _answer_ok(outcomes, Outcome(read, digest=m.answer_digest([])), (renders, validity_ok))
    _answer_ok(outcomes, Outcome(read, digest=m.answer_digest(renders * 2)), (renders, validity_ok))
    assert outcomes.by_kind == {"mismatch": 2}
