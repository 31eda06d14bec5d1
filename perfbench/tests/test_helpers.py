"""Unit tests for the benchmark's own helpers.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import layers  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402


class TestTailPercentile:
    @pytest.mark.parametrize("n,q", [
        (200, 95.0), (1000, 95.0), (100, 90.0), (150, 93.3), (20, 50.0),
    ])
    def test_leaves_ten_samples_beyond(self, n, q):
        assert stats.tail_percentile(n) == q
        values = list(range(n))
        beyond = [v for v in values if v > stats.percentile(values, q)]
        assert len(beyond) >= stats.TAIL_SAMPLES

    def test_next_step_up_would_leave_fewer(self):
        values = list(range(150))
        q = stats.tail_percentile(150)
        higher = stats.percentile(values, q + 0.1)
        assert sum(v > higher for v in values) < stats.TAIL_SAMPLES

    def test_too_few_samples(self):
        assert stats.tail_percentile(10) == 0.0

    def test_tail_pairs_percentile_and_value(self):
        q, v = stats.tail([float(i) for i in range(1, 201)])
        assert (q, v) == (95.0, 190.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            stats.tail_percentile(0)


class TestSelfTime:
    def test_parent_minus_union_of_children(self):
        spans = [
            ["parent", 0.0, 10.0, -1],
            ["child", 1.0, 4.0, 0],
            ["child", 3.0, 6.0, 0],  # overlaps the first: union is 5
            ["leaf", 8.0, 9.0, 0],
        ]
        st = stats.self_times(spans)
        assert st["parent"] == pytest.approx(10.0 - 5.0 - 1.0)
        assert st["child"] == pytest.approx(3.0 + 3.0)
        assert st["leaf"] == pytest.approx(1.0)

    def test_grandchildren_only_reduce_their_parent(self):
        spans = [["a", 0.0, 10.0, -1], ["b", 2.0, 8.0, 0],
                 ["c", 3.0, 5.0, 1]]
        assert stats.self_times(spans) == pytest.approx(
            {"a": 4.0, "b": 4.0, "c": 2.0})

    def test_windows_select_by_start(self):
        spans = [["a", 0.0, 1.0, -1], ["a", 5.0, 6.5, -1],
                 ["a", 7.0, 7.5, -1], ["a", 9.0, 9.5, -1]]
        windows = [(4.0, 6.0), (8.5, 10.0)]
        assert stats.self_times(spans, windows) == {"a": 2.0}
        assert stats.span_counts(spans, windows) == {"a": 2}
        assert stats.span_counts(spans, [(7.0, 7.5)]) == {"a": 1}

    def test_union_length(self):
        assert stats.union_length([(0, 2), (1, 3), (5, 6), (5.5, 5.8)]) == 4

    def test_recorded_spans_nest(self):
        tr = tracing.Tracer()

        def inner():
            return 1

        inner_t = tr.wrap("inner", inner)

        def outer():
            return inner_t() + inner_t()

        assert tr.wrap("outer", outer)() == 2
        spans = tr.take()
        assert [sp[0] for sp in spans] == ["outer", "inner", "inner"]
        assert [sp[3] for sp in spans] == [-1, 0, 0]
        st = stats.self_times(spans)
        total = spans[0][2] - spans[0][1]
        assert st["outer"] + st["inner"] == pytest.approx(total)
        assert tr.take() == []

    def test_threads_keep_separate_lists(self):
        tr = tracing.Tracer()
        f = tr.wrap("f", lambda: None)
        out = []

        def worker():
            f()
            out.append(tr.take())

        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=10)
        assert not t.is_alive()
        f()
        assert len(out[0]) == 1 and len(tr.take()) == 1


class TestDueLatency:
    def test_measured_from_due_not_submit(self):
        due = [0.0, 0.05, 0.10]
        # The generator stalled: job 2 was submitted late, at 0.30.
        done = [0.02, 0.33, 0.35]
        assert stats.due_latencies(due, done) == pytest.approx(
            [0.02, 0.28, 0.25])

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            stats.due_latencies([0.0], [1.0, 2.0])


class TestRoofline:
    def test_fields(self):
        r = stats.roofline(flops=4e9, nbytes=2e9, seconds=0.5,
                           bandwidth=8e9)
        assert r["gflops"] == pytest.approx(8.0)
        assert r["bw_frac"] == pytest.approx(0.5)

    def test_grad_formulas_from_the_program(self):
        from repro.kernels import derivatives

        n, nel = 20, 8
        flops = derivatives.flops(n, nel, 3)
        nbytes = derivatives.mem_bytes(n, nel, 3)
        assert flops / nbytes == pytest.approx(2 * n / 16)
        r = stats.roofline(flops, nbytes, 1.0, 1e10)
        assert r["gflops"] == pytest.approx(flops / 1e9)
        assert r["bw_frac"] == pytest.approx(nbytes / 1e10)

    def test_rejects_zero_time(self):
        with pytest.raises(ValueError):
            stats.roofline(1.0, 1.0, 0.0, 1.0)


class TestInstall:
    def test_wraps_and_restores_every_target(self):
        from repro.gs.handle import GSHandle
        from repro.mpi.request import Request

        raw_condense = GSHandle.condense
        raw_waitall = Request.__dict__["waitall"]
        restore = tracing.install(tracing.Tracer())
        try:
            assert GSHandle.condense is not raw_condense
            assert isinstance(Request.__dict__["waitall"], staticmethod)
            assert Request.__dict__["waitall"] is not raw_waitall
        finally:
            restore()
        assert GSHandle.condense is raw_condense
        assert Request.__dict__["waitall"] is raw_waitall


def test_benchmark_json_lists_the_layer_catalog():
    doc = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] \
        == layers.catalog()
    e2e = [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]]
    assert e2e == layers.END_TO_END
