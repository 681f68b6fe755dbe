import pytest

from spans import Span, Tracer, layer_metrics, self_times


def test_self_time_subtracts_nested_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("a", 1.0, 4.0, 0, 0),
        Span("a.inner", 2.0, 3.0, 1, 0),
        Span("b", 5.0, 9.0, 0, 0),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_merges_overlapping_and_clips_stray_children():
    spans = [
        Span("root", 0.0, 10.0, -1, 0),
        Span("x", 1.0, 5.0, 0, 0),
        Span("y", 3.0, 6.0, 0, 0),  # overlaps x: [1, 6] is covered once
        Span("z", 8.0, 12.0, 0, 0),  # ends after its parent: only [8, 10] counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_layer_metrics_sum_self_time_and_counters():
    spans = [
        Span("testers.support_tester", 0.0, 1.0, -1, 0),
        Span("core.query_block", 0.1, 0.5, 0, 0, {"pairs": 8, "billed": 6, "dup": 1}),
        Span("core.query_block", 0.6, 0.7, 0, 0, {"pairs": 4, "billed": 4, "dup": 0}),
    ]
    m = layer_metrics(spans, n=16)
    assert m["core.query_block.calls"] == 2
    assert m["core.query_block.dup_calls"] == 1
    assert m["core.query_block.self_s"] == pytest.approx(0.5)
    assert m["core.query_block.dup_self_s"] == pytest.approx(0.4)
    assert m["core.billed_ratio"] == pytest.approx(10 / 12)
    assert m["testers.support_tester.self_s"] == pytest.approx(0.5)


def test_tracer_patches_every_lookup_site_and_restores_it():
    from probedist import core, testers
    from probedist.core import BilledOracle, FiniteDistribution

    original = core.pack_rows
    tracer = Tracer()
    tracer.install()
    try:
        assert testers.pack_rows is not original and core.pack_rows is not original
        oracle = BilledOracle([FiniteDistribution.uniform_over(["0101", "1100"])], seed=1)
        testers.support_tester(oracle, m=2, eps=0.5, seed=2)
    finally:
        tracer.uninstall()
    assert testers.pack_rows is original and core.pack_rows is original
    root = [s.name for s in tracer.spans].index("testers.support_tester")
    assert tracer.spans[root].parent == -1
    children = {s.name for s in tracer.spans if s.parent == root}
    assert {"core.draw", "core.query_block", "core.pack_rows", "core.random_subset"} <= children
    billed = sum(s.counts.get("billed", 0) for s in tracer.spans)
    assert billed == oracle.queries_used
