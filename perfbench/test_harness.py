"""Self-tests of the benchmark harness (not part of the repository's test suite).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import PROBE_NOMINAL_S, Tally, Timings, host_scale, percentile, run_item  # noqa: E402
from spans import Span, layer_metrics, self_times, union_length  # noqa: E402


def test_percentile_nearest_rank_and_samples_beyond():
    values = [float(i) for i in range(1, 201)]
    assert percentile(values, 95) == (190.0, 10)
    assert percentile(values, 50) == (100.0, 100)
    assert percentile(values[:199], 95) == (190.0, 9)  # too few for p95
    assert percentile([7.0], 95) == (7.0, 0)
    with pytest.raises(ValueError):
        percentile([], 50)


def test_host_scale_undoes_a_uniform_slowdown():
    # A pass that takes 0.4 s where the probe takes the nominal time takes
    # 0.8 s on a host twice as slow, where the probe takes twice as long.
    slow = 2 * PROBE_NOMINAL_S
    assert 0.8 * host_scale(slow, slow) == pytest.approx(0.4)
    # The host's speed changed during the pass: the two probes are averaged.
    assert host_scale(PROBE_NOMINAL_S, 3 * PROBE_NOMINAL_S) == pytest.approx(0.5)


def test_union_length_merges_overlaps():
    assert union_length([]) == 0.0
    assert union_length([(0, 2), (1, 3), (5, 6)]) == 4.0
    assert union_length([(0, 10), (2, 3)]) == 10.0


def _tree():
    #   1 root [0, 10]
    #   +-- 2 [1, 4]
    #   |   +-- 4 [2, 3]
    #   +-- 3 [3, 6]   (overlaps 2, as on a second thread)
    #   5 second root [12, 13]
    return [
        Span(4, 2, "epbound.exact_bound", 2.0, 3.0),
        Span(2, 1, "keyrate.tolerable_eb", 1.0, 4.0),
        Span(3, 1, "keyrate.tolerable_eb", 3.0, 6.0),
        Span(1, None, "cli.main", 0.0, 10.0, note={"subcommand": "region"}),
        Span(5, None, "decoy.max_secure_distance", 12.0, 13.0),
    ]


def test_self_times_subtract_covered_child_time():
    selfs = self_times(_tree())
    assert selfs == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0}


def test_layer_metrics_on_toy_tree():
    m = layer_metrics(_tree())
    assert m["cli.main.calls"] == 1
    assert m["cli.main.busy_s"] == 10.0
    assert m["cli.main.self_s"] == 5.0
    assert m["cli.region.busy_s"] == 10.0
    assert m["cli.fig1.busy_s"] == 0.0
    assert m["keyrate.tolerable_eb.busy_s"] == 6.0
    assert m["keyrate.tolerable_eb.self_s"] == 5.0
    assert m["keyrate.tolerable_eb.bound_calls_per_call"] == 0.5
    assert m["simulate.run_protocol.calls"] == 0
    assert m["trace.layer_s"] == 11.0
    # Overlapping children: self times add up to more than the root spans.
    assert m["trace.self_sum_s"] == 12.0


def test_self_sum_equals_layer_time_only_for_a_sound_single_thread_tree():
    nested = [
        Span(1, None, "cli.main", 0.0, 10.0),
        Span(2, 1, "keyrate.tolerable_eb", 1.0, 4.0),
        Span(3, 2, "epbound.exact_bound", 2.0, 3.0),
        Span(4, None, "decoy.max_secure_distance", 12.0, 13.0),
    ]
    m = layer_metrics(nested)
    assert m["trace.self_sum_s"] == m["trace.layer_s"] == 11.0
    # A span whose parent is missing, or does not contain it, opens a gap.
    assert layer_metrics(nested[:1] + nested[2:])["trace.self_sum_s"] == 12.0
    stray = Span(5, 2, "decoy.optimal_mu", 5.0, 6.0)
    assert layer_metrics(nested + [stray])["trace.self_sum_s"] == 12.0


class _Toy:
    """Items are ints; odd ones fail their check, 3 raises, 5 is a known defect."""

    def run(self, item):
        if item == 3:
            raise RuntimeError("boom")
        return item

    def check(self, item, output):
        return output % 2 == 0

    def known_defect(self, item, output, error):
        return item == 5


def test_failed_frac_counts_exceptions_and_failed_checks():
    tally, timings = Tally(), Timings()
    for item in range(8):
        run_item(_Toy(), item, tally, timings)
    assert len(timings.wall) == len(timings.cpu) == 8
    assert (tally.attempted, tally.failed, tally.defects) == (8, 3, 1)
    assert tally.failed_frac == 3 / 8
    assert tally.defect_frac == 1 / 8
    assert any("RuntimeError: boom" in e for e in tally.examples)
    assert Tally().failed_frac == Tally().defect_frac == 0.0


def test_tracer_patches_internal_bindings_and_restores_them():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    import qkd3
    import qkd3.keyrate
    from spans import Tracer

    original = qkd3.keyrate.exact_bound
    tracer = Tracer()
    tracer.install()
    try:
        assert qkd3.keyrate.exact_bound is not original
        qkd3.keyrate.tolerable_eb(0.1, "exact")
        assert qkd3.exact_bound(0.05, 0.05).witness is not None
    finally:
        tracer.uninstall()
    assert qkd3.keyrate.exact_bound is original
    m = layer_metrics(tracer.spans)
    assert m["keyrate.tolerable_eb.calls"] == 1
    assert m["keyrate.tolerable_eb.bound_calls_per_call"] > 1
    assert m["epbound.exact_bound.calls"] == m["keyrate.tolerable_eb.bound_calls_per_call"] + 1
    assert m["epbound.exact_bound.witness_used_frac"] == 1 / m["epbound.exact_bound.calls"]
