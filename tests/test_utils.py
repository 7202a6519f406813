"""Utilities: seeding, statistics, tables, Gantt rendering."""

import numpy as np
import pytest

from repro.utils import (
    derive_rng,
    format_table,
    geometric_mean,
    render_gantt,
    speedup,
)
from repro.utils.timeline_render import TimelineSpan


class TestSeeding:
    def test_same_tags_same_stream(self):
        a = derive_rng("x", 1, seed=42).random(5)
        b = derive_rng("x", 1, seed=42).random(5)
        assert np.array_equal(a, b)

    def test_different_tags_different_streams(self):
        a = derive_rng("x", 1, seed=42).random(5)
        b = derive_rng("x", 2, seed=42).random(5)
        assert not np.array_equal(a, b)

    def test_global_seed_fallback(self):
        # no seed= falls back to the fixed default seed 0
        a = derive_rng("y").random(3)
        b = derive_rng("y", seed=0).random(3)
        assert np.array_equal(a, b)

    def test_tag_order_matters(self):
        a = derive_rng("a", "b", seed=1).random(3)
        b = derive_rng("b", "a", seed=1).random(3)
        assert not np.array_equal(a, b)


class TestStats:
    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, -2.0])

    def test_speedup(self):
        assert speedup(10.0, 5.0) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            speedup(0.0, 1.0)


class TestFormatTable:
    def test_alignment_and_rule(self):
        out = format_table(["name", "t"], [["gpipe", 1.2345], ["avgpipe", 0.5]])
        lines = out.splitlines()
        assert lines[0].startswith("name")
        assert set(lines[1]) <= {"-", " "}
        assert "gpipe" in lines[2]

    def test_title(self):
        out = format_table(["a"], [[1]], title="Figure 11")
        assert out.splitlines()[0] == "Figure 11"

    def test_nan_rendered_as_dash(self):
        out = format_table(["a"], [[float("nan")]])
        assert "-" in out.splitlines()[-1]

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            format_table(["a", "b"], [[1]])


class TestGantt:
    def test_rows_and_scale(self):
        spans = [
            TimelineSpan(0, 0.0, 1.0, "fwd", "1"),
            TimelineSpan(1, 1.0, 2.0, "bwd", "1"),
            TimelineSpan(0, 2.0, 4.0, "comm", ""),
        ]
        art = render_gantt(spans, 2, width=40)
        lines = art.splitlines()
        assert len(lines) == 3
        assert "~" in lines[0]  # comm fill

    def test_empty(self):
        assert "empty" in render_gantt([], 2)

    def test_device_out_of_range(self):
        with pytest.raises(ValueError):
            render_gantt([TimelineSpan(5, 0, 1, "fwd", "1")], 2)


class TestGanttEdgeCases:
    def test_overlapping_spans_render_without_error(self):
        spans = [
            TimelineSpan(0, 0.0, 2.0, "fwd", "1"),
            TimelineSpan(0, 1.0, 3.0, "bwd", "2"),
        ]
        art = render_gantt(spans, 1, width=30)
        assert "|" in art

    def test_explicit_end_time_extends_axis(self):
        spans = [TimelineSpan(0, 0.0, 1.0, "fwd", "1")]
        art = render_gantt(spans, 1, width=20, end_time=10.0)
        assert "t=10" in art

    def test_zero_horizon_rejected(self):
        with pytest.raises(ValueError):
            render_gantt([TimelineSpan(0, 0.0, 0.0, "fwd", "1")], 1, end_time=0.0)
