"""Tests for the bench harness text rendering and sweep memoization."""

from repro.bench.harness import Sweeper
from repro.bench.report import render_series_chart, render_table


class TestTable:
    def test_alignment_and_floats(self):
        text = render_table(["PEs", "speed-up"], [[1, 1.0], [32, 18.912]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "18.912" in lines[3]
        # All lines equal width.
        assert len({len(l) for l in lines}) == 1

    def test_strings_pass_through(self):
        text = render_table(["a"], [["hello"]])
        assert "hello" in text


class TestSeriesChart:
    def test_contains_legend_and_axis(self):
        text = render_series_chart([1, 2, 4], {"a": [1.0, 2.0, 4.0]})
        assert "legend: * a" in text
        assert "1  2  4" in text

    def test_none_gaps_tolerated(self):
        text = render_series_chart([1, 2, 4],
                                   {"a": [1.0, None, 4.0],
                                    "b": [None, None, None]})
        assert "legend" in text

    def test_marks_distinct_per_series(self):
        text = render_series_chart([1, 2], {"a": [1.0, 1.0],
                                            "b": [2.0, 2.0]})
        assert "* a" in text and "o b" in text


class TestSweeper:
    SRC = """
    function main(n) {
        A = array(n);
        for i = 1 to n { A[i] = i; }
        s = 0;
        for i = 1 to n { next s = s + A[i]; }
        return s;
    }
    """

    def test_memoizes(self):
        from repro.api import compile_source

        sweeper = Sweeper()
        program = compile_source(self.SRC)
        p1 = sweeper.run(program, (8,), 2, key="t")
        p2 = sweeper.run(program, (8,), 2, key="t")
        assert p1 is p2  # cached object, no re-simulation

    def test_distinct_configs_distinct_points(self):
        from repro.api import compile_source

        sweeper = Sweeper()
        program = compile_source(self.SRC)
        a = sweeper.run(program, (8,), 2, key="t")
        b = sweeper.run(program, (8,), 2, key="t", cache_enabled=False)
        assert a is not b


class TestFigures:
    def test_reproduce_fig10_reduced(self):
        from repro.bench.figures import reproduce

        fig = reproduce("fig10")
        assert "speed-up" in fig.text
        assert fig.data[16][1] == 1.0
        assert fig.data[16][4] > 1.5

    def test_unknown_figure(self):
        import pytest as _pytest

        from repro.bench.figures import reproduce

        with _pytest.raises(ValueError):
            reproduce("fig99")

    def test_stats_to_dict_is_json_ready(self):
        import json

        from repro.api import compile_source

        program = compile_source("""
        function main(n) {
            A = array(n);
            for i = 1 to n { A[i] = i; }
            return A[n];
        }
        """)
        stats = program.run((16,), backend="sim", parallelism=2).raw.stats
        data = stats.to_dict()
        json.dumps(data)  # must serialize
        assert data["num_pes"] == 2
        assert 0 <= data["utilization"]["EU"] <= 1


class TestReducedFigures:
    def test_fig8_reduced(self):
        from repro.bench.figures import figure8

        fig = figure8(pe_counts=(1, 2), size=8, steps=1)
        assert "EU" in fig.text
        # EU dominates at both points.
        for pes, util in fig.data.items():
            assert util["EU"] == max(util.values())

    def test_fig9_reduced(self):
        from repro.bench.figures import figure9

        fig = figure9(pe_counts=(1, 4), sizes=(8,), steps=1)
        assert fig.data[8][1] > fig.data[8][4]

    def test_figures_share_sweeper_cache(self):
        from repro.bench.figures import figure10
        from repro.bench.harness import Sweeper

        sweeper = Sweeper()
        figure10(pe_counts=(1, 2), sizes=(8,), steps=1, sweeper=sweeper)
        cached = len(sweeper._cache)
        figure10(pe_counts=(1, 2), sizes=(8,), steps=1, sweeper=sweeper)
        assert len(sweeper._cache) == cached  # second run fully cached
