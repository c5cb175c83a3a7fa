"""Tests for the bench harness text rendering, sweep memoization and
``reproduce``."""

from dataclasses import replace

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

    def test_two_programs_named_main_are_two_points(self):
        # Without ``key=`` a point is the program's own: two programs
        # whose entry is ``main`` share none.
        from repro.api import compile_source

        sweeper = Sweeper()
        first = compile_source(self.SRC)
        second = compile_source(self.SRC.replace("A[i] = i;",
                                                 "A[i] = 2 * i;"))
        assert first.pods.name == second.pods.name == "main"
        a, b = (sweeper.run(p, (8,), 2) for p in (first, second))
        assert (a.value, b.value) == (36, 72)
        assert sweeper.run(first, (8,), 2) is a


class TestFigures:
    def test_reproduce_fig10_reduced(self):
        from repro.bench.figures import REDUCED, check_figure10, reproduce

        fig = reproduce("fig10")
        assert fig.scale is REDUCED and "speed-up" in fig.text
        assert fig.data["speedup"][16][1] == 1.0
        check_figure10(fig)

    def test_unknown_figure(self):
        import pytest as _pytest

        from repro.bench.figures import reproduce

        with _pytest.raises(ValueError):
            reproduce("fig99")

    def test_an_error_inside_a_figure_is_not_an_unknown_figure(
            self, monkeypatch):
        import pytest as _pytest

        from repro.bench import figures

        def broken(*args):
            raise KeyError("EU")

        monkeypatch.setitem(figures.FIGURES, "fig8", broken)
        with _pytest.raises(KeyError, match="EU"):
            figures.reproduce("fig8")

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
        stats = program.run((16,), backend="sim", parallelism=2).stats
        data = stats.to_dict()
        json.dumps(data)  # must serialize
        assert data["num_pes"] == 2
        assert 0 <= data["utilization"]["EU"] <= 1


class TestReducedFigures:
    def test_fig8_reduced(self):
        from repro.bench.figures import REDUCED, figure8

        fig = figure8(replace(REDUCED, pes=(1, 2)), Sweeper())
        assert "EU" in fig.text
        # EU dominates at both points.
        for pes, util in fig.data.items():
            assert util["EU"] == max(util.values())

    def test_fig9_reduced(self):
        from repro.bench.figures import REDUCED, figure9

        fig = figure9(replace(REDUCED, sizes=(8,), pes=(1, 4)), Sweeper())
        assert fig.data[8][1] > fig.data[8][4]

    def test_figures_share_sweeper_cache(self):
        from repro.bench.figures import REDUCED, figure9, figure10
        from repro.bench.harness import Sweeper

        scale = replace(REDUCED, sizes=(8,), pes=(1, 2))
        sweeper = Sweeper()
        figure9(scale, sweeper)
        cached = len(sweeper._cache)
        figure10(scale, sweeper)
        assert len(sweeper._cache) == cached  # Figure 10 fully cached
