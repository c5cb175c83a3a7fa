"""Figures 4 and 6: array page partitioning and index-space
responsibility for the paper's 6x256-over-4-PEs example."""

from __future__ import annotations

from conftest import save_report

from repro.runtime.arrays import (
    ArrayHeader,
    index_space_diagram,
    page_map_diagram,
)

FIG4_EXPECTED = """\
1 1 1 1 1 1 1 1
1 1 1 1 2 2 2 2
2 2 2 2 2 2 2 2
3 3 3 3 3 3 3 3
3 3 3 3 4 4 4 4
4 4 4 4 4 4 4 4"""

FIG6_EXPECTED = """\
1 1 1 1 1 1 1 1
1 1 1 1 1 1 1 1
2 2 2 2 2 2 2 2
3 3 3 3 3 3 3 3
3 3 3 3 3 3 3 3
4 4 4 4 4 4 4 4"""


def test_fig4_and_fig6_partitioning(benchmark):
    header = ArrayHeader(1, (6, 256), page_size=32, num_pes=4)
    fig4 = page_map_diagram(header)
    fig6 = index_space_diagram(header)
    assert fig4 == FIG4_EXPECTED
    assert fig6 == FIG6_EXPECTED

    report = (
        "Figure 4 - pages of a 6x256 array over 4 PEs (digit = owner PE):\n"
        + fig4
        + "\n\nFigure 6 - index-space responsibility under the"
        " first-element rule:\n" + fig6
        + "\n\nNote: PE2 computes only row 3 (paper row i=2) and PE1"
        "\ncomputes all of rows 1-2 even though it holds only half of"
        "\nrow 2 - the second half is written remotely, exactly the"
        "\nFigure 6 discussion."
    )
    save_report("fig04_fig06_partitioning.txt", report)
    print("\n" + report)

    benchmark.pedantic(
        lambda: page_map_diagram(ArrayHeader(1, (64, 64), 32, 32)),
        rounds=1, iterations=10,
    )
