#!/usr/bin/env python3
"""Run the SIMPLE hydrodynamics benchmark and sketch Figure 10.

SIMPLE (LLNL) is the paper's headline workload: a Lagrangian
hydrodynamics + heat conduction cycle.  This example runs Figure 10 and
the Section 5.3.4 comparison of ``repro.bench.figures`` on one small
mesh over several PE counts, and checks their claims.

Run:  python examples/simple_benchmark.py [size] [steps]
(Defaults 16 2; the paper's sizes 32/64 take a few minutes.)
"""

import sys
from dataclasses import replace

from repro.bench.figures import (REDUCED, check_figure10, check_sec534,
                                 figure10, sec534)
from repro.bench.harness import Sweeper


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    scale = replace(REDUCED, sizes=(size,), pes=(1, 2, 4, 8, 16),
                    steps=steps, conduction=size)
    sweeper = Sweeper()
    for figure, check in ((figure10, check_figure10), (sec534, check_sec534)):
        fig = figure(scale, sweeper)
        print(fig.text + "\n")
        check(fig)


if __name__ == "__main__":
    main()
