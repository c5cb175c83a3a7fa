#!/usr/bin/env python3
"""Run the SIMPLE hydrodynamics benchmark and sketch Figure 10.

SIMPLE (LLNL) is the paper's headline workload: a Lagrangian
hydrodynamics + heat conduction cycle.  This example runs a small mesh
over several PE counts and prints the speed-up curve, plus the modeled
vs sequential comparison of Section 5.3.4.

Run:  python examples/simple_benchmark.py [size] [steps]
(Defaults 16 2; the paper's sizes 32/64 take a few minutes.)
"""

import sys

from repro.apps.simple_app import compile_simple


def main() -> None:
    size = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    steps = int(sys.argv[2]) if len(sys.argv) > 2 else 2
    program = compile_simple()

    seq = program.run((size, steps), backend="seq")
    print(f"sequential reference: total energy {seq.value:.6f}, "
          f"modeled {seq.time_s:.4f} s\n")

    print(f"SIMPLE {size}x{size}, {steps} step(s):")
    print(" PEs   modeled(s)  speed-up   EU util")
    base = None
    for pes in (1, 2, 4, 8, 16):
        result = program.run((size, steps), backend="sim", parallelism=pes).raw
        assert abs(result.value - seq.value) < 1e-9 * abs(seq.value)
        if base is None:
            base = result.finish_time_us
        print(f"{pes:4d}   {result.finish_time_s:9.4f}  "
              f"{base / result.finish_time_us:8.2f}  "
              f"{result.stats.utilization('EU') * 100:7.1f}%")

    print("\nPaper reference points (Figure 10): 16x16 tops at 8.1,")
    print("32x32 at 12.4, 64x64 reaches 18.9 on 32 PEs.")


if __name__ == "__main__":
    main()
