#!/usr/bin/env python3
"""Functional parallelism: divide-and-conquer call trees across PEs.

The paper (Section 4) notes "PODS supports both functional and data
parallelism"; the SIMPLE results exercise the data side.  This example
shows the functional side: with round-robin placement of function-call
spawns, a recursive Fibonacci's call tree spreads over the machine —
each call is an SP instantiated by the arrival of its argument tokens,
wherever it lands.

Run:  python examples/functional_parallelism.py [n]
"""

import sys

from repro import MachineConfig, SimConfig, compile_source

SOURCE = """
function fib(n) {
    return if n < 2 then n else fib(n - 1) + fib(n - 2);
}

function main(n) { return fib(n); }
"""


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    program = compile_source(SOURCE)

    base = program.run((n,), backend="sim", parallelism=1)
    print(f"fib({n}) = {base.value}")
    print(f" 1 PE  (local placement):     {base.time_us / 1e3:8.2f} ms")

    for pes in (2, 4, 8, 16):
        config = SimConfig(machine=MachineConfig(
            num_pes=pes, function_placement="round_robin"))
        result = program.run((n,), backend="sim", parallelism=pes,
                             config=config)
        assert result.value == base.value
        print(f"{pes:2d} PEs (round-robin calls):   "
              f"{result.time_us / 1e3:8.2f} ms  "
              f"speed-up {base.time_us / result.time_us:4.2f}")

    local8 = program.run((n,), backend="sim", parallelism=8)
    print(f"\nWith the default local placement, 8 PEs give "
          f"{base.time_us / local8.time_us:.2f}x — the whole "
          "call tree stays on PE0.")


if __name__ == "__main__":
    main()
