#!/usr/bin/env python3
"""Quickstart: the paper's own example program, end to end.

Compiles the Section 3 example (fill a matrix with f(i, j)) through the
full PODS pipeline, shows what the Partitioner decided, dumps the SP
assembly, and runs it on 1 and 4 simulated PEs.

Run:  python examples/quickstart.py
"""

from repro import compile_source

# The example of paper Section 3, with f(i, j) spelled out as a function.
SOURCE = """
function f(i, j) {
    return i * 10 + j;
}

function main() {
    A = matrix(50, 10);
    for i = 1 to 50 {
        for j = 1 to 10 {
            A[i, j] = f(i, j);
        }
    }
    return A;
}
"""


def main() -> None:
    program = compile_source(SOURCE)

    print("=== Partitioner decisions (Section 4.2.4) ===")
    print(program.partition_report.summary())

    print("\n=== Subcompact Process listing (Section 3) ===")
    print(program.listing())

    print("\n=== Execution ===")
    base = None
    for pes in (1, 4):
        result = program.run((), backend="sim", parallelism=pes)
        a = result.value
        assert a[1, 1] == 11 and a[50, 10] == 510
        if base is None:
            base = result.time_us
        print(f"{pes} PE(s): {result.time_us:9.1f} us "
              f"(speed-up {base / result.time_us:.2f}), "
              f"A[7, 3] = {a[7, 3]}")

    print("\nThe i-loop was replicated on every PE by the distributing L")
    print("operator; each replica's Range Filter kept only the rows whose")
    print("first element its PE owns (Data-Distributed Execution).")


if __name__ == "__main__":
    main()
