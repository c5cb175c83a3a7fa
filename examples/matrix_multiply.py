#!/usr/bin/env python3
"""Matrix multiply — the paper's generic example — on all four backends.

Shows that the declarative source runs unchanged on:
  * the sequential reference interpreter (the "compiled C" proxy),
  * the PODS instruction-level simulator at several PE counts,
  * the Pingali & Rogers-style static baseline,
  * the real multiprocessing backend,
and that every backend computes the identical checksum.

Run:  python examples/matrix_multiply.py [n]
"""

import sys

from repro.apps.matmul import compile_matmul


def main() -> None:
    n = int(sys.argv[1]) if len(sys.argv) > 1 else 16
    program = compile_matmul(checksum=True)

    seq = program.run((n,), backend="seq")
    print(f"sequential:     checksum {seq.value:.6f}  "
          f"modeled {seq.time_s * 1e3:.2f} ms")

    base = None
    for pes in (1, 2, 4, 8):
        result = program.run((n,), backend="sim", parallelism=pes)
        assert abs(result.value - seq.value) < 1e-9 * abs(seq.value)
        if base is None:
            base = result.time_us
        print(f"PODS {pes:2d} PE(s):  checksum {result.value:.6f}  "
              f"modeled {result.time_s * 1e3:.2f} ms  "
              f"speed-up {base / result.time_us:.2f}")

    static = program.run((n,), backend="static", parallelism=4)
    assert abs(static.value - seq.value) < 1e-9 * abs(seq.value)
    print(f"static (P&R) 4: checksum {static.value:.6f}  "
          f"modeled {static.time_s * 1e3:.2f} ms")

    par = program.run((n,), backend="parallel", parallelism=2)
    assert abs(par.value - seq.value) < 1e-9 * abs(seq.value)
    print(f"parallel x2:    checksum {par.value:.6f}  "
          f"wall {par.wall_time_s:.2f} s (real processes)")


if __name__ == "__main__":
    main()
