#!/usr/bin/env python3
"""Heat-conduction sweeps: loop-carried dependencies in action.

The conduction phase of SIMPLE is "the most difficult to parallelize"
(paper Section 5.2) because its ADI solver sweeps the mesh with ascending
and descending loop-carried dependencies.  This example shows:

  * the LCD analysis spotting both sweep directions,
  * the Partitioner pushing the LD one level down (the sweep level stays
    local; the inner row loops are distributed with a Range Filter whose
    range depends on the outer index — Section 4.2.2),
  * I-structure presence bits serializing exactly the dependent reads
    while everything else overlaps.

Run:  python examples/heat_conduction.py
"""

from repro.apps.simple_app import compile_simple


def main() -> None:
    program = compile_simple(conduction_only=True)

    print("=== Loop classification for conduction ===")
    for block in program.graph.loop_blocks():
        if not block.name.startswith("conduction"):
            continue
        tags = []
        if block.has_lcd:
            tags.append("LCD")
            tags.append("descending" if block.descending else "ascending")
        if block.distributed:
            rf = block.range_filter
            tags.append(f"distributed, RF on dim {rf.dim} with "
                        f"{len(rf.fixed_vids)} fixed index(es)")
        else:
            tags.append("local")
        print(f"  {block.name:30s} {', '.join(tags)}")

    print("\n=== Scaling the conduction phase (16x16, 2 steps) ===")
    base = None
    for pes in (1, 2, 4, 8):
        result = program.run((16, 2), backend="sim", parallelism=pes)
        if base is None:
            base = result.time_us
            value = result.value
        assert abs(result.value - value) < 1e-9
        stats = result.stats
        print(f"{pes:2d} PE(s): {result.time_s:7.4f} s  "
              f"speed-up {base / result.time_us:4.2f}  "
              f"EU {stats.utilization('EU') * 100:5.1f}%  "
              f"remote reads {stats.remote_reads:5d}")

    print("\nThe sweeps serialize only along the dependence chain; the")
    print("coefficient and energy passes (and the perpendicular l-direction")
    print("solve) distribute fully, which is where the residual speed-up")
    print("of this hardest phase comes from.")


if __name__ == "__main__":
    main()
