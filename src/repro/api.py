"""Public facade: compile IdLite source and run it on any backend.

    from repro import compile_source, SimConfig

    program = compile_source('''
        function main(n) {
            A = matrix(n, n);
            for i = 1 to n {
                for j = 1 to n { A[i, j] = i * n + j; }
            }
            return A;
        }
    ''')
    result = program.run((8,), backend="sim", parallelism=4)
    print(result.value.to_nested(), result.time_s)

``compile_source`` is the one place a partition is derived: every
backend executes the ``Program`` it is handed, so ``distribute``,
``rf_placement``, ``aggressive`` and ``optimize`` mean the same thing on
all five.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.graph import build_graph, ir, validate_graph
from repro.lang import ast_nodes
from repro.lang.parser import parse
from repro.partitioner import PartitionReport, partition, partition_none
from repro.translator import isa, translate


@dataclass
class Program:
    """A compiled IdLite program, runnable on every backend."""

    source: str
    ast: ast_nodes.Program
    graph: ir.ProgramGraph
    pods: isa.PodsProgram
    partition_report: PartitionReport
    entry: str = "main"

    # -- backends -----------------------------------------------------

    def run(self, args: tuple = (), *, backend: str = "sim", **kwargs):
        """Execute on any registered backend; the uniform surface.

        ``backend`` is a name from the :mod:`repro.backend` registry
        (``sim``/``pods``, ``parallel``, ``seq``/``sequential``,
        ``static``, ``dist``/``distributed``); the return value is a
        :class:`repro.backend.BackendResult` whatever the substrate.
        The keywords are :meth:`repro.backend.Backend.run`'s:
        ``parallelism`` (the PE/worker count; ``None`` defers to
        ``config``), ``config`` and ``faults`` (backend-specific but
        validated uniformly), ``ckpt`` and ``restore``.
        """
        from repro.backend import get_backend

        return get_backend(backend).run(self, args, **kwargs)

    # -- introspection ---------------------------------------------------

    def listing(self) -> str:
        """SP assembly listing (after translation + partitioning)."""
        return self.pods.listing()

    def graph_text(self) -> str:
        """Figure 2-style indented scope view of the dataflow graph."""
        from repro.graph.render import to_text

        return to_text(self.graph)

    def graph_dot(self) -> str:
        """Graphviz DOT rendering of the dataflow graph."""
        from repro.graph.render import to_dot

        return to_dot(self.graph)


def compile_source(source: str, entry: str = "main",
                   distribute: bool = True,
                   optimize: bool = False,
                   rf_placement: str = "outer",
                   aggressive: bool = False) -> Program:
    """Compile IdLite source through the full PODS pipeline.

    Stages (paper Figure 3): parse -> semantic analysis -> dataflow graph
    -> LCD analysis + Partitioner (unless ``distribute=False``) ->
    Translator -> SP templates.

    ``optimize=True`` adds loop-invariant hoisting; the default is off
    to match the paper's "no optimization techniques" configuration.
    """
    tree = parse(source)
    graph = build_graph(tree, entry=entry)
    if distribute:
        report = partition(graph, placement=rf_placement,
                           aggressive=aggressive)
    else:
        report = partition_none(graph)
    if optimize:
        from repro.graph.optimize import optimize_graph

        optimize_graph(graph)
    validate_graph(graph)
    pods = translate(graph)
    pods.name = entry
    return Program(source=source, ast=tree, graph=graph, pods=pods,
                   partition_report=report, entry=entry)
