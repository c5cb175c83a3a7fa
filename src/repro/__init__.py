"""PODS — Process-Oriented Dataflow System.

A reproduction of Bic, Roy & Nagel, "Exploiting Iteration-Level
Parallelism in Dataflow Programs" (UC Irvine TR 91-57 / ICDCS 1992):
an Id-flavoured declarative language compiled through dataflow graphs
into Subcompact Processes, distributed over a simulated iPSC/2 with
distributing allocates, LD operators and Range Filters.

Quick start::

    from repro import compile_source

    program = compile_source('''
        function main(n) {
            A = matrix(n, n);
            for i = 1 to n {
                for j = 1 to n { A[i, j] = i * n + j; }
            }
            return A;
        }
    ''')
    result = program.run((16,), backend="sim", parallelism=8)
    print(result.value[3, 4], result.time_s)
"""

from repro.api import Program, compile_source
from repro.common.config import MachineConfig, SimConfig
from repro.common.errors import (
    DeadlockError,
    LanguageError,
    LivelockError,
    PEHaltError,
    PodsError,
    RuntimeFault,
    SingleAssignmentViolation,
)
from repro.runtime.values import ArrayId, ArrayValue
from repro.sim.machine import Machine, RunResult

__version__ = "1.0.0"

__all__ = [
    "ArrayId",
    "ArrayValue",
    "DeadlockError",
    "LanguageError",
    "LivelockError",
    "Machine",
    "MachineConfig",
    "PEHaltError",
    "PodsError",
    "Program",
    "RunResult",
    "RuntimeFault",
    "SimConfig",
    "SingleAssignmentViolation",
    "compile_source",
    "__version__",
]
