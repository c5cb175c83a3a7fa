"""Structural gates: what may import what, who may derive a partition,
and who may dispatch on an opcode.

The two SPMD substrates never import each other.  What ``parallel`` and
``dist`` share lives below both — the SPMD core in ``repro.runtime.spmd``,
the fault-plan engine and the retry/recovery types in ``repro.common`` —
so an import from one package into the other is a fork of something that
should be shared.  AST-gate both directions (in the style of the
``dist/reasons.py`` grep-gate).

And a partition is derived once per compiled program: only ``api.py``
(``compile_source``) calls ``build_graph`` or the Partitioner.  Every
backend executes the ``Program`` it is handed; a second derivation
elsewhere would be free to disagree with the first about which loops are
distributed.

And the simulator has one Execution Unit: under ``repro/sim`` only
``decode.py`` names the ``isa`` opcode constants.  A second run-time
dispatch on ``instr.op`` is a second interpreter growing back, and every
semantic change would again have to be made twice.

And the AST interpreter decodes once: under ``repro/{baseline,runtime,
parallel,dist}`` only ``baseline/sequential.py`` names an ``ast_nodes``
expression or statement class, and there only its ``compile_*`` methods
do — not the closures they build, not the ``run_*`` seams, not the
``on_*`` hooks.  An ``isinstance(stmt, A.For)`` anywhere else is the
per-evaluation dispatch ladder growing back.

And modeled time belongs to the interpreters that report it: nothing
under ``repro/{runtime,parallel,dist}`` names ``Clock`` (a worker runs
the program, not the cost model), and in ``baseline/sequential.py`` the
clock is only ever touched directly inside the ``compile_*`` methods,
``branch``, ``run_for_range`` and ``call_function`` — never in a closure
they build (whatever its name) nor in an ``on_*`` hook, which would be
looking the clock up per evaluation instead of having the charge
compiled in or out.

And a node has one I-structure memory: ``dist/memory.py`` is the pure
unit — it imports no ``asyncio``, ``socket``, ``concurrent``, ``time``
or ``repro.dist.transport``, so a sans-IO protocol core and the
simulator's chaos plans can drive it — and ``dist/node.py`` keeps no
element store of its own beside it: ``IStructureSegment`` is constructed
only under ``sim/`` and in ``dist/memory.py``.

And a recovery decision is made once: ``runtime/supervise.py`` is the
supervision core both SPMD supervisors are shells around — it imports
no processes, sockets, threads, queues, signals, clocks or either
substrate — and a ``RecoveryEvent`` is constructed nowhere else.

And a fault plan has one way into a run and one contract to survive:
``common/faultplan.py`` never reads the process environment, no source
file names a ``PODS_*FAULTS`` variable or a ``fault_spec`` config field,
there is one ``Scenario`` and one ``run_scenario`` (``repro/chaos.py``),
and that runner reaches a backend only through ``Backend.run`` — it
imports no ``Machine``, ``run_parallel`` or ``run_distributed``.

And a run has one way out: what it produced leaves ``Backend.run`` as
the declared fields of a ``BackendResult`` and how it failed as the
``code`` its exception class declares.  So nothing under ``src/repro``
outside ``backend.py`` reads ``.raw`` (kept for the frozen benchmark
harness alone), a ``Machine`` is constructed only by ``backend.py``
(and ``sim/machine.py``'s own helper), the two SPMD substrates return
the one ``SpmdResult``, and the code that recovered a failure's class
from traceback text or a loss reason from its formatted string
(``_DETAIL_MARKERS``, ``parse_reason``) stays gone.  ``runtime/spmd.py``
sits below ``backend.py`` and imports nothing from it.
"""

import ast
import os
import typing

import pytest

import repro
from repro.lang import ast_nodes
from repro.translator import isa


def _imports(path: str) -> set[str]:
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module)
            found.update(f"{node.module}.{a.name}" for a in node.names)
    return found


@pytest.mark.parametrize("package,forbidden", [("dist", "repro.parallel"),
                                               ("parallel", "repro.dist")])
def test_spmd_substrates_do_not_import_each_other(package, forbidden):
    root = os.path.join(os.path.dirname(repro.__file__), package)
    offenders = sorted(
        fname for fname in os.listdir(root) if fname.endswith(".py")
        and any(name == forbidden or name.startswith(forbidden + ".")
                for name in _imports(os.path.join(root, fname))))
    assert not offenders, (
        f"repro.{package} imports {forbidden} in {offenders}; share it "
        "through repro.runtime.spmd or repro.common instead")


DERIVATIONS = {"build_graph", "partition", "partition_none"}


def _derivation_calls(path: str) -> list[str]:
    """``name:line`` of every call that derives a graph or a partition:
    a bare ``build_graph(``/``partition(``/``partition_none(``, or the
    same reached through a module (``partitioner.partition(``) — but not
    the ``str.partition`` method on some other value."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in DERIVATIONS:
            found.append(f"{func.id}:{node.lineno}")
        elif isinstance(func, ast.Attribute) and func.attr in DERIVATIONS \
                and isinstance(func.value, ast.Name) \
                and func.value.id in ("graph", "builder", "partitioner"):
            found.append(f"{func.value.id}.{func.attr}:{node.lineno}")
    return found


def test_only_compile_source_derives_a_partition():
    root = os.path.dirname(repro.__file__)
    offenders = {}
    for dirpath, _, fnames in os.walk(root):
        rel = os.path.relpath(dirpath, root)
        if rel.split(os.sep)[0] in ("graph", "partitioner"):
            continue  # the defining packages
        for fname in fnames:
            if not fname.endswith(".py") or (rel == "." and fname == "api.py"):
                continue
            calls = _derivation_calls(os.path.join(dirpath, fname))
            if calls:
                offenders[os.path.join(rel, fname)] = calls
    assert not offenders, (
        f"a second derivation of the graph/partition: {offenders}; run "
        "the compiled Program (program.graph) instead")


def _opcode_refs(path: str) -> list[str]:
    """``name:line`` of every reference to an ``isa`` opcode constant:
    ``isa.MOV`` or ``from repro.translator.isa import MOV``."""
    opcodes = set(isa.OP_NAMES.values())
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in opcodes \
                and isinstance(node.value, ast.Name) \
                and node.value.id == "isa":
            found.append(f"isa.{node.attr}:{node.lineno}")
        elif isinstance(node, ast.ImportFrom) \
                and node.module == "repro.translator.isa":
            found.extend(f"import {a.name}:{node.lineno}"
                         for a in node.names if a.name in opcodes)
    return found


def test_only_the_decoder_maps_opcodes_to_behaviour():
    root = os.path.join(os.path.dirname(repro.__file__), "sim")
    offenders = {
        fname: refs for fname in sorted(os.listdir(root))
        if fname.endswith(".py") and fname != "decode.py"
        and (refs := _opcode_refs(os.path.join(root, fname)))}
    assert not offenders, (
        f"opcode dispatch outside repro/sim/decode.py: {offenders}; add "
        "the behaviour to the handler table instead")


NODE_CLASSES = {cls.__name__ for cls in (*typing.get_args(ast_nodes.Expr),
                                         *typing.get_args(ast_nodes.Stmt))}


def _by_function(tree: ast.AST, chain: tuple[str, ...] = ("<module>",)):
    """``(node, enclosing functions, outermost first)`` over ``tree``,
    below the ``"<module>"`` every chain starts with.  A lambda or nested
    ``def`` is a function of its own; a signature's annotations belong to
    the function they annotate."""
    if isinstance(tree, (ast.FunctionDef, ast.Lambda)):
        chain += (getattr(tree, "name", "<lambda>"),)
    yield tree, chain
    for child in ast.iter_child_nodes(tree):
        yield from _by_function(child, chain)


def _node_class_refs(path: str) -> list[tuple[str, str]]:
    """``(innermost enclosing function, "Class:line")`` of every
    reference to an ``ast_nodes`` expression/statement class —
    ``A.For`` through any alias of the module, or a from-imported
    ``For``."""
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    modules, classes = {"ast_nodes"}, set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for a in node.names:
                if a.name.endswith("ast_nodes"):
                    modules.add(a.asname or a.name)
                elif getattr(node, "module", "") == "repro.lang.ast_nodes" \
                        and a.name in NODE_CLASSES:
                    classes.add(a.asname or a.name)
    found = []
    for node, (*_, function) in _by_function(tree):
        if isinstance(node, ast.Attribute) and node.attr in NODE_CLASSES \
                and ast.unparse(node.value).split(".")[-1] in modules:
            found.append((function, f"{node.attr}:{node.lineno}"))
        elif isinstance(node, ast.Name) and node.id in classes:
            found.append((function, f"{node.id}:{node.lineno}"))
    return found


def test_only_the_compile_functions_see_ast_node_classes():
    root = os.path.dirname(repro.__file__)
    offenders, decoders = {}, set()
    for package in ("baseline", "runtime", "parallel", "dist"):
        for fname in sorted(os.listdir(os.path.join(root, package))):
            if not fname.endswith(".py"):
                continue
            refs = _node_class_refs(os.path.join(root, package, fname))
            if (package, fname) == ("baseline", "sequential.py"):
                decoders = {fn for fn, _ in refs if fn.startswith("compile_")}
                refs = [r for r in refs if r[0] not in decoders]
            if refs:
                offenders[f"{package}/{fname}"] = refs
    assert not offenders, (
        f"AST node classes named outside the decoder: {offenders}; resolve "
        "it in a compile_* method of baseline/sequential.py and capture "
        "the result in the closure instead")
    # The gate is not vacuous: the decoder is where it is looked for.
    assert {"compile_stmt", "compile_expr"} <= decoders


def test_the_wall_clock_substrates_do_not_name_the_cost_clock():
    root = os.path.dirname(repro.__file__)
    offenders = {}
    for package in ("runtime", "parallel", "dist"):
        for fname in sorted(os.listdir(os.path.join(root, package))):
            if not fname.endswith(".py"):
                continue
            with open(os.path.join(root, package, fname)) as fh:
                tree = ast.parse(fh.read(), fname)
            lines = sorted({
                node.lineno for node in ast.walk(tree)
                if "Clock" in (getattr(node, "id", None),
                               getattr(node, "attr", None),
                               getattr(node, "name", None))})
            if lines:
                offenders[f"{package}/{fname}"] = lines
    assert not offenders, (
        f"Clock named where no modeled time is reported: {offenders}; "
        "pass the interpreter no clock instead")


CHARGING = {"branch", "run_for_range", "call_function"}


def test_no_closure_looks_the_clock_up_at_run_time():
    path = os.path.join(os.path.dirname(repro.__file__), "baseline",
                        "sequential.py")
    with open(path) as fh:
        tree = ast.parse(fh.read(), path)
    # ``chain[1:]``: the functions around the reference, methods first.
    found = [(chain[1:], node.lineno) for node, chain in _by_function(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("clock", "charge")]
    offenders = [(".".join(fns), line) for fns, line in found
                 if len(fns) != 1  # a closure, even one named ``run``
                 or not (fns[0] in CHARGING | {"__init__", "run"}
                         or fns[0].startswith("compile_"))]
    assert not offenders, (
        f"the clock touched outside the decoder and the seams: {offenders}; "
        "capture it where the closure is built (or build the closure "
        "without it when there is no clock)")
    # Not vacuous: every charging site is where it is looked for.
    sites = {fns[0] for fns, _ in found}
    assert CHARGING | {"compile_stmt", "compile_expr", "compile_binary"} \
        <= sites


def test_the_node_memory_is_pure():
    path = os.path.join(os.path.dirname(repro.__file__), "dist", "memory.py")
    impure = ("asyncio", "socket", "concurrent", "time",
              "repro.dist.transport")
    offenders = sorted(
        name for name in _imports(path)
        if any(name == mod or name.startswith(mod + ".") for mod in impure))
    assert not offenders, (
        f"dist/memory.py imports {offenders}; it returns what to do and "
        "leaves loops, sockets, futures and clocks to its caller")


def test_the_supervision_core_is_pure():
    path = os.path.join(os.path.dirname(repro.__file__), "runtime",
                        "supervise.py")
    impure = ("asyncio", "socket", "multiprocessing", "concurrent",
              "threading", "queue", "signal", "time", "os",
              "repro.parallel", "repro.dist")
    offenders = sorted(
        name for name in _imports(path)
        if any(name == mod or name.startswith(mod + ".") for mod in impure))
    assert not offenders, (
        f"runtime/supervise.py imports {offenders}; it takes events with "
        "the time passed in and returns actions, leaving processes, "
        "sockets, threads and clocks to the shells")


def test_recovery_has_one_decider():
    deciders = sorted(
        rel for rel, text in _sources()
        if any(isinstance(n, ast.Call)
               and getattr(n.func, "id", None) == "RecoveryEvent"
               for n in ast.walk(ast.parse(text, rel))))
    assert deciders == [os.path.join("runtime", "supervise.py")], (
        f"RecoveryEvent constructed in {deciders}; a recovery decision "
        "is the supervision core's, and so is its record")


def test_a_node_keeps_no_element_store_beside_its_memory():
    root = os.path.dirname(repro.__file__)
    builders = set()
    for dirpath, _, fnames in os.walk(root):
        for fname in fnames:
            if not fname.endswith(".py"):
                continue
            path = os.path.join(dirpath, fname)
            with open(path) as fh:
                tree = ast.parse(fh.read(), path)
            if any(isinstance(node, ast.Call)
                   and getattr(node.func, "id", None) == "IStructureSegment"
                   for node in ast.walk(tree)):
                builders.add(os.path.relpath(path, root))
    assert builders == {os.path.join("sim", "machine.py"),
                        os.path.join("dist", "memory.py")}
    # ... and the node did not grow a store of another kind back: its
    # classes are the handle, the interpreter and the runtime, and none
    # of them queues deferred readers.
    with open(os.path.join(root, "dist", "node.py")) as fh:
        tree = ast.parse(fh.read())
    classes = {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)}
    assert classes == {"DistArray", "_NodeInterpreter", "NodeRuntime"}
    queues = sorted(n.lineno for n in ast.walk(tree)
                    if isinstance(n, ast.Attribute)
                    and n.attr in ("deferred", "stores"))
    assert not queues, (
        f"dist/node.py lines {queues}: presence, deferred readers and "
        "single assignment live in dist/memory.py's segments")


def _sources():
    """``(path relative to src/repro, text)`` of every source file."""
    root = os.path.dirname(repro.__file__)
    for dirpath, _, fnames in os.walk(root):
        for fname in sorted(fnames):
            if fname.endswith(".py"):
                path = os.path.join(dirpath, fname)
                with open(path) as fh:
                    yield os.path.relpath(path, root), fh.read()


def test_a_fault_plan_has_one_way_in():
    gone = ("PODS_FAULTS", "PODS_SIM_FAULTS", "PODS_DIST_FAULTS",
            "fault_spec")
    offenders = {rel: [name for name in gone if name in text]
                 for rel, text in _sources()
                 if any(name in text for name in gone)}
    assert not offenders, (
        f"a second channel for fault plans: {offenders}; pass "
        "Backend.run(faults=...) instead")
    engine = os.path.join(os.path.dirname(repro.__file__), "common",
                          "faultplan.py")
    assert "os" not in _imports(engine)  # so no os.environ either


def test_the_chaos_contract_has_one_implementation():
    defined = {"Scenario": [], "run_scenario": []}
    for rel, text in _sources():
        for node in ast.walk(ast.parse(text, rel)):
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) \
                    and node.name in defined:
                defined[node.name].append(rel)
    assert defined == {"Scenario": ["chaos.py"],
                       "run_scenario": ["chaos.py"]}
    runner = os.path.join(os.path.dirname(repro.__file__), "chaos.py")
    substrates = ("repro.sim.machine", "repro.parallel", "repro.dist")
    offenders = sorted(
        name for name in _imports(runner)
        if any(name == mod or name.startswith(mod + ".")
               for mod in substrates))
    assert not offenders, (
        f"repro/chaos.py imports {offenders}; it reaches a substrate "
        "only through Backend.run(faults=...)")


def test_a_run_has_one_way_out():
    raw = {rel: [n.lineno for n in ast.walk(ast.parse(text, rel))
                 if isinstance(n, ast.Attribute) and n.attr == "raw"]
           for rel, text in _sources() if rel != "backend.py"}
    raw = {rel: lines for rel, lines in raw.items() if lines}
    assert not raw, (
        f".raw read outside backend.py: {raw}; read the BackendResult's "
        "declared fields (stats, worker_stats, recovery, netstats)")
    machines = sorted(
        rel for rel, text in _sources()
        if any(isinstance(n, ast.Call)
               and getattr(n.func, "id", None) == "Machine"
               for n in ast.walk(ast.parse(text, rel))))
    assert machines == ["backend.py", os.path.join("sim", "machine.py")], (
        f"Machine constructed in {machines}; go through Backend.run")
    gone = ("_DETAIL_MARKERS", "parse_reason", "class ParallelResult",
            "class DistResult")
    offenders = {rel: [name for name in gone if name in text]
                 for rel, text in _sources()
                 if any(name in text for name in gone)}
    assert not offenders, (
        f"a second way out grew back: {offenders}; a failure carries its "
        "code, a loss its reason, and both SPMD substrates return "
        "runtime.spmd.SpmdResult")
    spmd = os.path.join(os.path.dirname(repro.__file__), "runtime",
                        "spmd.py")
    assert not [name for name in _imports(spmd)
                if name.startswith("repro.backend")]
