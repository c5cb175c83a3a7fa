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
expression or statement class, and there only its source generator
does — the methods of ``_Writer`` and its two dispatch tables — not the
``subranges`` seam, not the ``on_*`` hooks.  An ``isinstance(stmt, A.For)``
anywhere else is the per-evaluation dispatch ladder growing back.

And modeled time belongs to the interpreters that report it: nothing
under ``repro/{runtime,parallel,dist}`` names ``Clock`` (a worker runs
the program, not the cost model), and in ``baseline/sequential.py`` the
clock is only ever touched directly by the generator's methods (which
write a charge into the source or leave it out) and by
``bind_namespace`` (which binds ``clock.charge`` into the generated
code's globals once) — never in a nested function or lambda, in the
``subranges`` seam or in an ``on_*`` hook, which would be looking the
clock up per evaluation.

And a node's rules live in one place: ``dist/protocol.py`` is the node
as a state machine — it imports no ``asyncio``, ``threading``,
``socket``, ``time``, ``concurrent`` or ``repro.dist.transport``, so a
whole cluster of them runs in one test process — and ``dist/node.py``,
its shell, keeps none of its state: it constructs no
``IStructureSegment`` (only ``sim/`` and ``dist/protocol.py`` do), holds
no segments and never assigns the pending reads, the owner map or the
live set.  What a node holds it keeps once, in the cells of its one
segment per array, which all its handles share — no list, cache or
mirror beside it — and the shared stores' access counters are declared
once, by ``runtime.arrays.SharedHandle``.

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

And an index has one rule: a refused index tuple is a
``BoundsViolation`` built only in ``runtime/arrays.py`` — each store's
accessor is generated there (``index_fn``), so no store writes a second
copy of the rule beside it.

And a simulated run has one record: the simulator writes what it
observes into one span log (``repro.obs.spanlog``) through one
attribute, ``Machine.log``, and no ``sim`` module names the separate
stores and the glue that recorded it three ways (``Tracer``,
``WaitStore``, ``TimelineStore``, ``ObsRecorder``), nor their
attributes.  And the simulator is Figure 7: one module per unit (the
EU in ``decode.py``, ``mu.py``, ``am.py``, ``ru.py``), which meet only
through the machine ``M`` and one another's public functions, and a
``Machine`` that keeps no unit's handler.

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


def _generator(tree: ast.Module) -> tuple[set[str], set[int]]:
    """The method names of ``_Writer`` and the source lines of its
    module-level dispatch tables (``_WRITE_STMT``, ``_WRITE_EXPR``)."""
    methods, lines = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "_Writer":
            methods = {f.name for f in node.body
                       if isinstance(f, ast.FunctionDef)}
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", "") in ("_WRITE_STMT", "_WRITE_EXPR")
                for t in node.targets):
            lines |= set(range(node.lineno, node.end_lineno + 1))
    return methods, lines


SEQUENTIAL = os.path.join(os.path.dirname(repro.__file__), "baseline",
                          "sequential.py")


def test_only_the_source_generator_sees_ast_node_classes():
    root = os.path.dirname(repro.__file__)
    with open(SEQUENTIAL) as fh:
        methods, tables = _generator(ast.parse(fh.read(), SEQUENTIAL))
    offenders, decoders = {}, set()
    for package in ("baseline", "runtime", "parallel", "dist"):
        for fname in sorted(os.listdir(os.path.join(root, package))):
            if not fname.endswith(".py"):
                continue
            refs = _node_class_refs(os.path.join(root, package, fname))
            if (package, fname) == ("baseline", "sequential.py"):
                decoders = {fn for fn, ref in refs if fn in methods or (
                    fn == "<module>"
                    and int(ref.split(":")[1]) in tables)}
                refs = [(fn, ref) for fn, ref in refs
                        if fn not in methods and not (
                            fn == "<module>"
                            and int(ref.split(":")[1]) in tables)]
            if refs:
                offenders[f"{package}/{fname}"] = refs
    assert not offenders, (
        f"AST node classes named outside the decoder: {offenders}; resolve "
        "it in a _Writer method of baseline/sequential.py and write the "
        "result into the generated source instead")
    # The gate is not vacuous: the decoder is where it is looked for.
    assert {"write_for", "loop_body", "<module>"} <= decoders


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


CHARGING = {"bind_namespace"}


def test_nothing_looks_the_clock_up_at_run_time():
    with open(SEQUENTIAL) as fh:
        tree = ast.parse(fh.read(), SEQUENTIAL)
    methods, _ = _generator(tree)
    # ``chain[1:]``: the functions around the reference, methods first.
    found = [(chain[1:], node.lineno) for node, chain in _by_function(tree)
             if isinstance(node, ast.Attribute)
             and node.attr in ("clock", "charge")]
    offenders = [(".".join(fns), line) for fns, line in found
                 if len(fns) != 1  # a nested function or a lambda
                 or fns[0] not in CHARGING | methods | {"__init__", "run"}]
    assert not offenders, (
        f"the clock touched outside the generator and the seams: "
        f"{offenders}; write the charge into the generated source (or "
        "leave it out when there is no clock)")
    # Not vacuous: every charging site is where it is looked for.
    sites = {fns[0] for fns, _ in found}
    assert CHARGING | {"write_for", "write_index", "binary"} <= sites


def test_the_node_memory_is_pure():
    path = os.path.join(os.path.dirname(repro.__file__), "dist",
                        "protocol.py")
    impure = ("asyncio", "threading", "socket", "concurrent", "time",
              "repro.dist.transport")
    offenders = sorted(
        name for name in _imports(path)
        if any(name == mod or name.startswith(mod + ".") for mod in impure))
    assert not offenders, (
        f"dist/protocol.py imports {offenders}; the node's and the "
        "coordinator's protocols return what to do and leave loops, "
        "threads, sockets, futures and clocks to their shells")


def test_the_coordinator_shell_decides_nothing():
    # Every coordinator rule is CoordinatorProtocol's: the shell neither
    # builds the supervision core nor reads its actions or loss reasons.
    path = os.path.join(os.path.dirname(repro.__file__), "dist",
                        "coordinator.py")
    imported = _imports(path)
    assert "repro.dist.protocol.CoordinatorProtocol" in imported
    deciding = sorted(name for name in imported if name in (
        "repro.runtime.supervise.Supervision", "repro.runtime.supervise.Start",
        "repro.runtime.supervise.Fence", "repro.dist.reasons")
        or name.startswith("repro.dist.reasons."))
    assert not deciding, (
        f"dist/coordinator.py imports {deciding}; what a report, a loss "
        "or a round means is CoordinatorProtocol's to decide")


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
    assert builders == {os.path.join("sim", "am.py"),
                        os.path.join("dist", "protocol.py")}
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
        "single assignment live in dist/protocol.py's segments")
    # ... nor any of the protocol's state: it reads the pending reads,
    # the owner map and the live set at most, and holds no segments.
    state = ("pending", "owners", "live", "segments", "_segments",
             "memory")
    held = sorted(
        n.lineno for n in ast.walk(tree)
        if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign))
        for target in (n.targets if isinstance(n, ast.Assign)
                       else [n.target])
        for t in ast.walk(target)
        if isinstance(t, ast.Attribute) and t.attr in state)
    named = sorted(n.lineno for n in ast.walk(tree)
                   if isinstance(n, ast.Attribute)
                   and n.attr in ("segments", "_segments", "memory"))
    assert not held and not named, (
        f"dist/node.py lines {held + named}: the node's state is its "
        "NodeProtocol's, assigned only under the protocol's lock")
    # ... and the protocol keeps no list of elements beside its segments:
    # no ``seen`` store, nothing built as ``[None] * n``.
    with open(os.path.join(root, "dist", "protocol.py")) as fh:
        tree = ast.parse(fh.read())
    lists = sorted(
        n.lineno for n in ast.walk(tree)
        if (isinstance(n, ast.Attribute) and n.attr == "seen")
        or (isinstance(n, ast.BinOp) and isinstance(n.op, ast.Mult)
            and isinstance(n.left, ast.List)
            and any(isinstance(e, ast.Constant) and e.value is None
                    for e in n.left.elts)))
    assert not lists, (
        f"dist/protocol.py lines {lists}: a node's elements are the cells "
        "of its segments (NodeProtocol.array returns them)")


def test_a_node_keeps_one_list_per_array_and_one_counter_declaration():
    """A ``dist`` node keeps each element it holds once, in the cells of
    its one segment of the array: no cache or mirror beside it.  And the
    shared stores' access counters are declared by
    ``runtime.arrays.SharedHandle`` alone: no other SPMD module sets one
    up, nor re-lists them in a ``stats()``."""
    root = os.path.dirname(repro.__file__)
    beside = []
    for name in ("node.py", "protocol.py"):
        with open(os.path.join(root, "dist", name)) as fh:
            tree = ast.parse(fh.read())
        beside += [f"{name}:{n.lineno}" for n in ast.walk(tree)
                   if isinstance(n, (ast.Attribute, ast.FunctionDef))
                   and getattr(n, "attr", getattr(n, "name", None))
                   in ("cache", "caches", "mirror")]
    assert not beside, (
        f"{beside}: a second copy of the elements the node holds; "
        "fill the node's segment (NodeProtocol.array)")
    counters = ("reads", "writes", "deferred_reads", "spin_wait_s",
                "max_spin_wait_s", "replayed_present", "stall_reports",
                "pages_touched")
    declared, relisted = set(), set()
    for rel, text in _sources():
        if rel.split(os.sep)[0] not in ("baseline", "runtime", "parallel",
                                        "dist"):
            continue
        for node in ast.walk(ast.parse(text, rel)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target] if isinstance(node, ast.AnnAssign)
                       else [])
            if any(isinstance(t, ast.Attribute) and t.attr in counters
                   for target in targets for t in ast.walk(target)):
                declared.add(rel)
            if isinstance(node, ast.ClassDef) and any(
                    getattr(base, "id", None) == "SharedHandle"
                    for base in node.bases) and any(
                    isinstance(item, ast.FunctionDef)
                    and item.name == "stats" for item in node.body):
                relisted.add(rel)
    assert declared == {os.path.join("runtime", "arrays.py")}, (
        f"shared counters declared in {sorted(declared)}; subclass "
        "runtime.arrays.SharedHandle")
    assert not relisted, (
        f"a stats() in {sorted(relisted)}: a process reports its counters "
        "through SharedHandle.totals")


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


def test_a_simulated_run_has_one_record():
    root = os.path.dirname(repro.__file__)
    stores = {"Tracer", "WaitStore", "TimelineStore", "ObsRecorder"}
    attrs = {"tracer", "obs", "_waits", "_span_adds"}
    named = set()
    for fname in _sim_modules():
        path = os.path.join(root, "sim", fname)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and node.id in stores:
                named.add(f"{fname}: {node.id}")
            elif isinstance(node, ast.alias) and node.name in stores:
                named.add(f"{fname}: {node.name}")
            elif (isinstance(node, ast.Attribute) and node.attr in attrs
                  and getattr(node.value, "id", None) in ("self", "M")):
                named.add(f"{fname}: {node.value.id}.{node.attr}")
    assert not named, (
        f"repro/sim names {sorted(named)}; record through Machine.log "
        "(repro.obs.spanlog) and derive every view from it")
    gone = [rel for rel in (("obs", "recorder.py"), ("obs", "timeline.py"),
                            ("obs", "waits.py"), ("sim", "trace.py"))
            if os.path.exists(os.path.join(root, *rel))]
    assert not gone, f"a second record of a simulated run: {gone}"


# Figure 7's units, one module each: the EU (with its instruction
# handlers), the MU (with the MM's frame operations), the AM, the RU.
SIM_UNITS = ("decode", "mu", "am", "ru")


def _sim_modules() -> list[str]:
    root = os.path.join(os.path.dirname(repro.__file__), "sim")
    return sorted(f for f in os.listdir(root) if f.endswith(".py"))


def test_the_units_meet_only_through_the_machine():
    """A unit calls another unit's public functions and shares state only
    through the machine ``M``: no ``sim`` module imports a unit's private
    name or reaches into one (``am._x``).  And ``Machine`` keeps the
    event loop, the server model, the PE faults, the no-progress
    diagnosis and the arrays' gather — no unit's handler."""
    root = os.path.join(os.path.dirname(repro.__file__), "sim")
    modules = {f"repro.sim.{unit}" for unit in SIM_UNITS}
    offenders, imported = [], set()
    for fname in _sim_modules():
        path = os.path.join(root, fname)
        with open(path) as fh:
            tree = ast.parse(fh.read(), path)
        units = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "repro.sim":
                units.update(a.asname or a.name for a in node.names
                             if a.name in SIM_UNITS)
            elif isinstance(node, ast.ImportFrom) and node.module in modules:
                offenders.extend(f"{fname}:{node.lineno} {a.name}"
                                 for a in node.names
                                 if a.name.startswith("_"))
        imported |= units
        offenders.extend(
            f"{fname}:{node.lineno} {node.value.id}.{node.attr}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and node.attr.startswith("_")
            and isinstance(node.value, ast.Name) and node.value.id in units)
    assert not offenders, (
        f"a unit's private name used from outside it: {offenders}; make it "
        "public, or share the state through M")
    assert imported == set(SIM_UNITS)  # not vacuous
    from repro.sim.machine import Machine

    methods = {name for name, value in vars(Machine).items()
               if callable(value) and not name.startswith("__")}
    assert methods == {"schedule", "_serve", "run", "_spawn_entry",
                       "read_array", "_gather", "_pe_halt", "_pe_degrade",
                       "_stuck_error", "_ckpt_snapshot"}, methods


def test_the_index_rule_has_one_definition():
    """A refused index tuple is spelled once: only ``runtime/arrays.py``
    builds a ``BoundsViolation`` — as a call, or as generated source a
    store compiles.  ``ShmArray.seed`` refusing a flat checkpoint offset
    (no index tuple) is the one named exception."""
    sites = set()
    for rel, text in _sources():
        for node, chain in _by_function(ast.parse(text, rel)):
            called = (isinstance(node, ast.Call)
                      and getattr(node.func, "id", None) == "BoundsViolation")
            generated = (isinstance(node, ast.Constant)
                         and isinstance(node.value, str)
                         and "BoundsViolation(" in node.value)
            if called or generated:
                sites.add((rel, chain[-1]))
    rule = os.path.join("runtime", "arrays.py")
    seed = (os.path.join("parallel", "shm_arrays.py"), "seed")
    offenders = sorted(site for site in sites
                       if site[0] != rule and site != seed)
    assert not offenders, (
        f"BoundsViolation built in {offenders}; generate the store's "
        "accessor with runtime.arrays.index_fn instead of a second copy "
        "of the index rule")
    # Not vacuous: the rule and the exception are where they are looked for.
    assert {site[0] for site in sites} == {rule, seed[0]}
    assert seed in sites
