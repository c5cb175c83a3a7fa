"""The five workloads: what one operation is, and how it is checked.

Each workload has ``setup(seed)`` (import the program under test, build
inputs, compile, compute the oracle with the independent tree-walking
``seq`` interpreter, run one untimed warm-up), ``op()`` (the timed
operation) and ``check(outcome)`` (run outside the timed region; returns
the reasons the operation failed, empty when it passed).

Sizes are constants.  ``quick`` swaps in the small sizes the self-tests
and the layer probes of the traced run use; nothing adapts at run time.

The program under test receives generated sources and argument tuples
only, never the seed.
"""

from __future__ import annotations

import hashlib
import math
import os
import shutil
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH_DIR = os.path.dirname(HERE)
REPO_ROOT = os.path.dirname(os.path.dirname(BENCH_DIR))
OUT_DIR = os.path.join(BENCH_DIR, "out")

REL_TOL = 1e-9
SIM_WARMUP_ARGS = (8, 1)
SPMD_WARMUP_N = 8


def scratch_dir(prefix: str) -> str:
    """A fresh directory under ``out/``: the benchmark writes only
    inside its own checkout."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return tempfile.mkdtemp(prefix=prefix, dir=OUT_DIR)


def same_value(value, oracle) -> bool:
    """Numbers within REL_TOL; arrays (``ArrayValue``) element-wise."""
    if hasattr(oracle, "flat"):
        return (getattr(value, "dims", None) == oracle.dims
                and all(same_value(v, o)
                        for v, o in zip(value.flat, oracle.flat)))
    if isinstance(value, (int, float)) and isinstance(oracle, (int, float)):
        return math.isfinite(value) and math.isclose(
            value, oracle, rel_tol=REL_TOL, abs_tol=0.0)
    return value == oracle


def value_problem(value, oracle) -> str | None:
    if same_value(value, oracle):
        return None
    return f"value {value!r:.200} != seq oracle {oracle!r:.200}"


class SimWorkload:
    """SIMPLE on the simulator, plain or fully observed."""

    layer = "sim"

    def __init__(self, name: str, observed: bool, quick: bool) -> None:
        self.name = name
        self.observed = observed
        self.args = (8, 1) if quick else (24, 2)
        self.pes = 8
        self.tmp: str | None = None

    def setup(self, seed: int) -> None:
        # The paper's own evaluation program at a fixed size: the seed
        # changes nothing here and is only recorded in the result.
        from repro.apps import compile_simple

        self.program = compile_simple()
        self.oracle = self.seq_reference()
        self.first: tuple | None = None
        if self.observed:
            from repro.obs.store import RunStore

            self.tmp = scratch_dir("observed-")
            self.store = RunStore(os.path.join(self.tmp, "ledger"))
        self.run(SIM_WARMUP_ARGS)

    def seq_reference(self):
        return self.program.run(self.args, backend="seq").value

    def sim_config(self, observed: bool):
        from repro.common.config import MachineConfig, ObsConfig, SimConfig

        obs = ObsConfig(metrics=True, timelines=True, waits=True) \
            if observed else ObsConfig()
        return SimConfig(machine=MachineConfig(num_pes=self.pes), obs=obs)

    def ckpt_writer(self, args: tuple, writer_cls=None):
        """A final-snapshot-only checkpoint writer (every_events=0)."""
        from repro.ckpt import CkptSpec, CkptWriter, program_section

        spec = CkptSpec(dir=os.path.join(self.tmp, "ckpt"))
        return (writer_cls or CkptWriter)(
            spec, fingerprint={"backend": "sim", "parallelism": self.pes},
            program=program_section(self.program.source, entry="main",
                                    name="simple"),
            args=args)

    def run(self, args: tuple):
        if not self.observed:
            return self.program.run(args, backend="sim",
                                    config=self.sim_config(False))
        result = self.program.run(args, backend="sim",
                                  config=self.sim_config(True),
                                  ckpt=self.ckpt_writer(args))
        self.store.put(result.to_run_record(self.program, args))
        return result

    def op(self):
        return self.run(self.args)

    def check(self, result) -> list[str]:
        problems = []
        bad = value_problem(result.value, self.oracle)
        if bad:
            problems.append(bad)
        modeled = (result.time_us, result.raw.stats.events_processed)
        if self.first is None:
            self.first = modeled
        elif modeled != self.first:
            problems.append(f"modeled (time_us, events) changed between "
                            f"reps: {self.first} -> {modeled}")
        if self.observed and not (result.ckpt or {}).get("snapshots"):
            problems.append("observed run wrote no final checkpoint")
        return problems

    def teardown(self) -> None:
        if self.tmp:
            shutil.rmtree(self.tmp, ignore_errors=True)


class CompileWorkload:
    """``compile_source`` over the whole corpus; nothing is executed.

    One operation compiles every source to its SP listing and keeps only
    the listing's hash: holding all the compiled programs alive instead
    made a pass 40 % slower through cyclic-GC work alone, which is the
    harness's cost, not the compiler's.
    """

    layer = "compile"
    name = "compile_corpus"

    def __init__(self, quick: bool) -> None:
        self.generated = 6 if quick else None

    def setup(self, seed: int) -> None:
        from e2ebench.corpus import (GENERATED_PROGRAMS, build_corpus,
                                     verification_sample)
        from repro import compile_source

        self.corpus = build_corpus(
            seed, REPO_ROOT, self.generated or GENERATED_PROGRAMS)
        # This first pass is the warm-up, proves every program compiles,
        # and fixes the listing hashes later reps must reproduce.
        self.hashes = self.op()
        self.sample = [
            (s, compile_source(s.text, optimize=s.optimize))
            for s in verification_sample(self.corpus, seed)]
        for (source, program), oracle in zip(self.sample,
                                             self.seq_reference()):
            got = program.run(source.args, backend="sim",
                              parallelism=2).value
            bad = value_problem(got, oracle)
            if bad:
                raise AssertionError(
                    f"corpus program {source.name}{source.args}: {bad}")

    def seq_reference(self) -> list:
        return [program.run(source.args, backend="seq").value
                for source, program in self.sample]

    def op(self) -> list[str]:
        from repro import compile_source

        return [hashlib.sha256(
            compile_source(s.text, optimize=s.optimize).listing().encode()
        ).hexdigest() for s in self.corpus]

    def check(self, hashes: list[str]) -> list[str]:
        changed = [s.name for s, h, ref in
                   zip(self.corpus, hashes, self.hashes) if h != ref]
        return [f"listing changed between reps: {changed}"] if changed else []

    def teardown(self) -> None:
        pass


class SpmdWorkload:
    """Checksummed matmul on a real multi-process backend."""

    def __init__(self, name: str, backend: str, n: int, quick: bool) -> None:
        self.name = name
        self.layer = backend
        self.backend = backend
        self.n = 12 if quick else n
        self.width = 2

    def setup(self, seed: int) -> None:
        # Fixed program and size (the paper's generic example); the seed
        # is only recorded.
        from repro.apps import compile_matmul
        from repro.common.chaoslib import open_sockets, shm_entries

        self.program = compile_matmul(checksum=True)
        self.oracle = self.seq_reference()
        self.run(SPMD_WARMUP_N, self.width)
        self.sockets0 = open_sockets()
        self.shm0 = shm_entries()

    def seq_reference(self):
        return self.program.run((self.n,), backend="seq").value

    def run(self, n: int, width: int):
        return self.program.run((n,), backend=self.backend,
                                parallelism=width)

    def op(self):
        return self.run(self.n, self.width)

    def check(self, result) -> list[str]:
        from repro.common.chaoslib import check_leaks

        problems = []
        bad = value_problem(result.value, self.oracle)
        if bad:
            problems.append(bad)
        log = result.raw.recovery
        if log is not None and (log.respawns or log.takeovers
                                or log.failures_seen):
            problems.append(
                f"needed recovery: {log.respawns} respawns, "
                f"{log.takeovers} takeovers, {log.failures_seen} failures")
        check_leaks(problems, self.sockets0, self.shm0)
        return problems

    def teardown(self) -> None:
        pass


def make_workload(name: str, quick: bool = False):
    if name == "sim_simple":
        return SimWorkload(name, observed=False, quick=quick)
    if name == "sim_observed":
        return SimWorkload(name, observed=True, quick=quick)
    if name == "compile_corpus":
        return CompileWorkload(quick)
    if name == "par_matmul":
        return SpmdWorkload(name, "parallel", 56, quick)
    if name == "dist_matmul":
        return SpmdWorkload(name, "dist", 44, quick)
    raise KeyError(name)
