"""Argument validation on the uniform ``Program.run`` / Backend surface.

Every bad-input path must fail *before* any substrate starts executing,
with a structured ``PodsError`` subclass naming the problem — never a
deep traceback out of a worker process or the simulator core.
"""

import pytest

from repro.api import compile_source
from repro.backend import (FAULTS, BackendConfigError, UnknownBackendError,
                           backend_names, backends, get_backend)
from repro.common.chaoslib import ROW_SWEEP
from repro.common.config import ParallelConfig, SimConfig
from repro.common.errors import PodsError

SOURCE = "function main(n) { return n * 2; }"


@pytest.fixture(scope="module")
def program():
    return compile_source(SOURCE)


class TestBackendNameResolution:
    def test_unknown_backend_lists_known_names(self, program):
        with pytest.raises(UnknownBackendError) as excinfo:
            program.run((3,), backend="cuda")
        msg = str(excinfo.value)
        assert "cuda" in msg
        for name in backend_names():
            assert name in msg

    def test_unknown_backend_is_a_pods_error_and_a_value_error(self):
        with pytest.raises(PodsError):
            get_backend("nope")
        with pytest.raises(ValueError):
            get_backend("nope")

    def test_aliases_resolve_to_the_same_backend(self):
        assert get_backend("pods") is get_backend("sim")
        assert get_backend("sequential") is get_backend("seq")
        assert get_backend("distributed") is get_backend("dist")

    def test_canonical_names_cover_all_five_substrates(self):
        assert backend_names() == ["sim", "parallel", "seq", "static",
                                   "dist"]
        assert [b.name for b in backends()] == backend_names()


class TestParallelismValidation:
    @pytest.mark.parametrize("backend", ["sim", "seq", "static",
                                         "parallel", "dist"])
    @pytest.mark.parametrize("bad", [0, -1, -8])
    def test_non_positive_counts_rejected(self, program, backend, bad):
        with pytest.raises(BackendConfigError, match=">= 1"):
            program.run((3,), backend=backend, parallelism=bad)

    @pytest.mark.parametrize("bad", [2.0, "4", True, (2,)])
    def test_non_int_counts_rejected(self, program, bad):
        with pytest.raises(BackendConfigError, match="must be an int"):
            program.run((3,), backend="sim", parallelism=bad)

    def test_validation_happens_before_execution(self, program):
        # The parallel backend must not fork workers for a bad count.
        with pytest.raises(BackendConfigError):
            program.run((3,), backend="parallel", parallelism=0)


class TestExplicitParallelismWins:
    """``parallelism=`` beats the config's width on every backend —
    ``1`` included (the simulator used to exempt it)."""

    @staticmethod
    def _config_at(backend, width):
        from repro.common.config import DistConfig, MachineConfig

        if backend in ("sim", "static"):
            return SimConfig(machine=MachineConfig(num_pes=width))
        if backend == "parallel":
            return ParallelConfig(workers=width)
        return DistConfig(nodes=width)

    @pytest.mark.parametrize("backend", ["sim", "static", "parallel",
                                         "dist"])
    @pytest.mark.parametrize("config_width,explicit", [(4, 1), (1, 2)])
    def test_explicit_width_beats_config(self, program, backend,
                                         config_width, explicit):
        r = program.run((3,), backend=backend, parallelism=explicit,
                        config=self._config_at(backend, config_width))
        assert r.parallelism == explicit
        assert r.fingerprint["parallelism"] == explicit

    @pytest.mark.parametrize("backend", ["sim", "static", "parallel",
                                         "dist"])
    def test_none_defers_to_config(self, program, backend):
        r = program.run((3,), backend=backend,
                        config=self._config_at(backend, 2))
        assert r.parallelism == 2

    def test_seq_is_always_one(self, program):
        assert program.run((3,), backend="seq", parallelism=4).parallelism == 1


class TestProgramIsWhatCrossesTheBoundary:
    @pytest.mark.parametrize("backend", ["parallel", "dist"])
    def test_spmd_backends_reject_a_bare_ast(self, program, backend):
        with pytest.raises(BackendConfigError, match="compiled Program"):
            get_backend(backend).run(program.ast, (3,), parallelism=2)

    def test_sim_still_runs_a_bare_pods_program(self, program):
        # .pods files (serialized SP templates) are a real input.
        assert get_backend("sim").run(program.pods, (3,)).value == 6

    @pytest.mark.parametrize("backend", ["seq", "static"])
    def test_checkpointing_needs_the_capability(self, program, backend):
        with pytest.raises(BackendConfigError, match="checkpointing"):
            program.run((3,), backend=backend, ckpt=object())


class TestConfigTypeChecking:
    def test_sim_rejects_parallel_config(self, program):
        with pytest.raises(BackendConfigError, match="SimConfig"):
            program.run((3,), backend="sim",
                        config=ParallelConfig(workers=2))

    def test_parallel_rejects_sim_config(self, program):
        with pytest.raises(BackendConfigError, match="ParallelConfig"):
            program.run((3,), backend="parallel", config=SimConfig())

    def test_dist_rejects_parallel_config(self, program):
        with pytest.raises(BackendConfigError, match="DistConfig"):
            program.run((3,), backend="dist",
                        config=ParallelConfig(workers=2))

    def test_seq_takes_no_config(self, program):
        with pytest.raises(BackendConfigError, match="no config"):
            program.run((3,), backend="seq", config=SimConfig())

    def test_static_takes_sim_config(self, program):
        r = program.run((3,), backend="static", config=SimConfig())
        assert r.value == 6


class TestFaultArgumentValidation:
    @pytest.mark.parametrize("backend", ["seq", "static"])
    def test_faultless_backends_reject_fault_plans(self, program, backend):
        with pytest.raises(BackendConfigError,
                           match="does not support fault injection"):
            program.run((3,), backend=backend, faults="kill:worker=0")

    def test_explicit_plan_wins_over_environment(self, program, monkeypatch):
        """A run's plan is its ``faults=`` argument and nothing else: the
        env spec here is garbage and would raise if anything parsed it."""
        monkeypatch.setenv("PODS_SIM_FAULTS", "not!a@valid&spec")
        r = program.run((3,), backend="sim",
                        faults="drop:kind=page,count=0")
        assert r.value == 6


FAULT_BACKENDS = backend_names(capability=FAULTS)
# A plan each dialect heals, so the run returns: a page reply delayed on
# ``sim`` (moves modeled time), a killed worker / node on the real ones
# (leaves a recovery event).
HEALABLE = {"sim": "delay:kind=page,count=0",
            "parallel": "kill:worker=1,on=iter,after=1",
            "dist": "node-kill:node=1,on=iter,after=1"}
ENV_VARS = {"sim": "PODS_SIM_FAULTS", "parallel": "PODS_FAULTS",
            "dist": "PODS_DIST_FAULTS"}


def _recovery_events(result) -> list:
    recovery = result.recovery
    return [e.kind for e in recovery.events] if recovery else []


@pytest.mark.chaos
class TestOnePlanChannel:
    """``faults=`` is the only way a plan enters a run, and it is always
    recorded — so two runs with equal fingerprints ran the same plan."""

    @pytest.fixture(scope="class")
    def sweep(self):
        return compile_source(ROW_SWEEP)

    def test_every_fault_capable_backend_is_covered(self):
        assert sorted(HEALABLE) == sorted(ENV_VARS) == sorted(FAULT_BACKENDS)

    @pytest.mark.parametrize("backend", FAULT_BACKENDS)
    def test_fingerprint_and_record_name_the_plan(self, sweep, backend):
        clean = sweep.run((8,), backend=backend, parallelism=2)
        assert clean.fingerprint["faults"] is None
        plan = HEALABLE[backend]
        hurt = sweep.run((8,), backend=backend, parallelism=2, faults=plan)
        assert hurt.value == clean.value
        assert hurt.fingerprint["faults"] == plan
        assert hurt.to_run_record(sweep, (8,))["config"]["faults"] == plan
        # ... and the plan it names is the plan that ran.
        if backend == "sim":
            assert hurt.time_us > clean.time_us
        else:
            assert _recovery_events(hurt)

    @pytest.mark.parametrize("backend", FAULT_BACKENDS)
    def test_environment_variables_change_nothing(self, sweep, backend,
                                                  monkeypatch):
        clean = sweep.run((8,), backend=backend, parallelism=2)
        for name, var in ENV_VARS.items():
            monkeypatch.setenv(var, HEALABLE[name])
        again = sweep.run((8,), backend=backend, parallelism=2)
        assert again.value == clean.value
        assert again.fingerprint == clean.fingerprint
        assert again.time_us == clean.time_us   # None off the simulator
        assert _recovery_events(again) == []


class TestRunBoundaryConfigValidation:
    """Timing/limit fields are re-validated at the ``run()`` boundary.

    The config dataclasses validate at construction, but a config
    mutated afterwards (``object.__setattr__`` on the frozen instance —
    exactly what a careless harness or a pickle round-trip can produce)
    must still raise :class:`BackendConfigError` *naming the field*,
    never a raw ``ValueError`` and never a supervisor hang on a NaN
    deadline comparison.
    """

    TABLE = [
        ("sim", "retransmit_timeout_us"),
        ("sim", "quiescence_us"),
        ("sim", "max_sim_time_us"),
        ("static", "retransmit_timeout_us"),
        ("static", "max_sim_time_us"),
        ("parallel", "timeout_s"),
        ("parallel", "poll_interval_s"),
        ("parallel", "spin_ceiling_s"),
        ("parallel", "read_timeout_s"),
        ("parallel", "retry.backoff_base_s"),
        ("dist", "timeout_s"),
        ("dist", "poll_interval_s"),
        ("dist", "connect_timeout_s"),
        ("dist", "read_timeout_s"),
        ("dist", "heartbeat_interval_s"),
        ("dist", "heartbeat_timeout_s"),
        ("dist", "retransmit_timeout_s"),
        ("dist", "retry.backoff_base_s"),
    ]

    @staticmethod
    def _config_for(backend):
        from repro.common.config import DistConfig

        if backend in ("sim", "static"):
            return SimConfig()
        if backend == "parallel":
            return ParallelConfig(workers=2)
        return DistConfig(nodes=2)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), 0,
                                     -1.0, "0.5"],
                             ids=["nan", "inf", "zero", "negative",
                                  "string"])
    @pytest.mark.parametrize("backend,fld", TABLE,
                             ids=[f"{b}-{f.replace('.', '_')}"
                                  for b, f in TABLE])
    def test_bad_field_names_the_field(self, program, backend, fld, bad):
        cfg = self._config_for(backend)
        *path, leaf = fld.split(".")
        holder = cfg
        for name in path:
            holder = getattr(holder, name)
        object.__setattr__(holder, leaf, bad)
        with pytest.raises(BackendConfigError, match=leaf):
            program.run((3,), backend=backend, config=cfg)

    def test_constructors_reject_nan_outright(self):
        from repro.common.config import DistConfig

        with pytest.raises(ValueError, match="poll_interval_s"):
            ParallelConfig(workers=2, poll_interval_s=float("nan"))
        with pytest.raises(ValueError, match="heartbeat_timeout_s"):
            DistConfig(nodes=2, heartbeat_timeout_s=float("nan"))


class TestUnknownKeywordRejection:
    @pytest.mark.parametrize("backend", ["sim", "seq", "static",
                                         "parallel", "dist"])
    def test_unknown_kwargs_rejected(self, program, backend):
        with pytest.raises(BackendConfigError, match="unknown arguments"):
            program.run((3,), backend=backend, bogus_flag=True)


class TestResultDeclaresWhatItHolds:
    """A consumer reads ``BackendResult`` fields; each is ``None`` where
    the substrate has nothing to put there, and is the very object the
    native result (``raw``, kept for the benchmark harness) holds."""

    HOLDS = {"sim": {"stats"}, "seq": set(), "static": set(),
             "parallel": {"worker_stats", "recovery"},
             "dist": {"worker_stats", "recovery", "netstats"}}
    FIELDS = ("stats", "worker_stats", "recovery", "netstats")

    @pytest.mark.parametrize("backend", sorted(HOLDS))
    def test_fields_by_backend(self, program, backend):
        assert set(self.HOLDS) == set(backend_names())
        result = program.run((3,), backend=backend, parallelism=2)
        held = {f for f in self.FIELDS if getattr(result, f) is not None}
        assert held == self.HOLDS[backend]
        for f in held:
            assert getattr(result, f) is getattr(result.raw, f)
        if backend in ("parallel", "dist"):
            assert result.raw.width == result.parallelism == 2
            assert [t.worker for t in result.worker_stats] == [0, 1]

    def test_a_sim_run_under_a_plan_holds_its_network_counters(self, program):
        result = program.run((3,), backend="sim", parallelism=2,
                             faults="delay:kind=page,count=0")
        assert result.netstats is result.stats.netstats is not None
        assert result.stats.log is None  # only with an ObsConfig feature on
