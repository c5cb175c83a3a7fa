"""Checkpoint → resume on every backend that can checkpoint.

Each backend snapshots ``ROW_SWEEP`` while it runs, and a snapshot that
holds some but not all of the final cut's elements is resumed three
ways: at the same width, at a different width, and on another backend.
A resumed run must return exactly the ``seq`` value and the same
``SEMANTIC_FAMILIES`` totals as an uninterrupted run on the backend and
width it resumed on.

The simulator paces by events, so its cut is fixed.  The wall-clock
backends pace by the host's clock, so the checkpointing run is slowed
(``parallel``: a ``delay`` fault on one worker's iterations) or polled
often (``dist``: the coordinator's poll interval) until a partial
snapshot lands; which elements it holds varies from host to host, and
any such cut must resume exactly.
"""

import functools
import os

import pytest

from repro.api import compile_source
from repro.backend import CHECKPOINT, backend_names
from repro.ckpt import CkptSpec, CkptWriter, load, program_section, resume
from repro.common.chaoslib import ROW_SWEEP
from repro.common.config import (DistConfig, ObsConfig, ParallelConfig,
                                 SimConfig)
from repro.obs.runrecord import SEMANTIC_FAMILIES

N = 12
WIDTH = 2
BACKENDS = backend_names(capability=CHECKPOINT)


def _config(backend: str):
    """The sim collects metrics only when asked; the others always do."""
    return SimConfig(obs=ObsConfig(metrics=True)) if backend == "sim" \
        else None


def _totals(result) -> dict:
    sums = dict.fromkeys(SEMANTIC_FAMILIES, 0)
    for row in result.registry.rows():
        if row.name in sums:
            sums[row.name] += row.value
    return sums


@functools.lru_cache(maxsize=None)
def _program():
    return compile_source(ROW_SWEEP)


@functools.lru_cache(maxsize=None)
def _oracle():
    return _program().run((N,), backend="seq").value


@functools.lru_cache(maxsize=None)
def _clean_totals(backend: str, width: int) -> dict:
    result = _program().run((N,), backend=backend, parallelism=width,
                            config=_config(backend))
    return _totals(result)


# How each backend's checkpointing run is paced to leave partial cuts.
PACING = {
    "sim": dict(spec=dict(every_events=100)),
    "parallel": dict(faults="delay:worker=0,on=iter,after=2,seconds=0.005"),
    "dist": dict(config=DistConfig(poll_interval_s=0.002)),
}
ATTEMPTS = 5


@pytest.fixture(scope="module")
def snapshots(tmp_path_factory):
    """backend -> path of a partial snapshot of a ``ROW_SWEEP`` run."""
    cache = {}

    def partial(backend: str) -> str:
        if backend not in cache:
            cache[backend] = _partial_snapshot(tmp_path_factory, backend)
        return cache[backend]

    return partial


def _snapshots(spec: CkptSpec) -> list[str]:
    return sorted(os.path.join(spec.dir, name)
                  for name in os.listdir(spec.dir)
                  if name.startswith("ckpt-"))


def _partial_snapshot(tmp_path_factory, backend: str) -> str:
    pacing = PACING[backend]
    for _ in range(ATTEMPTS):
        spec = CkptSpec(dir=str(tmp_path_factory.mktemp(backend)),
                        interval_s=0.002, **pacing.get("spec", {}))
        writer = CkptWriter(
            spec, fingerprint={"backend": backend, "parallelism": WIDTH},
            program=program_section(ROW_SWEEP), args=(N,))
        result = _program().run((N,), backend=backend, parallelism=WIDTH,
                                config=pacing.get("config"),
                                faults=pacing.get("faults"), ckpt=writer)
        assert result.value == _oracle()
        paths = _snapshots(spec)
        final = load(paths[-1]).total_elements
        cuts = [p for p in paths if 0 < load(p).total_elements < final]
        if cuts:
            return cuts[len(cuts) // 2]
    pytest.fail(f"{backend}: no partial snapshot in {ATTEMPTS} runs")


def test_pacing_is_not_held_to_the_poll(tmp_path):
    # The supervisor's poll is slow; its wait still ends when the writer
    # is next due, so a slowed run is cut every interval, not every poll.
    spec = CkptSpec(dir=str(tmp_path), interval_s=0.01)
    writer = CkptWriter(spec, program=program_section(ROW_SWEEP), args=(N,))
    result = _program().run((N,), backend="parallel", parallelism=WIDTH,
                            config=ParallelConfig(poll_interval_s=0.5),
                            faults=PACING["parallel"]["faults"], ckpt=writer)
    assert result.value == _oracle()
    paths = _snapshots(spec)
    final = load(paths[-1]).total_elements
    assert len([p for p in paths[:-1]
                if load(p).total_elements < final]) >= 2


WAYS = {
    "same-width": lambda backend: (backend, WIDTH),
    "other-width": lambda backend: (backend, WIDTH + 1),
    "other-backend": lambda backend: (
        BACKENDS[(BACKENDS.index(backend) + 1) % len(BACKENDS)], WIDTH),
}


def test_every_checkpointing_backend_is_covered():
    assert {"sim", "parallel", "dist"} <= set(BACKENDS)


@pytest.mark.parametrize("way", list(WAYS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_mid_run_snapshot_resumes_exactly(snapshots, backend, way):
    restore = load(snapshots(backend))
    target, width = WAYS[way](backend)
    result, _, used = resume(restore, backend=target, parallelism=width,
                             config=_config(target))
    assert (result.backend, result.parallelism) == (target, width)
    assert result.value == _oracle()
    assert _totals(result) == _clean_totals(target, width)
    assert result.ckpt["resumed_from"] == used.id == restore.id
    assert result.ckpt["restored_elements"] == restore.total_elements
