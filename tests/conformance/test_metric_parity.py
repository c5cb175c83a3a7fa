"""Semantic-metric parity: the simulator and the real parallel backend
emit the *same* observability families with the *same* semantic values.

What must match exactly (pure functions of the program + width, not of
scheduling): Range-Filter subrange assignments (``rf.subrange`` rows),
the total item count dealt (``rf.items``), the store traffic
(``array.element_writes`` — single assignment means every element is
written exactly once everywhere), and which pages of each array were
populated (``array.pages_touched``).

What must match structurally only: ``wait.us`` — both substrates
attribute dependency waits to the same (pe, cause) label schema with
the same cause vocabulary, but the magnitudes are a modeled machine vs
host spin-wait and are not comparable.
"""

import pytest

from tests.conformance.matrix import APPS, PES

pytestmark = pytest.mark.conformance


def _rf_rows(reg):
    return sorted(
        (r.labels_dict()["pe"], r.labels_dict()["first"],
         r.labels_dict()["last"])
        for r in reg.select("rf.subrange"))


@pytest.mark.parametrize("pes", PES)
@pytest.mark.parametrize("app", sorted(APPS))
def test_semantic_metric_families_agree(app, pes, runner):
    sim = runner(app, "sim", pes, metrics=True)
    par = runner(app, "parallel", pes)
    sim_reg, par_reg = sim.registry, par.registry
    assert sim_reg is not None and par_reg is not None

    # Identical work division: every RF dealt the same index subranges
    # to the same PE/worker slots, covering the same total item count.
    assert _rf_rows(sim_reg) == _rf_rows(par_reg)
    assert sim_reg.total("rf.items") == par_reg.total("rf.items")

    # Identical store traffic (single assignment: one write/element).
    assert (sim_reg.total("array.element_writes")
            == par_reg.total("array.element_writes"))

    # Identical page population of the shared arrays.
    sim_pages = [r.value for r in sim_reg.select("array.pages_touched")]
    par_pages = [r.value for r in par_reg.select("array.pages_touched")]
    assert sim_pages == par_pages


def _pages_by_array(reg) -> dict[str, float]:
    return {r.labels_dict()["array"]: r.value
            for r in reg.select("array.pages_touched")}


# Twelve arrays, array ``k`` of ``k`` pages (``p`` elements a page), each
# written whole by a distributed loop: every array is labelled by its
# allocation ordinal on every backend, past nine arrays too.
TWELVE_ARRAYS = "function main(p) {\n%s    return A12[1];\n}" % "".join(
    f"    A{k} = array({k} * p);\n"
    f"    for i = 1 to {k} * p {{ A{k}[i] = i * 1.0; }}\n"
    for k in range(1, 13))


def test_pages_touched_are_labelled_by_allocation_ordinal():
    from repro.api import compile_source
    from repro.backend import get_backend
    from repro.common.config import (MachineConfig, ObsConfig, SimConfig)

    program = compile_source(TWELVE_ARRAYS)
    sim = get_backend("sim").run(program, (32,), config=SimConfig(
        machine=MachineConfig(num_pes=2), obs=ObsConfig(metrics=True)))
    expected = {str(k): k for k in range(1, 13)}
    assert _pages_by_array(sim.registry) == expected
    for backend in ("parallel", "dist"):
        result = get_backend(backend).run(program, (32,), parallelism=2)
        assert _pages_by_array(result.registry) == expected, backend


@pytest.mark.parametrize("app", sorted(APPS))
def test_wait_attribution_is_structural(app, runner):
    """wait.us rows use the same label schema and cause vocabulary."""
    from repro.obs.spanlog import IDLE, WAIT_CATEGORIES

    causes = set(WAIT_CATEGORIES) | {IDLE}
    sim = runner(app, "sim", PES[0], metrics=True)
    par = runner(app, "parallel", PES[0])
    for reg in (sim.registry, par.registry):
        for row in reg.select("wait.us"):
            labels = row.labels_dict()
            assert set(labels) == {"pe", "cause"}
            assert labels["cause"] in causes
