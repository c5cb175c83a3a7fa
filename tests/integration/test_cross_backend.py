"""Integration matrix: every backend must agree on a battery of programs
that jointly cover the language and distribution machinery.

Backends: sequential interpreter, PODS simulator (1 and 4 PEs), static
P&R model.  The multiprocessing backend is spot-checked on a subset
(process startup makes a full matrix slow)."""

import pytest

from repro.api import compile_source

# (name, source, args, expected-or-None)  — None means "trust the
# sequential interpreter as the oracle".
PROGRAMS = [
    ("scalar-arith",
     "function main(a, b) { return (a + b) * (a - b) % 7 + a / b; }",
     (9, 4), None),
    ("fill-and-sum", """
     function main(n) {
         A = matrix(n, n);
         for i = 1 to n { for j = 1 to n { A[i, j] = i * j; } }
         s = 0;
         for i = 1 to n {
             r = 0;
             for j = 1 to n { next r = r + A[i, j]; }
             next s = s + r;
         }
         return s;
     }""", (7,), 784),
    ("row-sweep", """
     function main(n) {
         B = matrix(n, n);
         for j = 1 to n { B[1, j] = 1.0 * j; }
         for i = 2 to n {
             for j = 1 to n { B[i, j] = B[i - 1, j] * 0.5 + 1.0; }
         }
         s = 0.0;
         for j = 1 to n { next s = s + B[n, j]; }
         return s;
     }""", (8,), None),
    ("descending-chain", """
     function main(n) {
         A = array(n);
         A[n] = 1.0;
         for i = n - 1 downto 1 { A[i] = A[i + 1] * 0.9 + 0.1; }
         return A[1];
     }""", (12,), None),
    ("function-calls", """
     function sq(x) { return x * x; }
     function hyp(a, b) { return sqrt(sq(a) + sq(b)); }
     function main() { return hyp(3.0, 4.0); }
     """, (), 5.0),
    ("recursion", """
     function ack_ish(m, n) {
         return if m == 0 then n + 1
                else if n == 0 then ack_ish(m - 1, 1)
                else ack_ish(m - 1, ack_ish(m, n - 1));
     }
     function main() { return ack_ish(2, 3); }
     """, (), 9),
    ("while-and-conditionals", """
     function main(n) {
         s = n;
         count = 0;
         while s != 1 {
             next s = if s % 2 == 0 then s / 2 else 3 * s + 1;
             next count = count + 1;
         }
         return count;
     }""", (27.0,), None),
    ("three-dimensional", """
     function main(n) {
         A = array(n, n, n);
         for i = 1 to n {
             for j = 1 to n {
                 for k = 1 to n { A[i, j, k] = i * 100 + j * 10 + k; }
             }
         }
         return A[n, 1, n];
     }""", (4,), 414),
    ("boundary-guard", """
     function main(n) {
         A = array(n);
         for i = 1 to n {
             A[i] = if i == 1 then 0.0 else 1.0 * i;
         }
         B = array(n);
         for i = 1 to n {
             B[i] = if i == 1 then A[1] else A[i] + A[i - 1];
         }
         return B[n];
     }""", (9,), None),
]


@pytest.fixture(scope="module")
def compiled():
    return {name: (compile_source(src), args, expected)
            for name, src, args, expected in PROGRAMS}


@pytest.mark.parametrize("name", [p[0] for p in PROGRAMS])
def test_backend_agreement(name, compiled):
    program, args, expected = compiled[name]
    oracle = program.run(args, backend="seq").value
    if expected is not None:
        assert oracle == pytest.approx(expected)

    pods1 = program.run(args, backend="sim", parallelism=1).value
    pods4 = program.run(args, backend="sim", parallelism=4).value
    static = program.run(args, backend="static", parallelism=4).value
    assert pods1 == oracle
    assert pods4 == oracle
    assert static == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("name", ["fill-and-sum", "row-sweep"])
def test_parallel_backend_agreement(name, compiled):
    program, args, expected = compiled[name]
    oracle = program.run(args, backend="seq").value
    par = program.run(args, backend="parallel", parallelism=2).value
    assert par == pytest.approx(oracle, rel=1e-12)


def test_cross_backend_metric_differential(compiled):
    """Both backends feed one MetricsRegistry; the execution-model-
    independent families must agree.

    Semantic metrics (what the program *does*): RF subrange extents,
    total items, element writes, array pages touched.  Timing-dependent
    metrics (deferred reads) are only sanity-bounded — how often a read
    arrives before its write depends on the schedule.
    """
    program, args, expected = compiled["fill-and-sum"]

    from repro.common.config import MachineConfig, ObsConfig, SimConfig

    sim_cfg = SimConfig(machine=MachineConfig(num_pes=2),
                        obs=ObsConfig(metrics=True, timelines=True))
    sim = program.run(args, backend="sim", parallelism=2, config=sim_cfg).raw
    par = program.run(args, backend="parallel", parallelism=2)
    assert sim.value == par.value == expected

    sim_reg, par_reg = sim.stats.registry, par.registry
    assert sim_reg is not None and par_reg is not None

    def rf_rows(reg):
        return sorted((r.labels_dict()["pe"], r.labels_dict()["first"],
                       r.labels_dict()["last"]) for r in
                      reg.select("rf.subrange"))

    # Same RF split: each PE/worker owns the same index subrange.
    assert rf_rows(sim_reg) == rf_rows(par_reg)
    assert sim_reg.total("rf.items") == par_reg.total("rf.items") == args[0]

    # Same store traffic: every element written exactly once.
    assert (sim_reg.total("array.element_writes")
            == par_reg.total("array.element_writes")
            == args[0] * args[0])

    # Same pages of the shared array populated.
    def pages(reg):
        return [r.value for r in reg.select("array.pages_touched")]

    assert pages(sim_reg) == pages(par_reg)

    # Deferred reads are schedule-dependent; both backends must report a
    # well-formed (non-negative) count.
    assert sim_reg.total("array.deferred_reads") >= 0
    assert par_reg.total("array.deferred_reads") >= 0


def test_cross_backend_wait_attribution(compiled):
    """The simulator's I-structure wait time and the parallel backend's
    deferred-read spin time land in the *same* metric family: ``wait.us``
    rows labelled (pe, cause).

    The magnitudes are not comparable (modeled microseconds of a
    split-phase machine vs host spin-wait of a multiprocessing run), so
    the differential is structural: same family name, same label keys,
    same cause vocabulary, and both backends must actually attribute
    their dependency waits to ``istructure-defer``.

    row-sweep is the program where the dependency bites: row i's readers
    race row i-1's writers, so some reads arrive before their element is
    written on both backends.
    """
    program, args, _ = compiled["row-sweep"]

    from repro.common.config import MachineConfig, ObsConfig, SimConfig
    from repro.obs.spanlog import IDLE, WAIT_CATEGORIES

    sim_cfg = SimConfig(machine=MachineConfig(num_pes=2),
                        obs=ObsConfig(metrics=True, timelines=True,
                                      waits=True))
    sim = program.run(args, backend="sim", parallelism=2, config=sim_cfg).raw
    par = program.run(args, backend="parallel", parallelism=2)
    oracle = program.run(args, backend="seq").value
    assert sim.value == oracle
    assert par.value == pytest.approx(oracle, rel=1e-12)

    sim_rows = sim.stats.registry.select("wait.us")
    par_rows = par.registry.select("wait.us")
    assert sim_rows and par_rows

    allowed = set(WAIT_CATEGORIES) | {IDLE}
    for row in sim_rows + par_rows:
        labels = row.labels_dict()
        assert set(labels) == {"pe", "cause"}
        assert labels["cause"] in allowed
        assert row.value >= 0.0

    def defer_us(rows):
        return sum(r.value for r in rows
                   if r.labels_dict()["cause"] == "istructure-defer")

    # fill-and-sum's reader loop races its writer loop: the simulator
    # must attribute some wait time to the dataflow dependency, and the
    # parallel backend reports its (possibly zero) spin time in the same
    # bucket rather than a backend-private counter.
    assert defer_us(sim_rows) > 0.0
    assert defer_us(par_rows) >= 0.0
    # The deferred-read *counts* are the semantic cousins; both present.
    assert sim.stats.registry.total("array.deferred_reads") >= 0
    assert par.registry.total("array.deferred_reads") >= 0


def test_undistributed_compile_agrees(compiled):
    # distribute=False (the partition_none ablation) must not change
    # results, only parallelism.
    _, args, _ = compiled["fill-and-sum"]
    src = PROGRAMS[1][1]
    dist = compile_source(src)
    plain = compile_source(src, distribute=False)
    assert (dist.run(args, backend="sim", parallelism=4).value
            == plain.run(args, backend="sim", parallelism=4).value
            == dist.run(args, backend="seq").value)
