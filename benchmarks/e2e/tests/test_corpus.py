from conftest import REPO_ROOT
from e2ebench.corpus import (build_corpus, generate_program,
                             verification_sample)


def test_same_seed_gives_byte_identical_sources():
    a = build_corpus(7, REPO_ROOT, generated=12)
    b = build_corpus(7, REPO_ROOT, generated=12)
    assert [(s.name, s.text, s.optimize, s.args) for s in a] == \
           [(s.name, s.text, s.optimize, s.args) for s in b]
    assert verification_sample(a, 7) == verification_sample(b, 7)


def test_another_seed_gives_other_generated_sources():
    a = [generate_program(7, k).text for k in range(12)]
    b = [generate_program(8, k).text for k in range(12)]
    assert a != b
    assert len(set(a)) == len(a)


def test_corpus_holds_every_in_tree_program_with_and_without_optimize():
    names = {s.name for s in build_corpus(1, REPO_ROOT, generated=0)}
    for stem in ("simple", "simple-conduction", "matmul", "matmul-checksum",
                 "stencil", "nbody", "lk-hydro", "lk-tridiag",
                 "example-paper_example", "example-sweep"):
        assert {stem, stem + "+opt"} <= names


def test_generated_programs_compile_and_match_the_oracle_on_sim():
    from repro import compile_source

    for k in range(8):
        source = generate_program(3, k)
        program = compile_source(source.text, optimize=source.optimize)
        oracle = program.run(source.args, backend="seq").value
        got = program.run(source.args, backend="sim", parallelism=2).value
        assert abs(got - oracle) <= 1e-9 * abs(oracle)


def test_oracle_comparison_handles_scalars_and_arrays():
    from e2ebench.workloads import value_problem
    from repro.runtime.values import ArrayValue

    assert value_problem(1.0 + 1e-12, 1.0) is None
    assert value_problem(1.0 + 1e-6, 1.0) is not None
    assert value_problem(float("nan"), float("nan")) is not None
    a = ArrayValue((2, 2), [1.0, 2.0, 3.0, 4.0])
    assert value_problem(ArrayValue((2, 2), [1.0, 2.0, 3.0, 4.0]), a) is None
    assert value_problem(ArrayValue((2, 2), [1.0, 2.0, 3.0, 4.5]), a)
    assert value_problem(ArrayValue((4,), [1.0, 2.0, 3.0, 4.0]), a)
