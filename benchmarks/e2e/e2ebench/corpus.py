"""The compile corpus: every in-tree IdLite source plus seeded programs.

``build_corpus(seed)`` returns the same byte-identical list for the same
seed.  Each entry carries small run arguments so a sample can be
executed and checked against the sequential interpreter; the compile
workload itself never runs a program in a timed rep.

The generator emits only determinate, terminating programs: every array
element that is read is written exactly once by an earlier statement,
recurrences are contractions (factor <= 0.5) so values stay bounded,
and divisors are ``abs(e) + 1``.
"""

from __future__ import annotations

import glob
import os
import random
from dataclasses import dataclass

# Generated programs per corpus.  A constant, never adapted at run time:
# with the 15 in-tree sources (each compiled with and without
# ``optimize``) one pass over the corpus takes 1-2 s on the sizing host.
GENERATED_PROGRAMS = 220


@dataclass(frozen=True)
class Source:
    name: str
    text: str
    optimize: bool
    args: tuple


def in_tree_sources(repo_root: str) -> list[Source]:
    """Every IdLite program the repository ships, each twice."""
    from repro.apps.livermore import KERNELS
    from repro.apps.matmul import MATMUL_CHECKSUM_SOURCE, MATMUL_SOURCE
    from repro.apps.nbody import NBODY_SOURCE
    from repro.apps.simple_app import simple_source
    from repro.apps.stencil import STENCIL_SOURCE

    plain = [
        ("simple", simple_source(), (8, 2)),
        ("simple-conduction", simple_source(conduction_only=True), (8, 2)),
        ("matmul", MATMUL_SOURCE, (6,)),
        ("matmul-checksum", MATMUL_CHECKSUM_SOURCE, (6,)),
        ("stencil", STENCIL_SOURCE, (10, 2)),
        ("nbody", NBODY_SOURCE, (8, 1)),
    ]
    plain += [(f"lk-{k}", KERNELS[k], (16,)) for k in sorted(KERNELS)]
    example_args = {"paper_example": (), "reduction": (16,), "sweep": (8,)}
    pattern = os.path.join(repo_root, "examples", "programs", "*.idl")
    for path in sorted(glob.glob(pattern)):
        stem = os.path.splitext(os.path.basename(path))[0]
        with open(path) as fh:
            plain.append((f"example-{stem}", fh.read(),
                          example_args.get(stem, (8,))))
    out = []
    for name, text, args in plain:
        out.append(Source(name, text, False, args))
        out.append(Source(name + "+opt", text, True, args))
    return out


class _Gen:
    """One generated program; all randomness comes from ``rng``."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.helpers: list[tuple[str, int]] = []   # (name, arity)
        self.lines: list[str] = []
        self.counter = 0
        self.vectors: list[str] = []    # written 1-D arrays of size n
        self.grids: list[str] = []      # written 2-D arrays of size n x n
        self.scalars: list[str] = []

    def fresh(self, stem: str) -> str:
        self.counter += 1
        return f"{stem}{self.counter}"

    # -- expressions ----------------------------------------------------

    def const(self) -> str:
        if self.rng.random() < 0.5:
            return str(self.rng.randint(1, 9))
        return f"{self.rng.randint(1, 40) / 8.0!r}"

    def int_affine(self, ivars: list[str]) -> str:
        terms = [f"{self.rng.randint(1, 5)} * {v}" for v in ivars]
        terms.append(str(self.rng.randint(0, 9)))
        return f"(({' + '.join(terms)}) % {self.rng.randint(3, 11)})"

    def expr(self, ivars: list[str], depth: int = 0) -> str:
        """A bounded float-or-int expression of ``ivars`` and ``n``."""
        rng = self.rng
        if depth >= 3 or rng.random() < 0.3:
            pick = rng.random()
            if pick < 0.4 and ivars:
                return self.int_affine(ivars)
            if pick < 0.6 and ivars:
                return rng.choice(ivars)
            return self.const()
        kind = rng.choice(["+", "-", "*", "/", "min", "max", "abs", "sqrt",
                           "if", "call", "float"])
        a = self.expr(ivars, depth + 1)
        if kind == "abs":
            return f"abs({a})"
        if kind == "sqrt":
            return f"sqrt(abs({a}))"
        if kind == "float":
            return f"float({a})"
        if kind == "call" and self.helpers:
            name, arity = rng.choice(self.helpers)
            args = [a] + [self.expr(ivars, depth + 1)
                          for _ in range(arity - 1)]
            return f"{name}({', '.join(args)})"
        b = self.expr(ivars, depth + 1)
        if kind in "+-":
            return f"({a} {kind} {b})"
        if kind == "*":
            return f"(0.125 * {a} * {b})"
        if kind == "/":
            return f"({a} / (abs({b}) + 1))"
        if kind in ("min", "max"):
            return f"{kind}({a}, {b})"
        c = self.expr(ivars, depth + 1)
        return f"(if {a} < {b} then {c} else {a} + 1)"

    def helper(self) -> str:
        name = f"h{len(self.helpers)}"
        arity = self.rng.randint(1, 3)
        params = [f"p{k}" for k in range(arity)]
        body = [f"    t = {self.expr(params, 1)};"]
        if self.rng.random() < 0.5:
            body.append(f"    if t > {self.const()} "
                        f"{{ return t - {self.expr(params, 2)}; }} "
                        f"else {{ return t + {params[0]}; }}")
        else:
            body.append(f"    return t * 0.5 + {self.expr(params, 2)};")
        text = (f"function {name}({', '.join(params)}) {{\n"
                + "\n".join(body) + "\n}\n")
        self.helpers.append((name, arity))
        return text

    # -- statements of main ---------------------------------------------

    def emit(self, line: str) -> None:
        self.lines.append("    " + line)

    def fill_vector(self) -> None:
        x = self.fresh("V")
        self.emit(f"{x} = array(n);")
        self.emit(f"for i = 1 to n {{ {x}[i] = {self.expr(['i'])}; }}")
        self.vectors.append(x)

    def fill_grid(self) -> None:
        g = self.fresh("G")
        self.emit(f"{g} = matrix(n, n);")
        self.emit("for i = 1 to n {")
        self.emit(f"    for j = 1 to n {{ {g}[i, j] = "
                  f"{self.expr(['i', 'j'])}; }}")
        self.emit("}")
        self.grids.append(g)

    def shift_vector(self) -> None:
        """Affine-offset read of another array; no LCD, distributes."""
        src = self.rng.choice(self.vectors)
        y = self.fresh("V")
        k = self.rng.randint(1, 2)
        self.emit(f"{y} = array(n);")
        self.emit(f"for i = 1 to {k} {{ {y}[i] = {self.const()}; }}")
        self.emit(f"for i = {k + 1} to n {{ {y}[i] = {src}[i - {k}] "
                  f"+ 0.25 * {src}[i] + {self.expr(['i'], 2)}; }}")
        self.vectors.append(y)

    def chain_vector(self) -> None:
        """First-order recurrence: a loop-carried dependency, stays local."""
        src = self.rng.choice(self.vectors)
        y = self.fresh("V")
        self.emit(f"{y} = array(n);")
        if self.rng.random() < 0.5:
            self.emit(f"{y}[1] = {self.const()};")
            self.emit(f"for i = 2 to n {{ {y}[i] = 0.5 * {y}[i - 1] "
                      f"+ {src}[i]; }}")
        else:
            self.emit(f"{y}[n] = {self.const()};")
            self.emit(f"for i = n - 1 downto 1 {{ {y}[i] = 0.25 * "
                      f"{y}[i + 1] - {src}[i]; }}")
        self.vectors.append(y)

    def sweep_grid(self) -> None:
        """Row sweep: LCD on i, Range Filter on j (paper section 4.2.2)."""
        src = self.rng.choice(self.grids)
        b = self.fresh("G")
        self.emit(f"{b} = matrix(n, n);")
        self.emit(f"for j = 1 to n {{ {b}[1, j] = {self.expr(['j'], 2)}; }}")
        self.emit("for i = 2 to n {")
        self.emit(f"    for j = 1 to n {{ {b}[i, j] = 0.5 * {b}[i - 1, j] "
                  f"+ {src}[i, j]; }}")
        self.emit("}")
        self.grids.append(b)

    def stencil_grid(self) -> None:
        """Neighbour reads with lazy conditionals on the boundary."""
        src = self.rng.choice(self.grids)
        g = self.fresh("G")
        self.emit(f"{g} = matrix(n, n);")
        self.emit("for i = 1 to n {")
        self.emit("    for j = 1 to n {")
        self.emit(f"        up = if i == 1 then {self.const()} "
                  f"else {src}[i - 1, j];")
        self.emit(f"        left = if j == 1 then {self.const()} "
                  f"else {src}[i, j - 1];")
        self.emit(f"        {g}[i, j] = 0.25 * (up + left) "
                  f"+ 0.5 * {src}[i, j];")
        self.emit("    }")
        self.emit("}")
        self.grids.append(g)

    def reduce_vector(self) -> None:
        src = self.rng.choice(self.vectors)
        s = self.fresh("s")
        self.emit(f"{s} = 0.0;")
        if self.rng.random() < 0.5:
            self.emit(f"for i = 1 to n {{ next {s} = {s} + {src}[i] "
                      f"* {self.const()}; }}")
        else:
            self.emit(f"for i = n downto 1 {{ next {s} = 0.5 * {s} "
                      f"+ {src}[i]; }}")
        self.scalars.append(s)

    def reduce_grid(self) -> None:
        src = self.rng.choice(self.grids)
        s = self.fresh("s")
        row = self.fresh("r")
        self.emit(f"{s} = 0.0;")
        self.emit("for i = 1 to n {")
        self.emit(f"    {row} = 0.0;")
        self.emit(f"    for j = 1 to n {{ next {row} = {row} "
                  f"+ {src}[i, j]; }}")
        self.emit(f"    next {s} = {s} + {row} / (1.0 * i);")
        self.emit("}")
        self.scalars.append(s)

    def halve_scalar(self) -> None:
        src = self.rng.choice(self.scalars)
        t = self.fresh("t")
        self.emit(f"{t} = abs({src}) + {self.const()};")
        self.emit(f"while {t} > 1.0 {{ next {t} = {t} / 2.0; }}")
        self.scalars.append(t)

    def program(self) -> str:
        rng = self.rng
        helpers = [self.helper() for _ in range(rng.randint(1, 3))]
        self.fill_vector()
        self.fill_grid()
        steps = [self.fill_vector, self.fill_grid, self.shift_vector,
                 self.chain_vector, self.sweep_grid, self.stencil_grid,
                 self.reduce_vector, self.reduce_grid]
        for _ in range(rng.randint(4, 9)):
            rng.choice(steps)()
        self.reduce_vector()
        self.reduce_grid()
        if rng.random() < 0.6:
            self.halve_scalar()
        total = " + ".join(self.scalars)
        return ("".join(helpers) + "function main(n) {\n"
                + "\n".join(self.lines) + f"\n    return {total};\n}}\n")


def generate_program(seed: int, index: int) -> Source:
    """Generated program ``index`` of the corpus for ``seed``."""
    rng = random.Random(f"e2e-corpus/{seed}/{index}")
    return Source(f"gen-{index:03d}", _Gen(rng).program(),
                  optimize=index % 2 == 1, args=(rng.randint(4, 7),))


def build_corpus(seed: int, repo_root: str,
                 generated: int = GENERATED_PROGRAMS) -> list[Source]:
    return in_tree_sources(repo_root) + [
        generate_program(seed, k) for k in range(generated)]


def verification_sample(corpus: list[Source], seed: int,
                        size: int = 6) -> list[Source]:
    """The seeded sample that set-up executes against the oracle."""
    rng = random.Random(f"e2e-sample/{seed}")
    return rng.sample(corpus, min(size, len(corpus)))
