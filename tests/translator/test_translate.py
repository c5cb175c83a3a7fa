"""Tests of the PODS Translator's lowering (graph -> SP templates)."""

import pytest

from repro.graph import build_graph, validate_graph
from repro.lang.parser import parse
from repro.partitioner import partition
from repro.translator import isa, translate


def input_operands(instr: isa.Instr) -> list:
    """Operands whose presence gates execution of ``instr``."""
    ops = [o for o in (instr.a, instr.b, instr.extra) if o is not None]
    ops.extend(instr.args)
    return ops


def translated(src, distribute=True):
    g = build_graph(parse(src))
    if distribute:
        partition(g)
    validate_graph(g)
    return translate(g)


PAPER = """
function main(n) {
    A = matrix(50, 10);
    for i = 1 to 50 {
        for j = 1 to 10 { A[i, j] = i * 10 + j; }
    }
    return A;
}
"""


def template_named(program, suffix):
    return next(t for t in program.templates.values()
                if t.name.endswith(suffix))


class TestTemplates:
    def test_one_template_per_block(self):
        p = translated(PAPER)
        kinds = sorted(t.kind for t in p.templates.values())
        assert kinds == ["function", "loop", "loop"]

    def test_entry_and_arity(self):
        p = translated(PAPER)
        assert p.templates[p.entry_block].name == "main"
        assert p.arity == 1

    def test_every_path_ends_in_end(self):
        p = translated(PAPER)
        for t in p.templates.values():
            assert t.code[-1].op == isa.END

    def test_function_inputs_are_params_plus_return_address(self):
        p = translated(PAPER)
        main = p.templates[p.entry_block]
        assert len(main.inputs) == 2  # n + return address

    def test_loop_inputs_cover_invoke_args(self):
        p = translated(PAPER)
        main = p.templates[p.entry_block]
        spawn = next(i for i in main.code if i.op == isa.SPAWN)
        child = p.templates[spawn.block]
        # args + result raddrs must exactly fill the child's inputs.
        assert len(spawn.args) + len(spawn.result_slots) == len(child.inputs)

    def test_slots_within_frame(self):
        p = translated(PAPER)
        for t in p.templates.values():
            for instr in t.code:
                for op in input_operands(instr):
                    if op[0] == "s":
                        assert 0 <= op[1] < t.num_slots
                for dst in (instr.dst, instr.dst2):
                    if dst is not None:
                        assert 0 <= dst < t.num_slots

    def test_jump_targets_within_code(self):
        p = translated(PAPER)
        for t in p.templates.values():
            for instr in t.code:
                if instr.op in (isa.JUMP, isa.BRF, isa.BRT):
                    assert 0 <= instr.target <= len(t.code)


class TestRangeFilterLowering:
    def test_distributed_loop_starts_with_rfrange(self):
        p = translated(PAPER)
        i_loop = template_named(p, "for_i")
        assert i_loop.code[0].op == isa.RFRANGE
        assert not i_loop.code[0].descending

    def test_local_loop_uses_plain_bounds(self):
        p = translated(PAPER)
        j_loop = template_named(p, "for_j")
        assert j_loop.code[0].op == isa.MOV
        assert all(i.op != isa.RFRANGE for i in j_loop.code)

    def test_undistributed_compile_has_no_rfrange(self):
        p = translated(PAPER, distribute=False)
        for t in p.templates.values():
            assert all(i.op != isa.RFRANGE for i in t.code)

    def test_descending_flag_propagates(self):
        p = translated("""
        function main(n) {
            A = array(n);
            for i = n downto 1 { A[i] = i; }
            return A;
        }
        """)
        loop = template_named(p, "for_i")
        rf = loop.code[0]
        assert rf.op == isa.RFRANGE and rf.descending
        # Descending skeleton: test is >=, step is sub.
        assert any(i.op == isa.BIN and i.fn == "ge" for i in loop.code)
        assert any(i.op == isa.BIN and i.fn == "sub" for i in loop.code)


class TestCarriedVariables:
    SUM = """
    function main(n) {
        s = 0;
        for i = 1 to n { next s = s + i; }
        return s;
    }
    """

    def test_loop_epilogue_sends_results(self):
        p = translated(self.SUM)
        loop = template_named(p, "for_i")
        sendrs = [i for i in loop.code if i.op == isa.SENDR]
        assert len(sendrs) == 1
        # The SENDR immediately precedes END.
        assert loop.code[-1].op == isa.END
        assert loop.code[-2].op == isa.SENDR

    def test_spawn_declares_result_slots(self):
        p = translated(self.SUM)
        main = p.templates[p.entry_block]
        spawn = next(i for i in main.code if i.op == isa.SPAWN)
        assert len(spawn.result_slots) == 1

    def test_shadow_copy_protocol(self):
        # carried -> shadow at loop top, shadow -> carried at bottom:
        # two MOVs per carried var per iteration beyond the next-write.
        p = translated(self.SUM)
        loop = template_named(p, "for_i")
        carries = [i for i in loop.code
                   if i.op == isa.MOV and "carry" in i.comment]
        assert len(carries) == 1


class TestCallsAndConditionals:
    def test_call_spawns_function_block(self):
        p = translated("""
        function f(x) { return x + 1; }
        function main() { return f(41); }
        """)
        main = p.templates[p.entry_block]
        spawn = next(i for i in main.code if i.op == isa.SPAWN)
        callee = p.templates[spawn.block]
        assert callee.name == "f"
        assert spawn.result_slots, "call must receive a result"

    def test_if_lowering_has_branch_and_join(self):
        p = translated("function main(a, b) { return if a < b then a else b; }")
        main = p.templates[p.entry_block]
        assert any(i.op == isa.BRF for i in main.code)
        assert any(i.op == isa.JUMP for i in main.code)
        joins = [i for i in main.code if i.comment == "join"]
        assert len(joins) == 2  # one per branch

    def test_return_in_branch_emits_sendr_end_inline(self):
        p = translated("""
        function main(a) {
            if a > 0 { return 1; } else { return 2; }
        }
        """)
        main = p.templates[p.entry_block]
        ends = [i for i in main.code if i.op == isa.END]
        sendrs = [i for i in main.code if i.op == isa.SENDR]
        assert len(ends) >= 3  # both branches + implicit epilogue
        assert len(sendrs) >= 3


class TestOrderingInvariant:
    """The Section 3 invariant: no instruction consumes a slot that is
    only produced later on the same straight-line path."""

    PROGRAMS = [PAPER, TestCarriedVariables.SUM, """
    function main(n) {
        A = array(n);
        B = array(n);
        for i = 1 to n { A[i] = i; }
        for i = 1 to n { B[i] = A[i] * 2; }
        s = 0;
        for i = 1 to n { next s = s + B[i]; }
        return s;
    }
    """]

    @pytest.mark.parametrize("src", PROGRAMS)
    def test_no_use_before_straight_line_def(self, src):
        p = translated(src)
        for t in p.templates.values():
            defined = set(t.inputs)
            jump_targets = {i.target for i in t.code
                            if i.op in (isa.JUMP, isa.BRF, isa.BRT)}
            back_edge_region = False
            for pc, instr in enumerate(t.code):
                if pc in jump_targets:
                    # Conservative: past a join point, earlier-path defs
                    # may come from either side; stop checking strictly.
                    back_edge_region = True
                if not back_edge_region:
                    for op in input_operands(instr):
                        if op[0] == "s":
                            assert op[1] in defined, (
                                f"{t.name} pc={pc}: slot {op[1]} read "
                                "before any definition")
                for dst in (instr.dst, instr.dst2):
                    if dst is not None:
                        defined.add(dst)
                if instr.op == isa.SPAWN:
                    defined.update(instr.result_slots)
