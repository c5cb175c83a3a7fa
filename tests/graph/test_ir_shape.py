"""The IR's shape, stated once in ``repro.graph.ir``: the operand table
covers every node class, ``rename`` agrees with ``uses``, and the walks
visit what they promise in the order they promise."""

import copy
import dataclasses
import typing

import pytest

from repro.api import compile_source
from repro.graph import ir
from tests.translator.test_compile_fingerprint import sources


def node_classes() -> set[type]:
    """Every def and item class the IR module declares."""
    return {cls for cls in vars(ir).values()
            if isinstance(cls, type) and dataclasses.is_dataclass(cls)
            and cls.__name__.endswith(("Def", "Item"))}


def test_every_node_class_is_in_the_operand_table():
    declared = set(typing.get_args(ir.Def)) | set(typing.get_args(ir.Item))
    assert node_classes() == declared == set(ir.OPERANDS)


def test_every_operand_field_is_a_field_of_its_class():
    for cls, names in ir.OPERANDS.items():
        fields = {f.name for f in dataclasses.fields(cls)}
        assert set(names) <= fields, cls.__name__


def all_nodes():
    """(block, node) for every def and region item of every in-tree
    source's graph, optimized and not."""
    for text in sources().values():
        for optimize in (False, True):
            graph = compile_source(text, optimize=optimize).graph
            for block in graph.blocks.values():
                for d in block.defs.values():
                    yield block, d
                for region in ir.regions(block):
                    for item in region:
                        yield block, item


@pytest.fixture(scope="module")
def nodes():
    return list(all_nodes())


def test_in_tree_sources_reach_every_node_class(nodes):
    assert {type(n) for _, n in nodes} == set(ir.OPERANDS)


def test_every_named_vid_is_a_vid_of_the_block(nodes):
    for block, node in nodes:
        assert set(ir.uses(node)) <= set(block.defs), node


def test_rename_maps_exactly_the_named_vid(nodes):
    for _, node in nodes:
        before = ir.uses(node)
        for old in set(before) | {-1}:
            renamed = copy.deepcopy(node)
            ir.rename(renamed, old, 10**6)
            assert ir.uses(renamed) == [10**6 if v == old else v
                                        for v in before]


NEST = """
function main(n) {
    A = array(9);
    for i = 1 to 1 {
        A[1] = 1;
        if n > 0 { A[2] = 2; } else { A[3] = 3; }
        A[4] = 4;
        k = 0;
        while k < n { A[5] = 5; next k = k + 1; }
        A[6] = 6;
        for j = 1 to 1 { A[7] = 7; }
        A[8] = 8;
    }
    return A;
}
"""


def label(block: ir.CodeBlock, item) -> str:
    if type(item) is ir.WriteItem:
        return f"w{block.defs[item.value].value}"
    if type(item) is ir.ComputeItem:
        return block.defs[item.vid].fn
    if type(item) is ir.InvokeItem:
        return "L"
    return type(item).__name__


def test_subtree_is_program_order():
    graph = compile_source(NEST).graph
    loop = next(b for b in graph.blocks.values() if b.name == "main.for_i")
    runs = ir.subtree(graph, loop)
    # A while condition before its body; a branch's items and an invoked
    # loop's items right after the IfItem or InvokeItem.
    assert [label(b, item) for b, run in runs for item in run] == [
        "w1", "gt", "IfItem", "w2", "w3", "w4", "L", "lt", "w5", "add",
        "NextItem", "w6", "L", "w7", "w8"]
    # Runs: slices of one region cut after each IfItem and InvokeItem.
    assert [[label(b, item) for item in run] for b, run in runs] == [
        ["w1", "gt", "IfItem"], ["w2"], ["w3"], ["w4", "L"], ["lt"],
        ["w5", "add", "NextItem"], ["w6", "L"], ["w7"], ["w8"]]
    assert [b.name for b, _ in runs] == [
        "main.for_i", "main.for_i", "main.for_i", "main.for_i",
        "main.for_i.while", "main.for_i.while", "main.for_i",
        "main.for_i.for_j", "main.for_i"]


def test_regions_and_invoke_sites():
    graph = compile_source(NEST).graph
    loop = next(b for b in graph.blocks.values() if b.name == "main.for_i")
    wloop = next(b for b in graph.blocks.values() if b.kind == ir.WHILE)
    branch = next(item for item in loop.body if type(item) is ir.IfItem)
    assert list(map(id, ir.regions(loop))) == list(map(id, [
        loop.body, branch.then_region, branch.else_region]))
    assert ir.regions(wloop)[1] is wloop.cond_region
    sites = ir.invoke_sites(graph)
    assert sorted(sites) == sorted(b.block_id for b in graph.loop_blocks())
    for child, (parent, region, item) in sites.items():
        assert item.block == child == graph.blocks[child].block_id
        assert graph.blocks[child].parent == parent.block_id
        assert any(x is item for x in region)
