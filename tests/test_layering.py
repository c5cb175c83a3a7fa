"""The two SPMD substrates never import each other.

What ``parallel`` and ``dist`` share lives below both — the SPMD core in
``repro.runtime.spmd``, the fault-plan engine and the retry/recovery
types in ``repro.common`` — so an import from one package into the other
is a fork of something that should be shared.  AST-gate both directions
(in the style of the ``dist/reasons.py`` grep-gate).
"""

import ast
import os

import pytest

import repro


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
