"""Every backticked repo path and dotted name in the docs resolves.

``docs/*.md`` and ``README.md`` name files and code in backticks.  A
rename that leaves such a name behind makes a doc describe a system that
is gone, so each one is looked up:

* a path (a token with a ``/``, ending in ``/`` or a file extension) is
  a file or directory under the repo root, ``src/repro``, ``src``,
  ``tests`` or ``benchmarks``, unless ``.gitignore`` lists where it
  starts (a run's output); a bare file name exists somewhere in the tree
  or is one of the files a run writes (``OUTPUTS``); a pytest id's
  ``::test`` part and a ``:line`` suffix are dropped;
* a dotted name (``NodeProtocol.array``, ``repro.dist.protocol``,
  ``threading.Lock``, ``array.element_reads``) has every part named in
  the code under ``src/``, ``tests/`` or ``benchmarks/`` (a module, a
  class, a function, an attribute, an argument, a key it spells as a
  string), is a dotted string the code spells whole (a metric name), or
  starts with a standard-library module.

Fenced code blocks are skipped; a token with a space, a wildcard or an
ellipsis is prose, not a name.
"""

from __future__ import annotations

import ast
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CODE = ("src", "tests", "benchmarks")
PATH_BASES = ("", os.path.join("src", "repro"), "src", "tests", "benchmarks")
EXTENSIONS = (".py", ".json", ".jsonl", ".md", ".txt", ".toml", ".yml",
              ".yaml", ".idl", ".cfg")
DOTTED = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)+")
SKIP = re.compile(r"[\s*{}<>\[\]…]|\.\.\.")
SPACE = re.compile(r"\s")
# Files a run writes, named by the docs that show how to read them.
OUTPUTS = {"ckpt-NNNNNN.json", "latest.json", "trace.json"}


def _ignored():
    """The entries ``.gitignore`` lists (what runs leave)."""
    with open(os.path.join(ROOT, ".gitignore"), encoding="utf-8") as fh:
        return {line.strip().strip("/") for line in fh
                if line.strip() and not line.startswith(("#", "!"))}


def _is_ignored(rel, ignored):
    """Whether ``rel`` is an ignored entry or lies under one."""
    return any(rel == entry or rel.startswith(entry + "/")
               for entry in ignored)


def _docs():
    names = sorted(f for f in os.listdir(os.path.join(ROOT, "docs"))
                   if f.endswith(".md"))
    return [os.path.join("docs", f) for f in names] + ["README.md"]


def _references():
    """``(doc, token)`` for every backticked token outside code blocks."""
    for doc in _docs():
        with open(os.path.join(ROOT, doc), encoding="utf-8") as fh:
            text = re.sub(r"```.*?```", "", fh.read(), flags=re.S)
        for match in re.finditer(r"`([^`\n]+)`", text):
            yield doc, match.group(1)


def _file_names():
    """The base name of every file in the tree."""
    names = set()
    for _, dirnames, fnames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames
                       if not d.startswith(".git") and d != "__pycache__"]
        names.update(fnames)
    return names


def _code_names():
    """Every name the code defines or uses, and every string without a
    space it spells."""
    names, spelled = set(), set()
    for top in CODE:
        for dirpath, dirnames, fnames in os.walk(os.path.join(ROOT, top)):
            names.add(os.path.basename(dirpath))
            for fname in fnames:
                if not fname.endswith(".py"):
                    continue
                names.add(fname[:-3])
                with open(os.path.join(dirpath, fname),
                          encoding="utf-8") as fh:
                    tree = ast.parse(fh.read())
                for node in ast.walk(tree):
                    for field in ("id", "attr", "name", "arg", "module"):
                        value = getattr(node, field, None)
                        if isinstance(value, str):
                            names.update(value.split("."))
                    if isinstance(node, ast.Constant) and isinstance(
                            node.value, str) and not SPACE.search(node.value):
                        spelled.add(node.value)  # a key, a metric's name
                        names.update(part for part in node.value.split(".")
                                     if part.isidentifier())
    return names, spelled


def _misses():
    bases = _file_names()
    names, spelled = _code_names()
    ignored = _ignored()
    checked, misses = 0, []
    for doc, token in _references():
        if SKIP.search(token):
            continue
        token = token.split("::")[0]
        token = re.sub(r":\d+(-\d+)?$", "", token)
        if token.endswith("()"):
            token = token[:-2]
        if "/" in token:
            if not (token.endswith("/") or token.endswith(EXTENSIONS)):
                continue  # a schema or label (``pods-run/v1``), not a path
            rel = token.strip("/")
            if _is_ignored(rel, ignored):
                continue
            checked += 1
            if not any(os.path.exists(os.path.join(ROOT, base, rel))
                       for base in PATH_BASES):
                misses.append((doc, token))
        elif token.endswith(EXTENSIONS) and re.fullmatch(r"[\w.-]+", token):
            checked += 1
            if token not in bases | OUTPUTS:
                misses.append((doc, token))
        elif DOTTED.fullmatch(token):
            checked += 1
            parts = token.split(".")
            if not (token in spelled
                    or parts[0] in sys.stdlib_module_names
                    or all(part in names for part in parts)):
                misses.append((doc, token))
    return checked, misses


def test_a_gitignore_entry_matches_as_a_path_prefix():
    # ``benchmarks/results/`` is what a benchmark run writes: a doc may
    # name it before any run made it.  Its first component is tracked.
    ignored = _ignored()
    assert _is_ignored("benchmarks/results", ignored)
    assert _is_ignored("benchmarks/results/report.txt", ignored)
    assert not _is_ignored("benchmarks/e2e/run.py", ignored)
    assert not _is_ignored("benchmarks/resultsx", ignored)


def test_every_backticked_path_and_name_in_the_docs_resolves():
    checked, misses = _misses()
    assert checked > 300  # not vacuous: the docs name that much
    assert not misses, "\n".join(f"{doc}: `{token}`"
                                 for doc, token in misses)
