"""Guards over the library's source.  `dependencies = []`: the library
imports nothing outside the standard library; networkx, sympy and
hypothesis serve the tests alone.  An arrangement's integer grid is the
one thing the library reads of its boxes.  And a graph's clique memo is
read and written in `graphs.py` alone, and an arrangement keeps no copy
of it.  One LexBFS kernel answers every interval question: the boxicity
witness reaches into `graphs` only through `_interval_model`, and no
second interval algorithm comes back.  Every function and constant the
package exports has a caller in another module of the library, or a
stated reason to stay."""

import ast
import sys
from functools import cached_property
from pathlib import Path

import boxagree
from boxagree import Arrangement

SOURCES = sorted(Path(boxagree.__file__).parent.glob("*.py"))


def test_library_imports_only_the_standard_library():
    assert len(SOURCES) > 5
    outside = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_only_geometry_reads_the_fraction_view():
    # `boxes` and its records' `sides` are a view for `repr` and callers
    # outside the library; every other module reads the grid
    readers = []
    for path in SOURCES:
        if path.name == "geometry.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and node.attr in ("boxes", "sides", "box"):
                readers.append(f"{path.name}:{node.lineno}: .{node.attr}")
    assert readers == []


def test_only_graphs_touches_the_clique_memo():
    # a graph keeps its clique number and counts in two slots; a second
    # copy of the counts elsewhere, or a write from outside, could disagree
    memo = {"_clique_number", "_clique_counts"}
    seen = {}
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if name in memo:
                seen.setdefault(path.name, []).append(f"{node.lineno}: {name}")
    assert set(seen) == {"graphs.py"}, seen


def test_an_arrangement_caches_only_its_view_and_its_graph():
    # the f-vector is read off the graph's kept counts; a cached f-vector
    # beside them would be a second copy
    cached = {name for name, attr in vars(Arrangement).items()
              if isinstance(attr, cached_property)}
    assert cached == {"boxes", "_graph"}


def test_one_interval_kernel():
    # the backtracking clique order hung on interval graphs of 45 and 58
    # vertices; the maximum cardinality search only fed it
    private, defined = set(), []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if path.name == "boxicity.py" and isinstance(node, ast.ImportFrom) \
                    and node.module == "graphs":
                private |= {alias.name for alias in node.names if alias.name.startswith("_")}
            if isinstance(node, ast.FunctionDef) \
                    and node.name in ("_clique_order", "_chordal_cliques"):
                defined.append(f"{path.name}:{node.lineno}: {node.name}")
    assert private == {"_interval_model"}
    assert defined == []


# exported functions and constants that no other library module calls, each
# with the reason it stays in the library
UNCALLED_EXPORTS = {
    "verify_split_identity": "the `societies` benchmark workload calls it",
    "verify_main_theorem": "the acceptance tests pin it as the main theorem's entry point",
}


def _defines(tree: ast.Module, name: str) -> bool:
    """Whether a module defines `name` at top level as a function or a constant."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == name:
            return True
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return True
    return False


def _reads(tree: ast.Module) -> set[tuple[str, str]]:
    """The (library module, name) pairs a module reads: names it imports
    from a sibling module and uses, and attributes of a sibling module."""
    imported, used, reads = set(), set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported |= {(node.module, alias.name) for alias in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
            reads.add((node.value.id, node.attr))
    return reads | {(module, name) for module, name in imported if name in used}


def test_every_export_has_a_caller():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}
    exports = [(node.module, alias.name) for node in trees["__init__"].body
               if isinstance(node, ast.ImportFrom) for alias in node.names]
    assert len(exports) > 40
    reads = {stem: _reads(tree) for stem, tree in trees.items() if stem != "__init__"}
    uncalled = sorted(
        name for module, name in exports
        if _defines(trees[module], name)
        and not any((module, name) in read for stem, read in reads.items() if stem != module))
    assert uncalled == sorted(UNCALLED_EXPORTS)
