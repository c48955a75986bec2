"""Guards over the library's source.  `dependencies = []`: the library
imports nothing outside the standard library; networkx, sympy and
hypothesis serve the tests alone.  An arrangement's integer grid is the
one thing the library reads of its boxes.  And a graph's clique memo is
read and written in `graphs.py` alone, and an arrangement keeps no copy
of it."""

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
