"""The slimnav names the benchmark in `slimbench/` uses still exist, so a
refactor that drops one fails here instead of in a benchmark run. The
benchmark's files are read, never edited."""

import ast
import importlib.util
from pathlib import Path

import pytest

import slimnav

BENCH = Path(__file__).resolve().parent.parent / "slimbench"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("slimbench_spans",
                                                  BENCH / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for owner, attr, _ in spans._targets(slimnav):
        assert attr in vars(owner), f"{owner.__name__}.{attr}"


def slimnav_reads(tree):
    """(module, attribute) pairs a module's code reads from slimnav: names
    imported from a slimnav module, and attributes read from a slimnav
    module imported by name."""
    modules, reads = {}, []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "slimnav":
            for a in node.names:
                modules[a.asname or a.name] = getattr(slimnav, a.name)
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").startswith("slimnav."):
            module = importlib.import_module(node.module)
            reads += [(module, a.name) for a in node.names]
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id in modules:
            reads.append((modules[node.value.id], node.attr))
    return reads


@pytest.mark.parametrize("name", ["workloads.py", "run.py", "breakeven.py"])
def test_slimnav_names_read_by_the_benchmark_exist(name):
    reads = slimnav_reads(ast.parse((BENCH / name).read_text()))
    assert reads
    missing = [f"{m.__name__}.{attr}" for m, attr in reads
               if not hasattr(m, attr)]
    assert missing == []
