"""The slimnav names the benchmark in `slimbench/` uses still exist, so a
refactor that drops one fails here instead of in a benchmark run. The
benchmark's files are read, never edited."""

import ast
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

import slimnav

BENCH = Path(__file__).resolve().parent.parent / "slimbench"


def load_bench(name):
    spec = importlib.util.spec_from_file_location(f"slimbench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def test_traced_functions_exist():
    spans = load_bench("spans")
    for owner, attr, _ in spans._targets(slimnav):
        assert attr in vars(owner), f"{owner.__name__}.{attr}"


def expected(workload, prefixes=("worldsim.", "slimnet.")):
    """The worldsim and slimnet spans a traced run of `workload` must see
    called, or it exits 3."""
    wl = load_bench("workloads").WORKLOADS[workload]
    return [n for n in wl.expected_spans if n.startswith(prefixes)]


def traced_counts(spans, fly):
    """Span counts of one call of `fly()` with every traced function wrapped."""
    tracer = spans.Tracer()
    undo = spans.install(tracer, slimnav)
    try:
        fly()
    finally:
        undo()
    return spans.span_counts(tracer.arrays())


def test_a_flight_reaches_every_traced_flight_function():
    """A refactor that inlines one of these calls (say `segment_hits` into
    `step`) hides it from the traced benchmark run, which then exits 3."""
    from slimnav import auxtrain, pathoracle, worldsim
    spans = load_bench("spans")
    grid = worldsim.generate_world((20, 20, 8), density=0.1, seed=1)
    graph = pathoracle.build_graph(grid, vertical_locked=True)
    sampler = pathoracle.TaskSampler(
        graph, pathoracle.partition_regions(grid, (0.5, 0.25, 0.25)), flight_z=2)
    task = sampler.sample("train", 6.0, np.random.default_rng(0))
    nav = slimnav.SlimmableMLP(slimnav.MLPSpec(
        u=4 * worldsim.OBS_WIDTH, q=(16, 8), v=3, output_activation="tanh",
        output_scale=2.0), seed=0)
    counts = traced_counts(spans, lambda: auxtrain.run_episode(
        grid, nav, mode="C", spawn=grid.center_of(task.spawn),
        goal=grid.center_of(task.goal), max_steps=3, vertical_locked=True,
        policy=lambda x: [0.5]))
    want = expected("fly-c")
    assert "worldsim.segment_hits" in want and "slimnet.active_params" in want
    assert [n for n in want if counts.get(n, 0) == 0] == []
    counts = traced_counts(spans, lambda: pathoracle.label_rollouts(
        grid, graph, [task], nav.forward, depth=4, max_steps=3))
    assert [n for n in expected("plan") if counts.get(n, 0) == 0] == []


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
