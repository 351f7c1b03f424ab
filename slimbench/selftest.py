"""Self-tests of the benchmark, at tiny input sizes. From the repository root:

    python3 -m pytest -q slimbench/selftest.py

The file name keeps these tests out of the repository's default pytest
collection, so they cost the main test suite nothing.
"""
from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_same_seed_same_inputs(name):
    wl = workloads.WORKLOADS[name]
    a = wl.setup(5, workloads.TINY, run.OUT).digest()
    b = wl.setup(5, workloads.TINY, run.OUT).digest()
    c = wl.setup(6, workloads.TINY, run.OUT).digest()
    assert a == b
    assert a != c


def test_declared_names_match_the_benchmark():
    assert [w["name"] for w in DECLARED["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == run.PER_LAYER


def test_reference_copy_matches_its_manifest():
    ref = HERE / "reference"
    manifest = json.loads((ref / "manifest.json").read_text())
    files = {f.name: hashlib.sha256(f.read_bytes()).hexdigest()
             for f in (ref / "slimnav").glob("*.py") if f.name != "__init__.py"}
    assert files == manifest["sha256"]
    assert set(manifest["nominal"]) == set(run.WORKLOAD_NAMES)


def test_reference_loads_beside_the_program():
    import slimnav
    ref, nominal = run.load_reference()
    assert sys.modules["slimnav"] is slimnav
    assert ref.auxtrain is not workloads.auxtrain
    assert Path(ref.auxtrain.__file__).parent == HERE / "reference" / "slimnav"
    assert set(nominal["learn"]) < set(run.END_TO_END)


def test_normalise_keeps_the_ratio_to_the_reference():
    out = run.normalise({"loop_ms_p50": 2.0, "peak_rss_mb": 5.0},
                        {"loop_ms_p50": 4.0, "peak_rss_mb": 1.0},
                        {"loop_ms_p50": 10.0})
    assert out == {"loop_ms_p50": 5.0, "peak_rss_mb": 5.0}


@pytest.mark.parametrize("trace", (0, 1))
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_checks_outputs_and_prints_declared_metrics(name, trace):
    record = run.run(name, 3, 0.05, trace, scale="TINY")
    result = record["result"]
    assert result["correct"], record["check_errors"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = DECLARED["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(v["value"], (int, float))
               for v in result["metrics"].values())


def test_trace_guard_fails_a_blind_trace(monkeypatch):
    wl = workloads.WORKLOADS["fly-c"]
    blind = workloads.Workload(**{**wl.__dict__,
                                  "expected_spans": ("worldsim.no_such_span",)})
    monkeypatch.setitem(workloads.WORKLOADS, "fly-c", blind)
    with pytest.raises(run.BenchError, match="no_such_span"):
        run.run("fly-c", 3, 0.05, 1, scale="TINY")


def test_fixture_with_wrong_input_width_is_refused(monkeypatch, tmp_path):
    from slimnav import slimnet
    (tmp_path / "C").mkdir()
    net = slimnet.SlimmableMLP(slimnet.MLPSpec(u=10, q=(4,), v=3))
    slimnet.save_weights(net, tmp_path / "C" / "nav.bin")
    monkeypatch.setattr(workloads, "FIXTURES", tmp_path)
    with pytest.raises(workloads.FixtureError, match="u=10"):
        workloads.load_fixture("C", "nav.bin")


def _cli(cwd: Path, *args):
    return subprocess.run([sys.executable, "slimbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_cli_prints_the_result_as_its_last_line():
    proc = _cli(ROOT, "--workload", "fly-c", "--seed", "2", "--seconds", "0.01",
                "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_cli_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "slimbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _cli(tmp_path, "--workload", "plan", "--seed", "1", "--seconds", "1")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
