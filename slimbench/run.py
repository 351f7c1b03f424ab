"""slimnav benchmark: one seeded, single-process workload per run.

    python3 slimbench/run.py --workload plan --seed 1 --seconds 10 --trace 0

Run from the repository root. The program under test is imported from
`src/` of the same checkout; without it the benchmark exits 2 and prints no
result. BLAS and OpenMP are pinned to one thread before numpy is imported.

The untraced run (`--trace 0`) sets up its inputs several times and
reports the median set-up time, then repeats the workload's operations for
`--seconds` and reports the end-to-end metrics. The traced run (`--trace 1`)
runs the operations untraced for half of `--seconds`, then runs the same
operations again with spans recorded around slimnav's public functions, and
reports the per-layer metrics, the tracing overhead and, on fly-c, the
slimming break-even table. Both runs check every output and fail the run if
a check fails or two set-ups of one seed differ.

The last line of standard output is the JSON result; the lines above it
record the environment, the output digest and every metric with its unit.
The same record, and in traced runs the spans, are written to `.bench_out/`.
See README.md for the workloads and what each metric measures.
"""
from __future__ import annotations

import os

THREAD_PINS = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                                "NUMEXPR_NUM_THREADS")}
os.environ.update(THREAD_PINS)   # must precede the first numpy import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REF_OUT = OUT / "reference"
REFERENCE = HERE / "reference"
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0
WORKLOAD_NAMES = ("plan", "fly-c", "fly-s", "learn")

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "loop_per_s": "1/s",
    "loop_ms_p50": "ms",
    "loop_ms_p90": "ms",
    "work_per_s": "1/s",
}

PER_LAYER = {
    "worldsim.sense.calls": "count",
    "worldsim.sense.us_p50": "us",
    "worldsim.cast_rays.rays": "count",
    "worldsim.cast_rays.ns_per_ray": "ns",
    "worldsim.step.us_p50": "us",
    "worldsim.segment_hits.calls": "count",
    "worldsim.segment_hits.s": "s",
    "worldsim.segment_hits.blocked_ratio": "fraction",
    "worldsim.fifo.s": "s",
    "pathoracle.astar.calls": "count",
    "pathoracle.astar.expansions": "count",
    "pathoracle.astar.us_per_expansion": "us",
    "pathoracle.astar.self_s": "s",
    "pathoracle.astar.nopath_ratio": "fraction",
    "pathoracle.neighbors.self_s": "s",
    "pathoracle.label_dataset.samples": "count",
    "pathoracle.label_dataset.self_s": "s",
    "pathoracle.label_rollouts.states": "count",
    "pathoracle.label_rollouts.labeled_ratio": "fraction",
    "pathoracle.label_rollouts.astar_per_state": "ratio",
    "pathoracle.label_rollouts.self_s": "s",
    "pathoracle.dataset_io.s": "s",
    "slimnet.forward_b1_rho.us_p50": "us",
    "slimnet.forward_b1_inputs.us_p50": "us",
    "slimnet.forward_batch.s": "s",
    "slimnet.backward.s": "s",
    "slimnet.adam.s": "s",
    "slimnet.mask.us_p50": "us",
    "slimnet.active_macs_per_step": "count",
    "slimnet.weight_bytes_per_step": "bytes",
    "slimnet.breakeven_width": "count",
    "distill.batch_c.us_p50": "us",
    "distill.batch_s.us_p50": "us",
    "distill.val.s": "s",
    "distill.val_mse_c": "m2",
    "distill.val_mse_s": "m2",
    "auxtrain.policy.us_p50": "us",
    "auxtrain.active_params.us_p50": "us",
    "auxtrain.episode.self_s": "s",
    "auxtrain.td3_update.us_p50": "us",
    "auxtrain.replay_sample.s": "s",
    "auxtrain.episode.success_rate": "fraction",
    "auxtrain.episode.eta_m": "fraction",
    "auxtrain.episode.eta_w": "fraction",
    "trace.overhead_pct": "%",
    "trace.spans": "count",
}


class BenchError(Exception):
    """The run cannot produce a valid result."""


def environment(workload: str, seed: int, seconds: float, trace: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src = hashlib.sha256()
    for f in sorted((SRC / "slimnav").glob("*.py")):
        src.update(f.name.encode() + b"\0" + f.read_bytes())
    uname = os.uname()
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "machine": f"{uname.sysname} {uname.release} {uname.machine}",
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "thread_pins": THREAD_PINS, "commit": git_commit(),
        "src_sha256": src.hexdigest(),
    }


def git_commit() -> str:
    """HEAD of the checkout's git repository, or "none" outside one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            loose = git / ref
            if loose.exists():
                return loose.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "none"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(wl, seed: int, scale, ref=None):
    """Set up at least `SETUP_MIN_REPS` times and for at least `SETUP_MIN_S`;
    returns the inputs and the median time. With `ref` = (reference
    workload, reference scale), each set-up is paired with one of the
    reference copy, and the reference's inputs and median time follow.
    Every set-up of one seed must give identical inputs."""
    sides = [(wl, scale, OUT)] + ([(*ref, REF_OUT)] if ref else [])
    times = [[] for _ in sides]
    inputs, digests = [None] * len(sides), set()
    while len(times[0]) < SETUP_MIN_REPS or sum(times[0]) < SETUP_MIN_S:
        order = range(len(sides)) if len(times[0]) % 2 == 0 else \
            reversed(range(len(sides)))
        for i in order:
            w, sc, out = sides[i]
            t0 = time.perf_counter()
            inputs[i] = w.setup(seed, sc, out)
            times[i].append(time.perf_counter() - t0)
            digests.add((i, inputs[i].digest()))
    if len(digests) != len(sides):
        raise BenchError(f"set-ups of seed {seed} differ: {sorted(digests)}")
    out = [inputs[0], statistics.median(times[0])]
    if ref:
        out += [inputs[1], statistics.median(times[1])]
    return tuple(out)


def load_reference():
    """The workloads module bound to the frozen reference copy of slimnav
    in `reference/slimnav`, and the copy's nominal figures. The copy is
    imported under the name `slimnav` while the module loads, then moved
    aside, so the program's own `slimnav` is untouched."""
    import importlib.util
    mine = {k: sys.modules.pop(k) for k in list(sys.modules)
            if k == "slimnav" or k.startswith("slimnav.")}
    sys.path.insert(0, str(REFERENCE))
    try:
        spec = importlib.util.spec_from_file_location(
            "workloads_reference", HERE / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module     # dataclasses look it up
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(REFERENCE))
        for k in [k for k in sys.modules
                  if k == "slimnav" or k.startswith("slimnav.")]:
            del sys.modules[k]
        sys.modules.update(mine)
    manifest = json.loads((REFERENCE / "manifest.json").read_text())
    return module, manifest["nominal"]


def normalise(mine: dict, ref: dict, nominal: dict) -> dict:
    """Each timed metric as the reference's nominal figure times the
    program's figure over the reference's, both measured in this run."""
    return {k: nominal[k] * v / ref[k] if k in nominal else v
            for k, v in mine.items()}


def _quantile(values, q: float) -> float:
    import numpy as np
    return float(np.quantile(values, q)) if len(values) else 0.0


def end_to_end(tally, setup_s: float) -> dict:
    iv = tally.loop_intervals()
    return {
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb(),
        "loop_per_s": tally.loop_per_s(),
        "loop_ms_p50": _quantile(iv, 0.5) * 1e3,
        "loop_ms_p90": _quantile(iv, 0.9) * 1e3,
        "work_per_s": tally.work_per_s(),
    }


def flight_metrics(logs, nav_spec) -> dict:
    """Outcome and resource metrics over the first pass of fly episodes."""
    from slimnav import auxtrain, worldsim
    out = {"auxtrain.episode.success_rate": 0.0, "auxtrain.episode.eta_m": 0.0,
           "auxtrain.episode.eta_w": 0.0, "slimnet.active_macs_per_step": 0.0,
           "slimnet.weight_bytes_per_step": 0.0}
    if not logs:
        return out
    steps = [s for log in logs for s in log.steps]
    out["auxtrain.episode.success_rate"] = (
        sum(log.outcome == worldsim.REACHED for log in logs) / len(logs))
    try:
        eta = auxtrain.compute_eta(logs, nav_spec)
        out["auxtrain.episode.eta_m"] = eta.eta_m
        out["auxtrain.episode.eta_w"] = eta.eta_w
    except ValueError:      # no successful episode
        pass
    # m_active comes from active_params; the MACs are its weights, without
    # the biases of the active hidden and output nodes
    out["slimnet.active_macs_per_step"] = float(sum(
        s.m_active - _active_biases(nav_spec, s.rho) for s in steps) / len(steps))
    out["slimnet.weight_bytes_per_step"] = float(
        8 * sum(s.m_active for s in steps) / len(steps))
    return out


def _active_biases(spec, rho: float) -> int:
    from slimnav import slimnet
    return sum(slimnet.active_width(rho, q) for q in spec.q) + spec.v


def traced_run(wl, inputs, seconds: float, scale, slimnav, record: dict):
    """Untraced ops for half of `seconds`, then the same ops traced.
    Returns the per-layer metrics and both tallies; adds the span counts,
    the spans file and (fly-c) the break-even table to `record`."""
    import numpy as np
    import breakeven
    import spans
    import workloads
    keep = scale.breakeven_fifos if wl.name == "fly-c" else 0
    base, base_wall = workloads.run_ops(wl, inputs, seconds / 2, keep_fifos=keep)
    tracer = spans.Tracer()
    undo = spans.install(tracer, slimnav)
    try:
        traced, traced_wall = workloads.run_ops(
            wl, inputs, 0.0, max_ops=base.ops_done, tracer=tracer)
    finally:
        undo()
    sp = tracer.arrays()
    counts = spans.span_counts(sp)
    missing = [n for n in wl.expected_spans if counts.get(n, 0) == 0]
    if missing:
        raise BenchError(f"traced run of {wl.name} saw no calls of {missing}")
    if traced.digest() != base.digest():
        base.check_errors.append("traced outputs differ from untraced outputs")
    metrics = spans.layer_metrics(sp)
    out = traced.outputs
    states = out.get("relabel_states", 0)
    metrics["pathoracle.label_rollouts.labeled_ratio"] = (
        out.get("relabel_labeled", 0) / states if states else 0.0)
    nav = getattr(inputs, "nav", None)
    metrics.update(flight_metrics(out.get("logs", []), nav.spec if nav else None))
    metrics["distill.val_mse_c"] = float(out.get("val_mse_c", 0.0))
    metrics["distill.val_mse_s"] = float(out.get("val_mse_s", 0.0))
    metrics["trace.overhead_pct"] = (traced_wall / base_wall - 1.0) * 100.0
    metrics["trace.spans"] = len(sp["start"])
    metrics["slimnet.breakeven_width"] = 0
    if wl.name == "fly-c":
        fifos = np.asarray(base.outputs["fifos"])
        be = breakeven.table(fifos, inputs.actor, inputs.nav.spec,
                             scale.breakeven_widths, scale.breakeven_repeats,
                             rho_min=workloads.RHO_MIN)
        metrics["slimnet.breakeven_width"] = be["breakeven_width"]
        record["breakeven"] = be
    record["span_counts"] = counts
    record["spans_file"] = save_spans(sp, wl.name, inputs.seed)
    return metrics, base, traced


def save_spans(sp: dict, workload: str, seed: int) -> str:
    import numpy as np
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.npz"
    np.savez_compressed(path, name=sp["name"].astype(str), parent=sp["parent"],
                        start=sp["start"], end=sp["end"], value=sp["value"])
    return str(path.relative_to(ROOT))


def run(workload: str, seed: int, seconds: float, trace: int,
        scale: str = "FULL") -> dict:
    """One benchmark run; returns the full record (`result` holds the JSON
    line). Raises BenchError or FixtureError when no valid result exists."""
    import slimnav
    import workloads
    wl = workloads.WORKLOADS[workload]
    REF_OUT.mkdir(parents=True, exist_ok=True)
    record = {"env": environment(workload, seed, seconds, trace)}
    if trace:
        inputs, setup_s = set_up(wl, seed, getattr(workloads, scale))
        record["inputs_sha256"] = inputs.digest()
        metrics, base, traced = traced_run(wl, inputs, seconds,
                                           getattr(workloads, scale), slimnav,
                                           record)
        tallies = (base, traced)
        units = PER_LAYER
    else:
        ref, nominal = load_reference()
        ref_wl = ref.WORKLOADS[workload]
        inputs, setup_s, ref_inputs, ref_setup_s = set_up(
            wl, seed, getattr(workloads, scale),
            (ref_wl, getattr(ref, scale)))
        record["inputs_sha256"] = inputs.digest()
        record["reference_inputs_sha256"] = ref_inputs.digest()
        tally, ref_tally = workloads.run_paired(wl, inputs, ref_wl, ref_inputs,
                                                seconds)
        raw = end_to_end(tally, setup_s)
        ref_raw = end_to_end(ref_tally, ref_setup_s)
        metrics = normalise(raw, ref_raw, nominal[workload])
        record["raw"], record["reference_raw"] = raw, ref_raw
        record["reference_outputs_sha256"] = ref_tally.digest()
        tallies = (tally,)
        units = END_TO_END
        record["loop_samples"] = len(tally.loop_intervals())
        record["check_errors_reference"] = ref_tally.check_errors
    errors = [e for t in tallies for e in t.check_errors] + [
        f"reference copy: {e}" for e in record.get("check_errors_reference", [])]
    record["outputs_sha256"] = tallies[0].digest()
    record["check_errors"] = errors
    record["units"] = {"loop": wl.loop_unit, "work": wl.work_unit}
    record["outcomes"] = tallies[0].outputs.get("outcomes", {})
    record["ops"] = sum(t.ops_done for t in tallies)
    record["result"] = {
        "correct": not errors,
        "attempted": sum(t.attempted for t in tallies),
        "failed": sum(t.failed for t in tallies),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    path = OUT / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return record


def report(record: dict) -> None:
    """Print the human-readable lines that precede the JSON result."""
    res = record["result"]
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"inputs sha256 {record['inputs_sha256']}")
    print(f"outputs sha256 {record['outputs_sha256']}")
    if "raw" in record:
        same = (record["inputs_sha256"] == record["reference_inputs_sha256"]
                and record["outputs_sha256"] == record["reference_outputs_sha256"])
        print("inputs and outputs identical to the reference copy's: "
              + ("yes" if same else "no"))
        for side in ("raw", "reference_raw"):
            print(side.replace("_", " ") + " " + " ".join(
                f"{k} {v:.6g}" for k, v in record[side].items()))
    print(f"operations run {record['ops']}")
    if "loop_samples" in record:
        print(f"loop intervals sampled {record['loop_samples']}")
    print(f"loop = one {record['units']['loop'][:-1]}, "
          f"work = {record['units']['work']}")
    share = res["failed"] / res["attempted"] if res["attempted"] else 0.0
    print(f"operations attempted {res['attempted']} failed {res['failed']} "
          f"(failed share {share:.4f})")
    if record["outcomes"]:
        print("episode outcomes " + " ".join(
            f"{k} {v}" for k, v in sorted(record["outcomes"].items())))
    for err in record["check_errors"][:20]:
        print(f"check failed: {err}")
    for name, m in res["metrics"].items():
        print(f"metric {name} {m['value']} {m['unit']}")
    be = record.get("breakeven")
    if be:
        print(f"breakeven aux_forward_us {be['aux_us']:.2f} aux_macs {be['aux_macs']}")
        for r in be["rows"]:
            print("breakeven " + " ".join(f"{k} {v:.6g}" if isinstance(v, float)
                                          else f"{k} {v}" for k, v in r.items()))
        for s in be["summary"]:
            print("breakeven " + " ".join(f"{k} {v:.6g}" if isinstance(v, float)
                                          else f"{k} {v}" for k, v in s.items()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="slimnav benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (SRC / "slimnav" / "__init__.py").is_file():
        print(f"slimbench: no slimnav sources at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, workloads.FixtureError) as e:
        print(f"slimbench: {e}", file=sys.stderr)
        return 3
    report(record)
    print(json.dumps(record["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
