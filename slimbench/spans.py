"""Span recording around slimnav's public functions, for the traced run.

`install(tracer)` rebinds every public function the benchmark traces, at
every module attribute (and class attribute) that binds it, to a wrapper
that records one span per call: its name, start, end, parent span and one
number that the call's arguments or result give (rays cast, A*
expansions, rows in a batch, ...). It returns a function that restores the
original bindings. The untraced run never calls `install`.

Spans live in flat arrays and are summarised by `layer_metrics`.
"""
from __future__ import annotations

import array
import functools
import inspect
import time

import numpy as np

NO_PATH = -1.0   # value of an A* span whose search raised NoPathError


class Tracer:
    """Flat, append-only span store plus the stack of open spans."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array.array("i")
        self.parent = array.array("q")
        self.start = array.array("d")
        self.end = array.array("d")
        self.value = array.array("d")
        self._stack: list[int] = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.value.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int, value: float = 0.0) -> None:
        self.end[idx] = time.perf_counter()
        self.value[idx] = value
        self._stack.pop()

    def arrays(self) -> dict:
        """Spans as numpy arrays: name (str), parent, start, end, value."""
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        return {"name": np.asarray(self.names, dtype=object)[ids] if len(ids)
                else np.empty(0, dtype=object),
                "parent": np.frombuffer(self.parent, dtype=np.int64),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64),
                "value": np.frombuffer(self.value, dtype=np.float64)}


# value extractors: (args, kwargs, result) -> float

def _expansions(args, kwargs, result):
    return float(result.expanded)


def _blocked(args, kwargs, result):
    return 0.0 if result is None else 1.0


def _length(args, kwargs, result):
    """Rays cast, or samples labeled."""
    return float(len(result))


def _wrap_call(tracer: Tracer, fn, name: str, measure=None, nopath=()):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except nopath:
            tracer.close(idx, NO_PATH)
            raise
        except BaseException:
            tracer.close(idx)
            raise
        tracer.close(idx, measure(args, kwargs, result) if measure else 0.0)
        return result
    return traced


def _wrap_forward(tracer: Tracer, fn):
    """SlimmableMLP.forward: the span name tells batch-1 slimmed, batch-1
    input-masked and batched calls apart."""
    @functools.wraps(fn)
    def traced(self, x, mask=None, return_cache=False):
        rows = np.ndim(x) == 1
        if rows:
            masked = mask is not None and mask.input_index is not None
            name = "slimnet.forward_b1_inputs" if masked else "slimnet.forward_b1_rho"
        else:
            name = "slimnet.forward_batch"
        idx = tracer.open(name)
        try:
            out = fn(self, x, mask, return_cache)
        finally:
            tracer.close(idx, 1.0 if rows else float(len(x)))
        return out
    return traced


def _wrap_generator(tracer: Tracer, fn, name: str):
    """One span per resumption, so the generator's own work is timed while
    its consumer's work between items is not."""
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            idx = tracer.open(name)
            try:
                item = next(it)
            except StopIteration:
                tracer.close(idx)
                return
            tracer.close(idx)
            yield item
    return traced


def _targets(slimnav):
    """(owner of the definition, attribute, wrapper factory) triples."""
    ws, po, sn, ds, at = (slimnav.worldsim, slimnav.pathoracle, slimnav.slimnet,
                          slimnav.distill, slimnav.auxtrain)
    nopath = slimnav.errors.NoPathError

    def call(name, measure=None):
        return lambda t, fn: _wrap_call(t, fn, name, measure, nopath)
    return [
        (ws, "sense", call("worldsim.sense")),
        (ws, "cast_rays", call("worldsim.cast_rays", _length)),
        (ws, "step", call("worldsim.step")),
        (ws, "segment_hits", call("worldsim.segment_hits", _blocked)),
        (ws.FifoQueue, "push", call("worldsim.fifo")),
        (ws.FifoQueue, "flatten", call("worldsim.fifo")),
        (po, "astar", call("pathoracle.astar", _expansions)),
        (po.MapGraph, "neighbors",
         lambda t, fn: _wrap_generator(t, fn, "pathoracle.neighbors")),
        (po.TaskSampler, "sample", call("pathoracle.sample")),
        (po, "label_dataset", call("pathoracle.label_dataset", _length)),
        (po, "label_rollouts", call("pathoracle.label_rollouts", _length)),
        (po, "save_dataset", call("pathoracle.dataset_io")),
        (po, "load_dataset", call("pathoracle.dataset_io")),
        (sn.SlimmableMLP, "forward", _wrap_forward),
        (sn.SlimmableMLP, "backward", call("slimnet.backward")),
        (sn.Adam, "step", call("slimnet.adam")),
        (sn.SlimMask, "__init__", call("slimnet.mask")),
        (sn, "active_params", call("slimnet.active_params")),
        (ds, "train_navigation", call("distill.train_navigation")),
        (ds, "supervised_distillation_C", call("distill.batch_c")),
        (ds, "supervised_distillation_S", call("distill.batch_s")),
        (at, "run_episode", call("auxtrain.run_episode")),
        (at.TD3Agent, "update", call("auxtrain.td3_update")),
        (at.ReplayBuffer, "sample", call("auxtrain.replay_sample")),
    ]


def install(tracer: Tracer, slimnav) -> callable:
    """Wrap every traced function wherever slimnav binds it; returns undo."""
    modules = [slimnav] + [getattr(slimnav, m) for m in
                           ("worldsim", "pathoracle", "slimnet", "distill",
                            "auxtrain", "cli")]
    saved = []
    for owner, attr, factory in _targets(slimnav):
        original = owner.__dict__[attr]
        wrapped = factory(tracer, original)
        owners = [owner] if inspect.isclass(owner) else modules
        for m in owners:
            for name, v in list(vars(m).items()):
                if v is original:
                    saved.append((m, name, original))
                    setattr(m, name, wrapped)

    def undo():
        for m, name, original in reversed(saved):
            setattr(m, name, original)
    return undo


def _p50(x) -> float:
    return float(np.median(x)) if len(x) else 0.0


def layer_metrics(sp: dict) -> dict:
    """Per-layer metrics computed from the spans alone (see README.md for
    which end-to-end metric each one should move)."""
    name, parent = sp["name"], sp["parent"]
    dur = sp["end"] - sp["start"]
    val = sp["value"]
    child = np.zeros(len(dur))
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    pname = np.where(has_parent, name[np.maximum(parent, 0)], "")

    def sel(n, under=None, not_under=None):
        m = name == n
        if under is not None:
            m &= pname == under
        if not_under is not None:
            m &= pname != not_under
        return m

    def total(n, **kw):
        return float(dur[sel(n, **kw)].sum())

    def count(n, **kw):
        return int(sel(n, **kw).sum())

    def us_p50(n, **kw):
        return _p50(dur[sel(n, **kw)]) * 1e6

    rays = float(val[sel("worldsim.cast_rays")].sum())
    seg = sel("worldsim.segment_hits")
    astar = sel("pathoracle.astar")
    found = astar & (val >= 0)
    expansions = float(val[found].sum())
    states = count("worldsim.sense", under="pathoracle.label_rollouts")
    return {
        "worldsim.sense.calls": count("worldsim.sense"),
        "worldsim.sense.us_p50": us_p50("worldsim.sense"),
        "worldsim.cast_rays.rays": int(rays),
        "worldsim.cast_rays.ns_per_ray":
            total("worldsim.cast_rays") / rays * 1e9 if rays else 0.0,
        "worldsim.step.us_p50": us_p50("worldsim.step"),
        "worldsim.segment_hits.calls": int(seg.sum()),
        "worldsim.segment_hits.s": float(dur[seg].sum()),
        "worldsim.segment_hits.blocked_ratio":
            float(val[seg].mean()) if seg.any() else 0.0,
        "worldsim.fifo.s": total("worldsim.fifo"),
        "pathoracle.astar.calls": int(astar.sum()),
        "pathoracle.astar.expansions": int(expansions),
        "pathoracle.astar.us_per_expansion":
            float(dur[found].sum()) / expansions * 1e6 if expansions else 0.0,
        "pathoracle.astar.self_s": float(self_time[astar].sum()),
        "pathoracle.astar.nopath_ratio":
            float((val[astar] < 0).mean()) if astar.any() else 0.0,
        "pathoracle.neighbors.self_s":
            float(self_time[sel("pathoracle.neighbors")].sum()),
        "pathoracle.label_dataset.samples":
            int(val[sel("pathoracle.label_dataset")].sum()),
        "pathoracle.label_dataset.self_s":
            float(self_time[sel("pathoracle.label_dataset")].sum()),
        "pathoracle.label_rollouts.states": states,
        "pathoracle.label_rollouts.astar_per_state":
            count("pathoracle.astar", under="pathoracle.label_rollouts") / states
            if states else 0.0,
        "pathoracle.label_rollouts.self_s":
            float(self_time[sel("pathoracle.label_rollouts")].sum()),
        "pathoracle.dataset_io.s": total("pathoracle.dataset_io"),
        "slimnet.forward_b1_rho.us_p50":
            us_p50("slimnet.forward_b1_rho", not_under="auxtrain.policy"),
        "slimnet.forward_b1_inputs.us_p50": us_p50("slimnet.forward_b1_inputs"),
        "slimnet.forward_batch.s": total("slimnet.forward_batch"),
        "slimnet.backward.s": total("slimnet.backward"),
        "slimnet.adam.s": total("slimnet.adam"),
        "slimnet.mask.us_p50": us_p50("slimnet.mask"),
        "distill.batch_c.us_p50": us_p50("distill.batch_c"),
        "distill.batch_s.us_p50": us_p50("distill.batch_s"),
        "distill.val.s": total("slimnet.forward_batch",
                               under="distill.train_navigation"),
        "auxtrain.policy.us_p50": us_p50("auxtrain.policy"),
        "auxtrain.active_params.us_p50":
            us_p50("slimnet.active_params", under="auxtrain.run_episode"),
        "auxtrain.episode.self_s":
            float(self_time[sel("auxtrain.run_episode")].sum()),
        "auxtrain.td3_update.us_p50": us_p50("auxtrain.td3_update"),
        "auxtrain.replay_sample.s": total("auxtrain.replay_sample"),
    }


def span_counts(sp: dict) -> dict:
    names, counts = np.unique(sp["name"].astype(str), return_counts=True)
    return {str(n): int(c) for n, c in zip(names, counts)}
