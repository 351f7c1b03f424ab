"""Slimming break-even table, emitted by the fly-c traced run.

For hidden widths W x W and slimming factors rho, the navigation forward is
timed at batch 1 (masked, and on the physically truncated copy) and at
batch 64, on observation FIFOs recorded from fly-c, next to the analytic
active parameters and multiply-accumulates from `active_params`. The mode-C
auxiliary actor's forward is timed on the same FIFOs. Adapting pays off at
width W when the actor's forward plus the truncated forward at the rho the
actor picks beats the full-width forward; `breakeven_width` is the smallest
such W in the sweep, and twice the widest width when there is none.
"""
from __future__ import annotations

import statistics
import time

import numpy as np

from slimnav import slimnet

RHOS = (0.25, 0.5, 0.75, 1.0)


def _per_call_us(fn, xs, repeats: int) -> float:
    """Median over repeats of the mean time of one call, in microseconds."""
    runs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for x in xs:
            fn(x)
        runs.append((time.perf_counter() - t0) / len(xs))
    return statistics.median(runs) * 1e6


def macs(spec: slimnet.MLPSpec, rho: float) -> int:
    """Multiply-accumulates of one batch-1 forward at rho: the active
    parameter count without the active biases."""
    params, _ = slimnet.active_params(spec, rho)
    hidden = [slimnet.active_width(rho, q) for q in spec.q]
    return params - sum(hidden) - spec.v


def table(fifos: np.ndarray, actor: slimnet.SlimmableMLP, nav_spec: slimnet.MLPSpec,
          widths, repeats: int, rho_min: float) -> dict:
    xs = list(fifos)
    batch = np.ascontiguousarray(fifos[:64])
    aux_us = _per_call_us(actor.forward, xs, repeats)
    chosen = [float(np.clip(actor.forward(x)[0], rho_min, 1.0)) for x in xs]
    rows, summary = [], []
    for w in widths:
        spec = slimnet.MLPSpec(u=nav_spec.u, q=(w, w), v=nav_spec.v,
                               output_activation=nav_spec.output_activation,
                               output_scale=nav_spec.output_scale)
        net = slimnet.SlimmableMLP(spec, seed=0)
        for rho in RHOS:
            mask = slimnet.SlimMask(spec, rho)
            sub = net.truncated(mask)
            rows.append({
                "width": w, "rho": rho,
                "active_params": slimnet.active_params(spec, rho)[0],
                "macs": macs(spec, rho),
                "b1_masked_us": _per_call_us(lambda x: net.forward(x, mask), xs, repeats),
                "b1_truncated_us": _per_call_us(sub.forward, xs, repeats),
                "b64_masked_us": _per_call_us(lambda x: net.forward(x, mask),
                                              [batch], repeats * 4),
            })
        subs = {}
        for rho in chosen:
            mask = slimnet.SlimMask(spec, rho)
            subs.setdefault(mask.active_hidden, net.truncated(mask))
        picks = [subs[slimnet.SlimMask(spec, rho).active_hidden] for rho in chosen]
        pairs = list(zip(xs, picks))
        full_us = _per_call_us(net.forward, xs, repeats)
        adapted_us = _per_call_us(lambda p: (actor.forward(p[0]), p[1].forward(p[0])),
                                  pairs, repeats)
        summary.append({"width": w, "full_us": full_us, "adapted_us": adapted_us,
                        "mean_rho": float(np.mean(chosen)),
                        "mean_macs": float(np.mean([macs(spec, r) for r in chosen]))})
    wins = [s["width"] for s in summary if s["adapted_us"] < s["full_us"]]
    return {"aux_us": aux_us,
            "aux_macs": macs(actor.spec, 1.0),
            "rows": rows, "summary": summary,
            "breakeven_width": min(wins) if wins else 2 * max(widths)}
