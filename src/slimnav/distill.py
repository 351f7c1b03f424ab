"""Supervised training of the navigation network with in-place distillation.

Each batch follows the sandwich scheme (Yu & Huang 2019, arXiv:1903.05134):
one pass at the full configuration against the hard expert targets, whose
outputs are recorded as constant soft targets; then passes at the minimal
and at `n_random` randomly drawn configurations against those soft targets.
All gradients are summed into a single optimizer step. Mode C draws the
configurations as slimming factors, mode S as power pairs (input masks).

The passes run in float32, validation in float64: `train_navigation` casts
each minibatch and its targets to float32, the precision the dataset files
and the weights already have, so the sandwich's products run in float32
while the gradients and the Adam step stay float64 (mixed-precision
training, Micikevicius et al. 2018, arXiv:1710.03740). Every evaluation
forward stays float64.

`DistillConfig` is also the ``nav`` section of the CLI configuration, which
adds the network shape and the rollout count to it."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Annotated

import numpy as np

from .errors import ConfigError, Range, check_ranges
from .slimnet import Adam, Grads, MLPSpec, SlimMask, SlimmableMLP
from .worldsim import (DOWNWARD_LEVELS, FORWARD_LEVELS, MAX_POWER, MIN_POWER,
                       ObservationLayout)


@dataclass
class DistillConfig:
    rho_min: Annotated[float, Range(0, 1, lo_open=True)] = 0.25
    n_random: Annotated[int, Range(0)] = 2
    batch_size: Annotated[int, Range(1)] = 64
    lr: Annotated[float, Range(0, lo_open=True)] = 1e-3
    max_epochs: Annotated[int, Range(1)] = 60
    patience: Annotated[int, Range(1)] = 8
    seed: Annotated[int, Range(0)] = 0

    __post_init__ = check_ranges


def _mse_grad(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 2.0 * (y - t) / y.size


def _mse(y: np.ndarray, t: np.ndarray) -> float:
    return float(np.mean((y - t) ** 2))


def _power_mask(net: SlimmableMLP, p_f: int, p_d: int,
                layout: ObservationLayout) -> SlimMask:
    """Full width with only the rays of power levels (p_f, p_d) as inputs."""
    return SlimMask(net.spec, 1.0, active_inputs=layout.input_mask(p_f, p_d))


def _sandwich(net: SlimmableMLP, x: np.ndarray, targets: np.ndarray,
              masks) -> tuple[Grads, float]:
    """The first mask's pass against the hard targets, whose outputs become
    the soft targets (recorded as constants, no gradient flows through
    them); every further mask's pass against the soft targets. Returns the
    gradients, every pass added into the first pass's, and the hard-target
    loss."""
    y, cache = net.forward(x, masks[0], return_cache=True)
    hard_loss = _mse(y, targets)
    grads = net.backward(cache, _mse_grad(y, targets))
    soft = y.copy()
    for mask in masks[1:]:
        y, cache = net.forward(x, mask, return_cache=True)
        net.backward(cache, _mse_grad(y, soft), into=grads)
    return grads, hard_loss


def supervised_distillation_C(net: SlimmableMLP, x: np.ndarray,
                              targets: np.ndarray, cfg: DistillConfig,
                              rng) -> tuple[Grads, float]:
    """Sandwich gradients for one batch in compute mode: full width vs hard
    targets, then rho_min and n_random draws from U(rho_min, 1) vs the soft
    targets."""
    rhos = [cfg.rho_min] + [float(rng.uniform(cfg.rho_min, 1.0))
                            for _ in range(cfg.n_random)]
    return _sandwich(net, x, targets,
                     [None] + [SlimMask(net.spec, rho) for rho in rhos])


def supervised_distillation_S(net: SlimmableMLP, x: np.ndarray,
                              targets: np.ndarray, cfg: DistillConfig,
                              rng, layout: ObservationLayout) -> tuple[Grads, float]:
    """Sandwich gradients for one batch in sensing mode: full power levels
    vs hard targets, then the minimal and n_random random power pairs vs
    the soft targets, each realized as an input mask at full width."""
    combos = [MAX_POWER, MIN_POWER] + [(int(rng.choice(FORWARD_LEVELS)),
                                        int(rng.choice(DOWNWARD_LEVELS)))
                                       for _ in range(cfg.n_random)]
    return _sandwich(net, x, targets,
                     [_power_mask(net, p_f, p_d, layout) for p_f, p_d in combos])


@dataclass
class TrainReport:
    train_losses: list
    val_losses: list
    best_epoch: int
    stopped_epoch: int


def train_navigation(train_ds, val_ds, spec: MLPSpec, cfg: DistillConfig,
                     mode: str = "C", layout: ObservationLayout | None = None
                     ) -> tuple[SlimmableMLP, TrainReport]:
    """Distillation-train a navigation network.

    Shuffled minibatches, one Adam step per batch on the summed sandwich
    gradients. The passes run in float32, validation in float64: each
    minibatch and its targets are cast to float32 as they are drawn.
    Early stopping tracks validation MSE at the full configuration with the
    given patience and restores the best snapshot.
    """
    if mode not in ("C", "S"):
        raise ConfigError(f"mode must be 'C' or 'S', got {mode!r}")
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ConfigError("training and validation datasets must be non-empty")
    if layout is None:
        layout = ObservationLayout(train_ds.depth)
    net = SlimmableMLP(spec, seed=cfg.seed)
    opt = Adam(net, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    x_train, y_train = train_ds.fifo_vectors, train_ds.targets
    x_val, y_val = val_ds.fifo_vectors, val_ds.targets

    best_val = float("inf")
    best_epoch = 0
    best_weights = None
    train_losses, val_losses = [], []
    stopped = cfg.max_epochs
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(len(train_ds))
        losses = []
        for lo in range(0, len(order), cfg.batch_size):
            idx = order[lo:lo + cfg.batch_size]
            xb = x_train[idx].astype(np.float32)
            yb = y_train[idx].astype(np.float32)
            if mode == "C":
                grads, loss = supervised_distillation_C(net, xb, yb, cfg, rng)
            else:
                grads, loss = supervised_distillation_S(net, xb, yb, cfg, rng, layout)
            opt.step(grads)
            losses.append(loss)
        train_losses.append(float(np.mean(losses)))
        val_losses.append(_mse(net.forward(x_val), y_val))
        if val_losses[-1] < best_val:
            best_val = val_losses[-1]
            best_epoch = epoch
            best_weights = net.params.copy()
        elif epoch - best_epoch >= cfg.patience:
            stopped = epoch
            break
    if best_weights is not None:
        net.params[:] = best_weights
    return net, TrainReport(train_losses=train_losses, val_losses=val_losses,
                            best_epoch=best_epoch, stopped_epoch=stopped)


def rmse_on_dataset(net: SlimmableMLP, ds, mask: SlimMask | None = None) -> float:
    y = net.forward(ds.fifo_vectors, mask)
    return float(np.sqrt(np.mean((y - ds.targets) ** 2)))


def rmse_by_rho(net: SlimmableMLP, ds, rhos=(0.25, 0.5, 0.75, 1.0)) -> dict:
    return {float(r): rmse_on_dataset(net, ds, SlimMask(net.spec, r)) for r in rhos}


def rmse_by_power(net: SlimmableMLP, ds, layout: ObservationLayout,
                  combos=tuple((min(p_d + 1, MAX_POWER[0]), p_d)
                               for p_d in DOWNWARD_LEVELS)) -> dict:
    """Test RMSE at full width with the input masks of each (p_f, p_d)
    pair; by default one pair per downward level, each with the forward
    level one above it (at most the top one)."""
    return {(p_f, p_d): rmse_on_dataset(net, ds, _power_mask(net, p_f, p_d, layout))
            for p_f, p_d in combos}
