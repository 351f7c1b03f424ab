"""Supervised training of the navigation network with in-place distillation.

Each batch follows the sandwich scheme: one pass at the full configuration
against the hard expert targets, whose outputs are recorded as constant soft
targets; then passes at the minimal and at randomly drawn intermediate
configurations against those soft targets. All gradients are summed into a
single optimizer step. Mode C draws the intermediate configurations as
slimming factors, mode S as sensor power pairs realised as input masks.

`DistillConfig` is also the ``nav`` section of the CLI configuration, which
adds the network shape and the rollout count to it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .slimnet import Adam, Grads, MLPSpec, SlimMask, SlimmableMLP
from .worldsim import (DOWNWARD_LEVELS, FORWARD_LEVELS, MAX_POWER, MIN_POWER,
                       ObservationLayout)


@dataclass
class DistillConfig:
    rho_min: float = 0.25
    n_random_rhos: int = 2
    n_random_powers: int = 2
    batch_size: int = 64
    lr: float = 1e-3
    max_epochs: int = 60
    patience: int = 8
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.rho_min <= 1.0:
            raise ConfigError(f"rho_min must be in (0, 1], got {self.rho_min}")
        if self.n_random_rhos < 0 or self.n_random_powers < 0:
            raise ConfigError("random draw counts must be >= 0")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("batch_size, max_epochs and patience must be >= 1")
        if self.lr <= 0:
            raise ConfigError(f"lr must be positive, got {self.lr}")


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
    summed gradients and the hard-target loss."""
    y, cache = net.forward(x, masks[0], return_cache=True)
    hard_loss = _mse(y, targets)
    grads = net.backward(cache, _mse_grad(y, targets))
    soft = y.copy()
    for mask in masks[1:]:
        y, cache = net.forward(x, mask, return_cache=True)
        grads.add_(net.backward(cache, _mse_grad(y, soft)))
    return grads, hard_loss


def supervised_distillation_C(net: SlimmableMLP, x: np.ndarray,
                              targets: np.ndarray, cfg: DistillConfig,
                              rng) -> tuple[Grads, float]:
    """Sandwich gradients for one batch in compute mode: full width vs hard
    targets, then rho_min and n_random_rhos draws from U(rho_min, 1) vs the
    soft targets."""
    rhos = [cfg.rho_min] + [float(rng.uniform(cfg.rho_min, 1.0))
                            for _ in range(cfg.n_random_rhos)]
    return _sandwich(net, x, targets,
                     [None] + [SlimMask(net.spec, rho) for rho in rhos])


def supervised_distillation_S(net: SlimmableMLP, x: np.ndarray,
                              targets: np.ndarray, cfg: DistillConfig,
                              rng, layout: ObservationLayout) -> tuple[Grads, float]:
    """Sandwich gradients for one batch in sensing mode: full power levels
    vs hard targets, then minimal and random power pairs vs the soft
    targets, each realized as an input mask at full width."""
    combos = [MAX_POWER, MIN_POWER] + [(int(rng.choice(FORWARD_LEVELS)),
                                        int(rng.choice(DOWNWARD_LEVELS)))
                                       for _ in range(cfg.n_random_powers)]
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
    gradients. Early stopping tracks validation MSE at the full
    configuration with the given patience and restores the best snapshot.
    """
    if mode not in ("C", "S"):
        raise ConfigError(f"mode must be 'C' or 'S', got {mode!r}")
    if len(train_ds) == 0 or len(val_ds) == 0:
        raise ConfigError("training and validation datasets must be non-empty")
    if mode == "S" and layout is None:
        layout = ObservationLayout(train_ds.depth)
    net = SlimmableMLP(spec, seed=cfg.seed)
    opt = Adam(net, lr=cfg.lr)
    rng = np.random.default_rng(cfg.seed)
    x_train, y_train = train_ds.fifo_vectors, train_ds.targets
    x_val, y_val = val_ds.fifo_vectors, val_ds.targets
    full_mask = (_power_mask(net, *MAX_POWER, layout) if mode == "S"
                 else SlimMask(net.spec))

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
            xb, yb = x_train[idx], y_train[idx]
            if mode == "C":
                grads, loss = supervised_distillation_C(net, xb, yb, cfg, rng)
            else:
                grads, loss = supervised_distillation_S(net, xb, yb, cfg, rng, layout)
            opt.step(grads)
            losses.append(loss)
        train_losses.append(float(np.mean(losses)))
        val_losses.append(_mse(net.forward(x_val, full_mask), y_val))
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
