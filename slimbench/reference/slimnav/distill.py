"""Supervised training of the navigation network with in-place distillation.

Each batch follows the sandwich scheme: one pass at the full configuration
against the hard expert targets, whose outputs are recorded as constant soft
targets; then passes at the minimal and at randomly drawn intermediate
configurations against those soft targets. All gradients are summed into a
single optimizer step."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .auxtrain import RewardWeights, run_episode
from .errors import ConfigError
from .slimnet import (Adam, Grads, MLPSpec, SlimMask, SlimmableMLP,
                      input_mask_from_power)
from .worldsim import (DEFAULT_GOAL_RADIUS, DEFAULT_MAX_RANGE, DEFAULT_MAX_STEP,
                       ObservationLayout, REACHED)

POWER_MIN = (1, 0)
POWER_MAX = (3, 3)
FORWARD_CHOICES = (1, 2, 3)
DOWNWARD_CHOICES = (0, 1, 2, 3)


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
    distill: bool = True

    def __post_init__(self):
        if not 0.0 < self.rho_min <= 1.0:
            raise ConfigError(f"rho_min must be in (0, 1], got {self.rho_min}")
        if self.n_random_rhos < 0 or self.n_random_powers < 0:
            raise ConfigError("random draw counts must be >= 0")
        if self.batch_size < 1 or self.max_epochs < 1 or self.patience < 1:
            raise ConfigError("batch_size, max_epochs and patience must be >= 1")


def _mse_grad(y: np.ndarray, t: np.ndarray) -> np.ndarray:
    return 2.0 * (y - t) / y.size


def _mse(y: np.ndarray, t: np.ndarray) -> float:
    return float(np.mean((y - t) ** 2))


def supervised_distillation_C(net: SlimmableMLP, x: np.ndarray,
                              targets: np.ndarray, cfg: DistillConfig,
                              rng) -> tuple[Grads, float]:
    """Sandwich gradients for one batch in compute mode.

    Pass 1: full width vs hard targets; its outputs become the soft targets
    (recorded as constants, no gradient flows through them). Pass 2: rho_min
    vs soft. Passes 3..: n_random_rhos draws from U(rho_min, 1) vs soft.
    Returns the summed gradients and the hard-target loss.
    """
    y_full, cache = net.forward(x, return_cache=True)
    hard_loss = _mse(y_full, targets)
    grads = net.backward(cache, _mse_grad(y_full, targets))
    soft = y_full.copy()
    rhos = [cfg.rho_min] + [float(rng.uniform(cfg.rho_min, 1.0))
                            for _ in range(cfg.n_random_rhos)]
    for rho in rhos:
        y, cache = net.forward(x, SlimMask(net.spec, rho), return_cache=True)
        grads.add_(net.backward(cache, _mse_grad(y, soft)))
    return grads, hard_loss


def supervised_distillation_S(net: SlimmableMLP, x: np.ndarray,
                              targets: np.ndarray, cfg: DistillConfig,
                              rng, layout: ObservationLayout) -> tuple[Grads, float]:
    """Sandwich gradients for one batch in sensing mode: full power levels
    vs hard targets, then minimal (1, 0) and random power pairs vs the soft
    targets, each realized as an input mask at full width."""
    full_mask = SlimMask(net.spec, 1.0,
                         active_inputs=input_mask_from_power(*POWER_MAX, layout))
    y_full, cache = net.forward(x, full_mask, return_cache=True)
    hard_loss = _mse(y_full, targets)
    grads = net.backward(cache, _mse_grad(y_full, targets))
    soft = y_full.copy()
    combos = [POWER_MIN] + [(int(rng.choice(FORWARD_CHOICES)),
                             int(rng.choice(DOWNWARD_CHOICES)))
                            for _ in range(cfg.n_random_powers)]
    for p_f, p_d in combos:
        mask = SlimMask(net.spec, 1.0,
                        active_inputs=input_mask_from_power(p_f, p_d, layout))
        y, cache = net.forward(x, mask, return_cache=True)
        grads.add_(net.backward(cache, _mse_grad(y, soft)))
    return grads, hard_loss


@dataclass
class TrainReport:
    train_losses: list
    val_losses: list
    best_epoch: int
    stopped_epoch: int
    rmse_by_rho: dict = field(default_factory=dict)
    rmse_by_power: dict = field(default_factory=dict)
    seed: int = 0


def _full_mask_for(net: SlimmableMLP, mode: str, layout: ObservationLayout | None):
    if mode == "S":
        return SlimMask(net.spec, 1.0,
                        active_inputs=input_mask_from_power(*POWER_MAX, layout))
    return SlimMask(net.spec)


def train_navigation(train_ds, val_ds, spec: MLPSpec, cfg: DistillConfig,
                     mode: str = "C", layout: ObservationLayout | None = None,
                     test_ds=None) -> tuple[SlimmableMLP, TrainReport]:
    """Distillation-train a navigation network.

    Shuffled minibatches, one Adam step per batch on the summed sandwich
    gradients. Early stopping tracks validation MSE at the full
    configuration with the given patience and restores the best snapshot.
    With ``cfg.distill`` false the sandwich is skipped and every batch takes
    a single full-configuration step against the hard targets; the result
    serves as the untrained-at-width control for slimming comparisons.
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
    full_mask = _full_mask_for(net, mode, layout)

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
            if not cfg.distill:
                y, cache = net.forward(xb, full_mask, return_cache=True)
                loss = _mse(y, yb)
                grads = net.backward(cache, _mse_grad(y, yb))
            elif mode == "C":
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
            best_weights = ([w.copy() for w in net.weights],
                            [b.copy() for b in net.biases])
        elif epoch - best_epoch >= cfg.patience:
            stopped = epoch
            break
    if best_weights is not None:
        net.weights = best_weights[0]
        net.biases = best_weights[1]
    report = TrainReport(train_losses=train_losses, val_losses=val_losses,
                         best_epoch=best_epoch, stopped_epoch=stopped,
                         seed=cfg.seed)
    if test_ds is not None:
        if mode == "C":
            report.rmse_by_rho = rmse_by_rho(net, test_ds)
        else:
            report.rmse_by_power = rmse_by_power(net, test_ds, layout)
    return net, report


def train_navigation_multi_seed(train_ds, val_ds, spec: MLPSpec,
                                cfg: DistillConfig, seeds, mode: str = "C",
                                layout: ObservationLayout | None = None,
                                test_ds=None):
    """Train once per seed and keep the network with the best validation
    loss. Returns (net, its report, all reports)."""
    best = None
    reports = []
    for seed in seeds:
        run_cfg = DistillConfig(**{**cfg.__dict__, "seed": int(seed)})
        net, rep = train_navigation(train_ds, val_ds, spec, run_cfg, mode,
                                    layout, test_ds)
        reports.append(rep)
        score = min(rep.val_losses)
        if best is None or score < best[0]:
            best = (score, net, rep)
    return best[1], best[2], reports


def rmse_on_dataset(net: SlimmableMLP, ds, mask: SlimMask | None = None) -> float:
    y = net.forward(ds.fifo_vectors, mask)
    return float(np.sqrt(np.mean((y - ds.targets) ** 2)))


def rmse_by_rho(net: SlimmableMLP, ds, rhos=(0.25, 0.5, 0.75, 1.0)) -> dict:
    return {float(r): rmse_on_dataset(net, ds, SlimMask(net.spec, r)) for r in rhos}


def rmse_by_power(net: SlimmableMLP, ds, layout: ObservationLayout,
                  combos=((1, 0), (2, 1), (3, 2), (3, 3))) -> dict:
    out = {}
    for p_f, p_d in combos:
        mask = SlimMask(net.spec, 1.0,
                        active_inputs=input_mask_from_power(p_f, p_d, layout))
        out[(p_f, p_d)] = rmse_on_dataset(net, ds, mask)
    return out


@dataclass
class EvalReport:
    success_rate: float
    mean_length_ratio: float
    n_episodes: int
    episodes: list


def evaluate_navigation(nav: SlimmableMLP, grid, tasks, *, mode: str = "C",
                        rho: float = 1.0, powers=POWER_MAX, depth: int = 4,
                        weights: RewardWeights | None = None,
                        vertical_locked: bool = False,
                        goal_radius: float = DEFAULT_GOAL_RADIUS,
                        max_step: float = DEFAULT_MAX_STEP,
                        max_range: float = DEFAULT_MAX_RANGE,
                        max_steps: int = 200) -> EvalReport:
    """Run the navigation network alone (no auxiliary adaptation) at a fixed
    slimming factor or power setting over the given tasks. The length ratio
    compares flown step counts to the optimal path's step count, over
    successful episodes."""
    logs = []
    res = grid.resolution
    for task in tasks:
        spawn = (np.asarray(task.spawn, dtype=float) + 0.5) * res
        goal = (np.asarray(task.goal, dtype=float) + 0.5) * res
        log = run_episode(grid, nav, None, mode, spawn=spawn, goal=goal,
                          weights=weights, depth=depth, fixed_rho=rho,
                          fixed_powers=powers, goal_radius=goal_radius,
                          max_step=max_step, max_range=max_range,
                          max_steps=max_steps, vertical_locked=vertical_locked,
                          optimal_path=task.path)
        logs.append(log)
    succ = [l for l in logs if l.outcome == REACHED]
    ratios = [l.path_steps / l.optimal_steps for l in succ if l.optimal_steps]
    return EvalReport(success_rate=len(succ) / len(logs) if logs else 0.0,
                      mean_length_ratio=float(np.mean(ratios)) if ratios else float("nan"),
                      n_episodes=len(logs), episodes=logs)
