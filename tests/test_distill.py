"""Sandwich-scheme distillation training: gradient composition, early
stopping, controls, and closed-loop evaluation."""

import math

import numpy as np
import pytest

from slimnav import distill, pathoracle, worldsim
from slimnav.auxtrain import fly_tasks, length_ratio, success_rate
from slimnav.distill import (DistillConfig,
                             rmse_by_power, rmse_by_rho, rmse_on_dataset,
                             supervised_distillation_C,
                             supervised_distillation_S, train_navigation)
from slimnav.errors import ConfigError
from slimnav.pathoracle import LabeledDataset
from slimnav.slimnet import MLPSpec, SlimMask, SlimmableMLP
from slimnav.worldsim import OBS_WIDTH, ObservationLayout


def toy_dataset(n, u, seed, depth=1):
    """Synthetic smooth regression task with the LabeledDataset shape."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, u))
    w = rng.normal(size=(u, 3)) / np.sqrt(u)
    y = np.tanh(x @ w)
    return LabeledDataset(fifo_vectors=x, targets=y, depth=depth)


@pytest.fixture(scope="module")
def toy():
    return (toy_dataset(500, 24, 0), toy_dataset(120, 24, 1),
            toy_dataset(120, 24, 2))


# ---------------------------------------------------------------------------
# config validation

def test_config_validation():
    with pytest.raises(ConfigError):
        DistillConfig(rho_min=0.0)
    with pytest.raises(ConfigError):
        DistillConfig(rho_min=1.5)
    with pytest.raises(ConfigError):
        DistillConfig(n_random_rhos=-1)
    with pytest.raises(ConfigError):
        DistillConfig(batch_size=0)
    with pytest.raises(ConfigError):
        DistillConfig(patience=0)
    with pytest.raises(ConfigError):
        DistillConfig(lr=0.0)


def test_train_rejects_bad_mode_and_empty_data(toy):
    train, val, _ = toy
    spec = MLPSpec(u=24, q=(8,), v=3)
    with pytest.raises(ConfigError):
        train_navigation(train, val, spec, DistillConfig(), mode="X")
    empty = LabeledDataset(fifo_vectors=np.zeros((0, 24)),
                           targets=np.zeros((0, 3)), depth=1)
    with pytest.raises(ConfigError):
        train_navigation(empty, val, spec, DistillConfig())


# ---------------------------------------------------------------------------
# sandwich gradient composition

def test_degenerate_sandwich_equals_plain_gradient():
    # with rho_min=1 and no random draws, every sandwich pass runs at full
    # width; the soft-target passes see zero error and contribute nothing
    spec = MLPSpec(u=10, q=(6, 4), v=2)
    net = SlimmableMLP(spec, seed=1)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 10))
    t = rng.normal(size=(16, 2))
    cfg = DistillConfig(rho_min=1.0, n_random_rhos=1)
    grads, hard = supervised_distillation_C(net, x, t, cfg, np.random.default_rng(5))
    y, cache = net.forward(x, return_cache=True)
    plain = net.backward(cache, distill._mse_grad(y, t))
    assert hard == pytest.approx(distill._mse(y, t))
    for a, b in zip(grads.weights, plain.weights):
        assert np.array_equal(a, b)
    for a, b in zip(grads.biases, plain.biases):
        assert np.array_equal(a, b)


def test_sandwich_adds_subwidth_gradients():
    # at rho_min < 1 the slim passes disagree with the soft targets, so the
    # summed gradients must differ from the plain full-width gradients
    spec = MLPSpec(u=10, q=(6, 4), v=2)
    net = SlimmableMLP(spec, seed=1)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(16, 10))
    t = rng.normal(size=(16, 2))
    cfg = DistillConfig(rho_min=0.25, n_random_rhos=0)
    grads, _ = supervised_distillation_C(net, x, t, cfg, np.random.default_rng(5))
    y, cache = net.forward(x, return_cache=True)
    plain = net.backward(cache, distill._mse_grad(y, t))
    assert any(not np.array_equal(a, b)
               for a, b in zip(grads.weights, plain.weights))


def test_sandwich_sensing_masks_inputs():
    layout = ObservationLayout(1)
    spec = MLPSpec(u=layout.depth * OBS_WIDTH, q=(12,), v=3)
    net = SlimmableMLP(spec, seed=2)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(8, spec.u))
    t = rng.normal(size=(8, 3))
    cfg = DistillConfig(n_random_powers=1)
    grads, _ = supervised_distillation_S(net, x, t, cfg,
                                         np.random.default_rng(3), layout)
    # rays outside every drawn power level never contribute: with the
    # minimal pair (1, 0) in the sandwich, the downward block is masked in
    # at least one pass, but the full pass keeps everything active, so all
    # first-layer rows still receive gradient
    assert grads.weights[0].shape == (spec.u, 12)
    assert np.any(grads.weights[0] != 0.0)


# ---------------------------------------------------------------------------
# training loop contract

def test_early_stopping_restores_best_snapshot(toy):
    train, val, _ = toy
    spec = MLPSpec(u=24, q=(16, 8), v=3)
    cfg = DistillConfig(max_epochs=40, patience=4, seed=3, batch_size=64)
    net, rep = train_navigation(train, val, spec, cfg)
    assert rep.val_losses[rep.best_epoch - 1] == min(rep.val_losses)
    # the returned network is the best snapshot, not the last iterate
    full = SlimMask(spec)
    recomputed = distill._mse(net.forward(val.fifo_vectors, full), val.targets)
    assert recomputed == pytest.approx(min(rep.val_losses), rel=1e-12)
    if rep.stopped_epoch < cfg.max_epochs:
        assert rep.stopped_epoch - rep.best_epoch >= cfg.patience
    assert len(rep.train_losses) == len(rep.val_losses) == rep.stopped_epoch


def test_training_is_deterministic(toy):
    train, val, _ = toy
    spec = MLPSpec(u=24, q=(12,), v=3)
    cfg = DistillConfig(max_epochs=5, seed=7)
    n1, _ = train_navigation(train, val, spec, cfg)
    n2, _ = train_navigation(train, val, spec, cfg)
    for a, b in zip(n1.weights, n2.weights):
        assert np.array_equal(a, b)
    n3, _ = train_navigation(train, val, spec,
                             DistillConfig(max_epochs=5, seed=8))
    assert any(not np.array_equal(a, b) for a, b in zip(n1.weights, n3.weights))


def test_distilled_beats_control_at_low_rho(toy):
    train, val, test = toy
    spec = MLPSpec(u=24, q=(16, 8), v=3)
    base = dict(max_epochs=30, patience=30, seed=4, batch_size=64)
    distilled, _ = train_navigation(train, val, spec, DistillConfig(**base))
    # the sandwich at rho_min 1 without random draws: the extra full-width
    # pass has zero error and zero gradient, so this is plain training
    control, _ = train_navigation(train, val, spec,
                                  DistillConfig(rho_min=1.0, n_random_rhos=0,
                                                **base))
    r_d = rmse_on_dataset(distilled, test, SlimMask(spec, 0.25))
    r_c = rmse_on_dataset(control, test, SlimMask(spec, 0.25))
    assert r_d < r_c
    # at full width both are competent
    assert rmse_on_dataset(control, test) < 2 * rmse_on_dataset(distilled, test)


@pytest.mark.parametrize("mode", ["C", "S"])
def test_passes_run_in_float32_and_validation_in_float64(mode, monkeypatch):
    # train_navigation hands the sandwich float32 minibatches and targets,
    # cut from the float64 dataset one batch at a time, and validates in float64
    layout = ObservationLayout(1)
    train = toy_dataset(40, layout.depth * OBS_WIDTH, 3)
    val = toy_dataset(10, layout.depth * OBS_WIDTH, 4)
    batches, plain = [], []
    sandwich, forward = distill._sandwich, SlimmableMLP.forward

    def sandwich_spy(net, x, targets, masks):
        batches.append((x.dtype, targets.dtype, len(x)))
        return sandwich(net, x, targets, masks)

    def forward_spy(net, x, mask=None, return_cache=False):
        if not return_cache:
            plain.append(np.asarray(x).dtype)
        return forward(net, x, mask, return_cache)

    monkeypatch.setattr(distill, "_sandwich", sandwich_spy)
    monkeypatch.setattr(SlimmableMLP, "forward", forward_spy)
    cfg = DistillConfig(max_epochs=2, patience=2, batch_size=16)
    train_navigation(train, val, MLPSpec(u=train.fifo_vectors.shape[1], q=(8,), v=3),
                     cfg, mode=mode, layout=layout)
    assert batches == [(np.float32, np.float32, n) for n in (16, 16, 8)] * 2
    assert plain == [np.float64] * 2
    assert train.fifo_vectors.dtype == np.float64


def test_training_in_sensing_mode(toy):
    layout = ObservationLayout(1)
    train = toy_dataset(400, layout.depth * OBS_WIDTH, 10)
    val = toy_dataset(100, layout.depth * OBS_WIDTH, 11)
    test = toy_dataset(100, layout.depth * OBS_WIDTH, 12)
    spec = MLPSpec(u=layout.depth * OBS_WIDTH, q=(16,), v=3)
    cfg = DistillConfig(max_epochs=8, seed=0, n_random_powers=1)
    net, _ = train_navigation(train, val, spec, cfg, mode="S", layout=layout)
    table = rmse_by_power(net, test, layout)
    assert set(table) == {(1, 0), (2, 1), (3, 2), (3, 3)}
    assert all(np.isfinite(v) for v in table.values())


# ---------------------------------------------------------------------------
# metrics helpers

def test_rmse_helpers_match_manual(toy):
    _, _, test = toy
    spec = MLPSpec(u=24, q=(8,), v=3)
    net = SlimmableMLP(spec, seed=0)
    got = rmse_on_dataset(net, test)
    want = np.sqrt(np.mean((net.forward(test.fifo_vectors) - test.targets) ** 2))
    assert got == pytest.approx(want, rel=1e-12)
    table = rmse_by_rho(net, test)
    assert set(table) == {0.25, 0.5, 0.75, 1.0}
    got25 = rmse_on_dataset(net, test, SlimMask(spec, 0.25))
    assert table[0.25] == pytest.approx(got25, rel=1e-12)


def test_rmse_by_power_uses_input_masks():
    layout = ObservationLayout(1)
    test = toy_dataset(50, layout.depth * OBS_WIDTH, 13)
    spec = MLPSpec(u=layout.depth * OBS_WIDTH, q=(8,), v=3)
    net = SlimmableMLP(spec, seed=1)
    table = rmse_by_power(net, test, layout)
    assert len(table) == 4
    # masking away rays changes the prediction of an untrained network
    assert table[(1, 0)] != table[(3, 3)]


# ---------------------------------------------------------------------------
# closed-loop evaluation in an empty world

@pytest.fixture(scope="module")
def empty_world_net():
    grid = worldsim.generate_world((20, 20, 8), resolution=1.0)
    graph = pathoracle.build_graph(grid, vertical_locked=True)
    regions = pathoracle.partition_regions(grid, (0.6, 0.2, 0.2))
    sampler = pathoracle.TaskSampler(graph, regions, flight_z=3)
    rng = np.random.default_rng(0)
    paths = [sampler.sample("train", 6.0, rng).path for _ in range(40)]
    train = pathoracle.label_dataset(grid, paths, depth=4)
    vpaths = [sampler.sample("validation", 5.0, rng).path for _ in range(8)]
    val = pathoracle.label_dataset(grid, vpaths, depth=4)
    spec = MLPSpec(u=4 * OBS_WIDTH, q=(32, 16), v=3,
                   output_activation="tanh", output_scale=2.0)
    cfg = DistillConfig(max_epochs=40, patience=8, seed=0)
    net, _ = train_navigation(train, val, spec, cfg)
    tasks = [sampler.sample("test", 6.0, rng) for _ in range(10)]
    return sampler, net, tasks


def test_evaluate_navigation_in_empty_world(empty_world_net):
    sampler, net, tasks = empty_world_net
    logs = fly_tasks(sampler, tasks, net, "C")
    assert len(logs) == 10
    assert success_rate(logs) == 1.0            # no obstacles to hit
    assert 0.5 <= length_ratio(logs) <= 2.0
    assert all(l.outcome == worldsim.REACHED for l in logs)


def test_evaluate_navigation_without_tasks_has_no_rates(empty_world_net):
    sampler, net, _ = empty_world_net
    assert fly_tasks(sampler, [], net, "C") == []
    assert math.isnan(success_rate([])) and math.isnan(length_ratio([]))


def test_evaluate_navigation_slim_still_flies(empty_world_net):
    sampler, net, tasks = empty_world_net
    # a static half-width baseline is a constant policy
    slim = fly_tasks(sampler, tasks, net, "C", lambda x: [0.5])
    assert success_rate(slim) >= 0.8            # distilled sub-width keeps skill
