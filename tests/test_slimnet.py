"""Slimmable MLP: masking, truncation equivalence, parameter counting,
gradients, optimizers, and the weight file format."""
import hashlib

import numpy as np
import pytest

from slimnav.auxtrain import ReplayBuffer, TD3Agent, TD3Config
from slimnav.distill import DistillConfig, _mse_grad, _sandwich, train_navigation
from slimnav.errors import ConfigError, LoadError, TrainingError
from slimnav.pathoracle import LabeledDataset
from slimnav.slimnet import (Adam, Grads, MLPSpec, SlimMask, SlimmableMLP,
                             active_params, active_width, load_weights,
                             save_weights)
from slimnav.worldsim import (DOWNWARD_LEVELS, FORWARD_LEVELS, MIN_POWER,
                              OBS_WIDTH, ObservationLayout)
from slim_reference import reference_backward, reference_forward


def small_spec(**kw):
    defaults = dict(u=6, q=(8, 5), v=2)
    defaults.update(kw)
    return MLPSpec(**defaults)


# --- spec and mask ---

def test_spec_validation():
    with pytest.raises(ConfigError):
        MLPSpec(u=0, q=(4,), v=1)
    with pytest.raises(ConfigError):
        MLPSpec(u=2, q=(), v=1)
    with pytest.raises(ConfigError):
        MLPSpec(u=2, q=(4,), v=1, output_activation="bounded")
    with pytest.raises(ConfigError):
        MLPSpec(u=2, q=(4,), v=2, output_activation="bounded",
                output_low=(0.0,), output_high=(1.0,))
    with pytest.raises(ConfigError):
        MLPSpec(u=2, q=(4,), v=1, output_activation="tanh", output_scale=float("nan"))
    for lo, hi in ((-np.inf, 1.0), (0.0, np.inf), (np.nan, 1.0)):
        with pytest.raises(ConfigError):
            MLPSpec(u=2, q=(4,), v=1, output_activation="bounded",
                    output_low=(lo,), output_high=(hi,))
    MLPSpec(u=2, q=(4,), v=1, output_activation="bounded",
            output_low=(0.25,), output_high=(1.0,))
    # widths are integers, bools excluded; numpy integers are integers
    for bad in (dict(u=2.5), dict(u=True), dict(v=np.bool_(True)),
                dict(q=(2.5,)), dict(q=("2",)), dict(q=(True, 4))):
        with pytest.raises(ConfigError):
            MLPSpec(**{**dict(u=2, q=(4,), v=1), **bad})
    assert MLPSpec(u=np.int64(2), q=(np.int32(4),), v=1) == MLPSpec(u=2, q=(4,), v=1)


def test_active_width_prefix_rule():
    # roof(rho * q): one-node floor, full width at rho = 1
    assert active_width(0.3, 4) == 2 and active_width(0.3, 2) == 1
    assert active_width(1.0, 7) == 7
    assert active_width(0.01, 9) == 1
    assert active_width(0.5, 5) == 3


def test_slim_mask():
    spec = small_spec()
    m = SlimMask(spec, 0.5)
    assert m.active_hidden == (4, 3)
    assert m.input_index is None
    with pytest.raises(ValueError):
        SlimMask(spec, 0.0)
    with pytest.raises(ValueError):
        SlimMask(spec, 1.1)
    with pytest.raises(ValueError):
        SlimMask(spec, 1.0, active_inputs=np.zeros(6, dtype=bool))
    sub = SlimMask(spec, 1.0, active_inputs=np.arange(6) < 3)
    assert np.array_equal(sub.input_index, [0, 1, 2])


# --- parameter counting (closed-form quadratic vs enumeration) ---

def brute_force_params(spec, rho, active_inputs=None):
    """Independent count: enumerate the active sub-network layer by layer."""
    u = spec.u if active_inputs is None else int(np.sum(active_inputs))
    widths = [int(np.ceil(rho * qi)) for qi in spec.q]
    sizes = [u, *widths, spec.v]
    return sum(sizes[i] * sizes[i + 1] + sizes[i + 1]
               for i in range(len(sizes) - 1))


def test_active_params_known_case():
    spec = MLPSpec(u=2, q=(4, 2), v=1)
    exact_full, cont_full = active_params(spec, 1.0)
    exact_half, cont_half = active_params(spec, 0.5)
    assert exact_full == 25 and cont_full == 25.0
    assert exact_half == 11 and cont_half == 11.0
    # quadratic coefficients: a = sum q_i q_{i+1}, b = u q_1 + v q_l + sum q_i
    a, b, c = 8, 2 * 4 + 1 * 2 + 6, 1
    for rho in (0.3, 0.6, 1.0):
        assert active_params(spec, rho)[1] == pytest.approx(a * rho**2 + b * rho + c)


def test_active_params_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(25):
        spec = MLPSpec(u=int(rng.integers(1, 40)),
                       q=tuple(int(rng.integers(1, 30))
                               for _ in range(int(rng.integers(1, 4)))),
                       v=int(rng.integers(1, 8)))
        for rho in (0.1, 0.25, 0.5, 0.75, 1.0):
            assert active_params(spec, rho)[0] == brute_force_params(spec, rho)


def test_active_params_with_input_mask():
    spec = small_spec()
    mask = np.arange(6) < 4
    got = active_params(spec, 0.5, active_inputs=mask)[0]
    assert got == brute_force_params(spec, 0.5, active_inputs=mask)
    with pytest.raises(ValueError):     # rejected as SlimMask rejects it
        active_params(spec, 0.5, active_inputs=np.zeros(6, dtype=bool))
    with pytest.raises(ValueError):
        active_params(spec, 0.5, active_inputs=np.ones(5, dtype=bool))
    with pytest.raises(ValueError):
        active_params(spec, 0.0)


# --- forward masking == physical truncation ---

def test_fig5_case_truncation_equivalence():
    # q = [4, 2] at rho = 0.3 activates hidden widths (2, 1)
    spec = MLPSpec(u=2, q=(4, 2), v=1)
    net = SlimmableMLP(spec, seed=1)
    mask = SlimMask(spec, 0.3)
    assert mask.active_hidden == (2, 1)
    x = np.random.default_rng(2).normal(size=(5, 2))
    sub = net.truncated(mask)
    assert [w.shape for w in sub.weights] == [(2, 2), (2, 1), (1, 1)]
    assert np.array_equal(net.forward(x, mask), sub.forward(x))  # bit identical


def test_masked_forward_equals_truncated_many_configs():
    rng = np.random.default_rng(3)
    layout = ObservationLayout(2)
    spec = MLPSpec(u=layout.depth * OBS_WIDTH, q=(13, 7, 5), v=3,
                   output_activation="tanh", output_scale=2.0)
    net = SlimmableMLP(spec, seed=4)
    x = rng.normal(size=(4, spec.u))
    for rho in (0.15, 0.4, 0.8, 1.0):
        for powers in ((3, 3), (1, 0), (2, 1)):
            keep = layout.input_mask(*powers)
            m = SlimMask(spec, rho, active_inputs=keep)
            sub = net.truncated(m)
            assert np.array_equal(net.forward(x, m), sub.forward(x[:, keep]))


def test_severed_weights_do_not_affect_masked_output():
    spec = small_spec()
    net = SlimmableMLP(spec, seed=5)
    mask = SlimMask(spec, 0.5)
    x = np.random.default_rng(6).normal(size=(3, 6))
    y = net.forward(x, mask)
    poisoned = net.copy()
    for i, h in enumerate(mask.active_hidden):      # scribble on severed parts
        poisoned.weights[i][:, h:] = 1e9
        poisoned.biases[i][h:] = -1e9
    poisoned.weights[-1][mask.active_hidden[-1]:, :] = 1e9
    assert np.array_equal(poisoned.forward(x, mask), y)


def test_masked_input_zeros_are_not_read():
    spec = small_spec()
    net = SlimmableMLP(spec, seed=7)
    keep = np.array([True, False, True, True, False, True])
    mask = SlimMask(spec, 1.0, active_inputs=keep)
    rng = np.random.default_rng(8)
    x = rng.normal(size=(2, 6))
    x2 = x.copy()
    x2[:, ~keep] = 123.0    # junk on inactive inputs must be invisible
    assert np.array_equal(net.forward(x, mask), net.forward(x2, mask))


def test_bounded_output_range():
    spec = MLPSpec(u=3, q=(6,), v=2, output_activation="bounded",
                   output_low=(0.25, -1.0), output_high=(1.0, 3.0))
    net = SlimmableMLP(spec, seed=9)
    y = net.forward(np.random.default_rng(10).normal(size=(50, 3)) * 10)
    assert np.all(y[:, 0] >= 0.25) and np.all(y[:, 0] <= 1.0)
    assert np.all(y[:, 1] >= -1.0) and np.all(y[:, 1] <= 3.0)


# --- gradients ---

def numeric_grad(net, x, target, mask, param, eps=1e-5):
    def loss():
        y = net.forward(x, mask)
        return float(np.mean((y - target) ** 2))

    g = np.zeros_like(param)
    it = np.nditer(param, flags=["multi_index"])
    for _ in it:
        i = it.multi_index
        old = param[i]
        param[i] = old + eps
        hi = loss()
        param[i] = old - eps
        lo = loss()
        param[i] = old
        g[i] = (hi - lo) / (2 * eps)
    return g


@pytest.mark.parametrize("output", ["identity", "tanh"])
def test_backward_matches_finite_differences(output):
    rng = np.random.default_rng(11)
    spec = MLPSpec(u=5, q=(7, 4), v=2, output_activation=output,
                   output_scale=2.0)
    net = SlimmableMLP(spec, seed=12)
    x = rng.normal(size=(6, 5))
    target = rng.normal(size=(6, 2))
    for rho, keep in ((1.0, None), (0.5, rng.random(5) > 0.3)):
        if keep is not None and not keep.any():
            keep[0] = True
        mask = SlimMask(spec, rho, active_inputs=keep)
        y, cache = net.forward(x, mask, return_cache=True)
        grads = net.backward(cache, 2.0 * (y - target) / y.size)
        for li in range(len(net.weights)):
            num = numeric_grad(net, x, target, mask, net.weights[li])
            denom = max(np.abs(num).max(), 1e-8)
            assert np.abs(grads.weights[li] - num).max() / denom < 1e-4
            numb = numeric_grad(net, x, target, mask, net.biases[li])
            denomb = max(np.abs(numb).max(), 1e-8)
            assert np.abs(grads.biases[li] - numb).max() / denomb < 1e-4


def test_backward_zero_on_severed_parameters():
    spec = small_spec()
    net = SlimmableMLP(spec, seed=13)
    mask = SlimMask(spec, 0.5)
    x = np.random.default_rng(14).normal(size=(4, 6))
    y, cache = net.forward(x, mask, return_cache=True)
    grads = net.backward(cache, np.ones_like(y))
    for i, h in enumerate(mask.active_hidden):
        assert not grads.weights[i][:, h:].any()
        assert not grads.biases[i][h:].any()
    assert not grads.weights[-1][mask.active_hidden[-1]:, :].any()


def test_input_gradient_matches_finite_differences():
    spec = small_spec()
    net = SlimmableMLP(spec, seed=15)
    rng = np.random.default_rng(16)
    x = rng.normal(size=6)
    y, cache = net.forward(x, return_cache=True)
    g = np.ones_like(y)
    dx = net.input_grad(cache, g)
    eps = 1e-6
    for i in range(6):
        xp, xm = x.copy(), x.copy()
        xp[i] += eps
        xm[i] -= eps
        num = (net.forward(xp).sum() - net.forward(xm).sum()) / (2 * eps)
        assert abs(dx[i] - num) < 1e-5


# --- one slicer against the per-layer slicing it replaced ---

NAV_SPEC = MLPSpec(u=4 * OBS_WIDTH, q=(128, 128), v=3,
                   output_activation="tanh", output_scale=2.0)


def _random_net(spec, seed):
    """A seeded net whose biases are nonzero too, so every block is read."""
    net = SlimmableMLP(spec, seed=seed)
    rng = np.random.default_rng(seed)
    for b in net.biases:
        b[:] = rng.uniform(-0.5, 0.5, size=b.size).astype(np.float32)
    return net


def _assert_matches_reference(net, mask, rng, keep=None):
    """Outputs, parameter gradients and input gradients byte-equal to the
    reference passes at batch 1 (one vector) and at batch 64; the outputs
    of the truncated copy (fed the inputs `keep` selects, None: all) and of
    forwards through held blocks too."""
    sub = net.truncated(mask)
    held = net.hold(mask)
    for x in (rng.uniform(0.0, 1.0, size=net.spec.u),
              rng.uniform(0.0, 1.0, size=(64, net.spec.u))):
        g = rng.normal(size=(*x.shape[:-1], net.spec.v))
        y, cache = net.forward(x, mask, return_cache=True)
        y_ref, cache_ref = reference_forward(net, x, mask, return_cache=True)
        assert y.tobytes() == y_ref.tobytes()
        assert net.forward(x, mask).tobytes() == y_ref.tobytes()
        assert net.forward(x, held).tobytes() == y_ref.tobytes()
        assert sub.forward(x if keep is None else x[..., keep]).tobytes() == y_ref.tobytes()
        grads = net.backward(cache, g)
        ref = reference_backward(net, cache_ref, g)
        assert grads.params.tobytes() == ref.params.tobytes()
        assert net.input_grad(cache, g).tobytes() == ref.inputs.tobytes()


def test_slicer_matches_reference_at_every_width():
    net = _random_net(NAV_SPEC, 31)
    rng = np.random.default_rng(32)
    for h in range(active_width(0.25, 128), 129):     # every width at rho_min 0.25
        mask = SlimMask(NAV_SPEC, h / 128)
        assert mask.active_hidden == (h, h)
        _assert_matches_reference(net, mask, rng)


def test_slicer_matches_reference_at_every_power_mask():
    net = _random_net(NAV_SPEC, 33)
    layout = ObservationLayout(4)
    rng = np.random.default_rng(34)
    for p_f in FORWARD_LEVELS:
        for p_d in DOWNWARD_LEVELS:
            keep = layout.input_mask(p_f, p_d)
            _assert_matches_reference(net, SlimMask(NAV_SPEC, 1.0, keep), rng, keep)
            _assert_matches_reference(net, SlimMask(NAV_SPEC, 0.5, keep), rng, keep)


def test_slicer_matches_reference_for_td3_nets():
    rng = np.random.default_rng(35)
    critic = _random_net(MLPSpec(u=4 * OBS_WIDTH + 1, q=(64, 64), v=1), 36)
    actor = _random_net(MLPSpec(u=4 * OBS_WIDTH, q=(32, 32), v=2,
                                output_activation="bounded",
                                output_low=(1.0, 0.0), output_high=(3.0, 3.0)), 37)
    for net in (critic, actor):
        _assert_matches_reference(net, SlimMask(net.spec), rng)
        _assert_matches_reference(net, SlimMask(net.spec, 0.25), rng)


# --- blocks held for a flight ---

def test_plain_mask_never_meets_a_stale_block():
    # outside a flight a mask holds no blocks: a forward after an update
    # reads the updated weights, where a per-mask memo would not
    net = _random_net(NAV_SPEC, 47)
    rng = np.random.default_rng(48)
    keep = ObservationLayout(4).input_mask(2, 1)
    mask = SlimMask(NAV_SPEC, 0.5, keep)
    x = rng.uniform(0.0, 1.0, NAV_SPEC.u)
    before = net.forward(x, mask)
    assert before.tobytes() == reference_forward(net, x, SlimMask(NAV_SPEC, 0.5, keep)).tobytes()
    _, cache = net.forward(x, mask, return_cache=True)
    Adam(net, lr=1e-2).step(net.backward(cache, np.ones(NAV_SPEC.v)))
    after = net.forward(x, mask)
    assert after.tobytes() == reference_forward(net, x, SlimMask(NAV_SPEC, 0.5, keep)).tobytes()
    assert after.tobytes() != before.tobytes()


def test_held_mask_serves_only_its_own_network():
    net = _random_net(NAV_SPEC, 49)
    other = _random_net(NAV_SPEC, 50)
    mask = SlimMask(NAV_SPEC, 0.75, ObservationLayout(4).input_mask(1, 3))
    held = net.hold(mask)
    assert mask.held is None        # the plain mask is left without blocks
    x = np.random.default_rng(51).uniform(0.0, 1.0, NAV_SPEC.u)
    assert other.forward(x, held).tobytes() == reference_forward(other, x, mask).tobytes()
    assert (held.active_hidden, held.input_index.tobytes()) == \
        (mask.active_hidden, mask.input_index.tobytes())


def _assert_sandwich_matches_reference(net, masks, rng):
    """distill's sandwich, which adds every pass into the first pass's
    Grads with backward(into=), byte-equal to the reference passes' fresh
    gradients added in pass order."""
    x = rng.uniform(0.0, 1.0, size=(64, net.spec.u))
    t = rng.uniform(-1.0, 1.0, size=(64, net.spec.v))
    grads, _ = _sandwich(net, x, t, masks)
    soft = reference_forward(net, x, masks[0])
    total = None
    for k, mask in enumerate(masks):
        y, cache = reference_forward(net, x, mask, return_cache=True)
        ref = reference_backward(net, cache, _mse_grad(y, t if k == 0 else soft))
        total = ref.params if total is None else total + ref.params
    assert grads.params.tobytes() == total.tobytes()


def test_sandwich_accumulator_matches_reference_at_every_width():
    net = _random_net(NAV_SPEC, 38)
    rng = np.random.default_rng(39)
    lo = active_width(0.25, 128)
    for h in range(lo, 129):    # every width from rho_min 0.25 up, in both draw slots
        masks = [SlimMask(NAV_SPEC, r) for r in (1.0, 0.25, h / 128, (lo + 128 - h) / 128)]
        _assert_sandwich_matches_reference(net, masks, rng)


def test_sandwich_accumulator_matches_reference_at_every_power_mask():
    net = _random_net(NAV_SPEC, 40)
    layout = ObservationLayout(4)
    rng = np.random.default_rng(41)
    for p_f in FORWARD_LEVELS:
        for p_d in DOWNWARD_LEVELS:
            keep = layout.input_mask(p_f, p_d)
            masks = [SlimMask(NAV_SPEC),
                     SlimMask(NAV_SPEC, 1.0, layout.input_mask(*MIN_POWER)),
                     SlimMask(NAV_SPEC, 1.0, keep), SlimMask(NAV_SPEC, 0.25, keep)]
            _assert_sandwich_matches_reference(net, masks, rng)


def test_input_grad_matches_reference_with_zero_masked_columns():
    net = _random_net(NAV_SPEC, 42)
    layout = ObservationLayout(4)
    rng = np.random.default_rng(43)
    for p_f in FORWARD_LEVELS:
        for p_d in DOWNWARD_LEVELS:
            keep = layout.input_mask(p_f, p_d)
            for rho in (1.0, 0.25):
                mask = SlimMask(NAV_SPEC, rho, keep)
                for x in (rng.uniform(0.0, 1.0, size=NAV_SPEC.u),
                          rng.uniform(0.0, 1.0, size=(64, NAV_SPEC.u))):
                    g = rng.normal(size=(*x.shape[:-1], NAV_SPEC.v))
                    _, cache = net.forward(x, mask, return_cache=True)
                    _, cache_ref = reference_forward(net, x, mask, return_cache=True)
                    dx = net.input_grad(cache, g)
                    ref = reference_backward(net, cache_ref, g)
                    assert dx.shape == x.shape
                    assert dx.tobytes() == ref.inputs.tobytes()
                    masked = dx[..., ~keep]         # +0.0 on every masked-out input
                    assert masked.tobytes() == bytes(masked.nbytes)


# --- float32 passes ---

def _assert_float32_matches_truncated(net, mask, rng, keep=None):
    """A float32 forward, through the mask and through held blocks, byte-equal
    to the truncated copy's float32 forward, fed the inputs `keep` selects
    (None: all), at batch 1 and at batch 64."""
    sub = net.truncated(mask)
    held = net.hold(mask)
    for x in (rng.uniform(0.0, 1.0, size=net.spec.u),
              rng.uniform(0.0, 1.0, size=(64, net.spec.u))):
        x = x.astype(np.float32)
        y = net.forward(x, mask)
        assert y.dtype == np.float32
        assert y.tobytes() == sub.forward(x if keep is None else x[..., keep]).tobytes()
        assert net.forward(x, held).tobytes() == y.tobytes()


def test_float32_masked_equals_truncated_at_every_width():
    net = _random_net(NAV_SPEC, 53)
    rng = np.random.default_rng(54)
    for h in range(active_width(0.25, 128), 129):
        _assert_float32_matches_truncated(net, SlimMask(NAV_SPEC, h / 128), rng)


def test_float32_masked_equals_truncated_at_every_power_mask():
    net = _random_net(NAV_SPEC, 55)
    layout = ObservationLayout(4)
    rng = np.random.default_rng(56)
    for p_f in FORWARD_LEVELS:
        for p_d in DOWNWARD_LEVELS:
            keep = layout.input_mask(p_f, p_d)
            _assert_float32_matches_truncated(net, SlimMask(NAV_SPEC, 1.0, keep), rng, keep)
            _assert_float32_matches_truncated(net, SlimMask(NAV_SPEC, 0.5, keep), rng, keep)


def _close(got, want):
    """Within 100 float32 epsilons of the largest magnitude of `want`: a
    rounding bound for float32 products that sum hundreds of terms."""
    return np.abs(got - want).max() <= 100 * np.finfo(np.float32).eps * np.abs(want).max()


def test_float32_gradients_match_float64_within_float32_rounding():
    # the same float32-valued batch run both ways: float32 outputs, input
    # gradients and parameter gradients (stored float64) agree with the
    # float64 ones to float32 precision, and severed blocks stay exactly zero
    rng = np.random.default_rng(57)
    layout = ObservationLayout(4)
    actor = _random_net(MLPSpec(u=4 * OBS_WIDTH, q=(32, 32), v=2,
                                output_activation="bounded",
                                output_low=(1.0, 0.0), output_high=(3.0, 3.0)), 58)
    nav = _random_net(NAV_SPEC, 59)
    keep = layout.input_mask(2, 1)
    for net, mask in ((nav, None), (nav, SlimMask(NAV_SPEC, 0.25)),
                      (nav, SlimMask(NAV_SPEC, 0.5, keep)), (actor, None)):
        x = rng.uniform(0.0, 1.0, size=(64, net.spec.u)).astype(np.float32)
        g = rng.normal(size=(64, net.spec.v)).astype(np.float32)
        y32, c32 = net.forward(x, mask, return_cache=True)
        y64, c64 = net.forward(x.astype(np.float64), mask, return_cache=True)
        assert (y32.dtype, y64.dtype) == (np.float32, np.float64)
        assert _close(y32, y64)
        dx32, dx64 = net.input_grad(c32, g), net.input_grad(c64, g)
        assert dx32.dtype == np.float32 and _close(dx32, dx64)
        gr32, gr64 = net.backward(c32, g), net.backward(c64, g)
        assert gr32.params.dtype == np.float64 and _close(gr32.params, gr64.params)
        if mask is not None:
            h = mask.active_hidden[0]
            assert not gr32.weights[0][:, h:].any() and not gr32.biases[0][h:].any()
            assert mask.input_index is None or not dx32[:, ~keep].any()


# --- the full-width forward ---

def test_full_width_forward_reads_params_after_every_update():
    # a full-width float64 forward reads views of params; an Adam step, a
    # Polyak average and a snapshot restore all write params in place, and
    # each forward after them equals a freshly sliced one
    agent = TD3Agent(5, [0.0, -1.0], [1.0, 1.0], TD3Config(tau=0.3),
                     actor_hidden=(6,), critic_hidden=(7,), seed=8)
    net, target = agent.actor, agent.actor_target
    x = np.random.default_rng(9).normal(size=(4, 5))

    def assert_fresh(n):
        y = n.forward(x)
        assert y.tobytes() == n.forward(x, SlimMask(n.spec)).tobytes()
        assert y.tobytes() == reference_forward(n, x).tobytes()
        return y.tobytes()

    snapshot = net.params.copy()
    before = assert_fresh(net), assert_fresh(target)
    _, cache = net.forward(x, return_cache=True)
    Adam(net, lr=1e-2).step(net.backward(cache, np.ones((4, 2))))
    assert assert_fresh(net) != before[0]
    agent._polyak()
    assert assert_fresh(target) != before[1]
    net.params[:] = snapshot
    assert assert_fresh(net) == before[0]


# --- optimizers ---

def test_adam_step_deterministic_and_f32_canonical():
    spec = small_spec()
    x = np.random.default_rng(17).normal(size=(8, 6))
    t = np.random.default_rng(18).normal(size=(8, 2))

    def one_run():
        net = SlimmableMLP(spec, seed=19)
        opt = Adam(net, 1e-2)
        for _ in range(3):
            y, cache = net.forward(x, return_cache=True)
            opt.step(net.backward(cache, 2 * (y - t) / y.size))
        return net

    a, b = one_run(), one_run()
    for wa, wb in zip(a.weights, b.weights):
        assert np.array_equal(wa, wb)
        assert np.array_equal(wa, wa.astype(np.float32).astype(np.float64))


def test_adam_in_place_step_equals_the_expression():
    # the update as one expression, the form Adam.step had before it ran in
    # place on a scratch array
    spec = small_spec()
    net = SlimmableMLP(spec, seed=23)
    opt = Adam(net, 3e-3)
    p, m, v = net.params.copy(), np.zeros_like(net.params), np.zeros_like(net.params)
    rng = np.random.default_rng(24)
    for t in range(1, 7):
        grads = Grads(spec)
        grads.params[:] = rng.normal(size=p.size) * 10.0 ** rng.integers(-6, 3)
        opt.step(grads)
        g = grads.params
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g * g
        c1, c2 = 1.0 - 0.9**t, 1.0 - 0.999**t
        p = (p - 3e-3 * (m / c1) / (np.sqrt(v / c2) + 1e-8)
             ).astype(np.float32).astype(np.float64)
        assert net.params.tobytes() == p.tobytes()
        assert opt.m.tobytes() == m.tobytes() and opt.v.tobytes() == v.tobytes()


def test_adam_rejects_gradient_whose_square_overflows(recwarn):
    # (1 - b2) * g * g overflows for a finite g above about 1e154; an inf in
    # v would stay there and freeze its parameter
    net = SlimmableMLP(MLPSpec(u=3, q=(4,), v=1), seed=25)
    opt = Adam(net)
    grads = Grads(net.spec)
    grads.params[:] = 1e200
    before = net.params.copy()
    with pytest.raises(TrainingError, match="squaring the gradient"):
        opt.step(grads)
    assert not recwarn.list
    assert net.params.tobytes() == before.tobytes()
    assert opt.t == 0 and not opt.m.any() and not opt.v.any()


def test_non_finite_gradients_rejected():
    spec = small_spec()
    net = SlimmableMLP(spec, seed=20)
    grads = Grads(spec)
    grads.weights[0][0, 0] = np.nan
    with pytest.raises(TrainingError):
        Adam(net).step(grads)


# --- weight file ---

def test_weight_file_round_trip_bit_exact(tmp_path):
    spec = MLPSpec(u=7, q=(9, 4), v=3, output_activation="bounded",
                   output_low=(0.0, 0.0, 0.0), output_high=(1.0, 2.0, 3.0))
    net = SlimmableMLP(spec, seed=21)
    p = tmp_path / "w.bin"
    save_weights(net, p, config_hash="beef")
    back, found = load_weights(p)
    assert found == "beef" and back.spec == spec and back.seed == 21
    for a, b in zip(net.weights + net.biases, back.weights + back.biases):
        assert np.array_equal(a, b)
    # saving the loaded net reproduces the file byte for byte
    p2 = tmp_path / "w2.bin"
    save_weights(back, p2, config_hash="beef")
    assert p.read_bytes() == p2.read_bytes()


def test_load_weights_rejects_corrupt(tmp_path):
    p = tmp_path / "w.bin"
    p.write_bytes(b"NOPE v9\n{}\n")
    with pytest.raises(LoadError):
        load_weights(p)
    net = SlimmableMLP(small_spec(), seed=22)
    save_weights(net, p)
    blob = p.read_bytes()
    p.write_bytes(blob[:-8])            # truncated payload
    with pytest.raises(LoadError):
        load_weights(p)
    magic, head, payload = blob.split(b"\n", 2)
    for bad in (np.nan, np.inf, -np.inf):   # non-finite payload values
        bad_payload = bytearray(payload)
        bad_payload[-4:] = np.array([bad], dtype="<f4").tobytes()
        p.write_bytes(b"\n".join([magic, head, bytes(bad_payload)]))
        with pytest.raises(LoadError):
            load_weights(p)
    for bad_head in (b"\xff" + head,                          # not UTF-8
                     head.replace(b'"hidden": "relu"', b'"hidden": "gelu"'),
                     head.replace(b'"seed": 22', b'"seed": "x"'),
                     head.replace(b'"seed": 22', b'"seed": 2.5'),
                     head.replace(b'"seed": 22', b'"seed": null'),
                     head.replace(b'"scale": 1.0', b'"scale": NaN'),      # json reads NaN
                     head.replace(b'"scale": 1.0', b'"scale": Infinity'),
                     head.replace(b'"u": 6', b'"u": 2.5'),       # widths are integers
                     head.replace(b'"u": 6', b'"u": true'),
                     head.replace(b'"q": [8, 5]', b'"q": [2.5, 5]'),
                     head.replace(b'"q": [8, 5]', b'"q": ["8", 5]')):
        assert bad_head != head
        p.write_bytes(b"\n".join([magic, bad_head, payload]))
        with pytest.raises(LoadError):
            load_weights(p)


def test_copy():
    net = SlimmableMLP(small_spec(), seed=23)
    c = net.copy()
    c.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != c.weights[0][0, 0]


# --- parameter vector ---

# sha256 of save_weights bytes after a few seeded training steps; any change
# to how parameters are stored, optimized or averaged must keep them. They
# hold for this numpy/OpenBLAS build, whose matmul summation order they fix.
PINNED_WEIGHT_SHA256 = {
    "nav_C": "998c31be48b27dcd4fab2371c3542ab11dc9d4be63cea9510d61177a45ad5268",
    "nav_S": "d6bb155e6c0335f971c5dcf4e5d38653ae7ae49cdb03226e98e06ff258b5e70c",
    "actor": "31fe154a543020919d74ed5f683d717ebb1d340c28278cedde8eb2ab40c88a50",
    "actor_target": "d625c9edc3958e7a6bfdb1a204e650943680a30f9b441b980c5ea8ba2a83eb6d",
    "critic1": "2f11ec5226bc07222ac879ab6b5b76f6ae20bab462027e409253b1b7e68df6c4",
    "critic2": "be3b09d001bafcc19324b0dadfbefc2666cc3cf81bd665e1967c241f58fa01ce",
    "critic1_target": "f40719c895161e3e61b148c656633e88d677e037b0a69f42c1bc516a1f6bec62",
    "critic2_target": "3e12099827e5728c034dd11088eb27e2306aeb02b65e013c3038aa432715cd16",
}


def test_training_steps_pin_weight_file_bytes(tmp_path):
    def dataset(n, u, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(n, u))
        return LabeledDataset(fifo_vectors=x, targets=np.tanh(x[:, :3]), depth=1)

    def digest(net):
        save_weights(net, tmp_path / "w.bin")
        return hashlib.sha256((tmp_path / "w.bin").read_bytes()).hexdigest()

    layout = ObservationLayout(1)
    u = layout.depth * OBS_WIDTH
    spec = MLPSpec(u=u, q=(8, 6), v=3)
    # mode C stops at epoch 6 and restores the epoch-4 snapshot
    cfg = DistillConfig(max_epochs=8, patience=2, batch_size=16, lr=0.03, seed=5)
    nets = {}
    for mode in ("C", "S"):
        nets[f"nav_{mode}"], _ = train_navigation(
            dataset(48, u, 1), dataset(16, u, 2), spec, cfg, mode=mode, layout=layout)

    agent = TD3Agent(5, [0.0, -1.0], [1.0, 1.0],
                     TD3Config(policy_delay=1, batch_size=8, tau=0.3),
                     actor_hidden=(6,), critic_hidden=(7,), seed=6)
    buf = ReplayBuffer(32, 5, 2)
    rng = np.random.default_rng(7)
    for _ in range(32):
        buf.add(rng.normal(size=5), rng.uniform(agent.low, agent.high),
                rng.normal(), rng.normal(size=5), float(rng.uniform() < 0.2))
    for _ in range(3):
        agent.update(buf, rng)
    for name in ("actor", "actor_target", "critic1", "critic2", "critic1_target",
                 "critic2_target"):
        nets[name] = getattr(agent, name)

    assert {name: digest(net) for name, net in nets.items()} == PINNED_WEIGHT_SHA256
    for net in nets.values():
        assert all(a.base is net.params for a in net.weights + net.biases)
