"""Width-slimmable dense networks.

A network holds full-size weight matrices; a SlimMask selects, per forward
pass, a prefix of each hidden layer (the first roof(rho * q_i) nodes) and an
arbitrary subset of input nodes. The masked pass computes on the physically
sliced sub-matrices, so it is bit-identical to running an explicitly
truncated copy of the network.

Parameters live in one float64 vector, `params`, laid out as the weight
file stores them (W0 row major, b0, W1, b1, ...); `weights` and `biases` are
views into it that must never be rebound. Parameters are kept
float32-representable (init and every optimizer step round through float32)
so the float32 weight file round-trips exactly.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from .errors import ConfigError, LoadError, TrainingError

WEIGHTS_MAGIC = "NAVISLIM-W v1"

_ACTIVATIONS = ("relu",)
_OUTPUTS = ("identity", "tanh", "bounded")


def active_width(rho: float, q: int) -> int:
    """Active node count of a hidden layer of full width q at slimming rho."""
    return int(math.ceil(rho * q))


@dataclass(frozen=True)
class MLPSpec:
    """Architecture: u inputs, hidden widths q, v outputs.

    output_activation: "identity", "tanh" (scaled by output_scale), or
    "bounded" (affine tanh onto [output_low, output_high] per dimension).
    """

    u: int
    q: tuple[int, ...]
    v: int
    hidden_activation: str = "relu"
    output_activation: str = "identity"
    output_scale: float = 1.0
    output_low: tuple[float, ...] | None = None
    output_high: tuple[float, ...] | None = None

    def __post_init__(self):
        q = tuple(self.q)
        if not q or not all(isinstance(n, numbers.Integral) and not isinstance(n, bool)
                            and n >= 1 for n in (self.u, self.v, *q)):
            raise ConfigError(f"invalid layer widths u={self.u!r} q={q!r} v={self.v!r}: "
                              f"need positive integers")
        object.__setattr__(self, "q", tuple(int(x) for x in q))
        if self.hidden_activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown hidden activation {self.hidden_activation!r}")
        if self.output_activation not in _OUTPUTS:
            raise ConfigError(f"unknown output activation {self.output_activation!r}")
        if not math.isfinite(self.output_scale):
            raise ConfigError(f"output_scale must be finite, got {self.output_scale}")
        if self.output_activation == "bounded":
            if self.output_low is None or self.output_high is None:
                raise ConfigError("bounded output requires output_low and output_high")
            lo = tuple(float(x) for x in self.output_low)
            hi = tuple(float(x) for x in self.output_high)
            if len(lo) != self.v or len(hi) != self.v or \
                    not all(-math.inf < l < h < math.inf for l, h in zip(lo, hi)):
                raise ConfigError("bounded output bounds must be finite, length v, low < high")
            object.__setattr__(self, "output_low", lo)
            object.__setattr__(self, "output_high", hi)

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.u, *self.q, self.v)

    @property
    def param_count(self) -> int:
        sizes = self.layer_sizes
        return sum(a * b + b for a, b in zip(sizes[:-1], sizes[1:]))


def _layer_views(params: np.ndarray, spec: MLPSpec) -> tuple[list, list]:
    """Per-layer (fan_in, fan_out) weight and bias views of a vector laid out
    like the weight file."""
    weights, biases = [], []
    pos = 0
    for fan_in, fan_out in zip(spec.layer_sizes[:-1], spec.layer_sizes[1:]):
        weights.append(params[pos:pos + fan_in * fan_out].reshape(fan_in, fan_out))
        pos += fan_in * fan_out
        biases.append(params[pos:pos + fan_out])
        pos += fan_out
    return weights, biases


def _checked_inputs(spec: MLPSpec, rho: float,
                    active_inputs) -> tuple[np.ndarray | None, int]:
    """The boolean input mask (None: every input) and its active count,
    after the checks of rho and of the mask that SlimMask and active_params
    share."""
    if not 0.0 < rho <= 1.0:
        raise ValueError(f"rho must be in (0, 1], got {rho}")
    if active_inputs is None:
        return None, spec.u
    active_inputs = np.asarray(active_inputs, dtype=bool)
    if active_inputs.shape != (spec.u,):
        raise ValueError(f"input mask must have shape ({spec.u},)")
    n = int(np.count_nonzero(active_inputs))
    if n == 0:
        raise ValueError("input mask deactivates every input")
    return active_inputs, n


class SlimMask:
    """Active sub-network selection: slimming factor rho (prefix of each
    hidden layer) plus a boolean input mask."""

    def __init__(self, spec: MLPSpec, rho: float = 1.0, active_inputs=None):
        active_inputs, n = _checked_inputs(spec, rho, active_inputs)
        self.rho = float(rho)
        self.active_hidden = tuple(active_width(rho, qi) for qi in spec.q)
        if active_inputs is None:
            active_inputs = np.ones(spec.u, dtype=bool)
        self.active_inputs = active_inputs
        # None means "all active": lets the forward pass take slice views
        self.input_index = None if n == spec.u else np.flatnonzero(active_inputs)


class Grads:
    """Full-shape parameter gradients (zero on severed entries), laid out and
    viewed like SlimmableMLP.params, plus the gradient with respect to the
    network input."""

    def __init__(self, spec: MLPSpec):
        self.params = np.zeros(spec.param_count)
        self.weights, self.biases = _layer_views(self.params, spec)
        self.inputs: np.ndarray | None = None

    def add_(self, other: "Grads") -> "Grads":
        self.params += other.params
        return self

    def all_finite(self) -> bool:
        return bool(np.isfinite(self.params).all())


def _f32(a: np.ndarray) -> np.ndarray:
    # round values to float32 precision but keep float64 storage for math
    return a.astype(np.float32).astype(np.float64)


class SlimmableMLP:
    """Dense ReLU network trainable at any slimming factor.

    Weight matrices are (fan_in, fan_out) views into `params`; forward is
    x @ W + b. With init false every parameter starts at zero.
    """

    def __init__(self, spec: MLPSpec, seed: int = 0, init: bool = True):
        self.spec = spec
        self.seed = int(seed)
        self.params = np.zeros(spec.param_count)
        self.weights, self.biases = _layer_views(self.params, spec)
        if init:
            rng = np.random.default_rng(seed)
            for i, W in enumerate(self.weights):
                fan_in, fan_out = W.shape
                if i < len(self.weights) - 1:
                    limit = math.sqrt(6.0 / fan_in)          # He uniform for ReLU
                else:
                    limit = math.sqrt(6.0 / (fan_in + fan_out))  # Xavier for output
                W[:] = _f32(rng.uniform(-limit, limit, size=W.shape))

    def copy(self) -> "SlimmableMLP":
        net = SlimmableMLP(self.spec, seed=self.seed, init=False)
        net.params[:] = self.params
        return net

    # forward / backward

    def _active_layers(self, mask: SlimMask) -> list:
        """The active sub-network, one (rows, h, W, b) per layer: the block
        weights[i][rows, :h] (rows: the input index, all rows or the previous
        layer's prefix) copied C-contiguous like a truncated net's matrices,
        so masked and truncated outputs match bit for bit, and the bias b."""
        rows = slice(None) if mask.input_index is None else mask.input_index
        layers = []
        for W, b, h in zip(self.weights, self.biases, mask.active_hidden + (self.spec.v,)):
            layers.append((rows, h, np.ascontiguousarray(W[rows, :h]), b[:h]))
            rows = slice(h)
        return layers

    def forward(self, x, mask: SlimMask | None = None, return_cache: bool = False):
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        a = x[None, :] if single else x
        if a.ndim != 2 or a.shape[1] != self.spec.u:
            raise ValueError(f"expected input width {self.spec.u}, got shape {x.shape}")
        if mask is None:
            mask = SlimMask(self.spec)
        if mask.input_index is not None:
            a = a[:, mask.input_index]
        # canonical memory layout: matmul accumulation order must not depend
        # on how the caller sliced the batch or on the input slice above
        a = np.ascontiguousarray(a)
        layers = self._active_layers(mask)
        *hidden, (_, _, W, b) = layers
        zs, acts = [], [a]
        for _, _, Wh, bh in hidden:
            z = a @ Wh + bh
            zs.append(z)
            a = np.maximum(z, 0.0)
            acts.append(a)
        y, out_aux = self._apply_output(a @ W + b)
        if single:
            y = y[0]
        if not return_cache:
            return y
        return y, (layers, zs, acts, out_aux, single)

    def _apply_output(self, z):
        spec = self.spec
        if spec.output_activation == "identity":
            return z, None
        t = np.tanh(z)
        if spec.output_activation == "tanh":
            return spec.output_scale * t, t
        lo = np.asarray(spec.output_low)
        hi = np.asarray(spec.output_high)
        return lo + 0.5 * (t + 1.0) * (hi - lo), t

    def backward(self, cache, grad_output) -> Grads:
        """Gradients of a scalar loss given d(loss)/d(output), through the
        forward's active blocks; severed parameters get exactly zero."""
        spec = self.spec
        layers, zs, acts, out_aux, single = cache
        g = np.asarray(grad_output, dtype=float)
        if single:
            g = g[None, :]
        if spec.output_activation == "identity":
            dz = g
        elif spec.output_activation == "tanh":
            dz = g * spec.output_scale * (1.0 - out_aux**2)
        else:
            hi = np.asarray(spec.output_high)
            lo = np.asarray(spec.output_low)
            dz = g * 0.5 * (hi - lo) * (1.0 - out_aux**2)

        grads = Grads(spec)
        for i in range(len(layers) - 1, -1, -1):
            rows, h, W, _ = layers[i]
            grads.weights[i][rows, :h] = acts[i].T @ dz
            grads.biases[i][:h] = dz.sum(axis=0)
            da = dz @ W.T
            if i:
                dz = da * (zs[i - 1] > 0)

        idx, dx = layers[0][0], da
        if not isinstance(idx, slice):      # zero on the masked-out inputs
            dx = np.zeros((da.shape[0], spec.u))
            dx[:, idx] = da
        grads.inputs = dx[0] if single else dx
        return grads

    def truncated(self, mask: SlimMask) -> "SlimmableMLP":
        """Physically truncated copy: weight matrices sliced to the active
        sub-network, no masking left."""
        layers = self._active_layers(mask)
        spec = replace(self.spec, u=layers[0][2].shape[0], q=mask.active_hidden)
        net = SlimmableMLP(spec, seed=self.seed, init=False)
        for W, b, (_, _, Wa, ba) in zip(net.weights, net.biases, layers):
            W[:] = Wa
            b[:] = ba
        return net


def active_params(spec: MLPSpec, rho: float, active_inputs=None) -> tuple[int, float]:
    """Parameter count of the active sub-network at slimming factor rho.

    Returns (exact, continuous): exact counts weights+biases with hidden
    widths roof(rho * q_i); continuous evaluates the closed-form quadratic
      (sum_i q_i q_{i+1}) rho^2 + (u q_1 + v q_l + sum_i q_i) rho + v.
    The two agree whenever every rho * q_i is an integer.
    """
    _, u = _checked_inputs(spec, rho, active_inputs)
    q = spec.q
    hs = [active_width(rho, qi) for qi in q]
    m = u * hs[0] + hs[0]
    for i in range(len(hs) - 1):
        m += hs[i] * hs[i + 1] + hs[i + 1]
    m += hs[-1] * spec.v + spec.v
    quad = sum(q[i] * q[i + 1] for i in range(len(q) - 1))
    lin = u * q[0] + spec.v * q[-1] + sum(q)
    m_cont = quad * rho**2 + lin * rho + spec.v
    return m, float(m_cont)


# optimizers

class Adam:
    def __init__(self, net: SlimmableMLP, lr: float = 1e-3, beta1: float = 0.9,
                 beta2: float = 0.999, eps: float = 1e-8):
        self.net = net
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = np.zeros_like(net.params)
        self.v = np.zeros_like(net.params)

    def step(self, grads: Grads) -> None:
        """One update, in place, with the arithmetic of, element by element,
        `m = b1 * m + (1 - b1) * g`, `v = b2 * v + (1 - b2) * g * g` and
        `p = f32(p - lr * (m / c1) / (sqrt(v / c2) + eps))`. It allocates
        one two-row scratch array (numerator, denominator) and the float32
        copy of the result, both for the step alone: a scratch kept between
        steps would add its size to every later memory peak."""
        if not grads.all_finite():
            bad = np.count_nonzero(~np.isfinite(grads.params))
            raise TrainingError(f"non-finite gradient in {bad} of {grads.params.size} parameters")
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        p, g, m, v = self.net.params, grads.params, self.m, self.v
        num, den = np.empty((2, p.size))
        m *= b1
        np.multiply(1 - b1, g, out=num)
        m += num
        v *= b2
        np.multiply(1 - b2, g, out=num)
        num *= g
        v += num
        np.divide(m, c1, out=num)
        np.multiply(self.lr, num, out=num)
        np.divide(v, c2, out=den)
        np.sqrt(den, out=den)
        den += self.eps
        num /= den
        np.subtract(p, num, out=num)
        p[:] = num.astype(np.float32)


# weight file io

def save_weights(net: SlimmableMLP, path, config_hash: str = "") -> None:
    """Write magic line, one json spec line, then `net.params` (per layer the
    weight matrix, row major, and the bias vector) as little-endian float32."""
    spec = net.spec
    head = {
        "u": spec.u, "q": list(spec.q), "v": spec.v,
        "hidden": spec.hidden_activation, "output": spec.output_activation,
        "scale": spec.output_scale,
        "low": list(spec.output_low) if spec.output_low else None,
        "high": list(spec.output_high) if spec.output_high else None,
        "seed": net.seed, "config": config_hash,
    }
    with open(path, "wb") as f:
        f.write((WEIGHTS_MAGIC + "\n").encode())
        f.write((json.dumps(head, sort_keys=True) + "\n").encode())
        f.write(net.params.astype("<f4").tobytes())


def load_weights(path) -> tuple[SlimmableMLP, str]:
    """Inverse of save_weights. Returns (net, config_hash). Raises LoadError
    on a malformed header, a wrong payload size or a non-finite parameter."""
    with open(path, "rb") as f:
        magic = f.readline().decode(errors="replace").rstrip("\n")
        if magic != WEIGHTS_MAGIC:
            raise LoadError(f"{path}: bad magic {magic!r}, expected {WEIGHTS_MAGIC!r}")
        try:
            head = json.loads(f.readline().decode())
            spec = MLPSpec(u=head["u"], q=tuple(head["q"]), v=head["v"],
                           hidden_activation=head["hidden"],
                           output_activation=head["output"],
                           output_scale=head["scale"],
                           output_low=tuple(head["low"]) if head["low"] else None,
                           output_high=tuple(head["high"]) if head["high"] else None)
            seed = head.get("seed", 0)
        # ValueError covers bad JSON, non-UTF-8 bytes and MLPSpec's ConfigError
        except (ValueError, KeyError, TypeError) as e:
            raise LoadError(f"{path}: bad spec header: {e}") from e
        if isinstance(seed, bool) or not isinstance(seed, int):
            raise LoadError(f"{path}: bad spec header: seed {seed!r} is not an integer")
        blob = f.read()
    need = 4 * spec.param_count     # checked before allocating the net
    if len(blob) != need:
        raise LoadError(f"{path}: expected {need} bytes of weights, got {len(blob)}")
    payload = np.frombuffer(blob, dtype="<f4")
    if not np.isfinite(payload).all():     # before the cast, which warns on a signaling NaN
        raise LoadError(f"{path}: non-finite weights")
    net = SlimmableMLP(spec, seed=seed, init=False)
    net.params[:] = payload
    return net, str(head.get("config", ""))
