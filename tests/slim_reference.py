"""Reference masked forward and backward passes: the per-layer slicing that
`SlimmableMLP.forward` and `backward` used before both read one slicer,
`SlimmableMLP._active_layers`. Kept verbatim, as functions of the network, so
the slicer can be tested against them for exact equality."""
import numpy as np

from slimnav.slimnet import Grads, SlimMask


def reference_forward(net, x, mask=None, return_cache=False):
    spec = net.spec
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    a = x[None, :] if single else x
    if a.ndim != 2 or a.shape[1] != spec.u:
        raise ValueError(f"expected input width {spec.u}, got shape {x.shape}")
    if mask is None:
        mask = SlimMask(spec)
    idx = mask.input_index
    if idx is not None:
        a = a[:, idx]
    # canonical memory layout: matmul accumulation order must not depend
    # on how the caller sliced the batch or on the input slice above
    a = np.ascontiguousarray(a)
    widths = mask.active_hidden
    zs, acts = [], [a]
    for i, h in enumerate(widths):
        W, b = net.weights[i], net.biases[i]
        if i == 0:
            Wa = W[idx][:, :h] if idx is not None else W[:, :h]
        else:
            Wa = W[:widths[i - 1], :h]
        # contiguous like a truncated copy's matrices, so the matmul
        # accumulates in the same order and the outputs match bit for bit
        z = a @ np.ascontiguousarray(Wa) + b[:h]
        zs.append(z)
        a = np.maximum(z, 0.0)
        acts.append(a)
    W, b = net.weights[-1], net.biases[-1]
    z = a @ W[:widths[-1], :] + b
    y, out_aux = net._apply_output(z)
    if single:
        y = y[0]
    if not return_cache:
        return y
    cache = (mask, zs, acts, out_aux, single)
    return y, cache


def reference_backward(net, cache, grad_output) -> Grads:
    """Gradients of a scalar loss given d(loss)/d(output). Severed
    parameters receive exactly zero gradient."""
    spec = net.spec
    mask, zs, acts, out_aux, single = cache
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
    dW, db = grads.weights, grads.biases
    widths = mask.active_hidden
    idx = mask.input_index

    h_last = widths[-1]
    dW[-1][:h_last, :] = acts[-1].T @ dz
    db[-1][:] = dz.sum(axis=0)
    da = dz @ net.weights[-1][:h_last, :].T

    for i in range(len(widths) - 1, -1, -1):
        h = widths[i]
        dz = da * (zs[i] > 0)
        if i == 0:
            if idx is not None:
                dW[0][np.ix_(idx, np.arange(h))] = acts[0].T @ dz
                Wa = net.weights[0][idx][:, :h]
            else:
                dW[0][:, :h] = acts[0].T @ dz
                Wa = net.weights[0][:, :h]
        else:
            hp = widths[i - 1]
            dW[i][:hp, :h] = acts[i].T @ dz
            Wa = net.weights[i][:hp, :h]
        db[i][:h] = dz.sum(axis=0)
        da = dz @ Wa.T

    if idx is not None:
        dx = np.zeros((da.shape[0], spec.u))
        dx[:, idx] = da
    else:
        dx = da
    grads.inputs = dx[0] if single else dx
    return grads
