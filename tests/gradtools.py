"""Finite-difference gradient oracle used by the network tests.

Evaluates losses only through the public forward pass, independent of the
analytic backward code under test.
"""

import numpy as np

from crownclass.tinynet import ARCHITECTURES, Workspace, network_forward, network_gradients


def random_inputs(tag, rng, batch=1):
    """Plausible scaled inputs for one architecture."""
    spec = ARCHITECTURES[tag]
    images = rng.uniform(
        0.0, 1.0, size=(batch, spec.input_channels, spec.image_hw, spec.image_hw)
    )
    scalars = rng.uniform(0.1, 1.0, size=(batch, spec.scalar_dim))
    onehot = np.zeros((batch, 2))
    onehot[np.arange(batch), rng.integers(0, 2, batch)] = 1.0
    return images, scalars, onehot


def randomize_biases(params, rng, scale=0.05):
    """Move every bias off zero so the check runs at a generic point.

    Zero-initialised biases leave whole relu fields sitting exactly on the
    kink (a dead window feeding a conv gives preactivation == bias == 0),
    where the loss is not differentiable and central differences measure
    the two-sided average instead of the subgradient the backward pass
    uses.  Nonzero biases make exact-zero preactivations measure-zero
    events, which is the regime the error bound is meant for.
    """
    for name, tensor in params.tensors.items():
        if name.endswith("bias"):
            tensor[...] = rng.uniform(-scale, scale, size=tensor.shape)
    return params


def mean_loss(params, images, scalars, onehot, workspace=None):
    probs = network_forward(params, images, scalars, workspace=workspace)
    return float(-(onehot * np.log(probs)).sum(axis=-1).mean())


def finite_difference_grads(params, images, scalars, onehot, h=1e-5):
    """Central differences of the mean loss for every parameter."""
    fd = {}
    # Two forward passes per parameter, all of the same shapes.
    workspace = Workspace()
    for name, tensor in params.tensors.items():
        grad = np.zeros_like(tensor)
        flat = tensor.reshape(-1)
        grad_flat = grad.reshape(-1)
        for k in range(flat.size):
            original = flat[k]
            flat[k] = original + h
            up = mean_loss(params, images, scalars, onehot, workspace)
            flat[k] = original - h
            down = mean_loss(params, images, scalars, onehot, workspace)
            flat[k] = original
            grad_flat[k] = (up - down) / (2.0 * h)
        fd[name] = grad
    return fd


def gradient_errors(params, images, scalars, onehot, h=1e-5, abs_floor=1e-7):
    """Worst (relative, absolute) disagreement between analytic and FD
    gradients over every parameter.

    Entries where both gradients are below abs_floor in absolute
    difference are treated as agreeing (relative error undefined near 0);
    the absolute error is reported without that floor.
    """
    analytic, _, _ = network_gradients(params, images, scalars, onehot)
    fd = finite_difference_grads(params, images, scalars, onehot, h=h)
    worst_rel = 0.0
    worst_abs = 0.0
    for name in params.tensors:
        a = analytic[name].reshape(-1)
        n = fd[name].reshape(-1)
        diff = np.abs(a - n)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-300)
        rel = diff / denom
        rel[diff < abs_floor] = 0.0
        worst_rel = max(worst_rel, float(rel.max()))
        worst_abs = max(worst_abs, float(diff.max()))
    return worst_rel, worst_abs


def max_gradient_error(params, images, scalars, onehot, h=1e-5, abs_floor=1e-7):
    """Worst relative disagreement between analytic and FD gradients."""
    return gradient_errors(params, images, scalars, onehot, h, abs_floor)[0]
