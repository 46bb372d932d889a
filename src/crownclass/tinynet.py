"""Minimal neural-network core: depthwise 3x3 convolutions, 2x2 max
pooling, dense layers, softmax cross-entropy, exact reverse-mode
gradients, and the Adam optimizer.

Three architectures share the code path:

  dsm            4x128x128 input, six conv/pool pairs -> 4x2x2 -> 16,
                 crown area through dense 2 -> 2; concat 18 -> 25 -> 10 -> 2
  views          four 1x64x64 images, five conv/pool pairs each -> 2x2
                 -> 16 total, (width, height) through dense 4 -> 2;
                 concat 18 -> 25 -> 10 -> 2
  views_reduced  as views with two images (-> 8) and head sizes 16 / 8

Every convolution is depthwise: one 3x3 kernel per channel, zero padding
1, stride 1, so channel count is preserved through the stack. Runtime
arithmetic is float32; passing float64 parameters switches the whole
graph to float64 (used by gradient checks).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .util import derive_seed

ADAM_LR = 0.01
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
BATCH_SIZE = 32
# Samples per forward pass in predict_probs. On one thread of a 2-CPU
# Intel Xeon the forward pass took, per sample at chunks of 8 / 32 / 256,
# dsm 1.8 / 1.6 / 3.0 ms and views 0.42 / 0.28 / 0.30 ms: past 32 the
# activations spill out of cache. dsm stays at 8, whose activations are
# a quarter of 32's: at 32 a dsm classify run peaked 26 MB higher with
# no throughput change the benchmark could resolve.
PREDICT_CHUNK = {"dsm": 8, "views": 32, "views_reduced": 32}


@dataclass(frozen=True)
class ArchSpec:
    tag: str
    branch_channels: tuple[int, ...]
    conv_pairs: int
    image_hw: int
    scalar_dim: int
    side_dims: tuple[int, int]
    head_dims: tuple[int, int]

    @property
    def input_channels(self) -> int:
        return sum(self.branch_channels)

    @property
    def final_hw(self) -> int:
        return self.image_hw >> self.conv_pairs

    @property
    def flatten_dim(self) -> int:
        return self.input_channels * self.final_hw * self.final_hw

    @property
    def concat_dim(self) -> int:
        return self.flatten_dim + self.side_dims[1]


ARCHITECTURES = {
    "dsm": ArchSpec("dsm", (4,), 6, 128, 1, (2, 2), (25, 10)),
    "views": ArchSpec("views", (1, 1, 1, 1), 5, 64, 2, (4, 2), (25, 10)),
    "views_reduced": ArchSpec("views_reduced", (1, 1), 5, 64, 2, (4, 2), (16, 8)),
}


@dataclass
class NetworkParams:
    tag: str
    tensors: dict[str, np.ndarray]

    @property
    def spec(self) -> ArchSpec:
        return ARCHITECTURES[self.tag]

    @property
    def dtype(self) -> np.dtype:
        return next(iter(self.tensors.values())).dtype

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.tag, {k: v.copy() for k, v in self.tensors.items()})


@dataclass
class AdamState:
    lr: float
    beta1: float
    beta2: float
    epsilon: float
    t: int
    m: dict[str, np.ndarray]
    v: dict[str, np.ndarray]


def _branch_prefix(spec: ArchSpec, branch: int) -> str:
    return f"img{branch}." if len(spec.branch_channels) > 1 else ""


def _layer_plan(spec: ArchSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Parameter names and shapes in declaration (and file) order."""
    plan: list[tuple[str, tuple[int, ...]]] = []
    for branch, channels in enumerate(spec.branch_channels):
        prefix = _branch_prefix(spec, branch)
        for i in range(spec.conv_pairs):
            plan.append((f"{prefix}conv{i}.kernel", (channels, 3, 3)))
            plan.append((f"{prefix}conv{i}.bias", (channels,)))
    side0, side1 = spec.side_dims
    head0, head1 = spec.head_dims
    for name, shape in (
        ("side0.weight", (side0, spec.scalar_dim)),
        ("side0.bias", (side0,)),
        ("side1.weight", (side1, side0)),
        ("side1.bias", (side1,)),
        ("head0.weight", (head0, spec.concat_dim)),
        ("head0.bias", (head0,)),
        ("head1.weight", (head1, head0)),
        ("head1.bias", (head1,)),
        ("out.weight", (2, head1)),
        ("out.bias", (2,)),
    ):
        plan.append((name, shape))
    return plan


def init_params(tag: str, seed: int, dtype=np.float32) -> NetworkParams:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)); biases zero."""
    spec = ARCHITECTURES[tag]
    rng = np.random.default_rng(derive_seed(seed, "init", tag))
    tensors: dict[str, np.ndarray] = {}
    for name, shape in _layer_plan(spec):
        if name.endswith(".bias"):
            tensors[name] = np.zeros(shape, dtype=dtype)
            continue
        if ".conv" in name or name.startswith("conv"):
            fan_in = fan_out = 9
        else:
            fan_out, fan_in = shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        tensors[name] = rng.uniform(-limit, limit, size=shape).astype(dtype)
    return NetworkParams(tag, tensors)


def _check_shape(name: str, arr: np.ndarray, expected: tuple[int, ...]) -> None:
    if tuple(arr.shape) != tuple(expected):
        raise AssertionError(f"{name}: shape {arr.shape}, expected {expected}")


def _pad1(x: np.ndarray) -> np.ndarray:
    *lead, h, w = x.shape
    padded = np.zeros((*lead, h + 2, w + 2), dtype=x.dtype)
    padded[..., 1 : h + 1, 1 : w + 1] = x
    return padded


def _correlate3x3(x: np.ndarray, kernels: np.ndarray) -> np.ndarray:
    """Per-channel 3x3 cross-correlation, zero padding 1, stride 1, no bias."""
    *_, h, w = x.shape
    padded = _pad1(x)
    out = np.zeros_like(x)
    for di in range(3):
        for dj in range(3):
            out += kernels[:, di, dj][:, None, None] * padded[
                ..., di : di + h, dj : dj + w
            ]
    return out


def conv3x3_depthwise(x: np.ndarray, kernels: np.ndarray, biases: np.ndarray) -> np.ndarray:
    """Per-channel 3x3 cross-correlation, zero padding 1, stride 1."""
    _check_shape("conv kernels", kernels, (x.shape[-3], 3, 3))
    return _correlate3x3(x, kernels) + biases[:, None, None]


def _conv3x3_param_grads(
    x: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (d_kernels, d_biases) of the depthwise conv.

    One einsum per tap reduces over batch and space in a single pass;
    plain einsum calls no BLAS, so the sums do not depend on thread count.
    """
    _, c, h, w = x.shape
    padded = _pad1(x)
    d_kernels = np.empty((c, 3, 3), dtype=x.dtype)
    for di in range(3):
        for dj in range(3):
            d_kernels[:, di, dj] = np.einsum(
                "nchw,nchw->c", grad, padded[..., di : di + h, dj : dj + w]
            )
    return d_kernels, grad.sum(axis=(0, 2, 3))


def conv3x3_depthwise_backward(
    x: np.ndarray, grad: np.ndarray, kernels: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_kernels, d_biases, d_input) of the depthwise conv.

    d_input is the forward correlation of grad with the flipped kernel.
    """
    d_kernels, d_biases = _conv3x3_param_grads(x, grad)
    return d_kernels, d_biases, _correlate3x3(grad, kernels[:, ::-1, ::-1])


def maxpool2x2(x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, ...]]:
    """Max over disjoint 2x2 windows [[a, b], [c, d]].

    Also returns the record backward needs to route each gradient to the
    first maximum in row-major order: three boolean masks, b > a, d > c
    and max(c, d) > max(a, b).
    """
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise AssertionError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    a = x[..., 0::2, 0::2]
    b = x[..., 0::2, 1::2]
    c = x[..., 1::2, 0::2]
    d = x[..., 1::2, 1::2]
    top = np.maximum(a, b)
    bottom = np.maximum(c, d)
    return np.maximum(top, bottom), (b > a, d > c, bottom > top)


def maxpool2x2_backward(
    grad: np.ndarray, record: tuple[np.ndarray, ...], input_shape: tuple[int, ...]
) -> np.ndarray:
    """Scatter grad back to the window maximum recorded by maxpool2x2."""
    right_top, right_bottom, bottom = record
    # A 0/1 mask product and its difference from the whole split a value
    # exactly: one part is the value, the other zero.
    low = grad * bottom
    top = grad - low
    out = np.empty(input_shape, dtype=grad.dtype)
    np.multiply(top, right_top, out=out[..., 0::2, 1::2])
    np.subtract(top, out[..., 0::2, 1::2], out=out[..., 0::2, 0::2])
    np.multiply(low, right_bottom, out=out[..., 1::2, 1::2])
    np.subtract(low, out[..., 1::2, 1::2], out=out[..., 1::2, 0::2])
    return out


def dense(x: np.ndarray, weight: np.ndarray, bias: np.ndarray, relu: bool) -> np.ndarray:
    out = x @ weight.T + bias
    return np.maximum(out, 0) if relu else out


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    return shifted - log_norm


def softmax_xent(
    logits: np.ndarray, onehot: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Stable softmax probabilities and per-sample cross-entropy loss.

    The gradient of the loss at the logits is probs - onehot.
    """
    log_probs = _log_softmax(logits)
    loss = -(onehot * log_probs).sum(axis=-1)
    return np.exp(log_probs), loss


def _forward(
    params: NetworkParams,
    images: np.ndarray,
    scalars: np.ndarray,
    trace: "list | None" = None,
    cache: "dict | None" = None,
) -> np.ndarray:
    """Forward pass to logits; shapes asserted at every layer."""
    spec = params.spec
    dtype = params.dtype
    images = np.asarray(images, dtype=dtype)
    scalars = np.asarray(scalars, dtype=dtype)
    if images.ndim != 4:
        raise AssertionError(f"images must be batched 4-d, got {images.shape}")
    batch = images.shape[0]
    _check_shape(
        "images", images, (batch, spec.input_channels, spec.image_hw, spec.image_hw)
    )
    _check_shape("scalars", scalars, (batch, spec.scalar_dim))

    def note(name, arr):
        if trace is not None:
            trace.append((name, tuple(arr.shape)))

    note("input.images", images)
    note("input.scalars", scalars)

    flats = []
    offset = 0
    # Depth-first per branch keeps each layer chain in cache; a fused stack ran slower.
    for branch, channels in enumerate(spec.branch_channels):
        prefix = _branch_prefix(spec, branch)
        x = images[:, offset : offset + channels]
        offset += channels
        hw = spec.image_hw
        for i in range(spec.conv_pairs):
            pre = conv3x3_depthwise(
                x,
                params.tensors[f"{prefix}conv{i}.kernel"],
                params.tensors[f"{prefix}conv{i}.bias"],
            )
            _check_shape(f"{prefix}conv{i}", pre, (batch, channels, hw, hw))
            note(f"{prefix}conv{i}", pre)
            # max and relu commute, so the relu runs on the pooled quarter.
            pooled, record = maxpool2x2(pre)
            pooled = np.maximum(pooled, 0)
            hw //= 2
            _check_shape(f"{prefix}pool{i}", pooled, (batch, channels, hw, hw))
            note(f"{prefix}pool{i}", pooled)
            if cache is not None:
                cache[f"{prefix}layer{i}"] = (x, record, pooled)
            x = pooled
        flats.append(x.reshape(batch, -1))

    flat = np.concatenate(flats, axis=1) if len(flats) > 1 else flats[0]
    _check_shape("flatten", flat, (batch, spec.flatten_dim))
    note("flatten", flat)

    side0 = dense(
        scalars, params.tensors["side0.weight"], params.tensors["side0.bias"], relu=True
    )
    _check_shape("side0", side0, (batch, spec.side_dims[0]))
    note("side0", side0)
    side1 = dense(
        side0, params.tensors["side1.weight"], params.tensors["side1.bias"], relu=True
    )
    _check_shape("side1", side1, (batch, spec.side_dims[1]))
    note("side1", side1)

    concat = np.concatenate([flat, side1], axis=1)
    _check_shape("concat", concat, (batch, spec.concat_dim))
    note("concat", concat)

    head0 = dense(
        concat, params.tensors["head0.weight"], params.tensors["head0.bias"], relu=True
    )
    _check_shape("head0", head0, (batch, spec.head_dims[0]))
    note("head0", head0)
    head1 = dense(
        head0, params.tensors["head1.weight"], params.tensors["head1.bias"], relu=True
    )
    _check_shape("head1", head1, (batch, spec.head_dims[1]))
    note("head1", head1)
    logits = dense(
        head1, params.tensors["out.weight"], params.tensors["out.bias"], relu=False
    )
    _check_shape("logits", logits, (batch, 2))
    note("logits", logits)

    if cache is not None:
        cache["dense"] = (scalars, side0, side1, flat, concat, head0, head1)
    return logits


def network_forward(
    params: NetworkParams,
    images: np.ndarray,
    scalars: np.ndarray,
    trace: "list | None" = None,
) -> np.ndarray:
    """Class probabilities, shape (batch, 2)."""
    logits = _forward(params, images, scalars, trace=trace)
    probs = np.exp(_log_softmax(logits))
    if trace is not None:
        trace.append(("probs", tuple(probs.shape)))
    if not np.isfinite(probs).all():
        raise AssertionError("non-finite probabilities")
    return probs


def _dense_backward(grad, x, weight, activated=None):
    """activated: post-ReLU output when the layer had a ReLU."""
    if activated is not None:
        grad = grad * (activated > 0)
    d_weight = grad.T @ x
    d_bias = grad.sum(axis=0)
    d_x = grad @ weight
    return d_weight, d_bias, d_x


def network_gradients(
    params: NetworkParams,
    images: np.ndarray,
    scalars: np.ndarray,
    onehot: np.ndarray,
) -> tuple[dict[str, np.ndarray], np.ndarray, np.ndarray]:
    """Exact gradients of the mean cross-entropy over the batch.

    Returns (grads, probs, per-sample losses).
    """
    spec = params.spec
    cache: dict = {}
    logits = _forward(params, images, scalars, cache=cache)
    onehot = np.asarray(onehot, dtype=logits.dtype)
    probs, losses = softmax_xent(logits, onehot)
    batch = logits.shape[0]

    grads: dict[str, np.ndarray] = {}
    d_logits = (probs - onehot) / batch

    scalars_in, side0, side1, flat, concat, head0, head1 = cache["dense"]
    grads["out.weight"], grads["out.bias"], d_head1 = _dense_backward(
        d_logits, head1, params.tensors["out.weight"]
    )
    grads["head1.weight"], grads["head1.bias"], d_head0 = _dense_backward(
        d_head1, head0, params.tensors["head1.weight"], activated=head1
    )
    grads["head0.weight"], grads["head0.bias"], d_concat = _dense_backward(
        d_head0, concat, params.tensors["head0.weight"], activated=head0
    )
    d_flat = d_concat[:, : spec.flatten_dim]
    d_side1 = d_concat[:, spec.flatten_dim :]
    grads["side1.weight"], grads["side1.bias"], d_side0 = _dense_backward(
        d_side1, side0, params.tensors["side1.weight"], activated=side1
    )
    grads["side0.weight"], grads["side0.bias"], _ = _dense_backward(
        d_side0, scalars_in, params.tensors["side0.weight"], activated=side0
    )

    final = spec.final_hw
    offset = 0
    for branch, channels in enumerate(spec.branch_channels):
        prefix = _branch_prefix(spec, branch)
        width = channels * final * final
        d_x = d_flat[:, offset : offset + width].reshape(batch, channels, final, final)
        offset += width
        for i in reversed(range(spec.conv_pairs)):
            x_in, record, pooled = cache[f"{prefix}layer{i}"]
            d_pre = maxpool2x2_backward(d_x * (pooled > 0), record, x_in.shape)
            if i == 0:
                # The images need no gradient.
                d_kernel, d_bias = _conv3x3_param_grads(x_in, d_pre)
            else:
                d_kernel, d_bias, d_x = conv3x3_depthwise_backward(
                    x_in, d_pre, params.tensors[f"{prefix}conv{i}.kernel"]
                )
            grads[f"{prefix}conv{i}.kernel"] = d_kernel
            grads[f"{prefix}conv{i}.bias"] = d_bias

    ordered = {name: grads[name] for name in params.tensors}
    return ordered, probs, losses


def init_adam(
    params: NetworkParams,
    lr: float = ADAM_LR,
    beta1: float = ADAM_BETA1,
    beta2: float = ADAM_BETA2,
    epsilon: float = ADAM_EPSILON,
) -> AdamState:
    zeros = {name: np.zeros_like(t) for name, t in params.tensors.items()}
    return AdamState(
        lr=lr,
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
        t=0,
        m=zeros,
        v={name: np.zeros_like(t) for name, t in params.tensors.items()},
    )


def adam_step(
    params: NetworkParams, grads: dict[str, np.ndarray], state: AdamState
) -> tuple[NetworkParams, AdamState]:
    t = state.t + 1
    bias1 = 1.0 - state.beta1**t
    bias2 = 1.0 - state.beta2**t
    tensors = {}
    new_m = {}
    new_v = {}
    for name, theta in params.tensors.items():
        g = grads[name]
        m = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[name] + (1.0 - state.beta2) * g * g
        m_hat = m / bias1
        v_hat = v / bias2
        tensors[name] = (theta - state.lr * m_hat / (np.sqrt(v_hat) + state.epsilon)).astype(
            theta.dtype
        )
        new_m[name] = m.astype(theta.dtype)
        new_v[name] = v.astype(theta.dtype)
    return (
        NetworkParams(params.tag, tensors),
        AdamState(state.lr, state.beta1, state.beta2, state.epsilon, t, new_m, new_v),
    )


def predict_probs(
    params: NetworkParams,
    images: np.ndarray,
    scalars: np.ndarray,
) -> np.ndarray:
    """Class probabilities, forwarded in PREDICT_CHUNK-sized chunks.

    No chunk has one row: a one-row batch takes BLAS's matrix-vector path
    in the dense layers, whose bits differ from the same sample in any
    larger batch. A one-row tail joins the previous chunk, and a lone
    sample is forwarded twice and its first row kept.
    """
    if len(images) == 1:
        return network_forward(
            params, np.concatenate([images] * 2), np.concatenate([scalars] * 2)
        )[:1]
    chunk = PREDICT_CHUNK[params.tag]
    starts = list(range(0, len(images), chunk))
    if len(images) - starts[-1] == 1:
        starts.pop()
    ends = starts[1:] + [len(images)]
    parts = [
        network_forward(params, images[a:b], scalars[a:b]) for a, b in zip(starts, ends)
    ]
    return np.concatenate(parts, axis=0)


def train_network(
    params: NetworkParams,
    images: np.ndarray,
    scalars: np.ndarray,
    onehots: np.ndarray,
    epochs: int,
    batch_size: int = BATCH_SIZE,
    seed: int = 0,
    lr: float = ADAM_LR,
) -> tuple[NetworkParams, float]:
    """Mini-batch Adam training over shuffled epochs.

    Returns the trained parameters and the training accuracy measured
    over all supplied (augmented) samples after the final epoch.
    """
    n = len(images)
    if n == 0:
        raise ValueError("no training samples")
    state = init_adam(params, lr=lr)
    rng = np.random.default_rng(derive_seed(seed, "train-shuffle"))
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            take = order[start : start + batch_size]
            grads, _, _ = network_gradients(
                params, images[take], scalars[take], onehots[take]
            )
            params, state = adam_step(params, grads, state)
    probs = predict_probs(params, images, scalars)
    accuracy = float(
        np.mean(np.argmax(probs, axis=1) == np.argmax(onehots, axis=1))
    )
    return params, accuracy
