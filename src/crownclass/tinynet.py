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

The first conv/pool pair, the largest, runs only on the support box of
each batch: the bounding box of its nonzero pixels, per branch, grown by
the conv's reach. A crown raster is mostly zero background, where that
pair's output is known exactly. Its forward bits are those of the whole
canvas; its kernel and bias gradients sum in another order.

A network's parameters are one vector with named views (FlatTensors),
and so are its gradients, so Adam updates the whole network in a few
vector operations. Forward and backward passes write their arrays into
a Workspace that train_network and predict_probs keep for the length of
one call, so a training step allocates no large array after the first.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .util import derive_seed

ADAM_LR = 0.01
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
BATCH_SIZE = 32
# Samples per forward pass in predict_probs. On one thread of a 2-CPU
# Intel Xeon, with one workspace per 256-sample call on store samples,
# the forward pass takes per sample at chunks of 8 / 16 / 32: dsm
# 0.36 / 0.38 / 0.41 ms and views 0.18 / 0.14 / 0.12 ms (median of 7
# fresh processes). A smaller dsm chunk has a smaller support box, and
# at 32 the benchmark's classify-dsm peak RSS (its largest process, a
# prediction worker) read 89.8-90.3 MB against 75.2 MB at 8.
PREDICT_CHUNK = {"dsm": 8, "views": 32, "views_reduced": 32}
# Input bytes per batch block of the depthwise conv and its kernel
# gradients (_padded_blocks). On one thread of the same Xeon (2 MB L2
# per core), a batch-32 float32 train step took, before the workspace,
# at 64 KB / 128 KB / 256 KB / 512 KB / 1 MB, dsm
# 73.0 / 71.5 / 69.7 / 75.0 / 80.2 ms and views 16.9 / 16.5 / 16.2 /
# 16.0 / 16.2 ms, when the first layer ran on the whole canvas. The
# first layer's support box runs with the canvas's block count: one
# image per block for dsm (an input image is 256 KB), 16 for views.
BLOCK_BYTES = 256 * 1024
# Dense layers: the side stack maps the scalar features, the head stack
# the flattened images and side output to logits. ReLU after all but "out".
SIDE_LAYERS = ("side0", "side1")
HEAD_LAYERS = ("head0", "head1", "out")


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


class FlatTensors(dict):
    """Named views, in _layer_plan order, into the one vector `flat`."""

    def __init__(self, tag: str, flat: np.ndarray):
        super().__init__()
        self.flat = flat
        start = 0
        for name, shape in _layer_plan(ARCHITECTURES[tag]):
            stop = start + math.prod(shape)
            self[name] = flat[start:stop].reshape(shape)
            start = stop
        if start != flat.size:
            raise ValueError(f"{tag} has {start} parameters, got a vector of {flat.size}")


@dataclass
class NetworkParams:
    """All parameters of one network in the vector `flat`; `tensors` are
    its named views."""

    tag: str
    flat: np.ndarray
    tensors: FlatTensors = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.tensors = FlatTensors(self.tag, self.flat)

    @property
    def spec(self) -> ArchSpec:
        return ARCHITECTURES[self.tag]

    @property
    def dtype(self) -> np.dtype:
        return self.flat.dtype

    def copy(self) -> "NetworkParams":
        return NetworkParams(self.tag, self.flat.copy())

    def __reduce__(self):
        # Pickled as (tag, flat) alone; unpickling rebuilds the tensors
        # as views of the one vector rather than as copies.
        return NetworkParams, (self.tag, self.flat)


@dataclass
class AdamState:
    lr: float
    t: int
    m: np.ndarray  # first and second moments, shaped like NetworkParams.flat
    v: np.ndarray


class Workspace:
    """Reusable arrays for the passes of one network.

    take(key, shape, dtype) returns an array of that shape whose contents
    are undefined. Each key owns one buffer, grown to the largest request
    so far, so a smaller request (a short last batch, a later, smaller
    layer) is a view of the leading part of the same memory, and a pass
    allocates nothing once every key has met its largest shape. Arrays
    that die inside one layer are keyed by role and shared by every
    layer; what the backward pass reads is keyed by layer.

    A workspace serves one pass at a time: train_network and
    predict_probs each make one per call, and a pass given none makes
    its own, whose arrays its results may then share. Every buffer comes
    from np.empty and is freed with the workspace.
    """

    def __init__(self):
        # key -> (buffer, {shape: view of the buffer})
        self._buffers: dict = {}

    def take(self, key, shape: tuple[int, ...], dtype) -> np.ndarray:
        entry = self._buffers.get(key)
        if entry is not None:
            buffer, views = entry
            view = views.get(shape)
            if view is not None and view.dtype == dtype:
                return view
            size = math.prod(shape)
            if buffer.size >= size and buffer.dtype == dtype:
                view = views[shape] = buffer.reshape(-1)[:size].reshape(shape)
                return view
        buffer = np.empty(shape, dtype=dtype)
        self._buffers[key] = (buffer, {shape: buffer})
        return buffer


def _branch_prefix(spec: ArchSpec, branch: int) -> str:
    return f"img{branch}." if len(spec.branch_channels) > 1 else ""


def _dense_stacks(spec: ArchSpec):
    """Per dense stack: its layer names, then its input and output widths."""
    return (
        (SIDE_LAYERS, (spec.scalar_dim, *spec.side_dims)),
        (HEAD_LAYERS, (spec.concat_dim, *spec.head_dims, 2)),
    )


def _layer_plan(spec: ArchSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Parameter names and shapes in declaration (and file) order."""
    plan: list[tuple[str, tuple[int, ...]]] = []
    for branch, channels in enumerate(spec.branch_channels):
        prefix = _branch_prefix(spec, branch)
        for i in range(spec.conv_pairs):
            plan.append((f"{prefix}conv{i}.kernel", (channels, 3, 3)))
            plan.append((f"{prefix}conv{i}.bias", (channels,)))
    for names, widths in _dense_stacks(spec):
        for name, fan_in, out in zip(names, widths, widths[1:]):
            plan.append((f"{name}.weight", (out, fan_in)))
            plan.append((f"{name}.bias", (out,)))
    return plan


def init_params(tag: str, seed: int, dtype=np.float32) -> NetworkParams:
    """Uniform init in +-sqrt(6 / (fan_in + fan_out)); biases zero."""
    spec = ARCHITECTURES[tag]
    rng = np.random.default_rng(derive_seed(seed, "init", tag))
    plan = _layer_plan(spec)
    params = NetworkParams(tag, np.zeros(sum(math.prod(s) for _, s in plan), dtype=dtype))
    for name, shape in plan:
        if name.endswith(".bias"):
            continue
        if ".conv" in name or name.startswith("conv"):
            fan_in = fan_out = 9
        else:
            fan_out, fan_in = shape
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        params.tensors[name][...] = rng.uniform(-limit, limit, size=shape).astype(dtype)
    return params


def _check_shape(name: str, arr: np.ndarray, expected: tuple[int, ...]) -> None:
    if tuple(arr.shape) != tuple(expected):
        raise AssertionError(f"{name}: shape {arr.shape}, expected {expected}")


def _workspace(workspace: "Workspace | None") -> Workspace:
    return Workspace() if workspace is None else workspace


@functools.cache
def _tap_offsets(row: int) -> tuple[int, ...]:
    """Offsets of the 3x3 taps, row-major, in rows `row` values wide."""
    return tuple(di * row + dj for di in range(3) for dj in range(3))


def _block_count(shape: tuple[int, ...], itemsize: int) -> int:
    """Images per batch block of _padded_blocks: about BLOCK_BYTES of
    input, at least one."""
    return max(1, BLOCK_BYTES // (itemsize * math.prod(shape[1:])))


def _padded_blocks(
    x: np.ndarray, ws: Workspace, block: "int | None" = None
) -> tuple[int, np.ndarray, np.ndarray]:
    """Batch block size for x (block, if given), a zeroed buffer of one
    block, and the view of its interior.

    Each image of the block is padded into a flat run of h + 2 rows of
    w + 2 values and 2 spare zeros, so tap (di, dj) is one contiguous
    slice at offset di * (w + 2) + dj. A block holds about BLOCK_BYTES of
    input, so its working set stays in cache.
    """
    n, c, h, w = x.shape
    row = w + 2
    block = block or _block_count(x.shape, x.itemsize)
    flat = ws.take("conv.padded", (min(block, n), c, (h + 2) * row + 2), x.dtype)
    flat.fill(0)
    interior = flat[..., : (h + 2) * row].reshape(len(flat), c, h + 2, row)[
        ..., 1 : h + 1, 1 : w + 1
    ]
    return block, flat, interior


def _correlate3x3(
    x: np.ndarray,
    kernels: np.ndarray,
    bias: "np.ndarray | None" = None,
    out: "np.ndarray | None" = None,
    workspace: "Workspace | None" = None,
    block: "int | None" = None,
) -> np.ndarray:
    """Per-channel 3x3 cross-correlation, zero padding 1, stride 1, plus
    an optional per-channel bias, written into out (fresh if None).

    The batch runs in the padded blocks of _padded_blocks, reusing one
    accumulator and one tap product. Output rows come out w + 2 wide; the
    copy-out drops their last two, junk, columns. The sums are those of
    one tap loop over the whole batch, in the same order: taps in
    row-major order onto a zero accumulator, the bias last.
    """
    ws = _workspace(workspace)
    n, c, h, w = x.shape
    row = w + 2
    span = h * row
    block, flat, interior = _padded_blocks(x, ws, block)
    acc, tap = ws.take("conv.sums", (2, len(flat), c, span), x.dtype)
    taps = kernels.reshape(c, 9, 1)
    offsets = _tap_offsets(row)
    if out is None:
        out = np.empty((n, c, h, w), dtype=x.dtype)
    for start in range(0, n, block):
        size = min(block, n - start)
        interior[:size] = x[start : start + size]
        padded, a, t = flat[:size], acc[:size], tap[:size]
        np.multiply(taps[:, 0], padded[..., :span], out=a)
        # The zero accumulator plus the first product, as 0 + p turns -0 into +0.
        a += 0
        for i in range(1, 9):
            np.multiply(taps[:, i], padded[..., offsets[i] : offsets[i] + span], out=t)
            a += t
        valid = a.reshape(size, c, h, row)[..., :w]
        if bias is None:
            out[start : start + size] = valid
        else:
            np.add(valid, bias[:, None, None], out=out[start : start + size])
    return out


def conv3x3_depthwise(
    x: np.ndarray,
    kernels: np.ndarray,
    biases: np.ndarray,
    workspace: "Workspace | None" = None,
) -> np.ndarray:
    """Per-channel 3x3 cross-correlation, zero padding 1, stride 1."""
    _check_shape("conv kernels", kernels, (x.shape[-3], 3, 3))
    ws = _workspace(workspace)
    return _correlate3x3(x, kernels, biases, ws.take("pre", x.shape, x.dtype), ws)


def _conv3x3_param_grads(
    x: np.ndarray, grad: np.ndarray, workspace: Workspace, block: "int | None" = None
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients (d_kernels, d_biases) of the depthwise conv.

    x is padded as in _correlate3x3 and grad into rows w + 2 wide whose
    last two values are zero, so over a batch block the gradient of tap
    (di, dj) is one contiguous einsum of the grad rows with x's slice at
    offset di * (w + 2) + dj: the junk columns meet the zeros. Blocks add
    up in batch order. Plain einsum calls no BLAS, so the sums do not
    depend on thread count.
    """
    n, c, h, w = x.shape
    row = w + 2
    span = h * row
    block, flat, interior = _padded_blocks(x, workspace, block)
    rows = workspace.take("conv.grad_rows", (len(flat), c, h, row), x.dtype)
    rows[..., w:] = 0
    d_taps = np.zeros((9, c), dtype=x.dtype)
    block_taps = np.empty_like(d_taps)
    for start in range(0, n, block):
        size = min(block, n - start)
        interior[:size] = x[start : start + size]
        rows[:size, ..., :w] = grad[start : start + size]
        g = rows[:size].reshape(size, c, span)
        for i, offset in enumerate(_tap_offsets(row)):
            window = flat[:size, :, offset : offset + span]
            np.einsum("ncp,ncp->c", g, window, out=block_taps[i])
        d_taps += block_taps
    return d_taps.T.reshape(c, 3, 3), grad.sum(axis=(0, 2, 3))


def conv3x3_depthwise_backward(
    x: np.ndarray,
    grad: np.ndarray,
    kernels: np.ndarray,
    workspace: "Workspace | None" = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients (d_kernels, d_biases, d_input) of the depthwise conv.

    d_input is the forward correlation of grad with the flipped kernel.
    """
    ws = _workspace(workspace)
    d_kernels, d_biases = _conv3x3_param_grads(x, grad, ws)
    d_input = ws.take("d_input", x.shape, x.dtype)
    return d_kernels, d_biases, _correlate3x3(grad, kernels[:, ::-1, ::-1], None, d_input, ws)


def maxpool2x2(
    x: np.ndarray,
    workspace: "Workspace | None" = None,
    layer: str = "",
    record: bool = True,
) -> tuple[np.ndarray, "np.ndarray | None"]:
    """Max over disjoint 2x2 windows [[a, b], [c, d]].

    Also returns, unless record is False, what backward needs to route
    each gradient to the first maximum in row-major order: three boolean
    masks, b > a, d > c and max(c, d) > max(a, b). The output and the
    record are the workspace arrays of `layer`.
    """
    h, w = x.shape[-2:]
    if h % 2 or w % 2:
        raise AssertionError(f"maxpool2x2 needs even spatial dims, got {h}x{w}")
    ws = _workspace(workspace)
    shape = (*x.shape[:-2], h // 2, w // 2)
    masks = ws.take((layer, "record"), (3, *shape), bool) if record else None
    return _maxpool_into(x, ws.take((layer, "pooled"), shape, x.dtype), masks, ws), masks


def _maxpool_into(
    x: np.ndarray, out: np.ndarray, masks: "np.ndarray | None", ws: Workspace
) -> np.ndarray:
    """maxpool2x2 of x written into out, and its record into masks
    unless None; returns out."""
    a = x[..., 0::2, 0::2]
    b = x[..., 0::2, 1::2]
    c = x[..., 1::2, 0::2]
    d = x[..., 1::2, 1::2]
    # top is computed in the output, which then takes max(top, bottom).
    top = np.maximum(a, b, out=out)
    bottom = np.maximum(c, d, out=ws.take("pool.rows", (2, *a.shape), x.dtype)[0])
    if masks is not None:
        np.greater(b, a, out=masks[0])
        np.greater(d, c, out=masks[1])
        np.greater(bottom, top, out=masks[2])
    return np.maximum(top, bottom, out=top)


def maxpool2x2_backward(
    grad: np.ndarray,
    record: np.ndarray,
    input_shape: tuple[int, ...],
    workspace: "Workspace | None" = None,
) -> np.ndarray:
    """Scatter grad back to the window maximum recorded by maxpool2x2."""
    ws = _workspace(workspace)
    right_top, right_bottom, bottom = record
    # A 0/1 mask product and its difference from the whole split a value
    # exactly: one part is the value, the other zero.
    low, top = ws.take("pool.rows", (2, *grad.shape), grad.dtype)
    np.multiply(grad, bottom, out=low)
    np.subtract(grad, low, out=top)
    out = ws.take("pre", input_shape, grad.dtype)
    np.multiply(top, right_top, out=out[..., 0::2, 1::2])
    np.subtract(top, out[..., 0::2, 1::2], out=out[..., 0::2, 0::2])
    np.multiply(low, right_bottom, out=out[..., 1::2, 1::2])
    np.subtract(low, out[..., 1::2, 1::2], out=out[..., 1::2, 0::2])
    return out


def _support_box(x: np.ndarray) -> tuple[int, int, int, int]:
    """Rows r0:r1 and columns c0:c1 of x's canvas that hold every nonzero
    pixel of x, over every sample and channel: their bounding box, grown
    by one pixel for the conv's reach and widened to even bounds for the
    pool grid. An all-zero x gets the box 0:2, 0:2."""
    h, w = x.shape[-2:]
    nonzero = np.any(x, axis=(0, 1))
    rows = np.flatnonzero(nonzero.any(axis=1))
    cols = np.flatnonzero(nonzero.any(axis=0))
    if not len(rows):
        return 0, 2, 0, 2
    return (
        int(max(rows[0] - 1, 0)) // 2 * 2,
        int(min(rows[-1] + 3, h)) // 2 * 2,
        int(max(cols[0] - 1, 0)) // 2 * 2,
        int(min(cols[-1] + 3, w)) // 2 * 2,
    )


def _take_canvas_arrays(
    ws: Workspace, shape, dtype, layer: str, block: int, record: bool
) -> None:
    """Takes, at the canvas's shape, every workspace array that layer 0
    takes at its support box's shape. Buffers only grow, so no later
    batch's larger box replaces one, and the workspace holds what a
    whole-canvas pass holds."""
    n, c, h, w = shape
    block = min(block, n)
    pooled = (n, c, h // 2, w // 2)
    ws.take("pre", shape, dtype)
    ws.take("conv.padded", (block, c, (h + 2) * (w + 2) + 2), dtype)
    ws.take("conv.sums", (2, block, c, h * (w + 2)), dtype)
    ws.take("pool.rows", (2, *pooled), dtype)
    if record:
        ws.take((layer, "record"), (3, *pooled), bool)
        ws.take("conv.grad_rows", (block, c, h, w + 2), dtype)


def _first_conv_pool(x, kernel, bias, ws: Workspace, layer: str, record: bool):
    """Layer 0's conv and max pool, computed on the support box of x
    alone; returns (pooled, record, the box of x, the box's window of
    pooled).

    Outside the box the conv reads only zeros, so it gives +0 + bias
    there (the tap sum on zeros is +0, signed zeros included, for finite
    kernels), every window there pools to that value, and its record
    sends the gradient to the window's first element. The conv runs with
    the canvas's block count, so its buffers never outgrow the canvas's.
    """
    n, c, h, w = x.shape
    r0, r1, c0, c1 = _support_box(x)
    block = _block_count(x.shape, x.itemsize)
    _take_canvas_arrays(ws, x.shape, x.dtype, layer, block, record)
    box = x[..., r0:r1, c0:c1]
    pre = _correlate3x3(box, kernel, bias, ws.take("pre", box.shape, x.dtype), ws, block)
    pooled = ws.take((layer, "pooled"), (n, c, h // 2, w // 2), x.dtype)
    pooled[...] = (bias + 0)[:, None, None]
    window = (slice(r0 // 2, r1 // 2), slice(c0 // 2, c1 // 2))
    masks = None
    if record:
        masks = ws.take((layer, "record"), (3, n, c, (r1 - r0) // 2, (c1 - c0) // 2), bool)
    _maxpool_into(pre, pooled[(..., *window)], masks, ws)
    return pooled, masks, box, window


def _first_conv_pool_grads(
    box: np.ndarray, d_pooled: np.ndarray, record: np.ndarray, window, ws: Workspace
) -> tuple[np.ndarray, np.ndarray]:
    """Layer 0's (d_kernels, d_biases) from the gradient at its pooled
    output (relu mask applied), given what _first_conv_pool returned.

    Each pooled gradient goes to one pre-activation, so d_pooled sums to
    the bias gradient. The pool backward and kernel gradients run on the
    box alone: outside it every input is zero. The images need no
    gradient.
    """
    n, c, h, w = d_pooled.shape
    d_pre = maxpool2x2_backward(d_pooled[(..., *window)], record, box.shape, ws)
    block = _block_count((n, c, 2 * h, 2 * w), box.itemsize)
    return _conv3x3_param_grads(box, d_pre, ws, block)[0], d_pooled.sum(axis=(0, 2, 3))


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


def _dense_forward(params, x, names, widths, note) -> list[np.ndarray]:
    """One stack of _dense_stacks; returns its input and every layer's
    output. The "out" layer, which has no ReLU, is noted as the logits."""
    acts = [x]
    for name, out in zip(names, widths[1:]):
        relu = name != "out"
        weight, bias = params.tensors[name + ".weight"], params.tensors[name + ".bias"]
        x = dense(x, weight, bias, relu)
        name = name if relu else "logits"
        _check_shape(name, x, (len(x), out))
        note(name, x.shape)
        acts.append(x)
    return acts


def _forward(
    params: NetworkParams,
    images: np.ndarray,
    scalars: np.ndarray,
    ws: Workspace,
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

    def note(name, shape):
        if trace is not None:
            trace.append((name, tuple(shape)))

    note("input.images", images.shape)
    note("input.scalars", scalars.shape)

    flats = []
    offset = 0
    # Depth-first per branch keeps each layer chain in cache; a fused stack ran slower.
    for branch, channels in enumerate(spec.branch_channels):
        prefix = _branch_prefix(spec, branch)
        x = images[:, offset : offset + channels]
        offset += channels
        hw = spec.image_hw
        for i in range(spec.conv_pairs):
            layer = f"{prefix}layer{i}"
            kernel = params.tensors[f"{prefix}conv{i}.kernel"]
            bias = params.tensors[f"{prefix}conv{i}.bias"]
            note(f"{prefix}conv{i}", (batch, channels, hw, hw))
            if i == 0:
                pooled, record, x, window = _first_conv_pool(
                    x, kernel, bias, ws, layer, cache is not None
                )
            else:
                pre = conv3x3_depthwise(x, kernel, bias, ws)
                _check_shape(f"{prefix}conv{i}", pre, (batch, channels, hw, hw))
                pooled, record = maxpool2x2(pre, ws, layer, cache is not None)
                window = None
            # max and relu commute, so the relu runs on the pooled quarter.
            np.maximum(pooled, 0, out=pooled)
            hw //= 2
            _check_shape(f"{prefix}pool{i}", pooled, (batch, channels, hw, hw))
            note(f"{prefix}pool{i}", pooled.shape)
            if cache is not None:
                cache[layer] = (x, record, pooled, window)
            x = pooled
        flats.append(x.reshape(batch, -1))

    flat = np.concatenate(flats, axis=1) if len(flats) > 1 else flats[0]
    _check_shape("flatten", flat, (batch, spec.flatten_dim))
    note("flatten", flat.shape)

    side_stack, head_stack = _dense_stacks(spec)
    side = _dense_forward(params, scalars, *side_stack, note)
    concat = np.concatenate([flat, side[-1]], axis=1)
    _check_shape("concat", concat, (batch, spec.concat_dim))
    note("concat", concat.shape)
    head = _dense_forward(params, concat, *head_stack, note)

    if cache is not None:
        cache["side"], cache["head"] = side, head
    return head[-1]


def network_forward(
    params: NetworkParams,
    images: np.ndarray,
    scalars: np.ndarray,
    trace: "list | None" = None,
    workspace: "Workspace | None" = None,
) -> np.ndarray:
    """Class probabilities, shape (batch, 2)."""
    logits = _forward(params, images, scalars, _workspace(workspace), trace=trace)
    probs = np.exp(_log_softmax(logits))
    if trace is not None:
        trace.append(("probs", tuple(probs.shape)))
    if not np.isfinite(probs).all():
        raise AssertionError("non-finite probabilities")
    return probs


def _dense_backward(grad, acts, names, params, grads):
    """Writes the weight and bias gradients of one dense stack, whose
    input and layer outputs _dense_forward returned as acts, into grads
    and returns the gradient at the stack's input."""
    for k, name in reversed(list(enumerate(names))):
        if name != "out":
            grad = grad * (acts[k + 1] > 0)
        np.matmul(grad.T, acts[k], out=grads[name + ".weight"])
        np.sum(grad, axis=0, out=grads[name + ".bias"])
        grad = grad @ params.tensors[name + ".weight"]
    return grad


def network_gradients(
    params: NetworkParams,
    images: np.ndarray,
    scalars: np.ndarray,
    onehot: np.ndarray,
    workspace: "Workspace | None" = None,
) -> tuple[FlatTensors, np.ndarray, np.ndarray]:
    """Exact gradients of the mean cross-entropy over the batch.

    Returns (grads, probs, per-sample losses); grads are views into one
    vector of the workspace, laid out like params.flat.
    """
    spec = params.spec
    ws = _workspace(workspace)
    cache: dict = {}
    logits = _forward(params, images, scalars, ws, cache=cache)
    onehot = np.asarray(onehot, dtype=logits.dtype)
    probs, losses = softmax_xent(logits, onehot)
    batch = logits.shape[0]

    grads = FlatTensors(params.tag, ws.take("grads", params.flat.shape, params.dtype))
    d_logits = (probs - onehot) / batch

    d_concat = _dense_backward(d_logits, cache["head"], HEAD_LAYERS, params, grads)
    d_flat = d_concat[:, : spec.flatten_dim]
    _dense_backward(d_concat[:, spec.flatten_dim :], cache["side"], SIDE_LAYERS, params, grads)

    final = spec.final_hw
    offset = 0
    for branch, channels in enumerate(spec.branch_channels):
        prefix = _branch_prefix(spec, branch)
        width = channels * final * final
        d_x = d_flat[:, offset : offset + width].reshape(batch, channels, final, final)
        offset += width
        for i in reversed(range(spec.conv_pairs)):
            x_in, record, pooled, window = cache[f"{prefix}layer{i}"]
            # d_x is dead after this layer, so the relu mask applies in place.
            alive = np.greater(pooled, 0, out=ws.take("relu", pooled.shape, bool))
            np.multiply(d_x, alive, out=d_x)
            if i == 0:
                d_kernel, d_bias = _first_conv_pool_grads(x_in, d_x, record, window, ws)
            else:
                d_pre = maxpool2x2_backward(d_x, record, x_in.shape, ws)
                d_kernel, d_bias, d_x = conv3x3_depthwise_backward(
                    x_in, d_pre, params.tensors[f"{prefix}conv{i}.kernel"], ws
                )
            grads[f"{prefix}conv{i}.kernel"][...] = d_kernel
            grads[f"{prefix}conv{i}.bias"][...] = d_bias

    return grads, probs, losses


def init_adam(params: NetworkParams, lr: float = ADAM_LR) -> AdamState:
    return AdamState(lr=lr, t=0, m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))


def adam_step(
    params: NetworkParams, grads: FlatTensors, state: AdamState
) -> tuple[NetworkParams, AdamState]:
    """One Adam update of params.flat, state.m and state.v in place;
    returns params and state."""
    state.t += 1
    g = grads.flat
    m, v = state.m, state.v
    m *= ADAM_BETA1
    m += (1.0 - ADAM_BETA1) * g
    v *= ADAM_BETA2
    v += (1.0 - ADAM_BETA2) * g * g
    m_hat = m / (1.0 - ADAM_BETA1**state.t)
    v_hat = v / (1.0 - ADAM_BETA2**state.t)
    params.flat -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPSILON)
    return params, state


def _sample_index(images: np.ndarray, rows) -> tuple[np.ndarray, ...]:
    """One index array per leading axis of images (all but its last
    three) locating each sample: rows number the samples row-major over
    those axes, and None means every sample in order."""
    lead = images.shape[:-3]
    return np.unravel_index(np.arange(math.prod(lead)) if rows is None else rows, lead)


def _gather(images: np.ndarray, index: tuple[np.ndarray, ...], ws: Workspace) -> np.ndarray:
    """The images of the samples at index, copied one by one into the
    workspace's batch array. A copy per sample reads a memory-mapped
    store, or a strided view of one such as its first rotations, without
    copying any other sample."""
    out = ws.take("images", (len(index[0]), *images.shape[-3:]), images.dtype)
    for k, at in enumerate(zip(*index)):
        out[k] = images[at]
    return out


def _check_samples(n: int, **arrays: np.ndarray) -> None:
    for name, array in arrays.items():
        if len(array) != n:
            raise ValueError(f"{n} samples but {len(array)} rows of {name}")


def predict_probs(
    params: NetworkParams,
    images: np.ndarray,
    scalars: np.ndarray,
    workspace: "Workspace | None" = None,
    rows: "np.ndarray | None" = None,
) -> np.ndarray:
    """Class probabilities, (samples, 2), of the samples `rows` of images,
    forwarded in PREDICT_CHUNK-sized chunks.

    images may be a store with more than one leading axis, such as
    (crowns, rotations, C, H, W); rows number its samples row-major, and
    None means every sample in order. scalars hold one row per sample,
    in the same order. Each chunk's images are gathered into the
    workspace, so a call never holds more than one chunk of them.

    No chunk has one row: a one-row batch takes BLAS's matrix-vector path
    in the dense layers, whose bits differ from the same sample in any
    larger batch. A one-row tail joins the previous chunk, and a lone
    sample is forwarded twice and its first row kept.
    """
    index = _sample_index(images, rows)
    n = len(index[0])
    _check_samples(n, scalars=scalars)
    if n == 1:
        index = tuple(np.repeat(i, 2) for i in index)
        scalars = np.repeat(scalars, 2, axis=0)
    ws = _workspace(workspace)
    probs = np.empty((len(scalars), 2), params.dtype)
    # No chunk starts on the last row, so a one-row tail joins the chunk before.
    starts = list(range(0, len(scalars) - 1, PREDICT_CHUNK[params.tag]))
    for a, b in zip(starts, starts[1:] + [len(scalars)]):
        batch = _gather(images, tuple(i[a:b] for i in index), ws)
        probs[a:b] = network_forward(params, batch, scalars[a:b], workspace=ws)
    return probs[:n]


def train_network(
    params: NetworkParams,
    images: np.ndarray,
    scalars: np.ndarray,
    onehots: np.ndarray,
    epochs: int,
    batch_size: int = BATCH_SIZE,
    seed: int = 0,
    lr: float = ADAM_LR,
    rows: "np.ndarray | None" = None,
) -> tuple[NetworkParams, float]:
    """Mini-batch Adam training over shuffled epochs, on a copy of params.

    The training samples are `rows` of images, numbered as in
    predict_probs (None: every sample in order), with scalars and
    onehots one row per sample in the same order; each batch's images
    are gathered into the workspace, never the whole sample set.
    Returns the trained parameters and the training accuracy measured
    over all the (augmented) samples after the final epoch. One
    workspace serves every step and the accuracy pass.
    """
    index = _sample_index(images, rows)
    n = len(index[0])
    if n == 0:
        raise ValueError("no training samples")
    _check_samples(n, scalars=scalars, onehots=onehots)
    params = params.copy()
    state = init_adam(params, lr=lr)
    ws = Workspace()
    rng = np.random.default_rng(derive_seed(seed, "train-shuffle"))
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            take = order[start : start + batch_size]
            batch = _gather(images, tuple(i[take] for i in index), ws)
            grads, _, _ = network_gradients(
                params, batch, scalars[take], onehots[take], workspace=ws
            )
            adam_step(params, grads, state)
    probs = predict_probs(params, images, scalars, ws, rows)
    accuracy = float(
        np.mean(np.argmax(probs, axis=1) == np.argmax(onehots, axis=1))
    )
    return params, accuracy
