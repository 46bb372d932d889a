"""tinynet layer probes: batch-32 float32 timings of each layer kind on
fixed inputs, for one architecture.

Conv and pool layers are found from the network's own parameter names
(`...conv<i>.kernel`), so the probes time every conv layer the network
has at its real input size, however the branches are laid out.
"""

from __future__ import annotations

import re
import statistics
import time

import numpy as np

from crownclass import tinynet

BATCH = 32
_CONV = re.compile(r"(.*)conv(\d+)\.kernel")


def _ms(fn, repeats: int) -> float:
    fn()  # first call pays allocation and cache warm-up
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - start)
    return 1000.0 * statistics.median(samples)


def probe(arch: str, repeats: int = 7) -> dict[str, float]:
    spec = tinynet.ARCHITECTURES[arch]
    rng = np.random.default_rng(0)
    params = tinynet.init_params(arch, seed=0)
    hw = spec.image_hw
    images = rng.random((BATCH, spec.input_channels, hw, hw), dtype=np.float32)
    scalars = rng.random((BATCH, spec.scalar_dim), dtype=np.float32)
    onehot = np.zeros((BATCH, 2), dtype=np.float32)
    onehot[np.arange(BATCH), rng.integers(0, 2, BATCH)] = 1.0

    convs = []  # (layer index, input, kernel, bias, output gradient)
    for name, kernel in params.tensors.items():
        match = _CONV.fullmatch(name)
        if not match:
            continue
        layer = int(match.group(2))
        side = hw >> layer
        shape = (BATCH, kernel.shape[0], side, side)
        convs.append(
            (
                layer,
                rng.random(shape, dtype=np.float32),
                kernel,
                params.tensors[f"{match.group(1)}conv{layer}.bias"],
                rng.standard_normal(shape, dtype=np.float32),
            )
        )
    pools = []  # (input, argmax record, output gradient)
    for _, x, kernel, bias, _ in convs:
        pre = tinynet.conv3x3_depthwise(x, kernel, bias)
        pooled, record = tinynet.maxpool2x2(pre)
        pools.append((pre, record, rng.standard_normal(pooled.shape, dtype=np.float32)))
    denses = [
        (
            rng.random((BATCH, weight.shape[1]), dtype=np.float32),
            weight,
            params.tensors[name.replace(".weight", ".bias")],
        )
        for name, weight in params.tensors.items()
        if name.endswith(".weight")
    ]

    state = tinynet.init_adam(params)
    grads, _, _ = tinynet.network_gradients(params, images, scalars, onehot)
    params64 = tinynet.init_params(arch, seed=0, dtype=np.float64)
    images64 = images[:1].astype(np.float64)
    scalars64 = scalars[:1].astype(np.float64)

    def train_step():
        step_grads, _, _ = tinynet.network_gradients(params, images, scalars, onehot)
        tinynet.adam_step(params, step_grads, state)

    conv_fwd = _ms(lambda: [tinynet.conv3x3_depthwise(x, k, b) for _, x, k, b, _ in convs], repeats)
    conv_flops = sum(18 * x.size for _, x, _, _, _ in convs)  # 9 multiply-adds per output
    prefix = f"tinynet.{arch}."
    return {
        prefix + "conv_fwd_ms": conv_fwd,
        prefix + "conv_bwd_ms": _ms(
            lambda: [tinynet.conv3x3_depthwise_backward(x, g, k) for _, x, k, _, g in convs],
            repeats,
        ),
        prefix + "conv0_bwd_ms": _ms(
            lambda: [
                tinynet.conv3x3_depthwise_backward(x, g, k)
                for layer, x, k, _, g in convs
                if layer == 0
            ],
            repeats,
        ),
        prefix + "pool_fwd_ms": _ms(lambda: [tinynet.maxpool2x2(p) for p, _, _ in pools], repeats),
        prefix + "pool_bwd_ms": _ms(
            lambda: [tinynet.maxpool2x2_backward(g, r, p.shape) for p, r, g in pools], repeats
        ),
        prefix + "dense_ms": _ms(
            lambda: [tinynet.dense(x, w, b, relu=True) for x, w, b in denses], repeats
        ),
        prefix + "adam_ms": _ms(lambda: tinynet.adam_step(params, grads, state), repeats),
        prefix + "forward_ms": _ms(
            lambda: tinynet.network_forward(params, images, scalars), repeats
        ),
        prefix + "train_step_ms": _ms(train_step, repeats),
        prefix + "forward_b1_f64_ms": _ms(
            lambda: tinynet.network_forward(params64, images64, scalars64), repeats
        ),
        prefix + "conv_gflop_per_s": conv_flops / (conv_fwd / 1000.0) / 1e9,
    }
