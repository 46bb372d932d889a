"""Tests for the network core: layer math, shapes, gradients against
finite differences and against reference implementations, Adam, training
behavior, and snapshots."""

import math
import pickle
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gradtools import max_gradient_error, random_inputs, randomize_biases
from crownclass import tinynet
from crownclass.util import derive_seed
from crownclass.tinynet import (
    ARCHITECTURES,
    PREDICT_CHUNK,
    FlatTensors,
    adam_step,
    conv3x3_depthwise,
    conv3x3_depthwise_backward,
    dense,
    init_adam,
    init_params,
    maxpool2x2,
    maxpool2x2_backward,
    network_forward,
    network_gradients,
    predict_probs,
    softmax_xent,
    train_network,
)


# Straightforward reference implementations the optimized kernels must
# agree with: argmax pooling over reshaped windows, scatter-add conv
# backward, and relu-then-pool gradients with an input gradient at every
# layer.


def reference_maxpool2x2(x):
    *lead, c, h, w = x.shape
    windows = np.moveaxis(x.reshape(*lead, c, h // 2, 2, w // 2, 2), -3, -2)
    flat = windows.reshape(*lead, c, h // 2, w // 2, 4)
    idx = np.argmax(flat, axis=-1)
    return np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0], idx


def reference_maxpool2x2_backward(grad, idx, input_shape):
    *lead, c, h, w = input_shape
    flat = np.zeros((*lead, c, h // 2, w // 2, 4), dtype=grad.dtype)
    np.put_along_axis(flat, idx[..., None], grad[..., None], axis=-1)
    windows = np.moveaxis(flat.reshape(*lead, c, h // 2, w // 2, 2, 2), -2, -3)
    return windows.reshape(*lead, c, h, w)


def reference_correlate3x3(x, kernels, bias=None):
    """One multiply-add per tap over the whole padded batch, taps in
    row-major order onto a zero accumulator, then the bias."""
    *_, h, w = x.shape
    padded = np.zeros((*x.shape[:-2], h + 2, w + 2), dtype=x.dtype)
    padded[..., 1 : h + 1, 1 : w + 1] = x
    out = np.zeros_like(x)
    for di in range(3):
        for dj in range(3):
            out += kernels[:, di, dj][:, None, None] * padded[..., di : di + h, dj : dj + w]
    return out if bias is None else out + bias[:, None, None]


def reference_conv_backward(x, grad, kernels):
    n, c, h, w = x.shape
    padded = np.zeros((n, c, h + 2, w + 2), dtype=x.dtype)
    padded[..., 1 : h + 1, 1 : w + 1] = x
    d_padded = np.zeros_like(padded)
    d_kernels = np.zeros_like(kernels)
    for di in range(3):
        for dj in range(3):
            window = padded[..., di : di + h, dj : dj + w]
            d_kernels[:, di, dj] = (grad * window).sum(axis=(0, 2, 3))
            d_padded[..., di : di + h, dj : dj + w] += kernels[:, di, dj][:, None, None] * grad
    return d_kernels, grad.sum(axis=(0, 2, 3)), d_padded[..., 1 : h + 1, 1 : w + 1]


def reference_network_gradients(params, images, scalars, onehot):
    """(grads, probs) from relu-then-pool layers and the reference kernels."""
    spec, t = params.spec, params.tensors
    batch = len(images)
    prefixes = [
        f"img{b}." if len(spec.branch_channels) > 1 else ""
        for b in range(len(spec.branch_channels))
    ]
    layers, flats, offset = {}, [], 0
    for prefix, channels in zip(prefixes, spec.branch_channels):
        x = images[:, offset : offset + channels]
        offset += channels
        for i in range(spec.conv_pairs):
            pre = conv3x3_depthwise(x, t[f"{prefix}conv{i}.kernel"], t[f"{prefix}conv{i}.bias"])
            pooled, idx = reference_maxpool2x2(np.maximum(pre, 0))
            layers[prefix, i] = (x, pre, idx)
            x = pooled
        flats.append(x.reshape(batch, -1))
    side0 = dense(scalars, t["side0.weight"], t["side0.bias"], relu=True)
    side1 = dense(side0, t["side1.weight"], t["side1.bias"], relu=True)
    concat = np.concatenate(flats + [side1], axis=1)
    head0 = dense(concat, t["head0.weight"], t["head0.bias"], relu=True)
    head1 = dense(head0, t["head1.weight"], t["head1.bias"], relu=True)
    logits = dense(head1, t["out.weight"], t["out.bias"], relu=False)
    probs, _ = softmax_xent(logits, onehot)

    grads = {}

    def back(grad, x, name, activated=None):
        if activated is not None:
            grad = grad * (activated > 0)
        grads[name + ".weight"] = grad.T @ x
        grads[name + ".bias"] = grad.sum(axis=0)
        return grad @ t[name + ".weight"]

    d_head1 = back((probs - onehot) / batch, head1, "out")
    d_head0 = back(d_head1, head0, "head1", head1)
    d_concat = back(d_head0, concat, "head0", head0)
    d_side0 = back(d_concat[:, spec.flatten_dim :], side0, "side1", side1)
    back(d_side0, scalars, "side0", side0)
    final, offset = spec.final_hw, 0
    for prefix, channels in zip(prefixes, spec.branch_channels):
        width = channels * final * final
        d_x = d_concat[:, offset : offset + width].reshape(batch, channels, final, final)
        offset += width
        for i in reversed(range(spec.conv_pairs)):
            x, pre, idx = layers[prefix, i]
            d_act = reference_maxpool2x2_backward(d_x, idx, pre.shape)
            grads[f"{prefix}conv{i}.kernel"], grads[f"{prefix}conv{i}.bias"], d_x = (
                reference_conv_backward(x, d_act * (pre > 0), t[f"{prefix}conv{i}.kernel"])
            )
    return grads, probs


def dsm_like(rng, shape, dtype=np.float64):
    """Crown-like rasters: a zero background around a disc of heights
    quantized to quarter steps, so pooling windows often hold ties."""
    *_, h, w = shape
    rows, cols = np.mgrid[0:h, 0:w]
    radius = rng.uniform(0.2, 0.5, size=shape[:-2] + (1, 1)) * min(h, w)
    inside = (rows - h / 2) ** 2 + (cols - w / 2) ** 2 < radius**2
    heights = np.round(rng.uniform(0.0, 2.0, size=shape) * 4) / 4
    return np.where(inside, heights, 0.0).astype(dtype)


even_side = st.integers(1, 4).map(lambda k: 2 * k)
# Few distinct values, signed zeros among them: ties in almost every window.
tie_prone = hnp.arrays(
    np.float64,
    st.tuples(st.integers(1, 2), st.integers(1, 3), even_side, even_side),
    elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0]),
)


class TestConv:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(1, 2, 6, 6))
        kernels = np.zeros((2, 3, 3))
        kernels[:, 1, 1] = 1.0
        out = conv3x3_depthwise(x, kernels, np.zeros(2))
        np.testing.assert_allclose(out, x)

    def test_all_ones_kernel_counts_neighbors(self):
        """On an all-ones 4x4 input, each output equals the number of
        in-bounds taps: 4 at corners, 6 on edges, 9 inside."""
        x = np.ones((1, 1, 4, 4))
        out = conv3x3_depthwise(x, np.ones((1, 3, 3)), np.zeros(1))
        expected = np.array(
            [
                [4.0, 6.0, 6.0, 4.0],
                [6.0, 9.0, 9.0, 6.0],
                [6.0, 9.0, 9.0, 6.0],
                [4.0, 6.0, 6.0, 4.0],
            ]
        )
        np.testing.assert_allclose(out[0, 0], expected)

    def test_bias_on_zero_input(self):
        out = conv3x3_depthwise(
            np.zeros((1, 2, 4, 4)), np.zeros((2, 3, 3)), np.array([1.5, -2.0])
        )
        np.testing.assert_allclose(out[0, 0], 1.5)
        np.testing.assert_allclose(out[0, 1], -2.0)

    def test_linearity(self):
        rng = np.random.default_rng(2)
        kernels = rng.normal(size=(3, 3, 3))
        x = rng.normal(size=(2, 3, 8, 8))
        y = rng.normal(size=(2, 3, 8, 8))
        a, b = 1.7, -0.4
        zero_bias = np.zeros(3)
        lhs = conv3x3_depthwise(a * x + b * y, kernels, zero_bias)
        rhs = a * conv3x3_depthwise(x, kernels, zero_bias) + b * conv3x3_depthwise(
            y, kernels, zero_bias
        )
        np.testing.assert_allclose(lhs, rhs, rtol=1e-9)

    def test_channels_are_independent(self):
        x = np.zeros((1, 2, 4, 4))
        x[0, 0] = 1.0
        kernels = np.zeros((2, 3, 3))
        kernels[1, 1, 1] = 1.0  # only channel 1 has a live kernel
        out = conv3x3_depthwise(x, kernels, np.zeros(2))
        np.testing.assert_allclose(out, 0.0)


def signed_zero_floats(dtype):
    """Elements of dtype in [-100, 100], +0.0 and -0.0 among them."""
    return st.one_of(
        st.sampled_from([0.0, -0.0]), st.floats(-100, 100, width=32)
    ).map(dtype)


def assert_conv_kernels_match_reference(x, kernels, bias):
    reference = reference_correlate3x3(x, kernels)
    assert tinynet._correlate3x3(x, kernels).tobytes() == reference.tobytes()
    reference = reference_correlate3x3(x, kernels, bias)
    assert conv3x3_depthwise(x, kernels, bias).tobytes() == reference.tobytes()
    d_input = conv3x3_depthwise_backward(x, x, kernels)[2]
    assert d_input.tobytes() == reference_correlate3x3(x, kernels[:, ::-1, ::-1]).tobytes()


@st.composite
def conv_cases(draw):
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n, c = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    h, w = draw(st.integers(1, 20)), draw(st.integers(1, 20))
    elements = signed_zero_floats(dtype)
    x = draw(hnp.arrays(dtype, (n, c, h, w), elements=elements))
    kernels = draw(hnp.arrays(dtype, (c, 3, 3), elements=elements))
    bias = draw(hnp.arrays(dtype, (c,), elements=elements))
    return x, kernels, bias


class TestCorrelateBlocks:
    """The flat-shift, batch-blocked kernel gives the bits of one tap loop
    over the whole batch, whatever the block size."""

    @settings(max_examples=150, deadline=None)
    @given(case=conv_cases(), block_bytes=st.sampled_from([1, 200, 4096, tinynet.BLOCK_BYTES]))
    def test_bits_match_reference(self, case, block_bytes):
        saved = tinynet.BLOCK_BYTES
        tinynet.BLOCK_BYTES = block_bytes
        try:
            assert_conv_kernels_match_reference(*case)
        finally:
            tinynet.BLOCK_BYTES = saved

    @pytest.mark.parametrize(
        "n, c, side", [(1, 4, 128), (2, 4, 128), (3, 4, 128), (17, 1, 64), (33, 1, 64)]
    )
    def test_layer_sizes_across_blocks(self, n, c, side):
        rng = np.random.default_rng(n)
        x = dsm_like(rng, (n, c, side, side), np.float32)
        x[:, :, ::7] *= -1.0  # -0.0 in the background
        kernels = rng.normal(size=(c, 3, 3)).astype(np.float32)
        bias = rng.normal(size=c).astype(np.float32)
        block = max(1, tinynet.BLOCK_BYTES // x[0].nbytes)
        assert (n > block) == (n > 1)  # several blocks; at 17 and 33 the last is partial
        assert_conv_kernels_match_reference(x, kernels, bias)

    @pytest.mark.parametrize("tag", ["dsm", "views", "views_reduced"])
    def test_network_bits_match_reference_kernel(self, tag, monkeypatch):
        rng = np.random.default_rng(21)
        params = randomize_biases(init_params(tag, seed=21), rng)

        def output_bytes():
            results = []
            for batch in (1, 2, 7, 33):
                images, scalars = crown_like_inputs(tag, np.random.default_rng(batch), batch)
                onehot = np.eye(2, dtype=np.float32)[np.arange(batch) % 2]
                grads, probs, losses = network_gradients(params, images, scalars, onehot)
                results += [g.tobytes() for g in grads.values()]
                results += [probs.tobytes(), losses.tobytes()]
                results.append(predict_probs(params, images, scalars).tobytes())
            return results

        def reference_into(x, kernels, bias=None, out=None, workspace=None, block=None):
            result = reference_correlate3x3(x, kernels, bias)
            if out is None:
                return result
            out[...] = result
            return out

        blocked = output_bytes()
        monkeypatch.setattr(tinynet, "_correlate3x3", reference_into)
        assert output_bytes() == blocked


class TestMaxPool:
    def test_single_window(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        out, _ = maxpool2x2(x)
        assert out[0, 0, 0, 0] == 4.0

    def test_tie_routes_to_first_row_major(self):
        x = np.full((1, 1, 2, 2), 7.0)
        out, idx = maxpool2x2(x)
        assert out[0, 0, 0, 0] == 7.0
        back = maxpool2x2_backward(np.ones_like(out), idx, x.shape)
        expected = np.zeros_like(x)
        expected[0, 0, 0, 0] = 1.0
        np.testing.assert_array_equal(back, expected)

    def test_spatial_chain_128_to_2(self):
        x = np.random.default_rng(3).normal(size=(1, 4, 128, 128))
        for _ in range(6):
            x, _ = maxpool2x2(x)
        assert x.shape == (1, 4, 2, 2)

    def test_odd_dims_rejected(self):
        with pytest.raises(AssertionError, match="even"):
            maxpool2x2(np.zeros((1, 1, 3, 4)))

    @staticmethod
    def assert_matches_reference(x, grad):
        out, record = maxpool2x2(x)
        ref_out, idx = reference_maxpool2x2(x)
        # Equal values; a tie of -0.0 and 0.0 may keep either sign.
        np.testing.assert_array_equal(out, ref_out)
        np.testing.assert_array_equal(
            maxpool2x2_backward(grad, record, x.shape),
            reference_maxpool2x2_backward(grad, idx, x.shape),
        )

    @settings(max_examples=200, deadline=None)
    @given(x=tie_prone, seed=st.integers(0, 2**32 - 1))
    def test_matches_argmax_reference_on_ties(self, x, seed):
        grad = np.random.default_rng(seed).normal(size=reference_maxpool2x2(x)[0].shape)
        self.assert_matches_reference(x, grad)

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dtype=st.sampled_from([np.float32, np.float64]))
    def test_matches_argmax_reference_on_dsm_like_rasters(self, seed, dtype):
        rng = np.random.default_rng(seed)
        x = dsm_like(rng, (2, 4, 32, 32), dtype)
        self.assert_matches_reference(x, rng.normal(size=(2, 4, 16, 16)).astype(dtype))

    @settings(max_examples=200, deadline=None)
    @given(x=tie_prone)
    def test_pool_then_relu_is_bit_identical_to_relu_then_pool(self, x):
        pooled, _ = maxpool2x2(x)
        ref, _ = reference_maxpool2x2(np.maximum(x, 0))
        assert np.maximum(pooled, 0).tobytes() == ref.tobytes()


class TestConvBackward:
    @settings(max_examples=100, deadline=None)
    @given(
        shape=st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(1, 9), st.integers(1, 9)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_scatter_add_reference(self, shape, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape)
        grad = rng.normal(size=shape)
        kernels = rng.normal(size=(shape[1], 3, 3))
        for got, ref in zip(
            conv3x3_depthwise_backward(x, grad, kernels),
            reference_conv_backward(x, grad, kernels),
        ):
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()))


# (channels, side) of every conv layer of the three architectures.
LAYER_SIZES = sorted(
    {
        (channels, spec.image_hw >> i)
        for spec in ARCHITECTURES.values()
        for channels in spec.branch_channels
        for i in range(spec.conv_pairs)
    }
)


def quantized(rng, shape, step, limit):
    """float32 multiples of step in [-limit, limit], about half of the
    zeros negative."""
    k = round(limit / step)
    x = (rng.integers(-k, k + 1, size=shape) * step).astype(np.float32)
    x[(x == 0) & (rng.random(shape) < 0.5)] = -0.0
    return x


def param_grads(x, grad, block_bytes):
    saved = tinynet.BLOCK_BYTES
    tinynet.BLOCK_BYTES = block_bytes
    try:
        return tinynet._conv3x3_param_grads(x, grad, tinynet.Workspace())
    finally:
        tinynet.BLOCK_BYTES = saved


def assert_within_summation_bound(x, grad, d_kernels, d_biases):
    """d_kernels and d_biases, the conv's parameter gradients at x for the
    output gradient grad, computed in x's dtype, are within the summation
    bound of the float64 scatter-add reference."""
    x64, grad64 = x.astype(np.float64), grad.astype(np.float64)
    zero = np.zeros((x.shape[1], 3, 3))
    ref_kernels, ref_biases, _ = reference_conv_backward(x64, grad64, zero)
    abs_kernels, abs_biases, _ = reference_conv_backward(np.abs(x64), np.abs(grad64), zero)
    # n products summed in any order are off by at most
    # n * (eps * sum |terms| + the smallest subnormal).
    terms = x.shape[0] * x.shape[2] * x.shape[3]
    info = np.finfo(x.dtype)
    bound = terms * (info.eps * abs_kernels + info.smallest_subnormal)
    assert np.all(np.abs(d_kernels - ref_kernels) <= bound)
    bound = terms * (info.eps * abs_biases + info.smallest_subnormal)
    assert np.all(np.abs(d_biases - ref_biases) <= bound)


class TestConvParamGrads:
    """Flat-shift kernel gradients against the float64 scatter-add
    reference, at every block size."""

    block_sizes = st.sampled_from([1, 200, 4096, tinynet.BLOCK_BYTES])

    @settings(max_examples=150, deadline=None)
    @given(
        shape=st.tuples(
            st.integers(1, 40), st.integers(1, 4), st.integers(1, 20), st.integers(1, 20)
        ),
        data=st.data(),
        block_bytes=block_sizes,
    )
    def test_within_float32_summation_bound(self, shape, data, block_bytes):
        elements = signed_zero_floats(np.float32)
        x = data.draw(hnp.arrays(np.float32, shape, elements=elements))
        grad = data.draw(hnp.arrays(np.float32, shape, elements=elements))
        d_kernels, d_biases = param_grads(x, grad, block_bytes)
        assert d_kernels.dtype == d_biases.dtype == np.float32
        assert_within_summation_bound(x, grad, d_kernels, d_biases)

    @pytest.mark.parametrize("channels, side", LAYER_SIZES)
    @settings(max_examples=4, deadline=None)
    @given(
        n=st.one_of(st.sampled_from([17, 33]), st.integers(1, 33)),
        block_bytes=block_sizes,
        seed=st.integers(0, 2**32 - 1),
    )
    def test_exact_at_layer_sizes(self, channels, side, n, block_bytes, seed):
        """Quarter-step inputs and half-step gradients keep every partial
        sum exact in float32, so any summation order must give the
        reference value; 17 and 33 leave a partial last block at most
        block sizes."""
        rng = np.random.default_rng(seed)
        x = quantized(rng, (n, channels, side, side), 0.25, 2.0)
        grad = quantized(rng, x.shape, 0.5, 1.0)
        d_kernels, d_biases = param_grads(x, grad, block_bytes)
        ref_kernels, ref_biases, _ = reference_conv_backward(
            x.astype(np.float64), grad.astype(np.float64), np.zeros((channels, 3, 3))
        )
        np.testing.assert_array_equal(d_kernels, ref_kernels)
        np.testing.assert_array_equal(d_biases, ref_biases)


class TestDense:
    def test_identity(self):
        x = np.array([[1.0, -2.0, 3.0]])
        out = dense(x, np.eye(3), np.zeros(3), relu=False)
        np.testing.assert_allclose(out, x)

    def test_relu_clamps_negative(self):
        out = dense(np.array([[1.0]]), np.array([[-2.0]]), np.zeros(1), relu=True)
        assert out[0, 0] == 0.0

    def test_scalar_affine(self):
        out = dense(np.array([[3.0]]), np.array([[2.0]]), np.array([0.5]), relu=False)
        assert out[0, 0] == 6.5


class TestSoftmaxXent:
    def test_equal_logits(self):
        probs, loss = softmax_xent(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]))
        np.testing.assert_allclose(probs, [[0.5, 0.5]])
        np.testing.assert_allclose(loss, [math.log(2.0)])

    def test_confident_correct_has_near_zero_loss(self):
        _, loss = softmax_xent(np.array([[50.0, -50.0]]), np.array([[1.0, 0.0]]))
        assert loss[0] < 1e-12

    def test_probs_normalized(self):
        # Scale keeps logit gaps below ~25 so neither probability
        # saturates to exactly 0 or 1 in double precision.
        rng = np.random.default_rng(4)
        logits = rng.normal(scale=5.0, size=(100, 2))
        probs, _ = softmax_xent(logits, np.zeros((100, 2)))
        assert np.all(probs > 0)
        assert np.all(probs < 1)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_gradient_is_probs_minus_onehot(self):
        logits = np.array([[0.3, -0.8]])
        onehot = np.array([[0.0, 1.0]])
        probs, _ = softmax_xent(logits, onehot)
        h = 1e-6
        for j in range(2):
            up = logits.copy()
            up[0, j] += h
            down = logits.copy()
            down[0, j] -= h
            _, lu = softmax_xent(up, onehot)
            _, ld = softmax_xent(down, onehot)
            fd = (lu[0] - ld[0]) / (2 * h)
            np.testing.assert_allclose(probs[0, j] - onehot[0, j], fd, rtol=1e-6)


class TestForwardShapes:
    def expected_chain(self, tag):
        spec = ARCHITECTURES[tag]
        hw = spec.image_hw
        sizes = []
        for _ in range(spec.conv_pairs):
            sizes.append(hw)
            hw //= 2
            sizes.append(hw)
        return sizes

    @pytest.mark.parametrize("tag", ["dsm", "views", "views_reduced"])
    def test_trace_matches_tables(self, tag):
        spec = ARCHITECTURES[tag]
        params = init_params(tag, seed=5)
        rng = np.random.default_rng(6)
        images, scalars, _ = random_inputs(tag, rng, batch=2)
        trace = []
        probs = network_forward(params, images, scalars, trace=trace)
        shapes = dict(trace)
        if tag == "dsm":
            assert shapes["conv0"] == (2, 4, 128, 128)
            assert shapes["pool5"] == (2, 4, 2, 2)
        else:
            last = spec.conv_pairs - 1
            for branch in range(len(spec.branch_channels)):
                assert shapes[f"img{branch}.conv0"] == (2, 1, 64, 64)
                assert shapes[f"img{branch}.pool{last}"] == (2, 1, 2, 2)
        assert shapes["flatten"] == (2, spec.flatten_dim)
        assert shapes["concat"] == (2, spec.concat_dim)
        assert shapes["head0"] == (2, spec.head_dims[0])
        assert shapes["head1"] == (2, spec.head_dims[1])
        assert shapes["logits"] == (2, 2)
        assert probs.shape == (2, 2)

    def test_probs_sum_to_one(self):
        params = init_params("views", seed=7, dtype=np.float64)
        rng = np.random.default_rng(8)
        images, scalars, _ = random_inputs("views", rng, batch=5)
        probs = network_forward(params, images, scalars)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)

    def test_wrong_input_shape_rejected(self):
        params = init_params("dsm", seed=9)
        with pytest.raises(AssertionError, match="images"):
            network_forward(params, np.zeros((1, 4, 64, 64)), np.zeros((1, 1)))


def reference_predict_probs(params, images, scalars):
    """Each row forwarded inside a batch of two, beside the next row (or
    itself when it is the only one)."""
    rows = []
    for i in range(len(images)):
        pair = [i, (i + 1) % len(images)]
        rows.append(network_forward(params, images[pair], scalars[pair])[0])
    return np.stack(rows)


def crown_like_inputs(tag, rng, rows):
    """float32 rasters with a zero background and a bright random blob."""
    spec = ARCHITECTURES[tag]
    hw = spec.image_hw
    images = np.zeros((rows, spec.input_channels, hw, hw), dtype=np.float32)
    for image in images:
        r, c = rng.integers(0, hw // 2, size=2)
        image[:, r : r + hw // 2, c : c + hw // 2] = rng.uniform(
            0.0, 1.0, size=(spec.input_channels, hw // 2, hw // 2)
        )
    scalars = rng.uniform(0.1, 1.0, size=(rows, spec.scalar_dim)).astype(np.float32)
    return images, scalars


class TestPredictProbs:
    # Totals of 1 mod 8 and 1 mod 32 leave a one-row tail; 1 is a lone row.
    @settings(max_examples=30, deadline=None)
    @given(
        tag=st.sampled_from(["dsm", "views", "views_reduced"]),
        rows=st.one_of(st.sampled_from([1, 9, 17, 25, 33]), st.integers(1, 40)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_bits_match_rows_forwarded_in_pairs(self, tag, rows, seed):
        rng = np.random.default_rng(seed)
        params = init_params(tag, seed=seed % 1000)
        randomize_biases(params, rng)
        images, scalars = crown_like_inputs(tag, rng, rows)
        probs = predict_probs(params, images, scalars)
        reference = reference_predict_probs(params, images, scalars)
        assert probs.dtype == reference.dtype
        np.testing.assert_array_equal(probs, reference)

    @pytest.mark.parametrize(
        "tag, rows",
        [("dsm", 1), ("dsm", 15), ("dsm", 17), ("views", 1), ("views", 33), ("views", 63)],
    )
    def test_no_forward_pass_holds_one_row(self, tag, rows, monkeypatch):
        batches = []

        def recording_forward(params, images, scalars, **kwargs):
            batches.append(len(images))
            return network_forward(params, images, scalars, **kwargs)

        monkeypatch.setattr(tinynet, "network_forward", recording_forward)
        params = init_params(tag, seed=3)
        images, scalars = crown_like_inputs(tag, np.random.default_rng(4), rows)
        assert predict_probs(params, images, scalars).shape == (rows, 2)
        # A lone row is forwarded as a pair.
        assert sum(batches) == max(rows, 2)
        assert min(batches) >= 2 and max(batches) <= PREDICT_CHUNK[tag] + 1


@st.composite
def store_rows(draw, count):
    """A (crowns, rotations, C, H, W) store, either whole or the first
    rotations of a larger one (a strided view), sample rows into it, with
    repeats, and the samples' scalars and one-hot labels, one row per
    sample, gathered from per-crown and per-image tables."""
    tag = draw(st.sampled_from(["views_reduced", "dsm"]))
    crowns, aug, extra = draw(st.integers(1, 3)), draw(st.integers(1, 3)), draw(st.integers(0, 2))
    count = draw(st.integers(2, 40)) if count is None else count
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images, _ = crown_like_inputs(tag, rng, crowns * (aug + extra))
    images = images.reshape(crowns, aug + extra, *images.shape[1:])[:, :aug]
    scalar_dim = ARCHITECTURES[tag].scalar_dim
    crown_scalars = rng.uniform(0.1, 1.0, size=(crowns, scalar_dim)).astype(np.float32)
    labels = rng.integers(0, 2, crowns * aug)
    rows = rng.integers(0, crowns * aug, count)
    scalars = crown_scalars[rows // aug]
    onehots = np.eye(2, dtype=np.float32)[labels[rows]]
    params = randomize_biases(init_params(tag, seed=count), rng)
    return params, images, scalars, onehots, rows


class TestStoreRows:
    # 257 and 513 leave a one-row tail past 256; 1 is a lone row; None
    # draws a count.
    @pytest.mark.parametrize("count", [0, 1, 257, 513, None])
    @settings(max_examples=3, deadline=None)
    @given(data=st.data())
    def test_bits_match_the_gathered_samples(self, count, data):
        params, images, scalars, onehots, rows = data.draw(store_rows(count))
        gathered = images[np.unravel_index(rows, images.shape[:2])]
        probs = predict_probs(params, images, scalars, rows=rows)
        assert probs.shape == (len(rows), 2)
        assert probs.tobytes() == predict_probs(params, gathered, scalars).tobytes()
        if not len(rows):
            return
        trained, accuracy = train_network(
            params, images, scalars, onehots, epochs=1, batch_size=7, seed=len(rows), rows=rows
        )
        reference, ref_accuracy = train_network(
            params, gathered, scalars, onehots, epochs=1, batch_size=7, seed=len(rows)
        )
        assert trained.flat.tobytes() == reference.flat.tobytes()
        assert accuracy == ref_accuracy

    def test_zero_samples_give_an_empty_table(self):
        params = init_params("views", seed=3)
        images, scalars = crown_like_inputs("views", np.random.default_rng(3), 2)
        for rows in (np.array([], dtype=np.intp), None):
            end = 0 if rows is None else 2
            probs = predict_probs(params, images[:end], scalars[:0], rows=rows)
            assert probs.shape == (0, 2) and probs.dtype == params.dtype
        with pytest.raises(ValueError, match="no training samples"):
            train_network(params, images[:0], scalars[:0], scalars[:0], epochs=1)

    def test_sample_and_row_counts_must_agree(self):
        params = init_params("views", seed=3)
        images, scalars = crown_like_inputs("views", np.random.default_rng(3), 3)
        onehots = np.eye(2, dtype=np.float32)[[0, 1, 0]]
        two = np.array([0, 2])
        with pytest.raises(ValueError, match="^3 samples but 2 rows of scalars$"):
            predict_probs(params, images, scalars[:2])
        with pytest.raises(ValueError, match="^2 samples but 3 rows of scalars$"):
            predict_probs(params, images, scalars, rows=two)
        with pytest.raises(ValueError, match="^2 samples but 3 rows of scalars$"):
            train_network(params, images, scalars, onehots[:2], epochs=1, rows=two)
        with pytest.raises(ValueError, match="^3 samples but 2 rows of onehots$"):
            train_network(params, images, scalars, onehots[:2], epochs=1)
        # A store-shaped table, one row per crown, is not one row per sample.
        store = images[:, None]
        with pytest.raises(ValueError, match="^6 samples but 3 rows of scalars$"):
            predict_probs(params, store, scalars, rows=np.array([0, 0, 1, 1, 2, 2]))


def whole_canvas(x):
    """A support box that is always the whole canvas: the reference path."""
    return 0, x.shape[-2], 0, x.shape[-1]


SUPPORTS = ("crown", "disc", "top", "bottom", "left", "right", "odd pixel", "zero", "dense")


def sparse_images(tag, support, rng, rows):
    """float32 images of one architecture whose nonzero pixels take the
    shape `support`: crown_like_inputs blobs, dsm_like discs, a blob
    touching one edge of the canvas, one pixel at an odd row and column,
    none, or every pixel."""
    images, _ = crown_like_inputs(tag, rng, rows)
    shape, hw = images.shape, images.shape[-1]
    if support == "crown":
        return images
    if support == "disc":
        return dsm_like(rng, shape, np.float32)
    images[...] = 0.0
    if support == "dense":
        images[...] = rng.uniform(0.1, 1.0, size=shape)
    elif support == "odd pixel":
        row, col = 2 * rng.integers(0, hw // 2, size=2) + 1
        images[rng.integers(rows), rng.integers(shape[1]), row, col] = rng.uniform(0.1, 1.0)
    elif support != "zero":
        side = int(rng.integers(1, hw // 4))
        row, col = rng.integers(0, hw - side, size=2)
        row = {"top": 0, "bottom": hw - side}.get(support, row)
        col = {"left": 0, "right": hw - side}.get(support, col)
        sample, channel = rng.integers(rows), rng.integers(shape[1])
        images[sample, channel, row : row + side, col : col + side] = rng.uniform(
            0.1, 1.0, size=(side, side)
        )
    return images


@st.composite
def sparse_batches(draw):
    """Parameters of a random architecture and dtype, with conv and dense
    biases negative, zero (of either sign) and positive, and a batch of
    sparse_images, its background +0.0 or -0.0, with scalars and one-hot
    labels."""
    tag = draw(st.sampled_from(sorted(ARCHITECTURES)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    support = draw(st.sampled_from(SUPPORTS))
    rows = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    images = sparse_images(tag, support, rng, rows)
    if draw(st.booleans()):
        images[images == 0] = -0.0
    params = init_params(tag, seed=rows, dtype=dtype)
    for name, tensor in params.tensors.items():
        if name.endswith("bias"):
            sign = rng.choice([-1.0, -0.0, 0.0, 1.0], size=tensor.shape)
            tensor[...] = sign * rng.uniform(0.01, 0.1, size=tensor.shape)
    scalars = rng.uniform(0.1, 1.0, size=(rows, ARCHITECTURES[tag].scalar_dim)).astype(np.float32)
    onehots = np.eye(2, dtype=np.float32)[rng.integers(0, 2, rows)]
    return params, images, scalars, onehots


def first_layer_grads(x, kernel, bias, d_pooled):
    """Layer 0's forward and its (d_kernels, d_biases) for the gradient
    d_pooled at its pooled output."""
    ws = tinynet.Workspace()
    _, record, box, window = tinynet._first_conv_pool(x, kernel, bias, ws, "layer0", True)
    return tinynet._first_conv_pool_grads(box, d_pooled, record, window, ws)


def canvas_pre_grad(x, kernel, bias, d_pooled):
    """The gradient at layer 0's conv output over the whole canvas."""
    pre = conv3x3_depthwise(x, kernel, bias)
    _, record = maxpool2x2(pre)
    return maxpool2x2_backward(d_pooled, record, x.shape)


@st.composite
def first_layer_cases(draw):
    """A float32 batch that is zero outside a random box, layer 0's
    kernels and biases, and a gradient at its pooled output."""
    n, c = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    h, w = draw(even_side.map(lambda k: 3 * k)), draw(even_side.map(lambda k: 3 * k))
    elements = signed_zero_floats(np.float32)
    bh, bw = draw(st.integers(1, h)), draw(st.integers(1, w))
    r, col = draw(st.integers(0, h - bh)), draw(st.integers(0, w - bw))
    x = np.zeros((n, c, h, w), np.float32)
    blob = draw(hnp.arrays(np.float32, (n, c, bh, bw), elements=elements))
    x[..., r : r + bh, col : col + bw] = blob
    kernel = draw(hnp.arrays(np.float32, (c, 3, 3), elements=elements))
    bias = draw(hnp.arrays(np.float32, (c,), elements=elements))
    d_pooled = draw(hnp.arrays(np.float32, (n, c, h // 2, w // 2), elements=elements))
    return x, kernel, bias, d_pooled


class TestSupportBox:
    """Layer 0 runs on the box of the batch's nonzero pixels: forward bits
    and every gradient but the layer-0 kernels' are those of the whole
    canvas, and the workspace holds what a whole-canvas pass holds."""

    @pytest.mark.parametrize(
        "pixels, box",
        [
            ([], (0, 2, 0, 2)),
            ([(0, 0, 5, 9)], (4, 8, 8, 12)),
            ([(0, 0, 4, 4)], (2, 6, 2, 6)),
            ([(1, 2, 0, 15)], (0, 2, 14, 16)),
            ([(0, 1, 15, 0)], (14, 16, 0, 2)),
            ([(0, 0, 3, 7), (1, 2, 12, 1)], (2, 14, 0, 10)),
        ],
    )
    def test_box_bounds(self, pixels, box):
        x = np.full((2, 3, 16, 16), -0.0)
        for at in pixels:
            x[at] = 0.5
        assert tinynet._support_box(x) == box
        if pixels:
            x[pixels[0]] = np.nan
            assert tinynet._support_box(x) == box
        assert tinynet._support_box(np.ones_like(x)) == (0, 16, 0, 16)

    @settings(max_examples=60, deadline=None)
    @given(case=sparse_batches())
    def test_forward_bits_match_whole_canvas(self, case):
        params, images, scalars, _ = case

        def outputs():
            trace = []
            probs = network_forward(params, images, scalars, trace=trace)
            return probs.tobytes(), predict_probs(params, images, scalars).tobytes(), trace

        boxed = outputs()
        with mock.patch.object(tinynet, "_support_box", whole_canvas):
            assert outputs() == boxed

    @settings(max_examples=40, deadline=None)
    @given(case=sparse_batches())
    def test_gradients_match_whole_canvas(self, case):
        """Every gradient but the layer-0 kernels' keeps its bits; those
        are within the summation bound of the whole canvas's exact sums."""
        params, images, scalars, onehots = case
        canvas_calls = []

        def recording(x, grad, workspace, block=None):
            if x.shape[-1] == params.spec.image_hw:
                canvas_calls.append((x.copy(), grad.copy()))
            return param_grads_of(x, grad, workspace, block)

        param_grads_of = tinynet._conv3x3_param_grads
        grads, probs, losses = network_gradients(params, images, scalars, onehots)
        boxed = {name: g.copy() for name, g in grads.items()}
        with mock.patch.object(tinynet, "_support_box", whole_canvas):
            with mock.patch.object(tinynet, "_conv3x3_param_grads", recording):
                ref, ref_probs, ref_losses = network_gradients(params, images, scalars, onehots)
        assert probs.tobytes() == ref_probs.tobytes() and losses.tobytes() == ref_losses.tobytes()
        first = [name for name in params.tensors if name.endswith("conv0.kernel")]
        for name in params.tensors:
            if name not in first:
                assert boxed[name].tobytes() == ref[name].tobytes(), name
        assert len(canvas_calls) == len(first)
        for name, (x, grad) in zip(first, canvas_calls):
            bias = name.replace("kernel", "bias")
            assert_within_summation_bound(x, grad, boxed[name], boxed[bias])

    @settings(max_examples=100, deadline=None)
    @given(case=first_layer_cases())
    def test_layer_pooled_bits_match_whole_canvas(self, case):
        x, kernel, bias, _ = case
        pooled = tinynet._first_conv_pool(x, kernel, bias, tinynet.Workspace(), "layer0", False)[0]
        reference, _ = maxpool2x2(conv3x3_depthwise(x, kernel, bias))
        assert pooled.tobytes() == reference.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(case=first_layer_cases())
    def test_layer_grads_within_float32_summation_bound(self, case):
        x, kernel, bias, d_pooled = case
        d_kernels, d_biases = first_layer_grads(x, kernel, bias, d_pooled)
        assert d_kernels.dtype == d_biases.dtype == np.float32
        grad = canvas_pre_grad(x, kernel, bias, d_pooled)
        assert_within_summation_bound(x, grad, d_kernels, d_biases)

    @pytest.mark.parametrize("channels, side", [(4, 128), (1, 64)])
    @pytest.mark.parametrize("n", [1, 7, 32])
    def test_layer_grads_exact_on_quantized_inputs(self, channels, side, n):
        """Quarter-step inputs and half-step gradients keep every partial
        sum exact, so the box and the whole canvas give the reference."""
        rng = np.random.default_rng(n * side)
        x = quantized(rng, (n, channels, side, side), 0.25, 2.0)
        x[..., : side // 4, :] = 0.0
        x[..., :, side // 2 + 3 :] = -0.0
        kernel = rng.normal(size=(channels, 3, 3)).astype(np.float32)
        bias = rng.normal(size=channels).astype(np.float32)
        d_pooled = quantized(rng, (n, channels, side // 2, side // 2), 0.5, 1.0)
        assert tinynet._support_box(x) != whole_canvas(x)
        boxed = first_layer_grads(x, kernel, bias, d_pooled)
        with mock.patch.object(tinynet, "_support_box", whole_canvas):
            canvas = first_layer_grads(x, kernel, bias, d_pooled)
        grad = canvas_pre_grad(x, kernel, bias, d_pooled).astype(np.float64)
        ref_kernels, ref_biases, _ = reference_conv_backward(
            x.astype(np.float64), grad, np.zeros((channels, 3, 3))
        )
        for got in (boxed, canvas):
            np.testing.assert_array_equal(got[0], ref_kernels)
            np.testing.assert_array_equal(got[1], ref_biases)

    @pytest.mark.parametrize("tag", sorted(ARCHITECTURES))
    def test_nan_outside_the_crown_raises(self, tag):
        rng = np.random.default_rng(9)
        params = init_params(tag, seed=9)
        images = dsm_like(rng, crown_like_inputs(tag, rng, 4)[0].shape, np.float32)
        scalars = crown_like_inputs(tag, rng, 4)[1]
        images[2, 0, 0, -1] = np.nan  # a corner, outside every disc
        with pytest.raises(AssertionError, match="non-finite probabilities"):
            network_forward(params, images, scalars)
        with pytest.raises(AssertionError, match="non-finite probabilities"):
            predict_probs(params, images, scalars)

    # The middle blobs give boxes of 90x90 (dsm) and 48x48 (views), whose
    # own block counts would need larger conv buffers than the canvas's.
    @pytest.mark.parametrize("tag, middle", [("dsm", 88), ("views", 46)])
    def test_growing_box_replaces_no_buffer(self, tag, middle):
        """Train steps on batches whose boxes are small, then larger, then
        small again: after the first, no step replaces a workspace buffer
        or allocates 1 MB, and the workspace holds the buffers of
        whole-canvas steps."""
        hw = ARCHITECTURES[tag].image_hw
        rng = np.random.default_rng(11)
        batches = []
        for side in (8, middle, hw - 6, 12):
            images, scalars = crown_like_inputs(tag, rng, 32)
            images[...] = 0.0
            images[:, :, 3 : 3 + side, 5 : 5 + side] = rng.uniform(0.1, 1.0, size=(side, side))
            batches.append((images, scalars))
        r0, r1, c0, c1 = np.array([tinynet._support_box(images) for images, _ in batches]).T
        areas = (r1 - r0) * (c1 - c0)
        assert areas[0] < min(areas[1:]) and max(areas) < hw * hw
        onehots = np.eye(2, dtype=np.float32)[np.arange(32) % 2]
        params = init_params(tag, seed=11)
        state = init_adam(params)

        def step(workspace, images, scalars):
            grads, _, _ = network_gradients(params, images, scalars, onehots, workspace=workspace)
            adam_step(params, grads, state)

        def buffers(workspace):
            return {key: entry[0] for key, entry in workspace._buffers.items()}

        workspace = tinynet.Workspace()
        tracemalloc.start()
        try:
            step(workspace, *batches[0])
            first = buffers(workspace)
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            for batch in batches[1:]:
                step(workspace, *batch)
            extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert extra < 1 << 20
        second = buffers(workspace)
        assert second.keys() == first.keys()
        assert all(second[key] is first[key] for key in first)
        canvas = tinynet.Workspace()
        with mock.patch.object(tinynet, "_support_box", whole_canvas):
            for batch in batches:
                step(canvas, *batch)
        sizes = lambda workspace: {key: b.nbytes for key, b in buffers(workspace).items()}
        assert sizes(workspace) == sizes(canvas)


class TestGradients:
    @pytest.mark.parametrize("tag", ["dsm", "views", "views_reduced"])
    def test_matches_finite_differences(self, tag):
        params = init_params(tag, seed=11, dtype=np.float64)
        rng = np.random.default_rng(12)
        randomize_biases(params, rng)
        images, scalars, onehot = random_inputs(tag, rng)
        assert max_gradient_error(params, images, scalars, onehot) < 1e-4

    @settings(max_examples=12, deadline=None)
    @given(
        tag=st.sampled_from(["dsm", "views", "views_reduced"]),
        seed=st.integers(0, 2**32 - 1),
        crown_like=st.booleans(),
    )
    def test_matches_reference_backward(self, tag, seed, crown_like):
        """Pooled relu, strided pool, flipped-kernel backward and no
        layer-0 input gradient: forward probabilities bit-identical and
        every gradient within 1e-12 of the reference backward."""
        rng = np.random.default_rng(seed)
        params = randomize_biases(init_params(tag, seed=seed % 1000, dtype=np.float64), rng)
        images, scalars, onehot = random_inputs(tag, rng, batch=2)
        if crown_like:
            images = dsm_like(rng, images.shape)
        grads, probs, _ = network_gradients(params, images, scalars, onehot)
        ref_grads, ref_probs = reference_network_gradients(params, images, scalars, onehot)
        assert probs.tobytes() == ref_probs.tobytes()
        assert network_forward(params, images, scalars).tobytes() == ref_probs.tobytes()
        assert list(grads) == list(params.tensors)
        for name, ref in ref_grads.items():
            np.testing.assert_allclose(
                grads[name], ref, rtol=0, atol=1e-12 * max(1.0, np.abs(ref).max()), err_msg=name
            )

    def test_zero_image_branch_kernel_gradient_is_zero(self):
        params = init_params("views", seed=13, dtype=np.float64)
        # Non-negative kernels and positive biases keep branch 0 alive all
        # the way down even though its image is blank, so gradient reaches
        # its first layer instead of dying at a relu.
        for i in range(5):
            kernel = params.tensors[f"img0.conv{i}.kernel"]
            kernel[...] = np.abs(kernel)
            params.tensors[f"img0.conv{i}.bias"][:] = 0.1
        rng = np.random.default_rng(14)
        images, scalars, onehot = random_inputs("views", rng)
        images[:, 0] = 0.0
        grads, _, _ = network_gradients(params, images, scalars, onehot)
        np.testing.assert_array_equal(grads["img0.conv0.kernel"], 0.0)
        assert np.abs(grads["img0.conv0.bias"]).max() > 0

    def test_confident_correct_prediction_has_vanishing_gradients(self):
        params = init_params("views_reduced", seed=15)
        params.tensors["out.weight"][:] = 0.0
        params.tensors["out.bias"][:] = [50.0, -50.0]
        rng = np.random.default_rng(16)
        images, scalars, _ = random_inputs("views_reduced", rng)
        onehot = np.array([[1.0, 0.0]])
        grads, probs, _ = network_gradients(params, images, scalars, onehot)
        assert probs[0, 0] >= 1.0 - 1e-12
        worst = max(np.abs(g).max() for g in grads.values())
        assert worst < 1e-30


def reference_adam_step(tensors, grads, m, v, t, lr):
    """One Adam step tensor by tensor; returns new (tensors, m, v)."""
    bias1, bias2 = 1.0 - 0.9**t, 1.0 - 0.999**t
    new_tensors, new_m, new_v = {}, {}, {}
    for name, theta in tensors.items():
        g = grads[name]
        new_m[name] = 0.9 * m[name] + (1.0 - 0.9) * g
        new_v[name] = 0.999 * v[name] + (1.0 - 0.999) * g * g
        m_hat, v_hat = new_m[name] / bias1, new_v[name] / bias2
        new_tensors[name] = theta - lr * m_hat / (np.sqrt(v_hat) + 1e-8)
    return new_tensors, new_m, new_v


class TestAdam:
    def make_params(self, theta=0.0):
        params = init_params("views_reduced", seed=17, dtype=np.float64)
        params.flat[:] = theta
        return params

    @staticmethod
    def grads_of(params, value):
        return FlatTensors(params.tag, np.full_like(params.flat, value))

    def test_zero_gradient_keeps_params(self):
        params = init_params("views_reduced", seed=17)
        before = params.copy()
        state = init_adam(params)
        adam_step(params, self.grads_of(params, 0.0), state)
        assert state.t == 1
        np.testing.assert_array_equal(params.flat, before.flat)

    def test_first_step_magnitude(self):
        params = self.make_params()
        state = init_adam(params)
        adam_step(params, self.grads_of(params, 3.0), state)
        # Bias correction makes the first step -lr * g/|g| up to epsilon.
        np.testing.assert_allclose(params.flat, -0.01 / (1 + 1e-8))

    def test_two_steps_match_hand_unrolled_recurrence(self):
        """Constant gradient 1: both bias-corrected ratios are exactly 1,
        so each step moves by lr / (1 + epsilon)."""
        params = self.make_params()
        state = init_adam(params)
        g = self.grads_of(params, 1.0)
        adam_step(params, g, state)
        adam_step(params, g, state)
        np.testing.assert_allclose(params.flat, -2 * 0.01 / (1 + 1e-8), rtol=1e-12)
        assert state.t == 2
        np.testing.assert_allclose(state.m, 0.19, rtol=1e-12)
        np.testing.assert_allclose(state.v, 0.001999, rtol=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_flat_update_is_bit_identical_to_per_tensor(self, dtype):
        params = init_params("views", seed=3, dtype=dtype)
        state = init_adam(params, lr=0.02)
        tensors = {k: t.copy() for k, t in params.tensors.items()}
        m = {k: np.zeros_like(t) for k, t in tensors.items()}
        v = {k: np.zeros_like(t) for k, t in tensors.items()}
        rng = np.random.default_rng(4)
        for t in range(1, 4):
            grads = FlatTensors(params.tag, rng.normal(size=params.flat.shape).astype(dtype))
            adam_step(params, grads, state)
            tensors, m, v = reference_adam_step(tensors, grads, m, v, t, 0.02)
        for name, tensor in tensors.items():
            assert params.tensors[name].tobytes() == tensor.tobytes(), name
        assert state.m.tobytes() == np.concatenate([a.ravel() for a in m.values()]).tobytes()
        assert state.v.tobytes() == np.concatenate([a.ravel() for a in v.values()]).tobytes()


def separable_toy_data(n=64, seed=18):
    """views_reduced-shaped toy set: class 0 carries a bright block in the
    top band, class 1 in the bottom band.

    Sparse blocks rather than solid half-images: block edges excite some
    kernel offsets whatever the kernel signs, so zero-bias nets keep a
    live path to the head the way they do on real sparse rasters.  A
    solid constant region instead rides on the kernel sum alone and goes
    dark whenever that sum is negative.
    """
    rng = np.random.default_rng(seed)
    images = np.zeros((n, 2, 64, 64), dtype=np.float32)
    labels = np.zeros((n, 2), dtype=np.float32)
    for i in range(n):
        cls = i % 2
        r0 = 6 if cls == 0 else 38
        c0 = int(rng.integers(6, 46))
        block = 0.8 + rng.uniform(-0.1, 0.1, size=(12, 12))
        images[i, :, r0 : r0 + 12, c0 : c0 + 12] = block
        labels[i, cls] = 1.0
    scalars = np.full((n, 2), 0.5, dtype=np.float32)
    return images, scalars, labels


class TestTrain:
    def test_zero_learning_rate_keeps_params(self):
        images, scalars, labels = separable_toy_data(n=8)
        params = init_params("views_reduced", seed=19)
        trained, _ = train_network(
            params.copy(), images, scalars, labels, epochs=1, batch_size=4, seed=1, lr=0.0
        )
        for name in params.tensors:
            np.testing.assert_array_equal(trained.tensors[name], params.tensors[name])

    def test_same_seed_is_bit_identical(self):
        images, scalars, labels = separable_toy_data(n=16)
        runs = []
        for _ in range(2):
            params = init_params("views_reduced", seed=20)
            trained, acc = train_network(
                params, images, scalars, labels, epochs=2, batch_size=4, seed=2
            )
            runs.append((trained, acc))
        assert runs[0][1] == runs[1][1]
        for name in runs[0][0].tensors:
            np.testing.assert_array_equal(
                runs[0][0].tensors[name], runs[1][0].tensors[name]
            )

    def test_separable_toy_reaches_95_percent(self):
        images, scalars, labels = separable_toy_data()
        params = init_params("views_reduced", seed=21)
        _, accuracy = train_network(
            params, images, scalars, labels, epochs=3, batch_size=8, seed=3
        )
        assert accuracy > 0.95


def reference_train(params, images, scalars, onehots, epochs, batch_size, seed):
    """train_network as a plain loop: fancy-indexed batches, and every
    network_gradients and predict_probs call without a workspace."""
    params = params.copy()
    state = init_adam(params)
    rng = np.random.default_rng(derive_seed(seed, "train-shuffle"))
    for _ in range(epochs):
        order = rng.permutation(len(images))
        for start in range(0, len(images), batch_size):
            take = order[start : start + batch_size]
            grads, _, _ = network_gradients(params, images[take], scalars[take], onehots[take])
            adam_step(params, grads, state)
    probs = predict_probs(params, images, scalars)
    return params, float(np.mean(np.argmax(probs, axis=1) == np.argmax(onehots, axis=1)))


class TestWorkspace:
    @settings(max_examples=12, deadline=None)
    @given(
        tag=st.sampled_from(["dsm", "views", "views_reduced"]),
        batch_size=st.sampled_from([2, 5, 8, 32]),
        # 33 at batch 32 leaves a one-sample last batch.
        rows=st.one_of(st.just(33), st.integers(2, 40)),
        epochs=st.integers(1, 2),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_training_matches_loop_without_workspace(self, tag, batch_size, rows, epochs, seed):
        rng = np.random.default_rng(seed)
        images, scalars = crown_like_inputs(tag, rng, rows)
        onehots = np.eye(2, dtype=np.float32)[rng.integers(0, 2, rows)]
        params = randomize_biases(init_params(tag, seed=seed % 1000), rng)
        before = params.copy()
        trained, accuracy = train_network(
            params, images, scalars, onehots, epochs, batch_size=batch_size, seed=seed
        )
        ref_params, ref_accuracy = reference_train(
            params, images, scalars, onehots, epochs, batch_size, seed
        )
        assert trained.flat.tobytes() == ref_params.flat.tobytes()
        assert accuracy == ref_accuracy
        assert params.flat.tobytes() == before.flat.tobytes()  # trains a copy

    def test_second_dsm_step_allocates_under_1mb(self):
        rng = np.random.default_rng(5)
        images, scalars = crown_like_inputs("dsm", rng, 32)
        onehots = np.eye(2, dtype=np.float32)[np.arange(32) % 2]
        params = init_params("dsm", seed=5)
        state = init_adam(params)
        workspace = tinynet.Workspace()

        def step():
            grads, _, _ = network_gradients(
                params, images, scalars, onehots, workspace=workspace
            )
            adam_step(params, grads, state)

        def buffers():
            return {key: entry[0] for key, entry in workspace._buffers.items()}

        tracemalloc.start()
        try:
            step()
            first = buffers()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            step()
            extra = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert extra < 1 << 20
        # tracemalloc does not see memory maps: the workspace must not
        # replace a buffer either.
        second = buffers()
        assert second.keys() == first.keys()
        assert all(second[key] is first[key] for key in first)

    def test_params_are_views_of_one_vector(self):
        params = init_params("views", seed=6)
        assert list(params.tensors) == [name for name, _ in tinynet._layer_plan(params.spec)]
        assert sum(t.size for t in params.tensors.values()) == params.flat.size
        for tensor in params.tensors.values():
            assert np.shares_memory(tensor, params.flat)
        copy = params.copy()
        assert not np.shares_memory(copy.flat, params.flat)
        for name, tensor in copy.tensors.items():
            assert np.shares_memory(tensor, copy.flat)
            assert not np.shares_memory(tensor, params.flat)
            np.testing.assert_array_equal(tensor, params.tensors[name])

    @pytest.mark.parametrize("tag", ["dsm", "views", "views_reduced"])
    def test_pickle_round_trip_keeps_views_of_one_vector(self, tag):
        # Every network a worker process trains comes back pickled.
        params = init_params(tag, seed=8)
        data = pickle.dumps(params)
        back = pickle.loads(data)
        assert back.tag == tag
        assert back.flat.tobytes() == params.flat.tobytes()
        assert back.flat.flags.writeable
        assert list(back.tensors) == list(params.tensors)
        for name, tensor in back.tensors.items():
            assert np.shares_memory(tensor, back.flat)
            assert tensor.tobytes() == params.tensors[name].tobytes()
        # the vector once, not once more per named view
        assert len(data) < params.flat.nbytes + 512

    @pytest.mark.parametrize("tag", ["dsm", "views"])
    def test_calls_without_workspace_share_no_memory(self, tag):
        rng = np.random.default_rng(7)
        params = init_params(tag, seed=7)
        images, scalars = crown_like_inputs(tag, rng, 3)
        onehots = np.eye(2, dtype=np.float32)[[0, 1, 0]]
        first = network_gradients(params, images, scalars, onehots)
        kept = [g.copy() for g in first[0].values()]
        second = network_gradients(params, images[::-1], scalars[::-1], onehots[::-1])
        arrays = lambda result: [result[0].flat, *result[0].values(), result[1], result[2]]
        for a in arrays(first):
            for b in arrays(second):
                assert not np.shares_memory(a, b)
        for g, k in zip(first[0].values(), kept):
            assert g.tobytes() == k.tobytes()
