"""Kernel-level contracts: worked examples, gradients, and invariants."""

import inspect
import math
import os
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import op_gradcheck, rand_normal, rand_uniform, tampered_softmax

import stripseg
import stripseg.tensor as tensor_module
from stripseg.gradcheck import fd_gradient
from stripseg.tensor import (
    LinearParams,
    ShapeError,
    Tape,
    Tensor,
    _emit,
    _erf,
    adaptive_avg_pool,
    add,
    backward,
    bilinear_resize,
    blocked_attention,
    bind_params,
    concat_lastdim,
    count_macs,
    depthwise_conv,
    flatten_params,
    gelu,
    global_avg_pool,
    layernorm,
    linear,
    mac_region,
    matmul,
    mul,
    relu,
    reshape,
    scalar_mul,
    scale_channels,
    sigmoid,
    slice_lastdim,
    softmax_lastdim,
    sum_all,
    transpose,
)


class TestTensorBasics:
    def test_package_attribute_is_the_module(self):
        assert inspect.ismodule(stripseg.tensor)

    def test_data_is_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 5.0

    def test_shape_and_size(self):
        t = Tensor(np.zeros((2, 3, 4)))
        assert t.shape == (2, 3, 4)
        assert t.size == 24


class TestMatmul:
    def test_identity(self):
        out = matmul(Tensor(np.eye(2)), Tensor([[3.0, 4.0], [5.0, 6.0]]))
        np.testing.assert_array_equal(out.data, [[3.0, 4.0], [5.0, 6.0]])

    def test_dot_product(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        np.testing.assert_array_equal(out.data, [[11.0]])

    def test_matches_triple_loop(self):
        a = rand_uniform((3, 4), seed=1)
        b = rand_uniform((4, 5), seed=2)
        expect = np.zeros((3, 5))
        for i in range(3):
            for j in range(5):
                acc = 0.0
                for k in range(4):
                    acc += a[i, k] * b[k, j]
                expect[i, j] = acc
        np.testing.assert_allclose(matmul(Tensor(a), Tensor(b)).data, expect, atol=1e-12)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(ShapeError) as err:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4, 2))))
        assert "(2, 3)" in str(err.value) and "(4, 2)" in str(err.value)

    def test_associativity(self):
        for seed in range(4):
            a = rand_uniform((3, 4), seed=seed)
            b = rand_uniform((4, 6), seed=seed + 10)
            c = rand_uniform((6, 2), seed=seed + 20)
            left = matmul(matmul(Tensor(a), Tensor(b)), Tensor(c)).data
            right = matmul(Tensor(a), matmul(Tensor(b), Tensor(c))).data
            np.testing.assert_allclose(left, right, atol=1e-9)

    @pytest.mark.parametrize("a_shape,b_shape", [((3, 1), (1, 4)), ((2, 3, 5, 1), (2, 3, 1, 4)), ((1, 1), (1, 1))])
    def test_inner_extent_one_is_exact_outer_product(self, a_shape, b_shape):
        # one rounded product per element: equal to the loop and to np.matmul
        a = rand_uniform(a_shape, seed=70)
        b = rand_uniform(b_shape, seed=71)
        out = matmul(Tensor(a), Tensor(b)).data
        np.testing.assert_array_equal(out, np.matmul(a, b))
        flat_a = a.reshape(-1, a.shape[-2])
        flat_b = b.reshape(-1, b.shape[-1])
        flat_out = out.reshape(-1, out.shape[-2], out.shape[-1])
        for batch in range(flat_out.shape[0]):
            for i in range(flat_out.shape[1]):
                for j in range(flat_out.shape[2]):
                    assert flat_out[batch, i, j] == flat_a[batch, i] * flat_b[batch, j]

    def test_batch_broadcast(self):
        # a batch extent of 1 does not broadcast: the pair is refused, and
        # the error names both shapes
        with pytest.raises(ShapeError) as err:
            matmul(Tensor(rand_uniform((1, 2, 3), seed=3)), Tensor(rand_uniform((5, 3, 4), seed=4)))
        assert "(1, 2, 3)" in str(err.value) and "(5, 3, 4)" in str(err.value)

    def test_inner_extent_one_rejects_incompatible_batches(self):
        # leading extents must be equal, and both operands have the same
        # number of axes
        for a_shape, b_shape in [((2, 3, 1), (3, 1, 4)), ((3, 4), (2, 4, 5))]:
            with pytest.raises(ShapeError) as err:
                matmul(Tensor(np.zeros(a_shape)), Tensor(np.zeros(b_shape)))
            assert str(a_shape) in str(err.value) and str(b_shape) in str(err.value)


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_lastdim(Tensor([0.0, 0.0])).data, [0.5, 0.5], atol=1e-15)

    def test_large_inputs_do_not_overflow(self):
        out = softmax_lastdim(Tensor([1000.0, 1000.0, 1000.0])).data
        np.testing.assert_allclose(out, [1 / 3] * 3, atol=1e-15)
        assert np.isfinite(out).all()

    def test_hand_evaluation(self):
        out = softmax_lastdim(Tensor([0.0, np.log(3.0)])).data
        np.testing.assert_allclose(out, [0.25, 0.75], atol=1e-14)

    def test_rows_sum_to_one(self):
        x = rand_uniform((3, 5, 7), seed=5)
        out = softmax_lastdim(Tensor(x)).data
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, atol=1e-12)
        assert (out >= 0).all()

    def test_shift_invariance(self):
        x = rand_uniform((4, 9), seed=6)
        base = softmax_lastdim(Tensor(x)).data
        shifted = softmax_lastdim(Tensor(x + 13.5)).data
        np.testing.assert_allclose(base, shifted, atol=1e-12)

    @pytest.mark.parametrize("shape", [(7,), (5, 3), (2, 11, 4), (3, 9), (1, 1)])
    @pytest.mark.parametrize("scale", [1, 8, 12, 1 << 15])
    def test_row_blocks_equal_unblocked_chain(self, shape, scale):
        # the whole array in one pass gives the chain's bits, from near-even
        # rows to rows where every exp but the max underflows to 0
        x = rand_uniform(shape, seed=7) * scale
        shifted = x - x.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        np.testing.assert_array_equal(softmax_lastdim(Tensor(x)).data, e / e.sum(axis=-1, keepdims=True))

    def test_non_contiguous_input(self):
        x = rand_uniform((6, 5), seed=8).T
        e = np.exp(x - x.max(axis=-1, keepdims=True))
        np.testing.assert_array_equal(softmax_lastdim(Tensor(x)).data, e / e.sum(axis=-1, keepdims=True))

    def test_blocked_rows_match_scalar_loop(self):
        x = rand_uniform((9, 7), seed=9) * 20.0
        out = softmax_lastdim(Tensor(x)).data
        for r in range(9):
            hi = max(x[r])
            exps = [math.exp(v - hi) for v in x[r]]
            np.testing.assert_allclose(out[r], [v / sum(exps) for v in exps], rtol=1e-14, atol=0)


class TestLayernorm:
    def _affine(self, c):
        return Tensor(np.ones(c)), Tensor(np.zeros(c))

    def test_constant_vector_maps_to_zero(self):
        gamma, beta = self._affine(3)
        out = layernorm(Tensor([5.0, 5.0, 5.0]), gamma, beta)
        np.testing.assert_allclose(out.data, [0.0, 0.0, 0.0], atol=1e-12)

    def test_two_element_closed_form(self):
        eps = 1e-6
        gamma, beta = self._affine(2)
        out = layernorm(Tensor([[1.0, 3.0]]), gamma, beta, eps)
        delta = 1.0 - 1.0 / np.sqrt(1.0 + eps)
        np.testing.assert_allclose(out.data, [[-1.0 + delta, 1.0 - delta]], atol=1e-15)

    def test_affine_dominates_when_gamma_zero(self):
        out = layernorm(Tensor([[2.0, -1.0]]), Tensor(np.zeros(2)), Tensor([7.0, 7.0]))
        np.testing.assert_array_equal(out.data, [[7.0, 7.0]])

    def test_shift_and_scale_invariance(self):
        x = rand_normal((4, 16), seed=7)
        gamma, beta = self._affine(16)
        base = layernorm(Tensor(x), gamma, beta).data
        shifted = layernorm(Tensor(x + 3.25), gamma, beta).data
        np.testing.assert_allclose(base, shifted, atol=1e-10)
        scaled = layernorm(Tensor(3.0 * x), gamma, beta).data
        np.testing.assert_allclose(base, scaled, rtol=5e-6, atol=5e-6)

    def test_needs_a_channel_axis(self):
        for shape in [(), (3, 0)]:
            with pytest.raises(ShapeError):
                layernorm(Tensor(np.zeros(shape)), Tensor(np.zeros(0)), Tensor(np.zeros(0)))

    @pytest.mark.parametrize("eps", [0.0, -1e-6, np.nan, np.inf, -np.inf])
    def test_eps_must_be_finite_and_positive(self, eps):
        # nan would make every output nan, and inf an all-zero xhat
        gamma, beta = self._affine(3)
        with pytest.raises(ValueError, match="eps"):
            layernorm(Tensor(rand_normal((2, 3), seed=72)), gamma, beta, eps)

    @staticmethod
    def run(x, gamma, beta, taped):
        """Forward bytes and, taped, the gradients of a random projection."""
        if not taped:
            return layernorm(Tensor(x), Tensor(gamma), Tensor(beta), 1e-6).data, []
        tape = Tape()
        leaves = [tape.leaf(a) for a in (x, gamma, beta)]
        out = layernorm(*leaves, 1e-6)
        grads = backward(tape, sum_all(mul(out, Tensor(rand_normal(x.shape, 23)))))
        return out.data, [grads[leaf.tid].data for leaf in leaves]

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    @pytest.mark.parametrize("block", [20, 3], ids=["4-rows", "1-row"])
    def test_row_blocks_equal_one_block(self, monkeypatch, taped, block):
        # 21 rows of 5 channels: six blocks of 4 rows (the last holds 1), or
        # a block smaller than a row, which still takes one row
        x = rand_normal((3, 7, 5), 20) * 4.0 + 1.5
        gamma, beta = rand_normal((5,), 21), rand_normal((5,), 22)
        one_out, one_grads = self.run(x, gamma, beta, taped)
        monkeypatch.setattr(tensor_module, "BLOCK_VALUES", block)
        out, grads = self.run(x, gamma, beta, taped)
        assert_same_bits(out, one_out)
        assert_same_bits(out, self.run(x, gamma, beta, not taped)[0])
        for got, want in zip(grads, one_grads, strict=True):
            assert_same_bits(got, want)

    def test_blocked_rows_match_scalar_loop(self, monkeypatch):
        monkeypatch.setattr(tensor_module, "BLOCK_VALUES", 18)  # 3 rows a block, the last holds 2
        x = rand_normal((11, 6), 24) * 3.0 - 2.0
        gamma, beta = rand_normal((6,), 25), rand_normal((6,), 26)
        out = layernorm(Tensor(x), Tensor(gamma), Tensor(beta), 1e-6).data
        for r, row in enumerate(x.tolist()):
            mu = sum(row) / len(row)
            inv = 1.0 / math.sqrt(sum((v - mu) ** 2 for v in row) / len(row) + 1e-6)
            want = [g * (v - mu) * inv + b for v, g, b in zip(row, gamma, beta)]
            np.testing.assert_allclose(out[r], want, rtol=1e-13, atol=1e-14)

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    @pytest.mark.parametrize("shape", [(2, 5, 1), (2, 5, 3), (2, 5, 7), (1, 7)], ids=["C1", "C3", "C7", "one-row"])
    def test_forward_has_the_bits_of_numpy_mean(self, taped, shape):
        # the kernel divides np.add.reduce's row sums by C, which is what
        # ndarray.mean computes, less its Python-level wrapper
        x = rand_normal(shape, 27) * 3.0 + 0.75
        c = shape[-1]
        gamma, beta = rand_normal((c,), 28), rand_normal((c,), 29)
        centered = x - x.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt((centered * centered).mean(axis=-1, keepdims=True) + 1e-6)
        assert_same_bits(self.run(x, gamma, beta, taped)[0], gamma * (centered * inv) + beta)


class TestDepthwiseConv:
    def test_1x1_scaling(self):
        x = rand_uniform((2, 3, 4, 5), seed=8)
        kernel = Tensor(np.full((3, 1, 1), 2.0))
        out = depthwise_conv(Tensor(x), kernel, Tensor(np.zeros(3)))
        np.testing.assert_allclose(out.data, 2.0 * x, atol=1e-14)

    def test_zero_kernel_bias_only(self):
        x = rand_uniform((1, 2, 3, 3), seed=9)
        out = depthwise_conv(Tensor(x), Tensor(np.zeros((2, 3, 3))), Tensor(np.ones(2)))
        np.testing.assert_array_equal(out.data, np.ones((1, 2, 3, 3)))

    def test_averaging_kernel_matches_nested_loop(self):
        ramp = np.arange(9.0).reshape(1, 1, 3, 3)
        kernel = np.full((1, 3, 3), 1.0 / 9.0)
        out = depthwise_conv(Tensor(ramp), Tensor(kernel), Tensor(np.zeros(1))).data
        expect = np.zeros((3, 3))
        for y in range(3):
            for x in range(3):
                acc = 0.0
                for dy in (-1, 0, 1):
                    for dx in (-1, 0, 1):
                        yy, xx = y + dy, x + dx
                        if 0 <= yy < 3 and 0 <= xx < 3:
                            acc += ramp[0, 0, yy, xx] / 9.0
                expect[y, x] = acc
        np.testing.assert_allclose(out[0, 0], expect, atol=1e-12)

    def test_unsupported_kernel_size(self):
        with pytest.raises(ShapeError):
            depthwise_conv(Tensor(np.zeros((1, 1, 4, 4))), Tensor(np.zeros((1, 5, 5))), Tensor(np.zeros(1)))

    @pytest.mark.parametrize("kernel_hw", [(1, 1), (1, 3), (3, 1), (3, 3)])
    @pytest.mark.parametrize("shape", [(2, 3, 4, 5), (2, 2, 1, 6), (2, 2, 5, 1), (2, 1, 1, 1)])
    @pytest.mark.parametrize("random_bias", [True, False])
    def test_matches_scalar_loop_bit_for_bit(self, kernel_hw, shape, random_bias):
        # The loop adds the in-range taps in (dy, dx) order to 0.0, then the
        # bias: the kernel's order, so even the last bit agrees. A zero bias
        # gives the bias-free loop's bits: a sum that starts at +0 never
        # holds -0, so adding +0 changes nothing.
        kh, kw = kernel_hw
        b, c, h, w = shape
        x = rand_uniform(shape, seed=60)
        kernel = rand_uniform((c, kh, kw), seed=61)
        bias = rand_uniform((c,), seed=62) if random_bias else np.zeros(c)
        out = depthwise_conv(Tensor(x), Tensor(kernel), Tensor(bias)).data
        expect = np.zeros(shape)
        for n in range(b):
            for ch in range(c):
                for y in range(h):
                    for x_ in range(w):
                        acc = 0.0
                        for dy in range(kh):
                            for dx in range(kw):
                                yy, xx = y + dy - kh // 2, x_ + dx - kw // 2
                                if 0 <= yy < h and 0 <= xx < w:
                                    acc += float(kernel[ch, dy, dx]) * float(x[n, ch, yy, xx])
                        expect[n, ch, y, x_] = acc + float(bias[ch]) if random_bias else acc
        assert_same_bits(out, expect)

    @staticmethod
    def padded_forward(x, kernel, bias):
        # the forward before it stopped padding: every tap over a
        # zero-padded copy of x, then the bias
        kh, kw = kernel.shape[1:]
        h, w = x.shape[2:]
        xp = np.pad(x, ((0, 0), (0, 0), (kh // 2, kh // 2), (kw // 2, kw // 2)))
        out = np.zeros(x.shape)
        for dy in range(kh):
            for dx in range(kw):
                out += kernel[:, dy, dx][None, :, None, None] * xp[:, :, dy : dy + h, dx : dx + w]
        return out + bias[None, :, None, None]

    @staticmethod
    def padded_backward(x_data, k_data, g):
        # the backward before it shared the forward's tap loop: every tap
        # over a zero-padded x and a padded gradient, then a crop
        channels, kh, kw = k_data.shape
        h, w = x_data.shape[2:]
        ph, pw = kh // 2, kw // 2
        xp = np.pad(x_data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
        gxp = np.zeros_like(xp)
        gk = np.zeros((channels, kh, kw))
        for dy in range(kh):
            for dx in range(kw):
                gxp[:, :, dy : dy + h, dx : dx + w] += (
                    k_data[:, dy, dx][None, :, None, None] * g
                )
                gk[:, dy, dx] = (g * xp[:, :, dy : dy + h, dx : dx + w]).sum(axis=(0, 2, 3))
        gx = gxp[:, :, ph : ph + h, pw : pw + w]
        return gx, gk, g.sum(axis=(0, 2, 3))

    @classmethod
    def assert_backward_is_padded(cls, x, kernel, bias, g):
        # a taped call's gx, gk and bias gradient for the upstream g, in
        # g's own layout, against the padded reference byte for byte
        tape = Tape()
        depthwise_conv(*[tape.leaf(a) for a in (x, kernel, bias)])
        got = tape.nodes[-1].backward_fn(g)
        assert len(got) == 3
        for have, want in zip(got, cls.padded_backward(x, kernel, g)):
            assert_same_bits(have, want)

    @staticmethod
    def upstream_grads(shape, seed):
        # exact zeros; the same in Fortran order; and every sign bit set,
        # where g * +0 is -0
        g = np.round(rand_normal(shape, seed), 1)
        return [g, np.asfortranarray(g), -np.abs(g)]

    @pytest.mark.parametrize("kernel_hw", [(1, 1), (1, 3), (3, 1), (3, 3)])
    @pytest.mark.parametrize("shape", [(2, 4, 9, 7), (1, 3, 1, 8), (2, 2, 6, 1), (1, 2, 2, 2)])
    def test_bit_equal_to_the_padded_forward(self, kernel_hw, shape):
        c = shape[1]
        # exact zeros and negative inputs, where a -0.0 could show
        x = np.round(rand_normal(shape, 63), 1)
        kernel = np.round(rand_normal((c, *kernel_hw), 64), 1)
        bias = np.round(rand_normal((c,), 65), 1)
        out = depthwise_conv(Tensor(x), Tensor(kernel), Tensor(bias)).data
        assert_same_bits(out, self.padded_forward(x, kernel, bias))
        zero_bias = depthwise_conv(Tensor(x), Tensor(kernel), Tensor(np.zeros(c))).data
        assert_same_bits(zero_bias, self.padded_forward(x, kernel, np.zeros(c)))
        # and a channel of -0.0, which a kernel of ones reads as +0
        x[:, -1] = -0.0
        for g in self.upstream_grads(shape, 73):
            self.assert_backward_is_padded(x, kernel, bias, g)
            self.assert_backward_is_padded(x, kernel, np.zeros(c), g)

    @pytest.mark.parametrize("kernel_hw", [(1, 3), (3, 3)])
    def test_infinite_edge_inputs_do_not_wrap_to_the_next_row(self, kernel_hw):
        # an inf in the first or last column must reach only its neighbours
        # in the same row, as through the zero padding
        x = rand_uniform((1, 2, 5, 6), seed=66)
        x[:, :, ::2, 0] = np.inf
        x[:, :, 1::2, -1] = np.inf
        kernel = 0.5 + rand_uniform((2, *kernel_hw), seed=67, lo=0.0, hi=1.0)
        bias = rand_uniform((2,), seed=68)
        out = depthwise_conv(Tensor(x), Tensor(kernel), Tensor(bias)).data
        assert_same_bits(out, self.padded_forward(x, kernel, bias))
        assert np.isfinite(out).any()
        # backward, with the infinities in x, then in g as well, then in g
        # only; gk's inf * 0 where the padding was is nan in both
        g = -rand_uniform(x.shape, seed=74, lo=0.5, hi=1.5)
        self.assert_backward_is_padded(x, kernel, bias, g)
        g[:, :, 1::2, 0] = np.inf
        g[:, :, ::2, -1] = -np.inf
        with np.errstate(invalid="ignore"):
            self.assert_backward_is_padded(x, kernel, bias, g)
            self.assert_backward_is_padded(rand_uniform(x.shape, seed=75), kernel, bias, g)

    @pytest.mark.parametrize("kernel_hw", [(1, 1), (1, 3), (3, 1), (3, 3)])
    @pytest.mark.parametrize("shape", [(2, 5, 4, 3), (2, 5, 1, 6), (2, 5, 6, 1)])
    @pytest.mark.parametrize("planes", [2, 0], ids=["2-planes", "under-a-plane"])
    def test_channel_groups_equal_one_group(self, monkeypatch, kernel_hw, shape, planes):
        # 5 channels in groups of 2 planes (the last holds 1), or a block
        # smaller than a plane, which still takes one plane, per batch item
        c, hw = shape[1], shape[2] * shape[3]
        x = np.round(rand_normal(shape, 69), 1)
        kernel = np.round(rand_normal((c, *kernel_hw), 70), 1)
        bias = np.round(rand_normal((c,), 71), 1)
        one_group = depthwise_conv(Tensor(x), Tensor(kernel), Tensor(bias)).data
        monkeypatch.setattr(tensor_module, "BLOCK_VALUES", planes * hw if planes else hw - 1)
        out = depthwise_conv(Tensor(x), Tensor(kernel), Tensor(bias)).data
        assert_same_bits(out, one_group)
        assert_same_bits(out, self.padded_forward(x, kernel, bias))
        zero_bias = depthwise_conv(Tensor(x), Tensor(kernel), Tensor(np.zeros(c))).data
        assert_same_bits(zero_bias, self.padded_forward(x, kernel, np.zeros(c)))
        for g in self.upstream_grads(shape, 76):
            self.assert_backward_is_padded(x, kernel, bias, g)
            self.assert_backward_is_padded(x, kernel, np.zeros(c), g)


class TestPooling:
    def test_global_constant(self):
        out = global_avg_pool(Tensor(np.full((2, 3, 4, 4), 2.5)))
        np.testing.assert_array_equal(out.data, np.full((2, 3), 2.5))

    def test_global_mean(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(global_avg_pool(Tensor(x)).data, [[2.5]])

    def test_global_matches_summation(self):
        x = rand_uniform((1, 1, 4, 5), seed=10)
        acc = 0.0
        for y in range(4):
            for z in range(5):
                acc += x[0, 0, y, z]
        np.testing.assert_allclose(global_avg_pool(Tensor(x)).data[0, 0], acc / 20.0, atol=1e-12)

    def test_adaptive_constant(self):
        out = adaptive_avg_pool(Tensor(np.full((1, 2, 4, 4), 3.0)), 2, 2)
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2, 2), 3.0))

    def test_adaptive_single_cell(self):
        x = np.array([[1.0, 2.0], [3.0, 4.0]]).reshape(1, 1, 2, 2)
        np.testing.assert_array_equal(adaptive_avg_pool(Tensor(x), 1, 1).data, [[[[2.5]]]])

    def test_adaptive_matches_per_cell_mean(self):
        ramp = np.arange(64.0).reshape(1, 1, 8, 8)
        out = adaptive_avg_pool(Tensor(ramp), 2, 2).data
        for oy in range(2):
            for ox in range(2):
                cell = ramp[0, 0, 4 * oy : 4 * oy + 4, 4 * ox : 4 * ox + 4]
                acc = 0.0
                for v in cell.reshape(-1):
                    acc += v
                np.testing.assert_allclose(out[0, 0, oy, ox], acc / 16.0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(1, 2, 0, 0), (1, 2, 0, 3), (2, 1, 4, 0)])
    def test_an_empty_plane_is_refused_by_name(self, shape):
        # numpy's mean of an empty plane is NaN with a "Mean of empty slice"
        # RuntimeWarning, and an empty interpolation matrix has no row to
        # index; the pools and the resize refuse it first
        for pool in (global_avg_pool, lambda x: adaptive_avg_pool(x, 1, 1), lambda x: bilinear_resize(x, 2, 2)):
            with pytest.raises(ShapeError, match=f"non-empty plane, got {shape[2]}x{shape[3]}"):
                pool(Tensor(np.zeros(shape)))

    def test_adaptive_rejects_non_divisible(self):
        with pytest.raises(ShapeError):
            adaptive_avg_pool(Tensor(np.zeros((1, 1, 6, 6))), 4, 4)

    def test_adaptive_preserves_global_mean(self):
        # integer payload + power-of-two extents: both reductions are exact
        vals = np.floor(rand_uniform((1, 2, 8, 8), seed=11, lo=0, hi=64))
        pooled = adaptive_avg_pool(Tensor(vals), 2, 2)
        assert float(pooled.data.mean()) == float(vals.mean())

    @pytest.mark.parametrize(
        "shape,out_h,out_w",
        [((2, 1, 6, 10), 2, 2), ((2, 3, 6, 10), 2, 2), ((2, 7, 6, 10), 3, 5), ((2, 3, 1, 9), 1, 3)],
        ids=["C1", "C3", "C7-cells-of-4", "one-row"],
    )
    def test_pools_have_the_bits_of_numpy_mean(self, shape, out_h, out_w):
        # both pools divide np.add.reduce's sums by the cell size, which is
        # what ndarray.mean computes; cells of 15, 4 and 3 values
        x = rand_normal(shape, 30) * 2.0 - 0.5
        b, c, h, w = shape
        assert_same_bits(global_avg_pool(Tensor(x)).data, x.mean(axis=(2, 3)))
        cells = x.reshape(b, c, out_h, h // out_h, out_w, w // out_w)
        assert_same_bits(adaptive_avg_pool(Tensor(x), out_h, out_w).data, cells.mean(axis=(3, 5)))


class TestBilinearResize:
    def test_single_pixel_broadcasts(self):
        out = bilinear_resize(Tensor(np.full((1, 1, 1, 1), 4.25)), 5, 3)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 5, 3), 4.25))

    def test_constant_stays_constant(self):
        out = bilinear_resize(Tensor(np.full((2, 3, 4, 4), -1.5)), 7, 9)
        np.testing.assert_allclose(out.data, np.full((2, 3, 7, 9), -1.5), atol=1e-12)

    def test_2x2_to_4x4_half_pixel_values(self):
        x = np.array([[0.0, 1.0], [2.0, 3.0]]).reshape(1, 1, 2, 2)
        expect = np.array(
            [
                [0.0, 0.25, 0.75, 1.0],
                [0.5, 0.75, 1.25, 1.5],
                [1.5, 1.75, 2.25, 2.5],
                [2.0, 2.25, 2.75, 3.0],
            ]
        )
        np.testing.assert_allclose(bilinear_resize(Tensor(x), 4, 4).data[0, 0], expect, atol=1e-12)

    def test_same_size_is_identity(self):
        x = rand_uniform((2, 3, 5, 6), seed=12)
        np.testing.assert_allclose(bilinear_resize(Tensor(x), 5, 6).data, x, atol=1e-12)


class TestLinear:
    def test_identity_weight(self):
        x = rand_uniform((3, 4), seed=13)
        p = LinearParams(np.eye(4), np.zeros(4))
        bound, _ = bind_params(p, None)
        np.testing.assert_allclose(linear(Tensor(x), bound).data, x, atol=1e-14)

    def test_zero_weight_gives_bias(self):
        p = LinearParams(np.zeros((3, 4)), np.array([1.0, 2.0, 3.0]))
        bound, _ = bind_params(p, None)
        out = linear(Tensor(rand_uniform((2, 4), seed=14)), bound)
        np.testing.assert_array_equal(out.data, [[1.0, 2.0, 3.0], [1.0, 2.0, 3.0]])

    def test_matches_matmul_oracle(self):
        x = rand_uniform((2, 5, 4), seed=15)
        w = rand_uniform((3, 4), seed=16)
        b = rand_uniform((3,), seed=17)
        bound, _ = bind_params(LinearParams(w, b), None)
        np.testing.assert_allclose(
            linear(Tensor(x), bound).data, np.einsum("bnk,ok->bno", x, w) + b, atol=1e-12
        )

    def test_zero_width_input(self):
        bound, _ = bind_params(LinearParams(np.zeros((3, 0)), None), None)
        with count_macs() as mc:
            out = linear(Tensor(np.zeros((2, 0))), bound)
        np.testing.assert_array_equal(out.data, np.zeros((2, 3)))
        assert mc.total == 0

    def test_shape_mismatch(self):
        bound, _ = bind_params(LinearParams(np.zeros((3, 4)), None), None)
        with pytest.raises(ShapeError):
            linear(Tensor(np.zeros((2, 5))), bound)

    @pytest.mark.parametrize("bias_shape", [(1,), (2, 3), (4,)])
    @pytest.mark.parametrize("taped", [False, True])
    def test_bias_must_be_out_wide(self, bias_shape, taped):
        # a (1,) bias would broadcast, and its leaf get a (3,) gradient
        params = LinearParams(np.zeros((3, 4)), np.zeros(bias_shape))
        bound, _ = bind_params(params, Tape() if taped else None)
        with pytest.raises(ShapeError, match="bias"):
            linear(Tensor(np.zeros((2, 4))), bound)

    @pytest.mark.parametrize("walk", [flatten_params, lambda p: bind_params(p, None)], ids=["flatten", "bind"])
    def test_bound_bundle_is_rejected(self, walk):
        bound, _ = bind_params(LinearParams(np.zeros((3, 4)), np.zeros(3)), None)
        with pytest.raises(TypeError, match="'weight' is already bound"):
            walk(bound)


class TestSliceLastdim:
    @pytest.mark.parametrize("shape,start,stop", [((3, 7), 2, 5), ((2, 3, 4), 0, 4), ((4, 6), 5, 6)])
    def test_matches_numpy_slice_and_is_read_only(self, shape, start, stop):
        x = rand_uniform(shape, seed=70)
        out = slice_lastdim(Tensor(x), start, stop)
        np.testing.assert_array_equal(out.data, x[..., start:stop])
        assert not out.data.flags.writeable

    @pytest.mark.parametrize("start,stop", [(0, 0), (3, 2), (-1, 2), (1, 8)])
    def test_rejects_empty_or_out_of_range(self, start, stop):
        with pytest.raises(ShapeError):
            slice_lastdim(Tensor(np.zeros((2, 7))), start, stop)


class TestBackward:
    def test_sum_gradient_is_ones(self):
        tape = Tape()
        x = tape.leaf(rand_uniform((3, 4), seed=18))
        grads = backward(tape, sum_all(x))
        np.testing.assert_array_equal(grads[x.tid].data, np.ones((3, 4)))

    def test_half_square_gradient_is_input(self):
        tape = Tape()
        arr = rand_uniform((2, 5), seed=19)
        x = tape.leaf(arr)
        loss = scalar_mul(sum_all(mul(x, x)), 0.5)
        grads = backward(tape, loss)
        np.testing.assert_allclose(grads[x.tid].data, arr, atol=1e-14)

    def test_softmax_sum_gradient_is_zero(self):
        tape = Tape()
        x = tape.leaf(rand_uniform((4, 6), seed=20))
        grads = backward(tape, sum_all(softmax_lastdim(x)))
        assert np.abs(grads[x.tid].data).max() < 1e-10

    def test_non_scalar_loss_rejected(self):
        tape = Tape()
        x = tape.leaf(np.zeros((2, 2)))
        with pytest.raises(ShapeError):
            backward(tape, add(x, x))

    def test_gradient_shapes_match_tensor_shapes(self):
        tape = Tape()
        a = tape.leaf(rand_uniform((2, 3), seed=21))
        b = tape.leaf(rand_uniform((3, 5), seed=22))
        grads = backward(tape, sum_all(matmul(a, b)))
        assert grads[a.tid].shape == (2, 3)
        assert grads[b.tid].shape == (3, 5)

    def test_returns_leaf_gradients_only(self):
        tape = Tape()
        a = tape.leaf(rand_uniform((2, 3), seed=21))
        b = tape.leaf(rand_uniform((3, 5), seed=22))
        grads = backward(tape, sum_all(matmul(a, b)))
        assert set(grads) == {a.tid, b.tid}

    def test_visits_nodes_in_reverse_order(self):
        tape = Tape()
        x = tape.leaf(rand_uniform((3,), seed=23))
        y = relu(x)
        z = sigmoid(y)
        loss = sum_all(z)
        seen = []
        for node in tape.nodes:
            original = node.backward_fn
            node.backward_fn = (lambda fn, oid: lambda g: seen.append(oid) or fn(g))(
                original, node.out_id
            )
        backward(tape, loss)
        assert seen == [n.out_id for n in reversed(tape.nodes)]

    def test_untaped_inputs_get_no_gradient(self):
        tape = Tape()
        x = tape.leaf(rand_uniform((2, 2), seed=24))
        const = Tensor(rand_uniform((2, 2), seed=25))
        grads = backward(tape, sum_all(mul(x, const)))
        assert x.tid in grads
        assert const.tid is None

    def test_mixed_tapes_rejected(self):
        t1, t2 = Tape(), Tape()
        with pytest.raises(ValueError):
            add(t1.leaf(np.zeros(2)), t2.leaf(np.zeros(2)))


def _arr(*shape):
    return rand_uniform(shape, seed=len(shape))


# One call of each kernel, on Tensors that make(array) builds.
KERNEL_CALLS = {
    "matmul": lambda make: matmul(make(_arr(2, 3)), make(_arr(3, 4))),
    "linear": lambda make: linear(make(_arr(2, 3)), LinearParams(make(_arr(4, 3)), make(_arr(4)))),
    "softmax_lastdim": lambda make: softmax_lastdim(make(_arr(2, 5))),
    "blocked_attention": lambda make: blocked_attention(
        make(_arr(1, 2, 3, 1)), make(_arr(1, 2, 1, 4)), make(_arr(1, 2, 4, 2)), 0.5
    ),
    "layernorm": lambda make: layernorm(make(_arr(2, 4)), make(_arr(4)), make(_arr(4))),
    "depthwise_conv": lambda make: depthwise_conv(make(_arr(1, 2, 4, 4)), make(_arr(2, 3, 3)), make(_arr(2))),
    "global_avg_pool": lambda make: global_avg_pool(make(_arr(1, 2, 4, 4))),
    "adaptive_avg_pool": lambda make: adaptive_avg_pool(make(_arr(1, 2, 4, 4)), 2, 2),
    "bilinear_resize": lambda make: bilinear_resize(make(_arr(1, 2, 4, 4)), 6, 8),
    "relu": lambda make: relu(make(_arr(2, 3))),
    "gelu": lambda make: gelu(make(_arr(2, 3))),
    "sigmoid": lambda make: sigmoid(make(_arr(2, 3))),
    "add": lambda make: add(make(_arr(2, 3)), make(_arr(2, 3))),
    "mul": lambda make: mul(make(_arr(2, 3)), make(_arr(2, 3))),
    "scalar_mul": lambda make: scalar_mul(make(_arr(2, 3)), 1.5),
    "scale_channels": lambda make: scale_channels(make(_arr(1, 2, 4, 4)), make(_arr(1, 2))),
    "concat_lastdim": lambda make: concat_lastdim([make(_arr(2, 3)), make(_arr(2, 2))]),
    "slice_lastdim": lambda make: slice_lastdim(make(_arr(2, 5)), 1, 3),
    "reshape": lambda make: reshape(make(_arr(2, 6)), (3, 4)),
    "transpose": lambda make: transpose(make(_arr(2, 3, 4)), (2, 0, 1)),
    "sum_all": lambda make: sum_all(make(_arr(2, 3))),
}
TAPED_KERNELS = sorted(set(KERNEL_CALLS) - {"blocked_attention"})


class TestKernelExit:
    """Every kernel returns through _emit, which freezes and wraps its result."""

    def test_calls_cover_every_kernel(self):
        kernels = {
            name
            for name, fn in vars(tensor_module).items()
            if inspect.isfunction(fn) and "return _emit(" in inspect.getsource(fn)
        }
        assert kernels == set(KERNEL_CALLS)
        assert len(kernels) == 21

    @pytest.mark.parametrize("kernel", sorted(KERNEL_CALLS))
    def test_untaped_result_is_read_only(self, kernel):
        out = KERNEL_CALLS[kernel](Tensor)
        assert type(out.data) is np.ndarray
        assert not out.data.flags.writeable
        assert out.tape is None and out.tid is None

    @pytest.mark.parametrize("kernel", TAPED_KERNELS)
    def test_taped_result_is_read_only(self, kernel):
        tape = Tape()
        out = KERNEL_CALLS[kernel](tape.leaf)
        assert not out.data.flags.writeable
        assert out.tape is tape
        assert tape.nodes[-1].out_id == out.tid

    @pytest.mark.parametrize("kernel", sorted(KERNEL_CALLS))
    def test_one_emit_per_call(self, kernel, monkeypatch):
        emitted = []

        def counted(out, inputs, backward_fn, macs=None):
            emitted.append(kernel)
            return _emit(out, inputs, backward_fn, macs)

        monkeypatch.setattr(tensor_module, "_emit", counted)
        KERNEL_CALLS[kernel](Tensor)
        assert len(emitted) == 1
        if kernel in TAPED_KERNELS:
            KERNEL_CALLS[kernel](Tape().leaf)
            assert len(emitted) == 2

    @pytest.mark.parametrize(
        "call",
        [lambda x: add(x, x), relu, lambda x: scalar_mul(x, 2.0), sum_all],
        ids=["add", "relu", "scalar_mul", "sum_all"],
    )
    def test_zero_d_result_is_an_array(self, call):
        # numpy gives a 0-d operation's result as a scalar, which has no flags to set
        out = call(Tensor(np.array(-1.5)))
        assert type(out.data) is np.ndarray and out.shape == ()
        assert not out.data.flags.writeable

    @pytest.mark.parametrize("taped", [False, True])
    def test_bound_tensor_stays_a_view(self, taped):
        weight, bias = np.zeros((3, 4)), np.zeros(3)
        bound, leaves = bind_params(LinearParams(weight, bias), Tape() if taped else None)
        weight[1, 2] = 7.0
        assert bound.weight.data[1, 2] == 7.0
        assert np.shares_memory(bound.weight.data, weight) and leaves["weight"] is bound.weight
        assert not bound.weight.data.flags.writeable and weight.flags.writeable
        # a kernel's result is frozen in place; the bound array is not touched
        reshape(bound.weight, (12,))
        assert weight.flags.writeable

    def test_refused_taped_blocked_attention_tallies_nothing(self):
        tape = Tape()
        q, k_t, v = _arr(1, 2, 3, 1), _arr(1, 2, 1, 4), _arr(1, 2, 4, 2)
        with count_macs() as mc, mac_region("attn"):
            with pytest.raises(ValueError, match="no backward"):
                blocked_attention(Tensor(q), tape.leaf(k_t), Tensor(v), 0.5)
        assert mc.total == 0 and mc.by_region == {} and mc.peak_elems == 0
        assert tape.nodes == []


class TestFdGradient:
    @pytest.mark.parametrize(
        "view",
        [lambda a: a.T, lambda a: a[::2, ::2], lambda a: a[:, 1:3], lambda a: a[0, 0, ...]],
        ids=["transposed", "strided", "column-slice", "0-d"],
    )
    def test_steps_the_array_itself(self, view):
        a = view(np.arange(12.0).reshape(3, 4))
        before = a.copy()
        got = fd_gradient(lambda: float((a * a).sum()), a)
        np.testing.assert_allclose(got, 2 * before, rtol=1e-8, atol=1e-8)
        assert got.shape == a.shape
        np.testing.assert_array_equal(a, before)


GRADCHECK_TOL = 1e-4


class TestGradients:
    """Analytic vs central-difference gradients, five random shapes per op."""

    @pytest.mark.parametrize("seed,shape", [(0, (2, 3, 4)), (1, (1, 5, 2)), (2, (4, 1, 3)), (3, (2, 2, 2)), (4, (3, 4, 5))])
    def test_matmul(self, seed, shape):
        m, k, n = shape
        a = rand_uniform((m, k), seed=seed)
        b = rand_uniform((k, n), seed=seed + 50)
        assert op_gradcheck(matmul, [a, b], seed=seed) < GRADCHECK_TOL

    def test_matmul_batched(self):
        a = rand_uniform((2, 3, 4), seed=60)
        b = rand_uniform((2, 4, 5), seed=61)
        assert op_gradcheck(matmul, [a, b], seed=62) < GRADCHECK_TOL

    @pytest.mark.parametrize("seed,shape", [(5, (3,)), (6, (2, 4)), (7, (2, 3, 5)), (8, (1, 7)), (9, (4, 2)), (65, (5, 3, 4))])
    def test_softmax(self, seed, shape):
        assert op_gradcheck(softmax_lastdim, [rand_uniform(shape, seed=seed)], seed=seed) < GRADCHECK_TOL

    @pytest.mark.parametrize("a_shape,b_shape", [((4, 1), (1, 3)), ((2, 3, 1), (2, 1, 5))])
    def test_matmul_inner_extent_one(self, a_shape, b_shape):
        a = rand_uniform(a_shape, seed=66)
        b = rand_uniform(b_shape, seed=67)
        assert op_gradcheck(matmul, [a, b], seed=68) < GRADCHECK_TOL

    def test_unit_scalar_mul(self):
        x = rand_uniform((3, 4), seed=69)
        out = scalar_mul(Tensor(x), 1.0)
        np.testing.assert_array_equal(out.data, x)
        assert not out.data.flags.writeable
        assert op_gradcheck(lambda t: scalar_mul(t, 1.0), [x], seed=69) < GRADCHECK_TOL
        tape = Tape()
        leaf = tape.leaf(x)
        grads = backward(tape, sum_all(mul(scalar_mul(leaf, 1.0), leaf)))
        np.testing.assert_array_equal(grads[leaf.tid].data, 2.0 * x)

    @pytest.mark.parametrize("seed,shape", [(10, (2, 4)), (11, (3, 3)), (12, (1, 4, 6)), (13, (5, 2)), (14, (2, 2, 3))])
    def test_layernorm(self, seed, shape):
        c = shape[-1]
        arrays = [rand_uniform(shape, seed=seed), rand_uniform((c,), seed=seed + 70), rand_uniform((c,), seed=seed + 80)]
        assert op_gradcheck(lambda x, g, b: layernorm(x, g, b, 1e-6), arrays, seed=seed) < GRADCHECK_TOL

    def test_layernorm_in_row_blocks(self, monkeypatch):
        monkeypatch.setattr(tensor_module, "BLOCK_VALUES", 8)  # 2 rows a block, the last holds 1
        arrays = [rand_uniform((5, 4), seed=155), rand_uniform((4,), seed=156), rand_uniform((4,), seed=157)]
        assert op_gradcheck(lambda x, g, b: layernorm(x, g, b, 1e-6), arrays, seed=155) < GRADCHECK_TOL

    @pytest.mark.parametrize("seed,kh,shape", [(15, 3, (1, 2, 4, 4)), (16, 1, (2, 3, 3, 3)), (17, 3, (1, 1, 5, 3)), (18, 1, (1, 4, 2, 2)), (19, 3, (2, 2, 3, 4))])
    def test_depthwise_conv(self, seed, kh, shape):
        c = shape[1]
        arrays = [
            rand_uniform(shape, seed=seed),
            rand_uniform((c, kh, kh), seed=seed + 90),
            rand_uniform((c,), seed=seed + 100),
        ]
        assert op_gradcheck(depthwise_conv, arrays, seed=seed) < GRADCHECK_TOL

    @pytest.mark.parametrize("seed,kernel_hw,shape", [(150, (1, 3), (2, 2, 3, 4)), (151, (3, 1), (1, 2, 4, 3)), (152, (3, 3), (2, 1, 1, 4)), (153, (3, 3), (1, 2, 4, 1)), (154, (1, 3), (2, 1, 1, 1))])
    def test_depthwise_conv_without_bias(self, seed, kernel_hw, shape):
        # the bias is required but need not be on the tape: a constant zero
        # bias leaves the x and kernel gradients of non-square kernels
        zero_bias = Tensor(np.zeros(shape[1]))
        arrays = [rand_uniform(shape, seed=seed), rand_uniform((shape[1], *kernel_hw), seed=seed + 90)]
        assert op_gradcheck(lambda x, k: depthwise_conv(x, k, zero_bias), arrays, seed=seed) < GRADCHECK_TOL

    def test_depthwise_conv_in_channel_groups(self, monkeypatch):
        monkeypatch.setattr(tensor_module, "BLOCK_VALUES", 2 * 4 * 3)  # 5 channels in groups of 2, 2, 1
        arrays = [rand_uniform((2, 5, 4, 3), seed=158), rand_uniform((5, 3, 3), seed=159), rand_uniform((5,), seed=160)]
        assert op_gradcheck(depthwise_conv, arrays, seed=158) < GRADCHECK_TOL

    @pytest.mark.parametrize("seed,shape", [(20, (1, 2, 3, 3)), (21, (2, 1, 4, 2)), (22, (1, 3, 2, 5)), (23, (2, 2, 2, 2)), (24, (1, 1, 6, 4))])
    def test_global_avg_pool(self, seed, shape):
        assert op_gradcheck(global_avg_pool, [rand_uniform(shape, seed=seed)], seed=seed) < GRADCHECK_TOL

    @pytest.mark.parametrize("seed,shape,target", [(25, (1, 2, 4, 4), (2, 2)), (26, (2, 1, 6, 4), (3, 2)), (27, (1, 3, 8, 8), (2, 4)), (28, (1, 1, 4, 6), (4, 3)), (29, (2, 2, 2, 2), (1, 1))])
    def test_adaptive_avg_pool(self, seed, shape, target):
        build = lambda x: adaptive_avg_pool(x, *target)
        assert op_gradcheck(build, [rand_uniform(shape, seed=seed)], seed=seed) < GRADCHECK_TOL

    @pytest.mark.parametrize("seed,shape,target", [(30, (1, 2, 2, 2), (4, 4)), (31, (1, 1, 4, 4), (2, 2)), (32, (2, 1, 3, 5), (5, 3)), (33, (1, 2, 4, 4), (4, 4)), (34, (1, 1, 1, 3), (3, 7))])
    def test_bilinear_resize(self, seed, shape, target):
        build = lambda x: bilinear_resize(x, *target)
        assert op_gradcheck(build, [rand_uniform(shape, seed=seed)], seed=seed) < GRADCHECK_TOL

    @pytest.mark.parametrize("seed,shape,out_dim", [(35, (2, 4), 3), (36, (1, 3, 5), 2), (37, (4, 2), 6), (38, (2, 2, 3), 3), (39, (3, 6), 1)])
    def test_linear(self, seed, shape, out_dim):
        in_dim = shape[-1]
        arrays = [
            rand_uniform(shape, seed=seed),
            rand_uniform((out_dim, in_dim), seed=seed + 110),
            rand_uniform((out_dim,), seed=seed + 120),
        ]
        build = lambda x, w, b: linear(x, LinearParams(w, b))
        assert op_gradcheck(build, arrays, seed=seed) < GRADCHECK_TOL

    @pytest.mark.parametrize("op", [relu, gelu, sigmoid])
    @pytest.mark.parametrize("seed,shape", [(40, (3, 4)), (41, (2, 2, 2)), (42, (7,)), (43, (1, 5)), (44, (4, 3)), (149, ())])
    def test_elementwise_activations(self, op, seed, shape):
        assert op_gradcheck(op, [rand_uniform(shape, seed=seed)], seed=seed) < GRADCHECK_TOL

    @pytest.mark.parametrize("seed,shape", [(45, (2, 3)), (46, (4,)), (47, (2, 2, 2)), (48, (1, 6)), (49, (3, 1, 2))])
    def test_add_mul(self, seed, shape):
        a = rand_uniform(shape, seed=seed)
        b = rand_uniform(shape, seed=seed + 130)
        assert op_gradcheck(add, [a, b], seed=seed) < GRADCHECK_TOL
        assert op_gradcheck(mul, [a, b], seed=seed) < GRADCHECK_TOL

    @pytest.mark.parametrize("seed,shape", [(50, (1, 2, 3, 3)), (51, (2, 3, 2, 2)), (52, (1, 1, 4, 4)), (53, (3, 2, 2, 3)), (54, (1, 4, 2, 2))])
    def test_scale_channels(self, seed, shape):
        x = rand_uniform(shape, seed=seed)
        gate = rand_uniform(shape[:2], seed=seed + 140)
        assert op_gradcheck(scale_channels, [x, gate], seed=seed) < GRADCHECK_TOL

    @pytest.mark.parametrize(
        "seed,shape,factor,axes",
        [
            (55, (2, 3, 4), -1.7, (2, 0, 1)),
            (56, (3, 2), 0.5, (1, 0)),
            (57, (4, 1, 2), 3.0, (1, 2, 0)),
            (58, (5,), -0.25, (0,)),
            (59, (2, 2, 3), 11.0, (0, 2, 1)),
        ],
    )
    def test_scalar_mul_and_structural_ops(self, seed, shape, factor, axes):
        x = rand_uniform(shape, seed=seed)
        n = int(np.prod(shape))
        assert op_gradcheck(lambda t: scalar_mul(t, factor), [x], seed=seed) < GRADCHECK_TOL
        assert op_gradcheck(lambda t: reshape(t, (n,)), [x], seed=seed + 200) < GRADCHECK_TOL
        assert op_gradcheck(lambda t: transpose(t, axes), [x], seed=seed + 210) < GRADCHECK_TOL
        y = rand_uniform(shape, seed=seed + 220)
        assert op_gradcheck(lambda a, b: concat_lastdim([a, b]), [x, y], seed=seed + 230) < GRADCHECK_TOL

    @pytest.mark.parametrize("seed,shape,start,stop", [(71, (3, 7), 2, 5), (72, (2, 3, 4), 0, 4), (73, (4, 6), 5, 6), (74, (5, 3), 0, 1), (75, (2, 2, 5), 1, 3)])
    def test_slice_lastdim(self, seed, shape, start, stop):
        build = lambda x: slice_lastdim(x, start, stop)
        assert op_gradcheck(build, [rand_uniform(shape, seed=seed)], seed=seed) < GRADCHECK_TOL

    def test_misplaced_slice_adjoint_is_detected(self):
        # slice_lastdim's forward with g written one column right of the slice
        def shifted(x):
            out = slice_lastdim(Tensor(x.data), 1, 3).data

            def backward_fn(g):
                gx = np.zeros(x.shape)
                gx[..., 2:4] = g
                return (gx,)

            return _emit(out, (x,), backward_fn)

        assert op_gradcheck(shifted, [rand_uniform((3, 6), seed=76)], seed=76) > GRADCHECK_TOL

    def test_tamper_hook_is_detected(self):
        x = rand_uniform((3, 4), seed=59)
        assert op_gradcheck(tampered_softmax, [x], seed=59) > GRADCHECK_TOL


def cephes_erf(x):
    out = np.empty_like(x)
    _erf(x, out)
    return out


def assert_same_bits(got, want):
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan].view(np.int64), want[~nan].view(np.int64))


# Where Cephes erf branches or clamps: signed zeros, the |x| = 1 and 8 branch
# points, erfc's MAXLOG underflow (x*x > 709.78 from x ~ 26.64), squares that
# overflow, infinities, NaN and subnormals.
ERF_EDGES = [0.0, -0.0, 1.0, -1.0, np.nextafter(1.0, 2.0), -np.nextafter(1.0, 2.0), np.nextafter(1.0, 0.0),
             8.0, -8.0, np.nextafter(8.0, 0.0), 26.0, 26.5, 26.64, 26.65, 27.0, -27.0, 1e154, 1.4e154, 1e300,
             -1e300, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -1e-310]


class TestErf:
    """The numpy Cephes erf against scipy.special.erf, the library it follows."""

    @pytest.mark.parametrize("branch", ["|x|<=1", "1<|x|<8", "|x|>=8"])
    def test_bit_equal_to_scipy_on_a_million_draws_per_branch(self, branch):
        scipy_special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(7)
        n = 1_000_003
        sign = rng.choice([-1.0, 1.0], n)
        if branch == "|x|<=1":
            x = rng.uniform(-1.0, 1.0, n)
        elif branch == "1<|x|<8":
            x = sign * rng.uniform(np.nextafter(1.0, 2.0), 8.0, n)
        else:  # half up to the underflow clamp and past it, half spread to 1e300
            x = sign * np.where(rng.random(n) < 0.5, rng.uniform(8.0, 30.0, n), 10.0 ** rng.uniform(0.91, 300.0, n))
        assert_same_bits(cephes_erf(x), scipy_special.erf(x))

    def test_edge_values_keep_bits_signs_and_nan(self):
        scipy_special = pytest.importorskip("scipy.special")
        x = np.array(ERF_EDGES)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = cephes_erf(x)
        assert_same_bits(got, scipy_special.erf(x))
        assert np.signbit(got[1]) and not np.signbit(got[0])

    def test_gelu_is_the_scipy_formula_bit_for_bit(self):
        scipy_special = pytest.importorskip("scipy.special")
        # Mixed blocks: some hold only |x/sqrt(2)| <= 1, some both branches,
        # and the last is ragged.
        x = rand_normal((5, 40_001), 3) * np.array([[0.1], [1.0], [3.0], [30.0], [1e200]])
        want = x * (0.5 * (1.0 + scipy_special.erf(x / math.sqrt(2.0))))
        assert_same_bits(gelu(Tensor(x)).data, want)

    def test_untaped_gelu_holds_no_whole_cdf(self):
        # only backward reads cdf: an untaped call forms it block by block
        # in its output, a taped one keeps a whole array of it
        # 64 blocks, so the few block-sized scratch arrays are ~0.1 outputs
        x = rand_normal((64, 1 << 15), 6) * 3.0
        outs, peaks = {}, {}
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            for taped in (False, True):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                outs[taped] = gelu(Tape().leaf(x) if taped else Tensor(x))
                peaks[taped] = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert_same_bits(outs[False].data, outs[True].data)
        assert peaks[False] < 1.25 * x.nbytes, f"untaped gelu peaked at {peaks[False] / x.nbytes:.2f} outputs"
        assert peaks[True] >= 2 * x.nbytes

    def test_gelu_of_huge_and_non_finite_inputs_warns_nothing(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            out = gelu(Tensor(np.array([1e300, -1e300, np.inf, -np.inf, np.nan]))).data
        assert_same_bits(out, np.array([1e300, -0.0, np.inf, -0.0, np.nan]))

    def test_gelu_at_infinities_takes_its_limits_forward_and_backward(self):
        # GELU tends to 0 at -inf with slope 0, and to x at +inf with slope
        # 1; the infinities in a block leave its finite entries' bits alone.
        finite = rand_normal((3, 50), 5) * np.array([[1.0], [10.0], [1e200]])
        x = finite.copy()
        x[:, ::7] = -np.inf
        x[:, 3::7] = np.inf
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            tape = Tape()
            leaf = tape.leaf(x)
            out = gelu(leaf)
            grad = backward(tape, sum_all(out))[leaf.tid].data
            tape_f = Tape()
            leaf_f = tape_f.leaf(finite)
            out_f = gelu(leaf_f)
            grad_f = backward(tape_f, sum_all(out_f))[leaf_f.tid].data
        inf = np.isinf(x)
        assert_same_bits(out.data[inf], np.where(x[inf] > 0, np.inf, -0.0))
        assert_same_bits(grad[inf], np.where(x[inf] > 0, 1.0, 0.0))
        assert_same_bits(out.data[~inf], out_f.data[~inf])
        assert_same_bits(grad[~inf], grad_f[~inf])
        # finite entries keep the formula's bits: x * cdf, and cdf + x * pdf
        cdf = 0.5 * (1.0 + cephes_erf((finite / math.sqrt(2.0)).ravel()).reshape(finite.shape))
        assert_same_bits(out_f.data, finite * cdf)
        with np.errstate(over="ignore"):  # the 1e200 row's squares
            pdf = np.exp(-0.5 * finite * finite) / math.sqrt(2.0 * math.pi)
        assert_same_bits(grad_f, 1.0 * (cdf + finite * pdf))

    def test_per_element_math_fallback_gives_the_same_bits(self, monkeypatch):
        x = np.concatenate([rand_normal((70_000,), 4) * 4.0, np.array(ERF_EDGES)])
        fast = cephes_erf(x)
        monkeypatch.setattr(tensor_module, "_view_is_libm", lambda ufunc: False)
        assert_same_bits(cephes_erf(x), fast)

    def test_importing_the_package_loads_no_scipy(self):
        src = os.path.dirname(os.path.dirname(stripseg.__file__))
        code = "import sys, stripseg; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"


@pytest.mark.skipif(not tensor_module._HEAP_RETAINED, reason="needs glibc's mallopt")
class TestHeap:
    def test_freed_arrays_are_reused_without_page_faults(self):
        # 96 MiB in 1 MiB arrays, freed together: past glibc's default trim
        # threshold, so without the package's settings the second round
        # faults in about as many pages as the first.
        src = os.path.dirname(os.path.dirname(stripseg.__file__))
        code = (
            "import resource, numpy as np, stripseg\n"
            "def faults(): return resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
            "rounds = []\n"
            "for _ in range(2):\n"
            "    f0 = faults()\n"
            "    arrays = [np.ones(1 << 17) for _ in range(96)]\n"
            "    rounds.append(faults() - f0)\n"
            "    del arrays\n"
            "print(*rounds)\n"
        )
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        first, second = map(int, result.stdout.split())
        pages = 96 * (1 << 20) // os.sysconf("SC_PAGE_SIZE")
        assert first >= pages // 2
        assert second < pages // 16


class TestFiniteness:
    @pytest.mark.parametrize("seed", range(3))
    def test_pipeline_outputs_finite(self, seed):
        x = rand_uniform((2, 4, 8), seed=seed)
        out = softmax_lastdim(
            layernorm(Tensor(x), Tensor(np.ones(8)), Tensor(np.zeros(8)))
        )
        assert np.isfinite(out.data).all()


class TestMacCounter:
    def test_matmul_macs(self):
        with count_macs() as mc:
            matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 4))))
        assert mc.total == 2 * 4 * 3

    def test_regions_and_peak(self):
        with count_macs() as mc:
            with mac_region("scores"):
                matmul(Tensor(np.zeros((4, 2))), Tensor(np.zeros((2, 4))))
            matmul(Tensor(np.zeros((2, 2))), Tensor(np.zeros((2, 2))))
        assert mc.by_region["scores"] == 4 * 4 * 2
        assert mc.by_region["other"] == 2 * 2 * 2
        assert mc.total == 32 + 8
        assert mc.peak_elems == 16
        assert mc.peak_by_region["scores"] == 16

    def test_uncounted_ops(self):
        with count_macs() as mc:
            softmax_lastdim(Tensor(np.zeros((4, 4))))
            bilinear_resize(Tensor(np.zeros((1, 1, 4, 4))), 8, 8)
        assert mc.total == 0
