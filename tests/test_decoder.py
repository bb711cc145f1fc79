"""Decoder contracts: mixed key/value construction, LPM, block, full decode."""

import contextlib
import copy
import dataclasses
import gc
import math
import re
import tracemalloc

import numpy as np
import pytest
from conftest import deferred_strip_attention, rand_normal
from scipy.special import erf

import stripseg.attention as attention_module
import stripseg.decoder as decoder_module
import stripseg.tensor as tensor_module
from stripseg.attention import MIXER_KINDS, oracle_attention
from stripseg.config import build_decoder_params, build_pyramid, resolve_config
from stripseg.decoder import (
    build_mixed_kv,
    clb,
    decode,
    grid_from_tokens,
    init_decoder_params,
    lpm,
    tokens_from_grid,
)
from stripseg.gradcheck import fd_gradient, max_rel_error
from stripseg.synth import PyramidSpec, generate_pyramid
from stripseg.tensor import (
    ShapeError,
    Tape,
    Tensor,
    adaptive_avg_pool,
    backward,
    bilinear_resize,
    bind_params,
    concat_lastdim,
    flatten_params,
    linear,
    softmax_lastdim,
    sum_all,
)


def small_config(**overrides):
    doc = {
        "pyramid": {"height": 64, "width": 64, "channels": [4, 8, 8, 16]},
        "decoder": {"heads": [1, 1, 2, 2], "dim_head": 4, "num_classes": 3, "mlp_expansion": 2},
    }
    for section, vals in overrides.items():
        doc.setdefault(section, {}).update(vals)
    return resolve_config(doc)


def decoder_spec(**settings):
    """The default decoder settings with some overridden, as a DecoderSpec."""
    return resolve_config({"decoder": settings}).decoder


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------


def np_layernorm(x, gamma, beta, eps=1e-6):
    mu = x.mean(axis=-1, keepdims=True)
    var = ((x - mu) ** 2).mean(axis=-1, keepdims=True)
    return gamma * (x - mu) / np.sqrt(var + eps) + beta


def lpm_loop_oracle(x_tokens, h, w, p):
    """Scalar-loop evaluation of the local perception module."""
    b_sz, n, c = x_tokens.shape
    out = np.zeros_like(x_tokens)
    for b in range(b_sz):
        grid = np.zeros((c, h, w))
        for i in range(n):
            y, x_ = divmod(i, w)
            for ch in range(c):
                grid[ch, y, x_] = x_tokens[b, i, ch]
        pre = np.zeros_like(grid)
        for ch in range(c):
            for y in range(h):
                for x_ in range(w):
                    v = grid[ch, y, x_] * p.dw1_kernel[ch] + p.dw1_bias[ch]
                    pre[ch, y, x_] = v if v > 0 else 0.0
        xd = np.zeros_like(grid)
        for ch in range(c):
            for y in range(h):
                for x_ in range(w):
                    acc = 0.0
                    for dy in range(3):
                        for dx in range(3):
                            yy, xx = y + dy - 1, x_ + dx - 1
                            if 0 <= yy < h and 0 <= xx < w:
                                acc += p.dw3_kernel[ch, dy, dx] * pre[ch, yy, xx]
                    xd[ch, y, x_] = acc + p.dw3_bias[ch]
        squeezed = [xd[ch].sum() / (h * w) for ch in range(c)]
        hidden = []
        for o in range(p.fc1.weight.shape[0]):
            acc = sum(squeezed[i] * p.fc1.weight[o, i] for i in range(c)) + p.fc1.bias[o]
            hidden.append(max(acc, 0.0))
        gate = []
        for o in range(c):
            acc = sum(hidden[i] * p.fc2.weight[o, i] for i in range(len(hidden))) + p.fc2.bias[o]
            gate.append(1.0 / (1.0 + math.exp(-acc)))
        for ch in range(c):
            for y in range(h):
                for x_ in range(w):
                    branch = gate[ch] * xd[ch, y, x_] * p.dw_out_kernel[ch] + p.dw_out_bias[ch]
                    out[b, y * w + x_, ch] = grid[ch, y, x_] + branch
    return out


def clb_strip_oracle(f, m, h, w, p, eps=1e-6):
    """Composed reference: oracle mixer + loop LPM + explicit numpy MLP."""
    q = np_layernorm(f, p.ln1_gamma, p.ln1_beta, eps)
    kv = np_layernorm(m, p.ln_kv_gamma, p.ln_kv_beta, eps)
    z_g = oracle_attention(q, kv, p.mixer) + f
    z_gl = lpm_loop_oracle(np_layernorm(z_g, p.ln2_gamma, p.ln2_beta, eps), h, w, p.lpm) + z_g
    x3 = np_layernorm(z_gl, p.ln3_gamma, p.ln3_beta, eps)
    hidden = x3 @ p.mlp_fc1.weight.T + p.mlp_fc1.bias
    hidden = 0.5 * hidden * (1.0 + erf(hidden / math.sqrt(2.0)))
    return hidden @ p.mlp_fc2.weight.T + p.mlp_fc2.bias + z_gl


# ---------------------------------------------------------------------------
# Mixed key/value
# ---------------------------------------------------------------------------


def pooled_tokens(x, h, w):
    return tokens_from_grid(adaptive_avg_pool(x, h, w))


class TestBuildMixedKv:
    def test_stage4_uses_only_pooled_features(self):
        spec = PyramidSpec(height=64, width=64, channels=(8, 16, 32, 64), seed=0)
        pyr = generate_pyramid(spec)
        m = build_mixed_kv([pooled_tokens(Tensor(f), 2, 2) for f in pyr.features])
        assert m.shape == (1, 4, 120)

    def test_channel_extent_is_sum_at_every_stage(self):
        cfg = resolve_config({"pyramid": {"channels": [8, 16, 32, 64]}, "seed": 1})
        trace = decode(build_pyramid(cfg), build_decoder_params(cfg))
        for stage in (1, 2, 3, 4):
            assert trace.mixed[stage - 1].shape == (1, 4, 120)

    def test_constant_stages_give_constant_tokens(self):
        spec = PyramidSpec(height=64, width=64, channels=(2, 3, 4, 5), seed=2)
        consts = [1.5, -2.0, 0.25, 4.0]
        feats = [
            Tensor(np.full(spec.stage_shape(s), consts[s - 1])) for s in range(1, 5)
        ]
        m = build_mixed_kv([pooled_tokens(f, 2, 2) for f in feats]).data
        expect = np.concatenate([np.full(c, v) for c, v in zip(spec.channels, consts)])
        for token in range(m.shape[1]):
            np.testing.assert_allclose(m[0, token], expect, atol=1e-12)

    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    @pytest.mark.parametrize(
        "mixer,cross",
        [
            ("sca", [True] * 4),
            ("ca", [True] * 4),
            ("sa", [True] * 4),
            ("sca", [False, True, False, True]),
            ("sca", [True, False, False, False]),
        ],
        ids=["sca", "ca", "sa", "sca-FTFT", "sca-TFFF"],
    )
    def test_decode_mixed_matches_per_stage_pooling(self, mixer, cross, taped):
        # each stage's key/value, pooled afresh from the encoder levels at or
        # below the stage and the decoded levels above it
        cfg = small_config(decoder={"mixer": mixer, "cross_layer_enabled": cross})
        pyr = build_pyramid(cfg)
        trace = decode(pyr, build_decoder_params(cfg), Tape() if taped else None)
        h4, w4 = cfg.pyramid.stage_grid(4)
        for stage in range(1, 5):
            if cross[stage - 1]:
                levels = [Tensor(f) for f in pyr.features[:stage]] + trace.decoded[stage:]
                expect = concat_lastdim([pooled_tokens(x, h4, w4) for x in levels])
            else:
                expect = pooled_tokens(Tensor(pyr.stage(stage)), h4, w4)
            assert np.array_equal(trace.mixed[stage - 1].data, expect.data), stage

    @pytest.mark.parametrize(
        "cross",
        [
            [True] * 4,
            [False, False, False, True],
            [False, False, True, True],
            [False, True, True, True],
            [True, False, False, False],
            [False] * 4,
        ],
        ids=["TTTT", "FFFT", "FFTT", "FTTT", "TFFF", "FFFF"],
    )
    def test_each_level_is_pooled_once(self, monkeypatch, cross):
        calls = []

        def counting(x, h, w):
            calls.append(x.shape)
            return adaptive_avg_pool(x, h, w)

        monkeypatch.setattr(decoder_module, "adaptive_avg_pool", counting)
        cfg = resolve_config({"decoder": {"cross_layer_enabled": cross}})
        tape = Tape()
        decode(build_pyramid(cfg), build_decoder_params(cfg), tape)
        # four encoder levels, plus each decoded stage a lower stage mixes in
        assert len(calls) == 4 + sum(any(cross[: s - 1]) for s in (2, 3, 4))
        # pooling every level at every cross-layer stage took 4 calls there
        assert len(calls) <= sum(4 if c else 1 for c in cross)
        if all(cross):  # the default decode
            assert len(calls) == 7
            assert len(tape.nodes) <= 215


# ---------------------------------------------------------------------------
# Local perception module
# ---------------------------------------------------------------------------


class TestLPM:
    def _params(self, c, seed=0, zero=False):
        params = init_decoder_params(
            (c, c, c, c),
            decoder_spec(heads=[1, 1, 1, 1], dim_head=2, num_classes=2, lpm_reduction=2),
            seed,
        ).clb[0].lpm
        if zero:
            params.dw1_kernel[:] = 0.0
            params.dw3_kernel[:] = 0.0
            params.fc1.weight[:] = 0.0
            params.fc2.weight[:] = 0.0
            params.dw_out_kernel[:] = 0.0
        return params

    def test_zero_weights_zero_biases_is_identity(self):
        p = self._params(4, zero=True)
        bound, _ = bind_params(p, None)
        x = rand_normal((1, 8, 4), seed=4)
        out = lpm(Tensor(x), 2, 4, bound)
        np.testing.assert_array_equal(out.data, x)

    def test_zero_input_zero_biases_gives_zero(self):
        p = self._params(4, seed=5)
        bound, _ = bind_params(p, None)
        out = lpm(Tensor(np.zeros((1, 6, 4))), 2, 3, bound)
        np.testing.assert_array_equal(out.data, np.zeros((1, 6, 4)))

    def test_matches_loop_oracle(self):
        p = self._params(4, seed=6)
        # non-trivial biases exercise every term
        p.dw1_bias[:] = 0.1
        p.dw3_bias[:] = -0.05
        p.dw_out_bias[:] = 0.2
        bound, _ = bind_params(p, None)
        x = rand_normal((1, 8, 4), seed=7)
        out = lpm(Tensor(x), 2, 4, bound)
        np.testing.assert_allclose(out.data, lpm_loop_oracle(x, 2, 4, p), atol=1e-10)

    def test_wrong_grid_rejected(self):
        p = self._params(4, seed=8)
        bound, _ = bind_params(p, None)
        with pytest.raises(ShapeError):
            lpm(Tensor(np.zeros((1, 8, 4))), 3, 3, bound)


# ---------------------------------------------------------------------------
# Cross-layer block
# ---------------------------------------------------------------------------


class TestCLB:
    def test_zero_branch_configuration_is_identity(self):
        cfg = small_config()
        params = build_decoder_params(cfg, zero_residual=True)
        block = params.clb[1]
        bound, _ = bind_params(block, None)
        f = rand_normal((1, 64, 8), seed=9)
        m = rand_normal((1, 4, 36), seed=10)
        out = clb(Tensor(f), Tensor(m), 8, 8, bound, "sca", True)
        np.testing.assert_array_equal(out.data, f)

    def test_self_attention_mixer_ignores_kv(self):
        params = init_decoder_params(
            (4, 4, 4, 4), decoder_spec(heads=[1, 1, 1, 1], dim_head=2, num_classes=2, mixer="sa"), 11,
        )
        bound, _ = bind_params(params.clb[0], None)
        f = rand_normal((1, 8, 4), seed=12)
        m1 = rand_normal((1, 4, 16), seed=13)
        m2 = rand_normal((1, 4, 16), seed=14)
        out1 = clb(Tensor(f), Tensor(m1), 2, 4, bound, "sa", True)
        out2 = clb(Tensor(f), Tensor(m2), 2, 4, bound, "sa", True)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_matches_composed_oracle(self):
        params = init_decoder_params(
            (4, 4, 4, 4), decoder_spec(heads=[2, 1, 1, 1], dim_head=3, num_classes=2), 15,
        )
        block = params.clb[0]
        bound, _ = bind_params(block, None)
        f = rand_normal((1, 8, 4), seed=16)
        m = rand_normal((1, 4, 16), seed=17)
        out = clb(Tensor(f), Tensor(m), 2, 4, bound, "sca", True)
        np.testing.assert_allclose(out.data, clb_strip_oracle(f, m, 2, 4, block), atol=1e-9)

    def test_lpm_disabled_skips_middle_block(self):
        params = init_decoder_params(
            (4, 4, 4, 4), decoder_spec(heads=[1, 1, 1, 1], dim_head=2, num_classes=2, lpm_enabled=False), 18,
        )
        block = params.clb[0]
        block.lpm.dw3_kernel[:] = 999.0  # must have no effect
        bound, _ = bind_params(block, None)
        f = rand_normal((1, 8, 4), seed=19)
        m = rand_normal((1, 4, 16), seed=20)
        out_disabled = clb(Tensor(f), Tensor(m), 2, 4, bound, "sca", False)
        assert np.isfinite(out_disabled.data).all()


class TestMLPBlocks:
    """An untaped block runs its MLP sub-block on blocks of tokens; a taped
    one runs it on all tokens at once."""

    @staticmethod
    def stage1_block():
        # stage 1 at the realistic widths: C = 32, MLP hidden 128, so
        # 256-token blocks; key/value width 512
        params = init_decoder_params((32, 64, 160, 256), decoder_spec(heads=[1, 2, 5, 8], dim_head=32, init_std=0.5), 21)
        return params.clb[0]

    @staticmethod
    def gelu_rows(monkeypatch):
        """Token rows of each gelu call clb makes from now on."""
        rows = []
        real = decoder_module.gelu

        def recording(x):
            rows.append(x.size // x.shape[-1])
            return real(x)

        monkeypatch.setattr(decoder_module, "gelu", recording)
        return rows

    @staticmethod
    def one_block(monkeypatch, *args):
        """clb(*args) with its MLP sub-block run as one block of all tokens."""
        monkeypatch.setattr(decoder_module, "MLP_BLOCK_ROWS", 1 << 40)
        return clb(*args)

    def test_realistic_stage_1_blocks_equal_one_block_bit_for_bit(self, monkeypatch):
        block = self.stage1_block()
        assert decoder_module.MLP_BLOCK_ROWS == 256
        f = rand_normal((1, 128 * 256, 32), seed=22)
        m = rand_normal((1, 16, 512), seed=23)
        rows = self.gelu_rows(monkeypatch)
        args = (Tensor(f), Tensor(m), 128, 256, bind_params(block, None)[0], "sca", True)
        blocked = clb(*args)
        assert rows == [256] * 128
        rows.clear()
        taped = clb(Tensor(f), Tensor(m), 128, 256, bind_params(block, Tape())[0], "sca", True)
        assert rows == [128 * 256]
        assert taped.tape is not None and blocked.tape is None
        rows.clear()
        whole = self.one_block(monkeypatch, *args)
        assert rows == [128 * 256]
        assert np.array_equal(blocked.data.view(np.int64), whole.data.view(np.int64))

    def test_ragged_tokens_and_batch_of_two_equal_one_block_bit_for_bit(self, monkeypatch):
        # 2 x 2,051 tokens: 15 blocks of 256 rows, one crossing the batch
        # boundary, and a last block of 262 that takes the 6-row remainder,
        # which BLAS would round differently on its own
        block = self.stage1_block()
        f = rand_normal((2, 7 * 293, 32), seed=24)
        m = rand_normal((2, 16, 512), seed=25)
        rows = self.gelu_rows(monkeypatch)
        args = (Tensor(f), Tensor(m), 7, 293, bind_params(block, None)[0], "sca", True)
        blocked = clb(*args)
        assert rows == [256] * 15 + [262]
        whole = self.one_block(monkeypatch, *args)
        assert blocked.shape == whole.shape == f.shape
        assert np.array_equal(blocked.data.view(np.int64), whole.data.view(np.int64))

    @pytest.mark.parametrize("tokens,blocks", [(511, [511]), (512, [256, 256]), (767, [256, 511])])
    def test_last_block_takes_the_remainder(self, monkeypatch, tokens, blocks):
        # default widths: C = 8, MLP hidden 32
        params = init_decoder_params((8, 16, 32, 64), decoder_spec(init_std=0.5), 26)
        f = rand_normal((1, tokens, 8), seed=27)
        m = rand_normal((1, 4, 120), seed=28)
        rows = self.gelu_rows(monkeypatch)
        args = (Tensor(f), Tensor(m), 1, tokens, bind_params(params.clb[0], None)[0], "sca", True)
        blocked = clb(*args)
        assert rows == blocks
        whole = self.one_block(monkeypatch, *args)
        assert np.array_equal(blocked.data.view(np.int64), whole.data.view(np.int64))

    def test_default_config_runs_one_block_per_stage(self, monkeypatch):
        cfg = resolve_config({})
        rows = self.gelu_rows(monkeypatch)
        decode(build_pyramid(cfg), build_decoder_params(cfg))
        assert rows == [cfg.pyramid.stage_grid(stage)[0] * cfg.pyramid.stage_grid(stage)[1] for stage in (4, 3, 2, 1)]


# ---------------------------------------------------------------------------
# Full decode
# ---------------------------------------------------------------------------


class TestDecode:
    def test_leaf_names_are_flatten_params_names(self):
        # decoder_gradcheck looks each flatten_params name up in param_leaves
        cfg = resolve_config({})
        params = build_decoder_params(cfg)
        trace = decode(build_pyramid(cfg), params, Tape())
        names = [name for name, _ in flatten_params(params)]
        assert len(names) == 122
        assert list(trace.param_leaves) == names

    def test_shape_contract(self):
        cfg = resolve_config({})
        pyr = build_pyramid(cfg)
        trace = decode(pyr, build_decoder_params(cfg))
        assert trace.mask.shape == (1, 19, 16, 16)
        for stage in range(1, 5):
            assert trace.decoded[stage - 1].shape == pyr.stage(stage).shape
            assert trace.mixed[stage - 1].shape[1] == 4

    def test_zero_init_identity_composition(self):
        cfg = small_config()
        pyr = build_pyramid(cfg)
        params = build_decoder_params(cfg, zero_residual=True)
        trace = decode(pyr, params)
        for stage in range(1, 5):
            np.testing.assert_array_equal(trace.decoded[stage - 1].data, pyr.stage(stage))

    def test_determinism_is_bitwise(self):
        cfg = small_config()
        pyr = build_pyramid(cfg)
        params = build_decoder_params(cfg)
        a = decode(pyr, params)
        b = decode(pyr, params)
        assert np.array_equal(a.mask.data, b.mask.data)
        for stage in range(4):
            assert np.array_equal(a.decoded[stage].data, b.decoded[stage].data)
            assert np.array_equal(a.attn[stage].data, b.attn[stage].data)

    def test_cross_layer_ablation_changes_mask(self):
        full = small_config()
        only4 = small_config(decoder={"cross_layer_enabled": [False, False, False, True]})
        pyr = build_pyramid(full)
        mask_full = decode(pyr, build_decoder_params(full)).mask.data
        mask_only4 = decode(pyr, build_decoder_params(only4)).mask.data
        assert np.abs(mask_full - mask_only4).max() > 1e-6

    def test_channel_mismatch_names_stage(self):
        cfg = small_config()
        pyr = build_pyramid(cfg)
        other = resolve_config({
            "pyramid": {"height": 64, "width": 64, "channels": [8, 8, 8, 16]},
            "decoder": {"heads": [1, 1, 2, 2], "dim_head": 4, "num_classes": 3},
        })
        with pytest.raises(ShapeError) as err:
            decode(pyr, build_decoder_params(other))
        assert "stage" in str(err.value)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_fuse_width_mismatch_is_shape_error(self, extra):
        cfg = small_config()
        params = build_decoder_params(cfg)
        k, c = params.fuse_mlp.weight.shape
        fuse = dataclasses.replace(params.fuse_mlp, weight=np.zeros((k, c + extra)))
        params = dataclasses.replace(params, fuse_mlp=fuse)
        with pytest.raises(ShapeError, match="fuse weight"):
            decode(build_pyramid(cfg), params)

    def test_fuse_gradient_matches_hand_chain_rule(self):
        # under the zero-branch identity the decode reduces to
        # mask = fuse(concat(upsample(F_i))), so d sum(mask) / d fuse
        # weight[k, c] is the channel-c sum of the upsampled features and
        # the bias gradient is the position count
        from stripseg.tensor import bilinear_resize

        cfg = small_config()
        pyr = build_pyramid(cfg)
        params = build_decoder_params(cfg, zero_residual=True)
        tape = Tape()
        trace = decode(pyr, params, tape)
        grads = backward(tape, sum_all(trace.mask))
        channel_sums = np.concatenate(
            [
                bilinear_resize(Tensor(pyr.stage(s)), 16, 16).data.sum(axis=(0, 2, 3))
                for s in range(1, 5)
            ]
        )
        expect_w = np.tile(channel_sums, (params.spec.num_classes, 1))
        got_w = grads[trace.param_leaves["fuse_mlp.weight"].tid].data
        np.testing.assert_allclose(got_w, expect_w, rtol=1e-9, atol=1e-9)
        got_b = grads[trace.param_leaves["fuse_mlp.bias"].tid].data
        np.testing.assert_allclose(got_b, np.full(params.spec.num_classes, 256.0), atol=1e-9)

    @pytest.mark.parametrize("mixer", ["sca", "ca", "sa"])
    @pytest.mark.parametrize("size", [{}, {"height": 64, "width": 128}], ids=["default", "64x128"])
    def test_fuse_matches_resize_concat_project(self, mixer, size):
        # the fuse projects each stage before resizing it; resizing every
        # decoded stage, concatenating the channels and projecting once is
        # the same map, up to rounding
        cfg = resolve_config({"pyramid": size, "decoder": {"mixer": mixer}})
        params = build_decoder_params(cfg)
        trace = decode(build_pyramid(cfg), params)
        h1, w1 = cfg.pyramid.stage_grid(1)
        upsampled = [tokens_from_grid(bilinear_resize(d, h1, w1)) for d in trace.decoded]
        fuse, _ = bind_params(params.fuse_mlp, None)
        expect = grid_from_tokens(linear(concat_lastdim(upsampled), fuse), h1, w1)
        np.testing.assert_allclose(trace.mask.data, expect.data, rtol=0, atol=1e-13)

    def test_sampled_leaf_gradients(self):
        # fast spot-check; the acceptance suite differences every leaf
        cfg = resolve_config({
            "pyramid": {"height": 32, "width": 32, "channels": [4, 4, 4, 4]},
            "decoder": {"heads": [1, 1, 1, 1], "dim_head": 2, "num_classes": 2,
                        "mlp_expansion": 1},
        })
        pyr = build_pyramid(cfg)
        params = build_decoder_params(cfg)
        tape = Tape()
        trace = decode(pyr, params, tape)
        grads = backward(tape, sum_all(trace.mask))

        def loss_fn():
            return float(decode(pyr, params).mask.data.sum())

        picks = [
            "clb[0].mixer.wq.weight",
            "clb[3].mixer.wo.weight",
            "clb[1].lpm.dw3_kernel",
            "clb[2].ln1_gamma",
            "clb[2].mlp_fc1.weight",
            "fuse_mlp.weight",
        ]
        named = dict(flatten_params(params))
        for name in picks:
            arr = named[name]
            got = grads.get(trace.param_leaves[name].tid)
            analytic = got.data if got is not None else np.zeros_like(arr)
            assert max_rel_error(analytic, fd_gradient(loss_fn, arr)) < 1e-3, name


def bound_pairs(raw, bound):
    """(array, bound Tensor) for every parameter array of a bundle."""
    if isinstance(raw, np.ndarray):
        yield raw, bound
    elif dataclasses.is_dataclass(raw):
        for f in dataclasses.fields(raw):
            yield from bound_pairs(getattr(raw, f.name), getattr(bound, f.name))
    elif isinstance(raw, tuple):
        for r, b in zip(raw, bound, strict=True):
            yield from bound_pairs(r, b)


class TestBindOnce:
    """An untaped decode runs on params.bound, bound on first read and kept."""

    @staticmethod
    def written(params):
        params.fuse_mlp.bias[:] += 1.0
        params.clb[3].mixer.wv.weight[0, 0] += 0.25
        return params

    def test_an_in_place_write_reaches_the_next_decode(self):
        cfg = small_config()
        pyr = build_pyramid(cfg)
        params = build_decoder_params(cfg)
        first = decode(pyr, params).mask.data
        second = decode(pyr, self.written(params)).mask.data
        assert not np.array_equal(first, second)
        assert np.array_equal(second, decode(pyr, self.written(build_decoder_params(cfg))).mask.data)

    def test_a_copied_bundle_binds_its_own_arrays(self):
        cfg = small_config()
        pyr = build_pyramid(cfg)
        params = build_decoder_params(cfg)
        first = decode(pyr, params).mask.data
        want = decode(pyr, self.written(build_decoder_params(cfg))).mask.data
        assert np.array_equal(decode(pyr, self.written(copy.deepcopy(params))).mask.data, want)
        assert np.array_equal(decode(pyr, params).mask.data, first)

    def test_a_field_cannot_be_replaced(self):
        params = build_decoder_params(small_config())
        block = params.clb[0]
        assert isinstance(params.clb, tuple)
        for obj, name in [
            (params, "fuse_mlp"),
            (params.fuse_mlp, "weight"),
            (block, "ln1_gamma"),
            (block.lpm, "fc1"),
            (block.mixer, "wq"),
            (block.mixer, "scale"),
        ]:
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(obj, name, getattr(obj, name))

    def test_a_replaced_bundle_decodes_with_its_new_arrays(self):
        cfg = small_config()
        pyr = build_pyramid(cfg)
        params = build_decoder_params(cfg)
        first = decode(pyr, params).mask.data
        other = init_decoder_params(pyr.spec.channels, params.spec, 5)
        replaced = dataclasses.replace(params, clb=other.clb, fuse_mlp=other.fuse_mlp)
        got = decode(pyr, replaced).mask.data
        assert not np.array_equal(got, first)
        assert np.array_equal(got, decode(pyr, other).mask.data)
        assert np.array_equal(decode(pyr, params).mask.data, first)

    def test_a_second_decode_binds_nothing(self, monkeypatch):
        cfg = small_config()
        pyr = build_pyramid(cfg)
        params = build_decoder_params(cfg)
        calls = []
        walk = tensor_module._map_arrays

        def counting(*args):
            calls.append(args[-1])
            return walk(*args)

        monkeypatch.setattr(tensor_module, "_map_arrays", counting)
        decode(pyr, params)
        assert calls
        calls.clear()
        decode(pyr, params).attn
        assert calls == []
        decode(pyr, params, Tape())  # a taped decode binds leaves of its own tape
        assert calls

    def test_every_bound_tensor_views_its_array(self):
        params = build_decoder_params(resolve_config({}))
        pairs = list(bound_pairs(params, params.bound))
        assert len(pairs) == 122
        for arr, t in pairs:
            assert isinstance(t, Tensor) and t.tape is None
            assert np.shares_memory(t.data, arr) and t.shape == arr.shape
            assert not t.data.flags.writeable
        assert params.bound is params.bound

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    @pytest.mark.parametrize("taped", [False, True], ids=["untaped", "taped"])
    def test_an_array_that_is_not_float64_is_refused_by_name(self, dtype, taped):
        # Tensor would bind a float64 copy, which no in-place write reaches
        cfg = small_config()
        params = build_decoder_params(cfg)
        lpm = params.clb[1].lpm
        lpm = dataclasses.replace(lpm, dw3_kernel=lpm.dw3_kernel.astype(dtype))
        bad = dataclasses.replace(params, clb=(params.clb[0], dataclasses.replace(params.clb[1], lpm=lpm), *params.clb[2:]))
        with pytest.raises(TypeError, match=re.escape(f"'clb[1].lpm.dw3_kernel' is {np.dtype(dtype)}, not float64")):
            decode(build_pyramid(cfg), bad, Tape() if taped else None)


# ---------------------------------------------------------------------------
# Spec validation on the library path
# ---------------------------------------------------------------------------


class TestLazyAttentionMaps:
    def test_maps_are_built_on_first_read_only(self, monkeypatch):
        calls = []

        def counting(x):
            calls.append(x.shape)
            return softmax_lastdim(x)

        monkeypatch.setattr(attention_module, "softmax_lastdim", counting)
        # an untaped decode runs the blocked kernel at every qk width and
        # builds no map; the first read of trace.attn builds the four
        for mixer in MIXER_KINDS:
            calls.clear()
            cfg = resolve_config({"decoder": {"mixer": mixer}})
            trace = decode(build_pyramid(cfg), build_decoder_params(cfg))
            assert len(calls) == 0, mixer
            trace.attn
            assert len(calls) == 4, mixer
            trace.attn
            assert len(calls) == 4, mixer

    @pytest.mark.parametrize("size", ["small", "default"])
    @pytest.mark.parametrize("mixer", ["sca", "ca", "sa"])
    def test_fused_decode_is_bit_equal_to_the_chain(self, monkeypatch, mixer, size):
        # a taped decode runs the unfused chain, and one block of query rows
        # covers every query at these sizes. At full width the blocked
        # kernel runs the chain's steps and agrees bit for bit. At qk width
        # 1 these sizes keep the exact strip loop (4 keys a call), which has
        # the bits of the whole-array deferred formula, and the
        # normalization's rounding alone separates it from the chain.
        doc = {"decoder": {"mixer": mixer}}
        cfg = small_config(**doc) if size == "small" else resolve_config(doc)
        pyr = build_pyramid(cfg)
        params = build_decoder_params(cfg)
        fused = decode(pyr, params)
        reference = chain = decode(pyr, params, Tape())
        if mixer == "sca":
            for got, want in zip([fused.mask, *fused.decoded, *fused.mixed], [chain.mask, *chain.decoded, *chain.mixed]):
                assert np.abs(got.data - want.data).max() <= 1e-13 * np.abs(want.data).max()
            monkeypatch.setattr(
                attention_module,
                "blocked_attention",
                lambda q, k_t, v, scale: Tensor(deferred_strip_attention(q.data, k_t.data, v.data, scale)),
            )
            reference = decode(pyr, params)
        assert np.array_equal(fused.mask.data, reference.mask.data)
        for stage in range(4):
            assert np.array_equal(fused.decoded[stage].data, reference.decoded[stage].data)
            assert np.array_equal(fused.mixed[stage].data, reference.mixed[stage].data)

    def test_reading_maps_adds_no_tape_node(self):
        cfg = small_config()
        tape = Tape()
        trace = decode(build_pyramid(cfg), build_decoder_params(cfg), tape)
        nodes = len(tape.nodes)
        assert all(a.tape is None for a in trace.attn)
        assert len(tape.nodes) == nodes


def untaped_decode_peak(height, width, mixer):
    """tracemalloc peak, in bytes, of one untaped decode at the realistic widths."""
    cfg = resolve_config({
        "pyramid": {"height": height, "width": width, "channels": [32, 64, 160, 256]},
        "decoder": {"mixer": mixer, "heads": [1, 2, 5, 8], "dim_head": 32},
    })
    pyr = build_pyramid(cfg)
    params = build_decoder_params(cfg)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        decode(pyr, params)
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()


@pytest.mark.parametrize("mixer", ["sca", "ca"])
def test_untaped_decode_peak_memory(mixer):
    # 128x256. Resizing all 512 channels to the stage-1 grid before the fuse
    # projection and holding the four attention maps peaked at 27.0 MiB;
    # projecting first and dropping the maps, 9.9; with whole-array
    # layernorm and depthwise_conv scratch and every LPM intermediate held,
    # 6.57 (SCA) and 7.06 (CA); with blocked kernels and blocks that free
    # what they have read, 3.87 and 4.69.
    peak = untaped_decode_peak(128, 256, mixer)
    assert peak < 6 * 2**20, f"one untaped decode peaked at {peak / 2**20:.2f} MiB"


def test_untaped_realistic_256_decode_peak_memory():
    # 256x256. With the stage-1 MLP on all 4,096 tokens at once, three 4-MiB
    # hiddens alive in gelu and a padded copy per depthwise conv, it peaked
    # at 19.69 MiB; in 256-token MLP blocks with a pad-free forward conv,
    # 13.00; with blocked layernorm and depthwise_conv, 9.25; with clb and
    # the LPM freeing what they have read, 7.31.
    peak = untaped_decode_peak(256, 256, "sca")
    assert peak <= 9 * 2**20, f"one untaped decode peaked at {peak / 2**20:.2f} MiB"


def test_untaped_realistic_256_full_width_decode_peak_memory():
    # 256x256. The unfused chain held two 4,096 x 64 stage-1 maps (2 MiB
    # each) and peaked at 10.28 MiB; the blocked kernel, holding one block
    # of query rows, at 8.28.
    peak = untaped_decode_peak(256, 256, "ca")
    assert peak <= 9 * 2**20, f"one untaped decode peaked at {peak / 2**20:.2f} MiB"


@contextlib.contextmanager
def collector_disabled():
    """Collect what is already garbage, then keep the cyclic GC off."""
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("mixer", ["sca", "ca"])
def test_taped_decode_peak_memory(mixer):
    # 128x256 at the realistic widths, decode plus backward. With closures
    # holding input Tensors and backward keeping every intermediate gradient,
    # SCA peaked at 63.7 MiB and left 25.9 MiB that only the cyclic GC frees;
    # with each node owning only the arrays its backward reads, 37.6 and 0.1.
    cfg = resolve_config({
        "pyramid": {"height": 128, "width": 256, "channels": [32, 64, 160, 256]},
        "decoder": {"mixer": mixer, "heads": [1, 2, 5, 8], "dim_head": 32},
    })
    pyr = build_pyramid(cfg)
    params = build_decoder_params(cfg)
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        with collector_disabled():
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            tape = Tape()
            trace = decode(pyr, params, tape)
            grads = backward(tape, sum_all(trace.mask))
            peak = tracemalloc.get_traced_memory()[1] - before
            del tape, trace, grads
            left = tracemalloc.get_traced_memory()[0] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    assert peak < 48 * 2**20, f"one taped decode plus backward peaked at {peak / 2**20:.2f} MiB"
    assert left < 2**20, f"{left / 2**20:.2f} MiB still held after the op's objects were released"


class TestTapeOwnership:
    """Each node owns exactly the arrays its backward reads, so reference
    counting alone frees a taped decode, and backward returns leaves only."""

    @pytest.mark.parametrize("mixer", ["sca", "ca", "sa"])
    def test_closures_hold_no_tensor_and_leave_no_cycle(self, mixer):
        cfg = resolve_config({"decoder": {"mixer": mixer}})
        pyr = build_pyramid(cfg)
        params = build_decoder_params(cfg)
        with collector_disabled():
            tape = Tape()
            trace = decode(pyr, params, tape)
            backward(tape, sum_all(trace.mask))
            holders = self.tensor_holders(tape)
            del tape, trace
            cyclic = gc.collect()
        assert not holders, sorted(set(holders))
        assert cyclic == 0

    @staticmethod
    def tensor_holders(tape):
        """Qualified names of backward closures with a Tensor in a cell,
        directly or inside a tuple or list."""
        holders = []
        for node in tape.nodes:
            for cell in node.backward_fn.__closure__ or ():
                value = cell.cell_contents
                items = value if isinstance(value, (tuple, list)) else (value,)
                if any(isinstance(item, Tensor) for item in items):
                    holders.append(node.backward_fn.__qualname__)
        return holders

    @pytest.mark.parametrize("mixer,leaves,nodes", [("sca", 122, 215), ("sa", 114, 211)])
    def test_backward_returns_the_reached_leaves_only(self, mixer, leaves, nodes):
        # self-attention normalizes no key/value input, so its ln_kv leaves
        # are on the tape but unreachable from the loss
        cfg = resolve_config({"decoder": {"mixer": mixer}})
        tape = Tape()
        trace = decode(build_pyramid(cfg), build_decoder_params(cfg), tape)
        grads = backward(tape, sum_all(trace.mask))
        reached = {
            leaf.tid
            for name, leaf in trace.param_leaves.items()
            if mixer != "sa" or ".ln_kv_" not in name
        }
        assert set(grads) == reached
        assert len(grads) == leaves
        assert len(tape.nodes) == nodes


@pytest.mark.parametrize(
    "section,changes,field",
    [
        ("decoder", {"dim_head": 0}, "dim_head"),
        ("decoder", {"heads": (0, 1, 1, 1)}, "heads[0]"),
        ("decoder", {"heads": (1, 2, 4)}, "heads"),
        ("decoder", {"mlp_expansion": 0}, "mlp_expansion"),
        ("decoder", {"num_classes": 0}, "num_classes"),
        ("decoder", {"attn_scale": float("nan")}, "attn_scale"),
        ("decoder", {"init_std": -1}, "init_std"),
        ("decoder", {"layernorm_eps": -1}, "layernorm_eps"),
        ("decoder", {"mixer": "xx"}, "mixer"),
        ("pyramid", {"height": 0}, "height"),
        ("pyramid", {"height": 0, "width": 0}, "height"),
        ("pyramid", {"batch": 0}, "batch"),
    ],
    ids=[
        "dim_head-0",
        "heads-0",
        "heads-three",
        "mlp_expansion-0",
        "num_classes-0",
        "attn_scale-nan",
        "init_std-negative",
        "layernorm_eps-negative",
        "mixer-unknown",
        "height-0",
        "height-width-0",
        "batch-0",
    ],
)
def test_spec_rejects_invalid_setting_at_construction(section, changes, field):
    # Built without resolve_config, so the spec type itself must refuse.
    spec = getattr(resolve_config({}), section)
    with pytest.raises(ValueError) as err:
        dataclasses.replace(spec, **changes)
    assert str(err.value).startswith(f"{field}: ")
