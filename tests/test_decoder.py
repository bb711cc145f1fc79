"""Decoder contracts: mixed key/value construction, LPM, block, full decode."""

import dataclasses
import math

import numpy as np
import pytest
from conftest import rand_normal
from scipy.special import erf

from stripseg.attention import oracle_attention
from stripseg.config import build_decoder_params, build_pyramid, resolve_config
from stripseg.decoder import build_mixed_kv, clb, decode, init_decoder_params, lpm
from stripseg.gradcheck import fd_gradient, max_rel_error
from stripseg.synth import PyramidSpec, generate_pyramid
from stripseg.tensor import ShapeError, Tape, Tensor, backward, bind_params, flatten_params, sum_all


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


class TestBuildMixedKv:
    def test_stage4_uses_only_pooled_features(self):
        spec = PyramidSpec(height=64, width=64, channels=(8, 16, 32, 64), seed=0)
        pyr = generate_pyramid(spec)
        feats = [Tensor(f) for f in pyr.features]
        m = build_mixed_kv(feats, {}, 4)
        assert m.shape == (1, 4, 120)

    def test_channel_extent_is_sum_at_every_stage(self):
        spec = PyramidSpec(height=64, width=64, channels=(8, 16, 32, 64), seed=1)
        pyr = generate_pyramid(spec)
        feats = [Tensor(f) for f in pyr.features]
        decoded = {s: Tensor(rand_normal(pyr.stage(s).shape, seed=s)) for s in (2, 3, 4)}
        for stage in (1, 2, 3, 4):
            m = build_mixed_kv(feats, decoded, stage)
            assert m.shape == (1, 4, 120)

    def test_constant_stages_give_constant_tokens(self):
        spec = PyramidSpec(height=64, width=64, channels=(2, 3, 4, 5), seed=2)
        consts = [1.5, -2.0, 0.25, 4.0]
        feats = [
            Tensor(np.full(spec.stage_shape(s), consts[s - 1])) for s in range(1, 5)
        ]
        m = build_mixed_kv(feats, {}, 4).data
        expect = np.concatenate([np.full(c, v) for c, v in zip(spec.channels, consts)])
        for token in range(m.shape[1]):
            np.testing.assert_allclose(m[0, token], expect, atol=1e-12)

    def test_missing_decoded_stage_is_an_error(self):
        spec = PyramidSpec(height=64, width=64, channels=(2, 2, 2, 2), seed=3)
        pyr = generate_pyramid(spec)
        feats = [Tensor(f) for f in pyr.features]
        with pytest.raises(ValueError):
            build_mixed_kv(feats, {}, 2)


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
        out, _ = clb(Tensor(f), Tensor(m), 8, 8, bound, "sca", True)
        np.testing.assert_array_equal(out.data, f)

    def test_self_attention_mixer_ignores_kv(self):
        params = init_decoder_params(
            (4, 4, 4, 4), decoder_spec(heads=[1, 1, 1, 1], dim_head=2, num_classes=2, mixer="sa"), 11,
        )
        bound, _ = bind_params(params.clb[0], None)
        f = rand_normal((1, 8, 4), seed=12)
        m1 = rand_normal((1, 4, 16), seed=13)
        m2 = rand_normal((1, 4, 16), seed=14)
        out1, _ = clb(Tensor(f), Tensor(m1), 2, 4, bound, "sa", True)
        out2, _ = clb(Tensor(f), Tensor(m2), 2, 4, bound, "sa", True)
        np.testing.assert_array_equal(out1.data, out2.data)

    def test_matches_composed_oracle(self):
        params = init_decoder_params(
            (4, 4, 4, 4), decoder_spec(heads=[2, 1, 1, 1], dim_head=3, num_classes=2), 15,
        )
        block = params.clb[0]
        bound, _ = bind_params(block, None)
        f = rand_normal((1, 8, 4), seed=16)
        m = rand_normal((1, 4, 16), seed=17)
        out, _ = clb(Tensor(f), Tensor(m), 2, 4, bound, "sca", True)
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
        out_disabled, _ = clb(Tensor(f), Tensor(m), 2, 4, bound, "sca", False)
        assert np.isfinite(out_disabled.data).all()


# ---------------------------------------------------------------------------
# Full decode
# ---------------------------------------------------------------------------


class TestDecode:
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


# ---------------------------------------------------------------------------
# Spec validation on the library path
# ---------------------------------------------------------------------------


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
