"""Acceptance gate: the seven verification criteria the artifact must meet.

Each test prints one [PASS]/[FAIL] line (visible with pytest -s); stated
runtime budgets are asserted alongside the numeric tolerances.
"""

import time

import numpy as np
from conftest import op_gradcheck, rand_uniform

from stripseg.analysis import AttnConfig, bench_mixer, closed_form_flops, count_flops, decode_macs
from stripseg.attention import (
    init_mixer_params,
    oracle_attention,
    cross_attention,
    self_attention,
    strip_cross_attention,
)
from stripseg.config import build_decoder_params, build_pyramid, resolve_config, GRADCHECK_DEFAULTS
from stripseg.decoder import decode
from stripseg.gradcheck import decoder_gradcheck
from stripseg.scat import scat_bytes
from stripseg.synth import PyramidSpec, generate_pyramid, normal_array, substream
from stripseg.tensor import (
    LinearParams,
    Tensor,
    adaptive_avg_pool,
    add,
    bilinear_resize,
    bind_params,
    concat_lastdim,
    depthwise_conv,
    gelu,
    global_avg_pool,
    layernorm,
    linear,
    matmul,
    mul,
    relu,
    reshape,
    scalar_mul,
    scale_channels,
    sigmoid,
    softmax_lastdim,
    transpose,
)


def criterion(number, description):
    def decorate(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] criterion {number}: {description}")
                raise
            print(f"[PASS] criterion {number}: {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorate


@criterion(1, "counted attention MACs equal the closed forms, integer-exact")
def test_criterion_1_complexity_formula_equality():
    start = time.perf_counter()
    for n in (1, 4, 16, 64, 256):
        for c in (1, 8, 32, 128):
            cfg = AttnConfig(n_q=n, n_kv=n, c_q=c, c_kv=c, heads=1, dim_head=c)
            sa = count_flops("sa", cfg)
            assert sa.counted_attn_flops == 2 * n * n * c == sa.closed_form_attn_flops
            sca = count_flops("sca", cfg)
            assert sca.counted_attn_flops == n * n + n * n * c == sca.closed_form_attn_flops
    assert time.perf_counter() - start < 10.0


@criterion(2, "fast mixers match scalar-loop oracles within 1e-10 on 21 configs")
def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    cases = 0
    seed = 7000
    for heads in (1, 2, 4):
        for n_q, n_kv in ((1, 1), (2, 5), (7, 3), (16, 16), (9, 12), (3, 1), (1, 8)):
            stream = substream(seed, 29)
            xq = normal_array(stream, (1, n_q, 5))
            xkv = normal_array(stream, (1, n_kv, 7))
            sp = init_mixer_params("sca", 5, 7, heads, 3, stream)
            vp = init_mixer_params("ca", 5, 7, heads, 3, stream)
            ap = init_mixer_params("ca", 5, 5, heads, 3, stream)
            got = strip_cross_attention(Tensor(xq), Tensor(xkv), bind_params(sp, None)[0])
            assert np.abs(got.out.data - oracle_attention(xq, xkv, sp)).max() < 1e-10
            got = cross_attention(Tensor(xq), Tensor(xkv), bind_params(vp, None)[0])
            assert np.abs(got.out.data - oracle_attention(xq, xkv, vp)).max() < 1e-10
            got = self_attention(Tensor(xq), bind_params(ap, None)[0])
            assert np.abs(got.out.data - oracle_attention(xq, xq, ap)).max() < 1e-10
            cases += 1
            seed += 1
    assert cases == 21
    assert time.perf_counter() - start < 30.0


@criterion(3, "analytic gradients match central differences (kernels < 1e-4, decoder < 1e-3)")
def test_criterion_3_gradient_verification():
    start = time.perf_counter()
    kernel_cases = [
        (lambda a, b: matmul(a, b), [rand_uniform((3, 4), 1), rand_uniform((4, 5), 2)]),
        (softmax_lastdim, [rand_uniform((3, 6), 3)]),
        (
            lambda x, g, b: layernorm(x, g, b, 1e-6),
            [rand_uniform((2, 3, 5), 4), rand_uniform((5,), 5), rand_uniform((5,), 6)],
        ),
        (depthwise_conv, [rand_uniform((1, 2, 4, 4), 7), rand_uniform((2, 3, 3), 8), rand_uniform((2,), 9)]),
        (global_avg_pool, [rand_uniform((2, 3, 3, 4), 10)]),
        (lambda x: adaptive_avg_pool(x, 2, 2), [rand_uniform((1, 2, 4, 4), 11)]),
        (lambda x: bilinear_resize(x, 5, 7), [rand_uniform((1, 2, 3, 4), 12)]),
        (
            lambda x, w, b: linear(x, LinearParams(w, b)),
            [rand_uniform((2, 4), 13), rand_uniform((3, 4), 14), rand_uniform((3,), 15)],
        ),
        (relu, [rand_uniform((4, 4), 16)]),
        (gelu, [rand_uniform((4, 4), 17)]),
        (sigmoid, [rand_uniform((4, 4), 18)]),
        (add, [rand_uniform((3, 3), 19), rand_uniform((3, 3), 20)]),
        (mul, [rand_uniform((3, 3), 21), rand_uniform((3, 3), 22)]),
        (lambda x: scalar_mul(x, 2.5), [rand_uniform((3, 3), 23)]),
        (scale_channels, [rand_uniform((1, 3, 2, 2), 24), rand_uniform((1, 3), 25)]),
        (lambda a, b: concat_lastdim([a, b]), [rand_uniform((2, 3), 26), rand_uniform((2, 2), 27)]),
        (lambda x: reshape(x, (6, 2)), [rand_uniform((3, 4), 28)]),
        (lambda x: transpose(x, (1, 0)), [rand_uniform((3, 4), 29)]),
    ]
    for i, (build, arrays) in enumerate(kernel_cases):
        assert op_gradcheck(build, arrays, seed=3000 + i, step=1e-5) < 1e-4

    cfg = resolve_config({}, GRADCHECK_DEFAULTS)
    assert cfg.pyramid.height == 32 and cfg.pyramid.width == 32
    assert cfg.num_classes == 2
    report = decoder_gradcheck(build_pyramid(cfg), build_decoder_params(cfg), step=1e-5)
    worst = max(report.values())
    assert worst < 1e-3, f"worst decoder gradient error {worst}"
    assert time.perf_counter() - start < 120.0


@criterion(4, "structural identities: zero-init identity, stochastic rows, permutation/shift invariance")
def test_criterion_4_structural_identities():
    cfg = resolve_config(
        {
            "pyramid": {"height": 64, "width": 64, "channels": [4, 8, 8, 16]},
            "decoder": {"heads": [1, 1, 2, 2], "dim_head": 4, "num_classes": 3},
        }
    )
    pyramid = build_pyramid(cfg)
    trace = decode(pyramid, build_decoder_params(cfg, zero_residual=True))
    for stage in range(1, 5):
        assert np.array_equal(trace.decoded[stage - 1].data, pyramid.stage(stage))

    stream = substream(4000, 31)
    xq = normal_array(stream, (1, 6, 5))
    xkv = normal_array(stream, (1, 9, 7))
    sp = init_mixer_params("sca", 5, 7, 2, 3, stream)
    res = strip_cross_attention(Tensor(xq), Tensor(xkv), bind_params(sp, None)[0])
    assert np.abs(res.attn.data.sum(axis=-1) - 1.0).max() < 1e-10

    perm = [8, 2, 5, 0, 7, 1, 4, 6, 3]
    permuted = strip_cross_attention(Tensor(xq), Tensor(xkv[:, perm, :]), bind_params(sp, None)[0])
    assert np.abs(permuted.out.data - res.out.data).max() < 1e-10

    x = rand_uniform((4, 9), 4001)
    assert np.abs(softmax_lastdim(Tensor(x + 11.0)).data - softmax_lastdim(Tensor(x)).data).max() < 1e-10

    stream2 = substream(4000, 31)
    normal_array(stream2, (1, 6, 5))
    normal_array(stream2, (1, 9, 7))
    shifted = init_mixer_params("sca", 5, 7, 2, 3, stream2)
    shifted.wk.bias += 4.2
    res_shift = strip_cross_attention(Tensor(xq), Tensor(xkv), bind_params(shifted, None)[0])
    assert np.abs(res_shift.attn.data - res.attn.data).max() < 1e-10


@criterion(5, "mask shape [1,19,16,16] and byte-identical repeated runs")
def test_criterion_5_shape_and_determinism():
    cfg = resolve_config({})
    assert cfg.pyramid == PyramidSpec(height=64, width=64, channels=(8, 16, 32, 64), batch=1, seed=0)
    assert cfg.num_classes == 19
    pyramid = build_pyramid(cfg)
    params = build_decoder_params(cfg)
    a = decode(pyramid, params)
    b = decode(generate_pyramid(cfg.pyramid), build_decoder_params(cfg))
    assert a.mask.shape == (1, 19, 16, 16)
    assert scat_bytes(a.mask) == scat_bytes(b.mask)
    for stage in range(4):
        assert scat_bytes(a.decoded[stage]) == scat_bytes(b.decoded[stage])
        assert scat_bytes(a.mixed[stage]) == scat_bytes(b.mixed[stage])
        assert scat_bytes(a.attn[stage]) == scat_bytes(b.attn[stage])


@criterion(6, "strip attention is cheaper: closed form strict for C > 1, wall clock within 5%")
def test_criterion_6_efficiency_ordering():
    for n in (1, 4, 16, 64, 256):
        for c in (8, 32, 128):
            assert closed_form_flops("sca", n, n, c) < closed_form_flops("sa", n, n, c)
        assert closed_form_flops("sca", n, n, 1) == closed_form_flops("sa", n, n, 1)

    cfg = AttnConfig(n_q=1024, n_kv=1024, c_q=64, c_kv=64, heads=8, dim_head=8)
    ca = bench_mixer("ca", cfg, repeats=9, warmup=2)
    sca = bench_mixer("sca", cfg, repeats=9, warmup=2)
    ratio = sca.wall_ns_median / ca.wall_ns_median
    print(f"wall-clock sca/ca median ratio at N=1024, C=64, heads=8: {ratio:.3f}")
    assert sca.wall_ns_median <= ca.wall_ns_median * 1.05


@criterion(7, "every ablation axis runs; cross-layer cost strictly increases")
def test_criterion_7_ablation_executability():
    start = time.perf_counter()
    doc = {
        "pyramid": {"height": 64, "width": 64, "channels": [4, 8, 8, 16]},
        "decoder": {"heads": [1, 1, 2, 2], "dim_head": 4, "num_classes": 3},
    }

    # token-mixer rows: SA / CA / SCA without the local branch, then full SCA
    for mixer, lpm_on in (("sa", False), ("ca", False), ("sca", False), ("sca", True)):
        d = {k: dict(v) for k, v in doc.items()}
        d["decoder"].update({"mixer": mixer, "lpm_enabled": lpm_on})
        cfg = resolve_config(d)
        trace = decode(build_pyramid(cfg), build_decoder_params(cfg))
        assert trace.mask.shape == (1, 3, 16, 16)
        assert np.isfinite(trace.mask.data).all()

    # cross-layer enablement rows: stage 4 only, then widening toward stage 1
    previous = 0
    for enabled in (
        [False, False, False, True],
        [False, False, True, True],
        [False, True, True, True],
        [True, True, True, True],
    ):
        d = {k: dict(v) for k, v in doc.items()}
        d["decoder"]["cross_layer_enabled"] = enabled
        cfg = resolve_config(d)
        pyramid = build_pyramid(cfg)
        params = build_decoder_params(cfg)
        macs = decode_macs(pyramid, params)
        assert macs > previous
        previous = macs
    assert time.perf_counter() - start < 60.0
