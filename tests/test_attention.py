"""Token-mixer contracts: examples, oracle equivalence, invariants, gradients."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from conftest import deferred_strip_attention, op_gradcheck

from stripseg.attention import (
    init_mixer_params,
    oracle_attention,
    cross_attention,
    self_attention,
    strip_cross_attention,
)
import stripseg.tensor as tensor_module
from stripseg.synth import normal_array, substream
from stripseg.tensor import (
    LinearParams,
    ShapeError,
    Tape,
    Tensor,
    bind_params,
    blocked_attention,
    count_macs,
    linear,
    matmul,
    scalar_mul,
    softmax_lastdim,
)

ORACLE_TOL = 1e-10


def make_case(seed, n_q, n_kv, c_q, c_kv, heads, dim_head, kind="sca"):
    stream = substream(seed, 23)
    xq = normal_array(stream, (1, n_q, c_q))
    xkv = normal_array(stream, (1, n_kv, c_kv))
    if kind == "sca":
        params = init_mixer_params("sca", c_q, c_kv, heads, dim_head, stream)
    else:
        params = init_mixer_params("ca", c_q, c_kv, heads, dim_head, stream)
    return xq, xkv, params


def run_linear(x, p):
    bound, _ = bind_params(p, None)
    return linear(Tensor(x), bound).data


class TestSelfAttention:
    def test_single_token_attends_itself(self):
        xq, _, p = make_case(0, 1, 1, 4, 4, 2, 3, kind="vanilla")
        res = self_attention(Tensor(xq), bind_params(p, None)[0])
        np.testing.assert_array_equal(res.attn.data, np.ones((1, 2, 1, 1)))
        expect = run_linear(run_linear(xq, p.wv), p.wo)
        np.testing.assert_array_equal(res.out.data, expect)

    def test_zero_values_give_zero_output(self):
        xq, _, p = make_case(1, 5, 5, 4, 4, 2, 3, kind="vanilla")
        p.wv.weight[:] = 0.0
        res = self_attention(Tensor(xq), bind_params(p, None)[0])
        np.testing.assert_array_equal(res.out.data, np.zeros((1, 5, 4)))

    def test_matches_oracle(self):
        xq, _, p = make_case(2, 3, 3, 4, 4, 2, 3, kind="vanilla")
        res = self_attention(Tensor(xq), bind_params(p, None)[0])
        assert np.abs(res.out.data - oracle_attention(xq, xq, p)).max() < ORACLE_TOL


class TestCrossAttention:
    def test_degenerate_cross_equals_self(self):
        xq, _, p = make_case(3, 4, 4, 6, 6, 2, 3, kind="vanilla")
        bound, _ = bind_params(p, None)
        a = self_attention(Tensor(xq), bound)
        b = cross_attention(Tensor(xq), Tensor(xq), bound)
        np.testing.assert_allclose(a.out.data, b.out.data, atol=1e-12)

    def test_single_key_gets_weight_one(self):
        xq, xkv, p = make_case(4, 6, 1, 4, 7, 2, 3, kind="vanilla")
        res = cross_attention(Tensor(xq), Tensor(xkv), bind_params(p, None)[0])
        np.testing.assert_array_equal(res.attn.data, np.ones((1, 2, 6, 1)))

    def test_matches_oracle(self):
        xq, xkv, p = make_case(5, 2, 5, 4, 6, 2, 3, kind="vanilla")
        res = cross_attention(Tensor(xq), Tensor(xkv), bind_params(p, None)[0])
        assert np.abs(res.out.data - oracle_attention(xq, xkv, p)).max() < ORACLE_TOL

    @pytest.mark.parametrize(
        "change,match",
        [
            ({"heads": 0}, "heads: must be >= 1, got 0"),
            ({"wq": 5}, "wq: 5 rows are not a positive multiple of 2 heads"),
            ({"wq": 1}, "wq: 1 rows are not a positive multiple of 2 heads"),
            ({"wk": 6}, "wk: 6 rows, but wq has 4"),
            ({"wv": 6}, r"wv: 6 rows, not heads \* dim_head = 2 \* 2"),
        ],
        ids=["no-heads", "wq-not-a-multiple", "wq-under-heads", "wk-unlike-wq", "wv-not-heads-x-dim-head"],
    )
    def test_projections_that_do_not_split_over_heads_are_refused(self, change, match):
        # a hand-built AttnParams is checked before any projection runs; a
        # changed projection keeps C = 3 inputs and takes the given rows
        xq, xkv, p = make_case(6, 2, 3, 3, 3, 2, 2, kind="vanilla")
        fields = {k: v if k == "heads" else LinearParams(np.zeros((v, 3)), np.zeros(v)) for k, v in change.items()}
        bound, _ = bind_params(dataclasses.replace(p, **fields), None)
        with pytest.raises(ShapeError, match=match):
            cross_attention(Tensor(xq), Tensor(xkv), bound)


class TestStripCrossAttention:
    def test_single_key_broadcasts_value(self):
        xq, xkv, p = make_case(6, 5, 1, 4, 7, 2, 3)
        res = strip_cross_attention(Tensor(xq), Tensor(xkv), bind_params(p, None)[0])
        np.testing.assert_array_equal(res.attn.data, np.ones((1, 2, 5, 1)))
        expect_row = run_linear(run_linear(xkv, p.wv), p.wo)[0, 0]
        for n in range(5):
            np.testing.assert_allclose(res.out.data[0, n], expect_row, atol=1e-15)

    def test_zero_query_strips_give_uniform_rows(self):
        xq, xkv, p = make_case(7, 4, 6, 4, 7, 2, 3)
        p.wq.weight[:] = 0.0
        res = strip_cross_attention(Tensor(xq), Tensor(xkv), bind_params(p, None)[0])
        np.testing.assert_allclose(res.attn.data, np.full((1, 2, 4, 6), 1.0 / 6.0), atol=1e-15)
        for n in range(1, 4):
            np.testing.assert_allclose(res.out.data[0, n], res.out.data[0, 0], atol=1e-15)

    def test_matches_oracle(self):
        xq, xkv, p = make_case(8, 4, 6, 5, 8, 2, 3)
        res = strip_cross_attention(Tensor(xq), Tensor(xkv), bind_params(p, None)[0])
        assert np.abs(res.out.data - oracle_attention(xq, xkv, p)).max() < ORACLE_TOL


def fused_case(seed, n_q, n_kv, heads, scale, batch=2, c_q=5, c_kv=7, dim_head=3, kind="sca"):
    # std 0.5 spreads the logits over a few units, so the rows are far from
    # uniform
    stream = substream(seed, 23)
    xq = normal_array(stream, (batch, n_q, c_q))
    xkv = normal_array(stream, (batch, n_kv, c_kv))
    p = init_mixer_params(kind, c_q, c_kv, heads, dim_head, stream, std=0.5, scale=scale)
    return xq, xkv, p


def kernel_operands(seed, qk, n_q=64, n_kv=16, heads=3, d=3, batch=2):
    """q, k_t and v arrays for tensor.blocked_attention; spread 2 keeps the
    logits of both signs over several units."""
    stream = substream(seed, 23)
    return (
        2.0 * normal_array(stream, (batch, heads, n_q, qk)),
        2.0 * normal_array(stream, (batch, heads, qk, n_kv)),
        normal_array(stream, (batch, heads, n_kv, d)),
    )


def unfused_chain(q, k_t, v, scale):
    return matmul(softmax_lastdim(scalar_mul(matmul(q, k_t), scale)), v)


WIDTHS = ("sca", "ca")


class TestFusedStripAttention:
    """tensor.blocked_attention, which every untaped mixer call asked for no
    map runs, at qk width 1 (strip) and at full width (ca)."""

    @pytest.mark.parametrize("scale", [1.0, 0.37])
    def test_matches_oracle(self, scale):
        for kind in WIDTHS:
            xq, xkv, p = fused_case(60, 9, 6, 3, scale, kind=kind)
            q = run_linear(xq, p.wq)
            assert (q > 0).any() and (q < 0).any()
            res = cross_attention(Tensor(xq), Tensor(xkv), bind_params(p, None)[0], with_map=False)
            assert res.attn is None
            np.testing.assert_allclose(res.out.data, oracle_attention(xq, xkv, p), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("block", [10, 3], ids=["2-rows", "1-row"])
    @pytest.mark.parametrize("scale", [1.0, 0.37])
    def test_several_blocks_and_a_ragged_last_one(self, monkeypatch, block, scale):
        # 7 queries over 5 keys: blocks of 2 rows (the last one holds 1) or 1
        monkeypatch.setattr(tensor_module, "BLOCK_VALUES", block)
        for kind in WIDTHS:
            xq, xkv, p = fused_case(61, 7, 5, 3, scale, kind=kind)
            bound = bind_params(p, None)[0]
            fused = cross_attention(Tensor(xq), Tensor(xkv), bound, with_map=False)
            chain = cross_attention(Tensor(xq), Tensor(xkv), bound)
            assert fused.attn is None
            np.testing.assert_allclose(fused.out.data, chain.out.data, rtol=0, atol=1e-12)
            np.testing.assert_allclose(fused.out.data, oracle_attention(xq, xkv, p), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("scale", [1.0, 0.37])
    def test_one_block_is_bit_equal_to_the_chain(self, scale):
        # one block of rows covers all 64 queries. At full width the kernel
        # runs the chain's own steps, so it has the chain's bits. At qk width
        # 1 it has the bits of the whole-array deferred formula, whose row
        # max is the chain's bit for bit, and only the normalization's
        # rounding separates it from the chain.
        strip = kernel_operands(62, 1)
        args = [Tensor(a) for a in strip]
        fused = blocked_attention(*args, scale).data
        assert np.array_equal(fused, deferred_strip_attention(*strip, scale))
        chain = unfused_chain(*args, scale).data
        assert np.abs(fused - chain).max() <= 1e-13 * np.abs(chain).max()
        args = [Tensor(a) for a in kernel_operands(62, 4)]
        assert np.array_equal(blocked_attention(*args, scale).data, unfused_chain(*args, scale).data)

    def test_logits_near_700_stay_finite(self):
        # logits reach about +-700 with either sign of q, where an exp
        # without the row max overflows; at full width each is one product
        # as well, q padded with a zero column
        q = np.array([26.5, -26.5, 1.0, -0.5, 0.0, 26.4])[None, None, :, None] * np.ones((2, 1, 1, 1))
        k_t = np.linspace(-26.4, 26.4, 9)[None, None, None, :] * np.ones((2, 1, 1, 1))
        v = normal_array(substream(66, 23), (2, 1, 9, 4))
        q2 = np.concatenate((q, np.zeros_like(q)), axis=-1)
        k2 = np.concatenate((k_t, normal_array(substream(67, 23), k_t.shape)), axis=-2)
        for scale in (1.0, 0.999):
            for operands in ((q, k_t, v), (q2, k2, v)):
                args = [Tensor(a) for a in operands]
                fused = blocked_attention(*args, scale).data
                assert np.isfinite(fused).all()
                np.testing.assert_allclose(fused, unfused_chain(*args, scale).data, rtol=0, atol=1e-12)

    def test_zero_and_negative_zero_queries_give_uniform_rows(self):
        # q * k is +0 or -0 for q = +-0; either way the row shift is a zero,
        # every weight exp(+-0) = 1, and the row mixes the values' mean
        q = np.array([0.0, -0.0, 1.5, -2.0])[None, None, :, None] * np.ones((2, 3, 1, 1))
        _, k_t, v = kernel_operands(68, 1, n_q=4, n_kv=7)
        args = [Tensor(a) for a in (q, k_t, v)]
        fused = blocked_attention(*args, 0.37).data
        assert np.array_equal(fused[:, :, 0], fused[:, :, 1])
        np.testing.assert_allclose(fused[:, :, 0], v.mean(axis=-2), rtol=0, atol=1e-15)
        np.testing.assert_allclose(fused, unfused_chain(*args, 0.37).data, rtol=0, atol=1e-14)

    def test_tallies_equal_the_chain(self):
        for kind in WIDTHS:
            xq, xkv, p = fused_case(63, 12, 7, 3, 0.37, kind=kind)
            bound = bind_params(p, None)[0]
            counters = []
            for with_map in (True, False):
                with count_macs() as mc:
                    cross_attention(Tensor(xq), Tensor(xkv), bound, with_map=with_map)
                counters.append(mc)
            chain, fused = counters
            assert fused.by_region == chain.by_region
            assert fused.peak_elems == chain.peak_elems
            assert fused.peak_by_region == chain.peak_by_region

    def test_a_tape_keeps_the_chain(self):
        for kind in WIDTHS:
            xq, xkv, p = fused_case(64, 4, 3, 2, 1.0, kind=kind)
            tape = Tape()
            bound = bind_params(p, tape)[0]
            res = cross_attention(Tensor(xq), Tensor(xkv), bound, with_map=False)
            assert res.attn is not None and res.out.tape is tape
        q, k_t, v = (tape.leaf(np.ones(s)) for s in ((1, 1, 2, 1), (1, 1, 1, 3), (1, 1, 3, 2)))
        with pytest.raises(ValueError, match="no backward"):
            blocked_attention(q, k_t, v, 1.0)

    @pytest.mark.parametrize(
        "shapes",
        [((1, 1, 2, 2), (1, 1, 3, 3), (1, 1, 3, 2)), ((1, 1, 2, 1), (1, 2, 1, 3), (1, 1, 3, 2)),
         ((1, 1, 2, 1), (1, 1, 1, 3), (1, 1, 4, 2)), ((1, 1, 2, 1), (1, 1, 1, 0), (1, 1, 0, 2))],
        ids=["qk-widths", "heads", "values", "no-keys"],
    )
    def test_rejects_operands_it_cannot_mix(self, shapes):
        with pytest.raises(ShapeError):
            blocked_attention(*(Tensor(np.zeros(s)) for s in shapes), 1.0)

    def test_accepts_full_width_operands(self):
        args = [Tensor(normal_array(substream(69, 23), s)) for s in ((1, 1, 2, 2), (1, 1, 2, 3), (1, 1, 3, 2))]
        assert np.array_equal(blocked_attention(*args, 0.5).data, unfused_chain(*args, 0.5).data)

    def test_peak_memory_holds_no_map(self):
        # 4096 queries over 512 keys: one map is 16 MiB; the map-returning
        # call holds two at once (never a third, even at scale 1.0, where
        # the scaled logits are a copy), the blocked kernel one block of
        # rows, at qk width 1 and at full width (32)
        peaks = {}
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            for kind in WIDTHS:
                xq, xkv, p = fused_case(65, 4096, 512, 1, 1.0, batch=1, c_q=32, c_kv=32, dim_head=32, kind=kind)
                args = (Tensor(xq), Tensor(xkv), bind_params(p, None)[0])
                for with_map in (False, True):
                    tracemalloc.reset_peak()
                    before = tracemalloc.get_traced_memory()[0]
                    cross_attention(*args, with_map=with_map)
                    peaks[kind, with_map] = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        for kind in WIDTHS:
            free, held = peaks[kind, False], peaks[kind, True]
            assert free < 8 * 2**20, f"{kind} map-free call peaked at {free / 2**20:.2f} MiB"
            assert 32 * 2**20 < held < 40 * 2**20, f"{kind} map call peaked at {held / 2**20:.2f} MiB"


def _equivalence_cases():
    cases = []
    seed = 100
    for heads in (1, 2, 4):
        for n_q, n_kv in ((1, 1), (2, 5), (7, 3), (16, 16), (9, 12), (3, 1), (1, 8)):
            cases.append(pytest.param(seed, n_q, n_kv, heads, 5, 7, 3, id=f"{seed}-{n_q}-{n_kv}-{heads}"))
            seed += 1
    # other widths: dim_head 2 to 5 at C_q 6, C_kv 9
    for n_q, n_kv, heads, dim_head in ((3, 5, 1, 4), (1, 6, 2, 3), (7, 7, 4, 2), (4, 2, 2, 5)):
        case_id = f"{seed}-{n_q}-{n_kv}-{heads}-d{dim_head}"
        cases.append(pytest.param(seed, n_q, n_kv, heads, 6, 9, dim_head, id=case_id))
        seed += 1
    return cases


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed,n_q,n_kv,heads,c_q,c_kv,dim_head", _equivalence_cases())
    def test_strip_matches_oracle(self, seed, n_q, n_kv, heads, c_q, c_kv, dim_head):
        xq, xkv, p = make_case(seed, n_q, n_kv, c_q, c_kv, heads, dim_head)
        res = strip_cross_attention(Tensor(xq), Tensor(xkv), bind_params(p, None)[0])
        assert np.abs(res.out.data - oracle_attention(xq, xkv, p)).max() < ORACLE_TOL

    @pytest.mark.parametrize("seed,n_q,n_kv,heads,c_q,c_kv,dim_head", _equivalence_cases())
    def test_vanilla_matches_oracle(self, seed, n_q, n_kv, heads, c_q, c_kv, dim_head):
        xq, xkv, p = make_case(seed + 500, n_q, n_kv, c_q, c_kv, heads, dim_head, kind="vanilla")
        res = cross_attention(Tensor(xq), Tensor(xkv), bind_params(p, None)[0])
        assert np.abs(res.out.data - oracle_attention(xq, xkv, p)).max() < ORACLE_TOL

    def test_oracle_single_token_closed_form(self):
        xq, xkv, p = make_case(990, 1, 1, 4, 6, 2, 3)
        expect = run_linear(run_linear(xkv, p.wv), p.wo)
        np.testing.assert_allclose(oracle_attention(xq, xkv, p), expect, atol=1e-12)

    def test_oracle_key_permutation_invariance(self):
        xq, xkv, p = make_case(991, 3, 6, 4, 6, 2, 3)
        perm = [4, 0, 5, 2, 1, 3]
        base = oracle_attention(xq, xkv, p)
        permuted = oracle_attention(xq, xkv[:, perm, :], p)
        np.testing.assert_allclose(base, permuted, atol=1e-12)


class TestInvariants:
    @pytest.mark.parametrize("kind", ["sa", "ca", "sca"])
    def test_rows_are_stochastic(self, kind):
        xq, xkv, p = make_case(30, 5, 7, 4, 6, 2, 3, kind="sca" if kind == "sca" else "vanilla")
        bound, _ = bind_params(p, None)
        if kind == "sa":
            res = self_attention(Tensor(xq), bind_params(init_mixer_params("ca", 4, 4, 2, 3, substream(31, 23)), None)[0])
        elif kind == "ca":
            res = cross_attention(Tensor(xq), Tensor(xkv), bound)
        else:
            res = strip_cross_attention(Tensor(xq), Tensor(xkv), bound)
        np.testing.assert_allclose(res.attn.data.sum(axis=-1), 1.0, atol=1e-10)

    @pytest.mark.parametrize("kind", ["ca", "sca"])
    def test_key_permutation_invariance(self, kind):
        xq, xkv, p = make_case(32, 4, 8, 5, 6, 2, 3, kind="sca" if kind == "sca" else "vanilla")
        bound, _ = bind_params(p, None)
        run = strip_cross_attention if kind == "sca" else cross_attention
        base = run(Tensor(xq), Tensor(xkv), bound).out.data
        perm = [5, 2, 7, 1, 4, 0, 6, 3]
        permuted = run(Tensor(xq), Tensor(xkv[:, perm, :]), bound).out.data
        np.testing.assert_allclose(base, permuted, atol=1e-10)

    @pytest.mark.parametrize("kind", ["ca", "sca"])
    def test_query_permutation_equivariance(self, kind):
        xq, xkv, p = make_case(33, 6, 5, 5, 6, 2, 3, kind="sca" if kind == "sca" else "vanilla")
        bound, _ = bind_params(p, None)
        run = strip_cross_attention if kind == "sca" else cross_attention
        base = run(Tensor(xq), Tensor(xkv), bound).out.data
        perm = [3, 1, 5, 0, 4, 2]
        permuted = run(Tensor(xq[:, perm, :]), Tensor(xkv), bound).out.data
        np.testing.assert_allclose(base[:, perm, :], permuted, atol=1e-10)

    def test_key_strip_shift_leaves_attention_unchanged(self):
        # a constant added to every key strip lands uniformly on each softmax
        # row (the shift enters scores as c * q_n), so attention is unmoved;
        # this is the degrees-of-freedom reduction of strip compression
        xq, xkv, p = make_case(34, 5, 7, 4, 6, 2, 3)
        base = strip_cross_attention(Tensor(xq), Tensor(xkv), bind_params(p, None)[0])
        p.wk.bias[:] += 2.5  # in place: the parameter dataclasses are frozen
        shifted = strip_cross_attention(Tensor(xq), Tensor(xkv), bind_params(p, None)[0])
        np.testing.assert_allclose(base.attn.data, shifted.attn.data, atol=1e-10)

    def test_score_scale_shift_via_logits(self):
        # softmax itself is shift-invariant in the scores
        xq, xkv, p = make_case(35, 3, 4, 4, 6, 1, 3)
        bound, _ = bind_params(p, None)
        base = strip_cross_attention(Tensor(xq), Tensor(xkv), bound).attn.data
        assert np.abs(base.sum(axis=-1) - 1).max() < 1e-12


class TestAttentionGradients:
    def test_strip_gradients(self):
        stream = substream(40, 23)
        xq = normal_array(stream, (1, 3, 4))
        xkv = normal_array(stream, (1, 5, 6))
        p = init_mixer_params("sca", 4, 6, 2, 3, stream)

        def build(xq_t, xkv_t, wq_w, wq_b, wk_w, wk_b, wv_w, wv_b, wo_w, wo_b):
            q = type(p)(
                wq=type(p.wq)(wq_w, wq_b),
                wk=type(p.wq)(wk_w, wk_b),
                wv=type(p.wq)(wv_w, wv_b),
                wo=type(p.wq)(wo_w, wo_b),
                heads=p.heads,
                dim_head=p.dim_head,
                scale=p.scale,
            )
            return strip_cross_attention(xq_t, xkv_t, q).out

        arrays = [xq, xkv, p.wq.weight, p.wq.bias, p.wk.weight, p.wk.bias,
                  p.wv.weight, p.wv.bias, p.wo.weight, p.wo.bias]
        assert op_gradcheck(build, arrays, seed=40) < 1e-4

    def test_vanilla_gradients(self):
        stream = substream(41, 23)
        xq = normal_array(stream, (1, 3, 4))
        xkv = normal_array(stream, (1, 4, 5))
        p = init_mixer_params("ca", 4, 5, 2, 2, stream)

        def build(xq_t, xkv_t, wq_w, wq_b, wk_w, wk_b, wv_w, wv_b, wo_w, wo_b):
            q = type(p)(
                wq=type(p.wq)(wq_w, wq_b),
                wk=type(p.wq)(wk_w, wk_b),
                wv=type(p.wq)(wv_w, wv_b),
                wo=type(p.wq)(wo_w, wo_b),
                heads=p.heads,
                dim_head=p.dim_head,
                scale=p.scale,
            )
            return cross_attention(xq_t, xkv_t, q).out

        arrays = [xq, xkv, p.wq.weight, p.wq.bias, p.wk.weight, p.wk.bias,
                  p.wv.weight, p.wv.bias, p.wo.weight, p.wo.bias]
        assert op_gradcheck(build, arrays, seed=41) < 1e-4
