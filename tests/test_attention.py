"""Token-mixer contracts: examples, oracle equivalence, invariants, gradients."""

import numpy as np
import pytest
from conftest import op_gradcheck

from stripseg.attention import (
    init_mixer_params,
    oracle_attention,
    cross_attention,
    self_attention,
    strip_cross_attention,
)
from stripseg.synth import normal_array, substream
from stripseg.tensor import Tensor, bind_params, linear

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


def _equivalence_cases():
    cases = []
    seed = 100
    for heads in (1, 2, 4):
        for n_q, n_kv in ((1, 1), (2, 5), (7, 3), (16, 16), (9, 12), (3, 1), (1, 8)):
            cases.append((seed, n_q, n_kv, heads))
            seed += 1
    return cases


class TestOracleEquivalence:
    @pytest.mark.parametrize("seed,n_q,n_kv,heads", _equivalence_cases())
    def test_strip_matches_oracle(self, seed, n_q, n_kv, heads):
        xq, xkv, p = make_case(seed, n_q, n_kv, 5, 7, heads, 3)
        res = strip_cross_attention(Tensor(xq), Tensor(xkv), bind_params(p, None)[0])
        assert np.abs(res.out.data - oracle_attention(xq, xkv, p)).max() < ORACLE_TOL

    @pytest.mark.parametrize("seed,n_q,n_kv,heads", _equivalence_cases())
    def test_vanilla_matches_oracle(self, seed, n_q, n_kv, heads):
        xq, xkv, p = make_case(seed + 500, n_q, n_kv, 5, 7, heads, 3, kind="vanilla")
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
        p.wk.bias += 2.5
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
