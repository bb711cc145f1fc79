"""Strip attention from per-bin moments: blocked_attention's qk-width-1 path.

Each case runs the kernel with its moments path forced, and again with its
exact strip loop forced, by standing in for the private helper
tensor._moments_pay that picks between them; it checks both against
attention.oracle_attention, a scalar loop, and against each other. The
dispatch tests spy on tensor._strip_moments to see which path a call took.

The bound: the two paths and the oracle agree within BOUND = 1e-13 of the
reference output's largest magnitude. The expansion drops at most
(1/2)^14 / 14! = 7.0e-16 of each row's weights, and every other error is a
few roundings of sums of positive weights; the cases below measured 2e-16
to 1.7e-15 (the largest at 117 bins), +-700 logits included.
"""

import contextlib
import hashlib
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

import stripseg.attention as attention_module
import stripseg.tensor as tensor_module
from stripseg.attention import AttnParams, oracle_attention
from stripseg.config import build_decoder_params, build_pyramid, resolve_config
from stripseg.decoder import decode
from stripseg.scat import scat_bytes
from stripseg.synth import normal_array, substream
from stripseg.tensor import LinearParams, Tensor, blocked_attention, count_macs, matmul, scalar_mul, softmax_lastdim

BOUND = 1e-13
P = tensor_module._MOMENTS


def operands(seed, n_q, n_kv, heads=2, d=4, batch=1, tau=1.5):
    """q, k_t and v for blocked_attention at qk width 1; q is scaled so that
    the queries' tau = q * r fills about [-tau, tau] at scale 1."""
    stream = substream(seed, 31)
    q = normal_array(stream, (batch, heads, n_q, 1))
    k_t = normal_array(stream, (batch, heads, 1, n_kv))
    v = normal_array(stream, (batch, heads, n_kv, d))
    r = (k_t.max(axis=-1, keepdims=True) - k_t.min(axis=-1, keepdims=True)) / 2
    q *= tau / (np.abs(q).max(axis=-2, keepdims=True) * np.where(r > 0, r, 1.0))
    return q, k_t, v


@contextlib.contextmanager
def forced(moments):
    """blocked_attention with its moments path (True) or exact loop (False) forced."""
    real = tensor_module._moments_pay
    tensor_module._moments_pay = lambda *args: moments
    try:
        yield
    finally:
        tensor_module._moments_pay = real


def run(q, k_t, v, scale, moments=None):
    """blocked_attention's output; with moments True or False, that path forced."""
    with forced(moments) if moments is not None else contextlib.nullcontext():
        return blocked_attention(Tensor(q), Tensor(k_t), Tensor(v), scale).data


def chain(q, k_t, v, scale):
    """The unfused chain, the reference blocked_attention tallies as."""
    args = [Tensor(a) for a in (q, k_t, v)]
    return matmul(softmax_lastdim(scalar_mul(matmul(args[0], args[1]), scale)), args[2]).data


def oracle(q, k_t, v, scale):
    """attention.oracle_attention on q, k_t and v: identity projections
    carry head h's query and key strips in channel h and its values in
    channels [h*d, (h+1)*d), so the oracle's scalar loops run the kernel's
    attention and nothing else (a projection by one and zeros is exact)."""
    b, h, n_q, _ = q.shape
    n_kv, d = v.shape[-2:]
    xq = q[..., 0].transpose(0, 2, 1)
    xkv = np.concatenate((k_t[:, :, 0].transpose(0, 2, 1), v.transpose(0, 2, 1, 3).reshape(b, n_kv, h * d)), axis=-1)
    pick = np.eye(h + h * d)

    def proj(rows):
        return LinearParams(pick[rows], np.zeros(len(pick[rows])))

    p = AttnParams(
        wq=LinearParams(np.eye(h), np.zeros(h)),
        wk=proj(slice(0, h)),
        wv=proj(slice(h, None)),
        wo=LinearParams(np.eye(h * d), np.zeros(h * d)),
        heads=h,
        dim_head=d,
        scale=scale,
    )
    return oracle_attention(xq, xkv, p).reshape(b, n_q, h, d).transpose(0, 2, 1, 3)


def assert_paths_agree(q, k_t, v, scale, with_oracle=True):
    moments = run(q, k_t, v, scale, moments=True)
    exact = run(q, k_t, v, scale, moments=False)
    refs = [("exact", exact)] + ([("oracle", oracle(q, k_t, v, scale))] if with_oracle else [])
    for name, ref in refs:
        dev = np.abs(moments - ref).max() / np.abs(ref).max()
        assert dev <= BOUND, f"moments path is {dev:.2e} of max|out| from the {name}"
    if with_oracle:
        ref = refs[1][1]
        assert np.abs(exact - ref).max() <= BOUND * np.abs(ref).max()
    return moments


class TestMomentsAgainstOracle:
    @pytest.mark.parametrize("scale", [1.0, 0.37])
    @pytest.mark.parametrize("tau", [1e-9, 0.4, 1.5, 3.7], ids=["tiny", "one-bin", "three-bins", "eight-bins"])
    def test_realistic_and_tiny_spreads(self, scale, tau):
        # a fwd-realistic head's tau lies within [-2, 2]: one to five bins
        q, k_t, v = operands(1, 40, 24, tau=tau / scale)
        assert_paths_agree(q, k_t, v, scale)

    def test_keys_all_equal_mix_the_values_mean(self):
        # r = 0, taken by name: every logit of a row is the same product
        q, k_t, v = operands(2, 12, 9, heads=3)
        k_t[:, 1] = -0.75
        moments = assert_paths_agree(q, k_t, v, 0.5)
        np.testing.assert_array_equal(moments[:, 1], np.broadcast_to(v[:, 1].mean(axis=-2, keepdims=True), (1, 12, 4)))

    def test_one_key_broadcasts_its_value(self):
        q, k_t, v = operands(12, 9, 1)
        moments = assert_paths_agree(q, k_t, v, 1.0)
        np.testing.assert_array_equal(moments, np.broadcast_to(v, moments.shape))

    def test_keys_a_few_ulps_apart(self):
        q, k_t, v = operands(3, 16, 8)
        k_t[:] = 0.3 + np.arange(8) * math.ulp(0.3)
        assert_paths_agree(q, k_t, v, 1.0)

    def test_a_bin_holding_one_query(self):
        # all queries in bin 0 but two, each alone in its bin: one at 5.2,
        # one on the edge of bins 2 and 3
        q, k_t, v = operands(4, 30, 20, heads=1, tau=0.45)
        r = (k_t.max() - k_t.min()) / 2
        q[0, 0, 7, 0] = 5.2 / r
        q[0, 0, 11, 0] = 2.5 / r
        assert np.unique(np.rint(q * r), return_counts=True)[1].tolist() == [28, 1, 1]
        assert_paths_agree(q, k_t, v, 1.0)

    def test_signed_zero_queries_give_equal_uniform_rows(self):
        q, k_t, v = operands(5, 6, 11, heads=2)
        q[..., :2, 0] = [0.0, -0.0]
        moments = assert_paths_agree(q, k_t, v, 0.37)
        assert np.array_equal(moments[:, :, 0], moments[:, :, 1])
        np.testing.assert_allclose(moments[:, :, 0], v.mean(axis=-2), rtol=0, atol=1e-15)

    def test_logits_near_700_and_past_exps_range(self):
        # tau up to +-700, and to +-1056, where e^tau overflows: the exact
        # loop subtracts each row's max logit, the moments scale each bin by
        # e^-|t0|
        q = np.array([26.5, -26.5, 1.0, -0.5, 0.0, 26.4, -13.2, 40.0, -40.0])[None, None, :, None] * np.ones((2, 1, 1, 1))
        k_t = np.linspace(-26.4, 26.4, 9)[None, None, None, :] * np.ones((2, 1, 1, 1))
        v = normal_array(substream(6, 31), (2, 1, 9, 4))
        for scale in (1.0, 0.999):
            moments = assert_paths_agree(q, k_t, v, scale)
            assert np.isfinite(moments).all()

    def test_past_the_crossover(self):
        # tau over [-58, 58]: 117 bins for 160 queries, where the rule keeps
        # the exact loop; forced, the moments still agree
        _, k_t, v = operands(7, 1, 30, heads=1)
        r = (k_t.max() - k_t.min()) / 2
        q = (np.linspace(-58.4, 58.4, 160) / r)[None, None, :, None]
        assert len(np.unique(np.rint(q * r))) == 117
        assert not tensor_module._moments_pay(q, k_t.max(-1, keepdims=True), k_t.min(-1, keepdims=True), 1.0, 30, 4)
        assert_paths_agree(q, k_t, v, 1.0)

    @pytest.mark.parametrize("block", [40, 5], ids=["8-rows", "1-row"])
    def test_query_blocks_and_a_ragged_last_one(self, monkeypatch, block):
        monkeypatch.setattr(tensor_module, "BLOCK_VALUES", block)
        q, k_t, v = operands(8, 23, 10, d=4, tau=2.2)
        assert_paths_agree(q, k_t, v, 1.0)


def crossover_operands(n_bins):
    """A call at the crossover's shape: one head, 1024 queries over 128 keys
    of width 8, its queries spread over n_bins bins."""
    q, k_t, v = operands(9, 1, 128, heads=1, d=8)
    r = (k_t.max() - k_t.min()) / 2
    q = (np.linspace(-0.49, n_bins - 1.49, 1024) / r)[None, None, :, None]
    return q, k_t, v


def bins_at_crossover(n_q=1024, n_kv=128, d=8):
    """The most bins the rule gives the moments path at one head, from its
    cost constants: per_head + bins * per_bin < exact."""
    per_value = tensor_module._MOMENT_MAC_COST * P * (d + 1)
    per_head = per_value * n_q + tensor_module._HEAD_COST
    per_bin = per_value * n_kv + tensor_module._BIN_COST
    return math.ceil((n_q * n_kv * (d + 2) - per_head) / per_bin) - 1


class TestDispatch:
    @pytest.fixture
    def spy(self, monkeypatch):
        calls = []
        real = tensor_module._strip_moments

        def spying(q, k, v1, scale, out):
            calls.append(q.shape)
            return real(q, k, v1, scale, out)

        monkeypatch.setattr(tensor_module, "_strip_moments", spying)
        return calls

    def test_crossover_falls_where_the_rule_puts_it(self, spy):
        n = bins_at_crossover()
        assert 5 < n < 30
        for bins, takes_moments in ((n, True), (n + 1, False)):
            q, k_t, v = crossover_operands(bins)
            assert len(np.unique(np.rint(q * (k_t.max() - k_t.min()) / 2))) == bins
            spy.clear()
            fused = run(q, k_t, v, 1.0)
            assert bool(spy) is takes_moments
            assert np.abs(fused - chain(q, k_t, v, 1.0)).max() <= BOUND * np.abs(fused).max()
            assert_paths_agree(q, k_t, v, 1.0, with_oracle=False)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_a_default_decode_keeps_the_exact_loop(self, monkeypatch, spy, seed):
        # N_kv = 4 in every strip call, below P: the shapes alone keep the
        # exact loop, so the mask has its bits from before the moments path
        cfg = resolve_config({"seed": seed})
        pyr, params = build_pyramid(cfg), build_decoder_params(cfg)
        mask = decode(pyr, params).mask
        assert spy == []
        monkeypatch.setattr(tensor_module, "_moments_pay", lambda *args: False)
        exact = decode(pyr, params).mask
        assert hashlib.sha256(scat_bytes(mask)).digest() == hashlib.sha256(scat_bytes(exact)).digest()

    def test_a_realistic_decode_takes_the_moments_path(self, monkeypatch, spy):
        strip_calls = []
        real = attention_module.blocked_attention

        def counting(q, k_t, v, scale):
            if q.shape[-1] == 1:
                strip_calls.append(q.shape[:-1])
            return real(q, k_t, v, scale)

        monkeypatch.setattr(attention_module, "blocked_attention", counting)
        cfg = resolve_config({
            "pyramid": {"height": 512, "width": 1024, "channels": [32, 64, 160, 256]},
            "decoder": {"mixer": "sca", "heads": [1, 2, 5, 8], "dim_head": 32, "num_classes": 19},
        })
        decode(build_pyramid(cfg), build_decoder_params(cfg))
        assert strip_calls == [(1, 8, 512), (1, 5, 2048), (1, 2, 8192), (1, 1, 32768)]
        assert spy == strip_calls

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("operand,value", [("q", np.nan), ("q", np.inf), ("k", np.nan), ("k", -np.inf)])
    def test_a_non_finite_spread_keeps_the_exact_loop(self, spy, operand, value):
        q, k_t, v = operands(10, 600, 128, d=8)
        run(q, k_t, v, 1.0)
        assert spy, "finite, this call takes the moments path"
        spy.clear()
        if operand == "q":
            q[0, 1, 3, 0] = value
        else:
            k_t[0, 1, 0, 3] = value
        fused = run(q, k_t, v, 1.0)
        assert spy == []
        np.testing.assert_array_equal(fused, run(q, k_t, v, 1.0, moments=False))
        assert np.array_equal(np.isnan(fused), np.isnan(chain(q, k_t, v, 1.0)))


def test_moments_tallies_equal_the_chain(monkeypatch):
    calls = []
    real = tensor_module._strip_moments
    monkeypatch.setattr(tensor_module, "_strip_moments", lambda *args: calls.append(1) or real(*args))
    q, k_t, v = operands(11, 600, 128, heads=3, d=8, batch=2)
    counters = []
    for reference in (False, True):
        with count_macs() as mc:
            with tensor_module.mac_region("mixer"):
                if reference:
                    with tensor_module.mac_region("attn_scores"):
                        scores = matmul(Tensor(q), Tensor(k_t))
                    attn = softmax_lastdim(scalar_mul(scores, 0.5))
                    with tensor_module.mac_region("attn_mix"):
                        matmul(attn, Tensor(v))
                else:
                    blocked_attention(Tensor(q), Tensor(k_t), Tensor(v), 0.5)
        counters.append(mc)
    fused, reference = counters
    assert calls == [1]
    assert fused.total == reference.total
    assert fused.by_region == reference.by_region
    assert set(fused.by_region) == {"attn_scores", "attn_mix", "mixer"}
    assert fused.peak_by_region == reference.peak_by_region


@st.composite
def strip_calls(draw):
    """Operands of one strip call, drawn on both sides of the crossover: a
    small call (the shapes keep the exact loop) or a large one whose spread
    decides; block sizes small enough to make several ragged query blocks."""
    large = draw(st.booleans())
    n_q = draw(st.integers(400, 1200) if large else st.integers(1, 40))
    n_kv = draw(st.integers(64, 160) if large else st.integers(1, 40))
    d = draw(st.integers(4, 16) if large else st.integers(1, 12))
    heads, batch = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    tau = draw(st.sampled_from([0.0, 1e-6, 0.3, 1.4, 4.6, 12.0, 40.0]))
    scale = draw(st.sampled_from([1.0, 0.37, 2.5]))
    block = draw(st.sampled_from([1 << 15, 97, 1]))
    q, k_t, v = operands(draw(st.integers(0, 2**16)), n_q, n_kv, heads, d, batch, tau=max(tau, 1e-300) / scale)
    if tau == 0.0:
        q[:] = 0.0
    return q, k_t, v, scale, block


@settings(derandomize=True, deadline=None, max_examples=80, database=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=strip_calls())
def test_kernel_agrees_with_its_exact_loop_and_the_chain(case):
    q, k_t, v, scale, block = case
    calls = []
    real_moments, real_block = tensor_module._strip_moments, tensor_module.BLOCK_VALUES
    tensor_module._strip_moments = lambda *args: calls.append(1) or real_moments(*args)
    tensor_module.BLOCK_VALUES = block
    try:
        fused = run(q, k_t, v, scale)
        took_moments = bool(calls)
        exact = run(q, k_t, v, scale, moments=False)
    finally:
        tensor_module._strip_moments, tensor_module.BLOCK_VALUES = real_moments, real_block
    event("moments" if took_moments else "exact loop")
    ref = chain(q, k_t, v, scale)
    big = np.abs(ref).max()
    assert np.abs(fused - ref).max() <= BOUND * big
    assert np.abs(fused - exact).max() <= BOUND * big
    if not took_moments:
        assert np.array_equal(fused, exact)
