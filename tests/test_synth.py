"""Deterministic PRNG and pyramid-generation contracts."""

import math

import numpy as np
import pytest

import stripseg.tensor as tensor_module
from stripseg.synth import (
    _NORMAL_BLOCK,
    PyramidSpec,
    RandomStream,
    generate_pyramid,
    normal_array,
    splitmix64_next,
    standard_normal,
)
from stripseg.tensor import libm_exact

B = _NORMAL_BLOCK


class TestSplitmix64:
    def test_reference_vector_seed_zero(self):
        out, _ = splitmix64_next(0)
        assert out == 0xE220A8397B1DCDAF

    def test_reference_sequence(self):
        state = 0
        outs = []
        for _ in range(3):
            out, state = splitmix64_next(state)
            outs.append(out)
        assert outs == [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    def test_same_seed_same_stream(self):
        a = RandomStream(1234)
        b = RandomStream(1234)
        assert [a.next_u64() for _ in range(16)] == [b.next_u64() for _ in range(16)]

    def test_different_seeds_diverge_immediately(self):
        a = RandomStream(1)
        b = RandomStream(2)
        first_a = [a.next_u64() for _ in range(4)]
        first_b = [b.next_u64() for _ in range(4)]
        assert all(x != y for x, y in zip(first_a, first_b))

    def test_outputs_fit_in_u64(self):
        stream = RandomStream(77)
        for _ in range(100):
            assert 0 <= stream.next_u64() < 1 << 64


class TestStandardNormal:
    def test_moments_over_1e5_draws(self):
        stream = RandomStream(42)
        total = 0.0
        total_sq = 0.0
        n = 100_000
        for _ in range(n):
            v = standard_normal(stream)
            total += v
            total_sq += v * v
        mean = total / n
        var = total_sq / n - mean * mean
        assert -0.02 <= mean <= 0.02
        assert 0.98 <= var <= 1.02

    def test_fixed_seed_reproduces_first_draws(self):
        first = [standard_normal(RandomStream(9)) for _ in range(1)]
        again = RandomStream(9)
        repeat = [standard_normal(again) for _ in range(1)]
        assert first == repeat
        a, b = RandomStream(123), RandomStream(123)
        assert [standard_normal(a) for _ in range(10)] == [standard_normal(b) for _ in range(10)]


def scalar_normals(stream, n):
    """The oracle: one standard_normal call per element."""
    return np.array([standard_normal(stream) for _ in range(n)])


class TestNormalArray:
    @pytest.mark.parametrize(
        "shape", [(0,), (1,), (2,), (B - 1,), (B,), (B + 1,), (2 * B + 3,), (3, 5, 7, 11), (50_003,)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_equals_scalar_draws_and_stream_state(self, shape):
        block, scalar = RandomStream(2024), RandomStream(2024)
        got = normal_array(block, shape)
        want = scalar_normals(scalar, math.prod(shape)).reshape(shape)
        assert got.shape == shape
        assert np.array_equal(got, want)
        assert block.state == scalar.state

    @pytest.mark.parametrize("seed", [0, 1, 2**64 - 1])
    def test_a_third_of_a_million_draws_per_seed_equal_scalar_draws(self, seed):
        # 350,001 = 85 full blocks and a ragged 1,841; over the three seeds,
        # 1.05M draws.
        n = 350_001
        block, scalar = RandomStream(seed), RandomStream(seed)
        assert np.array_equal(normal_array(block, (n,)), scalar_normals(scalar, n))
        assert block.state == scalar.state

    def test_per_element_math_fallback_gives_the_same_draws(self, monkeypatch):
        n = 2 * B + 3
        fast = RandomStream(5)
        want = normal_array(fast, (n,))
        monkeypatch.setattr(tensor_module, "_view_is_libm", lambda ufunc: False)
        slow = RandomStream(5)
        got = normal_array(slow, (n,))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
        assert slow.state == fast.state
        assert np.array_equal(got, scalar_normals(RandomStream(5), n))

    def test_consecutive_calls_continue_one_sequence(self):
        block, scalar = RandomStream(99), RandomStream(99)
        first = normal_array(block, (B + 5,))
        second = normal_array(block, (7, 3)).reshape(-1)
        assert np.array_equal(np.concatenate([first, second]), scalar_normals(scalar, B + 5 + 21))
        assert block.state == scalar.state

    def test_pyramid_values_are_pinned(self):
        # Fixed values, so a change made to standard_normal and normal_array
        # together still fails.
        stage1 = generate_pyramid(PyramidSpec(64, 64, (8, 16, 32, 64))).stage(1).reshape(-1)
        assert [float(v).hex() for v in stage1[:4]] == [
            "0x1.3023165b98088p-3",
            "-0x1.1036e3b90832ep+0",
            "0x1.0418f70871cd4p+0",
            "-0x1.5936c70cb95e4p-3",
        ]
        assert float(stage1[-1]).hex() == "-0x1.3ba0c2fd5b85dp+0"


class TestLibmProbe:
    """libm_exact's probe, run afresh (not from its cache) for each function."""

    @pytest.mark.parametrize("ufunc", [np.log, np.cos, np.exp], ids=lambda f: f.__name__)
    def test_probe_verdict_holds_on_fresh_inputs(self, ufunc):
        scalar, lo, hi = tensor_module._LIBM[ufunc]
        x = np.random.default_rng(11).uniform(lo, hi, 1 << 16)
        libm = np.fromiter(map(scalar, x.tolist()), np.float64, x.size)
        view_equal = np.array_equal(ufunc(x[::-1])[::-1].view(np.int64), libm.view(np.int64))
        if tensor_module._view_is_libm.__wrapped__(ufunc):
            assert view_equal
        assert np.array_equal(libm_exact(ufunc, x).view(np.int64), libm.view(np.int64))

    @pytest.mark.parametrize("ufunc", [np.log, np.cos, np.exp], ids=lambda f: f.__name__)
    def test_probe_rejects_one_differing_last_bit(self, ufunc, monkeypatch):
        scalar, lo, hi = tensor_module._LIBM[ufunc]
        probed = np.linspace(lo, hi, tensor_module._PROBE_SIZE)[1234]

        def off_by_one_ulp(v):
            return math.nextafter(scalar(v), math.inf) if v == probed else scalar(v)

        monkeypatch.setitem(tensor_module._LIBM, ufunc, (off_by_one_ulp, lo, hi))
        assert not tensor_module._view_is_libm.__wrapped__(ufunc)


class TestPyramid:
    def test_stage_shapes(self):
        spec = PyramidSpec(height=64, width=64, channels=(8, 16, 32, 64), batch=1, seed=0)
        pyr = generate_pyramid(spec)
        assert pyr.stage(1).shape == (1, 8, 16, 16)
        assert pyr.stage(2).shape == (1, 16, 8, 8)
        assert pyr.stage(3).shape == (1, 32, 4, 4)
        assert pyr.stage(4).shape == (1, 64, 2, 2)
        for stage, grid in enumerate([(16, 16), (8, 8), (4, 4), (2, 2)], start=1):
            assert spec.stage_grid(stage) == grid
            assert spec.stage_shape(stage) == pyr.stage(stage).shape
            assert pyr.stage(stage) is pyr.features[stage - 1]

    @pytest.mark.parametrize("stage", [0, -1, 5])
    def test_stage_outside_one_to_four_is_rejected(self, stage):
        # 0 and -1 would index the stages from the end, and 5 past it
        spec = PyramidSpec(height=64, width=64, channels=(8, 16, 32, 64))
        pyr = generate_pyramid(spec)
        for lookup in (spec.stage_grid, spec.stage_shape, pyr.stage):
            with pytest.raises(ValueError, match=f"stage: {stage} is not one of 1..4"):
                lookup(stage)

    def test_bitwise_reproducibility(self):
        spec = PyramidSpec(height=64, width=32, channels=(4, 8, 8, 16), batch=2, seed=777)
        a = generate_pyramid(spec)
        b = generate_pyramid(spec)
        for stage in range(1, 5):
            assert np.array_equal(a.stage(stage), b.stage(stage))

    def test_indivisible_extent_rejected(self):
        with pytest.raises(ValueError):
            generate_pyramid(PyramidSpec(height=65, width=64, channels=(1, 1, 1, 1)))

    def test_token_count_quarters_per_stage(self):
        spec = PyramidSpec(height=128, width=64, channels=(2, 2, 2, 2))
        for stage in range(1, 4):
            h, w = spec.stage_grid(stage)
            h2, w2 = spec.stage_grid(stage + 1)
            assert h * w == 4 * h2 * w2

    def test_stages_are_decorrelated_substreams(self):
        spec = PyramidSpec(height=32, width=32, channels=(4, 4, 4, 4), seed=5)
        pyr = generate_pyramid(spec)
        flat1 = pyr.stage(1).reshape(-1)[:16]
        flat2 = pyr.stage(2).reshape(-1)[:16]
        assert not np.array_equal(flat1, flat2)

    def test_seed_changes_features(self):
        base = PyramidSpec(height=32, width=32, channels=(4, 4, 4, 4), seed=0)
        other = PyramidSpec(height=32, width=32, channels=(4, 4, 4, 4), seed=1)
        assert not np.array_equal(generate_pyramid(base).stage(1), generate_pyramid(other).stage(1))
