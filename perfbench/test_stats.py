"""Tests of the benchmark's own arithmetic.

    python3 -m pytest perfbench
"""

import numpy as np
import pytest

import stats
import tracing


# -- percentile: reported only with ten samples beyond it -------------------


def test_p90_needs_ten_samples_beyond():
    assert stats.percentile(list(range(1, 101)), 90) == 90  # 91..100 lie beyond
    assert stats.percentile(list(range(1, 100)), 90) is None  # only 9 beyond
    assert stats.percentile([5.0] * 10, 50) is None  # 5 beyond p50 of 10


def test_p99_needs_a_thousand_samples():
    assert stats.percentile(list(range(1, 1000)), 99) is None
    assert stats.percentile(list(range(1, 1001)), 99) == 990


def test_percentile_ignores_input_order():
    values = list(range(1, 201))
    rng = np.random.default_rng(3)
    shuffled = [int(v) for v in rng.permutation(values)]
    assert stats.percentile(shuffled, 90) == stats.percentile(values, 90) == 180


def test_median_even_and_odd():
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        stats.median([])


# -- self time ---------------------------------------------------------------


def test_self_time_without_children_is_duration():
    assert stats.self_ns(10, 110, []) == 100


def test_self_time_merges_overlapping_children():
    # [10,30) and [20,50) overlap: together they cover 40, not 50.
    assert stats.self_ns(0, 100, [(10, 30), (20, 50), (60, 70)]) == 100 - 40 - 10


def test_self_time_clips_children_to_the_parent():
    # A child reaching past either end counts only inside the parent.
    assert stats.self_ns(0, 100, [(-20, 10), (90, 150)]) == 80
    assert stats.self_ns(0, 100, [(200, 300)]) == 100


def test_self_time_of_a_child_nested_inside_another():
    assert stats.self_ns(0, 100, [(10, 60), (20, 30)]) == 50


def _span(name, parent, start, end, macs=0, site="decoder"):
    return tracing.Span(name, site, "op0", parent, start, end, macs)


def test_span_self_subtracts_only_direct_children():
    spans = [
        _span("decoder.decode", -1, 0, 100, macs=70),
        _span("decoder.clb", 0, 10, 90, macs=70),
        _span("tensor.matmul", 1, 20, 40, macs=50),
        _span("tensor.linear", 1, 50, 60, macs=20),
    ]
    selfs = tracing.span_self(spans, [0, 1, 2, 3])
    assert selfs[0] == (20, 0)
    assert selfs[1] == (50, 0)
    assert selfs[2] == (20, 50)


def test_kernel_macs_leave_out_macs_in_a_non_kernel_spans_self():
    # 30 of the clb's 100 MACs fall outside its kernel child: tensor.macs,
    # the figure checked against analysis.decode_macs, must not include them.
    spans = [
        _span("decoder.decode", -1, 0, 100, macs=100),
        _span("decoder.clb", 0, 10, 90, macs=100),
        _span("tensor.matmul", 1, 20, 40, macs=70),
    ]
    assert tracing.op_metrics(spans, "op0")["tensor.macs"] == 70


def test_clb_children_split_into_sub_blocks():
    names = [
        "tensor.layernorm", "tensor.layernorm", "attention.strip_cross_attention", "tensor.add",
        "tensor.layernorm", "decoder.lpm", "tensor.add",
        "tensor.layernorm", "tensor.linear", "tensor.gelu", "tensor.linear", "tensor.add",
    ]
    spans = [_span("decoder.clb", -1, 0, 1000)]
    for k, name in enumerate(names):
        spans.append(_span(name, 0, 10 * k, 10 * k + k + 1))
    times = tracing._sub_blocks(spans, list(range(1, len(spans))))
    assert times == {"mixer": 1 + 2 + 3 + 4, "lpm": 5 + 6 + 7, "mlp": 8 + 9 + 10 + 11 + 12}


# -- digests -------------------------------------------------------------------


def _mask(seed=0, shape=(1, 19, 32, 64)):
    return np.random.default_rng(seed).standard_normal(shape) * 0.05


def test_digest_accepts_last_bit_changes():
    a = _mask()
    ref = stats.digest(a)
    assert stats.digest_mismatches(stats.digest(np.nextafter(a, np.inf)), ref) == []
    assert stats.digest_mismatches(stats.digest(a * (1 + 4e-16)), ref) == []
    # a different summation order of the same values
    assert stats.digest_mismatches(stats.digest(a + 1e-15 * np.abs(a)), ref) == []


def test_digest_rejects_a_real_change():
    a = _mask()
    ref = stats.digest(a)
    b = a.copy()
    b.flat[1234] *= 1.0 + 1e-3  # one value of 38912, in its third digit
    assert stats.digest_mismatches(stats.digest(b), ref)
    assert stats.digest_mismatches(stats.digest(a + 1e-6), ref)
    assert stats.digest_mismatches(stats.digest(-a), ref)


def test_digest_rejects_nan_and_shape():
    a = _mask()
    ref = stats.digest(a)
    b = a.copy()
    b.flat[7] = np.nan
    assert stats.digest_mismatches(stats.digest(b), ref)
    assert stats.digest_mismatches(stats.digest(a.reshape(1, 19, 64, 32)), ref)


def test_digest_near_zero_block_tolerates_noise():
    a = _mask()
    a.reshape(-1)[: a.size // 16] = 0.0  # block 0 is exactly zero
    ref = stats.digest(a)
    b = a.copy()
    b.reshape(-1)[:10] = 1e-30
    assert stats.digest_mismatches(stats.digest(b), ref) == []
    b.reshape(-1)[:10] = 1e-3
    assert stats.digest_mismatches(stats.digest(b), ref)


def test_digest_of_small_array_uses_one_block_per_value():
    d = stats.digest(np.array([1.0, -2.0]))
    assert d == {"shape": [2], "blocks": [[1.0, 1.0], [-2.0, 2.0]]}


def test_digest_whole_norm_covers_leaves_that_are_rounding_noise():
    # A gradient leaf that is zero in exact arithmetic holds only noise; it
    # is judged against the norm of all gradients together.
    noise = np.array([3e-17, -1e-17, 2e-17, 5e-18])
    ref = stats.digest(noise, 2)
    moved = stats.digest(noise * -2.0, 2)
    assert stats.digest_mismatches(moved, ref)
    assert stats.digest_mismatches(moved, ref, whole_norm=10.0) == []
    assert stats.digest_mismatches(stats.digest(noise + 1e-6, 2), ref, whole_norm=10.0)
