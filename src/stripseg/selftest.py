"""Verification checks, shared by the command-line selftest and the tests.

The oracle and invariant checks here are acceptance criteria 2 and 4: the
tests call the same functions with the same case data. Each check returns
its raw numbers, so a caller picks the tolerance; the three suites below
compare them against TOL and the CLI prints one line per suite.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .attention import cross_attention, init_mixer_params, oracle_attention
from .config import build_decoder_params, build_pyramid, resolve_config
from .decoder import decode
from .synth import normal_array, substream
from .tensor import Tape, Tensor, backward, bilinear_resize, bind_params, adaptive_avg_pool, softmax_lastdim, sum_all

TOL = 1e-10

# Criterion 2's cases as (seed, heads, n_q, n_kv): three head counts by seven
# token shapes, seeds 7000.. in that order.
ORACLE_CASES = tuple(
    (7000 + 7 * i + j, heads, n_q, n_kv)
    for i, heads in enumerate((1, 2, 4))
    for j, (n_q, n_kv) in enumerate(((1, 1), (2, 5), (7, 3), (16, 16), (9, 12), (3, 1), (1, 8)))
)


def oracle_errors(seed: int, heads: int, n_q: int, n_kv: int) -> dict[str, float]:
    """Max |kernel - oracle_attention| per mixer kind, C_q 5, C_kv 7, dim_head 3,
    over the map-returning call and the map-free one that decode makes.

    Parameters are drawn from one stream after the inputs, in the order
    sca, ca, sa; "sa" attends over the queries.
    """
    stream = substream(seed, 29)
    xq = normal_array(stream, (1, n_q, 5))
    xkv = normal_array(stream, (1, n_kv, 7))
    errors = {}
    for kind in ("sca", "ca", "sa"):
        p = init_mixer_params(kind, 5, 7, heads, 3, stream)
        src = xq if kind == "sa" else xkv
        bound = bind_params(p, None)[0]
        oracle = oracle_attention(xq, src, p)
        errors[kind] = max(
            float(np.abs(cross_attention(Tensor(xq), Tensor(src), bound, with_map).out.data - oracle).max())
            for with_map in (True, False)
        )
    return errors


def invariant_errors() -> dict[str, float]:
    """Strip attention's structural invariants, each as a max abs deviation.

    stochastic-rows: every attention row sums to 1. key-permutation: the
    output ignores the order of the keys. key-strip-shift: a constant added
    to every key strip lands constant along each softmax row, so the
    attention does not move.
    """
    stream = substream(4000, 31)
    xq = normal_array(stream, (1, 6, 5))
    xkv = normal_array(stream, (1, 9, 7))
    p = init_mixer_params("sca", 5, 7, 2, 3, stream)
    shifted = dataclasses.replace(p, wk=dataclasses.replace(p.wk, bias=p.wk.bias + 4.2))
    perm = [8, 2, 5, 0, 7, 1, 4, 6, 3]
    bound = bind_params(p, None)[0]
    res = cross_attention(Tensor(xq), Tensor(xkv), bound)
    permuted = cross_attention(Tensor(xq), Tensor(xkv[:, perm, :]), bound)
    res_shift = cross_attention(Tensor(xq), Tensor(xkv), bind_params(shifted, None)[0])
    return {
        "stochastic-rows": float(np.abs(res.attn.data.sum(axis=-1) - 1.0).max()),
        "key-permutation": float(np.abs(permuted.out.data - res.out.data).max()),
        "key-strip-shift": float(np.abs(res_shift.attn.data - res.attn.data).max()),
    }


def zero_residual_identity() -> bool:
    """With every residual branch zeroed, each decoded stage equals its input bit for bit."""
    cfg = resolve_config(
        {
            "pyramid": {"height": 64, "width": 64, "channels": [4, 8, 8, 16]},
            "decoder": {"heads": [1, 1, 2, 2], "dim_head": 4, "num_classes": 3},
        }
    )
    pyramid = build_pyramid(cfg)
    trace = decode(pyramid, build_decoder_params(cfg, zero_residual=True))
    return all(np.array_equal(trace.decoded[s - 1].data, pyramid.stage(s)) for s in range(1, 5))


def suite_oracle_equivalence() -> bool:
    return all(max(oracle_errors(*case).values()) < TOL for case in ORACLE_CASES)


def suite_invariants() -> bool:
    return max(invariant_errors().values()) < TOL and zero_residual_identity()


def suite_identities() -> bool:
    """Resize and pool fixed points and the zero softmax gradient."""
    ok = True
    stream = substream(5, 3)
    x = Tensor(normal_array(stream, (2, 3, 8, 8)))
    ok &= np.abs(bilinear_resize(x, 8, 8).data - x.data).max() < 1e-12
    pooled = adaptive_avg_pool(x, 2, 2)
    ok &= abs(float(pooled.data.mean()) - float(x.data.mean())) < 1e-12

    tape = Tape()
    leaf = tape.leaf(normal_array(stream, (4, 6)))
    grads = backward(tape, sum_all(softmax_lastdim(leaf)))
    ok &= np.abs(grads[leaf.tid].data).max() < TOL
    return bool(ok)


SUITES = [
    ("oracle-equivalence", suite_oracle_equivalence),
    ("invariants", suite_invariants),
    ("identities", suite_identities),
]


def run_selftest() -> dict[str, bool]:
    return {name: fn() for name, fn in SUITES}
