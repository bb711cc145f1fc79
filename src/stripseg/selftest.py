"""Built-in verification suites for the command-line selftest.

Three suites mirror the core test families: oracle equivalence of the fast
attention paths, structural invariants of the mixers, and exact identities
(zero-residual blocks, resize and pooling fixed points, the zero softmax
gradient). Each returns True/False; the CLI prints one line per suite.
"""

from __future__ import annotations

import numpy as np

from .attention import MIXER_KINDS, cross_attention, init_mixer_params, oracle_attention, strip_cross_attention
from .config import build_decoder_params, build_pyramid, resolve_config
from .decoder import decode
from .synth import normal_array, substream
from .tensor import Tape, Tensor, backward, bilinear_resize, bind_params, adaptive_avg_pool, softmax_lastdim, sum_all

_TOL = 1e-10


def _case(seed: int, n_q: int, n_kv: int, c_q: int, c_kv: int):
    stream = substream(seed, 11)
    xq = normal_array(stream, (1, n_q, c_q))
    xkv = normal_array(stream, (1, n_kv, c_kv))
    return stream, xq, xkv


def suite_oracle_equivalence() -> bool:
    ok = True
    for seed, (n_q, n_kv, heads, dim_head) in enumerate(
        [(3, 5, 1, 4), (1, 6, 2, 3), (7, 7, 4, 2), (4, 2, 2, 5)]
    ):
        c_q, c_kv = 6, 9
        stream, xq, xkv = _case(seed, n_q, n_kv, c_q, c_kv)
        for kind in MIXER_KINDS:
            p = init_mixer_params(kind, c_q, c_kv, heads, dim_head, stream)
            src = xq if kind == "sa" else xkv
            fast = cross_attention(Tensor(xq), Tensor(src), bind_params(p, None)[0]).out.data
            ok &= np.abs(fast - oracle_attention(xq, src, p)).max() < _TOL
    return bool(ok)


def suite_invariants() -> bool:
    ok = True
    stream, xq, xkv = _case(99, 5, 8, 6, 10)
    sp = bind_params(init_mixer_params("sca", 6, 10, 2, 3, stream), None)[0]
    res = strip_cross_attention(Tensor(xq), Tensor(xkv), sp)
    ok &= np.abs(res.attn.data.sum(axis=-1) - 1.0).max() < _TOL

    perm = [3, 0, 7, 5, 1, 6, 2, 4]
    res_perm = strip_cross_attention(Tensor(xq), Tensor(xkv[:, perm, :]), sp)
    ok &= np.abs(res_perm.out.data - res.out.data).max() < _TOL

    # rebuild byte-identical parameters, then shift every key strip; the
    # shift lands constant along each softmax row, so attention is unmoved
    stream2, _, _ = _case(99, 5, 8, 6, 10)
    shifted = init_mixer_params("sca", 6, 10, 2, 3, stream2)
    shifted.wk.bias += 3.7
    res_shift = strip_cross_attention(Tensor(xq), Tensor(xkv), bind_params(shifted, None)[0])
    ok &= np.abs(res_shift.attn.data - res.attn.data).max() < _TOL
    return bool(ok)


def suite_identities() -> bool:
    ok = True
    cfg = resolve_config(
        {
            "pyramid": {"height": 64, "width": 64, "channels": [4, 8, 8, 16]},
            "decoder": {"heads": [1, 1, 2, 2], "dim_head": 4, "num_classes": 3},
        }
    )
    pyramid = build_pyramid(cfg)
    params = build_decoder_params(cfg, zero_residual=True)
    trace = decode(pyramid, params)
    for stage in range(1, 5):
        ok &= np.array_equal(trace.decoded[stage - 1].data, pyramid.stage(stage))

    stream = substream(5, 3)
    x = Tensor(normal_array(stream, (2, 3, 8, 8)))
    ok &= np.abs(bilinear_resize(x, 8, 8).data - x.data).max() < 1e-12
    pooled = adaptive_avg_pool(x, 2, 2)
    ok &= abs(float(pooled.data.mean()) - float(x.data.mean())) < 1e-12

    tape = Tape()
    leaf = tape.leaf(normal_array(stream, (4, 6)))
    grads = backward(tape, sum_all(softmax_lastdim(leaf)))
    ok &= np.abs(grads[leaf.tid].data).max() < _TOL
    return bool(ok)


SUITES = [
    ("oracle-equivalence", suite_oracle_equivalence),
    ("invariants", suite_invariants),
    ("identities", suite_identities),
]


def run_selftest() -> dict[str, bool]:
    return {name: fn() for name, fn in SUITES}
