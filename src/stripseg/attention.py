"""Token mixers: vanilla self-attention, vanilla cross-attention, and strip
cross-attention, plus a brute-force oracle for equivalence testing.

All three mixers are one multi-head scaled dot-product attention kernel.
Strip attention is the case where queries and keys are compressed to one
scalar per head per token (qk width 1), so the per-head score matrix costs
N_q*N_kv multiplies instead of N_q*N_kv*dim_head, while values keep full
width. The qk width is never stored: it is read off the projection shapes.

Head layout convention (fixed so tests are deterministic): query/key
channels [h*qk, (h+1)*qk) belong to head h, so with qk width 1 channel h is
head h's strip logit; value channels [h*dim_head, (h+1)*dim_head) belong to
head h.

A call returns its softmax map beside its output only on request
(with_map=True, the default). An untaped call that asks for no map runs
tensor.blocked_attention, whatever its qk width: it mixes the values one
block of query rows at a time and never holds the whole map; decode asks
for none, and DecodeTrace.attn builds the maps when they are read. Every
other call, taped or map-returning, runs the unfused chain matmul ->
scalar_mul -> softmax_lastdim -> matmul, which is the blocked kernel's
reference; in it at most two map-sized buffers are alive at once: the
logits are released once they are scaled, and the scaled logits once the
softmax has run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .synth import RandomStream, normal_array
from .tensor import (
    LinearParams,
    ShapeError,
    Tensor,
    blocked_attention,
    linear,
    mac_region,
    matmul,
    reshape,
    scalar_mul,
    softmax_lastdim,
    transpose,
)

MIXER_KINDS = ("sa", "ca", "sca")


@dataclass(frozen=True)
class AttnParams:
    """Multi-head attention projections.

    wq maps C_q -> heads*qk and wk maps C_kv -> heads*qk, where the qk width
    per head is wq rows / heads: 1 for strip attention, dim_head for the
    full-width mixers. wv maps C_kv -> heads*dim_head, wo maps
    heads*dim_head -> C_q.
    """

    wq: LinearParams
    wk: LinearParams
    wv: LinearParams
    wo: LinearParams
    heads: int
    dim_head: int
    scale: float


@dataclass
class AttnOutput:
    """A mixer's output; attn is its softmax map, or None if none was built."""

    out: Tensor
    attn: Optional[Tensor]


def _init_linear(stream: RandomStream, out_dim: int, in_dim: int, std: float) -> LinearParams:
    return LinearParams(
        weight=normal_array(stream, (out_dim, in_dim)) * std,
        bias=np.zeros(out_dim),
    )


def init_mixer_params(
    kind: str,
    c_q: int,
    c_kv: int,
    heads: int,
    dim_head: int,
    stream: RandomStream,
    std: float = 0.02,
    scale: Optional[float] = None,
) -> AttnParams:
    """Seeded projections for one mixer kind, drawn in the order wq, wk, wv, wo.

    The qk width is 1 for "sca" and dim_head otherwise; "sa" takes its keys
    and values at c_q. scale defaults to 1/sqrt(qk width), the scaled
    dot-product rule, which gives 1.0 for strip attention.
    """
    if kind not in MIXER_KINDS:
        raise ValueError(f"unknown mixer kind {kind!r}")
    qk = 1 if kind == "sca" else dim_head
    if kind == "sa":
        c_kv = c_q
    return AttnParams(
        wq=_init_linear(stream, heads * qk, c_q, std),
        wk=_init_linear(stream, heads * qk, c_kv, std),
        wv=_init_linear(stream, heads * dim_head, c_kv, std),
        wo=_init_linear(stream, c_q, heads * dim_head, std),
        heads=heads,
        dim_head=dim_head,
        scale=1.0 / math.sqrt(qk) if scale is None else scale,
    )


def _split_heads(x: Tensor, heads: int, dim: int) -> Tensor:
    b, n, _ = x.shape
    return transpose(reshape(x, (b, n, heads, dim)), (0, 2, 1, 3))


def _merge_heads(x: Tensor) -> Tensor:
    b, h, n, d = x.shape
    return reshape(transpose(x, (0, 2, 1, 3)), (b, n, h * d))


def self_attention(x: Tensor, p: AttnParams, with_map: bool = True) -> AttnOutput:
    """Multi-head scaled dot-product attention with shared q/k/v source."""
    return cross_attention(x, x, p, with_map)


def cross_attention(xq: Tensor, xkv: Tensor, p: AttnParams, with_map: bool = True) -> AttnOutput:
    """As self-attention, but queries come from xq and keys/values from xkv.

    With qk width 1 (wq rows == heads) this is strip cross-attention. With
    with_map=False the caller reads no map, and an untaped call returns
    attn=None from tensor.blocked_attention. At full width its output is
    the map-returning call's, bit for bit where BLAS rounds a block of query
    rows as it rounds the whole matrix (always where one block covers every
    query). With qk width 1 the kernel's exact strip loop differs from it
    only in the rounding of the softmax normalization, and its moments path,
    which calls too large for that loop take, by a few ulps of the values'
    magnitude.
    """
    if xq.data.ndim != 3 or xkv.data.ndim != 3:
        raise ShapeError(f"attention inputs must be [B,N,C], got {xq.shape} and {xkv.shape}")
    qk_rows, k_rows, v_rows = (w.weight.shape[0] for w in (p.wq, p.wk, p.wv))
    if p.heads < 1:
        raise ShapeError(f"heads: must be >= 1, got {p.heads}")
    if qk_rows < p.heads or qk_rows % p.heads:
        raise ShapeError(f"wq: {qk_rows} rows are not a positive multiple of {p.heads} heads")
    if k_rows != qk_rows:
        raise ShapeError(f"wk: {k_rows} rows, but wq has {qk_rows}")
    if v_rows != p.heads * p.dim_head:
        raise ShapeError(f"wv: {v_rows} rows, not heads * dim_head = {p.heads} * {p.dim_head}")
    qk = qk_rows // p.heads
    b, n_kv, _ = xkv.shape
    with mac_region("qk_proj"):
        q = _split_heads(linear(xq, p.wq), p.heads, qk)
        # keys laid out once, straight to [B, heads, qk, N_kv]
        k_t = transpose(reshape(linear(xkv, p.wk), (b, n_kv, p.heads, qk)), (0, 2, 3, 1))
    with mac_region("v_proj"):
        v = _split_heads(linear(xkv, p.wv), p.heads, p.dim_head)
    if not with_map and all(t.tape is None for t in (q, k_t, v)):
        mixed, attn = blocked_attention(q, k_t, v, p.scale), None
    else:
        with mac_region("attn_scores"):
            scores = matmul(q, k_t)
        # at most two map-sized buffers alive at once; a tape keeps only attn
        scaled = scalar_mul(scores, p.scale)
        del scores
        attn = softmax_lastdim(scaled)
        del scaled
        with mac_region("attn_mix"):
            mixed = matmul(attn, v)
    with mac_region("out_proj"):
        out = linear(_merge_heads(mixed), p.wo)
    return AttnOutput(out=out, attn=attn)


# Strip cross-attention is the same kernel; its params carry qk width 1.
strip_cross_attention = cross_attention


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------
# Explicit scalar loops sharing no code with the kernel above; used as the
# independent reference in equivalence tests. Parameters are the storage-side
# bundles (plain numpy arrays).


def _oracle_linear(x_row, weight, bias):
    out = np.empty(weight.shape[0])
    for o in range(weight.shape[0]):
        acc = 0.0
        for i in range(weight.shape[1]):
            acc += x_row[i] * weight[o, i]
        out[o] = acc + (bias[o] if bias is not None else 0.0)
    return out


def _oracle_softmax(logits):
    hi = max(logits)
    exps = [math.exp(v - hi) for v in logits]
    denom = sum(exps)
    return [e / denom for e in exps]


def oracle_attention(xq: np.ndarray, xkv: np.ndarray, p: AttnParams) -> np.ndarray:
    """Loop-based reference for all three mixers; qk width is wq rows / heads."""
    xq = np.asarray(xq, dtype=np.float64)
    xkv = np.asarray(xkv, dtype=np.float64)
    heads, dim_head = p.heads, p.dim_head
    qk_dim = p.wq.weight.shape[0] // heads
    b_sz, n_q, _ = xq.shape
    n_kv = xkv.shape[1]
    c_q = p.wo.weight.shape[0]
    out = np.zeros((b_sz, n_q, c_q))
    for b in range(b_sz):
        q_rows = [_oracle_linear(xq[b, n], p.wq.weight, p.wq.bias) for n in range(n_q)]
        k_rows = [_oracle_linear(xkv[b, m], p.wk.weight, p.wk.bias) for m in range(n_kv)]
        v_rows = [_oracle_linear(xkv[b, m], p.wv.weight, p.wv.bias) for m in range(n_kv)]
        for n in range(n_q):
            mixed = np.zeros(heads * dim_head)
            for h in range(heads):
                logits = []
                for m in range(n_kv):
                    acc = 0.0
                    for d in range(qk_dim):
                        acc += q_rows[n][h * qk_dim + d] * k_rows[m][h * qk_dim + d]
                    logits.append(p.scale * acc)
                weights = _oracle_softmax(logits)
                for d in range(dim_head):
                    acc = 0.0
                    for m in range(n_kv):
                        acc += weights[m] * v_rows[m][h * dim_head + d]
                    mixed[h * dim_head + d] = acc
            out[b, n] = _oracle_linear(mixed, p.wo.weight, p.wo.bias)
    return out
