"""Shared helpers: deterministic random arrays, the op-level FD checker and a
softmax with a wrong adjoint for negative controls."""

import math

import numpy as np

from stripseg.gradcheck import fd_gradient, max_rel_error
from stripseg.synth import normal_array, substream
from stripseg.tensor import Tape, Tensor, _emit, backward, mul, softmax_lastdim, sum_all


def rand_uniform(shape, seed, lo=-2.0, hi=2.0):
    """Deterministic uniform array in [lo, hi]."""
    stream = substream(seed, 17)
    vals = np.array([stream.uniform53() for _ in range(math.prod(shape))])
    return (lo + (hi - lo) * vals).reshape(shape)


def rand_normal(shape, seed):
    return normal_array(substream(seed, 19), shape)


def deferred_strip_attention(q, k_t, v, scale):
    """Whole-array numpy form of blocked_attention at qk width 1, on arrays:
    exp of the scaled logits less the closed-form row max, one GEMM against
    [v | 1], and the mix divided by the row sums in its last column."""
    shift = np.maximum(q * k_t.max(axis=-1, keepdims=True) * scale, q * k_t.min(axis=-1, keepdims=True) * scale)
    sums = np.matmul(np.exp(q * k_t * scale - shift), np.concatenate((v, np.ones(v.shape[:-1] + (1,))), axis=-1))
    return sums[..., :-1] / sums[..., -1:]


def op_gradcheck(build, arrays, seed=0, step=1e-5):
    """Max relative error between tape gradients and central differences.

    build maps one Tensor per input array to an output Tensor; the loss is a
    fixed random projection of the output so every element matters.
    """
    arrays = [np.array(a, dtype=np.float64) for a in arrays]
    tape = Tape()
    leaves = [tape.leaf(a) for a in arrays]
    out = build(*leaves)
    proj = rand_normal(out.shape, seed + 1000)
    grads = backward(tape, sum_all(mul(out, Tensor(proj))))

    def loss_fn():
        o = build(*[Tensor(a) for a in arrays])
        return float((o.data * proj).sum())

    worst = 0.0
    for leaf, arr in zip(leaves, arrays):
        got = grads.get(leaf.tid)
        analytic = got.data if got is not None else np.zeros_like(arr)
        worst = max(worst, max_rel_error(analytic, fd_gradient(loss_fn, arr, step)))
    return worst


def tampered_softmax(x):
    """softmax_lastdim's forward with the adjoint out*(1.05*g - sum(g*out)).

    The extra 5% on the leading term is a deliberately wrong backward: a
    gradient check that passes with it in place of softmax_lastdim checks
    nothing. (Scaling the whole adjoint is not enough: the zero softmax
    gradient stays zero under a uniform scale.)
    """
    out = softmax_lastdim(Tensor(x.data)).data

    def backward_fn(g):
        return (out * (g * 1.05 - (g * out).sum(axis=-1, keepdims=True)),)

    return _emit(out, (x,), backward_fn)
