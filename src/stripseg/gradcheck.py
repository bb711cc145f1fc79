"""Finite-difference verification of analytic gradients.

Central differences with a fixed fp64 step serve as the independent oracle:
they never touch the tape's backward closures. Relative error uses the
denominator max(1, |analytic|, |numeric|), so near-zero gradients are
compared absolutely.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .decoder import DecoderParams, decode
from .synth import FeaturePyramid
from .tensor import Tape, backward, flatten_params, sum_all

DEFAULT_STEP = 1e-5


def fd_gradient(loss_fn: Callable[[], float], arr: np.ndarray, step: float = DEFAULT_STEP) -> np.ndarray:
    """Central-difference gradient of loss_fn with respect to arr, in place.

    loss_fn must re-read arr on every call; arr is restored exactly on exit.
    Entries are stepped in C order through arr itself, so any layout works,
    a transposed view included.
    """
    grad = np.zeros_like(arr)
    for idx in np.ndindex(arr.shape):
        orig = arr[idx]
        arr[idx] = orig + step
        hi = loss_fn()
        arr[idx] = orig - step
        lo = loss_fn()
        arr[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * step)
    return grad


def max_rel_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    analytic = np.asarray(analytic, dtype=np.float64)
    numeric = np.asarray(numeric, dtype=np.float64)
    denom = np.maximum(1.0, np.maximum(np.abs(analytic), np.abs(numeric)))
    if analytic.size == 0:
        return 0.0
    return float((np.abs(analytic - numeric) / denom).max())


def decoder_gradcheck(
    pyramid: FeaturePyramid,
    params: DecoderParams,
    step: float = DEFAULT_STEP,
) -> dict[str, float]:
    """Per-parameter max relative error of d(sum(mask))/d(leaf) vs differences.

    Leaves the loss provably cannot reach (analytic gradient absent) are
    still differenced; both sides must then be zero.
    """
    tape = Tape()
    trace = decode(pyramid, params, tape)
    grads = backward(tape, sum_all(trace.mask))
    leaves = trace.param_leaves

    def loss_fn() -> float:
        return float(decode(pyramid, params).mask.data.sum())

    report: dict[str, float] = {}
    for name, arr in flatten_params(params):
        leaf = leaves[name]
        got = grads.get(leaf.tid)
        analytic = got.data if got is not None else np.zeros_like(arr)
        numeric = fd_gradient(loss_fn, arr, step)
        report[name] = max_rel_error(analytic, numeric)
    return report
