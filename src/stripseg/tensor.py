"""Dense fp64 tensor kernels with tape-based reverse-mode differentiation.

Every kernel is a pure function: it computes its result eagerly with numpy
and, when any input lives on a Tape, records a node whose backward closure
produces analytic input gradients. The one exception, strip_attention, is
forward-only and refuses taped operands. Reduction orders inside each kernel
are fixed, so repeated runs are bitwise identical.

Multiply-accumulate instrumentation: kernels that perform dense arithmetic
(matmul, linear, depthwise_conv, elementwise multiplies) report MAC counts
to any active MacCounter. Softmax, normalization, pooling and resampling are
deliberately uncounted; the complexity model only prices score/weighted-sum
and projection stages.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from scipy.special import erf


class ShapeError(ValueError):
    """Raised when operand shapes violate a kernel's contract."""


# ---------------------------------------------------------------------------
# Tensor and Tape
# ---------------------------------------------------------------------------


class Tensor:
    """Immutable dense fp64 array value, optionally registered on a Tape."""

    __slots__ = ("data", "tape", "tid")

    def __init__(self, data, tape: Optional["Tape"] = None, tid: Optional[int] = None):
        arr = np.asarray(data, dtype=np.float64)
        view = arr.view()
        view.flags.writeable = False
        self.data = view
        self.tape = tape
        self.tid = tid

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(self.data.shape)

    @property
    def size(self) -> int:
        return int(self.data.size)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, taped={self.tape is not None})"


def tensor(data) -> Tensor:
    """Construct a constant Tensor from external data, rejecting non-finite values."""
    t = Tensor(data)
    if t.size and not np.isfinite(t.data).all():
        raise ValueError("tensor data must be finite")
    return t


@dataclass
class _Node:
    out_id: int
    input_ids: tuple[Optional[int], ...]
    backward_fn: Callable[[np.ndarray], tuple[Optional[np.ndarray], ...]]


class Tape:
    """Reverse-mode differentiation record.

    Single-owner: record and replay on one logical thread. Backward visits
    nodes in strict reverse recording order and accumulates gradients per
    tensor id; gradient arrays always match the shapes of their tensors.

    A node owns exactly the arrays its backward closure reads: closures
    capture numpy arrays and plain values, never a Tensor. No node refers
    back to a Tensor or the tape, so reference counting alone frees a taped
    computation once its Tensors and the tape are released.
    """

    def __init__(self):
        self.nodes: list[_Node] = []
        self._next_id = 0

    def _new_id(self) -> int:
        tid = self._next_id
        self._next_id += 1
        return tid

    def leaf(self, data) -> Tensor:
        """Register external data (parameters, inputs) as a differentiable leaf."""
        return Tensor(data, tape=self, tid=self._new_id())

    def record(self, out_data: np.ndarray, inputs: Sequence[Tensor], backward_fn) -> Tensor:
        out = Tensor(out_data, tape=self, tid=self._new_id())
        self.nodes.append(_Node(out.tid, tuple(t.tid for t in inputs), backward_fn))
        return out


def _common_tape(inputs: Sequence[Tensor]) -> Optional[Tape]:
    tape = None
    for t in inputs:
        if t.tape is None:
            continue
        if tape is None:
            tape = t.tape
        elif tape is not t.tape:
            raise ValueError("operands recorded on different tapes")
    return tape


def _emit(out_data: np.ndarray, inputs: Sequence[Tensor], backward_fn) -> Tensor:
    tape = _common_tape(inputs)
    if tape is None:
        return Tensor(out_data)
    return tape.record(out_data, inputs, backward_fn)


def backward(tape: Tape, loss: Tensor) -> dict[int, Tensor]:
    """Accumulate gradients of a scalar loss for every leaf it depends on.

    Returns a map from leaf tensor id to gradient Tensor. An intermediate's
    gradient is dropped as soon as its node has run, so no intermediate is
    in the map, and neither is a leaf the loss does not depend on.
    """
    if loss.tape is not tape or loss.tid is None:
        raise ValueError("loss tensor was not recorded on this tape")
    if loss.size != 1:
        raise ShapeError(f"loss must be scalar, got shape {loss.shape}")
    grads: dict[int, np.ndarray] = {loss.tid: np.ones_like(loss.data)}
    for node in reversed(tape.nodes):
        g = grads.pop(node.out_id, None)
        if g is None:
            continue
        for tid, contrib in zip(node.input_ids, node.backward_fn(g)):
            if tid is None or contrib is None:
                continue
            if tid in grads:
                grads[tid] = grads[tid] + contrib
            else:
                grads[tid] = contrib
    return {tid: Tensor(g) for tid, g in grads.items()}


# ---------------------------------------------------------------------------
# MAC instrumentation
# ---------------------------------------------------------------------------


class MacCounter:
    """Tallies multiply-accumulate counts and activation sizes per region."""

    def __init__(self):
        self.total = 0
        self.by_region: dict[str, int] = {}
        self.peak_elems = 0
        self.peak_by_region: dict[str, int] = {}

    def region_total(self, *names: str) -> int:
        return sum(self.by_region.get(n, 0) for n in names)


_COUNTERS: list[MacCounter] = []
_REGIONS: list[str] = []


@contextmanager
def count_macs() -> Iterator[MacCounter]:
    counter = MacCounter()
    _COUNTERS.append(counter)
    try:
        yield counter
    finally:
        _COUNTERS.remove(counter)


@contextmanager
def mac_region(name: str) -> Iterator[None]:
    _REGIONS.append(name)
    try:
        yield
    finally:
        _REGIONS.pop()


def _tally(macs: int, out_elems: int) -> None:
    if not _COUNTERS:
        return
    region = _REGIONS[-1] if _REGIONS else "other"
    for c in _COUNTERS:
        c.total += macs
        c.by_region[region] = c.by_region.get(region, 0) + macs
        if out_elems > c.peak_elems:
            c.peak_elems = out_elems
        if out_elems > c.peak_by_region.get(region, 0):
            c.peak_by_region[region] = out_elems


# ---------------------------------------------------------------------------
# Parameter containers and tape binding
# ---------------------------------------------------------------------------


@dataclass
class LinearParams:
    """Affine map y = x @ weight.T + bias; weight is [out, in], bias is [out]."""

    weight: np.ndarray
    bias: Optional[np.ndarray] = None


# bind_params runs on every decode; caching the names keeps fields() off that path.
@lru_cache(maxsize=None)
def _field_names(cls: type) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _map_arrays(node, fn: Callable[[str, np.ndarray], object], path: str = ""):
    """node with every array replaced by fn(dotted name, array).

    Names are "a.b" for dataclass fields and "a[i]" for list and tuple items;
    dataclasses, lists and tuples are rebuilt, anything else is kept.
    """
    if isinstance(node, np.ndarray):
        return fn(path, node)
    if is_dataclass(node):
        dot = f"{path}." if path else ""
        cls = type(node)
        return cls(**{n: _map_arrays(getattr(node, n), fn, dot + n) for n in _field_names(cls)})
    if isinstance(node, list):
        return [_map_arrays(item, fn, f"{path}[{i}]") for i, item in enumerate(node)]
    if isinstance(node, tuple):
        return tuple([_map_arrays(item, fn, f"{path}[{i}]") for i, item in enumerate(node)])
    if isinstance(node, Tensor):
        raise TypeError(f"parameter {path!r} is already bound; pass storage arrays")
    return node


def flatten_params(obj) -> list[tuple[str, np.ndarray]]:
    """Depth-first list of (dotted name, array) over a nested parameter bundle."""
    out: list[tuple[str, np.ndarray]] = []
    _map_arrays(obj, lambda name, arr: out.append((name, arr)))
    return out


def bind_params(obj, tape: Optional[Tape]):
    """Wrap every array in a parameter bundle as a Tensor, sharing buffers.

    With a tape, arrays become differentiable leaves. Returns the bound bundle
    and a map from dotted parameter name to its leaf Tensor.
    """
    make = tape.leaf if tape is not None else Tensor
    leaves: dict[str, Tensor] = {}

    def bind(name, arr):
        leaves[name] = t = make(arr)
        return t

    return _map_arrays(obj, bind), leaves


# ---------------------------------------------------------------------------
# Shape helpers
# ---------------------------------------------------------------------------


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, extent in enumerate(shape):
        if extent == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


def _swap_last(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the last two axes.

    Leading batch extents must match or broadcast from 1.
    """
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ShapeError(f"matmul needs >=2-d operands, got {a.shape} x {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner extents differ: {a.shape} x {b.shape}")
    try:
        out = np.matmul(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"matmul batch extents incompatible: {a.shape} x {b.shape}") from exc
    m, k = a.shape[-2], a.shape[-1]
    n = b.shape[-1]
    _tally(int(np.prod(out.shape[:-2], dtype=np.int64)) * m * n * k, out.size)

    a_data, b_data = a.data, b.data

    def backward_fn(g):
        ga = _unbroadcast(np.matmul(g, _swap_last(b_data)), a_data.shape)
        gb = _unbroadcast(np.matmul(_swap_last(a_data), g), b_data.shape)
        return ga, gb

    return _emit(out, (a, b), backward_fn)


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """x @ weight.T + bias over the trailing axis."""
    w = p.weight
    if w.data.ndim != 2:
        raise ShapeError(f"linear weight must be 2-d, got {w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear input extent {x.shape[-1]} != weight in extent {w.shape[1]}")
    out_dim, in_dim = w.shape
    out = np.matmul(x.data, w.data.T)
    if p.bias is not None:
        out = out + p.bias.data
    _tally((x.size // in_dim) * out_dim * in_dim, out.size)

    x_data, w_data = x.data, w.data
    has_bias = p.bias is not None

    def backward_fn(g):
        gx = np.matmul(g, w_data)
        g2 = g.reshape(-1, out_dim)
        gw = np.matmul(g2.T, x_data.reshape(-1, in_dim))
        if has_bias:
            return gx.reshape(x_data.shape), gw, g2.sum(axis=0)
        return gx.reshape(x_data.shape), gw

    inputs = (x, w, p.bias) if has_bias else (x, w)
    return _emit(out, inputs, backward_fn)


# Values per row block of softmax_lastdim.
SOFTMAX_BLOCK = 1 << 15


def _softmax_rows(src: np.ndarray, out: np.ndarray) -> None:
    """Softmax of each row of src into out, which may be src itself."""
    np.subtract(src, src.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    if x.data.ndim == 0 or x.shape[-1] < 1:
        raise ShapeError(f"softmax needs a last extent >= 1, got {x.shape}")
    # Rows are independent, so each block of rows runs max, subtract, exp,
    # sum and divide while it is in cache, writing into one output buffer.
    # Per row these are the same operations in the same order as unblocked.
    n = x.shape[-1]
    out = np.empty(x.shape)
    rows_in = x.data.reshape(-1, n)
    rows_out = out.reshape(-1, n)
    step = max(1, SOFTMAX_BLOCK // n)
    for r in range(0, rows_in.shape[0], step):
        _softmax_rows(rows_in[r : r + step], rows_out[r : r + step])

    def backward_fn(g):
        return (out * (g - (g * out).sum(axis=-1, keepdims=True)),)

    return _emit(out, (x,), backward_fn)


def strip_attention(q: Tensor, k_t: Tensor, v: Tensor, scale: float) -> Tensor:
    """softmax(scale * q @ k_t) @ v for qk width 1, without the whole map.

    q is [B, H, N_q, 1], k_t [B, H, 1, N_kv] and v [B, H, N_kv, d]; the
    result is [B, H, N_q, d]. The chain matmul -> scalar_mul ->
    softmax_lastdim -> matmul is the reference: per row this runs the same
    operations in the same order, softmax_lastdim's row step included, on
    one block of query rows of every (batch, head) slice at a time in one
    reused buffer, and tallies the MACs and output sizes the four chained
    kernels tally, in attention's regions. Forward only: a tape needs the
    map, so taped callers use the chain.
    """
    if q.data.ndim != 4 or k_t.data.ndim != 4 or v.data.ndim != 4:
        raise ShapeError(f"strip_attention needs 4-d operands, got {q.shape}, {k_t.shape}, {v.shape}")
    b, h, n_q, qk = q.shape
    n_kv, d = k_t.shape[-1], v.shape[-1]
    if qk != 1 or n_kv < 1 or k_t.shape != (b, h, 1, n_kv) or v.shape != (b, h, n_kv, d):
        raise ShapeError(
            f"strip_attention needs [B,H,N_q,1] x [B,H,1,N_kv>=1] x [B,H,N_kv,d], "
            f"got {q.shape}, {k_t.shape}, {v.shape}"
        )
    if _common_tape((q, k_t, v)) is not None:
        raise ValueError("strip_attention has no backward; use the unfused chain on a tape")
    map_elems = b * h * n_q * n_kv
    with mac_region("attn_scores"):
        _tally(map_elems, map_elems)
    _tally(map_elems, map_elems)  # the logit scale, in the caller's region

    out = np.empty((b, h, n_q, d))
    step = max(1, SOFTMAX_BLOCK // n_kv)
    buf = np.empty((b, h, min(step, n_q), n_kv))
    for r in range(0, n_q, step):
        blk = buf[:, :, : min(step, n_q - r)]
        # Each logit is one rounded product, as in the chain's K=1 matmul;
        # only an exact zero can differ, in sign (BLAS adds products to
        # +0.0), and the softmax does not tell the two zeros apart.
        np.multiply(q.data[:, :, r : r + step], k_t.data, out=blk)
        if scale != 1.0:
            blk *= scale
        _softmax_rows(blk, blk)
        np.matmul(blk, v.data, out=out[:, :, r : r + step])
    with mac_region("attn_mix"):
        _tally(b * h * n_q * d * n_kv, out.size)
    return Tensor(out)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the trailing channel axis to zero mean / unit variance, then affine."""
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layernorm affine shapes {gamma.shape}/{beta.shape} != ({c},)")
    if eps <= 0:
        raise ValueError("layernorm eps must be positive")
    mu = x.data.mean(axis=-1, keepdims=True)
    centered = x.data - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = centered * inv_std
    gamma_data = gamma.data
    out = gamma_data * xhat + beta.data

    def backward_fn(g):
        lead = tuple(range(g.ndim - 1))
        g_gamma = (g * xhat).sum(axis=lead)
        g_beta = g.sum(axis=lead)
        dxhat = g * gamma_data
        gx = inv_std * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        return gx, g_gamma, g_beta

    return _emit(out, (x, gamma, beta), backward_fn)


def depthwise_conv(x: Tensor, kernel: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Per-channel spatial cross-correlation with zero same-padding.

    x is [B, C, H, W]; kernel is [C, kh, kw] with kh, kw in {1, 3}.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"depthwise_conv input must be [B,C,H,W], got {x.shape}")
    if kernel.data.ndim != 3 or kernel.shape[0] != x.shape[1]:
        raise ShapeError(f"kernel shape {kernel.shape} incompatible with input {x.shape}")
    channels, kh, kw = kernel.shape
    if kh not in (1, 3) or kw not in (1, 3):
        raise ShapeError(f"unsupported kernel size {kh}x{kw}; only 1 and 3 allowed")
    if bias is not None and bias.shape != (channels,):
        raise ShapeError(f"bias shape {bias.shape} != ({channels},)")
    b, c, h, w = x.shape
    ph, pw = kh // 2, kw // 2
    xp = np.pad(x.data, ((0, 0), (0, 0), (ph, ph), (pw, pw)))
    out = np.zeros((b, c, h, w))
    for dy in range(kh):
        for dx in range(kw):
            out += kernel.data[:, dy, dx][None, :, None, None] * xp[:, :, dy : dy + h, dx : dx + w]
    if bias is not None:
        out = out + bias.data[None, :, None, None]
    _tally(b * c * h * w * kh * kw, out.size)
    k_data = kernel.data
    has_bias = bias is not None

    def backward_fn(g):
        gxp = np.zeros_like(xp)
        gk = np.zeros((channels, kh, kw))
        for dy in range(kh):
            for dx in range(kw):
                gxp[:, :, dy : dy + h, dx : dx + w] += (
                    k_data[:, dy, dx][None, :, None, None] * g
                )
                gk[:, dy, dx] = (g * xp[:, :, dy : dy + h, dx : dx + w]).sum(axis=(0, 2, 3))
        gx = gxp[:, :, ph : ph + h, pw : pw + w]
        if has_bias:
            return gx, gk, g.sum(axis=(0, 2, 3))
        return gx, gk

    inputs = (x, kernel, bias) if has_bias else (x, kernel)
    return _emit(out, inputs, backward_fn)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean of a [B, C, H, W] tensor, yielding [B, C]."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool input must be [B,C,H,W], got {x.shape}")
    b, c, h, w = x.shape
    out = x.data.mean(axis=(2, 3))

    def backward_fn(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), (b, c, h, w)).copy(),)

    return _emit(out, (x,), backward_fn)


def adaptive_avg_pool(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Mean over non-overlapping cells; spatial extents must divide evenly."""
    if x.data.ndim != 4:
        raise ShapeError(f"adaptive_avg_pool input must be [B,C,H,W], got {x.shape}")
    b, c, h, w = x.shape
    if out_h < 1 or out_w < 1 or h % out_h or w % out_w:
        raise ShapeError(f"cannot pool {h}x{w} to {out_h}x{out_w}: non-divisible target")
    sh, sw = h // out_h, w // out_w
    cells = x.data.reshape(b, c, out_h, sh, out_w, sw)
    out = cells.mean(axis=(3, 5))

    def backward_fn(g):
        g_cells = np.broadcast_to(
            g[:, :, :, None, :, None] / (sh * sw), (b, c, out_h, sh, out_w, sw)
        )
        return (g_cells.reshape(b, c, h, w).copy(),)

    return _emit(out, (x,), backward_fn)


@lru_cache(maxsize=None)
def _interp_matrix(n_in: int, n_out: int) -> np.ndarray:
    """Row-interpolation matrix for half-pixel-center bilinear resampling.

    Source position for output index d is (d + 0.5) * n_in / n_out - 0.5,
    clamped to [0, n_in - 1]; each output row mixes at most two neighbors.
    """
    m = np.zeros((n_out, n_in))
    for d in range(n_out):
        src = (d + 0.5) * n_in / n_out - 0.5
        src = min(max(src, 0.0), n_in - 1.0)
        lo = int(math.floor(src))
        hi = min(lo + 1, n_in - 1)
        t = src - lo
        m[d, lo] += 1.0 - t
        m[d, hi] += t
    m.flags.writeable = False
    return m


def bilinear_resize(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Separable bilinear resampling with half-pixel centers and edge clamping."""
    if x.data.ndim != 4:
        raise ShapeError(f"bilinear_resize input must be [B,C,H,W], got {x.shape}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bilinear_resize target {out_h}x{out_w} must be positive")
    _, _, h, w = x.shape
    rows = _interp_matrix(h, out_h)
    cols = _interp_matrix(w, out_w)
    out = np.matmul(np.matmul(rows, x.data), cols.T)

    def backward_fn(g):
        return (np.matmul(np.matmul(rows.T, g), cols),)

    return _emit(out, (x,), backward_fn)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0.0)

    def backward_fn(g):
        return (g * (out > 0),)

    return _emit(out, (x,), backward_fn)


def gelu(x: Tensor) -> Tensor:
    """Exact Gaussian-error-function GELU."""
    x_data = x.data
    cdf = 0.5 * (1.0 + erf(x_data / math.sqrt(2.0)))
    out = x_data * cdf

    def backward_fn(g):
        pdf = np.exp(-0.5 * x_data * x_data) / math.sqrt(2.0 * math.pi)
        return (g * (cdf + x_data * pdf),)

    return _emit(out, (x,), backward_fn)


def sigmoid(x: Tensor) -> Tensor:
    e = np.exp(-np.abs(x.data))
    out = np.where(x.data >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward_fn(g):
        return (g * out * (1.0 - out),)

    return _emit(out, (x,), backward_fn)


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add operands differ: {a.shape} vs {b.shape}")
    out = a.data + b.data

    def backward_fn(g):
        return g, g

    return _emit(out, (a, b), backward_fn)


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul operands differ: {a.shape} vs {b.shape}")
    a_data, b_data = a.data, b.data
    out = a_data * b_data
    _tally(out.size, out.size)

    def backward_fn(g):
        return g * b_data, g * a_data

    return _emit(out, (a, b), backward_fn)


def scalar_mul(x: Tensor, c: float) -> Tensor:
    out = x.data * c
    _tally(out.size, out.size)

    def backward_fn(g):
        return (g * c,)

    return _emit(out, (x,), backward_fn)


def scale_channels(x: Tensor, gate: Tensor) -> Tensor:
    """Multiply a [B, C, H, W] tensor by a per-(batch, channel) gate [B, C]."""
    if x.data.ndim != 4 or gate.shape != x.shape[:2]:
        raise ShapeError(f"scale_channels: gate {gate.shape} must match leading dims of {x.shape}")
    x_data, gate4 = x.data, gate.data[:, :, None, None]
    out = x_data * gate4
    _tally(out.size, out.size)

    def backward_fn(g):
        return g * gate4, (g * x_data).sum(axis=(2, 3))

    return _emit(out, (x, gate), backward_fn)


def concat_lastdim(parts: Sequence[Tensor]) -> Tensor:
    if not parts:
        raise ShapeError("concat_lastdim needs at least one operand")
    lead = parts[0].shape[:-1]
    for p in parts:
        if p.shape[:-1] != lead:
            raise ShapeError(f"concat leading extents differ: {[p.shape for p in parts]}")
    out = np.concatenate([p.data for p in parts], axis=-1)
    extents = [p.shape[-1] for p in parts]

    def backward_fn(g):
        grads = []
        start = 0
        for e in extents:
            grads.append(g[..., start : start + e])
            start += e
        return tuple(grads)

    return _emit(out, tuple(parts), backward_fn)


def slice_lastdim(x: Tensor, start: int, stop: int) -> Tensor:
    """Entries [start, stop) of the last axis, as a view of x's buffer."""
    if x.data.ndim == 0 or not 0 <= start < stop <= x.shape[-1]:
        raise ShapeError(f"cannot take [{start}, {stop}) of the last axis of {x.shape}")
    out = x.data[..., start:stop]
    x_shape = x.shape

    def backward_fn(g):
        gx = np.zeros(x_shape)
        gx[..., start:stop] = g
        return (gx,)

    return _emit(out, (x,), backward_fn)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    out = x.data.reshape(shape)
    x_shape = x.shape

    def backward_fn(g):
        return (g.reshape(x_shape),)

    return _emit(out, (x,), backward_fn)


def transpose(x: Tensor, axes: Sequence[int]) -> Tensor:
    axes = tuple(axes)
    out = np.ascontiguousarray(x.data.transpose(axes))

    def backward_fn(g):
        return (np.ascontiguousarray(g.transpose(tuple(np.argsort(axes)))),)

    return _emit(out, (x,), backward_fn)


def sum_all(x: Tensor) -> Tensor:
    out = np.asarray(x.data.sum())
    x_shape = x.shape

    def backward_fn(g):
        return (np.broadcast_to(g, x_shape).copy() if x_shape else np.asarray(g),)

    return _emit(out, (x,), backward_fn)
