"""Dense fp64 tensor kernels with tape-based reverse-mode differentiation.

Every kernel is a pure function: it computes its result eagerly with numpy
and returns it through _emit, its one exit, which tallies its MACs, wraps it
as a read-only Tensor and, when any input lives on a Tape, records a node
whose backward closure produces analytic input gradients. The one exception,
blocked_attention, is forward-only and refuses taped operands. Reduction
orders inside each kernel are fixed, so repeated runs are bitwise identical.

Multiply-accumulate instrumentation: kernels that perform dense arithmetic
(matmul, linear, depthwise_conv, elementwise multiplies) report MAC counts
to any active MacCounter. Softmax, normalization, pooling and resampling are
deliberately uncounted; the complexity model only prices score/weighted-sum
and projection stages.

Strip attention: at qk width 1, blocked_attention's logits are rank one,
scale * q_i * k_j, so a head's softmax mix depends on one scalar per query,
tau_i = scale * q_i * r, with the keys centred and scaled by their
half-range r to u_j in [-1, 1]. Where its exact loop (an exp and d + 1 MACs
per map entry) would cost more, the kernel evaluates the mix from P = 14
moments per integer bin of tau, sum_j e^(t0 u_j - |t0|) u_j^n / n! [v_j | 1],
and a degree-13 polynomial in tau - t0 per query: two GEMMs, exact to
(1/2)^14 / 14! = 7.0e-16 of a row's weights. The path is chosen per call
from the shapes and the spread of tau (_moments_pay): the moments run where
their GEMMs, (bins P N_kv + N_q P) (d + 1) MACs at a measured 1.5 times an
exact-loop MAC, plus per-bin and per-head overheads, cost less than the
exact loop's N_q N_kv (d + 2), and never on a non-finite spread. So a
default decode (4 keys a call) keeps the exact loop.

Memory: the row-wise kernels layernorm and gelu work on one block of
BLOCK_VALUES values at a time; blocked_attention on one block of query rows
of every (batch, head) slice, at most BLOCK_VALUES logits per slice, so it
never holds a whole attention map (its moments path holds one head's
[P, N_kv] powers and query blocks of at most BLOCK_VALUES values per
array); and depthwise_conv on one group of whole channel planes of at most
BLOCK_VALUES values (at least one plane); its forward and both its
gradients add each tap into the in-range part of the group's output, so
nothing is padded. softmax_lastdim works on the whole array in its output,
beside only the row maxima and sums. So an untaped kernel's scratch is one
block or a few values per row: only outputs, and the arrays a taped call
keeps for its backward, have the operands' size.
Importing the module tunes glibc's malloc for the whole process
(_retain_heap): freed heap stays mapped, so repeated decodes do not fault
their working set in again.
"""

from __future__ import annotations

import ctypes
import itertools
import math
import os
from contextlib import contextmanager
from dataclasses import dataclass, fields, is_dataclass
from functools import lru_cache
from typing import Callable, Iterator, Optional, Sequence

import numpy as np


class ShapeError(ValueError):
    """Raised when operand shapes violate a kernel's contract."""


# ---------------------------------------------------------------------------
# Heap
# ---------------------------------------------------------------------------

# glibc mallopt parameters (malloc.h) and the values _retain_heap sets.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 8 << 20
_TRIM_THRESHOLD = 1 << 30


def _retain_heap() -> bool:
    """Keep freed heap pages mapped from one decode to the next, on glibc.

    A decode frees nearly all it allocated when it ends. glibc hands the top
    of its heap back to the OS once more than twice its mmap threshold is
    free there, and the next decode faults those pages in again, zeroed: at
    256x256 taped, 4K-18K minor faults and 15-40 ms of system time in a
    ~150 ms op. How much is trimmed depends on where long-lived arrays
    happen to lie in the heap, so any change to what ran before moves it.
    Trimming only past 1 GiB of free top lets each op reuse the last one's
    pages. Setting it also stops glibc raising its mmap threshold as large
    blocks are freed, so that is pinned too: an array of 8 MiB or more that
    freed heap cannot hold gets its own mapping, returned on free. Kernel
    scratch is one block of BLOCK_VALUES values (256 KiB), per (batch, head)
    slice in blocked_attention, so in an untaped decode only whole arrays
    are that large: at 512x1024, the 8-MiB stage-1 activations. Put on the
    heap, freed ones leave holes other sizes do not fill: when the
    full-width decode still formed its 128-MiB stage-1 maps, a threshold of
    8 MiB + 4 KiB raised its peak RSS from 389 to 440 MiB, and one of
    32 MiB by a fifth. Returns whether both settings took; without glibc it
    changes nothing.
    """
    try:
        if not os.confstr("CS_GNU_LIBC_VERSION"):
            return False
    except (AttributeError, ValueError, OSError):
        return False
    mallopt = ctypes.CDLL(None).mallopt
    return bool(mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD)) and bool(mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD))


_HEAP_RETAINED = _retain_heap()


# ---------------------------------------------------------------------------
# Tensor and Tape
# ---------------------------------------------------------------------------


class Tensor:
    """Immutable dense fp64 array value, optionally registered on a Tape.

    Tensor(data) wraps an array a caller keeps (a parameter, feature or test
    input) as a read-only view, so in-place writes to the array show in it;
    Tape.leaf puts one on a tape. A kernel's result is wrapped by _emit instead."""

    __slots__ = ("data", "tape", "tid")

    def __init__(self, data):
        self.data = np.asarray(data, dtype=np.float64).view()
        self.data.flags.writeable = False
        self.tape = self.tid = None

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return int(self.data.size)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, taped={self.tape is not None})"


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
        self._ids = itertools.count()  # tensor ids, for leaves and node outputs alike

    def leaf(self, data) -> Tensor:
        """Register external data (parameters, inputs) as a differentiable leaf."""
        t = Tensor(data)
        t.tape, t.tid = self, next(self._ids)
        return t


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


def _emit(out: np.ndarray, inputs: Sequence[Tensor], backward_fn, macs: Optional[int] = None) -> Tensor:
    """Every kernel's one exit: tally macs, if given, with out's size; mark
    out read-only in place and wrap it with no copy or view, since it is the
    kernel's own array or a view of a read-only operand (a 0-d numpy scalar
    becomes an array first); and, on the inputs' tape, record its node."""
    if type(out) is not np.ndarray:
        out = np.asarray(out)
    if macs is not None:
        _tally(macs, out.size)
    out.flags.writeable = False
    tape = _common_tape(inputs)
    t = object.__new__(Tensor)
    t.data, t.tape, t.tid = out, tape, None
    if tape is not None:
        t.tid = next(tape._ids)
        tape.nodes.append(_Node(t.tid, tuple(i.tid for i in inputs), backward_fn))
    return t


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


@dataclass(frozen=True)
class LinearParams:
    """Affine map y = x @ weight.T + bias; weight is [out, in], bias is [out]."""

    weight: np.ndarray
    bias: Optional[np.ndarray] = None


# Every taped decode binds its parameters; caching the names keeps fields() off that path.
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
    and a map from dotted parameter name to its leaf Tensor. Each Tensor is a
    read-only view of its array, so an in-place write to the array shows in
    it. An array that is not float64 raises TypeError naming the parameter:
    Tensor would copy it, and writes to the array would not show.
    """
    make = tape.leaf if tape is not None else Tensor
    leaves: dict[str, Tensor] = {}

    def bind(name, arr):
        if arr.dtype != np.float64:
            raise TypeError(f"parameter {name!r} is {arr.dtype}, not float64")
        leaves[name] = t = make(arr)
        return t

    return _map_arrays(obj, bind), leaves


# ---------------------------------------------------------------------------
# Shape helpers
# ---------------------------------------------------------------------------


def _swap_last(a: np.ndarray) -> np.ndarray:
    return np.swapaxes(a, -1, -2)


# ---------------------------------------------------------------------------
# libm-exact transcendentals
# ---------------------------------------------------------------------------

# The math function each libm_exact ufunc must match, and the range its probe
# covers: normal_array's log and cos arguments, and erf's exp(-x*x).
_LIBM = {
    np.log: (math.log, 2.0**-53, 1.0),
    np.cos: (math.cos, 0.0, 2.0 * math.pi),
    np.exp: (math.exp, -64.0, -1.0),
}
_PROBE_SIZE = 1 << 12


@lru_cache(maxsize=None)
def _view_is_libm(ufunc: np.ufunc) -> bool:
    """Whether ufunc on a reversed view gives math's bits on _PROBE_SIZE
    evenly spaced inputs across its _LIBM range."""
    scalar, lo, hi = _LIBM[ufunc]
    x = np.linspace(lo, hi, _PROBE_SIZE)
    want = np.fromiter(map(scalar, x.tolist()), np.float64, x.size)
    return np.array_equal(ufunc(x[::-1])[::-1].view(np.int64), want.view(np.int64))


def libm_exact(ufunc: np.ufunc, x: np.ndarray) -> np.ndarray:
    """np.log, np.cos or np.exp of a 1-d array, bit for bit equal to calling
    the math function (libm) once per element.

    numpy's loop for a contiguous array may be SIMD code that differs from
    libm in the last bit: with numpy 2.4 on x86-64, log on (0, 1] in ~0.35%
    and exp on [-64, -1] in ~4.6% of draws. A negative-stride view is not
    contiguous, and there numpy runs its scalar loop, which calls libm. Which
    loop numpy picks is its own detail, so the view is used only where a
    one-time probe (_view_is_libm) finds it equal to math; otherwise each
    element goes through math.
    """
    if _view_is_libm(ufunc):
        return ufunc(x[::-1])[::-1]
    return np.fromiter(map(_LIBM[ufunc][0], x.tolist()), np.float64, x.size)


# Cephes erf (Moshier 1989, Methods and Programs for Mathematical Functions,
# ndtr.c), the algorithm scipy.special.erf ships: erf(x) = x*T(x*x)/U(x*x)
# for |x| <= 1, else 1 - erfc(|x|) with x's sign, where erfc(x) =
# exp(-x*x)*P(x)/Q(x) below 8. U and Q lead with an unlisted 1.
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)


def _polevl(x: np.ndarray, coef: tuple, out: Optional[np.ndarray] = None) -> np.ndarray:
    """Cephes polevl: coef[0]*x**n + ... + coef[n], Horner in its order."""
    y = np.multiply(x, coef[0], out=out)
    y += coef[1]
    for c in coef[2:]:
        y *= x
        y += c
    return y


def _p1evl(x: np.ndarray, coef: tuple) -> np.ndarray:
    """Cephes p1evl: _polevl with a leading coefficient 1 not listed."""
    y = x + coef[0]
    for c in coef[1:]:
        y *= x
        y += c
    return y


def _erf(t: np.ndarray, out: np.ndarray) -> None:
    """Cephes erf of a 1-d array into out, bit for bit scipy.special.erf.

    The |t| <= 1 rational runs on every entry, the others clamped to 1, and
    only those others are redone through erfc. From 8 up Cephes's erfc is at
    most erfc(8) ~ 1.1e-29 (its R/S branch, or 0 past its MAXLOG underflow
    clamp), so 1 - erfc rounds to 1; clamping |t| to 8 gives the same 1 and
    keeps exp's argument in [-64, -1).
    """
    with np.errstate(over="ignore"):  # a square past 1e308 only marks its entry
        z = t * t
    big = np.flatnonzero(z > 1.0)  # just the |t| > 1 entries; NaN stays out
    c = t
    if big.size:
        c = t.copy()
        c[big] = 1.0
        z[big] = 1.0
    _polevl(z, _ERF_T, out=out)
    out *= c
    out /= _p1evl(z, _ERF_U)
    if big.size:
        a = t[big]
        x = np.minimum(np.abs(a), 8.0)
        erfc = libm_exact(np.exp, -x * x) * _polevl(x, _ERFC_P)
        erfc /= _p1evl(x, _ERFC_Q)
        out[big] = np.copysign(1.0 - erfc, a)


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Batched matrix product over the last two axes: [..., m, k] x [..., k, n].

    Both operands are at least 2-d and have the same leading extents.
    """
    if a.data.ndim < 2 or a.shape[:-2] != b.shape[:-2] or a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul needs [..., m, k] x [..., k, n] with equal leading extents, got {a.shape} x {b.shape}")
    a_data, b_data = a.data, b.data
    out = np.matmul(a_data, b_data)

    def backward_fn(g):
        return np.matmul(g, _swap_last(b_data)), np.matmul(_swap_last(a_data), g)

    return _emit(out, (a, b), backward_fn, macs=out.size * a.shape[-1])


def linear(x: Tensor, p: LinearParams) -> Tensor:
    """x @ weight.T + bias over the trailing axis."""
    w = p.weight
    if w.data.ndim != 2:
        raise ShapeError(f"linear weight must be 2-d, got {w.shape}")
    if x.shape[-1] != w.shape[1]:
        raise ShapeError(f"linear input extent {x.shape[-1]} != weight in extent {w.shape[1]}")
    out_dim, in_dim = w.shape
    if p.bias is not None and p.bias.shape != (out_dim,):
        raise ShapeError(f"linear bias shape {p.bias.shape} != ({out_dim},)")
    out = np.matmul(x.data, w.data.T)
    if p.bias is not None:
        out += p.bias.data

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
    return _emit(out, inputs, backward_fn, macs=x.size * out_dim)


# Values per block of layernorm, depthwise_conv and gelu, per (batch, head)
# slice of a blocked_attention block, and per array of a moments query block.
BLOCK_VALUES = 1 << 15

# Strip attention from per-bin moments (blocked_attention at qk width 1).
# Bins of width 1 centred on the integers hold each query's tau within 1/2
# of its centre, so the first term the expansion drops is at most
# (1/2)**P / P! of the row's weights; P is the fewest moments that put it
# within four ulps of 1: 14, at 7.0e-16.
_BIN_WIDTH = 1.0
_MOMENTS = next(p for p in itertools.count(1) if (_BIN_WIDTH / 2) ** p / math.factorial(p) <= 4 * np.finfo(float).eps)
# The moments path's cost in exact-loop MACs, from one-BLAS-thread timings of
# both paths over 280 shapes (BENCH_moments.json "crossover"): a small GEMM's
# MAC costs 1.5 of the exact loop's, which also pays an exp and a few
# elementwise passes per map entry; a bin and a (batch, head) slice add
# Python and call overhead worth 50k and 100k of them.
_MOMENT_MAC_COST = 1.5
_BIN_COST = 50_000
_HEAD_COST = 100_000


def _softmax_rows(src: np.ndarray, out: np.ndarray) -> None:
    """Softmax of each row of src into out, which may be src itself.

    Only the row maxima and row sums are formed apart from out.
    """
    np.subtract(src, src.max(axis=-1, keepdims=True), out=out)
    np.exp(out, out=out)
    out /= out.sum(axis=-1, keepdims=True)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Softmax over the last axis, stabilized by max subtraction."""
    if x.data.ndim == 0 or x.shape[-1] < 1:
        raise ShapeError(f"softmax needs a last extent >= 1, got {x.shape}")
    out = np.empty(x.shape)
    _softmax_rows(x.data, out)

    def backward_fn(g):
        return (out * (g - (g * out).sum(axis=-1, keepdims=True)),)

    return _emit(out, (x,), backward_fn)


def blocked_attention(q: Tensor, k_t: Tensor, v: Tensor, scale: float) -> Tensor:
    """softmax(scale * q @ k_t) @ v at any qk width, without the whole map.

    q is [B, H, N_q, qk], k_t [B, H, qk, N_kv] and v [B, H, N_kv, d]; the
    result is [B, H, N_q, d]. It tallies the MACs and output sizes that its
    reference, the chain matmul -> scalar_mul -> softmax_lastdim -> matmul,
    tallies, in attention's regions, whichever path runs. Forward only: a
    tape needs the map, so taped callers use the chain.

    The exact loop works on one block of query rows of every (batch, head)
    slice at a time, in reused buffers. At qk width > 1 a block runs the
    chain's own steps on its rows: the logits matmul, the scale,
    _softmax_rows and the value mix. At qk width 1 each row's logits are
    rank one, scale * (q * k_m), and rounding is monotone, so the chain's
    row max is the larger of scale * (q * kmax) and scale * (q * kmin), bit
    for bit. A block subtracts that shift and takes exp; one GEMM against
    [v | 1] then gives the unnormalized mix and the row sums, and the mix is
    divided by them (deferred normalization: Milakov & Gimelshein 2018,
    arXiv 1805.02867). The shifted row holds an exact 1, so its sum is at
    least 1. Each logit is one rounded product, as in the chain's K=1
    matmul; only an exact zero can differ, in sign, and exp does not tell
    the two zeros apart. So the strip result differs from the chain's only
    in the rounding of the row sums and of the normalization.

    At qk width 1 that loop still pays an exp and d + 1 MACs per map entry.
    Where this costs more, the strip runs from per-bin moments (_strip_moments). A row
    constant does not change a softmax. So with c and r the middle and
    half-range of a head's keys, and u_m = (k_m - c) / r in [-1, 1], a
    query's output depends on tau = scale * q * r alone:
    o(tau) = sum_m e^(tau u_m) [v_m | 1], the mix over its last column.
    About a bin centre t0, e^(tau u) = e^(t0 u) sum_n (tau - t0)^n u^n / n!.
    So a bin needs P = _MOMENTS moments,
    M_n = sum_m e^(t0 u_m - |t0|) u_m^n / n! [v_m | 1], one [P, N_kv] GEMM,
    and a query the polynomial sum_n (tau - t0)^n M_n, one Vandermonde GEMM
    per block of query rows. This is the fast Gauss transform's expansion
    (Greengard & Strain 1991; Yang, Duraiswami, Gumerov & Davis, ICCV
    2003). The bins are the integers nearest some query's tau, so
    |tau - t0| <= 1/2, and the dropped terms are at most
    (1/2)^P / P! = 7.0e-16 of the row's weights. Every sum is of positive
    weights, and the polynomial's terms add to at most e times its value.
    So the result is within a few ulps of max|v| of the exact loop's, but
    not bit for bit. A head whose keys are all equal mixes its values' mean.

    _moments_pay picks the path per call from the shapes and each head's
    tau range alone. In exact-loop MACs, the exact loop costs
    N_q N_kv (d + 2) a head, and the moments
    1.5 (bins P N_kv + N_q P) (d + 1) + 50k bins + 100k, where bins counts
    the integers from rint(tau_min) to rint(tau_max). The moments run when
    they cost less and every spread is finite. The constants were measured
    (BENCH_moments.json).
    """
    if q.data.ndim != 4 or k_t.data.ndim != 4 or v.data.ndim != 4:
        raise ShapeError(f"blocked_attention needs 4-d operands, got {q.shape}, {k_t.shape}, {v.shape}")
    b, h, n_q, qk = q.shape
    n_kv, d = k_t.shape[-1], v.shape[-1]
    if n_kv < 1 or k_t.shape != (b, h, qk, n_kv) or v.shape != (b, h, n_kv, d):
        raise ShapeError(
            f"blocked_attention needs [B,H,N_q,qk] x [B,H,qk,N_kv>=1] x [B,H,N_kv,d], "
            f"got {q.shape}, {k_t.shape}, {v.shape}"
        )
    if _common_tape((q, k_t, v)) is not None:
        raise ValueError("blocked_attention has no backward; use the unfused chain on a tape")
    map_elems = b * h * n_q * n_kv
    with mac_region("attn_scores"):
        _tally(map_elems * qk, map_elems)
    _tally(map_elems, map_elems)  # the logit scale, in the caller's region

    q_data, k_data, v_data = q.data, k_t.data, v.data
    out = np.empty((b, h, n_q, d))
    if qk == 1:
        kmax, kmin = k_data.max(axis=-1, keepdims=True), k_data.min(axis=-1, keepdims=True)
        v_data = np.concatenate((v_data, np.ones((b, h, n_kv, 1))), axis=-1)
    if qk == 1 and _moments_pay(q_data, kmax, kmin, scale, n_kv, d):
        _strip_moments(q_data[..., 0], k_data[:, :, 0], v_data, scale, out)
    else:
        step = max(1, BLOCK_VALUES // n_kv)
        buf = np.empty((b, h, min(step, n_q), n_kv))
        logits = np.multiply if qk == 1 else np.matmul
        if qk == 1:
            mix_buf = np.empty((b, h, min(step, n_q), d + 1))  # per row: unnormalized mix, row sum
        for r in range(0, n_q, step):
            rows = slice(r, r + step)
            blk, q_rows = buf[:, :, : min(step, n_q - r)], q_data[:, :, rows]
            logits(q_rows, k_data, out=blk)
            if scale != 1.0:
                blk *= scale
            if qk == 1:
                blk -= np.maximum(q_rows * kmax * scale, q_rows * kmin * scale)
                np.exp(blk, out=blk)
                mixed = np.matmul(blk, v_data, out=mix_buf[:, :, : blk.shape[2]])
                np.divide(mixed[..., :d], mixed[..., d:], out=out[:, :, rows])
            else:
                _softmax_rows(blk, blk)
                np.matmul(blk, v_data, out=out[:, :, rows])
    with mac_region("attn_mix"):
        return _emit(out, (q, k_t, v), None, macs=b * h * n_q * d * n_kv)


def _moments_pay(q: np.ndarray, kmax: np.ndarray, kmin: np.ndarray, scale: float, n_kv: int, d: int) -> bool:
    """Whether a strip call's moments path costs less than its exact loop.

    q is [B, H, N_q, 1] and kmax, kmin [B, H, 1, 1]. The exact loop costs
    N_q N_kv (d + 2) MACs per head. The moments path costs, in the same
    units, _MOMENT_MAC_COST (bins P N_kv + N_q P) (d + 1) + bins _BIN_COST
    + _HEAD_COST, where bins counts the integers from rint(tau_min) to
    rint(tau_max), at most N_q. Most calls are settled by their shapes
    alone: at one bin a head, the moments path loses whenever N_kv is below
    about 1.5 P, as in every call of a default decode (N_kv = 4). Otherwise
    the spreads decide; a non-finite one keeps the exact loop, whose
    non-finite output the caller reports.
    """
    b, h, n_q, _ = q.shape
    per_value = _MOMENT_MAC_COST * _MOMENTS * (d + 1)
    exact = n_q * n_kv * (d + 2)
    per_head, per_bin = per_value * n_q + _HEAD_COST, per_value * n_kv + _BIN_COST
    if per_head + per_bin >= exact:
        return False
    with np.errstate(over="ignore", invalid="ignore"):
        sr = (kmax / 2 - kmin / 2) * scale  # scale * r, as _strip_moments forms it
        span = np.abs(np.rint(q.max(axis=-2, keepdims=True) * sr) - np.rint(q.min(axis=-2, keepdims=True) * sr))
    if not np.isfinite(span).all():
        return False
    bins = np.minimum(span + 1, n_q).sum()
    return per_head * b * h + per_bin * bins < exact * b * h


def _strip_moments(q: np.ndarray, k: np.ndarray, v1: np.ndarray, scale: float, out: np.ndarray) -> None:
    """blocked_attention at qk width 1 from per-bin moments, into out.

    q is [B, H, N_q], k [B, H, N_kv], v1 the values with a column of ones
    [B, H, N_kv, d + 1] and out [B, H, N_q, d]. The moments of a bin are
    [P, d + 1]; the query side runs in blocks of at most BLOCK_VALUES values
    of the Vandermonde rows [rows, P] and the mix [rows, d + 1].
    """
    d, p = out.shape[-1], _MOMENTS
    rows = max(1, BLOCK_VALUES // max(p, d + 1))
    powers = np.empty((p, k.shape[-1]))  # u^n / n!
    weighted = np.empty_like(powers)
    moments = np.empty((p, d + 1))
    vander = np.empty((p, min(rows, q.shape[-1])))  # (tau - t0)^n, transposed
    vander[0] = 1.0
    for i, j in np.ndindex(q.shape[:2]):
        k_bh, v_bh, out_bh = k[i, j], v1[i, j], out[i, j]
        kmax, kmin = k_bh.max(), k_bh.min()
        r = kmax / 2 - kmin / 2
        if r == 0:  # all keys equal: every weight is the same
            out_bh[:] = v_bh[:, :d].mean(axis=0)
            continue
        u = (k_bh - (kmax / 2 + kmin / 2)) / r
        tau = q[i, j] * (scale * r)
        centres = np.rint(tau)
        powers[0] = 1.0
        for n in range(1, p):
            np.multiply(powers[n - 1], u, out=powers[n])
            powers[n] /= n
        bins = np.unique(centres)
        for t0 in bins:
            np.multiply(powers, np.exp(t0 * u - abs(t0)), out=weighted)
            np.matmul(weighted, v_bh, out=moments)
            held = None if bins.size == 1 else np.flatnonzero(centres == t0)
            for s in range(0, q.shape[-1] if held is None else held.size, rows):
                sel = slice(s, s + rows) if held is None else held[s : s + rows]
                delta = tau[sel] - t0
                vt = vander[:, : delta.size]
                vt[1] = delta
                for n in range(2, p):
                    np.multiply(vt[n - 1], delta, out=vt[n])
                mixed = vt.T @ moments
                out_bh[sel] = mixed[:, :d] / mixed[:, d:]


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-6) -> Tensor:
    """Normalize the trailing channel axis to zero mean / unit variance, then affine.

    Rows are independent, so each block of max(1, BLOCK_VALUES // C) rows
    runs mean, center, variance, inverse deviation, normalize and affine
    while it is in cache, writing into one output array: per row the same
    operations in the same order as on the whole array. Untaped, a block's
    normalized rows overwrite its centered ones; a taped call writes them,
    and the inverse deviations, into the whole arrays its backward reads.
    A mean is np.add.reduce's sum divided by C: ndarray.mean's arithmetic,
    so its bits, without its Python-level wrapper.
    """
    if x.data.ndim == 0 or x.shape[-1] < 1:
        raise ShapeError(f"layernorm needs a channel extent >= 1, got {x.shape}")
    c = x.shape[-1]
    if gamma.shape != (c,) or beta.shape != (c,):
        raise ShapeError(f"layernorm affine shapes {gamma.shape}/{beta.shape} != ({c},)")
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"layernorm eps must be finite and positive, got {eps}")
    gamma_data, beta_data = gamma.data, beta.data
    taped = _common_tape((x, gamma, beta)) is not None
    out = np.empty(x.shape)
    rows_in, rows_out = x.data.reshape(-1, c), out.reshape(-1, c)
    if taped:
        xhat, inv_std = np.empty(x.shape), np.empty(x.shape[:-1] + (1,))
        xhat_rows, inv_rows = xhat.reshape(-1, c), inv_std.reshape(-1, 1)
    step = max(1, BLOCK_VALUES // c)
    for r in range(0, rows_in.shape[0], step):
        blk = rows_in[r : r + step]
        centered = blk - np.add.reduce(blk, axis=-1, keepdims=True) / c
        inv = 1.0 / np.sqrt(np.add.reduce(centered * centered, axis=-1, keepdims=True) / c + eps)
        if taped:
            inv_rows[r : r + step] = inv
        xh = np.multiply(centered, inv, out=xhat_rows[r : r + step] if taped else centered)
        dst = np.multiply(gamma_data, xh, out=rows_out[r : r + step])
        dst += beta_data

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


def _tap_sum(src: np.ndarray, k: np.ndarray, taps: Sequence, bias: Optional[np.ndarray] = None) -> np.ndarray:
    """Sum over taps of k[:, dy, dx] times src shifted by the tap, plus bias.

    src is [B, C, H, W] and k is [C, kh, kw]; taps are _taps's
    (dy, dx, lo, hi, shift, wraps). Works on one group of whole channel
    planes of one batch item at a time, at most BLOCK_VALUES values and at
    least one plane. Tap by tap in list order, it multiplies the group,
    shifted by the tap's offset along the flattened H*W axis, into one
    reused product buffer, zeroes the products that wrapped around a row
    end, and adds the buffer into the in-range span of the group's zeroed
    output; then it adds the bias in place. The padded sum adds +-0 where
    this adds +0 or nothing, and an output that starts at +0 never becomes
    -0, so for a finite k this is bit for bit the padded sum.
    """
    b, c, h, w = src.shape
    src_flat = src.reshape(b, c, h * w)
    planes = max(1, BLOCK_VALUES // max(1, h * w))
    out = np.empty((b, c, h * w))
    prod = np.empty(min(planes, c) * h * w)
    for n in range(b):
        for c0 in range(0, c, planes):
            group = out[n, c0 : c0 + planes]
            src_group, k_group = src_flat[n, c0 : c0 + planes], k[c0 : c0 + planes]
            group.fill(0.0)
            for dy, dx, lo, hi, shift, wraps in taps:
                dst = prod[: group.shape[0] * (hi - lo)].reshape(-1, hi - lo)
                np.multiply(k_group[:, dy, dx, None], src_group[:, lo + shift : hi + shift], out=dst)
                if wraps:
                    # in either direction, every w-th product from w - 1 crossed a row end
                    dst[:, w - 1 :: w] = 0.0
                group[:, lo:hi] += dst
            if bias is not None:
                group += bias[c0 : c0 + planes, None]
    return out.reshape(b, c, h, w)


@lru_cache(maxsize=None)
def _taps(kh: int, kw: int, h: int, w: int) -> tuple:
    """depthwise_conv's taps of a kh x kw kernel on an h x w plane, in
    kernel order: (dy, dx, lo, hi, shift, wraps) for each tap that reaches
    the plane. Output j reads input j + shift; a tap's span [lo, hi) holds
    every output whose input row is in range, less an end that would leave
    the plane; wraps marks a column offset, whose products cross row ends.
    """
    taps = []
    for dy in range(kh):
        for dx in range(kw):
            dr, dc = dy - kh // 2, dx - kw // 2
            lo = max(0, -dr) * w + max(0, -dc)
            hi = min(h, h - dr) * w - max(0, dc)
            if lo < hi and abs(dc) < w:
                taps.append((dy, dx, lo, hi, dr * w + dc, dc != 0))
    return tuple(taps)


def depthwise_conv(x: Tensor, kernel: Tensor, bias: Tensor) -> Tensor:
    """Per-channel spatial cross-correlation with zero same-padding, plus bias.

    x is [B, C, H, W]; kernel is [C, kh, kw] with kh, kw in {1, 3}; bias
    is [C]. Nothing is padded: the forward and both gradients run _tap_sum
    over one tap list. The input gradient is g correlated with the flipped
    kernel, taps in reverse order, which adds the products in the padded
    backward's order. A tap's kernel gradient sums g times x shifted by that
    tap alone (a kernel of ones): x in range, but with -0 read as +0, and +0
    where the padding was. numpy sums any run of zeros to +0, so that sign
    never shows in the sum.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"depthwise_conv input must be [B,C,H,W], got {x.shape}")
    if kernel.data.ndim != 3 or kernel.shape[0] != x.shape[1]:
        raise ShapeError(f"kernel shape {kernel.shape} incompatible with input {x.shape}")
    channels, kh, kw = kernel.shape
    if kh not in (1, 3) or kw not in (1, 3):
        raise ShapeError(f"unsupported kernel size {kh}x{kw}; only 1 and 3 allowed")
    if bias.shape != (channels,):
        raise ShapeError(f"bias shape {bias.shape} != ({channels},)")
    b, c, h, w = x.shape
    x_data, k_data = x.data, kernel.data
    taps = _taps(kh, kw, h, w)
    out = _tap_sum(x_data, k_data, taps, bias.data)

    def backward_fn(g):
        gx = _tap_sum(g, k_data[:, ::-1, ::-1], taps[::-1])
        gk, ones = np.zeros((channels, kh, kw)), np.ones((channels, kh, kw))
        for tap in taps:
            gk[:, tap[0], tap[1]] = (g * _tap_sum(x_data, ones, [tap])).sum(axis=(0, 2, 3))
        return gx, gk, g.sum(axis=(0, 2, 3))

    return _emit(out, (x, kernel, bias), backward_fn, macs=b * c * h * w * kh * kw)


def global_avg_pool(x: Tensor) -> Tensor:
    """Spatial mean of a [B, C, H, W] tensor, yielding [B, C], computed as
    layernorm's means are."""
    if x.data.ndim != 4:
        raise ShapeError(f"global_avg_pool input must be [B,C,H,W], got {x.shape}")
    b, c, h, w = x.shape
    if h * w == 0:
        raise ShapeError(f"global_avg_pool needs a non-empty plane, got {h}x{w}")
    out = np.add.reduce(x.data, axis=(2, 3)) / (h * w)

    def backward_fn(g):
        return (np.broadcast_to(g[:, :, None, None] / (h * w), (b, c, h, w)).copy(),)

    return _emit(out, (x,), backward_fn)


def adaptive_avg_pool(x: Tensor, out_h: int, out_w: int) -> Tensor:
    """Mean over non-overlapping cells, computed as layernorm's means are;
    spatial extents must divide evenly."""
    if x.data.ndim != 4:
        raise ShapeError(f"adaptive_avg_pool input must be [B,C,H,W], got {x.shape}")
    b, c, h, w = x.shape
    if h * w == 0:
        raise ShapeError(f"adaptive_avg_pool needs a non-empty plane, got {h}x{w}")
    if out_h < 1 or out_w < 1 or h % out_h or w % out_w:
        raise ShapeError(f"cannot pool {h}x{w} to {out_h}x{out_w}: non-divisible target")
    sh, sw = h // out_h, w // out_w
    cells = x.data.reshape(b, c, out_h, sh, out_w, sw)
    out = np.add.reduce(cells, axis=(3, 5)) / (sh * sw)

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
    _, _, h, w = x.shape
    if h * w == 0:
        raise ShapeError(f"bilinear_resize needs a non-empty plane, got {h}x{w}")
    if out_h < 1 or out_w < 1:
        raise ShapeError(f"bilinear_resize target {out_h}x{out_w} must be positive")
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
    """Exact GELU: x * cdf with cdf = 0.5 * (1 + erf(x / sqrt(2))).

    erf is Cephes's (_erf), bit for bit scipy.special.erf. Each block of
    BLOCK_VALUES values runs every step while it is in cache. Only backward
    reads cdf, so a taped call keeps it in a whole array and an untaped one
    forms each block's cdf in its output block. At -inf the result is -0.0,
    as for every finite x below about -8.4, where cdf rounds to 0, and the
    gradient is 0; at +inf they are inf and 1.
    """
    x_data = x.data
    x_flat = x_data.reshape(-1)
    cdf = np.empty(x.shape) if x.tape is not None else None
    out = np.empty(x.shape)
    out_flat = out.reshape(-1)
    cdf_flat = out_flat if cdf is None else cdf.reshape(-1)
    for s in range(0, x_flat.size, BLOCK_VALUES):
        blk = slice(s, s + BLOCK_VALUES)
        x_blk, cdf_blk, out_blk = x_flat[blk], cdf_flat[blk], out_flat[blk]
        _erf(x_blk / math.sqrt(2.0), out=cdf_blk)
        cdf_blk += 1.0
        cdf_blk *= 0.5
        with np.errstate(invalid="ignore"):  # -inf * cdf(-inf) is -inf * 0
            np.multiply(x_blk, cdf_blk, out=out_blk)
        out_blk[x_blk == -np.inf] = -0.0

    def backward_fn(g):
        with np.errstate(over="ignore", invalid="ignore"):  # x*x past 1e308; +-inf * 0
            slope = x_data * (np.exp(-0.5 * x_data * x_data) / math.sqrt(2.0 * math.pi))
        slope = np.where(np.isinf(x_data), 0.0, slope)
        return (g * (cdf + slope),)

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

    def backward_fn(g):
        return g * b_data, g * a_data

    return _emit(out, (a, b), backward_fn, macs=out.size)


def scalar_mul(x: Tensor, c: float) -> Tensor:
    out = x.data * c

    def backward_fn(g):
        return (g * c,)

    return _emit(out, (x,), backward_fn, macs=out.size)


def scale_channels(x: Tensor, gate: Tensor) -> Tensor:
    """Multiply a [B, C, H, W] tensor by a per-(batch, channel) gate [B, C]."""
    if x.data.ndim != 4 or gate.shape != x.shape[:2]:
        raise ShapeError(f"scale_channels: gate {gate.shape} must match leading dims of {x.shape}")
    x_data, gate4 = x.data, gate.data[:, :, None, None]
    out = x_data * gate4

    def backward_fn(g):
        return g * gate4, (g * x_data).sum(axis=(2, 3))

    return _emit(out, (x, gate), backward_fn, macs=out.size)


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
    out = x.data.sum()
    x_shape = x.shape

    def backward_fn(g):
        return (np.broadcast_to(g, x_shape).copy() if x_shape else np.asarray(g),)

    return _emit(out, (x,), backward_fn)
