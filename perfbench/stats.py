"""The benchmark's own arithmetic: percentiles, self time, output digests.

Kept free of stripseg imports so it can be tested on its own.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Sequence

# A percentile is reported only when at least this many samples lie beyond it.
MIN_BEYOND = 10

# Digest tolerance. Reordered sums and vectorized libm calls move results by a
# few ulps, which after a full decode stays far below 1e-12 relative; a real
# change of the computation moves them by many orders more.
DIGEST_RTOL = 1e-9
# A block whose values are tiny against the whole array is judged against
# this share of the array's norm, so last-bit noise in a near-zero block
# does not count as a change.
DIGEST_FLOOR = 1e-3
DIGEST_BLOCKS = 16


def median(values: Sequence[float]) -> float:
    if not values:
        raise ValueError("median of no values")
    s = sorted(values)
    mid = len(s) // 2
    return s[mid] if len(s) % 2 else (s[mid - 1] + s[mid]) / 2.0


def percentile(values: Sequence[float], q: float) -> Optional[float]:
    """Nearest-rank q-th percentile, or None when fewer than MIN_BEYOND
    samples would lie beyond it.

    With n samples, the nearest-rank value sits at rank ceil(q/100 * n), and
    n - rank samples lie beyond it. 100 samples support p90 (ten beyond),
    99 do not.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile {q} outside (0, 100)")
    n = len(values)
    rank = math.ceil(q / 100.0 * n)
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def covered_ns(start: int, end: int, children: Iterable[tuple[int, int]]) -> int:
    """Length of [start, end) covered by the union of the child intervals."""
    clipped = sorted(
        (max(s, start), min(e, end)) for s, e in children if e > start and s < end
    )
    total = 0
    cur_s = cur_e = None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def self_ns(start: int, end: int, children: Iterable[tuple[int, int]]) -> int:
    """A span's duration minus the part of it that its children cover."""
    return (end - start) - covered_ns(start, end, children)


def digest(arr, blocks: int = DIGEST_BLOCKS) -> dict:
    """Tolerance-comparable summary of an fp64 array.

    The flattened array is cut into up to `blocks` contiguous blocks; each
    contributes its sum and its L2 norm.
    """
    import numpy as np

    flat = np.asarray(arr, dtype=np.float64).reshape(-1)
    parts = np.array_split(flat, max(1, min(blocks, flat.size)))
    return {
        "shape": list(np.shape(arr)),
        "blocks": [[float(p.sum()), float(math.sqrt(float(p @ p)))] for p in parts],
    }


def digest_norm(d: dict) -> float:
    """L2 norm of the whole array a digest summarizes."""
    return math.sqrt(sum(b[1] ** 2 for b in d["blocks"]))


def digest_mismatches(got: dict, ref: dict, rtol: float = DIGEST_RTOL, whole_norm: float = 0.0) -> list[str]:
    """Descriptions of every way `got` differs from `ref` beyond tolerance.

    A block's sum may move by rtol * sqrt(len) * norm and its norm by
    rtol * norm, where norm is the block's reference norm, raised to
    DIGEST_FLOOR times the norm of the whole output for near-zero blocks.
    The whole output is the array itself, or a larger one it is part of
    (all gradients together) when whole_norm says so.
    """
    if got["shape"] != ref["shape"]:
        return [f"shape {got['shape']} != reference {ref['shape']}"]
    if len(got["blocks"]) != len(ref["blocks"]):
        return [f"{len(got['blocks'])} digest blocks != reference {len(ref['blocks'])}"]
    size = math.prod(ref["shape"])
    nblocks = len(ref["blocks"])
    total = max(digest_norm(ref), whole_norm)
    out = []
    for i, ((g_sum, g_l2), (r_sum, r_l2)) in enumerate(zip(got["blocks"], ref["blocks"])):
        length = size // nblocks + (1 if i < size % nblocks else 0)
        scale = max(r_l2, DIGEST_FLOOR * total)
        if not abs(g_l2 - r_l2) <= rtol * scale:
            out.append(f"block {i}: norm {g_l2!r} vs reference {r_l2!r}")
        if not abs(g_sum - r_sum) <= rtol * math.sqrt(max(length, 1)) * scale:
            out.append(f"block {i}: sum {g_sum!r} vs reference {r_sum!r}")
    return out
