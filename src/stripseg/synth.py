"""Deterministic pseudo-random feature pyramids standing in for an encoder.

The generator is a pure function of its spec: splitmix64 streams feed a
Box-Muller transform, so pyramids are bitwise reproducible across runs.
splitmix64 is counter-based (output i mixes state + i*golden), so
normal_array draws whole blocks in numpy uint64 arithmetic; it is a blocked,
bit-identical form of calling standard_normal once per element. Its log and
cos are tensor.libm_exact's: numpy's scalar loop on a reversed view where a
one-time probe finds it equal to libm, and math per element where not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from .tensor import libm_exact

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
# The most fp64 values one numpy array can hold: its byte size must fit in intp.
_MAX_ELEMENTS = np.iinfo(np.intp).max // np.dtype(np.float64).itemsize
# Draws per numpy block in normal_array; bounds its temporaries to ~0.4 MiB.
_NORMAL_BLOCK = 1 << 12


# Field checks for the setting types here, in decoder and in analysis, and for
# config: each raises ValueError("<field>: <message>") and returns the value to store.
def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ValueError(f"{field_name}: {message}")


def _as_int(value: Any, field_name: str, minimum: int = 0) -> int:
    _require(isinstance(value, int) and not isinstance(value, bool), field_name, "must be an integer")
    _require(value >= minimum, field_name, f"must be >= {minimum}")
    return value


def _as_bool(value: Any, field_name: str) -> bool:
    _require(isinstance(value, bool), field_name, "must be a boolean")
    return value


def _as_number(value: Any, field_name: str) -> float:
    _require(isinstance(value, (int, float)) and not isinstance(value, bool), field_name, "must be a number")
    try:
        number = float(value)
    except OverflowError:  # an integer beyond the float range
        number = math.inf
    _require(math.isfinite(number), field_name, "must be finite")
    return number


def _addressable(shape: tuple[int, ...], field_name: str, what: str) -> None:
    count = math.prod(shape)
    _require(count <= _MAX_ELEMENTS, field_name, f"{what} {shape} holds {count} values, more than numpy can")


def _addressable_by(shape: tuple[int, ...], factors: dict[str, int], what: str) -> None:
    """_addressable(shape), naming the setting whose factor is largest."""
    _addressable(shape, max(factors, key=factors.get), what)


def _four(value: Any, field_name: str, check: Callable[..., Any], *args: Any) -> tuple:
    """One entry per stage, each passed through check(entry, "<field>[i]", *args)."""
    _require(isinstance(value, (list, tuple)) and len(value) == 4, field_name, "must list exactly four stages")
    return tuple(check(v, f"{field_name}[{i}]", *args) for i, v in enumerate(value))


def _stage(stage: Any) -> int:
    """stage itself if it names one of the four pyramid stages, else ValueError."""
    ok = isinstance(stage, int) and not isinstance(stage, bool) and 1 <= stage <= 4
    _require(ok, "stage", f"{stage!r} is not one of 1..4")
    return stage


def splitmix64_next(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (output, new_state), all mod 2**64."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
    return (z ^ (z >> 31)), state


class RandomStream:
    """Stateful wrapper around the splitmix64 sequence."""

    def __init__(self, seed: int):
        self.state = seed & _MASK64

    def next_u64(self) -> int:
        out, self.state = splitmix64_next(self.state)
        return out

    def uniform53(self) -> float:
        """Uniform in [0, 1) from the top 53 bits of one output."""
        return (self.next_u64() >> 11) / 9007199254740992.0


def standard_normal(stream: RandomStream) -> float:
    """One N(0,1) draw via Box-Muller on two consecutive 53-bit uniforms.

    The first uniform is shifted into (0, 1] so the log never sees zero.
    """
    u1 = ((stream.next_u64() >> 11) + 1) / 9007199254740992.0
    u2 = (stream.next_u64() >> 11) / 9007199254740992.0
    return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)


def normal_array(stream: RandomStream, shape: tuple[int, ...]) -> np.ndarray:
    """Array of iid N(0,1) draws, equal bit for bit to calling standard_normal
    once per element in C order, and leaving stream.state where those calls
    would.

    Each block of _NORMAL_BLOCK draws mixes its 2*block splitmix64 states in
    numpy uint64 arithmetic. log and cos must give libm's bits, as math does
    in standard_normal, and numpy's SIMD log for contiguous arrays does not;
    libm_exact takes numpy's scalar loop through a reversed view when its
    probe finds that loop equal to math, and calls math per element when not.
    sqrt and the products are correctly rounded either way and keep the
    scalar operand order.
    """
    n = math.prod(shape)
    out = np.empty(n)
    steps = np.arange(1, 2 * min(n, _NORMAL_BLOCK) + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    for start in range(0, n, _NORMAL_BLOCK):
        m = min(_NORMAL_BLOCK, n - start)
        z = steps[: 2 * m] + np.uint64(stream.state)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX1)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX2)
        z ^= z >> np.uint64(31)
        z >>= np.uint64(11)
        u1 = (z[0::2] + np.uint64(1)) / 9007199254740992.0
        u2 = (2.0 * math.pi) * (z[1::2] / 9007199254740992.0)
        out[start : start + m] = np.sqrt(-2.0 * libm_exact(np.log, u1)) * libm_exact(np.cos, u2)
        stream.state = (stream.state + 2 * m * _GOLDEN) & _MASK64
    return out.reshape(shape)


def substream(seed: int, salt: int) -> RandomStream:
    """Independent child stream: one splitmix64 mix of (seed XOR salt constant)."""
    mixed, _ = splitmix64_next((seed ^ ((salt + 1) * _GOLDEN)) & _MASK64)
    return RandomStream(mixed)


@dataclass(frozen=True)
class PyramidSpec:
    """Input geometry for the four-stage feature pyramid.

    height and width are the source-image extents and must divide by 32;
    channels lists the per-stage widths C1..C4. Construction checks every
    field and raises ValueError("<field>: <message>").
    """

    height: int
    width: int
    channels: tuple[int, int, int, int]
    batch: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("height", "width"):
            extent = _as_int(getattr(self, name), name, 32)
            _require(extent % 32 == 0, name, f"{extent} is not divisible by 32")
        object.__setattr__(self, "channels", _four(self.channels, "channels", _as_int, 1))
        _as_int(self.batch, "batch", 1)
        _as_int(self.seed, "seed")
        for stage in range(1, 5):
            shape = self.stage_shape(stage)
            # name the setting with the largest extent in this stage's shape
            names = ("batch", f"channels[{stage - 1}]", "height", "width")
            _addressable(shape, names[shape.index(max(shape))], f"stage {stage} array")

    def stage_grid(self, stage: int) -> tuple[int, int]:
        """Spatial extents of stage 1..4 (strides 4, 8, 16, 32); ValueError for any other."""
        f = 2 ** (_stage(stage) + 1)
        return self.height // f, self.width // f

    def stage_shape(self, stage: int) -> tuple[int, int, int, int]:
        h, w = self.stage_grid(stage)
        return self.batch, self.channels[stage - 1], h, w


@dataclass(frozen=True)
class FeaturePyramid:
    """The four encoder outputs; features[i] is stage i+1 at stride 2**(i+2)."""

    spec: PyramidSpec
    features: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

    def stage(self, stage: int) -> np.ndarray:
        """The array of stage 1..4; ValueError for any other."""
        return self.features[_stage(stage) - 1]


def generate_pyramid(spec: PyramidSpec) -> FeaturePyramid:
    """Fill each stage with iid standard normals from a per-stage substream."""
    feats = []
    for stage in range(1, 5):
        stream = substream(spec.seed, stage)
        arr = normal_array(stream, spec.stage_shape(stage))
        arr.flags.writeable = False
        feats.append(arr)
    return FeaturePyramid(spec=spec, features=tuple(feats))
