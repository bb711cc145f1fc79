"""Deterministic pseudo-random feature pyramids standing in for an encoder.

The generator is a pure function of its spec: splitmix64 streams feed a
Box-Muller transform, so pyramids are bitwise reproducible across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64_next(state: int) -> tuple[int, int]:
    """One splitmix64 step: returns (output, new_state), all mod 2**64."""
    state = (state + _GOLDEN) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
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
    n = int(np.prod(shape)) if shape else 1
    vals = np.empty(n)
    for i in range(n):
        vals[i] = standard_normal(stream)
    return vals.reshape(shape)


def substream(seed: int, salt: int) -> RandomStream:
    """Independent child stream: one splitmix64 mix of (seed XOR salt constant)."""
    mixed, _ = splitmix64_next((seed ^ ((salt + 1) * _GOLDEN)) & _MASK64)
    return RandomStream(mixed)


@dataclass(frozen=True)
class PyramidSpec:
    """Input geometry for the four-stage feature pyramid.

    height and width are the source-image extents and must divide by 32;
    channels lists the per-stage widths C1..C4.
    """

    height: int
    width: int
    channels: tuple[int, int, int, int]
    batch: int = 1
    seed: int = 0

    def validate(self) -> None:
        if self.height % 32 or self.width % 32:
            raise ValueError(
                f"pyramid extents {self.height}x{self.width} must be divisible by 32"
            )
        if len(self.channels) != 4 or any(c < 1 for c in self.channels):
            raise ValueError(f"channels must be four positive extents, got {self.channels}")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")

    def stage_grid(self, stage: int) -> tuple[int, int]:
        """Spatial extents of stage 1..4 (strides 4, 8, 16, 32)."""
        f = 2 ** (stage + 1)
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
        return self.features[stage - 1]


def generate_pyramid(spec: PyramidSpec) -> FeaturePyramid:
    """Fill each stage with iid standard normals from a per-stage substream."""
    spec.validate()
    feats = []
    for stage in range(1, 5):
        stream = substream(spec.seed, stage)
        arr = normal_array(stream, spec.stage_shape(stage))
        arr.flags.writeable = False
        feats.append(arr)
    return FeaturePyramid(spec=spec, features=tuple(feats))
