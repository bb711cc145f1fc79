"""Strip cross-attention segmentation decoder at desk scale.

A dependency-light fp64 implementation of a four-stage U-shaped decoder head
built from strip cross-attention blocks, with a reverse-mode differentiation
tape, brute-force attention oracles, and a closed-form cost model, so every
piece of the architecture is independently verifiable.
"""

from .analysis import AttnConfig, BenchResult, FlopReport, closed_form_flops, count_flops, sweep
from .attention import (
    AttnOutput,
    AttnParams,
    cross_attention,
    init_mixer_params,
    oracle_attention,
    self_attention,
    strip_cross_attention,
)
from .decoder import (
    CLBParams,
    DecodeTrace,
    DecoderParams,
    DecoderSpec,
    LPMParams,
    build_mixed_kv,
    clb,
    decode,
    init_decoder_params,
    lpm,
)
from .scat import load_scat, save_scat
from .synth import FeaturePyramid, PyramidSpec, RandomStream, generate_pyramid, splitmix64_next, standard_normal
from .tensor import (
    LinearParams,
    MacCounter,
    ShapeError,
    Tape,
    Tensor,
    backward,
    bind_params,
    count_macs,
    flatten_params,
)

__version__ = "0.1.0"
