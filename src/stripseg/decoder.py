"""Four-stage U-shaped decode path over a feature pyramid.

Each stage refines the lateral encoder feature with a block of three residual
sub-blocks: a token mixer (strip cross-attention by default), a local
perception module, and an MLP, every branch entered through layer
normalization. The mixer's key/value source blends all pyramid levels:
encoder features for stages at or below the current one, already-decoded
features above it.

Alignment of the mixed key/value: every constituent is average-pooled to the
stage-4 grid (H/32 x W/32) and concatenated along channels, so the key/value
token count stays small and constant across stages.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .attention import (
    MIXER_KINDS,
    AttnParams,
    cross_attention,
    init_mixer_params,
    self_attention,
    strip_cross_attention,
)
from .synth import FeaturePyramid, _as_bool, _as_int, _as_number, _four, _require, normal_array, substream
from .tensor import (
    LinearParams,
    ShapeError,
    Tape,
    Tensor,
    add,
    adaptive_avg_pool,
    bilinear_resize,
    bind_params,
    concat_lastdim,
    depthwise_conv,
    gelu,
    global_avg_pool,
    layernorm,
    linear,
    relu,
    reshape,
    scale_channels,
    sigmoid,
    transpose,
)


@dataclass(frozen=True)
class DecoderSpec:
    """Settings of the decoder head.

    The fields are the keys of the config document's decoder section, in
    the same order; they have no defaults, so the document's defaults are
    written in one place only. mixer is one of MIXER_KINDS; heads and
    cross_layer_enabled list stages 1..4; attn_scale None means
    1/sqrt(qk width). Construction checks every field and raises
    ValueError("<field>: <message>"); it stores the stage lists as tuples
    and the numbers as floats.
    """

    mixer: str
    num_classes: int
    heads: tuple[int, int, int, int]
    dim_head: int
    mlp_expansion: int
    lpm_enabled: bool
    lpm_reduction: int
    cross_layer_enabled: tuple[bool, bool, bool, bool]
    layernorm_eps: float
    attn_scale: Optional[float]
    init_std: float

    def __post_init__(self) -> None:
        _require(self.mixer in MIXER_KINDS, "mixer", f"must be one of {list(MIXER_KINDS)}")
        _as_int(self.num_classes, "num_classes", 1)
        heads = _four(self.heads, "heads", _as_int, 1)
        for name in ("dim_head", "mlp_expansion"):
            _as_int(getattr(self, name), name, 1)
        _as_bool(self.lpm_enabled, "lpm_enabled")
        _as_int(self.lpm_reduction, "lpm_reduction", 1)
        cross = _four(self.cross_layer_enabled, "cross_layer_enabled", _as_bool)
        eps = _as_number(self.layernorm_eps, "layernorm_eps")
        _require(eps > 0, "layernorm_eps", "must be positive")
        scale = None if self.attn_scale is None else _as_number(self.attn_scale, "attn_scale")
        _require(scale is None or scale > 0, "attn_scale", "must be positive")
        init_std = _as_number(self.init_std, "init_std")
        _require(init_std >= 0, "init_std", "must be >= 0")
        for name, value in dict(
            heads=heads, cross_layer_enabled=cross, layernorm_eps=eps, attn_scale=scale, init_std=init_std
        ).items():
            object.__setattr__(self, name, value)


@dataclass
class LPMParams:
    """Local perception module: depthwise convs plus a squeeze-excite gate.

    dw1 and dw_out are 1x1 depthwise kernels stored as [C]; dw3 is [C, 3, 3].
    fc1/fc2 form the sigmoid channel gate with bottleneck width C // reduction.
    """

    dw1_kernel: np.ndarray
    dw1_bias: np.ndarray
    dw3_kernel: np.ndarray
    dw3_bias: np.ndarray
    fc1: LinearParams
    fc2: LinearParams
    dw_out_kernel: np.ndarray
    dw_out_bias: np.ndarray


@dataclass
class CLBParams:
    """One decoder block: normalizations, token mixer, LPM, and MLP.

    The key/value branch has its own layernorm (ln_kv) because the mixed
    key/value width differs from the stage channel count.
    """

    ln1_gamma: np.ndarray
    ln1_beta: np.ndarray
    ln_kv_gamma: np.ndarray
    ln_kv_beta: np.ndarray
    ln2_gamma: np.ndarray
    ln2_beta: np.ndarray
    ln3_gamma: np.ndarray
    ln3_beta: np.ndarray
    mixer: AttnParams
    lpm: LPMParams
    mlp_fc1: LinearParams
    mlp_fc2: LinearParams


@dataclass
class DecoderParams:
    """Whole-head parameter bundle; clb[i] serves stage i+1, spec holds the
    settings the arrays were built for."""

    clb: list
    fuse_mlp: LinearParams
    spec: DecoderSpec


@dataclass
class DecodeTrace:
    """Everything a decode run produced; lists are indexed by stage - 1."""

    mixed: list
    decoded: list
    attn: list
    mask: Tensor
    param_leaves: Optional[dict] = None


def tokens_from_grid(x: Tensor) -> Tensor:
    """[B, C, h, w] -> [B, h*w, C], tokens in row-major spatial order."""
    b, c, h, w = x.shape
    return reshape(transpose(x, (0, 2, 3, 1)), (b, h * w, c))


def grid_from_tokens(x: Tensor, h: int, w: int) -> Tensor:
    """[B, h*w, C] -> [B, C, h, w]."""
    b, n, c = x.shape
    if n != h * w:
        raise ShapeError(f"{n} tokens do not fill a {h}x{w} grid")
    return transpose(reshape(x, (b, h, w, c)), (0, 3, 1, 2))


def build_mixed_kv(
    features: Sequence[Tensor],
    decoded: Mapping[int, Tensor],
    stage: int,
) -> Tensor:
    """Key/value tokens for one stage: pooled encoder features for levels
    <= stage, decoded features for levels > stage, channel-concatenated on
    the stage-4 grid.
    """
    target_h, target_w = features[3].shape[2:]
    parts = []
    for level in range(1, 5):
        if level <= stage:
            src = features[level - 1]
        else:
            if level not in decoded:
                raise ValueError(f"stage {stage} mixed kv needs decoded stage {level}")
            src = decoded[level]
        pooled = adaptive_avg_pool(src, target_h, target_w)
        parts.append(tokens_from_grid(pooled))
    return concat_lastdim(parts)


def lpm(x: Tensor, h: int, w: int, p: LPMParams) -> Tensor:
    """Local perception over token input [B, N, C] living on an h x w grid.

    A 1x1 -> ReLU -> 3x3 depthwise stack extracts local detail; its pooled
    response drives a sigmoid channel gate; the gated detail re-enters
    through a final 1x1 depthwise conv on top of an identity shortcut.
    """
    b, n, c = x.shape
    if n != h * w:
        raise ShapeError(f"lpm tokens {n} do not fill a {h}x{w} grid")
    xg = grid_from_tokens(x, h, w)
    pre = relu(depthwise_conv(xg, reshape(p.dw1_kernel, (c, 1, 1)), p.dw1_bias))
    xd = depthwise_conv(pre, p.dw3_kernel, p.dw3_bias)
    squeezed = global_avg_pool(xd)
    gate = sigmoid(linear(relu(linear(squeezed, p.fc1)), p.fc2))
    out = add(xg, depthwise_conv(scale_channels(xd, gate), reshape(p.dw_out_kernel, (c, 1, 1)), p.dw_out_bias))
    return tokens_from_grid(out)


def clb(
    f: Tensor,
    m: Tensor,
    h: int,
    w: int,
    p: CLBParams,
    mixer_kind: str,
    lpm_enabled: bool,
    eps: float = 1e-6,
) -> tuple[Tensor, Tensor]:
    """One decoder block; returns (refined tokens, attention map)."""
    if mixer_kind not in MIXER_KINDS:
        raise ValueError(f"unknown mixer kind {mixer_kind!r}")
    q_in = layernorm(f, p.ln1_gamma, p.ln1_beta, eps)
    if mixer_kind == "sa":
        att = self_attention(q_in, p.mixer)
    else:
        kv_in = layernorm(m, p.ln_kv_gamma, p.ln_kv_beta, eps)
        mixer = strip_cross_attention if mixer_kind == "sca" else cross_attention
        att = mixer(q_in, kv_in, p.mixer)
    z_g = add(att.out, f)
    if lpm_enabled:
        z_gl = add(lpm(layernorm(z_g, p.ln2_gamma, p.ln2_beta, eps), h, w, p.lpm), z_g)
    else:
        z_gl = z_g
    hidden = gelu(linear(layernorm(z_gl, p.ln3_gamma, p.ln3_beta, eps), p.mlp_fc1))
    d = add(linear(hidden, p.mlp_fc2), z_gl)
    return d, att.attn


def decode(pyramid: FeaturePyramid, params: DecoderParams, tape: Optional[Tape] = None) -> DecodeTrace:
    """Run the full decode: stages 4 down to 1, then upsample-and-fuse.

    With a tape, every parameter array is registered as a differentiable
    leaf; the trace carries the name -> leaf map for gradient lookup.
    """
    bound, leaves = bind_params(params, tape)
    feats = [Tensor(f) for f in pyramid.features]
    spec = pyramid.spec

    mixed: list = [None] * 4
    attn_maps: list = [None] * 4
    decoded_grid: dict[int, Tensor] = {}
    h4, w4 = spec.stage_grid(4)

    for stage in range(4, 0, -1):
        c_stage = spec.channels[stage - 1]
        block = bound.clb[stage - 1]
        if block.ln1_gamma.shape != (c_stage,):
            raise ShapeError(
                f"stage {stage}: block expects {block.ln1_gamma.shape[0]} channels, "
                f"pyramid provides {c_stage}"
            )
        try:
            if params.spec.cross_layer_enabled[stage - 1]:
                m = build_mixed_kv(feats, decoded_grid, stage)
            else:
                m = tokens_from_grid(adaptive_avg_pool(feats[stage - 1], h4, w4))
            h_s, w_s = spec.stage_grid(stage)
            d_tokens, att = clb(
                tokens_from_grid(feats[stage - 1]),
                m,
                h_s,
                w_s,
                block,
                params.spec.mixer,
                params.spec.lpm_enabled,
                params.spec.layernorm_eps,
            )
        except ShapeError as exc:
            raise ShapeError(f"stage {stage}: {exc}") from exc
        mixed[stage - 1] = m
        attn_maps[stage - 1] = att
        decoded_grid[stage] = grid_from_tokens(d_tokens, h_s, w_s)

    h1, w1 = spec.stage_grid(1)
    upsampled = [bilinear_resize(decoded_grid[stage], h1, w1) for stage in range(1, 5)]
    fused = concat_lastdim([tokens_from_grid(u) for u in upsampled])
    mask = grid_from_tokens(linear(fused, bound.fuse_mlp), h1, w1)

    return DecodeTrace(
        mixed=mixed,
        decoded=[decoded_grid[s] for s in range(1, 5)],
        attn=attn_maps,
        mask=mask,
        param_leaves=leaves if tape is not None else None,
    )


# ---------------------------------------------------------------------------
# Parameter construction
# ---------------------------------------------------------------------------


def _init_lpm(channels: int, reduction: int, stream, std: float) -> LPMParams:
    if channels % reduction:
        raise ValueError(f"channels {channels} not divisible by lpm reduction {reduction}")
    hidden = channels // reduction
    return LPMParams(
        dw1_kernel=normal_array(stream, (channels,)) * std,
        dw1_bias=np.zeros(channels),
        dw3_kernel=normal_array(stream, (channels, 3, 3)) * std,
        dw3_bias=np.zeros(channels),
        fc1=LinearParams(normal_array(stream, (hidden, channels)) * std, np.zeros(hidden)),
        fc2=LinearParams(normal_array(stream, (channels, hidden)) * std, np.zeros(channels)),
        dw_out_kernel=normal_array(stream, (channels,)) * std,
        dw_out_bias=np.zeros(channels),
    )


def init_decoder_params(
    channels: Sequence[int],
    spec: DecoderSpec,
    seed: int,
    zero_residual: bool = False,
) -> DecoderParams:
    """Seeded decoder parameters: normal(0, spec.init_std) weights, zero biases.

    zero_residual forces every residual branch to contribute exactly zero,
    turning each block into the identity map: the mixer and MLP output
    projections and the LPM's final depthwise kernel are zeroed, and the
    LPM entry layernorm gain is zeroed too, because the module keeps an
    internal shortcut from its (normalized) input.
    """
    if len(channels) != 4:
        raise ValueError(f"channels must list four stages, got {len(channels)}")
    init_std = spec.init_std
    total_c = int(sum(channels))
    blocks = []
    for stage in range(1, 5):
        c = int(channels[stage - 1])
        c_kv = total_c if spec.cross_layer_enabled[stage - 1] else c
        stream = substream(seed, 100 + stage)
        mixer = init_mixer_params(
            spec.mixer, c, c_kv, spec.heads[stage - 1], spec.dim_head, stream, init_std, spec.attn_scale
        )
        lpm_params = _init_lpm(c, spec.lpm_reduction, stream, init_std)
        hidden = spec.mlp_expansion * c
        block = CLBParams(
            ln1_gamma=np.ones(c),
            ln1_beta=np.zeros(c),
            ln_kv_gamma=np.ones(c_kv),
            ln_kv_beta=np.zeros(c_kv),
            ln2_gamma=np.ones(c),
            ln2_beta=np.zeros(c),
            ln3_gamma=np.ones(c),
            ln3_beta=np.zeros(c),
            mixer=mixer,
            lpm=lpm_params,
            mlp_fc1=LinearParams(normal_array(stream, (hidden, c)) * init_std, np.zeros(hidden)),
            mlp_fc2=LinearParams(normal_array(stream, (c, hidden)) * init_std, np.zeros(c)),
        )
        if zero_residual:
            block.mixer.wo.weight[:] = 0.0
            block.lpm.dw_out_kernel[:] = 0.0
            block.mlp_fc2.weight[:] = 0.0
            block.ln2_gamma[:] = 0.0
        blocks.append(block)

    fuse_stream = substream(seed, 100)
    fuse = LinearParams(
        normal_array(fuse_stream, (spec.num_classes, total_c)) * init_std,
        np.zeros(spec.num_classes),
    )
    return DecoderParams(clb=blocks, fuse_mlp=fuse, spec=spec)
