"""Four-stage U-shaped decode path over a feature pyramid.

Each stage refines the lateral encoder feature with a block of three residual
sub-blocks: a token mixer (strip cross-attention by default), a local
perception module, and an MLP, every branch entered through layer
normalization. The mixer's key/value source blends all pyramid levels:
encoder features for stages at or below the current one, already-decoded
features above it.

The MLP sub-block works on each token alone, so an untaped block runs it on
blocks of MLP_BLOCK_ROWS tokens, and the hidden activations of a whole
stage never exist at once; a taped block runs it on all tokens at once.

Alignment of the mixed key/value: every level is average-pooled to the
stage-4 grid (H/32 x W/32) and concatenated along channels, so the key/value
token count stays small and constant across stages. Each level is pooled
once per decode: the encoder levels before stage 4 runs, and a decoded
level as soon as its stage is done, when a lower stage mixes across layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .attention import (
    MIXER_KINDS,
    AttnOutput,
    AttnParams,
    _init_linear,
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
    slice_lastdim,
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class DecoderParams:
    """Whole-head parameter bundle; clb[i] serves stage i+1, spec holds the
    settings the arrays were built for.

    The bundle and its parts are frozen: an array may be written in place,
    but no field can be replaced, so `bound` never goes stale;
    dataclasses.replace builds a new bundle, which binds afresh.
    """

    clb: tuple
    fuse_mlp: LinearParams
    spec: DecoderSpec

    @cached_property
    def bound(self) -> "DecoderParams":
        """The bundle bound without a tape, built on first read and kept.

        Every untaped decode runs on it. Each Tensor in it is a read-only
        view of its array, so an in-place write shows in the next decode.
        """
        return bind_params(self, None)[0]

    def __getstate__(self) -> dict:
        # a copy or unpickled bundle has new arrays, so it binds afresh
        return {k: v for k, v in self.__dict__.items() if k != "bound"}


@dataclass
class DecodeTrace:
    """Everything a decode run produced; lists are indexed by stage - 1.

    The mixed key/value tokens, the decoded features and the mask are held.
    The attention maps are not: decode asks its mixers for none, so an
    untaped decode of any mixer kind never builds one, and `attn` builds all
    four on its first read and caches them. It reruns mixer_branch, asking
    for the map, on the pyramid's lateral features and the held mixed
    tokens, with the untaped bundle params.bound, so the maps are those of
    the unfused chain, which a taped decode runs, and add no node to a
    decode's tape.
    The build reads the pyramid and parameter arrays as they are at that
    first read, so change neither in place before it.
    """

    mixed: list
    decoded: list
    mask: Tensor
    pyramid: FeaturePyramid
    params: DecoderParams
    param_leaves: Optional[dict] = None
    _attn: Optional[list] = field(default=None, init=False, repr=False)

    @property
    def attn(self) -> list:
        if self._attn is None:
            spec = self.params.spec
            self._attn = [
                mixer_branch(
                    tokens_from_grid(Tensor(self.pyramid.features[stage - 1])),
                    Tensor(self.mixed[stage - 1].data),
                    self.params.bound.clb[stage - 1],
                    spec.mixer,
                    spec.layernorm_eps,
                ).attn
                for stage in range(1, 5)
            ]
        return self._attn


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


def build_mixed_kv(pooled: Sequence[Tensor]) -> Tensor:
    """Key/value tokens for one stage: the four levels' pooled tokens on the
    stage-4 grid, channel-concatenated in level order. decode passes the
    pooled encoder levels at or below the stage and the pooled decoded
    levels above it.
    """
    return concat_lastdim(pooled)


def lpm(x: Tensor, h: int, w: int, p: LPMParams) -> Tensor:
    """Local perception over token input [B, N, C] living on an h x w grid.

    A 1x1 -> ReLU -> 3x3 depthwise stack extracts local detail; its pooled
    response drives a sigmoid channel gate; the gated detail re-enters
    through a final 1x1 depthwise conv on top of an identity shortcut.
    Each intermediate is dropped once it is read; a taped call's nodes keep
    what their backward reads.
    """
    c = x.shape[-1]
    xg = grid_from_tokens(x, h, w)
    del x
    pre = relu(depthwise_conv(xg, reshape(p.dw1_kernel, (c, 1, 1)), p.dw1_bias))
    xd = depthwise_conv(pre, p.dw3_kernel, p.dw3_bias)
    del pre
    gated = scale_channels(xd, sigmoid(linear(relu(linear(global_avg_pool(xd), p.fc1)), p.fc2)))
    del xd
    detail = depthwise_conv(gated, reshape(p.dw_out_kernel, (c, 1, 1)), p.dw_out_bias)
    del gated
    out = add(xg, detail)
    del xg, detail
    return tokens_from_grid(out)


def mixer_branch(
    f: Tensor, m: Tensor, p: CLBParams, mixer_kind: str, eps: float, with_map: bool = True
) -> AttnOutput:
    """A block's token mixer on layer-normalized inputs, before its residual:
    queries from f, keys/values from m (from f for "sa"). with_map is the
    mixer's: False lets an untaped mixer skip building its map."""
    if mixer_kind not in MIXER_KINDS:
        raise ValueError(f"unknown mixer kind {mixer_kind!r}")
    q_in = layernorm(f, p.ln1_gamma, p.ln1_beta, eps)
    if mixer_kind == "sa":
        return self_attention(q_in, p.mixer, with_map=with_map)
    kv_in = layernorm(m, p.ln_kv_gamma, p.ln_kv_beta, eps)
    mixer = strip_cross_attention if mixer_kind == "sca" else cross_attention
    return mixer(q_in, kv_in, p.mixer, with_map=with_map)


# Tokens per block of an untaped MLP sub-block; the last block takes the
# remainder too, so it holds MLP_BLOCK_ROWS to 2 * MLP_BLOCK_ROWS - 1 rows.
# OpenBLAS 0.3.31 (x86-64) rounded row blocks of up to 32 rows, and short
# ragged tails, differently in the last bit from the whole matrix; blocks
# of 256 rows and more with no short tail gave the whole matrix's bits at
# every width tried. Larger blocks cost memory: with 2,048 rows at 512x1024
# the 2-MiB hiddens stayed on the retained heap (tensor._retain_heap) and
# the full-width decode's peak RSS rose by ~5 MiB.
MLP_BLOCK_ROWS = 256


def mlp_block(z: Tensor, p: CLBParams, eps: float) -> Tensor:
    """A block's MLP sub-block with its residual, on tokens z [..., C]."""
    hidden = gelu(linear(layernorm(z, p.ln3_gamma, p.ln3_beta, eps), p.mlp_fc1))
    return add(linear(hidden, p.mlp_fc2), z)


def clb(
    f: Tensor,
    m: Tensor,
    h: int,
    w: int,
    p: CLBParams,
    mixer_kind: str,
    lpm_enabled: bool,
    eps: float = 1e-6,
) -> Tensor:
    """One decoder block; returns the refined tokens. Its mixer builds no map.

    The MLP sub-block works on each token alone. Untaped, it runs on one
    block of MLP_BLOCK_ROWS tokens at a time (batch and token axes taken
    together), the last block with the remainder as well, and writes each
    block into one output array, so the hidden activations of the whole
    stage never exist at once. A taped call, or one with fewer than
    2 * MLP_BLOCK_ROWS tokens, runs it as one block; the tape holds every
    hidden for backward anyway. The block input, the mixer's output and each
    sub-block's input are dropped as soon as they have been read.
    """
    z_g = add(mixer_branch(f, m, p, mixer_kind, eps, with_map=False).out, f)
    del f
    if lpm_enabled:
        z_gl = add(lpm(layernorm(z_g, p.ln2_gamma, p.ln2_beta, eps), h, w, p.lpm), z_g)
    else:
        z_gl = z_g
    del z_g
    rows = z_gl.data.reshape(-1, z_gl.shape[-1])
    n, step = rows.shape[0], MLP_BLOCK_ROWS
    if z_gl.tape is not None or n < 2 * step:
        return mlp_block(z_gl, p, eps)
    out = np.empty(rows.shape)
    last = (n // step - 1) * step  # the last block takes the remainder
    for r in range(0, last, step):
        out[r : r + step] = mlp_block(Tensor(rows[r : r + step]), p, eps).data
    out[last:] = mlp_block(Tensor(rows[last:]), p, eps).data
    return Tensor(out.reshape(z_gl.shape))


def decode(pyramid: FeaturePyramid, params: DecoderParams, tape: Optional[Tape] = None) -> DecodeTrace:
    """Run the full decode: stages 4 down to 1, then the fuse head.

    The fuse projects each decoded stage to class logits on its own grid,
    with the stage's column block of fuse_mlp's weight, resizes the logits
    of stages 2-4 to the stage-1 grid and sums the four; stage 1's
    projection adds the bias. A per-pixel linear map commutes with a
    per-channel bilinear resize, and every resize row sums to 1, so this is
    fuse_mlp applied to the concatenated upsampled stages, up to rounding,
    without building sum(channels) channels on the stage-1 grid.

    Without a tape it runs on params.bound, bound once per bundle. With a
    tape, every parameter array is registered as a differentiable leaf of
    that tape; the trace carries the name -> leaf map for gradient lookup.
    """
    bound, leaves = (params.bound, None) if tape is None else bind_params(params, tape)
    feats = [Tensor(f) for f in pyramid.features]
    spec = pyramid.spec
    # refuse parameters of the wrong widths before any stage runs
    for stage, (c, block) in enumerate(zip(spec.channels, bound.clb), 1):
        if block.ln1_gamma.shape != (c,):
            raise ShapeError(
                f"stage {stage}: block expects {block.ln1_gamma.shape[0]} channels, pyramid provides {c}"
            )
    fuse_in = bound.fuse_mlp.weight.shape[1]
    if fuse_in != sum(spec.channels):
        raise ShapeError(f"fuse weight takes {fuse_in} channels, pyramid provides {sum(spec.channels)}")
    cross = params.spec.cross_layer_enabled
    h4, w4 = spec.stage_grid(4)
    # level l's tokens on the stage-4 grid: the encoder feature until stage l
    # is decoded, then the decoded feature if a lower stage will read it
    pooled = [tokens_from_grid(adaptive_avg_pool(f, h4, w4)) for f in feats]

    mixed: list = [None] * 4
    decoded: list = [None] * 4
    logits: dict[int, Tensor] = {}

    for stage in range(4, 0, -1):
        c_stage = spec.channels[stage - 1]
        try:
            m = build_mixed_kv(pooled) if cross[stage - 1] else pooled[stage - 1]
            h_s, w_s = spec.stage_grid(stage)
            d_tokens = clb(
                tokens_from_grid(feats[stage - 1]),
                m,
                h_s,
                w_s,
                bound.clb[stage - 1],
                params.spec.mixer,
                params.spec.lpm_enabled,
                params.spec.layernorm_eps,
            )
            lo = sum(spec.channels[: stage - 1])
            head = LinearParams(
                slice_lastdim(bound.fuse_mlp.weight, lo, lo + c_stage),
                bound.fuse_mlp.bias if stage == 1 else None,
            )
            logits[stage] = grid_from_tokens(linear(d_tokens, head), h_s, w_s)
        except ShapeError as exc:
            raise ShapeError(f"stage {stage}: {exc}") from exc
        mixed[stage - 1] = m
        decoded[stage - 1] = grid_from_tokens(d_tokens, h_s, w_s)
        if any(cross[: stage - 1]):
            pooled[stage - 1] = tokens_from_grid(adaptive_avg_pool(decoded[stage - 1], h4, w4))

    h1, w1 = spec.stage_grid(1)
    mask = logits[1]
    for stage in range(2, 5):
        mask = add(mask, bilinear_resize(logits[stage], h1, w1))

    return DecodeTrace(
        mixed=mixed,
        decoded=decoded,
        mask=mask,
        pyramid=pyramid,
        params=params,
        param_leaves=leaves,
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
        fc1=_init_linear(stream, hidden, channels, std),
        fc2=_init_linear(stream, channels, hidden, std),
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
            mlp_fc1=_init_linear(stream, hidden, c, init_std),
            mlp_fc2=_init_linear(stream, c, hidden, init_std),
        )
        if zero_residual:
            block.mixer.wo.weight[:] = 0.0
            block.lpm.dw_out_kernel[:] = 0.0
            block.mlp_fc2.weight[:] = 0.0
            block.ln2_gamma[:] = 0.0
        blocks.append(block)

    fuse = _init_linear(substream(seed, 100), spec.num_classes, total_c, init_std)
    return DecoderParams(clb=tuple(blocks), fuse_mlp=fuse, spec=spec)
