"""JSON run configuration: defaults, strict validation, and echo.

Every experiment is a single JSON document. Unknown keys are hard errors so
typos cannot silently fall back to defaults, and the resolved configuration
(defaults included) is always written back out, so implicit choices like the
normalization epsilon stay visible in artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Optional, Union

from .analysis import AttnConfig
from .attention import MIXER_KINDS
from .decoder import DecoderParams, DecoderSpec, init_decoder_params
from .synth import FeaturePyramid, PyramidSpec, generate_pyramid


class ConfigError(ValueError):
    """Invalid run configuration; message names the offending field."""


@dataclass
class BenchSettings:
    n_tokens: int
    channels: int
    heads: int
    repeats: int
    warmup: int


@dataclass
class RunConfig:
    """A resolved run; its fields are the keys of FORWARD_DEFAULTS, in order."""

    pyramid: PyramidSpec
    decoder: DecoderSpec
    bench: BenchSettings
    seed: int
    output_dir: str
    sweep: Optional[list[AttnConfig]]

    @property
    def num_classes(self) -> int:
        return self.decoder.num_classes


# The one place where the document's keys and their defaults are written.
FORWARD_DEFAULTS: dict[str, Any] = {
    "pyramid": {"height": 64, "width": 64, "channels": [8, 16, 32, 64], "batch": 1, "seed": None},
    "decoder": {
        "mixer": "sca",
        "num_classes": 19,
        "heads": [1, 2, 4, 8],
        "dim_head": 16,
        "mlp_expansion": 4,
        "lpm_enabled": True,
        "lpm_reduction": 4,
        "cross_layer_enabled": [True, True, True, True],
        "layernorm_eps": 1e-6,
        "attn_scale": None,
        "init_std": 0.02,
    },
    "bench": {"n_tokens": 1024, "channels": 64, "heads": 8, "repeats": 9, "warmup": 2},
    "seed": 0,
    "output_dir": "out",
    "sweep": None,
}


def _require(cond: bool, field_name: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field_name}: {message}")


def _check_keys(section: dict, allowed: dict, path: str) -> None:
    for key in section:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key '{where}'")


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


def _four(value: Any, field_name: str) -> list:
    _require(isinstance(value, list) and len(value) == 4, field_name, "must list exactly four stages")
    return value


def _overlay(doc: Any, defaults: dict) -> dict:
    """A copy of defaults with doc merged over it, sections one level deep."""
    base = json.loads(json.dumps(defaults))
    _require(isinstance(doc, dict), "config", "top level must be a JSON object")
    _check_keys(doc, base, "")
    for key, value in doc.items():
        if isinstance(base[key], dict):
            _require(isinstance(value, dict), key, "must be an object")
            _check_keys(value, base[key], key)
            base[key].update(value)
        else:
            base[key] = value
    return base


# Small enough for a full finite-difference sweep over every parameter.
GRADCHECK_DEFAULTS: dict[str, Any] = _overlay(
    {
        "pyramid": {"height": 32, "width": 32, "channels": [4, 4, 8, 8]},
        "decoder": {"num_classes": 2, "heads": [1, 1, 2, 2], "dim_head": 4, "mlp_expansion": 2},
    },
    FORWARD_DEFAULTS,
)

# Defaults of one sweep entry; its keys are the AttnConfig fields.
_SWEEP_ENTRY_DEFAULTS = AttnConfig(n_q=16, n_kv=16, c_q=32, c_kv=32, heads=1, dim_head=32)


def resolve_config(doc: dict, defaults: Optional[dict] = None) -> RunConfig:
    """Merge a config document over defaults and validate every field."""
    base = _overlay(doc, defaults if defaults is not None else FORWARD_DEFAULTS)

    seed = _as_int(base["seed"], "seed")
    pyr = base["pyramid"]
    height = _as_int(pyr["height"], "pyramid.height", 32)
    width = _as_int(pyr["width"], "pyramid.width", 32)
    _require(height % 32 == 0, "pyramid.height", f"{height} is not divisible by 32")
    _require(width % 32 == 0, "pyramid.width", f"{width} is not divisible by 32")
    channels = tuple(
        _as_int(c, f"pyramid.channels[{i}]", 1) for i, c in enumerate(_four(pyr["channels"], "pyramid.channels"))
    )
    batch = _as_int(pyr["batch"], "pyramid.batch", 1)
    pyramid_seed = seed if pyr["seed"] is None else _as_int(pyr["seed"], "pyramid.seed")

    dec = base["decoder"]
    mixer = dec["mixer"]
    _require(mixer in MIXER_KINDS, "decoder.mixer", f"must be one of {list(MIXER_KINDS)}")
    num_classes = _as_int(dec["num_classes"], "decoder.num_classes", 1)
    heads = tuple(
        _as_int(h, f"decoder.heads[{i}]", 1) for i, h in enumerate(_four(dec["heads"], "decoder.heads"))
    )
    dim_head = _as_int(dec["dim_head"], "decoder.dim_head", 1)
    mlp_expansion = _as_int(dec["mlp_expansion"], "decoder.mlp_expansion", 1)
    lpm_enabled = _as_bool(dec["lpm_enabled"], "decoder.lpm_enabled")
    lpm_reduction = _as_int(dec["lpm_reduction"], "decoder.lpm_reduction", 1)
    for i, c in enumerate(channels):
        _require(
            c % lpm_reduction == 0,
            f"pyramid.channels[{i}]",
            f"{c} is not divisible by decoder.lpm_reduction {lpm_reduction}",
        )
    cross = tuple(
        _as_bool(b, f"decoder.cross_layer_enabled[{i}]")
        for i, b in enumerate(_four(dec["cross_layer_enabled"], "decoder.cross_layer_enabled"))
    )
    eps = _as_number(dec["layernorm_eps"], "decoder.layernorm_eps")
    _require(eps > 0, "decoder.layernorm_eps", "must be positive")
    attn_scale = dec["attn_scale"]
    if attn_scale is not None:
        attn_scale = _as_number(attn_scale, "decoder.attn_scale")
        _require(attn_scale > 0, "decoder.attn_scale", "must be positive")
    init_std = _as_number(dec["init_std"], "decoder.init_std")
    _require(init_std >= 0, "decoder.init_std", "must be >= 0")
    decoder = DecoderSpec(
        mixer=mixer,
        num_classes=num_classes,
        heads=heads,
        dim_head=dim_head,
        mlp_expansion=mlp_expansion,
        lpm_enabled=lpm_enabled,
        lpm_reduction=lpm_reduction,
        cross_layer_enabled=cross,
        layernorm_eps=eps,
        attn_scale=attn_scale,
        init_std=init_std,
    )

    bench_doc = base["bench"]
    bench = BenchSettings(
        n_tokens=_as_int(bench_doc["n_tokens"], "bench.n_tokens", 1),
        channels=_as_int(bench_doc["channels"], "bench.channels", 1),
        heads=_as_int(bench_doc["heads"], "bench.heads", 1),
        repeats=_as_int(bench_doc["repeats"], "bench.repeats", 9),
        warmup=_as_int(bench_doc["warmup"], "bench.warmup", 2),
    )
    _require(bench.channels % bench.heads == 0, "bench.channels", "must divide by bench.heads")

    sweep_cfgs = None
    if base["sweep"] is not None:
        raw = base["sweep"]
        _require(isinstance(raw, list) and raw, "sweep", "must be a non-empty list")
        sweep_cfgs = []
        entry_defaults = asdict(_SWEEP_ENTRY_DEFAULTS)
        for i, entry in enumerate(raw):
            _require(isinstance(entry, dict), f"sweep[{i}]", "must be an object")
            _check_keys(entry, entry_defaults, f"sweep[{i}]")
            merged = {**entry_defaults, **entry}
            sweep_cfgs.append(AttnConfig(**{k: _as_int(merged[k], f"sweep[{i}].{k}", 1) for k in entry_defaults}))

    output_dir = base["output_dir"]
    _require(isinstance(output_dir, str) and output_dir, "output_dir", "must be a non-empty string")

    return RunConfig(
        pyramid=PyramidSpec(height=height, width=width, channels=channels, batch=batch, seed=pyramid_seed),
        decoder=decoder,
        bench=bench,
        seed=seed,
        output_dir=output_dir,
        sweep=sweep_cfgs,
    )


def load_config(path: Union[str, Path], defaults: Optional[dict] = None) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    return resolve_config(doc, defaults)


def config_echo(cfg: RunConfig) -> dict:
    """Fully resolved document, valid as input; defaults made explicit."""
    return json.loads(json.dumps(asdict(cfg)))  # tuples become JSON lists


def build_pyramid(cfg: RunConfig) -> FeaturePyramid:
    return generate_pyramid(cfg.pyramid)


def build_decoder_params(cfg: RunConfig, zero_residual: bool = False) -> DecoderParams:
    try:
        return init_decoder_params(cfg.pyramid.channels, cfg.decoder, cfg.seed, zero_residual)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
