"""JSON run configuration: defaults, strict validation, and echo.

Every experiment is a single JSON document. Unknown keys are hard errors so
typos cannot silently fall back to defaults, and the resolved configuration
(defaults included) is always written back out, so implicit choices like the
normalization epsilon stay visible in artifacts.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Optional, Union

from .analysis import AttnConfig
from .decoder import DecoderParams, DecoderSpec, init_decoder_params
from .synth import FeaturePyramid, PyramidSpec, _as_int, _require, generate_pyramid


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


def _check_keys(section: dict, allowed: dict, path: str) -> None:
    for key in section:
        if key not in allowed:
            where = f"{path}.{key}" if path else key
            raise ValueError(f"unknown config key '{where}'")


def _section(name: str, kind: type, values: dict):
    """kind(**values); a field it rejects is named by its document path."""
    try:
        return kind(**values)
    except ValueError as exc:
        raise ValueError(f"{name}.{exc}") from None


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
    """Merge a config document over defaults and validate every field.

    Any ValueError is raised as a ConfigError that names the field by its
    document path.
    """
    try:
        return _resolve(_overlay(doc, defaults if defaults is not None else FORWARD_DEFAULTS))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve(base: dict) -> RunConfig:
    """The RunConfig of a merged document. PyramidSpec and DecoderSpec check
    their own sections; the rest of the rules are here."""
    seed = _as_int(base["seed"], "seed")
    if base["pyramid"]["seed"] is None:
        base["pyramid"]["seed"] = seed
    pyramid = _section("pyramid", PyramidSpec, base["pyramid"])
    decoder = _section("decoder", DecoderSpec, base["decoder"])
    for i, c in enumerate(pyramid.channels):
        _require(
            c % decoder.lpm_reduction == 0,
            f"pyramid.channels[{i}]",
            f"{c} is not divisible by decoder.lpm_reduction {decoder.lpm_reduction}",
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
        pyramid=pyramid,
        decoder=decoder,
        bench=bench,
        seed=seed,
        output_dir=output_dir,
        sweep=sweep_cfgs,
    )


def load_config(path: Union[str, Path], defaults: Optional[dict] = None) -> RunConfig:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config: {path} is not valid JSON: {exc}") from exc
    return resolve_config(doc, defaults)


def config_echo(cfg: RunConfig) -> dict:
    """Fully resolved document, valid as input; defaults made explicit."""
    return json.loads(json.dumps(asdict(cfg)))  # tuples become JSON lists


def build_pyramid(cfg: RunConfig) -> FeaturePyramid:
    return generate_pyramid(cfg.pyramid)


def build_decoder_params(cfg: RunConfig, zero_residual: bool = False) -> DecoderParams:
    return init_decoder_params(cfg.pyramid.channels, cfg.decoder, cfg.seed, zero_residual)
