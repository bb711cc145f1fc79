"""Computational-cost models for the token mixers.

Costs are multiply-accumulate counts. The closed forms price only the
attention score and weighted-sum stages; projections, softmax and
normalization are excluded there, matching the granularity of the counted
"attention-stage" figure. Totals including projections are reported
separately. A case (AttnConfig, or the BenchSettings `stripseg bench` times)
checks its fields and the arrays it forms on construction, as PyramidSpec does.

Closed forms for N_q = N_kv = N and value width C:
  full-width attention:  2 * N^2 * C
  strip attention:       N^2 + N^2 * C
The strip form prices the score stage at one multiply per token pair, which
an instrumented run reproduces exactly when the strips live in a single
head; with H heads the honest score count is H * N^2.
"""

from __future__ import annotations

import csv
import io
import statistics
import time
from dataclasses import dataclass, fields
from typing import Sequence

from .attention import MIXER_KINDS, cross_attention, init_mixer_params
from .decoder import DecoderParams, decode
from .synth import FeaturePyramid, _addressable_by, _as_int, _require, normal_array, substream
from .tensor import Tensor, bind_params, count_macs

# Fewest timed repetitions and warm-up runs a wall-time median is taken over.
MIN_REPEATS = 9
MIN_WARMUP = 2

# Token counts and channel widths of default_grid's square cases.
GRID_TOKENS = (1, 4, 16, 64, 256)
GRID_CHANNELS = (1, 8, 32, 128)

CSV_COLUMNS = [
    "mixer",
    "N_q",
    "N_kv",
    "C_q",
    "C_kv",
    "heads",
    "dim_head",
    "closed_form_flops",
    "counted_attn_flops",
    "total_flops",
    "peak_activation_elems",
    "wall_ns_median",
]


def _attn_arrays(n_q: int, n_kv: int, c_q: int, c_kv: int, h: int, d: int, paths: dict[str, str]) -> None:
    """_addressable_by on the inputs, projection weights and scores that
    count_flops and bench_mixer form for a case with any mixer ("sa" attends
    over its queries; strip qk weights are the smallest). paths maps each
    AttnConfig field to the name of the setting it comes from."""
    for side, n, c in (("q", n_q, c_q), ("kv", n_kv, c_kv)):
        n_path, c_path = paths[f"n_{side}"], paths[f"c_{side}"]
        _addressable_by((1, n, c), {n_path: n, c_path: c}, f"{side} input")
        _addressable_by((h * d, c), {paths["heads"]: h, paths["dim_head"]: d, c_path: c}, f"{side} projection")
        _addressable_by((h, n_q, n), {paths["heads"]: h, paths["n_q"]: n_q, n_path: n}, f"{side} scores")


@dataclass(frozen=True)
class AttnConfig:
    """One attention case at batch 1. Construction checks that every field is
    an int >= 1 and numpy can hold every array the case forms, and raises
    ValueError("<field>: <message>")."""

    n_q: int
    n_kv: int
    c_q: int
    c_kv: int
    heads: int
    dim_head: int

    def __post_init__(self) -> None:
        names = [f.name for f in fields(self)]
        _attn_arrays(*(_as_int(getattr(self, name), name, 1) for name in names), dict(zip(names, names)))


@dataclass(frozen=True)
class BenchSettings:
    """The square case `stripseg bench` times for each mixer. Construction
    checks each field, that heads divides channels and that numpy can hold
    every array the case forms, and raises ValueError("<field>: <message>")."""

    n_tokens: int
    channels: int
    heads: int
    repeats: int
    warmup: int

    def __post_init__(self) -> None:
        floors = dict(n_tokens=1, channels=1, heads=1, repeats=MIN_REPEATS, warmup=MIN_WARMUP)
        n, c, h, _, _ = (_as_int(getattr(self, name), name, floor) for name, floor in floors.items())
        _require(c % h == 0, "channels", "must divide by bench.heads")
        n_path, c_path = "n_tokens", "channels"  # attn_config's dim_head is channels // heads
        paths = dict(n_q=n_path, n_kv=n_path, c_q=c_path, c_kv=c_path, heads="heads", dim_head=c_path)
        _attn_arrays(n, n, c, c, h, c // h, paths)

    def attn_config(self) -> AttnConfig:
        """The square attention case `stripseg bench` times for each mixer."""
        n, c = self.n_tokens, self.channels
        return AttnConfig(n_q=n, n_kv=n, c_q=c, c_kv=c, heads=self.heads, dim_head=c // self.heads)


@dataclass
class FlopReport:
    mixer: str
    config: AttnConfig
    closed_form_attn_flops: int
    counted_attn_flops: int
    counted_total_flops: int
    peak_activation_elems: int
    peak_qk_elems: int


@dataclass
class BenchResult:
    mixer: str
    config: AttnConfig
    wall_ns_median: int


def closed_form_flops(mixer_kind: str, n_q: int, n_kv: int, c: int) -> int:
    """Score-stage plus weighted-sum MACs for one attention forward."""
    if n_q < 1 or n_kv < 1 or c < 1:
        raise ValueError("token and channel counts must be >= 1")
    if mixer_kind in ("sa", "ca"):
        return n_q * n_kv * c + n_q * n_kv * c
    if mixer_kind == "sca":
        return n_q * n_kv + n_q * n_kv * c
    raise ValueError(f"unknown mixer kind {mixer_kind!r}")


def _build_case(mixer_kind: str, cfg: AttnConfig, seed: int):
    # self-attention has a single source; it runs on the query side and
    # ignores the kv columns of the config
    stream = substream(seed, 7)
    xq = Tensor(normal_array(stream, (1, cfg.n_q, cfg.c_q)))
    xkv = Tensor(normal_array(stream, (1, cfg.n_kv, cfg.c_kv)))
    params = init_mixer_params(mixer_kind, cfg.c_q, cfg.c_kv, cfg.heads, cfg.dim_head, stream)
    bound, _ = bind_params(params, None)
    return xq, xkv, bound


def _run_mixer(mixer_kind: str, xq: Tensor, xkv: Tensor, bound_params):
    # no map, as decode runs its mixers
    return cross_attention(xq, xq if mixer_kind == "sa" else xkv, bound_params, with_map=False)


def count_flops(mixer_kind: str, cfg: AttnConfig, seed: int = 0) -> FlopReport:
    """Instrumented single forward of one mixer at batch 1."""
    xq, xkv, bound = _build_case(mixer_kind, cfg, seed)
    with count_macs() as mc:
        _run_mixer(mixer_kind, xq, xkv, bound)
    counted_attn = mc.region_total("attn_scores", "attn_mix")
    n_kv = cfg.n_q if mixer_kind == "sa" else cfg.n_kv
    return FlopReport(
        mixer=mixer_kind,
        config=cfg,
        closed_form_attn_flops=closed_form_flops(
            mixer_kind, cfg.n_q, n_kv, cfg.heads * cfg.dim_head
        ),
        counted_attn_flops=counted_attn,
        counted_total_flops=mc.total,
        peak_activation_elems=mc.peak_elems,
        peak_qk_elems=mc.peak_by_region.get("qk_proj", 0),
    )


def bench_mixer(
    mixer_kind: str,
    cfg: AttnConfig,
    repeats: int = MIN_REPEATS,
    warmup: int = MIN_WARMUP,
    seed: int = 0,
) -> BenchResult:
    """Median wall time of one mixer forward over >= MIN_REPEATS timed repetitions."""
    if repeats < MIN_REPEATS:
        raise ValueError(f"benchmark needs at least {MIN_REPEATS} timed repetitions")
    if warmup < MIN_WARMUP:
        raise ValueError(f"benchmark needs at least {MIN_WARMUP} warm-up runs")
    xq, xkv, bound = _build_case(mixer_kind, cfg, seed)
    for _ in range(warmup):
        _run_mixer(mixer_kind, xq, xkv, bound)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        _run_mixer(mixer_kind, xq, xkv, bound)
        times.append(time.perf_counter_ns() - t0)
    return BenchResult(mixer=mixer_kind, config=cfg, wall_ns_median=int(statistics.median(times)))


def decode_macs(pyramid: FeaturePyramid, params: DecoderParams) -> int:
    """Total instrumented MACs of one full decode forward."""
    with count_macs() as mc:
        decode(pyramid, params)
    return mc.total


def sweep(
    configs: Sequence[AttnConfig],
    time_it: bool = False,
    repeats: int = MIN_REPEATS,
    warmup: int = MIN_WARMUP,
    seed: int = 0,
) -> list[dict]:
    """One CSV row per (config, mixer in MIXER_KINDS), in deterministic input order."""
    if not configs:
        raise ValueError("sweep needs at least one configuration")
    rows = []
    for cfg in configs:
        for mixer in MIXER_KINDS:
            report = count_flops(mixer, cfg, seed)
            wall: object = ""
            if time_it:
                wall = bench_mixer(mixer, cfg, repeats, warmup, seed).wall_ns_median
            rows.append(
                {
                    "mixer": mixer,
                    "N_q": cfg.n_q,
                    "N_kv": cfg.n_kv,
                    "C_q": cfg.c_q,
                    "C_kv": cfg.c_kv,
                    "heads": cfg.heads,
                    "dim_head": cfg.dim_head,
                    "closed_form_flops": report.closed_form_attn_flops,
                    "counted_attn_flops": report.counted_attn_flops,
                    "total_flops": report.counted_total_flops,
                    "peak_activation_elems": report.peak_activation_elems,
                    "wall_ns_median": wall,
                }
            )
    return rows


def rows_to_csv(rows: Sequence[dict]) -> str:
    """Fixed-schema CSV text: header row, LF endings, '.' decimal separator."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def default_grid() -> list[AttnConfig]:
    """Single-head square grid on which the closed forms are exact."""
    return [
        AttnConfig(n_q=n, n_kv=n, c_q=c, c_kv=c, heads=1, dim_head=c)
        for n in GRID_TOKENS
        for c in GRID_CHANNELS
    ]
