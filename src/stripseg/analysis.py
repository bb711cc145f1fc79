"""Computational-cost models for the token mixers.

Costs are multiply-accumulate counts. The closed forms price only the
attention score and weighted-sum stages; projections, softmax and
normalization are excluded there, matching the granularity of the counted
"attention-stage" figure. Totals including projections are reported
separately.

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
from dataclasses import dataclass
from typing import Sequence

from .attention import MIXER_KINDS, cross_attention, init_mixer_params
from .decoder import DecoderParams, decode
from .synth import FeaturePyramid, normal_array, substream
from .tensor import Tensor, bind_params, count_macs

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


@dataclass(frozen=True)
class AttnConfig:
    n_q: int
    n_kv: int
    c_q: int
    c_kv: int
    heads: int
    dim_head: int


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
    flops_per_sec: float
    counted_total_flops: int


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
    return cross_attention(xq, xq if mixer_kind == "sa" else xkv, bound_params)


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
    repeats: int = 9,
    warmup: int = 2,
    seed: int = 0,
) -> BenchResult:
    """Median wall time of one mixer forward over >= 9 timed repetitions."""
    if repeats < 9:
        raise ValueError("benchmark needs at least 9 timed repetitions")
    if warmup < 2:
        raise ValueError("benchmark needs at least 2 warm-up runs")
    xq, xkv, bound = _build_case(mixer_kind, cfg, seed)
    with count_macs() as mc:
        _run_mixer(mixer_kind, xq, xkv, bound)
    for _ in range(warmup):
        _run_mixer(mixer_kind, xq, xkv, bound)
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter_ns()
        _run_mixer(mixer_kind, xq, xkv, bound)
        times.append(time.perf_counter_ns() - t0)
    wall = int(statistics.median(times))
    return BenchResult(
        mixer=mixer_kind,
        config=cfg,
        wall_ns_median=wall,
        flops_per_sec=mc.total / (wall * 1e-9) if wall else float("inf"),
        counted_total_flops=mc.total,
    )


def decode_macs(pyramid: FeaturePyramid, params: DecoderParams) -> int:
    """Total instrumented MACs of one full decode forward."""
    with count_macs() as mc:
        decode(pyramid, params)
    return mc.total


def sweep(
    configs: Sequence[AttnConfig],
    mixers: Sequence[str] = MIXER_KINDS,
    time_it: bool = False,
    repeats: int = 9,
    warmup: int = 2,
    seed: int = 0,
) -> list[dict]:
    """One CSV row per (config, mixer), in deterministic input order."""
    if not configs:
        raise ValueError("sweep needs at least one configuration")
    rows = []
    for cfg in configs:
        for mixer in mixers:
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


def default_grid(
    n_values: Sequence[int] = (1, 4, 16, 64, 256),
    c_values: Sequence[int] = (1, 8, 32, 128),
) -> list[AttnConfig]:
    """Single-head square grid on which the closed forms are exact."""
    return [
        AttnConfig(n_q=n, n_kv=n, c_q=c, c_kv=c, heads=1, dim_head=c)
        for n in n_values
        for c in c_values
    ]
