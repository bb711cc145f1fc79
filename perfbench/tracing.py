"""Span recorder for the traced benchmark run.

Spans are recorded from the benchmark's side only: while a Tracer is
installed, the functions each stripseg module imports from the layer below
are replaced, in that module's namespace, by wrappers that time the call.
Nothing inside stripseg is edited. Wrapped are:

- every tensor function imported into stripseg.decoder and stripseg.attention
  (the kernels, plus bind_params), and attention's mac_region, which only
  labels the kernel spans opened inside it;
- clb, lpm and build_mixed_kv, which decode and clb look up in
  stripseg.decoder, and the three mixers imported there;
- normal_array in synth, decoder and attention, and generate_pyramid and
  init_decoder_params as stripseg.config calls them;
- decode, backward, save_scat, resolve_config and analysis.decode_macs, as
  the benchmark itself calls them (Tracer.api).

Each span records its name, the module it was called from, start, end,
parent and op id, plus the MACs an active count_macs() counter gained
during it. Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional

from stats import median, self_ns

# Kernels that get their own tensor.<name>_ms / _calls metrics.
REPORTED_KERNELS = (
    "matmul",
    "linear",
    "softmax_lastdim",
    "layernorm",
    "depthwise_conv",
    "gelu",
    "transpose",
    "concat_lastdim",
    "bilinear_resize",
    "adaptive_avg_pool",
)
# Attention kernel -> sub-step; matmul is split by its mac_region label.
_ATTN_STEP = {
    "linear": "proj",
    "softmax_lastdim": "softmax",
    "scalar_mul": "softmax",  # the logit scale feeding the softmax
    "reshape": "layout",
    "transpose": "layout",
}
_ATTN_MATMUL_STEP = {"attn_scores": "scores", "attn_mix": "mix"}
_MIXERS = ("attention.strip_cross_attention", "attention.cross_attention", "attention.self_attention")
# Kernels that decode calls itself, after the last stage: the upsample-and-fuse head.
_FUSE_KERNELS = ("bilinear_resize", "concat_lastdim", "linear")
_MIB = float(1 << 20)

# Per-layer metrics and their units. Times are span durations, or self time
# (duration minus children) for kernels; an op metric is the median over the
# traced ops of one run, a set-up metric comes from the run's one traced build.
SETUP_METRICS = {
    "synth.pyramid_ms": "ms",
    "synth.normal_array_ms": "ms",
    "synth.normals": "count",
    "decoder.init_params_ms": "ms",
}
OP_METRICS = {
    **{f"attention.{step}_ms": "ms" for step in ("proj", "scores", "softmax", "mix", "layout")},
    **{f"attention.s{stage}_ms": "ms" for stage in range(1, 5)},
    "attention.score_macs": "count",
    "attention.mix_macs": "count",
    "attention.map_mib": "MiB",
    **{f"decoder.s{stage}.{sub}_ms": "ms" for stage in range(1, 5) for sub in ("mixer", "lpm", "mlp")},
    "decoder.mixed_kv_ms": "ms",
    "decoder.norm_ms": "ms",
    "decoder.layout_ms": "ms",
    "decoder.fuse_ms": "ms",
    **{f"tensor.{k}_{kind}": unit for k in REPORTED_KERNELS for kind, unit in (("ms", "ms"), ("calls", "count"))},
    "tensor.calls": "count",
    "tensor.macs": "count",
    "tensor.out_mib": "MiB",
    "tensor.gmac_per_s": "GMAC/s",
    "tensor.tape_nodes": "count",
    # The op's step after decode: the SCAT write on forward workloads, the
    # backward pass on train-256. One metric for both, because a time that
    # is zero by construction on some workloads is no measurement.
    "op.write_or_backward_ms": "ms",
    "scat.bytes": "bytes",
}
RUN_METRICS = {"trace.op_ms_p50": "ms", "trace.overhead_pct": "%"}
PER_LAYER_METRICS = {**SETUP_METRICS, **OP_METRICS, **RUN_METRICS}


@dataclass(slots=True)
class Span:
    name: str
    site: str
    op: str
    parent: int
    start_ns: int = 0
    end_ns: int = 0
    macs: int = 0  # inclusive of children
    out_bytes: int = 0
    region: Optional[str] = None
    info: dict = field(default_factory=dict)


def _nbytes(value) -> int:
    data = getattr(value, "data", value)
    return int(getattr(data, "nbytes", 0))


def _note(name: str, args, out, span: Span, stage_of: dict) -> None:
    """Per-span counts that the metrics need beyond time and MACs."""
    if name == "synth.normal_array":
        span.info["normals"] = int(out.size)
    elif name in _MIXERS:
        span.info["map_bytes"] = _nbytes(out.attn)
        span.out_bytes = _nbytes(out.out)
        return
    elif name == "decoder.clb":
        span.info["stage"] = stage_of.get((args[2], args[3]))
    elif name == "scat.save_scat":
        arr = getattr(args[1], "data", args[1])
        span.info["bytes"] = 6 + 4 * arr.ndim + 4 * int(arr.size)
    span.out_bytes = _nbytes(out)


class Tracer:
    """In-memory span recorder; spans are taken only inside `op` while `installed`."""

    def __init__(self, stripseg_modules: dict):
        self.mods = stripseg_modules
        self.stage_of: dict = {}  # (h, w) of a stage grid -> stage number; set once the pyramid exists
        self.spans: list[Span] = []
        self.counter = None
        self._stack: list[int] = []
        self._regions: list[str] = []
        self._op: Optional[str] = None
        self._wrappers = None
        m = stripseg_modules
        self.api = {
            "decode": self.wrap("decoder.decode", "bench", m["decoder"].decode),
            "backward": self.wrap("tensor.backward", "bench", m["tensor"].backward),
            "save_scat": self.wrap("scat.save_scat", "bench", m["scat"].save_scat),
            "resolve_config": self.wrap("config.resolve_config", "bench", m["config"].resolve_config),
            "decode_macs": self.wrap("analysis.decode_macs", "bench", m["analysis"].decode_macs),
        }

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, site: str, fn):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None:
                return fn(*args, **kwargs)
            span = Span(
                name,
                site,
                tracer._op,
                tracer._stack[-1] if tracer._stack else -1,
                region=tracer._regions[-1] if tracer._regions else None,
            )
            idx = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(idx)
            counter = tracer.counter
            macs0 = counter.total if counter is not None else 0
            span.start_ns = time.perf_counter_ns()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                tracer._stack.pop()
                if counter is not None:
                    span.macs = counter.total - macs0
            _note(name, args, out, span, tracer.stage_of)
            return out

        return traced

    def _wrap_region(self, fn):
        tracer = self

        @contextmanager
        def region(name):
            tracer._regions.append(name)
            try:
                with fn(name):
                    yield
            finally:
                tracer._regions.pop()

        return region

    @contextmanager
    def op(self, op_id: str, counter=None):
        """Record spans of one op (or set-up step) under op_id."""
        self._op, self.counter = op_id, counter
        try:
            yield
        finally:
            self._op, self.counter = None, None

    def _patches(self) -> list[tuple[object, str, object]]:
        """(module, attribute, wrapper) for every call site the tracer covers."""
        m = self.mods
        out = []
        tensor_mod = m["tensor"].__name__
        for site in ("decoder", "attention"):
            mod = m[site]
            for attr, value in vars(mod).items():
                if getattr(value, "__module__", None) != tensor_mod or isinstance(value, type) or not callable(value):
                    continue
                if attr == "mac_region":
                    out.append((mod, attr, self._wrap_region(value)))
                else:
                    out.append((mod, attr, self.wrap(f"tensor.{attr}", site, value)))
        dec = m["decoder"]
        for attr in ("clb", "lpm", "build_mixed_kv"):
            out.append((dec, attr, self.wrap(f"decoder.{attr}", "decoder", getattr(dec, attr))))
        for attr in ("strip_cross_attention", "cross_attention", "self_attention"):
            out.append((dec, attr, self.wrap(f"attention.{attr}", "decoder", getattr(dec, attr))))
        for site in ("synth", "decoder", "attention"):
            mod = m[site]
            out.append((mod, "normal_array", self.wrap("synth.normal_array", site, mod.normal_array)))
        cfg = m["config"]
        out.append((cfg, "generate_pyramid", self.wrap("synth.generate_pyramid", "config", cfg.generate_pyramid)))
        out.append((cfg, "init_decoder_params", self.wrap("decoder.init_decoder_params", "config", cfg.init_decoder_params)))
        return out

    @contextmanager
    def installed(self):
        """Patch the wrappers into the stripseg namespaces; undo on exit."""
        if self._wrappers is None:
            self._wrappers = self._patches()
        saved = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in self._wrappers]
        for mod, attr, wrapper in self._wrappers:
            setattr(mod, attr, wrapper)
        try:
            yield
        finally:
            for mod, attr, original in saved:
                setattr(mod, attr, original)

    # -- output ------------------------------------------------------------

    def write_jsonl(self, path, t0_ns: int) -> None:
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                row = asdict(s)
                row["id"] = i
                row["start_ns"] -= t0_ns
                row["end_ns"] -= t0_ns
                fh.write(json.dumps(row, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# Aggregation into per-layer metrics
# ---------------------------------------------------------------------------


def span_self(spans: list[Span], ids: list[int]) -> dict[int, tuple[int, int]]:
    """Self time (ns) and self MACs of each span in ids."""
    kids = defaultdict(list)
    for i in ids:
        if spans[i].parent >= 0:
            kids[spans[i].parent].append(i)
    out = {}
    for i in ids:
        s = spans[i]
        ch = kids.get(i, ())
        out[i] = (
            self_ns(s.start_ns, s.end_ns, [(spans[c].start_ns, spans[c].end_ns) for c in ch]),
            s.macs - sum(spans[c].macs for c in ch),
        )
    return out


def op_ids(spans: list[Span], op: str) -> list[int]:
    return [i for i, s in enumerate(spans) if s.op == op]


def _sub_blocks(spans: list[Span], children: list[int]) -> dict[str, int]:
    """Split a clb span's children into its mixer, LPM and MLP sub-blocks.

    Each sub-block ends with the residual add that follows its branch: the
    first add after the mixer span closes the mixer, the first add after the
    lpm span closes the LPM, and the rest is the MLP.
    """
    times = {"mixer": 0, "lpm": 0, "mlp": 0}
    has_lpm = any(spans[c].name == "decoder.lpm" for c in children)
    phase, branch_done = "mixer", False
    for c in sorted(children, key=lambda c: spans[c].start_ns):
        s = spans[c]
        times[phase] += s.end_ns - s.start_ns
        if s.name in _MIXERS or s.name == "decoder.lpm":
            branch_done = True
        elif s.name == "tensor.add" and branch_done and phase != "mlp":
            phase = "lpm" if phase == "mixer" and has_lpm else "mlp"
            branch_done = False
    return times


def op_metrics(spans: list[Span], op: str) -> dict[str, float]:
    """Per-layer metrics of one traced op (times in ms), keyed as OP_METRICS."""
    ids = op_ids(spans, op)
    selfs = span_self(spans, ids)
    kids = defaultdict(list)
    for i in ids:
        kids[spans[i].parent].append(i)
    m = dict.fromkeys(OP_METRICS, 0.0)
    kernel_ns = 0
    for i in ids:
        s = spans[i]
        dur_ms = (s.end_ns - s.start_ns) / 1e6
        own_ns, own_macs = selfs[i]
        kernel = s.name[len("tensor."):] if s.name.startswith("tensor.") and s.site != "bench" else None
        if kernel is not None:
            kernel_ns += own_ns
            m["tensor.calls"] += 1
            m["tensor.macs"] += own_macs
            m["tensor.out_mib"] += s.out_bytes / _MIB
            if kernel in REPORTED_KERNELS:
                m[f"tensor.{kernel}_ms"] += own_ns / 1e6
                m[f"tensor.{kernel}_calls"] += 1
        if kernel is not None and s.site == "attention":
            step = _ATTN_MATMUL_STEP.get(s.region) if kernel == "matmul" else _ATTN_STEP.get(kernel)
            if step is not None:
                m[f"attention.{step}_ms"] += own_ns / 1e6
            if step == "scores":
                m["attention.score_macs"] += own_macs
            elif step == "mix":
                m["attention.mix_macs"] += own_macs
        elif kernel is not None and s.site == "decoder":
            if kernel == "layernorm":
                m["decoder.norm_ms"] += own_ns / 1e6
            elif kernel in ("transpose", "reshape"):
                m["decoder.layout_ms"] += own_ns / 1e6
            elif kernel in _FUSE_KERNELS and spans[s.parent].name == "decoder.decode":
                m["decoder.fuse_ms"] += dur_ms
        if s.name in _MIXERS:
            m["attention.map_mib"] += s.info["map_bytes"] / _MIB
            stage = spans[s.parent].info.get("stage") if s.parent >= 0 else None
            if stage is not None:
                m[f"attention.s{stage}_ms"] += dur_ms
        elif s.name == "decoder.clb":
            stage = s.info.get("stage")
            if stage is not None:
                for sub, ns in _sub_blocks(spans, kids.get(i, [])).items():
                    m[f"decoder.s{stage}.{sub}_ms"] += ns / 1e6
        elif s.name == "decoder.build_mixed_kv":
            m["decoder.mixed_kv_ms"] += dur_ms
        elif s.name in ("tensor.backward", "scat.save_scat"):
            m["op.write_or_backward_ms"] += dur_ms
            m["scat.bytes"] += s.info.get("bytes", 0)
    m["tensor.gmac_per_s"] = m["tensor.macs"] / kernel_ns if kernel_ns else 0.0
    return m


def setup_metrics(spans: list[Span], op: str) -> dict[str, float]:
    """Metrics of one traced build of pyramid and parameters, as SETUP_METRICS."""
    m = dict.fromkeys(SETUP_METRICS, 0.0)
    for i in op_ids(spans, op):
        s = spans[i]
        dur_ms = (s.end_ns - s.start_ns) / 1e6
        if s.name == "synth.generate_pyramid":
            m["synth.pyramid_ms"] += dur_ms
        elif s.name == "synth.normal_array":
            m["synth.normal_array_ms"] += dur_ms
            m["synth.normals"] += s.info["normals"]
        elif s.name == "decoder.init_decoder_params":
            m["decoder.init_params_ms"] += dur_ms
    return m


def median_metrics(per_op: list[dict[str, float]]) -> dict[str, float]:
    return {k: median([d[k] for d in per_op]) for k in per_op[0]}
