"""The traced benchmark still accepts the package.

perfbench's Tracer patches stripseg functions by name in the decoder and
attention namespaces and reads clb's positional (h, w) to tell the stages
apart, so a renamed or re-signed function there shows up only when a traced
run reads zero. The benchmark's forward op (a default decode) and its train
op (a taped default decode plus backward) run through it here, in-process.
"""

import sys
from pathlib import Path

from stripseg import analysis, attention, config, decoder, scat, synth, tensor
from stripseg.config import build_decoder_params, build_pyramid, resolve_config

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import tracing  # noqa: E402


def default_tracer(cfg):
    tracer = tracing.Tracer({
        "analysis": analysis,
        "attention": attention,
        "config": config,
        "decoder": decoder,
        "scat": scat,
        "synth": synth,
        "tensor": tensor,
    })
    tracer.stage_of = {cfg.pyramid.stage_grid(stage): stage for stage in range(1, 5)}
    return tracer


def test_default_decode_fills_every_stage_metric():
    cfg = resolve_config({})
    pyramid = build_pyramid(cfg)
    params = build_decoder_params(cfg)
    tracer = default_tracer(cfg)
    with tracer.installed(), tensor.count_macs() as mc, tracer.op("op0", mc):
        tracer.api["decode"](pyramid, params)
    m = tracing.op_metrics(tracer.spans, "op0")

    assert m["tensor.macs"] == analysis.decode_macs(pyramid, params)
    names = [f"attention.s{stage}_ms" for stage in range(1, 5)]
    names += [f"decoder.s{stage}.lpm_ms" for stage in range(1, 5)]
    names.append("decoder.mixed_kv_ms")
    for name in names:
        assert m[name] > 0, name
    # each key/value level pooled and laid out once per decode
    assert m["tensor.adaptive_avg_pool_calls"] == 7
    assert m["tensor.transpose_calls"] <= 43
    # one fused strip-attention kernel per stage in place of four
    assert m["tensor.calls"] <= 224


def test_taped_decode_and_backward_fill_the_train_metrics():
    cfg = resolve_config({})
    pyramid = build_pyramid(cfg)
    params = build_decoder_params(cfg)
    tracer = default_tracer(cfg)
    tape = tensor.Tape()
    with tracer.installed(), tensor.count_macs() as mc, tracer.op("op0", mc):
        trace = tracer.api["decode"](pyramid, params, tape)
        grads = tracer.api["backward"](tape, tensor.sum_all(trace.mask))
    m = tracing.op_metrics(tracer.spans, "op0")

    assert m["tensor.macs"] == analysis.decode_macs(pyramid, params)
    assert m["op.write_or_backward_ms"] > 0
    missing = [name for name, leaf in trace.param_leaves.items() if leaf.tid not in grads]
    assert not missing
