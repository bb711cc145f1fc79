"""Command-line entry point.

Subcommands: forward, gradcheck, flops, bench, selftest. A single JSON
document configures each run; flags only pick the subcommand, config path
and output toggles. Exit codes are stable API: 0 success, 1 verification
failure, 2 config error, 3 shape/runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional

from . import analysis, selftest
from .config import (
    ConfigError,
    FORWARD_DEFAULTS,
    GRADCHECK_DEFAULTS,
    RunConfig,
    build_decoder_params,
    build_pyramid,
    config_echo,
    load_config,
    resolve_config,
)
from .decoder import decode
from .gradcheck import decoder_gradcheck
from .scat import save_scat
from .tensor import ShapeError, set_backward_tamper

GRADCHECK_THRESHOLD = 1e-3


def _load(args, defaults) -> RunConfig:
    if args.config is not None:
        cfg = load_config(args.config, defaults)
    else:
        cfg = resolve_config({}, defaults)
    if getattr(args, "out", None):
        cfg.output_dir = args.out
    return cfg


def _write_run_json(cfg: RunConfig, out_dir: Path) -> None:
    doc = json.dumps(config_echo(cfg), indent=2, sort_keys=True) + "\n"
    (out_dir / "run.json").write_text(doc)


def cmd_forward(args) -> int:
    cfg = _load(args, FORWARD_DEFAULTS)
    pyramid = build_pyramid(cfg)
    params = build_decoder_params(cfg)
    trace = decode(pyramid, params)
    out_dir = Path(cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_scat(out_dir / "mask.scat", trace.mask)
    if args.dump_trace:
        for stage in range(1, 5):
            save_scat(out_dir / f"M{stage}.scat", trace.mixed[stage - 1])
            save_scat(out_dir / f"D{stage}.scat", trace.decoded[stage - 1])
            save_scat(out_dir / f"attn{stage}.scat", trace.attn[stage - 1])
    _write_run_json(cfg, out_dir)
    print(f"mask {list(trace.mask.shape)} -> {out_dir / 'mask.scat'}")
    return 0


def cmd_gradcheck(args) -> int:
    cfg = _load(args, GRADCHECK_DEFAULTS)
    if cfg.pyramid.height > 32 or cfg.pyramid.width > 32:
        raise ConfigError(
            f"pyramid.height/width: gradcheck is limited to 32x32 inputs, "
            f"got {cfg.pyramid.height}x{cfg.pyramid.width}"
        )
    if args.tamper:
        set_backward_tamper(True)
    try:
        report = decoder_gradcheck(build_pyramid(cfg), build_decoder_params(cfg))
    finally:
        set_backward_tamper(False)
    width = max(len(name) for name in report)
    worst = 0.0
    for name, err in report.items():
        flag = "ok" if err < GRADCHECK_THRESHOLD else "FAIL"
        print(f"{name:<{width}}  {err:.3e}  {flag}")
        worst = max(worst, err)
    print(f"worst relative error: {worst:.3e} (threshold {GRADCHECK_THRESHOLD:.0e})")
    return 0 if worst < GRADCHECK_THRESHOLD else 1


def _emit_csv(rows, out: Optional[str], filename: str) -> None:
    text = analysis.rows_to_csv(rows)
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / filename).write_text(text)
        print(f"wrote {out_dir / filename}")
    else:
        sys.stdout.write(text)


def cmd_flops(args) -> int:
    cfg = _load(args, FORWARD_DEFAULTS)
    grid = cfg.sweep if cfg.sweep is not None else analysis.default_grid()
    rows = analysis.sweep(grid, seed=cfg.seed)
    _emit_csv(rows, args.out, "flops.csv")
    if args.check:
        bad = [r for r in rows if r["closed_form_flops"] != r["counted_attn_flops"]]
        if bad:
            for r in bad:
                print(
                    f"mismatch: {r['mixer']} N_q={r['N_q']} N_kv={r['N_kv']} "
                    f"closed={r['closed_form_flops']} counted={r['counted_attn_flops']}",
                    file=sys.stderr,
                )
            return 1
        print("closed-form and counted attention MACs agree on all rows")
    return 0


def cmd_bench(args) -> int:
    cfg = _load(args, FORWARD_DEFAULTS)
    b = cfg.bench
    attn_cfg = analysis.AttnConfig(
        n_q=b.n_tokens,
        n_kv=b.n_tokens,
        c_q=b.channels,
        c_kv=b.channels,
        heads=b.heads,
        dim_head=b.channels // b.heads,
    )
    rows = analysis.sweep(
        [attn_cfg], time_it=True, repeats=b.repeats, warmup=b.warmup, seed=cfg.seed
    )
    _emit_csv(rows, args.out, "bench.csv")
    return 0


def cmd_selftest(args) -> int:
    if args.tamper:
        set_backward_tamper(True)
    try:
        results = selftest.run_selftest()
    finally:
        set_backward_tamper(False)
    for name, passed in results.items():
        print(f"{name}: {'PASS' if passed else 'FAIL'}")
    return 0 if all(results.values()) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stripseg",
        description="Strip cross-attention segmentation decoder: run, verify, measure.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_forward = sub.add_parser("forward", help="decode a synthetic pyramid to a mask")
    p_forward.add_argument("--config", help="JSON run configuration")
    p_forward.add_argument("--out", help="output directory (overrides config)")
    p_forward.add_argument("--dump-trace", action="store_true", help="also dump M/D/attn tensors")
    p_forward.set_defaults(fn=cmd_forward)

    p_grad = sub.add_parser("gradcheck", help="finite-difference check of all decoder gradients")
    p_grad.add_argument("--config", help="JSON run configuration (inputs capped at 32x32)")
    p_grad.add_argument("--tamper", action="store_true", help=argparse.SUPPRESS)
    p_grad.set_defaults(fn=cmd_gradcheck)

    p_flops = sub.add_parser("flops", help="closed-form vs counted attention MACs, CSV")
    p_flops.add_argument("--config", help="JSON run configuration (optional sweep list)")
    p_flops.add_argument("--out", help="directory for flops.csv (default: stdout)")
    p_flops.add_argument("--check", action="store_true", help="fail unless closed == counted")
    p_flops.set_defaults(fn=cmd_flops)

    p_bench = sub.add_parser("bench", help="median wall time per mixer, CSV")
    p_bench.add_argument("--config", help="JSON run configuration")
    p_bench.add_argument("--out", help="directory for bench.csv (default: stdout)")
    p_bench.set_defaults(fn=cmd_bench)

    p_self = sub.add_parser("selftest", help="run the built-in verification suites")
    p_self.add_argument("--tamper", action="store_true", help=argparse.SUPPRESS)
    p_self.set_defaults(fn=cmd_selftest)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ShapeError as exc:
        print(f"shape error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
