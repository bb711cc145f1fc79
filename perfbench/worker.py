"""Run one workload in this (fresh) process and print its result record.

Started by run.py, which has already pinned the BLAS thread count in the
environment. The last stdout line is a JSON record; the lines before it are
for people.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
        --spawn-ns T --out-dir DIR [--setup-only]

With --setup-only it stops after set-up and the warm-up ops and reports only
its set-up time, for run.py's repeated set-up measurement.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import subprocess
import sys
import time
from contextlib import ExitStack
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import stripseg  # noqa: E402
from stripseg import analysis, attention, config, decoder, scat, synth  # noqa: E402

# The package re-exports a function named `tensor`; fetch the module itself.
tensor = importlib.import_module("stripseg.tensor")

import stats  # noqa: E402
import tracing  # noqa: E402
from workloads import REF_SEEDS, WORKLOADS  # noqa: E402

T_IMPORTED_NS = time.monotonic_ns()

WARMUP_OPS = 2  # lets malloc's mmap threshold and lazy tables settle
MIN_TIMED_OPS = 3  # per kind: untraced, and traced in a traced run

PLAIN_API = {
    "decode": decoder.decode,
    "backward": tensor.backward,
    "save_scat": scat.save_scat,
    "resolve_config": config.resolve_config,
    "decode_macs": analysis.decode_macs,
}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _openblas():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                if get_threads is not None and get_config is not None:
                    get_threads.restype = ctypes.c_int
                    get_config.restype = ctypes.c_char_p
                    return get_config().decode(), get_threads()
    return None, None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_sha():
    try:
        res = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "stripseg").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    runtime_config, runtime_threads = _openblas()
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "stripseg": stripseg.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_runtime": runtime_config,
        "blas_threads": runtime_threads,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
    }


# ---------------------------------------------------------------------------
# Ops and their checks
# ---------------------------------------------------------------------------


def forward_op(api, pyramid, params, mask_path):
    trace = api["decode"](pyramid, params)
    api["save_scat"](mask_path, trace.mask)
    return {"mask": trace.mask.data}, 0


def train_op(api, pyramid, params, mask_path):
    tape = tensor.Tape()
    trace = api["decode"](pyramid, params, tape)
    grads = api["backward"](tape, tensor.sum_all(trace.mask))
    out = {"mask": trace.mask.data}
    for name, leaf in trace.param_leaves.items():
        if leaf.tid in grads:
            out[f"grad:{name}"] = grads[leaf.tid].data
    return out, len(tape.nodes)


OPS = {"forward": forward_op, "train": train_op}


def check_outputs(outputs: dict, mask_shape: tuple, param_shapes: dict, mask_path) -> tuple[list[str], str]:
    """Shape and finiteness problems of one op's outputs, and their hash.

    The hash covers every output array and, for a forward op, the SCAT file
    it wrote, so equal hashes mean byte-identical results.
    """
    problems = []
    h = hashlib.sha256()
    for name in sorted(outputs):
        arr = outputs[name]
        want = mask_shape if name == "mask" else param_shapes[name[len("grad:"):]]
        if arr.shape != tuple(want):
            problems.append(f"{name} shape {arr.shape} != {tuple(want)}")
        if not np.isfinite(arr).all():
            problems.append(f"{name} is not finite")
        h.update(name.encode() + b"\0")
        h.update(np.ascontiguousarray(arr).tobytes())
    if mask_path is not None:
        h.update(Path(mask_path).read_bytes())
    return problems, h.hexdigest()


def output_digest(outputs: dict) -> dict:
    return {
        name: stats.digest(arr, stats.DIGEST_BLOCKS if name == "mask" else 2)
        for name, arr in sorted(outputs.items())
    }


def reference_problems(got: dict, ref: dict) -> list[str]:
    """Digest mismatches against the reference. A gradient leaf is judged
    against the norm of all gradients together, because some leaves are
    zero in exact arithmetic and hold only rounding noise."""
    grad_norm = math.sqrt(sum(stats.digest_norm(d) ** 2 for name, d in ref.items() if name.startswith("grad:")))
    problems = []
    for name in sorted(set(got) | set(ref)):
        if name not in got or name not in ref:
            problems.append(f"{name}: present in only one of output and reference")
            continue
        whole = grad_norm if name.startswith("grad:") else 0.0
        problems.extend(f"{name}: {p}" for p in stats.digest_mismatches(got[name], ref[name], whole_norm=whole))
    return problems


class OpChecker:
    """Counts failed ops. An op fails if it raises, if an output has the
    wrong shape or is non-finite, if its bytes differ from the run's first
    op, or (on a reference seed) if the first op's digest is off."""

    def __init__(self, mask_shape, param_shapes, ref):
        self.mask_shape = mask_shape
        self.param_shapes = param_shapes
        self.ref = ref
        self.first_hash = None
        self.first_ok = True
        self.digest = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def record(self, outputs, mask_path, error=None) -> None:
        self.attempted += 1
        if error is not None:
            problems = [f"raised {type(error).__name__}: {error}"]
        else:
            problems, digest_hex = check_outputs(outputs, self.mask_shape, self.param_shapes, mask_path)
            if self.first_hash is None:
                self.first_hash = digest_hex
                self.digest = output_digest(outputs)
                if self.ref is not None:
                    ref_problems = reference_problems(self.digest, self.ref)
                    self.first_ok = not ref_problems
                    problems += [f"reference: {p}" for p in ref_problems]
            elif digest_hex != self.first_hash:
                problems.append("bytes differ from the first op of this run")
            elif not self.first_ok:
                problems.append("reference digest mismatch (same bytes as the first op)")
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.extend(problems)


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def load_refs(workload: str, seed: int):
    path = Path(__file__).with_name("refs.json")
    if seed not in REF_SEEDS or not path.exists():
        return None
    return json.loads(path.read_text()).get(f"{workload}/{seed}")


def run(args) -> dict:
    wl = WORKLOADS[args.workload]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mask_path = out_dir / f"mask-{wl.name}.scat" if wl.op == "forward" else None
    op_fn = OPS[wl.op]
    t_env = time.monotonic_ns()
    env = environment()
    env_probe_ns = time.monotonic_ns() - t_env  # not set-up: left out of setup_s
    print("env " + json.dumps(env, sort_keys=True), flush=True)

    mods = {
        "analysis": analysis,
        "attention": attention,
        "config": config,
        "decoder": decoder,
        "scat": scat,
        "synth": synth,
        "tensor": tensor,
    }
    tracer = None
    api = PLAIN_API
    if args.trace:
        tracer = tracing.Tracer(mods)
        api = tracer.api

    def traced(op_id, counter=None):
        stack = ExitStack()
        if tracer is not None and op_id is not None:
            stack.enter_context(tracer.installed())
            stack.enter_context(tracer.op(op_id, counter))
        return stack

    # Set-up: resolve the config, generate the pyramid, init the parameters.
    t_build = time.monotonic_ns()
    with traced("setup"):
        cfg = api["resolve_config"](wl.config_doc(args.seed))
        pyramid = config.build_pyramid(cfg)
        params = config.build_decoder_params(cfg)
    build_s = (time.monotonic_ns() - t_build) / 1e9

    spec = pyramid.spec
    if tracer is not None:
        tracer.stage_of = {spec.stage_grid(stage): stage for stage in range(1, 5)}
    mask_shape = (spec.batch, cfg.num_classes) + spec.stage_grid(1)
    param_shapes = {name: arr.shape for name, arr in tensor.flatten_params(params)}
    checker = OpChecker(mask_shape, param_shapes, load_refs(wl.name, args.seed))
    pixels = spec.height * spec.width * spec.batch

    def one_op(op_id=None, counter=None):
        t0 = time.perf_counter_ns()
        try:
            with traced(op_id, counter):
                outputs, nodes = op_fn(api, pyramid, params, mask_path)
        except Exception as exc:  # a failing op is counted, not fatal
            dt = time.perf_counter_ns() - t0
            checker.record(None, None, exc)
            return dt, 0
        dt = time.perf_counter_ns() - t0
        checker.record(outputs, mask_path)
        return dt, nodes

    t_warm = time.monotonic_ns()
    with tensor.count_macs() as mc:
        one_op()
    counted_macs = mc.total
    for _ in range(WARMUP_OPS - 1):
        one_op()
    t_first_op = time.monotonic_ns()
    # setup_s: from the launcher's spawn of this process to the first timed
    # op, less the environment probe, which a user of the package never runs.
    setup_s = (t_first_op - args.spawn_ns - env_probe_ns) / 1e9
    setup_parts_s = {
        "import": (T_IMPORTED_NS - args.spawn_ns) / 1e9,
        "env_probe": env_probe_ns / 1e9,
        "build": build_s,
        "warmup": (t_first_op - t_warm) / 1e9,
    }
    if args.setup_only:
        return {
            "workload": wl.name,
            "seed": args.seed,
            "correct": checker.failed == 0,
            "attempted": checker.attempted,
            "failed": checker.failed,
            "problems": checker.problems,
            "setup_s": setup_s,
            "setup_parts_s": setup_parts_s,
        }

    # Timed closed loop, one client. A traced run alternates untraced and
    # traced ops, so the tracing overhead is read within one process.
    plain_ns, traced_ns, traced_ops, tape_nodes = [], [], [], []
    t_loop = time.monotonic()
    while (
        time.monotonic() - t_loop < args.seconds
        or len(plain_ns) < MIN_TIMED_OPS
        or (tracer is not None and len(traced_ns) < MIN_TIMED_OPS)
    ):
        dt, _ = one_op()
        plain_ns.append(dt)
        if len(plain_ns) == MIN_TIMED_OPS:
            # A taped decode leaves reference cycles that only the cyclic GC
            # frees, so the process's high-water mark keeps rising with
            # every op a run fits in. Read it after a fixed amount of work.
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            op_id = f"op{len(traced_ns)}"
            with tensor.count_macs() as mc:
                dt, nodes = one_op(op_id, mc)
            traced_ns.append(dt)
            traced_ops.append(op_id)
            tape_nodes.append(nodes)

    end_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    op_ms = [ns / 1e6 for ns in plain_ns]
    record = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "env": env,
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "problems": checker.problems,
        "digest": checker.digest,
        "counted_macs": counted_macs,
        "timed_ops": len(op_ms),
        "op_ms_p50": stats.median(op_ms),
        "op_ms_p90": stats.percentile(op_ms, 90),
    }
    print(f"{wl.name}: seed {args.seed}, {len(op_ms)} timed ops, {checker.attempted} attempted, "
          f"{checker.failed} failed; counted MACs per decode {counted_macs}; "
          f"ru_maxrss {rss_mib:.1f} MiB after {WARMUP_OPS + MIN_TIMED_OPS} ops, {end_rss_mib:.1f} MiB at the end")
    for p in checker.problems:
        print(f"  problem: {p}")

    if tracer is None:
        record["metrics"] = {
            "setup_s": setup_s,
            "op_ms_p50": stats.median(op_ms),
            "mpix_per_s": pixels * len(op_ms) / (sum(plain_ns) / 1e9) / 1e6,
            "peak_rss_mib": rss_mib,
        }
        record["setup_parts_s"] = setup_parts_s
        return record

    # Traced run: per-layer metrics, MAC check, overhead.
    per_op = []
    for op_id, nodes in zip(traced_ops, tape_nodes):
        m = tracing.op_metrics(tracer.spans, op_id)
        m["tensor.tape_nodes"] = float(nodes)
        per_op.append(m)
    layer = tracing.median_metrics(per_op)
    layer.update(tracing.setup_metrics(tracer.spans, "setup"))
    with traced("check"):
        expected_macs = api["decode_macs"](pyramid, params)
    # Only MACs that land in a kernel span's self count reach tensor.macs and
    # the attention MAC metrics, so the kernel spans alone must add up.
    mac_sums = [int(m["tensor.macs"]) for m in per_op]
    if any(s != expected_macs for s in mac_sums):
        record["correct"] = False
        record["problems"].append(f"kernel-span MACs {sorted(set(mac_sums))} != analysis.decode_macs {expected_macs}")
    traced_p50 = stats.median([ns / 1e6 for ns in traced_ns])
    untraced_p50 = stats.median(op_ms)
    layer["trace.op_ms_p50"] = traced_p50
    layer["trace.overhead_pct"] = (traced_p50 / untraced_p50 - 1.0) * 100.0
    record["metrics"] = layer
    record["attention_span_ms"] = sum(layer[f"attention.s{stage}_ms"] for stage in range(1, 5))
    record["mac_check"] = {"kernel_span_sum": mac_sums[0], "decode_macs": expected_macs}
    spans_path = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
    tracer.write_jsonl(spans_path, args.spawn_ns)
    print(f"kernel-span self MACs of one op {mac_sums[0]} vs analysis.decode_macs {expected_macs}: "
          f"{'equal' if mac_sums[0] == expected_macs else 'DIFFERENT'}")
    print(f"tracing overhead on {wl.name}: traced op_ms_p50 {traced_p50:.4f} ms vs untraced "
          f"{untraced_p50:.4f} ms ({len(traced_ns)} and {len(op_ms)} ops, same process): "
          f"{layer['trace.overhead_pct']:+.1f}%")
    print(f"spans: {len(tracer.spans)} written to {spans_path}")
    return record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spawn-ns", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    parser.add_argument("--setup-only", action="store_true", help="stop after set-up and warm-up")
    args = parser.parse_args()
    record = run(args)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
