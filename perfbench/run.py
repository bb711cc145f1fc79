"""stripseg benchmark launcher.

One workload, as the benchmark contract runs it (last stdout line is the
result JSON):

    python3 perfbench/run.py --workload fwd-realistic --seed 0 --seconds 10 --trace 0

Every workload on the reference seeds, untraced and traced, with a summary;
exits 1 if any op failed or any check did not hold:

    python3 perfbench/run.py --all [--seconds 10]

Rewrite perfbench/refs.json from the current code (after a deliberate change
of outputs):

    python3 perfbench/run.py --write-refs

Each workload runs in a fresh worker process (worker.py) whose BLAS thread
count is pinned here, before numpy is imported there. Results, masks and
span files go to .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True

import stats  # noqa: E402
from tracing import PER_LAYER_METRICS  # noqa: E402
from workloads import REF_SEEDS, WORKLOADS  # noqa: E402

# One BLAS thread, never the library default of one per core: on a 2-vCPU
# machine two threads made the small default decode slower (see README).
BLAS_THREADS = 1
# A worker may run this long beyond --seconds: import, set-up (~15 s at
# 512x1024), warm-up, the op that overruns the loop, and the traced ops.
WORKER_ALLOWANCE_S = 120
DEFAULT_SECONDS = 15  # as run_seconds in BENCHMARK.json
# Set-up is mostly pure-Python work. On a shared 2-vCPU VM, fresh-process
# set-ups of the default config taken back to back ranged 0.49-0.77 s, so
# one sample is not enough. Set-ups are repeated in fresh processes until
# the samples add up to this much time; a 512x1024 set-up (~12 s) is
# measured once.
SETUP_BUDGET_S = 10.0
SETUP_MAX_SAMPLES = 9
END_TO_END_UNITS = {"setup_s": "s", "op_ms_p50": "ms", "mpix_per_s": "Mpix/s", "peak_rss_mib": "MiB"}


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PYTHONHASHSEED"] = "0"  # same dict and set layouts, so the same allocation history, in every run
    return env


def _spawn(workload: str, seed: int, seconds: float, trace: int, setup_only: bool = False) -> tuple[dict, list[str]]:
    """Run one worker process; return its record and the lines before it."""
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--trace", str(trace),
        "--out-dir", str(OUT_DIR),
    ]
    if setup_only:
        cmd.append("--setup-only")
    timeout = seconds + WORKER_ALLOWANCE_S
    cmd += ["--spawn-ns", str(time.monotonic_ns())]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise RuntimeError(f"worker for {workload} did not finish within {timeout:g} s") from exc
    lines = proc.stdout.rstrip("\n").split("\n")
    if proc.returncode != 0 or not lines[-1].startswith("{"):
        sys.stdout.write(proc.stdout)
        raise RuntimeError(f"worker for {workload} exited with code {proc.returncode}")
    return json.loads(lines[-1]), lines[:-1]


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Run one workload in a fresh process; relay its lines; return its record.

    An untraced run then repeats the set-up in further fresh processes until
    the samples add up to SETUP_BUDGET_S, and reports their median as setup_s.
    """
    record, lines = _spawn(workload, seed, seconds, trace)
    for line in lines:
        print(line)
    if not trace:
        samples = [record["metrics"]["setup_s"]]
        while sum(samples) < SETUP_BUDGET_S and len(samples) < SETUP_MAX_SAMPLES:
            extra, _ = _spawn(workload, seed, 0, 0, setup_only=True)
            samples.append(extra["setup_s"])
            for key in ("attempted", "failed"):
                record[key] += extra[key]
            record["correct"] = record["correct"] and extra["correct"]
            record["problems"] += extra["problems"]
            for problem in extra["problems"]:
                print(f"  problem in a set-up-only run: {problem}")
        record["metrics"]["setup_s"] = stats.median(samples)
        record["setup_samples_s"] = samples
        print(f"setup_s: median of {len(samples)} fresh-process set-ups "
              f"({', '.join(f'{x:.3f}' for x in samples)} s)")
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-trace{trace}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return record


def metric_lines(record: dict) -> list[str]:
    lines = []
    for name, value in record["metrics"].items():
        unit = (PER_LAYER_METRICS if record["trace"] else END_TO_END_UNITS)[name]
        lines.append(f"  {name} = {value:.6g} {unit}")
    if not record["trace"]:
        n = record["timed_ops"]
        if record["op_ms_p90"] is None:
            lines.append(f"  op_ms_p90 not reported: {n} timed ops, fewer than ten would lie beyond it")
        else:
            lines.append(f"  op_ms_p90 = {record['op_ms_p90']:.6g} ms ({n} timed ops)")
        lines.append(f"  error_rate = {record['failed']}/{record['attempted']} failed/attempted")
    return lines


def _latest(workload: str, trace: int):
    path = OUT_DIR / "results" / f"{workload}-trace{trace}.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError):
        return None


def _unpaired(sca, ca):
    """Why two records may not be set side by side, or None if they may."""
    if not (sca and ca):
        return "needs runs of both fwd-realistic workloads"
    if sca["env"]["source_sha256"] != ca["env"]["source_sha256"]:
        return "stale: the two runs decoded different stripseg sources"
    if sca["seed"] != ca["seed"]:
        return f"stale: seeds {sca['seed']} and {ca['seed']} differ"
    return None


def paper_claim_line() -> str:
    """SCA against CA at 512x1024 from the latest results in this checkout."""
    parts = []
    sca, ca = _latest("fwd-realistic", 0), _latest("fwd-realistic-ca", 0)
    why = _unpaired(sca, ca)
    if why is None:
        parts.append(
            f"op_ms_p50 ratio {sca['op_ms_p50'] / ca['op_ms_p50']:.3f} "
            f"({sca['op_ms_p50']:.1f} ms SCA seed {sca['seed']} / {ca['op_ms_p50']:.1f} ms CA seed {ca['seed']})"
        )
    else:
        parts.append(f"op_ms_p50 ratio n/a ({why}, untraced)")
    sca_t, ca_t = _latest("fwd-realistic", 1), _latest("fwd-realistic-ca", 1)
    why_t = _unpaired(sca_t, ca_t)
    if why_t is None:
        parts.append(
            f"attention-span ratio {sca_t['attention_span_ms'] / ca_t['attention_span_ms']:.3f} "
            f"({sca_t['attention_span_ms']:.1f} ms / {ca_t['attention_span_ms']:.1f} ms, traced, seed {sca_t['seed']})"
        )
    else:
        parts.append(f"attention-span ratio n/a ({why_t}, traced)")
    sca_m, ca_m = (sca, ca) if why is None else (sca_t, ca_t)
    if _unpaired(sca_m, ca_m) is None:
        parts.append(
            f"counted-MAC ratio {sca_m['counted_macs'] / ca_m['counted_macs']:.3f} "
            f"({sca_m['counted_macs'] / 1e9:.3f} GMAC / {ca_m['counted_macs'] / 1e9:.3f} GMAC, seed {sca_m['seed']})"
        )
    else:
        parts.append(f"counted-MAC ratio n/a ({why})")
    return "paper claim, SCA vs CA decode at 512x1024: " + "; ".join(parts)


def contract_result(record: dict) -> dict:
    units = PER_LAYER_METRICS if record["trace"] else END_TO_END_UNITS
    if set(record["metrics"]) != set(units):
        raise RuntimeError(f"metric names {sorted(record['metrics'])} != {sorted(units)}")
    metrics = {name: {"value": record["metrics"][name], "unit": unit} for name, unit in units.items()}
    return {
        "correct": bool(record["correct"]),
        "attempted": int(record["attempted"]),
        "failed": int(record["failed"]),
        "metrics": metrics,
    }


def run_all(seconds: float) -> int:
    """Every workload on every reference seed untraced, and on the first traced."""
    rows, bad = [], []
    for seed in REF_SEEDS:
        for name in WORKLOADS:
            for trace in (0, 1) if seed == REF_SEEDS[0] else (0,):
                record = run_worker(name, seed, seconds, trace)
                rows.append(record)
                if not record["correct"] or record["failed"]:
                    bad.append(f"{name} seed {seed} trace {trace}")
    print()
    print("summary")
    for record in rows:
        print(f"{record['workload']} seed {record['seed']} trace {record['trace']}:")
        for line in metric_lines(record):
            if record["trace"] and not line.lstrip().startswith("trace."):
                continue
            print(line)
    print(paper_claim_line())
    if bad:
        print("FAILED: " + ", ".join(bad))
        return 1
    print("all ops correct on the reference seeds")
    return 0


def write_refs() -> int:
    refs = {}
    for name in WORKLOADS:
        for seed in REF_SEEDS:
            record, _ = _spawn(name, seed, 0, 0)
            refs.setdefault(name, {})[seed] = record["digest"]
    lines = [
        f"  {json.dumps(f'{name}/{seed}')}: {json.dumps(digests, sort_keys=True)}"
        for name, seeds in refs.items()
        for seed, digests in seeds.items()
    ]
    (HERE / "refs.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {HERE / 'refs.json'}")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description="stripseg benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=REF_SEEDS[0])
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload on the reference seeds")
    parser.add_argument("--write-refs", action="store_true", help="rewrite refs.json from the current code")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must be non-negative")
    if not (ROOT / "src" / "stripseg" / "__init__.py").is_file():
        print(f"error: no stripseg sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload is None and not (args.all or args.write_refs):
        parser.error("one of --workload, --all or --write-refs is required")
    try:
        if args.write_refs:
            return write_refs()
        if args.all:
            return run_all(args.seconds)
        record = run_worker(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in metric_lines(record):
        print(line)
    print(paper_claim_line())
    print(json.dumps(contract_result(record), sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
