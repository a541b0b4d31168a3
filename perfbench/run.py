"""Layered benchmark of the shortpres CLI.

    python3 perfbench/run.py --workload {sweep,large,order,emit} --seed N
        --seconds T --trace {0,1}

Run from the root of a checkout; the package is imported from its src/.

Workloads (rounds of seeded argv lists, see workloads.py):
  sweep  verify at 65 degrees a round, stratified over the covered 13..4096
  large  verify at one degree from each quarter of [10^6, 2*10^6) a round
  order  verify --depth order at every covered degree 13..28, both kinds
  emit   emit at 33 degrees a round from [13, 2^64), stratified by cost

With --trace 0 the workload runs untraced in a fresh process, in whole
rounds until T seconds have passed (on emit, T rounds, see ROUNDS_PER_S),
set-up is timed in six fresh processes, three before the workload and three
after it, and the end-to-end metrics are printed.  With --trace 1 the same
rounds run untraced for T/2 seconds and then, as many items again, traced,
each in a fresh process; the per-layer metrics and the tracing overhead are
printed.  The last line of stdout is the result
object; the line before it holds the full report with provenance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sweep", "large", "order", "emit")
# Per-item limits, far above every item's time (on emit, 20 times the cost
# cap of its draw); an item that reaches one fails as ItemTimeLimit.
ITEM_LIMIT_S = {"sweep": 20.0, "large": 60.0, "order": 30.0, "emit": 10.0}
# Rounds a run does per second of T on workloads whose runs are sized by
# item count rather than by the clock: emit's items fail by degree, so a
# seed's failed count must not depend on how many items the clock allowed.
# About one round a second on a 2-CPU x86 VM.
ROUNDS_PER_S = {"emit": 1.0}
SETUP_PROBES = 6
DEADLINE_S = 170  # seconds the whole run, workers included, may take
START = time.perf_counter()
SETUP_CODE = """\
import contextlib, io, sys, time
sys.path.insert(0, sys.argv[1])
from shortpres import cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        cli.main(["--help"])
    except SystemExit:
        pass
print(time.perf_counter())
"""
END_TO_END = {
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
    "slp_bits": "bits",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a valid result."""


def child_env():
    env = dict(os.environ)
    env.update(PYTHONHASHSEED="0", OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    return env


def setup_samples(count):
    """Times from process start to a built CLI parser, imports included.

    perf_counter is the system-wide monotonic clock, so the child's reading
    can be compared with the parent's reading taken just before the spawn.
    """
    samples = []
    for _ in range(count):
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, env=child_env(),
                              timeout=30, cwd=ROOT)
        if proc.returncode:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]) - t0)
    return samples


def worker(workload, seed, seconds, trace=False, max_items=None):
    if max_items is None and workload in ROUNDS_PER_S:
        rounds = max(1, round(seconds * ROUNDS_PER_S[workload]))
        max_items = rounds * workloads.ROUND_SIZE[workload]
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--limit", str(ITEM_LIMIT_S[workload])]
    if trace:
        cmd.append("--trace")
    if max_items is not None:
        cmd += ["--max-items", str(max_items)]
    left = DEADLINE_S - (time.perf_counter() - START)
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=max(left, 1), cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} run went past {DEADLINE_S} s") from exc
    if proc.returncode:
        raise BenchError(f"{workload} worker failed:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.splitlines()[-1])


def commit():
    """HEAD of the checkout when it is a git work tree, else None."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((SRC / "shortpres").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args):
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_sha256": source_digest(),
        "seed": args.seed,
        "run_seconds": args.seconds,
        "item_limit_s": ITEM_LIMIT_S[args.workload],
        "loop": "closed, one client, items one after another",
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args, report):
    # Half the probes before the workload and half after it, so that the
    # median spans the run rather than one moment of the machine's speed.
    samples = setup_samples(SETUP_PROBES // 2)
    run = worker(args.workload, args.seed, args.seconds)
    samples += setup_samples(SETUP_PROBES - SETUP_PROBES // 2)
    setup = statistics.median(samples)
    if run["slp_bits"] is None:
        raise BenchError("no item produced a presentation")
    values = {
        "setup_s": setup,
        "items_per_s": run["items_per_s"],
        "peak_rss_mb": run["peak_rss_mb"],
        "ok_frac": 1 - run["failed"] / run["attempted"],
        "slp_bits": run["slp_bits"],
    }
    report.update(run=run, setup_samples_s=samples)
    return run, {name: metric(values[name], unit) for name, unit in END_TO_END.items()}


def per_layer(args, report):
    plain = worker(args.workload, args.seed, args.seconds / 2)
    traced = worker(args.workload, args.seed, 0, trace=True,
                    max_items=plain["attempted"])
    metrics = dict(traced["layers"])
    metrics["trace.overhead_frac"] = metric(
        traced["wall_s"] / plain["wall_s"] - 1, "ratio")
    report.update(untraced=plain, run=traced)
    correct = plain["correct"] and traced["correct"]
    return dict(traced, correct=correct), metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description="shortpres layered benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "shortpres" / "__init__.py").is_file():
        print(f"run.py: no package source at {SRC}", file=sys.stderr)
        return 2
    report = {"workload": args.workload, "provenance": provenance(args)}
    try:
        run, metrics = (per_layer if args.trace else end_to_end)(args, report)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    report["provenance"].update(python=run["python"], numpy=run["numpy"],
                                items_per_round=run["items_per_round"])
    report["metrics"] = metrics
    print(json.dumps(report))
    print(json.dumps({
        "correct": run["correct"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
