"""One workload run in a fresh single-threaded process.

    python3 perfbench/worker.py --workload W --seed S --seconds T --limit L
        [--trace] [--max-items K]

Each item is one in-process call of shortpres.cli.main(argv), with stdout
and stderr captured.  Items run one after another (a closed loop with one
client), in whole rounds until T seconds have passed, or until K items are
done.  An item
that raises, exits non-zero or runs past the per-item limit L counts as
failed, and its error class is recorded.  Output checks, SLP bit lengths and
the error classes behind non-zero exits are worked out after the timed loop,
where work that is repeated runs under the much larger RERUN_LIMIT_S.
Prints one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import signal
import statistics
import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WARM_UP = ("verify", "-n", "13", "--kind", "both")
RERUN_LIMIT_S = 60.0


class ItemTimeLimit(Exception):
    """The item ran past the per-item limit."""


def _on_alarm(signum, frame):
    raise ItemTimeLimit()


def import_package():
    """Import shortpres from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import shortpres

    origin = Path(shortpres.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"shortpres imported from {origin}, not from {SRC}")


@contextlib.contextmanager
def time_limit(seconds):
    """Raise ItemTimeLimit in the block once `seconds` have passed."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def call(main, argv, limit):
    """Run main(argv) under the limit; return (seconds, stdout, error class)."""
    real = sys.stdout, sys.stderr
    out = io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with time_limit(limit), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            code = main(list(argv))
        if code:
            error = f"exit{code}"
    except (Exception, SystemExit) as exc:  # every failure is one failed item
        error = type(exc).__name__
    seconds = time.perf_counter() - t0
    sys.stdout, sys.stderr = real  # in case the alarm cut a redirect short
    return seconds, out.getvalue(), error


def exit_cause(argv):
    """The exception behind a non-zero exit.  The CLI prints only its
    message, so the item's work is repeated through the library."""
    from shortpres import builders, verify

    n = int(argv[argv.index("-n") + 1])
    kind = argv[argv.index("--kind") + 1]
    try:
        with time_limit(RERUN_LIMIT_S):
            pres = builders.presentation_for(n, kind)
            if argv[0] == "verify":
                depth = "order" if "order" in argv else "relators"
                verify.verify_presentation(pres, depth=depth)
    except Exception as exc:
        return type(exc).__name__
    return "none"


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def run(workload, seed, seconds, limit, trace=False, max_items=None):
    """Run the workload; return its report as a dict."""
    import numpy

    import checks
    import workloads
    from shortpres import cli

    rounds = workloads.rounds(workload, seed)
    batch = next(rounds)  # builds the pool, outside the timed loop
    first_round = list(batch)
    call(cli.main, WARM_UP, limit)
    tracer = None
    if trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()

    distinct, times, failed, first, problems = [], [], [], {}, []
    succeeded = Counter()
    out_bytes = 0
    t_start = time.perf_counter()
    while True:
        for argv in batch[:None if max_items is None else max_items - len(times)]:
            dt, text, error = call(cli.main, argv, limit)
            times.append(dt)
            out_bytes += len(text.encode())
            if error:
                failed.append((argv, error))
                continue
            succeeded[argv] += 1
            if argv not in first:
                first[argv] = text
                distinct.append(argv)
            elif first[argv] != text:
                problems.append(f"{' '.join(argv)}: output changed on repeat")
        if max_items is not None:
            if len(times) >= max_items:
                break
        elif time.perf_counter() - t_start >= seconds:
            break
        batch = next(rounds)
    wall = time.perf_counter() - t_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    layers = tracer.metrics() if tracer else {}

    # Everything below is outside the timed region.
    digest = hashlib.sha256()
    for argv in distinct:
        text = first[argv]
        digest.update("\0".join(argv).encode() + b"\0" + text.encode() + b"\0")
        try:
            checks.check(argv, text)
        except checks.FloatBoundOutput:
            failed += [(argv, "wrong:FloatBoundOutput")] * succeeded[argv]
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    # slp_bits: a set of presentations fixed by the seed, whatever the items'
    # outcomes in the timed loop.  Each is emitted here unless the loop
    # already emitted it.
    bits = []
    for argv in [] if trace else workloads.sized(workload, seed, first_round):
        emit_argv = ("emit",) + argv[1:5]
        text = first.get(emit_argv)
        try:
            if text is None:
                _, text, error = call(cli.main, emit_argv, RERUN_LIMIT_S)
                if error:
                    raise checks.CheckFailed(f"{' '.join(emit_argv)}: {error}")
            bits.append(checks.check_emit(emit_argv, text))
        except checks.CheckFailed as exc:
            problems.append(str(exc))
    causes = {}
    for argv, error in failed:
        if error.startswith("exit") and argv not in causes:
            causes[argv] = exit_cause(argv)
    fail_classes = Counter(
        f"{error}:{causes[argv]}" if argv in causes else error
        for argv, error in failed)

    report = {
        "workload": workload,
        "seed": seed,
        "traced": trace,
        "items_per_round": len(batch),
        "attempted": len(times),
        "failed": len(failed),
        "fail_classes": dict(fail_classes),
        "correct": not problems,
        "problems": problems[:10],
        "wall_s": wall,
        "items_per_s": len(times) / wall,
        "item_p50_ms": 1000 * statistics.median(times),
        "item_p90_ms": 1000 * percentile(times, 90),
        "peak_rss_mb": peak_rss_mb,
        "slp_bits": statistics.mean(bits) if bits else None,
        "slp_bits_samples": len(bits),
        "out_bytes": out_bytes,
        "output_sha256": digest.hexdigest(),
        "distinct_items_done": len(first),
        "item_limit_s": limit,
        "near_limit": sum(limit / 2 <= t < limit for t in times),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if tracer:
        layers["cli.out_bytes"] = (out_bytes, "bytes")
        report["layers"] = {name: {"value": value, "unit": unit}
                            for name, (value, unit) in layers.items()}
    return report


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--limit", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--max-items", type=int)
    args = parser.parse_args(argv)
    import_package()
    report = run(args.workload, args.seed, args.seconds, args.limit,
                 trace=args.trace, max_items=args.max_items)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
