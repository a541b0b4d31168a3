"""Command-line interface.

Subcommands:
  emit      print a presentation (slp text, flat relator lines, or json)
  verify    evaluate relators (optionally certify the group order)
  stats     CSV of sizes across a degree range
  falsify   re-evaluate the uncorrected constructions at a prime
  params    print the derived arithmetic parameters

Degrees are given as a single value (17), a range (13..20), or a
comma-separated mix (13,15..17), read lazily.  A batch handles each degree
on its own: a degree that is not covered (or too large to check, or to
prove its glue prime) gets its error line on stderr and the others still
print.  Output is written as each degree is done, and an --out file is
opened before the first one.  Exit codes: 0 success, 1
verification failure, 2 unsupported degree or size limit, 3 bad
arguments (an --out that cannot be opened among them), 4 internal error
(a construction broke one of its own invariants, printed as "shortpres:
internal error: ..."), 141 stdout closed early (a reader such as head
stopped; nothing more is printed); a batch exits
with 1 if any degree failed, else 2 if any was refused.  An internal
error stops the batch, whether it ran in this process or under --jobs.

The array layer is entered only where a command needs it: verify is
imported by the verify and falsify handlers, perm (and so numpy) by the
--jobs path and by the first image built, which emit --format json reads.
--help, params, stats and emit as slp or flat text never load numpy.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import functools
import itertools
import json
import math
import os
import sys

from . import builders
from .errors import (
    BadPrimeClass,
    DegreeTooLarge,
    EnumerationTooLarge,
    InternalInvariantViolation,
    UnsupportedDegree,
)

_EXIT_OK = 0
_EXIT_VERIFY = 1
_EXIT_UNSUPPORTED = 2
_EXIT_BADARGS = 3
_EXIT_INTERNAL = 4
_EXIT_PIPE = 141  # 128 + SIGPIPE, what a shell reports for a piped-off writer


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_BADARGS, f"{self.prog}: error: {message}\n")


def _parse_degrees(text):
    """The degrees the text names, in order, as an iterator: the whole text
    is checked first, and no range is built."""
    spans = []
    for part in text.split(","):
        part = part.strip()
        lo_s, dots, hi_s = part.partition("..")
        try:
            lo = int(lo_s)
            hi = int(hi_s) if dots else lo
        except ValueError:
            raise ValueError(f"bad degree {part!r}") from None
        if hi < lo:
            raise ValueError(f"empty range {part!r}")
        spans.append(range(lo, hi + 1))
    return itertools.chain.from_iterable(spans)


def _kinds(arg):
    return ("Alt", "Sym") if arg == "both" else (arg.capitalize(),)


def _jobs(text):
    """The --jobs value: a whole number of worker processes, at least 1."""
    try:
        jobs = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a whole number: {text!r}") from None
    if jobs < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {jobs}")
    return jobs


def _add_common(sub):
    sub.add_argument("--degree", "-n", required=True,
                     help="degree, range lo..hi, or comma list")
    sub.add_argument("--kind", choices=("alt", "sym", "both"), default="both")


@functools.cache
def _build_parser():
    parser = _Parser(prog="shortpres",
                     description="short presentations of alternating and "
                                 "symmetric groups, with machine verification")
    subs = parser.add_subparsers(dest="command", required=True)

    p_emit = subs.add_parser("emit", help="print a presentation")
    _add_common(p_emit)
    p_emit.add_argument("--format", choices=("slp", "flat", "json"),
                        default="slp")
    p_emit.add_argument("--simplify", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="reduce exponents inside auxiliary words")
    p_emit.add_argument("--out", help="write to a file instead of stdout")

    p_ver = subs.add_parser("verify", help="evaluate relators under the images")
    _add_common(p_ver)
    p_ver.add_argument("--depth", choices=("relators", "order"),
                       default="relators")
    p_ver.add_argument("--simplify", action=argparse.BooleanOptionalAction,
                       default=True)
    p_ver.add_argument("--jobs", type=_jobs, default=1,
                       help="verify degrees in up to this many parallel "
                            "processes, at most one per usable CPU")
    p_ver.add_argument("--out", help="also write the reports as JSON")

    p_stats = subs.add_parser("stats", help="CSV of presentation sizes")
    _add_common(p_stats)
    p_stats.add_argument("--simplify", action=argparse.BooleanOptionalAction,
                         default=True)
    p_stats.add_argument("--out", help="write CSV to a file instead of stdout")

    p_fals = subs.add_parser("falsify",
                             help="show that the uncorrected variants fail")
    p_fals.add_argument("--p", type=int, default=11,
                        help="prime at which to evaluate (default 11)")

    p_par = subs.add_parser("params", help="print derived parameters")
    _add_common(p_par)
    return parser


@contextlib.contextmanager
def _output(out_path):
    """The --out file, opened now so that a bad path fails before any
    degree is computed, or stdout."""
    if not out_path:
        yield sys.stdout
        return
    with open(out_path, "w", encoding="utf-8") as fh:
        yield fh


def _requests(args):
    return ((n, kind) for n in _parse_degrees(args.degree)
            for kind in _kinds(args.kind))


# A request that raises one of these is reported on stderr and skipped; the
# rest of the batch goes on.
_REQUEST_ERRORS = (UnsupportedDegree, DegreeTooLarge, EnumerationTooLarge)


class _Batch:
    """Runs one function per request, in request order, and keeps the worst
    outcome: exit 1 if any request failed, else 2 if any was refused."""

    def __init__(self):
        self.failed = False
        self.refused = False

    def run(self, fn, tasks, jobs=1):
        """Yield fn(task) for each task it can handle; print the error of
        each one it cannot.  With jobs > 1, up to that many worker
        processes (no more than the usable CPUs) run the tasks, with at
        most two per worker submitted and not yet yielded; each worker
        splits its large gathers over its share of the usable CPUs.  Only
        that path imports perm, and so numpy, and the process pool."""
        workers = 1
        if jobs > 1:
            import concurrent.futures

            from .perm import _set_threads, _usable_cpus

            usable = _usable_cpus()
            workers = min(jobs, usable)
        if workers > 1:
            with concurrent.futures.ProcessPoolExecutor(
                    workers, initializer=_set_threads,
                    initargs=(usable // workers,)) as pool:
                pending = collections.deque()
                for t in tasks:
                    if len(pending) == 2 * workers:
                        yield from self._outcome(pending.popleft().result)
                    pending.append(pool.submit(fn, t))
                while pending:
                    yield from self._outcome(pending.popleft().result)
        else:
            for t in tasks:
                yield from self._outcome(fn, t)

    def _outcome(self, call, *args):
        try:
            result = call(*args)
        except _REQUEST_ERRORS as exc:
            print(f"shortpres: {exc}", file=sys.stderr)
            self.refused = True
        else:
            yield result

    def exit_code(self):
        if self.failed:
            return _EXIT_VERIFY
        return _EXIT_UNSUPPORTED if self.refused else _EXIT_OK


def _cmd_emit(args):
    fmt = args.format
    reqs = _requests(args)
    first = list(itertools.islice(reqs, 2))  # one json record, or many
    many = len(first) > 1

    def emit_one(req):
        pres = builders.presentation_for(*req, simplify=args.simplify)
        if fmt == "json" and many:
            return json.dumps(builders.presentation_json(pres),
                              sort_keys=False) + "\n"
        return builders.emit(pres, fmt)

    batch = _Batch()
    sep = ""
    with _output(args.out) as out:
        for block in batch.run(emit_one, itertools.chain(first, reqs)):
            out.write(sep + block)
            if fmt == "slp":
                sep = "\n"  # a blank line between slp blocks
    return batch.exit_code()


def _verify_one(task):
    from . import verify

    n, kind, depth, simplify = task
    pres = builders.presentation_for(n, kind, simplify=simplify)
    report = verify.verify_presentation(pres, depth=depth)
    rep = report.to_json()
    line = (f"degree={n} kind={pres.kind} case={pres.case} "
            f"relators={len(report.relators)} "
            f"identity={report.all_relators_identity}")
    if report.order_certified:
        line += f" order={rep['order']} expected={rep['details']['expected_order']}"
    line += " OK" if report.ok else " FAIL"
    return line, report.ok, rep


def _cmd_verify(args):
    """One line per degree on stdout; with --out, each report also goes into
    a JSON array as it is made, and the array is closed even when the batch
    stops early, so the file always parses."""
    tasks = ((n, kind, args.depth, args.simplify) for n, kind in _requests(args))
    batch = _Batch()
    with _output(args.out) as out:
        sep = "[\n"
        try:
            for line, ok, rep in batch.run(_verify_one, tasks, args.jobs):
                if args.out:  # the layout of json.dump(reports, indent=2)
                    out.write(sep + "  " + json.dumps(rep, indent=2).replace("\n", "\n  "))
                    sep = ",\n"
                print(line)
                batch.failed = batch.failed or not ok
        finally:
            if args.out:
                out.write("[]\n" if sep == "[\n" else "\n]\n")
    return batch.exit_code()


def _stats_row(req, simplify):
    n, kind = req
    pres = builders.presentation_for(n, kind, simplify=simplify)
    ps = pres.params
    bits = pres.slp.bit_length()
    return ",".join(str(v) for v in (
        n, ps.p, ps.k if ps.k is not None else "",
        f"{pres.kind}:{pres.case}",
        len(pres.slp.generators), len(pres.slp.relators),
        bits, pres.slp.word_length(),
        f"{bits / math.log2(n):.3f}"))


def _cmd_stats(args):
    batch = _Batch()
    with _output(args.out) as out:
        out.write("degree,p,k,case,generators,relators,bit_length,word_length,"
                  "bits_per_log2_degree\n")
        for row in batch.run(lambda req: _stats_row(req, args.simplify),
                             _requests(args)):
            out.write(row + "\n")
    return batch.exit_code()


def _cmd_falsify(args):
    from . import verify

    p = args.p
    falsification = verify.Falsification(p)
    falsified = []  # one verdict per target that applies at p
    for which in verify.FALSIFICATION_TARGETS:
        try:
            rep = falsification.report(which)
        except BadPrimeClass as exc:
            print(f"falsify:{which}: skipped ({exc})")
            continue
        falsified.append(not rep.all_relators_identity)
        print(f"{rep.case}: falsified={falsified[-1]}")
        for entry in rep.relators:
            shape = entry.get("cycle_type", entry.get("value"))
            print(f"  relator[{entry['index']}] identity={entry['identity']} "
                  f"value={shape}")
        print(f"  note: {rep.details['note']}")
    try:
        contrast = falsification.contrast()
    except EnumerationTooLarge as exc:
        print(f"subgroup contrast at p={p}: skipped ({exc})")
    else:
        if contrast:
            print(f"subgroup contrast at p={p}: corrected |<u,v>| = {contrast[0]}, "
                  f"uncorrected |<u,v'>| = {contrast[1]}")
    if not falsified:
        print(f"shortpres: error: no falsification target applies at p={p}",
              file=sys.stderr)
        return _EXIT_BADARGS
    return _EXIT_OK if all(falsified) else _EXIT_VERIFY


def _cmd_params(args):
    batch = _Batch()
    for ps in batch.run(lambda req: builders.params_for(*req), _requests(args)):
        print(json.dumps(ps.to_json()))
    return batch.exit_code()


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "emit": _cmd_emit,
        "verify": _cmd_verify,
        "stats": _cmd_stats,
        "falsify": _cmd_falsify,
        "params": _cmd_params,
    }
    try:
        return handlers[args.command](args)
    except _REQUEST_ERRORS as exc:
        print(f"shortpres: {exc}", file=sys.stderr)
        return _EXIT_UNSUPPORTED
    except InternalInvariantViolation as exc:
        print(f"shortpres: internal error: {exc}", file=sys.stderr)
        return _EXIT_INTERNAL
    except BrokenPipeError:
        # stdout is gone; point it at devnull so the flush at exit is quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return _EXIT_PIPE
    except OSError as exc:
        print(f"shortpres: error: {exc}", file=sys.stderr)
        return _EXIT_BADARGS
    except ValueError as exc:
        # covers bad numeric input and the remaining package errors
        print(f"shortpres: error: {exc}", file=sys.stderr)
        return _EXIT_BADARGS


if __name__ == "__main__":
    sys.exit(main())
