"""Spans and counters around the package's layer entry points.

Only the traced worker installs these hooks; the untraced worker imports the
package as a user would.  A span is recorded around each call of a hooked
function.  A call made while a span of the same layer is open belongs to
that outer span and is not recorded again.  A span's self time is its
duration minus the durations of the spans opened directly inside it.
Permutation operations are counted rather than spanned, because there are
tens of thousands of them per second.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter

# (layer, module, attribute path).  Names that other modules imported with
# `from ... import` are hooked in those modules as well.
SPANS = (
    ("cli", "shortpres.cli", "main"),
    ("builders", "shortpres.builders", "presentation_for"),
    ("emit", "shortpres.builders", "emit"),
    ("numth", "shortpres.numth", "derive_params"),
    ("numth", "shortpres.builders", "derive_params"),
    ("numth", "shortpres.numth", "find_glue_prime"),
    ("numth", "shortpres.builders", "find_glue_prime"),
    ("numth", "shortpres.numth", "group_unit_generator"),
    ("images", "shortpres.perm", "Permutation.from_cycles"),
    ("images", "shortpres.builders", "glue_map_image"),
    ("images", "shortpres.builders", "_a_image"),
    ("images", "shortpres.builders", "_g_image"),
    ("images", "shortpres.builders", "_mul_image"),
    ("simplify", "shortpres.words", "simplify"),
    ("eval", "shortpres.words", "evaluate_slp"),
    ("eval", "shortpres.verify", "evaluate_slp"),
    ("check", "shortpres.verify", "check_relators"),
    ("certify", "shortpres.verify", "certify_order"),
)

# Permutation methods counted as operations, with the counter they feed.
PERM_OPS = (
    ("__mul__", "mul"),
    ("__pow__", "pow"),
    ("inverse", "inverse"),
    ("conjugate", "conj"),
)
COMPUTING_OPS = ("mul", "inverse", "conj")  # the ones that allocate a result


class HookMissing(RuntimeError):
    """A hooked name no longer exists, so its layer would silently read 0."""


def _resolve(module_name, path):
    owner = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            break
    if owner is None or attr not in vars(owner):
        raise HookMissing(f"{module_name}.{path} is missing")
    return owner, attr


class Tracer:
    """Installs the hooks and accumulates per-layer totals."""

    def __init__(self):
        self.busy = Counter()  # layer -> seconds in its outermost spans
        self.self_time = Counter()  # layer -> seconds minus child spans
        self.calls = Counter()  # layer -> outermost spans
        self.ops = Counter()  # perm op -> calls
        self.bytes_computed = 0
        self.certify_ops = 0
        self.image_points = 0
        self.image_bytes = 0
        self.definitions = 0
        self.slps = []
        self._open = Counter()  # layer -> spans of it currently open
        self._stack = []  # [seconds in child spans] per open span

    def install(self):
        """Wrap every hooked name; raise HookMissing before wrapping any."""
        spans = [(layer, *_resolve(mod, path)) for layer, mod, path in SPANS]
        ops = [(counter, *_resolve("shortpres.perm", f"Permutation.{name}"))
               for name, counter in PERM_OPS]
        for layer, owner, attr in spans:
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._span(layer, raw.__func__)))
            else:
                setattr(owner, attr, self._span(layer, raw))
        for counter, owner, attr in ops:
            setattr(owner, attr, self._count(counter, vars(owner)[attr]))

    def _span(self, layer, fn):
        def wrapper(*args, **kwargs):
            if self._open[layer]:
                return fn(*args, **kwargs)
            self._open[layer] += 1
            children = [0.0]
            self._stack.append(children)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                self._open[layer] -= 1
                if self._stack:
                    self._stack[-1][0] += dur
                self.busy[layer] += dur
                self.self_time[layer] += dur - children[0]
                self.calls[layer] += 1
            self._observe(layer, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, layer, result):
        if layer == "images":
            self.image_points += result.degree
            self.image_bytes += result.images.nbytes
        elif layer == "builders":
            self.definitions += len(result.slp.definitions)
            self.slps.append(result.slp)

    def _count(self, counter, fn):
        computes = counter in COMPUTING_OPS

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.ops[counter] += 1
            if self._open["certify"]:
                self.certify_ops += 1
            if computes:
                self.bytes_computed += result.images.nbytes
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def metrics(self):
        """The per-layer metrics as name -> (value, unit)."""
        return {
            "numth.busy_s": (self.busy["numth"], "s"),
            "numth.calls": (self.calls["numth"], "count"),
            "builders.self_s": (self.self_time["builders"], "s"),
            "builders.defs": (self.definitions, "count"),
            "words.simplify_s": (self.busy["simplify"], "s"),
            "words.simplify_calls": (self.calls["simplify"], "count"),
            "words.slp_factors": (sum(map(_slp_factors, self.slps)), "count"),
            "perm.images_s": (self.busy["images"], "s"),
            "perm.points": (self.image_points, "count"),
            "perm.image_bytes": (self.image_bytes, "bytes"),
            "words.eval_s": (self.busy["eval"], "s"),
            "perm.mul_calls": (self.ops["mul"], "count"),
            "perm.pow_calls": (self.ops["pow"], "count"),
            "perm.inverse_calls": (self.ops["inverse"], "count"),
            "perm.conj_calls": (self.ops["conj"], "count"),
            "perm.bytes_computed": (self.bytes_computed, "bytes"),
            "verify.certify_s": (self.busy["certify"], "s"),
            "verify.certify_perm_ops": (self.certify_ops, "count"),
            "verify.check_s": (self.self_time["check"], "s"),
            "builders.emit_s": (self.busy["emit"], "s"),
            "cli.self_s": (self.self_time["cli"], "s"),
        }


def _slp_factors(slp):
    """Factors in the SLP's word trees, subwords included: the IR size."""
    from shortpres import words

    def count(word):
        total = 0
        for f in word.factors:
            total += 1
            base = f.base
            if isinstance(base, words.Conj):
                total += count(base.target) + count(base.by)
            elif isinstance(base, words.Comm):
                total += count(base.left) + count(base.right)
            elif isinstance(base, words.GroupWord):
                total += count(base)
        return total

    return sum(count(w) for _, w in slp.definitions) + sum(map(count, slp.relators))
