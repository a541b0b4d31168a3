"""Permutations on an integer interval, acting on the right.

Points are integers from a closed interval [lo, hi] (lo may be negative).
Products apply the LEFT factor first: x^(s*t) = (x^s)^t, so
(1,2)*(2,3) = (1,3,2).  Conjugation is s^g = g^-1*s*g, which relabels
cycles: (x1,...,xk)^g = (x1^g,...,xk^g).

A Permutation stores only a window of its domain: an offset `start` and
`win`, a read-only numpy int64 array that is itself a bijection of
[0, len(win)), with win[i] = (b + i)^perm - b for b = lo + start.  Every
point outside [b, b + len(win)) is fixed; the identity has an empty
window.  A built permutation is trimmed to the 64-point blocks that hold
the points it moves, and a result's window is the hull of its operands'
windows, so a permutation that moves only a part of a large domain costs
nothing outside it.  Operands on the same window (the usual case) need
no padding: a product is one gather, an inverse one scatter, with no
shift back and forth, so they stay cheap up to degrees in the millions.
`images`, the full array of offsets images[i] = (lo + i)^perm - lo, is
built each time it is read.  Absolute points appear only at the edges:
the constructor, __call__, cycles and __str__.

Every gather and scatter of a product, power, inverse or conjugate goes
through `_take` or `_put`.  From _SPLIT points on, these cut the index
array into a few contiguous chunks per usable CPU: each chunk reads all
of the source and writes its own part of the result (a scatter's indices
are a bijection, so its chunks write disjoint points), and numpy releases
the GIL while it gathers or scatters, so the chunks run at once with no
extra array.  This thread and a thread pool claim the chunks in turn.
The pool is made on the first split, under a lock, and forgotten in a
forked child, whose copy has no threads; importing the module starts none.
The thread count is worked out once per process; a `verify --jobs` worker
takes its share of the usable CPUs instead (`_set_threads`).
"""

from __future__ import annotations

import collections
import concurrent.futures
import math
import os
import re
import threading

import numpy as np

from .errors import (
    DomainMismatch,
    InternalInvariantViolation,
    OverlappingCycles,
    PointOutOfDomain,
)

_CYCLE_RE = re.compile(r"\(\s*((?:-?\d+\s*(?:,\s*-?\d+\s*)*)?)\)")


# A window starts and stops on a multiple of this many offsets, or at the
# end of the domain.  Permutations of up to this many points then share
# one window, and so do those whose moved hulls differ by a few points
# (a and g of a construction), so a product of them needs no padding.
_BLOCK = 64


# A gather or scatter of at least this many points is split.  On a 2-CPU
# x86 VM two halves first beat one at 4*10^5 points for random gathers
# (powers of g), shift gathers (powers of a) and scatters alike; at
# 1.3*10^5 to 3.3*10^5 the hand-off cost about what the second CPU saved.
# Windows of a million-point degree have at least 5*10^5 points and those
# of degrees up to 4096 at most 4096, so the first always split and the
# second never.
_SPLIT = 400_000
# A split is cut into this many chunks per thread.  Measured at Sym
# 1500001 on the same VM, where the host at times held one CPU back, two
# halves (one per thread) verified in 1.13-1.42 s, four chunks per thread
# in 1.03-1.33 s and eight in 1.10-1.25 s, against 1.62-1.86 s unsplit.
_CHUNKS_PER_THREAD = 4


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1


_threads = _usable_cpus()  # threads that share a split gather or scatter
_pool = None  # the threads other than the caller's; made on the first split
_pool_lock = threading.Lock()


def _set_threads(count):
    """Share each split among `count` threads from now on: a worker
    process's share of the usable CPUs, set before its first split."""
    global _threads
    _threads = count


def _forget_pool():
    """In a forked child: the parent's pool has no threads here, and its
    lock may have been held by one."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _executor():
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = concurrent.futures.ThreadPoolExecutor(
                _threads - 1, thread_name_prefix="shortpres-perm")
        return _pool


def _in_chunks(size, run):
    """run(s, e) over contiguous chunks that cover [0, size), claimed in
    turn by this thread and the pool's; returns once every chunk is
    written.  A thread whose CPU the host holds up for a while then leaves
    its share to the others instead of holding them up."""
    count = _threads
    if count < 2:
        run(0, size)
        return
    chunks = count * _CHUNKS_PER_THREAD
    bounds = [size * i // chunks for i in range(chunks + 1)]
    todo = collections.deque(zip(bounds, bounds[1:]))  # popleft is atomic

    def drain():
        while todo:
            try:
                start, stop = todo.popleft()
            except IndexError:  # another thread took the last chunk
                return
            run(start, stop)

    pool = _executor()
    helpers = [pool.submit(drain) for _ in range(count - 1)]
    try:
        drain()
    finally:
        for future in helpers:
            if not future.cancel():  # it has started: wait for its chunk
                future.result()


def _take(src, idx, out=None):
    """src[idx], written into out if given; idx holds valid indices of src
    (mode="clip" writes straight into out, and clips nothing)."""
    if idx.size < _SPLIT:
        return src[idx] if out is None else src.take(idx, out=out, mode="clip")
    if out is None:
        out = np.empty_like(idx)
    _in_chunks(idx.size,
               lambda s, e: src.take(idx[s:e], out=out[s:e], mode="clip"))
    return out


def _put(arr, idx, vals):
    """arr[idx[i]] = vals[i] for idx a bijection of arr's indices."""
    if idx.size < _SPLIT:
        arr[idx] = vals
        return arr

    def put(s, e):
        arr[idx[s:e]] = vals[s:e]

    _in_chunks(idx.size, put)
    return arr


def _arange(n):
    return np.arange(n, dtype=np.int64)


def _blocks(first, stop, size):
    """[first, stop) rounded out to whole blocks within [0, size)."""
    return first // _BLOCK * _BLOCK, min(-(-stop // _BLOCK) * _BLOCK, size)


def _trim(offsets):
    """(s, w): the offsets of a bijection of [0, len(offsets)) cut to the
    blocks [s, s + len(w)) that hold the points it moves, w relative to s."""
    moved = offsets != _arange(offsets.size)
    if not moved.any():
        return 0, _arange(0)
    first, stop = _blocks(int(moved.argmax()),
                          offsets.size - int(moved[::-1].argmax()), offsets.size)
    return first, offsets[first:stop] - first


def _embed(win, off, size):
    """A fresh array of `size` offsets, fixed but for win written at off."""
    arr = _arange(size)
    arr[off:off + win.size] = win + off if off else win
    return arr


class Permutation:
    """A bijection of [lo, hi], composed left-to-right."""

    __slots__ = ("lo", "degree", "start", "win")

    def __init__(self, images, lo=1):
        """Wrap the absolute images of the points lo, lo+1, ...; they must
        be a bijection of [lo, lo + len(images) - 1]."""
        arr = np.asarray(images, dtype=np.int64)
        if arr.ndim != 1:
            raise DomainMismatch("images must be a flat sequence")
        if arr.size == 0:
            raise DomainMismatch("empty image list")
        lo = int(lo)
        hi = lo + arr.size - 1
        shifted = arr - lo
        if (
            shifted.min() < 0
            or shifted.max() >= arr.size
            or not (np.bincount(shifted, minlength=arr.size) == 1).all()
        ):
            raise DomainMismatch(f"images are not a bijection of [{lo}, {hi}]")
        start, win = _trim(shifted)
        self._set(win, start, lo, arr.size)

    def _set(self, win, start, lo, degree):
        win.flags.writeable = False
        self.win = win
        self.start = start
        self.lo = lo
        self.degree = degree

    def _like(self, win, start):
        """Internal: a permutation of self's domain from a window already
        known to be a bijection of [0, len(win))."""
        other = object.__new__(Permutation)
        other._set(win, start, self.lo, self.degree)
        return other

    @property
    def hi(self):
        return self.lo + self.degree - 1

    @property
    def images(self):
        """The full read-only array of offsets, images[i] = (lo + i)^self - lo,
        built on each read."""
        full = _embed(self.win, self.start, self.degree)
        full.flags.writeable = False
        return full

    @classmethod
    def identity(cls, lo, hi):
        if hi < lo:
            raise DomainMismatch(f"empty domain [{lo}, {hi}]")
        ident = object.__new__(cls)
        ident._set(_arange(0), 0, lo, hi - lo + 1)
        return ident

    @classmethod
    def from_cycles(cls, cycles, lo, hi):
        """Build the product of pairwise-disjoint cycles on [lo, hi].

        Each cycle is an iterable of points.  A point used twice (within
        or across cycles) raises OverlappingCycles; a point outside
        [lo, hi] raises PointOutOfDomain.
        """
        moving = []
        seen = set()
        for cyc in cycles:
            pts = list(cyc)
            for x in pts:
                if not lo <= x <= hi:
                    raise PointOutOfDomain(x, lo, hi)
                if x in seen:
                    raise OverlappingCycles(x)
                seen.add(x)
            if len(pts) > 1:
                moving.append(pts)
        ident = cls.identity(lo, hi)
        if not moving:
            return ident
        start, stop = _blocks(min(min(pts) for pts in moving) - lo,
                              max(max(pts) for pts in moving) - lo + 1,
                              ident.degree)
        arr = _arange(stop - start)
        base = lo + start
        for pts in moving:
            for i, x in enumerate(pts):
                arr[x - base] = pts[(i + 1) % len(pts)] - base
        return ident._like(arr, start)

    def _check_domain(self, other):
        if self.lo != other.lo or self.degree != other.degree:
            raise DomainMismatch(
                f"domains [{self.lo}, {self.hi}] and [{other.lo}, {other.hi}] differ"
            )

    def _pair(self, other):
        """self's and other's windows on one window, and its start: the
        shared window if they have one, else the hull of both, padded with
        fixed points.  An empty window sits at the other one's start."""
        self._check_domain(other)
        a, b = self.win, other.win
        s, t = self.start, other.start
        if s == t and a.size == b.size:
            return a, b, s
        if not a.size:
            s = t
        elif not b.size:
            t = s
        start = min(s, t)
        size = max(s + a.size, t + b.size) - start
        if a.size != size:
            a = _embed(a, s - start, size)
        if b.size != size:
            b = _embed(b, t - start, size)
        return a, b, start

    def __mul__(self, other):
        """self*other applies self first: x^(self*other) = (x^self)^other."""
        a, b, start = self._pair(other)
        return self._like(_take(b, a), start)

    def inverse(self):
        arr = _put(np.empty_like(self.win), self.win, _arange(self.win.size))
        return self._like(arr, self.start)

    def __pow__(self, e):
        e = int(e)
        if e == 0:
            return self.identity_like()
        # square-and-multiply from the top bit down on the bare window: the
        # same gathers as from the bottom up, without a live run of squares
        # beside the result.  Two buffers are written in turn, because a
        # fresh array per step costs a page fault per page at large
        # windows.
        base = (self if e > 0 else self.inverse()).win
        bits = bin(abs(e))[3:]
        if not bits:
            return self._like(base, self.start)
        result, spare = base.copy(), np.empty_like(base)
        for bit in bits:
            _take(result, result, spare)
            result, spare = spare, result
            if bit == "1":
                _take(base, result, spare)
                result, spare = spare, result
        return self._like(result, self.start)

    def conjugate(self, g):
        """self^g = g^-1 * self * g, i.e. self with points relabeled by g."""
        a, b, start = self._pair(g)
        arr = _put(np.empty_like(a), b, _take(b, a))
        return self._like(arr, start)

    def __call__(self, point):
        if not self.lo <= point <= self.hi:
            raise PointOutOfDomain(point, self.lo, self.hi)
        i = point - self.lo - self.start
        if 0 <= i < self.win.size:
            return int(self.win[i]) + self.lo + self.start
        return int(point)

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        if self.lo != other.lo or self.degree != other.degree:
            return False
        a, b, _ = self._pair(other)
        return np.array_equal(a, b)

    def __hash__(self):
        # the blocks it moves, so that equal permutations stored on
        # different windows hash alike
        start, win = _trim(self.win)
        return hash((self.lo, self.degree, self.start + start if win.size else 0,
                     win.tobytes()))

    def is_identity(self):
        return bool((self.win == _arange(self.win.size)).all())

    def identity_like(self):
        return Permutation.identity(self.lo, self.hi)

    def _moved(self):
        """Offsets within the window of the points self moves, ascending."""
        return np.flatnonzero(self.win != _arange(self.win.size))

    def cycles(self):
        """Canonical cycle decomposition: fixed points dropped, each cycle
        starting at its least point, cycles sorted by least point.  A walk
        that comes back to a point other than its start raises
        InternalInvariantViolation: the window is not a bijection."""
        img = self.win
        base = self.lo + self.start
        seen = set()
        out = []
        for first in self._moved().tolist():
            if first in seen:
                continue
            cyc = [first]
            seen.add(first)
            nxt = int(img[first])
            while nxt != first:
                if nxt in seen:
                    raise InternalInvariantViolation(
                        f"point {nxt + base} is reached twice: the window is "
                        "not a bijection")
                cyc.append(nxt)
                seen.add(nxt)
                nxt = int(img[nxt])
            out.append(tuple(x + base for x in cyc))
        return out

    def cycle_type(self):
        """Sorted (descending) lengths of the nontrivial cycles; () for identity."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def order(self):
        return math.lcm(*(len(c) for c in self.cycles()))

    def _window_minima(self):
        """Offset within the window of the least point on each window
        offset's cycle, by pointer doubling: after k rounds least[i] is the
        least of the 2^k offsets from i on, and a round that changes nothing
        has covered every cycle."""
        least = _arange(self.win.size)
        step = self.win
        while True:
            lower = np.minimum(least, least[step])
            if np.array_equal(lower, least):
                return least
            least = lower
            step = step[step]

    def cycle_minima(self):
        """Offset of the least point on each offset's cycle, over the whole
        domain; a point outside the window is its own minimum."""
        return _embed(self._window_minima(), self.start, self.degree)

    def epsilon(self):
        """Parity: 0 for even, 1 for odd (the number of points minus the
        number of cycles, fixed points included, within the window)."""
        least = self._window_minima()
        return (least.size - np.count_nonzero(least == _arange(least.size))) % 2

    def __str__(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cyc)

    def __repr__(self):
        return f"Permutation[{self.lo},{self.hi}] {self}"


def parse_cycles(text, lo, hi):
    """Parse canonical cycle text ("(1,2)(3,4)" or "()") on the given domain."""
    stripped = text.strip()
    if stripped == "()":
        return Permutation.identity(lo, hi)
    pos = 0
    cycles = []
    for m in _CYCLE_RE.finditer(stripped):
        if m.start() != pos:
            raise DomainMismatch(f"unparseable cycle text at {stripped[pos:]!r}")
        body = m.group(1).strip()
        if body:
            cycles.append([int(tok) for tok in body.split(",")])
        pos = m.end()
    if pos != len(stripped) or not cycles:
        raise DomainMismatch(f"unparseable cycle text {text!r}")
    return Permutation.from_cycles(cycles, lo, hi)

