"""Permutations on an integer interval, acting on the right.

Points are integers from a closed interval [lo, hi] (lo may be negative).
Products apply the LEFT factor first: x^(s*t) = (x^s)^t, so
(1,2)*(2,3) = (1,3,2).  Conjugation is s^g = g^-1*s*g, which relabels
cycles: (x1,...,xk)^g = (x1^g,...,xk^g).

A Permutation stores only a window of its domain: an offset `start` and
`win`, a read-only numpy int32 array that is itself a bijection of
[0, len(win)), with win[i] = (b + i)^perm - b for b = lo + start.  A
window holds offsets below its own length, so int32 holds any of them on
a domain of up to MAX_DEGREE = 2^31 - 1 points, and a larger domain is
refused; products, powers, inverses, conjugates and cycle minima stay
int32 throughout, which halves the bytes of every image, gather and
scatter.  Every
point outside [b, b + len(win)) is fixed; the identity has an empty
window.  A built permutation is trimmed to the 64-point blocks that hold
the points it moves, and a result's window is the hull of its operands'
windows, so a permutation that moves only a part of a large domain costs
nothing outside it.  Operands on the same window (the usual case) need
no padding: a product is one gather, an inverse one scatter, with no
shift back and forth, so they stay cheap up to degrees in the millions;
a product whose right factor's window holds the left's pads nothing
either.  Powers run one kernel, `_power`: square-and-multiply from the
top binary digit down, started from the base or, through `power_from`,
from a power of it already made, x^f, whose window the first squaring
reads in place; x^e then costs only the digits of e after those of f.
`images`, the full int32 array of offsets images[i] = (lo + i)^perm - lo,
is built each time it is read.  Absolute points appear only at the edges:
the constructor, __call__, cycles and __str__.

Every cycle question (cycle_type, order, `transitive`, the text of
`cycles`) reads `cycle_minima`: window-relative, without the fixed
points outside the window.  No other module reads a window.

Every gather and scatter but the serial scatter-min of `transitive` goes
through `_take` or `_put`.  From _SPLIT points on, these cut the index
array into a few contiguous chunks per usable CPU: each chunk reads all
of the source and writes its own part of the result (a scatter's indices
are a bijection, so its chunks write disjoint points, and each chunk
makes the values it scatters, so no full array of them is held), and
numpy releases the GIL while it gathers or scatters, so the chunks run
at once with no extra array.  This thread and a thread pool claim the
chunks in turn.
Numpy copies int32 indices to intp before it gathers or scatters, so no
chunk, split or not, is longer than _PIECE points, and the copy stays small.
The pool is made on the first split, under a lock, and forgotten in a
forked child, whose copy has no threads; importing the module starts none.
The thread count is worked out once per process; a `verify --jobs` worker
takes its share of the usable CPUs instead (`_set_threads`).
"""

from __future__ import annotations

import collections
import concurrent.futures
import math
import numbers
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

# The most points a domain may have: every offset, and so every window
# entry, fits an int32.
MAX_DEGREE = 2**31 - 1
_INT32 = np.dtype(np.int32)


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
# No chunk is longer than this, split or not: numpy copies a chunk's int32
# indices to intp before it gathers or scatters, and a copy this size
# stays in cache and adds no array's worth of memory.  Verify at Sym
# 9999999 on the same VM: 5.3-6.4 s with these chunks, against 6.5-6.9 s
# with chunks of 1.25*10^6 points (peak RSS 471 against 484 MiB).
_PIECE = 1 << 16


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
    """run(s, e) over contiguous chunks of at most _PIECE points that cover
    [0, size); from _SPLIT points on they are claimed in turn by this thread
    and the pool's.  Returns once every chunk is written.  A thread whose
    CPU the host holds up for a while then leaves its share to the others
    instead of holding them up."""
    count = _threads if size >= _SPLIT else 1
    chunks = -(-size // _PIECE)
    if count > 1:
        chunks = max(chunks, count * _CHUNKS_PER_THREAD)
    bounds = [size * i // chunks for i in range(chunks + 1)]
    todo = collections.deque(zip(bounds, bounds[1:]))  # popleft is atomic

    def drain():
        while todo:
            try:
                start, stop = todo.popleft()
            except IndexError:  # another thread took the last chunk
                return
            run(start, stop)

    if count < 2:
        drain()
        return
    pool = _executor()
    helpers = [pool.submit(drain) for _ in range(count - 1)]
    try:
        drain()
    finally:
        for future in helpers:
            if not future.cancel():  # it has started: wait for its chunk
                future.result()


def _whole(size):
    """Whether a gather or scatter of this many points is one numpy call."""
    return size <= _PIECE and size < _SPLIT


def _take(src, idx, out=None):
    """src[idx], written into out if given; idx holds valid indices of src
    (mode="clip" writes straight into out, and clips nothing).  take copies
    int32 indices to intp before it gathers; fancy indexing casts them
    point by point instead, at 1.7 to 2.6 times the cost at 28 to 4096 points."""
    if _whole(idx.size):
        return src.take(idx, out=out, mode="clip")
    if out is None:
        out = np.empty_like(idx)
    _in_chunks(idx.size,
               lambda s, e: src.take(idx[s:e], out=out[s:e], mode="clip"))
    return out


def _put(arr, idx, vals):
    """arr[idx[i]] = v[i] for idx a bijection of arr's indices, where
    v[s:e] = vals(s, e): each chunk's values are made as it is written, so
    no array of all of them is held.  The indices are cast to intp first,
    as _take's are."""
    if _whole(idx.size):
        arr[idx.astype(np.intp)] = vals(0, idx.size)
        return arr

    def put(s, e):
        arr[idx[s:e].astype(np.intp)] = vals(s, e)

    _in_chunks(idx.size, put)
    return arr


def _arange(n):
    return np.arange(n, dtype=np.int32)


def _check_degree(degree):
    if degree > MAX_DEGREE:
        raise DomainMismatch(
            f"a domain of {degree} points is above the limit of {MAX_DEGREE} "
            "points that int32 offsets address")


def _integer(value, what):
    """value as an int; DomainMismatch if it is not one, so that 1.5 is
    never read as 1."""
    if not isinstance(value, numbers.Integral):
        raise DomainMismatch(f"{what} must be an integer, not {value!r}")
    return int(value)


def _point(x, lo, hi):
    """x as an int, or PointOutOfDomain: outside [lo, hi] or not an integer."""
    if not isinstance(x, numbers.Integral) or not lo <= x <= hi:
        raise PointOutOfDomain(x, lo, hi)
    return int(x)


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


def cycle_lengths(least):
    """Lengths of the nontrivial cycles, in the order of their least points,
    given the cycle minima of a window (Permutation.cycle_minima)."""
    counts = np.bincount(least)
    return counts[counts > 1]


def _power(base, prefix, bits):
    """The window base^e from prefix = base^f, where bits are the binary
    digits of e after those of f: square-and-multiply from the top digit
    down, the same gathers as from the bottom up without a live run of
    squares beside the result.  prefix is only read, by the first gather;
    from then on two buffers are written in turn, because a fresh array per
    step costs a page fault per page at large windows."""
    gathers = bits.replace("1", "sb").replace("0", "s")  # square, times base
    out = np.empty_like(base) if gathers else None
    spare = np.empty_like(base) if gathers[1:] else None
    result = prefix
    for op in gathers:
        _take(result if op == "s" else base, result, out)
        result, out, spare = out, spare, out
    return result


def _embed(win, off, size):
    """A fresh array of `size` offsets, fixed but for win written at off."""
    arr = _arange(size)
    np.add(win, off, out=arr[off:off + win.size])
    return arr


class Permutation:
    """A bijection of [lo, hi], composed left-to-right."""

    __slots__ = ("lo", "degree", "start", "win")

    def __init__(self, images, lo=1):
        """Wrap the absolute images of the points lo, lo+1, ...; they must
        be a bijection of [lo, lo + len(images) - 1], of at most MAX_DEGREE
        points."""
        arr = np.asarray(images)
        if arr.ndim != 1:
            raise DomainMismatch("images must be a flat sequence")
        if arr.size == 0:
            raise DomainMismatch("empty image list")
        if arr.dtype.kind not in "iu":
            raise DomainMismatch(f"images must be integers, not {arr.dtype}")
        _check_degree(arr.size)
        lo = _integer(lo, "lo")
        hi = lo + arr.size - 1
        shifted = arr.astype(np.int64, copy=False) - lo
        if (
            shifted.min() < 0
            or shifted.max() >= arr.size
            or not (np.bincount(shifted, minlength=arr.size) == 1).all()
        ):
            raise DomainMismatch(f"images are not a bijection of [{lo}, {hi}]")
        start, win = _trim(shifted.astype(np.int32))
        self._set(win, start, lo, arr.size)

    def _set(self, win, start, lo, degree):
        # every window passes here: an int64 one would cost twice the
        # memory without a sign
        if win.dtype != _INT32:
            raise InternalInvariantViolation(
                f"a window of dtype {win.dtype}, not int32")
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
        lo, hi = _integer(lo, "lo"), _integer(hi, "hi")
        if hi < lo:
            raise DomainMismatch(f"empty domain [{lo}, {hi}]")
        _check_degree(hi - lo + 1)
        ident = object.__new__(cls)
        ident._set(_arange(0), 0, lo, hi - lo + 1)
        return ident

    @classmethod
    def from_cycles(cls, cycles, lo, hi):
        """Build the product of pairwise-disjoint cycles on [lo, hi].

        Each cycle is an iterable of points.  A point used twice (within
        or across cycles) raises OverlappingCycles; a point outside
        [lo, hi] raises PointOutOfDomain, and a domain of more than
        MAX_DEGREE points DomainMismatch, as do bounds that are not
        integers; a point that is not an integer is out of the domain.
        """
        ident = cls.identity(lo, hi)
        lo, hi = ident.lo, ident.hi
        moving = []
        seen = set()
        for cyc in cycles:
            pts = [_point(x, lo, hi) for x in cyc]
            for x in pts:
                if x in seen:
                    raise OverlappingCycles(x)
                seen.add(x)
            if len(pts) > 1:
                moving.append(pts)
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
        self._check_domain(other)
        a, b = self.win, other.win
        off = self.start - other.start
        if not off and a.size == b.size:
            return self._like(_take(b, a), other.start)
        if 0 <= off and off + a.size <= b.size:
            # other's window holds self's: outside self's part of it the
            # product is other, so self is not padded
            out = b.copy()
            _take(b[off:off + a.size], a, out[off:off + a.size])
            return self._like(out, other.start)
        a, b, start = self._pair(other)
        return self._like(_take(b, a), start)

    def inverse(self):
        arr = _put(np.empty_like(self.win), self.win,
                   lambda s, e: np.arange(s, e, dtype=np.int32))
        return self._like(arr, self.start)

    def __pow__(self, e):
        e = int(e)
        if e == 0:
            return self.identity_like()
        base = (self if e > 0 else self.inverse()).win
        return self._like(_power(base, base, bin(abs(e))[3:]), self.start)

    def power_from(self, prefix, bits):
        """self^e from prefix = self^f, where bits are the binary digits of
        e after those of f: powers of one base that share the leading
        digits of their exponents share the squarings that make them."""
        base, win, start = self._pair(prefix)
        return self._like(_power(base, win, bits), start)

    def conjugate(self, g):
        """self^g = g^-1 * self * g, i.e. self with points relabeled by g."""
        a, b, start = self._pair(g)
        arr = _put(np.empty_like(a), b, lambda s, e: b.take(a[s:e]))
        return self._like(arr, start)

    def __call__(self, point):
        point = _point(point, self.lo, self.hi)
        i = point - self.lo - self.start
        if 0 <= i < self.win.size:
            return int(self.win[i]) + self.lo + self.start
        return point

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

    def cycles(self):
        """Canonical cycle decomposition, for text: fixed points dropped,
        each cycle starting at its least point, cycles sorted by least
        point.  The starts are the moved offsets that are their own cycle
        minima, and each cycle is walked once from its start.  A step onto
        a point of another cycle, or a moved point on no cycle, raises
        InternalInvariantViolation: the window is not a bijection."""
        img, least = self.win, self.cycle_minima()
        offsets = _arange(img.size)
        moved = img != offsets
        base = self.lo + self.start
        out = []
        for first in np.flatnonzero(moved & (least == offsets)).tolist():
            cyc = [first]
            nxt = img.item(first)
            while nxt != first:
                if least.item(nxt) != first:
                    raise InternalInvariantViolation(
                        f"point {nxt + base} is reached twice: the window is "
                        "not a bijection")
                cyc.append(nxt)
                nxt = img.item(nxt)
            out.append(tuple(x + base for x in cyc))
        if sum(map(len, out)) != np.count_nonzero(moved):
            raise InternalInvariantViolation(
                "a moved point is on no cycle: the window is not a bijection")
        return out

    def cycle_type(self):
        """Sorted (descending) lengths of the nontrivial cycles; () for identity."""
        return tuple(sorted(cycle_lengths(self.cycle_minima()).tolist(),
                            reverse=True))

    def order(self):
        return math.lcm(*cycle_lengths(self.cycle_minima()).tolist())

    def cycle_minima(self):
        """Offset within the window of the least point on each window
        offset's cycle; the points outside the window are fixed and left
        out.  By pointer doubling: after k rounds least[i] is the least of
        the 2^k offsets from i on, and a round that changes nothing has
        covered every cycle.  The rounds write two buffers for the minima
        and two for the jumps in turn, as __pow__ does."""
        least, lower = _arange(self.win.size), np.empty_like(self.win)
        step, jumped = self.win, np.empty_like(self.win)
        while True:
            np.minimum(least, _take(least, step, lower), out=lower)
            if np.array_equal(lower, least):
                return least
            least, lower = lower, least
            _take(step, step, jumped)
            # the first jump leaves the read-only window for a second buffer
            step, jumped = jumped, (np.empty_like(step) if step is self.win else step)

    def __str__(self):
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + ",".join(str(x) for x in c) + ")" for c in cyc)

    def __repr__(self):
        return f"Permutation[{self.lo},{self.hi}] {self}"


def transitive(perms, minima):
    """Whether permutations of one domain, given their cycle_minima, act
    transitively: each round gives every cycle its least label (a serial
    scatter-min in _PIECE-point chunks; threads would race on a minimum),
    then jumps labels to their labels' labels, in two buffers by turns, so
    every orbit ends labelled by its least point.  A round that raises a
    label raises InternalInvariantViolation instead of running on."""
    label = _arange(perms[0].degree)
    spare = np.empty_like(label)
    changed = True
    while changed:
        changed = False
        for g, least in zip(perms, minima):
            part = label[g.start:g.start + least.size]
            low = part.copy()
            for s in range(0, least.size, _PIECE):
                np.minimum.at(low, least[s:s + _PIECE], part[s:s + _PIECE])
            low = _take(low, least, spare[:least.size])
            if (low != part).any():
                if (low > part).any():  # labels only fall, or rounds never end
                    raise InternalInvariantViolation(
                        "transitive raised a label: its rounds would never end")
                part[:] = low
                _take(label, label, spare)
                while (spare != label).any():
                    label, spare = spare, label
                    _take(label, label, spare)
                changed = True
    return not label.any()


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

