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
either.

A permutation may carry a listing of its cycles (`listed`): the window
offsets of its moved points in cycle order, and the length of each
cycle.  A listing is a claim, checked once against the window when it is
attached (one gather shows that the window maps each entry to the next
in its cycle, and counts that every moved point is listed once), so a
wrong one raises InternalInvariantViolation and never gives a result.  A
listing of consecutive points in their order, like that of the p-cycle
(1, ..., p), is described, not stored; a stored one replaces the window
it states, which is made from it when it is read (_Listed).  Powers of a
listed permutation are listed too: each records the listing and its
exponent, and shares the listing's array.  A power of a listed
permutation, through __pow__ or `power_from`, is one rotation of each
listed cycle, whatever the exponent, and (x^f)^e is the rotation by f*e
of x's listing.  Every other power runs `_power`: square-and-multiply
from the top binary digit down, started from the base or, through
`power_from`, from a power of it already made, x^f, whose window the
first squaring reads in place; x^e then costs only the digits of e after
those of f.
`images`, the full int32 array of offsets images[i] = (lo + i)^perm - lo,
is built each time it is read.  Absolute points appear only at the edges:
the constructor, `listed`, __call__, cycles and __str__.

Every cycle question (cycle_type, order, `transitive`, the text of
`cycles`) reads `cycle_minima`: window-relative, without the fixed
points outside the window.  A listed permutation reads them from its
listing, one minimum per cycle; any other finds them by pointer
doubling.  No other module reads a window.

Every gather and scatter but the serial scatter-min of `transitive` goes
through `_take` or `_put`.  From _SPLIT points on, these cut the index
array into a few contiguous chunks per usable CPU: each chunk reads all
of the source and writes its own part of the result (a scatter's indices
are distinct, so its chunks write disjoint points, and each chunk
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

import bisect
import collections
import concurrent.futures
import itertools
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
    """arr[idx[i]] = v[i] for idx distinct indices of arr, where
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


def _rotation(entries, pieces):
    """The values of a rotation for _put over the listing positions
    [a0, b_last) of its pieces: entries(s, e) gives the offsets listed at
    positions [s, e), and a piece (a, b, k) gives position j in [a, b) the
    entry at j + k; v[s:e] joins the parts of the pieces that positions
    a0 + s to a0 + e meet."""
    first, starts = pieces[0][0], [a for a, _, _ in pieces]

    def vals(s, e):
        s, e = s + first, e + first
        parts = []
        for a, b, k in itertools.islice(
                pieces, bisect.bisect_right(starts, s) - 1, None):
            if a >= e:
                break
            parts.append(entries(max(a, s) + k, min(b, e) + k))
        # a split chunk may hold no points
        return parts[0] if len(parts) == 1 else np.concatenate(
            parts or [entries(s, s)])

    return vals


class _Listing:
    """The cycles of one window, checked against it (Permutation.listed),
    and shared by every power of the permutation they were checked
    against, which keeps its window: the cycle at listing position f of n
    points holds the offsets points[f:f + n] in cycle order, for (f, n) in
    `bounds`.  points is None where the listing is the offsets first,
    first + 1, ... in their order, which is described, not stored.  `order`
    is the lcm of the lengths, the order of the permutation, and `lows`
    the least offset of each cycle."""

    __slots__ = ("points", "first", "bounds", "order", "start", "size", "lows")

    def __init__(self, win, start, points, first, count, lengths):
        lengths = [int(n) for n in lengths]
        if min(lengths, default=2) < 2 or sum(lengths) != count:
            raise InternalInvariantViolation(
                f"cycle lengths {lengths} do not list {count} moved points")
        if points is not None:
            points.flags.writeable = False
        self.points, self.first = points, first
        self.bounds = list(zip(itertools.accumulate([0] + lengths), lengths))
        self.order = math.lcm(*lengths)
        self.start, self.size = start, win.size
        # One gather, split among the threads from _SPLIT points on: the
        # window takes each entry to the next in its cycle, so the entries
        # of a cycle are a walk of the window that closes.
        wrong = []  # the chunks where it does not

        def walk(s, e):
            if not (_take(win, self._entries(s, e)) == succ(s, e)).all():
                wrong.append(s)

        if count:
            succ = _rotation(self._entries, self._pieces(1))
            _in_chunks(count, walk)
        if wrong:
            raise InternalInvariantViolation(
                "the window does not take a listed point to the next one "
                "in its cycle")
        # A walk that meets its least entry once is a whole cycle, and
        # cycles with different least entries are different: then no entry
        # repeats, every listed point moves, and entries as many as the
        # moved points list them all.  Counts, with no temporary of the
        # window's size.
        self.lows = []
        for f, n in self.bounds:
            parts = [(s, min(s + _PIECE, f + n))
                     for s in range(f, f + n, _PIECE)]
            low = min(int(self._entries(s, e).min()) for s, e in parts)
            if sum(np.count_nonzero(self._entries(s, e) == low)
                   for s, e in parts) != 1:
                raise InternalInvariantViolation(
                    "a listed cycle walks its cycle more than once")
            self.lows.append(low)
        moved = sum(np.count_nonzero(
            win[s:s + _PIECE] != np.arange(s, s + win[s:s + _PIECE].size,
                                           dtype=np.int32))
            for s in range(0, win.size, _PIECE))
        if len(set(self.lows)) != len(self.lows) or moved != count:
            raise InternalInvariantViolation(
                "the listing does not hold every moved point once")

    def _entries(self, s, e):
        """The offsets listed at positions [s, e)."""
        if self.points is None:
            return np.arange(self.first + s, self.first + e, dtype=np.int32)
        return self.points[s:e]

    def _pieces(self, t):
        """The rotation by t, t >= 0, of the listing from the first cycle
        t moves to the last, in pieces (a, b, k): position j in [a, b)
        takes the entry at j + k.  A cycle of n points at f is two pieces,
        position j taking the entry at f + (j - f + t) mod n; a cycle that
        t leaves as it is, between two that it moves, is one piece with
        k = 0."""
        pieces = []
        for f, n in self.bounds:
            r = t % n
            if r:
                pieces += (f, f + n - r, r), (f + n - r, f + n, r - n)
            elif pieces:
                pieces.append((f, f + n, 0))
        while pieces and not pieces[-1][2]:
            pieces.pop()
        return pieces

    def power(self, t):
        """The window of the t-th power, t >= 0, by one rotation of each
        cycle, as one scatter of the pieces (_pieces)."""
        out = _arange(self.size)
        pieces = self._pieces(t)
        if not pieces:
            return out
        if self.points is None:  # consecutive offsets: shift them in chunks
            for a, b, k in pieces:
                cyc = out[self.first + a:self.first + b]
                _in_chunks(cyc.size,
                           lambda s, e: np.add(cyc[s:e], k, out=cyc[s:e]))
            return out
        _put(out, self.points[pieces[0][0]:pieces[-1][1]],
             _rotation(self._entries, pieces))
        return out

    def minima(self, t):
        """The cycle minima of the t-th power, t >= 0: the cycle of n
        points at f splits into d = gcd(t, n) cycles, its positions
        f + j with j = i (mod d), and each takes the least of its offsets."""
        least = _arange(self.size)
        for (f, n), low in zip(self.bounds, self.lows):
            d = math.gcd(t, n)
            if d == n:  # the power fixes every point of the cycle
                continue
            if self.points is None:
                least[self.first + f:self.first + f + n].reshape(-1, d)[:] = (
                    np.arange(self.first + f, self.first + f + d, dtype=np.int32))
            else:
                cyc = self.points[f:f + n]
                if d == 1:  # one cycle: its least entry for every point
                    _put(least, cyc, lambda s, e: low)
                else:
                    each = cyc.reshape(-1, d).min(axis=0)
                    _put(least, cyc, lambda s, e: np.tile(
                        np.roll(each, -(s % d)), -(-(e - s) // d))[:e - s])
        return least


class Permutation:
    """A bijection of [lo, hi], composed left-to-right."""

    __slots__ = ("lo", "degree", "start", "win", "listing", "exponent")

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
        # or the _Listing of which self is the power `exponent` (a slot
        # set only beside a listing), below the listing's order
        self.listing = None

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

    def listed(self, points, lengths):
        """self, carrying a listing of its cycles: `points` holds the moved
        points cycle after cycle, each cycle from any of its points in the
        order self takes them (x, x^self, x^(self^2), ...), and `lengths`
        the cycles' lengths; a range is a listing described, not stored.
        The listing is checked against the window: self must take each
        entry to the next in its cycle and the last to the first, and the
        listing must hold every moved point once.  InternalInvariantViolation
        if not."""
        win = self.win  # read once: a listed permutation makes it on each read
        base, size = self.lo + self.start, win.size
        if isinstance(points, range) and points.step == 1:
            offsets, first, count = None, points.start - base, len(points)
            inside = not count or (first >= 0 and first + count <= size)
        else:
            arr = np.asarray(points)
            if arr.ndim != 1 or (arr.size and arr.dtype.kind != "i"):
                raise InternalInvariantViolation(
                    "a cycle listing is a flat array of integer points")
            offsets, first, count = np.empty(arr.size, np.int32), 0, arr.size
            inside = True
            for s in range(0, count, _PIECE):
                part = np.subtract(arr[s:s + _PIECE], base, dtype=np.int64)
                # a negative offset is a large unsigned one
                inside = inside and part.view(np.uint64).max() < size
                offsets[s:s + _PIECE] = part
        if not inside:
            raise InternalInvariantViolation(
                "a listed point is outside the window, so it is fixed")
        listing = _Listing(win, self.start, offsets, first, count, lengths)
        if offsets is None:
            out = self._like(win, self.start)
        else:  # the stored listing replaces the window it states
            out = object.__new__(_Listed)
            out.lo, out.degree, out.start = self.lo, self.degree, self.start
        out.listing, out.exponent = listing, 1 % listing.order
        return out

    def _turned(self, t):
        """root^t by rotation, root the permutation self's listing was
        checked against; it carries the listing."""
        listing = self.listing
        t %= listing.order
        power = self._like(listing.power(t), listing.start)
        power.listing, power.exponent = listing, t
        return power

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
        win = self.win
        arr = _put(np.empty_like(win), win,
                   lambda s, e: np.arange(s, e, dtype=np.int32))
        return self._like(arr, self.start)

    def __pow__(self, e):
        e = int(e)
        if e == 0:
            return self.identity_like()
        if self.listing is not None:
            return self._turned(self.exponent * e)
        base = (self if e > 0 else self.inverse()).win
        return self._like(_power(base, base, bin(abs(e))[3:]), self.start)

    def power_from(self, prefix, bits):
        """self^e from prefix = self^f, where bits are the binary digits of
        e after those of f: powers of one base that share the leading
        digits of their exponents share the squarings that make them.
        Where prefix is a power of the listing self is a power of, prefix
        = root^q and self = root^m, the result root^(q * 2^k + m * b), k
        and b the length and value of bits, is one rotation."""
        if self.listing is not None and prefix.listing is self.listing:
            return self._turned((prefix.exponent << len(bits))
                                + self.exponent * int(bits or "0", 2))
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
        win = self.win
        if 0 <= i < win.size:
            return int(win[i]) + self.lo + self.start
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
        if self.listing is not None:  # t a multiple of every listed length
            return all(self.exponent % n == 0 for _, n in self.listing.bounds)
        win = self.win
        return bool((win == _arange(win.size)).all())

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
        out.  A listed permutation reads them from its listing; any other
        by pointer doubling: after k rounds least[i] is the least of
        the 2^k offsets from i on, and a round that changes nothing has
        covered every cycle.  The rounds write two buffers for the minima
        and two for the jumps in turn, as __pow__ does."""
        if self.listing is not None:
            return self.listing.minima(self.exponent)
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


class _Listed(Permutation):
    """A permutation listed with a stored listing (Permutation.listed),
    which keeps the listing instead of its window, so that the listing
    costs no memory beside it: the window, the listing's rotation by one,
    is made each time it is read.  Its powers are rotations, which read
    only the listing, and keep their windows."""

    __slots__ = ()

    @property
    def win(self):
        win = self.listing.power(self.exponent)
        win.flags.writeable = False
        return win


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

