"""Permutations on an integer interval, acting on the right.

Points are integers from a closed interval [lo, hi] (lo may be negative).
Products apply the LEFT factor first: x^(s*t) = (x^s)^t, so
(1,2)*(2,3) = (1,3,2).  Conjugation is s^g = g^-1*s*g, which relabels
cycles: (x1,...,xk)^g = (x1^g,...,xk^g).

A Permutation stores `images`, a read-only numpy int64 array of 0-based
offsets: images[i] = (lo + i)^perm - lo.  The group operations index
these offsets directly (a product is one gather, an inverse one scatter),
with no shift back and forth, so they stay cheap up to degrees in the
millions.  Absolute points appear only at the edges: the constructor,
__call__, cycles, support and __str__.
"""

from __future__ import annotations

import math
import re

import numpy as np

from .errors import DomainMismatch, OverlappingCycles, PointOutOfDomain

_CYCLE_RE = re.compile(r"\(\s*((?:-?\d+\s*(?:,\s*-?\d+\s*)*)?)\)")


class Permutation:
    """A bijection of [lo, hi], composed left-to-right."""

    __slots__ = ("images", "lo")

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
        shifted.flags.writeable = False
        self.images = shifted
        self.lo = lo

    @classmethod
    def _trusted(cls, offsets, lo):
        """Internal: wrap 0-based offsets already known to be a bijection."""
        self = object.__new__(cls)
        offsets.flags.writeable = False
        self.images = offsets
        self.lo = lo
        return self

    @property
    def hi(self):
        return self.lo + self.images.size - 1

    @property
    def degree(self):
        return self.images.size

    @classmethod
    def identity(cls, lo, hi):
        if hi < lo:
            raise DomainMismatch(f"empty domain [{lo}, {hi}]")
        return cls._trusted(np.arange(hi - lo + 1, dtype=np.int64), lo)

    @classmethod
    def from_cycles(cls, cycles, lo, hi):
        """Build the product of pairwise-disjoint cycles on [lo, hi].

        Each cycle is an iterable of points.  A point used twice (within
        or across cycles) raises OverlappingCycles; a point outside
        [lo, hi] raises PointOutOfDomain.
        """
        arr = np.arange(hi - lo + 1, dtype=np.int64)
        seen = set()
        for cyc in cycles:
            pts = list(cyc)
            for x in pts:
                if not lo <= x <= hi:
                    raise PointOutOfDomain(x, lo, hi)
                if x in seen:
                    raise OverlappingCycles(x)
                seen.add(x)
            for i, x in enumerate(pts):
                arr[x - lo] = pts[(i + 1) % len(pts)] - lo
        return cls._trusted(arr, lo)

    def _check_domain(self, other):
        if self.lo != other.lo or self.images.size != other.images.size:
            raise DomainMismatch(
                f"domains [{self.lo}, {self.hi}] and [{other.lo}, {other.hi}] differ"
            )

    def __mul__(self, other):
        """self*other applies self first: x^(self*other) = (x^self)^other."""
        self._check_domain(other)
        return Permutation._trusted(other.images[self.images], self.lo)

    def inverse(self):
        arr = np.empty_like(self.images)
        arr[self.images] = np.arange(self.images.size, dtype=np.int64)
        return Permutation._trusted(arr, self.lo)

    def __invert__(self):
        return self.inverse()

    def __pow__(self, e):
        e = int(e)
        if e == 0:
            return Permutation.identity(self.lo, self.hi)
        # square-and-multiply from the top bit down: the same gathers as
        # from the bottom up, without a live run of squares beside the result
        base = self if e > 0 else self.inverse()
        result = base
        for bit in bin(abs(e))[3:]:
            result = result * result
            if bit == "1":
                result = result * base
        return result

    def conjugate(self, g):
        """self^g = g^-1 * self * g, i.e. self with points relabeled by g."""
        self._check_domain(g)
        arr = np.empty_like(self.images)
        arr[g.images] = g.images[self.images]
        return Permutation._trusted(arr, self.lo)

    def __call__(self, point):
        if not self.lo <= point <= self.hi:
            raise PointOutOfDomain(point, self.lo, self.hi)
        return int(self.images[point - self.lo]) + self.lo

    def __eq__(self, other):
        if not isinstance(other, Permutation):
            return NotImplemented
        return self.lo == other.lo and np.array_equal(self.images, other.images)

    def __hash__(self):
        return hash((self.lo, self.images.tobytes()))

    def is_identity(self):
        return bool((self.images == np.arange(self.images.size)).all())

    def identity_like(self):
        return Permutation.identity(self.lo, self.hi)

    def cycles(self):
        """Canonical cycle decomposition: fixed points dropped, each cycle
        starting at its least point, cycles sorted by least point."""
        img = self.images
        lo = self.lo
        seen = set()
        out = []
        for start in np.nonzero(img != np.arange(img.size))[0].tolist():
            if start in seen:
                continue
            cyc = [start]
            seen.add(start)
            nxt = int(img[start])
            while nxt != start:
                cyc.append(nxt)
                seen.add(nxt)
                nxt = int(img[nxt])
            out.append(tuple(x + lo for x in cyc))
        return out

    def cycle_type(self):
        """Sorted (descending) lengths of the nontrivial cycles; () for identity."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def support(self):
        """The points actually moved, ascending."""
        idx = np.nonzero(self.images != np.arange(self.images.size))[0]
        return [int(i) + self.lo for i in idx]

    def order(self):
        return math.lcm(*(len(c) for c in self.cycles()))

    def cycle_minima(self):
        """Offset of the least point on each offset's cycle, by pointer
        doubling: after k rounds least[i] is the least of the 2^k offsets
        from i on, and a round that changes nothing has covered every cycle."""
        least = np.arange(self.images.size)
        step = self.images
        while True:
            lower = np.minimum(least, least[step])
            if np.array_equal(lower, least):
                return least
            least = lower
            step = step[step]

    def epsilon(self):
        """Parity: 0 for even, 1 for odd (the degree minus the number of
        cycles, fixed points included)."""
        least = self.cycle_minima()
        return (least.size - np.count_nonzero(least == np.arange(least.size))) % 2

    def sign(self):
        return -1 if self.epsilon() else 1

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

