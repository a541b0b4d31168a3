"""Determinant-one 2x2 matrices over F_p.

Mat2p follows the same element protocol as perm.Permutation (left factor
first, inverse/conjugate/pow), so words evaluate over either carrier.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import words
from .errors import EnumerationTooLarge, InternalInvariantViolation, ParityViolation
from .numth import derive_params, require_prime_class

_ENUM_MAX_P = 100


@dataclass(frozen=True)
class Mat2p:
    """An element of SL(2, p), entries stored in [0, p)."""

    a: int
    b: int
    c: int
    d: int
    p: int

    def __post_init__(self):
        p = self.p
        object.__setattr__(self, "a", self.a % p)
        object.__setattr__(self, "b", self.b % p)
        object.__setattr__(self, "c", self.c % p)
        object.__setattr__(self, "d", self.d % p)
        if (self.a * self.d - self.b * self.c) % p != 1:
            raise InternalInvariantViolation(
                f"determinant of {self._entries()} is not 1 modulo {p}")

    def _entries(self):
        return (self.a, self.b, self.c, self.d)

    def __mul__(self, other):
        if self.p != other.p:
            raise InternalInvariantViolation("mixed characteristics")
        p = self.p
        return Mat2p(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
            p,
        )

    def inverse(self):
        return Mat2p(self.d, -self.b, -self.c, self.a, self.p)

    def __pow__(self, e):
        e = int(e)
        if e == 0:
            return self.identity_like()
        base = self if e > 0 else self.inverse()
        return base.power_from(base, bin(abs(e))[3:])

    def power_from(self, prefix, bits):
        """self^e from prefix = self^f, where bits are the binary digits of
        e after those of f, through *."""
        for bit in bits:
            prefix = prefix * prefix
            if bit == "1":
                prefix = prefix * self
        return prefix

    def conjugate(self, g):
        return g.inverse() * self * g

    def identity_like(self):
        return Mat2p(1, 0, 0, 1, self.p)

    def is_identity(self):
        return self._entries() == (1, 0, 0, 1)

    def __str__(self):
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


def gens_tu(p, corrected=True):
    """The matrix generator pair (t, u) of SL(2, p).

    Corrected form: both scaled by (-1)^k with k = p mod 3.  The original
    (uncorrected) pair t = [[0,1],[-1,0]], u = [[1,1],[0,1]] fails the first
    defining relator, since t^2 = -(tu)^3 for it."""
    require_prime_class("Alt", "P3", p)
    return _gens_tu(p, corrected)


def _gens_tu(p, corrected=True):
    """gens_tu for a p already checked to be of the degree-(p+3) class."""
    if not corrected:
        return Mat2p(0, 1, -1, 0, p), Mat2p(1, 1, 0, 1, p)
    sign = -1 if p % 3 == 1 else 1  # (-1)^k, k = p mod 3 in {1, 2}
    return Mat2p(0, -sign, sign, 0, p), Mat2p(sign, sign, 0, sign, p)


def cr_relator_words(p):
    """The two defining relators of SL(2, p) on symbols x, y."""
    x, y = words.sym("x"), words.sym("y")
    r1 = x ** 2 * (x * y) ** -3
    r2 = (x * y ** 4 * x * y ** ((p + 1) // 2)) ** 2 * y ** p * x ** (2 * (p // 3))
    return r1, r2


def h_word(j, jbar, last):
    """The word y^jbar (y^j)^x y^jbar x^last on symbols x, y.

    At the corrected generators and last = (-1)^k (k = p mod 3) it is the
    diagonal witness v of element_v; the uncorrected forms use last = -1."""
    x, y = words.sym("x"), words.sym("y")
    return y ** jbar * words.conj(y ** j, x) * y ** jbar * x ** last


def check_cr_relators(t, u, p):
    """Evaluate both defining relators at (t, u); return (all_identity, values)."""
    env = {"x": t, "y": u}
    values = [words.evaluate(w, env) for w in cr_relator_words(p)]
    return all(m.is_identity() for m in values), values


def element_v(p, j=None, jbar=None, corrected=True):
    """The diagonal witness v := u^jbar (u^j)^t u^jbar t^((-1)^k).

    For the corrected generators and j*k even this equals diag(jbar, j);
    j*k odd raises ParityViolation (callers pass j-p instead).  With
    corrected=False the original pair is used, giving -v when k is even.

    Without j and jbar, derive_params checks that p is of the degree-(p+3)
    class and picks them; given, they are the parameters of a p already
    checked, and p is not proven prime again."""
    if j is None or jbar is None:
        ps = derive_params("Alt", "P3", p=p)
        j, jbar = ps.j, ps.jbar
    k = p % 3
    if corrected and (j * k) % 2 == 1:
        raise ParityViolation(f"j*k = {j * k} is odd; replace j by j-p")
    t, u = _gens_tu(p, corrected)
    v = words.evaluate(h_word(j, jbar, (-1) ** k), {"x": t, "y": u})
    if corrected:
        expect = Mat2p(jbar, 0, 0, j, p)
        if v != expect:
            raise InternalInvariantViolation(
                f"v = {v} is not diag({jbar}, {j}) modulo {p}")
    return v


def subgroup_order(p, mats):
    """Order of the subgroup of SL(2, p) generated by mats, by closure.

    Refuses p > 100 (the closure can reach p(p^2-1) elements)."""
    if p > _ENUM_MAX_P:
        raise EnumerationTooLarge(f"p = {p} exceeds the enumeration bound {_ENUM_MAX_P}")
    if not mats:
        return 1
    one = mats[0].identity_like()
    seen, frontier = {one._entries()}, [one]
    while frontier:
        nxt = []
        for m in frontier:
            for g in mats:
                prod = m * g
                key = prod._entries()
                if key not in seen:
                    seen.add(key)
                    nxt.append(prod)
        frontier = nxt
    return len(seen)
