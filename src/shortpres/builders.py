"""Presentation builders.

Each builder returns a Presentation: an Slp, the arithmetic parameters it
was built from, and concrete generator images, built on first read
(permutations, or pairs of permutations for the hat variants that present a
direct product).

Degrees covered by presentation_for: 13 and up, except 21-24 and 45-48.
The two baseline families (one-transposition-per-generator and
one-3-cycle-per-generator) are included for comparison; their relator
counts grow quadratically while the main families stay at <= 7 relators
with bit length O(log n).

Point conventions: the field F_p is embedded as {1..p} via least positive
representative (so 0 sits at point p and x -> x+1 becomes (1,2,...,p)).
The two extra points of a degree-(p+2) action are p+1 and p+2; the three
extra points of the degree-(p+3) action are p+1 (the infinite point of the
projective line), p+2 and p+3.

The words and the output formats need only arithmetic on n.  The array
layer (numpy and perm) is entered through _arrays alone, which only the
image constructors call, so the first image built loads numpy, and emit as
slp or flat text, stats and params never do.
"""

from __future__ import annotations

import json
import math
from collections.abc import Callable
from dataclasses import dataclass
from functools import cache, cached_property

from . import numth, sl2, words
from .errors import (
    InternalInvariantViolation,
    PointOutOfDomain,
    UnsupportedDegree,
)
from .numth import ParamSet, derive_params, find_glue_prime, validate_params
from .words import GroupWord, ProductPair, Slp, comm, conj, sym

MATERIALIZE_MAX_DEGREE = 10_000_000


@cache
def _arrays():
    """numpy and the Permutation class, imported on the first call.

    The image constructors are the only callers, so a process that builds
    no image never loads numpy.
    """
    import numpy as np

    from . import perm

    # images are int32 windows, which address at most MAX_DEGREE = 2^31 - 1 points
    assert MATERIALIZE_MAX_DEGREE <= perm.MAX_DEGREE
    return np, perm.Permutation


# the symbols of the generators and the definitions that name them
A, B, G, T, X, Y, Z = (sym(name) for name in "abgtxyz")


@dataclass
class Presentation:
    slp: Slp
    kind: str  # Alt | Sym | AltTimesT | SymHat | Baseline
    degree: int
    case: str
    params: ParamSet | None
    domain: tuple | None
    build_images: Callable[[], dict]  # generator name -> image

    @cached_property
    def images(self):
        """Generator name -> image, built on first read; None above the
        materialization cap."""
        if self.degree > MATERIALIZE_MAX_DEGREE:
            return None
        return self.build_images()


# ---------------------------------------------------------------------------
# baseline families


def moore(n):
    """S_n on the n-1 adjacent transpositions, n(n-1)/2 relators."""
    if n < 2:
        raise UnsupportedDegree(n, "need n >= 2")
    names = [f"x{i}" for i in range(1, n)]
    gens = [sym(t) for t in names]
    relators = []
    for i in range(n - 1):
        relators.append(gens[i] ** 2)
    for i in range(n - 2):
        relators.append((gens[i] * gens[i + 1]) ** 3)
    for i in range(n - 1):
        for j in range(i + 2, n - 1):
            relators.append((gens[i] * gens[j]) ** 2)
    slp = Slp(tuple(names), (), tuple(relators))
    return Presentation(slp, "Baseline", n, "moore", None, (1, n), lambda: {
        name: _cycles([(i + 1, i + 2)], 1, n) for i, name in enumerate(names)})


def carmichael(n):
    """A_{n+2} on n 3-cycles (i, n+1, n+2), n(n+1)/2 relators."""
    if n < 2:
        raise UnsupportedDegree(n, "need n >= 2")
    names = [f"x{i}" for i in range(1, n + 1)]
    gens = [sym(t) for t in names]
    relators = [g ** 3 for g in gens]
    for i in range(n):
        for j in range(i + 1, n):
            relators.append((gens[i] * gens[j]) ** 2)
    slp = Slp(tuple(names), (), tuple(relators))
    hi = n + 2
    return Presentation(slp, "Baseline", hi, "carmichael", None, (1, hi), lambda: {
        name: _cycles([(i + 1, n + 1, hi)], 1, hi) for i, name in enumerate(names)})


# ---------------------------------------------------------------------------
# shared pieces for the p+2 / glued families


@dataclass(frozen=True)
class _Words:
    """The word families z(i), d(i, j) and c(i, j) over the generator
    symbols at the prime p, made once per construction.

    Exponent handling: with simplify=True (the default) auxiliary words carry
    least-absolute exponents modulo the known image orders (a modulo p, the
    grouped (a x) modulo p-1, conjugating indices modulo p) and the residue s
    is lifted to whichever of s, s-p costs fewer bits.  The reduction happens
    as each word is built; only cbull, whose seam merges two reduced powers
    of a, is reduced once more.  With simplify=False all exponents are kept
    exactly as the defining formulas state them (adjacent powers of one base
    still merge where words are concatenated).  Relators other than the
    s-lift are never rewritten.
    """

    p: int
    simplify: bool = True

    def red(self, e, m):
        """e, or its least-absolute residue modulo m when simplifying."""
        return words.least_absolute(e, m) if self.simplify else e

    def lift(self, s):
        """Lift the residue s in [1, p-1] to s or s-p, whichever costs fewer bits."""
        if self.simplify and words.exponent_bits(s - self.p) < words.exponent_bits(s):
            return s - self.p
        return s

    def z(self, i):
        """z conjugated by a^i (the 3-cycle (i, p+1, p+2) in the image)."""
        i = self.red(i, self.p)
        return Z if i == 0 else conj(Z, A ** i)

    def d(self, i, j):
        """z(i) z(j)^-1 z(i), the even cycle (i,j)(p+1,p+2); needs i != j mod p."""
        if (i - j) % self.p == 0:
            raise InternalInvariantViolation(
                f"d({i},{j}) needs distinct indices mod {self.p}")
        zi = self.z(i)
        return zi * self.z(j) ** -1 * zi

    def c(self, i, j):
        """The even-cycle word for (i,...,j)(p+1,p+2)^(j-i), defined for
        1 <= i <= j <= p+2 (with i <= p-2 once j reaches p)."""
        p = self.p
        if not 1 <= i <= j <= p + 2:
            raise InternalInvariantViolation(f"c({i},{j}) out of range for p = {p}")
        if j <= p - 1:
            return (A ** self.red(-j, p) * (A * X) ** self.red(j - i, p - 1)
                    * A ** self.red(i, p))
        if i > p - 2:
            raise InternalInvariantViolation(f"c({i},{j}) needs i <= p-2 for p = {p}")
        if j == p:
            return conj(Z, (Z * A) ** -2) * self.c(i, p - 2)
        if j == p + 1:
            return conj(Z, (Z * A) ** -1) * self.c(i, p - 1)
        return Z * self.c(i, p)


def _cycles(cycles, lo, hi):
    """The permutation of [lo, hi] with these disjoint cycles."""
    return _arrays()[1].from_cycles(cycles, lo, hi)


def _field_points(p, lo, hi):
    """The identity images of [lo, hi] and the embedded field points 1..p."""
    if lo > 1 or hi < p:
        raise PointOutOfDomain(1 if lo > 1 else p, lo, hi)
    np, _ = _arrays()
    return np.arange(lo, hi + 1, dtype=np.int64), np.arange(1, p + 1, dtype=np.int64)


def _mul_points(factor, p, lo, hi):
    """Images of x -> factor*x on the embedded F_p (reps 1..p)."""
    arr, reps = _field_points(p, lo, hi)
    vals = (factor * reps) % p
    vals[vals == 0] = p
    arr[1 - lo:p + 1 - lo] = vals
    return arr


def _mul_image(factor, p, lo, hi):
    """x -> factor*x on the embedded F_p (reps 1..p), fixing everything else."""
    _, Permutation = _arrays()
    return Permutation(_mul_points(factor, p, lo, hi), lo)


# From this many field points on, a and g carry the listing of their
# cycles (Permutation.listed).  Below it, the listing costs more than its
# rotations and cycle minima save: powers that share binary prefixes take
# about three gathers each there, fewer calls than a rotation makes, and
# building and checking the listings adds about 40 us a presentation.
# Measured on a 2-CPU x86 VM, verify with and without the listings of a
# and g: 5-10% slower at degrees 20-500, 2-5% at 2000-4000, about even at
# 6000 and 3-9% faster from 8200 on (15-25% faster from 65000 on).
_LISTED_FROM = 1 << 12


def _a_image(p, lo, hi):
    """(1,2,...,p) inside [lo, hi]: the shift x -> x+1 on the embedded F_p,
    listed as the one cycle 1, ..., p from _LISTED_FROM points on."""
    arr, reps = _field_points(p, lo, hi)
    arr[1 - lo:p + 1 - lo] = reps % p + 1
    _, Permutation = _arrays()
    a = Permutation(arr, lo)
    return a.listed(range(1, p + 1), [p]) if p >= _LISTED_FROM else a


def _x_image(p, lo, hi):
    """x -> -1/x on the projective line over F_p: i in 1..p-1 goes to
    p - 1/i mod p, and p (the field's 0) swaps with p+1 (the infinite point)."""
    if hi < p + 1:
        raise PointOutOfDomain(p + 1, lo, hi)
    arr, _ = _field_points(p, lo, hi)
    arr[1 - lo:p - lo] = [p - pow(i, -1, p) for i in range(1, p)]
    arr[p - lo:p + 2 - lo] = p + 1, p
    _, Permutation = _arrays()
    return Permutation(arr, lo)


def _g_image(ps, lo, hi):
    """alpha-multiplication times (p, p+1, p+2)^kappa, listed with its
    cycles (_g_cycles) from _LISTED_FROM field points on.

    The multiplication fixes p, p+1 and p+2, so the product is the
    multiplication with the 3-cycle's power (p,p+1,p+2)^(kappa mod 3)
    written over those three points.
    """
    p = ps.p
    if hi < p + 2:
        raise PointOutOfDomain(p + 2, lo, hi)
    np, Permutation = _arrays()
    # The listing first: built after the window, it left the peak of
    # verify at Sym 9999999 one n/2-point array higher (451 against 432 MiB
    # from fresh copies of the source, both depths), the allocator keeping
    # memory it would otherwise return.
    cycles = _g_cycles(ps) if p >= _LISTED_FROM else None
    arr = _mul_points(ps.alpha, p, lo, hi)
    shift = ps.kappa % 3
    arr[p - lo:p + 3 - lo] = p + (np.arange(3) + shift) % 3
    g = Permutation(arr, lo)
    del arr
    return g.listed(*cycles) if cycles else g


# the most points _g_cycles multiplies in one int64 temporary
_CHUNK = 1 << 16


def _g_cycles(ps):
    """g's cycles, as int32 points and lengths.  The field cycles are the
    cosets of <alpha> in F_p^*, of alpha's order m (kappa, for parameters
    that pass validate_params), each listed from its least point c as c,
    c*alpha, c*alpha^2, ...; cosets differ in c^m.  Then, unless kappa is
    a multiple of 3, the 3-cycle from p, which g takes to p + (kappa mod 3).

    A coset's run is an outer product of two runs of about sqrt(m) powers,
    c*alpha^(i*w + j) = (c*alpha^(i*w)) * alpha^j, in row chunks."""
    np, _ = _arrays()
    p, alpha, shift = ps.p, ps.alpha, ps.kappa % 3
    m = numth.unit_order(alpha, p)
    reps = {}  # c^m -> the least c of its coset
    for c in range(1, p):
        if len(reps) == (p - 1) // m:
            break
        reps.setdefault(pow(c, m, p), c)
    w = math.isqrt(m - 1) + 1  # w * w >= m
    tails = np.array(_run(1, alpha, w, p), dtype=np.int64)
    rows = max(1, _CHUNK // w)
    points = np.empty(p - 1 + (3 if shift else 0), dtype=np.int32)
    for i, c in enumerate(reps.values()):
        heads = np.array(_run(c, pow(alpha, w, p), -(-m // w), p), dtype=np.int64)
        coset = points[i * m:(i + 1) * m]
        for r in range(0, heads.size, rows):
            part = coset[r * w:(r + rows) * w]
            part[:] = (np.multiply.outer(heads[r:r + rows], tails) % p
                       ).ravel()[:part.size]
    if shift:
        points[p - 1:] = p, p + shift, p + 2 * shift % 3
    return points, [m] * len(reps) + ([3] if shift else [])


def _run(c, q, k, p):
    """c, c*q, c*q^2, ... mod p: k Python ints."""
    out = [c]
    for _ in range(k - 1):
        out.append(out[-1] * q % p)
    return out


def _base_relators(w, ps):
    s = w.lift(ps.s)
    return (
        A ** ps.p * B ** -ps.kappa,
        conj(A ** s, B) * A ** -(s - 1),
        (Z * conj(Z, A)) ** 2,
    )


def _base_h_word(w, ps, double_b):
    """(b^eps z(1) z(i))^((p+1)/2) with i = -1 (Alt) or r (Sym)."""
    zi = w.z(-1 if ps.kind == "Alt" else ps.r)
    head = B ** 2 if double_b else B
    return (head * conj(Z, A) * zi) ** ((ps.p + 1) // 2)


def base_p2(p, kind, params=None, simplify=True):
    """The 2-generator 4-relator presentation of A_{p+2} or S_{p+2}."""
    ps = _intake(kind, "BaseP2", p + 2, params)
    w = _Words(p, simplify)
    defs = [
        ("b", G ** 3),
        ("z", G ** ps.kappa),
        ("h", _base_h_word(w, ps, double_b=(ps.kind == "Sym"))),
    ]
    relators = _base_relators(w, ps) + (sym("h"),)
    slp = Slp(("a", "g"), tuple(defs), relators)
    lo, hi = 1, p + 2
    return Presentation(slp, ps.kind, p + 2, "base_p2", ps, (lo, hi), lambda: {
        "a": _a_image(p, lo, hi), "g": _g_image(ps, lo, hi)})


def base_p2_hat(p, kind, params=None, simplify=True):
    """The hat variant: same data minus the h relator, presenting the direct
    product of A_{p+2} (resp. the index-2 subgroup of S_{p+2} x T) with the
    residual point-stabilizer group; images are permutation pairs."""
    base = base_p2(p, kind, params=params, simplify=simplify)
    ps = base.params
    slp = Slp(base.slp.generators, base.slp.definitions, base.slp.relators[:3])
    lo, hi = 1, p + 2
    kind_out = "AltTimesT" if ps.kind == "Alt" else "SymHat"
    return Presentation(slp, kind_out, p + 2, "base_p2_hat", ps, (lo, hi), lambda: {
        "a": ProductPair(_a_image(p, lo, hi), _a_image(p, 1, p)),
        "g": ProductPair(_g_image(ps, lo, hi), _mul_image(ps.alpha, p, 1, p)),
    })


# ---------------------------------------------------------------------------
# AGL-based examples (3 generators a, b, z)


_AGL_VARIANTS = ("AltAGL", "AltAGL2", "SymAGL")


def agl_examples(p, variant, with_extra_relator=False, simplify=True):
    """Three-generator presentations built from the affine group of the line.

    AltAGL: b of order p-1, z inverted by b; extra relator (b^a z)^p.
    AltAGL2 (p = 3 mod 4): b of order (p-1)/2 generating the squares,
        z centralized; extra relator (b z^a z^{a^-1})^((p+1)/2).
    SymAGL: b of order p-1, z centralized; extra (b^2 z^a z^{a^r})^((p+1)/2).
    Without the extra relator these present a direct product (pair images);
    with it they collapse to A_{p+2} (Alt variants) or S_{p+2}.
    """
    if variant not in _AGL_VARIANTS:
        raise InternalInvariantViolation(f"unknown variant {variant!r}")
    numth.require_affine_prime(p, variant == "AltAGL2", variant)
    return _agl(_Words(p, simplify), variant, with_extra_relator)


def _agl(w, variant, with_extra_relator):
    """agl_examples for a prime p = w.p already checked to be of its class."""
    p = w.p
    squares = variant == "AltAGL2"
    r, s, kappa = numth.unit_fields(p, squares)
    ps = ParamSet(kind="Sym" if variant == "SymAGL" else "Alt",
                  n=p + 2, p=p, r=r, s=s, alpha=None, kappa=kappa)
    base = _base_relators(w, ps)
    relators = [*base[:2], Z ** 3, base[2]]
    if variant == "AltAGL":
        relators.append(conj(Z, B) * Z)  # z^b = z^-1
    elif variant == "AltAGL2":
        relators.append(conj(Z, B) * Z ** -1)  # z^b = z
    else:
        relators.append(comm(Z, B))
    if with_extra_relator:
        if variant == "AltAGL":
            relators.append((conj(B, A) * Z) ** p)
        else:
            relators.append(_base_h_word(w, ps, double_b=(variant == "SymAGL")))
    slp = Slp(("a", "b", "z"), (), tuple(relators))
    lo, hi = 1, p + 2

    def images():
        b_first = _mul_image(r, p, lo, hi)
        if variant == "AltAGL":
            b_first = b_first * _cycles([(p + 1, p + 2)], lo, hi)
        first = {
            "a": _a_image(p, lo, hi),
            "b": b_first,
            "z": _cycles([(p, p + 1, p + 2)], lo, hi),
        }
        if with_extra_relator:
            return first
        second = {
            "a": _a_image(p, 1, p),
            "b": _mul_image(r, p, 1, p),
            "z": _cycles([], 1, p),
        }
        return {t: ProductPair(first[t], second[t]) for t in ("a", "b", "z")}

    kind = ps.kind if with_extra_relator else (
        "SymHat" if variant == "SymAGL" else "AltTimesT")
    return Presentation(slp, kind, p + 2, f"agl:{variant}", ps, (lo, hi), images)


# ---------------------------------------------------------------------------
# degree p+3 (Alt only, 3 generators x, y, z)


def alt_p3(p, params=None):
    """A_{p+3} on three generators and seven relators.

    Exponents here are kept exactly as the defining formulas state them:
    there is nothing the freedom rules allow us to shorten.
    """
    ps = _intake("Alt", "P3", p + 3, params)
    relators = sl2.cr_relator_words(p) + (
        Z ** 3,
        (Z * conj(Z, X)) ** 2,
        comm(Y, Z),
        comm(sym("h"), Z),
        (sym("h") * conj(Z, X * Y) * conj(Z, X * Y ** ps.j)) ** ((p + 1) // 2),
    )
    h_word = sl2.h_word(ps.j, ps.jbar, (-1) ** ps.k_sl)
    slp = Slp(("x", "y", "z"), (("h", h_word),), relators)
    lo, hi = 1, p + 3
    return Presentation(slp, "Alt", p + 3, "alt_p3", ps, (lo, hi), lambda: {
        "x": _x_image(p, lo, hi),
        "y": _a_image(p, lo, hi),
        "z": _cycles([(p + 1, p + 2, p + 3)], lo, hi),
    })


# ---------------------------------------------------------------------------
# the glued construction (3 generators a, g, y)


def glued(n, kind, params=None, simplify=True):
    """A_n or S_n by gluing a second degree-(p+2) action along k fixed points.

    Generators a, g act as in the base case on {1..p+2} (fixing the negative
    points); y transports {k-p-1..k} to {1..p+2}, fixing {1..k}, so the two
    copies overlap in k points.  Seven relators; every exponent is O(p), so
    the bit length is O(log n).
    """
    ps = _intake(kind, "Glued", n, params)
    p, k = ps.p, ps.k
    kind = ps.kind
    n_even = n % 2 == 0
    w = _Words(p, simplify)
    defs = [
        ("b", G ** 3),
        ("z", G ** ps.kappa),
        ("h", _base_h_word(w, ps, double_b=True)),
        ("x", w.d(0, 1)),
        ("atil", conj(w.z(3), w.z(2) * w.z(1))),
    ]
    t = GroupWord()  # the transposition t, in Sym only
    if kind == "Sym":
        defs.extend(_transposition_defs(w))
        t = T
    # c starts at 2 for odd Sym and even Alt degrees, else at 1; e one later
    i = 2 if (kind == "Sym") != n_even else 1
    defs.append(("c", w.c(i, k) * t))
    defs.append(("d", w.c(5, p + 2)))
    defs.append(("e", Z * A * t * ~w.c(i + 1, k + 1)))

    w_def, tele_defs = _glued_w(w, kind, n_even, k)
    defs.extend(tele_defs)
    defs.append(("w", w_def))

    relators = _base_relators(w, ps) + (
        sym("atil") * conj(sym("atil") * sym("h"), Y) ** -1,
        sym("c") * conj(sym("c"), Y) ** -1,
        comm(sym("d"), conj(sym("e"), Y)),
        Y * sym("w") ** -1,
    )
    slp = Slp(("a", "g", "y"), tuple(defs), relators)
    lo, hi = k - p - 1, p + 2
    return Presentation(slp, kind, n, "glued", ps, (lo, hi), lambda: {
        "a": _a_image(p, lo, hi),
        "g": _g_image(ps, lo, hi),
        "y": glue_map_image(p, k, kind, lo, hi),
    })


def _transposition_defs(w):
    """The Sym definitions cbull, v and t, where t is the transposition
    (p+1, p+2) for p = 3 (mod 4); x names the even cycle d(0, 1)."""
    p = w.p
    half_down = (p - 1) // 2
    cbull = w.c(1, half_down) * ~w.c(half_down + 1, p - 1)
    if w.simplify:
        # the seam of two reduced words merges into a^((p+1)/2), past p/2
        cbull = words.simplify(cbull, {"a": p})
    return [
        ("cbull", cbull),
        ("v", (sym("cbull") * w.d(1, -1)) ** half_down),
        ("t", sym("v") * B ** half_down),
    ]


def _glued_w(w, kind, n_even, k):
    """The w word for each (kind, parity, k) branch, plus the telescope
    definitions (ytil, ztil, xtil, u) when the branch uses them."""
    p = w.p
    za = Z * A
    if k == p:
        return conj(Z, Y * Z ** -1) * conj(Z, Y * Z), []
    if kind == "Sym" and k == p + 1:
        return conj(T, Y * Z), []
    if kind == "Sym" and k == p - 1:
        mover = A * Y * A ** -1
        return (conj(Z, mover * Z ** -1) * conj(Z, mover * Z)
                * conj(w.d(1, p) * T, Y * A ** -1)), []
    # w = head (xtil u^-2)^(m/2) xtil u^m, with u left out when m = 0
    if not n_even:
        head, m = GroupWord(), p - k
    elif kind == "Sym":
        head, m = conj(T, za * Y * za ** -1), p - k - 1
    else:
        head = (conj(w.d(1, -1), za * Y * A ** -1 * Z ** -2 * A ** -1)
                * conj(w.z(1), Y * A ** -1 * Z ** -1) ** -1)
        m = p - k - 3
        if m < 0:
            # k = p-1: the telescope exponent is -1, so the tail is freely
            # trivial and its xtil is not even well-formed: w is the head
            return head, []
    ytil, xtil, u = sym("ytil"), sym("xtil"), sym("u")
    tele = [
        ("ytil", w.d(1, k + 2) * w.d(2, k + 1)),
        ("ztil", conj(ytil, Y)),
        ("xtil", conj(ytil, sym("ztil"))),
    ]
    if m:
        tele.append(("u", za * conj(za, Y)))
    return head * (xtil * u ** -2) ** (m // 2) * xtil * u ** m, tele


def glue_map_image(p, k, kind, lo, hi):
    """The image of y on [lo, hi]: pairs (k-p-1+t, p+2-t); for Alt with n
    even the first two pairs close up into a 4-cycle to keep the permutation
    even.

    The pairs are the reflection of [k-p-1, 0] onto [k+1, p+2], fixing 1..k.
    """
    left, right = k - p - 1, p + 2
    for x in (left, right):
        if not lo <= x <= hi:
            raise PointOutOfDomain(x, lo, hi)
    np, Permutation = _arrays()
    arr = np.arange(lo, hi + 1, dtype=np.int64)
    t = np.arange(p - k + 2, dtype=np.int64)
    arr[left + t - lo] = right - t
    arr[right - t - lo] = left + t
    if kind == "Alt" and (2 * p + 4 - k) % 2 == 0:
        # the 4-cycle (k-p-1, p+2, k-p, p+1)
        arr[[left - lo, right - lo, left + 1 - lo, right - 1 - lo]] = (
            right, left + 1, right - 1, left)
    return Permutation(arr, lo)


# ---------------------------------------------------------------------------
# dispatch


def _case(n, kind):
    """The construction case that covers degree n of this kind: the base
    case at 13, 25 and 49, the degree p+3 case for Alt at 14, 26 and 50,
    and the glued one everywhere else."""
    if n < 13:
        raise UnsupportedDegree(n, "smallest covered degree is 13")
    if n in (13, 25, 49):
        return "BaseP2"
    if kind == "Alt" and n in (14, 26, 50):
        return "P3"
    return "Glued"


def _intake(kind, case, n, params):
    """The derived parameters of this case, or the hand-picked params once
    they are valid and describe exactly this n, kind and case."""
    if not params:
        return derive_params(kind, case, n=n)
    ps = validate_params(params)
    if (ps.n, ps.kind, numth.case_of(ps)) != (n, numth._norm_kind(kind), case):
        raise InternalInvariantViolation("parameters do not describe this case")
    return ps


def presentation_for(n, kind, simplify=True):
    """The covered presentation of A_n or S_n for this degree."""
    kind = numth._norm_kind(kind)
    case = _case(n, kind)
    if case == "BaseP2":
        return base_p2(n - 2, kind, simplify=simplify)
    if case == "P3":
        return alt_p3(n - 3)
    return glued(n, kind, simplify=simplify)


def params_for(n, kind):
    """The derived parameters presentation_for would use at this degree."""
    kind = numth._norm_kind(kind)
    return derive_params(kind, _case(n, kind), n=n)


def covered_degrees(lo, hi, kind):
    """All degrees in [lo, hi] that presentation_for accepts."""
    kind = numth._norm_kind(kind)
    out = []
    for n in range(max(lo, 13), hi + 1):
        if _case(n, kind) == "Glued":
            try:
                find_glue_prime(n, kind)
            except UnsupportedDegree:
                continue
        out.append(n)
    return out


# ---------------------------------------------------------------------------
# output formats


def emit(pres, fmt="slp"):
    """Render a presentation as 'slp' text, 'flat' relator lines, or 'json'."""
    if fmt == "slp":
        return _emit_slp(pres)
    if fmt == "flat":
        return _emit_flat(pres)
    if fmt == "json":
        return json.dumps(presentation_json(pres), indent=2) + "\n"
    raise InternalInvariantViolation(f"unknown format {fmt!r}")


def _emit_slp(pres):
    head = [
        f"# degree: {pres.degree}",
        f"# kind: {pres.kind}",
        f"# case: {pres.case}",
    ]
    if pres.params is not None:
        head.append("# params: " + json.dumps(pres.params.to_json()))
    return "\n".join(head) + "\n" + pres.slp.to_text()


def _emit_flat(pres):
    defs = pres.slp.definition_map()
    lines = [_flat_word(w, defs) for w in pres.slp.relators]
    return "\n".join(lines) + "\n"


def _flat_word(word, defs):
    return "*".join(_flat_factor(f, defs) for f in word.factors) or "1"


def _paren(text):
    """Wrap unless the text is a bare name or one parenthesized group."""
    if text.isidentifier():
        return text
    if text.startswith("("):
        depth = 0
        for i, ch in enumerate(text):
            depth += (ch == "(") - (ch == ")")
            if depth == 0:
                return text if i == len(text) - 1 else f"({text})"
    return f"({text})"


def _flat_factor(f, defs):
    base = f.base
    if isinstance(base, words.Sym):
        txt = _flat_word(defs[base.name], defs) if base.name in defs else base.name
    elif isinstance(base, words.Conj):
        txt = (f"{_paren(_flat_word(base.target, defs))}"
               f"^{_paren(_flat_word(base.by, defs))}")
    elif isinstance(base, words.Comm):
        u = _paren(_flat_word(base.left, defs))
        v = _paren(_flat_word(base.right, defs))
        txt = f"{u}^-1*{v}^-1*{u}*{v}"
    else:
        txt = _flat_word(base, defs)
    return txt if f.exp == 1 else f"{_paren(txt)}^{f.exp}"


def _image_json(val):
    if isinstance(val, ProductPair):
        return [str(val.left), str(val.right)]
    return str(val)


def presentation_json(pres):
    images = None
    if pres.images is not None:
        images = {name: _image_json(val) for name, val in pres.images.items()}
    return {
        "degree": pres.degree,
        "kind": pres.kind,
        "case": pres.case,
        "params": pres.params.to_json() if pres.params else None,
        "domain": list(pres.domain) if pres.domain else None,
        "bit_length": pres.slp.bit_length(),
        "word_length": pres.slp.word_length(),
        "slp": pres.slp.to_text(),
        "images": images,
    }
