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

from __future__ import annotations

import json
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import numth, sl2, words
from .errors import (
    InternalInvariantViolation,
    PointOutOfDomain,
    UnsupportedDegree,
)
from .numth import ParamSet, derive_params, find_glue_prime, validate_params
from .perm import Permutation
from .words import GroupWord, ProductPair, Slp, comm, conj, sym

MATERIALIZE_MAX_DEGREE = 10_000_000


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
        name: Permutation.from_cycles([(i + 1, i + 2)], 1, n)
        for i, name in enumerate(names)})


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
        name: Permutation.from_cycles([(i + 1, n + 1, hi)], 1, hi)
        for i, name in enumerate(names)})


# ---------------------------------------------------------------------------
# shared pieces for the p+2 / glued families


def _lift_residue(s, p, simplify):
    """Lift the residue s in [1, p-1] to s or s-p, whichever costs fewer bits."""
    if simplify and words.exponent_bits(s - p) < words.exponent_bits(s):
        return s - p
    return s


def _z_word(z, a, i, p, simplify):
    """z conjugated by a^i (the 3-cycle (i, p+1, p+2) in the image)."""
    i = _red_mod(i, p, simplify)
    if i == 0:
        return z
    return conj(z, a ** i)


def _d_word(z, a, i, j, p, simplify):
    """z(i) z(j)^-1 z(i), the even cycle (i,j)(p+1,p+2); needs i != j mod p."""
    if (i - j) % p == 0:
        raise InternalInvariantViolation(f"d({i},{j}) needs distinct indices mod {p}")
    zi = _z_word(z, a, i, p, simplify)
    zj = _z_word(z, a, j, p, simplify)
    return zi * zj ** -1 * zi


def _c_word(z, a, x, i, j, p, simplify):
    """The even-cycle word for (i,...,j)(p+1,p+2)^(j-i), defined for
    1 <= i <= j <= p+2 (with i <= p-2 once j reaches p)."""
    if not 1 <= i <= j <= p + 2:
        raise InternalInvariantViolation(f"c({i},{j}) out of range for p = {p}")
    if j <= p - 1:
        return (a ** _red_mod(-j, p, simplify)
                * (a * x) ** _red_mod(j - i, p - 1, simplify)
                * a ** _red_mod(i, p, simplify))
    if i > p - 2:
        raise InternalInvariantViolation(f"c({i},{j}) needs i <= p-2 for p = {p}")
    if j == p:
        return conj(z, (z * a) ** -2) * _c_word(z, a, x, i, p - 2, p, simplify)
    if j == p + 1:
        return conj(z, (z * a) ** -1) * _c_word(z, a, x, i, p - 1, p, simplify)
    return z * _c_word(z, a, x, i, p, p, simplify)


def _red_mod(e, m, simplify):
    return words.least_absolute(e, m) if simplify else e


def _field_points(p, lo, hi):
    """The identity images of [lo, hi] and the embedded field points 1..p."""
    if lo > 1 or hi < p:
        raise PointOutOfDomain(1 if lo > 1 else p, lo, hi)
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
    return Permutation(_mul_points(factor, p, lo, hi), lo)


def _a_image(p, lo, hi):
    """(1,2,...,p) inside [lo, hi]: the shift x -> x+1 on the embedded F_p."""
    arr, reps = _field_points(p, lo, hi)
    arr[1 - lo:p + 1 - lo] = reps % p + 1
    return Permutation(arr, lo)


def _g_image(ps, lo, hi):
    """alpha-multiplication times (p, p+1, p+2)^kappa.

    The multiplication fixes p, p+1 and p+2, so the product is the
    multiplication with the 3-cycle's power (p,p+1,p+2)^(kappa mod 3)
    written over those three points.
    """
    p = ps.p
    if hi < p + 2:
        raise PointOutOfDomain(p + 2, lo, hi)
    arr = _mul_points(ps.alpha, p, lo, hi)
    shift = ps.kappa % 3
    arr[p - lo:p + 3 - lo] = p + (np.arange(3) + shift) % 3
    return Permutation(arr, lo)


def _base_relators(a, b, z, ps, simplify):
    s = _lift_residue(ps.s, ps.p, simplify)
    return (
        a ** ps.p * b ** -ps.kappa,
        conj(a ** s, b) * a ** -(s - 1),
        (z * conj(z, a)) ** 2,
    )


def _base_h_word(a, b, z, ps, simplify, double_b):
    """(b^eps z(1) z(i))^((p+1)/2) with i = -1 (Alt) or r (Sym)."""
    p = ps.p
    zi = _z_word(z, a, -1 if ps.kind == "Alt" else ps.r, p, simplify)
    head = b ** 2 if double_b else b
    return (head * conj(z, a) * zi) ** ((p + 1) // 2)


def base_p2(p, kind, params=None, simplify=True):
    """The 2-generator 4-relator presentation of A_{p+2} or S_{p+2}."""
    ps = _intake(kind, "BaseP2", p + 2, params)
    a, g, z_, b_ = sym("a"), sym("g"), sym("z"), sym("b")
    defs = [
        ("b", g ** 3),
        ("z", g ** ps.kappa),
        ("h", _base_h_word(a, b_, z_, ps, simplify, double_b=(ps.kind == "Sym"))),
    ]
    relators = _base_relators(a, b_, z_, ps, simplify) + (sym("h"),)
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
    return _agl(p, variant, with_extra_relator, simplify)


def _agl(p, variant, with_extra_relator, simplify):
    """agl_examples for a prime p already checked to be of its class."""
    squares = variant == "AltAGL2"
    r, s, kappa = numth.unit_fields(p, squares)
    ps = ParamSet(kind="Sym" if variant == "SymAGL" else "Alt",
                  n=p + 2, p=p, r=r, s=s, alpha=None, kappa=kappa)
    a, b, z = sym("a"), sym("b"), sym("z")
    base = _base_relators(a, b, z, ps, simplify)
    relators = [*base[:2], z ** 3, base[2]]
    if variant == "AltAGL":
        relators.append(conj(z, b) * z)  # z^b = z^-1
    elif variant == "AltAGL2":
        relators.append(conj(z, b) * z ** -1)  # z^b = z
    else:
        relators.append(comm(z, b))
    if with_extra_relator:
        if variant == "AltAGL":
            relators.append((conj(b, a) * z) ** p)
        else:
            relators.append(_base_h_word(a, b, z, ps, simplify,
                                         double_b=(variant == "SymAGL")))
    slp = Slp(("a", "b", "z"), (), tuple(relators))
    lo, hi = 1, p + 2

    def images():
        b_first = _mul_image(r, p, lo, hi)
        if variant == "AltAGL":
            b_first = b_first * Permutation.from_cycles([(p + 1, p + 2)], lo, hi)
        first = {
            "a": _a_image(p, lo, hi),
            "b": b_first,
            "z": Permutation.from_cycles([(p, p + 1, p + 2)], lo, hi),
        }
        if with_extra_relator:
            return first
        second = {
            "a": _a_image(p, 1, p),
            "b": _mul_image(r, p, 1, p),
            "z": Permutation.identity(1, p),
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
    x, y, z = sym("x"), sym("y"), sym("z")
    relators = sl2.cr_relator_words(p) + (
        z ** 3,
        (z * conj(z, x)) ** 2,
        comm(y, z),
        comm(sym("h"), z),
        (sym("h") * conj(z, x * y) * conj(z, x * y ** ps.j)) ** ((p + 1) // 2),
    )
    h_word = sl2.h_word(ps.j, ps.jbar, (-1) ** ps.k_sl)
    slp = Slp(("x", "y", "z"), (("h", h_word),), relators)
    lo, hi = 1, p + 3
    return Presentation(slp, "Alt", p + 3, "alt_p3", ps, (lo, hi), lambda: {
        "x": _relabel_projective(sl2.projective_perm(sl2.gens_tu(p)[0], p), p, hi),
        "y": _a_image(p, lo, hi),
        "z": Permutation.from_cycles([(p + 1, p + 2, p + 3)], lo, hi),
    })


def _relabel_projective(perm, p, hi):
    """Move a permutation of [0, p] (p = infinite point) onto [1, hi] via the
    representative embedding: 0 -> p, x -> x, infinity -> p+1."""

    def rep(x):
        if x == 0:
            return p
        if x == p:
            return p + 1
        return x

    arr = np.arange(1, hi + 1, dtype=np.int64)
    for old in range(p + 1):
        arr[rep(old) - 1] = rep(perm(old))
    return Permutation(arr, 1)


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
    a, g, y, z, b, x = sym("a"), sym("g"), sym("y"), sym("z"), sym("b"), sym("x")

    def zw(i):
        return _z_word(z, a, i, p, simplify)

    def dw(i, j):
        return _d_word(z, a, i, j, p, simplify)

    def cw(i, j):
        return _c_word(z, a, x, i, j, p, simplify)

    defs = [
        ("b", g ** 3),
        ("z", g ** ps.kappa),
        ("h", _base_h_word(a, b, z, ps, simplify, double_b=True)),
        ("x", dw(0, 1)),
        ("atil", conj(zw(3), zw(2) * zw(1))),
    ]
    t = GroupWord()  # the transposition t, in Sym only
    if kind == "Sym":
        defs.extend(_transposition_defs(a, b, z, x, p, simplify))
        t = sym("t")
    # c starts at 2 for odd Sym and even Alt degrees, else at 1; e one later
    i = 2 if (kind == "Sym") != n_even else 1
    defs.append(("c", cw(i, k) * t))
    defs.append(("d", cw(5, p + 2)))
    defs.append(("e", z * a * t * ~cw(i + 1, k + 1)))

    w_def, tele_defs = _glued_w(kind, n_even, p, k, zw, dw, a, z, y, t)
    defs.extend(tele_defs)
    defs.append(("w", w_def))

    relators = _base_relators(a, b, z, ps, simplify) + (
        sym("atil") * conj(sym("atil") * sym("h"), y) ** -1,
        sym("c") * conj(sym("c"), y) ** -1,
        comm(sym("d"), conj(sym("e"), y)),
        y * sym("w") ** -1,
    )
    slp = Slp(("a", "g", "y"), tuple(defs), relators)
    lo, hi = k - p - 1, p + 2
    return Presentation(slp, kind, n, "glued", ps, (lo, hi), lambda: {
        "a": _a_image(p, lo, hi),
        "g": _g_image(ps, lo, hi),
        "y": glue_map_image(p, k, kind, lo, hi),
    })


def _transposition_defs(a, b, z, x, p, simplify):
    """The Sym definitions cbull, v and t, where t is the transposition
    (p+1, p+2) for p = 3 (mod 4); x names the even cycle d(0, 1)."""
    half_down = (p - 1) // 2
    cbull = (_c_word(z, a, x, 1, half_down, p, simplify)
             * ~_c_word(z, a, x, half_down + 1, p - 1, p, simplify))
    if simplify:
        # the seam of two reduced words merges into a^((p+1)/2), past p/2
        cbull = words.simplify(cbull, {"a": p})
    return [
        ("cbull", cbull),
        ("v", (sym("cbull") * _d_word(z, a, 1, -1, p, simplify)) ** half_down),
        ("t", sym("v") * b ** half_down),
    ]


def _glued_w(kind, n_even, p, k, zw, dw, a, z, y, t):
    """The w word for each (kind, parity, k) branch, plus the telescope
    definitions (ytil, ztil, xtil, u) when the branch uses them."""
    za = z * a
    if k == p:
        return conj(z, y * z ** -1) * conj(z, y * z), []
    if kind == "Sym" and k == p + 1:
        return conj(t, y * z), []
    if kind == "Sym" and k == p - 1:
        mover = a * y * a ** -1
        return (conj(z, mover * z ** -1) * conj(z, mover * z)
                * conj(dw(1, p) * t, y * a ** -1)), []
    # w = head (xtil u^-2)^(m/2) xtil u^m, with u left out when m = 0
    if not n_even:
        head, m = GroupWord(), p - k
    elif kind == "Sym":
        head, m = conj(t, za * y * za ** -1), p - k - 1
    else:
        head = (conj(dw(1, -1), za * y * a ** -1 * z ** -2 * a ** -1)
                * conj(zw(1), y * a ** -1 * z ** -1) ** -1)
        m = p - k - 3
        if m < 0:
            # k = p-1: the telescope exponent is -1, so the tail is freely
            # trivial and its xtil is not even well-formed: w is the head
            return head, []
    xtil, u = sym("xtil"), sym("u")
    tele = [d for d in _telescope_defs(k, dw, za, y) if m or d[0] != "u"]
    return head * (xtil * u ** -2) ** (m // 2) * xtil * u ** m, tele


def _telescope_defs(k, dw, za, y):
    return [
        ("ytil", dw(1, k + 2) * dw(2, k + 1)),
        ("ztil", conj(sym("ytil"), y)),
        ("xtil", conj(sym("ytil"), sym("ztil"))),
        ("u", za * conj(za, y)),
    ]


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
        "slp": pres.slp.to_json(),
        "images": images,
    }
