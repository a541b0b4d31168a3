"""Parameter derivation: primes, unit-group generators, and the arithmetic
data each presentation family needs.

A ParamSet is a flat bag of small integers; which fields are present depends
on the family (degree p+2 base case, degree p+3 case, or the glued range).
Its free choices are the prime p, the generator r and the generator j; every
other field follows from them.  derive_params and validate_params share one
rule set: validate_params checks the free choices of a hand-picked ParamSet
and re-derives the rest.

All arithmetic is proven, never probabilistic.  is_prime is a deterministic
Miller-Rabin test, exact below PSI_12 and refusing (DegreeTooLarge) at or
above it, so glued degrees reach about 2 * PSI_12 = 6.4e23.  The unit
generators need the distinct primes of p-1: small ones come off by trial
division, and what remains is split by Brent's variant of Pollard rho, each
factor kept only once is_prime proves it prime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .errors import (
    BadPrimeClass,
    DegreeTooLarge,
    InternalInvariantViolation,
    UnsupportedDegree,
)

# The first twelve primes.  As Miller-Rabin witnesses they decide primality
# exactly for every m < PSI_12 (Sorenson & Webster 2015), the least strong
# pseudoprime to all of them; no such bound is proven above it.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
PSI_12 = 318665857834031151167461
# Trial division strips the primes below this bound, so a p-1 below its
# square (every p of a degree up to about 2 * 10^6) factors by division alone.
_TRIAL_BOUND = 1000
# Rho steps between two gcds.
_RHO_BLOCK = 128


def is_prime(m):
    """Deterministic primality test for m < PSI_12; DegreeTooLarge above."""
    m = int(m)
    if m >= PSI_12:
        raise DegreeTooLarge(
            f"primality of {m} is not proven: the test is exact only below {PSI_12}")
    if m < 2:
        return False
    for q in _MR_WITNESSES:
        if m % q == 0:
            return m == q
    d, r = m - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(r - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def _prime_factors(m):
    """The distinct prime factors of m >= 1, ascending.

    Trial division takes the primes below _TRIAL_BOUND and stops as soon as
    d*d > m, when what is left is 1 or prime.  Otherwise the cofactor has no
    prime factor below the bound and is split by rho until every part is
    proven prime.
    """
    out = []
    d = 2
    while d * d <= m and d < _TRIAL_BOUND:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if d * d > m:
        return out + [m] if m > 1 else out
    big = set()
    parts = [m]
    while parts:
        x = parts.pop()
        if is_prime(x):
            big.add(x)
        else:
            f = _rho(x)
            parts += [f, x // f]
    return out + sorted(big)


def _rho(m):
    """A proper factor of the odd composite m (Brent 1980): the walk
    x -> x^2 + c from 2, one gcd per _RHO_BLOCK steps, and the next c when
    the walk only finds m itself."""
    for c in range(1, 100):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BLOCK, r - k)):
                    y = (y * y + c) % m
                    q = q * abs(x - y) % m
                g = math.gcd(q, m)
                k += _RHO_BLOCK
            r *= 2
        if g == m:  # the block overshot: retrace it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g
    raise InternalInvariantViolation(f"rho found no factor of {m}")


def _has_order(x, m, p, qs):
    """Whether x has multiplicative order exactly m modulo the prime p, for m
    dividing p-1 with distinct prime factors qs.  x^(p-1) = 1 holds for every
    unit, so the full order p-1 costs no power beyond those by qs."""
    return (0 < x < p and (m == p - 1 or pow(x, m, p) == 1)
            and all(pow(x, m // q, p) != 1 for q in qs))


def group_unit_generator(p, squares_only=False):
    """Smallest positive generator of F_p^* (or of its subgroup of squares).

    With squares_only, the returned r is a quadratic residue whose
    multiplicative order is (p-1)/2, i.e. it generates the squares.
    """
    if not is_prime(p):
        raise BadPrimeClass(f"{p} is not prime")
    return _unit_generator(p, squares_only)


def _unit_generator(p, squares_only):
    """group_unit_generator for a p already proven prime."""
    if p == 2:
        return 1
    target = (p - 1) // 2 if squares_only else p - 1
    qs = _prime_factors(target)
    for r in range(2, p):
        if _has_order(r, target, p, qs):
            return r
    raise InternalInvariantViolation(f"no generator found modulo {p}")


def unit_fields(p, squares_only, r=None):
    """(r, s, kappa) modulo the prime p: r generates F_p^* (or, with
    squares_only, its squares) and has order kappa, and s(r-1) = -1 (mod p)
    with s in [1, p-1].  r defaults to the smallest such generator; a given r
    is checked.  p is not proven prime again: the caller has checked its
    class."""
    kappa = (p - 1) // 2 if squares_only else p - 1
    if r is None:
        r = _unit_generator(p, squares_only)
    elif not _has_order(r, kappa, p, _prime_factors(kappa)):
        raise InternalInvariantViolation(f"r = {r} does not have order {kappa} modulo {p}")
    return r, (-pow(r - 1, -1, p)) % p, kappa


def find_glue_prime(n, kind):
    """Smallest prime p = 11 (mod 12) with (n+2)/2 <= p <= n-3 (Sym) or
    n-4 (Alt).  The window is exactly what makes k := 2p+4-n land in
    [6, p+1] (Sym) or [6, p] (Alt)."""
    kind = _norm_kind(kind)
    hi = n - 3 if kind == "Sym" else n - 4
    lo = (n + 3) // 2  # ceil((n+2)/2) in exact integers
    p = lo + ((11 - lo) % 12)
    while p <= hi:
        try:
            if is_prime(p):
                return p
        except DegreeTooLarge as exc:
            raise DegreeTooLarge(f"degree {n} is too large: {exc}") from None
        p += 12
    raise UnsupportedDegree(n, f"no usable prime in [{lo}, {hi}] for kind {kind}")


def _norm_kind(kind):
    k = str(kind).capitalize()
    if k not in ("Alt", "Sym"):
        raise InternalInvariantViolation(f"unknown kind {kind!r}")
    return k


@dataclass
class ParamSet:
    """Arithmetic parameters for one presentation; absent fields are None."""

    kind: str
    n: int
    p: int
    k: int = None
    r: int = None
    s: int = None
    alpha: int = None
    kappa: int = None
    j: int = None
    jbar: int = None
    k_sl: int = None

    def to_json(self):
        return {f.name: getattr(self, f.name) for f in fields(self)
                if getattr(self, f.name) is not None}


def case_of(ps):
    """The construction case a ParamSet describes, read from its fields."""
    return "P3" if ps.j is not None else "BaseP2" if ps.k is None else "Glued"


def require_prime_class(kind, case, p):
    """BadPrimeClass unless p is a prime of the class the case needs: p > 3
    with 3 not dividing p for the degree p+3 case, otherwise p = 11 (mod 12)
    for Alt and p > 3 with p = 2 (mod 3) for Sym."""
    if case == "P3":
        ok, need = p > 3 and p % 3, "degree p+3 case needs a prime p > 3 with 3 not dividing p"
    elif kind == "Alt":
        ok, need = p % 12 == 11, "Alt case needs a prime p = 11 (mod 12)"
    else:
        ok, need = p > 3 and p % 3 == 2, "Sym case needs a prime p > 3 with p = 2 (mod 3)"
    if not ok or not is_prime(p):
        raise BadPrimeClass(f"{need}, got {p}")


def require_affine_prime(p, three_mod_four, who):
    """BadPrimeClass unless p is a prime p > 3 of the affine-line builders;
    with three_mod_four also p = 3 (mod 4), where -1 is not a square and
    negation an odd permutation of F_p^* (AltAGL2, the transposition word)."""
    if p <= 3 or (three_mod_four and p % 4 != 3) or not is_prime(p):
        need = "p = 3 (mod 4)" if three_mod_four and p > 3 else "p > 3"
        raise BadPrimeClass(f"{who} targets primes {need}, got {p}")


def _fields(kind, case, n, p, r=None, j=None):
    """The ParamSet of a case at the prime p from its free choices r and j,
    each the smallest generator when None; n is read in the glued case only.
    p is already proven prime of its class, by find_glue_prime or
    require_prime_class, and is not proven again.

    Every other field follows: s and kappa from r, the cube root alpha = r^e
    with 3e = 1 (mod kappa), unique since gcd(3, kappa) = 1 in both prime
    classes, k = 2p+4-n, jbar = 1/j and k_sl = p mod 3."""
    if case == "P3":
        k_sl = p % 3
        if j is None:
            j = _unit_generator(p, False)
            if (j * k_sl) % 2 == 1:
                j -= p  # keep j*k_sl even so the diagonal form of v holds
        elif (j * k_sl) % 2 == 1 or not _has_order(j % p, p - 1, p, _prime_factors(p - 1)):
            raise InternalInvariantViolation(
                f"j = {j} is not a generator modulo {p} with j*k_sl even")
        return ParamSet(kind="Alt", n=p + 3, p=p, j=j, jbar=pow(j, -1, p), k_sl=k_sl)
    r, s, kappa = unit_fields(p, kind == "Alt", r)
    alpha = pow(r, pow(3, -1, kappa), p)
    if case == "BaseP2":
        return ParamSet(kind=kind, n=p + 2, p=p, r=r, s=s, alpha=alpha, kappa=kappa)
    k, k_hi = 2 * p + 4 - n, p + 1 if kind == "Sym" else p
    if not 6 <= k <= k_hi:
        raise InternalInvariantViolation(f"k = {k} outside [6, {k_hi}]")
    return ParamSet(kind=kind, n=n, p=p, k=k, r=r, s=s, alpha=alpha, kappa=kappa)


def derive_params(kind, case, n=None, p=None):
    """Build the canonical ParamSet for a construction case.

    case is one of "BaseP2" (needs p or n = p+2), "P3" (needs p or n = p+3,
    Alt only), "Glued" (needs n; picks p via find_glue_prime).
    """
    kind = _norm_kind(kind)
    if case == "Glued":
        return _fields(kind, case, n, find_glue_prime(n, kind))
    if case not in ("BaseP2", "P3"):
        raise InternalInvariantViolation(f"unknown case {case!r}")
    if case == "P3" and kind != "Alt":
        raise UnsupportedDegree(n if n is not None else (p or 0) + 3,
                                "the degree p+3 construction is Alt only")
    if p is None:
        p = n - (2 if case == "BaseP2" else 3)
    require_prime_class(kind, case, p)
    return _fields(kind, case, None, p)


def validate_params(ps):
    """Check a (possibly hand-edited) ParamSet for internal consistency.

    The free choices are the prime p, the generator r and the generator j;
    any r of the right order and any j with j*k_sl even are accepted.  Every
    other field is derived from them as derive_params derives it, alpha
    included (it is determined by r), and must be equal, the kind spelt
    "Alt" or "Sym".  Raises BadPrimeClass for a p outside its class and
    InternalInvariantViolation for any other violation; returns the
    ParamSet unchanged on success.
    """
    kind, case = _norm_kind(ps.kind), case_of(ps)
    require_prime_class(kind, case, ps.p)
    want = _fields(kind, case, ps.n, ps.p, ps.r, ps.j)
    for f in fields(ps):
        got, derived = getattr(ps, f.name), getattr(want, f.name)
        if got != derived:
            raise InternalInvariantViolation(f"{f.name} = {got} is not the derived {derived}")
    return ps
