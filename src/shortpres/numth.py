"""Parameter derivation: primes, unit-group generators, and the arithmetic
data each presentation family needs.

A ParamSet is a flat bag of small integers; which fields are present depends
on the family (degree p+2 base case, degree p+3 case, or the glued range).
Every derived field is re-checked by validate_params, which also accepts
hand-picked alternatives (e.g. a different generator r) as long as they
satisfy the defining congruences.

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


def group_unit_generator(p, squares_only=False):
    """Smallest positive generator of F_p^* (or of its subgroup of squares).

    With squares_only, the returned r is a quadratic residue whose
    multiplicative order is (p-1)/2, i.e. it generates the squares.
    """
    if not is_prime(p):
        raise BadPrimeClass(f"{p} is not prime")
    if p == 2:
        return 1
    target = (p - 1) // 2 if squares_only else p - 1
    qs = _prime_factors(target)
    for r in range(2, p):
        if squares_only and pow(r, (p - 1) // 2, p) != 1:
            continue
        if all(pow(r, target // q, p) != 1 for q in qs):
            return r
    raise InternalInvariantViolation(f"no generator found modulo {p}")


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

    @classmethod
    def from_json(cls, data):
        return cls(**data)


def _base_fields(kind, p, r=None):
    """r, s, alpha, kappa for the degree-(p+2) base case of the given kind."""
    if kind == "Alt":
        if p % 12 != 11 or not is_prime(p):
            raise BadPrimeClass(f"Alt base case needs a prime p = 11 (mod 12), got {p}")
        kappa = (p - 1) // 2
        if r is None:
            r = group_unit_generator(p, squares_only=True)
    else:
        if p <= 3 or p % 3 != 2 or not is_prime(p):
            raise BadPrimeClass(f"Sym base case needs a prime p > 3, p = 2 (mod 3), got {p}")
        kappa = p - 1
        if r is None:
            r = group_unit_generator(p, squares_only=False)
    s = (-pow(r - 1, -1, p)) % p  # s(r-1) = -1 (mod p), stored in [1, p-1]
    e = pow(3, -1, kappa)  # gcd(3, kappa) = 1 in both prime classes
    alpha = pow(r, e, p)
    if pow(alpha, 3, p) != r:
        raise InternalInvariantViolation(f"cube root of {r} failed modulo {p}")
    return r, s, alpha, kappa


def derive_params(kind, case, n=None, p=None):
    """Build the canonical ParamSet for a construction case.

    case is one of "BaseP2" (needs p or n = p+2), "P3" (needs p or n = p+3,
    Alt only), "Glued" (needs n; picks p via find_glue_prime).
    """
    kind = _norm_kind(kind)
    if case == "BaseP2":
        if p is None:
            p = n - 2
        r, s, alpha, kappa = _base_fields(kind, p)
        return ParamSet(kind=kind, n=p + 2, p=p, r=r, s=s, alpha=alpha, kappa=kappa)
    if case == "P3":
        if kind != "Alt":
            raise UnsupportedDegree(n if n is not None else (p or 0) + 3,
                                    "the degree p+3 construction is Alt only")
        if p is None:
            p = n - 3
        if p <= 3 or p % 3 == 0 or not is_prime(p):
            raise BadPrimeClass(f"degree p+3 case needs a prime p > 3 with 3 not dividing p, got {p}")
        k_sl = p % 3
        j = group_unit_generator(p)
        jbar = pow(j, -1, p)
        if (j * k_sl) % 2 == 1:
            j -= p  # keep j*k_sl even so the diagonal form of v holds
        return ParamSet(kind=kind, n=p + 3, p=p, j=j, jbar=jbar, k_sl=k_sl)
    if case == "Glued":
        p = find_glue_prime(n, kind)
        k = 2 * p + 4 - n
        r, s, alpha, kappa = _base_fields(kind, p)
        return ParamSet(kind=kind, n=n, p=p, k=k, r=r, s=s, alpha=alpha, kappa=kappa)
    raise InternalInvariantViolation(f"unknown case {case!r}")


def validate_params(ps):
    """Check a (possibly hand-edited) ParamSet for internal consistency.

    Accepts non-canonical choices (any valid generator r and any cube root
    alpha), raising InternalInvariantViolation or BadPrimeClass on genuine
    violations.  Returns the ParamSet unchanged on success.
    """
    kind = _norm_kind(ps.kind)
    p = ps.p
    if not is_prime(p):
        raise BadPrimeClass(f"{p} is not prime")
    if ps.j is not None:  # degree p+3 case
        if kind != "Alt":
            raise InternalInvariantViolation("degree p+3 parameters are Alt only")
        if ps.n != p + 3:
            raise InternalInvariantViolation(f"n = {ps.n} is not p+3 = {p + 3}")
        if ps.k_sl != p % 3 or ps.k_sl not in (1, 2):
            raise InternalInvariantViolation(f"k_sl = {ps.k_sl} is not p mod 3")
        if (ps.j * ps.k_sl) % 2 == 1:
            raise InternalInvariantViolation(f"j*k_sl = {ps.j * ps.k_sl} must be even")
        if not 1 <= ps.jbar <= p - 1 or (ps.j * ps.jbar) % p != 1:
            raise InternalInvariantViolation(f"jbar = {ps.jbar} is not the inverse of j in [1, p-1]")
        jpos = ps.j % p
        qs = _prime_factors(p - 1)
        if any(pow(jpos, (p - 1) // q, p) == 1 for q in qs):
            raise InternalInvariantViolation(f"j = {ps.j} does not generate the units modulo {p}")
        return ps
    # base or glued case
    if kind == "Alt":
        if p % 12 != 11:
            raise BadPrimeClass(f"Alt case needs p = 11 (mod 12), got {p}")
        if ps.kappa != (p - 1) // 2:
            raise InternalInvariantViolation(f"kappa = {ps.kappa} is not (p-1)/2")
        if pow(ps.r, (p - 1) // 2, p) != 1:
            raise InternalInvariantViolation(f"r = {ps.r} is not a square modulo {p}")
    else:
        if p <= 3 or p % 3 != 2:
            raise BadPrimeClass(f"Sym case needs p > 3 with p = 2 (mod 3), got {p}")
        if ps.kappa != p - 1:
            raise InternalInvariantViolation(f"kappa = {ps.kappa} is not p-1")
    qs = _prime_factors(ps.kappa)
    if not 1 <= ps.r <= p - 1 or any(pow(ps.r, ps.kappa // q, p) == 1 for q in qs):
        raise InternalInvariantViolation(
            f"r = {ps.r} does not have order {ps.kappa} modulo {p}")
    if not 1 <= ps.s <= p - 1 or (ps.s * (ps.r - 1)) % p != p - 1:
        raise InternalInvariantViolation(f"s = {ps.s} does not satisfy s(r-1) = -1 (mod {p})")
    if not 1 <= ps.alpha <= p - 1 or pow(ps.alpha, 3, p) != ps.r:
        raise InternalInvariantViolation(f"alpha = {ps.alpha} is not a cube root of r modulo {p}")
    if ps.k is not None:  # glued case
        if ps.n != 2 * p + 4 - ps.k:
            raise InternalInvariantViolation(f"k = {ps.k} is not 2p+4-n")
        k_hi = p + 1 if kind == "Sym" else p
        if not 6 <= ps.k <= k_hi:
            raise InternalInvariantViolation(f"k = {ps.k} outside [6, {k_hi}]")
    elif ps.n != p + 2:
        raise InternalInvariantViolation(f"n = {ps.n} is not p+2 = {p + 2}")
    return ps
