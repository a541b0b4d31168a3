"""Seeded items for the four workloads, in rounds.

An item is the argv of one `shortpres` CLI call.  A workload yields an
endless sequence of rounds, and a run stops only between rounds.  Each
round is a stratified sample of the workload's candidates: they are sorted
by a key that tracks an item's cost, cut into equal groups, and a round
takes one member of every group.  Successive rounds take members spread
evenly over each group.  This keeps a run's mix of cheap and costly items,
and so its medians and throughput, close to the population's for every
seed, without leaving any candidate out of the draw.  The keys are worked
out here, never by the code being measured, so the items depend on the
seed alone.
"""

from __future__ import annotations

import itertools
import math
import random

KINDS = ("Alt", "Sym")
GOLDEN = 0.6180339887498949
EMIT_HI = 2 ** 64  # the bound in numth.is_prime's docstring

SWEEP_HI = 4096
SWEEP_GROUPS = 65  # odd, so the median item sits inside a group
LARGE_LO, LARGE_HI = 10 ** 6, 2 * 10 ** 6
LARGE_KINDS = ("Alt", "Sym", "Sym", "Alt")
ORDER_HI = 28
EMIT_POOL = 4096
EMIT_GROUPS = 33  # odd, so the median item sits inside a group
BITS_MAX_DEGREE = 10 ** 6
BITS_SAMPLE = 12
# Emission cost model, fitted once and frozen: every point is imaged up to
# IMAGE_CAP, and one trial-division step costs STEP_PER_POINT of a point.
IMAGE_CAP = 10 ** 7
STEP_PER_POINT = 1 / 8
# Degrees predicted to cost more than this many points (about 0.5 s on a
# 2-CPU x86 VM, where a point costs about 1.2 us) are left out of the emit
# pool, so that every drawn item ends far below the per-item limit and an
# item's outcome, and so a run's failed count, is set by its degree alone.
EMIT_COST_CAP = 400_000
SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
# The degrees from 13 up that neither kind covers, written out so that the
# draw depends on the seed alone, not on the code it measures.
UNCOVERED = (21, 22, 23, 24, 45, 46, 47, 48)


def covered(lo, hi):
    """The degrees in [lo, hi] that both kinds cover."""
    return [n for n in range(lo, hi + 1) if n not in UNCOVERED]


def groups(pool, count):
    """pool cut into `count` consecutive groups of (nearly) equal size."""
    cuts = [len(pool) * i // count for i in range(count + 1)]
    return [pool[cuts[i]:cuts[i + 1]] for i in range(count)]


def spread_rounds(parts, rng):
    """Endless rounds with one member of each part.  Round r takes the member
    at fraction frac(shift + r * golden ratio) of the part, with a random
    shift per part, so that successive rounds spread evenly over each part."""
    shifts = [rng.random() for _ in parts]
    for r in itertools.count():
        yield [part[int((shift + r * GOLDEN) % 1.0 * len(part))]
               for part, shift in zip(parts, shifts)]


def _verify_argv(n, kind, *extra):
    return ("verify", "-n", str(n), "--kind", kind.lower(), *extra)


def sweep(rng):
    pool = sorted((n, kind) for kind in KINDS for n in covered(13, SWEEP_HI))
    for picked in spread_rounds(groups(pool, SWEEP_GROUPS), rng):
        yield [_verify_argv(n, kind) for n, kind in picked]


def large(rng):
    """Rounds of one degree from each quarter of the range; each kind takes
    one outer and one inner quarter, so both kinds see the same mean degree."""
    cuts = [LARGE_LO + (LARGE_HI - LARGE_LO) * i // 4 for i in range(5)]
    quarters = [range(cuts[i], cuts[i + 1]) for i in range(4)]
    for picked in spread_rounds(quarters, rng):
        yield [_verify_argv(n, kind) for n, kind in zip(picked, LARGE_KINDS)]


def order(rng):
    """Rounds of every covered degree with both kinds, in a seeded order.
    The set is small enough to run whole, which keeps every round's cost
    the same."""
    pool = [(n, kind) for n in covered(13, ORDER_HI) for kind in KINDS]
    while True:
        rng.shuffle(pool)
        yield [_verify_argv(n, kind, "--depth", "order") for n, kind in pool]


def emit_degree(rng, u):
    """The degree at log10-position u: its decade, then randrange inside it.

    Below 100 the draw is from the covered degrees, so that the uncovered
    ones do not count as failures.
    """
    decade = int(u)
    if decade < 2:
        return rng.choice(covered(13, 99))
    return rng.randrange(10 ** decade, min(10 ** (decade + 1), EMIT_HI))


def emit(rng):
    """A pool of degrees drawn over [13, 2^64), less those predicted to cost
    more than EMIT_COST_CAP, cut into groups by predicted cost; rounds spread
    over each group.

    Bands of degree alone would put items of a few milliseconds and of
    half a second into one band, so a run's cost would vary with the seed;
    one item from each cost group keeps every round's mix the same.
    """
    lo, hi = math.log10(13), math.log10(EMIT_HI)
    pool = []
    for i in range(EMIT_POOL):
        kind = rng.choice(KINDS)
        u = lo + (hi - lo) * (i + rng.random()) / EMIT_POOL
        n = emit_degree(rng, u)
        cost = emit_cost_key(n)
        if cost <= EMIT_COST_CAP:
            pool.append((cost, n, kind))
    parts = [sorted(part, key=lambda t: t[1:])
             for part in groups(sorted(pool), EMIT_GROUPS)]
    for picked in spread_rounds(parts, rng):
        yield [("emit", "-n", str(n), "--kind", kind.lower()) for _, n, kind in picked]


def emit_cost_key(n):
    """Points imaged plus weighted trial-division steps for degree n.

    Emission factors p-1 for the glue prime p by trial division, whose step
    count is the larger of the second-largest prime factor and the square
    root of the largest.  Above 2^53 the program may start its prime search
    from (n+2)/2 rounded in floating point and factor that prime's p-1
    instead, so the costlier of the two primes counts.
    """
    points = n if n <= IMAGE_CAP else 0
    if n < 51:  # the base cases, with no glue prime
        return points
    primes = {glue_prime(n), glue_prime(n, rounded=True)}
    return points + STEP_PER_POINT * max(trial_division_steps(p - 1) for p in primes)


def glue_prime(n, rounded=False):
    """Smallest prime p = 11 (mod 12) with 2p >= n+2, in exact integers; with
    `rounded`, the search starts from ceil((n+2)/2) taken in floating point."""
    p = math.ceil((n + 2) / 2) if rounded else (n + 3) // 2
    p += (11 - p) % 12
    while not is_prime(p):
        p += 12
    return p


def is_prime(m):
    """Miller-Rabin with the first twelve prime bases: exact below 3.3e24."""
    if m < 2:
        return False
    for q in SMALL_PRIMES:
        if m % q == 0:
            return m == q
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in SMALL_PRIMES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def trial_division_steps(m):
    factors = sorted(prime_factors(m))
    if not factors:
        return 1
    top = factors.pop()
    second = factors[-1] if factors else 1
    return max(second, math.isqrt(top)) // 2 + 1


def prime_factors(m):
    """Prime factors of m with multiplicity (Pollard rho, Brent's cycle)."""
    out = []
    stack = [m]
    while stack:
        x = stack.pop()
        if x == 1:
            continue
        if is_prime(x):
            out.append(x)
            continue
        d = next((q for q in SMALL_PRIMES if x % q == 0), None) or _rho(x)
        stack += [d, x // d]
    return out


def _rho(x):
    for c in range(1, 64):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            z = y
            for _ in range(r):
                y = (y * y + c) % x
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(64, r - k)):
                    y = (y * y + c) % x
                    q = q * abs(z - y) % x
                g = math.gcd(q, x)
                k += 64
            r *= 2
        if g == x:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % x
                g = math.gcd(abs(z - ys), x)
        if g != x:
            return g
    raise ArithmeticError(f"no factor of {x} found")


def sized(workload, seed, first_round):
    """The items whose presentations slp_bits averages, fixed by the seed.

    On verify workloads, the first round.  On emit, BITS_SAMPLE degrees, one
    from each of equal log-bands of [100, BITS_MAX_DEGREE), kinds taking
    turns.  There an item's outcome cannot vary: the float-bound defect
    needs n > 2^53, and with no time limit emission takes seconds at most.
    """
    if workload != "emit":
        return first_round
    rng = random.Random(f"bits:{seed}")
    lo, hi = 2, math.log10(BITS_MAX_DEGREE)
    return [("emit", "-n", str(int(10 ** (lo + (hi - lo) * (j + rng.random()) / BITS_SAMPLE))),
             "--kind", KINDS[j % 2].lower()) for j in range(BITS_SAMPLE)]


WORKLOADS = {"sweep": sweep, "large": large, "order": order, "emit": emit}
ROUND_SIZE = {"emit": EMIT_GROUPS}


def rounds(workload, seed):
    """The workload's endless sequence of rounds for this seed."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
