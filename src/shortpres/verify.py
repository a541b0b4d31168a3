"""Machine verification of presentations.

check_relators evaluates every relator of a presentation under its concrete
generator images and reports cycle types.  certify_order returns the exact
group order as n!/index, n the number of points and index the number the
proof decides, so n! is formed only when int() asks for it.  It is proved
in one of two ways.  The Jordan certificate, O(n) in numpy at any degree,
reads each generator's cycle minima (Permutation.cycle_minima), from which
perm.transitive shows that the group is transitive, and finds a prime
cycle that makes it primitive and, by Jordan's theorems, makes it contain
A_n; the parities of the generators then decide between n!/2 and n!.
Where no such witness is found, a deterministic Schreier-Sims construction
(no randomization, at most 64 points) certifies the order by one of two
facts: every Schreier generator of the resulting chain has been sifted to
the identity, which by Schreier's lemma pins the order exactly; or the
product of the orbit lengths, a lower bound on the order, has reached the
parity bound n! (or n!/2 when every generator is even), an upper bound on
it.

Falsification re-evaluates the uncorrected variants of the constructions
(wrong special-linear generator signs, wrong conjugating order in the
degree-(p+3) relator, wrong bracketing of the transposition word) at one
prime and records concrete non-identity witnesses.  The corrected side of
each target is built from the words and images the builders emit.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass, field
from functools import cached_property

from . import builders, numth, sl2
from .errors import (
    BadPrimeClass,
    DegreeTooLarge,
    DomainMismatch,
    EnumerationTooLarge,
    InternalInvariantViolation,
)
from .perm import Permutation, cycle_lengths, transitive
from .words import (
    ProductPair,
    Slp,
    conj,
    evaluate,
    evaluate_slp,
    relator_values,
    sym,
)

_MAX_POINTS = 64
# orders whose natural log reaches this are written as n! or n!/2: their
# decimal would pass the interpreter's default int-to-str limit (from degree
# 1559 on); 4300 is that default, for interpreters older than 3.10.7 that
# have no limit
_LOG_DECIMAL_LIMIT = getattr(sys.int_info, "default_max_str_digits", 4300) * math.log(10)


@dataclass
class VerificationReport:
    degree: int
    kind: str
    case: str
    relators: list
    order_certified: bool = False
    order: CertifiedOrder = None
    millis: int = 0
    details: dict = field(default_factory=dict)

    @property
    def all_relators_identity(self):
        return all(entry["identity"] for entry in self.relators)

    @property
    def ok(self):
        good = self.all_relators_identity
        if self.order_certified:
            good = good and self.details.get("order_matches", True)
        return good

    def to_json(self):
        out = {
            "degree": self.degree,
            "kind": self.kind,
            "case": self.case,
            "relators": self.relators,
            "order_certified": self.order_certified,
            "order": printable_order(self.order),
            "millis": self.millis,
        }
        if self.details:
            out["details"] = dict(self.details)
            if "expected_order" in self.details:
                out["details"]["expected_order"] = printable_order(
                    self.details["expected_order"])
        return out


@dataclass(frozen=True)
class CertifiedOrder:
    """The order n!/index of a group on n = `degree` points, compared by
    (degree, index); int() makes the integer.  `certificate` names how the
    order was proved (None for an expected order)."""

    degree: int
    index: int
    certificate: dict = field(default=None, compare=False)

    def __int__(self):
        return math.factorial(self.degree) // self.index


def printable_order(order):
    """The order as an int while its decimal is short enough to print, else
    n! or n!/2, the only orders that long (None stays None).  The length
    comes from lgamma(n+1) = ln n!, whose error is far below the 1.4 nats by
    which the orders nearest the limit miss it."""
    if order is None:
        return None
    n, index = order.degree, order.index
    if math.lgamma(n + 1) - math.log(index) < _LOG_DECIMAL_LIMIT:
        return int(order)
    return f"{n}!" if index == 1 else f"{n}!/{index}"


def _cycle_type_json(value):
    """[] for the identity, else its cycle type (the identity is asked for
    first, far cheaper than the cycles); a pair of these for a ProductPair."""
    if isinstance(value, ProductPair):
        return [_cycle_type_json(value.left), _cycle_type_json(value.right)]
    return [] if value.is_identity() else list(value.cycle_type())


def check_relators(pres):
    """Evaluate all relators of a presentation; images must be materialized."""
    if pres.images is None:
        raise DegreeTooLarge(
            f"degree {pres.degree} has no materialized images "
            f"(limit {builders.MATERIALIZE_MAX_DEGREE})")
    t0 = time.perf_counter()
    entries = []
    for i, val in relator_values(pres.slp, pres.images):
        cycle_type = _cycle_type_json(val)
        entries.append({
            "index": i,
            "identity": not any(cycle_type),
            "cycle_type": cycle_type,
        })
        del val  # free it before the next relator is evaluated
    millis = int((time.perf_counter() - t0) * 1000)
    return VerificationReport(pres.degree, pres.kind, pres.case, entries,
                              millis=millis)


# ---------------------------------------------------------------------------
# deterministic Schreier-Sims order certification
#
# The chain works on tuples of 0-based images: at 64 points and below every
# numpy call would be pure overhead.  A product applies its left factor
# first, as Permutation.__mul__ does: (a*b)[x] = b[a[x]].


@dataclass
class _Level:
    base: int
    gens: list
    transversal: dict  # orbit point -> (u, u^-1) with base^u = point
    paired: dict  # orbit point -> how many gens its Schreier generators used


def _mul(a, b):
    return tuple(map(b.__getitem__, a))


def _inverse(a):
    inv = [0] * len(a)
    for x, y in enumerate(a):
        inv[y] = x
    return tuple(inv)


def _first_moved(g):
    for x, y in enumerate(g):
        if x != y:
            return x
    raise InternalInvariantViolation("identity has no moved point")


def _extend_orbit(lv):
    """Grow the orbit/transversal of a level in place after a generator was
    appended; existing transversal entries are never replaced, keeping
    earlier sift paths and their cached inverses valid."""
    frontier = list(lv.transversal)
    gens = lv.gens[-1:]  # the orbit is closed under the earlier generators
    while frontier:
        new = []
        for x in frontier:
            ux = lv.transversal[x][0]
            for s in gens:
                y = s[x]
                if y not in lv.transversal:
                    uy = _mul(ux, s)
                    lv.transversal[y] = (uy, _inverse(uy))
                    new.append(y)
        frontier = new
        gens = lv.gens


def _chain_order(gens, bound):
    """Order of the group generated by nonidentity 0-based tuples, or
    `bound` as soon as the orbit lengths multiply up to it."""
    ident = tuple(range(len(gens[0])))
    levels = []
    seen = set()
    stack = list(reversed(gens))
    while stack:
        g = stack.pop()
        if g in seen or g == ident:
            continue
        seen.add(g)
        h = g
        place = None
        for i, lv in enumerate(levels):
            x = h[lv.base]
            if x == lv.base:  # the transversal entry is the identity
                continue
            if x not in lv.transversal:
                place = i
                break
            h = _mul(h, lv.transversal[x][1])
        else:
            if h == ident:
                continue
            place = len(levels)
            moved = _first_moved(h)
            levels.append(_Level(moved, [], {moved: (ident, ident)}, {}))
        # h stabilizes the base points of every level before `place`, so it
        # is a strong generator at each of these levels as well
        for j in range(place + 1):
            lv = levels[j]
            lv.gens.append(h)
            _extend_orbit(lv)
        # level i's generators fix the base points of levels 0..i-1, so its
        # orbit lies in an orbit of that point stabilizer and the product
        # of orbit lengths never exceeds the group order
        if math.prod(len(lv.transversal) for lv in levels) == bound:
            return bound
        for j in range(place + 1):
            lv = levels[j]
            for x in sorted(lv.transversal):
                ux = lv.transversal[x][0]
                for s in lv.gens[lv.paired.get(x, 0):]:
                    inv = lv.transversal[s[x]][1]
                    sg = tuple(map(inv.__getitem__, map(s.__getitem__, ux)))
                    if sg != ident and sg not in seen:
                        stack.append(sg)
                lv.paired[x] = len(lv.gens)
    return math.prod(len(lv.transversal) for lv in levels)


# ---------------------------------------------------------------------------
# Jordan certificate
#
# Let G act transitively on n points and hold a q-cycle w, q prime, 2q > n.
# Then G is primitive: in a block system with blocks of b points, 1 < b < n,
# w either moves q blocks, and so q*b >= 2q > n points, or fixes every block
# and keeps its q points inside one block of b <= n/2 points.  A primitive
# group holding a q-cycle with q <= n - 3 (Wielandt, Finite Permutation
# Groups, Thm 13.9), or holding a 3-cycle (Thm 13.3), contains A_n.


def _three_cycle(gens, lengths):
    """Whether some generator x has one cycle of length divisible by 3, of
    length 3, so that x^m, m the lcm of its other cycle lengths, is a
    3-cycle; the power is computed and its cycles checked."""
    for g, lens in zip(gens, lengths):
        if lens[lens % 3 == 0].tolist() != [3]:
            continue
        power = g ** math.lcm(*lens[lens % 3 != 0].tolist())
        if power.cycle_type() == (3,):
            return True
    return False


def _jordan(n, gens, minima, lengths):
    """The certificate that <gens> contains A_n, or None: a generator that is
    one q-cycle, q prime and 2q > n, in a transitive group, with q <= n - 3
    or beside a 3-cycle."""
    primes = [int(lens[0]) for lens in lengths
              if lens.size == 1 and 2 * lens[0] > n
              and numth.is_prime(int(lens[0]))]
    if not primes or not transitive(gens, minima):
        return None
    small = [q for q in primes if q <= n - 3]
    if small:
        return {"method": "jordan", "q": small[0], "three_cycle": False}
    if _three_cycle(gens, lengths):
        return {"method": "jordan", "q": primes[0], "three_cycle": True}
    return None


def certify_order(gens):
    """Exact order of the group generated by permutations.  Deterministic.
    The result is a CertifiedOrder n!/index whose `certificate` says which
    proof below holds.

    The Jordan certificate applies at any degree: the group is transitive,
    a generator is one q-cycle with q prime and 2q > n, and either
    q <= n - 3 or some computed power of a generator is a 3-cycle.  The
    group then contains A_n, and its index in S_n is 1 if a generator is
    odd, 2 if not.

    Without such a witness the domain is limited to 64 points, and a
    stabilizer chain certifies the order in one of two ways.  Either every
    Schreier generator has been sifted to the identity, which by Schreier's
    lemma pins the order to the product of the orbit lengths; or that
    product has reached the parity bound: n! in general, n!/2 when every
    generator is even.  The product never exceeds the group order and the
    group order never exceeds the bound, so equality proves both.
    """
    for g in gens:
        if not isinstance(g, Permutation):
            raise DomainMismatch(
                f"order certification needs permutations, got "
                f"{type(g).__name__}")
    gens = [g for g in gens if not g.is_identity()]
    if not gens:
        return CertifiedOrder(1, 1, {"method": "trivial"})  # 1!/1 = 1
    lo, hi = gens[0].lo, gens[0].hi
    for g in gens:
        if (g.lo, g.hi) != (lo, hi):
            raise DomainMismatch("generators act on different point ranges")
    n = hi - lo + 1
    minima = [g.cycle_minima() for g in gens]
    lengths = [cycle_lengths(least) for least in minima]
    index = 1 if any((lens.sum() - lens.size) % 2 for lens in lengths) else 2
    certificate = _jordan(n, gens, minima, lengths)
    if certificate is None:
        if n > _MAX_POINTS:
            raise EnumerationTooLarge(
                f"order certification limited to {_MAX_POINTS} points, "
                f"got {n}")
        certificate = {"method": "schreier-sims"}
        full = math.factorial(n)
        index = full // _chain_order([tuple(g.images.tolist()) for g in gens],
                                     full // index)
    return CertifiedOrder(n, index, certificate)


def expected_symmetry_order(pres):
    """n! or n!/2 according to what the presentation claims to present, or
    None where it claims neither."""
    if pres.kind == "Sym" or pres.case == "moore":
        return CertifiedOrder(pres.degree, 1)
    if pres.kind == "Alt" or pres.case == "carmichael":
        return CertifiedOrder(pres.degree, 2)
    return None


def verify_presentation(pres, depth="relators"):
    """Relator check, optionally followed by order certification."""
    report = check_relators(pres)
    if depth == "order":
        expected = expected_symmetry_order(pres)
        if expected is None:  # AltTimesT, SymHat: the pair images
            report.details["order_note"] = (
                "order certification applies to single-permutation images only")
        else:
            t0 = time.perf_counter()
            order = certify_order([pres.images[t] for t in pres.slp.generators])
            report.order = order
            report.order_certified = True
            report.details["certificate"] = order.certificate
            report.details["expected_order"] = expected
            report.details["order_matches"] = order == expected
            report.millis += int((time.perf_counter() - t0) * 1000)
    return report


# ---------------------------------------------------------------------------
# falsification of the uncorrected variants

FALSIFICATION_TARGETS = (
    "SL2Generators", "P3Relator", "P3RelatorHOnly", "TranspositionWord")


class Falsification:
    """The uncorrected constructions at one p.  The matrix target, the two
    P3 targets and the subgroup contrast share one degree-(p+3)
    presentation, whose parameters prove p prime of its class, so p is
    proven prime at most once however many of them run."""

    def __init__(self, p):
        self.p = p

    @cached_property
    def _alt_p3(self):
        """builders.alt_p3(p), or the BadPrimeClass that refuses p."""
        try:
            return builders.alt_p3(self.p)
        except BadPrimeClass as exc:
            return exc

    def _p3(self):
        if isinstance(self._alt_p3, BadPrimeClass):
            raise self._alt_p3
        return self._alt_p3

    def report(self, which):
        """Evaluate one uncorrected construction and report the witness;
        BadPrimeClass where it does not apply at p."""
        if which == "SL2Generators":
            self._p3()  # raises where p is not of the class
            return _falsify_sl2(self.p)
        if which in ("P3Relator", "P3RelatorHOnly"):
            return _falsify_p3(which, self._p3())
        if which == "TranspositionWord":
            # the word is only used when negation is an odd permutation of
            # the field points, i.e. for primes p = 3 (mod 4); those are of
            # the P3 class, so a p proven there needs only the congruence
            if isinstance(self._alt_p3, BadPrimeClass) or self.p % 4 != 3:
                numth.require_affine_prime(self.p, True, "the transposition word")
            return _falsify_transposition(self.p)
        raise InternalInvariantViolation(f"unknown falsification target {which!r}")

    def contrast(self):
        """[|<u, v>|, |<u, v'>|] at a prime p = 11 (mod 12), v and v' the
        diagonal witnesses of the corrected and the uncorrected generators;
        None elsewhere, composite p = 11 (mod 12) included."""
        p = self.p
        if p % 12 != 11 or isinstance(self._alt_p3, BadPrimeClass):
            return None
        ps = self._p3().params
        u = sl2._gens_tu(p)[1]
        return [sl2.subgroup_order(p, [u, sl2.element_v(p, ps.j, ps.jbar, corrected=c)])
                for c in (True, False)]


def _falsify_sl2(p):
    t_orig, u_orig = sl2._gens_tu(p, corrected=False)
    ok_orig, vals_orig = sl2.check_cr_relators(t_orig, u_orig, p)
    t_corr, u_corr = sl2._gens_tu(p)
    ok_corr, _ = sl2.check_cr_relators(t_corr, u_corr, p)
    entries = [{"index": i, "identity": v.is_identity(), "value": str(v)}
               for i, v in enumerate(vals_orig)]
    details = {
        "original_generators": [str(t_orig), str(u_orig)],
        "original_relators_hold": ok_orig,
        "corrected_generators": [str(t_corr), str(u_corr)],
        "corrected_relators_hold": ok_corr,
        "note": ("with the uncorrected signs the first relator evaluates to "
                 "the central involution, never the identity"),
    }
    return VerificationReport(p, "Falsification", "falsify:SL2Generators",
                              entries, details=details)


def _falsify_p3(which, pres):
    p = pres.params.p
    env = pres.images
    x, y, z = builders.X, builders.Y, builders.Z
    j0 = pres.params.j % p  # j is the smallest generator or that minus p
    if which == "P3Relator":
        h_word = sl2.h_word(j0, pow(j0, -1, p), -1)
    else:
        h_word = pres.slp.definition_map()["h"]
    base_word = h_word * conj(z, y * x) * conj(z, y ** j0 * x)
    half = (p + 1) // 2
    base = evaluate(base_word, env)
    powered = base ** half
    corrected_relator = next(
        val for i, val in relator_values(pres.slp, env) if i == 6)
    entries = [{
        "index": 0,
        "identity": powered.is_identity(),
        "cycle_type": list(powered.cycle_type()),
    }]
    details = {
        "base_cycle_type": list(base.cycle_type()),
        "base_order": base.order(),
        "power": half,
        "power_kills_base": powered.is_identity(),
        "corrected_relator_identity": corrected_relator.is_identity(),
        "note": ("the uncorrected conjugators put the 3-cycle factors in the "
                 "wrong point orbits, so the powered word survives"),
    }
    return VerificationReport(p + 3, "Falsification", f"falsify:{which}",
                              entries, details=details)


def _falsify_transposition(p):
    # a, b and z act on 1..p+2 as in the degree-(p+2) Sym presentation
    w = builders._Words(p)
    images = builders._agl(w, "SymAGL", True).images
    defs = [("x", w.d(0, 1)), *builders._transposition_defs(w)]
    env, _ = evaluate_slp(Slp(tuple(images), defs), images)
    half = (p - 1) // 2
    dwrd = w.d(1, -1)
    cbull = sym("cbull")
    v_orig = cbull * (dwrd * cbull) ** (half - 2) * dwrd * cbull
    t_orig = evaluate(v_orig * builders.B ** half, env)
    t_corr = env["t"]
    claimed = Permutation.from_cycles([(p + 1, p + 2)], 1, p + 2)
    matches = t_orig == claimed
    entries = [{
        "index": 0,
        "identity": matches,
        "cycle_type": list(t_orig.cycle_type()),
    }]
    details = {
        "original_value": str(t_orig),
        "corrected_value": str(t_corr),
        "claimed_value": str(claimed),
        "original_matches": matches,
        "corrected_matches": t_corr == claimed,
        "note": ("the uncorrected bracketing leaves a product of point "
                 "transpositions instead of the top transposition"),
    }
    return VerificationReport(p + 2, "Falsification",
                              "falsify:TranspositionWord",
                              entries, details=details)
