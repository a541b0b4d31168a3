"""Machine verification of presentations.

check_relators evaluates every relator of a presentation under its concrete
generator images and reports cycle types.  certify_order runs a
deterministic Schreier-Sims construction (no randomization) and returns the
exact group order as an arbitrary-precision integer.  The order is
certified by one of two facts: every Schreier generator of the resulting
chain has been sifted to the identity, which by Schreier's lemma pins the
order exactly; or the product of the orbit lengths, a lower bound on the
order, has reached the parity bound n! (or n!/2 when every generator is
even), an upper bound on it.

falsify_original re-evaluates the uncorrected variants of the constructions
(wrong special-linear generator signs, wrong conjugating order in the
degree-(p+3) relator, wrong bracketing of the transposition word) and
records concrete non-identity witnesses.  The corrected side of each target
is built from the words and images the builders emit.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import builders, numth, sl2
from .errors import (
    BadPrimeClass,
    DegreeTooLarge,
    DomainMismatch,
    EnumerationTooLarge,
    InternalInvariantViolation,
)
from .perm import Permutation
from .words import ProductPair, conj, evaluate, evaluate_slp, sym

_MAX_POINTS = 64


@dataclass
class VerificationReport:
    degree: int
    kind: str
    case: str
    relators: list
    order_certified: bool = False
    order: int = None
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
            "order": self.order,
            "millis": self.millis,
        }
        if self.details:
            out["details"] = self.details
        return out


def _cycle_type_json(value):
    if isinstance(value, ProductPair):
        return [list(value.left.cycle_type()), list(value.right.cycle_type())]
    return list(value.cycle_type())


def check_relators(pres):
    """Evaluate all relators of a presentation; images must be materialized."""
    if pres.images is None:
        raise DegreeTooLarge(
            f"degree {pres.degree} has no materialized images "
            f"(limit {builders.MATERIALIZE_MAX_DEGREE})")
    t0 = time.perf_counter()
    _, values = evaluate_slp(pres.slp, pres.images)
    entries = []
    for i, val in enumerate(values):
        entries.append({
            "index": i,
            "identity": val.is_identity(),
            "cycle_type": _cycle_type_json(val),
        })
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


def certify_order(gens, expected=None):
    """Exact order of the group generated by permutations.  Deterministic;
    domain limited to 64 points.

    The order is certified in one of two ways.  Either every Schreier
    generator of the stabilizer chain has been sifted to the identity, which
    by Schreier's lemma pins the order to the product of the orbit lengths;
    or that product has reached the parity bound: n! in general, n!/2 when
    every generator is even.  The product never exceeds the group order and
    the group order never exceeds the bound, so equality proves both.
    """
    for g in gens:
        if not isinstance(g, Permutation):
            raise DomainMismatch(
                f"order certification needs permutations, got "
                f"{type(g).__name__}")
    gens = [g for g in gens if not g.is_identity()]
    if gens:
        lo, hi = gens[0].lo, gens[0].hi
        for g in gens:
            if (g.lo, g.hi) != (lo, hi):
                raise DomainMismatch("generators act on different point ranges")
        n = hi - lo + 1
        if n > _MAX_POINTS:
            raise EnumerationTooLarge(
                f"order certification limited to {_MAX_POINTS} points, "
                f"got {n}")
        bound = math.factorial(n)
        if not any(g.epsilon() for g in gens):
            bound //= 2
        order = _chain_order([tuple(g.images.tolist()) for g in gens], bound)
    else:
        order = 1
    if expected is not None and order != expected:
        raise InternalInvariantViolation(
            f"certified order {order}, expected {expected}")
    return order


def expected_symmetry_order(pres):
    """n!/2 or n! according to what the presentation claims to present."""
    full = math.factorial(pres.degree)
    if pres.kind == "Sym" or pres.case == "moore":
        return full
    if pres.kind == "Alt" or pres.case == "carmichael":
        return full // 2
    return None


def verify_presentation(pres, depth="relators"):
    """Relator check, optionally followed by order certification."""
    report = check_relators(pres)
    if depth == "order":
        expected = expected_symmetry_order(pres)
        if expected is None or any(
                isinstance(pres.images[t], ProductPair)
                for t in pres.slp.generators):
            report.details["order_note"] = (
                "order certification applies to single-permutation images only")
        else:
            t0 = time.perf_counter()
            order = certify_order([pres.images[t] for t in pres.slp.generators])
            report.order = order
            report.order_certified = True
            report.details["expected_order"] = expected
            report.details["order_matches"] = order == expected
            report.millis += int((time.perf_counter() - t0) * 1000)
    return report


# ---------------------------------------------------------------------------
# falsification of the uncorrected variants

FALSIFICATION_TARGETS = (
    "SL2Generators", "P3Relator", "P3RelatorHOnly", "TranspositionWord")


def falsify_original(which, p=11):
    """Evaluate an uncorrected construction and report the witness."""
    if which == "SL2Generators":
        return _falsify_sl2(p)
    if which in ("P3Relator", "P3RelatorHOnly"):
        return _falsify_p3(which, p)
    if which == "TranspositionWord":
        return _falsify_transposition(p)
    raise InternalInvariantViolation(f"unknown falsification target {which!r}")


def _falsify_sl2(p):
    t_orig, u_orig = sl2.gens_tu(p, corrected=False)
    ok_orig, vals_orig = sl2.check_cr_relators(t_orig, u_orig, p)
    t_corr, u_corr = sl2.gens_tu(p)
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


def _falsify_p3(which, p):
    pres = builders.alt_p3(p)
    env = pres.images
    x, y, z = sym("x"), sym("y"), sym("z")
    j0 = numth.group_unit_generator(p)
    if which == "P3Relator":
        h_word = sl2.h_word(j0, pow(j0, -1, p), -1)
    else:
        h_word = pres.slp.definition_map()["h"]
    base_word = h_word * conj(z, y * x) * conj(z, y ** j0 * x)
    half = (p + 1) // 2
    base = evaluate(base_word, env)
    powered = base ** half
    corrected_relator = evaluate_slp(pres.slp, env)[1][6]
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
    if not numth.is_prime(p) or p < 5 or p % 4 != 3:
        # the word is only used when negation is an odd permutation of the
        # field points, i.e. for p = 3 (mod 4)
        raise BadPrimeClass(
            f"the transposition word targets primes p = 3 (mod 4), got {p}")
    # a, b and z act on 1..p+2 as in the degree-(p+2) Sym presentation
    env = dict(builders.agl_examples(p, "SymAGL", with_extra_relator=True).images)
    a, z, b, x = sym("a"), sym("z"), sym("b"), sym("x")
    defs = [("x", builders._d_word(z, a, 0, 1, p, True))]
    defs += builders._transposition_defs(a, b, z, x, p, True)
    for name, word in defs:
        env[name] = evaluate(word, env)
    half = (p - 1) // 2
    dwrd = builders._d_word(z, a, 1, -1, p, True)
    cbull = sym("cbull")
    v_orig = cbull * (dwrd * cbull) ** (half - 2) * dwrd * cbull
    t_orig = evaluate(v_orig * b ** half, env)
    t_corr = env["t"]
    claimed = Permutation.from_cycles([(p + 1, p + 2)], 1, p + 2)
    entries = [{
        "index": 0,
        "identity": (t_orig * claimed.inverse()).is_identity(),
        "cycle_type": list(t_orig.cycle_type()),
    }]
    details = {
        "original_value": str(t_orig),
        "corrected_value": str(t_corr),
        "claimed_value": str(claimed),
        "original_matches": t_orig == claimed,
        "corrected_matches": t_corr == claimed,
        "note": ("the uncorrected bracketing leaves a product of point "
                 "transpositions instead of the top transposition"),
    }
    return VerificationReport(p + 2, "Falsification",
                              "falsify:TranspositionWord",
                              entries, details=details)
