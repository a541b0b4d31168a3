"""Shared expected-image helpers for the construction test modules.

The glued presentations are assembled from parameterized word families
(three-cycles z(i), double transpositions d(i,j), even cycles c(i,j),
the telescope pair words, and the glue-side long cycle).  Each family has
a closed-form expected permutation; claim_failures evaluates every family
inside a built presentation and returns the labels that do not match.

The families are built through the private builders._Words, the one
value the builders make their words from: these tests pin down the exact
words the builder assembles.

chain_order runs the stabilizer chain directly, beside the Jordan
certificate that certify_order tries first.

split_from shares the gathers and scatters of shortpres.perm among
threads from a given size on, however small, for the tests that run an
operation both split and whole.

The last section is a standalone evaluator on plain dicts for the
degree-(p+3) relator words.  It rebuilds the generator images from their
closed forms and multiplies them itself, so a cycle type it reports does
not rest on shortpres.perm, shortpres.words or shortpres.sl2.
"""

import contextlib
import itertools
import math
import random
from unittest import mock

from shortpres import perm
from shortpres.builders import _Words, covered_degrees, presentation_for
from shortpres.perm import Permutation, cycle_lengths
from shortpres.verify import _chain_order, certify_order
from shortpres.words import evaluate, evaluate_slp


@contextlib.contextmanager
def split_from(points, threads):
    """Share every gather and scatter of at least `points` points among
    `threads` threads, on a pool made for the block and shut down after it."""
    with mock.patch.multiple(perm, _SPLIT=points, _threads=threads, _pool=None):
        try:
            yield
        finally:
            if perm._pool is not None:
                perm._pool.shutdown()


def expected_pair_stack(p, lo, hi):
    """(1,p-1)(2,p-2)...: negation on the embedded field, fixing p."""
    return Permutation.from_cycles(
        [(i, p - i) for i in range(1, (p + 1) // 2)], lo, hi)


def expected_c(i, j, p, lo, hi):
    """(i,i+1,...,j) times (p+1,p+2)^(j-i); the factors overlap once j
    reaches p+1, so compose rather than list disjoint cycles."""
    cyc = [tuple(range(i, j + 1))] if j > i else []
    out = Permutation.from_cycles(cyc, lo, hi)
    if (j - i) % 2:
        out = out * Permutation.from_cycles([(p + 1, p + 2)], lo, hi)
    return out


def expected_za_conj(p, k, lo, hi, exchanged):
    """The conjugate (1,...,p+2)^y of the long cycle z a under the glue map y.

    y fixes 1..k and, pair by pair, sends p+2-t to k-p-1+t, so conjugating
    gives the uniform tail (1..k, 0, -1, ..., k-p-1), the stated claim.
    For Alt with n even, glue_map_image closes the first two pairs into the
    4-cycle (k-p-1, p+2, k-p, p+1) to keep y even; then p+1 goes to k-p-1
    and p+2 to k-p, so the cycle the construction produces ends
    (..., k-p+1, k-p-1, k-p): the uniform tail with its last two points
    exchanged (exchanged=True).
    """
    body = list(range(1, k + 1))
    if exchanged:
        body += list(range(0, k - p, -1)) + [k - p - 1, k - p]
    else:
        body += list(range(0, k - p - 2, -1))
    return Permutation.from_cycles([tuple(body)], lo, hi)


def index_samples(p, rng):
    """Residue indices to test: all of them for small p, else boundaries
    plus a seeded random handful."""
    if p <= 23:
        return list(range(1, p + 1))
    pts = {1, 2, 3, (p - 1) // 2, (p + 1) // 2, p - 2, p - 1, p}
    pts.update(rng.randrange(1, p + 1) for _ in range(6))
    return sorted(pts)


def _c_index_pairs(p, idx, rng):
    if p <= 23:
        pairs = list(itertools.combinations_with_replacement(idx, 2))
    else:
        pairs = [(i, j) for i, j in zip(sorted(rng.sample(idx, 6)), sorted(rng.sample(idx, 6))) if i <= j]
        pairs += [(1, 2), (1, p - 1), (2, 2)]
    for j in (p, p + 1, p + 2):  # the boundary columns past p-1
        pairs += [(i, j) for i in idx[:4]]
    # the family needs i <= p-2 once j reaches p
    return [(i, j) for i, j in pairs if j <= p - 1 or i <= p - 2]


def claim_failures(pres, rng=None, claimed_u=False):
    """Evaluate every image claim inside a glued presentation.

    Returns the labels of the claims that fail.  With claimed_u=False every
    word is checked against the meaning the construction gives it; in
    particular (z a)^y is checked against the tail glue_map_image
    produces, which on even alternating degrees is the uniform tail with
    its last two points exchanged (see expected_za_conj).  With
    claimed_u=True (z a)^y is checked against the stated uniform tail on
    every branch instead: that claim is refuted exactly on the even
    alternating degrees, where it adds the one label "(z a)^y".
    """
    return claim_failures_both(pres, rng)[1 if claimed_u else 0]


def claim_failures_both(pres, rng=None):
    """(stated, uniform): claim_failures with claimed_u=False and with
    claimed_u=True, from one evaluation of the presentation."""
    ps = pres.params
    p, k = ps.p, ps.k
    lo, hi = pres.domain
    rng = rng or random.Random(20260815)
    env, _ = evaluate_slp(pres.slp, pres.images)
    fails = []

    def check(label, got, want):
        if got != want:
            fails.append(f"{pres.kind} n={pres.degree}: {label}")

    def P(cycles):
        return Permutation.from_cycles(cycles, lo, hi)

    idx = index_samples(p, rng)
    w = _Words(p)
    for i in idx:
        check(f"z({i})", evaluate(w.z(i), env), P([(i, p + 1, p + 2)]))
    for i, j in itertools.combinations(idx, 2):
        if (i - j) % p:
            check(f"d({i},{j})", evaluate(w.d(i, j), env),
                  P([(i, j), (p + 1, p + 2)]))
    for i, j in _c_index_pairs(p, idx, rng):
        check(f"c({i},{j})", evaluate(w.c(i, j), env),
              expected_c(i, j, p, lo, hi))

    check("x", env["x"], P([(1, p), (p + 1, p + 2)]))
    check("atil", env["atil"], P([(1, 2, 3)]))
    check("d", env["d"], P([tuple(range(5, p + 3))]))

    if pres.kind == "Sym":
        pair_stack = expected_pair_stack(p, lo, hi)
        half = (p - 1) // 2
        check("b^((p-1)/2)", env["b"] ** half, pair_stack)
        check("cbull", env["cbull"],
              P([tuple(range(1, half + 1)), tuple(range(p - 1, half, -1))]))
        check("v", env["v"], pair_stack * P([(p + 1, p + 2)]))
        check("t", env["t"], P([(p + 1, p + 2)]))

    defined = dict(pres.slp.definitions)
    if "ytil" in defined:
        check("ytil", env["ytil"], P([(1, k + 2), (2, k + 1)]))
        check("ztil", env["ztil"], P([(1, -1), (2, 0)]))
        check("xtil", env["xtil"], P([(-1, k + 2), (0, k + 1)]))

    za = env["z"] * env["a"]
    check("z a", za, P([tuple(range(1, p + 3))]))
    za_y = za.conjugate(env["y"])
    exchanged = pres.kind == "Alt" and pres.degree % 2 == 0
    tail = f"{pres.kind} n={pres.degree}: (z a)^y"
    return tuple(
        fails + ([] if za_y == expected_za_conj(p, k, lo, hi, ex) else [tail])
        for ex in (exchanged, False))


# ---------------------------------------------------------------------------
# the two order certificates side by side


def chain_order(gens):
    """The stabilizer chain's order, with the parity bound certify_order
    gives it, called directly so that no Jordan certificate answers first."""
    gens = [g for g in gens if not g.is_identity()]
    bound = math.factorial(gens[0].degree)
    lengths = [cycle_lengths(g.cycle_minima()) for g in gens]
    if not any((lens.sum() - lens.size) % 2 for lens in lengths):
        bound //= 2
    return _chain_order([tuple(g.images.tolist()) for g in gens], bound)


def certificate_disagreements(lo, hi):
    """(kind, n, Jordan order, chain order, certificate) at each covered
    degree in [lo, hi] where the Jordan certificate is not the one used or
    either order misses n!/2 (Alt) or n! (Sym); and the number of degrees
    compared."""
    bad, compared = [], 0
    for kind in ("Alt", "Sym"):
        for n in covered_degrees(lo, hi, kind):
            pres = presentation_for(n, kind)
            gens = [pres.images[t] for t in pres.slp.generators]
            want = math.factorial(n) // (2 if kind == "Alt" else 1)
            order, chain = certify_order(gens), chain_order(gens)
            compared += 1
            if (order.certificate["method"] != "jordan"
                    or int(order) != want or chain != want):
                bad.append((kind, n, int(order), chain, order.certificate))
    return bad, compared


# ---------------------------------------------------------------------------
# a standalone evaluator: plain dicts, closed-form images


def dict_perm(cycles, points):
    """The permutation with these disjoint cycles, as a dict on points."""
    perm = {pt: pt for pt in points}
    for cyc in cycles:
        for i, pt in enumerate(cyc):
            perm[pt] = cyc[(i + 1) % len(cyc)]
    return perm


def dict_product(factors, left_first=True):
    """The product of dict permutations on one point set.  left_first
    applies the first factor first (the convention of the package);
    otherwise the last factor is applied first."""
    factors = list(factors) if left_first else list(reversed(factors))
    out = {pt: pt for pt in factors[0]}
    for f in factors:
        out = {pt: f[img] for pt, img in out.items()}
    return out


def dict_power(perm, e):
    base = perm if e >= 0 else {img: pt for pt, img in perm.items()}
    return dict_product([base] * abs(e)) if e else {pt: pt for pt in perm}


def dict_cycle_type(perm):
    """Sorted lengths of the nontrivial cycles."""
    seen, lengths = set(), []
    for start in perm:
        length, pt = 0, start
        while pt not in seen:
            seen.add(pt)
            pt = perm[pt]
            length += 1
        if length > 1:
            lengths.append(length)
    return sorted(lengths)


def smallest_primitive_root(p):
    return next(r for r in range(2, p)
                if len({pow(r, e, p) for e in range(1, p)}) == p - 1)


def p3_images(p):
    """Generator images of the degree-(p+3) case on points 1..p+3.

    x is the corrected t acting on the projective line, point -> -1/point,
    with p standing for 0 and p+1 for infinity (the sign correction of t
    is a scalar, so it does not change this action); y = (1,...,p) and
    z = (p+1, p+2, p+3).
    """
    points = range(1, p + 4)
    x = {pt: pt for pt in points}
    for i in range(1, p):
        x[i] = -pow(i, -1, p) % p
    x[p], x[p + 1] = p + 1, p
    return {"x": x, "y": dict_perm([tuple(range(1, p + 1))], points),
            "z": dict_perm([(p + 1, p + 2, p + 3)], points)}


def _conj_tokens(target, by):
    """target^by = by^-1 target by, on (symbol, exponent) token lists."""
    return [(s, -e) for s, e in reversed(by)] + target + by


def p3_relator_base(p, corrected):
    """The base of the last degree-(p+3) relator, h z^c1 z^c2, as tokens.

    Corrected: h = y^jbar (y^j)^x y^jbar x^((-1)^k) with k = p mod 3,
    c1 = x y, c2 = x y^j.  Uncorrected: the last factor of h is x^-1, and
    the conjugators are c1 = y x, c2 = y^j x.  j is the smallest primitive
    root mod p and jbar its inverse; y has order p, so this j gives the
    same images as the builder's parity-adjusted one.
    """
    j = smallest_primitive_root(p)
    jbar = pow(j, -1, p)
    last = (-1) ** (p % 3) if corrected else -1
    h = ([("y", jbar)] + _conj_tokens([("y", j)], [("x", 1)])
         + [("y", jbar), ("x", last)])
    if corrected:
        c1, c2 = [("x", 1), ("y", 1)], [("x", 1), ("y", j)]
    else:
        c1, c2 = [("y", 1), ("x", 1)], [("y", j), ("x", 1)]
    return h + _conj_tokens([("z", 1)], c1) + _conj_tokens([("z", 1)], c2)


def p3_relator_cycle_types(p, corrected, left_first=True):
    """(base, powered): cycle types of h z^c1 z^c2 and of its (p+1)/2-th
    power, evaluated on p3_images by the dict evaluator alone."""
    images = p3_images(p)
    base = dict_product(
        [dict_power(images[s], e) for s, e in p3_relator_base(p, corrected)],
        left_first)
    return dict_cycle_type(base), dict_cycle_type(dict_power(base, (p + 1) // 2))
