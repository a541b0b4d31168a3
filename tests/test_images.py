"""Closed-form generator images against the cycle-list construction.

The builders compute the images of a, g and y arithmetically (a shift, a
multiplication times a 3-cycle power, a reflection).  The oracles below
rebuild each one the way it is defined, as a list of disjoint cycles
through Permutation.from_cycles, with g's 3-cycle raised to the full power
kappa by repeated multiplication.  The degree-(p+3) images x and y are
checked against the action of the matrices t and u on the projective line.
"""

import dataclasses

import pytest
from helpers import p3_images

from shortpres.builders import (
    _a_image,
    _g_image,
    _mul_image,
    alt_p3,
    covered_degrees,
    glue_map_image,
    params_for,
    presentation_for,
)
from shortpres.errors import DomainMismatch, PointOutOfDomain
from shortpres.numth import is_prime
from shortpres.perm import Permutation
from shortpres.sl2 import gens_tu

# both classes p = 1 and p = 2 (mod 3), so both signs of the corrected t, u
P3_PRIMES = [p for p in range(5, 200) if p % 3 and is_prime(p)]


def oracle_a(p, lo, hi):
    return Permutation.from_cycles([tuple(range(1, p + 1))], lo, hi)


def oracle_mul(factor, p, lo, hi):
    rep = {x: (factor * x) % p or p for x in range(1, p + 1)}
    cycles, seen = [], set()
    for x in rep:
        if x not in seen:
            cyc = [x]
            while rep[cyc[-1]] != x:
                cyc.append(rep[cyc[-1]])
            seen.update(cyc)
            cycles.append(cyc)
    return Permutation.from_cycles(cycles, lo, hi)


def oracle_g(ps, lo, hi):
    p = ps.p
    return (oracle_mul(ps.alpha, p, lo, hi)
            * Permutation.from_cycles([(p, p + 1, p + 2)], lo, hi) ** ps.kappa)


def oracle_y(p, k, kind, lo, hi):
    cycles = []
    start = 0
    if kind == "Alt" and (2 * p + 4 - k) % 2 == 0:
        cycles.append((k - p - 1, p + 2, k - p, p + 1))
        start = 2
    for t in range(start, p - k + 2):
        cycles.append((k - p - 1 + t, p + 2 - t))
    return Permutation.from_cycles(cycles, lo, hi)


def oracle_moebius(m, p):
    """The right action of a matrix m on the projective line over F_p: the
    row vector (1, x) goes to (a + x c, b + x d), so x -> (b + x d)/(a + x c),
    and the infinite point (0, 1) goes to (c, d).  Points are relabelled onto
    1..p+3 as the builders place them: 0 -> p, infinity -> p+1; p+2 and p+3
    are fixed."""

    def point(first, second):  # the label of the line through (first, second)
        if first % p == 0:
            return p + 1
        return second * pow(first, -1, p) % p or p

    images = {x or p: point(m.a + x * m.c, m.b + x * m.d) for x in range(p)}
    images[p + 1] = point(m.c, m.d)
    return Permutation([images.get(pt, pt) for pt in range(1, p + 4)], 1)


def assert_images_match_oracles(pres):
    ps, (lo, hi) = pres.params, pres.domain
    images = pres.images
    if pres.case == "alt_p3":
        t, u = gens_tu(ps.p)
        assert images["x"] == oracle_moebius(t, ps.p)
        assert images["y"] == oracle_moebius(u, ps.p)
        return
    assert images["a"] == oracle_a(ps.p, lo, hi)
    assert images["g"] == oracle_g(ps, lo, hi)
    if pres.case == "glued":
        assert images["y"] == oracle_y(ps.p, ps.k, ps.kind, lo, hi)


@pytest.mark.parametrize("kind", ["Alt", "Sym"])
def test_every_covered_degree_up_to_2000(kind):
    degrees = covered_degrees(13, 2000, kind)
    assert len(degrees) > 1900
    for n in degrees:
        assert_images_match_oracles(presentation_for(n, kind))


@pytest.mark.parametrize("p", P3_PRIMES)
def test_p3_images_are_the_projective_action_of_t_and_u(p):
    assert_images_match_oracles(alt_p3(p))


@pytest.mark.parametrize("p", P3_PRIMES)
def test_p3_images_match_their_standalone_statement(p):
    images = alt_p3(p).images
    for s, image in p3_images(p).items():
        assert {pt: images[s](pt) for pt in image} == image


@pytest.mark.parametrize("n,kind", [
    (100_003, "Sym"), (100_004, "Alt"), (999_999, "Sym"), (999_998, "Alt"),
])
def test_large_degrees(n, kind):
    assert_images_match_oracles(presentation_for(n, kind))


def test_even_alternating_degrees_are_among_those_checked():
    # the 4-cycle branch of the glue map is exercised by the sweep above
    pres = presentation_for(20, "Alt")
    assert pres.case == "glued" and pres.images["y"].cycle_type()[0] == 4


def test_every_kappa_residue():
    # g's 3-cycle factor is (p,p+1,p+2)^(kappa mod 3); the covered degrees
    # only reach residues 1 and 2, so shift kappa to reach 0 as well
    ps = params_for(17, "Sym")
    lo, hi = ps.k - ps.p - 1, ps.p + 2
    for kappa in range(ps.kappa, ps.kappa + 3):
        shifted = dataclasses.replace(ps, kappa=kappa)
        assert _g_image(shifted, lo, hi) == oracle_g(shifted, lo, hi)


def test_images_on_a_wider_domain():
    for lo, hi in [(1, 13), (-4, 13), (1, 11)]:
        assert _a_image(11, lo, hi) == oracle_a(11, lo, hi)
        assert _mul_image(7, 11, lo, hi) == oracle_mul(7, 11, lo, hi)
    assert glue_map_image(11, 6, "Alt", -9, 14) == oracle_y(11, 6, "Alt", -9, 14)


class TestWrongClosedFormsAreRefused:
    """The closed forms go through the validating constructor, so an
    arithmetic slip that loses bijectivity raises instead of yielding a
    wrong image."""

    def test_multiplication_by_a_non_unit(self):
        with pytest.raises(DomainMismatch):
            _mul_image(11, 11, 1, 13)
        with pytest.raises(DomainMismatch):
            _mul_image(0, 11, 1, 13)

    def test_g_with_a_non_unit_alpha(self):
        ps = presentation_for(17, "Sym").params
        lo, hi = ps.k - ps.p - 1, ps.p + 2
        with pytest.raises(DomainMismatch):
            _g_image(dataclasses.replace(ps, alpha=ps.p), lo, hi)

    def test_points_outside_the_domain(self):
        with pytest.raises(PointOutOfDomain):
            _a_image(11, 2, 13)
        with pytest.raises(PointOutOfDomain):
            _g_image(presentation_for(13, "Alt").params, 1, 12)
        with pytest.raises(PointOutOfDomain):
            glue_map_image(11, 6, "Sym", -3, 13)
