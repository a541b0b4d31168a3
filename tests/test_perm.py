"""Permutation arithmetic against hand-computed values.

Products apply the left factor first throughout, so (1,2)(2,3) = (1,3,2).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shortpres.errors import (
    DomainMismatch,
    OverlappingCycles,
    PointOutOfDomain,
)
from shortpres.perm import Permutation, parse_cycles


def P(text, lo=1, hi=None):
    return parse_cycles(text, lo, hi if hi is not None else 5)


class TestConstruction:
    def test_identity(self):
        e = Permutation.identity(1, 4)
        assert e.is_identity()
        assert e.degree == 4
        assert str(e) == "()"

    def test_images_bijection_required(self):
        with pytest.raises(DomainMismatch):
            Permutation(np.array([1, 1, 3]), 1)
        with pytest.raises(DomainMismatch):
            Permutation(np.array([0, 1, 2]), 1)

    def test_negative_domain(self):
        g = Permutation.from_cycles([(-2, 0, 3)], -2, 3)
        assert g(-2) == 0 and g(0) == 3 and g(3) == -2
        assert g.degree == 6

    def test_from_cycles_rejects_repeats(self):
        with pytest.raises(OverlappingCycles):
            Permutation.from_cycles([(1, 2), (2, 3)], 1, 5)
        with pytest.raises(OverlappingCycles):
            Permutation.from_cycles([(1, 2, 1)], 1, 5)

    def test_from_cycles_out_of_domain(self):
        with pytest.raises(PointOutOfDomain):
            Permutation.from_cycles([(1, 9)], 1, 5)

    def test_call_out_of_domain(self):
        with pytest.raises(PointOutOfDomain):
            P("(1,2)")(7)


class TestProducts:
    def test_left_factor_first(self):
        # (1,2)(2,3) applies (1,2) first: 1 -> 2 -> 3
        assert P("(1,2)") * P("(2,3)") == P("(1,3,2)")

    def test_inverse(self):
        g = P("(1,2,3)(4,5)")
        assert g * g.inverse() == Permutation.identity(1, 5)
        assert ~g == g.inverse()
        assert g.inverse() == P("(1,3,2)(4,5)")

    def test_power(self):
        g = P("(1,2,3,4,5)")
        assert g ** 5 == Permutation.identity(1, 5)
        assert g ** -1 == g.inverse()
        assert g ** 7 == g * g
        assert g ** 0 == Permutation.identity(1, 5)

    def test_conjugate_moves_points(self):
        # (1,2,3)^g = (1^g, 2^g, 3^g)
        g = P("(1,4)(2,5)")
        assert P("(1,2,3)").conjugate(g) == P("(4,5,3)")
        assert P("(1,2,3)").conjugate(g) == g.inverse() * P("(1,2,3)") * g

    def test_domain_mismatch(self):
        with pytest.raises(DomainMismatch):
            P("(1,2)") * Permutation.identity(1, 6)

    def test_mixed_sign_domain_product(self):
        a = Permutation.from_cycles([tuple(range(-3, 4))], -3, 4)
        assert (a * a.inverse()).is_identity()
        assert a(3) == -3 and a(4) == 4


class TestStructure:
    def test_cycles_canonical(self):
        g = P("(4,5)(2,3,1)")
        assert [tuple(c) for c in g.cycles()] == [(1, 2, 3), (4, 5)]
        assert str(g) == "(1,2,3)(4,5)"

    def test_cycle_type_descending(self):
        assert P("(1,2)(3,4,5)").cycle_type() == (3, 2)
        assert Permutation.identity(1, 5).cycle_type() == ()

    def test_support_order(self):
        g = P("(1,2)(3,4,5)")
        assert g.support() == [1, 2, 3, 4, 5]
        assert g.order() == 6
        assert Permutation.identity(1, 3).order() == 1

    def test_sign(self):
        assert P("(1,2)").sign() == -1
        assert P("(1,2,3)").sign() == 1
        assert P("(1,2)(3,4)").sign() == 1
        assert P("(1,2,3,4)").sign() == -1

    def test_parse_round_trip(self):
        g = P("(1,3,5)(2,4)")
        assert parse_cycles(str(g), 1, 5) == g

    def test_hash_consistent(self):
        assert len({P("(1,2)"), P("(1,2)"), P("(2,1)")}) == 1


@settings(max_examples=60)
@given(st.permutations(range(1, 8)), st.permutations(range(1, 8)),
       st.permutations(range(1, 8)))
def test_associativity_and_antihomomorphism(im1, im2, im3):
    f = Permutation(np.array(im1), 1)
    g = Permutation(np.array(im2), 1)
    h = Permutation(np.array(im3), 1)
    assert (f * g) * h == f * (g * h)
    assert (f * g).inverse() == g.inverse() * f.inverse()
    assert f.conjugate(g) == g.inverse() * f * g


@settings(max_examples=40)
@given(st.permutations(range(1, 9)), st.integers(-20, 20))
def test_power_matches_repeated_product(im, e):
    g = Permutation(np.array(im), 1)
    acc = Permutation.identity(1, 8)
    base = g if e >= 0 else g.inverse()
    for _ in range(abs(e)):
        acc = acc * base
    assert g ** e == acc


def _walk_parity_and_minima(g):
    """Parity and cycle minima (as offsets) from the cycles() walk."""
    parity = sum(len(c) - 1 for c in g.cycles()) % 2
    least = np.arange(g.degree)
    for c in g.cycles():
        least[[x - g.lo for x in c]] = min(c) - g.lo
    return parity, least


@pytest.mark.parametrize("lo", [1, 0, -7, 1000])
def test_cycle_labelling_agrees_with_the_walk(lo):
    rng = np.random.default_rng(20261018 + lo)
    perms = [Permutation.identity(lo, lo),
             Permutation.identity(lo, lo + 9),
             Permutation(np.roll(np.arange(lo, lo + 257), 1), lo),
             Permutation(np.roll(np.arange(lo, lo + 1024), -1), lo)]
    for n in [1, 2, 3, 5, 8, 13, 64, 65, 1000, 4097]:
        for _ in range(6):
            perms.append(Permutation(rng.permutation(n) + lo, lo))
    for g in perms:
        parity, least = _walk_parity_and_minima(g)
        assert g.epsilon() == parity
        assert np.array_equal(g.cycle_minima(), least)
