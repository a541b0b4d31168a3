"""SL(2,p) generators, defining relators, and the diagonal witness.

The corrected generator pair satisfies both defining relators for every
prime p > 3 not divisible by 3; the uncorrected pair always fails the
first relator (its value is -I), and fails the second exactly when
p = 1 mod 3.  All matrix values below were computed independently.
"""

import pytest

from shortpres.builders import alt_p3
from shortpres.errors import (
    BadPrimeClass,
    EnumerationTooLarge,
    InternalInvariantViolation,
    ParityViolation,
)
from shortpres.numth import derive_params, is_prime
from shortpres.sl2 import (
    Mat2p,
    check_cr_relators,
    cr_relator_words,
    element_v,
    gens_tu,
    h_word,
    subgroup_order,
)
from shortpres.words import bit_length, evaluate

PRIMES = (5, 7, 11, 13, 23)


class TestMat2p:
    def test_entries_normalized_and_det_enforced(self):
        m = Mat2p(-1, 0, 0, -1, 7)
        assert m._entries() == (6, 0, 0, 6)
        with pytest.raises(InternalInvariantViolation):
            Mat2p(1, 0, 0, 2, 7)

    def test_product_and_inverse(self):
        t, u = gens_tu(11)
        assert (t * t.inverse()).is_identity()
        assert (u ** -3 * u ** 3).is_identity()
        assert t ** 0 == t.identity_like()

    def test_orders(self):
        t, u = gens_tu(11)
        assert (t ** 4).is_identity() and not (t ** 2).is_identity()
        assert (u ** 11).is_identity() and not u.is_identity()  # unipotent

    def test_mixed_characteristic_rejected(self):
        with pytest.raises(InternalInvariantViolation):
            Mat2p(1, 0, 0, 1, 5) * Mat2p(1, 0, 0, 1, 7)


class TestGenerators:
    def test_frozen_corrected_pairs(self):
        # p = 11 mod 3 = 2: no sign flip; p = 13 mod 3 = 1: both negated
        t, u = gens_tu(11)
        assert t == Mat2p(0, -1, 1, 0, 11)
        assert u == Mat2p(1, 1, 0, 1, 11)
        t, u = gens_tu(13)
        assert t == Mat2p(0, 1, -1, 0, 13)
        assert u == Mat2p(-1, -1, 0, -1, 13)

    def test_uncorrected_pair_is_the_plain_one(self):
        t, u = gens_tu(11, corrected=False)
        assert t == Mat2p(0, 1, -1, 0, 11)
        assert u == Mat2p(1, 1, 0, 1, 11)

    def test_bad_primes_rejected(self):
        for p in (2, 3, 4, 9, 15):
            with pytest.raises(BadPrimeClass):
                gens_tu(p)

    @pytest.mark.parametrize("p", PRIMES)
    def test_corrected_pair_satisfies_both_relators(self, p):
        ok, values = check_cr_relators(*gens_tu(p), p)
        assert ok
        assert all(v.is_identity() for v in values)

    @pytest.mark.parametrize("p", PRIMES)
    def test_uncorrected_pair_fails_first_relator_with_minus_identity(self, p):
        t, u = gens_tu(p, corrected=False)
        ok, values = check_cr_relators(t, u, p)
        assert not ok
        minus_i = Mat2p(-1, 0, 0, -1, p)
        assert values[0] == minus_i
        # second relator: identity iff p = 2 mod 3
        if p % 3 == 2:
            assert values[1].is_identity()
        else:
            assert values[1] == minus_i

    def test_relator_words_are_short(self):
        r1, r2 = cr_relator_words(10 ** 9 + 7)
        assert bit_length(r1) + bit_length(r2) < 120


class TestElementV:
    def test_frozen_diagonal_value(self):
        assert element_v(11) == Mat2p(6, 0, 0, 2, 11)
        assert element_v(13) == Mat2p(7, 0, 0, 2, 13)

    def test_uncorrected_pair_negates_v_when_sign_unflipped(self):
        assert element_v(11, corrected=False) == Mat2p(-6, 0, 0, -2, 11)

    def test_odd_parity_rejected(self):
        # j = 15, jbar = 7 is a valid inverse pair mod 13 but j*k is odd
        with pytest.raises(ParityViolation):
            element_v(13, j=15, jbar=7)

    def test_wrong_inverse_pair_rejected(self):
        with pytest.raises(InternalInvariantViolation):
            element_v(11, j=2, jbar=5)


class TestSubgroupOrder:
    def test_full_group_at_p5(self):
        assert subgroup_order(5, list(gens_tu(5))) == 120  # |SL(2,5)|

    def test_borel_contrast_at_p11(self):
        _, u = gens_tu(11)
        assert subgroup_order(11, [u, element_v(11)]) == 110
        assert subgroup_order(11, [u, element_v(11, corrected=False)]) == 55

    def test_empty_and_bounds(self):
        assert subgroup_order(11, []) == 1
        with pytest.raises(EnumerationTooLarge):
            subgroup_order(101, [Mat2p(1, 0, 0, 1, 101)])


# The exhaustive pair scan behind TestPairScan's finding.


def scan_cr_generator_pairs(p):
    """Exhaustive scan over SL(2,p)^2 for pairs satisfying both defining
    relators; counts how many also make <y, y^jbar (y^j)^x y^jbar x^-1>
    as large as the full upper-triangular subgroup (order p(p-1)).

    Returns (satisfying_pairs, full_order_pairs).  Quadratic in |SL(2,p)|;
    intended for small p only."""
    if p > 31:
        raise EnumerationTooLarge(f"p = {p} is too large for a full pair scan")
    ps = derive_params("Alt", "P3", p=p)
    _, r2 = cr_relator_words(p)
    h = h_word(ps.j, ps.jbar, -1)
    group = _all_sl2(p)
    n_pairs = 0
    n_full = 0
    target = p * (p - 1)
    for x in group:
        x2 = x * x
        for y in group:
            xy = x * y
            if x2 != xy * xy * xy:
                continue
            env = {"x": x, "y": y}
            if not evaluate(r2, env).is_identity():
                continue
            n_pairs += 1
            if subgroup_order(p, [y, evaluate(h, env)]) == target:
                n_full += 1
    return n_pairs, n_full


def _all_sl2(p):
    """Every element of SL(2, p)."""
    out = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                # ad - bc = 1: solve for d when a invertible, else bc = -1
                if a % p:
                    d = (1 + b * c) * pow(a, -1, p) % p
                    out.append(Mat2p(a, b, c, d, p))
                elif (b * c) % p == p - 1:
                    for d in range(p):
                        out.append(Mat2p(a, b, c, d, p))
    return out


class TestPairScan:
    def test_scan_bound(self):
        with pytest.raises(EnumerationTooLarge):
            scan_cr_generator_pairs(37)

    @pytest.mark.slow
    def test_no_satisfying_pair_rescues_the_uncorrected_witness(self):
        # Every pair satisfying both relators at p = 11 (there are exactly
        # |SL(2,11)| = 1320 nontrivial ones plus the trivial pair) fails to
        # make the uncorrected diagonal-witness word generate the full
        # upper-triangular subgroup of order 110.
        assert scan_cr_generator_pairs(11) == (1321, 0)


@pytest.mark.parametrize("p", [p for p in range(5, 200)
                               if p % 3 and is_prime(p)])
def test_emitted_h_is_the_diagonal_witness(p):
    """The word h that alt_p3 emits, evaluated at the corrected matrix
    generators, is diag(jbar, j) for the presentation's own j and jbar.

    The projective images cannot see the sign of h's last factor, because
    x^2 = -I acts trivially on the projective line; this matrix check does,
    at every prime."""
    pres = alt_p3(p)
    ps = pres.params
    env = dict(zip("xy", gens_tu(p)))
    assert evaluate(pres.slp.definition_map()["h"], env) == Mat2p(
        ps.jbar, 0, 0, ps.j, p)
    for relator in pres.slp.relators[:2]:
        assert evaluate(relator, env).is_identity()
