"""Arithmetic parameter derivation against independently computed values."""

import functools
import hashlib
import json
import math
import random
from dataclasses import replace

import pytest

from shortpres import numth
from shortpres.builders import covered_degrees, glued, params_for
from shortpres.errors import (
    BadPrimeClass,
    DegreeTooLarge,
    InternalInvariantViolation,
    UnsupportedDegree,
)
from shortpres.numth import (
    PSI_12,
    ParamSet,
    _prime_factors,
    derive_params,
    find_glue_prime,
    group_unit_generator,
    is_prime,
    validate_params,
)

# The largest prime p = 11 (mod 12) below PSI_12, and the largest degree whose
# glue prime it is: the next degree starts its search at p + 1.
TOP_GLUE_PRIME = 318665857834031151167387
TOP_DEGREE = 2 * TOP_GLUE_PRIME - 2


class TestPrimality:
    def test_small_values(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
        for m in range(-2, 50):
            assert is_prime(m) == (m in primes)

    def test_larger(self):
        assert is_prime(500000003)
        assert not is_prime(500000001)
        assert is_prime(2 ** 61 - 1)
        assert not is_prime(2 ** 61 + 1)

    def test_refuses_at_and_above_the_proven_bound(self):
        # PSI_12 is composite, yet a strong probable prime to all twelve
        # witnesses: above the bound the test would answer wrongly
        assert PSI_12 == 399165290221 * 798330580441
        for m in (PSI_12, PSI_12 + 1, 10 ** 30):
            with pytest.raises(DegreeTooLarge):
                is_prime(m)
        assert is_prime(TOP_GLUE_PRIME)
        assert not any(is_prime(m) for m in range(TOP_GLUE_PRIME + 12, PSI_12, 12))


def _trial_division_primes(limit):
    sieve = bytearray([1]) * limit
    sieve[:2] = b"\0\0"
    for d in range(2, math.isqrt(limit - 1) + 1):
        if sieve[d]:
            sieve[d * d::d] = bytes(len(range(d * d, limit, d)))
    return [d for d in range(limit) if sieve[d]]


def _factor_by_division(m, primes):
    """The plain reference: divide by every prime up to sqrt(m)."""
    out = []
    for d in primes:
        if d * d > m:
            break
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
    return out + [m] if m > 1 else out


def _assert_factorization(m, qs):
    assert qs == sorted(set(qs))
    assert all(is_prime(q) for q in qs)
    rest = m
    for q in qs:
        assert rest % q == 0
        while rest % q == 0:
            rest //= q
    assert rest == 1


P31, Q31 = 2147483629, 2147483647  # the two largest primes below 2^31
P32, Q32 = 4294967279, 4294967291  # the two largest primes below 2^32


class TestPrimeFactors:
    def test_agrees_with_trial_division(self):
        primes = _trial_division_primes(10 ** 6)
        rng = random.Random(12)
        for _ in range(2000):
            m = rng.randrange(1, 10 ** 12)
            assert _prime_factors(m) == _factor_by_division(m, primes)

    @pytest.mark.parametrize("m,want", [
        (1, []),
        (2, [2]),
        (2 ** 63, [2]),
        (2 ** 61 - 1, [2 ** 61 - 1]),
        (TOP_GLUE_PRIME, [TOP_GLUE_PRIME]),
        (P31 * Q31, [P31, Q31]),
        (P32 * Q32, [P32, Q32]),
        (2 * 3 * P32 * Q32, [2, 3, P32, Q32]),
        (1009 * P31 * Q31, [1009, P31, Q31]),
        (Q32 ** 2, [Q32]),
        (1009 ** 5, [1009]),
        (1009 * 1013 * 1019, [1009, 1013, 1019]),
        (1009 ** 3 * 1013 ** 2 * 65521, [1009, 1013, 65521]),
        (999983 ** 2 * 2 ** 10, [2, 999983]),
    ])
    def test_hard_and_edge_cases(self, m, want):
        assert _prime_factors(m) == want
        _assert_factorization(m, want)

    def test_glue_primes_minus_one(self):
        rng = random.Random(13)
        for n in [rng.randrange(10 ** 6, TOP_DEGREE) for _ in range(40)] + [TOP_DEGREE]:
            p = find_glue_prime(n, "Sym")
            _assert_factorization(p - 1, _prime_factors(p - 1))

    def test_small_values_factor_by_division_alone(self, monkeypatch):
        # every p-1 of a degree up to 2 * 10^6 factors without a primality
        # test or a rho walk
        def refuse(m):
            raise AssertionError(f"{m} left trial division")

        monkeypatch.setattr(numth, "is_prime", refuse)
        monkeypatch.setattr(numth, "_rho", refuse)
        primes = _trial_division_primes(1000)
        for m in list(range(1, 5000)) + list(range(10 ** 6 - 5000, 10 ** 6)):
            assert _prime_factors(m) == _factor_by_division(m, primes)


class TestUnitGenerator:
    def test_full_group(self):
        assert group_unit_generator(11) == 2
        assert group_unit_generator(23) == 5
        assert group_unit_generator(47) == 5
        assert group_unit_generator(13) == 2
        with pytest.raises(BadPrimeClass, match="^9 is not prime$"):
            group_unit_generator(9)

    def test_squares_only(self):
        assert group_unit_generator(11, squares_only=True) == 3
        assert group_unit_generator(23, squares_only=True) == 2

    def test_returned_order_is_right(self):
        for p in (11, 23, 47, 59):
            r = group_unit_generator(p)
            assert {pow(r, e, p) for e in range(p - 1)} == set(range(1, p))
            q = group_unit_generator(p, squares_only=True)
            assert len({pow(q, e, p) for e in range(p - 1)}) == (p - 1) // 2


class TestGluePrime:
    def test_frozen_examples(self):
        assert find_glue_prime(16, "Alt") == 11
        assert find_glue_prime(17, "Sym") == 11
        assert find_glue_prime(15, "Alt") == 11
        assert find_glue_prime(14, "Sym") == 11
        assert find_glue_prime(27, "Alt") == 23
        assert find_glue_prime(44, "Sym") == 23
        assert find_glue_prime(50, "Sym") == 47
        assert find_glue_prime(51, "Alt") == 47
        assert find_glue_prime(64, "Alt") == 47

    def test_gap_degrees(self):
        for n in (12, 21, 22, 23, 24, 45, 46, 47, 48):
            with pytest.raises(UnsupportedDegree):
                find_glue_prime(n, "Alt")
            with pytest.raises(UnsupportedDegree):
                find_glue_prime(n, "Sym")

    def test_window_respected(self):
        # k = 2p + 4 - n must satisfy 6 <= k <= p (Alt) or p + 1 (Sym)
        for kind, k_hi_off in (("Alt", 0), ("Sym", 1)):
            for n in range(13, 300):
                try:
                    p = find_glue_prime(n, kind)
                except UnsupportedDegree:
                    continue
                k = 2 * p + 4 - n
                assert 6 <= k <= p + k_hi_off
                assert p % 12 == 11 and is_prime(p)

    @pytest.mark.parametrize("kind", ["Alt", "Sym"])
    @pytest.mark.parametrize("n,want", [
        (547941574903438726, 273970787451719543),
        (8075780279211968901, 4037890139605984463),
    ])
    def test_window_above_float_precision(self, kind, n, want):
        # above 2^53, (n + 2) / 2 in floating point rounds below the window
        p = find_glue_prime(n, kind)
        assert p == want
        assert p % 12 == 11 and 2 * p >= n + 2

    @pytest.mark.parametrize("kind", ["Alt", "Sym"])
    def test_params_above_float_precision_validate(self, kind):
        for n, k in ((547941574903438726, 364), (8075780279211968901, 29)):
            ps = validate_params(params_for(n, kind))
            assert ps.k == k

    @pytest.mark.parametrize("kind", ["Alt", "Sym"])
    def test_largest_degree_below_the_proven_bound(self, kind):
        assert find_glue_prime(TOP_DEGREE, kind) == TOP_GLUE_PRIME
        assert validate_params(params_for(TOP_DEGREE, kind)).p == TOP_GLUE_PRIME
        with pytest.raises(DegreeTooLarge, match=f"degree {TOP_DEGREE + 1} "):
            find_glue_prime(TOP_DEGREE + 1, kind)


class TestDeriveParams:
    def test_base_canonical_values(self):
        table = {
            (11, "Alt"): (3, 5, 9, 5),
            (11, "Sym"): (2, 10, 7, 10),
            (23, "Alt"): (2, 22, 16, 11),
            (23, "Sym"): (5, 17, 19, 22),
            (47, "Alt"): (2, 46, 21, 23),
            (47, "Sym"): (5, 35, 39, 46),
        }
        for (p, kind), (r, s, alpha, kappa) in table.items():
            ps = derive_params(kind, "BaseP2", p=p)
            assert (ps.r, ps.s, ps.alpha, ps.kappa) == (r, s, alpha, kappa)
            assert pow(ps.alpha, 3, p) == ps.r % p
            assert (ps.s * (ps.r - 1)) % p == p - 1

    def test_p3_values(self):
        table = {7: (-4, 5, 1), 11: (2, 6, 2), 13: (2, 7, 1), 23: (5, 14, 2)}
        for p, (j, jbar, k_sl) in table.items():
            ps = derive_params("Alt", "P3", p=p)
            assert (ps.j, ps.jbar, ps.k_sl) == (j, jbar, k_sl)
            assert (ps.j * ps.jbar) % p == 1
            # the adjusted j is never odd times an odd k
            assert (ps.j * ps.k_sl) % 2 == 0

    def test_glued(self):
        ps = derive_params("Alt", "Glued", n=17)
        assert (ps.p, ps.k, ps.n) == (11, 9, 17)
        ps = derive_params("Sym", "Glued", n=14)
        assert (ps.p, ps.k) == (11, 12)

    def test_prime_class_enforced(self):
        with pytest.raises(BadPrimeClass):
            derive_params("Alt", "BaseP2", p=13)  # 13 != 11 mod 12
        with pytest.raises(BadPrimeClass):
            derive_params("Sym", "BaseP2", p=13)  # 13 != 2 mod 3
        with pytest.raises(BadPrimeClass):
            derive_params("Sym", "BaseP2", p=3)


class TestValidateParams:
    def test_accepts_alternative_triple(self):
        # a non-canonical but valid generator choice
        ps = ParamSet(kind="Alt", n=13, p=11, r=5, s=8, alpha=3, kappa=5)
        assert validate_params(ps) is ps

    def test_rejects_bad_s(self):
        with pytest.raises(InternalInvariantViolation):
            validate_params(
                ParamSet(kind="Alt", n=13, p=11, r=5, s=7, alpha=3, kappa=5))

    def test_rejects_non_generator(self):
        # 4 has order 5 < 10 in F_11^*, not a generator of the full group
        with pytest.raises(InternalInvariantViolation):
            validate_params(
                ParamSet(kind="Sym", n=13, p=11, r=4, s=7, alpha=5, kappa=10))

    def test_rejects_wrong_kappa(self):
        with pytest.raises(InternalInvariantViolation):
            validate_params(
                ParamSet(kind="Alt", n=13, p=11, r=3, s=5, alpha=9, kappa=10))

    def test_rejects_wrong_prime_class(self):
        with pytest.raises(BadPrimeClass):
            validate_params(
                ParamSet(kind="Alt", n=15, p=13, r=3, s=6, alpha=7, kappa=6))

    def test_rejects_bad_glue_window(self):
        with pytest.raises(InternalInvariantViolation):
            validate_params(
                ParamSet(kind="Alt", n=2 * 11 + 4 - 5, p=11, k=5,
                         r=3, s=5, alpha=9, kappa=5))

    def test_p3_free_choice_j(self):
        # p = 13, k_sl = 1: any even j = 2 (mod 13) is a generator choice
        assert validate_params(ParamSet(kind="Alt", n=16, p=13, j=28, jbar=7, k_sl=1))
        with pytest.raises(InternalInvariantViolation):  # j*k_sl odd
            validate_params(ParamSet(kind="Alt", n=16, p=13, j=15, jbar=7, k_sl=1))
        with pytest.raises(InternalInvariantViolation):  # 4 has order 6
            validate_params(ParamSet(kind="Alt", n=16, p=13, j=4, jbar=10, k_sl=1))

    def test_p3_prime_and_kind(self):
        with pytest.raises(BadPrimeClass):  # 3 is a prime outside the class
            validate_params(ParamSet(kind="Alt", n=14, p=3, j=2, jbar=6, k_sl=2))
        with pytest.raises(InternalInvariantViolation):
            validate_params(ParamSet(kind="Sym", n=14, p=11, j=2, jbar=6, k_sl=2))
        with pytest.raises(UnsupportedDegree):
            derive_params("Sym", "P3", p=11)

    def test_kind_must_be_spelt_as_derived(self):
        # a lower-case kind would pass the builders' ps.kind == "Alt" tests
        # as Sym, so it is refused by name before any builder reads it
        ps = replace(derive_params("Alt", "Glued", n=17), kind="alt")
        with pytest.raises(InternalInvariantViolation,
                           match=r"^kind = alt is not the derived Alt$"):
            validate_params(ps)
        with pytest.raises(InternalInvariantViolation, match=r"^kind = alt "):
            glued(17, "alt", params=ps)

    @pytest.mark.parametrize("kind,case,n", [
        ("Alt", "Glued", 17), ("Sym", "Glued", 10**18), ("Alt", "BaseP2", 13),
        ("Sym", "BaseP2", 25), ("Alt", "P3", 14)])
    def test_each_prime_is_proven_once(self, monkeypatch, kind, case, n):
        # the class is checked where p enters; the generator search after it
        # does not prove p again
        ps = derive_params(kind, case, n=n)
        proofs = []
        monkeypatch.setattr(numth, "is_prime", lambda m: proofs.append(m) or is_prime(m))
        assert derive_params(kind, case, n=n) == ps
        assert proofs.count(ps.p) == 1
        proofs.clear()
        assert validate_params(ps) is ps
        assert proofs.count(ps.p) == 1

    def test_json_round_trip(self):
        ps = derive_params("Sym", "Glued", n=17)
        assert ParamSet(**ps.to_json()) == ps
        assert "j" not in ps.to_json()


@functools.cache
def _pinned_param_sets():
    """params_for at every covered degree up to 2000 of both kinds, then
    derive_params in the base and degree p+3 cases for every p < 200; a
    refused derivation enters as the name of its exception."""
    out = [params_for(n, kind) for kind in ("Alt", "Sym")
           for n in covered_degrees(13, 2000, kind)]
    for p in range(200):
        for kind, case in (("Alt", "BaseP2"), ("Sym", "BaseP2"),
                           ("Alt", "P3"), ("Sym", "P3")):
            try:
                out.append(derive_params(kind, case, p=p))
            except (BadPrimeClass, UnsupportedDegree) as exc:
                out.append(type(exc).__name__)
    return out


def _one_field_mutations(seed=15, per_set=3):
    """Seeded copies of the pinned ParamSets with one field changed: the kind
    flipped, or an integer moved by 1, by p, or to a value in [-p, 2p)."""
    rng = random.Random(seed)
    for ps in _pinned_param_sets():
        if not isinstance(ps, ParamSet):
            continue
        for _ in range(per_set):
            data = ps.to_json()
            name = rng.choice(sorted(data))
            v = data[name]
            if name == "kind":
                data[name] = "Sym" if v == "Alt" else "Alt"
            else:
                data[name] = rng.choice(
                    (v - 1, v + 1, v - ps.p, v + ps.p, rng.randrange(-ps.p, 2 * ps.p)))
            yield ParamSet(**data)


# sha256 over the pinned ParamSets (their JSON or the exception name) and the
# outcome of validate_params on each one-field mutation ("ok" or the exception
# name), recorded before validate_params re-derived the fields it checks.
PARAMS_DIGEST = "6ddaf4f585f53109804b1f49487b647d3a34c19cfc0e666b2a887ac46eca553a"


def test_parameter_rules_digest():
    digest = hashlib.sha256()
    for ps in _pinned_param_sets():
        digest.update(json.dumps(ps.to_json() if isinstance(ps, ParamSet) else ps).encode())
    for ps in _one_field_mutations():
        try:
            outcome = "ok" if validate_params(ps) is ps else "other"
        except (BadPrimeClass, InternalInvariantViolation) as exc:
            outcome = type(exc).__name__
        digest.update(json.dumps([ps.to_json(), outcome]).encode())
    assert digest.hexdigest() == PARAMS_DIGEST


def test_derived_params_validate_as_themselves():
    for ps in _pinned_param_sets():
        if isinstance(ps, ParamSet):
            assert validate_params(ps) is ps, ps
