"""Presentation builders: golden outputs, branch structure, image claims.

The two degree-17 straight-line programs below are frozen outputs; every
word in them was machine-checked to evaluate to the identity (or, for the
definitions, to its expected permutation) before freezing.
"""

import hashlib
import json

import pytest
from helpers import claim_failures

from shortpres.builders import (
    MATERIALIZE_MAX_DEGREE,
    agl_examples,
    alt_p3,
    base_p2,
    base_p2_hat,
    carmichael,
    covered_degrees,
    emit,
    glue_map_image,
    glued,
    moore,
    params_for,
    presentation_for,
    presentation_json,
)
from shortpres.errors import (
    BadPrimeClass,
    InternalInvariantViolation,
    UnsupportedDegree,
)
from shortpres.numth import ParamSet, derive_params, is_prime
from shortpres.perm import Permutation
from shortpres.words import Slp, evaluate_slp, simplify, to_text

GOLDEN_ALT_17 = """\
generators: a g y
b := g^3
z := g^5
h := (b^2 z^a z^(a^-1))^6
x := z (z^a)^-1 z
atil := (z^(a^3))^(z^(a^2) z^a)
c := a^2 (a x)^-2 a
d := z z^((z a)^-2) a^2 (a x)^4 a^5
e := z a^-1 (a x)^2 a^-1
ytil := z^a z^-1 z^a z^(a^2) (z^(a^-1))^-1 z^(a^2)
ztil := ytil^y
xtil := ytil^ztil
u := z a (z a)^y
w := xtil u^-2 xtil u^2
relator: a^11 b^-5
relator: (a^5)^b a^-4
relator: (z z^a)^2
relator: atil ((atil h)^y)^-1
relator: c (c^y)^-1
relator: [d,e^y]
relator: y w^-1
"""

GOLDEN_SYM_17 = """\
generators: a g y
b := g^3
z := g^10
h := (b^2 z^a z^(a^2))^6
x := z (z^a)^-1 z
atil := (z^(a^3))^(z^(a^2) z^a)
cbull := a^-5 (a x)^4 a^-5 (a x)^-4 a^-1
v := (cbull z^a (z^(a^-1))^-1 z^a)^5
t := v b^5
c := a^2 (a x)^-3 a^2 t
d := z z^((z a)^-2) a^2 (a x)^4 a^5
e := z a t a^-3 (a x)^3 a^-1
ytil := z^a z^-1 z^a z^(a^2) (z^(a^-1))^-1 z^(a^2)
ztil := ytil^y
xtil := ytil^ztil
u := z a (z a)^y
w := xtil u^-2 xtil u^2
relator: a^11 b^-10
relator: (a^-1)^b a^2
relator: (z z^a)^2
relator: atil ((atil h)^y)^-1
relator: c (c^y)^-1
relator: [d,e^y]
relator: y w^-1
"""


def relator_texts(pres):
    return [to_text(w) for w in pres.slp.relators]


def all_identity(pres):
    _, values = evaluate_slp(pres.slp, pres.images)
    return all(v.is_identity() for v in values)


class TestBaseP2:
    def test_shape_and_golden_relators(self):
        pres = base_p2(11, "Alt")
        assert pres.slp.generators == ("a", "g")
        assert [n for n, _ in pres.slp.definitions] == ["b", "z", "h"]
        assert relator_texts(pres) == [
            "a^11 b^-5", "(a^5)^b a^-4", "(z z^a)^2", "h"]
        assert pres.degree == 13 and pres.domain == (1, 13)
        assert (pres.slp.bit_length(), pres.slp.word_length()) == (70, 167)

    def test_sym_uses_double_b_and_full_order(self):
        pres = base_p2(11, "Sym")
        defs = dict(pres.slp.definitions)
        assert to_text(defs["z"]) == "g^10"
        assert to_text(defs["h"]) == "(b^2 z^a z^(a^2))^6"
        assert relator_texts(pres)[:2] == ["a^11 b^-10", "(a^-1)^b a^2"]

    @pytest.mark.parametrize("p", [11, 23, 47])
    @pytest.mark.parametrize("kind", ["Alt", "Sym"])
    def test_relators_evaluate_to_identity(self, p, kind):
        assert all_identity(base_p2(p, kind))

    def test_accepts_alternative_valid_parameters(self):
        ps = ParamSet(kind="Alt", n=13, p=11, r=5, s=8, alpha=3, kappa=5)
        pres = base_p2(11, "Alt", params=ps)
        # the residue 8 lifts to -3, which costs fewer bits
        assert relator_texts(pres)[1] == "(a^-3)^b a^4"
        assert all_identity(pres)

    def test_simplify_false_keeps_literal_residues(self):
        pres = base_p2(11, "Sym", simplify=False)
        assert relator_texts(pres)[1] == "(a^10)^b a^-9"
        assert all_identity(pres)

    def test_inconsistent_parameters_rejected(self):
        good = ParamSet(kind="Alt", n=13, p=11, r=3, s=5, alpha=9, kappa=5)
        for bad in (
            ParamSet(kind="Alt", n=14, p=11, r=3, s=5, alpha=9, kappa=5),
            ParamSet(kind="Sym", n=13, p=11, r=2, s=10, alpha=7, kappa=10),
        ):
            with pytest.raises(InternalInvariantViolation):
                base_p2(11, "Alt", params=bad)
        assert all_identity(base_p2(11, "Alt", params=good))

    def test_images_omitted_above_materialization_cap(self):
        pres = base_p2(10000019, "Alt")
        assert pres.degree > MATERIALIZE_MAX_DEGREE
        assert pres.images is None
        assert pres.slp.bit_length() > 0

    def test_bad_prime_class(self):
        with pytest.raises(BadPrimeClass):
            base_p2(13, "Alt")  # 13 = 1 (mod 12)
        with pytest.raises(BadPrimeClass):
            base_p2(7, "Sym")  # 7 = 1 (mod 3)


class TestBaseP2Hat:
    @pytest.mark.parametrize("kind,out_kind", [("Alt", "AltTimesT"), ("Sym", "SymHat")])
    def test_drops_final_relator_keeps_h(self, kind, out_kind):
        pres = base_p2_hat(11, kind)
        assert pres.kind == out_kind
        assert len(pres.slp.relators) == 3
        assert [n for n, _ in pres.slp.definitions] == ["b", "z", "h"]
        assert all_identity(pres)

    @pytest.mark.parametrize("p", [11, 23])
    @pytest.mark.parametrize("kind,power", [("Alt", 1), ("Sym", 2)])
    def test_h_image_is_residual_multiplication(self, p, kind, power):
        pres = base_p2_hat(p, kind)
        values, _ = evaluate_slp(pres.slp, pres.images)
        h = values["h"]
        assert h.left.is_identity()
        assert h.right == values["b"].right ** power
        assert h.right.order() == (p - 1) // 2
        assert h.right.order() % 3 != 0


class TestAglExamples:
    @pytest.mark.parametrize("variant", ["AltAGL", "AltAGL2", "SymAGL"])
    @pytest.mark.parametrize("extra", [False, True])
    def test_shapes_and_identity(self, variant, extra):
        pres = agl_examples(11, variant, with_extra_relator=extra)
        assert pres.slp.generators == ("a", "b", "z")
        assert len(pres.slp.relators) == (6 if extra else 5)
        assert all_identity(pres)
        if extra:
            assert pres.kind == ("Sym" if variant == "SymAGL" else "Alt")
        else:
            assert pres.kind == ("SymHat" if variant == "SymAGL" else "AltTimesT")

    def test_variant_guards(self):
        with pytest.raises(InternalInvariantViolation):
            agl_examples(11, "NoSuchVariant")
        with pytest.raises(BadPrimeClass):
            agl_examples(13, "AltAGL2")  # needs p = 3 (mod 4)
        with pytest.raises(BadPrimeClass):
            agl_examples(9, "AltAGL")
        assert all_identity(agl_examples(13, "SymAGL"))


# sha256 of json.dumps(presentation_json(...)) over every AGL variant, with
# and without the extra relator and simplification, in that order, recorded
# before agl_examples took its relators from the base-case words.
AGL_DIGESTS = {
    11: "9059b577e25fbaed7f86cc6c9ab8085c73464a7c2854b5e1f2750ded9b210472",
    23: "f20615799fb3539ab15ec2aad303d2c8d31a4d5b8c44e5febefc84de3ba6e4a5",
    47: "ffa9b16c83028338e214f2275d70813e3ef675979c7bdc77671cdead523a7fd5",
}


@pytest.mark.parametrize("p", list(AGL_DIGESTS))
def test_agl_json_digest(p):
    digest = hashlib.sha256()
    for variant in ("AltAGL", "AltAGL2", "SymAGL"):
        for extra in (False, True):
            for simp in (False, True):
                pres = agl_examples(p, variant, with_extra_relator=extra,
                                    simplify=simp)
                digest.update(json.dumps(presentation_json(pres)).encode())
    assert digest.hexdigest() == AGL_DIGESTS[p]


class TestAltP3:
    @pytest.mark.parametrize("p", [7, 11, 13, 23])
    def test_relators_evaluate_to_identity(self, p):
        pres = alt_p3(p)
        assert pres.degree == p + 3
        assert pres.slp.generators == ("x", "y", "z")
        assert len(pres.slp.relators) == 7
        assert [n for n, _ in pres.slp.definitions] == ["h"]
        assert all_identity(pres)

    def test_images(self):
        pres = alt_p3(11)
        assert pres.images["y"] == Permutation.from_cycles(
            [tuple(range(1, 12))], 1, 14)
        assert pres.images["z"] == Permutation.from_cycles([(12, 13, 14)], 1, 14)
        x = pres.images["x"]
        assert (x * x).is_identity()
        assert x(13) == 13 and x(14) == 14

    def test_bad_prime(self):
        with pytest.raises(BadPrimeClass):
            alt_p3(9)


BRANCH_TABLE = [
    # kind, n, p, k, definition names, w text
    ("Sym", 14, 11, 12,
     ["b", "z", "h", "x", "atil", "cbull", "v", "t", "c", "d", "e", "w"],
     "t^(y z)"),
    ("Sym", 15, 11, 11,
     ["b", "z", "h", "x", "atil", "cbull", "v", "t", "c", "d", "e", "w"],
     "z^(y z^-1) z^(y z)"),
    ("Sym", 16, 11, 10,
     ["b", "z", "h", "x", "atil", "cbull", "v", "t", "c", "d", "e", "w"],
     "z^(a y a^-1 z^-1) z^(a y a^-1 z) (z^a z^-1 z^a t)^(y a^-1)"),
    ("Sym", 17, 11, 9,
     ["b", "z", "h", "x", "atil", "cbull", "v", "t", "c", "d", "e",
      "ytil", "ztil", "xtil", "u", "w"],
     "xtil u^-2 xtil u^2"),
    ("Sym", 18, 11, 8,
     ["b", "z", "h", "x", "atil", "cbull", "v", "t", "c", "d", "e",
      "ytil", "ztil", "xtil", "u", "w"],
     "t^(z a y (z a)^-1) xtil u^-2 xtil u^2"),
    ("Alt", 15, 11, 11,
     ["b", "z", "h", "x", "atil", "c", "d", "e", "w"],
     "z^(y z^-1) z^(y z)"),
    ("Alt", 16, 11, 10,
     ["b", "z", "h", "x", "atil", "c", "d", "e", "w"],
     "(z^a (z^(a^-1))^-1 z^a)^(z a y a^-1 z^-2 a^-1) ((z^a)^(y a^-1 z^-1))^-1"),
    ("Alt", 17, 11, 9,
     ["b", "z", "h", "x", "atil", "c", "d", "e", "ytil", "ztil", "xtil", "u", "w"],
     "xtil u^-2 xtil u^2"),
    ("Alt", 18, 11, 8,
     ["b", "z", "h", "x", "atil", "c", "d", "e", "ytil", "ztil", "xtil", "w"],
     "(z^a (z^(a^-1))^-1 z^a)^(z a y a^-1 z^-2 a^-1) ((z^a)^(y a^-1 z^-1))^-1 xtil"),
    ("Alt", 20, 11, 6,
     ["b", "z", "h", "x", "atil", "c", "d", "e", "ytil", "ztil", "xtil", "u", "w"],
     "(z^a (z^(a^-1))^-1 z^a)^(z a y a^-1 z^-2 a^-1) ((z^a)^(y a^-1 z^-1))^-1"
     " xtil u^-2 xtil u^2"),
]


class TestGlued:
    def test_golden_alt_17(self):
        assert presentation_for(17, "Alt").slp.to_text() == GOLDEN_ALT_17

    def test_golden_sym_17(self):
        assert presentation_for(17, "Sym").slp.to_text() == GOLDEN_SYM_17

    @pytest.mark.parametrize("kind,n,p,k,names,w_text", BRANCH_TABLE)
    def test_branch_structure(self, kind, n, p, k, names, w_text):
        pres = presentation_for(n, kind)
        assert (pres.params.p, pres.params.k) == (p, k)
        assert [nm for nm, _ in pres.slp.definitions] == names
        assert to_text(dict(pres.slp.definitions)["w"]) == w_text
        assert len(pres.slp.relators) == 7
        assert pres.domain == (k - p - 1, p + 2)
        assert all_identity(pres)

    @pytest.mark.parametrize("n,kind", [
        (19, "Alt"), (26, "Sym"), (27, "Alt"), (28, "Alt"), (30, "Alt"),
        (44, "Sym"), (50, "Sym"), (51, "Alt"), (51, "Sym")])
    def test_relators_identity_across_windows(self, n, kind):
        assert all_identity(presentation_for(n, kind))

    def test_glue_map_matches_y_image(self):
        for n, kind in [(17, "Alt"), (18, "Alt"), (16, "Sym")]:
            pres = presentation_for(n, kind)
            lo, hi = pres.domain
            assert pres.images["y"] == glue_map_image(
                pres.params.p, pres.params.k, kind, lo, hi)

    def test_even_alternating_glue_map_has_one_4_cycle(self):
        ybar = glue_map_image(11, 8, "Alt", -4, 13)
        lens = sorted(len(c) for c in ybar.cycles())
        assert lens == [2, 2, 2, 4]
        assert ybar(-4) == 13 and ybar(13) == -3 and ybar(-3) == 12
        # the odd case is a clean involution
        assert all(len(c) == 2 for c in glue_map_image(11, 9, "Alt", -3, 13).cycles())

    def test_inconsistent_parameters_rejected(self):
        ps = params_for(17, "Alt")
        with pytest.raises(InternalInvariantViolation):
            glued(18, "Alt", params=ps)

    def test_images_omitted_above_materialization_cap(self):
        pres = presentation_for(10_000_100, "Alt")
        assert pres.images is None
        assert pres.params.p == 5000087 and pres.params.k == 78
        assert pres.slp.bit_length() == 519


def every_k_params(p, kind):
    """Hand-picked glued parameters at p for every admissible k: [6, p+1]
    for Sym, [6, p] for Alt, with the base-case r, s, alpha and kappa."""
    base = derive_params(kind, "BaseP2", p=p)
    k_hi = p + 1 if kind == "Sym" else p
    return [ParamSet(kind=kind, n=2 * p + 4 - k, p=p, k=k, r=base.r, s=base.s,
                     alpha=base.alpha, kappa=base.kappa)
            for k in range(6, k_hi + 1)]


EVERY_K_PRIMES = [(p, kind) for p in (11, 23, 47) for kind in ("Alt", "Sym")]

# sha256 of emit(..., "slp") with and without simplification, at every k of
# EVERY_K_PRIMES and of Sym at p = 17, 29 and 41 (p = 5 mod 12, whose
# relators do not all hold yet), recorded before _glued_w stated its
# telescope tail once.
EVERY_K_DIGEST = "0354692a9c6d373806c478f12aa04674503fe67368c1713cacf6c42fc8ae4819"


@pytest.mark.parametrize("p,kind", EVERY_K_PRIMES)
def test_every_admissible_k_gives_identities(p, kind):
    params = every_k_params(p, kind)
    assert len(params) == (p - 4 if kind == "Sym" else p - 5)
    for ps in params:
        assert all_identity(glued(ps.n, kind, params=ps)), (ps.n, ps.k)


def test_every_admissible_k_slp_digest():
    digest = hashlib.sha256()
    for p, kind in EVERY_K_PRIMES + [(17, "Sym"), (29, "Sym"), (41, "Sym")]:
        for ps in every_k_params(p, kind):
            for simp in (True, False):
                pres = glued(ps.n, kind, params=ps, simplify=simp)
                digest.update(emit(pres).encode())
    assert digest.hexdigest() == EVERY_K_DIGEST


class TestImageClaims:
    @pytest.mark.parametrize("n,kind", [
        (17, "Alt"), (17, "Sym"), (14, "Sym"), (15, "Sym"), (16, "Sym"),
        (15, "Alt"), (16, "Alt"), (18, "Alt"), (20, "Alt"),
        (28, "Alt"), (44, "Sym"), (51, "Alt"), (50, "Sym")])
    def test_every_ingredient_word_has_its_expected_image(self, n, kind):
        assert claim_failures(presentation_for(n, kind)) == []

    def test_uniform_tail_formula_fails_exactly_on_even_alternating(self):
        for n, kind in [(18, "Alt"), (16, "Alt"), (28, "Alt")]:
            assert claim_failures(presentation_for(n, kind), claimed_u=True) == [
                f"Alt n={n}: (z a)^y"]
        for n, kind in [(17, "Alt"), (18, "Sym"), (14, "Sym")]:
            assert claim_failures(presentation_for(n, kind), claimed_u=True) == []


class TestDispatch:
    def test_case_selection(self):
        assert presentation_for(13, "Alt").case == "base_p2"
        assert presentation_for(13, "Sym").params.p == 11
        assert presentation_for(14, "Alt").case == "alt_p3"
        sym14 = presentation_for(14, "Sym")
        assert sym14.case == "glued" and sym14.params.k == 12
        assert presentation_for(25, "Sym").params.p == 23
        assert presentation_for(26, "Alt").case == "alt_p3"
        assert presentation_for(26, "Sym").params.k == 24
        assert presentation_for(49, "Alt").params.p == 47

    def test_uncovered_degrees(self):
        for n in (3, 12, 21, 22, 23, 24, 45, 46, 47, 48):
            for kind in ("Alt", "Sym"):
                with pytest.raises(UnsupportedDegree):
                    presentation_for(n, kind)

    def test_covered_degrees_window(self):
        expected = (list(range(13, 21)) + list(range(25, 45))
                    + list(range(49, 52)))
        assert covered_degrees(13, 51, "Alt") == expected
        assert covered_degrees(13, 51, "Sym") == expected

    def test_parameters_of_another_case_rejected(self):
        # right degree and kind, wrong construction case
        glued_73 = derive_params("Alt", "Glued", n=73)
        glued_74 = derive_params("Alt", "Glued", n=74)
        base_73 = derive_params("Alt", "BaseP2", n=73)
        for build in (lambda: base_p2(71, "Alt", params=glued_73),
                      lambda: alt_p3(71, params=glued_74),
                      lambda: glued(73, "Alt", params=base_73)):
            with pytest.raises(InternalInvariantViolation):
                build()

    def test_params_for_agrees_with_built_presentation(self):
        for n, kind in [(17, "Alt"), (14, "Sym"), (26, "Alt"), (25, "Alt")]:
            assert params_for(n, kind) == presentation_for(n, kind).params


class TestReducedWords:
    """The builders reduce exponents as they build each word, so reducing a
    built definition again changes nothing."""

    @staticmethod
    def assert_reduced(pres):
        orders = {"a": pres.params.p}
        for name, w in pres.slp.definitions:
            assert simplify(w, orders) == w, (pres.degree, pres.kind, name)

    @pytest.mark.parametrize("kind", ["Alt", "Sym"])
    def test_covered_degrees(self, kind):
        for n in covered_degrees(13, 2000, kind):
            self.assert_reduced(presentation_for(n, kind))

    @pytest.mark.parametrize("kind", ["Alt", "Sym"])
    def test_base_case_primes(self, kind):
        admissible = 11 if kind == "Alt" else 2
        modulus = 12 if kind == "Alt" else 3
        for p in range(5, 2000):
            if p % modulus == admissible and is_prime(p):
                self.assert_reduced(base_p2(p, kind))

    @pytest.mark.parametrize("kind", ["Alt", "Sym"])
    def test_literal_exponents_still_give_identities(self, kind):
        for n in covered_degrees(13, 200, kind):
            assert all_identity(presentation_for(n, kind, simplify=False)), n


class TestEmission:
    def test_slp_format_has_metadata_header(self):
        text = emit(presentation_for(17, "Alt"))
        head, _, body = text.partition("generators:")
        assert "# degree: 17" in head and "# kind: Alt" in head
        assert "# case: glued" in head
        assert ("generators:" + body) == GOLDEN_ALT_17

    def test_flat_format_inlines_definitions(self):
        flat = emit(base_p2(11, "Alt"), "flat")
        assert flat.splitlines() == [
            "a^11*(g^3)^-5",
            "(a^5)^(g^3)*a^-4",
            "(g^5*(g^5)^a)^2",
            "(g^3*(g^5)^a*(g^5)^(a^-1))^6",
        ]

    def test_json_format_round_trips(self):
        pres = presentation_for(17, "Sym")
        data = json.loads(emit(pres, "json"))
        assert data["degree"] == 17 and data["kind"] == "Sym"
        assert data["params"]["p"] == 11
        assert data["domain"] == [-3, 13]
        assert data["slp"] == Slp.from_text(GOLDEN_SYM_17).to_json()
        assert data["images"]["a"] == "(1,2,3,4,5,6,7,8,9,10,11)"
        assert data["images"]["y"] == "(-3,13)(-2,12)(-1,11)(0,10)"

    def test_json_pair_images(self):
        data = presentation_json(base_p2_hat(11, "Alt"))
        assert isinstance(data["images"]["a"], list)
        assert data["images"]["a"][1] == "(1,2,3,4,5,6,7,8,9,10,11)"

    def test_unknown_format_rejected(self):
        with pytest.raises(InternalInvariantViolation):
            emit(base_p2(11, "Alt"), "xml")


class TestBaselinePresentations:
    def test_moore_counts_and_identity(self):
        pres = moore(6)
        assert len(pres.slp.generators) == 5
        assert len(pres.slp.relators) == 15  # n(n-1)/2
        assert pres.kind == "Baseline" and pres.degree == 6
        assert all_identity(pres)
        assert moore(2).degree == 2

    def test_moore_bit_length_is_quadratic_scale(self):
        assert (moore(20).slp.bit_length()
                > presentation_for(20, "Sym").slp.bit_length())

    def test_carmichael_counts_and_identity(self):
        pres = carmichael(6)
        assert len(pres.slp.generators) == 6
        assert len(pres.slp.relators) == 21  # n + n(n-1)/2
        assert pres.degree == 8
        assert all_identity(pres)

    def test_too_small(self):
        with pytest.raises(UnsupportedDegree):
            moore(1)
        with pytest.raises(UnsupportedDegree):
            carmichael(1)
