"""Structural word algebra: construction, metrics, text, JSON, evaluation.

Bit-length and word-length values below are hand-computed from the
conventions documented in the words module docstring.
"""

import gc
import re
import weakref

import pytest
from hypothesis import example, given, seed, settings
from hypothesis import strategies as st

from helpers import split_from
from shortpres import words
from shortpres.errors import InternalInvariantViolation, MalformedText, UnboundSymbol
from shortpres.builders import base_p2_hat, glued, presentation_for
from shortpres.perm import Permutation, parse_cycles
from shortpres.verify import check_relators
from shortpres.words import (
    Comm,
    Conj,
    Factor,
    GroupWord,
    ProductPair,
    Slp,
    Sym,
    bit_length,
    comm,
    conj,
    evaluate,
    evaluate_slp,
    exponent_bits,
    least_absolute,
    parse_word,
    relator_values,
    simplify,
    sym,
    to_text,
    word_length,
)

a, b, c = sym("a"), sym("b"), sym("c")


class TestConstruction:
    def test_mul_merges_adjacent_equal_bases(self):
        w = a * a
        assert w.factors == (Factor(Sym("a"), 2),)
        assert a ** 3 * a ** -1 == a ** 2

    def test_mul_cancels_to_empty(self):
        assert (a * ~a).is_empty()
        assert (a ** 2 * a ** -2).is_empty()

    def test_mul_does_not_merge_across_distinct_bases(self):
        w = a * b * a
        assert len(w.factors) == 3

    def test_pow_zero_is_empty(self):
        assert (a ** 0).is_empty()
        assert ((a * b) ** 0).is_empty()

    def test_pow_of_the_empty_word_is_empty(self):
        # no empty group, which would print as "(1)^3"
        assert GroupWord() ** 3 == GroupWord()
        assert (a * ~a) ** -2 == GroupWord()

    def test_pow_one_is_identity_operation(self):
        assert (a * b) ** 1 == a * b

    def test_pow_folds_single_factor(self):
        assert (a ** 2) ** 3 == a ** 6
        assert (a ** 2) ** -1 == a ** -2

    def test_pow_groups_multi_factor(self):
        w = (a * b) ** 3
        assert len(w.factors) == 1
        f = w.factors[0]
        assert isinstance(f.base, GroupWord) and f.exp == 3

    def test_invert_distributes_and_reverses(self):
        w = ~(a * b ** -2)
        assert w == b ** 2 * a ** -1
        assert (w * (a * b ** -2)).is_empty()

    def test_invert_differs_from_pow_minus_one(self):
        # ** -1 wraps a multi-factor word; ~ rewrites it letter by letter.
        w = a * b
        grouped = w ** -1
        assert len(grouped.factors) == 1 and grouped.factors[0].exp == -1
        assert ~w == b ** -1 * a ** -1

    def test_conj_and_comm_constructors(self):
        t = conj(a, b)
        assert isinstance(t.factors[0].base, Conj)
        k = comm(a, b)
        assert isinstance(k.factors[0].base, Comm)

    def test_zero_exponent_factor_rejected(self):
        with pytest.raises(InternalInvariantViolation):
            Factor(Sym("a"), 0)


class TestMetrics:
    def test_exponent_bits(self):
        assert exponent_bits(1) == 1
        assert exponent_bits(2) == 2
        assert exponent_bits(13) == 4
        assert exponent_bits(-1) == 2
        assert exponent_bits(-13) == 5

    def test_symbol_bit_length(self):
        assert bit_length(a) == 2  # basecost 1 + one bit for the exponent 1
        assert bit_length(a ** 13) == 5
        assert bit_length(a ** -5) == 1 + 3 + 1

    def test_conjugate_bit_length(self):
        # base bl(a)+bl(b)+2 = 6, exponent 1 costs 1 bit
        assert bit_length(conj(a, b)) == 7

    def test_commutator_bit_length(self):
        # base 2*2 + 2*2 + 4 = 12, exponent bit 1
        assert bit_length(comm(a, b)) == 13

    def test_grouped_bit_length(self):
        # (a b^-2)^3: inner 2 + 4 = 6, +2 for the parentheses, +2 for exp 3
        assert bit_length((a * b ** -2) ** 3) == 10

    def test_word_length_counts_expanded_letters(self):
        assert word_length(a ** 13) == 13
        assert word_length(comm(a, b)) == 4
        assert word_length((a * b ** -2) ** 3) == 9
        assert word_length(conj(a, b ** 2)) == 1 + 2 * 2

    def test_word_length_expands_definitions(self):
        defs = {"b": a ** 5, "c": sym("b") * sym("b")}
        assert word_length(sym("b"), defs) == 5
        assert word_length(sym("c") ** 2, defs) == 20


class TestSimplify:
    def test_least_absolute_range_and_tie(self):
        assert least_absolute(6, 11) == -5
        assert least_absolute(5, 11) == 5
        assert least_absolute(3, 6) == 3  # tie at m/2 goes positive
        assert least_absolute(-4, 6) == 2
        assert least_absolute(17, 11) == -5

    def test_reduces_symbol_exponent(self):
        assert simplify(a ** 6, {"a": 11}) == a ** -5
        assert simplify(a ** 6, {"a": 13}) == a ** 6

    def test_order_multiple_drops_factor(self):
        assert simplify(a ** 22, {"a": 11}).is_empty()

    def test_seam_remerges_after_reduction(self):
        # raw factors a^6 a^7 with order 13: the second reduces to a^-6
        w = GroupWord((Factor(Sym("a"), 6), Factor(Sym("a"), 7)))
        assert simplify(w, {"a": 13}).is_empty()

    def test_conjugate_inherits_target_order(self):
        w = conj(sym("z"), a) ** 7
        assert simplify(w, {"z": 3}) == conj(sym("z"), a)

    def test_recurses_into_subwords(self):
        w = (a ** 14 * b) ** 2
        got = simplify(w, {"a": 11})
        assert got == (a ** 3 * b) ** 2

    def test_unknown_orders_left_alone(self):
        w = a ** 100 * b ** -7
        assert simplify(w, {}) == w


class TestText:
    def test_basic_rendering(self):
        assert to_text(a ** 11 * b ** -5) == "a^11 b^-5"
        assert to_text(conj(a ** 5, b) * a ** -4) == "(a^5)^b a^-4"
        assert to_text((sym("z") * conj(sym("z"), a)) ** 2) == "(z z^a)^2"
        assert to_text(comm(a, conj(b, c))) == "[a,b^c]"
        assert to_text(GroupWord()) == "1"

    def test_conjugate_operands_parenthesized_when_compound(self):
        inner = conj(sym("z"), a ** 3)
        outer = conj(inner, conj(sym("z"), a ** 2) * conj(sym("z"), a))
        assert to_text(outer) == "(z^(a^3))^(z^(a^2) z^a)"

    @pytest.mark.parametrize(
        "text",
        [
            "a^11 b^-5",
            "(a^5)^b a^-4",
            "(z z^a)^2",
            "[d,e^y]",
            "y w^-1",
            "(z^(a^3))^(z^(a^2) z^a)",
            "(b^2 z^a z^(a^-1))^6",
            "a^2 (a x)^-2 a",
            "[a,b^c]^2 (a b)^-3",
            "1",
        ],
    )
    def test_parse_round_trip(self, text):
        w = parse_word(text)
        assert to_text(w) == text
        assert parse_word(to_text(w)) == w

    def test_parse_rejects_garbage(self):
        with pytest.raises(MalformedText):
            parse_word("a^")
        with pytest.raises(MalformedText):
            parse_word("(a")
        with pytest.raises(MalformedText):
            parse_word("a )")
        zero = "a factor's exponent is never 0"
        for text, message in (("a $", "cannot tokenize ' $'"),
                              ("()", "empty parentheses"),
                              ("a )", "unexpected token ')'"),
                              ("", "no word: the empty word is written 1"),
                              (" ", "no word: the empty word is written 1"),
                              ("a^0 a", f"exponent 0 at position 2: {zero}"),
                              ("[a^0,a]", f"exponent 0 at position 3: {zero}"),
                              ("(a b)^-0", f"exponent -0 at position 5: {zero}")):
            with pytest.raises(MalformedText, match=f"^{re.escape(message)}$"):
                parse_word(text)


class TestSlp:
    def build(self):
        return Slp(
            generators=("a", "g"),
            definitions=(("b", sym("g") ** 3), ("z", sym("g") ** 5)),
            relators=(a ** 11 * sym("b") ** -5, (sym("z") * conj(sym("z"), a)) ** 2),
        )

    def test_unbound_symbol_rejected(self):
        with pytest.raises(UnboundSymbol):
            Slp(("a",), (), (sym("q"),))
        with pytest.raises(UnboundSymbol):
            Slp(("a",), (("b", sym("q") ** 2),), ())

    def test_definition_order_enforced(self):
        # d references e, which is defined later
        with pytest.raises(UnboundSymbol):
            Slp(("a",), (("d", sym("e")), ("e", a ** 2)), ())

    def test_duplicate_definition_rejected(self):
        with pytest.raises(InternalInvariantViolation):
            Slp(("a",), (("b", a), ("b", a ** 2)), ())

    def test_text_round_trip(self):
        s = self.build()
        again = Slp.from_text(s.to_text())
        assert again.generators == s.generators
        assert again.definitions == s.definitions
        assert again.relators == s.relators

    def test_from_text_skips_comments_and_blanks(self):
        s = Slp.from_text("# note\n\ngenerators: a\n\nrelator: a^2\n")
        assert s.generators == ("a",)
        assert s.relators == (a ** 2,)

    @pytest.mark.parametrize("text, message", [
        ("generators: a\nrelator a^2\n", "unrecognized line 'relator a^2'"),
        ("relator: a^2\n", "missing generators line"),
        ("generators: a b\ngenerators: c\nrelator: c^2\n",
         "more than one generators line"),
        ("generators: a\n := a^2\n", "'' is not a symbol"),
        ("generators: a\nx y := a\n", "'x y' is not a symbol"),
        ("generators: 1a\n", "'1a' is not a symbol"),
        ("generators: a a\n", "symbol 'a' bound twice"),
        ("generators: a\nb := a\nb := a\n", "symbol 'b' bound twice"),
        ("generators: a\na := a^2\n", "symbol 'a' bound twice"),
        # to_text writes the empty word as 1 and never an exponent 0
        ("generators: a\nx := \nrelator: x\n",
         "no word: the empty word is written 1"),
        ("generators: a\nrelator:\n", "no word: the empty word is written 1"),
        ("generators: a\nrelator: a^0 a\n",
         "exponent 0 at position 2: a factor's exponent is never 0"),
        ("generators: a\nx := [a^0,a]\n",
         "exponent 0 at position 3: a factor's exponent is never 0"),
    ])
    def test_from_text_refuses_text_that_is_not_an_slp(self, text, message):
        with pytest.raises(MalformedText, match=f"^{re.escape(message)}$"):
            Slp.from_text(text)

    def test_bit_length_sums_parts(self):
        s = self.build()
        expected = 2  # the two generators
        expected += bit_length(sym("g") ** 3) + bit_length(sym("g") ** 5)
        expected += bit_length(s.relators[0]) + bit_length(s.relators[1])
        assert s.bit_length() == expected

    def test_word_length_expands_definitions(self):
        s = self.build()
        # a^11 b^-5 -> 11 + 5*3 = 26; (z z^a)^2 -> 2*(5 + 5 + 2) = 24
        assert s.word_length() == 26 + 24


class TestEvaluate:
    def env(self):
        n = 7
        return {
            "a": parse_cycles("(1,2,3,4,5,6,7)", 1, n),
            "b": parse_cycles("(1,2)", 1, n),
        }

    def test_left_factor_applies_first(self):
        env = {
            "a": parse_cycles("(1,2)", 1, 3),
            "b": parse_cycles("(2,3)", 1, 3),
        }
        got = evaluate(a * b, env)
        assert got == parse_cycles("(1,3,2)", 1, 3)

    def test_power_and_inverse(self):
        env = self.env()
        assert evaluate(a ** 7, env).is_identity()
        assert evaluate(a ** -2, env) == env["a"] ** -2

    def test_conjugate_matches_carrier(self):
        env = self.env()
        got = evaluate(conj(b, a), env)
        assert got == env["a"].inverse() * env["b"] * env["a"]

    def test_commutator_matches_carrier(self):
        env = self.env()
        got = evaluate(comm(a, b), env)
        want = (env["a"].inverse() * env["b"].inverse() * env["a"] * env["b"])
        assert got == want

    def test_empty_word_is_identity(self):
        env = self.env()
        assert evaluate(GroupWord(), env).is_identity()

    def test_unbound_symbol(self):
        with pytest.raises(UnboundSymbol):
            evaluate(sym("q"), self.env())

    def test_evaluation_is_a_homomorphism_on_sample_words(self):
        env = self.env()
        u = a ** 3 * b
        v = conj(b, a) * a ** -1
        assert evaluate(u * v, env) == evaluate(u, env) * evaluate(v, env)
        assert evaluate(~u, env) == evaluate(u, env).inverse()

    def test_evaluate_slp_produces_definitions_and_relators(self):
        s = Slp(
            generators=("a",),
            definitions=(("b", a ** 2),),
            relators=(a ** 7, sym("b") * a ** -2),
        )
        env = {"a": parse_cycles("(1,2,3,4,5,6,7)", 1, 7)}
        values, rel_values = evaluate_slp(s, env)
        assert values["b"] == env["a"] ** 2
        assert [v.is_identity() for v in rel_values] == [True, True]

    def test_evaluate_slp_requires_all_generators(self):
        s = Slp(generators=("a", "g"), definitions=(), relators=())
        with pytest.raises(UnboundSymbol):
            evaluate_slp(s, {"a": parse_cycles("(1,2)", 1, 2)})


class TestProductPair:
    def pair(self):
        l = parse_cycles("(1,2,3)", 1, 3)
        r = parse_cycles("(1,2)", 1, 2)
        return ProductPair(l, r)

    def test_componentwise_arithmetic(self):
        g = self.pair()
        assert (g * g).left == g.left ** 2
        assert g.inverse() * g == g.identity_like()
        assert (g ** 6).is_identity()
        assert not (g ** 3).is_identity()  # right component survives

    def test_order_is_lcm(self):
        assert self.pair().order() == 6

    def test_conjugate_componentwise(self):
        g = self.pair()
        h = ProductPair(parse_cycles("(2,3)", 1, 3), parse_cycles("()", 1, 2))
        got = g.conjugate(h)
        assert got.left == g.left.conjugate(h.left)
        assert got.right == g.right

    def test_identity_like(self):
        g = self.pair()
        e = g.identity_like()
        assert e.is_identity() and not g.is_identity()
        assert e.left.degree == 3 and e.right.degree == 2


@given(e=st.integers(-10 ** 9, 10 ** 9), m=st.integers(1, 10 ** 6))
@settings(max_examples=200, deadline=None)
def test_least_absolute_is_congruent_and_minimal(e, m):
    r = least_absolute(e, m)
    assert (r - e) % m == 0
    assert -m < 2 * r <= m


@given(exps=st.lists(st.integers(-9, 9), min_size=0, max_size=8))
@settings(max_examples=100, deadline=None)
def test_word_evaluation_matches_direct_product(exps):
    g = parse_cycles("(1,2,3,4,5)(6,7)", 1, 7)
    h = parse_cycles("(2,5)(3,6,7)", 1, 7)
    w = GroupWord()
    direct = g.identity_like()
    for i, e in enumerate(exps):
        base = a if i % 2 == 0 else b
        img = g if i % 2 == 0 else h
        if e:
            w = w * base ** e
            direct = direct * img ** e
    assert evaluate(w, {"a": g, "b": h}) == direct


# ---------------------------------------------------------------------------
# the cached evaluator against a plain one


def plain_evaluate(word, env, identity):
    """Left to right, every factor computed from scratch with the carrier's
    own power: no sharing between factors."""
    result = identity
    for f in word.factors:
        result = result * plain_base(f.base, env, identity) ** f.exp
    return result


def plain_base(base, env, identity):
    if isinstance(base, Sym):
        return env[base.name]
    if isinstance(base, Conj):
        t = plain_evaluate(base.target, env, identity)
        v = plain_evaluate(base.by, env, identity)
        return v.inverse() * t * v
    if isinstance(base, Comm):
        u = plain_evaluate(base.left, env, identity)
        v = plain_evaluate(base.right, env, identity)
        return u.inverse() * v.inverse() * u * v
    return plain_evaluate(base, env, identity)


EXPONENTS = st.sampled_from([1, -1, 2, -2, 3, -3, 7, -7])


def factor_lists(bases):
    """Nonempty factor lists in which a factor is often followed by its
    inverse, kept apart: the words are built without free reduction."""
    def expand(items):
        out = []
        for base, e, mirrored in items:
            out.append(Factor(base, e))
            if mirrored:
                out.append(Factor(base, -e))
        return GroupWord(tuple(out))

    return st.lists(st.tuples(bases, EXPONENTS, st.booleans()),
                    min_size=1, max_size=4).map(expand)


def nested_bases(names):
    leaves = st.sampled_from(names).map(Sym)
    return st.recursive(leaves, lambda inner: st.one_of(
        st.builds(Conj, factor_lists(inner), factor_lists(inner)),
        st.builds(Comm, factor_lists(inner), factor_lists(inner)),
        factor_lists(inner),  # a parenthesized subword
    ), max_leaves=5)


def random_images(draw, pairs):
    left = [Permutation(draw(st.permutations(range(-1, 5))), -1)
            for _ in range(2)]
    if not pairs:
        return dict(zip("ab", left))
    right = [Permutation(draw(st.permutations(range(1, 4))), 1)
             for _ in range(2)]
    return {t: ProductPair(x, y) for t, x, y in zip("ab", left, right)}


def record_programs(monkeypatch):
    made = []

    class Recording(words._Program):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(words, "_Program", Recording)
    return made


@seed(20261018)
@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cached_evaluation_matches_plain_evaluation(data):
    env = random_images(data.draw, data.draw(st.booleans()))
    identity = env["a"].identity_like()
    names = ["a", "b"]
    # a small shared pool of bases, so factors repeat across the program
    pool = data.draw(st.lists(nested_bases(names), min_size=1, max_size=3))
    defs = []
    for i in range(data.draw(st.integers(0, 3))):
        bases = st.one_of(st.sampled_from(pool), nested_bases(names))
        defs.append((f"d{i}", data.draw(factor_lists(bases))))
        names.append(f"d{i}")
    bases = st.one_of(st.sampled_from(pool), nested_bases(names))
    relators = data.draw(st.lists(factor_lists(bases), min_size=1, max_size=3))
    slp = Slp(("a", "b"), tuple(defs), tuple(relators))

    values, rel_values = evaluate_slp(slp, env)
    plain = dict(env)
    for name, w in defs:
        plain[name] = plain_evaluate(w, plain, identity)
        assert values[name] == plain[name]
    assert rel_values == [plain_evaluate(w, plain, identity) for w in relators]
    assert list(relator_values(slp, env)) == list(enumerate(rel_values))


class TestCachedEvaluator:
    def test_cache_is_empty_after_evaluate_slp(self, monkeypatch):
        made = record_programs(monkeypatch)
        for pres in (glued(17, "Alt"), glued(20, "Alt"), glued(18, "Sym"),
                     base_p2_hat(11, "Sym")):
            evaluate_slp(pres.slp, pres.images)
            assert sorted(i for i, _ in relator_values(pres.slp, pres.images)) == [
                *range(len(pres.slp.relators))]
        assert len(made) == 8
        assert all(program.live == {} for program in made)

    def test_stream_runs_each_relator_after_the_names_it_reads(self):
        """The stream keeps index order, whichever names a relator reads."""
        slp = Slp.from_text(
            "generators: a b\n"
            "c := a b\n"
            "d := c^2\n"
            "relator: d c^-2\n"
            "relator: a^2\n"
            "relator: c a\n"
            "relator: b^-1 a^-1 c\n")
        env = {"a": parse_cycles("(1,2)", 1, 3), "b": parse_cycles("(2,3)", 1, 3)}
        got = list(relator_values(slp, env))
        assert [i for i, _ in got] == [0, 1, 2, 3]
        assert got == list(enumerate(evaluate_slp(slp, env)[1]))

    def test_stream_frees_each_name_after_its_last_read(self, monkeypatch):
        made = record_programs(monkeypatch)
        slp = Slp.from_text(
            "generators: a b\n"
            "c := a b\n"
            "d := c^2\n"
            "relator: c^3\n"
            "relator: d b\n")
        env = {"a": parse_cycles("(1,2)", 1, 3), "b": parse_cycles("(2,3)", 1, 3)}
        stream = relator_values(slp, env)
        assert next(stream)[0] == 0
        (program,) = made
        # a is read once, by c; b stays for the second relator, and c for d
        assert program.live == {program.steps["name", "b"]: env["b"],
                                program.names["c"]: env["a"] * env["b"]}
        assert next(stream)[0] == 1
        assert program.live == {}
        assert set(env) == {"a", "b"}  # the caller's mapping is left alone

    def test_a_definition_only_a_late_relator_reads_waits_for_it(self, monkeypatch):
        made = record_programs(monkeypatch)
        slp = Slp.from_text(
            "generators: a b\n"
            "c := a^3\n"
            "d := b^2\n"
            "relator: d a\n"
            "relator: d b\n"
            "relator: c d\n")
        env = {"a": parse_cycles("(1,2,3,4)", 1, 4), "b": parse_cycles("(2,3)", 1, 4)}
        stream = relator_values(slp, env)
        for i in (0, 1):
            assert next(stream)[0] == i
            (program,) = made
            assert program.names["c"] not in program.live
        assert next(stream) == (2, env["a"] ** 3 * env["b"] ** 2)
        assert program.live == {}

    def test_a_step_reads_its_operands_in_compile_order(self):
        """d c computes c, defined first, before d."""
        slp = Slp.from_text(
            "generators: a b\n"
            "c := a b\n"
            "d := b a^2\n"
            "relator: d c\n")
        program = words._Program(dict.fromkeys(slp.generators))
        program.slp(slp, definitions=False)
        order = _run_order(program)[1]
        assert order.index(program.names["c"]) < order.index(program.names["d"])
        env = {"a": parse_cycles("(1,2,3)", 1, 3), "b": parse_cycles("(2,3)", 1, 3)}
        d, c = env["b"] * env["a"] ** 2, env["a"] * env["b"]
        assert list(relator_values(slp, env)) == [(0, d * c)]

    def test_a_relator_of_5000_factors_streams_without_recursion(self):
        """Running is iterative: a relator of 5,000 alternating factors is
        a chain of 4,999 products, deeper than the recursion limit."""
        word = GroupWord(tuple(Factor(Sym("ab"[i % 2]), 1) for i in range(5000)))
        slp = Slp(("a", "b"), (), (word,))
        env = {"a": parse_cycles("(1,2,3)", 1, 3), "b": parse_cycles("(2,3)", 1, 3)}
        assert list(relator_values(slp, env)) == [(0, (env["a"] * env["b"]) ** 2500)]
        assert evaluate(word, env) == (env["a"] * env["b"]) ** 2500

    def test_a_power_and_its_inverse_cost_one_power(self, monkeypatch):
        env = {"a": parse_cycles("(1,2,3,4,5,6,7)", 1, 7),
               "b": parse_cycles("(1,2)", 1, 7)}
        ab = GroupWord((Factor(GroupWord(a.factors + b.factors), 1),))
        word = GroupWord((Factor(ab, 5), Factor(b, 1), Factor(ab, -5)))
        powers = []
        real_pow = Permutation.__pow__

        def counting_pow(self, e):
            powers.append(e)
            return real_pow(self, e)

        monkeypatch.setattr(Permutation, "__pow__", counting_pow)
        got = evaluate(word, env)
        assert powers == [5]
        ab_val = env["a"] * env["b"]
        assert got == ab_val ** 5 * env["b"] * ab_val ** -5

    def test_a_factor_repeated_across_words_is_computed_once(self, monkeypatch):
        pres = glued(20, "Sym")
        assert pres.images  # built before counting
        conjugates = set()

        def walk(word):
            for f in word.factors:
                base = f.base
                if isinstance(base, (Conj, Comm)):  # [u,v] costs one u^v
                    conjugates.add(base)
                    walk(base.target if isinstance(base, Conj) else base.left)
                    walk(base.by if isinstance(base, Conj) else base.right)
                elif isinstance(base, GroupWord):
                    walk(base)

        for w in [w for _, w in pres.slp.definitions] + list(pres.slp.relators):
            walk(w)
        calls = []
        real_conjugate = Permutation.conjugate

        def counting_conjugate(self, g):
            calls.append(g)
            return real_conjugate(self, g)

        monkeypatch.setattr(Permutation, "conjugate", counting_conjugate)
        assert check_relators(pres).all_relators_identity
        assert len(calls) == len(conjugates) == 17

    def test_a_definition_no_relator_reads_is_not_evaluated(self, monkeypatch):
        slp = Slp.from_text("generators: a\nc := a^5\nrelator: a^2\n")
        env = {"a": parse_cycles("(1,2,3,4,5,6,7)", 1, 7)}
        powers = []
        real_pow = Permutation.__pow__

        def counting_pow(self, e):
            powers.append(e)
            return real_pow(self, e)

        monkeypatch.setattr(Permutation, "__pow__", counting_pow)
        assert [i for i, _ in relator_values(slp, env)] == [0]
        assert powers == [2]
        values, _ = evaluate_slp(slp, env)
        assert values["c"] == real_pow(env["a"], 5)


# ---------------------------------------------------------------------------
# powers of one base sharing their binary prefixes


@st.composite
def windowed_perms(draw):
    """A permutation of a random domain that moves a random stretch of it,
    so its window is often neither the whole domain nor at its start."""
    size, lo = draw(st.integers(1, 300)), draw(st.integers(-3, 3))
    first = draw(st.integers(0, size - 1))
    moved = draw(st.permutations(range(draw(st.integers(1, size - first)))))
    images = list(range(size))
    images[first:first + len(moved)] = [first + i for i in moved]
    return Permutation([lo + i for i in images], lo)


# exponents grown from a few roots by appending binary digits, so that
# they share prefixes with each other and with the roots
SHARING_EXPONENTS = st.lists(st.integers(2, 300), min_size=1, max_size=3).flatmap(
    lambda roots: st.lists(st.builds(
        lambda root, digits, low, sign: sign * (root << digits | low % (1 << digits)),
        st.sampled_from(roots), st.integers(0, 12), st.integers(0, 4095),
        st.sampled_from([1, -1])), min_size=1, max_size=8))


@seed(20261020)
@settings(max_examples=60, deadline=None)
@given(windowed_perms(), windowed_perms(), SHARING_EXPONENTS)
def test_shared_powers_equal_plain_powers(x, y, exponents):
    slp = Slp(("x",), (), tuple(sym("x") ** e for e in exponents))
    for base in (x, ProductPair(x, y)):
        got = dict(relator_values(slp, {"x": base}))
        assert [got[i] for i in range(len(exponents))] == [base ** e for e in exponents]


def test_shared_powers_agree_when_every_window_is_split():
    with split_from(0, 3):
        test_shared_powers_equal_plain_powers()


def _run_order(program):
    """The steps of a compiled program and every step it runs, in order."""
    steps, plan, _ = program._plan()
    return steps, [t for order, _, _ in plan for t in order]


def _power_gathers(step):
    """The squarings and products by the base that a power step runs."""
    op, param = step[:2]
    if op == "pow":
        return param.bit_length() + bin(param).count("1") - 2
    if op == "from":
        return len(param) + param.count("1")
    return 0


class TestSharedPowers:
    def test_a_prefix_two_powers_share_is_computed_once(self):
        slp = Slp.from_text("generators: x\nrelator: x^122\nrelator: x^-123\n")
        program = words._Program({"x": None})
        program.slp(slp, definitions=False)
        steps, order = _run_order(program)
        x = program.names["x"]
        prefix = steps.index(("pow", 61, x))
        readers = [steps.index(("from", bits, x, prefix)) for bits in "01"]
        assert [_power_gathers(steps[s]) for s in (prefix, *readers)] == [9, 1, 2]
        assert all(order.index(prefix) < order.index(s) for s in readers)

    def test_a_power_continues_from_an_exponent_read_later(self):
        """a^5 runs before a^11 reads it, although a^5 is compiled after."""
        slp = Slp.from_text("generators: a\nrelator: a^11\nrelator: a^5\n")
        program = words._Program({"a": None})
        program.slp(slp, definitions=False)
        steps, order = _run_order(program)
        five = program.steps["pow", 5, program.names["a"]]
        eleven = program.steps["pow", 11, program.names["a"]]
        assert steps[eleven] == ("from", "1", program.names["a"], five)
        assert order.index(five) < order.index(eleven) and five > eleven
        env = {"a": parse_cycles("(1,2,3,4,5,6,7,8)", 1, 8)}
        assert dict(relator_values(slp, env)) == {0: env["a"] ** 11, 1: env["a"] ** 5}

    def test_the_relator_program_of_sym_1500001_gathers_less(self):
        """Counted on the compiled program alone; no image is built."""
        slp = presentation_for(1500001, "Sym").slp
        program = words._Program(dict.fromkeys(slp.generators))
        program.slp(slp, definitions=False)
        steps, _ = _run_order(program)
        assert sum(map(_power_gathers, program.steps)) == 349
        assert sum(map(_power_gathers, steps)) <= 265

    def test_an_exhausted_stream_frees_the_images_without_the_cyclic_gc(self):
        pres = glued(1001, "Sym")
        images = {name: Permutation(img.images + img.lo, img.lo)
                  for name, img in pres.images.items()}
        # a Permutation has slots and no weak references; its window does
        refs = [weakref.ref(img.win) for img in images.values()]
        enabled = gc.isenabled()
        gc.disable()
        try:
            values = [value for _, value in relator_values(pres.slp, images)]
            del images
            assert all(ref() is None for ref in refs)
        finally:
            if enabled:
                gc.enable()
        assert all(value.is_identity() for value in values)


# ---------------------------------------------------------------------------
# SLP text round trips


NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,4}", fullmatch=True)


def built_words(names):
    """Words made by the public constructors over the given names.  Every
    operand of a conjugate or a commutator is nonempty, as in every word
    the builders make: the text format writes the empty word as 1, which
    only stands for a whole word."""
    nonempty = st.deferred(lambda: words_.filter(lambda w: not w.is_empty()))
    words_ = st.recursive(
        st.sampled_from(names).map(sym),
        lambda inner: st.one_of(
            st.tuples(inner, inner).map(lambda t: t[0] * t[1]),
            st.tuples(inner, st.integers(-40, 40)).map(lambda t: t[0] ** t[1]),
            inner.map(lambda w: ~w),
            st.tuples(nonempty, nonempty).map(lambda t: conj(*t)),
            st.tuples(nonempty, nonempty).map(lambda t: comm(*t)),
        ),
        max_leaves=8)
    return words_


@st.composite
def random_slps(draw):
    names = draw(st.lists(NAMES, min_size=1, max_size=8, unique=True))
    split = draw(st.integers(1, len(names)))
    gens, defined = names[:split], names[split:]
    defs = []
    for i, name in enumerate(defined):
        defs.append((name, draw(built_words(gens + defined[:i]))))
    rels = draw(st.lists(built_words(names), max_size=4))
    return Slp(tuple(gens), tuple(defs), tuple(rels))


@seed(20261018)
@settings(max_examples=60, deadline=None)
@given(random_slps())
# a grouped word as a conjugation operand is written "((a b))"
@example(Slp(("a", "b"), (("t", ~((a * b) ** -1)),),
             (conj(sym("t") ** -1 * b, ~((a * b) ** -1)),
              conj(~((a * b) ** -1), b))))
# a power of the empty word is the empty word, written "1"
@example(Slp(("a",), (("c", (a * ~a) ** 2),), ()))
def test_random_slps_round_trip_through_text(slp):
    again = Slp.from_text(slp.to_text())
    assert again.generators == slp.generators
    assert again.definitions == slp.definitions
    assert again.relators == slp.relators
