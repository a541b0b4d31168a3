"""Order certification, relator reports, falsification.

certify_order expectations are independent oracles (factorials and small
hand-counted subgroup orders), never values read back from the function.
"""

import math
import os
import pickle
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from helpers import certificate_disagreements, chain_order
from shortpres import perm, verify
from shortpres.builders import (
    agl_examples,
    alt_p3,
    base_p2,
    base_p2_hat,
    carmichael,
    glued,
    moore,
    presentation_for,
)
from shortpres.errors import (
    BadPrimeClass,
    DegreeTooLarge,
    DomainMismatch,
    EnumerationTooLarge,
    InternalInvariantViolation,
    UnsupportedDegree,
)
from shortpres.perm import Permutation, parse_cycles
from shortpres.verify import (
    FALSIFICATION_TARGETS,
    CertifiedOrder,
    Falsification,
    certify_order,
    check_relators,
    expected_symmetry_order,
    verify_presentation,
)
from shortpres.words import evaluate_slp, relator_values

SRC = Path(__file__).resolve().parent.parent / "src"


def P(text, lo, hi):
    return parse_cycles(text, lo, hi)


def _cycle(first, last):
    return "(" + ",".join(map(str, range(first, last + 1))) + ")"


def _method(gens):
    return certify_order(gens).certificate["method"]


def _closure_size(images):
    """Elements of the group generated by 0-based image tuples, by
    breadth-first search over products."""
    ident = tuple(range(len(images[0])))
    seen = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for g in frontier:
            for s in images:
                h = tuple(s[x] for x in g)
                if h not in seen:
                    seen.add(h)
                    new.append(h)
        frontier = new
    return len(seen)


class TestCertifyOrder:
    def test_symmetric_group(self):
        gens = [P("(1,2)", 1, 5), P("(1,2,3,4,5)", 1, 5)]
        assert int(certify_order(gens)) == 120

    def test_result_names_degree_index_and_certificate(self):
        got = certify_order([P("(1,2)", 1, 5), P("(1,2,3,4,5)", 1, 5)])
        assert (got.degree, got.index) == (5, 1)
        assert got.certificate == {"method": "schreier-sims"}
        again = pickle.loads(pickle.dumps(got))
        assert (again, again.certificate) == (got, got.certificate)
        assert got == CertifiedOrder(5, 1) != CertifiedOrder(5, 2)
        got = certify_order([])
        assert (int(got), got.certificate) == (1, {"method": "trivial"})

    def test_alternating_group(self):
        gens = [P("(1,2,3)", 1, 4), P("(2,3,4)", 1, 4)]
        assert int(certify_order(gens)) == 12
        assert chain_order(gens) == 12

    def test_cyclic_and_trivial(self):
        assert int(certify_order([P("(1,2,3,4,5,6)", 1, 6)])) == 6
        assert int(certify_order([P("(1,2,3)(4,5,6,7,8)", 1, 8)])) == 15
        assert int(certify_order([Permutation.identity(1, 6)])) == 1
        assert int(certify_order([])) == 1

    def test_intransitive_direct_product(self):
        gens = [P("(1,2)", 1, 5), P("(3,4,5)", 1, 5)]
        assert int(certify_order(gens)) == 6

    def test_dihedral(self):
        gens = [P("(1,2,3,4,5)", 1, 5), P("(2,5)(3,4)", 1, 5)]
        assert int(certify_order(gens)) == 10

    def test_presentation_images_certify_to_factorials(self):
        pres = base_p2(11, "Alt")
        gens = [pres.images[t] for t in pres.slp.generators]
        assert int(certify_order(gens)) == math.factorial(13) // 2
        assert chain_order(gens) == math.factorial(13) // 2
        pres = presentation_for(16, "Sym")
        gens = [pres.images[t] for t in pres.slp.generators]
        assert int(certify_order(gens)) == math.factorial(16)
        assert chain_order(gens) == math.factorial(16)

    def test_conjugated_generators_keep_the_order(self):
        c = P("(1,3,7)(2,6)(4,5)", 1, 7)
        gens = [P("(1,2)", 1, 7).conjugate(c), P("(1,2,3,4,5,6,7)", 1, 7).conjugate(c)]
        assert int(certify_order(gens)) == math.factorial(7)

    def test_domain_guards(self):
        with pytest.raises(EnumerationTooLarge):
            certify_order([Permutation.from_cycles([(1, 2)], 1, 65)])
        with pytest.raises(DomainMismatch):
            certify_order([P("(1,2)", 1, 4), P("(1,2)", 1, 5)])

    def test_permutation_pairs_are_refused(self):
        pres = base_p2_hat(11, "Alt")
        with pytest.raises(DomainMismatch):
            certify_order([pres.images[t] for t in pres.slp.generators])

    def test_mathieu_group_m12(self):
        gens = [P(_cycle(1, 11), 1, 12), P("(3,7,11,8)(4,10,5,6)", 1, 12),
                P("(1,12)(2,11)(3,6)(4,8)(5,9)(7,10)", 1, 12)]
        assert int(certify_order(gens)) == 95040
        # an 11-cycle, q = n - 1, and no 3-cycle
        assert _method(gens) == "schreier-sims"

    def test_mathieu_group_m24(self):
        gens = [
            P(_cycle(1, 23), 1, 24),
            P("(3,17,10,7,9)(4,13,14,19,5)(8,18,11,12,23)(15,20,22,21,16)",
              1, 24),
            P("(1,24)(2,23)(3,12)(4,16)(5,18)(6,10)(7,20)(8,14)(9,21)"
              "(11,17)(13,22)(15,19)", 1, 24),
        ]
        assert int(certify_order(gens)) == 244823040
        # a 23-cycle, q = n - 1, and no 3-cycle
        assert _method(gens) == "schreier-sims"

    @pytest.mark.parametrize("first,long_cycle,n,order", [
        ("(1,2)", (1, 30), 30, math.factorial(30)),
        # a 3-cycle and a 31-cycle are both even
        ("(1,2,3)", (1, 31), 31, math.factorial(31) // 2),
        # a 3-cycle and a 39-cycle fixing point 1 are both even
        ("(1,2,3)", (2, 40), 40, math.factorial(40) // 2),
    ])
    def test_full_symmetric_and_all_even_alternating(self, first, long_cycle,
                                                     n, order):
        gens = [P(first, 1, n), P(_cycle(*long_cycle), 1, n)]
        assert int(certify_order(gens)) == order
        assert chain_order(gens) == order

    @pytest.mark.parametrize("gens,order", [
        ([P("(1,2)", 1, 12), P(_cycle(1, 12), 1, 12)], math.factorial(12)),
        ([P("(1,2,3)", 1, 13), P(_cycle(1, 13), 1, 13)],
         math.factorial(13) // 2),
    ])
    def test_parity_bound_stops_the_sift_early(self, monkeypatch, gens,
                                               order):
        products = []
        real_mul = verify._mul

        def counting_mul(a, b):
            products.append(1)
            return real_mul(a, b)

        monkeypatch.setattr(verify, "_mul", counting_mul)
        assert chain_order(gens) == order
        stopped = len(products)
        products.clear()
        tuples = [tuple(g.images.tolist()) for g in gens]
        assert verify._chain_order(tuples, 0) == order  # bound 0: full sift
        assert stopped < len(products)

    @seed(20261018)
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 7).flatmap(lambda n: st.tuples(
        st.integers(-3, 3),
        st.lists(st.permutations(range(n)), min_size=1, max_size=3))))
    def test_matches_brute_force_closure(self, case):
        lo, images = case
        gens = [Permutation([x + lo for x in im], lo) for im in images]
        size = _closure_size(images)
        assert int(certify_order(gens)) == size
        if any(not g.is_identity() for g in gens):
            assert chain_order(gens) == size

    # Groups that hold some of the witnesses but not all: the certificate
    # must decline and the chain give the order.
    @pytest.mark.parametrize("cycles,n,order", [
        # S_7 wr S_2: imprimitive, its 7-cycle has q = n/2
        (["(1,2,3)", "(1,2)", _cycle(1, 7),
          "(1,8)(2,9)(3,10)(4,11)(5,12)(6,13)(7,14)"], 14,
         2 * math.factorial(7) ** 2),
        # S_11 x S_3: intransitive, with an 11-cycle and a 3-cycle
        ([_cycle(1, 11), "(1,2)", "(12,13,14)", "(12,13)"], 14,
         math.factorial(11) * 6),
        # PSL(2,8) on the projective line: a 7-cycle, q = n - 2, no 3-cycle
        (["(1,2,3,4,5,6,7)", "(1,8)(2,4)(3,7)(5,6)",
          "(2,7)(3,6)(4,5)(8,9)"], 9, 504),
    ], ids=["S7wrS2", "S11xS3", "PSL2_8"])
    def test_certificate_declines_without_all_witnesses(self, cycles, n,
                                                        order):
        gens = [P(c, 1, n) for c in cycles]
        if order < 10**4:
            assert _closure_size([tuple(g.images.tolist())
                                  for g in gens]) == order
        assert int(certify_order(gens)) == order
        assert _method(gens) == "schreier-sims"

    @pytest.mark.parametrize("cycles,n,order,q,three", [
        # a 97-cycle, q <= n - 3, and an odd 4-cycle joining the rest
        ([_cycle(1, 97), "(1,98,99,100)"], 100, math.factorial(100), 97,
         False),
        # a 101-cycle, q = n, beside a 3-cycle; both even
        ([_cycle(1, 101), "(1,2,3)"], 101, math.factorial(101) // 2, 101,
         True),
        # an 89-cycle, q = n - 2; the 3-cycle is a power of the second
        # generator, whose other cycle lengths are 4 and 5
        ([_cycle(1, 89), "(2,90,91)(4,5,6,7)(10,20,30,40,50)"], 91,
         math.factorial(91), 89, True),
    ], ids=["S100", "A101", "S91"])
    def test_certificate_above_the_chain_limit(self, cycles, n, order, q,
                                               three):
        gens = [P(c, 1, n) for c in cycles]
        got = certify_order(gens)
        assert int(got) == order
        assert got.certificate == {"method": "jordan", "q": q,
                                   "three_cycle": three}

    def test_a_power_is_a_witness_only_once_checked(self, monkeypatch):
        # base_p2 at degree 13 needs its 3-cycle from a power of `g`
        pres = base_p2(11, "Alt")
        gens = [pres.images[t] for t in pres.slp.generators]
        assert certify_order(gens).certificate["three_cycle"]
        monkeypatch.setattr(Permutation, "__pow__", lambda g, e: g)
        got = certify_order(gens)
        assert int(got) == math.factorial(13) // 2
        assert got.certificate == {"method": "schreier-sims"}

    @pytest.mark.slow
    def test_certificates_agree_at_every_covered_degree_41_to_64(self):
        bad, compared = certificate_disagreements(41, 64)
        assert compared == 40 and not bad

    def test_jordan_certificate_stays_within_nine_arrays(self):
        """numpy reports its array buffers to tracemalloc, so the traced
        peak counts the full-size arrays the certificate keeps alive at
        once beyond the generator images: their window minima, the orbit
        labels and the label jumps."""
        n = 200001
        pres = presentation_for(n, "Sym")
        gens = [pres.images[t] for t in pres.slp.generators]
        tracemalloc.start()
        try:
            order = certify_order(gens)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert order == CertifiedOrder(n, 1)
        assert peak <= 9 * 4 * n  # nine int32 arrays of n points

    def test_intransitive_group_above_the_chain_limit_is_refused(self):
        # a 67-cycle and a 3-cycle that leave points 68..70 apart
        gens = [P(_cycle(1, 67), 1, 70), P("(1,2,3)", 1, 70),
                P("(68,69,70)", 1, 70)]
        with pytest.raises(EnumerationTooLarge):
            certify_order(gens)


class TestCheckRelators:
    def test_report_shape(self):
        report = check_relators(base_p2(11, "Alt"))
        assert (report.degree, report.kind, report.case) == (13, "Alt", "base_p2")
        assert [e["index"] for e in report.relators] == [0, 1, 2, 3]
        assert all(e["identity"] for e in report.relators)
        assert all(e["cycle_type"] == [] for e in report.relators)
        assert report.all_relators_identity and report.ok
        data = report.to_json()
        assert data["order_certified"] is False and data["order"] is None

    def test_pair_images_report_both_components(self):
        report = check_relators(base_p2_hat(11, "Sym"))
        assert report.all_relators_identity
        assert report.relators[0]["cycle_type"] == [[], []]

    def test_failing_relator_is_reported_not_hidden(self):
        pres = base_p2(11, "Alt")
        broken = dict(pres.images)
        broken["g"] = pres.images["a"]
        pres.images = broken
        report = check_relators(pres)
        assert not report.all_relators_identity
        assert not report.ok
        failing = [e for e in report.relators if not e["identity"]]
        assert failing and all(e["cycle_type"] for e in failing)

    def test_each_relator_asks_for_the_identity_once(self, monkeypatch):
        real, asked = Permutation.is_identity, []

        def counting(perm):
            asked.append(perm.degree)
            return real(perm)

        monkeypatch.setattr(Permutation, "is_identity", counting)
        report = check_relators(glued(1000, "Sym"))
        assert report.all_relators_identity
        assert len(asked) == len(report.relators) == 7

    def test_unmaterialized_images_rejected(self):
        pres = base_p2(10000019, "Alt")
        with pytest.raises(DegreeTooLarge):
            check_relators(pres)


def _kept_entries(pres):
    """The relator entries computed from evaluate_slp, which keeps every
    definition alive and evaluates the relators in index order."""
    _, values = evaluate_slp(pres.slp, pres.images)
    return [{"index": i, "identity": v.is_identity(),
             "cycle_type": verify._cycle_type_json(v)}
            for i, v in enumerate(values)]


class TestRelatorStream:
    """check_relators reads the relators from words.relator_values, which
    frees every value after its last use; its entries are the ones
    evaluate_slp gives."""

    def test_agrees_with_evaluate_slp_at_every_covered_degree(self):
        checked = 0
        for n in range(13, 601):
            for kind in ("Alt", "Sym"):
                try:
                    pres = presentation_for(n, kind)
                except UnsupportedDegree:
                    continue
                assert check_relators(pres).relators == _kept_entries(pres)
                checked += 1
        assert checked > 1000

    @pytest.mark.parametrize("make", [
        lambda: base_p2(11, "Alt"), lambda: base_p2(47, "Sym"),
        lambda: base_p2(107, "Alt"), lambda: alt_p3(5), lambda: alt_p3(11),
        lambda: alt_p3(13), lambda: alt_p3(101), lambda: base_p2_hat(11, "Alt"),
        lambda: base_p2_hat(23, "Sym"), lambda: base_p2_hat(59, "Alt"),
    ])
    def test_agrees_with_evaluate_slp_on_the_other_families(self, make):
        pres = make()
        assert check_relators(pres).relators == _kept_entries(pres)

    def test_agrees_with_evaluate_slp_on_failing_relators(self):
        pres = glued(20, "Sym")
        broken = dict(pres.images)
        broken["g"] = pres.images["a"]
        pres.images = broken
        entries = check_relators(pres).relators
        assert entries == _kept_entries(pres)
        assert not all(e["identity"] for e in entries)

    def test_a_listing_travels_with_its_image(self):
        """With g's image replaced by a's at a degree where both are
        listed, g's powers rotate a's listing, and the entries are those of
        unlisted copies of the same images."""
        pres = glued(8190, "Sym")
        assert pres.images["a"].listing is not None
        pres.images = dict(pres.images, g=pres.images["a"])
        plain = glued(8190, "Sym")
        plain.images = {t: Permutation(x.images + x.lo, x.lo)
                        for t, x in pres.images.items()}
        entries = check_relators(pres).relators
        assert entries == _kept_entries(plain)
        assert not all(e["identity"] for e in entries)

    @pytest.mark.parametrize("n,kind", [(100003, "Sym"), (200001, "Sym"),
                                        (200002, "Alt"), (400001, "Alt")])
    def test_live_set_stays_within_ten_arrays(self, n, kind, monkeypatch):
        """numpy reports its array buffers to tracemalloc, so the traced
        peak counts the full-size arrays alive at once beyond the generator
        images, which are built before tracing starts.  One gather thread:
        above perm._SPLIT two threads hold their chunks' index copies at
        times that differ from run to run, and so does the peak (Alt 400001
        reads 6.95 arrays with one thread, 7.3 to 8.4 with two)."""
        monkeypatch.setattr(perm, "_threads", 1)
        pres = glued(n, kind)
        assert pres.images
        tracemalloc.start()
        try:
            report = check_relators(pres)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.all_relators_identity
        assert peak <= 10 * 4 * n  # ten int32 arrays of n points


def test_no_numeric_path_walks_cycles(monkeypatch):
    """Cycle types, orders and the order certificate read window cycle
    minima: with the Python cycle walk made to raise, a presentation with
    one wrong image reports the cycle types and orders the walk found."""
    pres = glued(100001, "Sym")
    y = pres.images["y"]
    pres.images = dict(pres.images,
                       y=y * Permutation.from_cycles([(1, 2)], y.lo, y.hi))
    values = [val for _, val in relator_values(pres.slp, pres.images)]
    walked = [sorted((len(c) for c in val.cycles()), reverse=True)
              for val in values]
    orders = [math.lcm(*lengths) for lengths in walked]
    report = verify_presentation(pres, depth="order").to_json()
    assert any(walked) and report["order_certified"]

    def refuse(self):
        raise AssertionError("a numeric path walked the cycles")

    monkeypatch.setattr(Permutation, "cycles", refuse)
    assert [list(val.cycle_type()) for val in values] == walked
    assert [val.order() for val in values] == orders
    assert [entry["cycle_type"] for entry in check_relators(pres).relators] == walked
    again = verify_presentation(pres, depth="order").to_json()
    assert dict(again, millis=report["millis"]) == report


@pytest.mark.slow
def test_verify_at_the_materialization_cap_stays_under_600_mib():
    """Both depths at Sym 9999999, each in a fresh process, stay under
    600 MiB, and the order certificate adds at most 16 MiB to the peak of
    the relator check."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    peaks = {}
    for depth in ("relators", "order"):
        with subprocess.Popen(
                [sys.executable, "-m", "shortpres.cli", "verify", "-n",
                 "9999999", "--kind", "sym", "--depth", depth],
                env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                text=True) as proc:
            out, err = proc.stdout.read(), proc.stderr.read()
            # this child's own peak: RUSAGE_CHILDREN would report the
            # largest of every child this process has waited for
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        assert proc.returncode == 0, err
        assert out.endswith(" OK\n")
        peaks[depth] = usage.ru_maxrss * 1024
        assert peaks[depth] < 600 * 2**20
    assert peaks["order"] <= peaks["relators"] + 16 * 2**20


class TestVerifyPresentation:
    def test_relator_depth_only_checks_relators(self):
        report = verify_presentation(presentation_for(15, "Alt"))
        assert report.ok and not report.order_certified

    @pytest.mark.parametrize("n,kind", [(13, "Alt"), (14, "Sym"), (15, "Sym"), (14, "Alt")])
    def test_order_depth_certifies_the_factorial(self, n, kind):
        report = verify_presentation(presentation_for(n, kind), depth="order")
        assert report.order_certified
        want = math.factorial(n) // (2 if kind == "Alt" else 1)
        assert int(report.order) == want
        assert int(report.details["expected_order"]) == want
        assert report.details["order_matches"] and report.ok

    def test_order_depth_skips_pair_images(self):
        report = verify_presentation(base_p2_hat(11, "Alt"), depth="order")
        assert not report.order_certified
        assert "order_note" in report.details
        assert report.ok  # relators still hold

    def test_wrong_expected_order_fails_the_report(self):
        pres = presentation_for(13, "Alt")
        pres.kind = "Sym"  # claim the full symmetric group
        report = verify_presentation(pres, depth="order")
        assert int(report.order) == math.factorial(13) // 2
        assert not report.details["order_matches"]
        assert not report.ok

    def test_baseline_presentations_certify(self):
        report = verify_presentation(moore(6), depth="order")
        assert int(report.order) == 720
        assert report.details["certificate"] == {"method": "schreier-sims"}
        report = verify_presentation(carmichael(5), depth="order")
        assert int(report.order) == math.factorial(7) // 2
        assert report.details["certificate"] == {"method": "schreier-sims"}

    @pytest.mark.parametrize("n,kind,three", [
        # base_p2: `a` is a p-cycle, p = n - 2, and a power of `g` the 3-cycle
        (13, "Alt", True), (49, "Sym", True),
        # glued and alt_p3: a p-cycle with p <= n - 3
        (14, "Sym", False), (14, "Alt", False),
        (1000, "Alt", False), (1001, "Sym", False),
    ])
    def test_order_depth_names_the_certificate(self, n, kind, three):
        pres = presentation_for(n, kind)
        report = verify_presentation(pres, depth="order")
        assert report.ok and type(report.to_json()["order"]) is int
        assert int(report.order) == math.factorial(n) // (2 if kind == "Alt" else 1)
        q = pres.params.p
        assert report.details["certificate"] == {
            "method": "jordan", "q": q, "three_cycle": three}
        assert report.to_json()["details"]["certificate"]["q"] == q

    def test_symbolic_orders_never_build_the_factorial(self, monkeypatch):
        # 1559!/2 is the least order of any covered degree past 4300 digits
        real = math.factorial

        def guarded(n):
            assert n < 1559, f"{n}! built for an order printed as {n}!"
            return real(n)

        monkeypatch.setattr(math, "factorial", guarded)
        for n, kind, want in [(20001, "Sym", "20001!"),
                              (20002, "Alt", "20002!/2")]:
            data = verify_presentation(presentation_for(n, kind),
                                       depth="order").to_json()
            assert data["order"] == data["details"]["expected_order"] == want
            assert data["details"]["order_matches"]

    def test_printed_orders_follow_the_integers(self):
        limit = 10 ** getattr(sys.int_info, "default_max_str_digits", 4300)
        full = 1
        for n in range(1, 3001):
            full *= n
            for index, text in [(1, f"{n}!"), (2, f"{n}!/2")]:
                want = full // index if full // index < limit else text
                assert verify.printable_order(CertifiedOrder(n, index)) == want

    def test_expected_symmetry_order_table(self):
        assert int(expected_symmetry_order(presentation_for(14, "Sym"))) == math.factorial(14)
        assert int(expected_symmetry_order(alt_p3(11))) == math.factorial(14) // 2
        assert expected_symmetry_order(base_p2_hat(11, "Alt")) is None


class TestFalsification:
    def test_target_list(self):
        assert FALSIFICATION_TARGETS == (
            "SL2Generators", "P3Relator", "P3RelatorHOnly", "TranspositionWord")
        with pytest.raises(InternalInvariantViolation):
            Falsification(11).report("NoSuchTarget")

    def test_sl2_witness(self):
        report = Falsification(11).report("SL2Generators")
        assert not report.relators[0]["identity"]
        assert report.relators[0]["value"] == "[[10,0],[0,10]]"
        # at p = 2 (mod 3) the second relator happens to hold anyway
        assert report.relators[1]["identity"]
        assert report.details["original_relators_hold"] is False
        assert report.details["corrected_relators_hold"] is True
        assert report.details["original_generators"] == [
            "[[0,1],[10,0]]", "[[1,1],[0,1]]"]

    def test_sl2_sign_error_appears_for_both_prime_classes(self):
        for p in (11, 13):
            report = Falsification(p).report("SL2Generators")
            assert not report.relators[0]["identity"]
            assert report.details["corrected_relators_hold"] is True

    @pytest.mark.parametrize("which", ["P3Relator", "P3RelatorHOnly"])
    def test_p3_powered_word_survives(self, which):
        report = Falsification(11).report(which)
        assert report.degree == 14
        assert not report.relators[0]["identity"]
        assert report.relators[0]["cycle_type"] == [5, 5]
        assert report.details["base_cycle_type"] == [5, 5, 3]
        assert report.details["base_order"] == 15
        assert report.details["power"] == 6
        assert report.details["power_kills_base"] is False
        assert report.details["corrected_relator_identity"] is True

    def test_transposition_word_witness(self):
        report = Falsification(11).report("TranspositionWord")
        assert report.degree == 13
        assert not report.relators[0]["identity"]
        assert report.details["original_value"] == "(1,10)"
        assert report.details["corrected_value"] == "(12,13)"
        assert report.details["claimed_value"] == "(12,13)"
        assert report.details["original_matches"] is False
        assert report.details["corrected_matches"] is True

    def test_transposition_word_corrected_matches_at_other_primes(self):
        for p in (19, 23):
            report = Falsification(p).report("TranspositionWord")
            assert report.details["corrected_matches"] is True
            assert report.details["original_matches"] is False

    def test_transposition_word_prime_class_guarded(self):
        # outside p = 3 (mod 4) the word is never used; reject such primes
        with pytest.raises(BadPrimeClass):
            Falsification(13).report("TranspositionWord")


class TestAglOrderCertification:
    @pytest.mark.parametrize("variant,order", [
        ("AltAGL", math.factorial(13) // 2),
        ("AltAGL2", math.factorial(13) // 2),
        ("SymAGL", math.factorial(13)),
    ])
    def test_extra_relator_collapses_to_the_full_group(self, variant, order):
        pres = agl_examples(11, variant, with_extra_relator=True)
        gens = [pres.images[t] for t in pres.slp.generators]
        assert int(certify_order(gens)) == order
