"""Permutation arithmetic against hand-computed values.

Products apply the left factor first throughout, so (1,2)(2,3) = (1,3,2).
"""

import contextlib
import multiprocessing
import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from shortpres import perm
from shortpres.errors import (
    DomainMismatch,
    OverlappingCycles,
    PointOutOfDomain,
)
from shortpres.perm import Permutation, parse_cycles

SRC = Path(__file__).resolve().parent.parent / "src"


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
        assert sorted(pt for c in g.cycles() for pt in c) == [1, 2, 3, 4, 5]
        assert g.order() == 6
        assert Permutation.identity(1, 3).order() == 1

    def test_sign(self):
        assert P("(1,2)").epsilon() == 1
        assert P("(1,2,3)").epsilon() == 0
        assert P("(1,2)(3,4)").epsilon() == 0
        assert P("(1,2,3,4)").epsilon() == 1

    def test_parse_round_trip(self):
        g = P("(1,3,5)(2,4)")
        assert parse_cycles(str(g), 1, 5) == g

    def test_hash_consistent(self):
        assert len({P("(1,2)"), P("(1,2)"), P("(2,1)")}) == 1

    def test_cycle_walk_stops_on_a_window_that_is_not_a_bijection(self):
        # a child under a 1 GiB address-space limit and a timeout, so that an
        # unbounded walk fails instead of hanging this process
        code = """if True:
            import resource
            resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
            import numpy as np
            from shortpres.errors import InternalInvariantViolation
            from shortpres.perm import Permutation
            g = Permutation.identity(1, 6)._like(np.array([1, 2, 1]), 2)
            for show in (Permutation.cycles, str, repr):
                try:
                    show(g)
                except InternalInvariantViolation as exc:
                    print(exc)
            """
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", code], env=env, timeout=60,
                              capture_output=True, text=True, check=False)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "point 4 is reached twice: the window is not a bijection\n" * 3


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


class TestWindows:
    """A permutation stores only the window of points it can move."""

    def test_built_permutations_keep_only_the_blocks_they_move(self):
        """A window starts and stops on a multiple of 64 offsets, or at
        the end of the domain."""
        g = Permutation.from_cycles([(100, 102), (500,)], 1, 1000)
        assert (g.start, g.win.size) == (64, 64)
        assert g.images.tolist() == [
            101 if i == 99 else 99 if i == 101 else i for i in range(1000)]
        h = Permutation(np.r_[np.arange(1, 990), 1000, 990:1000], 1)
        assert (h.start, h.win.size) == (960, 40)
        assert h.cycles() == [(990, *range(1000, 990, -1))]
        assert Permutation.identity(1, 10).win.size == 0
        assert Permutation.from_cycles([(4,)], 1, 10).win.size == 0
        small = Permutation.from_cycles([(3, 5)], 1, 10)
        assert (small.start, small.win.size) == (0, 10)

    def test_equal_permutations_on_different_windows(self):
        g = Permutation.from_cycles([(3, 5)], 1, 1000)
        h = Permutation.from_cycles([(800, 900)], 1, 1000)
        wide = g * h * h  # stored on the hull of both windows
        assert wide.win.size > g.win.size
        assert wide == g and hash(wide) == hash(g)
        assert (h * h).is_identity() and h * h == Permutation.identity(1, 1000)
        assert hash(h * h) == hash(Permutation.identity(1, 1000))
        assert wide != h and g != Permutation.from_cycles([(3, 5)], 1, 1001)
        ident = Permutation.identity(1, 1000)
        for p in (ident * h, h * ident, h.conjugate(ident), ident.conjugate(h)):
            assert (p.start, p.win.size) == (h.start, h.win.size)


def _dense_cycles(img, lo):
    seen, out = set(), []
    for i in range(img.size):
        if i in seen or img[i] == i:
            continue
        cyc, j = [], i
        while j not in seen:
            seen.add(j)
            cyc.append(j + lo)
            j = int(img[j])
        out.append(tuple(cyc))
    return out


def _dense_power(img, e):
    """img^e, each point stepped e places along its cycle."""
    out = np.arange(img.size)
    for c in _dense_cycles(img, 0):
        for i, x in enumerate(c):
            out[x] = c[(i + e) % len(c)]
    return out


@st.composite
def _windowed(draw, n):
    """Offsets of a permutation of n points: the identity, one that may
    move any point, or one that fixes a margin on each side."""
    img = np.arange(n)
    shape = draw(st.sampled_from(["identity", "full", "window"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "full":
        img = rng.permutation(n)
    elif shape == "window":
        first = draw(st.integers(0, n - 1))
        stop = draw(st.integers(first + 1, min(n, first + 40)))
        img[first:stop] = first + rng.permutation(stop - first)
    return img


@st.composite
def _windowed_pair(draw):
    lo = draw(st.integers(-6, 6))
    n = draw(st.integers(1, 300))
    return lo, draw(_windowed(n)), draw(_windowed(n))


@seed(20261018)
@settings(max_examples=300, deadline=None)
@given(_windowed_pair(),
       st.one_of(st.integers(-40, 40), st.integers(10**12, 10**18),
                 st.integers(-10**18, -10**12)))
def test_windows_agree_with_the_dense_reference(pair, e):
    """Each operation on stored windows matches plain full-array numpy,
    also on results stored on the hull of two different windows (degrees
    above 64 points, where windows of 64-point blocks can differ)."""
    lo, x, y = pair
    f, g = Permutation(x + lo, lo), Permutation(y + lo, lo)
    conj = np.empty_like(x)
    conj[y] = y[x]
    cases = [(f, x), (g, y), (f * g, y[x]), (f.inverse(), np.argsort(x)),
             (f.conjugate(g), conj),
             (f ** e, _dense_power(x, e)),
             (f * g * g.inverse(), x)]
    ident = np.arange(x.size)
    for perm, img in cases:
        assert perm.images.tolist() == img.tolist()
        assert not perm.images.flags.writeable
        assert perm == Permutation(img + lo, lo)
        assert hash(perm) == hash(Permutation(img + lo, lo))
        assert perm.is_identity() == bool((img == ident).all())
        cycles = _dense_cycles(img, lo)
        assert perm.cycles() == cycles
        assert perm.epsilon() == sum(len(c) - 1 for c in cycles) % 2
        least = np.arange(x.size)
        for c in cycles:
            least[[pt - lo for pt in c]] = min(c) - lo
        assert perm.cycle_minima().tolist() == least.tolist()
        assert [perm(pt) for pt in range(lo, lo + x.size)] == (img + lo).tolist()
    assert (f == g) == (x.tolist() == y.tolist())


@contextlib.contextmanager
def _split_from(points, threads):
    """Share every gather and scatter of at least `points` points among
    `threads` threads, on a pool made for the block and shut down after it."""
    with mock.patch.multiple(perm, _SPLIT=points, _threads=threads, _pool=None):
        try:
            yield
        finally:
            if perm._pool is not None:
                perm._pool.shutdown()


def test_split_windows_agree_with_the_dense_reference():
    """The property above with every window split among three threads,
    however small: uneven chunks, chunks of no points (windows of fewer
    than twelve points) and empty windows (identities)."""
    with _split_from(0, 3):
        test_windows_agree_with_the_dense_reference()
        assert perm._pool is not None


def test_split_is_used_from_the_threshold_on():
    submitted = []
    x = np.random.default_rng(5).permutation(200)
    f = Permutation(x + 1)
    with _split_from(200, 2):
        pool = perm._executor()
        submit = pool.submit

        def counted(*args):
            submitted.append(args)
            return submit(*args)

        with mock.patch.object(pool, "submit", counted):
            square, inverse = (f * f).images, f.inverse().images
            assert len(submitted) == 2
            perm._SPLIT = 201
            cube = (f ** 3).images
            assert len(submitted) == 2
    assert square.tolist() == x[x].tolist()
    assert inverse.tolist() == np.argsort(x).tolist()
    assert cube.tolist() == x[x[x]].tolist()


def _power_in_child(f, e, expected):
    if perm._pool is not None or f ** e != expected:
        sys.exit(1)
    if perm._pool is None:  # the power was not split
        sys.exit(2)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="no fork on this platform")
def test_a_forked_child_splits_on_a_pool_of_its_own():
    """A child forked after the parent made its pool inherits a pool with
    no threads, where what it queued would never run; it makes its own."""
    x = np.random.default_rng(7).permutation(5000)
    f = Permutation(x + 1)
    expected = Permutation(_dense_power(x, 12345) + 1)
    with _split_from(64, 2):
        power = (f ** 12345).images
        assert np.array_equal(power, expected.images)
        assert perm._pool is not None
        child = multiprocessing.get_context("fork").Process(
            target=_power_in_child, args=(f, 12345, expected))
        child.start()
        child.join(timeout=60)
        hung = child.is_alive()
        if hung:
            child.kill()
            child.join()
    assert not hung and child.exitcode == 0


def test_concurrent_splits_make_one_pool_and_agree_with_serial():
    """More threads than cores split powers and conjugates at once, with
    the interpreter switching threads as often as it can."""
    made = []

    class CountingPool(ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    rng = np.random.default_rng(11)
    f, g = (Permutation(rng.permutation(3000) + 1) for _ in range(2))
    count = 4 * perm._usable_cpus() + 4

    def values(i):
        return np.stack([(f ** (1000 + i)).images,
                         f.conjugate(g ** i).images])

    serial = [values(i) for i in range(count)]
    results, errors = [None] * count, []
    start = threading.Barrier(count)

    def work(i):
        try:
            start.wait(timeout=60)
            results[i] = [values(i) for _ in range(3)]
        except BaseException as exc:  # reported by the assertion below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with _split_from(64, 3), mock.patch.object(
                perm.concurrent.futures, "ThreadPoolExecutor", CountingPool):
            workers = [threading.Thread(target=work, args=(i,))
                       for i in range(count)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=120)
            assert not any(t.is_alive() for t in workers)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert len(made) == 1
    assert [i for i, (want, got) in enumerate(zip(serial, results))
            if not all(np.array_equal(want, v) for v in got)] == []


def test_importing_the_package_starts_no_thread():
    code = "import threading, shortpres.cli; print(threading.active_count())"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert (proc.returncode, proc.stdout) == (0, "1\n")
