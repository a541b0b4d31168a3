"""Command-line behavior: output formats, exit codes, determinism.

main() is driven in-process with explicit argv lists; stdout is captured
with capsys.  A few tests compare with a fresh interpreter.  Exit codes: 0 success, 1 verification failure, 2 unsupported
degree or size limit, 3 bad arguments, 4 internal error, 141 stdout
closed early.
"""

import concurrent.futures
import hashlib
import io
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from test_builders import GOLDEN_ALT_17

from shortpres import builders, cli, numth, perm, sl2, verify
from shortpres.cli import main
from shortpres.errors import InternalInvariantViolation
from shortpres.words import Slp

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def checkout_env():
    """The environment of a fresh interpreter that imports this checkout."""
    return dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))


def run_python(code, *args, timeout=120):
    """Run python code in a fresh interpreter that imports this checkout."""
    return subprocess.run([sys.executable, "-c", code, *args], env=checkout_env(),
                          capture_output=True, text=True, timeout=timeout)


def run_alone(*argv):
    proc = run_python("import sys; from shortpres.cli import main; "
                      "sys.exit(main(sys.argv[1:]))", *argv)
    return proc.returncode, proc.stdout, proc.stderr


class TestEmit:
    def test_slp_golden(self, capsys):
        code, out, _ = run(capsys, "emit", "-n", "17", "--kind", "alt")
        assert code == 0
        assert out.startswith("# degree: 17\n# kind: Alt\n# case: glued\n")
        assert out.endswith(GOLDEN_ALT_17)

    def test_multiple_degrees_emit_blocks(self, capsys):
        code, out, _ = run(capsys, "emit", "-n", "13,15..16", "--kind", "alt")
        assert code == 0
        assert out.count("# degree:") == 3
        assert "\n\n# degree: 15" in out

    def test_flat_format(self, capsys):
        code, out, _ = run(capsys, "emit", "-n", "13", "--kind", "alt",
                           "--format", "flat")
        assert code == 0
        assert out.splitlines()[0] == "a^11*(g^3)^-5"
        assert ":=" not in out

    def test_json_single_and_ndjson(self, capsys):
        code, out, _ = run(capsys, "emit", "-n", "17", "--kind", "sym",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "Sym" and data["params"]["k"] == 9

        code, out, _ = run(capsys, "emit", "-n", "13..14", "--kind", "both",
                           "--format", "json")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        assert [(r["degree"], r["kind"]) for r in rows] == [
            (13, "Alt"), (13, "Sym"), (14, "Alt"), (14, "Sym")]

    def test_no_simplify_changes_the_words(self, capsys):
        _, simplified, _ = run(capsys, "emit", "-n", "13", "--kind", "sym")
        _, literal, _ = run(capsys, "emit", "-n", "13", "--kind", "sym",
                            "--no-simplify")
        assert "(a^-1)^b a^2" in simplified
        assert "(a^10)^b a^-9" in literal

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "pres.txt"
        code, out, _ = run(capsys, "emit", "-n", "17", "--kind", "alt",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().endswith(GOLDEN_ALT_17)

    def test_deterministic_output(self, capsys):
        argv = ("emit", "-n", "13..18", "--kind", "both", "--format", "json")
        _, first, _ = run(capsys, *argv)
        _, second, _ = run(capsys, *argv)
        assert first == second

    def test_json_lines_follow_the_request_count(self, capsys):
        # two requests give one line each, even when one of them is refused
        code, out, _ = run(capsys, "emit", "-n", "13", "--format", "json")
        assert code == 0
        assert [json.loads(line)["kind"] for line in out.splitlines()] == [
            "Alt", "Sym"]
        code, out, _ = run(capsys, "emit", "-n", "12,13", "--kind", "alt",
                           "--format", "json")
        assert code == 2
        assert out.count("\n") == 1 and json.loads(out)["degree"] == 13

    @pytest.mark.parametrize("n", [str(10 ** 18), "8075780279211968901"])
    def test_degrees_near_2_64_emit_in_time(self, capsys, n):
        t0 = time.perf_counter()
        code, out, err = run(capsys, "emit", "-n", n, "--kind", "both")
        assert time.perf_counter() - t0 < 10
        assert (code, err) == (0, "")
        assert out.count(f"# degree: {n}\n") == 2


def test_degrees_stream_without_building_the_range():
    # under a 1 GiB address-space limit, a list of the range would fail
    proc = run_python("""if True:
        import argparse, resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from shortpres import cli
        reqs = cli._requests(argparse.Namespace(degree="13..1000000000000000",
                                                kind="both"))
        print(next(reqs), next(reqs), next(reqs))
        """)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "(13, 'Alt') (13, 'Sym') (14, 'Alt')\n"


def test_cached_parser_leaks_no_state(capsys):
    """Commands run one after another in one process print what each
    prints alone, in a fresh interpreter."""
    assert cli._build_parser() is cli._build_parser()
    for first, second in (
            (("emit", "-n", "17", "--format", "flat"), ("emit", "-n", "17")),
            (("verify", "-n", "13..14", "--depth", "order"),
             ("verify", "-n", "13..14"))):
        alone = [run_alone(*first), run_alone(*second)]
        assert alone[0] != alone[1]
        assert [run(capsys, *first), run(capsys, *second)] == alone


# sha256 of the stdout of `emit -n 13..20,25..44,49..1024 --kind both`, every
# covered degree up to 1024, recorded before the builders were restructured.
EMIT_DIGESTS = {
    ("--format", "slp"):
        "63e25b93aeaa11ff5aec4adf146f147ff375b35f7b31991a27f7f9cc9849d8a9",
    ("--format", "flat"):
        "010b2096fac1077b4e4d1fe8aea29ef4c77cdcbf993bbc6605a430c8c236f5e3",
    ("--format", "slp", "--no-simplify"):
        "e954a02078e0c30422cc5d9f8969686ea564b03fc0f211a0fe334a4bd99bf9ff",
}


@pytest.mark.parametrize("options", list(EMIT_DIGESTS))
def test_emit_output_digest(capsys, options):
    code, out, err = run(capsys, "emit", "-n", "13..20,25..44,49..1024",
                         "--kind", "both", *options)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == EMIT_DIGESTS[options]


# sha256 of the stdout of `falsify --p P`, which exits 0 at each of these
# primes, recorded before the falsification targets were made to read the
# emitted construction's own words.
FALSIFY_DIGESTS = {
    5: "84e4130cdc96752ce6046fd164e6f57707df41f32622d834bcd0a974c7585099",
    7: "948d3bea4bdf61e7966fa3cdd5535c2424fc8364afeb4a416f1882bf3609f895",
    11: "c1bf8f2e5709e15b89c78c6643ee561f1f9f5c78b99e51f62ea3b4d01bab805c",
    13: "fe612f456a9f2ae3cbcdaaeddfa3ec7c8435b3664d8ac9b3d0767193b501e336",
    17: "c9b45b64505b95f708c1a12e1cfb290f923ab4252070f55c756fead6c0177317",
    19: "937cae12e21bdcdc02a8a3877f81db5167438e36018f473648b6d6eac7fd6b61",
    23: "a40d829a5999340a591074e67253b5fd950f074aed61fab3fd3b62b98ab253b2",
    29: "46e251dcae847f8ed8c4b07f39e3d0ba6e34aa49c6b02e797cc12d6043ab64b6",
    31: "a34c9441317c07f01ae0e7aca9d9b74250e02307667bbd054cc97d356ee14e00",
    37: "6d7cf4195b22155f4a31a5fe103b08441e41dd295898ff480225384d2a8b23ce",
    41: "b17979efbd61bf66214f20bb8238a8694a8b8685dd4e94872390f716d038c78e",
    43: "5b5fb26562e75efc245744d6501f8b3e212593120fa10e26da13d5f272e3e88b",
    47: "961d45441fe3c39024b21cfa4b9afc444c60c866f20d7d085f836bbfb1f3ed8b",
}


@pytest.mark.parametrize("p", list(FALSIFY_DIGESTS))
def test_falsify_output_digest(capsys, p):
    code, out, _ = run(capsys, "falsify", "--p", str(p))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FALSIFY_DIGESTS[p]


# exit code and sha256 of the stdout of `emit --format json`: one indented
# record, NDJSON over a range holding uncovered degrees (exit 2), and records
# above the materialization cap, whose images are null; recorded when the
# record's slp became the SLP text.
JSON_DIGESTS = {
    ("-n", "17", "--kind", "sym"): (
        0, "449eacc1f2f6e0f5d14a6e78e005abe4a441c968655b79a7e8bc3fa1fe4ba18a"),
    ("-n", "13..120", "--kind", "both"): (
        2, "f45d260f1d1eb29ad28cc7c3cb141f16d3a6999f17f44bd07337f38827e5a724"),
    ("-n", "10000019", "--kind", "both"): (
        0, "ec5071f5b41832b875421b03216461d4306f21c41900aa39d2a88ac8cba663a3"),
}


@pytest.mark.parametrize("options", list(JSON_DIGESTS))
def test_emit_json_digest(capsys, options):
    code, out, _ = run(capsys, "emit", *options, "--format", "json")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == JSON_DIGESTS[options]


@pytest.mark.parametrize("simplify", [True, False])
def test_emit_json_slp_reads_back(capsys, simplify):
    """The slp of every NDJSON record is the SLP text, which Slp.from_text
    reads back as the presentation's SLP, with the record's bit length."""
    flags = () if simplify else ("--no-simplify",)
    code, out, _ = run(capsys, "emit", "-n", "13..120", "--kind", "both",
                       "--format", "json", *flags)
    assert code == 2  # 21..24 are not covered
    records = [json.loads(line) for line in out.splitlines()]
    assert sorted((r["degree"], r["kind"]) for r in records) == sorted(
        (n, kind) for kind in ("Alt", "Sym")
        for n in builders.covered_degrees(13, 120, kind))
    for record in records:
        slp = Slp.from_text(record["slp"])
        want = builders.presentation_for(record["degree"], record["kind"],
                                         simplify=simplify).slp
        assert slp == want
        assert slp.bit_length() == record["bit_length"]


class TestVerify:
    def test_relator_depth_lines(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "13..15")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 6  # three degrees, both kinds
        assert all(line.endswith(" OK") for line in lines)
        assert lines[0].startswith("degree=13 kind=Alt case=base_p2")

    def test_literal_exponents_verify_at_every_covered_degree_to_80(self, capsys):
        code, out, err = run(capsys, "verify", "-n", "13..20,25..44,49..80",
                             "--kind", "both", "--no-simplify")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 120
        assert all(line.endswith(" identity=True OK") for line in lines)

    def test_order_depth_reports_orders(self, capsys):
        code, out, _ = run(capsys, "verify", "-n", "13", "--kind", "alt",
                           "--depth", "order")
        assert code == 0
        assert "order=3113510400 expected=3113510400" in out

    def test_order_depth_certifies_above_64_points(self, capsys):
        code, out, err = run(capsys, "verify", "-n", "64..66", "--kind",
                             "sym", "--depth", "order")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "degree=64", "degree=65", "degree=66"]
        assert all(line.endswith(" OK") for line in lines)
        assert f"order={math.factorial(66)} " in lines[2]

    def test_orders_past_4300_digits_are_written_as_factorials(
            self, capsys, tmp_path):
        # 1558! has 4300 decimal digits and 1559! has 4303
        target = tmp_path / "reports.json"
        code, out, err = run(capsys, "verify", "-n", "1558..1559", "--kind",
                             "both", "--depth", "order", "--out", str(target))
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert f"order={math.factorial(1558) // 2} " in lines[0]
        assert lines[2].endswith(" order=1559!/2 expected=1559!/2 OK")
        assert lines[3].endswith(" order=1559! expected=1559! OK")
        reports = json.loads(target.read_text())
        assert reports[1]["order"] == math.factorial(1558)
        assert [(r["order"], r["details"]["expected_order"])
                for r in reports[2:]] == [("1559!/2",) * 2, ("1559!",) * 2]

    def test_parallel_jobs_match_serial(self, capsys):
        argv = ("verify", "-n", "13..16", "--kind", "both")
        code, serial, _ = run(capsys, *argv)
        assert code == 0
        code, parallel, _ = run(capsys, *argv, "--jobs", "2")
        assert code == 0
        assert parallel == serial

    def test_worker_errors_match_serial(self, capsys):
        # degree 21 is uncovered; the error crosses the process boundary
        argv = ("verify", "-n", "20..21", "--kind", "alt")
        code, _, serial = run(capsys, *argv, "--jobs", "1")
        assert code == 2
        code, _, parallel = run(capsys, *argv, "--jobs", "2")
        assert code == 2
        assert parallel == serial
        assert serial.count("not covered") == 1

    def test_out_writes_json_reports(self, capsys, tmp_path):
        target = tmp_path / "reports.json"
        code, _, _ = run(capsys, "verify", "-n", "13..14", "--kind", "alt",
                         "--out", str(target))
        assert code == 0
        reports = json.loads(target.read_text())
        assert [r["degree"] for r in reports] == [13, 14]
        assert all(e["identity"] for r in reports for e in r["relators"])

    @pytest.mark.parametrize("degrees,code,count", [
        ("20..21,13", 2, 2), ("21", 2, 0), ("13..14", 0, 2)])
    def test_out_is_the_layout_of_json_dump(self, capsys, tmp_path, degrees,
                                            code, count):
        # degree 21 is refused, and an all-refused batch writes []
        target = tmp_path / "reports.json"
        got, _, _ = run(capsys, "verify", "-n", degrees, "--kind", "alt",
                        "--depth", "order", "--out", str(target))
        text = target.read_text()
        reports = json.loads(text)
        assert (got, len(reports)) == (code, count)
        assert text == json.dumps(reports, indent=2) + "\n"

    def test_internal_error_keeps_the_reports_done(self, capsys, monkeypatch,
                                                   tmp_path):
        real = builders.presentation_for

        def broken(n, kind, simplify=True):
            if n == 15:
                raise InternalInvariantViolation(f"broken at degree {n}")
            return real(n, kind, simplify=simplify)

        monkeypatch.setattr(builders, "presentation_for", broken)
        target = tmp_path / "reports.json"
        code, _, _ = run(capsys, "verify", "-n", "13..16", "--kind", "alt",
                         "--out", str(target))
        assert code == 4
        assert [r["degree"] for r in json.loads(target.read_text())] == [13, 14]

    def test_closed_stdout_keeps_the_reports_done(self, tmp_path):
        target = tmp_path / "reports.json"
        proc = subprocess.Popen(
            [sys.executable, "-m", "shortpres.cli", "verify", "-n", "13..4000",
             "--kind", "alt", "--out", str(target)], env=checkout_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline().startswith("degree=13 ")
        proc.stdout.close()
        assert proc.wait(timeout=120) == cli._EXIT_PIPE
        reports = json.loads(target.read_text())
        assert reports[0]["degree"] == 13
        assert [r["degree"] for r in reports] == sorted({r["degree"] for r in reports})


class _FakePool:
    """Stands in for ProcessPoolExecutor: runs a task in this process when
    its result is read, and records the largest number of tasks submitted
    and not yet read."""

    def __init__(self, max_workers, initializer=None, initargs=()):
        self.max_workers = max_workers
        self.initializer, self.initargs = initializer, initargs
        self.submitted = self.in_flight = self.most_in_flight = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        self.submitted += 1
        self.in_flight += 1
        self.most_in_flight = max(self.most_in_flight, self.in_flight)
        return _FakeFuture(self, fn, args)


class _FakeFuture:
    def __init__(self, pool, fn, args):
        self.pool, self.fn, self.args = pool, fn, args

    def result(self):
        self.pool.in_flight -= 1
        return self.fn(*self.args)


class TestJobs:
    """--jobs N runs on at most min(N, usable CPUs) workers, with at most
    two tasks per worker submitted ahead of the one being printed."""

    @pytest.fixture
    def pools(self, monkeypatch):
        # cli imports both names on its --jobs path, from these modules
        made = []

        def make(*args, **kwargs):
            made.append(_FakePool(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", make)
        monkeypatch.setattr(perm, "_usable_cpus", lambda: 3)
        return made

    @pytest.mark.parametrize("jobs", ["0", "-1", "-8", "two"])
    def test_jobs_below_one_is_exit_3(self, capsys, pools, jobs):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "-n", "13", f"--jobs={jobs}"])
        assert exc.value.code == 3
        assert "argument --jobs" in capsys.readouterr().err
        assert pools == []

    def test_workers_are_capped_at_the_usable_cpus(self, capsys, pools):
        argv = ("verify", "-n", "17..24", "--kind", "both")
        code, serial, serial_err = run(capsys, *argv)
        assert code == 2 and serial_err.count("not covered") == 8
        for jobs, workers in (("2", 2), ("3", 3), ("64", 3)):
            assert run(capsys, *argv, "--jobs", jobs) == (2, serial, serial_err)
            assert pools[-1].max_workers == workers
            assert pools[-1].most_in_flight <= 2 * workers
            assert pools[-1].submitted == 16

    @pytest.mark.parametrize("usable", [2, 3, 8])
    def test_each_worker_gets_its_share_of_the_gather_threads(
            self, capsys, pools, monkeypatch, usable):
        monkeypatch.setattr(perm, "_usable_cpus", lambda: usable)
        for jobs in (2, 3, 5, 64):
            code, out, _ = run(capsys, "verify", "-n", "13..14", "--kind",
                               "alt", "--jobs", str(jobs))
            assert code == 0 and out.count(" OK\n") == 2
            pool = pools[-1]
            workers = min(jobs, usable)
            assert pool.max_workers == workers
            assert pool.initializer is perm._set_threads
            assert pool.initargs == (usable // workers,)
            assert 1 <= workers * pool.initargs[0] <= usable

    def test_one_usable_cpu_runs_in_this_process(self, capsys, pools,
                                                monkeypatch):
        monkeypatch.setattr(perm, "_usable_cpus", lambda: 1)
        code, out, _ = run(capsys, "verify", "-n", "13", "--jobs", "4")
        assert code == 0 and out.endswith(" OK\n")
        assert pools == []

    def test_a_huge_range_submits_only_a_few_tasks(self, capsys, pools,
                                                   monkeypatch):
        seen = []

        def fake_verify(task):
            seen.append(task[0])
            if len(seen) == 5:
                raise InternalInvariantViolation("stop")
            return f"degree={task[0]}", True, {}

        monkeypatch.setattr(cli, "_verify_one", fake_verify)
        code, out, err = run(capsys, "verify", "-n", f"13..{10**12}",
                             "--kind", "sym", "--jobs", "2")
        assert code == 4 and err == "shortpres: internal error: stop\n"
        assert out.splitlines() == [f"degree={n}" for n in range(13, 17)]
        assert seen == list(range(13, 18))
        assert pools[0].submitted <= 5 + 2 * 2


class TestStats:
    def test_csv_header_and_frozen_row(self, capsys):
        code, out, _ = run(capsys, "stats", "-n", "13", "--kind", "alt")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == ("degree,p,k,case,generators,relators,bit_length,"
                            "word_length,bits_per_log2_degree")
        assert lines[1] == "13,11,,Alt:base_p2,2,4,70,167,18.917"

    def test_literal_exponents_cost_more_bits(self, capsys):
        def bit_lengths(*options):
            code, out, _ = run(capsys, "stats", "-n", "51,1000", "--kind",
                               "both", *options)
            assert code == 0
            return [int(row.split(",")[6]) for row in out.splitlines()[1:]]

        simplified, literal = bit_lengths(), bit_lengths("--no-simplify")
        assert len(literal) == 4
        assert all(lit > simp for lit, simp in zip(literal, simplified))

    def test_rows_for_each_request(self, capsys):
        code, out, _ = run(capsys, "stats", "-n", "13..20", "--kind", "both")
        assert code == 0
        assert len(out.splitlines()) == 1 + 16

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "stats.csv"
        code, out, _ = run(capsys, "stats", "-n", "17", "--kind", "sym",
                           "--out", str(target))
        assert code == 0 and out == ""
        assert target.read_text().splitlines()[1].startswith("17,11,9,Sym:glued,3,7,")


class TestFalsify:
    def test_default_prime_falsifies_everything(self, capsys):
        code, out, _ = run(capsys, "falsify")
        assert code == 0
        for which in ("SL2Generators", "P3Relator", "P3RelatorHOnly",
                      "TranspositionWord"):
            assert f"falsify:{which}: falsified=True" in out
        assert ("subgroup contrast at p=11: corrected |<u,v>| = 110, "
                "uncorrected |<u,v'>| = 55") in out

    def test_prime_outside_a_target_class_skips_that_target(self, capsys):
        code, out, _ = run(capsys, "falsify", "--p", "13")
        assert code == 0
        assert "falsify:SL2Generators: falsified=True" in out
        assert "falsify:TranspositionWord: skipped" in out
        assert "subgroup contrast" not in out

    def test_no_applicable_target_is_an_argument_error(self, capsys):
        code, out, err = run(capsys, "falsify", "--p", "4")
        assert code == 3
        assert "no falsification target applies" in err

    def test_p_3_is_refused_for_being_too_small(self, capsys):
        # 3 = 3 (mod 4): the condition the transposition word misses is p > 3
        code, out, err = run(capsys, "falsify", "--p", "3")
        assert code == 3
        assert "falsify:TranspositionWord: skipped (the transposition word " \
            "targets primes p > 3, got 3)\n" in out
        assert err == "shortpres: error: no falsification target applies at p=3\n"

    @pytest.mark.parametrize("p", [35, 119])
    def test_composite_of_the_contrast_class_is_an_argument_error(self, capsys, p):
        # p = 11 (mod 12) but not prime: every target is skipped, and so is
        # the contrast, which is given at primes only
        code, out, err = run(capsys, "falsify", "--p", str(p))
        assert code == 3
        assert err == f"shortpres: error: no falsification target applies at p={p}\n"
        assert "subgroup contrast" not in out

    def test_contrast_above_the_enumeration_bound_is_skipped(self, capsys):
        # 107 = 11 (mod 12), but SL(2, 107) is too large to close under
        code, out, err = run(capsys, "falsify", "--p", "107")
        assert (code, err) == (0, "")
        for which in verify.FALSIFICATION_TARGETS:
            assert f"falsify:{which}: falsified=True" in out
        assert out.endswith("subgroup contrast at p=107: skipped "
                            "(p = 107 exceeds the enumeration bound 100)\n")

    def test_a_prime_above_the_proven_bound_is_refused(self, capsys):
        p = 10**30 + 7
        code, out, err = run(capsys, "falsify", "--p", str(p))
        assert (code, out) == (2, "")
        assert err.startswith(f"shortpres: primality of {p} is not proven: ")
        assert err.count("\n") == 1

    def test_the_p3_target_reads_j_from_the_presentation(self, capsys,
                                                        monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a second unit-generator search")

        monkeypatch.setattr(numth, "group_unit_generator", refuse)
        code, out, _ = run(capsys, "falsify", "--p", "11")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == FALSIFY_DIGESTS[11]


@pytest.mark.parametrize("n", [14, 26, 50])
def test_verify_proves_the_p3_prime_once(capsys, monkeypatch, n):
    real = numth.is_prime
    proved = []

    def counting(m):
        proved.append(m)
        return real(m)

    monkeypatch.setattr(numth, "is_prime", counting)
    code, out, _ = run(capsys, "verify", "-n", str(n), "--kind", "alt")
    assert code == 0 and " case=alt_p3 " in out
    assert proved.count(n - 3) == 1


@pytest.mark.parametrize("p", [11, 13, 19, 23])
def test_falsify_proves_the_prime_once(capsys, monkeypatch, p):
    # 11 and 23 run every target and the subgroup contrast, 13 skips the
    # transposition word, 19 the contrast
    real = numth.is_prime
    proved = []

    def counting(m):
        proved.append(m)
        return real(m)

    monkeypatch.setattr(numth, "is_prime", counting)
    code, out, _ = run(capsys, "falsify", "--p", str(p))
    assert code == 0 and out.count(": falsified=True") == (3 if p == 13 else 4)
    assert proved.count(p) == 1


class TestParams:
    def test_glued_parameters(self, capsys):
        code, out, _ = run(capsys, "params", "-n", "17", "--kind", "alt")
        assert code == 0
        data = json.loads(out)
        assert data == {"kind": "Alt", "n": 17, "p": 11, "k": 9,
                        "r": 3, "s": 5, "alpha": 9, "kappa": 5}

    def test_both_kinds_and_p3_fields(self, capsys):
        code, out, _ = run(capsys, "params", "-n", "14")
        assert code == 0
        alt, sym = (json.loads(line) for line in out.splitlines())
        assert alt["j"] == 2 and alt["jbar"] == 6 and alt["k_sl"] == 2
        assert sym["k"] == 12


class TestBatches:
    """Each degree of a batch is handled on its own; the exit code is 1 if
    any degree failed, else 2 if any was not covered, else 0."""

    def test_covered_degree_prints_next_to_an_uncovered_one(self, capsys):
        for jobs in ("1", "2"):
            code, out, err = run(capsys, "verify", "-n", "20..21", "--kind",
                                 "alt", "--jobs", jobs)
            assert code == 2
            assert out == ("degree=20 kind=Alt case=glued relators=7 "
                           "identity=True OK\n")
            assert err.startswith("shortpres: degree 21 is not covered")

    def test_batch_goes_on_after_the_uncovered_degree(self, capsys):
        code, out, err = run(capsys, "verify", "-n", "21,13,22,14",
                             "--kind", "sym")
        assert code == 2
        assert [line.split()[0] for line in out.splitlines()] == [
            "degree=13", "degree=14"]
        assert err.count("not covered") == 2

    def test_a_failure_outranks_an_uncovered_degree(self, capsys,
                                                    monkeypatch):
        real = builders.presentation_for

        def broken(n, kind, simplify=True):
            pres = real(n, kind, simplify=simplify)
            if n == 20:
                pres.images["g"] = pres.images["a"]
            return pres

        monkeypatch.setattr(builders, "presentation_for", broken)
        code, out, err = run(capsys, "verify", "-n", "20..21", "--kind", "alt")
        assert code == 1
        assert out.startswith("degree=20 ") and out.endswith(" FAIL\n")
        assert "degree 21 is not covered" in err

    def test_emit_stats_and_params_go_on(self, capsys):
        code, out, err = run(capsys, "emit", "-n", "21,17", "--kind", "alt")
        assert code == 2 and "not covered" in err
        assert out.startswith("# degree: 17\n") and out.endswith(GOLDEN_ALT_17)

        code, out, err = run(capsys, "stats", "-n", "20..21", "--kind", "alt")
        assert code == 2 and "not covered" in err
        assert [line.split(",")[0] for line in out.splitlines()] == [
            "degree", "20"]

        code, out, err = run(capsys, "params", "-n", "20..21", "--kind", "alt")
        assert code == 2 and "not covered" in err
        assert json.loads(out)["n"] == 20


def test_images_are_built_on_first_read(capsys, monkeypatch):
    """emit (slp and flat), stats and params never build generator images;
    verify does, and a presentation builds them once."""
    pres = builders.presentation_for(17, "Sym")
    assert pres.images is pres.images

    def unreadable(*args):
        raise RuntimeError("generator images were built")

    monkeypatch.setattr(builders, "_a_image", unreadable)
    for argv in (("emit", "-n", "13,14,17"),
                 ("emit", "-n", "13,14,17", "--format", "flat"),
                 ("stats", "-n", "13,14,17"),
                 ("params", "-n", "13,14,17")):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "") and out
    with pytest.raises(RuntimeError, match="images were built"):
        main(["verify", "-n", "17"])


ARRAY_LAYER = ("numpy", "shortpres.perm", "shortpres.verify")


@pytest.mark.parametrize("argv,loads", [
    (("--help",), ()),
    (("emit", "-n", "17", "--kind", "sym"), ()),
    (("emit", "-n", str(10**18), "--format", "flat"), ()),
    (("emit", "-n", str(10**18), "--format", "json"), ()),
    (("params", "-n", "13..20", "--kind", "both"), ()),
    (("stats", "-n", "51,1000", "--kind", "both"), ()),
    (("emit", "-n", "17", "--format", "json"), ARRAY_LAYER[:2]),
    (("verify", "-n", "13"), ARRAY_LAYER),
    (("falsify", "--p", "11"), ARRAY_LAYER),
])
def test_only_the_commands_that_build_images_load_numpy(argv, loads):
    """A fresh interpreter loads numpy and perm for the commands that read
    images, and verify for those that check them; it loads none of them for
    the commands that print words only."""
    proc = run_python(
        "import contextlib, io, sys\n"
        "from shortpres.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    try:\n"
        "        code = main(sys.argv[1:])\n"
        "    except SystemExit as exc:\n"
        "        code = exc.code\n"
        f"print(code, *(m for m in {ARRAY_LAYER!r} if m in sys.modules))\n",
        *argv)
    assert proc.returncode == 0, proc.stderr
    code, *loaded = proc.stdout.split()
    assert code == "0"
    assert tuple(loaded) == loads


class TestExitCodes:
    def test_unsupported_degree_is_exit_2(self, capsys):
        code, _, err = run(capsys, "emit", "-n", "12")
        assert code == 2
        assert "not covered" in err

    @pytest.mark.parametrize("kind", ["alt", "sym", "both"])
    def test_degree_above_the_proven_primality_bound_is_exit_2(self, capsys, kind):
        huge = str(10 ** 30)
        code, out, err = run(capsys, "emit", "-n", huge, "--kind", kind)
        assert (code, out) == (2, "")
        assert err.count(f"shortpres: degree {huge} is too large: ") == len(
            cli._kinds(kind))
        code, out, err = run(capsys, "emit", "-n", f"13,{huge}", "--kind", kind)
        assert code == 2 and "too large" in err
        assert out.startswith("# degree: 13\n")

    def test_bad_degree_string_is_exit_3(self, capsys):
        for text, part in (("13..x", "13..x"), ("13..", "13.."), ("13,,14", ""),
                           ("13, x ,14", "x")):
            code, _, err = run(capsys, "emit", "-n", text)
            assert code == 3
            assert err == f"shortpres: error: bad degree {part!r}\n"

    def test_empty_range_is_exit_3(self, capsys):
        code, _, _ = run(capsys, "emit", "-n", "15..13")
        assert code == 3

    def test_bad_choice_is_argparse_exit_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["emit", "-n", "13", "--kind", "quaternion"])
        assert exc.value.code == 3

    def test_missing_subcommand_is_exit_3(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 3

    def test_internal_error_is_exit_4(self, capsys, monkeypatch):
        def broken(p, *args, **kwargs):
            raise InternalInvariantViolation(f"v is not diagonal modulo {p}")

        monkeypatch.setattr(sl2, "element_v", broken)
        code, out, err = run(capsys, "falsify", "--p", "11")
        assert code == 4
        assert "falsify:SL2Generators: falsified=True" in out
        assert err == "shortpres: internal error: v is not diagonal modulo 11\n"

    # a worker sees the patched builder only when it is forked
    @pytest.mark.parametrize("jobs", ["1", "2"] if (
        multiprocessing.get_start_method() == "fork") else ["1"])
    def test_internal_error_in_a_batch_is_exit_4(self, capsys, monkeypatch,
                                                 jobs):
        real = builders.presentation_for

        def broken(n, kind, simplify=True):
            if n == 14:
                raise InternalInvariantViolation(f"broken at degree {n}")
            return real(n, kind, simplify=simplify)

        monkeypatch.setattr(builders, "presentation_for", broken)
        code, out, err = run(capsys, "verify", "-n", "13..15", "--kind", "alt",
                             "--jobs", jobs)
        assert code == 4
        assert out == ("degree=13 kind=Alt case=base_p2 relators=4 "
                       "identity=True OK\n")
        assert err == "shortpres: internal error: broken at degree 14\n"


def counting_builds(monkeypatch, seen=None):
    """Patch presentation_for to count its calls (and, given a stream, to
    record how much of it was written before each call)."""
    real = builders.presentation_for
    calls = []

    def counted(*args, **kwargs):
        calls.append(len(seen.getvalue()) if seen else None)
        return real(*args, **kwargs)

    monkeypatch.setattr(builders, "presentation_for", counted)
    return calls


class TestOutput:
    @pytest.mark.parametrize("command", ["emit", "verify", "stats"])
    def test_unwritable_out_fails_before_any_degree(self, capsys, monkeypatch,
                                                    tmp_path, command):
        calls = counting_builds(monkeypatch)
        target = tmp_path / "missing" / "out.txt"
        code, out, err = run(capsys, command, "-n", "13..17", "--out",
                             str(target))
        assert (code, out, calls) == (3, "", [])
        assert err.startswith("shortpres: error: ") and err.count("\n") == 1
        assert str(target) in err

    @pytest.mark.parametrize("command,first", [
        ("emit", "# degree: 13\n"), ("stats", "degree,p,k,case,")])
    def test_each_block_is_written_before_the_next_is_built(
            self, monkeypatch, command, first):
        buf = io.StringIO()
        monkeypatch.setattr(sys, "stdout", buf)
        calls = counting_builds(monkeypatch, seen=buf)
        assert main([command, "-n", "13..15", "--kind", "alt"]) == 0
        assert buf.getvalue().startswith(first)
        assert len(calls) == 3 and 0 < calls[1] < calls[2] < len(buf.getvalue())

    @pytest.mark.parametrize("command", ["emit", "verify", "stats"])
    def test_closed_stdout_stops_quietly(self, command):
        # every degree of 49..4000 is covered, so no refusal reaches stderr
        # before the pipe closes, however late the close lands
        assert list(builders.covered_degrees(49, 4000, "Alt")) == list(range(49, 4001))
        proc = subprocess.Popen(
            [sys.executable, "-m", "shortpres.cli", command, "-n", "49..4000",
             "--kind", "alt"], env=checkout_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == cli._EXIT_PIPE
        assert err == ""
