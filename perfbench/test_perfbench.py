"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402

worker.import_package()

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from shortpres import builders, cli, numth  # noqa: E402

# find_glue_prime rounds (n+2)/2 in floating point and picks p < (n+2)/2 at
# both degrees; the first raises, the second emits k = 4 without complaint
FLOAT_BOUND_DEGREE = "8075780279211968901"
SILENT_FLOAT_BOUND_DEGREE = "547941574903438726"


def _run_bench(*args, cwd=HERE.parent):
    return subprocess.run([sys.executable, str(HERE / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def _with_items(monkeypatch, items):
    monkeypatch.setitem(workloads.WORKLOADS, "emit",
                        lambda rng: itertools.repeat(list(items)))


def _first_rounds(name, seed, count=3):
    return list(itertools.islice(workloads.rounds(name, seed), count))


def _output(argv):
    return worker.call(cli.main, argv, 60)[1]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_items_depend_only_on_the_seed(name):
    first = _first_rounds(name, 7)
    assert first == _first_rounds(name, 7)
    assert first != _first_rounds(name, 8)
    assert len({len(r) for r in first}) == 1
    assert first[0] != first[1]


def test_covered_degrees_are_the_package_ones():
    for kind in workloads.KINDS:
        assert workloads.covered(13, 4096) == builders.covered_degrees(13, 4096, kind)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_items_do_not_consult_the_program(monkeypatch, name):
    def refuse(*args):
        raise AssertionError("the item draw called into shortpres")

    for module, attr in ((numth, "find_glue_prime"), (numth, "is_prime"),
                         (builders, "covered_degrees"), (builders, "find_glue_prime")):
        monkeypatch.setattr(module, attr, refuse)
    assert _first_rounds(name, 5, 1)[0]


def test_cost_model_arithmetic_matches_the_package():
    rng = random.Random(4)
    for _ in range(200):
        m = rng.randrange(2, 10 ** 9)
        factors = workloads.prime_factors(m)
        assert math.prod(factors) == m
        assert sorted(set(factors)) == numth._prime_factors(m)
        # below 2^53 the package's glue prime is exact
        n = rng.randrange(100, 2 ** 53)
        assert workloads.glue_prime(n) == numth.find_glue_prime(n, "Sym")


def test_cost_model_covers_the_package_glue_prime_up_to_2_64():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randrange(2 ** 53, 2 ** 64)
        assert numth.find_glue_prime(n, "Sym") in (
            workloads.glue_prime(n), workloads.glue_prime(n, rounded=True))


def test_emit_pool_leaves_out_degrees_above_the_cost_cap():
    degrees = {int(argv[2]) for r in _first_rounds("emit", 6, 30) for argv in r}
    assert all(workloads.emit_cost_key(n) <= workloads.EMIT_COST_CAP for n in degrees)
    assert workloads.emit_cost_key(3 * 10 ** 6) > workloads.EMIT_COST_CAP


def test_emit_degrees_span_the_range():
    degrees = [int(argv[2]) for r in _first_rounds("emit", 3, 8) for argv in r]
    assert min(degrees) < 100 and max(degrees) >= 10 ** 18
    assert all(13 <= n < 2 ** 64 for n in degrees)


def test_rounds_spread_over_each_group():
    parts = [list(range(100)), list(range(100, 200))]
    picked = list(itertools.islice(workloads.spread_rounds(parts, random.Random(1)), 10))
    for j, part in enumerate(parts):
        column = sorted(r[j] for r in picked)
        assert len(set(column)) == 10 and set(column) <= set(part)
        # ten picks leave no gap wider than a fifth of the group
        assert max(b - a for a, b in zip([part[0]] + column, column + [part[-1]])) <= 20


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_each_workload_runs_at_a_tiny_size(name):
    report = worker.run(name, 1, 0, 60, max_items=1)
    assert report["attempted"] == 1 and report["failed"] == 0
    assert report["correct"], report["problems"]
    assert report["slp_bits"] > 0


def test_float_bound_failure_is_counted_not_fatal(monkeypatch):
    _with_items(monkeypatch, [("emit", "-n", FLOAT_BOUND_DEGREE, "--kind", "alt"),
                              ("emit", "-n", SILENT_FLOAT_BOUND_DEGREE, "--kind", "sym"),
                              ("emit", "-n", "17", "--kind", "sym")])
    report = worker.run("emit", 0, 0, 60, max_items=3)
    assert report["attempted"] == 3 and report["failed"] == 2
    assert report["fail_classes"] == {"exit3:InternalInvariantViolation": 1,
                                      "wrong:FloatBoundOutput": 1}
    assert report["correct"]


def test_item_time_limit_is_a_failure_class(monkeypatch):
    _with_items(monkeypatch, [("emit", "-n", "300017", "--kind", "sym")])
    stdout = sys.stdout
    report = worker.run("emit", 0, 0, 0.05, max_items=1)
    assert report["fail_classes"] == {"ItemTimeLimit": 1}
    assert sys.stdout is stdout
    # the presentations are sized outside the timed loop and its limit
    assert report["slp_bits_samples"] == workloads.BITS_SAMPLE
    assert report["correct"], report["problems"]


def test_untampered_outputs_pass():
    order = ("verify", "-n", "14", "--kind", "sym", "--depth", "order")
    checks.check(order, _output(order))
    emit = ("emit", "-n", "101", "--kind", "alt")
    assert checks.check(emit, _output(emit)) > 0


@pytest.mark.parametrize("old,new", [
    (" OK", " FAIL"),
    ("identity=True", "identity=False"),
    ("order=87178291200", "order=87178291201"),
    ("degree=14", "degree=15"),
])
def test_tampered_verify_output_is_caught(old, new):
    argv = ("verify", "-n", "14", "--kind", "sym", "--depth", "order")
    text = _output(argv)
    assert old in text
    with pytest.raises(checks.CheckFailed):
        checks.check(argv, text.replace(old, new))


def test_a_wrong_glue_prime_below_2_53_is_not_excused():
    argv = ("emit", "-n", "1000000000000", "--kind", "sym")
    text = _output(argv)
    assert '"p": 500000000147' in text
    with pytest.raises(checks.CheckFailed) as caught:  # 11 mod 12, 2p < n+2
        checks.check(argv, text.replace('"p": 500000000147', '"p": 499999999991'))
    assert not isinstance(caught.value, checks.FloatBoundOutput)


def test_order_is_checked_against_factorial_not_the_printed_expectation():
    argv = ("verify", "-n", "13", "--kind", "alt", "--depth", "order")
    right = str(math.factorial(13) // 2)
    wrong = str(math.factorial(13))
    with pytest.raises(checks.CheckFailed):
        checks.check(argv, _output(argv).replace(right, wrong))


@pytest.mark.parametrize("tamper", [
    lambda t: t.replace('"p": 59', '"p": 61'),
    lambda t: t.replace('"k": 21', '"k": 22'),
    lambda t: t.replace("generators: a g y", "generators: a g y q"),
    lambda t: t + "relator: a\n",
    lambda t: t.replace("# degree: 101", "# degree: 102"),
    lambda t: t.replace("relator:", "relater:", 1),
])
def test_tampered_emit_output_is_caught(tamper):
    argv = ("emit", "-n", "101", "--kind", "alt")
    text = _output(argv)
    assert '"p": 59' in text and '"k": 21' in text
    with pytest.raises(checks.CheckFailed):
        checks.check(argv, tamper(text))


def test_missing_hook_fails_before_anything_is_wrapped(monkeypatch):
    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + (
        ("numth", "shortpres.numth", "no_such_function"),))
    before = cli.main
    with pytest.raises(tracing.HookMissing):
        tracing.Tracer().install()
    assert cli.main is before


def test_result_line_untraced():
    proc = _run_bench("--workload", "sweep", "--seed", "3", "--seconds", "0.5",
                      "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(result["metrics"])
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_counts_each_layer_once():
    proc = _run_bench("--workload", "sweep", "--seed", "3", "--seconds", "1",
                      "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["per_layer"]} == set(result["metrics"])
    value = {name: m["value"] for name, m in result["metrics"].items()}
    # one outermost numth span per presentation, nested calls folded in
    assert value["numth.calls"] == result["attempted"]
    assert 0 < value["words.simplify_calls"] <= value["builders.defs"]
    assert value["words.eval_s"] > 0 and value["perm.mul_calls"] > 0
    assert value["verify.certify_s"] == 0 and value["builders.emit_s"] == 0


def test_emit_runs_a_fixed_item_count_with_a_fixed_outcome():
    results = []
    for _ in range(2):
        proc = _run_bench("--workload", "emit", "--seed", "2", "--seconds", "1",
                          "--trace", "0")
        assert proc.returncode == 0, proc.stderr
        results.append(json.loads(proc.stdout.splitlines()[-1]))
    assert results[0]["attempted"] == results[1]["attempted"] == workloads.EMIT_GROUPS
    assert results[0]["failed"] == results[1]["failed"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, str(tmp_path / HERE.name / "run.py"),
                           "--workload", "sweep", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], capture_output=True, text=True,
                          cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
