"""Tests for the benchmark itself: seeded task lists, the closed-form
oracles the checks rely on, and a tiny end-to-end run.

    python3 -m pytest bench/test_bench.py
"""

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from math import gcd
from types import SimpleNamespace

import pytest

import gen
import oracles
import tasks
from run import END_TO_END_UNITS
from tracer import PER_LAYER
from worker import BENCH, ROOT, SRC, load_library

LIB = SimpleNamespace(**load_library()[1])
alexander, covers, distribution = LIB.alexander, LIB.covers, LIB.distribution


def task_list(workload, seed):
    return [gen.make_task(workload, seed, i) for i in range(2 * gen.round_length(workload))]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_same_tasks(workload):
    assert task_list(workload, 7) == task_list(workload, 7)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_other_seed_other_tasks(workload):
    a, b = task_list(workload, 7), task_list(workload, 8)
    assert a != b
    # the class schedule is fixed; only the inputs inside a class move
    assert [t["kind"] for t in a] == [t["kind"] for t in b]


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_tasks_are_plain_data(workload):
    for task in task_list(workload, 3):
        assert json.loads(json.dumps(task)) == task


def test_apostol_matches_resultants():
    for p in range(2, 9):
        for q in range(p + 1, 10):
            if gcd(p, q) != 1:
                continue
            params = alexander.torus_params(p, q)
            for m in range(1, 25):
                assert oracles.knot_cover_order(p, q, m) == covers.homology_order_cyclic(params, m), (p, q, m)
            for ell in (2, 3):
                want = covers.tower_orders_knot(params, ell, 3).orders
                assert [oracles.fox_weber(p, q, ell, n) for n in range(4)] == list(want)


def test_link_tower_oracle():
    for (p, q), z in (((4, 6), (1, 2)), ((6, 9), (1, 2, 1)), ((4, 8), (1, 2, 1, 1)), ((6, 4), (2, -1))):
        for ell in (2, 3, 5):
            params = alexander.torus_params(p, q)
            want = covers.tower_orders_link(params, z, ell, 4).orders
            assert oracles.link_tower_orders(p, q, z, ell, 4) == list(want), (p, q, z, ell)


def test_ledger_invariants():
    for p in range(2, 13):
        for q in range(2, 13):
            params = alexander.torus_params(p, q)
            ledger = oracles.torus_multiplicities(p, q)
            assert ledger == alexander.cyclotomic_multiplicities(params).entries
            assert oracles.determinant(ledger) == alexander.determinant(params), (p, q)
            for ell in (2, 3, 5, 7):
                got = alexander.coloring_zero_order(params, ell)
                assert oracles.coloring_zero_order(ledger, ell) == got, (p, q, ell)


def test_counting_oracles():
    mu = oracles.mobius_sieve(60)
    for X in (1, 7, 30, 60):
        assert oracles.coprime_roots_total(X, mu) == distribution.count_roots_total(X, "knots_coprime")
        for k in (1, 6, 12, 60):
            assert oracles.weyl_value(X, k, mu) == distribution.weyl_sum(X, k), (X, k)
        for r in (2, 6, 9, 12):
            assert oracles.frequency(X, r) == distribution.frequency_Fr(X, r), (X, r)
    for a, b in ((Fraction(0), Fraction(1, 2)), (Fraction(1, 10), Fraction(7, 20)), (Fraction(1, 3), Fraction(1))):
        arc = distribution.arc(a, b)
        for family in ("knots_coprime", "all_links"):
            report, _ = distribution.scan(25, family, arc)
            assert oracles.family_arc_count(25, family == "knots_coprime", a, b) == report.arc_count


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_every_check_catches_a_corrupted_record(workload):
    env = tasks.cli_env(str(SRC))
    for task in gen.TINY[workload]:
        rec = tasks.record(task, tasks.run(LIB, task, env))
        tasks.check(LIB, task, rec)
        with pytest.raises(tasks.Mismatch):
            tasks.check(LIB, task, tasks.corrupt(rec))


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc.returncode, proc.stdout.strip().splitlines()


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(gen.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(PER_LAYER)


@pytest.mark.parametrize("workload", gen.WORKLOADS)
@pytest.mark.parametrize("trace", ("0", "1"))
def test_tiny_run_reports_every_metric(workload, trace):
    rc, lines = bench("--workload", workload, "--seed", "1", "--seconds", "0.3", "--trace", trace, "--tiny")
    assert rc == 0
    record, result = json.loads(lines[-2])["record"], json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    names = [n for n, _, _ in PER_LAYER] if trace == "1" else list(END_TO_END_UNITS)
    assert list(result["metrics"]) == names
    for key in ("git_sha", "python", "numpy", "nproc", "seed", "tasks", "seconds", "digest"):
        assert key in record


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_corrupted_results_count_as_failed(workload):
    rc, lines = bench("--workload", workload, "--seed", "1", "--seconds", "0.3", "--trace", "0", "--tiny", "--corrupt")
    assert rc == 0
    result = json.loads(lines[-1])
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    rc, lines = bench("--workload", "family_scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert rc != 0 and lines == []
