"""Tests of the benchmark itself: seeded job lists, the correctness gate, tracing.

Run from the repository root:

    python3 -m unittest discover -s perfbench -t perfbench
"""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qgordon import cli, ideal_quotient, qcombinat, selberg, series  # noqa: E402

SEEDS = range(1, 21)


@contextlib.contextmanager
def swapped(owner, attr, replacement):
    original = getattr(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield original
    finally:
        setattr(owner, attr, original)


def bumped(s: series.BiSeries, a: int, b: int) -> series.BiSeries:
    """The series with one coefficient off by one."""
    rows = [list(row) for row in (s.row(r) for r in range(s.x_order + 1))]
    rows[a][b] += 1
    return series.BiSeries(s.x_order, s.q_order, rows)


def small_jobs(workload: str) -> list[dict]:
    return workloads.warmup_jobs(workload)


def scratch_dir() -> str:
    run.RESULTS.mkdir(parents=True, exist_ok=True)
    return tempfile.mkdtemp(dir=run.RESULTS)


class SeededInputs(unittest.TestCase):
    def test_same_seed_gives_byte_identical_jobs(self):
        for workload in workloads.WORKLOADS:
            for seed in SEEDS:
                self.assertEqual(
                    workloads.dumps_jobs(workloads.make_jobs(workload, seed)),
                    workloads.dumps_jobs(workloads.make_jobs(workload, seed)),
                )

    def test_other_seed_gives_other_jobs_of_the_same_size(self):
        for workload in workloads.WORKLOADS:
            lists = [workloads.make_jobs(workload, seed) for seed in SEEDS]
            self.assertNotEqual(lists[0], lists[1], workload)
            self.assertGreaterEqual(len({workloads.dumps_jobs(j) for j in lists}), 5, workload)
            size = {(len(jobs), sum(map(workloads.comparisons, jobs))) for jobs in lists}
            self.assertEqual(len(size), 1, workload)

    def test_each_member_once_and_offsets_sum_to_zero(self):
        jittered = {"gordon-verify": "xmax", "analytic-window": "xmax", "oracle-crosscheck": "mmax"}
        for workload, key in jittered.items():
            sums = set()
            for seed in SEEDS:
                jobs = workloads.make_jobs(workload, seed)
                self.assertEqual(sorted(j.get("t", j.get("e")) for j in jobs), [1, 2, 3])
                sums.add(sum(j[key] for j in jobs))
            self.assertEqual(len(sums), 1, workload)


class CorrectnessGate(unittest.TestCase):
    def setUp(self):
        self.workdir = scratch_dir()
        self.addCleanup(shutil.rmtree, self.workdir)

    def run_small(self, workload: str) -> workloads.Outcome:
        total = workloads.Outcome()
        for job in small_jobs(workload):
            out = workloads.run_job(job, self.workdir)
            total.attempted += out.attempted
            total.failed += out.failed
            total.cells += out.cells
            total.failures += out.failures
        return total

    def test_every_workload_matches_when_nothing_is_wrong(self):
        for workload in workloads.WORKLOADS:
            out = self.run_small(workload)
            expected = sum(map(workloads.comparisons, small_jobs(workload)))
            self.assertEqual((out.attempted, out.failed), (expected, 0), out.failures)
            self.assertGreater(out.cells, 0)

    def assert_reports_failure(self, workload: str):
        out = self.run_small(workload)
        self.assertGreaterEqual(out.failed, 1)
        self.assertTrue(any("mismatch" in f for f in out.failures), out.failures)
        passes = [{"traced": False, "wall_s": 1.0, "cells": out.cells, "peak_rss_mb": 1.0,
                   "setup_s": 0.1, "attempted": out.attempted, "failed": out.failed}]
        summary = run.summarize(passes, trace=False)
        self.assertFalse(summary["correct"])
        self.assertGreater(summary["fail_ratio"], 0)

    def test_wrong_gordon_count_is_reported(self):
        def wrong(cond, n, _count=cli.count_gordon_partitions):
            return _count(cond, n) + (n == 5)

        with swapped(cli, "count_gordon_partitions", wrong):
            self.assert_reports_failure("gordon-verify")

    def test_wrong_product_coefficient_is_reported(self):
        def wrong(cond, q_order, _product=qcombinat.gordon_product):
            return bumped(_product(cond, q_order), 0, 7)

        with swapped(qcombinat, "gordon_product", wrong):
            self.assert_reports_failure("analytic-window")

    def test_wrong_oracle_dimension_is_reported(self):
        def wrong(k, e, m_max, w_max, _table=ideal_quotient.hilbert_table):
            table = _table(k, e, m_max, w_max)
            entries = bumped(table.to_biseries(), 2, 6)
            return dataclasses.replace(
                table, entries=tuple(entries.row(m) for m in range(m_max + 1))
            )

        with swapped(ideal_quotient, "hilbert_table", wrong):
            self.assert_reports_failure("oracle-crosscheck")

    def test_wrong_loaded_coefficient_is_reported(self):
        real = selberg.RecursionFamily

        class Loader:
            @staticmethod
            def from_json_dict(obj):
                fam = real.from_json_dict(obj)
                return dataclasses.replace(
                    fam, members=(bumped(fam.members[0], 1, 3),) + fam.members[1:]
                )

        with swapped(cli, "RecursionFamily", Loader):
            self.assert_reports_failure("family-roundtrip")

    def test_exception_fails_every_comparison_of_the_job(self):
        def broken(cond, n):
            raise ArithmeticError("injected")

        with swapped(cli, "count_gordon_partitions", broken):
            out = self.run_small("gordon-verify")
        self.assertEqual((out.attempted, out.failed), (3, 3))
        self.assertIn("injected", out.failures[0])


class Tracing(unittest.TestCase):
    def setUp(self):
        self.workdir = scratch_dir()
        self.addCleanup(shutil.rmtree, self.workdir)

    def site_objects(self):
        out = []
        for module_name, class_name, attr, _ in tracing.SITES:
            owner = sys.modules[module_name]
            owner = getattr(owner, class_name) if class_name else owner
            out.append(owner.__dict__[attr] if class_name else getattr(owner, attr))
        return out + [cli.json]

    def test_traced_run_reports_every_layer_metric_and_restores_the_package(self):
        before = self.site_objects()
        tracer = tracing.Tracer()
        stdout_bytes = 0
        with tracer.installed():
            for n, job in enumerate(j for w in workloads.WORKLOADS for j in small_jobs(w)):
                tracer.run_id = n
                out = workloads.run_job(job, self.workdir)
                self.assertEqual(out.failed, 0, out.failures)
                stdout_bytes += out.stdout_bytes
        after = self.site_objects()
        self.assertTrue(all(a is b for a, b in zip(before, after)))

        metrics = tracing.layer_metrics(tracer.spans, tracer.counts, 10.0, stdout_bytes)
        self.assertEqual(
            set(metrics) | {"trace.traced_wall_s", "trace.untraced_wall_s"},
            set(run.LAYER_METRICS),
        )
        for name in run.LAYER_METRICS:
            if not name.startswith("trace."):
                self.assertGreater(metrics[name], 0, name)
        self.assertLessEqual(metrics["ideal_quotient.rank.useful_ratio"], 1)
        self.assertLess(metrics["ideal_quotient.span_build.s"], metrics["ideal_quotient.hilbert_table.s"])
        names = {s["name"] for s in tracer.spans}
        parents = {s["parent"] for s in tracer.spans}
        self.assertIn("cli.main", names)
        self.assertTrue(parents - {None})

    def test_multisum_tuple_count_matches_brute_force(self):
        for k, i, x_order, q_order in [(1, 0, 5, 20), (2, 1, 10, 50), (2, 2, 8, 40), (3, 1, 12, 60)]:
            brute = sum(
                1
                for tup in itertools.product(range(x_order + 1), repeat=k)
                if all(tup[j] >= tup[j + 1] for j in range(k - 1))
                and sum(tup) <= x_order
                and sum(v * v for v in tup) + sum(tup[i:]) <= q_order
            )
            self.assertEqual(tracing._multisum_tuples(k, i, x_order, q_order), brute)


class Contract(unittest.TestCase):
    def test_benchmark_json_names_the_metrics_the_run_prints(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))
        self.assertEqual([m["name"] for m in spec["end_to_end"]], list(run.END_TO_END_UNITS))
        self.assertEqual([m["name"] for m in spec["per_layer"]], run.LAYER_METRICS)
        for m in spec["end_to_end"]:
            self.assertEqual(m["unit"], run.END_TO_END_UNITS[m["name"]])
        for m in spec["per_layer"]:
            self.assertEqual(m["unit"], run.layer_unit(m["name"]))

    def test_fails_without_a_result_where_there_is_no_package(self):
        bare = Path(scratch_dir())
        self.addCleanup(shutil.rmtree, bare)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("results", "__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "gordon-verify",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("{", proc.stdout)


if __name__ == "__main__":
    unittest.main()
