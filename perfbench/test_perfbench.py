"""Tests of the certchain benchmark harness itself.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each workload runs for one second on a small seeded corpus; the harness is
built on first use (run.py builds it).
"""

import json
import os
import re
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
SMALL = ["--scale", "0.002", "--connections", "6000", "--seconds", "1"]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def declaration():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, RUN, *args], cwd=cwd, text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          check=False, timeout=900)


def result_line(done):
    return json.loads(done.stdout.strip().splitlines()[-1])


class DeclarationTest(unittest.TestCase):
    def test_declaration_follows_the_contract(self):
        doc = declaration()
        self.assertEqual(set(doc), {"command", "paths", "run_seconds", "workloads",
                                    "end_to_end", "per_layer"})
        self.assertEqual([w["name"] for w in doc["workloads"]],
                         ["batch_study", "serve_read", "serve_write"])
        for workload in doc["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertLessEqual(len(workload["why"]), 200)
        names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for metric in doc["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
        for metric in doc["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in doc["end_to_end"] + doc["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("lower", "higher"))
        setup = [m for m in doc["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"], max(m["bound"] for m in doc["end_to_end"]))


class WorkloadTest(unittest.TestCase):
    def assert_declared(self, result, key):
        expected = {m["name"]: m["unit"] for m in declaration()[key]}
        got = {name: entry["unit"] for name, entry in result["metrics"].items()}
        self.assertEqual(got, expected)
        for entry in result["metrics"].values():
            self.assertIsInstance(entry["value"], (int, float))

    def test_every_workload_reports_every_end_to_end_metric(self):
        for workload in ("batch_study", "serve_read", "serve_write"):
            with self.subTest(workload=workload):
                done = run("--workload", workload, "--seed", "11", "--trace", "0", *SMALL)
                self.assertEqual(done.returncode, 0, done.stderr[-2000:])
                result = result_line(done)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"], done.stdout[-3000:])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                self.assert_declared(result, "end_to_end")
                for metric in ("setup_s", "op_p50_ms", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][metric]["value"], 0)

    def test_traced_run_reports_every_per_layer_metric(self):
        done = run("--workload", "serve_write", "--seed", "12", "--trace", "1", *SMALL)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = result_line(done)
        self.assertTrue(result["correct"], done.stdout[-3000:])
        self.assert_declared(result, "per_layer")
        metrics = {name: entry["value"] for name, entry in result["metrics"].items()}
        parts = ["core.ingest_ms", "core.join_ms", "core.enrich_ms", "core.categorize_ms",
                 "core.structure_ms", "core.graphs_ms", "core.ct_compliance_ms",
                 "core.pipeline_unattributed_ms", "core.run_unattributed_ms",
                 "core.render_ms"]
        self.assertAlmostEqual(sum(metrics[p] for p in parts),
                               metrics["core.traced_study_ms"], places=6)
        write_parts = ["write.core.enrich_ms", "write.core.categorize_ms",
                       "write.core.structure_ms", "write.core.graphs_ms",
                       "write.core.ct_compliance_ms", "write.analyze_unattributed_ms"]
        self.assertAlmostEqual(sum(metrics[p] for p in write_parts),
                               metrics["write.analyze_ms"], places=6)

    def test_wrong_expected_digest_is_a_failure(self):
        done = run("--workload", "batch_study", "--seed", "11", "--trace", "0",
                   "--expect-digest", "0123456789abcdef", *SMALL)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        result = result_line(done)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], result["attempted"])
        self.assertIn("batch.digest_recorded", done.stdout)
        self.assertRegex(done.stdout, r"check\s+batch\.digest_recorded\s+FAIL")

    def test_without_sources_it_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = subprocess.run(
                [sys.executable, os.path.join("perfbench", "run.py"), "--workload",
                 "batch_study", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=bare, text=True, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                check=False, timeout=170)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"metrics"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
