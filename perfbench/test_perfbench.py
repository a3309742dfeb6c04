"""Tests of the benchmark itself (no build needed).

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Run from the root of the checkout.
"""

import collections
import json
import os
import re
import tempfile
import unittest

import run
import workload

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")

# A small stand-in for `pb info` output.
INFO = {
    "uarches": ["NHM", "SKL"],
    "names": {"NHM": ["ADD_R64_R64", "IMUL_R64_R64", "MOV_R64_M64"],
              "SKL": ["ADD_R64_R64", "IMUL_R64_R64", "MOV_R64_M64",
                      "VADDPS_YMM_YMM_YMM"]},
    "mnemonics": ["ADD", "IMUL", "MOV", "VADDPS"],
    "extensions": ["AVX", "BASE"],
    "asm_pool": [["ADD RAX, RBX", ["NHM", "SKL"]],
                 ["IMUL RCX, RDX", ["NHM", "SKL"]],
                 ["MOV RAX, [RBX]", ["NHM", "SKL"]],
                 ["VADDPS YMM0, YMM1, YMM2", ["SKL"]]],
}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class WorkloadTest(unittest.TestCase):
    def test_same_seed_gives_identical_bytes(self):
        for wl in run.WORKLOADS:
            a = workload.generate(INFO, wl, 7, 3)
            b = workload.generate(INFO, wl, 7, 3)
            self.assertEqual(workload.serialize(a), workload.serialize(b))
            self.assertEqual(workload.digest(a), workload.digest(b))
            c = workload.generate(INFO, wl, 8, 3)
            self.assertNotEqual(workload.digest(a), workload.digest(c))

    def test_every_class_is_present(self):
        for wl in run.WORKLOADS:
            classes = {r.cls for r in workload.generate(INFO, wl, 1, 3)}
            expected = set(workload.CLASSES)
            if wl == "serve_hot":   # its reloads follow the traffic
                expected.discard("reload")
            self.assertEqual(classes, expected, wl)

    def test_cold_requests_are_unique_work(self):
        reqs = workload.generate(INFO, "serve_cold", 3, 3)
        searches = [r.target for r in reqs if r.cls == "search"]
        self.assertEqual(len(searches), len(set(searches)))
        self.assertEqual(len(reqs), workload.COLD_PER_SECOND * 3)
        reloads = [i for i, r in enumerate(reqs) if r.cls == "reload"]
        self.assertEqual(len(reloads),
                         len(reqs) // workload.COLD_RELOAD_EVERY)

    def test_class_proportions_do_not_depend_on_seed(self):
        counts = set()
        for seed in range(4):
            reqs = workload.generate(INFO, "serve_hot", seed, 1)
            counts.add(tuple(sorted(collections.Counter(
                (r.cls, r.inm) for r in reqs).items())))
        self.assertEqual(len(counts), 1)


class SpecTest(unittest.TestCase):
    def test_benchmark_json_shape(self):
        spec = load_spec()
        self.assertEqual(set(spec), {"command", "paths", "run_seconds",
                                     "workloads", "end_to_end",
                                     "per_layer"})
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        for w in spec["workloads"]:
            self.assertEqual(set(w), {"name", "why"})
            self.assertTrue(w["why"] and "\n" not in w["why"])
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        for m in spec["end_to_end"]:
            self.assertEqual(set(m), {"name", "unit", "better", "bound"})
            self.assertLessEqual(m["bound"], 0.25)
            self.assertGreater(m["bound"], 0)
        for m in spec["per_layer"]:
            self.assertEqual(set(m), {"name", "unit", "better"})
        for m in spec["end_to_end"] + spec["per_layer"]:
            self.assertRegex(m["name"], NAME)
            self.assertRegex(m["unit"], UNIT)
            self.assertIn(m["better"], ("lower", "higher"))
        setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual((setup[0]["unit"], setup[0]["better"]),
                         ("s", "lower"))
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in spec["end_to_end"]))

    def test_metrics_map_covers_every_metric(self):
        spec = load_spec()
        with open(os.path.join(ROOT, "perfbench", "metrics_map.json")) as f:
            mapping = json.load(f)
        e2e = {m["name"] for m in spec["end_to_end"]}
        self.assertEqual(set(mapping["end_to_end"]), e2e)
        self.assertEqual(set(mapping["per_layer"]),
                         {m["name"] for m in spec["per_layer"]})
        self.assertEqual(set(mapping["workloads"]), set(run.WORKLOADS))
        for name, entry in mapping["per_layer"].items():
            self.assertTrue(entry["layer"], name)
            self.assertTrue(set(entry["moves"]) <= e2e, name)


class CompareTest(unittest.TestCase):
    def record(self, cpu, value):
        e2e = {m["name"]: (value, m["unit"])
               for m in load_spec()["end_to_end"]}
        return {"workload": "serve_hot", "trace": 0, "end_to_end": e2e,
                "fingerprint": {"machine": {"cpu_model": cpu},
                                "code": {"source_sha256": "x"}}}

    def write(self, directory, records):
        for i, r in enumerate(records):
            with open(os.path.join(directory, "%d.json" % i), "w") as f:
                json.dump(r, f)

    def test_refuses_results_from_different_machines(self):
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            self.write(a, [self.record("cpu A", 1.0)])
            self.write(b, [self.record("cpu B", 1.0)])
            cwd = os.getcwd()
            os.chdir(ROOT)
            try:
                self.assertEqual(run.compare(a, b), 3)
            finally:
                os.chdir(cwd)

    def test_same_machine_compares(self):
        with tempfile.TemporaryDirectory() as a, \
                tempfile.TemporaryDirectory() as b:
            self.write(a, [self.record("cpu A", 1.0)])
            self.write(b, [self.record("cpu A", 1.0)])
            cwd = os.getcwd()
            os.chdir(ROOT)
            try:
                self.assertEqual(run.compare(a, b), 0)
            finally:
                os.chdir(cwd)


if __name__ == "__main__":
    unittest.main()
