"""Tests of run.py's result-line check against BENCHMARK.json.

    python3 -m unittest discover -s perfbench/tests -p 'test_*.py'
"""

import importlib.util
import json
import os
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location("perfbench_run", os.path.join(HERE, "..", "run.py"))
run = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(run)

SPEC = {
    "end_to_end": [
        {"name": "pkts_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ],
    "per_layer": [{"name": "uml.pump_ns", "unit": "ns", "better": "lower"}],
}


def line(metrics, **top):
    result = {"correct": True, "attempted": 10, "failed": 0, "metrics": metrics}
    result.update(top)
    return json.dumps(result)


E2E = {"pkts_per_s": {"value": 1.5e6, "unit": "1/s"}, "setup_s": {"value": 0.03, "unit": "s"}}


class ValidateResultTest(unittest.TestCase):
    def test_accepts_each_mode_with_its_own_metrics(self):
        self.assertEqual(run.validate_result(line(E2E), SPEC, trace=0), [])
        per_layer = {"uml.pump_ns": {"value": 612.5, "unit": "ns"}}
        self.assertEqual(run.validate_result(line(per_layer), SPEC, trace=1), [])
        self.assertNotEqual(run.validate_result(line(per_layer), SPEC, trace=0), [])

    def test_rejects_missing_extra_and_mislabelled_metrics(self):
        missing = {"pkts_per_s": E2E["pkts_per_s"]}
        self.assertNotEqual(run.validate_result(line(missing), SPEC, trace=0), [])
        extra = dict(E2E, other={"value": 1, "unit": "s"})
        self.assertNotEqual(run.validate_result(line(extra), SPEC, trace=0), [])
        wrong_unit = dict(E2E, setup_s={"value": 0.03, "unit": "ms"})
        self.assertNotEqual(run.validate_result(line(wrong_unit), SPEC, trace=0), [])
        extra_key = dict(E2E, setup_s={"value": 0.03, "unit": "s", "samples": 5})
        self.assertNotEqual(run.validate_result(line(extra_key), SPEC, trace=0), [])

    def test_rejects_bad_top_level(self):
        self.assertNotEqual(run.validate_result("not json", SPEC, trace=0), [])
        self.assertNotEqual(run.validate_result(line(E2E, attempted=0), SPEC, trace=0), [])
        self.assertNotEqual(run.validate_result(line(E2E, failed=1.5), SPEC, trace=0), [])
        self.assertNotEqual(run.validate_result(line(E2E, correct="yes"), SPEC, trace=0), [])
        extra = json.loads(line(E2E))
        extra["note"] = "x"
        self.assertNotEqual(run.validate_result(json.dumps(extra), SPEC, trace=0), [])

    def test_repository_spec_is_well_formed(self):
        with open(os.path.join(HERE, "..", "..", "BENCHMARK.json")) as f:
            spec = json.load(f)
        names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
        self.assertEqual(len(names), len(set(names)))
        self.assertIn("setup_s", names)
        for metric in spec["end_to_end"]:
            self.assertLessEqual(metric["bound"], 0.25)


if __name__ == "__main__":
    unittest.main()
