"""Smoke test: every workload at toy size emits every declared metric.

Run from the repository root:

    python3 -m pytest perfbench/test_smoke.py      # or
    python3 perfbench/test_smoke.py
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_toy(workload: str, trace: int) -> tuple[int, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    return proc.returncode, json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check(self, trace: int, declared: list[dict]) -> None:
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload, trace=trace):
                code, result = run_toy(workload, trace)
                self.assertEqual(code, 0)
                self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                self.assertIs(result["correct"], True)
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                emitted = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(emitted, {m["name"]: m["unit"] for m in declared})

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])


if __name__ == "__main__":
    unittest.main()
