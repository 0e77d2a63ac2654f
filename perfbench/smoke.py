"""Smoke check of the benchmark harness at tiny trajectory counts.

Runs every workload once untraced and once traced through ``run.py`` and
asserts that each metric named in ``BENCHMARK.json`` is emitted with its
unit.  At 1% of the trajectories the MC verdicts are expected to fail, so
only the shape of the result is checked, not ``correct``.  Takes about a
minute:

    python3 perfbench/smoke.py
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    problems = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, metrics in expected.items():
            cmd = [sys.executable, *spec["command"][1:], "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace),
                   "--trajectory-scale", "0.01"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  timeout=300)
            tag = f"{workload} trace={trace}"
            if proc.returncode not in (0, 1):
                problems.append(f"{tag}: exit {proc.returncode}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result["attempted"] < 1:
                problems.append(f"{tag}: nothing attempted")
            emitted = result["metrics"]
            for metric in metrics:
                got = emitted.get(metric["name"])
                if got is None or got.get("unit") != metric["unit"]:
                    problems.append(f"{tag}: {metric['name']} [{metric['unit']}] -> {got}")
            extra = set(emitted) - {m["name"] for m in metrics}
            if extra:
                problems.append(f"{tag}: unlisted metrics {sorted(extra)}")
            print(f"{tag}: {len(emitted)} metrics, {result['attempted']} operations")
    for problem in problems:
        print("PROBLEM", problem)
    print("smoke check", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
