#!/usr/bin/env python3
"""Smoke check of the benchmark: every workload at a tiny length, untraced
and traced.  Each run must exit 0, pass its output checks and print
exactly the metric names and units that BENCHMARK.json lists.

    python3 perfbench/smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = []
    for workload in spec["workloads"]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            command = spec["command"] + ["--workload", workload["name"], "--seed", "0",
                                         "--seconds", "1", "--trace", str(trace)]
            out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                 timeout=180)
            label = f"{workload['name']} --trace {trace}"
            if out.returncode != 0:
                failures.append(f"{label}: exit {out.returncode}\n{out.stderr}")
                continue
            result = json.loads(out.stdout.strip().splitlines()[-1])
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{label}: result keys {sorted(result)}")
            if result["correct"] is not True:
                failures.append(f"{label}: output checks failed\n{out.stderr}")
            if got != expected:
                units = sorted(k for k in got if k in expected and got[k] != expected[k])
                failures.append(f"{label}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(expected) - set(got))}, "
                                f"extra {sorted(set(got) - set(expected))}, units {units}")
            print(f"{label}: {result['attempted']} attempted, {result['failed']} failed")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
