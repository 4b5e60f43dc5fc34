#!/usr/bin/env python3
"""Self-test of the benchmark at tiny sizes: metrics present, every check passing.

    python3 perfbench/selftest.py

Runs one cycle of each workload, untraced and traced, on shrunken inputs.
It checks that the result has exactly the keys and metrics (with units)
BENCHMARK.json names and that every output check passes.  It has no
timing gate.  Exit code 0 when everything holds.
"""

from __future__ import annotations

import json
import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    os.chdir(os.path.dirname(HERE))
    from run import run  # noqa: E402  (sibling module of this script)

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    errors = []
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            lines = []
            result = run(workload, seed=1, seconds=0.01, trace=trace, tiny=True, say=lines.append)
            where = f"{workload} trace={int(trace)}"
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                errors.append(f"{where}: result keys {sorted(result)}")
            expected = {m["name"]: m["unit"] for m in spec[section]}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            if got != expected:
                errors.append(f"{where}: metrics {got} != {expected}")
            if not all(isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
                errors.append(f"{where}: non-numeric metric value")
            if not result["correct"]:
                errors.append(f"{where}: checks failed: {[ln for ln in lines if 'WRONG' in ln]}")
            # the only failures allowed are the chain ops at or above the recursion cliff
            for ln in lines:
                hit = re.match(r"# failed: (.*) x\d+$", ln)
                if hit and not re.fullmatch(r"chain L=\d+: RecursionError", hit.group(1)):
                    errors.append(f"{where}: unexpected failure {hit.group(1)}")
            counts = {k: result[k] for k in ("attempted", "failed", "correct")}
            print(f"{where}: {counts}")
    for e in errors:
        print("SELFTEST FAIL:", e)
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
