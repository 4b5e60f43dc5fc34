#!/usr/bin/env python3
"""Record the reference outputs the benchmark checks against.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record.py

It evaluates every pool item of workloads.py with the package in ``src/``
and writes ``perfbench/references.json``: the binary closed-form objective,
the supply factor and DP objective of each general-unequal item, the exact
offline optimum of each realized triangular item, and the empirical
matching ratio of each batch.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

import yieldopt as yo  # noqa: E402
from spans import bind  # noqa: E402
import workloads as w  # noqa: E402
from run import stamp  # noqa: E402


def main() -> int:
    api = bind(yo, None)
    t0 = time.perf_counter()
    general = []
    for k in range(w.general_pool_size()):
        instance, dist = w.general_item(yo, k)
        f = yo.supply_factor(instance)
        _, objective, _ = yo.make_policy(dist, w.C, f, float(instance.total_demand))
        general.append({"supply_factor": f, "objective": objective})
    triangular_opt = [
        [yo.offline_opt_exact(w.opt_item(yo, api, s, binary, k)[0], w.C) for k in range(w.OPT_POOL)]
        for s in range(len(w.OPT_SHAPES))
        for binary in (True, False)
    ]
    matching = [
        [
            list(yo.empirical_ratio(w.MATCH_M, 1, f, w.MATCH_TRIALS, w.match_seed(f, k)))
            for k in range(w.MATCH_POOL)
        ]
        for f in w.MATCH_FS
    ]
    refs = {
        "recorded_with": stamp("record", 0),
        "binary_objective_per_demand": yo.make_policy(w.binary_dist(yo), w.C, w.TRI_F)[1],
        "general": general,
        "triangular_opt": triangular_opt,
        "matching": matching,
    }
    with open(os.path.join(HERE, "references.json"), "w") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"recorded in {time.perf_counter() - t0:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
