"""Replay every query of both triangular-binary shapes through ``serve_query``.

perfbench's streams replay only the first 800 or 4000 queries of an instance; this replays every
query, late segments and saturated groups included, and compares the deliveries and the exchange
revenue with ``run_rewards``. Exits 1 on any difference.

Run with ``python3 .github/scripts/full_replay.py`` against an installed (or ``PYTHONPATH=src``) yieldopt.
"""

import sys

import numpy as np

import yieldopt as yo

SEED = 7919


def main() -> None:
    dist = yo.RewardDistribution.binary(0.5, 0.5)
    for m, n in ((500, 200), (50, 2000)):
        inst = yo.gen_upper_triangular(m, n, 2.0, SEED)
        policy, _, _ = yo.make_policy(dist, 1.0, 2.0, float(inst.total_demand))
        rewards = yo.sample_array(dist, np.random.default_rng(SEED), inst.total_queries)
        report = yo.run_rewards(inst, policy, 1.0, rewards)
        state, pos = yo.AllocationState.fresh(inst.demands), 0
        for count, elig in inst.groups:
            for reward in rewards[pos : pos + count].tolist():
                yo.serve_query(state, policy, elig, reward)
            pos += count
        revenue = state.exchange_revenue
        if report.delivered != tuple(state.delivered):
            sys.exit(f"{m}x{n}: run_rewards and the serve_query replay deliver differently")
        if abs(report.exchange_revenue - revenue) > 1e-12 * max(1.0, abs(revenue)):
            sys.exit(f"{m}x{n}: revenue {report.exchange_revenue!r}, replay {revenue!r}")
        print(f"{m}x{n}: {sum(report.delivered)} deliveries and revenue {revenue!r} agree")


if __name__ == "__main__":
    main()
