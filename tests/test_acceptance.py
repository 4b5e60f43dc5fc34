"""End-to-end acceptance suite.

One test per headline criterion, each printing a pass/fail line with its
measured value and runtime.  The heavy adversarial simulation is shared
between the reward-convergence and ratio checks.
"""

import pytest

from yieldopt import repro

LIMITS = {
    "binary-threshold-grid": 10.0,
    "lb-ub-identity": 30.0,
    "beta-recurrence": 5.0,
    "kvv-binary": 60.0,
    "sandwich": 10.0,
    "matching-ratio": 60.0,
    "opt-concentration": 60.0,
    "supply-recovery": 10.0,
    "worstcase-fixed-mean": 5.0,
}


def report(criterion: str, result: repro.ReproResult) -> None:
    for line in result.lines():
        print(f"[criterion {criterion}] {line}")


def check(criterion: str, result: repro.ReproResult) -> None:
    report(criterion, result)
    assert result.passed, f"criterion {criterion} failed: {result.lines()}"
    limit = LIMITS[result.name]
    assert result.runtime_s < limit, (
        f"criterion {criterion} exceeded its {limit}s budget: {result.runtime_s:.1f}s"
    )


def test_every_experiment_has_a_budget():
    assert set(LIMITS) == set(repro.EXPERIMENTS)


@pytest.fixture(scope="module")
def kvv_result():
    return repro.run_kvv_binary()


def test_criterion_01_binary_threshold_agreement():
    check("1", repro.run_binary_threshold_grid())


def test_criterion_02_lb_ub_identity():
    check("2", repro.run_lb_ub_identity())


def test_criterion_03_beta_recurrence_vs_closed_form():
    check("3", repro.run_beta_recurrence())


def test_criterion_04_simulation_convergence(kvv_result):
    report("4", kvv_result)
    reward_check = kvv_result.checks[0]
    assert reward_check.ok, f"criterion 4 failed: {reward_check}"
    assert kvv_result.runtime_s < LIMITS["kvv-binary"]


def test_criterion_05_competitive_ratio(kvv_result):
    ratio_check = kvv_result.checks[1]
    print(f"[criterion 5] {'pass' if ratio_check.ok else 'FAIL'} {ratio_check.label}: "
          f"measured={ratio_check.measured:.6g} expected={ratio_check.expected:.6g}")
    assert ratio_check.ok, f"criterion 5 failed: {ratio_check}"


def test_criterion_06_sandwich_property():
    check("6", repro.run_sandwich())


def test_criterion_07_matching_ratios():
    check("7", repro.run_matching_ratio())


def test_criterion_08_opt_concentration():
    check("8", repro.run_opt_concentration())


def test_criterion_09_supply_factor_recovery():
    check("9", repro.run_supply_recovery())


def test_criterion_10_worst_case_fixed_mean():
    check("10", repro.run_worstcase_fixed_mean())
