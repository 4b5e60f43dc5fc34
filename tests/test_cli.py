import csv
import io
import json
import math

import numpy as np
import pytest

from yieldopt.cli import main
from yieldopt.dist import RewardDistribution
from yieldopt.instances import Instance, gen_upper_triangular, supply_factor
from yieldopt.matching import empirical_ratio, perturbed_greedy, trial_weights
from yieldopt.oracle import RealizedInstance, offline_opt_exact
from yieldopt.ratio import competitive_ratio

BINARY_JSON = '{"support": [0.0, 0.5], "cum_mass": [0.5, 1.0]}'
# lowest bid 0.2 > 0: the policy is solved on rewards shifted down by 0.2
SHIFTED_JSON = '{"support": [0.2, 0.5], "cum_mass": [0.5, 1.0]}'
THREE_POINT_JSON = '{"support": [0.0, 0.4, 0.9], "cum_mass": [0.3, 0.7, 1.0]}'
# 4 queries for demand 2, but advertiser 1 sees only one of them: supply factor 1, not 2
BOTTLENECK = {
    "demands": [1, 1],
    "groups": [{"count": 3, "eligible": [0]}, {"count": 1, "eligible": [1]}],
}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestThresholds:
    def test_canonical_binary(self, capsys):
        code, out, _ = run_cli(
            capsys, "thresholds", "--dist", BINARY_JSON, "--penalty", "1.0", "--supply", "2.0"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["schema"] == 1
        assert obj["thresholds"][0] == pytest.approx(1 + math.log(0.5), abs=1e-9)
        assert obj["thresholds"][1] == 1.0
        assert obj["objective_per_unit_demand"] == pytest.approx(0.142236, abs=1e-5)
        binary = RewardDistribution.binary(0.5, 0.5)
        assert obj["objective_per_unit_demand"] == competitive_ratio(binary, 1.0, 2.0).alg_bound
        # a lowest bid of 0.2 is its own units: the bids and the penalty lowered by 0.2 give the
        # same thresholds and an objective (f - 1) * 0.2 lower
        code, out, _ = run_cli(
            capsys, "thresholds", "--dist", '{"support": [0.2, 0.7], "cum_mass": [0.5, 1.0]}',
            "--penalty", "1.2", "--supply", "2.0",
        )
        assert code == 0
        shifted = json.loads(out)
        raised = RewardDistribution((0.2, 0.7), (0.5, 1.0))
        assert shifted["objective_per_unit_demand"] == competitive_ratio(raised, 1.2, 2.0).alg_bound
        assert abs(shifted["objective_per_unit_demand"] - obj["objective_per_unit_demand"] - (2 - 1) * 0.2) <= 1e-12
        assert len(shifted["thresholds"]) == len(obj["thresholds"])
        assert all(abs(x - y) <= 1e-12 for x, y in zip(shifted["thresholds"], obj["thresholds"]))

    def test_writes_file(self, capsys, tmp_path):
        out_path = tmp_path / "thresholds.json"
        code, _, _ = run_cli(
            capsys,
            "thresholds",
            "--dist",
            BINARY_JSON,
            "--penalty",
            "1.0",
            "--supply",
            "2.0",
            "--out",
            str(out_path),
        )
        assert code == 0
        assert json.loads(out_path.read_text())["thresholds"][1] == 1.0

    def test_reserves_listed_by_segment(self, capsys):
        dist = '{"support": [0.1, 0.4, 0.9], "cum_mass": [0.3, 0.7, 1.0]}'
        code, out, _ = run_cli(
            capsys, "thresholds", "--dist", dist, "--penalty", "1.0", "--supply", "2.0"
        )
        assert code == 0
        assert json.loads(out)["reserves"] == [0.9, 0.4, 0.1]  # segment u = 1, 2, 3

    def test_reward_above_penalty_is_validation_error(self, capsys):
        code, _, err = run_cli(
            capsys, "thresholds", "--dist", BINARY_JSON, "--penalty", "0.4", "--supply", "2.0"
        )
        assert code == 2
        assert "RewardExceedsPenalty" in err


class TestSimulate:
    def test_gen_then_simulate_roundtrip(self, capsys, tmp_path):
        inst_path = tmp_path / "inst.json"
        code, _, _ = run_cli(
            capsys,
            "gen", "--kind", "triangular", "--m", "5", "--n", "20",
            "--supply", "2.0", "--seed", "3", "--out", str(inst_path),
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys,
            "simulate", "--instance", str(inst_path), "--dist", BINARY_JSON,
            "--penalty", "1.0", "--seeds", "3", "--seed", "11",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "seed,reward,exchange_revenue,penalty_paid,fill_rate"
        assert len(lines) == 4
        assert lines[1].split(",")[0] == "11"

    def test_gen_group_size_past_the_float_range(self, capsys):
        # f * m * n = 4e308 overflowed a float; the count is the exact value of 1e308 times 4
        code, out, _ = run_cli(capsys, "gen", "--kind", "complete", "--m", "2", "--n", "2", "--supply", "1e308")
        assert code == 0
        assert json.loads(out)["groups"] == [{"count": 4 * int(1e308), "eligible": [0, 1]}]

    def test_triangular_gen_writes_its_seed(self, capsys):
        # the file records the seed it was drawn from, after the instance's own keys
        argv = ("gen", "--kind", "triangular", "--m", "4", "--n", "3", "--supply", "2.0", "--seed", "7")
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        obj = json.loads(out)
        assert list(obj) == ["demands", "groups", "seed"] and obj["seed"] == 7
        assert Instance.from_json(out) == gen_upper_triangular(4, 3, 2.0, 7)

    def test_byte_identical_reruns(self, capsys, tmp_path):
        inst_path = tmp_path / "inst.json"
        run_cli(
            capsys, "gen", "--kind", "complete", "--m", "3", "--n", "4",
            "--supply", "2.0", "--out", str(inst_path),
        )
        args = (
            "simulate", "--instance", str(inst_path), "--dist", BINARY_JSON,
            "--penalty", "1.0", "--seeds", "2", "--seed", "7",
        )
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_seed_required(self, capsys):
        code, _, _ = run_cli(
            capsys, "simulate", "--instance", "x.json", "--dist", BINARY_JSON,
            "--penalty", "1.0",
        )
        assert code == 2

    def test_seed_count_validated(self, capsys, tmp_path):
        inst_path = tmp_path / "inst.json"
        run_cli(
            capsys, "gen", "--kind", "complete", "--m", "2", "--n", "2",
            "--supply", "1.0", "--out", str(inst_path),
        )
        code, _, err = run_cli(
            capsys, "simulate", "--instance", str(inst_path), "--dist", BINARY_JSON,
            "--penalty", "1.0", "--seeds", "0", "--seed", "1",
        )
        assert code == 2 and "seeds" in err

    def test_report_embeds_references_and_config(self, capsys, tmp_path):
        inst_path = tmp_path / "inst.json"
        report_path = tmp_path / "report.json"
        run_cli(
            capsys, "gen", "--kind", "triangular", "--m", "4", "--n", "10",
            "--supply", "2.0", "--seed", "3", "--out", str(inst_path),
        )
        code, _, _ = run_cli(
            capsys,
            "simulate", "--instance", str(inst_path), "--dist", BINARY_JSON,
            "--penalty", "1.0", "--seeds", "4", "--seed", "11",
            "--report", str(report_path),
        )
        assert code == 0
        report = json.loads(report_path.read_text())
        rewards = [row["reward"] for row in report["per_seed"]]
        assert report["aggregate"]["mean_reward"] == pytest.approx(
            sum(rewards) / len(rewards)
        )
        guarantee = competitive_ratio(RewardDistribution.binary(0.5, 0.5), 1.0, 2.0)
        refs = report["references"]
        assert (refs["expected_reward"], refs["offline_opt_formula"], refs["expected_ratio"]) == (
            guarantee.alg_bound * 40, guarantee.opt * 40, guarantee.ratio
        )
        assert report["references"]["offline_opt_formula"] == pytest.approx(0.5 * 40)
        # config echo round-trips
        assert report["config"]["instance"]["demands"] == [10, 10, 10, 10]
        assert report["config"]["seed"] == 11
        assert report["config"]["supply_factor_measured"] == 2.0
        assert report["config"]["undersupplied"] is False


    def test_undersupply_reported(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        cases = (
            ('{"demands": [10, 10], "groups": [{"count": 5, "eligible": [0, 1]}]}', pytest.approx(0.25)),
            # advertiser 0's only group has no queries, so nothing covers it: the supply factor is exactly 0
            (
                '{"demands": [1, 1], "groups": [{"count": 0, "eligible": [0]}, {"count": 2, "eligible": [1]}]}',
                0.0,
            ),
        )
        for inst, measured in cases:
            code, out, err = run_cli(
                capsys,
                "simulate", "--instance", inst, "--dist", BINARY_JSON,
                "--penalty", "1.0", "--seed", "1", "--report", str(report_path),
            )
            assert code == 0
            assert len(out.strip().split("\n")) == 2  # still served, at f = 1
            warning = err.strip().split("\n")
            assert len(warning) == 1 and json.loads(warning[0])["warning"] == "undersupplied"
            config = json.loads(report_path.read_text())["config"]
            assert config["supply_factor_measured"] == measured
            assert config["undersupplied"] is True
            assert "grid" not in config

    def test_report_measures_supply_factor(self, capsys, tmp_path):
        report_path = tmp_path / "report.json"
        code, _, _ = run_cli(
            capsys,
            "simulate", "--instance", json.dumps(BOTTLENECK), "--dist", BINARY_JSON,
            "--penalty", "1.0", "--seed", "1", "--report", str(report_path),
        )
        assert code == 0
        config = json.loads(report_path.read_text())["config"]
        measured = supply_factor(Instance.from_json(json.dumps(BOTTLENECK)))
        assert config["supply_factor_measured"] == measured
        assert "supply_factor" not in config["instance"]

    def test_reward_is_revenue_minus_penalty(self, capsys, tmp_path):
        # rewards are sampled in original units, so the shift is not added back
        inst_path = tmp_path / "inst.json"
        run_cli(
            capsys, "gen", "--kind", "triangular", "--m", "5", "--n", "20",
            "--supply", "2.0", "--seed", "3", "--out", str(inst_path),
        )
        code, out, _ = run_cli(
            capsys,
            "simulate", "--instance", str(inst_path), "--dist", SHIFTED_JSON,
            "--penalty", "1.0", "--seeds", "4", "--seed", "11",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 4
        for row in rows:
            assert float(row["reward"]) == float(row["exchange_revenue"]) - float(row["penalty_paid"])

    def test_point_mass_reward_is_the_offline_optimum(self, capsys):
        # demand 1, two queries, every bid 0.5: one is delivered at reserve
        # 0.5 and the other sold for 0.5, which is also the exact offline OPT
        inst = '{"demands": [1], "groups": [{"count": 2, "eligible": [0]}]}'
        code, out, _ = run_cli(
            capsys,
            "simulate", "--instance", inst, "--dist", '{"support": [0.5], "cum_mass": [1.0]}',
            "--penalty", "1", "--seeds", "2", "--seed", "1",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        opt = offline_opt_exact(RealizedInstance(Instance.from_json(inst), (0.5, 0.5)), 1.0)
        assert [float(row["reward"]) for row in rows] == [opt, opt] == [0.5, 0.5]
        assert [float(row["exchange_revenue"]) for row in rows] == [0.5, 0.5]
        assert [float(row["penalty_paid"]) for row in rows] == [0.0, 0.0]

    def test_grid_option_removed(self, capsys):
        code, _, _ = run_cli(
            capsys, "thresholds", "--dist", BINARY_JSON, "--penalty", "1.0",
            "--supply", "2.0", "--grid", "0.01",
        )
        assert code == 2


class TestOtherCommands:
    def test_unknown_subcommand_exits_2(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_ratio_canonical(self, capsys):
        code, out, _ = run_cli(capsys, "ratio", "--dist", BINARY_JSON, "--supply", "2.0", "--penalty", "1.0")
        assert code == 0
        obj = json.loads(out)
        assert obj["ratio"] == pytest.approx(0.284472, abs=1e-5)
        assert obj["clamped"] == 0
        # the ratio of any distribution is its guarantee over OPT, with a count of thresholds clamped at 0
        code, out, _ = run_cli(capsys, "ratio", "--dist", THREE_POINT_JSON, "--supply", "2.0", "--penalty", "1.0")
        assert code == 0
        obj = json.loads(out)
        assert obj["ratio"] == obj["alg_bound"] / obj["opt"] and type(obj["clamped"]) is int

    def test_ratio_zero_reward_reports_absolute(self, capsys):
        point = '{"support": [0.0], "cum_mass": [1.0]}'
        code, out, _ = run_cli(capsys, "ratio", "--dist", point, "--supply", "2.0", "--penalty", "1.0")
        assert code == 0
        obj = json.loads(out)
        assert obj["ratio"] is None and obj["opt"] == 0.0
        assert obj["alg_bound"] == competitive_ratio(RewardDistribution.point_mass(0.0), 1.0, 2.0).alg_bound

    def test_ratio_top_bid_above_zero_penalty_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "ratio", "--dist", BINARY_JSON, "--supply", "2", "--penalty", "0")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "RewardExceedsPenalty"

    def test_worstcase(self, capsys):
        code, out, _ = run_cli(
            capsys, "worstcase", "--mean", "0.3", "--penalty", "1.0", "--supply", "2.0"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["worst"] in {label["label"] for label in obj["candidates"]}
        assert obj["worst_value"] == pytest.approx(0.150857, abs=1e-5)
        # each candidate reads what `ratio --dist` reports for it
        for cand in obj["candidates"]:
            dist = json.dumps({"support": cand["support"], "cum_mass": cand["cum_mass"]})
            code, out, _ = run_cli(capsys, "ratio", "--dist", dist, "--supply", "2.0", "--penalty", "1.0")
            report = json.loads(out)
            assert code == 0
            assert cand["best_achievable"] == report["alg_bound"]
            assert (cand["opt"], cand["ratio"]) == (report["opt"], report["ratio"])
        assert obj["worst_value"] == min(cand["best_achievable"] for cand in obj["candidates"])

    def test_oracle_opt_formula(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--mode", "opt-formula", "--dist", BINARY_JSON,
            "--supply", "2.0", "--demand", "1.0",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.5)

    def test_oracle_opt_exact(self, capsys, tmp_path):
        inst_path = tmp_path / "inst.json"
        # 50 x 2000 is 200,000 queries but little search work: the cap is on search work, not queries
        for m, n, seed in (("3", "4", 4), ("50", "2000", 1)):
            run_cli(
                capsys, "gen", "--kind", "triangular", "--m", m, "--n", n,
                "--supply", "2.0", "--seed", "1", "--out", str(inst_path),
            )
            code, out, _ = run_cli(
                capsys, "oracle", "--mode", "opt-exact", "--instance", str(inst_path),
                "--dist", BINARY_JSON, "--penalty", "1.0", "--seed", str(seed),
            )
            assert code == 0
            obj = json.loads(out)
            assert obj["seed"] == seed and isinstance(obj["value"], float)

    def test_oracle_online_exact(self, capsys):
        inst = '{"demands": [1], "groups": [{"count": 2, "eligible": [0]}]}'
        code, out, _ = run_cli(
            capsys, "oracle", "--mode", "online-exact", "--instance", inst,
            "--dist", BINARY_JSON, "--penalty", "1.0",
        )
        assert code == 0
        assert json.loads(out)["value"] == pytest.approx(0.375)

    def test_oracle_online_exact_under_one_work_limit(self, capsys):
        # total demand 9 was past the recursion's caps; 1000 advertisers open to both queries are
        # past the work limit
        argv = ("oracle", "--mode", "online-exact", "--dist", BINARY_JSON, "--penalty", "1", "--instance")
        code, out, _ = run_cli(capsys, *argv, '{"demands": [9], "groups": [{"count": 12, "eligible": [0]}]}')
        assert code == 0 and json.loads(out)["value"] == 1.4886474609375
        wide = {"demands": [1] * 1000, "groups": [{"count": 2, "eligible": list(range(1000))}]}
        code, out, err = run_cli(capsys, *argv, json.dumps(wide))
        assert code == 2 and out == "" and json.loads(err)["error"] == "SizeLimit"

    def test_oracle_beta(self, capsys):
        code, out, _ = run_cli(
            capsys, "oracle", "--mode", "beta", "--dist", BINARY_JSON,
            "--penalty", "1.0", "--supply", "2.0", "--demand", "1.0",
            "--t", "10", "--thresholds", "[0.3, 1.0]",
        )
        assert code == 0
        obj = json.loads(out)
        assert len(obj["beta"]) == 10
        assert obj["beta"][0] == pytest.approx(0.1)
        assert obj["residuals"]["equality"] <= 1e-9

    def test_matching_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "matching", "--m", "10", "--n", "1", "--supply", "2",
            "--trials", "4", "--seed", "5",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "trial,weight,ratio"
        assert len(lines) == 5

    def test_matching_csv_matches_trials(self, capsys):
        # each row is that trial's matched weight, written as the trial loop
        # computes it; the mean ratio is empirical_ratio's
        weights = [1.0, 2.5, 0.5, 1.0, 3.0]
        for extra in ((), ("--weights", json.dumps(weights))):
            code, out, _ = run_cli(
                capsys, "matching", "--m", "5", "--n", "3", "--supply", "2",
                "--trials", "6", "--seed", "11", *extra,
            )
            assert code == 0
            w = weights if extra else None
            opt = (sum(weights) if extra else 5.0) * 3
            expected = ["trial,weight,ratio"]
            for trial in range(6):
                rng = np.random.default_rng([11, trial])
                inst = gen_upper_triangular(5, 3, 2, rng)
                weight = perturbed_greedy(inst, 2, rng, w)
                expected.append(f"{trial},{weight!r},{weight / opt!r}")
            assert out == "\n".join(expected) + "\n"
            ratios = [float(line.split(",")[2]) for line in expected[1:]]
            mean, _ = empirical_ratio(5, 3, 2, 6, 11, w)
            assert mean == float(np.mean(ratios))

    def test_matching_fractional_supply(self, capsys):
        # f = 1.5 runs when the group size f * n = 3 is an integer; f * n = 4.5 is a usage error
        argv = ("matching", "--m", "4", "--supply", "1.5", "--trials", "3", "--seed", "1")
        code, out, _ = run_cli(capsys, *argv, "--n", "2")
        assert code == 0
        assert [float(row.split(",")[1]) for row in out.split()[1:]] == trial_weights(4, 2, 1.5, 3, 1).tolist()
        code, out, err = run_cli(capsys, *argv, "--n", "3")
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "NonIntegralGroupSize"

    @pytest.mark.parametrize(
        "weights", ["[NaN, 1, 1]", "[-1, 1, 1]", "3", '["x", 1, 1]', "[[1], [1], [1]]", "null", ""]
    )
    def test_matching_rejects_bad_weights(self, capsys, weights):
        code, out, err = run_cli(
            capsys, "matching", "--m", "3", "--supply", "2", "--trials", "2",
            "--seed", "1", "--weights", weights,
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_matching_rejects_an_overflowing_weight_bound(self, capsys):
        # each weight is finite, their sum is not: the run printed "inf,nan"
        code, out, err = run_cli(
            capsys, "matching", "--m", "2", "--n", "1", "--supply", "1", "--trials", "2",
            "--seed", "0", "--weights", "[1e308, 1e308]",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "DomainError"

    @pytest.mark.parametrize(
        "argv",
        [
            ("ratio", "--dist", BINARY_JSON, "--supply", "nan", "--penalty", "1"),
            ("oracle", "--mode", "opt-formula", "--dist", BINARY_JSON, "--supply", "inf"),
            ("oracle", "--mode", "opt-formula", "--dist", BINARY_JSON, "--supply", "2", "--demand", "nan"),
            ("gen", "--m", "3", "--n", "2", "--supply", "nan", "--seed", "1"),
            ("gen", "--kind", "complete", "--m", "3", "--n", "2", "--supply", "inf"),
            (
                "simulate", "--instance", json.dumps({**BOTTLENECK, "supply_factor": 2.0}),
                "--dist", BINARY_JSON, "--penalty", "1", "--seed", "1",
            ),
            ("oracle", "--mode", "opt-formula"),
            ("oracle", "--mode", "opt-exact", "--dist", BINARY_JSON, "--seed", "1"),
            ("oracle", "--mode", "online-exact", "--dist", BINARY_JSON),
            ("oracle", "--mode", "beta", "--dist", BINARY_JSON),
            ("oracle", "--mode", "beta", "--dist", BINARY_JSON, "--thresholds", '["a", 1]'),
            ("oracle", "--mode", "beta", "--dist", BINARY_JSON, "--thresholds", "3"),
            (
                "oracle", "--mode", "online-exact", "--instance", json.dumps(BOTTLENECK),
                "--dist", BINARY_JSON, "--penalty", "nan",
            ),
            (
                "oracle", "--mode", "online-exact", "--instance", json.dumps(BOTTLENECK),
                "--dist", BINARY_JSON, "--penalty", "inf",
            ),
            ("gen", "--kind", "triangular", "--m", "3", "--n", "2", "--supply", "2", "--seed", "-1"),
            ("oracle", "--mode", "beta", "--dist", BINARY_JSON, "--thresholds", '["0.3", 1.0]'),
            ("oracle", "--mode", "beta", "--dist", BINARY_JSON, "--thresholds", "[0.3, null]"),
            ("oracle", "--mode", "beta", "--dist", BINARY_JSON, "--thresholds", "not json"),
            (
                "simulate", "--instance", json.dumps(BOTTLENECK),
                "--dist", BINARY_JSON, "--penalty", "1", "--seed", "-1",
            ),
            (
                "oracle", "--mode", "opt-exact", "--instance", json.dumps(BOTTLENECK),
                "--dist", BINARY_JSON, "--seed", "-1",
            ),
            ("matching", "--m", "3", "--supply", "2", "--trials", "2", "--seed", "-1"),
            (
                "simulate", "--instance", json.dumps({**BOTTLENECK, "demands": [True, 1]}),
                "--dist", BINARY_JSON, "--penalty", "1", "--seed", "1",
            ),
        ],
        ids=["ratio-nan", "opt-formula-inf", "opt-formula-demand-nan", "gen-nan", "gen-complete-inf",
             "simulate-declared-supply", "opt-formula-no-dist", "opt-exact-no-instance",
             "online-exact-no-instance", "beta-no-thresholds", "beta-thresholds-not-numbers",
             "beta-thresholds-not-list", "online-exact-penalty-nan", "online-exact-penalty-inf",
             "gen-negative-seed", "beta-thresholds-strings",
             "beta-thresholds-null", "beta-thresholds-not-json", "simulate-negative-seed",
             "opt-exact-negative-seed", "matching-negative-seed", "simulate-bool-demand"],
    )
    def test_bad_supply_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_bool_support_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "thresholds", "--dist", '{"support": [false, true], "cum_mass": [0.5, 1.0]}',
            "--penalty", "1", "--supply", "2",
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "MalformedDistribution"

    def test_infinite_penalty_exits_2(self, capsys):
        code, out, err = run_cli(
            capsys, "ratio", "--dist", BINARY_JSON, "--supply", "2", "--penalty", "inf"
        )
        assert code == 2 and out == ""
        assert json.loads(err)["error"] == "DomainError"

    def test_repro_unknown_name(self, capsys):
        assert run_cli(capsys, "repro", "nonsense")[0] == 2

    def test_repro_runs_and_passes(self, capsys):
        code, out, _ = run_cli(capsys, "repro", "supply-recovery")
        assert code == 0
        assert "[supply-recovery] PASS" in out
