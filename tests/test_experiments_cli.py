import json
from fractions import Fraction as F

import pytest

from mdl_lab.cli import main
from mdl_lab.errors import ConfigError, IndeterminateTailError
from mdl_lab.experiments import (
    REGISTRY,
    ExperimentConfig,
    ExperimentEntry,
    ExperimentReport,
    build_class,
    run_experiment,
    write_report,
)


class TestConfig:
    def test_unknown_fields_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "example1", "horzon": 3})

    def test_mode_validated(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "example1", "mode": "fuzzy"})

    @pytest.mark.parametrize("field", ["horizon", "samples"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_counts_must_be_positive(self, field, value):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"experiment": "regression_demo", field: value})

    def test_param_overrides(self):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "example1", "params": {"N": "3"}}
        )
        assert cfg.param_int("N", 5) == 3
        assert cfg.param_int("missing", 7) == 7

    def test_unknown_experiment(self):
        cfg = ExperimentConfig.from_dict({"experiment": "nosuch"})
        with pytest.raises(ConfigError):
            run_experiment(cfg)


class TestBuildClass:
    def test_iid_and_deterministic(self):
        cls = build_class(
            {
                "models": [
                    {"type": "iid", "theta": ["1/4", "3/4"]},
                    {"type": "deterministic", "preperiod": "1", "period": "0"},
                ],
                "weights": ["1/2", "1/4"],
                "true_index": 0,
            }
        )
        assert cls.weights == (F(1, 2), F(1, 4))
        assert cls.true_index == 0

    def test_geometric_weights_leave_tail(self):
        cls = build_class(
            {
                "models": [
                    {"type": "iid", "theta": ["1/2", "1/2"]},
                    {"type": "iid", "theta": ["1/4", "3/4"]},
                ],
                "weights": {"rule": "geometric", "r": "1/2"},
            }
        )
        assert cls.tail_bound == F(1, 4)
        from mdl_lab.model_class import map_estimator

        # Any materialized candidate at the root beats the tail mass.
        assert map_estimator(cls, "").index == 0
        # Deep in the tree the materialized maximum shrinks below it.
        with pytest.raises(IndeterminateTailError):
            map_estimator(cls, "0" * 40)

    def test_leaky_and_factorizable(self):
        cls = build_class(
            {
                "models": [
                    {
                        "type": "leaky",
                        "gamma": "1/4",
                        "base": {"type": "iid", "theta": ["1/2", "1/2"]},
                    },
                    {
                        "type": "factorizable_steps",
                        "steps": [["0", "1"]],
                        "tail": ["1/2", "1/2"],
                    },
                ],
                "weights": {"rule": "uniform"},
            }
        )
        assert not cls.models[0].is_proper_measure
        assert cls.models[1].evaluate("1") == 1

    def test_unknown_model_type(self):
        with pytest.raises(ConfigError):
            build_class({"models": [{"type": "quantum"}]})


class TestBuildLoss:
    def test_presets(self):
        from mdl_lab.experiments import build_loss

        zo = build_loss({"preset": "zero_one"})
        assert zo((), 0, 1) == 1 and zo((), 1, 1) == 0
        ab = build_loss({"preset": "absolute"})
        assert ab((), 1, 0) == 1

    def test_custom_table(self):
        from mdl_lab.experiments import build_loss

        loss = build_loss({"table": {"00": "0", "01": "1", "10": "1/2", "11": "0"}})
        assert loss((), 1, 0) == F(1, 2)

    def test_history_parity(self):
        from mdl_lab.experiments import build_loss

        loss = build_loss(
            {
                "preset": "history_parity",
                "even": {"00": "0", "01": "1", "10": "1", "11": "0"},
                "odd": {"00": "0", "01": "1/2", "10": "1/2", "11": "0"},
            }
        )
        assert loss((1,), 0, 1) == F(1, 2)

    def test_bad_spec(self):
        from mdl_lab.experiments import build_loss

        with pytest.raises(ConfigError):
            build_loss({"preset": "hinge"})

    def test_loss_spec_flows_into_experiment(self):
        cfg = ExperimentConfig.from_dict(
            {
                "experiment": "loss_bounds",
                "horizon": 4,
                "params": {"pairs": "3"},
                "loss_spec": {"preset": "zero_one"},
            }
        )
        report = run_experiment(cfg)
        assert report.verdicts["all_pass"]


class TestReports:
    def test_write_and_determinism(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "example1", "params": {"N": "4"}}
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        write_report(run_experiment(cfg), out1)
        write_report(run_experiment(cfg), out2)
        for name in ("ledgers.csv", "bounds.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
        r1 = json.loads((out1 / "report.json").read_text())
        r2 = json.loads((out2 / "report.json").read_text())
        r1.pop("wall_clock_s"), r2.pop("wall_clock_s")
        assert r1 == r2
        assert (out1 / "plotdata" / "square_rho_norm.tsv").exists()

    def test_bound_rows_recompute_from_constant_table(self):
        # The {2, 8, 21, 32} x 1/w budgets are data; every summary row's
        # bound must equal its constant times the inverse true weight.
        from mdl_lab.metrics import COROLLARY_CONSTANTS, check_bounds, inverse_weight
        from mdl_lab.model_class import example1_class

        assert COROLLARY_CONSTANTS == {
            "rho_norm": 2,
            "rho": 8,
            "static": 21,
            "static_norm": 32,
        }
        cls = example1_class(5)
        winv = inverse_weight(cls)
        for report in check_bounds(cls, 6):
            if report.bound_name.startswith("summary"):
                c = COROLLARY_CONSTANTS[report.predictor]
                assert report.bound.lo == c * winv
            elif report.bound_name == "dynamic_sum_defect":
                assert report.bound.lo == 2 * winv
            elif report.bound_name == "static_sum_defect":
                assert report.bound.lo == winv

    def test_report_schema(self, tmp_path):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "example1", "params": {"N": "3"}}
        )
        report = run_experiment(cfg)
        payload = report.payload()
        assert payload["experiment"] == "example1"
        assert payload["verdicts"]["matches_half_n_minus_1"] is True
        row = report.bound_rows[0]
        assert set(row) == {
            "case",
            "predictor",
            "metric",
            "bound_name",
            "bound",
            "bound_exact",
            "measured",
            "measured_exact",
            "slack",
            "slack_exact",
            "pass",
        }


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out.split()
        assert len(out) == 12 and "example5_martingale" in out

    def test_describe_known(self, capsys):
        assert main(["describe", "coding_roundtrip"]) == 0
        assert "round-trip" in capsys.readouterr().out

    def test_describe_unknown_exit_2(self):
        assert main(["describe", "nosuch"]) == 2

    def test_run_writes_report(self, tmp_path, capsys):
        rc = main(
            [
                "run",
                "example1",
                "--param",
                "N=3",
                "--out",
                str(tmp_path / "run"),
            ]
        )
        assert rc == 0
        assert (tmp_path / "run" / "report.json").exists()
        assert (tmp_path / "run" / "bounds.csv").exists()

    def test_run_unknown_exit_2(self):
        assert main(["run", "nosuch"]) == 2

    def test_run_bad_param_exit_2(self):
        assert main(["run", "example1", "--param", "N"]) == 2

    def test_run_zero_samples_exit_2(self, tmp_path):
        out = tmp_path / "run"
        assert main(["run", "regression_demo", "--samples", "0", "--out", str(out)]) == 2
        assert not out.exists()

    def test_config_file_with_overrides(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"seed": 5, "params": {"N": "3"}}))
        rc = main(
            [
                "run",
                "example1",
                "--config",
                str(cfg_file),
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["config"]["seed"] == 5

    def test_guard_exit_3(self, tmp_path):
        rc = main(
            [
                "run",
                "example2_mc",
                "--horizon",
                "12",
                "--param",
                "guard=50",
                "--out",
                str(tmp_path / "out"),
            ]
        )
        assert rc == 3

    def test_bound_failure_exit_4(self, tmp_path, capsys):
        name = "always_fails_for_test"

        def fake(cfg):
            return ExperimentReport(
                experiment=name,
                config=cfg.echo(),
                verdicts={},
                bound_rows=[
                    {
                        "case": "",
                        "predictor": "rho",
                        "metric": "square",
                        "bound_name": "synthetic",
                        "bound": 1.0,
                        "bound_exact": "1",
                        "measured": 2.0,
                        "measured_exact": "2",
                        "slack": -1.0,
                        "slack_exact": "-1",
                        "pass": False,
                    }
                ],
            )

        REGISTRY[name] = ExperimentEntry(name, fake, "synthetic failure")
        try:
            rc = main(["run", name, "--out", str(tmp_path / "out")])
        finally:
            del REGISTRY[name]
        assert rc == 4

    def test_code_roundtrip_via_cli(self, capsys):
        assert main(["code", "encode", "--string", "1100", "--preset", "bernoulli3"]) == 0
        out = capsys.readouterr().out
        bits = next(
            line.split(": ")[1] for line in out.splitlines() if line.startswith("bits:")
        )
        assert main(["code", "decode", "--bits", bits, "--preset", "bernoulli3"]) == 0
        assert capsys.readouterr().out.strip() == "1100"

    def test_code_corrupted_exit_2(self):
        rc = main(["code", "decode", "--bits", "000000000001", "--preset", "bernoulli3"])
        assert rc == 2

    def test_code_encode_needs_exactly_one_source(self):
        assert main(["code", "encode", "--preset", "bernoulli3"]) == 2
