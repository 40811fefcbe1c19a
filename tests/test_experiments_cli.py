import json
import os
import re
import shlex
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

import mdl_lab
from mdl_lab.cli import _load_config, build_parser, main
from mdl_lab.errors import ConfigError, IndeterminateTailError
from mdl_lab.experiments import (
    FLAG_KNOBS,
    REGISTRY,
    ExperimentConfig,
    ExperimentEntry,
    ExperimentReport,
    build_class,
    resolve_knobs,
    run_experiment,
    write_report,
)

README = Path(__file__).resolve().parent.parent / "README.md"


class TestConfig:
    def test_unknown_fields_rejected(self):
        for extra in (
            {"horzon": 3},
            {"class_spec": {"models": [{"type": "iid", "theta": ["1/2", "1/2"]}]}},
        ):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict({"experiment": "example1", **extra})

    def test_mode_validated(self):
        # `mode` is no longer a config field: every value, valid before, is refused.
        for value in ("exact", "float", "fuzzy"):
            with pytest.raises(ConfigError):
                ExperimentConfig.from_dict({"experiment": "example1", "mode": value})

    @pytest.mark.parametrize("field", ["horizon", "samples"])
    @pytest.mark.parametrize("value", [0, -3])
    def test_counts_must_be_positive(self, field, value):
        cfg = ExperimentConfig.from_dict({"experiment": "regression_demo", field: value})
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_param_overrides(self):
        cfg = ExperimentConfig.from_dict(
            {"experiment": "example1", "params": {"N": "3"}}
        )
        assert resolve_knobs(cfg) == {"N": 3, "horizon": None}
        defaults = resolve_knobs(ExperimentConfig.from_dict({"experiment": "example2_mc"}))
        assert defaults["mc_horizon"] == 0 and defaults["samples"] == 500
        for raw in ("three", "3.5"):
            cfg = ExperimentConfig.from_dict(
                {"experiment": "example1", "params": {"N": raw}}
            )
            with pytest.raises(ConfigError):
                resolve_knobs(cfg)

    def test_unknown_experiment(self):
        cfg = ExperimentConfig.from_dict({"experiment": "nosuch"})
        with pytest.raises(ConfigError):
            run_experiment(cfg)


def _rejected_overrides(entry):
    """Config overrides that the entry's knob table must refuse."""
    bad = [{"params": {"nosuch": "1"}}]
    for name, knob in entry.knobs.items():
        if name in FLAG_KNOBS:
            bad.append({name: knob.minimum - 1})
        else:
            bad.append({"params": {name: str(knob.minimum - 1)}})
    bad += [{flag: 5} for flag in FLAG_KNOBS if flag not in entry.knobs]
    if "tie_break" not in entry.reads:
        bad.append({"tie_break": "lowest_index"})
    if "loss_spec" not in entry.reads:
        bad.append({"loss_spec": {"preset": "zero_one"}})
    return bad


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_knob_table_rejects(name):
    for overrides in _rejected_overrides(REGISTRY[name]):
        cfg = ExperimentConfig.from_dict({"experiment": name, **overrides})
        with pytest.raises(ConfigError):
            run_experiment(cfg)


def _readme_run_lines():
    block = re.search(r"## Command line\n\n```\n(.*?)```", README.read_text(), re.S)
    lines = [line.split("#")[0].strip() for line in block.group(1).splitlines()]
    return [line for line in lines if line.startswith("mdl-lab run ")]


def test_cli_import_loads_no_numeric_stack():
    # Start-up loads nothing beyond the standard library and mdl_lab:
    # mpmath serves ln_interval alone and numpy the unit-square scan alone,
    # each imported there, so a stray module-level import fails here.
    src = str(Path(mdl_lab.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    probe = (
        "import json, sys; before = set(sys.modules); import mdl_lab.cli; "
        "new = {m.split('.')[0] for m in set(sys.modules) - before}; "
        "print(json.dumps(sorted(new - set(sys.stdlib_module_names))))"
    )
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    )
    loaded = set(json.loads(result.stdout))
    assert loaded <= {"mdl_lab"}, loaded


def test_readme_run_examples_resolve():
    # Each documented run names only knobs its experiment declares.
    lines = _readme_run_lines()
    assert len(lines) >= 3
    for line in lines:
        args = build_parser().parse_args(shlex.split(line)[1:])
        resolve_knobs(_load_config(args))


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
        out = capsys.readouterr().out
        assert "round-trip" in out
        assert re.search(r"--param cases +default +10000 +minimum 1\n", out)
        assert main(["describe", "example1"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"--param N +default +5 +minimum 2\n", out)
        assert re.search(r"--horizon +default +derived +minimum 1\n", out)

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

    @pytest.mark.parametrize(
        "argv",
        [
            ["bound_suite", "--param", "clases=1"],
            ["example2_mc", "--param", "mc_horizon=-3"],
            ["coding_roundtrip", "--param", "cases=0"],
            ["loss_bounds", "--param", "pairs=0"],
            ["example1", "--param", "N=1"],
            ["unit_square_scan", "--param", "m=1"],
            ["stabilization_mc", "--horizon", "50", "--samples", "4"],
            ["example5_martingale", "--horizon", "50", "--samples", "4"],
            ["example1", "--samples", "5"],
        ],
    )
    def test_run_knob_errors_exit_2(self, tmp_path, capsys, argv):
        out = tmp_path / "run"
        assert main(["run", *argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()

    def test_config_file_class_spec_exit_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"class_spec": {"models": []}}))
        out = tmp_path / "run"
        rc = main(["run", "example1", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()

    @pytest.mark.parametrize(
        "content",
        [None, "directory", "{not json", b"\xff\xfe{}", "[1, 2]", '{"params": ["N"]}'],
        ids=["missing", "unreadable", "malformed", "undecodable", "not_an_object", "params_list"],
    )
    def test_config_file_errors_exit_2(self, tmp_path, capsys, content):
        cfg_file = tmp_path / "cfg.json"
        if content == "directory":
            cfg_file.mkdir()
        elif isinstance(content, bytes):
            cfg_file.write_bytes(content)
        elif content is not None:
            cfg_file.write_text(content)
        out = tmp_path / "run"
        rc = main(["run", "example1", "--config", str(cfg_file), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err
        assert not out.exists()

    def test_code_config_file_missing_exit_2(self, tmp_path, capsys):
        missing = str(tmp_path / "missing.json")
        assert main(["code", "encode", "--string", "11", "--config", missing]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "Traceback" not in err

    def test_phase_needs_round_robin(self, tmp_path, capsys):
        out = tmp_path / "run"
        argv = ["run", "bound_suite", "--param", "phase=3", "--param", "classes=1",
                "--horizon", "2", "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("config error:")
        assert not out.exists()
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"tie_break": "round_robin"}))
        assert main([*argv, "--config", str(cfg_file)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["config"]["tie_break"] == "round_robin"
        assert report["config"]["params"]["phase"] == "3"

    def test_mode_flag_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "example1", "--mode", "float"])
        assert exc.value.code == 2

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
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["experiment"] == name and report["config"]["experiment"] == name

    def test_code_roundtrip_via_cli(self, capsys):
        assert main(["code", "encode", "--string", "1100", "--preset", "bernoulli3"]) == 0
        out = capsys.readouterr().out
        bits = next(
            line.split(": ")[1] for line in out.splitlines() if line.startswith("bits:")
        )
        assert main(["code", "decode", "--bits", bits, "--preset", "bernoulli3"]) == 0
        assert capsys.readouterr().out.strip() == "1100"

    def test_code_corrupted_exit_2(self, capsys):
        # A symbol outside the alphabet or a character other than 0 and 1
        # is a usage error too, reported without a traceback.
        for argv in (
            ["decode", "--bits", "000000000001"],
            ["decode", "--bits", "001x"],
            ["decode", "--bits", "001012"],
            ["encode", "--string", "01a"],
        ):
            assert main(["code", *argv, "--preset", "bernoulli3"]) == 2
            err = capsys.readouterr().err
            assert err.startswith(("error:", "malformed code:")) and "Traceback" not in err

    def test_code_model_index_outside_the_class_exit_2(self, capsys):
        # bernoulli3 holds models 0..2: 7 lies beyond it, and -1 would
        # silently pick the last model.
        for index in ("7", "-1"):
            argv = ["code", "encode", "--string", "01", "--model", index]
            assert main([*argv, "--preset", "bernoulli3"]) == 2
            err = capsys.readouterr().err
            assert err.startswith("config error:") and "0..2" in err, err
        argv = ["code", "encode", "--string", "01", "--model", "2", "--preset", "bernoulli3"]
        assert main(argv) == 0
        assert "model_index: 2" in capsys.readouterr().out

    def test_code_encode_needs_exactly_one_source(self):
        assert main(["code", "encode", "--preset", "bernoulli3"]) == 2
