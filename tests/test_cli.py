import json

import numpy as np
import pytest

from mschain.cli import (
    Report,
    ReportRow,
    RunConfig,
    config_from_dict,
    emit_report,
    execute,
    main,
    parse_config,
    parse_report,
    render_report,
)
from mschain.errors import ConfigError

SYM = 2**-0.5


class TestParseConfig:
    def test_defaults(self):
        config = parse_config('{"command": "born"}')
        assert config.scenario.a1 == pytest.approx(SYM)
        assert config.scenario.a2 == pytest.approx(SYM)
        assert config.scenario.trials == 100_000
        assert config.scenario.seed == 42
        assert config.scenario.n_env == 0
        assert config.scenario.env_overlap == 1.0
        assert config.output_format == "structured-text"

    def test_near_normalized_amplitudes_are_renormalized(self):
        config = parse_config('{"a1": 0.7071, "a2": 0.7071, "command": "born"}')
        total = abs(config.scenario.a1) ** 2 + abs(config.scenario.a2) ** 2
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_complex_amplitudes(self):
        config = parse_config('{"a1": 0.6, "a2": [0.0, 0.8], "command": "chain"}')
        assert config.scenario.a2 == pytest.approx(0.8j)

    def test_normalization_error_names_residual(self):
        with pytest.raises(ConfigError, match="0.21"):
            parse_config('{"a1": 1.1, "a2": 0}')

    def test_unknown_command(self):
        with pytest.raises(ConfigError, match="fly"):
            parse_config('{"command": "fly"}')

    def test_unknown_field(self):
        with pytest.raises(ConfigError, match="wings"):
            parse_config('{"wings": 2, "command": "born"}')

    def test_missing_command(self):
        with pytest.raises(ConfigError, match="command"):
            parse_config('{"a1": 0.6, "a2": 0.8}')

    def test_invalid_json(self):
        with pytest.raises(ConfigError):
            parse_config("{not json")

    def test_bad_format(self):
        with pytest.raises(ConfigError, match="output_format"):
            parse_config('{"command": "born", "output_format": "yaml"}')

    def test_bad_tolerance_key(self):
        with pytest.raises(ConfigError, match="wobble"):
            parse_config('{"command": "born", "tolerances": {"wobble": 1()}}'.replace("()", ""))

    def test_override_command_wins(self):
        config = parse_config('{"command": "born"}', override_command="chain")
        assert config.command == "chain"

    def test_scenario_validation_wrapped(self):
        with pytest.raises(ConfigError, match="trials"):
            parse_config('{"command": "born", "trials": 0}')


def run(command, **fields):
    fields.setdefault("trials", 2000)
    return execute(config_from_dict(fields, override_command=command))


def rows_by_label(report):
    return {row.label: row for row in report.rows}


class TestExecute:
    def test_discriminate_symmetric(self):
        report = run("discriminate")
        rows = rows_by_label(report)
        assert rows["discriminate.verdict"].value == "INFEASIBLE"
        assert rows["discriminate.verdict"].passed
        assert rows["discriminate.certificate.summary"].value == "g0=g1=g2 forced"
        assert rows["discriminate.oracle.agrees"].passed
        assert rows["discriminate.recognition.verdict"].value == "FEASIBLE"

    def test_overlap_symmetric(self):
        report = run("overlap")
        rows = rows_by_label(report)
        assert rows["overlap.spin_x.overlap_min"].value == pytest.approx(0.5, abs=1e-12)
        assert rows["overlap.spin_x.overlap_min"].passed
        assert rows["overlap.spin_x.overlap_sqrt"].value == pytest.approx(
            np.sqrt(2) / 2, abs=1e-12)
        assert rows["overlap.interference_full.overlap_min"].value == pytest.approx(
            0.5, abs=1e-12)
        assert any("overlap_sqrt" in note and "overlap_min" in note for note in report.notes)

    def test_decohere_sweep(self):
        report = run("decohere", env_overlap=0.5, n_env=4)
        rows = rows_by_label(report)
        for n, factor in enumerate([1.0, 0.5, 0.25, 0.125, 0.0625]):
            row = rows[f"decohere.coherence_factor[{n}]"]
            assert row.value == pytest.approx(factor, abs=1e-12)
            assert row.passed
            scale = rows[f"decohere.offdiag_scale[{n}]"]
            assert scale.value == pytest.approx(factor, abs=1e-12)
            assert scale.passed

    def test_born_pass_flags(self):
        report = run("born", a1=0.6, a2=0.8, seed=5, trials=50_000)
        rows = rows_by_label(report)
        assert rows["born.outcome[0.5].frequency"].expected == pytest.approx(0.36)
        assert rows["born.outcome[0.5].frequency"].passed
        assert rows["born.p_value"].passed

    def test_chain_restriction_flags(self):
        report = run("chain", a1=0.6, a2=0.8)
        rows = rows_by_label(report)
        assert rows["chain.restriction[O1][O1].re"].value == pytest.approx(0.36, abs=1e-12)
        assert rows["chain.restriction[O1][O1].re"].passed

    def test_all_concatenates(self):
        report = run("all", trials=1000)
        labels = {row.label for row in report.rows}
        for prefix in ("chain.", "discriminate.", "overlap.", "born.", "decohere."):
            assert any(label.startswith(prefix) for label in labels)

    def test_every_numeric_row_is_labeled(self):
        for command in ("chain", "discriminate", "overlap", "born", "decohere"):
            report = run(command, trials=1000, n_env=2, env_overlap=0.5)
            for row in report.rows:
                if isinstance(row.value, (int, float)):
                    assert row.label, f"unlabeled numeric value in {command}"
                assert row.label.startswith(command + ".")


class TestEmission:
    def test_byte_stable(self):
        report = run("overlap")
        assert render_report(report) == render_report(report)
        a = render_report(run("all", trials=500))
        b = render_report(run("all", trials=500))
        assert a == b

    def test_round_trip(self):
        report = run("discriminate")
        text = render_report(report)
        again = render_report(parse_report(text))
        assert text == again

    def test_structured_text_is_json(self):
        report = run("chain")
        data = json.loads(render_report(report))
        assert data["command"] == "chain"
        assert data["version"] == report.version
        assert all(set(r) == {"label", "value", "expected", "passed"} for r in data["rows"])

    def test_born_csv_schema(self):
        report = run("born", trials=1000)
        text = render_report(report, "csv")
        lines = text.strip().split("\n")
        assert lines[0] == "outcome,count,frequency,expected,z"
        assert len(lines) == 3
        cells = lines[1].split(",")
        assert cells[0] == "0.5"
        assert int(cells[1]) + int(lines[2].split(",")[1]) == 1000

    def test_generic_csv_schema(self):
        report = run("decohere", n_env=1, env_overlap=0.5)
        lines = render_report(report, "csv").strip().split("\n")
        assert lines[0] == "label,value,expected,status"
        assert any(line.startswith("decohere.coherence_factor[1],0.5,0.5,pass")
                   for line in lines)

    def test_emit_writes_file(self, tmp_path):
        report = run("chain")
        path = tmp_path / "report.json"
        text = emit_report(report, "structured-text", str(path))
        assert path.read_text() == text

    def test_negative_zero_normalized(self):
        row = ReportRow("x.value", -0.0)
        report = Report("chain", "d", (), "0", (row,))
        text = render_report(report)
        assert render_report(parse_report(text)) == text


class TestMain:
    def test_success_stdout(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"a1": 0.6, "a2": 0.8, "trials": 500}')
        assert main(["chain", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert json.loads(out)["command"] == "chain"

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"seed": 1, "trials": 500}')
        assert main(["born", "--config", str(cfg), "--seed", "2"]) == 0
        report = parse_report(capsys.readouterr().out)
        assert dict(report.scenario)["seed"] == 2

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text('{"a1": 1.1, "a2": 0}')
        assert main(["born", "--config", str(cfg)]) == 2
        assert "residual" in capsys.readouterr().err

    def test_capacity_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "big.json"
        cfg.write_text('{"n_env": 12, "env_overlap": 0.5, "trials": 10}')
        assert main(["decohere", "--config", str(cfg)]) == 3
        assert "capacity" in capsys.readouterr().err

    def test_io_error_exit_code(self, tmp_path, capsys):
        assert main(["chain", "--out", str(tmp_path / "missing" / "subdir" / "x.json"),
                     "--trials", "100"]) == 4
        assert "i/o" in capsys.readouterr().err

    def test_writes_output_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert main(["chain", "--out", str(out), "--trials", "100"]) == 0
        assert json.loads(out.read_text())["command"] == "chain"

    def test_determinism_end_to_end(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"a1": 0.6, "a2": [0.0, 0.8], "seed": 9, "trials": 3000}')
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(["all", "--config", str(cfg), "--out", str(out1)]) == 0
        assert main(["all", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()


def run_main_with_config(tmp_path, capsys, command, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    code = main([command, "--config", str(cfg)])
    return code, capsys.readouterr()


class TestStrictConfig:
    @pytest.mark.parametrize("value", ["true", '"x"', "NaN", "Infinity", "-Infinity", "-1"])
    def test_bad_tolerance_exits_2(self, tmp_path, capsys, value):
        code, out = run_main_with_config(
            tmp_path, capsys, "chain", '{"tolerances": {"match": %s}}' % value)
        assert code == 2
        assert out.err.startswith("config error:") and "match" in out.err
        assert out.out == ""

    @pytest.mark.parametrize("field", ["seed", "n_env", "trials"])
    @pytest.mark.parametrize("value", ["true", '"3"', "2.7"])
    def test_non_integer_field_exits_2(self, tmp_path, capsys, field, value):
        code, out = run_main_with_config(
            tmp_path, capsys, "chain", '{"%s": %s}' % (field, value))
        assert code == 2
        assert out.err.startswith("config error:") and field in out.err
        assert out.out == ""

    def test_non_number_env_overlap(self):
        for value in (True, "0.5", None):
            with pytest.raises(ConfigError, match="env_overlap"):
                config_from_dict({"env_overlap": value}, override_command="decohere")

    def test_bool_amplitudes_rejected(self):
        for fields in ({"a1": True, "a2": False}, {"a1": [True, 0], "a2": 0}):
            with pytest.raises(ConfigError, match="a1"):
                config_from_dict(fields, override_command="chain")

    def test_non_string_output_path(self, tmp_path, capsys):
        # open() would take an integer as a file descriptor
        code, out = run_main_with_config(tmp_path, capsys, "chain", '{"output_path": 1}')
        assert code == 2
        assert "output_path" in out.err and out.out == ""

    def test_valid_numbers_still_parse(self):
        config = config_from_dict(
            {"seed": 2**64 - 1, "trials": 1e3, "n_env": 2.0, "env_overlap": 0,
             "tolerances": {"match": 0, "born_sigma": 3, "oracle_feasible": 1e-3}},
            override_command="born")
        assert config.scenario.seed == 2**64 - 1
        assert config.scenario.trials == 1000 and isinstance(config.scenario.trials, int)
        assert config.scenario.n_env == 2 and isinstance(config.scenario.n_env, int)
        assert config.tolerance("match") == 0.0
        assert config.tolerance("born_sigma") == 3.0


class TestTolerances:
    def test_override_respected(self):
        config = config_from_dict(
            {"tolerances": {"born_sigma": 10.0}, "trials": 1000}, override_command="born")
        assert config.tolerance("born_sigma") == 10.0
        assert config.tolerance("match") == 1e-9

    def test_run_config_is_consistent(self):
        config = config_from_dict({"trials": 1000}, override_command="born")
        assert isinstance(config, RunConfig)
        assert config.command == "born"
