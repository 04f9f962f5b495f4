import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from mschain import chain, cli, discriminate, sampling
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
from mschain.errors import ConfigError, ValidationError
from mschain.linalg import PAULI_Y
from mschain.sampling import MAX_TRIALS

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

    def test_born_flag_is_the_z_band(self):
        # the flag reads the z of the report itself, so it is |z| < born_sigma
        # exactly, also at born_sigma = |z| and at the next float above it
        for seed in range(40):
            fields = dict(a1=0.3 ** 0.5, a2=0.7 ** 0.5, seed=seed, trials=1000)
            stats = [row for row in run("born", **fields).rows if row.label.endswith(".z")]
            for stat in stats:
                z = abs(stat.value)
                for sigma in (z, float(np.nextafter(z, np.inf))):
                    rows = rows_by_label(run("born", **fields, tolerances={"born_sigma": sigma}))
                    flag = rows[stat.label.replace(".z", ".frequency")].passed
                    assert flag is (z < sigma), (seed, stat.label, sigma)

    def test_interference_rows_at_the_branch_floor(self):
        # |a1|^2 = 1e-12 exactly: the gemenge keeps both branches
        a2 = (1.0 - 1e-12) ** 0.5
        report = run("overlap", a1=1e-6, a2=a2)
        rows = rows_by_label(report)
        assert config_from_dict(dict(a1=1e-6, a2=a2), "overlap").scenario.probabilities[0] == 1e-12
        for part in ("overlap_min", "overlap_sqrt", "purity_information_bits"):
            assert f"overlap.interference_full.{part}" in rows
        assert rows["overlap.interference_full.overlap_min"].passed
        assert not any("interference overlap skipped" in note for note in report.notes)

    def test_interference_rows_skipped_below_the_branch_floor(self):
        report = run("overlap", a1=9.99999999999e-7, a2=(1.0 - 1e-12) ** 0.5)
        assert not any(row.label.startswith("overlap.interference_full")
                       for row in report.rows)
        assert any("interference overlap skipped" in note for note in report.notes)

    def test_chain_restriction_flags(self):
        report = run("chain", a1=0.6, a2=0.8)
        rows = rows_by_label(report)
        assert rows["chain.restriction[O1][O1].re"].value == pytest.approx(0.36, abs=1e-12)
        assert rows["chain.restriction[O1][O1].re"].passed

    @pytest.mark.parametrize("command", ["chain", "all"])
    def test_chain_reports_the_hamiltonian_check(self, command):
        row = rows_by_label(run(command, trials=1000))["chain.premeasure.hamiltonian_fidelity"]
        assert row.value == pytest.approx(1.0, abs=1e-12)
        assert (row.expected, row.passed) == (1.0, True)

    def test_wrong_generator_fails_the_chain_report(self, monkeypatch):
        # pi/3 for pi/4 in the second control block: fidelity about 0.983
        wrong = chain.PREMEASURE_GENERATOR.copy()
        wrong[2:, 2:] = (np.pi / 3.0) * PAULI_Y
        cli._fixed.cache_clear()
        try:
            with monkeypatch.context() as patch:
                patch.setattr(chain, "PREMEASURE_GENERATOR", wrong)
                report = run("chain")
        finally:
            cli._fixed.cache_clear()
        label = "chain.premeasure.hamiltonian_fidelity"
        rows = json.loads(render_report(report))["rows"]
        assert [r["passed"] for r in rows if r["label"] == label] == [False]
        lines = render_report(report, "csv").splitlines()
        statuses = [line.rsplit(",", 1)[1] for line in lines if line.startswith(label + ",")]
        assert statuses == ["fail"]

    @pytest.mark.parametrize("a1", [1e-12, 1e-13, 1e-100, 5e-324])
    def test_discriminate_verdict_checked_at_tiny_amplitude(self, a1):
        # the no-go holds at every nonzero amplitude, so the verdict keeps its flag
        rows = rows_by_label(run("discriminate", a1=a1, a2=(1.0 - a1 * a1) ** 0.5))
        assert rows["discriminate.verdict"].value == "INFEASIBLE"
        assert rows["discriminate.verdict"].passed is True
        assert rows["discriminate.oracle.agrees"].passed

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


def count_full_chain(monkeypatch) -> list[str]:
    """Route every module's `full_chain` through a wrapper that logs the input kind."""
    calls: list[str] = []

    def counting(scenario):
        calls.append(scenario.input_kind)
        return chain.full_chain(scenario)

    for module in (cli, discriminate, sampling):
        monkeypatch.setattr(module, "full_chain", counting)
    return calls


class TestRunContext:
    @pytest.mark.parametrize("kind", ["pure", "gemenge"])
    @pytest.mark.parametrize("a1,a2", [(0.6, 0.8), (1.0, 0.0)])
    def test_all_builds_at_most_two_chains(self, monkeypatch, kind, a1, a2):
        fields = dict(a1=a1, a2=a2, input_kind=kind, n_env=2, env_overlap=0.5)
        first = run("all", **fields)  # builds the process-wide constants
        calls = count_full_chain(monkeypatch)
        assert run("all", **fields) == first
        assert len(calls) <= 2

    @pytest.mark.parametrize("kind", ["pure", "gemenge"])
    @pytest.mark.parametrize("command", ["born", "discriminate"])
    def test_born_and_discriminate_read_the_run_chain(self, monkeypatch, command, kind):
        fields = dict(a1=0.6, a2=0.8, input_kind=kind)
        first = run(command, **fields)
        calls = count_full_chain(monkeypatch)
        assert run(command, **fields) == first
        # born counts on the configured chain; the no-go problem needs the pure one
        assert calls == [kind if command == "born" else "pure"]

    @pytest.mark.parametrize("kind", ["pure", "gemenge"])
    @pytest.mark.parametrize("command", ["chain", "discriminate", "overlap", "born", "decohere"])
    def test_each_command_builds_each_chain_once(self, monkeypatch, command, kind):
        fields = dict(a1=0.6, a2=0.8, input_kind=kind, n_env=1, env_overlap=0.5)
        first = run(command, **fields)
        calls = count_full_chain(monkeypatch)
        assert run(command, **fields) == first
        # overlap compares the pure chain with the gemenge, so it needs both
        assert len(calls) == len(set(calls)) <= (2 if command == "overlap" else 1)

    def test_gemenge_input_reports_the_gemenge_chain(self):
        rows = rows_by_label(run("chain", a1=0.6, a2=0.8, input_kind="gemenge"))
        assert rows["chain.branch[0].probability"].value == pytest.approx(0.36)
        assert rows["chain.branch[1].probability"].value == pytest.approx(0.64)
        assert not any(label.startswith("chain.amplitude") for label in rows)


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
        report = run("all", trials=500)
        for output_format in ("structured-text", "csv"):
            path = tmp_path / f"report.{output_format}"
            text = emit_report(report, output_format, str(path))
            assert path.read_bytes() == text.encode("ascii")
            assert text == render_report(report, output_format)

    def test_negative_zero_normalized(self):
        row = ReportRow("x.value", -0.0)
        report = Report("chain", "d", (), "0", (row,))
        text = render_report(report)
        assert render_report(parse_report(text)) == text


def _reference_fmt(value) -> str:
    """The scalar emitter that rendered structured text before the one-pass renderer."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            return json.dumps(str(value))
        if value == 0.0:
            value = 0.0
        return f"{value:.12g}"
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)}")


def _reference_emit(value, indent: int) -> str:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{pad}  {json.dumps(k)}: {_reference_emit(value[k], indent + 1)}'
                 for k in sorted(value)]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [f"{pad}  {_reference_emit(v, indent + 1)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return _reference_fmt(value)


def _reference_render(report: Report) -> str:
    """Structured text by way of a dict and a generic recursive emitter."""
    data = {
        "command": report.command,
        "digest": report.digest,
        "notes": list(report.notes),
        "rows": [
            {"label": r.label, "value": r.value, "expected": r.expected, "passed": r.passed}
            for r in report.rows
        ],
        "scenario": {k: v for k, v in report.scenario},
        "version": report.version,
    }
    return _reference_emit(data, 0) + "\n"


# quotes, backslashes, control characters, non-ASCII text and lone surrogates
_TEXT = st.text(st.one_of(st.sampled_from('"\\\n\t\x00\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600'),
                          st.characters(exclude_categories=())), max_size=12)
_SCALAR = st.one_of(
    st.none(), st.booleans(), st.integers(-2**200, 2**200),
    st.sampled_from([-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e300, 5e-324]),
    st.floats(allow_nan=True, allow_infinity=True), _TEXT,
)
_REPORTS = st.builds(
    Report,
    command=_TEXT,
    digest=_TEXT,
    scenario=st.lists(st.tuples(_TEXT, st.one_of(_SCALAR, st.lists(_SCALAR, max_size=3))),
                      max_size=4).map(tuple),
    version=_TEXT,
    rows=st.lists(st.builds(ReportRow, label=_TEXT, value=_SCALAR, expected=_SCALAR,
                            passed=st.one_of(st.none(), st.booleans())),
                  max_size=6).map(tuple),
    notes=st.lists(_TEXT, max_size=3).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(report=_REPORTS)
def test_render_matches_the_generic_emitter(report):
    text = render_report(report)
    assert text == _reference_render(report)
    assert text.isascii()
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

    @pytest.mark.parametrize("command", ["born", "all"])
    def test_trials_above_the_cap_exit_3(self, tmp_path, capsys, command):
        cfg = tmp_path / "many.json"
        cfg.write_text('{"trials": 1e12}')
        assert main([command, "--config", str(cfg)]) == 3
        out = capsys.readouterr()
        assert out.err.startswith("capacity error:") and "trials" in out.err
        assert "Traceback" not in out.err and out.out == ""

    def test_born_on_one_cell_at_the_cap_draws_nothing(self, monkeypatch):
        # a pointer product state: every trial reads 0.5 without a SplitMix64 output
        def fail(*args):
            raise AssertionError("drew a uniform for a one-cell Born table")

        monkeypatch.setattr(sampling, "_splitmix_finalize", fail)
        rows = rows_by_label(run("born", a1=1.0, a2=0.0, trials=MAX_TRIALS))
        assert rows["born.trials"].value == MAX_TRIALS
        assert rows["born.outcome[0.5].count"].value == MAX_TRIALS

    def test_born_memory_does_not_grow_with_trials(self):
        config = config_from_dict({"trials": 10**6}, override_command="born")
        tracemalloc.start()
        try:
            execute(config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

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


class TestParserReuse:
    """`main` parses with one parser per process; no call may leave a trace in it."""

    ARGV = ["all", "--trials", "700", "--seed", "3"]

    def test_two_calls_write_the_same_bytes(self, capsys):
        assert main(self.ARGV) == 0
        first = capsys.readouterr().out
        assert main(self.ARGV) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("bad", [["fly"], ["chain", "--bogus"], ["born", "--seed", "x"],
                                     ["chain", "--format", "xml"], []])
    def test_an_argparse_error_between_calls_changes_nothing(self, capsys, bad):
        assert main(self.ARGV) == 0
        first = capsys.readouterr().out
        with pytest.raises(SystemExit) as info:
            main(bad)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: mschain") and "error:" in err
        # a call with other flags in between leaves no defaults behind either
        assert main(["born", "--trials", "50", "--seed", "9", "--format", "csv"]) == 0
        capsys.readouterr()
        assert main(self.ARGV) == 0
        assert capsys.readouterr().out == first

    def test_help_exits_0(self, capsys):
        texts = []
        for _ in range(2):
            with pytest.raises(SystemExit) as info:
                main(["--help"])
            assert info.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0].startswith("usage: mschain") and "--config CONFIG" in texts[0]
        assert texts[0] == texts[1]


@pytest.mark.parametrize("command", ["born", "decohere", "all"])
@pytest.mark.parametrize("value", [2.0, 1.5, True], ids=["2.0", "1.5", "True"])
@pytest.mark.parametrize("field", ["n_env", "seed", "trials"])
def test_scenario_count_must_be_an_integer(field, value, command):
    with pytest.raises(ValidationError, match=f"{field} must be an integer"):
        execute(RunConfig(chain.Scenario(0.6, 0.8, **{field: value}), command))


@pytest.mark.parametrize("command", ["born", "decohere", "all"])
@pytest.mark.parametrize("field,value,kind", [
    ("n_env", "2", "an integer"), ("seed", "1", "an integer"), ("trials", "5", "an integer"),
    ("env_overlap", "0.5", "a real number"), ("env_overlap", None, "a real number"),
    ("env_overlap", True, "a real number"), ("a1", "0.6", "a number"), ("a2", None, "a number"),
], ids=["n_env-str", "seed-str", "trials-str", "env_overlap-str", "env_overlap-None",
        "env_overlap-True", "a1-str", "a2-None"])
def test_scenario_field_of_the_wrong_type(field, value, kind, command):
    with pytest.raises(ValidationError, match=f"^{field} must be {kind}, got {value!r}$"):
        execute(RunConfig(chain.Scenario(**{"a1": 0.6, "a2": 0.8, field: value}), command))


def test_scenario_counts_accept_numpy_integers():
    counts = dict(n_env=2, seed=7, trials=900)
    plain = chain.Scenario(0.6, 0.8, **counts)
    numpy = chain.Scenario(0.6, 0.8, **{k: np.int64(v) for k, v in counts.items()})
    assert all(type(getattr(numpy, k)) is int for k in counts)
    assert render_report(execute(RunConfig(numpy, "all"))) == \
        render_report(execute(RunConfig(plain, "all")))


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

    @pytest.mark.parametrize("value", ["1e200", "[1e308, 1e308]", "1" + "0" * 400])
    def test_overflowing_amplitude_exits_2(self, tmp_path, capsys, value):
        code, out = run_main_with_config(tmp_path, capsys, "chain", '{"a1": %s}' % value)
        assert code == 2
        assert out.err.startswith("config error:") and out.out == ""

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


# Config text that `json.loads` cannot turn into an object, by the error it raised
CONFIG_TEXTS = {
    "not-utf8": b'{"a1": 0.6, "a2": 0.8, "command": "\xff"}',  # UnicodeDecodeError
    "deep-nesting": b'{"a1": ' + b"[" * 200_000 + b"]" * 200_000 + b"}",  # RecursionError
    "huge-integer": b'{"seed": ' + b"1" * 5000 + b"}",  # ValueError past 4300 digits
}


class TestConfigText:
    @pytest.mark.parametrize("name", sorted(CONFIG_TEXTS))
    def test_main_exits_2_with_one_line(self, tmp_path, capsys, name):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(CONFIG_TEXTS[name])
        assert main(["chain", "--config", str(cfg)]) == 2
        out = capsys.readouterr()
        assert out.err.startswith("config error:") and out.err.count("\n") == 1
        assert out.out == ""

    @pytest.mark.parametrize("name", sorted(CONFIG_TEXTS))
    def test_parse_config_raises_config_error(self, name):
        text = CONFIG_TEXTS[name]
        with pytest.raises(ConfigError):
            parse_config(text if name == "not-utf8" else text.decode("ascii"), "chain")


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


# Valid values of every config field. `born` runs only at a small trial count
# or above the cap, so an example stays fast; `output_path` stays null, so no
# example writes a file.
_VALID = {
    "a1": st.sampled_from([0.6, -0.6, [0.0, 0.6]]),
    "a2": st.sampled_from([0.8, [0.8, 0.0], [0.0, -0.8]]),
    "input_kind": st.sampled_from(["pure", "gemenge"]),
    "n_env": st.integers(0, 3),
    "env_overlap": st.floats(0.0, 1.0),
    "seed": st.integers(0, 2**64 - 1),
    "trials": st.one_of(st.integers(1, 10**4), st.integers(MAX_TRIALS + 1, 10**30)),
    "command": st.sampled_from(["born", "fly"]),
    "output_format": st.sampled_from(["structured-text", "csv"]),
    "tolerances": st.dictionaries(st.sampled_from(["born_sigma", "oracle_feasible", "match"]),
                                  st.floats(0.0, 10.0), max_size=3),
    "output_path": st.none(),
}
# What a hand-written config may hold instead: wrong types, non-finite and
# out-of-range numbers. Any float may land in a real-valued field; `trials`
# gets none, since an integral float such as 1e8 would be a valid, slow run.
_JUNK = st.one_of(
    st.booleans(), st.text(max_size=6), st.none(),
    st.sampled_from([10**400, -(10**400), 2**64, 1e308, -1e308, 1e200,
                     float("nan"), float("inf"), float("-inf"), -1, 0.5]),
    st.lists(st.one_of(st.integers(-2, 2), st.floats(), st.none()), max_size=3),
    st.dictionaries(st.text(max_size=3), st.floats(), max_size=1))
_JUNK_FOR = {field: _JUNK | st.floats() for field in ("a1", "a2", "env_overlap")}
# a string output path would be a valid one, and the run would write there
_JUNK_FOR["output_path"] = _JUNK.filter(lambda value: not isinstance(value, str))
_CORRUPTIONS = st.lists(st.one_of(
    *(st.tuples(st.just(k), _JUNK_FOR.get(k, _JUNK)) for k in _VALID),
    st.tuples(st.text(min_size=1, max_size=6), _JUNK)), max_size=2).map(dict)


class TestConfigFuzz:
    @settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(valid=st.fixed_dictionaries({}, optional=_VALID), corrupt=_CORRUPTIONS)
    def test_every_config_gets_a_documented_exit_code(self, tmp_path_factory, valid, corrupt):
        fields = {**valid, **corrupt}
        cfg = tmp_path_factory.mktemp("fuzz") / "cfg.json"
        cfg.write_text(json.dumps(fields))
        for command in ("chain", "overlap", "born"):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(cfg)])
            assert code in (0, 2, 3, 4), err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert (out.getvalue() != "") == (code == 0 and fields.get("output_path") is None)
