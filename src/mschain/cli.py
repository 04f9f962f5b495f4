"""Scenario-driven command line front end.

Reads a JSON config, runs one of the built-in experiments (chain state and
restrictions, discrimination feasibility, overlap measures, Born sampling,
decoherence sweep), and emits a machine-readable report. Reports are
deterministic down to the byte for a fixed config: keys are sorted and reals
are printed with 12 significant digits.

Exit codes: 0 success, 2 config error, 3 capacity error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import __version__
from .chain import (
    Gemenge,
    MSState,
    Scenario,
    _gemenge_weights,
    _observe,
    _scenario_fields,
    decohere,
    full_chain,
    object_detector_state,
    pointer_branch_amplitudes,
    premeasure_hamiltonian_fidelity,
    scenario_digest,
    statistical_restriction,
)
from .discriminate import (
    FeasibilityResult,
    _superposition_problem,
    check_eigen_discrimination,
    numeric_feasibility_oracle,
    recognition_problem,
)
from .errors import CapacityError, ConfigError, ValidationError
from .metrics import (
    POINTER_AXES,
    SPIN_X_AXIS,
    _bloch,
    _bloch_overlaps,
    _purity_report,
    _qubit_density,
    _tuned_axis,
    phase_averaged_purity_information,
)
from .sampling import born_report

COMMANDS = ("chain", "discriminate", "overlap", "born", "decohere", "all")
FORMATS = ("csv", "structured-text")

CONFIG_FIELDS = {
    "a1", "a2", "input_kind", "n_env", "env_overlap", "seed", "trials",
    "command", "output_path", "output_format", "tolerances",
}
TOLERANCE_FIELDS = {"born_sigma", "oracle_feasible", "match"}
DEFAULT_TOLERANCES = {"born_sigma": 4.0, "oracle_feasible": 1e-6, "match": 1e-9}

# Config amplitudes are renormalized when close to unit norm; anything beyond
# this residual is rejected as a typo rather than rounding.
AMPLITUDE_RESIDUAL_TOL = 1e-3
# |<S1D1O1|rho|S2D2O2>| at or below which the chain state has no pointer coherence,
# and the decoherence report skips its off-diagonal scaling rows.
COHERENCE_FLOOR = 1e-12

OVERLAP_CONVENTION_NOTE = (
    "two overlap conventions are reported: overlap_min is the sum of pointwise "
    "minima and is the default; overlap_sqrt is the sum of sqrt-products "
    "(Bhattacharyya coefficient). They differ whenever the distributions "
    "differ, e.g. 0.5 vs sqrt(2)/2 for the symmetric spin case; the package's "
    "reference values follow the minimum convention."
)


@dataclass(frozen=True)
class RunConfig:
    scenario: Scenario
    command: str
    output_path: str | None = None
    output_format: str = "structured-text"
    tolerances: tuple[tuple[str, float], ...] = ()

    def tolerance(self, name: str) -> float:
        for key, value in self.tolerances:
            if key == name:
                return value
        return DEFAULT_TOLERANCES[name]


@dataclass(frozen=True)
class ReportRow:
    label: str
    value: object
    expected: object = None
    passed: bool | None = None


@dataclass(frozen=True)
class Report:
    command: str
    digest: str
    scenario: tuple[tuple[str, object], ...]
    version: str
    rows: tuple[ReportRow, ...]
    notes: tuple[str, ...] = ()


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_amplitude(value, name: str) -> complex:
    if _is_number(value):
        return complex(_parse_number(value, name), 0.0)
    if isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_number, value)):
        return complex(_parse_number(value[0], name), _parse_number(value[1], name))
    raise ConfigError(f"field {name!r} must be a number or a [re, im] pair")


def _parse_integer(value, name: str) -> int:
    """A JSON integer; an integral float such as 1e6 counts, a bool does not."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {name!r} must be an integer, got {value!r}")
    return value


def _parse_number(value, name: str) -> float:
    if not _is_number(value):
        raise ConfigError(f"field {name!r} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ConfigError(f"field {name!r} is out of the floating-point range") from None


def _parse_tolerance(value, name: str) -> float:
    tol = _parse_number(value, f"tolerances.{name}")
    if not 0.0 <= tol < float("inf"):
        raise ConfigError(f"tolerance {name!r} must be finite and nonnegative, got {tol!r}")
    return tol


def parse_config(text: str | bytes, override_command: str | None = None,
                 overrides: dict | None = None) -> RunConfig:
    """Validate a JSON config and apply the documented defaults.

    Fields in `overrides` replace the config's own. Bytes must be UTF-8.
    """
    try:
        data = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config is not UTF-8: {exc}") from exc
    # bad JSON or an integer of more than 4300 digits; nesting past the parser's depth
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError("config must be a JSON object")
    return config_from_dict({**data, **(overrides or {})}, override_command)


def config_from_dict(data: dict, override_command: str | None = None) -> RunConfig:
    unknown = set(data) - CONFIG_FIELDS
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")

    a1 = _parse_amplitude(data.get("a1", 2**-0.5), "a1")
    a2 = _parse_amplitude(data.get("a2", 2**-0.5), "a2")
    try:
        residual = abs(a1) ** 2 + abs(a2) ** 2 - 1.0
    except OverflowError:
        raise ConfigError("amplitudes not normalized: a squared modulus overflows") from None
    if not abs(residual) <= AMPLITUDE_RESIDUAL_TOL:
        raise ConfigError(f"amplitudes not normalized: residual {residual:.6g}")
    scale = (1.0 + residual) ** -0.5
    a1, a2 = a1 * scale, a2 * scale

    command = override_command or data.get("command")
    if command is None:
        raise ConfigError("no command given (config field 'command' or CLI argument)")
    if command not in COMMANDS:
        raise ConfigError(f"unknown command {command!r}; expected one of {', '.join(COMMANDS)}")

    output_path = data.get("output_path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigError(f"field 'output_path' must be a string, got {output_path!r}")

    output_format = data.get("output_format", "structured-text")
    if output_format not in FORMATS:
        raise ConfigError(f"unknown output_format {output_format!r}")

    tolerances = data.get("tolerances", {})
    if not isinstance(tolerances, dict):
        raise ConfigError("field 'tolerances' must be an object")
    bad = set(tolerances) - TOLERANCE_FIELDS
    if bad:
        raise ConfigError(f"unknown tolerance(s): {', '.join(sorted(bad))}")

    try:
        scenario = Scenario(
            a1=a1,
            a2=a2,
            input_kind=data.get("input_kind", "pure"),
            n_env=_parse_integer(data.get("n_env", 0), "n_env"),
            env_overlap=_parse_number(data.get("env_overlap", 1.0), "env_overlap"),
            seed=_parse_integer(data.get("seed", 42), "seed"),
            trials=_parse_integer(data.get("trials", 100_000), "trials"),
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid scenario: {exc}") from exc

    return RunConfig(
        scenario=scenario,
        command=command,
        output_path=output_path,
        output_format=output_format,
        tolerances=tuple(sorted((k, _parse_tolerance(v, k)) for k, v in tolerances.items())),
    )


_BASIS_NAMES_8 = tuple(
    f"S{1 + (k >> 2)}D{1 + ((k >> 1) & 1)}O{1 + (k & 1)}" for k in range(8)
)


class _Fixed(NamedTuple):
    """The scenario-free report parts."""
    recognition: FeasibilityResult
    hamiltonian_fidelity: float


@functools.cache
def _fixed() -> _Fixed:
    """The report parts that no scenario changes, built once per process."""
    return _Fixed(check_eigen_discrimination(recognition_problem()),
                  premeasure_hamiltonian_fidelity())


class _Run:
    """One `execute` call: the chain states its builders share, each built on first use."""

    def __init__(self, config: RunConfig):
        self.config = config
        self.scenario = config.scenario

    @functools.cached_property
    def digest(self) -> str:
        """The scenario's digest: the report's own and the Born stream's."""
        return scenario_digest(self.scenario)

    @functools.cached_property
    def detector(self) -> MSState:
        """The object-detector state after the S->D premeasurement."""
        return object_detector_state(self.scenario.a1, self.scenario.a2)

    @functools.cached_property
    def pure(self) -> MSState:
        """The pure chain: the run's S->D stage continued with the D->O step."""
        return _observe(self.detector)

    @functools.cached_property
    def model(self) -> MSState | Gemenge:
        """The chain of the configured input kind: the pure one, or the gemenge."""
        return self.pure if self.scenario.input_kind == "pure" else full_chain(self.scenario)


def _gated(label: str, value, expected, tol: float) -> ReportRow:
    """A row that passes within `tol` of `expected`; ungated when `expected` is None."""
    if expected is None:
        return ReportRow(label, value)
    return ReportRow(label, value, expected, bool(abs(value - expected) < tol))


def _chain_rows(run: _Run) -> tuple[list[ReportRow], list[str]]:
    scenario = run.scenario
    match_tol = run.config.tolerance("match")
    rows: list[ReportRow] = []
    notes: list[str] = []
    model = run.model
    if isinstance(model, MSState):
        for name, amp in zip(_BASIS_NAMES_8, model.vector.tolist()):
            rows.append(ReportRow(f"chain.amplitude[{name}].re", amp.real))
            rows.append(ReportRow(f"chain.amplitude[{name}].im", amp.imag))
    else:
        for i, (branch, p) in enumerate(model.branches):
            rows.append(ReportRow(f"chain.branch[{i}].probability", float(p)))
        notes.extend(model.notes)
    restriction = statistical_restriction(model)
    p1, p2 = scenario.probabilities
    expect = {("1", "1"): p1, ("2", "2"): p2, ("1", "2"): None, ("2", "1"): None}
    for (i, j), exp in expect.items():
        val = complex(restriction[int(i) - 1, int(j) - 1])
        rows.append(_gated(f"chain.restriction[O{i}][O{j}].re", float(val.real), exp, match_tol))
        rows.append(ReportRow(f"chain.restriction[O{i}][O{j}].im", float(val.imag)))
    rows.append(_gated("chain.premeasure.hamiltonian_fidelity", _fixed().hamiltonian_fidelity,
                       1.0, match_tol))
    return rows, notes


def _describe_evidence(ev) -> str:
    if ev.kind == "overlap":
        return f"states {ev.i},{ev.j} overlap |<phi_{ev.i}|phi_{ev.j}>|={abs(ev.detail[0]):.6g}"
    if ev.kind == "dependence":
        return f"states {ev.i},{ev.j} pinned equal by a linear dependence"
    return f"states {ev.i},{ev.j} share a required-equal group"


def _discriminate_rows(run: _Run) -> tuple[list[ReportRow], list[str]]:
    rows: list[ReportRow] = []
    problem = _superposition_problem(run.pure)
    result = check_eigen_discrimination(problem)
    expected = "INFEASIBLE" if run.scenario.a1 * run.scenario.a2 != 0 else None
    rows.append(ReportRow("discriminate.verdict", result.verdict, expected,
                          None if expected is None else result.verdict == expected))
    # always INFEASIBLE, with a certificate: psi overlaps a branch product by max(|a1|, |a2|)
    merged = sorted({g for forced in result.certificate for g in (forced.group_a, forced.group_b)})
    rows.append(ReportRow("discriminate.certificate.summary",
                          "=".join(f"g{g}" for g in merged) + " forced"))
    for k, forced in enumerate(result.certificate):
        text = f"groups {forced.group_a},{forced.group_b}: " + \
            "; ".join(_describe_evidence(ev) for ev in forced.chain)
        rows.append(ReportRow(f"discriminate.certificate[{k}]", text))

    residual, _ = numeric_feasibility_oracle(problem, (0.0, 1.0, 2.0))
    agrees = (residual < run.config.tolerance("oracle_feasible")) == result.feasible
    rows.append(ReportRow("discriminate.oracle.min_residual", float(residual)))
    rows.append(ReportRow("discriminate.oracle.agrees", str(agrees), "True", agrees))

    rec = _fixed().recognition
    rows.append(ReportRow("discriminate.recognition.verdict", rec.verdict, "FEASIBLE",
                          rec.verdict == "FEASIBLE"))
    return rows, ["the recognition row refers to the two orthogonal pointer states"]


def _overlap_pair_rows(label: str, overlaps: tuple[float, float, float], expected_tv,
                       match_tol: float) -> list[ReportRow]:
    k_tv, k_bc, bits = overlaps
    return [
        _gated(f"overlap.{label}.overlap_min", k_tv, expected_tv, match_tol),
        ReportRow(f"overlap.{label}.overlap_sqrt", k_bc),
        ReportRow(f"overlap.{label}.purity_information_bits", bits),
    ]


def _overlap_rows(run: _Run) -> tuple[list[ReportRow], list[str]]:
    """Pure against mixed distributions: on the object under the fixed and the tuned
    transverse spin, on the detector under its three pointer observables, and on
    the chain under the interference term.

    Each two-dim density enters once, as its `metrics._bloch` tuple of Python
    floats: the pure ones, the object's and the detector's from the run's own
    S->D stage, from their amplitudes through `metrics._qubit_density`, the
    mixed ones from their two diagonal weights. `metrics._bloch_overlaps`
    gives the spin-x and tuned triples in one call and the pointer triples
    in another, the purity rates take `purity_report`'s formula, and the phase
    average is `phase_averaged_purity_information`, which converts its
    nested-list densities exactly, so no BLAS kernel or SIMD loop rounds these rows.

    The interference term is sigma x on the span of the branch products
    |S1D1O1>, |S2D2O2> and 0 off it, where neither chain model has weight (for
    the pure chain `pointer_branch_amplitudes` checks it): the spin-x pair of
    the chain's branch-span qubit and the object's mixed density.
    """
    scenario = run.scenario
    match_tol = run.config.tolerance("match")
    a1, a2 = scenario.a1, scenario.a2
    rows: list[ReportRow] = []
    notes: list[str] = [OVERLAP_CONVENTION_NOTE]

    rho_pure = _qubit_density((a1, a2))
    w1, w2 = _gemenge_weights(a1, a2)[0]
    rho_mixed = [[w1, 0.0], [0.0, w2]]
    detector = run.detector
    rho_d_pure = _qubit_density(detector.vector, detector.layout.dims,
                                detector.layout.position("D"))
    rho_d_mixed = [[abs(a1) ** 2, 0.0], [0.0, abs(a2) ** 2]]
    mixed = _bloch(rho_mixed)
    spin_x, spin_tuned = _bloch_overlaps((SPIN_X_AXIS, _tuned_axis(rho_pure[0][1])),
                                         _bloch(rho_pure), mixed)
    pointer = _bloch_overlaps(POINTER_AXES, _bloch(rho_d_pure), _bloch(rho_d_mixed))

    # spin x: the pure distribution is (1 -+ 2 Re(a1 a2*)) / 2, the mixed one (1/2, 1/2)
    expected_x = 1.0 - abs((a1 * a2.conjugate()).real)
    rows += _overlap_pair_rows("spin_x", spin_x, expected_x, match_tol)
    rows += _overlap_pair_rows("spin_tuned", spin_tuned, 1.0 - abs(a1) * abs(a2), match_tol)
    rows.append(_gated("overlap.purity_rate.pure", _purity_report(rho_pure[0][1]).r_p,
                       2.0 * abs(a1) * abs(a2), match_tol))
    rows.append(_gated("overlap.purity_rate.mixed", _purity_report(rho_mixed[0][1]).r_p, 0.0,
                       match_tol))
    rows.append(ReportRow("overlap.purity_information.phase_averaged_bits",
                          phase_averaged_purity_information(rho_pure, rho_mixed)))
    notes.append("the phase-averaged purity information row is a package-defined "
                 "estimate over a uniform 36-point phase grid")
    for name, overlaps in zip(("pointer_D", "pointer_D_x", "pointer_D_y"), pointer):
        rows += _overlap_pair_rows(name, overlaps, 1.0, match_tol)

    if w1 > 0.0 and w2 > 0.0:  # the gemenge keeps both branches
        branch_span = _bloch(_qubit_density(pointer_branch_amplitudes(run.pure)))
        (interference,) = _bloch_overlaps((SPIN_X_AXIS,), branch_span, mixed)
        rows += _overlap_pair_rows("interference_full", interference, expected_x, match_tol)
    else:
        notes.append("interference overlap skipped: one amplitude vanishes, so the "
                     "mixture coincides with the pure chain state")
    return rows, notes


def _born_rows(run: _Run) -> tuple[list[ReportRow], list[str]]:
    scenario = run.scenario
    sigma_bound = run.config.tolerance("born_sigma")
    rows: list[ReportRow] = []
    report = born_report(run.model, scenario)
    rows.append(ReportRow("born.trials", report.trials))
    rows.append(ReportRow("born.stream_digest", run.digest))
    for stat in report.stats:
        tag = f"born.outcome[{stat.value:g}]"
        rows.append(ReportRow(f"{tag}.count", stat.count))
        passed = None if report.degenerate else bool(abs(stat.z_score) < sigma_bound)
        rows.append(ReportRow(f"{tag}.frequency", stat.frequency, stat.expected, passed))
        rows.append(ReportRow(f"{tag}.z", stat.z_score))
    rows.append(ReportRow("born.chi_square", report.chi_square))
    rows.append(ReportRow("born.p_value", report.p_value, None,
                          None if report.degenerate else bool(report.p_value > 0.001)))
    rows.append(ReportRow("born.degenerate", str(report.degenerate)))
    return rows, []


def _decohere_rows(run: _Run) -> tuple[list[ReportRow], list[str]]:
    scenario = run.scenario
    match_tol = run.config.tolerance("match")
    eps = scenario.env_overlap
    rows: list[ReportRow] = []
    notes: list[str] = []
    if scenario.input_kind == "gemenge":
        notes.append("decoherence sweep uses the pure chain state built from the "
                     "configured amplitudes")
    ms = run.pure
    # reference pointer coherence <S1D1O1|rho|S2D2O2> of the undecohered state
    cross = complex(ms.vector[0] * ms.vector[7].conjugate())
    coherent = abs(cross) > COHERENCE_FLOOR
    for n, result in enumerate(decohere(ms, scenario.n_env, eps)):
        law = float(eps) ** n if n > 0 else 1.0
        rows.append(_gated(f"decohere.coherence_factor[{n}]", result.coherence_factor, law,
                           match_tol))
        if coherent:
            # gated on the complex ratio, not on the real part it prints: `_gated` on
            # the printed value would pass an imaginary part of any size
            measured = complex(result.reduced_ms[0, 7]) / cross
            rows.append(ReportRow(f"decohere.offdiag_scale[{n}]", float(measured.real),
                                  law, bool(abs(measured - law) < match_tol)))
    if not coherent:
        notes.append("off-diagonal scaling rows skipped: the chain state has no "
                     "pointer coherence to suppress")
    return rows, notes


_COMMAND_BUILDERS = {
    "chain": _chain_rows,
    "discriminate": _discriminate_rows,
    "overlap": _overlap_rows,
    "born": _born_rows,
    "decohere": _decohere_rows,
}


def execute(config: RunConfig) -> Report:
    """Run the configured command and collect a labeled, deterministic report.

    The builders share one run, so each chain they read is built once.
    """
    run = _Run(config)
    if config.command == "all":
        rows: list[ReportRow] = []
        notes: list[str] = []
        for name in ("chain", "discriminate", "overlap", "born", "decohere"):
            r, n = _COMMAND_BUILDERS[name](run)
            rows += r
            notes += n
    else:
        rows, notes = _COMMAND_BUILDERS[config.command](run)
    return Report(
        command=config.command,
        digest=run.digest,
        scenario=_scenario_fields(config.scenario),
        version=__version__,
        rows=tuple(rows),
        notes=tuple(notes),
    )


_INFINITIES = (float("inf"), float("-inf"))


def _fmt(value) -> str:
    """One scalar as JSON text; a string goes through `json.dumps`'s own ASCII encoder.

    Floats and strings, the bulk of a report, are tested first; bool comes
    before int because a bool is an int.
    """
    if isinstance(value, float):
        if value != value or value in _INFINITIES:
            return encode_basestring_ascii(str(value))
        return f"{value + 0.0:.12g}"  # + 0.0 turns -0.0 into 0.0
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return str(value)
    raise TypeError(f"cannot serialize {type(value)}")


_ROW_TEXT = ('    {{\n      "expected": {},\n      "label": {},\n'
             '      "passed": {},\n      "value": {}\n    }}')


def _block(opening: str, items: list[str], pad: str, closing: str) -> str:
    """A JSON array or object of pre-rendered `items`, each on its own line."""
    if not items:
        return opening + closing
    return opening + "\n" + ",\n".join(items) + "\n" + pad + closing


def _scenario_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return _block("[", [f"      {_fmt(v)}" for v in value], "    ", "]")
    return _fmt(value)


def _decoded_key(key: str) -> str:
    """`key` as JSON reads its escaped text back: a surrogate pair held as two
    code points is the one code point it encodes. Scenario keys sort on this,
    so the order survives `parse_report`."""
    return key.encode("utf-16-le", "surrogatepass").decode("utf-16-le", "surrogatepass")


def render_report(report: Report, output_format: str = "structured-text") -> str:
    """Serialize a report; byte-stable for equal inputs.

    Structured text is a JSON object with sorted keys and two-space indents,
    written in one pass: each row from one fixed template of `_fmt` values,
    so every string, label and key is ASCII-escaped as `json.dumps` escapes
    it. Row values and the scenario's entries (scalars or flat lists of
    them) are scalars to `_fmt`; `parse_report` inverts this rendering.
    """
    if output_format == "structured-text":
        scenario = dict(report.scenario)
        parts = [
            "{",
            f'  "command": {_fmt(report.command)},',
            f'  "digest": {_fmt(report.digest)},',
            '  "notes": ' + _block("[", [f"    {_fmt(n)}" for n in report.notes], "  ", "],"),
            '  "rows": ' + _block("[", [
                _ROW_TEXT.format(_fmt(r.expected), _fmt(r.label), _fmt(r.passed), _fmt(r.value))
                for r in report.rows], "  ", "],"),
            '  "scenario": ' + _block("{", [
                f"    {encode_basestring_ascii(k)}: {_scenario_value(scenario[k])}"
                for k in sorted(scenario, key=_decoded_key)], "  ", "},"),
            f'  "version": {_fmt(report.version)}',
            "}\n",
        ]
        return "\n".join(parts)
    if output_format == "csv":
        if report.command == "born":
            fields = ("count", "frequency", "expected", "z")
            lines = [("outcome", *fields)]
            # every outcome has a count, a frequency (with its expected value) and a z row
            by_tag: dict[str, dict[str, object]] = {}
            for row in report.rows:
                if row.label.startswith("born.outcome["):
                    tag, field = row.label.rsplit(".", 1)
                    entry = by_tag.setdefault(tag, {})
                    entry[field] = row.value
                    if field == "frequency":
                        entry["expected"] = row.expected
            for tag in sorted(by_tag, reverse=True):
                outcome = tag[len("born.outcome["):-1]
                lines.append((outcome, *(_fmt(by_tag[tag][f]) for f in fields)))
        else:
            lines = [("label", "value", "expected", "status")]
            for row in report.rows:
                status = "" if row.passed is None else ("pass" if row.passed else "fail")
                expected = "" if row.expected is None else _fmt(row.expected).strip('"')
                lines.append((row.label, _fmt(row.value).strip('"'), expected, status))
        # RFC 4180: a field is quoted only when it holds a comma, a quote or a line break
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(lines)
        return out.getvalue()
    raise ConfigError(f"unknown output format {output_format!r}")


def parse_report(text: str) -> Report:
    """Inverse of the structured-text rendering."""
    data = json.loads(text)
    rows = tuple(
        ReportRow(r["label"], r["value"], r.get("expected"), r.get("passed"))
        for r in data["rows"]
    )
    scenario = tuple(sorted(data["scenario"].items()))
    return Report(data["command"], data["digest"], scenario, data["version"],
                  rows, tuple(data["notes"]))


def emit_report(report: Report, output_format: str, path: str | None) -> str:
    """Render and optionally write a report; returns the rendered text."""
    text = render_report(report, output_format)
    if path is not None:
        data = text.encode("ascii")  # before opening: a non-ASCII report writes no file
        with open(path, "wb") as handle:
            handle.write(data)
    return text


# built once per process: parsing reads the parser and never changes it
_PARSER = argparse.ArgumentParser(
    prog="mschain",
    description="measurement chain simulator and analysis toolkit",
)
_PARSER.add_argument("command", choices=COMMANDS)
_PARSER.add_argument("--config", help="path to a JSON config file")
_PARSER.add_argument("--seed", type=int)
_PARSER.add_argument("--trials", type=int)
_PARSER.add_argument("--out", help="output path (defaults to stdout)")
_PARSER.add_argument("--format", choices=FORMATS, dest="output_format")


def main(argv=None) -> int:
    args = _PARSER.parse_args(argv)

    try:
        if args.config is not None:
            with open(args.config, "rb") as handle:
                text = handle.read()
        else:
            text = "{}"
        flags = (("seed", args.seed), ("trials", args.trials),
                 ("output_path", args.out), ("output_format", args.output_format))
        config = parse_config(text, args.command, {k: v for k, v in flags if v is not None})
        report = execute(config)
        text = emit_report(report, config.output_format, config.output_path)
        if config.output_path is None:
            sys.stdout.write(text)
    except (ConfigError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
