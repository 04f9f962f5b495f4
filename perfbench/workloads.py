"""Seeded inputs, the timed operation and the correctness checks of each workload.

Workloads (closed loop, one caller; inputs cycle in a fixed order):

- `sweep`: one op runs a seeded scenario through `mschain all` in both
  output formats, then draws `SCALAR_DRAWS` single events through the scalar
  path (`stochastic_restriction` for pure input, `sample_gemenge` for a
  gemenge). Thousands of 2-32 dim calls, so per-call overhead and repeated
  chain rebuilds dominate.
- `born_mc`: one op is one `mschain born` report at `BORN_TRIALS` trials,
  cycling through the symmetric pure, (sqrt .3, sqrt .7) pure and
  (sqrt .3, sqrt .7) gemenge inputs. Bulk uniform generation and outcome
  counting dominate.
- `decohere_env`: one op is one `mschain decohere` report at the 4096-dim cap
  (`n_env=9`), with eps in {0, 0.5, 0.9} and seeded amplitudes. The dense
  |psi><psi| and its partial trace dominate.

Monte Carlo seeds are screened at input generation: the Born report checks
each outcome frequency at 4 sigma and the chi-square p-value at 0.001, so a
fair sampler fails those checks on a small share of seeds by design (about
1% of seeds for a 1e-6 weight at 1e4 trials, where one rare draw is a 10
sigma event under the normal approximation the report uses). The generator
takes the first candidate seed whose Born statistics pass and counts the
candidates it skipped, so that a failed op always points at the program.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
from dataclasses import dataclass

import numpy as np

from mschain import chain, cli, discriminate, sampling

WORKLOADS = ("sweep", "born_mc", "decohere_env")

SWEEP_SCENARIOS = 12
SWEEP_TRIALS = 10_000
SCALAR_DRAWS = 64
BORN_TRIALS = 10_000_000
DECOHERE_N_ENV = 9
DECOHERE_EPS = (0.0, 0.5, 0.9)
EDGE_WEIGHTS = (1e-6, 1.0 - 1e-6)

SEED_CANDIDATES = 64
# |z| screen for the bulk Born inputs; stricter than the report's p > 0.001
# (|z| < 3.29 for two outcomes), so a screened seed passes with margin.
BORN_SCREEN_Z = 3.0
SCREEN_CHUNK = 1_000_000


@dataclass(frozen=True)
class Input:
    command: str
    a1: complex
    a2: complex
    kind: str
    seed: int
    trials: int
    config_path: str
    outputs: tuple[tuple[str, str], ...]  # (format, path)
    scalar_draws: int = 0


def _amplitudes(rng: random.Random, weight: float, complex_phase: bool) -> tuple[complex, complex]:
    phase = rng.uniform(0.0, 2.0 * math.pi) if complex_phase else rng.choice((0.0, math.pi))
    return complex(math.sqrt(weight)), math.sqrt(1.0 - weight) * complex(math.cos(phase), math.sin(phase))


def _config(fields: dict) -> dict:
    a1, a2 = fields["a1"], fields["a2"]
    return {
        "a1": [a1.real, a1.imag],
        "a2": [a2.real, a2.imag],
        "input_kind": fields["kind"],
        "n_env": fields["n_env"],
        "env_overlap": fields["env_overlap"],
        "seed": fields["seed"],
        "trials": fields["trials"],
    }


def _born_report_passes(config: dict) -> bool:
    report = cli.execute(cli.config_from_dict(config, "born"))
    return all(row.passed is not False for row in report.rows)


def _bulk_draws_typical(seed: int, trials: int, weights) -> bool:
    below = dict.fromkeys(weights, 0)
    for start in range(0, trials, SCREEN_CHUNK):
        u = sampling.trial_uniforms(seed, np.arange(start, min(trials, start + SCREEN_CHUNK)))
        for w in weights:
            below[w] += int(np.count_nonzero(u < w))
    return all(abs(below[w] - trials * w) < BORN_SCREEN_Z * math.sqrt(trials * w * (1.0 - w))
               for w in weights)


def _screened_seed(rng: random.Random, passes) -> tuple[int, int]:
    """First candidate seed that `passes`, and how many candidates were skipped."""
    for skipped in range(SEED_CANDIDATES):
        seed = rng.getrandbits(63)
        if passes(seed):
            return seed, skipped
    raise RuntimeError(f"no Monte Carlo seed out of {SEED_CANDIDATES} passes the Born checks")


def _sweep_fields(rng: random.Random) -> tuple[list[dict], int]:
    # Full factorial over input kind x real/complex phase x n_env, so every
    # seed has the same mix of work; weights, phases and overlaps are seeded,
    # and every third scenario sits at an edge weight.
    out, skipped = [], 0
    for i in range(SWEEP_SCENARIOS):
        weight = EDGE_WEIGHTS[(i // 3) % 2] if i % 3 == 0 else rng.uniform(0.02, 0.98)
        a1, a2 = _amplitudes(rng, weight, complex_phase=bool((i // 2) % 2))
        fields = dict(command="all", a1=a1, a2=a2, kind=("pure", "gemenge")[i % 2],
                      n_env=(i // 4) % 3, env_overlap=rng.random(), trials=SWEEP_TRIALS,
                      formats=("structured-text", "csv"), scalar_draws=SCALAR_DRAWS)
        fields["seed"], n = _screened_seed(
            rng, lambda s: _born_report_passes(_config({**fields, "seed": s})))
        out.append(fields)
        skipped += n
    return out, skipped


def _born_fields(rng: random.Random) -> tuple[list[dict], int]:
    a_sym = complex(math.sqrt(0.5))
    a1, a2 = complex(math.sqrt(0.3)), complex(math.sqrt(0.7))
    seed, skipped = _screened_seed(
        rng, lambda s: _bulk_draws_typical(s, BORN_TRIALS, (0.5, abs(a1) ** 2)))
    return [dict(command="born", a1=x1, a2=x2, kind=kind, n_env=0, env_overlap=1.0,
                 seed=seed, trials=BORN_TRIALS, formats=("structured-text",))
            for x1, x2, kind in ((a_sym, a_sym, "pure"), (a1, a2, "pure"), (a1, a2, "gemenge"))
            ], skipped


def _decohere_fields(rng: random.Random) -> tuple[list[dict], int]:
    out = []
    for eps in DECOHERE_EPS:
        a1, a2 = _amplitudes(rng, rng.uniform(0.05, 0.95), complex_phase=True)
        out.append(dict(command="decohere", a1=a1, a2=a2, kind="pure", n_env=DECOHERE_N_ENV,
                        env_overlap=eps, seed=0, trials=1, formats=("structured-text",)))
    return out, 0


_FIELDS = {"sweep": _sweep_fields, "born_mc": _born_fields, "decohere_env": _decohere_fields}


def make_inputs(workload: str, seed: int, workdir: str) -> tuple[list[Input], int]:
    """Inputs of one workload from its seed, with their config files written
    to `workdir`; also returns the number of Monte Carlo seeds screened out."""
    all_fields, skipped = _FIELDS[workload](random.Random(f"{workload}/{seed}"))
    inputs = []
    for i, fields in enumerate(all_fields):
        config_path = os.path.join(workdir, f"in-{i}.json")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(_config(fields), handle)
        outputs = tuple((fmt, os.path.join(workdir, f"out-{i}.{fmt}"))
                        for fmt in fields["formats"])
        inputs.append(Input(fields["command"], fields["a1"], fields["a2"], fields["kind"],
                            fields["seed"], fields["trials"], config_path, outputs,
                            fields.get("scalar_draws", 0)))
    return inputs, skipped


def run_op(inp: Input) -> tuple[list[int], tuple[float, ...]]:
    """The timed operation: CLI runs, then the scalar event draws."""
    codes = [cli.main([inp.command, "--config", inp.config_path, "--out", path,
                       "--format", fmt])
             for fmt, path in inp.outputs]
    outcomes: tuple[float, ...] = ()
    if inp.scalar_draws:
        model = chain.full_chain(chain.Scenario(inp.a1, inp.a2, inp.kind))
        draws = [sampling.trial_uniform(inp.seed, k) for k in range(inp.scalar_draws)]
        if inp.kind == "pure":
            outcomes = tuple(sampling.stochastic_restriction(model, u).values[0] for u in draws)
        else:
            outcomes = tuple(sampling.sample_gemenge(model, u)[1].values[0] for u in draws)
    return codes, outcomes


def _check_structured(inp: Input, text: str) -> list[str]:
    problems = []
    report = cli.parse_report(text)
    failed = [row.label for row in report.rows if row.passed is False]
    if failed:
        problems.append(f"rows failed: {failed[:5]}")
    if cli.render_report(report) != text:
        problems.append("structured-text report does not survive render(parse(text))")
    rows = {row.label: row for row in report.rows}
    verdict = rows.get("discriminate.verdict")
    if verdict is not None and inp.a1 * inp.a2 != 0:
        problem = discriminate.superposition_discrimination_problem(inp.a1, inp.a2)
        result = discriminate.check_eigen_discrimination(problem)
        if verdict.value != "INFEASIBLE" or result.verdict != "INFEASIBLE":
            problems.append(f"verdict {verdict.value} for a1*a2 != 0")
        elif not discriminate.verify_certificate(problem, result):
            problems.append("infeasibility certificate rejected")
    if "born.trials" in rows:
        counts = sum(row.value for label, row in rows.items()
                     if label.startswith("born.outcome[") and label.endswith(".count"))
        if not counts == rows["born.trials"].value == inp.trials:
            problems.append(f"born counts sum to {counts}, not {inp.trials}")
    return problems


def check_op(inp: Input, codes: list[int], outcomes: tuple[float, ...]) -> tuple[list[str], bytes]:
    """Problems found in one op's results, and the op's report bytes."""
    if any(codes):
        return [f"exit codes {codes}"], b""
    problems: list[str] = []
    blobs = []
    for fmt, path in inp.outputs:
        with open(path, "rb") as handle:
            data = handle.read()
        os.remove(path)  # so a run that writes nothing cannot pass on an old report
        blobs.append(data)
        text = data.decode("ascii")
        if fmt == "structured-text":
            problems += _check_structured(inp, text)
        elif any(line.endswith(",fail") for line in text.splitlines()):
            problems.append("csv report has failing rows")
    if outcomes:
        scenario = chain.Scenario(inp.a1, inp.a2, inp.kind, seed=inp.seed, trials=len(outcomes))
        stream, _ = sampling.run_trials(scenario)
        if tuple(stream.q_values.tolist()) != outcomes:
            problems.append("scalar draws disagree with run_trials on the same seed")
    return problems, b"".join(blobs)


def digest(blobs) -> str:
    h = hashlib.sha256()
    for blob in blobs:
        h.update(len(blob).to_bytes(8, "little"))
        h.update(blob)
    return h.hexdigest()[:16]
