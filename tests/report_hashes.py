"""Print one `label sha256` line per report of a fixed set of seeded configs.

Run it from the root of a checkout, with the `mschain` to hash first on the
import path:

    PYTHONPATH=src python3 tests/report_hashes.py > hashes.txt

Every build prints the same labels in the same order, so two builds can be
compared line by line: a line that differs names a report whose bytes
changed. The 1,152 configs come from one fixed seed and cover every command
in both output formats with both input kinds; a weight of 0, 1e-12, 1e-6,
1 - 1e-6, 1 or a random value on either amplitude; real and complex relative
phases; `n_env` 0 to 3; and 1, 17, `CHUNK` + 1 or a random number of trials
up to 3 * `CHUNK` + 17. A config that the command line would reject hashes
its error instead of a report.

After those, 48 `cap/...` lines hash `decohere` reports at `n_env` 4 to 9,
up to the 4096-dim cap, in both output formats: four configs per `n_env`
from their own fixed seed, with both input kinds, a random weight and
relative phase, and an environment overlap of 0, 1 or a random value.

Each `born` config also prints one `draws/<label> sha256` line: the hash of
the 64 (branch, pointer value) pairs that the single-event draws
(`stochastic_restriction` for pure input, `sample_gemenge` for a gemenge)
give for `trial_uniform(seed, k)`, k < 64, on the config's `full_chain`.

It needs the standard library and `mschain` only. Its name does not match
`test_*.py`, so pytest does not collect it.
"""

import cmath
import hashlib
import math
import random

from mschain.chain import full_chain
from mschain.cli import COMMANDS, FORMATS, config_from_dict, execute, render_report
from mschain.errors import CapacityError, ConfigError, ValidationError
from mschain.sampling import CHUNK, sample_gemenge, stochastic_restriction, trial_uniform

SEED = 2026
SCALAR_DRAWS = 64
WEIGHTS = ("0", "1e-12", "1e-6", "1-1e-6", "1", "random")
N_ENV = 4
CAP_SEED = 2027
CAP_N_ENV = range(N_ENV, 10)
CAP_CONFIGS_PER_N_ENV = 4
# command x input kind x weight x phase x weighted amplitude x n_env
N_CONFIGS = len(COMMANDS) * 2 * len(WEIGHTS) * 2 * 2 * N_ENV


def _weight(name: str, rng: random.Random) -> float:
    if name == "random":
        return rng.random()
    if name == "1-1e-6":
        return 1.0 - 1e-6
    return float(name)


def configs(rng: random.Random):
    """(label, config) for every seeded config, in a fixed order."""
    for i in range(N_CONFIGS):
        command = COMMANDS[i % len(COMMANDS)]
        k = i // len(COMMANDS)
        kind = ("pure", "gemenge")[k % 2]
        weight_name = WEIGHTS[k // 2 % len(WEIGHTS)]
        k //= 2 * len(WEIGHTS)
        phase_kind = ("real", "complex")[k % 2]
        weighted = ("a1", "a2")[k // 2 % 2]
        n_env = k // 4 % N_ENV
        weight = _weight(weight_name, rng)
        if phase_kind == "real":
            phase = rng.choice((0.0, math.pi))
        else:
            phase = rng.uniform(0.0, 2.0 * math.pi)
        big = math.sqrt(1.0 - weight) * cmath.exp(1j * phase)
        amps = [complex(math.sqrt(weight)), big]
        if weighted == "a2":
            amps.reverse()
        trials = rng.choice((1, 17, CHUNK + 1, rng.randint(2, 3 * CHUNK + 17)))
        config = {
            "a1": [amps[0].real, amps[0].imag],
            "a2": [amps[1].real, amps[1].imag],
            "input_kind": kind,
            "n_env": n_env,
            "env_overlap": rng.choice((0.0, 1.0, rng.random())),
            "seed": rng.getrandbits(64),
            "trials": trials,
        }
        label = (f"{i:04d}/{command}/{kind}/{weighted}={weight_name}/{phase_kind}"
                 f"/n_env={n_env}/trials={trials}")
        yield label, command, config


def cap_configs(rng: random.Random):
    """(label, config) for the `decohere` configs at `n_env` 4 to 9, in a fixed order."""
    for n_env in CAP_N_ENV:
        for k in range(CAP_CONFIGS_PER_N_ENV):
            kind = ("pure", "gemenge")[k % 2]
            weight = rng.random()
            amps = (complex(math.sqrt(weight)),
                    math.sqrt(1.0 - weight) * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
            eps = (0.0, 1.0, rng.random(), rng.random())[k]
            config = {
                "a1": [amps[0].real, amps[0].imag],
                "a2": [amps[1].real, amps[1].imag],
                "input_kind": kind,
                "n_env": n_env,
                "env_overlap": eps,
            }
            yield f"cap/{n_env}.{k}/decohere/{kind}/n_env={n_env}", "decohere", config


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def scalar_draws(config: dict, command: str) -> str:
    """The config's single-event (branch, pointer value) pairs as text, or its error."""
    try:
        scenario = config_from_dict(config, override_command=command).scenario
        model = full_chain(scenario)
        pairs = []
        for k in range(SCALAR_DRAWS):
            u = trial_uniform(scenario.seed, k)
            if scenario.input_kind == "pure":
                pairs.append((-1, stochastic_restriction(model, u).values[0]))
            else:
                branch, pattern = sample_gemenge(model, u)
                pairs.append((branch, pattern.values[0]))
        return repr(pairs)
    except (ConfigError, ValidationError, CapacityError) as exc:
        return f"{type(exc).__name__}: {exc}"


def _report_lines(label: str, command: str, config: dict) -> None:
    try:
        report = execute(config_from_dict(config, override_command=command))
        texts = {fmt: render_report(report, fmt) for fmt in FORMATS}
    except (ConfigError, ValidationError, CapacityError) as exc:
        texts = {fmt: f"{type(exc).__name__}: {exc}" for fmt in FORMATS}
    for fmt in FORMATS:
        print(f"{label}/{fmt} {_sha256(texts[fmt])}")


def main() -> None:
    for label, command, config in configs(random.Random(SEED)):
        _report_lines(label, command, config)
        if command == "born":
            print(f"draws/{label} {_sha256(scalar_draws(config, command))}")
    for label, command, config in cap_configs(random.Random(CAP_SEED)):
        _report_lines(label, command, config)


if __name__ == "__main__":
    main()
