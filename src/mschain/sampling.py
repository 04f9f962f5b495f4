"""Seeded Monte Carlo realization of the stochastic restriction map.

Randomness comes from a counter-based scheme: the uniform draw for trial k is
a pure function of (seed, k), computed with the SplitMix64 finalizer. Streams
are therefore bit-identical for a given scenario and seed no matter how the
trials are scheduled, and per-trial draws can be generated in any order or in
parallel without shared generator state.

One Born rule serves every draw: a chain model's `born_table`, built on its
first draw and kept, holds its outcome cells with their weights and what each
records, and a draw's cell is the number of the table's inner edges at or
below it, so single events, `run_trials` streams and `born_report` counts
agree draw for draw. Draws being order-free,
`born_report` counts `CHUNK` trials at a time, in memory that does not grow
with the trial count: one in-place SplitMix64 kernel, shared with
`trial_uniforms`, fills reused buffers, and each cell's count is read off a
chunk as the number of draws at or above its edge, so no draw is ever
labelled with its cell.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2 as chi2_dist

from .chain import BornTable, Gemenge, MSState, Scenario, full_chain, scenario_digest
from .errors import CapacityError, ValidationError

# SplitMix64: golden-ratio increment and the two finalizer multipliers.
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX_MULT_1 = 0xBF58476D1CE4E5B9
SPLITMIX_MULT_2 = 0x94D049BB133111EB
_U64 = np.uint64

# Trials per counting step of `born_report`; its memory is O(CHUNK).
CHUNK = 2**16
# Largest trial count a run may ask for: about 8 s of chunked counting
# (0.8 s CPU per 10**8 trials on a 2-vCPU Xeon).
MAX_TRIALS = 10**9


def _splitmix_uniforms(seed: int, z: np.ndarray, scratch: np.ndarray,
                       out: np.ndarray | None = None):
    """SplitMix64 uniforms of the counters `z` (trial index k + 1), in place.

    Overwrites `z` and `scratch` (same shape and dtype uint64) and returns
    the top 53 bits of each output scaled into [0, 1), written to `out` when
    given. Working in place lets `born_report` reuse one set of buffers for
    every chunk.
    """
    # array arithmetic on uint64 wraps mod 2**64 silently, as SplitMix64 needs
    z *= _U64(SPLITMIX_GAMMA)
    z += _U64(seed % 2**64)
    z ^= np.right_shift(z, _U64(30), out=scratch)
    z *= _U64(SPLITMIX_MULT_1)
    z ^= np.right_shift(z, _U64(27), out=scratch)
    z *= _U64(SPLITMIX_MULT_2)
    z ^= np.right_shift(z, _U64(31), out=scratch)
    z >>= _U64(11)
    return np.multiply(z, 2.0**-53, out=out)


def trial_uniforms(seed: int, indices) -> np.ndarray:
    """Uniform [0, 1) draws for the given trial indices under one seed.

    Draw k is output k of the SplitMix64 stream seeded with `seed`:
    the finalizer applied to seed + (k+1)*gamma, keeping the top 53 bits.
    Each draw is a pure function of (seed, k), so streams are reproducible
    independent of evaluation order or parallelism.
    """
    z = np.array(indices, dtype=np.uint64)
    z += _U64(1)
    return _splitmix_uniforms(seed, z, np.empty_like(z))


def trial_uniform(seed: int, index: int) -> float:
    return float(trial_uniforms(seed, [index])[0])


@dataclass(frozen=True)
class InformationPattern:
    """The real parameters an information system assigns to one recognized outcome."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValidationError("information pattern must be nonempty")
        if not all(np.isfinite(v) for v in self.values):
            raise ValidationError("information pattern entries must be finite")


@dataclass(frozen=True)
class OutcomeStream:
    """Reproducible record of sampled outcomes for one scenario and seed.

    `q_values` holds the pointer eigenvalue recognized in each trial;
    `branches` holds the sampled gemenge branch index, or -1 throughout when
    the input was a pure state.
    """

    seed: int
    q_values: np.ndarray
    branches: np.ndarray
    scenario_digest: str

    @property
    def trials(self) -> int:
        return int(self.q_values.shape[0])


@dataclass(frozen=True)
class OutcomeStat:
    value: float
    count: int
    frequency: float
    expected: float
    z_score: float


@dataclass(frozen=True)
class FrequencyReport:
    """Empirical outcome statistics against the Born expectations."""

    stats: tuple[OutcomeStat, ...]
    trials: int
    chi_square: float
    p_value: float
    degenerate: bool

    def __post_init__(self):
        if sum(s.count for s in self.stats) != self.trials:
            raise ValidationError("outcome counts must sum to the trial count")


@dataclass(frozen=True)
class StreamComparison:
    chi_square: float
    p_value: float
    verdict: str  # "indistinguishable" | "distinct"


def _draw(model: MSState | Gemenge, rng_draw: float) -> tuple[int, InformationPattern]:
    table = model.born_table
    branch, q = table.outcomes[np.searchsorted(table.edges, rng_draw, side="right")]
    return branch, InformationPattern((q,))


def stochastic_restriction(state: MSState, rng_draw: float) -> InformationPattern:
    """One-event restriction of a chain state to a recognized pointer outcome.

    Returns the first pointer eigenvalue when the draw falls below the first
    branch weight, the second otherwise.
    """
    return _draw(state, rng_draw)[1]


def sample_gemenge(w: Gemenge, rng_draw: float) -> tuple[int, InformationPattern]:
    """Sample one branch by cumulative probability; its restriction is deterministic."""
    return _draw(w, rng_draw)


def _require_trials_within_cap(trials: int) -> None:
    if trials > MAX_TRIALS:
        raise CapacityError(f"trials {trials} exceeds the cap of {MAX_TRIALS}")


def run_trials(scenario: Scenario) -> tuple[OutcomeStream, FrequencyReport]:
    """Build the chain once, then sample `scenario.trials` outcomes as a stream.

    The stream holds every trial in memory; `born_report` gives the same
    report in memory independent of the trial count.
    """
    _require_trials_within_cap(scenario.trials)
    table = full_chain(scenario).born_table
    draws = trial_uniforms(scenario.seed, np.arange(scenario.trials))
    chosen = np.searchsorted(table.edges, draws, side="right")
    branches = np.array([b for b, _ in table.outcomes], dtype=np.int64)[chosen]
    q_values = np.array([q for _, q in table.outcomes])[chosen]
    stream = OutcomeStream(scenario.seed, q_values, branches, scenario_digest(scenario))
    counts = np.bincount(chosen, minlength=len(table.weights))
    return stream, _frequency_report(table, counts, scenario.trials)


def born_report(model: MSState | Gemenge, scenario: Scenario) -> FrequencyReport:
    """The frequency report of `run_trials` on the chain `model` of `scenario`.

    Counted CHUNK trials at a time in min(CHUNK, trials)-long buffers, and no
    draw is labelled with its cell: a draw lands in cell j or above (0 < j < n)
    exactly when it is at or above the inner edge edges[j - 1], so each chunk
    adds those tail counts and cell j's count is tail[j] - tail[j + 1], with
    tail[0] = trials and tail[n] = 0.
    """
    _require_trials_within_cap(scenario.trials)
    table = model.born_table
    tail = np.zeros(len(table.weights) + 1, dtype=np.int64)
    tail[0] = scenario.trials
    buffer = min(CHUNK, scenario.trials)
    counters = np.arange(1, buffer + 1, dtype=np.uint64)
    z, scratch, u = np.empty(buffer, np.uint64), np.empty(buffer, np.uint64), np.empty(buffer)
    for start in range(0, scenario.trials, CHUNK):
        size = min(CHUNK, scenario.trials - start)
        np.add(counters[:size], _U64(start), out=z[:size])
        draws = _splitmix_uniforms(scenario.seed, z[:size], scratch[:size], u[:size])
        for j, edge in enumerate(table.edges, start=1):
            tail[j] += np.count_nonzero(draws >= edge)
    return _frequency_report(table, tail[:-1] - tail[1:], scenario.trials)


def _frequency_report(table: BornTable, counts: np.ndarray, trials: int) -> FrequencyReport:
    """Per pointer value counts, frequencies and z-scores from per-cell counts."""
    expected: dict[float, float] = {}
    observed: dict[float, int] = {}
    for p, (_, q), n in zip(table.weights, table.outcomes, counts):
        expected[q] = expected.get(q, 0.0) + p
        observed[q] = observed.get(q, 0) + int(n)
    stats = []
    chi_square = 0.0
    for v in sorted(expected, reverse=True):
        p, count = expected[v], observed[v]
        freq = count / trials
        chi_square += (count - trials * p) ** 2 / (trials * p)
        spread = p * (1.0 - p) / trials
        z = (freq - p) / np.sqrt(spread) if spread > 0.0 else 0.0
        stats.append(OutcomeStat(float(v), count, freq, p, float(z)))
    dof = len(stats) - 1
    if dof < 1:
        return FrequencyReport(tuple(stats), trials, 0.0, 1.0, True)
    p_value = float(chi2_dist.sf(chi_square, dof))
    return FrequencyReport(tuple(stats), trials, float(chi_square), p_value, False)


def compare_streams(s1: OutcomeStream, s2: OutcomeStream) -> StreamComparison:
    """Two-sample chi-square test on the outcome counts of two streams, at level 0.01."""
    if s1.trials == 0 or s2.trials == 0:
        raise ValidationError("streams must be nonempty")
    values = sorted(set(np.unique(s1.q_values)) | set(np.unique(s2.q_values)), reverse=True)
    counts = np.zeros((2, len(values)))
    for row, stream in enumerate((s1, s2)):
        for k, v in enumerate(values):
            counts[row, k] = np.sum(stream.q_values == v)
    col_totals = counts.sum(axis=0)
    row_totals = counts.sum(axis=1)
    total = counts.sum()
    dof = len(values) - 1
    if dof < 1:
        return StreamComparison(0.0, 1.0, "indistinguishable")
    expected = np.outer(row_totals, col_totals) / total
    chi_square = float(((counts - expected) ** 2 / expected).sum())
    p_value = float(chi2_dist.sf(chi_square, dof))
    verdict = "indistinguishable" if p_value >= 0.01 else "distinct"
    return StreamComparison(chi_square, p_value, verdict)

