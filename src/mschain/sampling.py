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
agree draw for draw. The edges are one tuple of floats: a single event
bisects it, a stream `np.searchsorted`s it, and `born_report` turns each edge
into the integer limit of its SplitMix64 outputs. Draws being order-free,
`born_report` counts `CHUNK` trials at a time, in memory that does not grow
with the trial count: one in-place SplitMix64 finalizer, shared with
`trial_uniforms`, fills reused buffers with the 64-bit outputs, and each
cell's count is read off a chunk as the number of outputs at or above the
integer limit of its edge, which are exactly the draws at or above the edge,
so no draw is ever turned into a float or labelled with its cell.
`trial_uniform` computes the same draw on Python ints.
"""

from __future__ import annotations

import bisect
import math
import operator
from dataclasses import dataclass

import numpy as np
from scipy.stats import chi2 as chi2_dist

from .chain import (
    BornTable,
    Gemenge,
    InformationPattern,
    MSState,
    Scenario,
    full_chain,
    scenario_digest,
)
from .errors import CapacityError, ValidationError

# SplitMix64: golden-ratio increment and the two finalizer multipliers.
SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
SPLITMIX_MULT_1 = 0xBF58476D1CE4E5B9
SPLITMIX_MULT_2 = 0x94D049BB133111EB
_U64 = np.uint64
_MASK = 2**64 - 1

# Trials per counting step of `born_report`; its memory is O(CHUNK).
CHUNK = 2**16
# Largest trial count a run may ask for: about 5 s of chunked counting
# (0.46 s CPU per 10**8 trials on a 2-vCPU Xeon).
MAX_TRIALS = 10**9
# Largest stream `run_trials` may hold. A stream peaks at about 32 B per trial
# (the draws, the cell indices and the two stream arrays; tracemalloc reads
# 32.0 MB at 10**6 trials), so this cap bounds it near 320 MB.
MAX_STREAM_TRIALS = 10**7


def _splitmix_finalize(z: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer of the counter words `z`, in place.

    Overwrites `z` and `scratch` (same shape and dtype uint64) and returns
    `z`. Working in place lets `born_report` reuse one set of buffers for
    every chunk. `_splitmix64` is its scalar form.
    """
    # array arithmetic on uint64 wraps mod 2**64 silently, as SplitMix64 needs
    z ^= np.right_shift(z, _U64(30), out=scratch)
    z *= _U64(SPLITMIX_MULT_1)
    z ^= np.right_shift(z, _U64(27), out=scratch)
    z *= _U64(SPLITMIX_MULT_2)
    z ^= np.right_shift(z, _U64(31), out=scratch)
    return z


def _splitmix64(seed: int, index: int) -> int:
    """Output `index` of the SplitMix64 stream seeded with `seed`, on Python ints.

    The scalar form of `_splitmix_finalize` on the counter word
    seed + (index+1)*gamma mod 2**64. Like the array form, it accepts the
    indices 0 <= index < 2**64 and raises OverflowError on any other.
    """
    if not 0 <= index < 2**64:
        raise OverflowError(f"trial index {index} out of bounds for uint64")
    z = (seed + (index + 1) * SPLITMIX_GAMMA) & _MASK
    z = ((z ^ (z >> 30)) * SPLITMIX_MULT_1) & _MASK
    z = ((z ^ (z >> 27)) * SPLITMIX_MULT_2) & _MASK
    return z ^ (z >> 31)


def trial_uniforms(seed: int, indices) -> np.ndarray:
    """Uniform [0, 1) draws for the given trial indices under one seed.

    Draw k is output k of the SplitMix64 stream seeded with `seed`:
    the finalizer applied to seed + (k+1)*gamma, keeping the top 53 bits.
    Each draw is a pure function of (seed, k), so streams are reproducible
    independent of evaluation order or parallelism.
    """
    z = np.array(indices, dtype=np.uint64)
    z += _U64(1)
    z *= _U64(SPLITMIX_GAMMA)
    z += _U64(seed % 2**64)
    _splitmix_finalize(z, np.empty_like(z))
    z >>= _U64(11)
    return np.multiply(z, 2.0**-53)


def trial_uniform(seed: int, index: int) -> float:
    """`trial_uniforms(seed, [index])[0]`, computed on Python ints."""
    return (_splitmix64(operator.index(seed), operator.index(index)) >> 11) * 2.0**-53


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
    """The (branch, pattern) of the cell of `rng_draw`: the number of edges at or below it.

    For float edges `bisect_right` gives `np.searchsorted(..., side="right")`'s
    cell, and a NaN draw lands in the last cell under both.
    """
    table = model.born_table
    cell = bisect.bisect_right(table.edges, rng_draw)
    return table.outcomes[cell][0], table.patterns[cell]


def stochastic_restriction(state: MSState, rng_draw: float) -> InformationPattern:
    """One-event restriction of a chain state to a recognized pointer outcome.

    Returns the first pointer eigenvalue when the draw falls below the first
    branch weight, the second otherwise.
    """
    return _draw(state, rng_draw)[1]


def sample_gemenge(w: Gemenge, rng_draw: float) -> tuple[int, InformationPattern]:
    """Sample one branch by cumulative probability; its restriction is deterministic."""
    return _draw(w, rng_draw)


def _require_trials_within_cap(trials: int, cap: int) -> None:
    if trials > cap:
        raise CapacityError(f"trials {trials} exceeds the cap of {cap}")


def run_trials(scenario: Scenario) -> tuple[OutcomeStream, FrequencyReport]:
    """Build the chain once, then sample `scenario.trials` outcomes as a stream.

    The stream holds every trial in memory, so its length is capped at
    MAX_STREAM_TRIALS; `born_report` gives the same report in memory
    independent of the trial count, up to MAX_TRIALS.
    """
    _require_trials_within_cap(scenario.trials, MAX_STREAM_TRIALS)
    table = full_chain(scenario).born_table
    draws = trial_uniforms(scenario.seed, np.arange(scenario.trials))
    chosen = np.searchsorted(table.edges, draws, side="right")
    branches = np.array([b for b, _ in table.outcomes], dtype=np.int64)[chosen]
    q_values = np.array([q for _, q in table.outcomes])[chosen]
    stream = OutcomeStream(scenario.seed, q_values, branches, scenario_digest(scenario))
    counts = np.bincount(chosen, minlength=len(table.weights))
    return stream, _frequency_report(table, counts, scenario.trials)


def _draw_limit(edge: float) -> int:
    """The least SplitMix64 output whose draw is at or above `edge`.

    A draw is u = (z >> 11) * 2**-53, and u >= edge exactly when
    z >= ceil(edge * 2**53) << 11 (scaling by 2**53 is exact). The edge is
    first clipped into [0, 1], which no draw's side of it changes: an edge at
    or below 0 gives 0, which every output reaches, and one at or above 1
    gives 2**64, which none does.
    """
    return math.ceil(min(max(edge, 0.0), 1.0) * 2.0**53) << 11


def born_report(model: MSState | Gemenge, scenario: Scenario) -> FrequencyReport:
    """The frequency report of `run_trials` on the chain `model` of `scenario`.

    Counted CHUNK trials at a time in min(CHUNK, trials)-long buffers, and no
    draw is labelled with its cell: a draw lands in cell j or above (0 < j < n)
    exactly when it is at or above the inner edge edges[j - 1], which is
    exactly when its SplitMix64 output is at or above that edge's
    `_draw_limit`. Each chunk adds those tail counts on the integer outputs,
    never forming a float draw, and cell j's count is tail[j] - tail[j + 1],
    with tail[0] = trials and tail[n] = 0.
    """
    _require_trials_within_cap(scenario.trials, MAX_TRIALS)
    table = model.born_table
    tail = np.zeros(len(table.weights) + 1, dtype=np.int64)
    tail[0] = scenario.trials
    # an edge at or above 1 has the limit 2**64, and its tail count stays 0
    limits = [(j, _U64(limit)) for j, limit in enumerate(map(_draw_limit, table.edges), start=1)
              if limit < 2**64]
    if not limits:  # every draw lands in cell 0, so none needs computing
        return _frequency_report(table, tail[:-1] - tail[1:], scenario.trials)
    buffer = min(CHUNK, scenario.trials)
    # counter word of trial start + i is (i + 1) * gamma + start * gamma + seed
    steps = np.arange(1, buffer + 1, dtype=np.uint64)
    steps *= _U64(SPLITMIX_GAMMA)
    z, scratch = np.empty(buffer, np.uint64), np.empty(buffer, np.uint64)
    at_or_above = np.empty(buffer, dtype=bool)
    for start in range(0, scenario.trials, CHUNK):
        size = min(CHUNK, scenario.trials - start)
        offset = _U64((start * SPLITMIX_GAMMA + scenario.seed) & _MASK)
        outputs = _splitmix_finalize(np.add(steps[:size], offset, out=z[:size]), scratch[:size])
        for j, limit in limits:
            tail[j] += np.count_nonzero(np.greater_equal(outputs, limit, out=at_or_above[:size]))
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
        z = (freq - p) / math.sqrt(spread) if spread > 0.0 else 0.0
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

