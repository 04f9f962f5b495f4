"""Eigenvalue distributions, overlap measures and the purity rate.

Two overlap conventions are computed side by side everywhere. The square-root
product form (Bhattacharyya coefficient) and the minimum-overlap form (the
complement of total-variation distance) agree at 0 and 1 but differ in
between; for the canonical chain scenarios the quoted reference values match
the minimum-overlap form, so that one is the reported default and the
square-root form is always carried along for comparison.

`eigen_distribution` reads the eigenvector blocks an observable keeps after
its first use, in ascending value order, at any dimension. A qubit's
two-value observable a0 + b n.sigma (b > 0, unit axis n) needs none: on a
density of trace t and Bloch vector r its lower value has probability
(t - n.r) / 2 and its upper one (t + n.r) / 2 (Nielsen and Chuang, 4.2).
A two-dim state enters once, as the Bloch tuple (t, x, y, z) of Python floats
that `_bloch` reads off its entries, and one kernel, `_bloch_overlaps`, maps
a sequence of axes and two tuples to both overlaps and the purity bits per
axis, with the checks of `EigenDistribution` and `purity_information`, so no
BLAS, LAPACK or SIMD rounding reaches them. `_pair_overlaps`,
`phase_averaged_purity_information` and `purity_report` check and convert
their input once, then apply the kernel or formula the overlap report
applies to the tuples it builds itself. The report's 8-dim interference term,
sigma x on the span of the chain's two branch products, is one more such pair.

A public function checks a state it is handed once, on entry: finite
entries, then shape.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import MSState
from .errors import UsageError, ValidationError
from .linalg import (
    HermitianObservable,
    PAULI_X,
    PAULI_Y,
    as_complex_array,
)

# Points of the uniform transverse-phase grid that the phase average runs over,
# and the axes (cos gamma, sin gamma, 0) of the transverse spins on it.
N_PHASES = 36
_PHASE_AXES = tuple((math.cos(k * (2.0 * math.pi / N_PHASES)),
                     math.sin(k * (2.0 * math.pi / N_PHASES)), 0.0) for k in range(N_PHASES))


# Slack on a distribution's probabilities: each in [0, 1] and their sum 1, within it.
PROBABILITY_TOL = 1e-10
# Slack on an overlap value handed to `purity_information`: in [0, 1] within it.
OVERLAP_RANGE_TOL = 1e-12


def _check_probabilities(probs) -> None:
    """Raise ValidationError unless the probabilities lie in [0, 1] and sum to 1.

    Both hold within PROBABILITY_TOL; each check is written so that a NaN fails it.
    """
    for p in probs:  # a loop, not any(...): no generator on this per-distribution path
        if not -PROBABILITY_TOL <= p <= 1 + PROBABILITY_TOL:
            raise ValidationError("probabilities must lie in [0, 1]")
    total = sum(probs, 0.0)
    if not abs(total - 1.0) <= PROBABILITY_TOL:
        raise ValidationError(f"probabilities sum to {total!r}, not 1")


@dataclass(frozen=True)
class EigenDistribution:
    """Probability of each grouped eigenvalue for one (state, observable) pair."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        values = [v for v, _ in self.entries]
        if not all(a < b for a, b in zip(values, values[1:])):  # a NaN fails it
            raise ValidationError("eigenvalues must be strictly increasing")
        _check_probabilities([float(p) for _, p in self.entries])

    @property
    def probabilities(self) -> dict[float, float]:
        return {v: p for v, p in self.entries}


@dataclass(frozen=True)
class PurityReport:
    """Maximal phase-tuned transverse spin response of a two-dim state."""

    r_p: float
    gamma_star: float
    s_gamma_expect: float


def _as_observable(obs) -> HermitianObservable:
    return obs if isinstance(obs, HermitianObservable) else HermitianObservable(obs)


def _state_array(state, dim: int) -> np.ndarray:
    """The vector or density of a state, checked for an observable of dimension `dim`."""
    arr = state.vector if isinstance(state, MSState) else as_complex_array(state)
    if arr.ndim and arr.shape[0] != dim:
        raise UsageError(f"state dim {arr.shape[0]} does not match observable dim {dim}")
    if arr.shape not in ((dim,), (dim, dim)):
        raise UsageError(f"state shape {arr.shape} is neither a vector nor a square density")
    return arr


def eigen_distribution(state, obs) -> EigenDistribution:
    """w(lambda_i) over the grouped spectrum, for a vector or density matrix."""
    observable = _as_observable(obs)
    arr = _state_array(state, observable.dim)
    entries = []
    for value, block, block_h in observable.blocks:
        if arr.ndim == 1:
            amps = block_h @ arr
            p = float(np.real(np.vdot(amps, amps)))
        else:
            p = float(np.real(np.trace(block_h @ arr @ block)))
        entries.append((value, max(p, 0.0)))
    return EigenDistribution(tuple(entries))


def _paired_probabilities(w1: EigenDistribution, w2: EigenDistribution):
    """The probabilities of two distributions of one observable, slot by slot."""
    if [v for v, _ in w1.entries] != [v for v, _ in w2.entries]:
        raise UsageError("an overlap compares two distributions of one observable; "
                         "their eigenvalues differ")
    return np.array([p for _, p in w1.entries]), np.array([p for _, p in w2.entries])


def overlap_tv(w1: EigenDistribution, w2: EigenDistribution) -> float:
    """Minimum overlap sum_i min(w1, w2): one minus the total-variation distance."""
    p1, p2 = _paired_probabilities(w1, w2)
    return float(np.minimum(p1, p2).sum())


def overlap_bc(w1: EigenDistribution, w2: EigenDistribution) -> float:
    """Bhattacharyya coefficient sum_i sqrt(w1 * w2)."""
    p1, p2 = _paired_probabilities(w1, w2)
    return float(np.sqrt(p1 * p2).sum())


def purity_information(k_tv: float) -> float:
    """Bits of purity information left by an overlap value: 1 - k_tv."""
    if not -OVERLAP_RANGE_TOL <= k_tv <= 1.0 + OVERLAP_RANGE_TOL:
        raise ValidationError(f"overlap {k_tv!r} outside [0, 1]")
    return 1.0 - min(max(k_tv, 0.0), 1.0)


def transverse_spin(gamma: float) -> HermitianObservable:
    """The phase-tuned transverse spin observable cos(gamma) Sx + sin(gamma) Sy."""
    matrix = np.cos(gamma) * PAULI_X / 2.0 + np.sin(gamma) * PAULI_Y / 2.0
    return HermitianObservable(matrix)


def purity_report(rho) -> PurityReport:
    """Purity rate of a two-dim state: twice the best transverse spin response.

    The expectation of the gamma-tuned transverse spin is Re(rho_12 e^{i gamma}),
    so the maximum over gamma is |rho_12|, reached at gamma = -arg(rho_12).
    """
    arr = as_complex_array(rho)
    if arr.ndim == 1:
        if arr.shape != (2,):
            raise UsageError("purity rate is defined for two-dim states")
        arr = np.outer(arr, arr.conj())
    if arr.shape != (2, 2):
        raise UsageError("purity rate is defined for two-dim states")
    return _purity_report(complex(arr[0, 1]))


def _purity_report(off: complex) -> PurityReport:
    """`purity_report` of a two-dim state whose coherence rho01 is `off`."""
    magnitude = abs(off)
    gamma_star = float(-np.angle(off)) if magnitude > 0.0 else 0.0
    return PurityReport(2.0 * magnitude, gamma_star, magnitude)


def _qubit_density(vector, dims=(2,), keep: int = 0) -> list[list[complex]]:
    """The 2x2 density of the two-dim factor at position `keep` of the pure state
    `vector` over factors `dims`: sum_k v_k v_k^H over the amplitude pairs v_k,
    one per index k of the traced factors, in Python complex arithmetic with the
    terms added in index order, so no BLAS or SIMD rounding reaches it."""
    tensor = np.moveaxis(np.asarray(vector, dtype=complex).reshape(dims), keep, 0)
    v0, *rest = tensor.reshape(2, -1).T.tolist()
    rho = [[a * b.conjugate() for b in v0] for a in v0]
    for v in rest:
        rho = [[r + a * b.conjugate() for r, b in zip(row, v)] for row, a in zip(rho, v)]
    return rho


def _bloch(rho) -> tuple[float, float, float, float]:
    """(t, x, y, z) of a 2x2 density given as nested lists of its entries, Python
    complex numbers or floats: t = Re(rho00 + rho11), x = Re(rho01 + rho10),
    y = Im(rho10 - rho01), z = Re(rho00 - rho11), so that Re tr(P rho) =
    (t + n.(x, y, z)) / 2 for the projector P = (1 + n.sigma) / 2 on any unit axis n."""
    (r00, r01), (r10, r11) = rho
    return (r00.real + r11.real, r01.real + r10.real, r10.imag - r01.imag,
            r00.real - r11.real)


def _two_value_axis(obs) -> tuple[float, float, float]:
    """The unit axis n of a two-dim observable a0 + b n.sigma with b > 0, from its
    entries; UsageError unless `HermitianObservable.blocks` finds two values."""
    observable = _as_observable(obs)
    if observable.dim != 2 or len(observable.blocks) != 2:
        raise UsageError("two-value overlaps need two-dim observables with two values")
    _, x, y, z = _bloch(observable.matrix.tolist())
    norm = math.sqrt(x * x + y * y + z * z)
    return (x / norm, y / norm, z / norm)


def _tuned_axis(off: complex) -> tuple[float, float, float]:
    """The axis of the transverse spin tuned to a coherence rho01 = off, at
    `purity_report`'s gamma_star = -arg(off); the x axis when off is 0."""
    magnitude = abs(off)
    if magnitude == 0.0:
        return (1.0, 0.0, 0.0)
    return (off.real / magnitude, -off.imag / magnitude, 0.0)


def _two_value_probabilities(axis, bloch) -> tuple[float, float]:
    """The lower and upper value's probabilities ((t - n.r) / 2, (t + n.r) / 2)
    under the observable of unit `axis` n, from a `_bloch` tuple, clipped at 0
    and checked as `EigenDistribution` checks them."""
    nx, ny, nz = axis
    t, x, y, z = bloch
    nr = nx * x + ny * y + nz * z
    p = (max((t - nr) / 2.0, 0.0), max((t + nr) / 2.0, 0.0))
    _check_probabilities(p)
    return p


def _bloch_overlaps(axes, pure, mixed) -> list[tuple[float, float, float]]:
    """(overlap_min, overlap_sqrt, purity information bits) of two `_bloch` tuples
    under the observable of each unit axis: the overlaps add the two states'
    `_two_value_probabilities`, the pure state's first, as `overlap_tv` and
    `overlap_bc` do, and the bits are `purity_information`'s."""
    out = []
    for axis in axes:
        p0, p1 = _two_value_probabilities(axis, pure)
        q0, q1 = _two_value_probabilities(axis, mixed)
        k_tv = min(p0, q0) + min(p1, q1)
        out.append((k_tv, math.sqrt(p0 * q0) + math.sqrt(p1 * q1), purity_information(k_tv)))
    return out


def _pair_overlaps(axes, pure, mixed) -> list[tuple[float, float, float]]:
    """`_bloch_overlaps` of two two-dim states, vectors v (of |v><v|) or densities,
    under each axis; each state is checked once, as `eigen_distribution` checks it."""
    arrays = _state_array(pure, 2), _state_array(mixed, 2)
    return _bloch_overlaps(axes, *(_bloch(_qubit_density(a) if a.ndim == 1 else a.tolist())
                                   for a in arrays))


def _phase_average(overlaps) -> float:
    """The mean purity bits of the N_PHASES `_bloch_overlaps` triples on the
    phase grid `_PHASE_AXES`, their terms added by `math.fsum`."""
    return math.fsum(bits for _, _, bits in overlaps) / N_PHASES


def phase_averaged_purity_information(pure_rho, mixed_rho) -> float:
    """Average purity information over the N_PHASES-point grid of transverse phases.

    This is a package-defined estimate for the case where the tuning phase is
    unknown: the mean of 1 - k_tv under the gamma family of observables, its
    terms added by `math.fsum`. It raises what the per-phase loop of
    `eigen_distribution` raises.
    """
    return _phase_average(_pair_overlaps(_PHASE_AXES, pure_rho, mixed_rho))
