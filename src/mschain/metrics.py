"""Eigenvalue distributions, overlap measures and the purity rate.

Two overlap conventions are computed side by side everywhere. The square-root
product form (Bhattacharyya coefficient) and the minimum-overlap form (the
complement of total-variation distance) agree at 0 and 1 but differ in
between; for the canonical chain scenarios the quoted reference values match
the minimum-overlap form, so that one is the reported default and the
square-root form is always carried along for comparison.

Fixed observables are diagonalized once: `eigen_distribution` reads the
eigenvector blocks an observable keeps after its first use, in ascending
value order. Every two-value overlap runs on one kernel, `_stacked_overlaps`:
the observables' blocks stacked as arrays, one `BH @ rho @ B` product for all
their probabilities, bit for bit the products of the per-call
`eigen_distribution` loop, and that loop's checks run on the whole stack.
When a check fails, the loop itself, `_pair_overlaps_by_call`, runs instead
and raises its first error. `_pair_overlaps` gives each observable its own
pure and mixed density; `phase_averaged_purity_information` runs one pair
under the cached grid of N_PHASES transverse spins and adds the per-phase
terms in grid order, so the average keeps its last bit too.

A public function checks a state it is handed once, on entry: finite
entries, then shape.
"""

from __future__ import annotations

import functools
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

# Points of the uniform transverse-phase grid that the phase average runs over.
N_PHASES = 36


@dataclass(frozen=True)
class EigenDistribution:
    """Probability of each grouped eigenvalue for one (state, observable) pair."""

    entries: tuple[tuple[float, float], ...]

    def __post_init__(self):
        values = [v for v, _ in self.entries]
        if any(b <= a for a, b in zip(values, values[1:])):
            raise ValidationError("eigenvalues must be strictly increasing")
        probs = [float(p) for _, p in self.entries]
        if any(p < -1e-10 or p > 1 + 1e-10 for p in probs):
            raise ValidationError("probabilities must lie in [0, 1]")
        total = sum(probs, 0.0)
        if abs(total - 1.0) > 1e-10:
            raise ValidationError(f"probabilities sum to {total!r}, not 1")

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
    if not -1e-12 <= k_tv <= 1.0 + 1e-12:
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
    off = complex(arr[0, 1])
    magnitude = abs(off)
    gamma_star = float(-np.angle(off)) if magnitude > 0.0 else 0.0
    return PurityReport(2.0 * magnitude, gamma_star, magnitude)


def _two_value_blocks(observables) -> tuple[np.ndarray, np.ndarray]:
    """The eigenvector blocks of two-dim, two-value observables, stacked for
    `_stacked_overlaps`: B of shape (n, 1, 2, 2, 1) and B^H of shape (n, 1, 2, 1, 2),
    each observable's two values in `HermitianObservable.blocks`' ascending order.

    Raises UsageError for an observable that is not two-dim with two values.
    """
    blocks = []
    for obs in observables:
        observable = _as_observable(obs)
        if observable.dim != 2 or len(observable.blocks) != 2:
            raise UsageError("stacked overlaps need two-dim observables with two values")
        blocks.append(observable.blocks)
    b = np.array([[block for _, block, _ in pair] for pair in blocks])[:, None]
    b_h = np.array([[block_h for _, _, block_h in pair] for pair in blocks])[:, None]
    return b, b_h


def _stacked_overlaps(b, b_h, densities, shape) -> list[tuple[float, float, float]] | None:
    """(overlap_min, overlap_sqrt, purity information bits) of each stacked
    observable on its pure and mixed density, or None when a check fails.

    `densities` converts in one `as_complex_array` call and must have `shape`:
    (n, 2, 2, 2) for one (pure, mixed) pair per observable, or (2, 2, 2) for
    one pair shared by all. One `BH @ rho @ B` product then gives every
    probability. Slice by slice it dispatches to the kernel and shapes of
    `eigen_distribution`'s `block_h @ arr @ block`, and the two-term sums are
    those of `overlap_tv` and `overlap_bc`, so every value has the bits of
    `_pair_overlaps_by_call`. The checks of that loop run on the whole stack:
    finite densities, each probability in [0, 1] and each pair summing to 1
    within 1e-10, each overlap at most 1 + 1e-12 (it is a sum of clipped, so
    nonnegative, probabilities).
    """
    try:
        rho = as_complex_array(densities)
    except ValidationError:
        return None
    if rho.shape != shape:
        return None
    # p[k, s, v]: value v of observable k on its pure (s = 0) or mixed (s = 1) density
    p = np.maximum(np.real((b_h @ rho[..., None, :, :] @ b)[..., 0, 0]), 0.0)
    k_tv = np.minimum(p[:, 0], p[:, 1]).sum(axis=-1)
    if not (p.max() <= 1 + 1e-10 and np.abs(p.sum(axis=-1) - 1.0).max() <= 1e-10
            and k_tv.max() <= 1.0 + 1e-12):
        return None
    k_bc = np.sqrt(p[:, 0] * p[:, 1]).sum(axis=-1)
    bits = 1.0 - np.minimum(k_tv, 1.0)
    return list(zip(k_tv.tolist(), k_bc.tolist(), bits.tolist()))


def _pair_overlaps(pairs) -> list[tuple[float, float, float]]:
    """(overlap_min, overlap_sqrt, purity information bits) of each (observable,
    pure density, mixed density) triple, for observables with two values and
    (2, 2) density matrices, from one `_stacked_overlaps` product.

    When a check of that product fails, `_pair_overlaps_by_call` runs instead
    and raises the loop's first error. Raises UsageError for an observable
    that is not two-dim with two values.
    """
    b, b_h = _two_value_blocks(obs for obs, _, _ in pairs)
    densities = [(pure, mixed) for _, pure, mixed in pairs]
    out = _stacked_overlaps(b, b_h, densities, (len(pairs), 2, 2, 2))
    return _pair_overlaps_by_call(pairs) if out is None else out


def _pair_overlaps_by_call(pairs) -> list[tuple[float, float, float]]:
    """`_pair_overlaps` as one `eigen_distribution` per state, for any observables and states."""
    out = []
    for obs, pure, mixed in pairs:
        w_pure, w_mixed = eigen_distribution(pure, obs), eigen_distribution(mixed, obs)
        k_tv = overlap_tv(w_pure, w_mixed)
        out.append((k_tv, overlap_bc(w_pure, w_mixed), purity_information(k_tv)))
    return out


@functools.cache
def _transverse_spin_grid() -> tuple[tuple[HermitianObservable, ...], np.ndarray, np.ndarray]:
    """The transverse spins on the uniform phase grid, with their stacked blocks."""
    spins = tuple(transverse_spin(gamma)
                  for gamma in np.linspace(0.0, 2.0 * np.pi, N_PHASES, endpoint=False))
    return (spins, *_two_value_blocks(spins))


def phase_averaged_purity_information(pure_rho, mixed_rho) -> float:
    """Average purity information over the N_PHASES-point grid of transverse phases.

    This is a package-defined estimate for the case where the tuning phase is
    unknown: the mean of 1 - k_tv under the gamma family of observables. It
    equals, bit for bit, the loop of `purity_information(overlap_tv(...))`
    over the per-phase `eigen_distribution` pairs, and raises the same errors.
    """
    spins, b, b_h = _transverse_spin_grid()
    out = _stacked_overlaps(b, b_h, (pure_rho, mixed_rho), (2, 2, 2))
    if out is None:
        out = _pair_overlaps_by_call([(spin, pure_rho, mixed_rho) for spin in spins])
    total = 0.0
    # each phase's purity_information, added in grid order: np.sum would pair
    # the terms, and sum() compensates on Python 3.12
    for _, _, bits in out:
        total += bits
    return total / N_PHASES
