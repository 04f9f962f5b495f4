"""Eigenvalue distributions, overlap measures, purity rate, Born probabilities.

Two overlap conventions are computed side by side everywhere. The square-root
product form (Bhattacharyya coefficient) and the minimum-overlap form (the
complement of total-variation distance) agree at 0 and 1 but differ in
between; for the canonical chain scenarios the quoted reference values match
the minimum-overlap form, so that one is the reported default and the
square-root form is always carried along for comparison.

Fixed observables are diagonalized once: `eigen_distribution` reads the
eigenvector blocks an observable keeps after its first use, and the
transverse spins of `phase_averaged_purity_information` come from one cached
grid per grid size, so repeated calls repeat no `eigh`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .chain import MSState, pointer_branch_amplitudes
from .errors import UsageError, ValidationError
from .linalg import (
    GROUP_TOL_ABS,
    GROUP_TOL_REL,
    HermitianObservable,
    PAULI_X,
    PAULI_Y,
    as_complex_array,
)


@dataclass(frozen=True)
class EigenDistribution:
    """Probability of each grouped eigenvalue for one (state, observable) pair."""

    entries: tuple[tuple[float, float], ...]
    source: tuple[str, str] = ("", "")

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


def eigen_distribution(state, obs, source: tuple[str, str] = ("", "")) -> EigenDistribution:
    """w(lambda_i) over the grouped spectrum, for a vector or density matrix."""
    observable = _as_observable(obs)
    arr = state.vector if isinstance(state, MSState) else as_complex_array(state)
    if arr.shape[0] != observable.dim:
        raise UsageError(
            f"state dim {arr.shape[0]} does not match observable dim {observable.dim}"
        )
    entries = []
    for value, block, block_h in observable.blocks:
        if arr.ndim == 1:
            amps = block_h @ arr
            p = float(np.real(np.vdot(amps, amps)))
        else:
            p = float(np.real(np.trace(block_h @ arr @ block)))
        entries.append((value, max(p, 0.0)))
    entries.sort(key=lambda e: e[0])
    return EigenDistribution(tuple(entries), source)


def _aligned_probabilities(w1: EigenDistribution, w2: EigenDistribution):
    """Pair up the two distributions on the union of their eigenvalue grids."""
    values = sorted({v for v, _ in w1.entries} | {v for v, _ in w2.entries})
    scale = max((abs(v) for v in values), default=0.0)
    tol = max(GROUP_TOL_REL * scale, GROUP_TOL_ABS)
    merged: list[float] = []
    for v in values:
        if not merged or v - merged[-1] > tol:
            merged.append(v)
    p1 = np.zeros(len(merged))
    p2 = np.zeros(len(merged))
    for probs, dist in ((p1, w1), (p2, w2)):
        for v, p in dist.entries:
            k = min(range(len(merged)), key=lambda i: abs(v - merged[i]))
            probs[k] += p
    return p1, p2


def overlap_tv(w1: EigenDistribution, w2: EigenDistribution) -> float:
    """Minimum overlap sum_i min(w1, w2): one minus the total-variation distance."""
    p1, p2 = _aligned_probabilities(w1, w2)
    return float(np.minimum(p1, p2).sum())


def overlap_bc(w1: EigenDistribution, w2: EigenDistribution) -> float:
    """Bhattacharyya coefficient sum_i sqrt(w1 * w2)."""
    p1, p2 = _aligned_probabilities(w1, w2)
    return float(np.sqrt(p1 * p2).sum())


def purity_information(k_tv: float) -> float:
    """Bits of purity information left by an overlap value: 1 - k_tv."""
    if not -1e-12 <= k_tv <= 1.0 + 1e-12:
        raise ValidationError(f"overlap {k_tv!r} outside [0, 1]")
    return 1.0 - min(max(k_tv, 0.0), 1.0)


def transverse_spin(gamma: float) -> HermitianObservable:
    """The phase-tuned transverse spin observable cos(gamma) Sx + sin(gamma) Sy."""
    matrix = np.cos(gamma) * PAULI_X / 2.0 + np.sin(gamma) * PAULI_Y / 2.0
    return HermitianObservable(matrix, "S")


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


# bounded, so a caller sweeping many grid sizes does not keep every grid alive
@functools.lru_cache(maxsize=8)
def _transverse_spin_grid(n_grid: int) -> tuple[HermitianObservable, ...]:
    """The transverse spins on a uniform phase grid, spectra computed up front."""
    grid = tuple(transverse_spin(gamma)
                 for gamma in np.linspace(0.0, 2.0 * np.pi, n_grid, endpoint=False))
    for obs in grid:
        obs.blocks  # computes and keeps each eigenvector block
    return grid


def phase_averaged_purity_information(pure_rho, mixed_rho, n_grid: int = 36) -> float:
    """Average purity information over a uniform grid of transverse phases.

    This is a package-defined estimate for the case where the tuning phase is
    unknown: the mean of 1 - k_tv under the gamma family of observables.
    """
    total = 0.0
    for obs in _transverse_spin_grid(n_grid):
        w_pure = eigen_distribution(pure_rho, obs)
        w_mixed = eigen_distribution(mixed_rho, obs)
        total += purity_information(overlap_tv(w_pure, w_mixed))
    return total / n_grid


def born_probabilities(state: MSState) -> tuple[float, float]:
    """Squared moduli of the pointer branch coefficients of a chain state."""
    a1, a2 = pointer_branch_amplitudes(state)
    return abs(a1) ** 2, abs(a2) ** 2
