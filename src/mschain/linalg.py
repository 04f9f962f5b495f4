"""Dense complex linear algebra kernel for small labeled tensor-product spaces.

Everything here works on plain numpy arrays: state vectors are 1-d complex
arrays with unit norm, operators are square complex matrices. The chain
itself has 8 dimensions; with environment elements a state grows up to the
4096-dimension cap, `MAX_DIM`, which bounds every dimension the package
builds. At that size a dense |psi><psi| takes 256 MiB, so package code
reduces a pure state from its vector (`chain.MSState.reduced`) and a gemenge
from its branch vectors, never from a density; `partial_trace` is the dense
reference, for foreign densities. Otherwise clarity beats cleverness
throughout: dense row-major storage, no sparsity, spectral methods
everywhere.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, UsageError, ValidationError

# Hard cap on any composite Hilbert-space dimension built by this package.
MAX_DIM = 4096

NORM_TOL = 1e-10
HERM_TOL = 1e-10
# Eigenvalue grouping: relative to the spectral radius, with an absolute floor.
GROUP_TOL_REL = 1e-9
GROUP_TOL_ABS = 1e-12


def as_complex_array(a) -> np.ndarray:
    """`a` as a complex array; a non-numeric, ragged, oversized or non-finite entry
    raises ValidationError. A numeric string such as "1" converts as numpy converts it."""
    try:
        arr = np.asarray(a, dtype=complex)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"entries must be numbers: {exc}") from None
    if not np.isfinite(arr).all():  # a complex entry is finite when both parts are
        raise ValidationError("entries must be finite (no NaN/Inf)")
    return arr


def _vector_array(v) -> np.ndarray:
    """`v` as a complex array, checked for finite entries and a nonempty 1-d shape."""
    vec = as_complex_array(v)
    if vec.ndim != 1 or vec.size == 0:
        raise ValidationError("state vector must be a nonempty 1-d array")
    return vec


def validate_state_vector(v) -> np.ndarray:
    """Check unit norm within NORM_TOL and return the vector as a complex array."""
    vec = _vector_array(v)
    norm_sq = float(np.vdot(vec, vec).real)
    if not abs(norm_sq - 1.0) <= NORM_TOL:
        raise ValidationError(
            f"state vector squared norm {norm_sq!r} deviates from 1 by more than {NORM_TOL}"
        )
    return vec


def hermitian_part(m: np.ndarray) -> np.ndarray:
    """(m + m^dagger) / 2, of one matrix or of each in a stack."""
    return (m + m.conj().swapaxes(-1, -2)) / 2


def require_hermitian(m) -> np.ndarray:
    mat = as_complex_array(m)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValidationError("operator must be a square matrix")
    if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL:
        raise ValidationError("operator is not Hermitian within tolerance")
    return mat


def pure_density(v) -> np.ndarray:
    """|v><v| for a 1-d state vector, checked for finite entries and shape."""
    vec = _vector_array(v)
    return np.outer(vec, vec.conj())


@dataclass(frozen=True)
class TensorLayout:
    """Ordered labeling of the tensor factors of a composite space.

    Each factor is a (label, dim) pair; labels are unique and the product of
    dims is the total dimension of any state the layout describes.
    """

    factors: tuple[tuple[str, int], ...]

    def __post_init__(self):
        labels = [lab for lab, _ in self.factors]
        if len(set(labels)) != len(labels):
            raise ValidationError(f"duplicate factor labels in layout: {labels}")
        for _, d in self.factors:
            # a float or bool dim would build a layout whose reductions fail with a bare TypeError
            if type(d) is not int and not isinstance(d, np.integer):
                raise ValidationError(f"factor dimensions must be integers, got {self.dims}")
            if d < 1:
                raise ValidationError("factor dimensions must be positive")

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.factors)

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(d for _, d in self.factors)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def position(self, label: str) -> int:
        for i, (lab, _) in enumerate(self.factors):
            if lab == label:
                return i
        raise UsageError(f"unknown factor label {label!r}; layout has {self.labels}")

    def extended(self, label: str, dim: int) -> "TensorLayout":
        return TensorLayout(self.factors + ((label, dim),))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Full spectrum of a Hermitian matrix with degenerate eigenvalues grouped.

    `eigenvalues` are sorted descending, `vectors` holds the matching
    orthonormal eigenvectors as columns, and `groups` partitions the index
    range into (representative value, index tuple) pairs.
    """

    eigenvalues: np.ndarray
    vectors: np.ndarray
    groups: tuple[tuple[float, tuple[int, ...]], ...]


def _kron(aa: np.ndarray, bb: np.ndarray) -> np.ndarray:
    """Kronecker product of two checked complex vectors or two matrices.

    Index convention for matrices: (A otimes B)[i*r + k, j*s + l] = A[i,j] * B[k,l]
    with B of shape (r, s). numpy's kron implements exactly this.
    """
    out_size = aa.shape[0] * bb.shape[0]
    if out_size > MAX_DIM:
        raise CapacityError(
            f"tensor product dimension {out_size} exceeds the maximum {MAX_DIM}"
        )
    if aa.ndim == 1:  # np.kron's products, without its general-rank set-up
        return np.multiply.outer(aa, bb).reshape(-1)
    return np.kron(aa, bb)


def _kron_rows(aa: np.ndarray, bb: np.ndarray) -> np.ndarray:
    """Row-wise Kronecker product of two stacks of vectors: row i is `_kron(aa[i], bb[i])`.

    One broadcast product forms every row's products in `_kron`'s order.
    """
    out_size = aa.shape[1] * bb.shape[1]
    if out_size > MAX_DIM:
        raise CapacityError(
            f"tensor product dimension {out_size} exceeds the maximum {MAX_DIM}"
        )
    return (aa[:, :, None] * bb[:, None, :]).reshape(aa.shape[0], -1)


def _kept_positions(layout: TensorLayout, keep) -> list[int]:
    keep = tuple(keep) if not isinstance(keep, str) else (keep,)
    if not keep:
        raise UsageError("keep set must be nonempty")
    return sorted({layout.position(lab) for lab in keep})


def partial_trace(rho, layout: TensorLayout, keep) -> np.ndarray:
    """Reduced density matrix on the kept factors, in layout order.

    `keep` is an iterable of factor labels; the remaining factors are traced
    out. Works for any density matrix matching the layout's total dimension,
    so it is the dense reference for a foreign density. Package code reduces
    a pure state from its vector (`chain.MSState.reduced`) and a gemenge from
    its branch vectors (`chain.statistical_restriction`) instead.
    """
    positions = _kept_positions(layout, keep)
    mat = as_complex_array(rho)
    n = len(layout.factors)
    dims = layout.dims
    total = layout.total_dim
    if mat.shape != (total, total):
        raise UsageError(f"density shape {mat.shape} does not match layout dim {total}")

    tensor = mat.reshape(dims + dims)
    # einsum: contract row/col indices of traced factors pairwise.
    row_idx = list(range(n))
    col_idx = [n + i if i in positions else i for i in range(n)]
    out_idx = [i for i in positions] + [n + i for i in positions]
    reduced = np.einsum(tensor, row_idx + col_idx, out_idx)
    d_keep = int(np.prod([dims[i] for i in positions]))
    return reduced.reshape(d_keep, d_keep)


def _group_sorted_desc(values: np.ndarray) -> tuple[tuple[float, tuple[int, ...]], ...]:
    scale = float(np.max(np.abs(values))) if values.size else 0.0
    tol = max(GROUP_TOL_REL * scale, GROUP_TOL_ABS)
    groups: list[tuple[float, tuple[int, ...]]] = []
    start = 0
    for i in range(1, len(values) + 1):
        if i == len(values) or abs(values[i] - values[i - 1]) > tol:
            members = tuple(range(start, i))
            rep = float(np.mean(values[start:i]))
            groups.append((rep, members))
            start = i
    return tuple(groups)


def eig_hermitian(h) -> SpectralDecomposition:
    """Spectral decomposition with eigenvalues sorted descending and grouped."""
    vals, vecs = np.linalg.eigh(hermitian_part(require_hermitian(h)))
    order = np.argsort(vals)[::-1]
    vals = vals[order]
    vecs = vecs[:, order]
    return SpectralDecomposition(vals, vecs, _group_sorted_desc(vals))


def unitary_exp(h, t: float) -> np.ndarray:
    """exp(-i*h*t) for a Hermitian generator h, via spectral decomposition."""
    spec = eig_hermitian(h)
    phases = np.exp(-1j * spec.eigenvalues * t)
    return (spec.vectors * phases) @ spec.vectors.conj().T


def embed_operator(op: np.ndarray, layout: TensorLayout, label: str) -> np.ndarray:
    """Lift a single-factor operator to the full space: identity elsewhere."""
    mat = as_complex_array(op)
    pos = layout.position(label)
    if mat.shape != (layout.dims[pos], layout.dims[pos]):
        raise UsageError(
            f"operator shape {mat.shape} does not match factor {label!r} of dim {layout.dims[pos]}"
        )
    if layout.total_dim > MAX_DIM:  # before building any piece
        raise CapacityError(
            f"embedded operator dimension {layout.total_dim} exceeds the maximum {MAX_DIM}"
        )
    # a copy of `mat`, which may be the caller's array: one factor is its own product
    pieces = [np.eye(d, dtype=complex) if i != pos else mat.copy()
              for i, d in enumerate(layout.dims)]
    return functools.reduce(_kron, pieces)


class HermitianObservable:
    """A self-adjoint operator with a lazily cached spectral decomposition."""

    def __init__(self, matrix):
        mat = require_hermitian(matrix)
        if isinstance(matrix, np.ndarray):  # `mat` may be the caller's own array
            mat = mat.copy()
        # read-only, so `spectral` decomposes the matrix this check passed
        mat.flags.writeable = False
        self.matrix = mat

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @functools.cached_property
    def spectral(self) -> SpectralDecomposition:
        return eig_hermitian(self.matrix)

    @functools.cached_property
    def blocks(self) -> tuple[tuple[float, np.ndarray, np.ndarray], ...]:
        """(value, eigenvector block, its conjugate transpose) per eigenvalue group,
        in ascending value order."""
        spec = self.spectral
        blocks = []
        for value, idx in reversed(spec.groups):  # the groups run descending
            block = spec.vectors[:, list(idx)]
            blocks.append((value, block, block.conj().T))
        return tuple(blocks)

    def __repr__(self):
        return f"HermitianObservable(dim={self.dim})"


# Pauli matrices; all pointer/spin operators in the package are these over 2.
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)
