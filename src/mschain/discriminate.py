"""Observable algebra and the eigenvalue-discrimination feasibility solver.

The central question: given a set of states and a required pattern of equal /
distinct eigenvalues, does any self-adjoint operator have all of them as
eigenvectors with that pattern? Two facts decide it. Eigenvectors of a
Hermitian operator with distinct eigenvalues are orthogonal, so any
non-orthogonal pair of states is forced onto a common eigenvalue. And the
operator acts linearly, so any linear dependence among the states forces the
matching dependence among the scaled states, which pins eigenvalues against
each other. Propagating all forced equalities either merges two groups that
were required distinct (infeasible, with the merge chain as certificate) or
leaves orthogonal classes that an explicit projector sum discriminates
(feasible, with the operator as witness).

A brute-force least-squares oracle over an explicit eigenvalue grid provides
an independent numerical check of every verdict. It solves in the span of the
states, where the minimum over Hermitian operators is the same as on the full
space, with one projection shared by every grid assignment.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from .chain import BASIS_1, BASIS_2, MSState, Scenario, _basis_chains, full_chain
from .errors import ValidationError
from .linalg import HermitianObservable, validate_state_vector

OVERLAP_TOL = 1e-10
WITNESS_TOL = 1e-9


@dataclass(frozen=True)
class PointerAlgebra:
    """Pointer observable and its two conjugates on one two-dim factor."""

    q: HermitianObservable
    qx: HermitianObservable
    qy: HermitianObservable


@dataclass(frozen=True)
class ObservableSpec:
    """Real coefficient triple combining the pointer algebra, unit normalized."""

    d0: float
    d1: float
    d2: float

    def __post_init__(self):
        norm_sq = self.d0**2 + self.d1**2 + self.d2**2
        if abs(norm_sq - 1.0) > 1e-12:
            raise ValidationError(
                f"coefficients not normalized: d0^2+d1^2+d2^2 = {norm_sq!r}"
            )


@dataclass(frozen=True)
class DiscriminationProblem:
    """States plus the pattern of equal/distinct eigenvalues they must take.

    States inside one group must receive equal eigenvalues; states in
    different groups must receive different ones. Ungrouped states only need
    to be eigenvectors, with no constraint on their eigenvalue.
    """

    space_dim: int
    states: tuple[np.ndarray, ...]
    distinct_groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if not self.states:
            raise ValidationError("a discrimination problem needs at least one state")
        states = tuple(validate_state_vector(s) for s in self.states)
        object.__setattr__(self, "states", states)
        for s in states:
            if s.shape[0] != self.space_dim:
                raise ValidationError(
                    f"state dim {s.shape[0]} does not match space_dim {self.space_dim}"
                )
        groups = tuple(tuple(sorted(g)) for g in self.distinct_groups)
        object.__setattr__(self, "distinct_groups", groups)
        seen: set[int] = set()
        for g in groups:
            if not g:
                raise ValidationError("empty group in distinct_groups")
            for i in g:
                if not 0 <= i < len(states):
                    raise ValidationError(f"group index {i} out of range")
                if i in seen:
                    raise ValidationError(f"state index {i} appears in two groups")
                seen.add(i)


@dataclass(frozen=True)
class MergeEvidence:
    """Why two states are forced onto a common eigenvalue.

    kind "overlap": their inner product is nonzero (value in detail).
    kind "dependence": a linear dependence among the states pins them
    (detail holds the null-space basis vectors as coefficient tuples).
    kind "same-group": the problem itself requires them equal.
    """

    kind: str
    i: int
    j: int
    detail: tuple = ()


@dataclass(frozen=True)
class ForcedEquality:
    group_a: int
    group_b: int
    chain: tuple[MergeEvidence, ...]


@dataclass(frozen=True)
class FeasibilityResult:
    verdict: str  # "FEASIBLE" | "INFEASIBLE"
    witness: tuple[HermitianObservable, tuple[float, ...]] | None = None
    certificate: tuple[ForcedEquality, ...] | None = None

    @property
    def feasible(self) -> bool:
        return self.verdict == "FEASIBLE"


def build_pointer_algebra() -> PointerAlgebra:
    """Half-Pauli pointer triple in the pointer basis of a two-dim factor."""
    b1, b2 = BASIS_1, BASIS_2
    p11 = np.outer(b1, b1.conj())
    p22 = np.outer(b2, b2.conj())
    p12 = np.outer(b1, b2.conj())
    p21 = np.outer(b2, b1.conj())
    q = (p11 - p22) / 2.0
    qx = (p12 + p21) / 2.0
    qy = (-1j * p12 + 1j * p21) / 2.0
    return PointerAlgebra(HermitianObservable(q), HermitianObservable(qx), HermitianObservable(qy))


def combine_observable(alg: PointerAlgebra, spec: ObservableSpec) -> HermitianObservable:
    """Unit combination d0*q + d1*qx + d2*qy; eigenvalues are +-1/2."""
    matrix = spec.d0 * alg.q.matrix + spec.d1 * alg.qx.matrix + spec.d2 * alg.qy.matrix
    return HermitianObservable(matrix)


def _null_space(columns: np.ndarray, rel_tol: float) -> np.ndarray:
    """Orthonormal basis (as columns) of the null space of a column-stacked matrix."""
    _, s, vh = np.linalg.svd(columns, full_matrices=True)
    cutoff = max(rel_tol * (s[0] if s.size else 0.0), 1e-12)
    rank = int(np.sum(s > cutoff))
    return vh[rank:].conj().T


def _dependence_forced_pairs(states):
    """Pairs of state indices whose eigenvalues every dependence constraint pins equal.

    A dependence sum_k c_k phi_k = 0 requires the componentwise product c*g to
    stay inside the null space. The admissible eigenvalue vectors g therefore
    form a real subspace; two indices are forced equal when every vector in it
    has equal components there.
    """
    m = len(states)
    phi = np.column_stack(states)
    null_basis = _null_space(phi, OVERLAP_TOL)
    r = null_basis.shape[1]
    if r == 0:
        return [], null_basis
    projector = null_basis @ null_basis.conj().T
    complement = np.eye(m) - projector
    blocks = []
    for c in null_basis.T:
        constraint = complement @ np.diag(c)
        blocks.append(constraint.real)
        blocks.append(constraint.imag)
    stacked = np.vstack(blocks)
    admissible = _null_space(stacked, 1e-12).real
    forced = []
    for j, k in combinations(range(m), 2):
        diff = np.zeros(m)
        diff[j], diff[k] = 1.0, -1.0
        if np.linalg.norm(admissible.T @ diff) < 1e-8:
            forced.append((j, k))
    return forced, null_basis


def check_eigen_discrimination(problem: DiscriminationProblem) -> FeasibilityResult:
    """Decide whether any Hermitian operator realizes the eigenvalue pattern.

    Feasible verdicts come with an explicit witness operator built from
    projectors onto the merged-class spans, with consecutive integer
    eigenvalues; infeasible verdicts come with the forced-equality chains that
    collapse two required-distinct groups.
    """
    states = problem.states
    m = len(states)
    adjacency: dict[int, list[tuple[int, MergeEvidence]]] = {i: [] for i in range(m)}

    def record(ev: MergeEvidence):
        adjacency[ev.i].append((ev.j, ev))
        adjacency[ev.j].append((ev.i, ev))

    for group in problem.distinct_groups:
        for a, b in zip(group, group[1:]):
            record(MergeEvidence("same-group", a, b))

    for j, k in combinations(range(m), 2):
        ov = complex(np.vdot(states[j], states[k]))
        if abs(ov) > OVERLAP_TOL:
            record(MergeEvidence("overlap", j, k, (ov,)))

    dep_pairs, null_basis = _dependence_forced_pairs(states)
    dep_detail = tuple(tuple(complex(x) for x in c) for c in null_basis.T)
    for j, k in dep_pairs:
        record(MergeEvidence("dependence", j, k, dep_detail))

    # merge classes, numbered in the order of their lowest member
    classes: list[list[int]] = []
    class_of = [-1] * m
    for i in range(m):
        if class_of[i] < 0:
            members = sorted(_search(adjacency, i))
            for j in members:
                class_of[j] = len(classes)
            classes.append(members)

    conflicts = []
    groups = problem.distinct_groups
    for (ga, gb) in combinations(range(len(groups)), 2):
        if class_of[groups[ga][0]] == class_of[groups[gb][0]]:
            chain = _merge_path(adjacency, groups[ga][0], groups[gb][0])
            conflicts.append(ForcedEquality(ga, gb, chain))
    if conflicts:
        return FeasibilityResult("INFEASIBLE", certificate=tuple(conflicts))

    assignment = np.zeros(m)
    witness = np.zeros((problem.space_dim, problem.space_dim), dtype=complex)
    for value, members in enumerate(classes):
        span = np.column_stack([states[i] for i in members])
        u, s, _ = np.linalg.svd(span, full_matrices=False)
        basis = u[:, s > OVERLAP_TOL * s[0]]
        witness += float(value) * (basis @ basis.conj().T)
        for i in members:
            assignment[i] = float(value)

    for i, phi in enumerate(states):
        residual = np.linalg.norm(witness @ phi - assignment[i] * phi)
        if residual > WITNESS_TOL:
            raise RuntimeError(
                f"witness construction failed for state {i}: residual {residual!r}"
            )
    obs = HermitianObservable(witness)
    return FeasibilityResult("FEASIBLE", witness=(obs, tuple(float(v) for v in assignment)))


def _search(adjacency, start: int) -> dict[int, tuple[int, MergeEvidence] | None]:
    """Breadth-first search of the merge graph from `start`.

    Maps every state it reaches to the state it was first reached from and
    the evidence on that edge (None for `start`).
    """
    prev: dict[int, tuple[int, MergeEvidence] | None] = {start: None}
    queue = deque([start])
    while queue:
        node = queue.popleft()
        for other, ev in adjacency[node]:
            if other not in prev:
                prev[other] = (node, ev)
                queue.append(other)
    return prev


def _merge_path(adjacency, start: int, goal: int) -> tuple[MergeEvidence, ...]:
    """Shortest evidence chain connecting two states in the merge graph."""
    prev = _search(adjacency, start)
    chain = []
    node = goal
    while node != start:
        node, ev = prev[node]
        chain.append(ev)
    return tuple(reversed(chain))


def verify_certificate(problem: DiscriminationProblem, result: FeasibilityResult) -> bool:
    """Re-check every forced equality in an infeasibility certificate."""
    if result.certificate is None:
        return False
    states = problem.states
    for forced in result.certificate:
        if not forced.chain:
            return False
        for ev in forced.chain:
            if ev.kind == "overlap":
                if abs(np.vdot(states[ev.i], states[ev.j])) <= OVERLAP_TOL:
                    return False
            elif ev.kind == "dependence":
                for coeffs in ev.detail:
                    combo = sum(c * states[k] for k, c in enumerate(coeffs))
                    if np.linalg.norm(combo) > 1e-8:
                        return False
                dep_pairs, _ = _dependence_forced_pairs(states)
                if (ev.i, ev.j) not in dep_pairs and (ev.j, ev.i) not in dep_pairs:
                    return False
            elif ev.kind == "same-group":
                if not any(ev.i in g and ev.j in g for g in problem.distinct_groups):
                    return False
            else:
                return False
    return True


@functools.cache
def _hermitian_basis(dim: int) -> np.ndarray:
    """The dim * dim Hermitian basis matrices, stacked in the design matrix's parameter order."""
    rows, cols = np.triu_indices(dim, 1)
    basis = np.zeros((dim * dim, dim, dim), dtype=complex)
    diag = np.arange(dim)
    basis[diag, diag, diag] = 1.0
    for offset, part in enumerate((1.0, 1.0j)):
        col = dim + 2 * np.arange(len(rows)) + offset
        basis[col, rows, cols] = part
        basis[col, cols, rows] = np.conj(part)
    basis.flags.writeable = False
    return basis


def _hermitian_design_matrix(states, dim: int) -> np.ndarray:
    """Real design matrix mapping Hermitian parameters to stacked G@phi values.

    Parameter order: the dim diagonal entries, then (real, imag) pairs for
    each upper-triangle entry in row-major order. Rows stack Re and Im of
    G@phi per state. Column (i, j, part) of state phi holds part * phi[j] in
    row i and conj(part) * phi[i] in row j: it is the basis matrix with part
    at (i, j) and conj(part) at (j, i) applied to phi, and every entry of that
    product is one entry of phi times 1, 1j or -1j, so it is exact.
    """
    values = _hermitian_basis(dim) @ np.transpose(states)  # (parameter, row, state)
    return np.stack([values.real, values.imag]).transpose(3, 0, 2, 1).reshape(-1, dim * dim)


def numeric_feasibility_oracle(problem: DiscriminationProblem, eigenvalue_grid):
    """Brute-force least squares over every admissible grid assignment.

    For each way of assigning grid values (distinct across groups, free for
    ungrouped states), minimize sum_k ||G phi_k - g_k phi_k||^2 over Hermitian
    G and return the smallest residual with its assignment; on a tie the
    first assignment in enumeration order wins.

    The least squares runs in the span of the states. With the reduced QR
    factorization [phi_1 ... phi_m] = Q R, Q has orthonormal columns whose
    range holds every phi_k = Q c_k, where c_k is column k of R. For any
    Hermitian G, with A = Q^dagger G Q,

        sum_k ||G phi_k - g_k phi_k||^2
            = sum_k ||A c_k - g_k c_k||^2 + sum_k ||(I - Q Q^dagger) G Q c_k||^2,

    so no G does better than its compression A, and G = Q A Q^dagger reaches
    it. The problem on the coordinates c_k therefore has the same minimum; a
    dependent state only adds a direction to Q that changes nothing, so the
    states need no rank cut. One SVD of the coordinates' design matrix gives
    the projection onto the residual space, applied once to the matrix whose
    column k holds c_k in block k; the residual of assignment g is the squared
    norm of that projection times g.
    """
    grid = sorted(set(float(v) for v in eigenvalue_grid))
    if not all(map(math.isfinite, grid)):
        # argmin would return a NaN residual, and inf * 0 makes one
        raise ValidationError(f"eigenvalue grid values must be finite, got {grid!r}")
    if len(grid) < 2:
        raise ValidationError("eigenvalue grid needs at least 2 distinct values")
    groups = problem.distinct_groups
    if len(grid) < len(groups):
        raise ValidationError(
            f"grid of {len(grid)} values cannot give {len(groups)} groups distinct eigenvalues"
        )
    m = len(problem.states)
    grouped = [i for g in groups for i in g]
    free = [i for i in range(m) if i not in grouped]

    _, r = np.linalg.qr(np.column_stack(problem.states))
    coords = r.T  # row k: the coordinates c_k of state k
    span_dim = coords.shape[1]
    u, s, _ = np.linalg.svd(_hermitian_design_matrix(coords, span_dim), full_matrices=False)
    rank = int(np.sum(s > 1e-10 * (s[0] if s.size else 0.0)))
    u = u[:, :rank]
    b = np.zeros((m, 2 * span_dim, m))
    b[np.arange(m), :, np.arange(m)] = np.concatenate([coords.real, coords.imag], axis=1)
    b = b.reshape(2 * span_dim * m, m)
    e = b - u @ (u.T @ b)

    # every assignment, group values outermost, in the order of the enumeration
    slots = [gi for gi, members in enumerate(groups) for _ in members]
    rows = [[group_vals[gi] for gi in slots] + list(free_vals)
            for group_vals in permutations(grid, len(groups))
            for free_vals in product(grid, repeat=len(free))]
    g = np.empty((len(rows), m))
    g[:, grouped + free] = rows
    residuals = np.square(e @ g.T).sum(axis=0)
    best = int(np.argmin(residuals))
    return float(residuals[best]), tuple(float(v) for v in g[best])


@dataclass(frozen=True)
class ITObservable:
    """Joint interference-term observable coupling the pointer branches."""

    observable: HermitianObservable


def build_it_observable() -> ITObservable:
    """Symmetric interference-term observable on the full S, D, O chain.

    The operator swaps the two pointer branch products; its spectrum is
    {+1, -1} on the branch pair plus zero on everything else.
    """
    matrix = np.zeros((8, 8), dtype=complex)
    matrix[0, 7] = 1.0
    matrix[7, 0] = 1.0
    return ITObservable(HermitianObservable(matrix))


def superposition_discrimination_problem(a1: complex, a2: complex) -> DiscriminationProblem:
    """The chain's no-go instance: superposition vs both branch products.

    All three final chain states are required to take pairwise distinct
    eigenvalues of one joint observable. The branch products do not depend on
    the amplitudes; every problem shares one read-only copy of them, the
    vectors of the branch states of every chained gemenge.
    """
    return _superposition_problem(full_chain(Scenario(a1, a2, "pure")))


def _superposition_problem(psi_ms: MSState) -> DiscriminationProblem:
    """The no-go instance of the pure chain state `psi_ms`, built by the caller."""
    return DiscriminationProblem(
        8,
        (psi_ms.vector, *(state.vector for state in _basis_chains())),
        ((0,), (1,), (2,)),
    )


def recognition_problem() -> DiscriminationProblem:
    """The trivially feasible instance: the two orthogonal pointer states."""
    return DiscriminationProblem(2, (BASIS_1, BASIS_2), ((0,), (1,)))
