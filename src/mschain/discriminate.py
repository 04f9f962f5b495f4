"""Observable algebra and the eigenvalue-discrimination feasibility solver.

The central question: given a set of states and a required pattern of equal /
distinct eigenvalues, does any self-adjoint operator have all of them as
eigenvectors with that pattern? Two matrices of the states decide it. The Gram
matrix's off-diagonal entries give the overlap edges: eigenvectors of a
Hermitian operator with distinct eigenvalues are orthogonal, so a nonzero
phi_j^dagger phi_k forces g_j = g_k. The null-space projector's off-diagonal
entries give the dependence edges: G phi_k = g_k phi_k for every k means
G Phi = Phi diag(g), so diag(g) maps the null space of Phi into itself, which
for real g holds exactly when diag(g) commutes with the projector P onto it,
that is, g_j = g_k wherever P_jk is nonzero. Feasible means no two
required-distinct groups share a class of the graph of both kinds of edges.
Then no overlap edge joins two classes, their spans are orthogonal, and an
explicit projector sum discriminates them (the operator is the witness);
otherwise the chain of edges joining two groups is the certificate. (In exact
arithmetic every dependence edge lies inside an overlap class; at the
tolerances, a dependence edge still pins a pair whose overlap is too small to
count.) For an orthonormal basis N of the null space,
||(I - P) diag(g) N||^2 = sum_{j<k} |P_jk|^2 (g_j - g_k)^2, the Laplacian of
the dependence graph with weights |P_jk|^2. The solver computes the null
space of that quadratic form, the admissible g, from the constraint rows
(I - P) diag(c) over the columns c of N, and records a dependence edge for
every pair on which every admissible g agrees.

A brute-force least-squares oracle over an explicit eigenvalue grid provides
an independent numerical check of every verdict. It solves in the span of the
states, where the minimum over Hermitian operators is the same as on the full
space, and where one thin SVD of the states gives the minimum in closed form:
its normal equations are a Lyapunov equation, diagonal in the singular basis.
"""

from __future__ import annotations

import math
import numbers
import sys
from collections import deque
from dataclasses import dataclass
from itertools import combinations, permutations, product

import numpy as np

from .chain import (BASIS_1, BASIS_2, MSState, Scenario, _basis_chains, _require_count,
                    _require_number, full_chain)
from .errors import CapacityError, ValidationError
from .linalg import (PAULI_X, PAULI_Y, PAULI_Z, HermitianObservable, as_complex_array,
                     validate_state_vector)

OVERLAP_TOL = 1e-10
WITNESS_TOL = 1e-9
# Cap on each of the oracle's arrays in float64 entries, checked before anything is
# built: 2 * max(assignments, states) * span dim * states covers the residual table
# and the tensor p of states x states x span dim complex entries. At the cap, 226,920
# assignments of 3 states took 3.6 s and 91 MB (tracemalloc, 2-vCPU Xeon), and two
# groups of 80 orthonormal states in dim 80 0.13 s and 66 MB.
MAX_ORACLE_ENTRIES = 2**22
# `_null_space`'s absolute rank floor, which decides the no-go certificate's shape:
# in the admissible space it beats ADMISSIBLE_REL_TOL * s[0], and s[1] is about
# 0.866 * a1, so below a1 = 1.155e-12 only the overlap conflict g0 = g2 is left. That
# shorter certificate is intended: one forced equality of two distinct groups is a proof.
NULL_SPACE_FLOOR = 1e-12
# Norm below which a dependence combination, or a pair's admissible difference, is zero.
DEPENDENCE_TOL = 1e-8
# Relative rank cut on the stacked constraint system whose null space is the
# admissible eigenvalue space, in `_dependence_forced_pairs`.
ADMISSIBLE_REL_TOL = 1e-12
# Distance from 1 within which an `ObservableSpec`'s squared coefficients must sum.
SPEC_NORM_TOL = 1e-12


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
        for name in ("d0", "d1", "d2"):
            _require_number(getattr(self, name), name, numbers.Real, "a real number")
        try:
            d0, d1, d2 = (float(getattr(self, name)) for name in ("d0", "d1", "d2"))
            norm_sq = d0**2 + d1**2 + d2**2
        except OverflowError:  # a coefficient or its square past the float range
            norm_sq = math.inf
        if not abs(norm_sq - 1.0) <= SPEC_NORM_TOL:  # written so that a NaN fails it
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
        object.__setattr__(self, "space_dim", _require_count(self.space_dim, "space_dim"))
        if not self.states:
            raise ValidationError("a discrimination problem needs at least one state")
        states = tuple(validate_state_vector(s) for s in self.states)
        object.__setattr__(self, "states", states)
        for s in states:
            if s.shape[0] != self.space_dim:
                raise ValidationError(
                    f"state dim {s.shape[0]} does not match space_dim {self.space_dim}"
                )
        try:
            groups = tuple(tuple(sorted(g)) for g in self.distinct_groups)
        except TypeError:  # a group that is no sequence, or indices that do not compare
            raise ValidationError(
                f"distinct_groups must be a sequence of index sequences, got {self.distinct_groups!r}"
            ) from None
        object.__setattr__(self, "distinct_groups", groups)
        seen: set[int] = set()
        for g in groups:
            if not g:
                raise ValidationError("empty group in distinct_groups")
            for i in g:
                if not _is_index(i, len(states)):
                    raise ValidationError(f"group index {i!r} is not an integer in range")
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
    """Half-Pauli pointer triple in the pointer basis BASIS_1, BASIS_2 of a two-dim factor."""
    return PointerAlgebra(*(HermitianObservable(p / 2.0) for p in (PAULI_Z, PAULI_X, PAULI_Y)))


def combine_observable(alg: PointerAlgebra, spec: ObservableSpec) -> HermitianObservable:
    """Unit combination d0*q + d1*qx + d2*qy; eigenvalues are +-1/2."""
    matrix = spec.d0 * alg.q.matrix + spec.d1 * alg.qx.matrix + spec.d2 * alg.qy.matrix
    return HermitianObservable(matrix)


def _null_space(columns: np.ndarray, rel_tol: float) -> np.ndarray:
    """Orthonormal basis (as columns) of the null space of a column-stacked matrix.

    `vh` needs its null rows only past the rank bound min(rows, columns), that
    is, when there are more columns than rows; otherwise the reduced SVD holds
    every row of `vh`, and no rows x rows U is built.
    """
    _, s, vh = np.linalg.svd(columns, full_matrices=columns.shape[1] > columns.shape[0])
    cutoff = max(rel_tol * (s[0] if s.size else 0.0), NULL_SPACE_FLOOR)
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
    admissible = _null_space(stacked, ADMISSIBLE_REL_TOL).real
    forced = [(j, k) for j, k in combinations(range(m), 2)
              if np.linalg.norm(admissible[j] - admissible[k]) < DEPENDENCE_TOL]
    return forced, null_basis


def check_eigen_discrimination(problem: DiscriminationProblem) -> FeasibilityResult:
    """Decide whether any Hermitian operator realizes the eigenvalue pattern.

    Feasible verdicts come with an explicit witness for eigenvalues g_k, the
    index of state k's class: the Hermitian G of least sum_k ||G phi_k - g_k phi_k||^2
    (`_span_solution`), the sum of g times each class's projector when the
    class spans are orthogonal. A residual over WITNESS_TOL raises RuntimeError,
    which needs every Hermitian operator with these eigenvalues to miss a state
    by more than WITNESS_TOL / sqrt(states). Infeasible verdicts come with the
    forced-equality chains that collapse two required-distinct groups. Memory
    is O(dim * states) when infeasible; a feasible verdict peaks at three dense
    dim x dim complex arrays (48 B * dim**2: the witness, and the conjugate copy
    and difference of `HermitianObservable`'s check), 806 MB at dim 4096.
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
    class_of = [-1] * m
    for i in range(m):
        if class_of[i] < 0:
            label = max(class_of) + 1
            for j in _search(adjacency, i):
                class_of[j] = label

    conflicts = []
    groups = problem.distinct_groups
    for (ga, gb) in combinations(range(len(groups)), 2):
        if class_of[groups[ga][0]] == class_of[groups[gb][0]]:
            chain = _merge_path(adjacency, groups[ga][0], groups[gb][0])
            conflicts.append(ForcedEquality(ga, gb, chain))
    if conflicts:
        return FeasibilityResult("INFEASIBLE", certificate=tuple(conflicts))

    assignment = np.array(class_of, dtype=float)  # each class's index is its value
    u, _, vh, weight = _span_solution(states)
    witness = (u @ (weight * ((vh * assignment) @ vh.conj().T))) @ u.conj().T

    for i, phi in enumerate(states):
        residual = np.linalg.norm(witness @ phi - assignment[i] * phi)
        if residual > WITNESS_TOL:
            raise RuntimeError(
                f"witness construction failed for state {i}: residual {residual!r}"
            )
    obs = HermitianObservable(witness)
    return FeasibilityResult("FEASIBLE", witness=(obs, tuple(float(v) for v in assignment)))


def _span_solution(states):
    """The thin SVD [phi_1 ... phi_m] = u diag(s) vh and the weights 2 s_a s_b /
    (s_a^2 + s_b^2), 0 where both are 0. The Hermitian G of least squared residuals
    for eigenvalues g is u (weight * (vh diag(g) vh^dagger)) u^dagger, as
    `numeric_feasibility_oracle` derives."""
    u, s, vh = np.linalg.svd(np.column_stack(states), full_matrices=False)
    s_sq = np.square(s)
    den = s_sq[:, None] + s_sq
    return u, s, vh, np.divide(2 * np.outer(s, s), den, out=np.zeros_like(den), where=den > 0)


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


def _is_index(k, n: int) -> bool:
    """Whether `k` is an integer index, and no bool, into a sequence of length `n`."""
    return isinstance(k, numbers.Integral) and not isinstance(k, bool) and 0 <= k < n


def verify_certificate(problem: DiscriminationProblem, result: FeasibilityResult) -> bool:
    """Re-check every forced equality in an infeasibility certificate.

    Each one must name two different groups of the problem, and its chain
    must walk from a member of `group_a` to a member of `group_b`: each piece
    of evidence joins, in either order, the state reached so far to the next
    one, and holds on the problem's states. A state or group index that is
    not an integer in range fails the check, and so do a certificate or chain
    that is not a tuple, an entry that is not a ForcedEquality or MergeEvidence,
    and dependence coefficients that are not rows of finite numbers, one per
    state: a malformed certificate reads False, not an exception. Finite
    coefficients whose combination overflows read False too, with no warning.
    """
    if not isinstance(result.certificate, tuple) or not result.certificate:
        return False  # none, or an empty one, proves nothing
    states = problem.states
    groups = problem.distinct_groups
    dep_pairs = None  # the dependence analysis, on the first dependence evidence
    for forced in result.certificate:
        if not (isinstance(forced, ForcedEquality) and isinstance(forced.chain, tuple)
                and forced.chain):
            return False
        ga, gb = forced.group_a, forced.group_b
        if not (_is_index(ga, len(groups)) and _is_index(gb, len(groups))) or ga == gb:
            return False
        # every state a walk along the chain so far can have reached
        reached = set(groups[ga])
        for ev in forced.chain:
            if not (isinstance(ev, MergeEvidence)
                    and _is_index(ev.i, len(states)) and _is_index(ev.j, len(states))):
                return False
            reached = {ev.j if k == ev.i else ev.i for k in reached if k in (ev.i, ev.j)}
            if not reached:
                return False
            if ev.kind == "overlap":
                if abs(np.vdot(states[ev.i], states[ev.j])) <= OVERLAP_TOL:
                    return False
            elif ev.kind == "dependence":
                try:
                    rows = as_complex_array(ev.detail)
                except ValidationError:
                    return False
                if rows.ndim != 2 or rows.shape[1] != len(states):
                    return False
                # an inf or NaN norm, from finite coefficients that overflow, fails it
                with np.errstate(over="ignore", invalid="ignore"):
                    for coeffs in rows:
                        combo = sum(c * states[k] for k, c in enumerate(coeffs))
                        if not np.linalg.norm(combo) <= DEPENDENCE_TOL:
                            return False
                if dep_pairs is None:
                    dep_pairs, _ = _dependence_forced_pairs(states)
                if (ev.i, ev.j) not in dep_pairs and (ev.j, ev.i) not in dep_pairs:
                    return False
            elif ev.kind == "same-group":
                if not any(ev.i in g and ev.j in g for g in groups):
                    return False
            else:
                return False
        if reached.isdisjoint(groups[gb]):
            return False
    return True


def numeric_feasibility_oracle(problem: DiscriminationProblem, eigenvalue_grid):
    """Brute-force least squares over every admissible grid assignment.

    For each way of assigning grid values (distinct across groups, free for
    ungrouped states), minimize sum_k ||G phi_k - g_k phi_k||^2 over Hermitian
    G and return the smallest residual with its assignment. Assignments that
    tie in exact arithmetic are told apart by rounding: g + c and c - g tie
    with g whenever they lie on the grid, since cI + G and cI - G are
    Hermitian; of residuals equal in floating point, the first assignment in
    enumeration order wins. Raises CapacityError, before anything is built,
    when the residual table or the tensor p below would exceed
    MAX_ORACLE_ENTRIES.

    The least squares runs in the span of the states. The thin SVD
    [phi_1 ... phi_m] = U diag(s) vh gives every phi_k = U c_k, with
    c_k = s * vh[:, k]. For any Hermitian G, with A = U^dagger G U,

        sum_k ||G phi_k - g_k phi_k||^2
            = sum_k ||A c_k - g_k c_k||^2 + sum_k ||(I - U U^dagger) G U c_k||^2,

    so G = U A U^dagger does best. The first sum is convex in A and least at
    the Lyapunov equation A S + S A = 2 sum_k g_k c_k c_k^dagger, where
    S = sum_k c_k c_k^dagger = diag(s^2) is diagonal. So
    A = sum_j g_j B_j, with B_j = weight * vh[:, j] vh[:, j]^dagger and
    weight_ab = 2 s_a s_b / (s_a^2 + s_b^2), or 0 where that denominator is
    0 and A_ab acts on no state. By AM-GM no weight exceeds 1, so a small or
    zero singular value needs no rank cut. The residual of assignment g is
    the squared norm of sum_j g_j p[j], with p[j, k] = B_j c_k - [j = k] c_k:
    one product for every assignment.
    """
    try:
        values = list(eigenvalue_grid)
    except TypeError:
        raise ValidationError(
            f"eigenvalue grid must be an iterable of real numbers, got {eigenvalue_grid!r}"
        ) from None
    if not all(isinstance(v, numbers.Real) and not isinstance(v, bool)
               and abs(v) <= sys.float_info.max for v in values):
        # a NaN fails the bound; argmin would return a NaN residual, and inf * 0 makes one
        raise ValidationError(f"eigenvalue grid values must be finite real numbers, got {values!r}")
    grid = sorted(set(float(v) for v in values))
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
    count = math.perm(len(grid), len(groups)) * len(grid) ** len(free)
    span_dim = min(problem.space_dim, m)  # the length of the thin SVD's s
    entries = 2 * max(count, m) * span_dim * m  # residual table, p
    if entries > MAX_ORACLE_ENTRIES:
        raise CapacityError(
            f"oracle of {count} assignments of {m} states in a span of dim {span_dim} needs "
            f"{entries} entries in one array, over the maximum of {MAX_ORACLE_ENTRIES}")

    _, s, vh, weight = _span_solution(problem.states)
    w = s[:, None] * vh  # column k: the coordinates c_k of state k
    # p[j, a, k] = (B_j c_k - [j = k] c_k)[a], with B_j c_k = vh[:, j] * (weight @ (vh[:, j]^* * c_k))
    p = weight @ (vh.conj().T[:, :, None] * w)
    p *= vh.T[:, :, None]
    p[np.arange(m), :, np.arange(m)] -= w.T
    e = p.reshape(m, -1).view(np.float64)  # row j: Re and Im of p[j], interleaved

    # every assignment, group values outermost, in the order of the enumeration
    slots = [gi for gi, members in enumerate(groups) for _ in members]
    rows = [[group_vals[gi] for gi in slots] + list(free_vals)
            for group_vals in permutations(grid, len(groups))
            for free_vals in product(grid, repeat=len(free))]
    g = np.empty((len(rows), m))
    g[:, grouped + free] = rows
    table = g @ e
    residuals = np.square(table, out=table).sum(axis=1)  # squared in place: one table, not two
    best = int(np.argmin(residuals))
    return float(residuals[best]), tuple(float(v) for v in g[best])


def build_it_observable() -> HermitianObservable:
    """Symmetric interference-term observable on the full S, D, O chain.

    The operator swaps the two pointer branch products; its spectrum is
    {+1, -1} on the branch pair plus zero on everything else.
    """
    matrix = np.zeros((8, 8), dtype=complex)
    matrix[0, 7] = 1.0
    matrix[7, 0] = 1.0
    return HermitianObservable(matrix)


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
