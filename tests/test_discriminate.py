import math
from itertools import permutations, product

import numpy as np
import pytest
from helpers import random_discrimination_problem
from numpy.testing import assert_allclose

from mschain.chain import BASIS_1, BASIS_2, Scenario, full_chain
from mschain.discriminate import (
    DiscriminationProblem,
    ObservableSpec,
    _hermitian_design_matrix,
    build_it_observable,
    build_pointer_algebra,
    check_eigen_discrimination,
    combine_observable,
    numeric_feasibility_oracle,
    recognition_problem,
    superposition_discrimination_problem,
    verify_certificate,
)
from mschain.errors import ValidationError
from mschain.linalg import PAULI_X, PAULI_Y, PAULI_Z

SYM = 2**-0.5


class TestPointerAlgebra:
    def test_half_pauli_matrices(self):
        alg = build_pointer_algebra()
        assert_allclose(alg.q.matrix, PAULI_Z / 2)
        assert_allclose(alg.qx.matrix, PAULI_X / 2)
        assert_allclose(alg.qy.matrix, PAULI_Y / 2)
        assert_allclose(alg.q.spectral.eigenvalues, [0.5, -0.5])

    def test_commutation_relations(self):
        alg = build_pointer_algebra()
        q, qx, qy = alg.q.matrix, alg.qx.matrix, alg.qy.matrix
        assert np.max(np.abs(q @ qx - qx @ q - 1j * qy)) < 1e-12
        assert np.max(np.abs(q @ qy - qy @ q + 1j * qx)) < 1e-12

    def test_conjugate_eigenvectors(self):
        alg = build_pointer_algebra()
        spec = alg.qx.spectral
        plus = spec.vectors[:, 0]
        minus = spec.vectors[:, 1]
        assert abs(abs(np.vdot(plus, (BASIS_1 + BASIS_2) / np.sqrt(2))) - 1) < 1e-12
        assert abs(abs(np.vdot(minus, (BASIS_1 - BASIS_2) / np.sqrt(2))) - 1) < 1e-12


class TestCombineObservable:
    def test_axes(self):
        alg = build_pointer_algebra()
        assert_allclose(combine_observable(alg, ObservableSpec(1, 0, 0)).matrix, alg.q.matrix)
        assert_allclose(combine_observable(alg, ObservableSpec(0, 1, 0)).matrix, alg.qx.matrix)
        assert_allclose(combine_observable(alg, ObservableSpec(0, 0, 1)).matrix, alg.qy.matrix)

    def test_diagonal_combination(self):
        alg = build_pointer_algebra()
        obs = combine_observable(alg, ObservableSpec(SYM, SYM, 0.0))
        # oracle: diagonalize the explicit 2x2 matrix
        vals, vecs = np.linalg.eigh(obs.matrix)
        assert_allclose(sorted(vals), [-0.5, 0.5], atol=1e-12)
        top = vecs[:, 1]
        bloch_angle = 2 * np.arctan2(abs(top[1]), abs(top[0]))
        assert bloch_angle == pytest.approx(np.pi / 4, abs=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            ObservableSpec(1.0, 1.0, 0.0)

    def test_unit_eigenvalues_everywhere(self):
        alg = build_pointer_algebra()
        rng = np.random.default_rng(37)
        for _ in range(30):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            obs = combine_observable(alg, ObservableSpec(*d))
            assert_allclose(obs.spectral.eigenvalues, [0.5, -0.5], atol=1e-12)

    def test_completeness_round_trip(self):
        # every traceless unit-coefficient Hermitian 2x2 is reachable, and the
        # coefficients are recovered by the trace pairing
        alg = build_pointer_algebra()
        rng = np.random.default_rng(41)
        paulis = (PAULI_Z / 2, PAULI_X / 2, PAULI_Y / 2)
        for _ in range(50):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            obs = combine_observable(alg, ObservableSpec(*d))
            assert abs(np.trace(obs.matrix)) < 1e-12
            recovered = [2 * float(np.real(np.trace(obs.matrix @ p))) for p in paulis]
            assert_allclose(recovered, d, atol=1e-12)


class TestSolverBasics:
    def test_recognition_feasible_with_pointer_witness(self):
        result = check_eigen_discrimination(recognition_problem())
        assert result.feasible
        obs, assignment = result.witness
        assert assignment[0] != assignment[1]
        # witness acts like the pointer observable: diagonal in the pointer basis
        assert abs(obs.matrix[0, 1]) < 1e-12
        assert abs(obs.matrix[0, 0] - assignment[0]) < 1e-9
        assert abs(obs.matrix[1, 1] - assignment[1]) < 1e-9

    def test_observer_space_superposition_infeasible(self):
        xi_s = (BASIS_1 + BASIS_2) / np.sqrt(2)
        problem = DiscriminationProblem(2, (xi_s, BASIS_1, BASIS_2), ((0,), (1,), (2,)))
        result = check_eigen_discrimination(problem)
        assert not result.feasible
        assert verify_certificate(problem, result)

    def test_chain_no_go_instance(self):
        problem = superposition_discrimination_problem(SYM, SYM)
        result = check_eigen_discrimination(problem)
        assert not result.feasible
        assert verify_certificate(problem, result)
        kinds = {ev.kind for forced in result.certificate for ev in forced.chain}
        assert "overlap" in kinds
        assert "dependence" in kinds  # the linear dependence pins the branch pair

    def test_no_go_across_phases(self):
        for theta in np.linspace(0.15, np.pi / 2 - 0.15, 6):
            for phi in np.linspace(0.0, 2 * np.pi, 6, endpoint=False):
                a1 = np.cos(theta)
                a2 = np.sin(theta) * np.exp(1j * phi)
                result = check_eigen_discrimination(
                    superposition_discrimination_problem(a1, a2))
                assert not result.feasible

    @pytest.mark.parametrize("k", range(2, 17))
    def test_no_go_near_zero_amplitude(self, k):
        a1 = 10.0**-k
        problem = superposition_discrimination_problem(a1, math.sqrt(1.0 - a1 * a1))
        result = check_eigen_discrimination(problem)
        assert result.verdict == "INFEASIBLE"
        assert verify_certificate(problem, result)
        # from k = 10 the overlap a1 with the first branch product is not above
        # OVERLAP_TOL and the linear dependence pins that pair instead; from
        # k = 12 the dependence no longer pins the first branch product, and
        # only the overlap conflict with the second one is left
        assert len(result.certificate) == (3 if k <= 11 else 1)

    def test_branch_products_are_shared_read_only(self):
        problem = superposition_discrimination_problem(0.6, 0.8)
        with pytest.raises(ValueError):
            problem.states[1][0] = 5.0
        with pytest.raises(ValueError):
            problem.states[2] *= 2.0
        later = superposition_discrimination_problem(SYM, SYM)
        for k, (a1, a2) in ((1, (1.0, 0.0)), (2, (0.0, 1.0))):
            assert np.array_equal(later.states[k], full_chain(Scenario(a1, a2, "pure")).vector)

    def test_branch_products_are_the_gemenge_branch_vectors(self):
        problem = superposition_discrimination_problem(0.6, 0.8)
        w = full_chain(Scenario(SYM, SYM, "gemenge"))
        assert problem.states[1] is w.branches[0][0].vector
        assert problem.states[2] is w.branches[1][0].vector

    def test_degenerate_amplitudes_still_infeasible(self):
        # the superposition collapses onto one branch product; requiring it
        # distinct from that same state is hopeless
        result = check_eigen_discrimination(superposition_discrimination_problem(1.0, 0.0))
        assert not result.feasible

    def test_free_state_can_join_a_group(self):
        states = (BASIS_1, BASIS_2, BASIS_1)
        problem = DiscriminationProblem(2, states, ((0,), (1,)))
        result = check_eigen_discrimination(problem)
        assert result.feasible
        _, assignment = result.witness
        assert assignment[2] == assignment[0]

    def test_free_superposition_forces_merge(self):
        xi_s = (BASIS_1 + 1j * BASIS_2) / np.sqrt(2)
        problem = DiscriminationProblem(2, (BASIS_1, BASIS_2, xi_s), ((0,), (1,)))
        result = check_eigen_discrimination(problem)
        assert not result.feasible

    def test_zero_state_rejected(self):
        with pytest.raises(ValidationError):
            DiscriminationProblem(2, (BASIS_1, np.zeros(2)), ((0,), (1,)))

    def test_overlapping_groups_rejected(self):
        with pytest.raises(ValidationError):
            DiscriminationProblem(2, (BASIS_1, BASIS_2), ((0, 1), (1,)))

    def test_witness_relations_hold(self):
        rng = np.random.default_rng(43)
        a = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        q, _ = np.linalg.qr(a)
        states = (q[:, 0], q[:, 1], q[:, 2])
        problem = DiscriminationProblem(5, states, ((0,), (1,), (2,)))
        result = check_eigen_discrimination(problem)
        assert result.feasible
        obs, assignment = result.witness
        for phi, g in zip(states, assignment):
            assert np.linalg.norm(obs.matrix @ phi - g * phi) < 1e-9
        gaps = {abs(x - y) for x in assignment for y in assignment if x != y}
        assert all(gap >= 1.0 for gap in gaps)

    def test_affine_freedom_preserves_verdict(self):
        problem = recognition_problem()
        result = check_eigen_discrimination(problem)
        obs, assignment = result.witness
        for alpha, beta in ((2.0, -1.0), (-0.5, 3.0), (10.0, 0.0)):
            shifted = alpha * obs.matrix + beta * np.eye(obs.dim)
            new_assignment = [alpha * g + beta for g in assignment]
            for phi, g in zip(problem.states, new_assignment):
                assert np.linalg.norm(shifted @ phi - g * phi) < 1e-8
            assert abs(new_assignment[0] - new_assignment[1]) > 0


class TestOracle:
    def test_feasible_orthogonal(self):
        residual, assignment = numeric_feasibility_oracle(recognition_problem(), (-1.0, 0.0, 1.0))
        assert residual < 1e-9
        assert assignment[0] != assignment[1]

    def test_symmetric_chain_bound(self):
        problem = superposition_discrimination_problem(SYM, SYM)
        residual, _ = numeric_feasibility_oracle(problem, (-1.0, 0.0, 1.0))
        assert residual >= 0.05

    def test_degenerate_bound(self):
        problem = superposition_discrimination_problem(1.0, 0.0)
        residual, _ = numeric_feasibility_oracle(problem, (-1.0, 0.0, 1.0))
        assert residual >= 0.05

    def test_grid_validation(self):
        with pytest.raises(ValidationError):
            numeric_feasibility_oracle(recognition_problem(), (1.0,))
        problem = superposition_discrimination_problem(SYM, SYM)
        with pytest.raises(ValidationError):
            numeric_feasibility_oracle(problem, (0.0, 1.0))


@pytest.mark.parametrize("grid", [(0.0, math.nan, 1.0), (0.0, math.inf, 1.0),
                                  (-math.inf, 0.0), (math.nan, math.nan)])
def test_non_finite_grid_rejected(grid):
    with pytest.raises(ValidationError, match="eigenvalue grid values must be finite"):
        numeric_feasibility_oracle(recognition_problem(), grid)


def loop_design_matrix(states, dim):
    """The column-by-column reference for the oracle's design matrix."""
    m = len(states)
    a = np.zeros((2 * dim * m, dim * dim))
    col = 0
    for i in range(dim):
        for k, phi in enumerate(states):
            v = np.zeros(dim, dtype=complex)
            v[i] = phi[i]
            a[2 * dim * k: 2 * dim * k + dim, col] = v.real
            a[2 * dim * k + dim: 2 * dim * (k + 1), col] = v.imag
        col += 1
    for i in range(dim):
        for j in range(i + 1, dim):
            for part in (1.0, 1.0j):
                for k, phi in enumerate(states):
                    v = np.zeros(dim, dtype=complex)
                    v[i] = part * phi[j]
                    v[j] = np.conj(part) * phi[i]
                    a[2 * dim * k: 2 * dim * k + dim, col] = v.real
                    a[2 * dim * k + dim: 2 * dim * (k + 1), col] = v.imag
                col += 1
    return a


def full_space_residual(problem):
    """The least-squares residual of an assignment over Hermitian G on the full space."""
    dim, states = problem.space_dim, problem.states
    u, s, _ = np.linalg.svd(loop_design_matrix(states, dim), full_matrices=False)
    q = u[:, :int(np.sum(s > 1e-10 * (s[0] if s.size else 0.0)))]

    def residual(assignment):
        b = np.zeros(2 * dim * len(states))
        for k, phi in enumerate(states):
            target = assignment[k] * phi
            b[2 * dim * k: 2 * dim * k + dim] = target.real
            b[2 * dim * k + dim: 2 * dim * (k + 1)] = target.imag
        r = b - q @ (q.T @ b)
        return float(r @ r)

    return residual


def full_space_oracle(problem, eigenvalue_grid):
    """The reference oracle: the full-space least squares of every grid assignment, in a loop."""
    grid = sorted(set(float(v) for v in eigenvalue_grid))
    groups = problem.distinct_groups
    m = len(problem.states)
    grouped = {i for g in groups for i in g}
    free = [i for i in range(m) if i not in grouped]
    residual_of = full_space_residual(problem)
    best, best_assignment = np.inf, None
    for group_vals in permutations(grid, len(groups)):
        for free_vals in product(grid, repeat=len(free)):
            g = np.zeros(m)
            for gi, idxs in enumerate(groups):
                for i in idxs:
                    g[i] = group_vals[gi]
            for fi, i in enumerate(free):
                g[i] = free_vals[fi]
            residual = residual_of(g)
            if residual < best:
                best, best_assignment = residual, tuple(float(v) for v in g)
    return best, best_assignment


def _span_problems():
    """Problems whose states are no basis of their span: more states than dims, repeats, dependence."""
    plus = (BASIS_1 + BASIS_2) * SYM
    e = np.eye(4, dtype=complex)
    dep = (e[0] + 1j * e[1]) * SYM
    psi = full_chain(Scenario(0.6, 0.8j, "pure")).vector
    return {
        "three_in_dim_2": DiscriminationProblem(2, (BASIS_1, BASIS_2, plus), ((0,), (1,), (2,))),
        "three_in_dim_2_one_free": DiscriminationProblem(2, (BASIS_1, BASIS_2, plus), ((0,), (1,))),
        "repeated": DiscriminationProblem(8, (psi, psi, full_chain(Scenario(1.0, 0.0)).vector),
                                          ((0,), (1,), (2,))),
        "repeated_same_group": DiscriminationProblem(8, (psi, psi), ((0, 1),)),
        "dependent": DiscriminationProblem(4, (e[0], e[1], dep, e[2]), ((0,), (1,), (2,))),
        "dependent_free": DiscriminationProblem(4, (e[0], e[1], dep, e[2]), ((0, 3), (2,))),
    }


class TestOracleInTheSpan:
    """The oracle solves in the states' span; a full-space loop is the reference."""

    GRID = (0.0, 1.0, 2.0)

    @staticmethod
    def _check(problem, grid):
        residual, assignment = numeric_feasibility_oracle(problem, grid)
        reference, _ = full_space_oracle(problem, grid)
        assert residual >= 0.0
        assert abs(residual - reference) <= 1e-12
        assert abs(full_space_residual(problem)(assignment) - reference) <= 1e-12
        return residual, reference

    @pytest.mark.parametrize("phase", [1.0, np.exp(2.5j)], ids=["real", "complex"])
    @pytest.mark.parametrize("weight", [0.0, 1e-12, 1e-6, 0.3, 0.5, 1.0 - 1e-6, 1.0])
    def test_no_go_problem(self, weight, phase):
        problem = superposition_discrimination_problem(
            math.sqrt(weight), math.sqrt(1.0 - weight) * phase)
        residual, _ = self._check(problem, self.GRID)
        assert residual >= 0.05

    def test_recognition_problem(self):
        residual, _ = self._check(recognition_problem(), self.GRID)
        assert residual < 1e-20

    @pytest.mark.parametrize("grid", [(0.0, 1.0, 2.0, 3.0), (-1.5, 0.25, 2.0, 7.0)])
    def test_random_problems(self, grid):
        rng = np.random.default_rng(1717)
        for _ in range(200):
            problem, feasible = random_discrimination_problem(rng)
            residual, reference = self._check(problem, grid)
            assert (residual < 1e-6) == (reference < 1e-6) == feasible

    @pytest.mark.parametrize("name", sorted(_span_problems()))
    def test_states_outside_a_basis(self, name):
        problem = _span_problems()[name]
        self._check(problem, (0.0, 1.0, 2.0, 3.0))


class TestDesignMatrix:
    @pytest.mark.parametrize("a1,a2", [
        (1e-12, 1.0), (1e-6, -1.0), (0.6, 0.8j), (SYM, SYM),
        (math.sqrt(0.3), math.sqrt(0.7) * np.exp(2.5j)), (1.0, 0.0),
    ])
    def test_superposition_problem_equals_the_loop(self, a1, a2):
        problem = superposition_discrimination_problem(a1, a2)
        assert np.array_equal(_hermitian_design_matrix(problem.states, 8),
                              loop_design_matrix(problem.states, 8))

    def test_recognition_and_random_problems_equal_the_loop(self):
        problems = [recognition_problem()]
        rng = np.random.default_rng(71)
        problems += [random_discrimination_problem(rng)[0] for _ in range(20)]
        for problem in problems:
            assert np.array_equal(_hermitian_design_matrix(problem.states, problem.space_dim),
                                  loop_design_matrix(problem.states, problem.space_dim))


class TestSolverOracleAgreement:
    def test_agreement_over_random_problems(self):
        rng = np.random.default_rng(2026)
        grid = (0.0, 1.0, 2.0, 3.0)
        n_feasible = n_infeasible = 0
        for _ in range(200):
            problem, expected_feasible = random_discrimination_problem(rng)
            result = check_eigen_discrimination(problem)
            assert result.feasible == expected_feasible
            residual, _ = numeric_feasibility_oracle(problem, grid)
            assert (residual < 1e-6) == result.feasible
            if expected_feasible:
                n_feasible += 1
                obs, assignment = result.witness
                for phi, g in zip(problem.states, assignment):
                    assert np.linalg.norm(obs.matrix @ phi - g * phi) < 1e-9
                for ga, gb in zip(problem.distinct_groups, problem.distinct_groups[1:]):
                    assert abs(assignment[ga[0]] - assignment[gb[0]]) >= 1.0
            else:
                n_infeasible += 1
                assert verify_certificate(problem, result)
        assert n_feasible >= 50 and n_infeasible >= 50


class TestITObservable:
    def test_symmetric_chain_state_is_unit_eigenvector(self):
        it = build_it_observable()
        psi = full_chain(Scenario(SYM, SYM, "pure")).vector
        assert np.linalg.norm(it.observable.matrix @ psi - psi) < 1e-12

    def test_spectrum(self):
        it = build_it_observable()
        spec = it.observable.spectral
        assert [value for value, _ in spec.groups] == pytest.approx([1.0, 0.0, -1.0])
        assert [len(idx) for _, idx in spec.groups] == [1, 6, 1]
        # symmetric about zero, traceless, Hermitian
        assert_allclose(sorted(spec.eigenvalues), sorted(-spec.eigenvalues), atol=1e-12)
        assert abs(np.trace(it.observable.matrix)) < 1e-12

    def test_swaps_branch_products(self):
        it = build_it_observable()
        psi_1 = full_chain(Scenario(1.0, 0.0, "pure")).vector
        psi_2 = full_chain(Scenario(0.0, 1.0, "pure")).vector
        assert_allclose(it.observable.matrix @ psi_1, psi_2, atol=1e-12)
