import math
import tracemalloc
import warnings
from itertools import combinations, permutations, product

import numpy as np
import pytest
from helpers import planted_problem, random_discrimination_problem
from numpy.testing import assert_allclose

from mschain import discriminate
from mschain.chain import BASIS_1, BASIS_2, Scenario, _basis_chains, decohere, full_chain
from mschain.discriminate import (
    DiscriminationProblem,
    FeasibilityResult,
    ForcedEquality,
    MergeEvidence,
    ObservableSpec,
    build_it_observable,
    build_pointer_algebra,
    check_eigen_discrimination,
    combine_observable,
    numeric_feasibility_oracle,
    recognition_problem,
    superposition_discrimination_problem,
    verify_certificate,
)
from mschain.errors import CapacityError, ValidationError
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

    @pytest.mark.parametrize("coefficients", [
        (math.nan, 0.0, 0.0), (0.0, 0.0, math.nan),  # the norm check fails a NaN
        (True, False, False), (0.0, True, 0.0),  # a bool is not a coefficient
        ("1", 0.0, 0.0), (None, 1.0, 0.0), (1j, 0.0, 0.0),
        (1e200, 0.0, 0.0), (np.float64(1e200), 0.0, 0.0),  # squares past the float range
        (10**400, 0.0, 0.0),
    ])
    def test_rejects_nan_and_non_real_coefficients(self, coefficients):
        with pytest.raises(ValidationError):
            ObservableSpec(*coefficients)

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

    @pytest.mark.parametrize("a1,conflicts", [
        (1.16e-12, [(0, 1, ["dependence"]), (0, 2, ["overlap"]), (1, 2, ["dependence"])]),
        (1.15e-12, [(0, 2, ["overlap"])]),
    ])
    def test_certificate_seam(self, a1, conflicts):
        # NULL_SPACE_FLOOR against the admissible space's second singular value,
        # about 0.866 * a1: below 1e-12 / 0.866 the dependence pins no pair with
        # the superposition, and the one overlap conflict g0 = g2 is the proof
        problem = superposition_discrimination_problem(a1, math.sqrt(1.0 - a1 * a1))
        result = check_eigen_discrimination(problem)
        assert [(f.group_a, f.group_b, [ev.kind for ev in f.chain])
                for f in result.certificate] == conflicts
        assert verify_certificate(problem, result)

    def test_dependence_pairs_on_planted_problems(self):
        rng = np.random.default_rng(27)
        n_pinned = n_infeasible = 0
        for _ in range(300):
            problem = planted_problem(rng)
            m = len(problem.states)
            pairs, null_basis = discriminate._dependence_forced_pairs(problem.states)
            projector = null_basis @ null_basis.conj().T
            complement = np.eye(m) - projector

            def violation(g):
                return np.linalg.norm(complement @ (g[:, None] * null_basis))

            # the admissibility of g is the Laplacian of P's off-diagonal graph
            g = np.sqrt(np.arange(1.0, m + 1))
            laplacian = sum(abs(projector[j, k]) ** 2 * (g[j] - g[k]) ** 2
                            for j, k in combinations(range(m), 2))
            assert violation(g) ** 2 == pytest.approx(laplacian, rel=1e-9, abs=1e-24)
            # every g constant on the classes of the pinned pairs is admissible;
            # the class indicators span those g, and the violation is linear in g
            label = list(range(m))
            for j, k in pairs:
                label = [label[j] if x == label[k] else x for x in label]
            for c in set(label):
                assert violation(np.array([float(x == c) for x in label])) <= 1e-9
            result = check_eigen_discrimination(problem)
            if not result.feasible:
                assert verify_certificate(problem, result)
            n_pinned += bool(pairs)
            n_infeasible += not result.feasible
        assert n_pinned >= 100 and 100 <= n_infeasible <= 250

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

    @pytest.mark.parametrize("space_dim,states", [
        (2.0, (BASIS_1, BASIS_2)), (True, (np.ones(1),))], ids=["float", "bool"])
    def test_non_integer_space_dim_rejected(self, space_dim, states):
        with pytest.raises(ValidationError, match="space_dim must be an integer"):
            DiscriminationProblem(space_dim, states, ((0,),))

    @pytest.mark.parametrize("index", [0.0, 0.5, True])
    def test_non_integer_group_index_rejected(self, index):
        with pytest.raises(ValidationError, match="is not an integer in range"):
            DiscriminationProblem(2, (BASIS_1, BASIS_2), ((index,),))

    def test_groups_that_are_not_sequences_rejected(self):
        with pytest.raises(ValidationError, match="a sequence of index sequences"):
            DiscriminationProblem(2, (BASIS_1, BASIS_2), (0, 1))

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


def _decohered_no_go(n_env, eps):
    """The no-go instance on the chain and both branch chains, each with n_env
    environment elements of overlap eps."""
    chains = (full_chain(Scenario(0.6, 0.8, "pure")), *_basis_chains())
    states = tuple(decohere(chain, n_env, eps)[n_env].state.vector for chain in chains)
    return DiscriminationProblem(len(states[0]), states, ((0,), (1,), (2,)))


class TestNoGoAtEveryDimension:
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("n_env", range(10))
    def test_infeasible_in_memory_linear_in_dim(self, n_env, eps):
        problem = _decohered_no_go(n_env, eps)
        tracemalloc.start()
        try:
            result = check_eigen_discrimination(problem)
            verified = verify_certificate(problem, result)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.verdict == "INFEASIBLE"
        assert [[ev.kind for ev in forced.chain] for forced in result.certificate] == \
            [["overlap"], ["overlap"], ["dependence"]]
        assert verified
        # the states' column stack, the SVD's working copy and its U: three
        # dim x states complex arrays, and no dim x dim one (256 MiB at 4096)
        assert peak < 3 * 16 * len(problem.states) * problem.space_dim + 2**16


class TestFeasibleWitnessMemory:
    def test_peak_is_three_dense_arrays(self):
        # the witness, and the conjugate copy and difference of the Hermitian check
        dim = 1024
        e = np.eye(dim, 2, dtype=complex)
        problem = DiscriminationProblem(dim, (e[:, 0], e[:, 1]), ((0,), (1,)))
        tracemalloc.start()
        try:
            result = check_eigen_discrimination(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.feasible
        assert peak < 3 * 16 * dim * dim + 2**20


def _near_repeat_problem(leak: float, step: float) -> DiscriminationProblem:
    """e0 in one group and e1 in another, with b = e1 + leak e0 + step e2
    (normalized) free. b's overlap with e0 stays under OVERLAP_TOL, so b joins
    e1's class, whose span has the relative singular value of about step / 2 in
    the direction of b - e1."""
    e = np.eye(3, dtype=complex)
    b = e[1] + leak * e[0] + step * e[2]
    return DiscriminationProblem(3, (e[0], e[1], b / np.linalg.norm(b)), ((0,), (1,)))


def _repeat_pair_problem(step: float) -> DiscriminationProblem:
    """Three groups of e0, e1 and {e2, e2 + step e3} (normalized): the near-repeat
    pair is the class of value 2."""
    e = np.eye(4, dtype=complex)
    c = e[2] + step * e[3]
    return DiscriminationProblem(4, (e[0], e[1], e[2], c / np.linalg.norm(c)),
                                 ((0,), (1,), (2, 3)))


class TestFeasibleWitness:
    """FEASIBLE problems on which a projector-sum witness with a rank cut on each
    class span fails. Cut at OVERLAP_TOL * s[0], it keeps the direction of b - e1,
    10% along e0 at step 5e-10. Cut at WITNESS_TOL * s[0], it keeps that direction
    past step 2e-9, and drops the repeat pair's direction at step 1.5e-9, missing
    the class of value 2 by step. The least-squares witness has no cut.
    """

    @staticmethod
    def _assert_witnessed(problem):
        result = check_eigen_discrimination(problem)
        assert result.verdict == "FEASIBLE"
        obs, assignment = result.witness
        for phi, g in zip(problem.states, assignment):
            assert np.linalg.norm(obs.matrix @ phi - g * phi) <= discriminate.WITNESS_TOL
        residual, _ = numeric_feasibility_oracle(problem, (0.0, 1.0, 2.0, 3.0))
        assert residual < 1e-6

    @pytest.mark.parametrize("leak,step,cut_side", [
        (5e-11, 5e-10, "between"),  # the reduced problem: 2.5e-10, between the two cuts
        (5e-11, 1.9e-9, "between"),
        (5e-11, 2.1e-9, "over"),
        (5e-11, 1e-6, "over"),
        (1e-18, 2.1e-9, "over"),
    ])
    def test_near_repeat_beside_another_class(self, leak, step, cut_side):
        problem = _near_repeat_problem(leak, step)
        s = np.linalg.svd(np.column_stack(problem.states[1:]), compute_uv=False)
        rel = s[1] / s[0]
        assert rel > discriminate.OVERLAP_TOL
        assert (rel > discriminate.WITNESS_TOL) == (cut_side == "over")
        self._assert_witnessed(problem)

    @pytest.mark.parametrize("step", [1e-10, 1.5e-9, 1.9e-9, 2.1e-9])
    def test_near_repeat_pair_of_value_two(self, step):
        self._assert_witnessed(_repeat_pair_problem(step))

    def test_planted_problem_7_2791(self):
        rng = np.random.default_rng(7)
        for _ in range(2792):
            problem = planted_problem(rng)
        self._assert_witnessed(problem)

    @pytest.mark.parametrize("seed", [43, 44, 45])
    def test_projector_sum_on_orthogonal_classes(self, seed):
        # classes {0, 1} and {2} of orthonormal columns, with state 1 a mix of two
        # columns: the witness is 0 on the first class's span and 1 on the second
        rng = np.random.default_rng(seed)
        q, _ = np.linalg.qr(rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5)))
        mixed = (q[:, 0] + 2j * q[:, 3]) / math.sqrt(5)
        problem = DiscriminationProblem(5, (q[:, 0], mixed, q[:, 2]), ((0, 1), (2,)))
        obs, assignment = check_eigen_discrimination(problem).witness
        assert assignment == (0.0, 0.0, 1.0)
        assert_allclose(obs.matrix, np.outer(q[:, 2], q[:, 2].conj()), atol=1e-15)


class TestVerifyCertificateRejects:
    """Each tampered certificate fails the one check it breaks; the untampered one passes."""

    @staticmethod
    def _tampered(problem, forced):
        return verify_certificate(problem, FeasibilityResult("INFEASIBLE", certificate=(forced,)))

    def test_missing_certificate(self):
        problem = superposition_discrimination_problem(SYM, SYM)
        assert verify_certificate(problem, check_eigen_discrimination(problem))
        assert not verify_certificate(problem, FeasibilityResult("INFEASIBLE"))
        assert not verify_certificate(problem, FeasibilityResult("INFEASIBLE", certificate=()))
        assert not verify_certificate(recognition_problem(),
                                      check_eigen_discrimination(recognition_problem()))

    def test_empty_chain(self):
        problem = superposition_discrimination_problem(SYM, SYM)
        assert not self._tampered(problem, ForcedEquality(0, 1, ()))

    def test_overlap_on_an_orthogonal_pair(self):
        problem = superposition_discrimination_problem(SYM, SYM)
        assert self._tampered(problem, ForcedEquality(0, 1, (MergeEvidence("overlap", 0, 1),)))
        # the two branch products are orthogonal
        assert not self._tampered(problem, ForcedEquality(1, 2, (MergeEvidence("overlap", 1, 2),)))

    def test_dependence_that_does_not_vanish(self):
        problem = superposition_discrimination_problem(SYM, SYM)
        (forced,) = [f for f in check_eigen_discrimination(problem).certificate
                     if f.chain[0].kind == "dependence"]
        assert self._tampered(problem, forced)
        ev = forced.chain[0]
        wrong = tuple(tuple(-c if k == 0 else c for k, c in enumerate(coeffs))
                      for coeffs in ev.detail)  # psi's coefficient flipped: the sum is -2 c_0 psi
        assert not self._tampered(problem, ForcedEquality(
            forced.group_a, forced.group_b, (MergeEvidence("dependence", ev.i, ev.j, wrong),)))

    def test_dependence_pair_not_forced(self):
        # e2 is independent of the dependent triple e0, e1, (e0 + i e1) / sqrt 2
        e = np.eye(4, dtype=complex)
        problem = DiscriminationProblem(4, (e[0], e[1], (e[0] + 1j * e[1]) * SYM, e[2]),
                                        ((0,), (1,), (2,), (3,)))
        detail = next(ev.detail for f in check_eigen_discrimination(problem).certificate
                      for ev in f.chain if ev.kind == "dependence")
        assert self._tampered(problem, ForcedEquality(0, 1, (
            MergeEvidence("dependence", 0, 1, detail),)))
        assert not self._tampered(problem, ForcedEquality(0, 3, (
            MergeEvidence("dependence", 0, 3, detail),)))

    def test_same_group_across_two_groups(self):
        # the chain walks from group 0's state 0 through its state 1 to state 2
        problem = DiscriminationProblem(2, (BASIS_1, BASIS_2, BASIS_2), ((0, 1), (2,)))
        assert self._tampered(problem, ForcedEquality(0, 1, (
            MergeEvidence("same-group", 0, 1), MergeEvidence("overlap", 1, 2, (1.0,)))))
        assert not self._tampered(problem, ForcedEquality(0, 1, (
            MergeEvidence("same-group", 1, 2),)))

    # on the chain's no-go problem state 0 is the superposition, group k is state k,
    # and the superposition overlaps each branch product, which are orthogonal

    def test_chain_walks_between_the_named_groups_in_either_order(self):
        problem = superposition_discrimination_problem(0.6, 0.8)
        for chain in ((MergeEvidence("overlap", 0, 1), MergeEvidence("overlap", 0, 2)),
                      (MergeEvidence("overlap", 1, 0), MergeEvidence("overlap", 2, 0))):
            assert self._tampered(problem, ForcedEquality(1, 2, chain))
            assert self._tampered(problem, ForcedEquality(2, 1, chain[::-1]))
            # each evidence holds, but the walk from group 1 cannot start at state 2
            assert not self._tampered(problem, ForcedEquality(1, 2, chain[::-1]))
        assert self._tampered(problem, ForcedEquality(1, 0, (MergeEvidence("overlap", 0, 1),)))

    def test_chain_that_does_not_link_the_named_groups(self):
        problem = superposition_discrimination_problem(0.6, 0.8)
        assert self._tampered(problem, ForcedEquality(0, 1, (MergeEvidence("overlap", 0, 1),)))
        assert not self._tampered(problem, ForcedEquality(1, 2, (MergeEvidence("overlap", 0, 1),)))
        assert not self._tampered(problem, ForcedEquality(0, 2, (MergeEvidence("overlap", 0, 1),)))

    def test_a_group_against_itself(self):
        problem = superposition_discrimination_problem(0.6, 0.8)
        assert not self._tampered(problem, ForcedEquality(1, 1, (MergeEvidence("overlap", 0, 1),)))
        assert not self._tampered(problem, ForcedEquality(1, 1, (
            MergeEvidence("overlap", 0, 1), MergeEvidence("overlap", 0, 1))))

    @pytest.mark.parametrize("group_a, group_b",
                             [(0, 7), (7, 0), (-1, 0), (0, 3), (0.0, 1), (0, 1.0)])
    def test_group_index_out_of_range(self, group_a, group_b):
        problem = superposition_discrimination_problem(0.6, 0.8)
        assert not self._tampered(problem, ForcedEquality(group_a, group_b, (
            MergeEvidence("overlap", 0, 1),)))

    @pytest.mark.parametrize("i, j", [(0, 9), (9, 0), (0, -2), (3, 1), (0.0, 1), (0, 1.0)])
    def test_state_index_out_of_range(self, i, j):
        problem = superposition_discrimination_problem(0.6, 0.8)
        for kind in ("overlap", "same-group", "dependence"):
            assert not self._tampered(problem, ForcedEquality(0, 1, (MergeEvidence(kind, i, j),)))

    def test_dependence_coefficients_past_the_states(self):
        problem = superposition_discrimination_problem(SYM, SYM)
        (forced,) = [f for f in check_eigen_discrimination(problem).certificate
                     if f.chain[0].kind == "dependence"]
        ev = forced.chain[0]
        longer = tuple(coeffs + (0.0,) for coeffs in ev.detail)
        assert not self._tampered(problem, ForcedEquality(
            forced.group_a, forced.group_b, (MergeEvidence("dependence", ev.i, ev.j, longer),)))

    def test_dependence_coefficients_that_overflow(self):
        # finite coefficients whose combination's norm overflows: False, and no
        # RuntimeWarning, which pytest's filter would raise
        problem = superposition_discrimination_problem(SYM, SYM)
        (forced,) = [f for f in check_eigen_discrimination(problem).certificate
                     if f.chain[0].kind == "dependence"]
        ev = forced.chain[0]
        huge = tuple(tuple(c * 1e308 for c in coeffs) for coeffs in ev.detail)
        assert all(math.isfinite(abs(c)) for coeffs in huge for c in coeffs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert not self._tampered(problem, ForcedEquality(
                forced.group_a, forced.group_b, (MergeEvidence("dependence", ev.i, ev.j, huge),)))

    def test_unknown_kind(self):
        problem = superposition_discrimination_problem(SYM, SYM)
        assert not self._tampered(problem, ForcedEquality(0, 1, (MergeEvidence("guess", 0, 1),)))

    # malformed evidence reads False, never an exception; (1.0, 2.0, 3.0) is
    # well formed but does not vanish, so it reads False at every step too

    @pytest.mark.parametrize("detail", [
        ((math.nan, math.nan, math.nan),),
        ((1.0, math.inf, 0.0),),
        ((1.0, 2.0, 3.0),),
        (5,),
        5,
        (("a", "b", "c"),),
        ((1.0, 2.0, 3.0), (1.0, 2.0)),
        (),
        None,
    ], ids=["nan", "inf", "nonzero", "int-row", "scalar", "strings", "ragged", "empty", "none"])
    def test_malformed_dependence_detail(self, detail):
        problem = superposition_discrimination_problem(0.6, 0.8)
        assert not self._tampered(problem, ForcedEquality(1, 2, (
            MergeEvidence("dependence", 1, 2, detail),)))

    @pytest.mark.parametrize("certificate", [
        (None,),
        (ForcedEquality(1, 2, (None,)),),
        (ForcedEquality(1, 2, (MergeEvidence("overlap", 0, 1), None)),),
        (ForcedEquality(1, 2, None),),
        (ForcedEquality(1, 2, 5),),
        (ForcedEquality(1, 2, [MergeEvidence("overlap", 0, 1), MergeEvidence("overlap", 0, 2)]),),
        5,
        [ForcedEquality(1, 2, (MergeEvidence("overlap", 0, 1), MergeEvidence("overlap", 0, 2)))],
    ], ids=["none-entry", "none-evidence", "none-after-evidence", "none-chain", "int-chain",
            "list-chain", "int-certificate", "list-certificate"])
    def test_malformed_entries(self, certificate):
        problem = superposition_discrimination_problem(0.6, 0.8)
        assert not verify_certificate(problem, FeasibilityResult("INFEASIBLE",
                                                                 certificate=certificate))


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
        # a string, None, an int past the float range, a bool and a scalar grid
        for grid in (("a", 1.0), (None, 1.0), (10**400, 1.0), (False, True), "01", 3.0):
            with pytest.raises(ValidationError, match="eigenvalue grid"):
                numeric_feasibility_oracle(recognition_problem(), grid)


class TestOracleCap:
    def test_enumeration_past_the_cap_refused_before_building(self):
        # 20 ungrouped states on a 3-value grid: 3**20, about 3.5e9, assignments
        problem = DiscriminationProblem(2, (BASIS_1,) * 20, ())
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="3486784401 assignments of 20 states"):
                numeric_feasibility_oracle(problem, (0.0, 1.0, 2.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_cap_edge(self, monkeypatch):
        # 2 * max(assignments, states) * span dim * states entries: the chain's 3 states
        # in a span of dim 3 reach the edge through the residual table, and two groups
        # of 2 orthonormal states, 2 assignments of 4 states, through the tensor p
        chain = superposition_discrimination_problem(0.6, 0.8)
        for problem, grid, edge, shape in (
                (chain, (-1.0, 0.0, 1.0), 108, "6 assignments of 3 states in a span of dim 3"),
                (chain, (-1.0, 0.0, 1.0, 2.0, 3.0, 4.0), 2160,
                 "120 assignments of 3 states in a span of dim 3"),
                (_orthonormal_groups(2), (0.0, 1.0), 64,
                 "2 assignments of 4 states in a span of dim 2"),
        ):
            monkeypatch.undo()
            expected = numeric_feasibility_oracle(problem, grid)
            monkeypatch.setattr(discriminate, "MAX_ORACLE_ENTRIES", edge)
            assert numeric_feasibility_oracle(problem, grid) == expected
            monkeypatch.setattr(discriminate, "MAX_ORACLE_ENTRIES", edge - 1)
            with pytest.raises(CapacityError, match=f"{shape} needs {edge} entries"):
                numeric_feasibility_oracle(problem, grid)


def _orthonormal_groups(m):
    """Two groups of m orthonormal states each in dim m: a span of dim m, 2 assignments
    on the grid (0, 1) and a tensor p of 2 * (2 * m)**2 * m entries."""
    rng = np.random.default_rng(m)
    bases = [np.linalg.qr(rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m)))[0]
             for _ in range(2)]
    return DiscriminationProblem(m, tuple(v for q in bases for v in q.T),
                                 (tuple(range(m)), tuple(range(m, 2 * m))))


@pytest.mark.parametrize("m", [16, 32, 80])
def test_two_orthonormal_bases_miss_by_half_their_dim(m):
    # one basis at 0, the other at 1: tr(A^2) + tr((A - I)^2) is least at A = I / 2,
    # where it is m / 2; span 80 is the largest under MAX_ORACLE_ENTRIES
    residual, assignment = numeric_feasibility_oracle(_orthonormal_groups(m), (0.0, 1.0))
    assert abs(residual - m / 2) <= 1e-12 * m
    assert sorted({assignment[0], assignment[m]}) == [0.0, 1.0]


class TestOracleMemory:
    def test_no_array_outlives_a_call(self):
        problems = [_orthonormal_groups(m) for m in (16, 24, 32)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            for problem in problems:
                tracemalloc.reset_peak()
                numeric_feasibility_oracle(problem, (0.0, 1.0))
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert current - before < 2**20
        # span 32: p and the temporary it is made from, each 64 x 64 x 32 complex
        # (2 MiB), and room for one more such array
        assert peak <= 3 * 16 * 64 * 64 * 32

    def test_residual_table_held_once_near_the_cap(self):
        # the chain's 3 groups of one state in a span of dim 3, on a 62-value grid:
        # perm(62, 3) = 226,920 assignments and 4,084,560 entries, just under the cap
        problem = superposition_discrimination_problem(0.6, 0.8)
        grid = tuple(float(v) for v in range(62))
        assignments = math.perm(len(grid), 3)
        entries = 2 * assignments * 3 * 3
        assert entries <= discriminate.MAX_ORACLE_ENTRIES < entries * 1.03
        table_bytes = 8 * entries  # the residual table g @ e: float64 Re and Im parts
        tracemalloc.start()
        try:
            numeric_feasibility_oracle(problem, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # squared in place, the table is held once: with g and the assignment rows
        # the peak is about 1.8 tables, and a squared copy beside it made 2.8
        assert peak < 2 * table_bytes

    def test_span_past_the_cap_refused_before_building(self):
        problem = _orthonormal_groups(81)  # 2 * 162 * 81 * 162 = 4,251,528 entries
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="needs 4251528 entries in one array"):
                numeric_feasibility_oracle(problem, (0.0, 1.0))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16


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

    @staticmethod
    def _weakest_links(problem, result):
        """Per conflict, the smallest overlap or projector entry along its chain."""
        phi = np.column_stack(problem.states)
        null_basis = discriminate._dependence_forced_pairs(problem.states)[1]
        strength = {"overlap": np.abs(phi.conj().T @ phi),
                    "dependence": np.abs(null_basis @ null_basis.conj().T)}
        return [min((strength[ev.kind][ev.i, ev.j] for ev in f.chain if ev.kind in strength),
                    default=math.inf) for f in result.certificate]

    def test_agreement_over_planted_problems(self):
        # the oracle's residual is about the square of the weakest link it has to
        # break, so an INFEASIBLE verdict resting in every conflict on a link below
        # 1e-3 may read feasible to it; every other verdict must agree
        rng = np.random.default_rng(27)
        grid = (0.0, 1.0, 2.0, 3.0)
        n_weak = 0
        for _ in range(300):
            problem = planted_problem(rng)
            result = check_eigen_discrimination(problem)
            residual, _ = numeric_feasibility_oracle(problem, grid)
            if (residual < 1e-6) != result.feasible:
                assert not result.feasible
                assert max(self._weakest_links(problem, result)) < 1e-3
                n_weak += 1
        assert n_weak <= 5

    def test_clusters_joined_only_below_the_tolerances(self):
        # two clusters of near-repeats, {0, 1, 3} and {2, 4}, with groups (3,) and
        # (4,): their cross overlaps (3e-11 to 6e-11) are under OVERLAP_TOL and
        # their cross projector entries (5e-12 to 1.5e-11) only just over
        # NULL_SPACE_FLOOR. The admissible space pins no pair across them, so the
        # verdict is FEASIBLE, as the oracle finds; a rule reading P's entries
        # against NULL_SPACE_FLOOR alone would join the clusters
        rng = np.random.default_rng(11)
        for _ in range(2883):
            problem = planted_problem(rng)
        result = check_eigen_discrimination(problem)
        assert result.verdict == "FEASIBLE"
        residual, _ = numeric_feasibility_oracle(problem, (0.0, 1.0, 2.0, 3.0))
        assert residual < 1e-6


class TestITObservable:
    def test_symmetric_chain_state_is_unit_eigenvector(self):
        it = build_it_observable()
        psi = full_chain(Scenario(SYM, SYM, "pure")).vector
        assert np.linalg.norm(it.matrix @ psi - psi) < 1e-12

    def test_spectrum(self):
        it = build_it_observable()
        spec = it.spectral
        assert [value for value, _ in spec.groups] == pytest.approx([1.0, 0.0, -1.0])
        assert [len(idx) for _, idx in spec.groups] == [1, 6, 1]
        # symmetric about zero, traceless, Hermitian
        assert_allclose(sorted(spec.eigenvalues), sorted(-spec.eigenvalues), atol=1e-12)
        assert abs(np.trace(it.matrix)) < 1e-12

    def test_swaps_branch_products(self):
        it = build_it_observable()
        psi_1 = full_chain(Scenario(1.0, 0.0, "pure")).vector
        psi_2 = full_chain(Scenario(0.0, 1.0, "pure")).vector
        assert_allclose(it.matrix @ psi_1, psi_2, atol=1e-12)
