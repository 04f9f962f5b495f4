import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mschain.chain import MSState
from mschain.errors import CapacityError, UsageError, ValidationError
from mschain.linalg import (
    HermitianObservable,
    IDENTITY_2,
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    TensorLayout,
    _kron,
    _kron_rows,
    eig_hermitian,
    embed_operator,
    partial_trace,
    pure_density,
    unitary_exp,
    validate_state_vector,
)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def random_density(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho)


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return (a + a.conj().T) / 2


def branch_product_matrix():
    """The symmetric branch-swap operator built from explicit dyads."""
    e12 = np.outer(E1, E2.conj())
    term = np.kron(np.kron(e12, e12), e12)
    return term + term.conj().T


class TestTensorProduct:
    layout_ab = TensorLayout((("A", 2), ("B", 2)))

    def test_basis_index_case(self):
        assert_allclose(_kron(E1, E1), [1, 0, 0, 0])

    def test_identity_case(self):
        assert_allclose(embed_operator(IDENTITY_2, self.layout_ab, "A"), np.eye(4))

    def test_pauli_x_with_identity_against_index_formula(self):
        got = embed_operator(PAULI_X, self.layout_ab, "A")
        # independent oracle: apply the index convention entrywise
        expected = np.zeros((4, 4), dtype=complex)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        expected[i * 2 + k, j * 2 + l] = PAULI_X[i, j] * IDENTITY_2[k, l]
        assert_allclose(got, expected)
        assert_allclose(got[:2, 2:], IDENTITY_2)
        assert_allclose(got[2:, :2], IDENTITY_2)

    def test_associative_on_integer_matrices(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            a, b, c = (rng.integers(-3, 4, size=(2, 2)).astype(complex) for _ in range(3))
            left = _kron(_kron(a, b), c)
            right = _kron(a, _kron(b, c))
            assert np.array_equal(left, right)

    def test_capacity_error(self):
        big = np.eye(70, dtype=complex)
        with pytest.raises(CapacityError):
            _kron(big, big)

    def test_row_step_is_kron_row_by_row(self):
        rng = np.random.default_rng(5)
        for width in (1, 2, 8, 64):
            aa = rng.normal(size=(3, width)) + 1j * rng.normal(size=(3, width))
            bb = rng.normal(size=(3, 2)) + 1j * rng.normal(size=(3, 2))
            got = _kron_rows(aa, bb)
            assert got.shape == (3, 2 * width)
            for row, a, b in zip(got, aa, bb, strict=True):
                assert np.array_equal(row, _kron(a, b))

    def test_row_step_capacity_error(self):
        rows = np.ones((2, 2048), dtype=complex)
        assert _kron_rows(rows, np.ones((2, 2), dtype=complex)).shape == (2, 4096)
        with pytest.raises(CapacityError, match="8192 exceeds"):
            _kron_rows(rows, np.ones((2, 4), dtype=complex))

    def test_rejects_nonfinite(self):
        bad = np.array([[np.nan, 0], [0, 1]])
        with pytest.raises(ValidationError):
            embed_operator(bad, self.layout_ab, "A")


class TestPartialTrace:
    layout_ab = TensorLayout((("A", 2), ("B", 2)))

    def test_product_state(self):
        rng = np.random.default_rng(5)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 2)
        reduced = partial_trace(np.kron(rho_a, rho_b), self.layout_ab, ("A",))
        assert_allclose(reduced, rho_a, atol=1e-12)

    def test_maximally_entangled(self):
        bell = (np.kron(E1, E1) + np.kron(E2, E2)) / np.sqrt(2)
        for keep in ("A", "B"):
            reduced = partial_trace(pure_density(bell), self.layout_ab, (keep,))
            assert_allclose(reduced, np.eye(2) / 2, atol=1e-12)

    def test_entangled_chain_state_detector_reduction(self):
        a1, a2 = np.sqrt(0.3), np.sqrt(0.7)
        psi = a1 * np.kron(E1, E1) + a2 * np.kron(E2, E2)
        layout = TensorLayout((("S", 2), ("D", 2)))
        reduced = partial_trace(pure_density(psi), layout, ("D",))
        assert_allclose(reduced, np.diag([0.3, 0.7]), atol=1e-12)

    def test_product_invariant_random(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            da, db = rng.integers(2, 5), rng.integers(2, 5)
            rho_a = random_density(rng, da)
            rho_b = random_density(rng, db)
            layout = TensorLayout((("A", int(da)), ("B", int(db))))
            reduced = partial_trace(np.kron(rho_a, rho_b), layout, ("A",))
            assert np.max(np.abs(reduced - rho_a)) < 1e-12

    def test_trace_preserved_for_all_keep_sets(self):
        rng = np.random.default_rng(11)
        layout = TensorLayout((("A", 2), ("B", 3), ("C", 2)))
        rho = random_density(rng, 12)
        for keep in (("A",), ("B",), ("C",), ("A", "B"), ("A", "C"), ("B", "C")):
            reduced = partial_trace(rho, layout, keep)
            assert abs(np.trace(reduced) - np.trace(rho)) < 1e-12

    def test_keep_order_follows_layout(self):
        rng = np.random.default_rng(13)
        rho_a = random_density(rng, 2)
        rho_b = random_density(rng, 3)
        layout = TensorLayout((("A", 2), ("B", 3)))
        both = partial_trace(np.kron(rho_a, rho_b), layout, ("B", "A"))
        assert_allclose(both, np.kron(rho_a, rho_b), atol=1e-12)

    def test_unknown_label(self):
        with pytest.raises(UsageError):
            partial_trace(np.eye(4) / 4, self.layout_ab, ("X",))

    def test_empty_keep(self):
        with pytest.raises(UsageError):
            partial_trace(np.eye(4) / 4, self.layout_ab, ())


class TestReducedState:
    """A pure state's reduction from its vector, `MSState.reduced`, against the dense trace."""

    layout = TensorLayout((("A", 2), ("B", 3), ("C", 2), ("D", 2)))

    def test_matches_dense_partial_trace_for_every_keep_set(self):
        rng = np.random.default_rng(17)
        v = rng.normal(size=24) + 1j * rng.normal(size=24)
        v /= np.linalg.norm(v)
        rho = pure_density(v)
        labels = self.layout.labels
        subsets = [tuple(lab for k, lab in enumerate(labels) if mask >> k & 1)
                   for mask in range(1, 2 ** len(labels))]
        assert ("B", "D") in subsets and ("C",) in subsets  # non-leading, non-contiguous
        for keep in subsets:
            shuffled = tuple(rng.permutation(keep))
            expected = partial_trace(rho, self.layout, shuffled)
            reduced = MSState(v, self.layout).reduced(shuffled)
            assert reduced.shape == expected.shape
            assert np.max(np.abs(reduced - expected)) < 1e-12

    def test_single_label_string(self):
        rng = np.random.default_rng(19)
        v = rng.normal(size=24) + 1j * rng.normal(size=24)
        v /= np.linalg.norm(v)
        assert_allclose(MSState(v, self.layout).reduced("B"),
                        partial_trace(pure_density(v), self.layout, ("B",)), atol=1e-12)

    def test_empty_keep(self):
        with pytest.raises(UsageError):
            MSState(np.ones(24) / np.sqrt(24), self.layout).reduced(())

    def test_unknown_label(self):
        with pytest.raises(UsageError):
            MSState(np.ones(24) / np.sqrt(24), self.layout).reduced(("A", "X"))

    def test_length_mismatch(self):
        # a vector enters through MSState, so one of another length never reaches a reduction
        with pytest.raises(ValidationError):
            MSState(np.ones(12) / np.sqrt(12), self.layout)
        with pytest.raises(ValidationError):
            MSState(np.ones((24, 1)) / np.sqrt(24), self.layout)


class TestEigHermitian:
    def test_diagonal(self):
        spec = eig_hermitian(np.diag([3.0, -1.0]))
        assert_allclose(spec.eigenvalues, [3.0, -1.0])
        assert_allclose(np.abs(spec.vectors), np.eye(2), atol=1e-12)

    def test_pauli_x(self):
        spec = eig_hermitian(PAULI_X)
        assert_allclose(spec.eigenvalues, [1.0, -1.0])
        plus = spec.vectors[:, 0]
        assert_allclose(np.abs(np.vdot(plus, [1, 1]) / np.sqrt(2)), 1.0, atol=1e-12)

    def test_branch_swap_spectrum(self):
        # brute-force oracle on the explicitly constructed matrix
        b = branch_product_matrix()
        raw = np.sort(np.linalg.eigvalsh(b))
        assert_allclose(raw, [-1.0] + [0.0] * 6 + [1.0], atol=1e-12)

        spec = eig_hermitian(b)
        assert [value for value, _ in spec.groups] == pytest.approx([1.0, 0.0, -1.0])
        sizes = [len(idx) for _, idx in spec.groups]
        assert sizes == [1, 6, 1]

    def test_reconstruction_random(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            dim = int(rng.integers(2, 17))
            h = random_hermitian(rng, dim)
            spec = eig_hermitian(h)
            recon = (spec.vectors * spec.eigenvalues) @ spec.vectors.conj().T
            assert np.max(np.abs(recon - h)) < 1e-9
            gram = spec.vectors.conj().T @ spec.vectors
            assert np.max(np.abs(gram - np.eye(dim))) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            eig_hermitian(np.array([[0.0, 1.0], [0.0, 0.0]]))


class TestUnitaryExp:
    def test_zero_generator(self):
        assert_allclose(unitary_exp(np.zeros((3, 3)), 2.7), np.eye(3), atol=1e-12)

    def test_pauli_z_half_turn(self):
        assert_allclose(unitary_exp(PAULI_Z, np.pi), -np.eye(2), atol=1e-12)

    def test_pauli_x_quarter_turn_closed_form(self):
        theta = np.pi / 2
        got = unitary_exp(PAULI_X, theta)
        expected = np.cos(theta) * np.eye(2) - 1j * np.sin(theta) * PAULI_X
        assert_allclose(got, expected, atol=1e-12)
        assert_allclose(got, -1j * PAULI_X, atol=1e-12)

    def test_unitarity_random(self):
        rng = np.random.default_rng(19)
        for _ in range(20):
            h = random_hermitian(rng, 5)
            t = float(rng.normal())
            u = unitary_exp(h, t)
            assert np.max(np.abs(u @ unitary_exp(h, -t) - np.eye(5))) < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            unitary_exp(np.array([[0.0, 1.0], [0.0, 0.0]]), 1.0)


class TestValidators:
    def test_state_norm(self):
        validate_state_vector([1 / np.sqrt(2), 1j / np.sqrt(2)])
        with pytest.raises(ValidationError):
            validate_state_vector([1.0, 1.0])
        with pytest.raises(ValidationError):
            validate_state_vector([0.0, 0.0])

    def test_layout(self):
        with pytest.raises(ValidationError):
            TensorLayout((("A", 2), ("A", 2)))
        layout = TensorLayout((("A", 2), ("B", 3)))
        assert layout.total_dim == 6
        assert layout.position("B") == 1
        with pytest.raises(UsageError):
            layout.position("Z")

    @pytest.mark.parametrize("dim", [2.0, True, "2", np.bool_(True), np.float64(2.0)])
    def test_layout_dims_must_be_integers(self, dim):
        # a float dim built a layout of total_dim 8.0 whose reductions raised a bare TypeError
        with pytest.raises(ValidationError, match="factor dimensions must be integers"):
            TensorLayout((("S", dim), ("D", 2), ("O", 2)))

    def test_numpy_integer_layout_dim(self):
        layout = TensorLayout((("S", np.int64(2)), ("D", 2), ("O", 2)))
        assert layout.total_dim == 8
        state = MSState(np.eye(8, dtype=complex)[0], layout)
        assert_allclose(state.reduced(("O",)), np.diag([1.0, 0.0]))


class TestEmbedOperator:
    def test_middle_factor(self):
        layout = TensorLayout((("A", 2), ("B", 2), ("C", 2)))
        full = embed_operator(PAULI_Z, layout, "B")
        expected = np.kron(np.kron(np.eye(2), PAULI_Z), np.eye(2))
        assert_allclose(full, expected)

    def test_shape_mismatch(self):
        layout = TensorLayout((("A", 2), ("B", 3)))
        with pytest.raises(UsageError):
            embed_operator(PAULI_Z, layout, "B")

    def test_one_factor_result_does_not_alias_the_input(self):
        op = PAULI_X.copy()
        full = embed_operator(op, TensorLayout((("O", 2),)), "O")
        assert np.array_equal(full, PAULI_X)
        full[0, 1] = 5.0
        assert np.array_equal(op, PAULI_X)

    def test_capacity_checked_before_building_any_piece(self):
        # 2**13 = 8192 dims: the lifted operator alone would take 1 GiB
        layout = TensorLayout(tuple((f"F{k}", 2) for k in range(13)))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match="exceeds the maximum 4096"):
                embed_operator(PAULI_Z, layout, "F0")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


def _rotated(values, seed):
    """A Hermitian matrix with spectrum `values`, in a seeded random eigenbasis."""
    rng = np.random.default_rng(seed)
    n = len(values)
    q, _ = np.linalg.qr(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n)))
    return (q * np.asarray(values, dtype=float)) @ q.conj().T


class TestHermitianObservable:
    @pytest.mark.parametrize("values,sizes", [
        ([0.5, -0.5], [1, 1]),
        ([2.0, -1.0, 2.0], [1, 2]),
        ([3.0, 3.0, -1.0, 0.0, 0.0, 0.0, 5.0, -2.0], [1, 1, 3, 2, 1]),
    ])
    def test_blocks_ascend_in_value(self, values, sizes):
        obs = HermitianObservable(_rotated(values, len(values)))
        got = [value for value, _, _ in obs.blocks]
        assert all(a < b for a, b in zip(got, got[1:]))
        assert_allclose(got, sorted(set(values)), atol=1e-12)
        assert [block.shape[1] for _, block, _ in obs.blocks] == sizes
        for value, block, block_h in obs.blocks:
            assert_allclose(obs.matrix @ block, value * block, atol=1e-12)
            assert np.array_equal(block_h, block.conj().T)

    def test_spectral_cached(self):
        obs = HermitianObservable(PAULI_Y)
        assert obs.spectral is obs.spectral
        assert_allclose(obs.spectral.eigenvalues, [1.0, -1.0])

    def test_caller_array_changed_after_construction(self):
        # the constructor's check holds for `spectral`: the observable keeps its own copy
        matrix = PAULI_X.copy()
        obs = HermitianObservable(matrix)
        matrix[0, 1] = np.nan
        assert_allclose(obs.spectral.eigenvalues, [1.0, -1.0])
        assert not obs.matrix.flags.writeable
        assert PAULI_X.flags.writeable
