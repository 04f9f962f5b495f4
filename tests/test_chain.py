import functools
import math
import re
from fractions import Fraction
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mschain import chain
from mschain.chain import (
    BASIS_1,
    BASIS_2,
    Gemenge,
    MSState,
    PREMEASURE_GENERATOR,
    PREMEASURE_UNITARY,
    READY_STATE,
    Scenario,
    _attach,
    decohere,
    factorize_branch,
    full_chain,
    object_detector_state,
    pointer_branch_amplitudes,
    premeasure,
    premeasure_hamiltonian_fidelity,
    prepare_gemenge,
    prepare_object_state,
    scenario_digest,
    statistical_restriction,
)
from mschain.discriminate import ObservableSpec, build_pointer_algebra, combine_observable
from mschain.errors import (
    CapacityError,
    DecompositionError,
    PreconditionError,
    UsageError,
    ValidationError,
)
from mschain.linalg import (
    TensorLayout,
    _kron,
    _kron_rows,
    hermitian_part,
    partial_trace,
    unitary_exp,
)
from mschain.sampling import sample_gemenge, trial_uniforms

SYM = 2**-0.5


def sd_ready_state(a1, a2):
    vec = np.kron(prepare_object_state(a1, a2), READY_STATE)
    return MSState(vec, TensorLayout((("S", 2), ("D", 2))))


class TestPrepare:
    def test_eigenstate(self):
        assert_allclose(prepare_object_state(1.0, 0.0), BASIS_1)

    def test_symmetric(self):
        assert_allclose(prepare_object_state(SYM, SYM), [SYM, SYM])

    def test_complex_amplitudes(self):
        vec = prepare_object_state(0.6, 0.8j)
        assert_allclose(np.abs(vec) ** 2, [0.36, 0.64], atol=1e-12)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            prepare_object_state(1.0, 1.0)

    def test_gemenge_symmetric(self):
        w = prepare_gemenge(SYM, SYM)
        assert [p for _, p in w.branches] == pytest.approx([0.5, 0.5])
        assert_allclose(w.branches[0][0].vector, BASIS_1)
        assert_allclose(w.branches[1][0].vector, BASIS_2)

    def test_gemenge_degenerate_amplitude(self):
        w = prepare_gemenge(1.0, 0.0)
        assert len(w.branches) == 1
        assert w.branches[0][1] == pytest.approx(1.0)
        assert w.notes  # degeneracy is flagged, not an error

    def test_gemenge_squared_moduli(self):
        w = prepare_gemenge(np.sqrt(0.3), np.sqrt(0.7))
        assert [p for _, p in w.branches] == pytest.approx([0.3, 0.7])


class TestPremeasure:
    def test_eigenstate_maps_to_pointer(self):
        out = premeasure(sd_ready_state(1.0, 0.0), "S", "D")
        assert_allclose(out.vector, np.kron(BASIS_1, BASIS_1), atol=1e-12)

    def test_superposition_entangles(self):
        a1, a2 = 0.6, 0.8j
        out = premeasure(sd_ready_state(a1, a2), "S", "D")
        expected = a1 * np.kron(BASIS_1, BASIS_1) + a2 * np.kron(BASIS_2, BASIS_2)
        assert_allclose(out.vector, expected, atol=1e-12)

    def test_unitary(self):
        assert_allclose(
            PREMEASURE_UNITARY.conj().T @ PREMEASURE_UNITARY, np.eye(4), atol=1e-12
        )

    def test_norm_preserved(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            a /= np.linalg.norm(a)
            out = premeasure(sd_ready_state(a[0], a[1]), "S", "D")
            assert abs(np.linalg.norm(out.vector) - 1.0) < 1e-12

    def test_ready_state_enforced(self):
        vec = np.kron(BASIS_1, BASIS_1)  # apparatus already collapsed
        state = MSState(vec, TensorLayout((("S", 2), ("D", 2))))
        with pytest.raises(PreconditionError):
            premeasure(state, "S", "D")

    @pytest.mark.parametrize("label", ["S", "D"])
    def test_control_equal_to_apparatus_is_a_usage_error(self, label):
        with pytest.raises(UsageError, match="two different factors"):
            premeasure(sd_ready_state(0.6, 0.8), label, label)

    @pytest.mark.parametrize("step", ["S->D", "D->O"])
    @pytest.mark.parametrize("shortfall, raises", [(2e-10, True), (5e-11, False)])
    def test_ready_fidelity_at_its_tolerance(self, step, shortfall, raises):
        # an apparatus of fidelity 1 - shortfall with the ready state
        orthogonal = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)
        factor = math.sqrt(1.0 - shortfall) * READY_STATE + math.sqrt(shortfall) * orthogonal
        if step == "S->D":
            control, apparatus = "S", "D"
            state = MSState(prepare_object_state(0.6, 0.8j), TensorLayout((("S", 2),)))
        else:
            control, apparatus = "D", "O"
            state = object_detector_state(0.6, 0.8j)
        state = _attach(state, apparatus, factor)
        if raises:
            with pytest.raises(PreconditionError, match=f"{apparatus!r} is not in the ready state"):
                premeasure(state, control, apparatus)
        else:
            out = premeasure(state, control, apparatus)
            assert out.layout == state.layout

    @pytest.mark.parametrize("dims", [(2, 3), (3, 2)])
    def test_non_qubit_factor_is_a_usage_error(self, dims):
        vec = np.zeros(dims[0] * dims[1], dtype=complex)
        vec[0] = 1.0
        state = MSState(vec, TensorLayout((("S", dims[0]), ("D", dims[1]))))
        with pytest.raises(UsageError, match="two-dimensional"):
            premeasure(state, "S", "D")


def _moveaxis_premeasure(state: MSState, c: int, a: int) -> np.ndarray:
    """The premeasurement as a product with PREMEASURE_UNITARY by `np.moveaxis`, the reference."""
    moved = np.moveaxis(state.vector.reshape(state.layout.dims), (c, a), (0, 1))
    block = PREMEASURE_UNITARY @ moved.reshape(4, -1)
    return np.moveaxis(block.reshape(moved.shape), (0, 1), (c, a)).reshape(-1)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_premeasure_bit_identical_to_moveaxis(n):
    # the butterflies round apart from the 4x4 product's kernel, within 1e-15; an
    # apparatus reading other than its control's basis state is exactly 0
    rng = np.random.default_rng(100 + n)
    layout = TensorLayout(tuple((f"F{k}", 2) for k in range(n)))
    for c in range(n):
        for a in range(n):
            if a == c:
                continue
            for _ in range(3):
                rest = rng.normal(size=2 ** (n - 1)) + 1j * rng.normal(size=2 ** (n - 1))
                rest /= np.linalg.norm(rest)
                # the apparatus factor sits in the ready state at position a
                tensor = np.multiply.outer(rest.reshape((2,) * (n - 1)), READY_STATE)
                state = MSState(np.moveaxis(tensor, -1, a).reshape(-1), layout)
                out = premeasure(state, f"F{c}", f"F{a}")
                assert np.max(np.abs(out.vector - _moveaxis_premeasure(state, c, a))) <= 1e-15
                moved = np.moveaxis(out.vector.reshape(layout.dims), (c, a), (0, 1))
                assert not moved[0, 1].any() and not moved[1, 0].any()
                assert out.layout == layout


class TestFullChain:
    def test_symmetric_pure(self):
        ms = full_chain(Scenario(SYM, SYM, "pure"))
        expected = np.zeros(8, dtype=complex)
        expected[0] = expected[7] = SYM
        assert_allclose(ms.vector, expected, atol=1e-12)
        assert ms.layout.labels == ("S", "D", "O")

    @pytest.mark.parametrize("entangled", [False, True])
    def test_product_check_bit_identical_to_np_kron(self, monkeypatch, entangled):
        if entangled:
            ms = full_chain(Scenario(0.6, 0.8j, "pure"))
        else:
            parts = (prepare_object_state(0.6, 0.8j), READY_STATE, READY_STATE)
            ms = MSState(functools.reduce(np.kron, parts), TensorLayout((("S", 2), ("D", 2), ("O", 2))))
        products = []

        def spy(aa, bb):
            products.append((aa, bb, _kron(aa, bb)))
            return products[-1][2]

        monkeypatch.setattr(chain, "_kron", spy)
        if entangled:
            with pytest.raises(PreconditionError) as info:
                factorize_branch(ms)
        else:
            found = list(factorize_branch(ms).values())
        factors = (products[0][0], products[0][1], products[1][1])
        if not entangled:
            assert all(np.array_equal(a, b) for a, b in zip(found, factors, strict=True))
        # the checked product, and the fidelity an entangled state reports, are np.kron's
        reference = functools.reduce(np.kron, factors)
        assert len(products) == 2 and np.array_equal(products[1][2], reference)
        if entangled:
            fidelity = abs(np.vdot(reference, ms.vector)) ** 2
            assert f"(product fidelity {fidelity!r})" in str(info.value)

    def test_eigenstate_gives_product(self):
        ms = full_chain(Scenario(1.0, 0.0, "pure"))
        expected = np.zeros(8, dtype=complex)
        expected[0] = 1.0
        assert_allclose(ms.vector, expected, atol=1e-12)
        factors = factorize_branch(ms)
        for label in ("S", "D", "O"):
            assert_allclose(factors[label], BASIS_1, atol=1e-12)

    def test_gemenge_chain(self):
        w = full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7), "gemenge"))
        assert isinstance(w, Gemenge)
        assert [p for _, p in w.branches] == pytest.approx([0.3, 0.7])
        for i, (branch, _) in enumerate(w.branches):
            expected = np.zeros(8, dtype=complex)
            expected[0 if i == 0 else 7] = 1.0
            assert_allclose(branch.vector, expected, atol=1e-12)

    def test_intermediate_detector_state(self):
        sd = object_detector_state(0.6, 0.8j)
        expected = 0.6 * np.kron(BASIS_1, BASIS_1) + 0.8j * np.kron(BASIS_2, BASIS_2)
        assert_allclose(sd.vector, expected, atol=1e-12)


class TestRestrictions:
    @pytest.mark.parametrize("theta", np.linspace(0.05, np.pi / 2 - 0.05, 8))
    def test_statistical_restriction_diag(self, theta):
        a1, a2 = np.cos(theta), np.sin(theta)
        ms = full_chain(Scenario(a1, a2, "pure"))
        assert_allclose(
            statistical_restriction(ms), np.diag([a1**2, a2**2]), atol=1e-12
        )

    def test_product_restriction_is_pure(self):
        ms = full_chain(Scenario(0.0, 1.0, "pure"))
        assert_allclose(statistical_restriction(ms), np.diag([0.0, 1.0]), atol=1e-12)

    def test_gemenge_density_restriction(self):
        w = full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7), "gemenge"))
        rho = statistical_restriction(w)
        assert_allclose(rho, np.diag([0.3, 0.7]), atol=1e-12)

    def test_gemenge_restriction_is_the_partial_trace_of_its_density(self):
        w = full_chain(Scenario(0.6, 0.8, "gemenge"))
        rho = statistical_restriction(w)
        assert np.array_equal(rho, partial_trace(w.density(), w.layout, ("O",)))
        assert_allclose(rho, np.diag([0.36, 0.64]), atol=1e-12)

    @staticmethod
    def _decohered_gemenge(n_env):
        states = [decohere(full_chain(Scenario(a1, a2, "pure")), n_env, 0.7)[n_env].state
                  for a1, a2 in ((0.6, 0.8), (0.8, 0.6j))]
        return Gemenge(((states[0], 0.3), (states[1], 0.7)))

    @pytest.mark.parametrize("n_env", range(7))
    def test_gemenge_restriction_matches_the_dense_reference(self, n_env):
        w = self._decohered_gemenge(n_env)
        dense = partial_trace(w.density(), w.layout, ("O",))
        assert np.max(np.abs(statistical_restriction(w) - dense)) < 1e-12
        # a chain's S, D and O are reduced alike: a random branch tells O from the others
        rng = np.random.default_rng(n_env)
        v = rng.normal(size=w.layout.total_dim) + 1j * rng.normal(size=w.layout.total_dim)
        w = Gemenge(((w.branches[0][0], 0.2), (w.branches[1][0], 0.3),
                     (MSState(v / np.linalg.norm(v), w.layout), 0.5)))
        rho = statistical_restriction(w)
        dense = partial_trace(w.density(), w.layout, ("O",))
        assert np.max(np.abs(rho - dense)) < 1e-12
        assert not np.allclose(rho, partial_trace(w.density(), w.layout, ("S",)))

    def test_gemenge_restriction_at_the_cap_forms_no_density(self):
        w = self._decohered_gemenge(9)
        assert w.layout.total_dim == 4096
        tracemalloc.start()
        try:
            rho = statistical_restriction(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the dense density alone would take 256 MiB
        assert peak < 2**20
        assert rho.shape == (2, 2)
        assert_allclose(np.trace(rho), 1.0, atol=1e-12)

    def test_missing_observer_factor(self):
        state = MSState(np.kron(BASIS_1, BASIS_1), TensorLayout((("S", 2), ("D", 2))))
        with pytest.raises(UsageError):
            statistical_restriction(state)

    def test_restriction_phase_blind(self):
        # equal moduli, any relative phase: identical observer restriction
        base = statistical_restriction(full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7), "pure")))
        for phi in np.linspace(0.0, 2 * np.pi, 12):
            a2 = np.sqrt(0.7) * np.exp(1j * phi)
            rho = statistical_restriction(full_chain(Scenario(np.sqrt(0.3), a2, "pure")))
            assert np.max(np.abs(rho - base)) < 1e-12


def _no_build(*args):
    raise AssertionError("decohere built a tag for rejected arguments")


@pytest.fixture
def no_build(monkeypatch):
    """A chain state, built before every tensor product is made to fail, so a
    `decohere` check on it must come before the first tag."""
    ms = full_chain(Scenario(0.6, 0.8, "pure"))
    monkeypatch.setattr(chain, "_kron", _no_build)
    monkeypatch.setattr(chain, "_kron_rows", _no_build)
    return ms


def _gathered_decohere(state: MSState, n_env: int, eps: float):
    """The sweep with each basis state's tag gathered by its observer index,
    kept as the reference: (vector, layout, reduced_ms, coherence_factor) per entry."""
    env = np.array([[1.0, 0.0], [eps, math.sqrt(max(0.0, 1.0 - eps * eps))]], dtype=complex)
    o_pos = state.layout.position("O")
    dims = state.layout.dims
    stride = int(np.prod(dims[o_pos + 1:], dtype=int))
    o_index = (np.arange(state.dim) // stride) % dims[o_pos]
    tags = np.ones((2, 1), dtype=complex)
    layout = state.layout
    entries = []
    for n in range(n_env + 1):
        if n:
            tags = _kron_rows(tags, env)
            layout = layout.extended(f"E{n}", 2)
        m = state.vector[:, None] * tags[o_index]
        entries.append((m.reshape(-1), layout, hermitian_part(m @ m.conj().T),
                        float(np.vdot(tags[0], tags[1]).real)))
    return entries


def _random_state(factors):
    layout = TensorLayout(factors)
    rng = np.random.default_rng(31)
    vector = rng.normal(size=layout.total_dim) + 1j * rng.normal(size=layout.total_dim)
    return MSState(vector / np.linalg.norm(vector), layout)


# (state, n_env up to the cap); entry n of a sweep does not depend on its n_env
_DECOHERE_CASES = {
    "chain": (lambda: full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7) * np.exp(2j), "pure")), 9),
    "O first": (lambda: _random_state((("O", 2), ("S", 2), ("D", 2))), 9),
    "O middle": (lambda: _random_state((("S", 2), ("O", 2), ("D", 2))), 9),
    "O last": (lambda: _random_state((("S", 2), ("D", 2), ("O", 2))), 9),
    "extra factor after O": (lambda: _random_state((("S", 2), ("O", 2), ("D", 2), ("X", 3))), 7),
    "extra factor before O": (lambda: _random_state((("X", 3), ("S", 2), ("D", 2), ("O", 2))), 7),
}


class TestDecohere:
    @pytest.mark.parametrize("case", sorted(_DECOHERE_CASES))
    def test_broadcast_bit_identical_to_the_gather(self, case):
        make_state, n_env = _DECOHERE_CASES[case]
        state = make_state()
        for eps in (0.0, 0.5, 0.9, 1.0):
            results = decohere(state, n_env, eps)
            reference = _gathered_decohere(state, n_env, eps)
            assert len(results) == len(reference) == n_env + 1
            for result, (vector, layout, reduced, overlap) in zip(results, reference):
                assert np.array_equal(result.state.vector, vector)
                assert result.state.layout == layout
                assert np.array_equal(result.reduced_ms, reduced)
                assert result.coherence_factor == overlap

    def test_enlarged_state_is_built_once(self):
        ms = full_chain(Scenario(0.6, 0.8, "pure"))
        for result in decohere(ms, 3, 0.5):
            state = result.state
            assert result.state is state
            assert np.shares_memory(state.vector, result.m)

    @pytest.mark.parametrize("o_dim", [1, 3])
    @pytest.mark.parametrize("o_first", [True, False], ids=["O first", "O last"])
    def test_observer_factor_not_two_dimensional(self, monkeypatch, o_dim, o_first):
        factors = (("O", o_dim), ("S", 2)) if o_first else (("S", 2), ("O", o_dim))
        vector = np.zeros(2 * o_dim, dtype=complex)
        vector[0] = 1.0
        state = MSState(vector, TensorLayout(factors))
        monkeypatch.setattr(chain, "_kron_rows", _no_build)
        with pytest.raises(UsageError, match=f"two-dimensional observer factor, not dim {o_dim}"):
            decohere(state, 2, 0.5)

    def test_missing_observer_factor(self, monkeypatch):
        state = MSState(np.kron(BASIS_1, BASIS_1), TensorLayout((("S", 2), ("D", 2))))
        monkeypatch.setattr(chain, "_kron_rows", _no_build)
        with pytest.raises(UsageError, match="unknown factor label 'O'"):
            decohere(state, 2, 0.5)

    def test_unit_overlap_changes_nothing(self):
        ms = full_chain(Scenario(SYM, SYM, "pure"))
        for n_env in (0, 1, 3):
            result = decohere(ms, n_env, 1.0)[n_env]
            assert result.coherence_factor == pytest.approx(1.0)
            assert np.max(np.abs(result.reduced_ms - ms.density())) < 1e-12

    def test_orthogonal_environment_diagonalizes(self):
        ms = full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7), "pure"))
        w = full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7), "gemenge"))
        result = decohere(ms, 1, 0.0)[-1]
        assert np.max(np.abs(result.reduced_ms - w.density())) < 1e-12

    def test_product_overlap_law_cross_checked(self):
        ms = full_chain(Scenario(SYM, SYM, "pure"))
        result = decohere(ms, 4, 0.5)[-1]
        assert result.coherence_factor == pytest.approx(0.0625)
        # oracle: the explicit partial trace must scale every pointer
        # off-diagonal element by the same product of per-element overlaps
        rho0 = ms.density()
        expected = rho0.copy()
        expected[0, 7] *= 0.0625
        expected[7, 0] *= 0.0625
        assert np.max(np.abs(result.reduced_ms - expected)) < 1e-12

    @pytest.mark.parametrize("n_env", [7, 8, 9])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 0.9])
    def test_product_overlap_law_up_to_the_cap(self, n_env, eps):
        ms = full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7) * np.exp(2j), "pure"))
        result = decohere(ms, n_env, eps)[n_env]
        assert result.state.dim == 8 * 2**n_env
        assert result.coherence_factor == pytest.approx(eps**n_env, abs=1e-15)
        expected = ms.density()
        expected[0, 7] *= eps**n_env
        expected[7, 0] *= eps**n_env
        assert np.max(np.abs(result.reduced_ms - expected)) < 1e-12

    @pytest.mark.parametrize("n_env", range(10))
    def test_bit_identical_to_the_np_kron_construction(self, n_env):
        # every entry n of one call against tags from np.kron's general-rank
        # products at its own n, the layout one factor at a time
        ms = full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7) * np.exp(2j), "pure"))
        for eps in (0.0, 0.5, 0.9, 1.0):
            results = decohere(ms, n_env, eps)
            assert len(results) == n_env + 1
            env_states = (np.array([1.0, 0.0], dtype=complex),
                          np.array([eps, math.sqrt(max(0.0, 1.0 - eps * eps))], dtype=complex))
            layout = ms.layout
            for n, result in enumerate(results):
                if n:
                    layout = layout.extended(f"E{n}", 2)
                tags = np.array([functools.reduce(np.kron, (env,) * n, np.ones(1, dtype=complex))
                                 for env in env_states])
                vector = (ms.vector[:, None] * tags[np.arange(8) % 2]).reshape(-1)
                m = vector.reshape(8, -1)  # S, D, O lead the layout
                assert np.array_equal(result.state.vector, vector)
                assert np.array_equal(result.reduced_ms, hermitian_part(m @ m.conj().T))
                assert result.coherence_factor == float(np.vdot(tags[0], tags[1]).real)
                assert result.state.layout == layout
                assert result.state.layout.labels == ("S", "D", "O") + tuple(
                    f"E{j + 1}" for j in range(n))

    def test_one_tag_step_per_element(self, monkeypatch):
        ms = full_chain(Scenario(SYM, SYM, "pure"))
        calls = []

        def counted(aa, bb):
            calls.append((aa.shape, bb.shape))
            return _kron_rows(aa, bb)

        monkeypatch.setattr(chain, "_kron_rows", counted)
        monkeypatch.setattr(chain, "_kron", _no_build)
        decohere(ms, 9, 0.5)
        assert calls == [((2, 2**n), (2, 2)) for n in range(9)]

    def test_memory_at_the_cap_stays_vector_sized(self):
        # the dense |psi><psi| at 4096 dims alone would take 256 MiB
        ms = full_chain(Scenario(SYM, SYM, "pure"))
        decohere(ms, 9, 0.5)
        tracemalloc.start()
        try:
            decohere(ms, 9, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20

    def test_pointer_product_states_are_fixed_points(self):
        for a1, a2 in ((1.0, 0.0), (0.0, 1.0)):
            ms = full_chain(Scenario(a1, a2, "pure"))
            for eps in (0.0, 0.3, 0.9, 1.0):
                for n_env in (0, 2, 5):
                    result = decohere(ms, n_env, eps)[n_env]
                    assert np.max(np.abs(result.reduced_ms - ms.density())) < 1e-12

    def test_enlarged_state_layout(self):
        ms = full_chain(Scenario(SYM, SYM, "pure"))
        result = decohere(ms, 3, 0.5)[-1]
        assert result.state.layout.labels == ("S", "D", "O", "E1", "E2", "E3")
        assert abs(np.linalg.norm(result.state.vector) - 1.0) < 1e-12

    def test_capacity(self):
        ms = full_chain(Scenario(SYM, SYM, "pure"))
        with pytest.raises(CapacityError):
            decohere(ms, 10, 0.5)

    @pytest.mark.parametrize("n_env", [10**5, 10**7])
    def test_huge_environment_is_a_capacity_error(self, n_env):
        # 8 * 2**n_env has too many digits to print; the check must not build it
        ms = full_chain(Scenario(SYM, SYM, "pure"))
        with pytest.raises(CapacityError, match=rf"2\*\*{n_env} exceeds"):
            decohere(ms, n_env, 0.5)

    def test_parameter_validation(self):
        ms = full_chain(Scenario(SYM, SYM, "pure"))
        with pytest.raises(ValidationError):
            decohere(ms, 2, 1.5)
        with pytest.raises(ValidationError):
            decohere(ms, -1, 0.5)

    @pytest.mark.parametrize("n_env", [2.0, 2.5, True])
    def test_non_integer_n_env_rejected_before_building(self, no_build, n_env):
        with pytest.raises(ValidationError, match="n_env must be an integer"):
            decohere(no_build, n_env, 0.5)

    @pytest.mark.parametrize("model", [
        full_chain(Scenario(0.6, 0.8, "gemenge")),
        full_chain(Scenario(0.6, 0.8, "pure")).vector,
        None,
    ], ids=["Gemenge", "ndarray", "None"])
    def test_non_chain_state_is_a_usage_error(self, no_build, model):
        with pytest.raises(UsageError, match=f"needs an MSState, not {type(model).__name__}"):
            decohere(model, 2, 0.5)

    @pytest.mark.parametrize("eps", [True, np.True_, "0.5", None, 0.5 + 0j],
                             ids=["bool", "np.bool_", "str", "None", "complex"])
    def test_non_real_eps_rejected_before_building(self, no_build, eps):
        with pytest.raises(ValidationError, match="environment overlap eps must be a real number"):
            decohere(no_build, 2, eps)

    def test_nan_eps_keeps_its_range_message(self, no_build):
        with pytest.raises(ValidationError, match=r"eps must lie in \[0, 1\]"):
            decohere(no_build, 2, float("nan"))

    @pytest.mark.parametrize("eps, same", [(np.float64(0.5), 0.5), (1, 1.0), (0, 0.0)])
    def test_other_real_eps_types_run_as_their_float(self, eps, same):
        ms = full_chain(Scenario(0.6, 0.8j, "pure"))
        for got, ref in zip(decohere(ms, 3, eps), decohere(ms, 3, same), strict=True):
            assert np.array_equal(got.state.vector, ref.state.vector)
            assert np.array_equal(got.reduced_ms, ref.reduced_ms)
            assert got.coherence_factor == ref.coherence_factor

    @pytest.mark.parametrize("case", ["S,D,O chain", "O,S,D chain", "O,S,D random"])
    def test_reduced_ms_is_the_trace_over_the_environment(self, case):
        # the Gram product m @ m^dagger against the state's own reduction and
        # the dense partial trace, also where the observer is not the last
        # factor; the eps**n law on every pair of basis states checks which tag each takes
        ms = full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7) * np.exp(2j), "pure"))
        if case == "S,D,O chain":
            state = ms
        else:
            layout = TensorLayout((("O", 2), ("S", 2), ("D", 2)))
            if case == "O,S,D chain":
                vector = ms.vector.reshape(2, 2, 2).transpose(2, 0, 1).reshape(-1)
            else:
                rng = np.random.default_rng(47)
                vector = rng.normal(size=8) + 1j * rng.normal(size=8)
                vector /= np.linalg.norm(vector)
            state = MSState(vector, layout)
        labels = state.layout.labels
        o_pos = labels.index("O")
        o_index = np.array([np.unravel_index(i, state.layout.dims)[o_pos] for i in range(8)])
        same_reading = o_index[:, None] == o_index[None, :]
        for eps in (0.0, 0.5, 0.9, 1.0):
            for n, result in enumerate(decohere(state, 4, eps)):
                assert result.state.layout.labels == labels + tuple(f"E{j + 1}" for j in range(n))
                assert np.array_equal(result.reduced_ms, result.state.reduced(labels))
                dense = partial_trace(result.state.density(), result.state.layout, labels)
                assert np.max(np.abs(result.reduced_ms - dense)) <= 1e-15
                law = state.density() * np.where(same_reading, 1.0, eps**n)
                assert np.max(np.abs(result.reduced_ms - law)) < 1e-14


class TestHamiltonianCrosscheck:
    def test_fidelity_is_one(self):
        assert premeasure_hamiltonian_fidelity() == pytest.approx(1.0, abs=1e-12)

    def test_tuned_on_eigenstate(self):
        evolved = unitary_exp(PREMEASURE_GENERATOR, 1.0) @ sd_ready_state(1.0, 0.0).vector
        overlap = abs(np.vdot(evolved, np.kron(BASIS_1, BASIS_1))) ** 2
        assert overlap > 1 - 1e-9

    def test_tuned_matches_premeasure_on_superposition(self):
        state = sd_ready_state(0.6, 0.8j)
        evolved = unitary_exp(PREMEASURE_GENERATOR, 1.0) @ state.vector
        canonical = premeasure(state, "S", "D")
        assert abs(np.vdot(canonical.vector, evolved)) ** 2 > 1 - 1e-9


class TestInvariants:
    def test_detector_observables_blind_to_purity(self):
        # every detector-scoped observable has equal expectations on the pure
        # entangled state and on the matching mixture
        a1, a2 = np.sqrt(0.3), np.sqrt(0.7) * np.exp(0.4j)
        sd_pure = object_detector_state(a1, a2)
        rho_d_pure = sd_pure.reduced(("D",))
        rho_d_mixed = np.diag([abs(a1) ** 2, abs(a2) ** 2]).astype(complex)
        alg = build_pointer_algebra()
        rng = np.random.default_rng(29)
        for _ in range(40):
            d = rng.normal(size=3)
            d /= np.linalg.norm(d)
            obs = combine_observable(alg, ObservableSpec(*d))
            lhs = np.trace(rho_d_pure @ obs.matrix).real
            rhs = np.trace(rho_d_mixed @ obs.matrix).real
            assert abs(lhs - rhs) < 1e-12

    def test_fixed_moduli_share_one_restriction(self):
        # fixed moduli, arbitrary phases: the observer restriction is one matrix
        rng = np.random.default_rng(31)
        for _ in range(10):
            theta = rng.uniform(0.1, np.pi / 2 - 0.1)
            base = None
            for phi in rng.uniform(0, 2 * np.pi, size=6):
                ms = full_chain(Scenario(np.cos(theta), np.sin(theta) * np.exp(1j * phi), "pure"))
                rho = statistical_restriction(ms)
                if base is None:
                    base = rho
                else:
                    assert np.max(np.abs(rho - base)) < 1e-12

    def test_pointer_branch_amplitudes(self):
        a1, a2 = 0.6, 0.8j
        ms = full_chain(Scenario(a1, a2, "pure"))
        b1, b2 = pointer_branch_amplitudes(ms)
        assert b1 == pytest.approx(a1, abs=1e-12)
        assert b2 == pytest.approx(a2, abs=1e-12)

    def test_pointer_branch_amplitudes_rejects_other_states(self):
        vec = np.zeros(8, dtype=complex)
        vec[1] = 1.0  # not a diagonal branch product
        state = MSState(vec, TensorLayout((("S", 2), ("D", 2), ("O", 2))))
        with pytest.raises(DecompositionError):
            pointer_branch_amplitudes(state)


class TestGemengeType:
    def test_probability_sum_enforced(self):
        w = full_chain(Scenario(SYM, SYM, "gemenge"))
        with pytest.raises(ValidationError):
            Gemenge(((w.branches[0][0], 0.5), (w.branches[1][0], 0.4)))

    def test_drop_negligible_branch(self):
        # prepare_gemenge's floor is the one place a branch is dropped
        w = prepare_gemenge(np.sqrt(1.0 - 1e-13), np.sqrt(1e-13))
        assert len(w.branches) == 1
        assert w.branches[0][1] == pytest.approx(1.0)
        assert any("vanishes" in note for note in w.notes)

    def test_mixed_layouts_rejected(self):
        sdo = full_chain(Scenario(1.0, 0.0, "pure"))
        sd = object_detector_state(0.0, 1.0)
        with pytest.raises(ValidationError, match="layouts"):
            Gemenge(((sdo, 0.5), (sd, 0.5)))

    @pytest.mark.parametrize("make, message", [
        (lambda a, b: ((a, "0.5"), (b, "0.5")), "a branch probability must be a real number"),
        (lambda a, b: ((a, None), (b, 1.0)), "a branch probability must be a real number"),
        (lambda a, b: ((a, 0.5 + 0j), (b, 0.5)), "a branch probability must be a real number"),
        (lambda a, b: ((a, True),), "a branch probability must be a real number"),
        (lambda a, b: ((a,),), "a gemenge branch must be an (MSState, probability) pair"),
        (lambda a, b: (a,), "a gemenge branch must be an (MSState, probability) pair"),
        (lambda a, b: a, "gemenge branches must be a sequence"),
    ], ids=["string", "none", "complex", "bool", "one-element-branch", "bare-state", "state-as-branches"])
    def test_malformed_branches_rejected(self, make, message):
        a, b = chain._basis_chains()
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}") as info:
            Gemenge(make(a, b))
        assert type(info.value) is ValidationError

    def test_lists_of_pairs_build_the_same_gemenge(self):
        a, b = chain._basis_chains()
        w = Gemenge(((a, 0.25), (b, 0.75)))
        for branches in ([(a, 0.25), (b, 0.75)], [[a, 0.25], [b, 0.75]], ([a, 0.25], (b, 0.75))):
            v = Gemenge(branches)
            assert v.branches == w.branches
            assert np.array_equal(statistical_restriction(v), statistical_restriction(w))
            assert np.array_equal(v.density(), w.density())
            assert v.born_table.outcomes == w.born_table.outcomes

    def test_huge_int_weight_rejected(self):
        a, _ = chain._basis_chains()
        with pytest.raises(ValidationError, match="past the float range"):
            Gemenge(((a, 10**400),))

    @pytest.mark.parametrize("weights", [(np.float64(0.25), 0.75), (Fraction(1, 4), Fraction(3, 4)),
                                         (np.float32(0.25), 0.75)], ids=["float64", "fraction", "float32"])
    def test_real_weights_of_other_types_kept_as_floats(self, weights):
        a, b = chain._basis_chains()
        w = Gemenge(((a, weights[0]), (b, weights[1])))
        assert all(type(p) is float for _, p in w.branches)
        rho = statistical_restriction(w)
        assert rho.dtype == complex
        assert np.array_equal(rho, statistical_restriction(Gemenge(((a, 0.25), (b, 0.75)))))
        (_, p), = Gemenge(((a, 1),)).branches
        assert type(p) is float and p == 1.0

    def test_floor_edge_branch_kept_through_the_chain(self):
        # p1 clears the floor, p1 / (1 + 5e-11) does not: a second floor after
        # chaining would drop the branch that prepare_gemenge kept
        p1 = 1.000000000001e-12
        scenario = Scenario(np.sqrt(p1), np.sqrt(1.0 + 5e-11 - p1), "gemenge")
        assert len(prepare_gemenge(scenario.a1, scenario.a2).branches) == 2
        w = full_chain(scenario)
        assert len(w.branches) == 2
        assert w.notes == ()


def _chained_reference(a1, a2) -> Gemenge:
    """The gemenge chained here from `prepare_gemenge`'s branches, with their weights."""
    w = prepare_gemenge(a1, a2)
    return Gemenge(tuple((chain._observe(chain._detect(state)), p) for state, p in w.branches),
                   w.notes)


# |a1|^2 at the edges, and one ulp-scale step either side of BRANCH_PROB_FLOOR
@pytest.mark.parametrize("phase", [0.0, math.pi, 0.7])
@pytest.mark.parametrize("weight", [0.0, 1e-15, 1e-12 * (1 - 2**-40), 1e-12 * (1 + 2**-40),
                                    1e-6, 0.3, 1.0 - 1e-6, 1.0])
def test_gemenge_weights_are_the_density_diagonal(weight, phase):
    a1, a2 = math.sqrt(weight), math.sqrt(1.0 - weight) * complex(math.cos(phase), math.sin(phase))
    weights, notes = chain._gemenge_weights(a1, a2)
    w = prepare_gemenge(a1, a2)
    assert np.array_equal(np.diag(np.array(weights, dtype=complex)), w.density())
    assert notes == w.notes


class TestBasisChains:
    # at 0.061 the renormalized weights miss a sum of 1 by an ulp, and the chain keeps them so
    @pytest.mark.parametrize("weight", [0.0, 1e-13, 1e-12, 1e-6, 0.061, 0.3, 1.0 - 1e-6, 1.0])
    def test_gemenge_bit_identical_to_chaining_its_branches(self, weight):
        a1 = math.sqrt(weight)
        a2 = math.sqrt(1.0 - weight) * complex(math.cos(0.7), math.sin(0.7))
        got = full_chain(Scenario(a1, a2, "gemenge"))
        ref = _chained_reference(a1, a2)
        kept = sum(abs(a) ** 2 >= chain.BRANCH_PROB_FLOOR for a in (a1, a2))
        assert len(got.branches) == len(ref.branches) == kept
        assert got.notes == ref.notes
        for (state, p), (ref_state, ref_p) in zip(got.branches, ref.branches, strict=True):
            assert np.array_equal(state.vector, ref_state.vector)
            assert state.layout == ref_state.layout
            assert p == ref_p
        assert np.array_equal(got.density(), ref.density())
        assert np.array_equal(statistical_restriction(got), statistical_restriction(ref))
        table, ref_table = got.born_table, ref.born_table
        assert table.weights == ref_table.weights
        assert np.array_equal(table.edges, ref_table.edges)
        assert table.outcomes == ref_table.outcomes

    def test_branch_vectors_are_read_only_constants(self):
        w = full_chain(Scenario(SYM, SYM, "gemenge"))
        later = full_chain(Scenario(0.6, 0.8j, "gemenge"))
        for (state, _), (again, _) in zip(w.branches, later.branches, strict=True):
            assert state is again
            with pytest.raises(ValueError):
                state.vector[0] = 5.0
        with pytest.raises(ValueError):
            w.branches[1][0].vector *= 2.0

    def test_each_basis_chain_factorized_at_most_once(self, monkeypatch):
        factorize_branch = chain.factorize_branch
        factorized = []

        def counting(state, *args):
            factorized.append(state)
            return factorize_branch(state, *args)

        monkeypatch.setattr(chain, "factorize_branch", counting)
        chain._basis_chains.cache_clear()
        gemenges = [full_chain(Scenario(SYM, SYM, "gemenge")),
                    full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7), "gemenge"))]
        drawn = {sample_gemenge(gemenges[k % 2], float(u))
                 for k, u in enumerate(trial_uniforms(3, np.arange(64)))}
        assert {(index, pattern.values) for index, pattern in drawn} == {(0, (0.5,)), (1, (-0.5,))}
        chains = chain._basis_chains()
        assert len(factorized) == 2
        assert all(any(state is basis for basis in chains) for state in factorized)
        assert factorized[0] is not factorized[1]

    def test_pointer_value_of_a_non_product_state(self):
        entangled = full_chain(Scenario(SYM, SYM, "pure"))
        for _ in range(2):  # a failed call caches nothing
            with pytest.raises(PreconditionError):
                entangled.pointer_value
        assert full_chain(Scenario(0.0, 1.0, "pure")).pointer_value == -0.5


class TestChainCuts:
    """Each named chain cut decides one way at 0.99 of its value and the other at 1.01."""

    LAYOUT = TensorLayout((("S", 2), ("D", 2), ("O", 2)))

    def test_product_fidelity(self):
        # D,O part sqrt(1 - eps)|00> + sqrt(eps)|11>: the factors' product has fidelity 1 - eps
        for scale, is_product in ((0.99, True), (1.01, False)):
            eps = scale * chain.PRODUCT_FIDELITY_TOL
            do_part = np.array([math.sqrt(1.0 - eps), 0.0, 0.0, math.sqrt(eps)])
            state = MSState(np.kron(BASIS_1, do_part), self.LAYOUT)
            if is_product:
                factors = factorize_branch(state)
                assert_allclose(factors["O"], BASIS_1, atol=1e-4)
            else:
                with pytest.raises(PreconditionError, match="product fidelity"):
                    factorize_branch(state)

    def test_pointer_weight(self):
        # observer cos(t)|1> + sin(t)|2> with sin(t)^2 = eps: its weight on |1> is 1 - eps
        for scale, reads in ((0.99, True), (1.01, False)):
            eps = scale * chain.POINTER_WEIGHT_TOL
            observer = np.array([math.sqrt(1.0 - eps), math.sqrt(eps)])
            state = MSState(np.kron(np.kron(BASIS_1, BASIS_1), observer), self.LAYOUT)
            if reads:
                assert state.pointer_value == chain.POINTER_EIGENVALUES[0]
            else:
                with pytest.raises(UsageError, match="not a pointer basis state"):
                    state.pointer_value

    def test_branch_residual(self):
        # a residual amplitude r at basis index 2, off both branch products
        for scale, spans in ((0.99, True), (1.01, False)):
            r = scale * chain.BRANCH_RESIDUAL_TOL
            vec = np.zeros(8, dtype=complex)
            vec[0], vec[2], vec[-1] = 0.6, r, 0.8j
            state = MSState(vec, self.LAYOUT)
            if spans:
                assert pointer_branch_amplitudes(state) == (0.6, 0.8j)
            else:
                with pytest.raises(DecompositionError, match="residual norm"):
                    pointer_branch_amplitudes(state)

    def test_values(self):
        assert chain.POINTER_WEIGHT_TOL == chain.PRODUCT_FIDELITY_TOL == 1e-10
        assert chain.BRANCH_RESIDUAL_TOL == 1e-10


class TestScenario:
    def test_validation(self):
        with pytest.raises(ValidationError):
            Scenario(1.0, 1.0)
        with pytest.raises(ValidationError):
            Scenario(SYM, SYM, "foo")
        with pytest.raises(ValidationError):
            Scenario(SYM, SYM, trials=0)
        with pytest.raises(ValidationError):
            Scenario(SYM, SYM, env_overlap=1.2)
        with pytest.raises(ValidationError):
            Scenario(SYM, SYM, n_env=-1)

    # each raised a bare OverflowError from the squared modulus
    @pytest.mark.parametrize("a1", [1e200, complex(1e200, 0), 10**400],
                             ids=["float", "complex", "huge-int"])
    def test_overflowing_amplitude_is_not_normalized(self, a1):
        with pytest.raises(ValidationError,
                           match="^amplitudes not normalized: .* deviates from 1 by inf$"):
            Scenario(a1, 0)

    def test_digest_stable_and_sensitive(self):
        s = Scenario(SYM, SYM, "pure", seed=7)
        assert scenario_digest(s) == scenario_digest(Scenario(SYM, SYM, "pure", seed=7))
        assert scenario_digest(s) != scenario_digest(Scenario(SYM, SYM, "pure", seed=8))


class TestAttachFactor:
    def test_layout_grows(self):
        ms = MSState(BASIS_1, TensorLayout((("S", 2),)))
        grown = _attach(ms, "D", READY_STATE)
        assert grown.layout.labels == ("S", "D")
        assert_allclose(grown.vector, np.kron(BASIS_1, READY_STATE))

    def test_capacity_respected(self):
        ms = MSState(BASIS_1, TensorLayout((("S", 2),)))
        with pytest.raises(CapacityError):
            _attach(ms, "X", np.ones(4096) / 64.0)

    def test_reaches_the_cap_and_fails_one_factor_past_it(self):
        ms = MSState(BASIS_1, TensorLayout((("S", 2),)))
        for k in range(11):
            ms = _attach(ms, f"E{k}", READY_STATE)
        assert ms.dim == 4096 and len(ms.layout.labels) == 12
        with pytest.raises(CapacityError, match="dimension 8192 exceeds the maximum 4096"):
            _attach(ms, "E11", READY_STATE)
