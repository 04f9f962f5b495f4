import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mschain.chain import (
    BASIS_1,
    BASIS_2,
    Scenario,
    full_chain,
    object_detector_state,
    prepare_gemenge,
    prepare_object_state,
    statistical_restriction,
)
from mschain.discriminate import (
    ObservableSpec,
    build_it_observable,
    build_pointer_algebra,
    combine_observable,
)
from mschain import metrics
from mschain.errors import DecompositionError, UsageError, ValidationError
from mschain.linalg import PAULI_X, PAULI_Y, pure_density
from mschain.metrics import (
    EigenDistribution,
    eigen_distribution,
    overlap_bc,
    overlap_tv,
    phase_averaged_purity_information,
    purity_information,
    purity_report,
    transverse_spin,
)

SYM = 2**-0.5


def spin_distributions(a1, a2):
    """Explicit spin-x distributions for the pure state and its mixture."""
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    phi = np.array([a1, a2], dtype=complex)
    w_pure = EigenDistribution(((-0.5, abs(np.vdot(minus, phi)) ** 2),
                                (0.5, abs(np.vdot(plus, phi)) ** 2)))
    w_mix = EigenDistribution(((-0.5, 0.5), (0.5, 0.5)))
    return w_pure, w_mix


class TestEigenDistribution:
    def test_symmetric_chain_state_under_interference_term(self):
        it = build_it_observable()
        psi = full_chain(Scenario(SYM, SYM, "pure"))
        dist = eigen_distribution(psi, it.observable)
        assert dist.probabilities[1.0] == pytest.approx(1.0, abs=1e-12)
        assert dist.probabilities[0.0] == pytest.approx(0.0, abs=1e-12)
        assert dist.probabilities[-1.0] == pytest.approx(0.0, abs=1e-12)

    def test_even_mixture_under_interference_term(self):
        it = build_it_observable()
        w = full_chain(Scenario(SYM, SYM, "gemenge"))
        dist = eigen_distribution(w.density(), it.observable)
        assert dist.probabilities[1.0] == pytest.approx(0.5, abs=1e-12)
        assert dist.probabilities[-1.0] == pytest.approx(0.5, abs=1e-12)
        assert dist.probabilities[0.0] == pytest.approx(0.0, abs=1e-12)

    def test_identity_observable(self):
        dist = eigen_distribution(BASIS_1, np.eye(2, dtype=complex))
        assert dist.entries == ((1.0, pytest.approx(1.0)),)

    def test_dim_mismatch(self):
        with pytest.raises(UsageError):
            eigen_distribution(BASIS_1, np.eye(4, dtype=complex))

    def test_validation(self):
        with pytest.raises(ValidationError):
            EigenDistribution(((0.5, 0.4), (0.5, 0.6)))
        with pytest.raises(ValidationError):
            EigenDistribution(((0.0, 0.7), (1.0, 0.7)))


class TestOverlaps:
    def test_identical_distributions(self):
        w = EigenDistribution(((-0.5, 0.3), (0.5, 0.7)))
        assert overlap_tv(w, w) == pytest.approx(1.0, abs=1e-12)
        assert overlap_bc(w, w) == pytest.approx(1.0, abs=1e-12)

    def test_disjoint_supports(self):
        w1 = EigenDistribution(((0.0, 1.0), (1.0, 0.0)))
        w2 = EigenDistribution(((0.0, 0.0), (1.0, 1.0)))
        assert overlap_tv(w1, w2) == 0.0
        assert overlap_bc(w1, w2) == 0.0

    @pytest.mark.parametrize("overlap", [overlap_tv, overlap_bc])
    @pytest.mark.parametrize("other", [
        ((1.0, 1.0),),  # another value
        ((0.0, 0.5), (1.0 + 1e-15, 0.5)),  # a value one rounding apart
        ((0.0, 0.5), (1.0, 0.5), (2.0, 0.0)),  # a value more
    ])
    def test_distributions_over_different_spectra_rejected(self, overlap, other):
        # an overlap pairs the two distributions of one observable slot by slot
        w1 = EigenDistribution(((0.0, 0.5), (1.0, 0.5)))
        with pytest.raises(UsageError, match="eigenvalues differ"):
            overlap(w1, EigenDistribution(other))
        with pytest.raises(UsageError, match="eigenvalues differ"):
            overlap(EigenDistribution(other), w1)

    def test_symmetric_spin_case(self):
        sx = transverse_spin(0.0)
        rho_pure = pure_density(prepare_object_state(SYM, SYM))
        rho_mix = prepare_gemenge(SYM, SYM).density()
        w_pure = eigen_distribution(rho_pure, sx)
        w_mix = eigen_distribution(rho_mix, sx)
        assert overlap_tv(w_pure, w_mix) == pytest.approx(0.5, abs=1e-12)
        assert overlap_bc(w_pure, w_mix) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)

    def test_unbalanced_amplitudes_against_explicit_distributions(self):
        a1, a2 = np.sqrt(0.8), np.sqrt(0.2)
        w_pure, w_mix = spin_distributions(a1, a2)  # oracle distributions
        oracle = sum(min(p, q) for (_, p), (_, q) in zip(w_pure.entries, w_mix.entries))
        assert oracle == pytest.approx(0.6, abs=1e-12)

        sx = transverse_spin(0.0)
        got = overlap_tv(eigen_distribution(pure_density(prepare_object_state(a1, a2)), sx),
                         eigen_distribution(prepare_gemenge(a1, a2).density(), sx))
        assert got == pytest.approx(oracle, abs=1e-12)
        assert got == pytest.approx(1 - a1 * a2, abs=1e-12)

    @pytest.mark.parametrize("theta", np.linspace(0.05, np.pi / 2 - 0.05, 20))
    def test_spin_x_overlap_law(self, theta):
        a1, a2 = np.cos(theta), np.sin(theta)
        sx = transverse_spin(0.0)
        w_pure = eigen_distribution(pure_density(prepare_object_state(a1, a2)), sx)
        w_mix = eigen_distribution(prepare_gemenge(a1, a2).density(), sx)
        assert overlap_tv(w_pure, w_mix) == pytest.approx(1 - abs(a1) * abs(a2), abs=1e-12)

    def test_pointer_eigenstates_fully_distinguishable(self):
        alg = build_pointer_algebra()
        w1 = eigen_distribution(BASIS_1, alg.q)
        w2 = eigen_distribution(BASIS_2, alg.q)
        assert overlap_tv(w1, w2) == pytest.approx(0.0, abs=1e-12)
        assert overlap_bc(w1, w2) == pytest.approx(0.0, abs=1e-12)

    def test_detector_family_blind(self):
        a1, a2 = np.sqrt(0.3), np.sqrt(0.7) * np.exp(1.1j)
        rho_d_pure = object_detector_state(a1, a2).reduced(("D",))
        rho_d_mix = np.diag([abs(a1) ** 2, abs(a2) ** 2]).astype(complex)
        alg = build_pointer_algebra()
        observables = [alg.q, alg.qx, alg.qy]
        for gamma in np.linspace(0, 2 * np.pi, 36, endpoint=False):
            obs = combine_observable(alg, ObservableSpec(
                0.0, float(np.cos(gamma)), float(np.sin(gamma))))
            assert_allclose(
                obs.matrix,
                np.cos(gamma) * alg.qx.matrix + np.sin(gamma) * alg.qy.matrix,
                atol=1e-12,
            )
            observables.append(obs)
        for obs in observables:
            w_pure = eigen_distribution(rho_d_pure, obs)
            w_mix = eigen_distribution(rho_d_mix, obs)
            assert overlap_tv(w_pure, w_mix) == pytest.approx(1.0, abs=1e-12)
            assert overlap_bc(w_pure, w_mix) == pytest.approx(1.0, abs=1e-12)

    def test_interference_term_overlap(self):
        it = build_it_observable()
        w_pure = eigen_distribution(full_chain(Scenario(SYM, SYM, "pure")), it.observable)
        w_mix = eigen_distribution(full_chain(Scenario(SYM, SYM, "gemenge")).density(),
                               it.observable)
        assert overlap_tv(w_pure, w_mix) == pytest.approx(0.5, abs=1e-12)

    @given(st.lists(st.floats(0.001, 1.0), min_size=2, max_size=6),
           st.lists(st.floats(0.001, 1.0), min_size=2, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_min_overlap_never_exceeds_sqrt_overlap(self, raw1, raw2):
        n = min(len(raw1), len(raw2))
        p1 = np.array(raw1[:n]) / sum(raw1[:n])
        p2 = np.array(raw2[:n]) / sum(raw2[:n])
        values = tuple(float(v) for v in range(n))
        w1 = EigenDistribution(tuple(zip(values, p1.tolist())))
        w2 = EigenDistribution(tuple(zip(values, p2.tolist())))
        k_tv, k_bc = overlap_tv(w1, w2), overlap_bc(w1, w2)
        assert k_tv <= k_bc + 1e-12
        assert -1e-12 <= k_tv <= 1 + 1e-12
        assert -1e-12 <= k_bc <= 1 + 1e-12

    def test_min_overlap_inequality_bulk(self):
        rng = np.random.default_rng(67)
        for _ in range(1000):
            n = int(rng.integers(2, 6))
            p1 = rng.dirichlet(np.ones(n))
            p2 = rng.dirichlet(np.ones(n))
            values = tuple(float(v) for v in range(n))
            w1 = EigenDistribution(tuple(zip(values, p1.tolist())))
            w2 = EigenDistribution(tuple(zip(values, p2.tolist())))
            assert overlap_tv(w1, w2) <= overlap_bc(w1, w2) + 1e-12

    def test_report_bundles_both(self):
        w_pure, w_mix = spin_distributions(SYM, SYM)
        k_tv = overlap_tv(w_pure, w_mix)
        assert k_tv == pytest.approx(0.5, abs=1e-12)
        assert overlap_bc(w_pure, w_mix) == pytest.approx(np.sqrt(2) / 2, abs=1e-12)
        assert purity_information(k_tv) == pytest.approx(0.5, abs=1e-12)


class TestPurity:
    def test_pure_symmetric(self):
        report = purity_report(pure_density(prepare_object_state(SYM, SYM)))
        assert report.r_p == pytest.approx(1.0, abs=1e-12)

    def test_mixture_has_zero_rate(self):
        report = purity_report(prepare_gemenge(SYM, SYM).density())
        assert report.r_p == pytest.approx(0.0, abs=1e-12)

    def test_eigenstate_has_zero_rate(self):
        assert purity_report(pure_density(BASIS_1)).r_p == pytest.approx(0.0, abs=1e-12)

    def test_pure_state_rate_law(self):
        rng = np.random.default_rng(47)
        for _ in range(50):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            a /= np.linalg.norm(a)
            report = purity_report(pure_density(a))
            assert report.r_p == pytest.approx(2 * abs(a[0]) * abs(a[1]), abs=1e-12)

    def test_bounds_on_random_densities(self):
        rng = np.random.default_rng(53)
        for _ in range(1000):
            m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            rho = m @ m.conj().T
            rho /= np.trace(rho)
            report = purity_report(rho)
            assert -1e-10 <= report.r_p <= 1.0 + 1e-10

    def test_gamma_star_against_grid_search(self):
        rng = np.random.default_rng(59)
        for _ in range(10):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            a /= np.linalg.norm(a)
            rho = pure_density(a)
            report = purity_report(rho)
            # oracle: exhaustive grid over the tuning phase
            best = max(
                abs(float(np.real(np.trace(rho @ (
                    np.cos(g) * PAULI_X / 2 + np.sin(g) * PAULI_Y / 2)))))
                for g in np.linspace(0, 2 * np.pi, 360, endpoint=False)
            )
            assert 2 * best <= report.r_p + 1e-4
            got = float(np.real(np.trace(rho @ transverse_spin(report.gamma_star).matrix)))
            assert got == pytest.approx(report.s_gamma_expect, abs=1e-12)

    def test_requires_two_dim(self):
        with pytest.raises(UsageError):
            purity_report(np.eye(3) / 3)


class TestPurityInformation:
    def test_anchor_points(self):
        assert purity_information(0.5) == pytest.approx(0.5)
        assert purity_information(1.0) == pytest.approx(0.0)
        assert purity_information(0.0) == pytest.approx(1.0)

    def test_range_check(self):
        with pytest.raises(ValidationError):
            purity_information(1.5)
        with pytest.raises(ValidationError):
            purity_information(-0.1)

    def test_phase_averaged_estimate(self):
        rho_pure = pure_density(prepare_object_state(SYM, SYM))
        rho_mix = prepare_gemenge(SYM, SYM).density()
        estimate = phase_averaged_purity_information(rho_pure, rho_mix)
        # mean of |a1 a2 cos(gamma)| over the grid: |a1 a2| * mean|cos|
        gammas = np.linspace(0, 2 * np.pi, 36, endpoint=False)
        assert estimate == pytest.approx(0.5 * np.mean(np.abs(np.cos(gammas))), abs=1e-9)

    @pytest.mark.parametrize("a1,a2", [
        (SYM, SYM),
        (0.6, -0.8),
        (np.sqrt(0.3), np.sqrt(0.7) * np.exp(2j)),
        (1e-3, -np.sqrt(1.0 - 1e-6)),
        (1.0, 0.0),
    ])
    def test_phase_averaged_equals_a_fresh_loop(self, a1, a2):
        states = (pure_density(prepare_object_state(a1, a2)), prepare_gemenge(a1, a2).density())
        pairs = [states, states[::-1], (states[0], states[0])]
        metrics._transverse_spin_grid.cache_clear()
        for _ in range(2):  # the first call fills the grid cache, the second reads it
            for pure_rho, mixed_rho in pairs:
                total = 0.0
                for gamma in np.linspace(0.0, 2.0 * np.pi, 36, endpoint=False):
                    obs = transverse_spin(gamma)
                    total += purity_information(overlap_tv(
                        eigen_distribution(pure_rho, obs), eigen_distribution(mixed_rho, obs)))
                assert phase_averaged_purity_information(pure_rho, mixed_rho) == total / 36


def _phase_loop(pure_rho, mixed_rho):
    """The per-phase reference: one eigen_distribution pair and overlap per phase."""
    total = 0.0
    for gamma in np.linspace(0.0, 2.0 * np.pi, 36, endpoint=False):
        obs = transverse_spin(gamma)
        total += purity_information(overlap_tv(
            eigen_distribution(pure_rho, obs), eigen_distribution(mixed_rho, obs)))
    return total / 36


def _random_two_dim_states(rng):
    """Seeded pure vectors, their densities, mixtures and random densities.

    Weights |a1|^2 cover the edges 0, 1e-12, 1e-6 and 1 - 1e-6 as well as
    random values, with complex relative phases throughout.
    """
    states = []
    for weight in (0.0, 1e-12, 1e-6, 1.0 - 1e-6, *rng.uniform(0.0, 1.0, 11)):
        for _ in range(6):
            phases = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, 2))
            vec = np.array([np.sqrt(weight), np.sqrt(1.0 - weight)]) * phases
            states += [vec, pure_density(vec), prepare_gemenge(vec[0], vec[1]).density()]
    for _ in range(60):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = m @ m.conj().T
        states.append(rho / np.trace(rho).real)
    return states


class TestPhaseGridIdentity:
    def test_random_states_equal_the_loop_bit_for_bit(self):
        rng = np.random.default_rng(2026)
        states = _random_two_dim_states(rng)
        assert len(states) >= 300
        for k, state in enumerate(states):
            partner = states[(7 * k + 3) % len(states)]
            pure_rho, mixed_rho = (state, partner) if k % 2 else (partner, state)
            assert phase_averaged_purity_information(pure_rho, mixed_rho) == \
                _phase_loop(pure_rho, mixed_rho)

    @pytest.mark.parametrize("bad", ["trace", "nan", "overlap"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_invalid_density_raises_the_loop_error(self, bad, side):
        good = prepare_gemenge(0.6, 0.8).density()
        rho = pure_density(prepare_object_state(0.6, 0.8j))
        if bad == "trace":
            rho = 1.5 * rho
        elif bad == "nan":
            rho = np.where(np.eye(2) > 0, rho, np.nan)
        else:
            # each distribution sums to 1 + 5e-11, within its check, but the
            # overlap of two equal ones exceeds purity_information's 1 + 1e-12
            good = rho = (1.0 + 5e-11) * rho
        args = (rho, good) if side == 0 else (good, rho)
        with pytest.raises(ValidationError) as expected:
            _phase_loop(*args)
        with pytest.raises(ValidationError) as got:
            phase_averaged_purity_information(*args)
        assert str(got.value) == str(expected.value)


class TestBornProbabilities:
    """The Born weights of a pure chain state, as its `born_table` weighs its pointer cells."""

    def test_symmetric(self):
        ms = full_chain(Scenario(SYM, SYM, "pure"))
        assert ms.born_table.weights == pytest.approx((0.5, 0.5), abs=1e-12)

    def test_eigenstate(self):
        ms = full_chain(Scenario(1.0, 0.0, "pure"))
        table = ms.born_table
        assert (table.weights, table.outcomes) == ((1.0,), ((-1, 0.5),))
        assert len(table.edges) == 0

    @pytest.mark.parametrize("phi", np.linspace(0, 2 * np.pi, 7))
    def test_phase_independent(self, phi):
        ms = full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7) * np.exp(1j * phi), "pure"))
        assert ms.born_table.weights == pytest.approx((0.3, 0.7), abs=1e-12)

    def test_matches_restriction_diagonal(self):
        rng = np.random.default_rng(61)
        for _ in range(20):
            a = rng.normal(size=2) + 1j * rng.normal(size=2)
            a /= np.linalg.norm(a)
            ms = full_chain(Scenario(a[0], a[1], "pure"))
            (p1, p2), outcomes = ms.born_table.weights, ms.born_table.outcomes
            assert outcomes == ((-1, 0.5), (-1, -0.5))
            rho = statistical_restriction(ms)
            assert p1 == pytest.approx(float(rho[0, 0].real), abs=1e-12)
            assert p2 == pytest.approx(float(rho[1, 1].real), abs=1e-12)

    def test_rejects_non_branch_states(self):
        from mschain.chain import MSState
        from mschain.linalg import TensorLayout

        vec = np.zeros(8, dtype=complex)
        vec[1] = 1.0
        state = MSState(vec, TensorLayout((("S", 2), ("D", 2), ("O", 2))))
        for _ in range(2):  # a failed build caches nothing
            with pytest.raises(DecompositionError):
                state.born_table
