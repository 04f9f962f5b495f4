import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mschain.chain import (
    BASIS_1,
    BASIS_2,
    Scenario,
    _gemenge_weights,
    full_chain,
    object_detector_state,
    pointer_branch_amplitudes,
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
from mschain.cli import config_from_dict, execute
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

    @pytest.mark.parametrize("entries", [
        ((0.0, math.nan), (1.0, 1.0)),
        ((0.0, 1.0), (1.0, math.nan)),
        ((0.0, math.nan),),
        ((math.nan, 0.5), (1.0, 0.5)),
        ((0.0, 0.5), (math.nan, 0.5)),
    ])
    def test_nan_fails_every_check(self, entries):
        with pytest.raises(ValidationError):
            EigenDistribution(entries)

    def test_nan_probability_fails_in_the_two_value_kernel(self):
        # finite entries whose Bloch components overflow: n.r is inf * 0 = NaN, and
        # the distribution check refuses it before `purity_information` sees an overlap
        huge = [[1e308, 1e308], [1e308, -1e308]]
        with pytest.raises(ValidationError, match="probabilities must lie in"):
            metrics._pair_overlaps([(1.0, 0.0, 0.0)], huge, [[0.5, 0], [0, 0.5]])


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
        for pure_rho, mixed_rho in [states, states[::-1], (states[0], states[0])]:
            assert abs(phase_averaged_purity_information(pure_rho, mixed_rho)
                       - _phase_loop(pure_rho, mixed_rho)) <= 1e-15


def _phase_loop(pure_rho, mixed_rho):
    """The per-phase reference: one eigen_distribution pair and overlap per phase of
    the numpy grid, the terms added exactly."""
    terms = []
    for gamma in np.linspace(0.0, 2.0 * np.pi, 36, endpoint=False):
        obs = transverse_spin(gamma)
        terms.append(purity_information(overlap_tv(
            eigen_distribution(pure_rho, obs), eigen_distribution(mixed_rho, obs))))
    return math.fsum(terms) / 36


# a float as an error message prints it, such as a sum or an overlap
_PRINTED_FLOAT = re.compile(r"-?\d+\.\d+(?:e[-+]\d+)?")


def _assert_same_error(got: Exception, expected: Exception):
    """The same type and message, but for the last digits of a printed float."""
    assert type(got) is type(expected)
    assert _PRINTED_FLOAT.sub("#", str(got)) == _PRINTED_FLOAT.sub("#", str(expected))
    got_floats = [float(x) for x in _PRINTED_FLOAT.findall(str(got))]
    expected_floats = [float(x) for x in _PRINTED_FLOAT.findall(str(expected))]
    assert got_floats == pytest.approx(expected_floats, abs=1e-15, rel=0)


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
        # the Bloch form against the eigen_distribution loop, within 1e-15
        rng = np.random.default_rng(2026)
        states = _random_two_dim_states(rng)
        assert len(states) >= 300
        for k, state in enumerate(states):
            partner = states[(7 * k + 3) % len(states)]
            pure_rho, mixed_rho = (state, partner) if k % 2 else (partner, state)
            assert abs(phase_averaged_purity_information(pure_rho, mixed_rho)
                       - _phase_loop(pure_rho, mixed_rho)) <= 1e-15

    @pytest.mark.parametrize("bad", ["trace", "nan", "overlap", "inf", "range", "shape"])
    @pytest.mark.parametrize("side", [0, 1])
    def test_invalid_density_raises_the_loop_error(self, bad, side):
        good = prepare_gemenge(0.6, 0.8).density()
        rho = pure_density(prepare_object_state(0.6, 0.8j))
        if bad == "trace":
            rho = 1.5 * rho
        elif bad == "nan":
            rho = np.where(np.eye(2) > 0, rho, np.nan)
        elif bad == "overlap":
            # each distribution sums to 1 + 5e-11, within its check, but the
            # overlap of two equal ones exceeds purity_information's 1 + 1e-12
            good = rho = (1.0 + 5e-11) * rho
        elif bad == "inf":
            rho[1, 1] = np.inf
        elif bad == "range":
            # unit trace, but a probability of 1.5 under the spin at phase 0
            rho = np.array([[1.5, 1 + 1j], [1 - 1j, -0.5]])
        else:
            rho = np.eye(3, dtype=complex) / 3
        args = (rho, good) if side == 0 else (good, rho)
        with pytest.raises((UsageError, ValidationError)) as expected:
            _phase_loop(*args)
        with pytest.raises((UsageError, ValidationError)) as got:
            phase_averaged_purity_information(*args)
        _assert_same_error(got.value, expected.value)


def _pair_loop(pairs):
    """The per-observable reference: the loop the overlap report ran row by row."""
    out = []
    for obs, pure, mixed in pairs:
        w_pure = eigen_distribution(pure, obs)
        w_mixed = eigen_distribution(mixed, obs)
        k_tv = overlap_tv(w_pure, w_mixed)
        out.append((k_tv, overlap_bc(w_pure, w_mixed), purity_information(k_tv)))
    return out


def _pair_kernel(pairs):
    """The same triples through the Bloch form: each observable's axis, then `_pair_overlaps`."""
    return [metrics._pair_overlaps([metrics._two_value_axis(obs)], pure, mixed)[0]
            for obs, pure, mixed in pairs]


def _report_pairs(a1, a2):
    """The overlap report's five two-dim (observable, pure, mixed) triples, each
    density built by the public constructors."""
    rho_pure = pure_density(prepare_object_state(a1, a2))
    rho_mixed = prepare_gemenge(a1, a2).density()
    rho_d_pure = object_detector_state(a1, a2).reduced(("D",))
    rho_d_mixed = np.diag([abs(a1) ** 2, abs(a2) ** 2]).astype(complex)
    alg = build_pointer_algebra()
    tuned = transverse_spin(purity_report(rho_pure).gamma_star)
    return [(transverse_spin(0.0), rho_pure, rho_mixed), (tuned, rho_pure, rho_mixed),
            *((obs, rho_d_pure, rho_d_mixed) for obs in (alg.q, alg.qx, alg.qy))]


# |a1|^2 at the edges, and one ulp-scale step either side of BRANCH_PROB_FLOOR
PAIR_WEIGHTS = [0.0, 1e-15, 1e-12 * (1 - 2**-40), 1e-12 * (1 + 2**-40), 1e-6, 0.3, 0.5,
                1.0 - 1e-6, 1.0]


# |a1|^2 at the edges and in the bulk, with four seeded random weights
REPORT_WEIGHTS = [0.0, 1e-15, 1e-12, 1e-6, 0.5, 1.0 - 1e-6, 1.0,
                  *np.random.default_rng(2028).random(4).tolist()]


def _zero_probability_pairs(weight, phase):
    """Indices into `_report_pairs` of the pairs with a probability of at most
    1e-12 in exact arithmetic: spin x at |a1|^2 = 0.5 with a real relative phase,
    the tuned spin at |a1|^2 = 0.5, the pointer q when either weight is at most
    1e-12. The mixed states and the pointers qx and qy give (1/2, 1/2)."""
    rows = set()
    if weight == 0.5:
        rows |= {0, 1} if phase in (0.0, np.pi) else {1}
    if min(weight, 1.0 - weight) <= 1e-12:
        rows.add(2)
    return rows


class TestPairOverlaps:
    @pytest.mark.parametrize("phase", [0.0, np.pi, 0.7, 2.5])
    @pytest.mark.parametrize("weight", PAIR_WEIGHTS)
    def test_bit_identical_to_the_per_call_loop(self, weight, phase):
        # the Bloch form against the eigen_distribution loop: every probability,
        # overlap_min and the bits within 1e-15, and overlap_sqrt within 1e-15
        # too unless the pair has a probability near 0. There a rounding of
        # 1e-17 either side of 0 passes through sqrt, so the bound is what 1e-15
        # on each probability allows, 2 sqrt(2e-15) (at |a1|^2 = 0.5, phase
        # 2.5, the loop's tuned spin is 2.4e-9 off 1/sqrt(2))
        a1, a2 = np.sqrt(weight), np.sqrt(1.0 - weight) * np.exp(1j * phase)
        pairs = _report_pairs(a1, a2)
        axes = [metrics._two_value_axis(obs) for obs, _, _ in pairs]
        near_zero = set()
        for k, ((obs, pure, mixed), axis) in enumerate(zip(pairs, axes)):
            for rho in (pure, mixed):
                want = [p for _, p in eigen_distribution(rho, obs).entries]
                got = metrics._two_value_probabilities(axis, metrics._bloch(rho))
                assert np.max(np.abs(np.array(got) - want)) <= 1e-15
                if min(want) <= 1e-12:
                    near_zero.add(k)
        assert near_zero == _zero_probability_pairs(weight, phase)

        expected = np.array(_pair_loop(pairs))
        rho_pure = pairs[0][1]
        tuned_axis = metrics._tuned_axis(complex(rho_pure[0, 1]))  # read off rho01
        tuned = metrics._pair_overlaps([tuned_axis], rho_pure, pairs[0][2])
        for got, want, rows in ((_pair_kernel(pairs), expected, range(len(pairs))),
                                (tuned, expected[1:2], [1])):
            diff = np.abs(np.array(got) - want)
            assert np.max(diff[:, [0, 2]]) <= 1e-15
            for row, k in zip(diff, rows):
                assert row[1] <= (2 * math.sqrt(2e-15) if k in near_zero else 1e-15), k

    @pytest.mark.parametrize("bad", ["nan", "inf", "range", "trace", "overlap", "shape"])
    @pytest.mark.parametrize("slot", [(0, 1), (2, 2), (4, 1)])
    def test_invalid_density_raises_the_loop_error(self, bad, slot):
        pairs = [list(pair) for pair in _report_pairs(0.6, 0.8j)]
        k, side = slot
        rho = np.array(pairs[k][side])
        if bad == "nan":
            rho[0, 1] = np.nan
        elif bad == "inf":
            rho[1, 1] = np.inf
        elif bad == "range":
            # unit trace, but a probability of 1.5 under every observable tested
            rho = np.array([[1.5, 1 + 1j], [1 - 1j, -0.5]])
        elif bad == "trace":
            rho = 1.2 * rho
        elif bad == "overlap":
            # each distribution sums to 1 + 8e-11, within its check, but the
            # overlap of two equal ones exceeds purity_information's 1 + 1e-12
            rho = (1.0 + 8e-11) * rho
            pairs[k][3 - side] = rho
        else:
            rho = np.eye(3, dtype=complex) / 3
        pairs[k][side] = rho
        with pytest.raises((UsageError, ValidationError)) as expected:
            _pair_loop(pairs)
        with pytest.raises((UsageError, ValidationError)) as got:
            _pair_kernel(pairs)
        _assert_same_error(got.value, expected.value)

    @pytest.mark.parametrize("phase", [0.0, np.pi, 0.7, 2.5])
    @pytest.mark.parametrize("weight", REPORT_WEIGHTS)
    def test_report_rows_equal_the_checked_entries(self, weight, phase):
        # the overlap report reads Bloch tuples straight off its Python-float
        # densities; the checked entries, handed the same densities with the
        # mixed ones as np.diag arrays, must give the same floats, bit for bit.
        # The interference term is the spin-x pair of the chain's branch-span
        # qubit; it must also agree, within 2e-15, with the 8-dim reference path:
        # `eigen_distribution` of the interference-term observable on the pure
        # chain and on the gemenge's density
        it = build_it_observable().observable
        fields = ("overlap_min", "overlap_sqrt", "purity_information_bits")
        a1, a2 = math.sqrt(weight), math.sqrt(1.0 - weight) * complex(math.cos(phase),
                                                                       math.sin(phase))
        for kind in ("pure", "gemenge"):
            config = config_from_dict({"a1": a1, "a2": [a2.real, a2.imag],
                                       "input_kind": kind, "trials": 1}, "overlap")
            got = {row.label: row.value for row in execute(config).rows}
            b1, b2 = config.scenario.a1, config.scenario.a2
            rho_pure = metrics._qubit_density((b1, b2))
            rho_mixed = np.diag(np.array(_gemenge_weights(b1, b2)[0], dtype=complex))
            detector = object_detector_state(b1, b2)
            rho_d_pure = metrics._qubit_density(detector.vector, detector.layout.dims,
                                                detector.layout.position("D"))
            rho_d_mixed = np.diag([abs(b1) ** 2, abs(b2) ** 2]).astype(complex)
            alg = build_pointer_algebra()
            spin_x, *pointer = (metrics._two_value_axis(obs) for obs in
                                (transverse_spin(0.0), alg.q, alg.qx, alg.qy))
            tuned = metrics._tuned_axis(rho_pure[0][1])
            names = ["spin_x", "spin_tuned", "pointer_D", "pointer_D_x", "pointer_D_y"]
            triples = [*metrics._pair_overlaps((spin_x, tuned), rho_pure, rho_mixed),
                       *metrics._pair_overlaps(pointer, rho_d_pure, rho_d_mixed)]
            pure, gemenge = (full_chain(Scenario(b1, b2, k)) for k in ("pure", "gemenge"))
            both = len(gemenge.branches) == 2
            if both:
                names.append("interference_full")
                branch_span = np.array(pointer_branch_amplitudes(pure))
                triples += metrics._pair_overlaps((spin_x,), branch_span, rho_mixed)
                w_pure = eigen_distribution(pure, it)
                w_mixed = eigen_distribution(gemenge.density(), it)
                k_tv = overlap_tv(w_pure, w_mixed)
                reference = (k_tv, overlap_bc(w_pure, w_mixed), purity_information(k_tv))
                row = [got[f"overlap.interference_full.{field}"] for field in fields]
                assert np.max(np.abs(np.array(row) - reference)) <= 2e-15, kind
            assert both == ("overlap.interference_full.overlap_min" in got), kind
            want = {f"overlap.{name}.{field}": value for name, triple in zip(names, triples)
                    for field, value in zip(fields, triple)}
            want["overlap.purity_rate.pure"] = purity_report(rho_pure).r_p
            want["overlap.purity_rate.mixed"] = purity_report(rho_mixed).r_p
            want["overlap.purity_information.phase_averaged_bits"] = \
                phase_averaged_purity_information(rho_pure, rho_mixed)
            assert {label: got[label] for label in want} == want, kind

    @pytest.mark.parametrize("obs", [build_it_observable().observable, np.eye(2),
                                     np.diag([1.0, 1.0 + 1e-13])],
                             ids=["eight-dim", "one-value", "one-grouped-value"])
    def test_observable_without_two_values_refused(self, obs):
        with pytest.raises(UsageError, match="two-dim observables with two values"):
            metrics._two_value_axis(obs)


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
