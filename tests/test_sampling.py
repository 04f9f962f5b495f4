import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mschain import chain, sampling
from mschain.chain import (
    BASIS_1,
    BASIS_2,
    BornTable,
    Gemenge,
    MSState,
    Scenario,
    full_chain,
)
from mschain.errors import CapacityError, PreconditionError, ValidationError
from mschain.sampling import (
    CHUNK,
    MAX_STREAM_TRIALS,
    MAX_TRIALS,
    SPLITMIX_GAMMA,
    InformationPattern,
    OutcomeStream,
    born_report,
    compare_streams,
    run_trials,
    sample_gemenge,
    stochastic_restriction,
    trial_uniform,
    trial_uniforms,
)

SYM = 2**-0.5
MASK = (1 << 64) - 1
SEED = 21


def chain_product(object_state, observer_state=None):
    """Product chain state |s d o>: the detector copies the object, the observer `observer_state`."""
    ms = full_chain(Scenario(1.0, 0.0, "pure"))
    o = object_state if observer_state is None else observer_state
    return MSState(np.kron(np.kron(object_state, object_state), o), ms.layout)


@st.composite
def counting_cases(draw):
    """(seed, trials, sorted edges) around CHUNK, with edges on, and one ulp
    either side of, a draw of the run as well as anywhere in [0, 1]."""
    seed = draw(st.one_of(st.just(MASK), st.just(0), st.integers(0, MASK)))
    trials = draw(st.sampled_from([1, 17, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3]))
    u = trial_uniform(seed, draw(st.integers(0, trials - 1)))
    near = [u, float(np.nextafter(u, 0.0)), float(np.nextafter(u, 1.0))]
    special = [0.0, 5e-324, 1e-12, 2**-53, 0.5, 1.0 - 2**-53, 1.0]
    edges = draw(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from(near + special)),
                          min_size=1, max_size=4))
    return seed, trials, sorted(edges)


class TestCounterRng:
    SEEDS = (0, 1, 42, 2**63, MASK)
    INDICES = (0, CHUNK - 1, CHUNK, 2**63, MASK)

    def test_matches_reference_implementation(self):
        # the scalar form on Python ints is the reference for the array kernel
        for seed in self.SEEDS:
            outputs = [sampling._splitmix64(seed, k) for k in self.INDICES]
            z = (np.array(self.INDICES, dtype=np.uint64) + np.uint64(1)) * np.uint64(SPLITMIX_GAMMA)
            z += np.uint64(seed)
            assert sampling._splitmix_finalize(z, np.empty_like(z)).tolist() == outputs
            expected = [(out >> 11) * 2.0**-53 for out in outputs]
            assert trial_uniforms(seed, self.INDICES).tolist() == expected
            assert [trial_uniform(seed, k) for k in self.INDICES] == expected

    def test_known_answer(self):
        # the first outputs of the SplitMix64 stream seeded with 0
        assert [sampling._splitmix64(0, k) for k in range(3)] == [
            0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]

    @pytest.mark.parametrize("index", [-1, 2**64])
    def test_index_outside_uint64_rejected_by_both_forms(self, index):
        with pytest.raises(OverflowError):
            trial_uniforms(SEED, [index])
        with pytest.raises(OverflowError):
            trial_uniform(SEED, index)

    def test_non_integer_index_rejected_by_the_scalar_form(self):
        with pytest.raises(TypeError):
            trial_uniform(SEED, 3.0)

    def test_deterministic_and_order_free(self):
        forward = trial_uniforms(7, np.arange(100))
        shuffled_idx = np.random.default_rng(0).permutation(100)
        shuffled = trial_uniforms(7, shuffled_idx)
        assert np.array_equal(forward[shuffled_idx], shuffled)

    def test_scalar_matches_vector(self):
        assert trial_uniform(9, 3) == trial_uniforms(9, [3])[0]
        assert trial_uniform(9, np.int64(3)) == trial_uniforms(9, [3])[0]

    def test_range_and_spread(self):
        u = trial_uniforms(123, np.arange(10000))
        assert np.all(u >= 0.0) and np.all(u < 1.0)
        assert abs(u.mean() - 0.5) < 0.02


class TestStochasticRestriction:
    def test_certain_branch(self):
        ms = full_chain(Scenario(1.0, 0.0, "pure"))
        for draw in (0.0, 0.3, 0.999999):
            assert stochastic_restriction(ms, draw).values == (0.5,)

    def test_threshold_rule(self):
        ms = full_chain(Scenario(SYM, SYM, "pure"))
        assert stochastic_restriction(ms, 0.3).values == (0.5,)
        assert stochastic_restriction(ms, 0.7).values == (-0.5,)

    def test_draw_on_an_edge_goes_to_the_next_cell(self):
        ms = full_chain(Scenario(0.6, 0.8, "pure"))
        edge = ms.born_table.edges[0]
        assert stochastic_restriction(ms, float(np.nextafter(edge, 0.0))).values == (0.5,)
        assert stochastic_restriction(ms, float(edge)).values == (-0.5,)

    def test_draws_share_the_table_patterns(self):
        ms = full_chain(Scenario(0.6, 0.8, "pure"))
        first, second = ms.born_table.patterns
        assert stochastic_restriction(ms, 0.1) is first
        assert stochastic_restriction(ms, 0.9) is second
        w = full_chain(Scenario(0.6, 0.8, "gemenge"))
        index, pattern = sample_gemenge(w, 0.9)
        assert (index, pattern) == (1, InformationPattern((-0.5,)))
        assert pattern is w.born_table.patterns[1]

    def test_pointer_amplitudes_read_once_per_state(self, monkeypatch):
        ms = full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7), "pure"))
        amplitudes = chain.pointer_branch_amplitudes
        read = []

        def counting(state):
            read.append(state)
            return amplitudes(state)

        for module in (chain, sampling):  # every package namespace that binds it
            if hasattr(module, "pointer_branch_amplitudes"):
                monkeypatch.setattr(module, "pointer_branch_amplitudes", counting)
        draws = trial_uniforms(3, np.arange(64))
        drawn = {stochastic_restriction(ms, float(u)).values for u in draws}
        assert drawn == {(0.5,), (-0.5,)}
        assert len(read) <= 1

    def test_binomial_envelope_large_sample(self):
        # the threshold rule applied to a large batch of counter draws
        ms = full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7), "pure"))
        p1 = 0.3
        draws = trial_uniforms(2024, np.arange(1_000_000))
        freq = float(np.mean(draws < p1))
        sigma = np.sqrt(p1 * (1 - p1) / 1_000_000)
        assert abs(freq - p1) < 4 * sigma
        # spot check the single-event operation agrees with the batch rule
        for k in (0, 17, 999_999):
            expected = 0.5 if draws[k] < p1 else -0.5
            assert stochastic_restriction(ms, float(draws[k])).values == (expected,)


class TestSampleGemenge:
    def test_single_branch(self):
        w = full_chain(Scenario(1.0, 0.0, "gemenge"))
        for draw in (0.0, 0.5, 0.99):
            index, pattern = sample_gemenge(w, draw)
            assert index == 0
            assert pattern.values == (0.5,)

    def test_cumulative_split(self):
        w = full_chain(Scenario(SYM, SYM, "gemenge"))
        index, pattern = sample_gemenge(w, 0.2)
        assert (index, pattern.values) == (0, (0.5,))
        index, pattern = sample_gemenge(w, 0.9)
        assert (index, pattern.values) == (1, (-0.5,))

    def test_branch_frequencies(self):
        w = full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7), "gemenge"))
        draws = trial_uniforms(5, np.arange(20000))
        hits = sum(sample_gemenge(w, float(d))[0] == 0 for d in draws[:20000])
        sigma = np.sqrt(0.3 * 0.7 / 20000)
        assert abs(hits / 20000 - 0.3) < 4 * sigma

    def test_branches_factorized_once_per_gemenge(self, monkeypatch):
        w = full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7), "gemenge"))
        factorize_branch = chain.factorize_branch
        factorized = []

        def counting(state, *args):
            factorized.append(state)
            return factorize_branch(state, *args)

        monkeypatch.setattr(chain, "factorize_branch", counting)
        drawn = {sample_gemenge(w, float(u))[0] for u in trial_uniforms(3, np.arange(64))}
        assert drawn == {0, 1}
        assert len(factorized) <= len(w.branches)

    def test_entangled_branch_rejected(self):
        entangled = full_chain(Scenario(SYM, SYM, "pure"))
        w = Gemenge(((entangled, 1.0),))
        for _ in range(2):  # a failed build caches nothing
            with pytest.raises(PreconditionError):
                sample_gemenge(w, 0.5)

    def test_bare_vector_branch_rejected(self):
        with pytest.raises(ValidationError):
            Gemenge(((np.array([1.0, 0.0], dtype=complex), 1.0),))


class TestDrawCell:
    """`_draw` finds its cell by bisecting the table's edge tuple, as `np.searchsorted` does."""

    TABLES = {
        "pure": lambda: full_chain(Scenario(0.6, 0.8j, "pure")),
        "pure_1e-6": lambda: full_chain(Scenario(np.sqrt(1e-6), np.sqrt(1.0 - 1e-6), "pure")),
        "gemenge": lambda: full_chain(Scenario(np.sqrt(0.3), np.sqrt(0.7), "gemenge")),
        "gemenge_1e-12": lambda: full_chain(
            Scenario(np.sqrt(1e-12), np.sqrt(1.0 - 1e-12), "gemenge")),
        "one_cell": lambda: full_chain(Scenario(1.0, 0.0, "pure")),
        "one_cell_gemenge": lambda: full_chain(Scenario(0.0, 1.0, "gemenge")),
        "four_cells": lambda: Gemenge(tuple(
            (chain_product(BASIS_1 if j % 2 else BASIS_2), w)
            for j, w in enumerate((0.1, 0.2, 0.3, 0.4)))),
    }

    @staticmethod
    def _draws(edges):
        near = [x for e in edges
                for x in (math.nextafter(e, -math.inf), e, math.nextafter(e, math.inf))]
        return near + [0.0, math.nextafter(1.0, 0.0), float("nan")]

    @pytest.mark.parametrize("name", sorted(TABLES))
    def test_cell_equals_searchsorted(self, name):
        model = self.TABLES[name]()
        table = model.born_table
        assert type(table.edges) is tuple and all(type(e) is float for e in table.edges)
        assert len(table.edges) == len(table.weights) - 1
        for u in self._draws(table.edges):
            cell = int(np.searchsorted(np.array(table.edges), u, side="right"))
            branch, pattern = sampling._draw(model, u)
            assert pattern is table.patterns[cell], (name, u, cell)
            assert branch == table.outcomes[cell][0]

    @pytest.mark.parametrize("name", ["pure", "gemenge", "four_cells"])
    def test_edges_are_the_cumulative_weights(self, name):
        table = self.TABLES[name]().born_table
        assert np.array_equal(np.array(table.edges), np.cumsum(table.weights)[:-1])


class TestRunTrials:
    def test_reproducible(self):
        scenario = Scenario(np.sqrt(0.3), np.sqrt(0.7), "pure", seed=99, trials=5000)
        s1, r1 = run_trials(scenario)
        s2, r2 = run_trials(scenario)
        assert np.array_equal(s1.q_values, s2.q_values)
        assert np.array_equal(s1.branches, s2.branches)
        assert r1 == r2
        assert s1.scenario_digest == s2.scenario_digest

    def test_seed_changes_stream(self):
        base = Scenario(SYM, SYM, "pure", seed=1, trials=5000)
        other = Scenario(SYM, SYM, "pure", seed=2, trials=5000)
        s1, _ = run_trials(base)
        s2, _ = run_trials(other)
        assert not np.array_equal(s1.q_values, s2.q_values)

    def test_certain_outcome_degenerate_chi_square(self):
        stream, report = run_trials(Scenario(1.0, 0.0, "pure", seed=3, trials=1000))
        assert np.all(stream.q_values == 0.5)
        assert np.all(stream.branches == -1)
        assert report.degenerate
        assert report.p_value == 1.0

    def test_symmetric_envelope(self):
        _, report = run_trials(Scenario(SYM, SYM, "pure", seed=12, trials=100_000))
        freq = next(s.frequency for s in report.stats if s.value == 0.5)
        assert abs(freq - 0.5) < 4 * np.sqrt(0.25 / 100_000)
        assert report.p_value > 0.001

    def test_gemenge_matches_pure_statistics(self):
        _, report = run_trials(Scenario(SYM, SYM, "gemenge", seed=12, trials=100_000))
        freq = next(s.frequency for s in report.stats if s.value == 0.5)
        assert abs(freq - 0.5) < 4 * np.sqrt(0.25 / 100_000)

    @pytest.mark.parametrize("trials", [1_000, 10_000, 100_000, 1_000_000])
    def test_convergence_ladder(self, trials):
        # error shrinks as trials^(-1/2); each rung sits inside its 4-sigma band
        p1 = 0.3
        _, report = run_trials(Scenario(np.sqrt(0.3), np.sqrt(0.7), "pure",
                                        seed=314, trials=trials))
        freq = next(s.frequency for s in report.stats if s.value == 0.5)
        assert abs(freq - p1) < 4 * np.sqrt(p1 * (1 - p1) / trials)

    def test_gemenge_branches_recorded(self):
        stream, _ = run_trials(Scenario(SYM, SYM, "gemenge", seed=4, trials=1000))
        assert set(np.unique(stream.branches)) == {0, 1}
        # branch index and outcome stay locked together
        assert np.all((stream.branches == 0) == (stream.q_values == 0.5))

    def test_matches_single_event_operation(self):
        scenario = Scenario(np.sqrt(0.3), np.sqrt(0.7), "pure", seed=77, trials=500)
        stream, _ = run_trials(scenario)
        ms = full_chain(scenario)
        draws = trial_uniforms(scenario.seed, np.arange(scenario.trials))
        for k in range(scenario.trials):
            assert stochastic_restriction(ms, float(draws[k])).values == (stream.q_values[k],)

    @pytest.mark.parametrize("a1,a2,kind", [
        (1e-3, -np.sqrt(1.0 - 1e-6), "pure"),
        (np.sqrt(0.3), np.sqrt(0.7), "gemenge"),
        (1e-3, 1j * np.sqrt(1.0 - 1e-6), "gemenge"),
    ])
    def test_matches_single_event_operation_cases(self, a1, a2, kind):
        scenario = Scenario(a1, a2, kind, seed=77, trials=500)
        stream, _ = run_trials(scenario)
        model = full_chain(scenario)
        draws = trial_uniforms(scenario.seed, np.arange(scenario.trials))
        for k in range(scenario.trials):
            if kind == "pure":
                assert stochastic_restriction(model, float(draws[k])).values == (stream.q_values[k],)
            else:
                index, pattern = sample_gemenge(model, float(draws[k]))
                assert (index, pattern.values) == (stream.branches[k], (stream.q_values[k],))

    def test_zero_trials_rejected(self):
        with pytest.raises(ValidationError):
            Scenario(SYM, SYM, "pure", trials=0)


class TestBornReport:
    @pytest.mark.parametrize("a1,a2,kind", [
        (np.sqrt(0.3), np.sqrt(0.7), "pure"),
        (1e-3, -np.sqrt(1.0 - 1e-6), "pure"),
        (1.0, 0.0, "pure"),
        (np.sqrt(0.3), 1j * np.sqrt(0.7), "gemenge"),
    ])
    def test_chunked_counts_equal_the_stream(self, a1, a2, kind):
        # three full chunks and a remainder
        scenario = Scenario(a1, a2, kind, seed=21, trials=3 * CHUNK + 17)
        _, report = run_trials(scenario)
        assert born_report(full_chain(scenario), scenario) == report

    @staticmethod
    def _counted_like_the_stream(monkeypatch, model, trials):
        """born_report and run_trials on `model`; asserts equal reports, returns the stream."""
        monkeypatch.setattr(sampling, "full_chain", lambda scenario: model)
        scenario = Scenario(SYM, SYM, "gemenge", seed=SEED, trials=trials)
        stream, report = run_trials(scenario)
        assert born_report(model, scenario) == report
        return stream

    @pytest.mark.parametrize("trials", [6, CHUNK + 1])
    def test_draw_on_a_cell_edge_counted_in_the_upper_cell(self, monkeypatch, trials):
        u5 = trial_uniform(SEED, 5)
        model = Gemenge(((chain_product(BASIS_1), u5), (chain_product(BASIS_2), 1.0 - u5)))
        assert model.born_table.edges[0] == u5  # draw 5 sits on the edge
        stream = self._counted_like_the_stream(monkeypatch, model, trials)
        assert stream.branches[5] == 1

    @pytest.mark.parametrize("trials", [1, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_three_branch_gemenge(self, monkeypatch, trials):
        model = Gemenge(((chain_product(BASIS_1), 0.2), (chain_product(BASIS_2), 0.5),
                         (chain_product(BASIS_1, BASIS_2), 0.3)))
        self._counted_like_the_stream(monkeypatch, model, trials)

    def test_draws_past_the_last_edge_clipped_into_the_last_cell(self, monkeypatch):
        # weights short of 1 end the last cell at 0.5, so half the draws land past it
        model = full_chain(Scenario(SYM, SYM, "gemenge"))
        table = BornTable((0.25, 0.25), np.array([0.25]), ((0, 0.5), (1, -0.5)))
        monkeypatch.setitem(model.__dict__, "born_table", table)
        stream = self._counted_like_the_stream(monkeypatch, model, CHUNK + 1)
        u = trial_uniforms(SEED, np.arange(CHUNK + 1))
        assert np.array_equal(stream.branches, (u >= 0.25).astype(np.int64))

    @staticmethod
    def _tail_counts(model, seed, trials):
        """born_report's count of draws at or above each edge of `model`'s table, whose
        cell j records pointer value -j so that the report lists the cells in order."""
        report = born_report(model, Scenario(SYM, SYM, "gemenge", seed=seed, trials=trials))
        counts = [s.count for s in report.stats]
        return np.cumsum(counts[::-1])[::-1][1:].tolist()

    @staticmethod
    def _edge_table(edges):
        n = len(edges) + 1
        return BornTable((1.0 / n,) * n, tuple(float(e) for e in edges),
                         tuple((j, float(-j)) for j in range(n)))

    @given(case=counting_cases())
    @example(case=(MASK, CHUNK + 1, [0.0, 5e-324, 2**-53, 0.5, 1.0 - 2**-53, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_integer_count_equals_the_float_comparison(self, case):
        seed, trials, edges = case
        model = full_chain(Scenario(SYM, SYM, "gemenge"))
        model.__dict__["born_table"] = self._edge_table(edges)  # a fresh model per example
        u = trial_uniforms(seed, np.arange(trials))
        assert self._tail_counts(model, seed, trials) == [
            np.count_nonzero(u >= e) for e in edges]

    @pytest.mark.parametrize("trials,exact", [(6, False), (CHUNK + 1, False), (CHUNK + 1, True)])
    def test_edge_one_ulp_either_side_of_a_draw(self, monkeypatch, trials, exact):
        # an exact draw's SplitMix64 output has its 11 dropped bits zero, so the
        # output equals the integer limit of an edge on the draw
        k = next(k for k in range(trials)
                 if (sampling._splitmix64(SEED, k) & 0x7FF == 0) == exact)
        uk = trial_uniform(SEED, k)
        edges = [float(np.nextafter(uk, 0.0)), uk, float(np.nextafter(uk, 1.0))]
        model = full_chain(Scenario(SYM, SYM, "gemenge"))
        monkeypatch.setitem(model.__dict__, "born_table", self._edge_table(edges))
        u = trial_uniforms(SEED, np.arange(trials))
        tails = self._tail_counts(model, SEED, trials)
        assert tails == [np.count_nonzero(u >= e) for e in edges]
        # draw k is counted at the edge one ulp below it and at its own, not one ulp above
        assert tails[0] == tails[1] == tails[2] + 1

    @pytest.mark.parametrize("edge,counted", [
        (0.0, "all"), (5e-324, "positive"), (2**-53, "positive"), (1.0 - 2**-53, "top"),
        (1.0, "none"), (2.0, "none"), (float("inf"), "none"),
    ])
    def test_extreme_edges(self, monkeypatch, edge, counted):
        model = full_chain(Scenario(SYM, SYM, "gemenge"))
        monkeypatch.setitem(model.__dict__, "born_table", self._edge_table([edge]))
        trials = CHUNK + 1
        u = trial_uniforms(SEED, np.arange(trials))
        expected = {"all": trials, "positive": np.count_nonzero(u > 0.0),
                    "top": np.count_nonzero(u == 1.0 - 2**-53), "none": 0}[counted]
        assert self._tail_counts(model, SEED, trials) == [expected] == [
            np.count_nonzero(u >= edge)]

    def test_cells_below_the_floor_dropped_and_renormalized(self):
        ms = full_chain(Scenario(np.sqrt(1e-13), np.sqrt(1.0 - 1e-13), "pure"))
        assert (ms.born_table.weights, ms.born_table.outcomes) == ((1.0,), ((-1, -0.5),))

    @pytest.mark.parametrize("a1,a2,edges", [
        (0.0, 1.0, None), (np.sqrt(1e-13), np.sqrt(1.0 - 1e-13), None),
        (SYM, SYM, [1.0]), (SYM, SYM, [1.0, float("inf")]),
    ])
    def test_no_reachable_edge_counted_without_drawing(self, monkeypatch, a1, a2, edges):
        # one cell, or edges no draw reaches: every trial lands in cell 0
        model = full_chain(Scenario(a1, a2, "gemenge"))
        if edges is not None:
            monkeypatch.setitem(model.__dict__, "born_table", self._edge_table(edges))

        def fail(*args):
            raise AssertionError("drew a uniform for a table no draw can split")

        monkeypatch.setattr(sampling, "_splitmix_finalize", fail)
        report = born_report(model, Scenario(a1, a2, "gemenge", seed=SEED, trials=MAX_TRIALS))
        assert report.stats[0].count == MAX_TRIALS
        assert sum(s.count for s in report.stats[1:]) == 0

    @pytest.mark.parametrize("trials", [1, 17])
    @pytest.mark.parametrize("kind", ["pure", "gemenge"])
    def test_short_run_memory_sized_to_the_run(self, kind, trials):
        scenario = Scenario(SYM, SYM, kind, seed=SEED, trials=trials)
        model = full_chain(scenario)
        tracemalloc.start()
        try:
            born_report(model, scenario)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    # run_trials holds its stream, so its cap is the lower MAX_STREAM_TRIALS
    @pytest.mark.parametrize("sample,trials", [
        pytest.param("born_report", MAX_TRIALS + 1, id="born_report"),
        pytest.param("run_trials", MAX_STREAM_TRIALS + 1, id="run_trials"),
    ])
    def test_trials_above_the_cap_rejected_without_drawing(self, monkeypatch, sample, trials):
        scenario = Scenario(SYM, SYM, "pure", trials=trials)
        model = full_chain(scenario)  # born_report counts on a chain its caller built

        def fail(*args):
            raise AssertionError("built a chain or drew a uniform for a rejected trial count")

        # every uniform and every counted output comes from the one SplitMix64 kernel
        monkeypatch.setattr(sampling, "_splitmix_finalize", fail)
        monkeypatch.setattr(sampling, "full_chain", fail)
        with pytest.raises(CapacityError, match=f"trials {trials} exceeds"):
            if sample == "born_report":
                born_report(model, scenario)
            else:
                run_trials(scenario)


class TestCompareStreams:
    def test_identical_streams(self):
        stream, _ = run_trials(Scenario(SYM, SYM, "pure", seed=5, trials=2000))
        result = compare_streams(stream, stream)
        assert result.p_value == 1.0
        assert result.verdict == "indistinguishable"

    def test_matched_pure_and_gemenge(self):
        s1, _ = run_trials(Scenario(np.sqrt(0.3), np.sqrt(0.7), "pure", seed=100, trials=100_000))
        s2, _ = run_trials(Scenario(np.sqrt(0.3), np.sqrt(0.7), "gemenge", seed=101, trials=100_000))
        result = compare_streams(s1, s2)
        assert result.verdict == "indistinguishable"

    def test_detects_different_weights(self):
        s1, _ = run_trials(Scenario(np.sqrt(0.5), np.sqrt(0.5), "pure", seed=6, trials=100_000))
        s2, _ = run_trials(Scenario(np.sqrt(0.6), np.sqrt(0.4), "pure", seed=7, trials=100_000))
        result = compare_streams(s1, s2)
        assert result.verdict == "distinct"
        assert result.p_value < 1e-6

    def test_phase_blind_streams_identical(self):
        base, _ = run_trials(Scenario(np.sqrt(0.3), np.sqrt(0.7), "pure", seed=8, trials=20_000))
        for phi in np.linspace(0.1, 2 * np.pi, 5):
            other, _ = run_trials(Scenario(np.sqrt(0.3), np.sqrt(0.7) * np.exp(1j * phi),
                                           "pure", seed=8, trials=20_000))
            assert np.array_equal(base.q_values, other.q_values)
            assert compare_streams(base, other).p_value == 1.0

    def test_empty_stream_rejected(self):
        empty = OutcomeStream(0, np.array([]), np.array([], dtype=np.int64), "x")
        stream, _ = run_trials(Scenario(SYM, SYM, "pure", seed=9, trials=100))
        with pytest.raises(ValidationError):
            compare_streams(empty, stream)


class TestInformationPattern:
    def test_validation(self):
        with pytest.raises(ValidationError):
            InformationPattern(())
        with pytest.raises(ValidationError):
            InformationPattern((float("nan"),))

