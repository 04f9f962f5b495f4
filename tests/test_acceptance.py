"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
print. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import numpy as np
import pytest
from helpers import random_discrimination_problem

from mschain.chain import (
    Scenario,
    decohere,
    full_chain,
    object_detector_state,
    prepare_gemenge,
    prepare_object_state,
    statistical_restriction,
)
from mschain.cli import config_from_dict, execute, main, render_report
from mschain.discriminate import (
    ObservableSpec,
    build_it_observable,
    build_pointer_algebra,
    check_eigen_discrimination,
    combine_observable,
    numeric_feasibility_oracle,
    recognition_problem,
    superposition_discrimination_problem,
)
from mschain.linalg import (
    TensorLayout,
    eig_hermitian,
    embed_operator,
    partial_trace,
    pure_density,
)
from mschain.metrics import eigen_distribution, overlap_bc, overlap_tv, purity_report, transverse_spin
from mschain.sampling import compare_streams, run_trials

SYM = 2**-0.5


def conclude(number: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number:>2} {name}: {status}")
    assert not failures, f"criterion {number} failed: {failures[:5]}"


def amplitude_grid(n=20):
    thetas = np.linspace(0.0, np.pi / 2, n + 2)[1:-1]
    phis = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
    return [(np.cos(t), np.sin(t) * np.exp(1j * p)) for t, p in zip(thetas, phis)]


def test_criterion_1_restriction_identity():
    failures = []
    for a1, a2 in amplitude_grid(20):
        rho = statistical_restriction(full_chain(Scenario(a1, a2, "pure")))
        target = np.diag([abs(a1) ** 2, abs(a2) ** 2]).astype(complex)
        err = np.max(np.abs(rho - target))
        if err >= 1e-12:
            failures.append((a1, a2, err))
    conclude(1, "restriction identity", failures)


def test_criterion_2_no_go_sweep():
    failures = []
    thetas = np.linspace(0.0, np.pi / 2, 22)[1:-1]
    phis = np.linspace(0.0, 2 * np.pi, 20, endpoint=False)
    grid = (0.0, 1.0, 2.0)
    for theta in thetas:
        for phi in phis:
            a1 = np.cos(theta)
            a2 = np.sin(theta) * np.exp(1j * phi)
            problem = superposition_discrimination_problem(a1, a2)
            result = check_eigen_discrimination(problem)
            if result.feasible:
                failures.append(("feasible", theta, phi))
                continue
            residual, _ = numeric_feasibility_oracle(problem, grid)
            if residual < 1e-6:
                failures.append(("oracle disagreement", theta, phi, residual))

    # endpoints: the recognition problem is feasible with a pointer-like witness
    rec = recognition_problem()
    rec_result = check_eigen_discrimination(rec)
    if not rec_result.feasible:
        failures.append("recognition infeasible")
    else:
        obs, assignment = rec_result.witness
        if assignment[0] == assignment[1]:
            failures.append("recognition eigenvalues not distinct")
        if abs(obs.matrix[0, 1]) > 1e-12:
            failures.append("recognition witness not pointer-diagonal")
        residual, _ = numeric_feasibility_oracle(rec, grid)
        if residual >= 1e-6:
            failures.append(("recognition oracle residual", residual))
    conclude(2, "eigenvalue discrimination no-go sweep", failures)


def test_criterion_3_overlap_values():
    failures = []
    sx = transverse_spin(0.0)
    for theta in np.linspace(0.0, np.pi / 2, 22)[1:-1]:
        a1, a2 = np.cos(theta), np.sin(theta)
        w_pure = eigen_distribution(pure_density(prepare_object_state(a1, a2)), sx)
        w_mix = eigen_distribution(prepare_gemenge(a1, a2).density(), sx)
        k_tv = overlap_tv(w_pure, w_mix)
        if abs(k_tv - (1.0 - a1 * a2)) >= 1e-12:
            failures.append(("tv law", theta, k_tv))

    w_pure = eigen_distribution(pure_density(prepare_object_state(SYM, SYM)), sx)
    w_mix = eigen_distribution(prepare_gemenge(SYM, SYM).density(), sx)
    k_tv = overlap_tv(w_pure, w_mix)
    k_bc = overlap_bc(w_pure, w_mix)
    if abs(k_tv - 0.5) >= 1e-12:
        failures.append(("symmetric tv", k_tv))
    if abs(k_bc - np.sqrt(2) / 2) >= 1e-12:
        failures.append(("symmetric sqrt-product", k_bc))

    # the report surfaces both conventions with the discrepancy note
    report = execute(config_from_dict({"trials": 100}, override_command="overlap"))
    if not any("overlap_sqrt" in note and "overlap_min" in note for note in report.notes):
        failures.append("missing convention note")
    labels = {row.label for row in report.rows}
    if not {"overlap.spin_x.overlap_min", "overlap.spin_x.overlap_sqrt"} <= labels:
        failures.append("missing overlap rows")
    conclude(3, "overlap reference values", failures)


def test_criterion_4_detector_blindness():
    failures = []
    a1, a2 = np.sqrt(0.3), np.sqrt(0.7) * np.exp(0.7j)
    rho_d_pure = object_detector_state(a1, a2).reduced(("D",))
    rho_d_mix = np.diag([abs(a1) ** 2, abs(a2) ** 2]).astype(complex)
    alg = build_pointer_algebra()

    rng = np.random.default_rng(2026)
    specs = [ObservableSpec(*(d / np.linalg.norm(d))) for d in rng.normal(size=(50, 3))]
    specs += [ObservableSpec(0.0, float(np.cos(g)), float(np.sin(g)))
              for g in np.linspace(0, 2 * np.pi, 36, endpoint=False)]
    for spec in specs:
        obs = combine_observable(alg, spec)
        w_pure = eigen_distribution(rho_d_pure, obs)
        w_mix = eigen_distribution(rho_d_mix, obs)
        k_tv, k_bc = overlap_tv(w_pure, w_mix), overlap_bc(w_pure, w_mix)
        if abs(k_tv - 1.0) >= 1e-12 or abs(k_bc - 1.0) >= 1e-12:
            failures.append((spec, k_tv, k_bc))

    # cross-check a few through the full-space route
    sd = object_detector_state(a1, a2)
    layout = TensorLayout((("S", 2), ("D", 2)))
    mix_full = (abs(a1) ** 2 * pure_density(np.kron([1, 0], [1, 0]))
                + abs(a2) ** 2 * pure_density(np.kron([0, 1], [0, 1]))).astype(complex)
    for spec in specs[:3]:
        obs = combine_observable(alg, spec)
        full_op = embed_operator(obs.matrix, layout, "D")
        w_pure = eigen_distribution(sd.vector, full_op)
        w_mix = eigen_distribution(mix_full, full_op)
        if abs(overlap_tv(w_pure, w_mix) - 1.0) >= 1e-12:
            failures.append(("full-space route", spec))
    conclude(4, "detector observables blind to purity", failures)


def test_criterion_5_interference_term():
    failures = []
    it = build_it_observable()
    psi = full_chain(Scenario(SYM, SYM, "pure"))
    residual = float(np.linalg.norm(it.observable.matrix @ psi.vector - psi.vector))
    if residual >= 1e-12:
        failures.append(("eigenvector residual", residual))

    mixture = full_chain(Scenario(SYM, SYM, "gemenge")).density()
    w_mix = eigen_distribution(mixture, it.observable)
    probs = w_mix.probabilities
    if abs(probs[1.0] - 0.5) >= 1e-12 or abs(probs[-1.0] - 0.5) >= 1e-12:
        failures.append(("mixture distribution", probs))
    mean_b = float(np.real(np.trace(mixture @ it.observable.matrix)))
    if abs(mean_b) >= 1e-12:
        failures.append(("mixture mean", mean_b))

    w_pure = eigen_distribution(psi, it.observable)
    k_b = overlap_tv(w_pure, w_mix)
    if abs(k_b - 0.5) >= 1e-12:
        failures.append(("overlap", k_b))
    conclude(5, "interference-term observable", failures)


def test_criterion_6_born_rule():
    failures = []
    sigma4 = 4.0 * np.sqrt(0.3 * 0.7 / 1_000_000)
    assert sigma4 == pytest.approx(1.833e-3, rel=1e-3)
    passes = 0
    for seed in range(20):
        scenario = Scenario(np.sqrt(0.3), np.sqrt(0.7), "pure", seed=seed, trials=1_000_000)
        _, report = run_trials(scenario)
        freq = next(s.frequency for s in report.stats if s.value == 0.5)
        if abs(freq - 0.3) < sigma4 and report.p_value > 0.001:
            passes += 1
    if passes < 19:
        failures.append(("passes", passes))
    conclude(6, "Born rule convergence", failures)


def test_criterion_7_pure_gemenge_indistinguishable():
    failures = []
    agreeing = 0
    for pair in range(100):
        pure_stream, _ = run_trials(
            Scenario(np.sqrt(0.3), np.sqrt(0.7), "pure", seed=10_000 + 2 * pair, trials=100_000))
        gem_stream, _ = run_trials(
            Scenario(np.sqrt(0.3), np.sqrt(0.7), "gemenge", seed=10_001 + 2 * pair, trials=100_000))
        if compare_streams(pure_stream, gem_stream).verdict == "indistinguishable":
            agreeing += 1
    if agreeing < 95:
        failures.append(("indistinguishable pairs", agreeing))
    conclude(7, "pure vs gemenge streams", failures)


def test_criterion_8_decoherence_law():
    failures = []
    ms = full_chain(Scenario(SYM, SYM, "pure"))
    rho0 = ms.density()
    for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
        for n_env in range(7):
            result = decohere(ms, n_env, eps)[n_env]
            law = eps**n_env if n_env > 0 else 1.0
            if abs(result.coherence_factor - law) >= 1e-12:
                failures.append(("factor", eps, n_env))
            # cross-check against the explicit partial trace
            if abs(result.reduced_ms[0, 7] - law * rho0[0, 7]) >= 1e-12:
                failures.append(("off-diagonal", eps, n_env))

    for a1, a2 in ((1.0, 0.0), (0.0, 1.0)):
        pointer = full_chain(Scenario(a1, a2, "pure"))
        for eps in (0.0, 0.25, 0.5, 0.75, 1.0):
            for n_env in range(7):
                reduced = decohere(pointer, n_env, eps)[n_env].reduced_ms
                fidelity = float(np.real(pointer.vector.conj() @ reduced @ pointer.vector))
                if fidelity <= 1.0 - 1e-12:
                    failures.append(("pointer fixed point", a1, eps, n_env, fidelity))
    conclude(8, "decoherence suppression law", failures)


def test_criterion_9_purity_rate():
    failures = []
    for a1, a2 in amplitude_grid(20):
        r_p = purity_report(pure_density(prepare_object_state(a1, a2))).r_p
        if abs(r_p - 2.0 * abs(a1) * abs(a2)) >= 1e-12:
            failures.append(("pure law", a1, a2, r_p))
        mixed = purity_report(prepare_gemenge(a1, a2).density()).r_p
        if abs(mixed) >= 1e-12:
            failures.append(("mixture", a1, a2, mixed))
    rng = np.random.default_rng(99)
    for _ in range(1000):
        m = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho = m @ m.conj().T
        rho /= np.trace(rho)
        r_p = purity_report(rho).r_p
        if not -1e-12 <= r_p <= 1.0 + 1e-12:
            failures.append(("bounds", r_p))
    conclude(9, "purity rate", failures)


def test_criterion_10_property_suites(tmp_path):
    failures = []
    rng = np.random.default_rng(4242)

    # spectral reconstruction, 100 random Hermitian instances
    for _ in range(100):
        dim = int(rng.integers(2, 17))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = (a + a.conj().T) / 2
        spec = eig_hermitian(h)
        recon = (spec.vectors * spec.eigenvalues) @ spec.vectors.conj().T
        if np.max(np.abs(recon - h)) >= 1e-9:
            failures.append("reconstruction")

    # partial trace of product states, 100 random instances
    for _ in range(100):
        da, db = int(rng.integers(2, 5)), int(rng.integers(2, 5))
        ma = rng.normal(size=(da, da)) + 1j * rng.normal(size=(da, da))
        mb = rng.normal(size=(db, db)) + 1j * rng.normal(size=(db, db))
        rho_a = ma @ ma.conj().T
        rho_a /= np.trace(rho_a)
        rho_b = mb @ mb.conj().T
        rho_b /= np.trace(rho_b)
        layout = TensorLayout((("A", da), ("B", db)))
        if np.max(np.abs(partial_trace(np.kron(rho_a, rho_b), layout, ("A",)) - rho_a)) >= 1e-12:
            failures.append("partial trace")

    # solver vs oracle on 200 random discrimination problems
    grid = (0.0, 1.0, 2.0, 3.0)
    for _ in range(200):
        problem, expected_feasible = random_discrimination_problem(rng)
        result = check_eigen_discrimination(problem)
        residual, _ = numeric_feasibility_oracle(problem, grid)
        if result.feasible != expected_feasible or (residual < 1e-6) != result.feasible:
            failures.append(("solver/oracle", expected_feasible, result.verdict, residual))

    # CLI end-to-end determinism, byte for byte
    config = config_from_dict(
        {"a1": 0.6, "a2": [0.0, 0.8], "seed": 31, "trials": 2000, "n_env": 3,
         "env_overlap": 0.5},
        override_command="all")
    if render_report(execute(config)) != render_report(execute(config)):
        failures.append("execute not deterministic")
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text('{"a1": 0.6, "a2": [0.0, 0.8], "seed": 31, "trials": 2000}')
    main(["all", "--config", str(cfg_path), "--out", str(out1)])
    main(["all", "--config", str(cfg_path), "--out", str(out2)])
    if out1.read_bytes() != out2.read_bytes():
        failures.append("cli output not byte-identical")
    conclude(10, "property suites", failures)
