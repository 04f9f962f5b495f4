"""Shared test fixtures: randomized discrimination problems with known verdicts."""

import numpy as np

from mschain.discriminate import DiscriminationProblem


def random_discrimination_problem(rng):
    """A random problem plus whether it is feasible by construction.

    Feasible instances draw each group's states from its own orthogonal column
    subspace of a random unitary; infeasible instances require a balanced
    superposition of two states to take an eigenvalue distinct from both.
    """
    dim = int(rng.integers(4, 9))
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, _ = np.linalg.qr(a)
    if rng.random() < 0.5:
        n_groups = int(rng.integers(2, 4))
        avail = list(rng.permutation(dim))
        states, groups = [], []
        for gi in range(n_groups):
            if len(states) >= 4:
                break
            spare = len(avail) - (n_groups - gi - 1)
            span_size = int(rng.integers(1, min(2, spare) + 1))
            span = q[:, [avail.pop() for _ in range(span_size)]]
            n_members = min(int(rng.integers(1, 3)), 4 - len(states))
            members = []
            for _ in range(n_members):
                c = rng.normal(size=span.shape[1]) + 1j * rng.normal(size=span.shape[1])
                members.append(span @ (c / np.linalg.norm(c)))
            groups.append(tuple(range(len(states), len(states) + len(members))))
            states.extend(members)
        return DiscriminationProblem(dim, tuple(states), tuple(groups)), True
    s1, s2 = q[:, 0], q[:, 1]
    mix = rng.uniform(0.35, 0.65)
    s0 = np.sqrt(mix) * s1 + np.sqrt(1 - mix) * np.exp(1j * rng.uniform(0, 2 * np.pi)) * s2
    return DiscriminationProblem(dim, (s0, s1, s2), ((0,), (1,), (2,))), False


def planted_problem(rng):
    """A random problem of either verdict whose states carry planted dependences.

    Dim 2 to 6 and 2 to 7 states. Each state after the first is a column of
    one random unitary (orthogonal to the other columns), a random vector, a
    repeat of an earlier state up to a phase, a combination of earlier states
    with coefficients of any scale from 1e-13 to 1, or such a combination
    plus a random vector of norm 1e-13 to 1e-6 (a near-combination); each is
    normalized. Up to three groups over a random subset of the states.
    """
    dim, m = int(rng.integers(2, 7)), int(rng.integers(2, 8))
    q, _ = np.linalg.qr(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))

    def gaussian(size):
        return rng.normal(size=size) + 1j * rng.normal(size=size)

    states = []
    for k in range(m):
        kind = int(rng.integers(5)) if k else 0
        if kind == 0:
            v = q[:, int(rng.integers(dim))]
        elif kind == 1:
            v = gaussian(dim)
        elif kind == 2:
            v = states[int(rng.integers(k))] * np.exp(1j * rng.uniform(0, 2 * np.pi))
        else:
            picks = rng.choice(k, size=min(k, int(rng.integers(2, 4))), replace=False)
            scales = 10.0 ** rng.uniform(-13, 0, size=len(picks))
            v = sum(c * states[j] for c, j in zip(scales * gaussian(len(picks)), picks))
            if kind == 4:
                v = v + 10.0 ** rng.uniform(-13, -6) * gaussian(dim) / np.sqrt(2 * dim)
        states.append(v / np.linalg.norm(v))
    n_groups = int(rng.integers(1, min(3, m) + 1))
    labels = rng.integers(-1, n_groups, size=m)  # -1: ungrouped
    labels[rng.choice(m, size=n_groups, replace=False)] = np.arange(n_groups)  # none empty
    groups = tuple(tuple(int(i) for i in np.flatnonzero(labels == g)) for g in range(n_groups))
    return DiscriminationProblem(dim, tuple(states), groups)
