"""Foreign arrays are checked once, at each public entry point.

Every public function that takes an array gets a NaN, an Inf and a wrong
shape, and must raise the exception type and message pinned here: the ones
it raised while every layer still re-checked its arrays, except the cases
marked below. Arrays the package builds itself pass inward unchecked,
so these cases are what keeps the checks at the boundary from getting weaker.
"""

import numpy as np
import pytest

from mschain import errors
from mschain.chain import (
    Gemenge,
    MSState,
    Scenario,
    full_chain,
    statistical_restriction,
)
from mschain.discriminate import DiscriminationProblem
from mschain.linalg import (
    HermitianObservable,
    TensorLayout,
    eig_hermitian,
    embed_operator,
    partial_trace,
    pure_density,
    require_hermitian,
    unitary_exp,
    validate_state_vector,
)
from mschain.metrics import (
    eigen_distribution,
    phase_averaged_purity_information,
    purity_report,
    transverse_spin,
)

LAYOUT = TensorLayout((("S", 2), ("D", 2), ("O", 2)))
V2 = np.array([0.6, 0.8j])
RHO2 = np.outer(V2, V2.conj())
RHO8 = np.eye(8, dtype=complex) / 8
SX = transverse_spin(0.0)


def _poisoned(a, value):
    out = np.array(a, dtype=complex)
    out.flat[1] = value
    return out


FINITE = "entries must be finite (no NaN/Inf)"


def _chain():
    return full_chain(Scenario(0.6, 0.8))


# Each case takes (v2, rho2, v8, rho8): a 2-vector, 2x2 density, 8-vector and
# 8x8 density with one bad entry, and hands one of them to a public function.
NONFINITE = {
    "eigen_distribution/vector": lambda v2, r2, v8, r8: eigen_distribution(v2, SX),
    "eigen_distribution/density": lambda v2, r2, v8, r8: eigen_distribution(r2, SX),
    "eigen_distribution/observable": lambda v2, r2, v8, r8: eigen_distribution(RHO2, r2),
    "phase_averaged/pure": lambda v2, r2, v8, r8: phase_averaged_purity_information(r2, RHO2),
    "phase_averaged/mixed": lambda v2, r2, v8, r8: phase_averaged_purity_information(RHO2, r2),
    "phase_averaged/vector": lambda v2, r2, v8, r8: phase_averaged_purity_information(v2, RHO2),
    "purity_report/density": lambda v2, r2, v8, r8: purity_report(r2),
    "purity_report/vector": lambda v2, r2, v8, r8: purity_report(v2),
    "partial_trace": lambda v2, r2, v8, r8: partial_trace(r8, LAYOUT, "O"),
    "validate_state_vector": lambda v2, r2, v8, r8: validate_state_vector(v2),
    # pure_density checked nothing before: it returned a NaN density
    "pure_density": lambda v2, r2, v8, r8: pure_density(v2),
    "require_hermitian": lambda v2, r2, v8, r8: require_hermitian(r2),
    "MSState": lambda v2, r2, v8, r8: MSState(v8, LAYOUT),
    # a foreign array reaches the restriction and a gemenge only inside an MSState
    "statistical_restriction": lambda v2, r2, v8, r8: statistical_restriction(MSState(v8, LAYOUT)),
    "HermitianObservable": lambda v2, r2, v8, r8: HermitianObservable(r2),
    "eig_hermitian": lambda v2, r2, v8, r8: eig_hermitian(r2),
    "unitary_exp": lambda v2, r2, v8, r8: unitary_exp(r2, 1.0),
    "embed_operator": lambda v2, r2, v8, r8: embed_operator(r2, LAYOUT, "D"),
    "DiscriminationProblem": lambda v2, r2, v8, r8: DiscriminationProblem(
        2, (V2, v2), ((0,), (1,))),
    "Gemenge.density": lambda v2, r2, v8, r8: Gemenge(((MSState(v8, LAYOUT), 1.0),)).density(),
}

RHO3 = np.eye(3, dtype=complex) / 3
V3 = np.ones(3, dtype=complex) / np.sqrt(3)
STACKED = np.stack([RHO2, RHO2])
NOT_A_STATE = "is neither a vector nor a square density"
U, V = errors.UsageError, errors.ValidationError
# label -> (call, exception type, message)
WRONG_SHAPE = {
    "eigen_distribution/density": (lambda: eigen_distribution(RHO3, SX),
                                   U, "state dim 3 does not match observable dim 2"),
    "eigen_distribution/vector": (lambda: eigen_distribution(V3, SX),
                                  U, "state dim 3 does not match observable dim 2"),
    "eigen_distribution/observable": (lambda: eigen_distribution(RHO2, np.ones((2, 3))),
                                      V, "operator must be a square matrix"),
    "phase_averaged/pure": (lambda: phase_averaged_purity_information(RHO3, RHO2),
                            U, "state dim 3 does not match observable dim 2"),
    "phase_averaged/mixed": (lambda: phase_averaged_purity_information(RHO2, RHO3),
                             U, "state dim 3 does not match observable dim 2"),
    "phase_averaged/vector": (lambda: phase_averaged_purity_information(V3, RHO2),
                              U, "state dim 3 does not match observable dim 2"),
    # these four raised a bare IndexError, TypeError or ValueError before the shape check
    "eigen_distribution/scalar": (lambda: eigen_distribution(0.5, SX), U,
                                  f"state shape () {NOT_A_STATE}"),
    "eigen_distribution/stacked": (lambda: eigen_distribution(STACKED, SX), U,
                                   f"state shape (2, 2, 2) {NOT_A_STATE}"),
    "eigen_distribution/rectangular": (lambda: eigen_distribution(np.ones((2, 3)), SX), U,
                                       f"state shape (2, 3) {NOT_A_STATE}"),
    "phase_averaged/stacked": (lambda: phase_averaged_purity_information(STACKED, RHO2), U,
                               f"state shape (2, 2, 2) {NOT_A_STATE}"),
    "purity_report/density": (lambda: purity_report(RHO3),
                              U, "purity rate is defined for two-dim states"),
    "purity_report/vector": (lambda: purity_report(V3),
                             U, "purity rate is defined for two-dim states"),
    "partial_trace/size": (lambda: partial_trace(RHO3, LAYOUT, "O"),
                           U, "density shape (3, 3) does not match layout dim 8"),
    "partial_trace/vector": (lambda: partial_trace(_chain().vector, LAYOUT, "O"),
                             U, "density shape (8,) does not match layout dim 8"),
    "validate_state_vector/matrix": (lambda: validate_state_vector(RHO2),
                                     V, "state vector must be a nonempty 1-d array"),
    "validate_state_vector/empty": (lambda: validate_state_vector(np.zeros(0)),
                                    V, "state vector must be a nonempty 1-d array"),
    # these two returned a 4x4 and an empty matrix before
    "pure_density/matrix": (lambda: pure_density(RHO2),
                            V, "state vector must be a nonempty 1-d array"),
    "pure_density/empty": (lambda: pure_density(np.zeros(0)),
                           V, "state vector must be a nonempty 1-d array"),
    "require_hermitian": (lambda: require_hermitian(V2), V, "operator must be a square matrix"),
    "MSState/length": (lambda: MSState(V2, LAYOUT),
                       V, "vector dim 2 does not match layout dim 8"),
    "MSState/matrix": (lambda: MSState(RHO8, LAYOUT),
                       V, "state vector must be a nonempty 1-d array"),
    # a bare density carries no layout; it raised "a bare density matrix needs an explicit
    # layout" while the restriction also took a density plus a layout
    "statistical_restriction/no-layout": (lambda: statistical_restriction(RHO8), U,
                                          "the restriction needs an MSState or a Gemenge, "
                                          "not ndarray"),
    "HermitianObservable/rectangular": (lambda: HermitianObservable(np.ones((2, 3))),
                                        V, "operator must be a square matrix"),
    "HermitianObservable/vector": (lambda: HermitianObservable(V2),
                                   V, "operator must be a square matrix"),
    "embed_operator": (lambda: embed_operator(RHO3, LAYOUT, "D"),
                       U, "operator shape (3, 3) does not match factor 'D' of dim 2"),
    "DiscriminationProblem": (lambda: DiscriminationProblem(2, (V2, V3), ((0,),)),
                              V, "state dim 3 does not match space_dim 2"),
}


def _raises_exactly(call, kind, message):
    with pytest.raises(kind) as info:
        call()
    assert type(info.value) is kind
    assert str(info.value) == message


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.nan)],
                         ids=["nan", "inf", "neg-inf", "imag-nan"])
@pytest.mark.parametrize("label", sorted(NONFINITE))
def test_nonfinite_entry_is_rejected(label, bad):
    arrays = [_poisoned(a, bad) for a in (V2, RHO2, _chain().vector, RHO8)]
    _raises_exactly(lambda: NONFINITE[label](*arrays), V, FINITE)


@pytest.mark.parametrize("label", sorted(WRONG_SHAPE))
def test_wrong_shape_is_rejected(label):
    _raises_exactly(*WRONG_SHAPE[label])


NAN = float("nan")
# label -> (call, message): a NaN scalar field or branch weight, which every
# comparison let through while they were written as `x > tol`
NAN_SCALAR = {
    "Scenario/a1": (lambda: Scenario(NAN, 1.0),
                    "amplitudes not normalized: |a1|^2+|a2|^2 deviates from 1 by nan"),
    "Scenario/a2": (lambda: Scenario(1.0, complex(0.0, NAN)),
                    "amplitudes not normalized: |a1|^2+|a2|^2 deviates from 1 by nan"),
    "Scenario/n_env": (lambda: Scenario(1.0, 0.0, n_env=NAN), "n_env must be nonnegative"),
    "Scenario/trials": (lambda: Scenario(1.0, 0.0, trials=NAN),
                        "trials must be a positive integer"),
    "Gemenge": (lambda: Gemenge(((_chain(), NAN),)), "branch probabilities sum to nan, not 1"),
}


@pytest.mark.parametrize("label", sorted(NAN_SCALAR))
def test_nan_scalar_is_rejected(label):
    _raises_exactly(NAN_SCALAR[label][0], V, NAN_SCALAR[label][1])


# label -> a value numpy's complex conversion refuses; it raised a bare ValueError
# ("complex() arg is a malformed string", "setting an array element with a
# sequence"), TypeError ("must be real number, not dict") or OverflowError
NOT_NUMBERS = {
    "string": "x",
    "string-entries": [[1, "x"], ["x", 1]],
    "ragged": [[1, 2], [3]],
    "dict": {"a": 1},
    "object": object(),
    "huge-int": [10**400, 1],
}
ENTRY_POINTS = {
    "validate_state_vector": validate_state_vector,
    "MSState": lambda a: MSState(a, LAYOUT),
    "HermitianObservable": HermitianObservable,
    "DiscriminationProblem": lambda a: DiscriminationProblem(2, (a,), ((0,),)),
    "eigen_distribution": lambda a: eigen_distribution(a, SX),
    "purity_report": purity_report,
}


@pytest.mark.parametrize("value", sorted(NOT_NUMBERS))
@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_non_numeric_entries_are_rejected(entry, value):
    with pytest.raises(V, match="^entries must be numbers: ") as info:
        ENTRY_POINTS[entry](NOT_NUMBERS[value])
    assert type(info.value) is V
