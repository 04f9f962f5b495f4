"""The three-stage measurement chain: system S, detector D, observer O.

The object system starts in a two-component superposition (or the matching
probabilistic mixture), the detector and observer start in their symmetric
ready states, and two successive premeasurement unitaries correlate the
pointer bases down the chain. Restriction maps then extract what the observer
factor can see, and a simple product-tag environment model implements
decoherence of the chain state.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CapacityError,
    DecompositionError,
    PreconditionError,
    UsageError,
    ValidationError,
)
from .linalg import (
    IDENTITY_2,
    MAX_DIM,
    NORM_TOL,
    PAULI_X,
    PAULI_Y,
    TensorLayout,
    _kept_positions,
    _kron,
    _require_unit_norm,
    partial_trace,
    pure_density,
    unitary_exp,
    validate_state_vector,
)

# Pointer eigenvalues of the observer's internal pointer observable.
POINTER_EIGENVALUES = (0.5, -0.5)

BASIS_1 = np.array([1.0, 0.0], dtype=complex)
BASIS_2 = np.array([0.0, 1.0], dtype=complex)
# Symmetric ready state of an apparatus factor before it measures anything.
READY_STATE = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)

_HADAMARD = np.array([[1.0, 1.0], [1.0, -1.0]], dtype=complex) / np.sqrt(2.0)

# Net-effect premeasurement unitary on (control, apparatus): conditioned on
# control basis state i it rotates the ready state onto pointer state i.
PREMEASURE_UNITARY = np.zeros((4, 4), dtype=complex)
PREMEASURE_UNITARY[:2, :2] = _HADAMARD
PREMEASURE_UNITARY[2:, 2:] = PAULI_X @ _HADAMARD
# A generator of it: control basis state i evolves the apparatus under k_i, and
# exp(-i K) = PREMEASURE_UNITARY with k_1 = pi/2 (H - 1) and k_2 = pi/4 Y.
PREMEASURE_GENERATOR = np.zeros((4, 4), dtype=complex)
PREMEASURE_GENERATOR[:2, :2] = (math.pi / 2.0) * (_HADAMARD - IDENTITY_2)
PREMEASURE_GENERATOR[2:, 2:] = (math.pi / 4.0) * PAULI_Y

READY_FIDELITY_TOL = 1e-10
BRANCH_PROB_FLOOR = 1e-12

_OBJECT_LAYOUT = TensorLayout((("S", 2),))


def _require_count(value, name: str) -> int:
    """`value` as an int; a float, even 2.0, or a bool is not a count."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _require_number(value, name: str, kind: type, what: str) -> None:
    """Raise ValidationError unless `value` is an instance of the numbers ABC `kind` and not a bool."""
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ValidationError(f"{name} must be {what}, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """Complete description of one chain experiment."""

    a1: complex
    a2: complex
    input_kind: str = "pure"
    n_env: int = 0
    env_overlap: float = 1.0
    seed: int = 42
    trials: int = 100_000

    def __post_init__(self):
        if self.input_kind not in ("pure", "gemenge"):
            raise ValidationError(f"input_kind must be 'pure' or 'gemenge', got {self.input_kind!r}")
        # a bool or a non-number would reach the checks below as a count of 1
        # or a bare TypeError
        for name in ("a1", "a2"):
            _require_number(getattr(self, name), name, numbers.Complex, "a number")
        for name in ("n_env", "seed", "trials"):
            _require_number(getattr(self, name), name, numbers.Real, "an integer")
        _require_number(self.env_overlap, "env_overlap", numbers.Real, "a real number")
        # each check is written so that a NaN fails it
        norm_sq = abs(self.a1) ** 2 + abs(self.a2) ** 2
        if not abs(norm_sq - 1.0) <= NORM_TOL:
            raise ValidationError(
                f"amplitudes not normalized: |a1|^2+|a2|^2 deviates from 1 by {norm_sq - 1.0!r}"
            )
        if not self.n_env >= 0:
            raise ValidationError("n_env must be nonnegative")
        if not 0.0 <= self.env_overlap <= 1.0:
            raise ValidationError("env_overlap must lie in [0, 1]")
        if not 0 <= self.seed < 2**64:
            raise ValidationError("seed must be a 64-bit unsigned integer")
        if not self.trials >= 1:
            raise ValidationError("trials must be a positive integer")
        # after the range checks, which a NaN fails with their own messages;
        # an np.integer is kept as the int it stands for
        for name in ("n_env", "seed", "trials"):
            object.__setattr__(self, name, _require_count(getattr(self, name), name))

    @property
    def probabilities(self) -> tuple[float, float]:
        return (abs(self.a1) ** 2, abs(self.a2) ** 2)


def _scenario_fields(s: Scenario) -> tuple[tuple[str, object], ...]:
    """The scenario's fields as (name, value) pairs sorted by name; complex as [re, im]."""
    return (
        ("a1", [s.a1.real, s.a1.imag]),
        ("a2", [s.a2.real, s.a2.imag]),
        ("env_overlap", s.env_overlap),
        ("input_kind", s.input_kind),
        ("n_env", s.n_env),
        ("seed", s.seed),
        ("trials", s.trials),
    )


def scenario_digest(scenario: Scenario) -> str:
    """Content hash of a scenario, stable across runs and platforms."""
    text = json.dumps(dict(_scenario_fields(scenario)), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("ascii")).hexdigest()[:16]


@dataclass(frozen=True)
class InformationPattern:
    """The real parameters an information system assigns to one recognized outcome."""

    values: tuple[float, ...]

    def __post_init__(self):
        if not self.values:
            raise ValidationError("information pattern must be nonempty")
        if not all(np.isfinite(v) for v in self.values):
            raise ValidationError("information pattern entries must be finite")


@dataclass(frozen=True, eq=False)
class BornTable:
    """A chain model's kept outcome cells: Born weights, inner edges (a tuple
    of every cumulative weight but the last, as floats; a draw's cell is the
    number of edges at or below it, which `bisect.bisect_right` finds for one
    draw and `np.searchsorted` with side "right" for many) and each cell's
    (branch index, recognized pointer value), with the pointer value's
    `InformationPattern` in `patterns`, built and checked once with the table
    and shared by every draw of that cell.

    Built on first use and kept, assuming nothing writes into the model's
    arrays after construction; a failed build caches nothing and raises again.
    """

    weights: tuple[float, ...]
    edges: tuple[float, ...]
    outcomes: tuple[tuple[int, float], ...]
    patterns: tuple[InformationPattern, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "patterns",
                           tuple(InformationPattern((q,)) for _, q in self.outcomes))


def _born_table(weights: list[float], outcome) -> BornTable:
    """Drop the cells below BRANCH_PROB_FLOOR, which no draw can reach, and renormalize."""
    cells = [i for i, p in enumerate(weights) if p >= BRANCH_PROB_FLOOR]
    total = sum(weights[i] for i in cells)
    kept = tuple(weights[i] / total for i in cells)
    edges = tuple(np.cumsum(kept)[:-1].tolist())
    return BornTable(kept, edges, tuple(outcome(i) for i in cells))


@dataclass(frozen=True)
class MSState:
    """A pure state of the composite chain together with its factor layout."""

    vector: np.ndarray
    layout: TensorLayout

    def __post_init__(self):
        vec = validate_state_vector(self.vector)
        object.__setattr__(self, "vector", vec)
        if vec.shape[0] != self.layout.total_dim:
            raise ValidationError(
                f"vector dim {vec.shape[0]} does not match layout dim {self.layout.total_dim}"
            )

    @classmethod
    def _built(cls, vector: np.ndarray, layout: TensorLayout) -> "MSState":
        """A state the package built from checked vectors by norm-preserving steps.

        The layout matches by construction, and the vector skips the
        conversion and finiteness pass of the public constructor. Its unit
        norm is still checked, which a NaN or Inf entry fails.
        """
        state = object.__new__(cls)
        object.__setattr__(state, "vector", _require_unit_norm(vector))
        object.__setattr__(state, "layout", layout)
        return state

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def density(self) -> np.ndarray:
        return pure_density(self.vector)

    def reduced(self, keep) -> np.ndarray:
        """Reduced density matrix on the kept factor labels, in layout order.

        Equals `partial_trace(self.density(), self.layout, keep)` without
        forming |psi><psi|: the vector is viewed as a tensor over the layout's
        dims, the kept axes move to the front, and the result is M @ M^dagger
        with M of shape (d_keep, dim / d_keep), so memory stays O(dim).
        Raises UsageError on an empty keep set or an unknown label.
        """
        positions = _kept_positions(self.layout, keep)
        dims = self.layout.dims
        rest = [i for i in range(len(dims)) if i not in positions]
        d_keep = math.prod(dims[i] for i in positions)
        m = self.vector.reshape(dims).transpose(positions + rest).reshape(d_keep, -1)
        return m @ m.conj().T

    @functools.cached_property
    def born_table(self) -> BornTable:
        """The two pointer cells, weighted |a1|^2 and 1 - |a1|^2, with branch index -1."""
        a1, _ = pointer_branch_amplitudes(self)
        weights = [abs(a1) ** 2, 1.0 - abs(a1) ** 2]
        return _born_table(weights, lambda i: (-1, POINTER_EIGENVALUES[i]))

    @functools.cached_property
    def pointer_value(self) -> float:
        """The pointer eigenvalue that this product state's observer reads.

        Found once per state from `factorize_branch`, so a chain state the
        package keeps, such as a gemenge's branch, is factorized once per
        process. Raises UsageError when the layout has no observer factor or
        the observer is in no pointer basis state, and PreconditionError when
        the state is entangled; a failed call caches nothing.
        """
        factors = factorize_branch(self)
        if "O" not in factors:
            raise UsageError("branch layout has no observer factor")
        for q, weight in zip(POINTER_EIGENVALUES, np.abs(factors["O"]) ** 2):
            if weight > 1.0 - 1e-10:
                return q
        raise UsageError("branch observer state is not a pointer basis state")


@dataclass(frozen=True)
class Gemenge:
    """Explicit probabilistic mixture of MSState branches over one layout.

    Unlike its density matrix, a gemenge remembers which pure states occur
    with which preparation probabilities. Its `born_table` records the
    pointer value that each branch's observer reads.
    """

    branches: tuple[tuple[MSState, float], ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        if not all(isinstance(state, MSState) for state, _ in self.branches):
            raise ValidationError("gemenge branches must be MSState values")
        if len({state.layout for state, _ in self.branches}) > 1:
            raise ValidationError("gemenge branches carry inconsistent layouts")
        # each check is written so that a NaN fails it
        total = sum(p for _, p in self.branches)
        if not abs(total - 1.0) <= NORM_TOL:
            raise ValidationError(f"branch probabilities sum to {total!r}, not 1")
        if not all(p > 0 for _, p in self.branches):
            raise ValidationError("branch probabilities must be positive")

    @property
    def layout(self) -> TensorLayout:
        return self.branches[0][0].layout

    @functools.cached_property
    def born_table(self) -> BornTable:
        """One cell per branch, weighted by its probability, recording the
        `pointer_value` of each kept branch's state; the branches of a chained
        gemenge are process constants, so each is factorized once per process."""
        weights = [p for _, p in self.branches]
        return _born_table(weights, lambda i: (i, self.branches[i][0].pointer_value))

    def density(self) -> np.ndarray:
        out = None
        for state, p in self.branches:
            term = p * pure_density(state.vector)
            out = term if out is None else out + term
        return out


def prepare_object_state(a1: complex, a2: complex) -> np.ndarray:
    """Two-component superposition of the object system's measured eigenstates."""
    vec = np.array([a1, a2], dtype=complex)
    return validate_state_vector(vec)


def prepare_gemenge(a1: complex, a2: complex) -> Gemenge:
    """Mixture of the object eigenstates with the squared-modulus probabilities."""
    return _gemenge(a1, a2, tuple(MSState._built(basis.copy(), _OBJECT_LAYOUT)
                                  for basis in (BASIS_1, BASIS_2)))


def _gemenge(a1: complex, a2: complex, states: tuple[MSState, MSState]) -> Gemenge:
    """The mixture of `states[k]`, the state standing for object basis state
    k + 1, with probability |a_(k+1)|^2.

    A branch below BRANCH_PROB_FLOOR is dropped with a note, the one floor a
    gemenge's branches pass, and the kept weights are divided by their sum.
    """
    validate_state_vector(np.array([a1, a2], dtype=complex))
    notes = []
    branches = []
    for state, p, which in ((states[0], abs(a1) ** 2, "first"),
                            (states[1], abs(a2) ** 2, "second")):
        if p >= BRANCH_PROB_FLOOR:
            branches.append((state, p))
        else:
            notes.append(f"{which} amplitude vanishes; gemenge degenerates to a single pure state")
    total = sum(p for _, p in branches)
    return Gemenge(tuple((state, p / total) for state, p in branches), tuple(notes))


def _attach(state: MSState, label: str, factor: np.ndarray) -> MSState:
    """Tensor a fresh factor, in a pure state the package has checked, onto the right."""
    vec = _kron(state.vector, factor)
    return MSState._built(vec, state.layout.extended(label, factor.shape[0]))


def premeasure(state: MSState, control: str, apparatus: str) -> MSState:
    """Entangle the apparatus pointer with the control factor's basis states.

    The apparatus must sit in its symmetric ready state; the unitary is only
    the tuned evolution from there. The state's tensor is transposed so that
    the control and apparatus axes lead, in that order, with the other axes
    after them in layout order; the unitary acts on those two, and the
    inverse transpose restores the layout.
    """
    layout = state.layout
    c = layout.position(control)
    a = layout.position(apparatus)
    if layout.dims[c] != 2 or layout.dims[a] != 2:
        raise UsageError("premeasurement acts on two-dimensional factors only")
    rho_app = state.reduced((apparatus,))
    fidelity = float(np.real(READY_STATE.conj() @ rho_app @ READY_STATE))
    if fidelity <= 1.0 - READY_FIDELITY_TOL:
        raise PreconditionError(
            f"apparatus {apparatus!r} is not in the ready state (fidelity {fidelity!r})"
        )
    perm = [c, a] + [i for i in range(len(layout.dims)) if i not in (c, a)]
    moved = state.vector.reshape(layout.dims).transpose(perm)
    block = PREMEASURE_UNITARY @ moved.reshape(4, -1)
    tensor = block.reshape(moved.shape).transpose(sorted(range(len(perm)), key=perm.__getitem__))
    return MSState._built(tensor.reshape(-1), layout)


def full_chain(scenario: Scenario):
    """Run the whole chain: object state in, final composite state out.

    Pure input yields the entangled three-factor state. Gemenge input yields
    the gemenge of the two object basis states' chains, which do not depend
    on the amplitudes: each branch that `prepare_gemenge`'s floor keeps is the
    process constant of `_basis_chains`, and only the weights are computed.
    """
    if scenario.input_kind == "pure":
        return _chain_from_object_state(_object_ms(scenario.a1, scenario.a2))
    w = _gemenge(scenario.a1, scenario.a2, _basis_chains())
    # the renormalized weights are divided by their sum once more: that sum can
    # miss 1 by an ulp, and the purity information near overlap 1 shows the last bit
    total = sum(p for _, p in w.branches)
    return Gemenge(tuple((state, p / total) for state, p in w.branches), w.notes)


def _object_ms(a1: complex, a2: complex) -> MSState:
    return MSState._built(prepare_object_state(a1, a2), _OBJECT_LAYOUT)


def _detect(state: MSState) -> MSState:
    """The S->D step: attach the ready detector and premeasure the object with it."""
    return premeasure(_attach(state, "D", READY_STATE), "S", "D")


def object_detector_state(a1: complex, a2: complex) -> MSState:
    """The entangled object-detector state after the first premeasurement."""
    return _detect(_object_ms(a1, a2))


def _chain_from_object_state(state: MSState) -> MSState:
    """The S->D step, then the D->O step, from a state over the `S` layout."""
    return premeasure(_attach(_detect(state), "O", READY_STATE), "D", "O")


@functools.cache
def _basis_chains() -> tuple[MSState, MSState]:
    """The chains of BASIS_1 and BASIS_2, the two branch products, built once per
    process with read-only vectors: every chained gemenge and every no-go
    problem shares them, and each one's `pointer_value` is found once."""
    chains = tuple(_chain_from_object_state(MSState._built(basis.copy(), _OBJECT_LAYOUT))
                   for basis in (BASIS_1, BASIS_2))
    for state in chains:
        state.vector.flags.writeable = False
    return chains


def statistical_restriction(model) -> np.ndarray:
    """Reduced density matrix of the observer factor of an MSState or a Gemenge."""
    if isinstance(model, MSState):
        return model.reduced(("O",))
    if isinstance(model, Gemenge):
        return partial_trace(model.density(), model.layout, ("O",))
    raise UsageError(f"the restriction needs an MSState or a Gemenge, not {type(model).__name__}")


def factorize_branch(state: MSState) -> dict[str, np.ndarray]:
    """Split a product chain state into per-factor pure states.

    Raises PreconditionError when the state is entangled across any factor cut,
    i.e. when the product of the per-factor principal states fails to
    reconstruct the input within fidelity 1e-10.
    """
    factors: dict[str, np.ndarray] = {}
    for label in state.layout.labels:
        rho = state.reduced((label,))
        _, vecs = np.linalg.eigh(rho)
        principal = vecs[:, -1]
        # fix the arbitrary eigenvector phase: largest component real positive
        k = int(np.argmax(np.abs(principal)))
        phase = principal[k] / abs(principal[k])
        factors[label] = principal / phase
    product = factors[state.layout.labels[0]]
    for label in state.layout.labels[1:]:
        product = _kron(product, factors[label])
    fidelity = abs(np.vdot(product, state.vector)) ** 2
    if fidelity <= 1.0 - 1e-10:
        raise PreconditionError(
            f"state is entangled across the factor cut (product fidelity {fidelity!r})"
        )
    return factors


@dataclass(frozen=True)
class DecoherenceResult:
    state: MSState
    coherence_factor: float
    reduced_ms: np.ndarray


def decohere(state: MSState, n_env: int, eps: float) -> tuple[DecoherenceResult, ...]:
    """Entangle the chain with n environment elements, for each n from 0 to n_env.

    Each element ends in one of two states whose mutual overlap is `eps`,
    keyed on the observer factor's pointer index. The reduced chain state then
    has its pointer-off-diagonal elements suppressed by the two environment
    product states' overlap (eps**n), which is returned, as measured,
    alongside the explicit partial trace over the environment.

    Entry n of the result is the chain with n elements. The enlarged state is
    formed explicitly: each of the two 2**n tags grows from the one before by
    one `_kron` outer product, each chain basis state is tensored with the tag
    of its pointer index, and the environment is traced out of the result. The
    layout gains the factors E1..En in one step.

    Raises ValidationError, before anything is built, when eps lies outside
    [0, 1] or n_env is not a nonnegative integer (a float, even 2.0, and a
    bool are rejected), and CapacityError past MAX_DIM.
    """
    if not 0.0 <= eps <= 1.0:
        raise ValidationError("environment overlap eps must lie in [0, 1]")
    n_env = _require_count(n_env, "n_env")
    if n_env < 0:
        raise ValidationError("n_env must be nonnegative")
    # 2**n_env > MAX_DIM once n_env reaches MAX_DIM's bit length: decide that
    # before building a dimension that could have millions of digits
    if n_env >= MAX_DIM.bit_length() or state.dim * 2**n_env > MAX_DIM:
        raise CapacityError(
            f"decohered dimension {state.dim} * 2**{n_env} exceeds the maximum {MAX_DIM}")

    env_states = (
        np.array([1.0, 0.0], dtype=complex),
        np.array([eps, math.sqrt(max(0.0, 1.0 - eps * eps))], dtype=complex),
    )
    o_pos = state.layout.position("O")
    dims = state.layout.dims
    stride = int(np.prod(dims[o_pos + 1:], dtype=int))
    o_index = (np.arange(state.dim) // stride) % dims[o_pos]
    env_factors = tuple((f"E{j + 1}", 2) for j in range(n_env))

    # tags[o] is the environment's product state when the observer reads o
    tags = (np.ones(1, dtype=complex),) * 2
    results = []
    for n in range(n_env + 1):
        if n:
            tags = tuple(_kron(tag, env) for tag, env in zip(tags, env_states))
        new_vec = (state.vector[:, None] * np.array(tags)[o_index]).reshape(-1)
        enlarged = MSState._built(new_vec, TensorLayout(state.layout.factors + env_factors[:n]))
        overlap = float(np.vdot(tags[0], tags[1]).real)
        results.append(DecoherenceResult(enlarged, overlap, enlarged.reduced(state.layout.labels)))
    return tuple(results)


def premeasure_hamiltonian_fidelity() -> float:
    """|tr(U^dagger exp(-i K))| / 4 for U = PREMEASURE_UNITARY and K = PREMEASURE_GENERATOR.

    The independent check of the net-effect unitary: it is 1 exactly when the
    generator's unit-time evolution equals U up to a global phase, in both
    control blocks.
    """
    evolved = unitary_exp(PREMEASURE_GENERATOR, 1.0)
    return float(abs(np.trace(PREMEASURE_UNITARY.conj().T @ evolved))) / 4.0


def pointer_branch_amplitudes(state: MSState) -> tuple[complex, complex]:
    """Coefficients of the state in the diagonal pointer product basis.

    The state must be (within residual norm 1e-10) a combination of the two
    branch products |b_1 b_1 ... b_1> and |b_2 b_2 ... b_2>, the first and last
    basis vectors of the layout; anything else raises DecompositionError.
    """
    if any(dim != 2 for _, dim in state.layout.factors):
        raise UsageError("pointer decomposition needs two-dimensional factors")
    a1, a2 = complex(state.vector[0]), complex(state.vector[-1])
    residual = state.vector.copy()
    residual[[0, -1]] = 0.0
    if float(np.linalg.norm(residual)) > 1e-10:
        raise DecompositionError(
            f"state is not a combination of the pointer branch products "
            f"(residual norm {float(np.linalg.norm(residual))!r})"
        )
    return a1, a2
