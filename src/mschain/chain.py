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
    _kron_rows,
    hermitian_part,
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
_H = 1.0 / math.sqrt(2.0)  # the magnitude of PREMEASURE_UNITARY's nonzero entries
# A generator of it: control basis state i evolves the apparatus under k_i, and
# exp(-i K) = PREMEASURE_UNITARY with k_1 = pi/2 (H - 1) and k_2 = pi/4 Y.
PREMEASURE_GENERATOR = np.zeros((4, 4), dtype=complex)
PREMEASURE_GENERATOR[:2, :2] = (math.pi / 2.0) * (_HADAMARD - IDENTITY_2)
PREMEASURE_GENERATOR[2:, 2:] = (math.pi / 4.0) * PAULI_Y

READY_FIDELITY_TOL = 1e-10
BRANCH_PROB_FLOOR = 1e-12
# An observer reads a pointer value when its weight on that pointer state exceeds 1 - this.
POINTER_WEIGHT_TOL = 1e-10
# A state is a product when its factors' product reconstructs it with fidelity above 1 - this.
PRODUCT_FIDELITY_TOL = 1e-10
# A state spans the two branch products when its other amplitudes' norm is at most this.
BRANCH_RESIDUAL_TOL = 1e-10

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
        try:
            norm_sq = float(abs(self.a1) ** 2 + abs(self.a2) ** 2)
        except OverflowError:  # an amplitude or its square past the float range
            norm_sq = math.inf
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
    """The real parameters an information system assigns to one recognized outcome.

    `values` is any nonempty sequence of finite real non-bool numbers; it is
    kept as a tuple of floats, and anything else raises ValidationError.
    """

    values: tuple[float, ...]

    def __post_init__(self):
        try:
            entries = tuple(self.values)
        except TypeError:
            raise ValidationError(f"information pattern values must be a sequence of numbers, "
                                  f"not {type(self.values).__name__}") from None
        if not entries:
            raise ValidationError("information pattern must be nonempty")
        for v in entries:
            _require_number(v, "an information pattern entry", numbers.Real, "a real number")
        try:
            values = tuple(map(float, entries))
            finite = all(map(math.isfinite, values))
        except OverflowError:  # an int past the float range
            finite = False
        if not finite:
            raise ValidationError("information pattern entries must be finite")
        object.__setattr__(self, "values", values)


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
    """A pure state of the composite chain together with its factor layout.

    The one way to make a state, for a foreign vector and for every state the
    package builds: the vector must have finite entries, a nonempty 1-d shape,
    unit norm within NORM_TOL and the layout's total dimension.
    """

    vector: np.ndarray
    layout: TensorLayout

    def __post_init__(self):
        vec = validate_state_vector(self.vector)
        object.__setattr__(self, "vector", vec)
        if vec.shape[0] != self.layout.total_dim:
            raise ValidationError(
                f"vector dim {vec.shape[0]} does not match layout dim {self.layout.total_dim}"
            )

    @property
    def dim(self) -> int:
        return self.vector.shape[0]

    def density(self) -> np.ndarray:
        return pure_density(self.vector)

    def reduced(self, keep) -> np.ndarray:
        """Reduced density matrix on the kept factor labels, in layout order.

        Equals `partial_trace(self.density(), self.layout, keep)` without
        forming |psi><psi|: the vector is viewed as a tensor over the layout's
        dims, the kept axes move to the front, and the result is the Hermitian
        part of M @ M^dagger with M of shape (d_keep, dim / d_keep), so memory
        stays O(dim) and the diagonal is exactly real.
        Raises UsageError on an empty keep set or an unknown label.
        """
        positions = _kept_positions(self.layout, keep)
        dims = self.layout.dims
        rest = [i for i in range(len(dims)) if i not in positions]
        d_keep = math.prod(dims[i] for i in positions)
        m = self.vector.reshape(dims).transpose(positions + rest).reshape(d_keep, -1)
        return hermitian_part(m @ m.conj().T)

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
            if weight > 1.0 - POINTER_WEIGHT_TOL:
                return q
        raise UsageError("branch observer state is not a pointer basis state")


@dataclass(frozen=True)
class Gemenge:
    """Explicit probabilistic mixture of MSState branches over one layout.

    Unlike its density matrix, a gemenge remembers which pure states occur
    with which preparation probabilities. Its `born_table` records the
    pointer value that each branch's observer reads. `branches` is any sequence
    of (MSState, real non-bool weight) pairs; it is kept as a tuple of tuples
    with each weight a float, and anything else raises ValidationError.
    """

    branches: tuple[tuple[MSState, float], ...]
    notes: tuple[str, ...] = ()

    def __post_init__(self):
        try:
            pairs = tuple(self.branches)
        except TypeError:
            raise ValidationError(
                f"gemenge branches must be a sequence of (MSState, probability) pairs, "
                f"not {type(self.branches).__name__}") from None
        branches = []
        for branch in pairs:
            try:
                pair = tuple(branch)
            except TypeError:
                pair = ()
            if len(pair) != 2:
                raise ValidationError(
                    f"a gemenge branch must be an (MSState, probability) pair, "
                    f"not {type(branch).__name__}")
            state, p = pair
            if not isinstance(state, MSState):
                raise ValidationError("gemenge branches must be MSState values")
            # a bool, complex or string weight would reach the sum below
            _require_number(p, "a branch probability", numbers.Real, "a real number")
            try:
                # kept as a float: a Fraction weight, say, would make object arrays of the sums
                branches.append((state, float(p)))
            except OverflowError:
                raise ValidationError("a branch probability lies past the float range") from None
        object.__setattr__(self, "branches", tuple(branches))
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
        return sum(p * pure_density(state.vector) for state, p in self.branches)


def prepare_object_state(a1: complex, a2: complex) -> np.ndarray:
    """Two-component superposition of the object system's measured eigenstates."""
    vec = np.array([a1, a2], dtype=complex)
    return validate_state_vector(vec)


def prepare_gemenge(a1: complex, a2: complex) -> Gemenge:
    """Mixture of the object eigenstates with the squared-modulus probabilities.

    The amplitudes are checked on entry, as `prepare_object_state` checks them.
    """
    prepare_object_state(a1, a2)
    return _gemenge(a1, a2, tuple(MSState(basis.copy(), _OBJECT_LAYOUT)
                                  for basis in (BASIS_1, BASIS_2)))


def _gemenge_weights(a1: complex, a2: complex) -> tuple[tuple[float, float], tuple[str, ...]]:
    """The weights of object basis states 1 and 2 in the mixture, with its notes.

    A weight |a_k|^2 below BRANCH_PROB_FLOOR, the one floor a gemenge's
    branches pass, becomes 0 with a note, and the kept weights are divided by
    their sum. The mixture's object density is the diagonal of the two weights.
    The amplitudes come checked: a `Scenario`'s, or those `prepare_gemenge` checked.
    """
    notes = []
    weights = []
    for p, which in ((abs(a1) ** 2, "first"), (abs(a2) ** 2, "second")):
        if p >= BRANCH_PROB_FLOOR:
            weights.append(p)
        else:
            weights.append(0.0)
            notes.append(f"{which} amplitude vanishes; gemenge degenerates to a single pure state")
    total = sum(weights)
    return (weights[0] / total, weights[1] / total), tuple(notes)


def _gemenge(a1: complex, a2: complex, states: tuple[MSState, MSState]) -> Gemenge:
    """The mixture of `states[k]`, the state standing for object basis state
    k + 1, with the weights of `_gemenge_weights`; a branch of weight 0 is dropped.
    """
    weights, notes = _gemenge_weights(a1, a2)
    return Gemenge(tuple((state, p) for state, p in zip(states, weights) if p > 0.0), notes)


def _attach(state: MSState, label: str, factor: np.ndarray) -> MSState:
    """Tensor a fresh factor, in a pure state the package has checked, onto the right."""
    vec = _kron(state.vector, factor)
    return MSState(vec, state.layout.extended(label, factor.shape[0]))


def premeasure(state: MSState, control: str, apparatus: str) -> MSState:
    """Entangle the apparatus pointer with the control factor's basis states.

    The apparatus must sit in its symmetric ready state; the unitary is only
    the tuned evolution from there. The state's tensor is transposed so that
    the control and apparatus axes lead, in that order, with the other axes
    after them in layout order; PREMEASURE_UNITARY's blocks H and XH act on
    those two as butterflies, so an amplitude it sends to 0 is exactly 0, and
    the inverse transpose restores the layout. The ready-state fidelity is read
    off the same transposed tensor, as ||(<R| (x) I) psi||^2.

    Raises UsageError when control and apparatus name the same factor or
    either is not two-dimensional, and PreconditionError when the apparatus
    fidelity is at or below 1 - READY_FIDELITY_TOL.
    """
    layout = state.layout
    c = layout.position(control)
    a = layout.position(apparatus)
    if c == a:
        raise UsageError(f"premeasurement needs two different factors, got {control!r} twice")
    if layout.dims[c] != 2 or layout.dims[a] != 2:
        raise UsageError("premeasurement acts on two-dimensional factors only")
    perm = [c, a] + [i for i in range(len(layout.dims)) if i not in (c, a)]
    moved = state.vector.reshape(layout.dims).transpose(perm)
    flat = moved.reshape(4, -1)
    ready = READY_STATE.conj() @ flat.reshape(2, 2, -1)
    fidelity = float(np.vdot(ready, ready).real)
    if fidelity <= 1.0 - READY_FIDELITY_TOL:
        raise PreconditionError(
            f"apparatus {apparatus!r} is not in the ready state (fidelity {fidelity!r})"
        )
    block = np.empty_like(flat)  # rows (r0 + r1, r0 - r1, r2 - r3, r2 + r3) * h
    np.add(flat[0::2], flat[1::2], out=block[0::3])
    np.subtract(flat[0::2], flat[1::2], out=block[1:3])
    block *= _H
    tensor = block.reshape(moved.shape).transpose(sorted(range(len(perm)), key=perm.__getitem__))
    return MSState(tensor.reshape(-1), layout)


def full_chain(scenario: Scenario):
    """Run the whole chain: object state in, final composite state out.

    Pure input yields the entangled three-factor state. Gemenge input yields
    the gemenge of the two object basis states' chains, which do not depend
    on the amplitudes: each branch that `prepare_gemenge`'s floor keeps is the
    process constant of `_basis_chains`, and only the weights are computed.
    """
    if scenario.input_kind == "pure":
        return _observe(_detect(_object_ms(scenario.a1, scenario.a2)))
    return _gemenge(scenario.a1, scenario.a2, _basis_chains())


def _object_ms(a1: complex, a2: complex) -> MSState:
    return MSState(np.array([a1, a2], dtype=complex), _OBJECT_LAYOUT)


def _detect(state: MSState) -> MSState:
    """The S->D step: attach the ready detector and premeasure the object with it."""
    return premeasure(_attach(state, "D", READY_STATE), "S", "D")


def object_detector_state(a1: complex, a2: complex) -> MSState:
    """The entangled object-detector state after the first premeasurement."""
    return _detect(_object_ms(a1, a2))


def _observe(state: MSState) -> MSState:
    """The D->O step: attach the ready observer and premeasure the detector with it."""
    return premeasure(_attach(state, "O", READY_STATE), "D", "O")


@functools.cache
def _basis_chains() -> tuple[MSState, MSState]:
    """The chains of BASIS_1 and BASIS_2, the two branch products, built once per
    process with read-only vectors: every chained gemenge and every no-go
    problem shares them, and each one's `pointer_value` is found once."""
    chains = tuple(_observe(_detect(MSState(basis.copy(), _OBJECT_LAYOUT)))
                   for basis in (BASIS_1, BASIS_2))
    for state in chains:
        state.vector.flags.writeable = False
    return chains


def statistical_restriction(model) -> np.ndarray:
    """Reduced density matrix of the observer factor of an MSState or a Gemenge.

    Both are reduced from their vectors by `MSState.reduced`: a gemenge gives
    the weighted sum of its branches' reductions, which is the partial trace
    of its density without forming that density, so memory stays O(dim).
    """
    if isinstance(model, MSState):
        return model.reduced(("O",))
    if isinstance(model, Gemenge):
        return sum(p * state.reduced(("O",)) for state, p in model.branches)
    raise UsageError(f"the restriction needs an MSState or a Gemenge, not {type(model).__name__}")


def factorize_branch(state: MSState) -> dict[str, np.ndarray]:
    """Split a product chain state into per-factor pure states.

    Raises PreconditionError when the state is entangled across any factor cut,
    i.e. when the product of the per-factor principal states fails to
    reconstruct the input with fidelity above 1 - PRODUCT_FIDELITY_TOL.
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
    if fidelity <= 1.0 - PRODUCT_FIDELITY_TOL:
        raise PreconditionError(
            f"state is entangled across the factor cut (product fidelity {fidelity!r})"
        )
    return factors


@dataclass(frozen=True)
class DecoherenceResult:
    """Entry n of a `decohere` sweep: the chain with n environment elements.

    `m` is the (dim, 2**n) amplitude matrix, row i the chain's amplitude i
    times the tag of its observer reading; `reduced_ms`, the trace over E1..En,
    is the Hermitian part of m @ m^dagger, and `coherence_factor` the two tags'
    overlap.
    `chain_layout` is the layout of the chain that `decohere` was given.
    """

    coherence_factor: float
    reduced_ms: np.ndarray
    m: np.ndarray
    chain_layout: TensorLayout

    @functools.cached_property
    def state(self) -> MSState:
        """The enlarged state over the chain's factors and E1..En, built on first
        read through the `MSState` constructor's checks and kept."""
        extra = tuple((f"E{k}", 2) for k in range(1, self.m.shape[1].bit_length()))
        return MSState(self.m.reshape(-1), TensorLayout(self.chain_layout.factors + extra))


def decohere(state: MSState, n_env: int, eps: float) -> tuple[DecoherenceResult, ...]:
    """Entangle the chain with n environment elements, for each n from 0 to n_env.

    Each element ends in one of two states whose mutual overlap is `eps`,
    keyed on the observer factor's pointer index. The reduced chain state then
    has its pointer-off-diagonal elements suppressed by the two environment
    product states' overlap (eps**n), which is returned, as measured,
    alongside the explicit partial trace over the environment.

    Entry n of the result is the chain with n elements. The two 2**n tags are
    the rows of one tag matrix, which grows from the one before by one
    `_kron_rows` broadcast product per element. The chain vector, viewed as
    (factors before O, O, factors after O, 1), times the tag matrix as
    (2, 1, 2**n) tensors each chain basis state with the tag of its pointer
    index: the chain factors lead the layout, so the amplitudes form a
    (dim, 2**n) matrix m and the trace over E1..En is the Hermitian part of
    m @ m^dagger, as `MSState.reduced` forms it. Each result holds m; its
    enlarged `state` is built on first read.

    Raises, before anything is built, UsageError when `state` is not an
    MSState or its observer factor is missing or not two-dimensional (the
    environment model has two pointer readings), ValidationError when eps is
    not a real number (a bool is rejected) or lies outside [0, 1] or when
    n_env is not a nonnegative integer (a float, even 2.0, and a bool are
    rejected), and CapacityError past MAX_DIM.
    """
    if not isinstance(state, MSState):
        raise UsageError(f"decoherence needs an MSState, not {type(state).__name__}")
    layout = state.layout
    o_pos = layout.position("O")
    if layout.dims[o_pos] != 2:
        raise UsageError(
            f"decoherence keys on a two-dimensional observer factor, not dim {layout.dims[o_pos]}")
    _require_number(eps, "environment overlap eps", numbers.Real, "a real number")
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

    # row o of env is the state an element takes when the observer reads o
    env = np.array([[1.0, 0.0], [eps, math.sqrt(max(0.0, 1.0 - eps * eps))]], dtype=complex)
    before = math.prod(layout.dims[:o_pos])
    psi = state.vector.reshape(before, 2, -1, 1)

    # row o of tags is the environment's product state when the observer reads o
    tags = np.ones((2, 1), dtype=complex)
    overlaps, ms = [], []
    for n in range(n_env + 1):
        if n:
            tags = _kron_rows(tags, env)
        ms.append((psi * tags[:, None, :]).reshape(state.dim, -1))
        overlaps.append(float(np.vdot(tags[0], tags[1]).real))
    # the Hermitian parts of all n_env + 1 Gram products in one pass over their stack
    grams = hermitian_part(np.stack([m @ m.conj().T for m in ms]))
    return tuple(map(DecoherenceResult, overlaps, grams, ms, (layout,) * len(ms)))


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

    The state must be (within residual norm BRANCH_RESIDUAL_TOL) a combination
    of the two branch products |b_1 b_1 ... b_1> and |b_2 b_2 ... b_2>, the
    first and last basis vectors of the layout; anything else raises
    DecompositionError.
    """
    if any(dim != 2 for _, dim in state.layout.factors):
        raise UsageError("pointer decomposition needs two-dimensional factors")
    a1, a2 = complex(state.vector[0]), complex(state.vector[-1])
    residual = state.vector.copy()
    residual[[0, -1]] = 0.0
    if float(np.linalg.norm(residual)) > BRANCH_RESIDUAL_TOL:
        raise DecompositionError(
            f"state is not a combination of the pointer branch products "
            f"(residual norm {float(np.linalg.norm(residual))!r})"
        )
    return a1, a2
