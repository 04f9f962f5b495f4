"""mschain: simulator and analysis toolkit for a three-stage measurement chain.

A two-state system is premeasured by a detector, which is premeasured in turn
by an observer; the package builds the resulting chain states, computes their
restrictions to the observer, decides whether any self-adjoint observable can
discriminate a superposition's restriction from its components', samples
outcomes under the squared-amplitude rule, and quantifies what the pure/mixed
distinction leaves visible.
"""

__version__ = "0.1.0"

from .chain import (
    Gemenge,
    InformationPattern,
    MSState,
    Scenario,
    decohere,
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
from .discriminate import (
    DiscriminationProblem,
    FeasibilityResult,
    ObservableSpec,
    PointerAlgebra,
    build_it_observable,
    build_pointer_algebra,
    check_eigen_discrimination,
    combine_observable,
    numeric_feasibility_oracle,
    recognition_problem,
    superposition_discrimination_problem,
    verify_certificate,
)
from .errors import (
    CapacityError,
    ConfigError,
    DecompositionError,
    PreconditionError,
    UsageError,
    ValidationError,
)
from .linalg import (
    HermitianObservable,
    SpectralDecomposition,
    TensorLayout,
    eig_hermitian,
    embed_operator,
    partial_trace,
    pure_density,
    unitary_exp,
    validate_state_vector,
)
from .metrics import (
    EigenDistribution,
    PurityReport,
    eigen_distribution,
    overlap_bc,
    overlap_tv,
    phase_averaged_purity_information,
    purity_information,
    purity_report,
    transverse_spin,
)
from .sampling import (
    FrequencyReport,
    OutcomeStream,
    StreamComparison,
    born_report,
    compare_streams,
    run_trials,
    sample_gemenge,
    stochastic_restriction,
    trial_uniform,
    trial_uniforms,
)
