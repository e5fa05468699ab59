"""Information-theoretic non-Markovianity measures and a dephasing testbed."""

from .states import (
    DensityMatrix,
    QuantumChannel,
    SystemPartition,
    apply_channel,
    basis_state,
    haar_random_unitary,
    maximally_mixed,
    partial_trace,
    pure_state,
    random_density_matrix,
    random_pure_state,
    tensor,
)
from .info import (
    conditional_mutual_information,
    fidelity,
    interaction_information,
    jensen_shannon_telescopic,
    mutual_information,
    petz_recovery,
    relative_entropy,
    telescopic_relative_entropy,
    trace_distance,
    von_neumann_entropy,
)
from .measures import (
    MeasureResult,
    ScalarSeries,
    StateTrajectory,
    cmi_series,
    flagged_ancilla_state,
    measure_distance_blp,
    measure_lfs,
    measure_n1,
    measure_n2,
    mi_series,
    negative_decrement_integral,
    ops_state,
    optimal_pair_state,
    positive_increment_integral,
    tsio_trajectory,
)
from .dephasing import (
    DephasingParams,
    DiscreteDephasingModel,
    QuadratureConfig,
    beta,
    build_discrete_model,
    classical_char_factor,
    cmi_trajectory,
    discrete_phase_factors,
    displaced_fock_overlap,
    entangled_char_factor,
    phase_factor_grid,
    phase_factors,
    system_state,
    system_trajectory,
)
from .oracle import SuiteReport, dense_dephasing_check, identity_suite, special_function_suite

__version__ = "0.1.0"
