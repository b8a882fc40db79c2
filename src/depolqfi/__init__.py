"""Quantum Fisher information toolkit for depolarizing-channel parameter
estimation with mixed (polarization-r) initial qubit states."""

from .asymptotics import (
    CutoffCurve,
    OptimalInvocation,
    correlated_cutoff,
    cramer_rao_bound,
    lowr_correlated_per_channel,
    lowr_sequential_per_channel,
    lowr_sqsc,
    optimal_invocation_table,
    optimal_invocations,
    sequential_cutoff,
)
from .correlated import block_qfi, correlated_qfi, final_state
from .correlations import (
    CorrelationReport,
    DiscordIntermediates,
    correlation_report,
    discord,
    discord_initial,
    discord_intermediates,
    ppt_analysis,
    separability_threshold,
    two_qubit_final_matrix,
)
from .errors import (
    CapacityError,
    DepolQfiError,
    DomainError,
    NumericError,
    PositivityError,
)
from .linalg import Spectrum, hermitian_eig, partial_trace, partial_transpose
from .oracle import (
    VerificationReport,
    apply_depolarizing,
    apply_uprep,
    initial_product_state,
    oracle_final_state,
    spectral_qfi,
    verify,
)
from .protocols import (
    ProtocolParams,
    QfiReport,
    SldComputation,
    independent_qfi,
    pure_entangled_qfi,
    pure_sqsc_qfi,
    qubit_sld,
    sequential_extra_invocation_advantage,
    sequential_gain,
    sequential_qfi,
    sqsc_qfi,
)

__version__ = "0.1.0"
