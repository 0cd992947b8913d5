"""Desk-scale simulator for delayed-choice prepare-and-measure experiments.

Exact quantum predictions for phase-encoded qubit preparations, exhaustive
classical bounds for bounded-dimension message models, witness statistics
with finite-count bootstrap errors, and causality validation of the event
schedule.
"""

from .qubits import (
    Ket2,
    Ket4,
    PHI_PLUS,
    ZeroProbabilityBranch,
    born,
    canonical_phase,
    herald,
    phase_ket,
)
from .scenario import (
    ProbabilityTable,
    Scenario,
    det_witness_settings,
    dimension_witness_settings,
    heralded_table,
    probability_table,
    quantum_cell,
)
from .classical import (
    DeterministicStrategy,
    EnumerationCapExceeded,
    classical_max_det,
    classical_max_linear,
    retrocausal_max,
    setting_aware_max,
    strategy_table,
)
from .witness import (
    WitnessReport,
    det_witness,
    dimension_witness,
    report_from_table,
    retrocausality,
    sigma_violation,
    witness_matrix,
)
from .trials import (
    CountTable,
    InsufficientStatisticsError,
    RunPlan,
    bootstrap_report,
    estimate,
    sample,
)
from .spacetime import (
    Event,
    Link,
    Schedule,
    interval,
    reference_schedule,
    validate,
)

__version__ = "0.1.0"
