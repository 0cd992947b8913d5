"""Desk-scale simulator for delayed-choice prepare-and-measure experiments.

Exact quantum predictions for phase-encoded qubit preparations, closed-form
classical bounds for bounded-dimension message models, witness statistics
with finite-count standard errors, and causality validation of the event
schedule.
"""

from .qubits import (
    Ket2,
    Ket4,
    PHI_PLUS,
    ZeroProbabilityBranch,
    herald,
)
from .scenario import (
    ProbabilityTable,
    Scenario,
    heralded_table,
    probability_table,
)
from .classical import (
    DeterministicStrategy,
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
