"""Three-party entangled-state distribution over linear fiber segments.

A middle station merges two heralded entangled pairs into a three-qubit
GHZ-class state shared with its two neighbors.  The package models the
merge exactly on dense density matrices, carries closed-form link and
memory analytics with Monte Carlo oracles, and turns both into yields,
error rates, and asymptotic conference-key rates.
"""

from .density import (
    DensityMatrix,
    PauliString,
    PureState,
    ZeroProbabilityError,
)
from .netmodel import (
    LinkParams,
    MemoryParams,
    NodeParams,
    SourceParams,
    StorageTimes,
    TrioConfig,
    click_prob,
    dark_count_depolarization,
    db_from_transmission,
    dephasing_prob,
    detection_prob,
    expected_coherence_near,
    expected_max_geometric,
    storage_times,
    transmission_from_db,
    yield_memoryless,
    yield_with_memory,
)
from .protocol import (
    NoiseParams,
    ProtocolOutcome,
    run_pipeline,
    source_pair_state,
    stabilizer_suite,
    target_state,
)
from .rates import (
    RateReport,
    binary_entropy,
    full_report,
    key_rate,
    qber_bipartite,
    qber_parity,
    qber_parity_from_expectation,
)
from .mc import (
    McResult,
    mc_coherence_near,
    mc_expected_max,
    mc_yield_memoryless,
    sample_geometric,
)

__version__ = "0.1.0"

__all__ = [
    "DensityMatrix",
    "PauliString",
    "PureState",
    "ZeroProbabilityError",
    "LinkParams",
    "MemoryParams",
    "NodeParams",
    "SourceParams",
    "StorageTimes",
    "TrioConfig",
    "click_prob",
    "dark_count_depolarization",
    "db_from_transmission",
    "dephasing_prob",
    "detection_prob",
    "expected_coherence_near",
    "expected_max_geometric",
    "storage_times",
    "transmission_from_db",
    "yield_memoryless",
    "yield_with_memory",
    "NoiseParams",
    "ProtocolOutcome",
    "run_pipeline",
    "source_pair_state",
    "stabilizer_suite",
    "target_state",
    "RateReport",
    "binary_entropy",
    "full_report",
    "key_rate",
    "qber_bipartite",
    "qber_parity",
    "qber_parity_from_expectation",
    "McResult",
    "mc_coherence_near",
    "mc_expected_max",
    "mc_yield_memoryless",
    "sample_geometric",
]
