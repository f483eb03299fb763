"""Three-party entangled-state distribution over linear fiber segments.

A middle station merges two heralded entangled pairs into a three-qubit
GHZ-class state shared with its two neighbors.  The package models the
merge exactly on dense density matrices, carries closed-form link and
memory analytics with Monte Carlo oracles, and turns both into yields,
error rates, and asymptotic conference-key rates.

The closed forms of ``netmodel`` are pure ``math`` and load with the
package.  The engine names (``density``, ``protocol``, ``rates`` and
``mc``) need numpy, so each is imported on first access (PEP 562).
"""

import importlib

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
]

# Each engine name of __all__ by the module that defines it.
_LAZY = {
    name: module
    for module, names in {
        "density": ("DensityMatrix", "PauliString", "PureState", "ZeroProbabilityError"),
        "protocol": (
            "NoiseParams",
            "ProtocolOutcome",
            "run_pipeline",
            "source_pair_state",
            "stabilizer_suite",
            "target_state",
        ),
        "rates": (
            "RateReport",
            "binary_entropy",
            "full_report",
            "key_rate",
            "qber_bipartite",
            "qber_parity",
            "qber_parity_from_expectation",
        ),
        "mc": (
            "McResult",
            "mc_coherence_near",
            "mc_expected_max",
            "mc_yield_memoryless",
        ),
    }.items()
    for name in names
}
_ENGINE_MODULES = frozenset(_LAZY.values())


def __getattr__(name: str):
    """Import an engine module, or the module defining an engine name, on
    first access; the name is then kept in the package namespace."""
    if name in _ENGINE_MODULES:
        # importing a submodule binds it in the package namespace
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_LAZY[name]}"), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY, *_ENGINE_MODULES})
