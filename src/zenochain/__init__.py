"""Exact spectra and information content of a polarizer chain.

A beam passes n slots, each preceded by a small polarization rotation and
optionally holding a horizontal polarizer. The detector intensity depends
only on the integer partition formed by the gaps between analyzing events,
so the chain resolves up to p(n) outcomes where a classical attenuator
chain resolves n + 1. This package computes partition counts exactly,
builds the full intensity spectra, and quantifies the information gap.
"""

from .apparatus import (
    ApparatusConfig,
    classical_intensity,
    gaps,
    quantum_intensity,
    simulate_intensity,
    zeno_survival,
)
from .partitions import (
    ASYMPTOTIC_BITS_PER_SQRT_N,
    COUNT_CAP,
    ENUMERATION_CAP,
    CapacityError,
    Partition,
    asymptotic_log2_p,
    count_partitions,
    enumerate_partitions,
    state_count,
)
from .spectrum import (
    BRUTE_FORCE_CAP,
    CLASSICAL_CAP,
    DEFAULT_ALPHA,
    InformationPoint,
    IntensityClass,
    SpectrumReport,
    brute_force_spectrum,
    classical_spectrum,
    entropy,
    information_series,
    quantum_spectrum,
    qubit_channel_information,
    reports_match,
)

__version__ = "0.1.0"

__all__ = [
    "ASYMPTOTIC_BITS_PER_SQRT_N",
    "BRUTE_FORCE_CAP",
    "CLASSICAL_CAP",
    "COUNT_CAP",
    "DEFAULT_ALPHA",
    "ENUMERATION_CAP",
    "ApparatusConfig",
    "CapacityError",
    "InformationPoint",
    "IntensityClass",
    "Partition",
    "SpectrumReport",
    "asymptotic_log2_p",
    "brute_force_spectrum",
    "classical_intensity",
    "classical_spectrum",
    "count_partitions",
    "entropy",
    "enumerate_partitions",
    "gaps",
    "information_series",
    "quantum_intensity",
    "quantum_spectrum",
    "qubit_channel_information",
    "reports_match",
    "simulate_intensity",
    "state_count",
    "zeno_survival",
    "__version__",
]
