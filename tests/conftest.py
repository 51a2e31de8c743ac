from typing import NamedTuple

import pytest

from zenochain.spectrum import quantum_spectrum


class SpectrumSummary(NamedTuple):
    """What the sweeps read from a quantum report, without the report."""

    entropy_bits: float
    classes: int
    merges: int


@pytest.fixture(scope="session")
def quantum_summary():
    """``quantum_summary(n)`` builds ``quantum_spectrum(n)`` on its first
    request in the session and keeps only its summary, so the tests that
    sweep n up to 64 pay for each size once and hold no large report."""
    summaries = {}

    def summary(n):
        if n not in summaries:
            report = quantum_spectrum(n)
            summaries[n] = SpectrumSummary(
                report.entropy_bits, len(report.classes), len(report.merges)
            )
        return summaries[n]

    return summary
