"""Intensity spectra over all 2^n configurations, and their information content.

The quantum chain sorts configurations into classes labelled by the partition
formed by their gaps; the classical chain only ever resolves how many
elements are installed. Each spectrum carries exact occupation counts, so
entropies are computed from unbounded integers and stay accurate far past
float range (the classical path goes to n = 10,000).

Distinct partitions can share an intensity: products of squared cosines
collide exactly for the first time at n = 15, where 8+4+2+1 and 7+6+1+1
evaluate to the same number. Classes closer than a relative 1e-12 are merged
and every merge is reported, so downstream consumers never see two classes
an instrument could not tell apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .apparatus import ApparatusConfig, gaps, simulate_intensity
from .partitions import (
    COUNT_CAP,
    ENUMERATION_CAP,
    CapacityError,
    Partition,
    _partition_profiles,
    asymptotic_log2_p,
)

__all__ = [
    "BRUTE_FORCE_CAP",
    "CLASSICAL_CAP",
    "DEFAULT_ALPHA",
    "MERGE_RTOL",
    "InformationPoint",
    "IntensityClass",
    "SpectrumReport",
    "brute_force_spectrum",
    "classical_spectrum",
    "entropy",
    "information_series",
    "quantum_spectrum",
    "qubit_channel_information",
    "reports_match",
]

#: Relative tolerance below which two class intensities count as equal.
MERGE_RTOL = 1e-12

#: Largest n for the exhaustive 2^n sweep in brute_force_spectrum.
BRUTE_FORCE_CAP = 20

#: Largest n for classical_spectrum; counts stay exact, intensities may
#: underflow to 0.0 which is fine for entropy purposes.
CLASSICAL_CAP = COUNT_CAP

#: Attenuation used for the classical column of information_series. The
#: classical class structure, hence the entropy, is the same for any value
#: in (0, 1); this only fixes the intensities in rendered output.
DEFAULT_ALPHA = 0.5

_SUM_TOL = 1e-9

# Reports are cached only at sizes where they are small; a cached n = 64
# quantum report would pin ~1 GB. Plain dict: worst case under concurrent
# use is duplicated work, results are identical.
_QUANTUM_CACHE_MAX_N = 32
_BRUTE_CACHE_MAX_N = 16
_quantum_cache: dict[int, "SpectrumReport"] = {}
_brute_cache: dict[int, "SpectrumReport"] = {}


@dataclass(frozen=True, slots=True)
class IntensityClass:
    """One spectrum line: a resolvable intensity and who lands on it.

    ``label`` is the gap partition for quantum spectra and the installed
    count k for classical ones. ``count`` of the ``total`` = 2^n equally
    likely configurations produce this intensity.
    """

    label: Partition | int
    intensity: float
    count: int
    total: int

    def __post_init__(self) -> None:
        if not 1 <= self.count <= self.total:
            raise ValueError(f"count must lie in 1..{self.total}, got {self.count}")
        if self.intensity < 0.0:
            raise ValueError(f"intensity must be nonnegative, got {self.intensity}")

    @property
    def probability(self) -> Fraction:
        """Exact occupation probability, count / 2^n."""
        return Fraction(self.count, self.total)

    @property
    def probability_float(self) -> float:
        return self.count / self.total


@dataclass(frozen=True, slots=True)
class SpectrumReport:
    """Complete class list for one chain size, plus its information content.

    ``classes`` is sorted by strictly decreasing intensity. ``entropy_bits``
    is the Shannon information of the class occupation probabilities and
    never exceeds ``bound_bits`` (log2(n+1) classically, the sqrt-n partition
    asymptotic on the quantum side). ``merges`` records every absorbed
    partition as ``(kept_label, absorbed)`` pairs.
    """

    n: int
    kind: str
    classes: tuple[IntensityClass, ...]
    entropy_bits: float
    bound_bits: float
    merges: tuple[tuple[Partition, Partition], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("quantum", "classical"):
            raise ValueError(f"kind must be 'quantum' or 'classical', got {self.kind!r}")
        if sum(c.count for c in self.classes) != 1 << self.n:
            raise ValueError("class counts must cover all 2^n configurations exactly")
        if self.entropy_bits > math.log2(len(self.classes)) + _SUM_TOL:
            raise ValueError("entropy exceeds log2 of the class count")
        if self.entropy_bits > self.bound_bits + _SUM_TOL:
            raise ValueError("entropy exceeds its stated bound")


def entropy(probabilities: Iterable[float]) -> float:
    """Shannon information of a discrete distribution, in bits.

    Zero entries contribute nothing (0 log 0 = 0). Negative entries, or a
    total off 1 by more than 1e-9, are rejected.
    """
    ps = [float(p) for p in probabilities]
    for p in ps:
        if p < 0.0:
            raise ValueError(f"probabilities must be nonnegative, got {p}")
    total = math.fsum(ps)
    if abs(total - 1.0) > _SUM_TOL:
        raise ValueError(f"probabilities must sum to 1, got {total!r}")
    return -math.fsum(p * math.log2(p) for p in ps if p > 0.0)


def _entropy_from_counts(counts: Iterable[int], n: int) -> float:
    # Exact-count form of the entropy: p log2(1/p) = (c / 2^n) (n - log2 c).
    # Never materializes 2^-n as a float, so it holds up at n = 10,000.
    total = 1 << n
    return math.fsum((c / total) * (n - math.log2(c)) for c in counts)


def _partition_report(
    n: int, rows: list[tuple[float, tuple[int, ...], int]]
) -> SpectrumReport:
    """The one place a quantum class list is assembled, from one unsorted
    ``(intensity, parts, count)`` row per partition of n.

    Rows are sorted brightest first (ties by parts), and rows within
    MERGE_RTOL of a bucket's head are absorbed into it. A merged class keeps
    the head's intensity (the brightest member) but is labelled by the
    lexicographically smallest member partition, so the label never depends
    on which member's float happens to round higher.
    """
    rows.sort(key=lambda row: (-row[0], row[1]))
    total = 1 << n
    classes: list[IntensityClass] = []
    merges: list[tuple[Partition, Partition]] = []
    i = 0
    while i < len(rows):
        head_intensity = rows[i][0]
        j = i + 1
        while j < len(rows) and head_intensity - rows[j][0] <= MERGE_RTOL * head_intensity:
            j += 1
        members = rows[i:j]
        label_parts = min(m[1] for m in members)
        label = Partition._trusted(label_parts, n)
        for _, parts, _ in members:
            if parts != label_parts:
                merges.append((label, Partition._trusted(parts, n)))
        classes.append(
            IntensityClass(label, head_intensity, sum(m[2] for m in members), total)
        )
        i = j
    return SpectrumReport(
        n=n,
        kind="quantum",
        classes=tuple(classes),
        entropy_bits=_entropy_from_counts((c.count for c in classes), n),
        bound_bits=asymptotic_log2_p(n),
        merges=tuple(merges),
    )


def quantum_spectrum(n: int) -> SpectrumReport:
    """Detector spectrum of the n-slot chain over all 2^n configurations.

    Walks the partitions of n instead of the configurations: each partition
    contributes one class whose count is the number of configurations with
    that gap multiset, so the cost is p(n), not 2^n. Intensities within a
    relative 1e-12 are merged (see the module notes on exact collisions).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > ENUMERATION_CAP:
        raise CapacityError(f"quantum_spectrum supports n <= {ENUMERATION_CAP}, got {n}")
    cached = _quantum_cache.get(n)
    if cached is not None:
        return cached

    cos_sq = [0.0] * (n + 1)
    for g in range(1, n):
        c = math.cos(g * math.pi / (2.0 * n))
        cos_sq[g] = c * c
    # cos_sq[n] stays exactly 0.0: that gap delivers the beam fully vertical.

    raw = []
    for parts, orderings in _partition_profiles(n):
        intensity = 1.0
        for g in parts:
            intensity *= cos_sq[g]
        raw.append((intensity, parts, 2 * orderings))

    report = _partition_report(n, raw)
    if n <= _QUANTUM_CACHE_MAX_N:
        _quantum_cache[n] = report
    return report


def brute_force_spectrum(n: int) -> SpectrumReport:
    """The same spectrum assembled the expensive way: simulate all 2^n
    configurations one by one and bucket the measured intensities.

    Shares no intensity formula and no partition walk with
    :func:`quantum_spectrum`: labels come from :func:`gaps`, intensities from
    the stepwise :func:`simulate_intensity`, counts from tallying
    configurations. Only the merge policy is shared, on purpose: the 2^n
    results are reduced to one row per partition (brightest intensity,
    configuration count) and assembled like the fast path's rows, so the two
    must agree class for class. Capped low because the sweep is exponential.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > BRUTE_FORCE_CAP:
        raise CapacityError(f"brute_force_spectrum supports n <= {BRUTE_FORCE_CAP}, got {n}")
    cached = _brute_cache.get(n)
    if cached is not None:
        return cached

    brightest: dict[tuple[int, ...], float] = {}
    counts: dict[tuple[int, ...], int] = {}
    for index in range(1 << n):
        config = ApparatusConfig.from_index(n, index)
        parts = tuple(sorted(gaps(config).parts, reverse=True))
        intensity = simulate_intensity(config)
        brightest[parts] = max(intensity, brightest.get(parts, 0.0))
        counts[parts] = counts.get(parts, 0) + 1

    report = _partition_report(n, [(brightest[p], p, c) for p, c in counts.items()])
    if n <= _BRUTE_CACHE_MAX_N:
        _brute_cache[n] = report
    return report


def classical_spectrum(n: int, alpha: float = DEFAULT_ALPHA) -> SpectrumReport:
    """Spectrum of the rotator-free chain, where each installed element
    scales the intensity by ``alpha``.

    Class k collects the C(n, k) configurations with k elements installed at
    intensity alpha^k: position information is invisible, so only n + 1
    classes exist and the entropy is capped by log2(n + 1).
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > CLASSICAL_CAP:
        raise CapacityError(f"classical_spectrum supports n <= {CLASSICAL_CAP}, got {n}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    total = 1 << n
    classes = []
    binomial = 1  # C(n, k), advanced incrementally: one row of Pascal's triangle
    for k in range(n + 1):
        classes.append(IntensityClass(k, alpha ** k, binomial, total))
        binomial = binomial * (n - k) // (k + 1)
    classes = tuple(classes)
    return SpectrumReport(
        n=n,
        kind="classical",
        classes=classes,
        entropy_bits=_entropy_from_counts((c.count for c in classes), n),
        bound_bits=math.log2(n + 1),
    )


def qubit_channel_information(p_h: float, p_v: float, p_none: float) -> float:
    """Information in bits carried by one photon through a three-outcome
    detector: horizontal click, vertical click, or no photon.

    Maximal at the uniform distribution, where it reaches log2(3) = 1.585
    bits, beating the single bit of a two-outcome readout.
    """
    return entropy((p_h, p_v, p_none))


@dataclass(frozen=True, slots=True)
class InformationPoint:
    """One row of the classical vs quantum information comparison."""

    n: int
    classical_bits: float
    quantum_bits: float
    classical_bound_bits: float
    quantum_bound_bits: float
    quantum_classical_ratio: float


def information_series(n_min: int, n_max: int) -> tuple[InformationPoint, ...]:
    """Measured information per readout for every chain size in [n_min, n_max].

    Columns: the classical and quantum entropies, their respective bounds
    log2(n + 1) and 3.7007 sqrt(n), and the quantum/classical ratio. The
    quantum side overtakes the classical side from n = 4 on; at n <= 3 the
    partition spectrum is still too coarse to win.
    """
    if n_min < 1:
        raise ValueError(f"n_min must be >= 1, got {n_min}")
    if n_max < n_min:
        raise ValueError(f"n_max must be >= n_min, got {n_min}..{n_max}")
    if n_max > ENUMERATION_CAP:
        # fail before any spectrum is built, not midway through the sweep
        raise CapacityError(f"information_series supports n <= {ENUMERATION_CAP}, got {n_max}")
    points = []
    for n in range(n_min, n_max + 1):
        classical_bits = classical_spectrum(n, DEFAULT_ALPHA).entropy_bits
        quantum_bits = quantum_spectrum(n).entropy_bits
        points.append(
            InformationPoint(
                n=n,
                classical_bits=classical_bits,
                quantum_bits=quantum_bits,
                classical_bound_bits=math.log2(n + 1),
                quantum_bound_bits=asymptotic_log2_p(n),
                quantum_classical_ratio=quantum_bits / classical_bits,
            )
        )
    return tuple(points)


def reports_match(
    a: SpectrumReport, b: SpectrumReport, intensity_tol: float = 1e-12
) -> bool:
    """True when two reports resolve the same classes: equal labels and
    counts position by position, intensities within ``intensity_tol``."""
    if a.n != b.n or len(a.classes) != len(b.classes):
        return False
    for ca, cb in zip(a.classes, b.classes):
        if ca.label != cb.label or ca.count != cb.count:
            return False
        if abs(ca.intensity - cb.intensity) > intensity_tol:
            return False
    return True
