import math
from fractions import Fraction

import pytest

from zenochain import spectrum
from zenochain.partitions import CapacityError, Partition, count_partitions, state_count
from zenochain.spectrum import (
    BRUTE_FORCE_CAP,
    CLASSICAL_CAP,
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

H_CLASSICAL_3 = 3.0 - 0.75 * math.log2(3.0)  # counts (1,3,3,1)/8


def test_quantum_spectrum_n3():
    report = quantum_spectrum(3)
    assert report.n == 3
    assert report.kind == "quantum"
    assert [c.label.parts for c in report.classes] == [(1, 1, 1), (2, 1), (3,)]
    assert [c.count for c in report.classes] == [2, 4, 2]
    assert tuple(c.probability for c in report.classes) == (
        Fraction(1, 4),
        Fraction(1, 2),
        Fraction(1, 4),
    )
    assert report.classes[0].intensity == pytest.approx(27 / 64, abs=1e-12)
    assert report.classes[1].intensity == pytest.approx(3 / 16, abs=1e-12)
    assert report.classes[2].intensity == 0.0
    assert report.entropy_bits == pytest.approx(1.5, abs=1e-12)
    assert report.merges == ()


def test_quantum_spectrum_n1():
    report = quantum_spectrum(1)
    assert len(report.classes) == 1
    assert report.classes[0].probability == Fraction(1)
    assert report.classes[0].intensity == 0.0
    assert report.entropy_bits == 0.0


def test_quantum_spectrum_sorted_strictly_descending():
    for n in (5, 12, 15):
        intensities = [c.intensity for c in quantum_spectrum(n).classes]
        assert all(a > b for a, b in zip(intensities, intensities[1:]))


@pytest.mark.parametrize("n", [1, 2, 5, 9, 14, 15, 20, 24])
def test_quantum_counts_cover_everything(n):
    report = quantum_spectrum(n)
    assert sum(c.count for c in report.classes) == 2 ** n
    assert sum(c.probability for c in report.classes) == Fraction(1)


@pytest.mark.parametrize("n", range(1, 15))
def test_no_merges_below_15(n):
    report = quantum_spectrum(n)
    assert report.merges == ()
    assert len(report.classes) == count_partitions(n)


def test_first_exact_collision_at_15():
    # cos^2 products for 8+4+2+1 and 7+6+1+1 coincide exactly, so the two
    # partitions are indistinguishable at the detector and must be one class
    report = quantum_spectrum(15)
    assert len(report.classes) == count_partitions(15) - 1
    assert report.merges == (
        (Partition((7, 6, 1, 1)), Partition((8, 4, 2, 1))),
    )
    merged = next(c for c in report.classes if c.label == Partition((7, 6, 1, 1)))
    assert merged.count == state_count(Partition((7, 6, 1, 1))) + state_count(
        Partition((8, 4, 2, 1))
    )
    assert merged.count == 72


def test_unmerged_class_counts_match_state_count():
    report = quantum_spectrum(13)
    for cls in report.classes:
        assert cls.count == state_count(cls.label)


def test_quantum_entropy_below_partition_bits():
    for n in range(1, 41):
        report = quantum_spectrum(n)
        assert report.entropy_bits <= math.log2(count_partitions(n)) + 1e-9
        assert report.entropy_bits <= report.bound_bits


@pytest.mark.parametrize("n", range(1, 11))
def test_brute_force_matches_quantum_small(n):
    assert reports_match(quantum_spectrum(n), brute_force_spectrum(n))


def test_brute_force_matches_quantum_at_collision():
    q = quantum_spectrum(15)
    b = brute_force_spectrum(15)
    assert reports_match(q, b)
    assert b.merges == q.merges


def test_brute_force_keeps_an_oracle_nan(monkeypatch):
    # (1, 0, 0, 0) is not the last configuration of its partition, so a
    # finite intensity of the same partition follows the NaN
    real = spectrum.simulate_intensity

    def poisoned(config):
        return math.nan if config.present == (1, 0, 0, 0) else real(config)

    monkeypatch.setattr(spectrum, "simulate_intensity", poisoned)
    with pytest.raises(ValueError, match="intensity must be nonnegative, got nan"):
        brute_force_spectrum(4)


def test_brute_force_n12_class_count():
    assert len(brute_force_spectrum(12).classes) == count_partitions(12) == 77


def test_brute_force_cap():
    with pytest.raises(CapacityError):
        brute_force_spectrum(BRUTE_FORCE_CAP + 1)


def test_reports_match_rejects_differences():
    q3 = quantum_spectrum(3)
    q4 = quantum_spectrum(4)
    assert not reports_match(q3, q4)
    shifted = SpectrumReport(
        n=q3.n,
        kind=q3.kind,
        classes=(
            IntensityClass(q3.classes[0].label, q3.classes[0].intensity + 1e-6,
                           q3.classes[0].count, q3.classes[0].total),
        ) + q3.classes[1:],
        entropy_bits=q3.entropy_bits,
        bound_bits=q3.bound_bits,
    )
    assert not reports_match(q3, shifted)
    # a NaN never matches; IntensityClass rejects one, so it is forced in here
    first = q3.classes[0]
    bright = IntensityClass(first.label, 1.0, first.count, first.total)
    poisoned = IntensityClass(first.label, 1.0, first.count, first.total)
    object.__setattr__(poisoned, "intensity", math.nan)
    reports = [
        SpectrumReport(n=q3.n, kind=q3.kind, classes=(c,) + q3.classes[1:],
                       entropy_bits=q3.entropy_bits, bound_bits=q3.bound_bits)
        for c in (bright, poisoned)
    ]
    assert reports_match(reports[0], reports[0])
    assert not reports_match(reports[0], reports[1])
    assert not reports_match(reports[1], reports[0])
    assert not reports_match(q3, q3, intensity_tol=math.nan)


def test_classical_spectrum_n3():
    report = classical_spectrum(3, 0.5)
    assert report.kind == "classical"
    assert [c.label for c in report.classes] == [0, 1, 2, 3]
    assert [c.count for c in report.classes] == [1, 3, 3, 1]
    assert [c.intensity for c in report.classes] == [1.0, 0.5, 0.25, 0.125]
    assert tuple(c.probability for c in report.classes) == (
        Fraction(1, 8),
        Fraction(3, 8),
        Fraction(3, 8),
        Fraction(1, 8),
    )
    assert report.entropy_bits == pytest.approx(H_CLASSICAL_3, abs=1e-12)
    assert report.bound_bits == pytest.approx(2.0)


def test_classical_entropy_ignores_alpha():
    # attenuation moves the intensities, never the class structure
    entropies = {classical_spectrum(16, a).entropy_bits for a in (0.1, 0.5, 0.9)}
    assert len(entropies) == 1


def test_classical_alpha_validation():
    for alpha in (0.0, 1.0, -0.5, 2.0):
        with pytest.raises(ValueError):
            classical_spectrum(4, alpha)


def test_classical_bound():
    for n in range(1, 101):
        report = classical_spectrum(n, 0.5)
        assert report.entropy_bits <= math.log2(n + 1)
    big = classical_spectrum(100, 0.5)
    assert big.entropy_bits < math.log2(101) - 0.5


def test_classical_at_cap():
    report = classical_spectrum(CLASSICAL_CAP, 0.5)
    assert len(report.classes) == CLASSICAL_CAP + 1
    assert sum(c.count for c in report.classes) == 1 << CLASSICAL_CAP
    # binomial distribution: entropy ~ 0.5 log2(pi e n / 2) ~ 7.69 bits,
    # far below the log2(n + 1) bound
    assert report.entropy_bits == pytest.approx(7.691, abs=2e-3)
    assert report.entropy_bits <= report.bound_bits


def test_classical_cap_enforced():
    with pytest.raises(CapacityError):
        classical_spectrum(CLASSICAL_CAP + 1, 0.5)


def test_entropy_basic_values():
    assert entropy((0.25, 0.5, 0.25)) == pytest.approx(1.5, abs=1e-15)
    assert entropy((0.25, 0.25, 0.25, 0.25)) == pytest.approx(2.0, abs=1e-15)
    assert entropy((1.0,)) == 0.0
    assert entropy((0.5, 0.5, 0.0)) == pytest.approx(1.0, abs=1e-15)
    assert entropy((1 / 8, 3 / 8, 3 / 8, 1 / 8)) == pytest.approx(H_CLASSICAL_3, abs=1e-12)


def test_entropy_permutation_invariant():
    assert entropy((0.7, 0.2, 0.1)) == pytest.approx(entropy((0.1, 0.7, 0.2)), abs=1e-15)


def test_entropy_validation():
    with pytest.raises(ValueError):
        entropy((0.5, -0.1, 0.6))
    with pytest.raises(ValueError):
        entropy((0.5, 0.4))
    with pytest.raises(ValueError):
        entropy(())
    for ps in ((math.nan,), (0.5, math.nan, 0.5)):
        with pytest.raises(ValueError):
            entropy(ps)


def test_qubit_channel_information():
    uniform = qubit_channel_information(1 / 3, 1 / 3, 1 / 3)
    assert uniform == pytest.approx(math.log2(3.0), abs=1e-12)
    assert uniform == pytest.approx(1.585, abs=1e-3)
    assert qubit_channel_information(1.0, 0.0, 0.0) == 0.0
    assert qubit_channel_information(0.5, 0.5, 0.0) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        qubit_channel_information(0.9, 0.3, 0.1)
    with pytest.raises(ValueError):
        qubit_channel_information(math.nan, 0.5, 0.5)


def test_information_series_rows():
    points = information_series(1, 10)
    assert [pt.n for pt in points] == list(range(1, 11))
    first = points[0]
    assert isinstance(first, InformationPoint)
    assert first.classical_bits == pytest.approx(1.0)
    assert first.quantum_bits == 0.0
    assert first.quantum_classical_ratio == 0.0
    at3 = points[2]
    assert at3.classical_bits == pytest.approx(H_CLASSICAL_3, abs=1e-12)
    assert at3.quantum_bits == pytest.approx(1.5, abs=1e-12)
    assert at3.classical_bound_bits == pytest.approx(2.0)


def test_information_series_bound_columns():
    point = information_series(9, 9)[0]
    assert point.classical_bound_bits == pytest.approx(math.log2(10))
    assert point.quantum_bound_bits == pytest.approx(3.7007 * 3.0, abs=5e-3)


def test_information_crossover_at_4():
    # quantum wins from n = 4 on; below that the partition spectrum is
    # still too coarse
    points = information_series(1, 12)
    winners = [pt.n for pt in points if pt.quantum_bits > pt.classical_bits]
    assert winners == list(range(4, 13))


def test_information_series_validation():
    with pytest.raises(ValueError):
        information_series(0, 5)
    with pytest.raises(ValueError):
        information_series(5, 4)
    with pytest.raises(CapacityError):
        information_series(64, 65)


def test_spectrum_report_validation():
    good = quantum_spectrum(2)
    with pytest.raises(ValueError):
        SpectrumReport(
            n=2, kind="other", classes=good.classes,
            entropy_bits=good.entropy_bits, bound_bits=good.bound_bits,
        )
    with pytest.raises(ValueError):
        SpectrumReport(
            n=3, kind="quantum", classes=good.classes,  # counts sum to 4, not 8
            entropy_bits=good.entropy_bits, bound_bits=good.bound_bits,
        )
    with pytest.raises(ValueError):
        SpectrumReport(
            n=2, kind="quantum", classes=good.classes,
            entropy_bits=5.0, bound_bits=good.bound_bits,
        )
    for entropy_bits, bound_bits in ((math.nan, good.bound_bits), (good.entropy_bits, math.nan)):
        with pytest.raises(ValueError):
            SpectrumReport(
                n=2, kind="quantum", classes=good.classes,
                entropy_bits=entropy_bits, bound_bits=bound_bits,
            )


def test_intensity_class_validation():
    with pytest.raises(ValueError):
        IntensityClass(Partition((1,)), 0.5, 0, 2)
    with pytest.raises(ValueError):
        IntensityClass(Partition((1,)), 0.5, 3, 2)
    for intensity in (-0.5, math.nan):
        with pytest.raises(ValueError):
            IntensityClass(Partition((1,)), intensity, 1, 2)


def test_intensity_class_probability_views():
    cls = IntensityClass(Partition((2, 1)), 0.1875, 4, 8)
    assert cls.probability == Fraction(1, 2)
    assert cls.probability_float == 0.5
