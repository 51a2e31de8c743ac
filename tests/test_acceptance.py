"""Acceptance gate: the ten contract criteria, one printed line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines; every
criterion also asserts, so the suite stays red until all ten hold. The
tolerances are pinned here and nowhere loosened.
"""

import csv
import math
import time
from fractions import Fraction

from zenochain.apparatus import ApparatusConfig, quantum_intensity, simulate_intensity, zeno_survival
from zenochain.cli import main
from zenochain.partitions import (
    asymptotic_log2_p,
    count_partitions,
    enumerate_partitions,
    state_count,
)
from zenochain.spectrum import (
    brute_force_spectrum,
    classical_spectrum,
    information_series,
    quantum_spectrum,
    qubit_channel_information,
    reports_match,
)

FIRST_TEN = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
P_100 = 190_569_292

N3_INTENSITIES = (
    ("000", Fraction(0)),
    ("001", Fraction(0)),
    ("010", Fraction(3, 16)),
    ("011", Fraction(3, 16)),
    ("100", Fraction(3, 16)),
    ("101", Fraction(3, 16)),
    ("110", Fraction(27, 64)),
    ("111", Fraction(27, 64)),
)


def _criterion(number, passed, detail):
    print(f"[criterion {number:02d}] {'PASS' if passed else 'FAIL'}  {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_partition_counts():
    start = time.perf_counter()
    first = tuple(count_partitions(n) for n in range(1, 11))
    big = count_partitions(100)
    elapsed = time.perf_counter() - start
    ok = first == FIRST_TEN and big == P_100 and elapsed < 1.0
    _criterion(1, ok, f"p(1..10) and p(100)={big} exact in {elapsed:.3f}s (< 1s)")


def test_criterion_02_three_slot_intensities():
    start = time.perf_counter()
    worst = max(
        abs(quantum_intensity(ApparatusConfig.from_bits(bits)) - float(expected))
        for bits, expected in N3_INTENSITIES
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    _criterion(2, ok, f"all 8 three-slot intensities within 1e-12 "
                      f"(worst {worst:.2e}) in {elapsed:.3f}s (< 1s)")


def test_criterion_03_three_slot_spectrum():
    report = quantum_spectrum(3)
    probabilities = tuple(cls.probability for cls in report.classes)
    exact = probabilities == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
    entropy_gap = abs(report.entropy_bits - 1.5)
    ok = exact and entropy_gap <= 1e-12
    _criterion(3, ok, f"n=3 class probabilities exactly (1/4, 1/2, 1/4), "
                      f"entropy within 1e-12 of 1.5 (gap {entropy_gap:.2e})")


def test_criterion_04_state_count_conservation():
    failures = [
        n for n in range(1, 21)
        if sum(state_count(p) for p in enumerate_partitions(n)) != 2 ** n
    ]
    _criterion(4, not failures,
               f"sum of state counts equals 2^n exactly for n=1..20 "
               f"(failures: {failures or 'none'})")


def test_criterion_05_oracle_equivalence():
    start = time.perf_counter()
    worst = 0.0
    mismatched = []
    for n in range(1, 17):
        for index in range(2 ** n):
            config = ApparatusConfig.from_index(n, index)
            gap = abs(quantum_intensity(config) - simulate_intensity(config))
            if gap > worst or math.isnan(gap):  # a NaN, once seen, stays
                worst = gap
        if not reports_match(quantum_spectrum(n), brute_force_spectrum(n),
                             intensity_tol=1e-12):
            mismatched.append(n)
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and not mismatched and elapsed < 60.0
    _criterion(5, ok, f"simulation agrees with gap rule on all configurations "
                      f"n<=16 (worst {worst:.2e}, tol 1e-12) and spectra match "
                      f"class for class (mismatches: {mismatched or 'none'}) "
                      f"in {elapsed:.1f}s (< 60s)")


def test_criterion_06_classical_entropy_bound():
    violations = [
        n for n in range(1, 101)
        if classical_spectrum(n, 0.5).entropy_bits > math.log2(n + 1)
    ]
    at_100 = classical_spectrum(100, 0.5).entropy_bits
    margin_ok = at_100 < math.log2(101) - 0.5
    ok = not violations and margin_ok
    _criterion(6, ok, f"classical entropy <= log2(n+1) for n=1..100 and "
                      f"H(100)={at_100:.4f} < log2(101)-0.5={math.log2(101) - 0.5:.4f}")


def test_criterion_07_quantum_entropy_bound(quantum_summary):
    entropy_violations = []
    for n in range(1, 65):
        if quantum_summary(n).entropy_bits > math.log2(count_partitions(n)) + 1e-9:
            entropy_violations.append(n)
    count_violations = [
        n for n in range(1, 201)
        if math.log2(count_partitions(n)) > 3.7007 * math.sqrt(n)
        or math.log2(count_partitions(n)) > asymptotic_log2_p(n)
    ]
    ok = not entropy_violations and not count_violations
    _criterion(7, ok, f"quantum entropy <= log2 p(n) for n=1..64 (violations: "
                      f"{entropy_violations or 'none'}) and log2 p(n) <= "
                      f"3.7007*sqrt(n) for n=1..200 (violations: "
                      f"{count_violations or 'none'})")


def test_criterion_08_zeno_survival():
    sample = list(range(2, 1001)) + [2000, 5000, 10_000]
    bound_violations = [
        n for n in sample if zeno_survival(n) < 1.0 - math.pi ** 2 / (4.0 * n)
    ]
    values = [zeno_survival(n) for n in range(1, 1001)]
    monotone = all(b >= a for a, b in zip(values, values[1:]))
    at_10k = zeno_survival(10_000)
    ok = not bound_violations and monotone and at_10k >= 0.999753
    _criterion(8, ok, f"survival >= 1 - pi^2/(4n) for sampled n=2..10000 "
                      f"(violations: {bound_violations or 'none'}), nondecreasing, "
                      f"survival(10^4)={at_10k:.9f} >= 0.999753")


def test_criterion_09_qubit_channel():
    uniform = qubit_channel_information(1 / 3, 1 / 3, 1 / 3)
    exact_gap = abs(uniform - math.log2(3.0))
    rounded_gap = abs(uniform - 1.585)
    ok = exact_gap <= 1e-12 and rounded_gap <= 1e-3
    _criterion(9, ok, f"uniform three-outcome readout carries "
                      f"{uniform:.6f} bits = log2(3) within 1e-12 "
                      f"(gap {exact_gap:.2e}), within 1e-3 of 1.585")


def test_criterion_10_information_series_export(tmp_path, capsys):
    target = tmp_path / "information_series.csv"
    code = main(["compare", "--n-min", "1", "--n-max", "40",
                 "--format", "csv", "--precision", "12", "--out", str(target)])
    capsys.readouterr()
    with target.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    points = information_series(1, 40)
    rows_ok = (
        code == 0
        and len(rows) == 40
        and [int(r["n"]) for r in rows] == list(range(1, 41))
        and all(
            abs(float(r["entropy_quantum_bits"]) - pt.quantum_bits) <= 1e-9
            for r, pt in zip(rows, points)
        )
    )
    crossover = next(
        (pt.n for pt in points if pt.quantum_bits > pt.classical_bits), None
    )
    ok = rows_ok and crossover == 4
    with capsys.disabled():
        _criterion(10, ok, f"series n=1..40 exported as CSV ({len(rows)} rows); "
                           f"quantum first beats classical at n={crossover} "
                           f"and stays ahead through n=40")
    assert all(pt.quantum_bits > pt.classical_bits for pt in points if pt.n >= 4)
