import gc
import math
import os
import pickle
import random
import subprocess
import sys
import tracemalloc
from array import array
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import mpmath
import pytest
from sympy import cyclotomic_poly, symbols, totient

from zenochain import _exact, cli, spectrum
from zenochain.apparatus import ApparatusConfig, gaps, simulate_intensity
from zenochain.partitions import (
    COUNT_CAP,
    ENUMERATION_CAP,
    CapacityError,
    Partition,
    _partition_columns,
    count_partitions,
    enumerate_partitions,
    state_count,
)
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


# Every exact merge at these sizes, as (kept label, absorbed partition).
PINNED_MERGES = {
    15: [("7+6+1+1", "8+4+2+1")],
    30: [
        ("13+8+1+1+1+1+1+1+1+1+1", "14+5+3+1+1+1+1+1+1+1+1"),
        ("13+8+2+1+1+1+1+1+1+1", "14+5+3+2+1+1+1+1+1+1"),
        ("13+8+2+2+1+1+1+1+1", "14+5+3+2+2+1+1+1+1"),
        ("13+8+2+2+2+1+1+1", "14+5+3+2+2+2+1+1"),
        ("13+8+3+1+1+1+1+1+1", "14+5+3+3+1+1+1+1+1"),
        ("13+8+2+2+2+2+1", "14+5+3+2+2+2+2"),
        ("13+8+3+2+1+1+1+1", "14+5+3+3+2+1+1+1"),
        ("13+8+3+2+2+1+1", "14+5+3+3+2+2+1"),
        ("13+8+3+3+1+1+1", "14+5+3+3+3+1+1"),
        ("13+8+4+1+1+1+1+1", "14+5+4+3+1+1+1+1"),
        ("13+8+3+3+2+1", "14+5+3+3+3+2"),
        ("13+8+4+2+1+1+1", "14+5+4+3+2+1+1"),
        ("13+8+4+2+2+1", "14+5+4+3+2+2"),
        ("13+8+4+3+1+1", "14+5+4+3+3+1"),
        ("13+8+5+1+1+1+1", "14+5+5+3+1+1+1"),
        ("13+8+5+2+1+1", "14+5+5+3+2+1"),
        ("13+8+4+4+1", "14+5+4+4+3"),
        ("13+8+5+3+1", "14+5+5+3+3"),
        ("13+8+6+1+1+1", "14+6+5+3+1+1"),
        ("13+8+6+2+1", "14+6+5+3+2"),
        ("12+11+3+1+1+1+1", "14+7+5+1+1+1+1"),
        ("12+11+3+2+1+1", "14+7+5+2+1+1"),
        ("12+11+3+2+2", "14+7+5+2+2"),
        ("12+11+3+3+1", "14+7+5+3+1"),
        ("12+11+3+3+1", "13+8+7+1+1"),
        ("12+11+4+3", "14+7+5+4"),
        ("13+8+8+1", "14+8+5+3"),
        ("13+12+2+1+1+1", "16+5+4+3+1+1"),
        ("13+12+2+2+1", "16+5+4+3+2"),
        ("14+12+2+1+1", "16+8+4+1+1"),
        ("14+12+2+2", "16+8+4+2"),
    ],
    42: [
        ("15+13+8+3+1+1+1", "17+10+7+5+1+1+1"),
        ("15+13+8+3+2+1", "17+10+7+5+2+1"),
        ("15+13+8+3+3", "17+10+7+5+3"),
        ("18+11+9+2+1+1", "20+7+6+5+3+1"),
        ("25+12+1+1+1+1+1", "26+7+5+1+1+1+1"),
        ("25+12+2+1+1+1", "26+7+5+2+1+1"),
        ("25+12+2+2+1", "26+7+5+2+2"),
        ("25+12+3+1+1", "26+7+5+3+1"),
        ("25+12+4+1", "26+7+5+4"),
    ],
    45: [
        ("21+18+3+1+1+1", "24+12+6+1+1+1"),
        ("21+18+3+2+1", "24+12+6+2+1"),
        ("21+18+3+3", "24+12+6+3"),
    ],
}

# Distinct classes that a relative float tolerance of 1e-12 used to merge.
NEAR_MISSES = {
    62: ("13+11+10+10+6+3+3+3+3", "18+9+7+5+5+5+4+2+1+1+1+1+1+1+1"),
    63: ("21+10+10+8+3+3+2+2+2+2", "22+11+6+6+4+4+4+2+2+1+1"),
}


def _parts(text):
    return tuple(int(g) for g in text.split("+"))


def _mp_intensity(n, parts, digits):
    with mpmath.workdps(digits):
        value = mpmath.mpf(1)
        for g in parts:
            value *= mpmath.cos(g * mpmath.pi / (2 * n)) ** 2
        return value


def _float_intensity(n, parts):
    # the fast path's float: the same factors, multiplied in the same order
    value = 1.0
    for g in parts:
        c = math.cos(g * math.pi / (2.0 * n))
        value *= c * c
    return value


@pytest.mark.parametrize("n", sorted(PINNED_MERGES))
def test_merges_pinned(n):
    report = quantum_spectrum(n)
    got = [(str(kept), str(absorbed)) for kept, absorbed in report.merges]
    assert got == PINNED_MERGES[n]
    assert len(report.classes) + len(report.merges) == count_partitions(n)


def test_merge_and_class_counts_pinned_to_64(quantum_summary):
    merge_counts = {15: 1, 30: 31, 42: 9, 45: 3, 60: 274}
    for n in range(1, 65):
        summary = quantum_summary(n)
        assert summary.merges == merge_counts.get(n, 0), n
        assert summary.classes + summary.merges == count_partitions(n), n


@pytest.mark.parametrize("n", sorted(PINNED_MERGES))
def test_pinned_merges_equal_to_50_digits(n):
    # mpmath shares nothing with the exact key: an independent oracle
    for kept, absorbed in PINNED_MERGES[n]:
        a = _mp_intensity(n, _parts(kept), 60)
        b = _mp_intensity(n, _parts(absorbed), 60)
        with mpmath.workdps(60):
            assert abs(a - b) <= mpmath.mpf(10) ** -50 * a, (kept, absorbed)


@pytest.mark.parametrize("n", sorted(PINNED_MERGES))
def test_pinned_merges_confirmed_modulo_cyclotomic(n):
    phi = _exact.cyclotomic(2 * n)
    for kept, absorbed in PINNED_MERGES[n]:
        assert _exact.exact_key(n, _parts(kept), phi) == _exact.exact_key(
            n, _parts(absorbed), phi
        )


def test_pinned_merge_float_gaps_far_inside_window():
    worst = 0.0
    for n, pairs in PINNED_MERGES.items():
        for kept, absorbed in pairs:
            a = _float_intensity(n, _parts(kept))
            b = _float_intensity(n, _parts(absorbed))
            worst = max(worst, abs(a - b) / max(a, b))
    assert worst <= 1e-13
    assert 1000 * 1e-13 <= spectrum._MERGE_WINDOW


@pytest.mark.parametrize("n", sorted(NEAR_MISSES))
def test_near_misses_differ_to_60_digits(n):
    kept, absorbed = NEAR_MISSES[n]
    a = _mp_intensity(n, _parts(kept), 70)
    b = _mp_intensity(n, _parts(absorbed), 70)
    with mpmath.workdps(70):
        assert abs(a - b) >= mpmath.mpf(10) ** -60 * a
        assert abs(a - b) >= mpmath.mpf("4e-13") * a


@pytest.mark.parametrize("n", sorted(NEAR_MISSES))
def test_exact_key_separates_near_misses(n):
    kept, absorbed = (_parts(text) for text in NEAR_MISSES[n])
    a, b = _float_intensity(n, kept), _float_intensity(n, absorbed)
    assert abs(a - b) <= 1e-12 * max(a, b)  # what the float tolerance joined
    phi = _exact.cyclotomic(2 * n)
    assert _exact.exact_key(n, kept, phi) != _exact.exact_key(n, absorbed, phi)


@pytest.mark.parametrize("n", sorted(NEAR_MISSES))
def test_no_false_merges_at_62_and_63(n, quantum_summary):
    summary = quantum_summary(n)
    assert summary.merges == 0
    assert summary.classes == count_partitions(n)


@pytest.mark.parametrize("n", [1, 2, 7, 12, 15, 18, 20])
def test_exact_key_groups_like_mpmath(n):
    # group every partition of n by the exact key and by 50-digit values:
    # the two groupings must be the same sets
    phi = _exact.cyclotomic(2 * n)
    by_key, by_value = {}, {}
    with mpmath.workdps(60):
        cos_sq = [mpmath.cos(g * mpmath.pi / (2 * n)) ** 2 for g in range(n + 1)]
        for p in enumerate_partitions(n):
            by_key.setdefault(_exact.exact_key(n, p.parts, phi), set()).add(p.parts)
            value = mpmath.fprod(cos_sq[g] for g in p.parts)
            by_value.setdefault(mpmath.nstr(value, 50), set()).add(p.parts)
    groups_by_key = sorted(sorted(group) for group in by_key.values())
    groups_by_value = sorted(sorted(group) for group in by_value.values())
    assert groups_by_key == groups_by_value
    assert (len(groups_by_key) < count_partitions(n)) == (n == 15)


def _candidate_runs(n):
    # the sorted rows of quantum_spectrum(n), cut into maximal runs of
    # neighbours within the merge window as _partition_report cuts them
    cos_sq = [0.0] * (n + 1)
    for g in range(1, n):
        c = math.cos(g * math.pi / (2.0 * n))
        cos_sq[g] = c * c
    rows = sorted(zip(*_partition_columns(n, cos_sq)), reverse=True)
    runs = []
    for above, row in zip(rows, rows[1:]):
        if above[0] - row[0] <= spectrum._MERGE_WINDOW * above[0]:
            if runs and runs[-1][-1] is above:
                runs[-1].append(row)
            else:
                runs.append([above, row])
    return runs


@pytest.mark.parametrize("n,runs,merges", [(30, 30, 31), (42, 9, 9), (45, 3, 3), (53, 8, 0)])
def test_exact_groups_of_candidate_runs_like_mpmath(n, runs, merges):
    # mpmath shares nothing with the exact key: rows whose 60-digit values
    # agree to 50 digits form one group, groups and members in run order
    candidate_runs = _candidate_runs(n)
    assert len(candidate_runs) == runs
    phi = _exact.cyclotomic(2 * n)
    joined = 0
    for run in candidate_runs:
        by_value = []
        with mpmath.workdps(60):
            for _, parts, _ in run:
                value = _mp_intensity(n, parts, 60)
                for group in by_value:
                    if abs(group[0][0] - value) <= mpmath.mpf(10) ** -50 * value:
                        group.append((value, parts))
                        break
                else:
                    by_value.append([(value, parts)])
        by_key = {}
        for _, parts, _ in run:
            by_key.setdefault(_exact.exact_key(n, parts, phi), []).append(parts)
        groups = list(by_key.values())
        assert groups == [[parts for _, parts in group] for group in by_value]
        joined += len(run) - len(groups)
    assert joined == merges


def test_cyclotomic_against_sympy():
    x = symbols("x")
    for m in range(1, 129):
        expected = [int(c) for c in reversed(cyclotomic_poly(m, x, polys=True).all_coeffs())]
        assert _exact.cyclotomic(m) == expected, m
        assert len(expected) - 1 == totient(m)


def test_exact_arithmetic_loaded_only_for_candidate_runs():
    # a fresh interpreter: this process has long imported zenochain._exact.
    # n = 38 has no near-equal neighbours, n = 15 has one candidate run.
    code = (
        "import sys\n"
        "from zenochain.spectrum import quantum_spectrum\n"
        "quantum_spectrum(38)\n"
        "print('zenochain._exact' in sys.modules)\n"
        "quantum_spectrum(15)\n"
        "print('zenochain._exact' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "True"]


def test_partition_report_checks_rows_before_building(monkeypatch):
    n = 4
    good = [(1.0, b"\1\1\1\1", 2), (0.25, b"\2\2", 2), (0.5, b"\2\1\1", 6),
            (0.1, b"\3\1", 4), (0.0, b"\4", 2)]

    def forbidden(*args):
        raise AssertionError("an object was built before the rows were checked")

    monkeypatch.setattr(spectrum, "_trusted", forbidden)
    monkeypatch.setattr(Partition, "_trusted", classmethod(forbidden))
    for bad, message in (
        ((0.3, b"\3\1", 0), "count must lie in 1..16, got 0"),
        ((-0.3, b"\3\1", 4), "intensity must be nonnegative, got -0.3"),
        ((math.nan, b"\3\1", 4), "intensity must be nonnegative, got nan"),
    ):
        columns = [list(column) for column in zip(*good[:3], bad, *good[4:])]
        before = [list(column) for column in columns]
        with pytest.raises(ValueError, match=message):
            spectrum._partition_report(n, *columns)
        assert columns == before  # not sorted either


@pytest.mark.parametrize("n", [15, 30, 42, 45, 60])
def test_report_order_is_the_row_sort_at_merge_sizes(n):
    # the report's columns against the walk's rows sorted as tuples, each
    # merge applied at its group's first (brightest) row: same labels,
    # counts and intensity bits, so the argsort breaks ties as the tuple sort
    report = quantum_spectrum(n)
    assert report.merges
    kept = {bytes(absorbed.parts): bytes(label.parts) for label, absorbed in report.merges}
    at, expected = {}, []
    for intensity, parts, count in sorted(zip(*_partition_columns(n, spectrum._cos_sq(n))),
                                          reverse=True):
        label = kept.get(parts, parts)
        if label in at:
            brightest, _, total = expected[at[label]]
            expected[at[label]] = (brightest, label, total + count)
        else:
            at[label] = len(expected)
            expected.append((intensity, label, count))
    labels, intensities, counts = spectrum._columns(report.classes)
    assert tuple(labels) == tuple(label for _, label, _ in expected)
    assert counts == tuple(count for _, _, count in expected)
    assert intensities.tobytes() == array("d", [x for x, _, _ in expected]).tobytes()


def test_partition_report_reads_its_rows_once_and_leaves_them_alone():
    # a caller's columns are neither sorted nor emptied, and build the same
    # report again; any sequences do, and so do the rows in any order
    n = 15
    columns = _partition_columns(n, spectrum._cos_sq(n))
    before = [list(column) for column in columns]
    from_lists = spectrum._partition_report(n, *columns)
    assert list(columns) == before
    from_tuples = spectrum._partition_report(n, *map(tuple, columns))
    rows = list(zip(*columns))
    random.Random(n).shuffle(rows)
    shuffled = spectrum._partition_report(n, *map(list, zip(*rows)))
    backwards = spectrum._partition_report(n, *(column[::-1] for column in columns))
    assert list(columns) == before
    assert from_lists == from_tuples == shuffled == backwards == quantum_spectrum(n)  # merges too


def test_merged_row_keeps_its_place_among_interleaved_classes():
    # 8+4+2+1 and 7+6+1+1 are exactly equal; given the same float as the
    # distinct 7+7+1, the three sort as 8+4+2+1, 7+7+1, 7+6+1+1
    n = 15
    cos_sq = [0.0] * (n + 1)
    for g in range(1, n):
        c = math.cos(g * math.pi / (2.0 * n))
        cos_sq[g] = c * c
    # rows of one float keep their input order: take them reverse-lexicographically
    rows = sorted(zip(*_partition_columns(n, cos_sq)), key=lambda row: row[1], reverse=True)
    common = _float_intensity(n, (8, 4, 2, 1))
    tied = {bytes((8, 4, 2, 1)), bytes((7, 6, 1, 1)), bytes((7, 7, 1))}
    rows = [(common, parts, count) if parts in tied else (value, parts, count)
            for value, parts, count in rows]
    counts = {tuple(parts): count for _, parts, count in rows}
    report = spectrum._partition_report(n, *map(list, zip(*rows)))
    labels = [c.label.parts for c in report.classes]
    at = labels.index((7, 6, 1, 1))
    assert labels[at + 1] == (7, 7, 1)
    assert (8, 4, 2, 1) not in labels
    assert report.classes[at].count == counts[(7, 6, 1, 1)] + counts[(8, 4, 2, 1)]
    assert report.merges == ((Partition((7, 6, 1, 1)), Partition((8, 4, 2, 1))),)
    assert len(report.classes) == count_partitions(n) - 1


@pytest.mark.parametrize("report", [quantum_spectrum(15), classical_spectrum(6, 0.5)],
                         ids=["quantum", "classical"])
def test_trusted_classes_are_ordinary_instances(report):
    # classes are made without __init__ when they are read; they must not be
    # told apart from ones that went through it, however they are read
    classes = report.classes
    as_tuple = tuple(classes)
    assert type(as_tuple) is tuple and len(as_tuple) == len(classes)
    read = [*classes, *classes[:], *(classes[i] for i in range(len(classes)))]
    assert read == [*as_tuple] * 3
    for cls in read:
        label = cls.label
        if isinstance(label, Partition):
            rebuilt_label = Partition(label.parts)
            assert type(label) is Partition and label == rebuilt_label
            assert repr(label) == repr(rebuilt_label) and label.n == report.n
            label = rebuilt_label
        rebuilt = IntensityClass(label, cls.intensity, cls.count, cls.total)
        assert type(cls) is IntensityClass
        assert cls == rebuilt and hash(cls) == hash(rebuilt)
        assert repr(cls) == repr(rebuilt)


COLUMNAR = {
    "quantum": lambda: quantum_spectrum(15),  # one merge
    "quantum-blocks": lambda: quantum_spectrum(30),  # six label blocks, 31 merges
    "classical": lambda: classical_spectrum(6, 0.5),
}


@pytest.mark.parametrize("build", COLUMNAR.values(), ids=COLUMNAR.keys())
def test_columnar_report_equals_the_tuple_built_one(build):
    report = build()
    built = SpectrumReport(
        n=report.n, kind=report.kind, classes=tuple(report.classes),
        entropy_bits=report.entropy_bits, bound_bits=report.bound_bits, merges=report.merges,
    )
    assert type(report.classes) is not tuple
    assert report == built and built == report
    assert not report != built and not built != report
    assert report.classes == built.classes and built.classes == report.classes
    assert hash(report) == hash(built) and hash(report.classes) == hash(built.classes)
    assert repr(report) == repr(built) and repr(report.classes) == repr(built.classes)
    assert report != quantum_spectrum(report.n + 1)
    assert report.classes != list(built.classes)  # as a tuple is not equal to a list

    thawed = pickle.loads(pickle.dumps(report))
    assert thawed == report and thawed == built and built == thawed
    assert type(thawed.classes) is type(report.classes) and _compact(thawed.classes)
    assert repr(thawed) == repr(report)


@pytest.mark.parametrize("build", COLUMNAR.values(), ids=COLUMNAR.keys())
def test_columnar_classes_index_and_slice_like_a_tuple(build):
    report = build()
    classes, expected = report.classes, tuple(report.classes)
    size = len(expected)
    assert len(classes) == size
    for i in (0, 1, size - 1, -1, -2, -size):
        assert classes[i] == expected[i]
    for i in (size, -size - 1, 10**6):
        with pytest.raises(IndexError):
            classes[i]
    for cut in (slice(1, None), slice(None), slice(None, None, -2), slice(3, 1), slice(-3, None)):
        assert type(classes[cut]) is tuple and classes[cut] == expected[cut]
    # a report built by hand from a read class and a slice, as tests do
    first = classes[0]
    bright = IntensityClass(first.label, first.intensity, first.count, first.total)
    rebuilt = SpectrumReport(n=report.n, kind=report.kind, classes=(bright,) + classes[1:],
                             entropy_bits=report.entropy_bits, bound_bits=report.bound_bits)
    assert reports_match(rebuilt, report) and reports_match(report, rebuilt)
    assert expected[-1] in classes and classes.index(expected[-1]) == size - 1
    assert classes.count(expected[0]) == 1
    assert tuple(reversed(classes)) == expected[::-1]


def test_report_built_by_hand_past_a_byte():
    # a part of 256 or more cannot be a byte: such a label keeps its parts tuple
    r = SpectrumReport(n=300, kind="quantum",
                       classes=(IntensityClass(Partition((300,)), 0.0, 2**300, 2**300),),
                       entropy_bits=0.0, bound_bits=64.0)
    assert reports_match(r, r)
    assert r.classes[0].label.parts == (300,)


class _OldColumns:
    """Pickles as a ``_ClassColumns`` of the given columns, whatever their types."""

    def __init__(self, *columns):
        self.columns = columns

    def __reduce__(self):
        return spectrum._ClassColumns, self.columns


def test_columns_of_parts_tuples_equal_the_bytes_ones():
    # a report pickled while labels were a tuple of bytes or of parts tuples,
    # intensities a tuple of floats and every count an int of its own
    # (unpickling makes one per row) loads its classes: equal both ways, and
    # held as a fresh report's, its labels packed; n = 30's labels span blocks
    for report, spelled in ((quantum_spectrum(30), tuple),
                            (quantum_spectrum(15), lambda labels: tuple(map(tuple, labels))),
                            (classical_spectrum(12, 0.5), tuple)):
        labels, intensities, counts = spectrum._columns(report.classes)
        # a pickle of a new report carries what the older versions load: a
        # tuple of labels, bytes for a partition, and a tuple of intensities
        maker, args = report.classes.__reduce__()
        assert maker is spectrum._ClassColumns and args[0] == report.n
        assert type(args[1]) is tuple and args[1] == tuple(labels)
        assert {type(label) for label in args[1]} == {bytes if report.kind == "quantum" else int}
        assert type(args[2]) is tuple and args[2] == tuple(intensities) and args[3] is counts
        pickled = pickle.dumps(_OldColumns(report.n, spelled(labels), tuple(intensities), counts))
        fresh = pickle.loads(pickle.dumps(counts))  # the counts as unpickling makes them
        assert len(set(map(id, fresh))) > len(set(fresh))
        old = pickle.loads(pickled)
        assert type(old) is spectrum._ClassColumns
        assert old == report.classes and report.classes == old
        assert tuple(old) == tuple(report.classes)
        assert hash(old) == hash(report.classes) and repr(old) == repr(report.classes)
        assert _compact(old) and spectrum._columns(old)[1] == intensities
        if report.kind == "quantum":
            assert type(old[0].label.parts) is tuple
        thawed = SpectrumReport(n=report.n, kind=report.kind, classes=old,
                                entropy_bits=report.entropy_bits, bound_bits=report.bound_bits,
                                merges=report.merges)
        assert thawed == report and report == thawed
        assert hash(thawed) == hash(report) and repr(thawed) == repr(report)
        assert reports_match(thawed, report) and reports_match(report, thawed)


def _held(build):
    """A report of ``build`` and the bytes it holds, by tracemalloc: a first
    build fills the memoized tables, a second is measured."""
    build()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        report = build()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return report, held


def _compact(columns):
    """Whether ``columns`` keep their partition labels packed, their intensities
    in an array and one int object per distinct count."""
    labels, intensities, counts = spectrum._columns(columns)
    packed = type(labels) is spectrum._PackedLabels or {type(label) for label in labels} == {int}
    return packed and type(intensities) is array and len(set(map(id, counts))) == len(set(counts))


def test_quantum_report_holds_its_columns_compactly():
    # about 33 bytes a class: a label's parts and its separator in a packed
    # block, a pointer and a double
    report, held = _held(lambda: quantum_spectrum(40))
    assert len(report.classes) == count_partitions(40)
    assert _compact(report.classes)
    assert held <= 40 * len(report.classes), held / len(report.classes)


def test_quantum_build_holds_no_label_twice():
    # the walk frees each bucket once read and makes no row tuple, and the
    # build packs the sorted labels once the argsort's index list is gone.
    # Traced at n = 50: 31.9 MiB on 3.11 and 29.8 MiB on 3.13.
    n = 50
    spectrum._cos_sq(n)  # the memoized table, held beyond the build
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        quantum_spectrum(n)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 41 * 2**20, peak / 2**20


def test_packing_labels_copies_each_block_once():
    # packing joins each block of labels and keeps the blocks as they are: at
    # n = 45 (89,131 sorted labels, 88 blocks) the peak above the input is
    # 1.07 times what the column holds; a second copy of the whole column,
    # as by joining the blocks, would make it 2
    labels = list(spectrum._columns(quantum_spectrum(45).classes)[0])
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        packed = spectrum._PackedLabels(labels)
        held, peak = (traced - before for traced in tracemalloc.get_traced_memory())
    finally:
        tracemalloc.stop()
    assert packed == tuple(labels) and len(packed) == len(labels)
    assert peak <= 1.5 * held, peak / held


def test_packed_labels_index_and_slice_like_a_tuple():
    # p(30) = 5,604 partitions: five full blocks of 1,024 labels and a partial sixth
    report = quantum_spectrum(30)
    labels = spectrum._columns(report.classes)[0]
    expected = tuple(bytes(c.label.parts) for c in tuple(report.classes))
    size, block = len(expected), spectrum._BLOCK
    assert type(labels) is spectrum._PackedLabels and size % block and size > 5 * block
    assert len(labels) == size and tuple(labels) == expected and list(labels) == list(expected)
    assert labels == expected and expected == labels and not labels != expected
    assert labels != expected[:-1] and labels != expected[:-1] + (b"\1",) and labels != [*expected]

    class At:
        def __init__(self, i):
            self.i = i

        def __index__(self):
            return self.i

    last = size // block * block  # the partial block's first
    for i in (0, 1, 1023, 1024, 1025, last - 1, last, last + 1, size - 1, -1, -2, -1025, -size):
        assert labels[i] == expected[i] and labels[At(i)] == expected[i]
    for i in (size, -size - 1, 10**6, At(size)):
        with pytest.raises(IndexError):
            labels[i]
    with pytest.raises(TypeError):
        labels["1"]
    for cut in (slice(None), slice(None, None, -2), slice(None, None, 7), slice(3, 1),
                slice(1000, 1100), slice(-1500, None, -2), slice(1030, 5, -7),
                slice(2000, 1020, -7), slice(last - 3, None), slice(2, -2, 1024),
                slice(size, None)):
        assert type(labels[cut]) is tuple and labels[cut] == expected[cut], cut

    # the classes read through the packed column index as their tuple, across blocks
    classes, as_tuple = report.classes, tuple(report.classes)
    assert tuple(reversed(classes)) == as_tuple[::-1]
    for i in (0, 1023, 1024, 1025, size - 1):
        assert classes.index(as_tuple[i]) == i
    assert classes.index(as_tuple[2000], 1500, 2001) == 2000
    assert classes.index(as_tuple[-2], -3) == size - 2
    for start, stop in ((2001, None), (0, 2000), (-1, None), (0, -size - 5)):
        with pytest.raises(ValueError):
            classes.index(as_tuple[2000], start, stop)

    assert spectrum._PackedLabels(iter(())) == () and len(spectrum._PackedLabels(iter(()))) == 0


def test_classical_report_holds_its_columns_compactly():
    # a count C(1000, k) is itself an int of up to 995 bits, which the column
    # must hold once per distinct value; beyond those values a class holds
    # about 52 bytes, 76 while each intensity was a float object
    report, held = _held(lambda: classical_spectrum(1000))
    counts = spectrum._columns(report.classes)[2]
    assert _compact(report.classes)
    values = sum(map(sys.getsizeof, set(counts)))
    assert held - values <= 60 * len(counts), (held - values) / len(counts)


@pytest.fixture
def made(monkeypatch):
    """The classes of every object that ``_trusted`` or ``IntensityClass(...)``
    makes during the test, in order."""
    made = []
    trusted = spectrum._trusted
    post_init = IntensityClass.__post_init__

    def recording(cls, size, **columns):
        made.append(cls)
        return trusted(cls, size, **columns)

    def checked(self):
        made.append(IntensityClass)
        post_init(self)

    monkeypatch.setattr(spectrum, "_trusted", recording)
    monkeypatch.setattr(IntensityClass, "__post_init__", checked)
    monkeypatch.setattr(spectrum, "_quantum_cache", {})
    return made


def test_spectra_readers_and_cli_make_no_class_objects(made, capsys):
    reports = [quantum_spectrum(15), brute_force_spectrum(15), classical_spectrum(6, 0.5)]
    information_series(1, 15)
    for report in reports:
        assert len(report.classes) > 0 and report.entropy_bits > 0.0
        SpectrumReport(  # the count check
            n=report.n, kind=report.kind, classes=report.classes,
            entropy_bits=report.entropy_bits, bound_bits=report.bound_bits,
        )
    assert reports_match(reports[0], reports[1])
    assert not reports_match(reports[0], reports[2])
    for fmt in ("table", "csv", "json"):
        assert cli.main(["spectrum", "--n", "30", "--format", fmt]) == 0
    assert capsys.readouterr().out
    assert made == []  # not a class, not a label
    reports[0].classes[0]  # the spy does see a read
    assert made == [Partition, IntensityClass]


@pytest.fixture
def collector_off():
    """The cyclic collector disabled for the test, as a caller might have it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


# Builds that must leave the collector as the caller set it; the quantum
# cache is emptied so that n = 15 really builds.
BUILDS = {
    "quantum": lambda: quantum_spectrum(15),
}


def test_quantum_build_leaves_the_collector_nothing_to_track():
    # a label is the bytes of its parts, which the collector does not track
    # (every part fits in a byte), so p(40) = 37,338 classes add a handful of
    # tracked objects, not one each
    assert ENUMERATION_CAP < 256
    assert gc.isenabled()
    gc.collect()
    before = len(gc.get_objects())
    report = quantum_spectrum(40)
    assert len(gc.get_objects()) - before < 1_000
    assert len(report.classes) == count_partitions(40)


@pytest.mark.parametrize("build", BUILDS.values(), ids=BUILDS.keys())
def test_collector_left_off_when_caller_disabled_it(build, monkeypatch, collector_off):
    monkeypatch.setattr(spectrum, "_quantum_cache", {})
    build()
    assert not gc.isenabled()


def test_collector_restored_when_build_raises(monkeypatch):
    def nan_walk(n, cos_sq):
        return [math.nan], [bytes((n,))], [1]

    monkeypatch.setattr(spectrum, "_partition_columns", nan_walk)
    assert gc.isenabled()
    with pytest.raises(ValueError, match="intensity must be nonnegative, got nan"):
        quantum_spectrum(40)
    assert gc.isenabled()


def test_builds_make_no_reference_cycles(monkeypatch, collector_off):
    # a build and its dropped report leave no reference cycle: a collection
    # right after either frees nothing
    monkeypatch.setattr(spectrum, "_quantum_cache", {})
    for build in (lambda: quantum_spectrum(15), lambda: quantum_spectrum(38),
                  lambda: classical_spectrum(10_000, 0.5)):
        gc.collect()
        report = build()
        assert gc.collect() == 0
        del report
        assert gc.collect() == 0


# Every entry point that takes a chain size: (function, least n, cap).
SIZED = {
    "count_partitions": (count_partitions, 0, COUNT_CAP),
    "enumerate_partitions": (enumerate_partitions, 1, ENUMERATION_CAP),
    "quantum_spectrum": (quantum_spectrum, 1, ENUMERATION_CAP),
    "brute_force_spectrum": (brute_force_spectrum, 1, BRUTE_FORCE_CAP),
    "classical_spectrum": (classical_spectrum, 1, CLASSICAL_CAP),
}


@pytest.mark.parametrize("name", SIZED)
def test_sizes_checked_alike_at_every_entry_point(name, monkeypatch):
    fn, least, cap = SIZED[name]

    def built(n):
        # enumerate_partitions returns an iterator: compare what it yields
        result = fn(n)
        return repr(list(result) if fn is enumerate_partitions else result)

    # A bool counts as its int, and a result built from True is the one
    # built from 1 (n=1, never n=True), also when the cache keeps it.
    monkeypatch.setattr(spectrum, "_quantum_cache", {})
    from_true = built(True)
    from_one_after_true = built(1)
    monkeypatch.setattr(spectrum, "_quantum_cache", {})
    assert from_true == from_one_after_true == built(1)

    # Non-integers raise at the call, before and after n = 2 is built.
    monkeypatch.setattr(spectrum, "_quantum_cache", {})
    for _ in range(2):
        for bad in (2.0, "2"):
            with pytest.raises(TypeError):
                fn(bad)
        built(2)

    # Out-of-range ints keep their exact messages.
    for bad in (0, -1):
        if bad < least:
            with pytest.raises(ValueError) as below:
                fn(bad)
            assert type(below.value) is ValueError
            assert str(below.value) == f"n must be >= {least}, got {bad}"
    with pytest.raises(CapacityError) as above:
        fn(cap + 1)
    assert str(above.value) == f"{name} supports n <= {cap}, got {cap + 1}"


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


@pytest.mark.parametrize("n", range(1, 13))
def test_brute_force_tree_matches_the_single_configuration_oracle(n):
    # n = 11 and 12 take 2 and 4 blocks, so block edges are crossed
    indices = []
    for block, intensities, keys in spectrum._config_blocks(n):
        assert len(block) == len(intensities) == len(keys)
        for index, intensity, key in zip(block, intensities, keys):
            config = ApparatusConfig.from_index(n, index)
            assert intensity.hex() == simulate_intensity(config).hex(), config
            assert tuple(spectrum._key_parts(n, key)) == tuple(sorted(gaps(config), reverse=True))
        indices.extend(block)
    assert sorted(indices) == list(range(1 << n))


def test_brute_force_keeps_an_oracle_nan(monkeypatch):
    # configuration index 1 is (1, 0, 0, 0): it is not the last configuration
    # of its partition, so a finite intensity of the same partition follows the NaN
    real = spectrum._config_blocks

    def poisoned(n):
        for block, intensities, keys in real(n):
            yield block, [math.nan if i == 1 else x for i, x in zip(block, intensities)], keys

    monkeypatch.setattr(spectrum, "_config_blocks", poisoned)
    with pytest.raises(ValueError, match="intensity must be nonnegative, got nan"):
        brute_force_spectrum(4)


def test_brute_force_at_its_cap_in_bounded_memory():
    for n in (17, 18, BRUTE_FORCE_CAP):
        quantum, brute = quantum_spectrum(n), brute_force_spectrum(n)
        assert reports_match(quantum, brute)
        assert brute.merges == quantum.merges
    tracemalloc.start()
    try:
        brute_force_spectrum(16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20  # one block at a time; the whole tree at once took 8.8 MiB


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


def test_classical_intensities_are_floats_for_an_exact_alpha():
    expected = classical_spectrum(12, 0.5)
    for alpha in (Fraction(1, 2), Decimal("0.5")):
        report = classical_spectrum(12, alpha)
        assert all(type(c.intensity) is float for c in report.classes)
        assert report == expected and repr(report) == repr(expected)
        assert reports_match(report, expected, intensity_tol=0.0)


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


def test_information_series_takes_integers_only():
    # Both sizes pass the size rule first: before the range and cap checks
    # (70.0 is not over the cap, 0.5 not below 1) and before range() does.
    for n_min, n_max in ((1, 2.0), (1, 70.0), (0.5, 3), (1, "2")):
        with pytest.raises(TypeError):
            information_series(n_min, n_max)
    assert information_series(True, 2) == information_series(1, 2)


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
