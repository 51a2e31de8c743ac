import math
import random
import tracemalloc
from collections import deque

import pytest
from sympy.functions.combinatorial.numbers import partition as sympy_partition

from zenochain.partitions import (
    ASYMPTOTIC_BITS_PER_SQRT_N,
    COUNT_CAP,
    ENUMERATION_CAP,
    CapacityError,
    Partition,
    _partition_columns,
    _partition_labels,
    asymptotic_log2_p,
    count_partitions,
    enumerate_partitions,
    state_count,
)

FIRST_TEN = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42)


def test_first_ten_counts():
    assert tuple(count_partitions(n) for n in range(1, 11)) == FIRST_TEN


def test_count_zero():
    assert count_partitions(0) == 1


def test_count_100():
    assert count_partitions(100) == 190_569_292


@pytest.mark.parametrize("n", [5, 50, 317, 1000, 2000])
def test_counts_against_sympy(n):
    # sympy uses the Hardy-Ramanujan-Rademacher series, a genuinely
    # different algorithm from the pentagonal recurrence here.
    assert count_partitions(n) == int(sympy_partition(n))


def test_count_at_cap_matches_sympy():
    assert count_partitions(COUNT_CAP) == int(sympy_partition(COUNT_CAP))


def test_counts_strictly_increasing():
    values = [count_partitions(n) for n in range(1, 201)]
    assert all(b > a for a, b in zip(values, values[1:]))


def test_count_rejects_negative():
    with pytest.raises(ValueError):
        count_partitions(-1)


def test_count_cap_enforced():
    with pytest.raises(CapacityError):
        count_partitions(COUNT_CAP + 1)


def test_enumeration_cap_enforced():
    with pytest.raises(CapacityError):
        list(enumerate_partitions(ENUMERATION_CAP + 1))


def test_enumerate_rejects_zero():
    with pytest.raises(ValueError):
        list(enumerate_partitions(0))


def test_enumerate_n3_order():
    assert [p.parts for p in enumerate_partitions(3)] == [(3,), (2, 1), (1, 1, 1)]


def test_enumerate_n6_order():
    expected = [
        (6,),
        (5, 1),
        (4, 2),
        (4, 1, 1),
        (3, 3),
        (3, 2, 1),
        (3, 1, 1, 1),
        (2, 2, 2),
        (2, 2, 1, 1),
        (2, 1, 1, 1, 1),
        (1, 1, 1, 1, 1, 1),
    ]
    assert [p.parts for p in enumerate_partitions(6)] == expected


@pytest.mark.parametrize("n", [1, 2, 7, 13, 25, 40])
def test_enumerate_complete_and_distinct(n):
    seen = set()
    previous = None
    for partition in enumerate_partitions(n):
        assert partition.n == n
        assert sum(partition.parts) == n
        assert all(
            a >= b for a, b in zip(partition.parts, partition.parts[1:])
        )
        assert partition.parts not in seen
        seen.add(partition.parts)
        if previous is not None:
            assert partition.parts < previous  # reverse-lexicographic
        previous = partition.parts
    assert len(seen) == count_partitions(n)


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(())
    with pytest.raises(ValueError):
        Partition((1, 2))  # increasing
    with pytest.raises(ValueError):
        Partition((3, 0))
    with pytest.raises(ValueError):
        Partition((2, -1))
    for parts in ((1.5,), (2.0, 1.0), ("2", "1")):
        with pytest.raises(ValueError, match="parts must be integers"):
            Partition(parts)


def test_partition_basics():
    p = Partition((3, 1, 1))
    assert p.n == 5
    assert str(p) == "3+1+1"
    assert len(p) == 3
    assert list(p) == [3, 1, 1]
    assert p == Partition((3, 1, 1))
    assert p != Partition((3, 2))
    ones = Partition((True, True))
    assert ones.parts == (1, 1) and type(ones.parts[0]) is int
    assert ones.n == 2 and type(ones.n) is int
    assert str(ones) == "1+1"


def test_partition_normalizes_list_input():
    assert Partition([2, 1]).parts == (2, 1)


@pytest.mark.parametrize(
    "parts,expected",
    [
        ((1,), 2),
        ((3,), 2),
        ((2, 1), 4),
        ((1, 1, 1), 2),
        ((2, 2, 1, 1), 12),  # 2 * 4!/(2! 2!)
        ((5, 3, 3, 2, 1, 1), 2 * 720 // (2 * 2)),
    ],
)
def test_state_count_examples(parts, expected):
    assert state_count(Partition(parts)) == expected


@pytest.mark.parametrize("n", range(1, 21))
def test_state_counts_cover_all_configurations(n):
    assert sum(state_count(p) for p in enumerate_partitions(n)) == 2 ** n


def _ones(n):
    return [1.0] * (n + 1)


def _cos_sq(n):
    # the per-part factors quantum_spectrum walks with
    weights = [0.0] * (n + 1)
    for g in range(1, n):
        c = math.cos(g * math.pi / (2.0 * n))
        weights[g] = c * c
    return weights


@pytest.mark.parametrize("n", range(1, 16))
def test_profiles_agree_with_state_count(n):
    # the walker divides by the multiplicities' factorials carried down each
    # bucket; state_count recomputes the multinomial from scratch
    _, labels, counts = _partition_columns(n, _ones(n))
    assert len(labels) == len(counts) == count_partitions(n)
    for parts, count in zip(labels, counts):
        assert count == state_count(Partition(parts))


def test_profiles_random_spot_checks():
    rng = random.Random(20260817)
    for _ in range(50):
        n = rng.randint(20, 36)
        profiles = list(zip(*_partition_columns(n, _ones(n))))
        assert len(profiles) == count_partitions(n)
        _, parts, count = profiles[rng.randrange(len(profiles))]
        assert count == state_count(Partition(parts))


@pytest.mark.parametrize("n", [*range(1, 31), 45])
def test_profiles_prefix_product_is_bit_exact(n):
    # the walk carries the product down each bucket; it must have the bits
    # of the product taken over each partition's parts from scratch, for the
    # weights quantum_spectrum uses and for arbitrary ones
    rng = random.Random(n)
    for weights in (_cos_sq(n), [rng.uniform(0.1, 3.0) for _ in range(n + 1)]):
        seen = 0
        for product, parts, _ in zip(*_partition_columns(n, weights)):
            expected = 1.0
            for g in parts:
                expected *= weights[g]
            assert product == expected, parts
            seen += 1
        assert seen == count_partitions(n)


@pytest.mark.parametrize("n", [*range(1, 31), 45])
def test_column_walk_labels_are_the_partitions(n):
    # the bucket walk and the depth-first walk share no code: the labels of
    # the one are those of the other, each partition exactly once
    labels = _partition_columns(n, _ones(n))[1]
    assert len(labels) == count_partitions(n)
    assert set(labels) == {bytes(p.parts) for p in enumerate_partitions(n)}


def test_column_walk_shares_one_int_per_count():
    # counts are shared as they are made, so the column holds one int object
    # per distinct count (980 among the 26,015 partitions of 38)
    counts = _partition_columns(38, _cos_sq(38))[2]
    assert len(counts) == count_partitions(38)
    assert len(set(map(id, counts))) == len(set(counts)) == 980


def test_profiles_walk_is_lazy():
    # the depth-first walk yields one label at a time: draining its 204,226
    # labels at n = 50 must never hold them all at once, as a list of them
    # would (10.8 MiB)
    tracemalloc.start()
    try:
        deque(_partition_labels(50), maxlen=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1 << 20, peak


def test_asymptotic_constant():
    assert math.isclose(ASYMPTOTIC_BITS_PER_SQRT_N, 3.7007, rel_tol=0, abs_tol=5e-4)


def test_asymptotic_rejects_zero():
    with pytest.raises(ValueError):
        asymptotic_log2_p(0)


def test_asymptotic_takes_integers_only():
    # the size rule of every entry point: a bool counts as its int
    for bad in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            asymptotic_log2_p(bad)
    assert asymptotic_log2_p(True) == asymptotic_log2_p(1)


@pytest.mark.parametrize("n", [1, 4, 100])
def test_asymptotic_values(n):
    assert asymptotic_log2_p(n) == pytest.approx(
        ASYMPTOTIC_BITS_PER_SQRT_N * math.sqrt(n)
    )


def test_log2_count_stays_below_asymptotic():
    # the estimate is an overbound at every finite size checked
    for n in range(1, 201):
        exact_bits = math.log2(count_partitions(n))
        assert exact_bits <= asymptotic_log2_p(n)
        assert exact_bits <= 3.7007 * math.sqrt(n)


def test_log2_count_approaches_asymptotic_slowly():
    # at n = 100 the exact value is ~27.5 bits against the ~37.0 estimate;
    # the gap closes only logarithmically
    exact_bits = math.log2(count_partitions(100))
    assert exact_bits == pytest.approx(27.506, abs=1e-3)
    assert asymptotic_log2_p(100) == pytest.approx(37.007, abs=1e-2)
