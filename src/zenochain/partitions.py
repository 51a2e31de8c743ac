"""Integer partition machinery.

Exact partition counts, canonical enumeration, and the number of apparatus
configurations realizing each partition. Everything here is exact integer
arithmetic; the only floats are the asymptotic bit estimate and the product
of per-part weights that the weighted walk, ``_partition_columns``, carries
down buckets of partial partitions a bucket at a time. Enumeration is a
separate walk over parts only: a flat loop over a stack of distinct parts.

All functions are pure and safe to call concurrently; the count cache is
guarded by a lock and enumeration order is deterministic.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from dataclasses import dataclass, field
from itertools import repeat, tee
from operator import add, floordiv, mul
from typing import Iterator, Sequence

__all__ = [
    "ASYMPTOTIC_BITS_PER_SQRT_N",
    "COUNT_CAP",
    "ENUMERATION_CAP",
    "CapacityError",
    "Partition",
    "asymptotic_log2_p",
    "count_partitions",
    "enumerate_partitions",
    "state_count",
]

#: Largest n accepted by count_partitions. Desk-scale: the memo table up to
#: here holds ~10^4 integers of ~100 digits.
COUNT_CAP = 10_000

#: Largest n accepted by enumerate_partitions; p(64) = 1,741,630 partitions.
ENUMERATION_CAP = 64

#: Coefficient of sqrt(n) in the large-n growth of log2 p(n):
#: pi * sqrt(2/3) * log2(e), about 3.7007.
ASYMPTOTIC_BITS_PER_SQRT_N = math.pi * math.sqrt(2.0 / 3.0) / math.log(2.0)


# m! and 2 m! for every m up to ENUMERATION_CAP, and the bytes of every
# part: the tables the partition walks read.
_FACTORIALS = [math.factorial(i) for i in range(ENUMERATION_CAP + 1)]
_TWICE_FACTORIALS = [2 * f for f in _FACTORIALS]
_BYTES = [bytes((value,)) for value in range(ENUMERATION_CAP + 1)]

# Every block-at-a-time pass, here and in spectrum and cli, takes this many
# rows a step. The column walk updates its product column in place this many
# at a time, so the column is never held twice.
_BLOCK = 1024


class CapacityError(ValueError):
    """An argument exceeded a documented operational cap."""


def _checked_size(n: int, least: int, cap: int, name: str) -> int:
    """The size rule of every partition and spectrum entry point ``name``:
    ``n`` is an integer (``operator.index``: a bool counts as its int, while
    2.0 and "2" raise TypeError), at least ``least`` and at most ``cap``.
    Returns ``n`` as an int."""
    n = operator.index(n)
    if n < least:
        raise ValueError(f"n must be >= {least}, got {n}")
    if n > cap:
        raise CapacityError(f"{name} supports n <= {cap}, got {n}")
    return n


@dataclass(frozen=True, slots=True)
class Partition:
    """Multiset of positive integers summing to ``n``, stored non-increasing."""

    parts: tuple[int, ...]
    n: int = field(init=False)

    def __post_init__(self) -> None:
        # operator.index takes integers only (1.5, 2.0 and "2" raise) and
        # turns a bool into 0 or 1, as ApparatusConfig does with its bits.
        try:
            parts = tuple(map(operator.index, self.parts))
        except TypeError:
            raise ValueError(f"parts must be integers, got {self.parts!r}") from None
        object.__setattr__(self, "parts", parts)
        if not parts:
            raise ValueError("a partition needs at least one part")
        if parts[-1] < 1:
            raise ValueError(f"parts must be positive, got {parts}")
        for prev, cur in zip(parts, parts[1:]):
            if cur > prev:
                raise ValueError(f"parts must be non-increasing, got {parts}")
        object.__setattr__(self, "n", sum(parts))

    @classmethod
    def _trusted(cls, parts: tuple[int, ...], n: int) -> "Partition":
        # Enumeration fast path; the caller guarantees the invariants.
        self = object.__new__(cls)
        object.__setattr__(self, "parts", parts)
        object.__setattr__(self, "n", n)
        return self

    def __str__(self) -> str:
        return "+".join(map(str, self.parts))

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)


_count_cache = [1]  # p(0)
_count_lock = threading.Lock()


def count_partitions(n: int) -> int:
    """Exact number of partitions of ``n``; ``p(0) == 1``.

    Euler's pentagonal-number recurrence over a shared memo table, so a
    sweep over 1..n costs no more than the single largest call.
    """
    n = _checked_size(n, 0, COUNT_CAP, "count_partitions")
    if n < len(_count_cache):
        return _count_cache[n]
    with _count_lock:
        while len(_count_cache) <= n:
            m = len(_count_cache)
            total = 0
            k = 1
            while True:
                g = k * (3 * k - 1) // 2
                if g > m:
                    break
                term = _count_cache[m - g]
                g += k  # second pentagonal number of index k
                if g <= m:
                    term += _count_cache[m - g]
                total = total - term if k % 2 == 0 else total + term
                k += 1
            _count_cache.append(total)
    return _count_cache[n]


def _partition_columns(
    n: int, weights: Sequence[float]
) -> tuple[list[float], list[bytes], list[int]]:
    """Three columns with one entry per partition of ``n`` (at most
    ENUMERATION_CAP): products, labels and counts, in bucket order, which is
    not a sort order.

    A label is the ``bytes`` of the non-increasing parts: every part of
    n <= ENUMERATION_CAP fits in a byte, and bytes sort like the tuple of
    their values. A count is the state count, 2 m! / prod(multiplicity_j!)
    over the m parts; the column holds one int object per distinct count. A
    product is the product of ``weights[g]`` over the parts g, one multiply
    per part in the order of the parts, so it has the same bits as
    ``1.0 * weights[parts[0]] * weights[parts[1]] * ...`` evaluated left to
    right.

    Partial partitions wait in buckets by the sum r still to fill, each
    bucket three lists: products, labels and the products of the
    multiplicities' factorials. For each value v from n down to 2, each
    bucket r >= v, in ascending order, sends its children with k = 1, 2, ...
    copies of v to bucket r - k v. That bucket was taken at this v already,
    so no partial gets a second run of v. A child column is one C-level map
    over the whole parent bucket, the k-th copy's products made from the
    (k - 1)-th's. Only buckets that hold something are taken, and bucket n
    holds the empty partial alone, whose children are appended one by one.
    Last, each bucket's rest is filled with ones.
    """
    products = list(map(list, repeat((), n + 1)))
    labels = list(map(list, repeat((), n + 1)))
    denoms = list(map(list, repeat((), n + 1)))
    products[n], labels[n], denoms[n] = [1.0], [b""], [1]
    for value in range(n, 1, -1):
        weight, byte = weights[value], _BYTES[value]
        # bucket r < n holds partials once their parts, all above value, can
        # sum to n - r: once n - r > value
        for rest in range(value, n - value):
            product, label, denom = products[rest], labels[rest], denoms[rest]
            for k in range(1, rest // value + 1):
                product = list(map(mul, product, repeat(weight)))
                to = rest - k * value
                products[to] += product
                labels[to] += map(add, label, repeat(byte * k))
                denoms[to] += denom if k == 1 else map(mul, denom, repeat(_FACTORIALS[k]))
        # bucket n holds the empty partial alone: its children, one apiece
        product = 1.0
        for k in range(1, n // value + 1):
            product *= weight
            products[n - k * value].append(product)
            labels[n - k * value].append(byte * k)
            denoms[n - k * value].append(_FACTORIALS[k])
    # The ones, bucket n first. The product column carries every bucket taken
    # so far; before bucket r joins, each carried product takes one more
    # multiply by weights[1], so bucket r's take r, one map a step for all of
    # them. The column is multiplied in place a block at a time, never held
    # twice. A bucket's counts are shared as they are made, and the bucket is
    # freed once read.
    one = weights[1]
    column_products: list[float] = []
    column_labels: list[bytes] = []
    column_counts: list[int] = []
    distinct: dict[int, int] = {}
    for rest in range(n, -1, -1):
        for at in range(0, len(column_products), _BLOCK):
            column_products[at:at + _BLOCK] = map(mul, column_products[at:at + _BLOCK],
                                                  repeat(one))
        label, denom = labels[rest], denoms[rest]
        column_products += products[rest]
        products[rest] = labels[rest] = denoms[rest] = None
        # count = 2 m! / (denominator r!) over the m = len(label) + r parts
        counts = map(floordiv, map(_TWICE_FACTORIALS[rest:].__getitem__, map(len, label)),
                     map(mul, denom, repeat(_FACTORIALS[rest])))
        column_labels += map(add, label, repeat(_BYTES[1] * rest))
        column_counts += map(distinct.setdefault, *tee(counts))
    return column_products, column_labels, column_counts


def _partition_labels(n: int) -> Iterator[bytes]:
    """The labels of the partitions of ``n`` (the ``bytes`` of their
    non-increasing parts), one at a time, reverse-lexicographically: ``(n,)``
    first, all ones last.

    One loop over a stack of levels, one per distinct part above 1, largest
    first; each level keeps its value, multiplicity and the label before it,
    so the next partition rebuilds nothing above the level it changes. The
    ones are never a level: each leaf appends what is left of ``n``.
    """
    byte = _BYTES
    levels = []
    parts = b""
    value = rest = n
    while True:
        # Fill: the largest parts <= value that fit into rest, ones excepted.
        while rest > 1 and value > 1:
            value = min(value, rest)
            mult, rest = divmod(rest, value)
            levels.append((value, mult, parts))
            parts += byte[value] * mult
            value -= 1
        yield parts + byte[1] * rest
        if not levels:
            return
        # Next partition: one copy of the last level's value joins the ones.
        value, mult, parts = levels.pop()
        rest += value
        if mult > 1:
            mult -= 1
            levels.append((value, mult, parts))
            parts += byte[value] * mult
        value -= 1


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of ``n`` exactly once, reverse-lexicographically.

    The first partition is ``(n,)`` and the last is ``n`` ones; the total
    number of items equals ``count_partitions(n)``.
    """
    n = _checked_size(n, 1, ENUMERATION_CAP, "enumerate_partitions")
    return (Partition._trusted(tuple(parts), n) for parts in _partition_labels(n))


def state_count(partition: Partition) -> int:
    """Number of apparatus configurations whose gap structure is ``partition``.

    Each ordering of the parts is realized by exactly two configurations
    (the last slot's polarizer is redundant), hence twice the multinomial
    m! / prod(multiplicity_j!) over the part multiplicities.
    """
    count = 2 * math.factorial(len(partition.parts))
    for _, run in itertools.groupby(partition.parts):
        count //= math.factorial(sum(1 for _ in run))
    return count


def asymptotic_log2_p(n: int) -> float:
    """Leading-order estimate of ``log2 count_partitions(n)`` in bits.

    Evaluates ``sqrt(n) * pi * sqrt(2/3) * log2(e)``, about ``3.7007 sqrt(n)``.
    An overestimate at finite n: the true ``log2 p(n)`` stays strictly below
    it for every n tested (the subexponential prefactor of p(n) is < 1).
    ``n`` is an integer, as for every size (``operator.index``).
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    return ASYMPTOTIC_BITS_PER_SQRT_N * math.sqrt(n)
