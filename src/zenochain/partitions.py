"""Integer partition machinery.

Exact partition counts, canonical enumeration, and the number of apparatus
configurations realizing each partition. Everything here is exact integer
arithmetic; the only floats are the asymptotic bit estimate and the product
of per-part weights that the one partition walk, a flat loop over a stack of
distinct parts, keeps as a prefix product for its callers.

All functions are pure and safe to call concurrently; the count cache is
guarded by a lock and enumeration order is deterministic.
"""

from __future__ import annotations

import itertools
import math
import operator
import threading
from dataclasses import dataclass, field
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


def _partition_profiles(
    n: int, weights: Sequence[float]
) -> Iterator[tuple[float, bytes, int]]:
    """Yield ``(product, parts, count)`` for every partition of ``n``.

    ``parts`` is the ``bytes`` of the non-increasing parts: every part of
    n <= ENUMERATION_CAP fits in a byte, and bytes sort like the tuple of
    their values. The sequence is reverse-lexicographic: ``(n,)`` first, all
    ones last. ``count`` is the state count,
    2 m! / prod(multiplicity_j!) over the m parts. ``product`` is the product
    of ``weights[g]`` over the parts g, one multiply per part in the order of
    the parts, so it has the same bits as
    ``1.0 * weights[parts[0]] * weights[parts[1]] * ...`` evaluated left to
    right.

    One loop over a stack of levels, one per distinct part above 1, largest
    first. Each level keeps the products of its prefix times 1, 2, ... copies
    of its weight and the state of the levels before it, so the next
    partition recomputes nothing above the level it changes. The ones are
    never a level: each leaf multiplies in what is left of ``n``.
    """
    fact = [math.factorial(i) for i in range(n + 1)]
    twice_fact = [2 * f for f in fact]
    byte = [bytes((value,)) for value in range(n + 1)]
    one = weights[1]
    levels = []
    product, parts, m, denom = 1.0, b"", 0, 1
    value = rest = n
    while True:
        # Fill: the largest parts <= value that fit into rest, ones excepted.
        while rest > 1 and value > 1:
            value = min(value, rest)
            mult, rest = divmod(rest, value)
            weight = weights[value]
            products = []  # [k - 1]: the prefix's product times k copies of weight
            running = product
            for _ in range(mult):
                running *= weight
                products.append(running)
            levels.append((value, mult, products, product, parts, m, denom))
            product = running
            parts += byte[value] * mult
            m += mult
            denom *= fact[mult]
            value -= 1
        for _ in range(rest):
            product *= one
        yield product, parts + byte[1] * rest, twice_fact[m + rest] // (denom * fact[rest])
        if not levels:
            return
        # Next partition: one copy of the last level's value joins the ones.
        value, mult, products, product, parts, m, denom = levels.pop()
        rest += value
        if mult > 1:
            mult -= 1
            levels.append((value, mult, products, product, parts, m, denom))
            product = products[mult - 1]
            parts += byte[value] * mult
            m += mult
            denom *= fact[mult]
        value -= 1


def enumerate_partitions(n: int) -> Iterator[Partition]:
    """All partitions of ``n`` exactly once, reverse-lexicographically.

    The first partition is ``(n,)`` and the last is ``n`` ones; the total
    number of items equals ``count_partitions(n)``.
    """
    n = _checked_size(n, 1, ENUMERATION_CAP, "enumerate_partitions")
    ones = [1.0] * (n + 1)
    return (Partition._trusted(tuple(parts), n) for _, parts, _ in _partition_profiles(n, ones))


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
