"""Intensity spectra over all 2^n configurations, and their information content.

The quantum chain sorts configurations into classes labelled by the partition
formed by their gaps; the classical chain only ever resolves how many
elements are installed. Each spectrum carries exact occupation counts, so
entropies are computed from unbounded integers and stay accurate far past
float range (the classical path goes to n = 10,000).

Distinct partitions can share an intensity: products of squared cosines
collide exactly for the first time at n = 15, where 8+4+2+1 and 7+6+1+1
evaluate to the same number. Whether two partitions collide is decided by
exact arithmetic in the cyclotomic integers (module ``_exact``), never by a
float tolerance. Equal intensities are merged into one class and every merge
is reported, so downstream consumers never see two classes an instrument
could not tell apart, and never lose two it could.

A report's ``classes`` is a read-only sequence, not a tuple: it keeps three
columns and makes an ordinary ``IntensityClass`` only when an element is
read. The partition labels are packed 1,024 to a ``bytes`` block (see
``_PackedLabels``), the intensities are one ``array('d')`` of raw doubles,
and the counts a tuple that holds one int object per distinct count, shared
by every class with that count (8,341 distinct among the 1,741,630 classes
of n = 64): about 33 bytes a class in all. It supports ``len``, indexing
(negative indices too), slicing (which gives a tuple), iteration, ``in``,
``index``, ``count`` and ``reversed``; it compares equal to the tuple of its
elements, with that tuple's hash and repr, and pickles.
``tuple(report.classes)`` gives a real tuple. The count check, the
entropy, ``reports_match`` and the CLI read the columns and make no
``IntensityClass``. A report built from a tuple of classes, as by hand,
works as before and compares equal to the columnar one.
"""

from __future__ import annotations

import math
from array import array
from collections import Counter, deque
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import chain, compress, filterfalse, islice, repeat
from operator import add, index, itemgetter, le, mul, sub
from typing import TYPE_CHECKING, Iterable, Iterator

from .apparatus import _cos_sq
from .partitions import (
    _BLOCK,
    COUNT_CAP,
    ENUMERATION_CAP,
    CapacityError,
    Partition,
    _checked_size,
    _partition_columns,
    asymptotic_log2_p,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BRUTE_FORCE_CAP",
    "CLASSICAL_CAP",
    "DEFAULT_ALPHA",
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

#: Largest n for the exhaustive 2^n sweep in brute_force_spectrum (about 1 s at n = 20).
BRUTE_FORCE_CAP = 20

#: Largest n for classical_spectrum; counts stay exact, intensities may
#: underflow to 0.0 which is fine for entropy purposes.
CLASSICAL_CAP = COUNT_CAP

#: Attenuation used for the classical column of information_series. The
#: classical class structure, hence the entropy, is the same for any value
#: in (0, 1); this only fixes the intensities in rendered output.
DEFAULT_ALPHA = 0.5

_SUM_TOL = 1e-9

# Sorted neighbours whose relative gap is at most this are candidates for one
# class; the exact key then decides. Rounding bound for quantum_spectrum's
# floats (u = 2^-53, libm cos within 1 ulp): the angle g*pi/(2n) carries a
# relative error of 3u, which cos turns into 3u * theta * tan(theta) + 2u;
# squaring doubles that and adds u, and the m - 1 multiplies of the product
# add (m - 1)u. With theta * tan(theta) <= (pi/2) g / (n - g), and the sum of
# g / (n - g) over a partition at most n (g -> g / (n - g) is convex and 0 at
# 0, so n-1+1 is the extreme case), every intensity is within
# (3 pi + 6) n u <= 1.1e-13 (n <= 64) of its exact value, relatively. Two equal
# classes therefore land within 2.2e-13 of each other, and so does every row
# sorted between them: all of them fall in one run of adjacent gaps inside
# the window. Measured for n <= 64: equal classes at most 4.9e-16 apart,
# distinct ones at least 4.76e-13.
_MERGE_WINDOW = 1e-10

# Quantum reports are cached only at sizes where they are small: by
# tracemalloc, a cached n = 32 report holds 0.36 MiB, an n = 64 one would hold
# 55.6 MiB: its 1.7 M labels packed in 28.6 MiB, the intensity array and the
# count column's pointers 13.3 MiB each (its 8,341 distinct count objects are
# shared by all its classes). Plain dict: worst case under concurrent use is
# duplicated work, results are identical.
_QUANTUM_CACHE_MAX_N = 32
_quantum_cache: dict[int, "SpectrumReport"] = {}


def _trusted(cls: type, size: int, **columns: Iterable) -> tuple:
    """``size`` instances of the frozen slotted dataclass ``cls``, built
    without ``__init__`` and ``__post_init__``: each column of field values is
    stored through its slot descriptor by one C-level ``map``, so no Python
    frame runs per object. The objects are ordinary instances (same type,
    repr and equality); the caller guarantees what ``__post_init__`` checks.
    """
    objects = tuple(map(object.__new__, repeat(cls, size)))
    for name, values in columns.items():
        deque(map(getattr(cls, name).__set__, objects, values), maxlen=0)
    return objects


def _check_class(intensity: float, count: int, total: int) -> None:
    if not 1 <= count <= total:
        raise ValueError(f"count must lie in 1..{total}, got {count}")
    if not intensity >= 0.0:  # written so that NaN fails it too
        raise ValueError(f"intensity must be nonnegative, got {intensity}")


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
        _check_class(self.intensity, self.count, self.total)

    @property
    def probability(self) -> Fraction:
        """Exact occupation probability, count / 2^n."""
        from fractions import Fraction  # loads decimal and numbers: only when asked
        return Fraction(self.count, self.total)

    @property
    def probability_float(self) -> float:
        return self.count / self.total


def _spelled(parts: Sequence[int]) -> bytes | tuple[int, ...]:
    """A partition label as ``_columns`` reads it off a class: the ``bytes``
    of its parts, or their tuple when a part is 256 or more (only a report
    built by hand, at n >= 256, has one; no packed column can hold it)."""
    return bytes(parts) if parts[0] < 256 else tuple(parts)


# Iteration makes the classes of _BLOCK rows at a time, and a packed label
# column keeps its labels in blocks of _BLOCK: a read splits one block, never
# the whole column.
class _PackedLabels(Sequence):
    """A quantum label column: a tuple of ``bytes`` blocks, each the parts of
    ``_BLOCK`` labels (the last block may hold fewer) joined by ``b"\\0"``
    (no part is 0). A label is read by splitting its block: an index splits
    it from the nearer end up to the label, iteration one block at a time,
    and a slice the blocks it spans (giving a tuple). No label object is
    held. Equal to another packed column with the same labels, and to the
    tuple of its labels.

    Built from any iterable of ``bytes`` labels, read and joined ``_BLOCK``
    at a time.
    """

    __slots__ = ("_size", "_blocks")

    def __init__(self, labels: Iterable[bytes]) -> None:
        labels = iter(labels)
        blocks = iter(lambda: list(islice(labels, _BLOCK)), [])
        blocks = self._blocks = tuple(map(b"\0".join, blocks))
        self._size = (len(blocks) - 1) * _BLOCK + blocks[-1].count(0) + 1 if blocks else 0

    def __len__(self) -> int:
        return self._size

    def __getitem__(self, i: int | slice) -> bytes | tuple[bytes, ...]:
        if isinstance(i, slice):
            picked = range(self._size)[i]
            if not picked:
                return ()
            first = min(picked[0], picked[-1]) // _BLOCK
            last = max(picked[0], picked[-1]) // _BLOCK
            labels = b"\0".join(self._blocks[first:last + 1]).split(b"\0")
            start, stop = picked.start - first * _BLOCK, picked.stop - first * _BLOCK
            # a negative stop (a step down past the first label split) is None in a list slice
            return tuple(labels[start:stop if stop >= 0 else None:picked.step])
        at = range(self._size)[i]  # an int or __index__ object, IndexError when out of range
        block, k = divmod(at, _BLOCK)
        labels = self._blocks[block]
        after = min(self._size - block * _BLOCK, _BLOCK) - 1 - k
        # split from the nearer end of the block (k labels before, after ones
        # after), and only up to the label
        return labels.split(b"\0", k + 1)[k] if k <= after else labels.rsplit(b"\0", after + 1)[1]

    def __iter__(self) -> Iterator[bytes]:
        return chain.from_iterable(map(bytes.split, self._blocks, repeat(b"\0")))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _PackedLabels):
            return self._blocks == other._blocks
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented


class _ClassColumns(Sequence):
    """The ``classes`` of a built report: a read-only sequence over three
    columns, one entry per class. A label is the bytes of the parts of a
    partition of ``n`` (quantum), all of them held in the blocks of one
    ``_PackedLabels``, or an int k (classical), held in a tuple. Bytes sort
    like the parts tuples. The intensities are an ``array('d')``, 8 bytes a
    class, and the counts a tuple sharing one int object per distinct count
    (see ``_count_column``). A pickle holds the labels as a tuple of bytes
    (or of parts tuples, as older versions wrote them), which is packed, and
    the intensities as a tuple, which becomes an array, its counts shared
    the same way.

    An element is an ordinary :class:`IntensityClass` (its label a
    ``Partition`` of a parts tuple for a quantum column), made when it is
    read: an index builds its one class directly, a slice a tuple of them
    by ``_trusted``, and iteration, ``reversed`` and ``index`` read
    ``_BLOCK`` at a time. None of them is kept. Equal to another such
    sequence with the same ``n`` and columns, and to the tuple of its
    elements, whose hash and repr it has.
    """

    __slots__ = ("_n", "_labels", "_intensities", "_counts")

    def __init__(self, n: int, labels: _PackedLabels | tuple,
                 intensities: array | tuple[float, ...], counts: tuple[int, ...]) -> None:
        if type(labels) is tuple and labels and type(labels[0]) is not int:
            labels = _PackedLabels(map(bytes, labels))  # a pickle's bytes or parts tuples
        if type(intensities) is not array:
            intensities = array("d", intensities)
            counts = _count_column(counts, n)[0]
        self._n = n
        self._labels = labels
        self._intensities = intensities
        self._counts = counts

    def _objects(self, labels: tuple, intensities: Sequence[float], counts: tuple) -> tuple:
        if labels and type(labels[0]) is not int:
            labels = _trusted(Partition, len(labels), parts=map(tuple, labels), n=repeat(self._n))
        return _trusted(
            IntensityClass, len(counts), label=labels, intensity=intensities,
            count=counts, total=repeat(1 << self._n),
        )

    def __len__(self) -> int:
        return len(self._counts)

    def __getitem__(self, i: int | slice):
        if isinstance(i, slice):
            return self._objects(self._labels[i], self._intensities[i], self._counts[i])
        label = self._labels[i]  # IndexError when out of range
        if type(label) is not int:
            label = Partition._trusted(tuple(label), self._n)
        return IntensityClass(label, self._intensities[i], self._counts[i], 1 << self._n)

    def __iter__(self) -> Iterator[IntensityClass]:
        size = len(self)
        stops = range(_BLOCK, size + _BLOCK, _BLOCK)
        blocks = map(slice, range(0, size, _BLOCK), stops)
        return chain.from_iterable(map(self.__getitem__, blocks))

    # Sequence's reversed and index read one element a step, which costs a
    # label block's split; these read a block a step.
    def __reversed__(self) -> Iterator[IntensityClass]:
        tops = range(len(self), 0, -_BLOCK)
        return chain.from_iterable(self[max(top - _BLOCK, 0):top][::-1] for top in tops)

    def index(self, value: object, start: int = 0, stop: int | None = None) -> int:
        lo, hi, _ = slice(start, stop).indices(len(self))
        for first in range(lo, hi, _BLOCK):
            block = self[first:min(first + _BLOCK, hi)]
            if value in block:
                return first + block.index(value)
        raise ValueError(f"{value!r} is not in the classes")

    def __eq__(self, other: object) -> bool:
        if isinstance(other, _ClassColumns):
            return (self._n, self._labels, self._intensities, self._counts) == (
                other._n, other._labels, other._intensities, other._counts)
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self) -> tuple:
        # Labels pickle as a tuple of bytes and intensities as a tuple, the
        # format of versions without the packed column and the array: every
        # version loads the pickle, and loading packs the labels, makes the
        # array and shares the counts again (unpickling makes one int object
        # per row).
        return _ClassColumns, (self._n, tuple(self._labels), tuple(self._intensities),
                               self._counts)


def _columns(classes: Sequence[IntensityClass]) -> tuple[Sequence, Sequence[float], tuple]:
    """The label, intensity and count columns of ``classes``, a partition
    label spelled by ``_spelled``: a columnar sequence's own (its partition
    labels packed, its intensities an array), with no object made, or read
    off the objects of any other sequence (as tuples)."""
    if isinstance(classes, _ClassColumns):
        return classes._labels, classes._intensities, classes._counts
    labels = tuple(_spelled(c.label.parts) if isinstance(c.label, Partition) else c.label
                   for c in classes)
    return labels, tuple(c.intensity for c in classes), tuple(c.count for c in classes)


@dataclass(frozen=True, slots=True)
class SpectrumReport:
    """Complete class list for one chain size, plus its information content.

    ``classes`` is sorted by strictly decreasing intensity; the spectrum
    functions make it a read-only sequence (see the module notes), and a
    tuple of classes works as well. ``entropy_bits``
    is the Shannon information of the class occupation probabilities and
    never exceeds ``bound_bits`` (log2(n+1) classically, the sqrt-n partition
    asymptotic on the quantum side). ``merges`` records every absorbed
    partition as ``(kept_label, absorbed)`` pairs.
    """

    n: int
    kind: str
    classes: Sequence[IntensityClass]
    entropy_bits: float
    bound_bits: float
    merges: tuple[tuple[Partition, Partition], ...] = ()

    def __post_init__(self) -> None:
        if self.kind not in ("quantum", "classical"):
            raise ValueError(f"kind must be 'quantum' or 'classical', got {self.kind!r}")
        if sum(_columns(self.classes)[2]) != 1 << self.n:
            raise ValueError("class counts must cover all 2^n configurations exactly")
        if not self.entropy_bits <= math.log2(len(self.classes)) + _SUM_TOL:
            raise ValueError("entropy exceeds log2 of the class count")
        if not self.entropy_bits <= self.bound_bits + _SUM_TOL:
            raise ValueError("entropy exceeds its stated bound")


def entropy(probabilities: Iterable[float]) -> float:
    """Shannon information of a discrete distribution, in bits.

    Zero entries contribute nothing (0 log 0 = 0). Negative or NaN entries,
    or a total off 1 by more than 1e-9, are rejected.
    """
    ps = [float(p) for p in probabilities]
    for p in ps:
        if not p >= 0.0:
            raise ValueError(f"probabilities must be nonnegative, got {p}")
    total = math.fsum(ps)
    if not abs(total - 1.0) <= _SUM_TOL:
        raise ValueError(f"probabilities must sum to 1, got {total!r}")
    # 0.0 - x is -x for every x but 0.0, where plain negation gives -0.0
    return 0.0 - math.fsum(p * math.log2(p) for p in ps if p > 0.0)


def _entropy_terms(counts: Iterable[int], n: int) -> Iterator[float]:
    # Exact-count form of the entropy: p log2(1/p) = (c / 2^n) (n - log2 c).
    # Never materializes 2^-n as a float, so it holds up at n = 10,000.
    total = 1 << n
    return ((c / total) * (n - math.log2(c)) for c in counts)


def _count_column(counts: Sequence[int], n: int) -> tuple[tuple[int, ...], float]:
    """``counts`` as a report's count column, and the entropy of its classes.

    The column holds one int object per distinct count, the first of its
    equals: a class costs a pointer, not an int. Each distinct count's entropy
    term is computed once and ``fsum`` reads it once per class, so it adds the
    same floats a per-class sum adds and gives the same bits.
    """
    distinct: dict[int, int] = {}
    column = tuple(map(distinct.setdefault, counts, counts))
    terms = dict(zip(distinct, _entropy_terms(distinct, n)))
    return column, math.fsum(map(terms.__getitem__, column))


def _mirrored(half: list, n: int) -> list:
    """Entries 0..n of a row symmetric under k -> n - k, from entries 0..n // 2."""
    return half + half[n - len(half)::-1]


def _partition_report(n: int, intensities: Sequence[float], labels: Sequence[bytes],
                      counts: Sequence[int]) -> SpectrumReport:
    """The one place a quantum class list is assembled, from three columns
    with one entry per partition of n: its intensity, its parts as bytes and
    its count, in any order. The columns are read, never changed.

    They are checked (count in 1..2^n, intensity nonnegative and not NaN)
    before any object is built. One stable argsort of the intensities puts
    them brightest first. Only entries within the merge window of a sorted
    neighbour (see ``_MERGE_WINDOW``) can share an intensity; these
    candidates are grouped in one pass by exact value (``_exact.exact_key``),
    so every merge is a proven identity. A group's first (brightest) entry
    takes the group's summed count and the others' counts become 0, and are
    dropped. A merged class keeps its brightest member's float but is
    labelled by the lexicographically smallest member partition, so the
    label never depends on which member's float happens to round higher;
    ``merges`` lists the other members by (-intensity, label).

    The order the columns come in does not change the report: the argsort
    keeps entries of equal float in input order, but for n <= 64 no two
    distinct classes of the walk share a float (the nearest are 4.76e-13
    apart), and a merged class does not depend on the order of its members.

    No ``IntensityClass`` is made: the intensities become one ``array('d')``,
    the counts go through ``_count_column``, which also gives the entropy,
    and the labels are packed a block at a time into one ``_PackedLabels``.
    """
    total = 1 << n
    if not (1 <= min(counts) and max(counts) <= total
            and all(map((0.0).__le__, intensities))):  # NaN fails it too
        deque(map(_check_class, intensities, counts, repeat(total)), maxlen=0)  # raises
    order = sorted(range(len(counts)), key=intensities.__getitem__, reverse=True)
    intensities = list(map(intensities.__getitem__, order))
    labels = list(map(labels.__getitem__, order))
    counts = list(map(counts.__getitem__, order))
    del order  # an int per row: gone before the labels are packed
    # indices i whose intensity lies within the window of i - 1's
    falls = map(sub, intensities, islice(intensities, 1, None))
    windows = map(mul, repeat(_MERGE_WINDOW), intensities)
    near = list(compress(range(1, len(counts)), map(le, falls, windows)))

    merges: list[tuple[Partition, Partition]] = []
    if near:
        # Sizes without near-equal neighbours never load the exact arithmetic.
        from . import _exact

        phi = _exact.cyclotomic(2 * n)
        groups: dict[tuple[int, ...], list[int]] = {}  # exact key -> row indices
        for i in sorted({j - 1 for j in near}.union(near)):
            groups.setdefault(_exact.exact_key(n, labels[i], phi), []).append(i)
        for indices in groups.values():
            if len(indices) > 1:
                members = sorted(indices, key=lambda i: (-intensities[i], labels[i]))
                label = min(map(labels.__getitem__, indices))
                kept = Partition._trusted(tuple(label), n)
                merges.extend((kept, Partition._trusted(tuple(labels[i]), n))
                              for i in members if labels[i] != label)
                labels[indices[0]] = label
                counts[indices[0]] = sum(map(counts.__getitem__, indices))
                for i in indices[1:]:
                    counts[i] = 0
        if merges:
            intensities = list(compress(intensities, counts))
            labels = list(compress(labels, counts))
            counts = list(compress(counts, counts))

    counts, entropy_bits = _count_column(counts, n)
    return SpectrumReport(
        n=n,
        kind="quantum",
        classes=_ClassColumns(n, _PackedLabels(labels), array("d", intensities), counts),
        entropy_bits=entropy_bits,
        bound_bits=asymptotic_log2_p(n),
        merges=tuple(merges),
    )


def quantum_spectrum(n: int) -> SpectrumReport:
    """Detector spectrum of the n-slot chain over all 2^n configurations.

    Walks the partitions of n instead of the configurations: each partition
    contributes one entry to each of three columns, its intensity a product
    of squared cosines carried down the walk's buckets (the factors are the
    table that ``quantum_intensity`` reads), its label and its count, the
    number of configurations with that gap multiset, so the cost is p(n),
    not 2^n. Partitions of exactly equal intensity are merged into one class,
    each merge proven by exact arithmetic (see the module notes on
    collisions).
    """
    n = _checked_size(n, 1, ENUMERATION_CAP, "quantum_spectrum")
    cached = _quantum_cache.get(n)
    if cached is not None:
        return cached

    report = _partition_report(n, *_partition_columns(n, _cos_sq(n)))
    if n <= _QUANTUM_CACHE_MAX_N:
        _quantum_cache[n] = report
    return report


# Blocks are grown over the last <= 10 slots: at most 2^10 configurations at any n.
_BLOCK_SLOTS = 10


def _config_blocks(n: int) -> Iterator[tuple[range, list[float], list[int]]]:
    """All 2^n configurations, a block at a time: ``(indices, intensities, keys)``.

    Walks the binary tree of slot choices: each slot rotates the block with
    the float operations of :func:`simulate_intensity`, in its order, then
    doubles it (slot empty, then installed: bit slot - 1 of the index). A key
    adds (n + 1)^(g - 1) per gap g of :func:`gaps`, so it never carries;
    ``pending`` is the weight of the gap a polarizer in the next slot would
    close, which an empty last slot leaves to the detector.
    """
    step = math.pi / (2.0 * n)
    c, s = math.cos(step), math.sin(step)

    def grow(h, v, keys, pending, slots):
        for slot in slots:
            rh = list(map(sub, map(mul, h, repeat(c)), map(mul, v, repeat(s))))
            if slot < n:
                v = list(map(add, map(mul, h, repeat(s)), map(mul, v, repeat(c)))) + [0.0] * len(h)
                keys = keys + list(map(add, keys, pending))
                pending = list(map(mul, pending, repeat(n + 1))) + [1] * len(h)
            else:
                keys = list(map(add, keys, pending)) * 2
            h = rh + rh
        return h, v, keys, pending

    head = max(n - _BLOCK_SLOTS, 0)
    for first, state in enumerate(zip(*grow([1.0], [0.0], [0], [1], range(1, head + 1)))):
        h, _, keys, _ = grow(*([column] for column in state), range(head + 1, n + 1))
        yield range(first, 1 << n, 1 << head), list(map(mul, h, h)), keys


def _key_parts(n: int, key: int) -> bytes:
    """The gap multiset of a :func:`_config_blocks` key, as the bytes of its descending parts."""
    return bytes(g for g in range(n, 0, -1) for _ in range(key // (n + 1) ** (g - 1) % (n + 1)))


def brute_force_spectrum(n: int) -> SpectrumReport:
    """The same spectrum assembled the expensive way: simulate all 2^n
    configurations and bucket the measured intensities.

    Shares no intensity formula and no partition walk with
    :func:`quantum_spectrum`: each configuration is simulated stepwise, a
    block at a time over the tree of slot choices (:func:`_config_blocks`; a
    test pins every intensity bit for bit to :func:`simulate_intensity` and
    every label to :func:`gaps`). Only the exact merge rule is shared, on
    purpose: the 2^n results become one entry per partition (brightest float,
    label, configuration count) in three columns, assembled like the fast
    path's, so the two must agree class for class. The oracle's floats stay
    within a relative 3e-15 of the fast path's (measured to n = 16), far
    inside the merge window.
    """
    n = _checked_size(n, 1, BRUTE_FORCE_CAP, "brute_force_spectrum")
    counts: Counter[int] = Counter()
    brightest: dict[int, float] = {}
    for _, intensities, keys in _config_blocks(n):
        for bad in filterfalse((0.0).__le__, intensities):  # negative or NaN
            _check_class(bad, 1, 1 << n)  # raises
        counts.update(keys)
        # dimmest first, so each key keeps its brightest float
        block = dict(sorted(zip(keys, intensities), key=itemgetter(1)))
        for key, intensity in block.items():
            if intensity > brightest.get(key, 0.0):
                brightest[key] = intensity
    keys = list(counts)
    return _partition_report(n, list(map(brightest.get, keys, repeat(0.0))),
                             list(map(_key_parts, repeat(n), keys)), list(counts.values()))


def classical_spectrum(n: int, alpha: float = DEFAULT_ALPHA) -> SpectrumReport:
    """Spectrum of the rotator-free chain, where each installed element
    scales the intensity by ``alpha``.

    Class k collects the C(n, k) configurations with k elements installed at
    intensity alpha^k: position information is invisible, so only n + 1
    classes exist and the entropy is capped by log2(n + 1).
    """
    n = _checked_size(n, 1, CLASSICAL_CAP, "classical_spectrum")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    alpha = float(alpha)  # a Fraction or Decimal alpha still gives float intensities
    half = [1]  # C(n, k) for k <= n // 2, advanced incrementally along Pascal's row
    for k in range(n // 2):
        half.append(half[-1] * (n - k) // (k + 1))
    # C(n, k) = C(n, n - k), and so are the entropy terms; fsum is exactly
    # rounded, so mirrored terms give the bits of the full row's terms. The
    # mirrored row holds one int object per distinct count, as _count_column's
    # does, without hashing counts of up to n bits.
    binomials = tuple(_mirrored(half, n))
    intensities = array("d", [alpha ** k for k in range(n + 1)])
    # alpha in (0, 1) and every C(n, k) >= 1: valid by construction
    return SpectrumReport(
        n=n,
        kind="classical",
        classes=_ClassColumns(n, tuple(range(n + 1)), intensities, binomials),
        entropy_bits=math.fsum(_mirrored(list(_entropy_terms(half, n)), n)),
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
    partition spectrum is still too coarse to win. Both sizes are integers
    (``operator.index``, as for every size): 2.0 and "2" raise TypeError.
    """
    n_min, n_max = index(n_min), index(n_max)
    if n_min < 1:
        raise ValueError(f"n_min must be >= 1, got {n_min}")
    if n_max < n_min:
        raise ValueError(f"n_max must be >= n_min, got {n_min}..{n_max}")
    if n_max > ENUMERATION_CAP:
        # fail before any spectrum is built, not midway through the sweep
        raise CapacityError(f"information_series supports n <= {ENUMERATION_CAP}, got {n_max}")
    points = []
    for n in range(n_min, n_max + 1):
        classical = classical_spectrum(n, DEFAULT_ALPHA)
        quantum = quantum_spectrum(n)
        points.append(
            InformationPoint(
                n=n,
                classical_bits=classical.entropy_bits,
                quantum_bits=quantum.entropy_bits,
                classical_bound_bits=classical.bound_bits,
                quantum_bound_bits=quantum.bound_bits,
                quantum_classical_ratio=quantum.entropy_bits / classical.entropy_bits,
            )
        )
    return tuple(points)


def reports_match(
    a: SpectrumReport, b: SpectrumReport, intensity_tol: float = 1e-12
) -> bool:
    """True when two reports resolve the same classes: equal labels and
    counts position by position, intensities within ``intensity_tol``.
    A NaN intensity or tolerance never matches."""
    if a.n != b.n or len(a.classes) != len(b.classes):
        return False
    labels_a, intensities_a, counts_a = _columns(a.classes)
    labels_b, intensities_b, counts_b = _columns(b.classes)
    if labels_a != labels_b or counts_a != counts_b:
        return False
    return all(abs(x - y) <= intensity_tol for x, y in zip(intensities_a, intensities_b))
