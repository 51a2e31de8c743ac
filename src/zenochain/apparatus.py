"""Single-configuration optics for the polarizer chain.

A chain of n slots sits between a horizontally polarized source and a
horizontally analyzing detector. Ahead of each slot the polarization is
rotated by pi/2n; a slot may hold a horizontal polarizer that projects the
state back. The transmitted intensity depends only on the multiset of
distances between consecutive analyzing events, which this module extracts
and evaluates two independent ways: a closed-form product over gaps and a
step-by-step amplitude simulation.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import lru_cache

from .partitions import ENUMERATION_CAP

__all__ = [
    "ApparatusConfig",
    "classical_intensity",
    "gaps",
    "quantum_intensity",
    "simulate_intensity",
    "zeno_survival",
]

# Maps the digits of a binary string to the bit values, byte for byte.
_BITS = bytes.maketrans(b"01", b"\x00\x01")


@dataclass(frozen=True, slots=True)
class ApparatusConfig:
    """Occupancy of the n polarizer slots; slot i is ``present[i - 1]``."""

    n: int
    present: tuple[int, ...]

    def __post_init__(self) -> None:
        # n as in from_index: an integer, a bool stored as its int
        object.__setattr__(self, "n", operator.index(self.n))
        if self.n < 1:
            raise ValueError(f"n must be >= 1, got {self.n}")
        if len(self.present) != self.n:
            raise ValueError(f"need {self.n} presence bits, got {len(self.present)}")
        # Checked before converting, so 0.5 or "1" is rejected, not truncated
        # or parsed; bools pass because they equal 0 and 1. Each bit is
        # compared, never hashed, so an unhashable bit is a ValueError too.
        if not all(map((0, 1).__contains__, self.present)):
            raise ValueError(f"presence bits must be 0 or 1, got {self.present}")
        object.__setattr__(self, "present", tuple(map(int, self.present)))

    @classmethod
    def from_bits(cls, bits: str) -> "ApparatusConfig":
        """Parse a slot string read left to right, e.g. ``"010"`` = slot 2 only.

        Only the ASCII digits 0 and 1 are bits: any other character (a
        space, an underscore, a non-ASCII digit) raises ``ValueError``.
        """
        if bits.strip("01"):  # non-empty exactly when some character is no bit
            raise ValueError(f"presence bits must be 0 or 1, got {bits!r}")
        return cls(len(bits), tuple(bits.encode().translate(_BITS)))

    @classmethod
    def from_index(cls, n: int, index: int) -> "ApparatusConfig":
        """Configuration whose slot i holds a polarizer iff bit i-1 of ``index`` is set.

        Only ``n`` and ``index`` are checked. The bits are the binary digits
        of ``index | 1 << n`` below its leading 1, read backwards and turned
        into ints 0 and 1 at C level; both fields are stored through the slot
        descriptors, without ``__init__`` or ``__post_init__``.
        """
        n = operator.index(n)
        index = operator.index(index)
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if not 0 <= index < (1 << n):
            raise ValueError(f"index must lie in [0, 2^{n}), got {index}")
        config = object.__new__(cls)
        _set_n(config, n)
        _set_present(config, tuple(bin(index | 1 << n)[:2:-1].encode().translate(_BITS)))
        return config

    @property
    def installed(self) -> int:
        """Number of polarizers present."""
        return sum(self.present)

    def bits(self) -> str:
        """Slot string read left to right; inverse of :meth:`from_bits`."""
        return "".join(map(str, self.present))


# The slot descriptors' setters, bound once: they store a field of a frozen
# instance without going through its __setattr__.
_set_n = ApparatusConfig.n.__set__
_set_present = ApparatusConfig.present.__set__


def gaps(config: ApparatusConfig) -> tuple[int, ...]:
    """Distances from the source to each analyzing event, in beam order.

    Analyzing events are the installed polarizers plus the detector, which
    analyzes horizontally itself. A polarizer in the last slot makes the
    detector's projection redundant, so no zero-length gap is emitted; with
    nothing installed the result is the single gap ``(n,)``. The gaps are
    positive and sum to n.
    """
    parts = []
    last = 0
    for slot, installed in enumerate(config.present, 1):
        if installed:
            parts.append(slot - last)
            last = slot
    if last < config.n:
        parts.append(config.n - last)
    return tuple(parts)


def _cos_sq_entry(n: int, g: int) -> float:
    """``cos^2(g pi/2n)``, exactly 0.0 for g = 0 and g = n.

    Gap 0 never occurs; gap n delivers the beam fully vertical.
    """
    if g == 0 or g == n:
        return 0.0
    c = math.cos(g * math.pi / (2.0 * n))
    return c * c


@lru_cache(maxsize=128)
def _cos_sq(n: int) -> tuple[float, ...]:
    """The table of :func:`_cos_sq_entry` for g = 0..n. The last 128 sizes
    asked for are kept; the package asks only for n <= ``ENUMERATION_CAP``."""
    return tuple(_cos_sq_entry(n, g) for g in range(n + 1))


def quantum_intensity(config: ApparatusConfig) -> float:
    """Transmitted intensity by the gap-product rule: prod of cos^2(g pi/2n).

    Up to n = ``ENUMERATION_CAP`` (64), every spectrum size, the factors are
    read from one memoized table of ``cos^2(g pi/2n)``, g = 0..n, per chain
    size, built on first use: at most 64 tables, under 0.1 MB. A longer
    chain keeps no table and evaluates each of its factors instead. Either
    way a factor is ``c * c`` with ``c = math.cos(g * math.pi / (2.0 * n))``,
    one expression for both, so every product keeps its bits.

    Returns exactly 0.0 when some gap spans the whole chain, i.e. the beam
    arrives fully vertical at an analyzer; that factor is an exact 0.0.
    It happens only for the empty configuration and for a lone polarizer in
    the last slot. No other configuration darkens the detector completely.
    """
    n = config.n
    result = 1.0
    if n <= ENUMERATION_CAP:
        table = _cos_sq(n)
        for g in gaps(config):
            result *= table[g]
    else:
        for g in gaps(config):
            result *= _cos_sq_entry(n, g)
    return result


def simulate_intensity(config: ApparatusConfig) -> float:
    """Step-by-step oracle for :func:`quantum_intensity`.

    Starts horizontally polarized, rotates by pi/2n ahead of every slot,
    projects at each installed polarizer and finally at the detector, and
    reports the surviving intensity. No closed-form shortcuts, so it serves
    as an independent check; agreement is within 1e-12 on every tested
    configuration (the exact zeros come out as ~1e-33 rounding residue).
    """
    step = math.pi / (2.0 * config.n)
    c = math.cos(step)
    s = math.sin(step)
    amp_h, amp_v = 1.0, 0.0  # real horizontal and vertical amplitudes
    for installed in config.present:
        amp_h, amp_v = amp_h * c - amp_v * s, amp_h * s + amp_v * c
        if installed:
            amp_v = 0.0
    return amp_h * amp_h  # the detector passes only the horizontal amplitude


def classical_intensity(config: ApparatusConfig, alpha: float) -> float:
    """Intensity when each installed element just attenuates by ``alpha``.

    The rotator-free counterpart: with k polarizers installed the detector
    sees ``alpha**k`` regardless of where they sit.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {alpha}")
    return alpha ** config.installed


def zeno_survival(n: int) -> float:
    """Transmission of the fully instrumented chain, ``cos^2(pi/2n) ** n``.

    Frequent projection pins the polarization to the rotating frame, so the
    value climbs toward 1; it is bounded below by ``1 - pi^2 / (4n)`` for
    every n >= 2. Exactly 0.0 at n = 1, where the single rotation reaches
    vertical before the only analyzer. ``n`` is an integer
    (``operator.index``): 2.0 and "2" raise TypeError.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > sys.float_info.max:  # 2.0 * n below could not convert n
        raise ValueError(f"n must be <= {sys.float_info.max:.6g}, the largest float")
    if n == 1:
        return 0.0
    c = math.cos(math.pi / (2.0 * n))
    return (c * c) ** n
