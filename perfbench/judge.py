"""Correctness checks that judge zenochain's results with the benchmark's own code.

Nothing here calls into zenochain. Results are compared with digests recorded
from a known-good commit (``reference.json``) and with small independent
recomputations: a coin-change partition count, the gap product written with
``sin`` instead of ``cos``, binomial rows and multinomial state counts. Every
check returns a list of problems; an empty list means the result is correct.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Intensities agree within this relative tolerance ...
INTENSITY_RTOL = 1e-12
#: ... or this absolute one: the stepwise oracle reports exact zeros as ~1e-33.
INTENSITY_ATOL = 1e-15
ENTROPY_TOL = 1e-12
#: Largest |closed form - stepwise oracle| that ``zenochain verify`` accepts.
ORACLE_TOL = 1e-12

#: Verify prints one line per check, then this line.
VERIFY_LAST_LINE = "all checks passed"


def load_reference(path: Path = REFERENCE_PATH) -> dict:
    return json.loads(Path(path).read_text(encoding="utf-8"))


class PartitionTable:
    """p(0..n) by the coin-change recurrence, grown on demand."""

    def __init__(self) -> None:
        self._p = [1]

    def __getitem__(self, n: int) -> int:
        if n >= len(self._p):
            size = max(n + 1, 2 * len(self._p))
            p = [1] + [0] * (size - 1)
            for part in range(1, size):
                for total in range(part, size):
                    p[total] += p[total - part]
            self._p = p
        return self._p[n]


def file_sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _parts(label) -> tuple[int, ...]:
    return tuple(label.parts)


def _label_text(label) -> str:
    if isinstance(label, int):
        return str(label)
    return "+".join(map(str, label.parts))


def report_digest(report) -> str:
    """sha256 over n, kind, every class's label and count, and every merge.

    Intensities are left out on purpose: they are floats, checked by tolerance.
    """
    lines = [f"{report.n}|{report.kind}"]
    lines.extend(f"{_label_text(c.label)}:{c.count}" for c in report.classes)
    lines.append("merges")
    lines.extend(f"{_label_text(a)}<{_label_text(b)}" for a, b in report.merges)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def gap_intensity(parts: tuple[int, ...], n: int) -> float:
    """Product over gaps g of cos^2(g pi / 2n), written as sin^2((n - g) pi / 2n)."""
    value = 1.0
    for g in parts:
        value *= math.sin((n - g) * math.pi / (2 * n)) ** 2
    return value


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=INTENSITY_RTOL, abs_tol=INTENSITY_ATOL)


def _entropy_bits(counts, n: int) -> float:
    total = 1 << n
    return math.fsum(c / total * (n - math.log2(c)) for c in counts)


def _check_common(report, n: int, kind: str) -> list[str]:
    problems = []
    if report.n != n or report.kind != kind:
        problems.append(f"expected a {kind} report for n={n}, got {report.kind} n={report.n}")
        return problems
    counts = [c.count for c in report.classes]
    if sum(counts) != 1 << n:
        problems.append(f"n={n}: class counts sum to {sum(counts)}, not 2^{n}")
    own = _entropy_bits(counts, n)
    if not math.isclose(report.entropy_bits, own, rel_tol=ENTROPY_TOL, abs_tol=ENTROPY_TOL):
        problems.append(f"n={n}: entropy {report.entropy_bits!r} != own {own!r}")
    return problems


def check_partition_report(report, n: int, digests: dict, p: PartitionTable) -> list[str]:
    """A quantum or brute-force spectrum: labels, counts and merges match the
    recorded digest, intensities match the gap product of each label."""
    problems = _check_common(report, n, "quantum")
    if problems:
        return problems
    expected = digests.get(str(n))
    if expected is None:
        problems.append(f"n={n}: no reference digest")
    elif report_digest(report) != expected:
        problems.append(f"n={n}: labels/counts/merges differ from the reference")
    for prev, cur in zip(report.classes, report.classes[1:]):
        if not cur.intensity < prev.intensity:
            problems.append(f"n={n}: classes not in strictly decreasing intensity")
            break
    if len(report.classes) + len(report.merges) != p[n]:
        problems.append(
            f"n={n}: {len(report.classes)} classes + {len(report.merges)} merges != p(n)={p[n]}"
        )
    for c in report.classes:
        if not _close(c.intensity, gap_intensity(_parts(c.label), n)):
            problems.append(f"n={n}: class {_label_text(c.label)} intensity {c.intensity!r}")
            break
    return problems


def config_gaps(n: int, index: int) -> list[int]:
    """Gaps between analyzing events of the configuration whose slot i holds
    a polarizer iff bit i-1 of ``index`` is set; the detector analyzes too."""
    events = [slot for slot in range(1, n + 1) if index >> (slot - 1) & 1]
    if not events or events[-1] != n:
        events.append(n)
    return [b - a for a, b in zip([0] + events, events)]


def check_sweep(n: int, lo: int, pairs: list[tuple[float, float]]) -> list[str]:
    """``(quantum_intensity, simulate_intensity)`` of configurations lo, lo+1, ...:
    the closed form matches the own gap product and the oracle within 1e-12."""
    for index, (closed, simulated) in enumerate(pairs, lo):
        if not _close(closed, gap_intensity(config_gaps(n, index), n)):
            return [f"quantum_intensity(n={n}, index={index}) = {closed!r}"]
        if abs(closed - simulated) > ORACLE_TOL:
            return [f"simulate_intensity(n={n}, index={index}) = {simulated!r} vs {closed!r}"]
    return []


def check_classical_report(report, n: int, alpha: float) -> list[str]:
    """Class k holds C(n, k) configurations at intensity alpha^k."""
    problems = _check_common(report, n, "classical")
    if problems:
        return problems
    if len(report.classes) != n + 1 or report.merges:
        return [f"classical n={n}: {len(report.classes)} classes, {len(report.merges)} merges"]
    binomial = 1
    for k, c in enumerate(report.classes):
        if c.label != k or c.count != binomial or not _close(c.intensity, alpha**k):
            return [f"classical n={n}: class {k} is wrong"]
        binomial = binomial * (n - k) // (k + 1)
    return problems


def check_walk(n: int, walked: list, p: PartitionTable) -> list[str]:
    """Every partition of n exactly once, non-increasing parts, reverse-lex order."""
    seqs = [_parts(item) for item in walked]
    if len(seqs) != p[n]:
        return [f"enumerate_partitions({n}) gave {len(seqs)} items, p(n)={p[n]}"]
    for seq in seqs:
        if sum(seq) != n or any(b > a for a, b in zip(seq, seq[1:])) or seq[-1] < 1:
            return [f"enumerate_partitions({n}) gave invalid {seq}"]
    if any(not b < a for a, b in zip(seqs, seqs[1:])):
        return [f"enumerate_partitions({n}) is not reverse-lexicographic"]
    return []


def own_state_count(parts: tuple[int, ...]) -> int:
    count = 2 * math.factorial(len(parts))
    for mult in Counter(parts).values():
        count //= math.factorial(mult)
    return count


def check_state_counts(n: int, walked: list, counts: list[int]) -> list[str]:
    for item, value in zip(walked, counts):
        if value != own_state_count(_parts(item)):
            return [f"state_count({_parts(item)}) = {value}"]
    if sum(counts) != 1 << n:
        return [f"state counts over n={n} sum to {sum(counts)}, not 2^{n}"]
    return []


def check_series(points, rows: list[list[float]]) -> list[str]:
    if len(points) != len(rows):
        return [f"information_series gave {len(points)} rows, reference {len(rows)}"]
    for pt, row in zip(points, rows):
        got = [pt.n, pt.classical_bits, pt.quantum_bits, pt.classical_bound_bits,
               pt.quantum_bound_bits, pt.quantum_classical_ratio]
        if got[0] != row[0] or not all(
            math.isclose(a, b, rel_tol=ENTROPY_TOL, abs_tol=ENTROPY_TOL)
            for a, b in zip(got[1:], row[1:])
        ):
            return [f"information_series row n={row[0]} differs: {got}"]
    return []


def verify_check_names(text: str) -> list[str]:
    """Check names from ``verify`` output lines of the form ``name=value: ok``."""
    return [line.rpartition("=")[0] for line in text.splitlines()[:-1]]


def check_verify_output(text: str, names: list[str]) -> list[str]:
    lines = text.splitlines()
    if not lines or lines[-1] != VERIFY_LAST_LINE:
        return ["verify did not end with 'all checks passed'"]
    bad = [line for line in lines[:-1] if not line.endswith(": ok")]
    if bad:
        return [f"verify check not ok: {bad[0]}"]
    got = verify_check_names(text)
    if got != names:
        return [f"verify ran checks {got}, reference {names}"]
    return []


def check_spectrum_csv(path: Path, n: int, p: PartitionTable) -> list[str]:
    """Structure of a quantum ``spectrum --format csv`` file: counts sum to 2^n,
    classes + merges = p(n), every label is a partition of n."""
    meta = {}
    with open(path, newline="", encoding="utf-8") as fh:
        data = []
        for line in fh:
            if line.startswith("# "):
                key, _, value = line[2:].rstrip("\n").partition("=")
                meta[key] = value
            else:
                data.append(line)
    rows = list(csv.reader(data))[1:]
    if meta.get("n") != str(n) or "merges" not in meta:
        return [f"csv n={n}: bad metadata {meta}"]
    if sum(int(row[2]) for row in rows) != 1 << n:
        return [f"csv n={n}: counts do not sum to 2^{n}"]
    if len(rows) + int(meta["merges"]) != p[n]:
        return [f"csv n={n}: {len(rows)} rows + {meta['merges']} merges != p(n)"]
    if any(sum(map(int, row[0].split("+"))) != n for row in rows):
        return [f"csv n={n}: a label is not a partition of {n}"]
    return []
