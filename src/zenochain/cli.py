"""Command-line front end.

Subcommands: ``partitions`` (exact count table), ``spectrum`` (one chain's
class list), ``compare`` (classical vs quantum information series), ``zeno``
(survival of the fully instrumented chain), and ``verify`` (recompute the
built-in reference values and report each comparison).

Output is deterministic: identical invocations produce byte-identical bytes.
Exit status is 0 when everything succeeded, 1 when a computation, a check or
writing the output failed, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from . import apparatus, partitions, spectrum

__all__ = [
    "OutputSpec",
    "cmd_compare",
    "cmd_partitions",
    "cmd_spectrum",
    "cmd_verify",
    "cmd_zeno",
    "main",
]

FORMATS = ("table", "csv", "json")
MIN_PRECISION = 1
MAX_PRECISION = 17


@dataclass(frozen=True)
class OutputSpec:
    """Rendering choices shared by every data-emitting subcommand."""

    format: str = "table"
    destination: Path | None = None  # None writes to stdout
    precision: int = 6

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.format!r}")
        if not MIN_PRECISION <= self.precision <= MAX_PRECISION:
            raise ValueError(
                f"precision must lie in {MIN_PRECISION}..{MAX_PRECISION}, got {self.precision}"
            )


def _fmt(x: float, precision: int) -> str:
    return f"{x:.{precision}g}"


def _render(
    out: OutputSpec,
    headers: Sequence[str],
    rows: Iterable[Sequence[object]],
    key: str = "rows",
    lead: Sequence[tuple[str, object]] = (),
    tail: Sequence[tuple[str, Sequence[str], Iterable[Sequence[object]]]] = (),
    footers: Sequence[str] = (),
) -> str:
    """Render typed rows in ``out.format``; the one renderer of every subcommand.

    Ints and strings print as ``str``, floats at ``out.precision`` significant
    digits (a number rounded the same way in JSON), a Partition as ``8+4+2+1``
    (its list of parts in JSON). ``lead`` fields become ``# key=value`` lines
    in CSV and the leading keys in JSON. JSON lists the rows under ``key``,
    then each ``(name, headers, rows)`` table of ``tail``. ``footers`` are
    lines appended to the table format only.
    """
    spec = f".{out.precision}g"  # the format _fmt applies, built once per render

    def text(value: object) -> str:
        return format(value, spec) if isinstance(value, float) else str(value)

    def json_value(value: object) -> object:
        if isinstance(value, float):
            return float(format(value, spec))
        if isinstance(value, partitions.Partition):
            return list(value.parts)
        return value

    if out.format == "json":
        def records(names, table):
            return [{h: json_value(v) for h, v in zip(names, row)} for row in table]

        payload = {name: json_value(value) for name, value in lead}
        payload[key] = records(headers, rows)
        for name, names, table in tail:
            payload[name] = records(names, table)
        return json.dumps(payload, indent=2) + "\n"
    cells = (tuple(map(text, row)) for row in rows)
    if out.format == "csv":
        buf = io.StringIO()
        for name, value in lead:
            buf.write(f"# {name}={text(value)}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(headers)
        writer.writerows(cells)
        return buf.getvalue()
    cells = list(cells)
    widths = [len(h) for h in headers]
    for row in cells:
        for i, cell in enumerate(row):
            if len(cell) > widths[i]:
                widths[i] = len(cell)
    lines = ["  ".join(h.rjust(w) for h, w in zip(headers, widths)).rstrip()]
    for row in cells:
        lines.append("  ".join(c.rjust(w) for c, w in zip(row, widths)).rstrip())
    lines.extend(footers)
    return "\n".join(lines) + "\n"


def cmd_partitions(n_max: int, out: OutputSpec) -> str:
    """Exact partition counts p(1)..p(n_max), full decimal digits always."""
    if n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {n_max}")
    rows = [(n, partitions.count_partitions(n)) for n in range(1, n_max + 1)]
    return _render(out, ("n", "p_n"), rows)


def cmd_spectrum(n: int, kind: str, alpha: float, out: OutputSpec) -> str:
    """Class list for one chain size, brightest class first."""
    if kind == "quantum":
        report = spectrum.quantum_spectrum(n)
    elif kind == "classical":
        report = spectrum.classical_spectrum(n, alpha)
    else:
        raise ValueError(f"kind must be 'quantum' or 'classical', got {kind!r}")

    p = out.precision
    headers = ("label", "intensity", "count", "probability", "probability_float")
    rows = (
        (c.label, c.intensity, c.count, f"{c.count}/2^{report.n}", c.probability_float)
        for c in report.classes
    )
    lead = [
        ("n", report.n),
        ("kind", report.kind),
        ("entropy_bits", report.entropy_bits),
        ("bound_bits", report.bound_bits),
    ]
    if out.format == "csv":  # JSON lists the merges themselves, after the classes
        lead.append(("merges", len(report.merges)))
    footers = [
        f"entropy_bits = {_fmt(report.entropy_bits, p)}",
        f"bound_bits = {_fmt(report.bound_bits, p)}",
    ]
    for kept, absorbed in report.merges:
        footers.append(f"merged {absorbed} into {kept} (same intensity)")
    return _render(
        out, headers, rows, key="classes",
        lead=lead, tail=[("merges", ("into", "absorbed"), report.merges)], footers=footers,
    )


def cmd_compare(n_min: int, n_max: int, out: OutputSpec) -> str:
    """Classical vs quantum information, one row per chain size."""
    points = spectrum.information_series(n_min, n_max)
    headers = (
        "n",
        "entropy_classical_bits",
        "entropy_quantum_bits",
        "classical_bound_bits",
        "quantum_bound_bits",
        "quantum_classical_ratio",
    )
    rows = [
        (
            pt.n,
            pt.classical_bits,
            pt.quantum_bits,
            pt.classical_bound_bits,
            pt.quantum_bound_bits,
            pt.quantum_classical_ratio,
        )
        for pt in points
    ]
    return _render(out, headers, rows)


def cmd_zeno(ns: Sequence[int], out: OutputSpec) -> str:
    """Survival of the fully instrumented chain next to its lower bound.

    The bound column holds 1 - pi^2/(4n), which is meaningful only for
    n >= 2; smaller n are flagged in table output and left to speak for
    themselves (the value goes negative) in csv and json.
    """
    if not ns:
        raise ValueError("at least one n is required")
    rows = [(n, apparatus.zeno_survival(n), 1.0 - math.pi * math.pi / (4.0 * n)) for n in ns]
    footers = []
    if out.format == "table" and min(ns) < 2:
        rows = [(n, s, f"{_fmt(b, out.precision)} *" if n < 2 else b) for n, s, b in rows]
        footers.append("* bound applies for n >= 2 only")
    return _render(out, ("n", "survival", "lower_bound"), rows, footers=footers)


_TABLE_PN = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
_P100 = 190_569_292

# The eight 3-slot configurations in slot-string order with their exact
# transmitted intensities.
_N3_INTENSITIES = (
    ("000", Fraction(0)),
    ("001", Fraction(0)),
    ("010", Fraction(3, 16)),
    ("011", Fraction(3, 16)),
    ("100", Fraction(3, 16)),
    ("101", Fraction(3, 16)),
    ("110", Fraction(27, 64)),
    ("111", Fraction(27, 64)),
)

_N3_PROBABILITIES = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))


def cmd_verify() -> tuple[str, bool]:
    """Recompute the built-in reference values and report each comparison.

    All calls go through the module namespaces on purpose, so a patched
    implementation is what gets checked.
    """
    lines: list[str] = []
    all_ok = True

    def check(name: str, actual: object, ok: bool, expected: object) -> None:
        nonlocal all_ok
        if ok:
            lines.append(f"{name}={actual}: ok")
        else:
            lines.append(f"{name}={actual} (expected {expected}): FAIL")
            all_ok = False

    counts = tuple(partitions.count_partitions(n) for n in range(1, 11))
    check("p(1..10)", ",".join(map(str, counts)), counts == _TABLE_PN,
          ",".join(map(str, _TABLE_PN)))

    p100 = partitions.count_partitions(100)
    check("p(100)", p100, p100 == _P100, _P100)

    for bits, expected in _N3_INTENSITIES:
        value = apparatus.quantum_intensity(apparatus.ApparatusConfig.from_bits(bits))
        check(f"intensity(n=3,{bits})", _fmt(value, 12),
              abs(value - float(expected)) <= 1e-12, _fmt(float(expected), 12))

    report = spectrum.quantum_spectrum(3)
    probs = tuple(c.probability for c in report.classes)
    check("class probabilities(n=3)", ",".join(map(str, probs)),
          probs == _N3_PROBABILITIES, ",".join(map(str, _N3_PROBABILITIES)))
    check("entropy(n=3)", _fmt(report.entropy_bits, 12),
          abs(report.entropy_bits - 1.5) <= 1e-12, 1.5)

    conserved = all(
        sum(partitions.state_count(p) for p in partitions.enumerate_partitions(n)) == 1 << n
        for n in range(1, 21)
    )
    check("state_count sum(n<=20)", "2^n exact" if conserved else "mismatch",
          conserved, "2^n exact")

    worst = 0.0
    matched = 0
    for n in range(1, 17):
        for index in range(1 << n):
            config = apparatus.ApparatusConfig.from_index(n, index)
            gap = abs(apparatus.quantum_intensity(config) - apparatus.simulate_intensity(config))
            if gap > worst:
                worst = gap
        if spectrum.reports_match(spectrum.quantum_spectrum(n), spectrum.brute_force_spectrum(n)):
            matched += 1
    check("oracle max |difference| (n<=16)", f"{worst:.3e}", worst <= 1e-12, "<= 1e-12")
    check("spectrum agreement (n<=16)", f"{matched}/16", matched == 16, "16/16")

    z3 = apparatus.zeno_survival(3)
    check("zeno(3)", _fmt(z3, 12), abs(z3 - 27.0 / 64.0) <= 1e-12, _fmt(27.0 / 64.0, 12))
    z4 = apparatus.zeno_survival(10_000)
    check("zeno(10000)", _fmt(z4, 12), z4 >= 0.999753, ">= 0.999753")
    bounded = all(
        apparatus.zeno_survival(n) >= 1.0 - math.pi * math.pi / (4.0 * n)
        for n in range(2, 2001)
    )
    check("zeno bound (2<=n<=2000)", "holds" if bounded else "violated", bounded, "holds")

    uniform = spectrum.qubit_channel_information(1 / 3, 1 / 3, 1 / 3)
    check("qubit uniform information", _fmt(uniform, 12),
          abs(uniform - math.log2(3.0)) <= 1e-12, _fmt(math.log2(3.0), 12))

    lines.append("all checks passed" if all_ok else "some checks FAILED")
    return "\n".join(lines) + "\n", all_ok


def _add_output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=FORMATS, default="table",
                        help="output format (default: table)")
    parser.add_argument("--precision", type=int, choices=range(MIN_PRECISION, MAX_PRECISION + 1),
                        default=6, metavar=f"{MIN_PRECISION}..{MAX_PRECISION}",
                        help="significant digits for floats (default: 6)")
    parser.add_argument("--out", type=Path, default=None, metavar="PATH",
                        help="write output to PATH instead of stdout")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zenochain",
        description="Exact spectra and information content of a chain of "
                    "polarization rotators with optional projective analyzers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_partitions = sub.add_parser("partitions", help="exact partition-count table")
    p_partitions.add_argument("--n-max", type=int, required=True)
    _add_output_arguments(p_partitions)

    p_spectrum = sub.add_parser("spectrum", help="intensity classes for one chain size")
    p_spectrum.add_argument("--n", type=int, required=True)
    p_spectrum.add_argument("--kind", choices=("quantum", "classical"), default="quantum")
    p_spectrum.add_argument("--alpha", type=float, default=spectrum.DEFAULT_ALPHA,
                            help="classical attenuation per element (default: 0.5)")
    _add_output_arguments(p_spectrum)

    p_compare = sub.add_parser("compare", help="classical vs quantum information series")
    p_compare.add_argument("--n-min", type=int, default=1)
    p_compare.add_argument("--n-max", type=int, required=True)
    _add_output_arguments(p_compare)

    p_zeno = sub.add_parser("zeno", help="survival of the fully instrumented chain")
    p_zeno.add_argument("--n", type=int, nargs="+", required=True)
    _add_output_arguments(p_zeno)

    sub.add_parser("verify", help="recompute built-in reference values")

    return parser


def _deliver(text: str, out: OutputSpec) -> int:
    if out.destination is None:
        sys.stdout.write(text)
        return 0
    try:
        out.destination.write_text(text, encoding="utf-8")
    except OSError as exc:
        sys.stderr.write(f"error: cannot write {out.destination}: {exc.strerror or exc}\n")
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            text, ok = cmd_verify()
            sys.stdout.write(text)
            return 0 if ok else 1
        out = OutputSpec(args.format, args.out, args.precision)
        if args.command == "partitions":
            text = cmd_partitions(args.n_max, out)
        elif args.command == "spectrum":
            text = cmd_spectrum(args.n, args.kind, args.alpha, out)
        elif args.command == "compare":
            text = cmd_compare(args.n_min, args.n_max, out)
        else:
            text = cmd_zeno(args.n, out)
    except ValueError as exc:  # CapacityError included
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return _deliver(text, out)


if __name__ == "__main__":
    raise SystemExit(main())
