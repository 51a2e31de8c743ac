"""Command-line front end.

Subcommands: ``partitions`` (exact count table), ``spectrum`` (one chain's
class list), ``compare`` (classical vs quantum information series), ``zeno``
(survival of the fully instrumented chain), and ``verify`` (recompute the
built-in reference values and report each comparison).

Output is deterministic: identical invocations produce byte-identical bytes.
It is written to its destination as it is rendered, never held whole.
Exit status is 0 when everything succeeded, 1 when a computation, a check or
writing the output failed, 2 for usage errors.
"""

from __future__ import annotations

import argparse
import codecs
import csv
import itertools
import json
import math
import sys
from array import array
from dataclasses import astuple, dataclass
from json.encoder import encode_basestring_ascii
from operator import index, truediv
from pathlib import Path
from types import SimpleNamespace
from typing import Iterable, Iterator, Sequence

from . import apparatus, partitions, spectrum
from .partitions import _BLOCK

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
    precision: int = 6

    def __post_init__(self) -> None:
        if self.format not in FORMATS:
            raise ValueError(f"format must be one of {FORMATS}, got {self.format!r}")
        object.__setattr__(self, "precision", index(self.precision))  # 6.0 and "6" raise TypeError
        if not MIN_PRECISION <= self.precision <= MAX_PRECISION:
            raise ValueError(
                f"precision must lie in {MIN_PRECISION}..{MAX_PRECISION}, got {self.precision}"
            )


def _fmt(x: float, precision: int) -> str:
    return f"{x:.{precision}g}"


# Columns become text _BLOCK cells at a time, each by one C-level map: a Python
# call per cell costs more than the formatting. _SEP joins a table block's column
# until the widths are known, and ends each label of a block of partitions decoded
# as one text.
_SEP = "\x1f"


class _Coded:
    """A dictionary-coded column for ``_render``: row i holds ``values[codes[i]]``.

    ``values`` is a list of distinct cells of one type, ``codes`` an iterable
    of ints indexing it, read once. The renderer converts each value once and
    spells a row by looking its code up.
    """

    __slots__ = ("values", "codes")

    def __init__(self, values: list, codes: Iterable[int]) -> None:
        self.values = values
        self.codes = codes


def _render(
    out: OutputSpec,
    headers: Sequence[str],
    columns: Sequence[Iterable[object] | _Coded],
    key: str = "rows",
    lead: Sequence[tuple[str, object]] = (),
    tail: Sequence[tuple[str, Sequence[str], Sequence[Iterable[object] | _Coded]]] = (),
    footers: Sequence[str] = (),
) -> Iterator[str]:
    """Yield typed columns rendered in ``out.format``, in chunks of up to ``_BLOCK`` rows.

    The one renderer of every subcommand. ``columns`` holds one iterable per
    header, and every cell of a column has one type, each with one converter:
    ints and strings print as ``str``, floats at ``out.precision`` significant
    digits (a number rounded the same way in JSON), a partition as the bytes
    of its parts, ``8+4+2+1`` (a list of parts in JSON). A column of any other
    type (a bool, say), or of more than one, raises ``TypeError``. A column
    may also be a ``_Coded`` one, for cells that repeat: its distinct values
    are checked and converted once, as one column, and each block of its
    codes is mapped through their texts.
    ``lead`` fields become ``# key=value`` lines in CSV and the leading keys
    in JSON, each value converted as a column of one cell. JSON lists the
    rows under ``key``, then each ``(name, headers, columns)`` table of
    ``tail``. ``footers`` are lines appended to the table format only.

    JSON has the layout and spellings of ``json.dumps(..., indent=2)`` of the
    same document. Each column is read once, ``_BLOCK`` cells (or codes) at a
    time, and each block of it converted by one map. CSV and JSON hold one
    block; until it knows the widths, the table holds each block's plain
    columns as joined text and its coded ones as lists of their shared texts.
    """
    spec = f".{out.precision}g"
    as_json = out.format == "json"
    by_kind = {int: int.__repr__, str: encode_basestring_ascii if as_json else str}
    glue = ",\n        " if as_json else "+"  # between a partition's parts
    spell = (_SEP, *(glue + str(v) for v in range(1, 256)))  # a part's byte, or a label's end

    def convert(column: list[object]) -> list[str]:
        kinds = set(map(type, column))
        kind = kinds.pop() if len(kinds) == 1 else None
        if kind is bytes:
            # one decode spells the block; every label then starts with the glue
            text = codecs.charmap_decode(b"\0".join(column), "strict", spell)[0]
            labels = text[len(glue):].split(_SEP + glue)
            return list(map("[\n        {}\n      ]".format, labels) if as_json else labels)
        if kind is float:
            texts = list(map(float.__format__, column, itertools.repeat(spec)))
            if not as_json:
                return texts
            joined = "".join(texts)
            # At most float_info.dig digits, one '.', no 'e+' and a normal float:
            # then the text is already the repr of the float it reads as.
            if (out.precision <= sys.float_info.dig and joined.count(".") == len(texts)
                    and "e+" not in joined and min(map(abs, column)) > 1e-300):
                return texts
            rounded = list(map(float, texts))
            finite = all(map(math.isfinite, rounded))
            return list(map(float.__repr__ if finite else json.dumps, rounded))
        if kind not in by_kind:
            names = sorted({type(cell).__name__ for cell in column})
            raise TypeError(f"a column holds cells of one of bytes, float, int or str, got {names}")
        return list(map(by_kind[kind], column))

    def blocks(table: Sequence[Iterable[object] | _Coded]) -> Iterator[list[list[str]]]:
        coded = [type(column) is _Coded for column in table]
        readers = []
        for column, is_coded in zip(table, coded):
            if is_coded:  # read as the texts of its codes, each distinct value converted once
                spelled = convert(column.values) if column.values else []
                column = map(spelled.__getitem__, column.codes)
            readers.append(iter(column))
        first = None  # each column's type in its first block, which every block keeps
        while (block := [list(itertools.islice(column, _BLOCK)) for column in readers]) and block[0]:
            texts = [c if is_coded else convert(c) for c, is_coded in zip(block, coded)]
            kinds = [type(column[0]) for column in block]
            if kinds != (first := first or kinds):
                raise TypeError(f"a column's cells change type: {first} then {kinds}")
            yield texts

    if as_json:
        sep = "{\n  "
        for name, value in lead:
            yield f"{sep}{encode_basestring_ascii(name)}: {convert([value])[0]}"
            sep = ",\n  "
        for name, names, table in ((key, headers, columns), *tail):
            yield f"{sep}{encode_basestring_ascii(name)}: "
            fields = (encode_basestring_ascii(h).replace("{", "{{").replace("}", "}}")
                      for h in names)  # braces doubled for str.format
            record = ",".join(f"\n      {f}: {{}}" for f in fields).format
            sep = "[\n    {"
            for texts in blocks(table):
                yield sep + "\n    },\n    {".join(map(record, *texts))
                sep = "\n    },\n    {"
            yield "[]" if sep[0] == "[" else "\n    }\n  ]"
            sep = ",\n  "
        yield "\n}\n"
        return
    if out.format == "csv":
        for name, value in lead:
            yield f"# {name}={convert([value])[0]}\n"
        pending: list[str] = []  # what the writer wrote for the rows in hand
        writer = csv.writer(SimpleNamespace(write=pending.append), lineterminator="\n")
        writer.writerow(headers)
        yield pending.pop()
        for texts in blocks(columns):
            body = "\n".join(map(",".join, zip(*texts))) + "\n"
            # csv quotes a cell holding ',', '"', '\r' or '\n', or a lone empty one. The
            # join wrote width - 1 commas and one newline per row; any more are a cell's.
            if (len(texts) > 1 and '"' not in body and "\r" not in body
                    and body.count(",") + body.count("\n") == len(texts) * len(texts[0])):
                yield body
                continue
            writer.writerows(zip(*texts))
            yield "".join(pending)
            pending.clear()
        return
    widths = list(map(len, headers))
    held = []
    coded = [type(column) is _Coded for column in columns]
    for texts in blocks(columns):
        widths = [max(w, *map(len, column)) for w, column in zip(widths, texts)]
        # A coded column's block is held as it is, a pointer a row to its shared texts;
        # another is held joined when the join's len(c) - 1 _SEP are all it holds: it splits back.
        held.append([c if is_coded or (j := _SEP.join(c)).count(_SEP) != len(c) - 1 else j
                     for c, is_coded in zip(texts, coded)])
    line = "  ".join(f"{{:>{w}}}" for w in widths).format  # c.rjust(w) for each cell c
    yield line(*headers).rstrip() + "\n"
    for packed in held:
        texts = [c.split(_SEP) if isinstance(c, str) else c for c in packed]
        yield "\n".join(map(str.rstrip, map(line, *texts))) + "\n"
    for footer in footers:
        yield footer + "\n"


def cmd_partitions(n_max: int, out: OutputSpec) -> Iterator[str]:
    """Exact partition counts p(1)..p(n_max), full decimal digits always."""
    if n_max < 1:
        raise ValueError(f"--n-max must be >= 1, got {n_max}")
    partitions.count_partitions(n_max)  # the cap check, before any other work
    ns = range(1, n_max + 1)
    return _render(out, ("n", "p_n"), (ns, [partitions.count_partitions(n) for n in ns]))


def cmd_spectrum(n: int, kind: str, alpha: float, out: OutputSpec) -> Iterator[str]:
    """Class list for one chain size, brightest class first."""
    if kind == "quantum":
        report = spectrum.quantum_spectrum(n)
    elif kind == "classical":
        report = spectrum.classical_spectrum(n, alpha)
    else:
        raise ValueError(f"kind must be 'quantum' or 'classical', got {kind!r}")

    p = out.precision
    headers = ("label", "intensity", "count", "probability", "probability_float")
    # Read from the columns, a partition label as the bytes of its parts: no class object is made.
    labels, intensities, counts = spectrum._columns(report.classes)
    # A count takes few distinct values (980 among the 26,015 classes of n = 38), so the
    # three columns derived from it are coded: each distinct count is spelled once, and
    # one array of codes, each its count's place among the distinct ones, is read by all
    # three. Two bytes a code hold every spectrum's (at most 8,341 distinct, at n = 64).
    distinct = dict.fromkeys(counts)
    for code, count in enumerate(distinct):
        distinct[count] = code
    codes = array("H" if len(distinct) <= 1 << 16 else "I", map(distinct.__getitem__, counts))
    values = list(distinct)
    columns = (labels, intensities, _Coded(values, codes),
               _Coded(list(map(f"{{}}/2^{report.n}".format, values)), codes),
               _Coded(list(map(truediv, values, itertools.repeat(1 << report.n))), codes))
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
    merges = ([bytes(kept.parts) for kept, _ in report.merges],
              [bytes(absorbed.parts) for _, absorbed in report.merges])
    return _render(
        out, headers, columns, key="classes",
        lead=lead, tail=[("merges", ("into", "absorbed"), merges)], footers=footers,
    )


def cmd_compare(n_min: int, n_max: int, out: OutputSpec) -> Iterator[str]:
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
    # InformationPoint's fields are in the header order
    return _render(out, headers, tuple(zip(*map(astuple, points))))


def cmd_zeno(ns: Sequence[int], out: OutputSpec) -> Iterator[str]:
    """Survival of the fully instrumented chain next to its lower bound.

    The bound column holds 1 - pi^2/(4n), which is meaningful only for
    n >= 2; smaller n are flagged in table output and left to speak for
    themselves (the value goes negative) in csv and json.
    """
    if not ns:
        raise ValueError("at least one n is required")
    survival = [apparatus.zeno_survival(n) for n in ns]  # checks each n before the bound
    bounds = [1.0 - math.pi * math.pi / (4.0 * n) for n in ns]
    footers = []
    if out.format == "table" and min(ns) < 2:  # one str column, each float as the table spells it
        bounds = [_fmt(b, out.precision) + (" *" if n < 2 else "") for n, b in zip(ns, bounds)]
        footers.append("* bound applies for n >= 2 only")
    return _render(out, ("n", "survival", "lower_bound"), (ns, survival, bounds), footers=footers)


_TABLE_PN = (1, 2, 3, 5, 7, 11, 15, 22, 30, 42)
_P100 = 190_569_292


def cmd_verify() -> tuple[str, bool]:
    """Recompute the built-in reference values and report each comparison.

    All calls go through the module namespaces on purpose, so a patched
    implementation is what gets checked.
    """
    from fractions import Fraction  # loads decimal and numbers: only for verify

    # exact intensities of the 3-slot configurations, and the n = 3 class probabilities
    n3_intensities = (
        ("000", Fraction(0)),
        ("001", Fraction(0)),
        ("010", Fraction(3, 16)),
        ("011", Fraction(3, 16)),
        ("100", Fraction(3, 16)),
        ("101", Fraction(3, 16)),
        ("110", Fraction(27, 64)),
        ("111", Fraction(27, 64)),
    )
    n3_probabilities = (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))
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

    for bits, expected in n3_intensities:
        value = apparatus.quantum_intensity(apparatus.ApparatusConfig.from_bits(bits))
        check(f"intensity(n=3,{bits})", _fmt(value, 12),
              abs(value - float(expected)) <= 1e-12, _fmt(float(expected), 12))

    report = spectrum.quantum_spectrum(3)
    probs = tuple(c.probability for c in report.classes)
    check("class probabilities(n=3)", ",".join(map(str, probs)),
          probs == n3_probabilities, ",".join(map(str, n3_probabilities)))
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
            if gap > worst or math.isnan(gap):  # a NaN, once seen, stays
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


def _deliver(chunks: Iterable[str], destination: Path | None) -> int:
    """Write ``chunks`` as they arrive to ``destination``, or to stdout when it is None.

    The file is opened only here, after the computation behind ``chunks``
    has succeeded. A failed write (a missing directory, a full disk, a
    closed pipe) prints one ``error:`` line and returns exit status 1; when
    it fails mid-stream, the chunks written before it stay written. Stdout
    is flushed here so that its failure is caught here too, not at
    interpreter exit.
    """
    try:
        if destination is None:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        else:
            with destination.open("w", encoding="utf-8") as file:
                file.writelines(chunks)
    except OSError as exc:  # BrokenPipeError included
        target = "stdout" if destination is None else destination
        sys.stderr.write(f"error: cannot write {target}: {exc.strerror or exc}\n")
        return 1
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            text, ok = cmd_verify()
            return _deliver((text,), None) or (0 if ok else 1)
        out = OutputSpec(args.format, args.precision)
        if args.command == "partitions":
            chunks = cmd_partitions(args.n_max, out)
        elif args.command == "spectrum":
            chunks = cmd_spectrum(args.n, args.kind, args.alpha, out)
        elif args.command == "compare":
            chunks = cmd_compare(args.n_min, args.n_max, out)
        else:
            chunks = cmd_zeno(args.n, out)
    except ValueError as exc:  # CapacityError included
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return _deliver(chunks, args.out)


if __name__ == "__main__":
    raise SystemExit(main())
