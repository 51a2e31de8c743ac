import csv
import errno
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from pathlib import Path

import pytest

from zenochain import apparatus, partitions, spectrum
from zenochain.cli import (
    _BLOCK,
    _SEP,
    OutputSpec,
    _render,
    cmd_compare,
    cmd_partitions,
    cmd_spectrum,
    cmd_verify,
    cmd_zeno,
    main,
)

TABLE = OutputSpec()
CSV = OutputSpec(format="csv")
JSON = OutputSpec(format="json")


def parse_csv(text):
    meta = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition("=")
            meta[key] = value
        else:
            data_lines.append(line)
    rows = list(csv.reader(io.StringIO("\n".join(data_lines))))
    return meta, rows[0], rows[1:]


def test_partitions_table():
    text = "".join(cmd_partitions(10, TABLE))
    lines = text.splitlines()
    assert lines[0].split() == ["n", "p_n"]
    assert len(lines) == 11
    assert lines[1].split() == ["1", "1"]
    assert lines[10].split() == ["10", "42"]


def test_partitions_csv_roundtrip():
    _, header, rows = parse_csv("".join(cmd_partitions(100, CSV)))
    assert header == ["n", "p_n"]
    assert len(rows) == 100
    assert rows[99] == ["100", "190569292"]
    # full decimal digits, never scientific notation
    assert all("e" not in cell and "E" not in cell for row in rows for cell in row)


def test_partitions_json():
    payload = json.loads("".join(cmd_partitions(10, JSON)))
    assert payload["rows"][2] == {"n": 3, "p_n": 3}
    assert payload["rows"][9] == {"n": 10, "p_n": 42}


def test_partitions_rejects_zero():
    with pytest.raises(ValueError):
        cmd_partitions(0, TABLE)  # raises at the call, before any chunk


def test_spectrum_table_n3():
    text = "".join(cmd_spectrum(3, "quantum", 0.5, TABLE))
    lines = text.splitlines()
    assert lines[0].split() == [
        "label", "intensity", "count", "probability", "probability_float",
    ]
    assert lines[1].split() == ["1+1+1", "0.421875", "2", "2/2^3", "0.25"]
    assert lines[2].split() == ["2+1", "0.1875", "4", "4/2^3", "0.5"]
    assert lines[3].split() == ["3", "0", "2", "2/2^3", "0.25"]
    assert "entropy_bits = 1.5" in lines
    assert any(line.startswith("bound_bits = ") for line in lines)


def test_spectrum_csv_roundtrip():
    report = spectrum.quantum_spectrum(5)
    meta, header, rows = parse_csv("".join(cmd_spectrum(5, "quantum", 0.5, CSV)))
    assert meta["n"] == "5"
    assert meta["kind"] == "quantum"
    assert meta["merges"] == "0"
    assert float(meta["entropy_bits"]) == pytest.approx(report.entropy_bits, abs=1e-5)
    assert float(meta["bound_bits"]) == pytest.approx(report.bound_bits, abs=1e-5)
    assert header == ["label", "intensity", "count", "probability", "probability_float"]
    assert len(rows) == len(report.classes)
    for row, cls in zip(rows, report.classes):
        assert row[0] == str(cls.label)
        assert float(row[1]) == pytest.approx(cls.intensity, abs=1e-5)
        assert int(row[2]) == cls.count
        assert row[3] == f"{cls.count}/2^5"
        assert float(row[4]) == pytest.approx(cls.probability_float, abs=1e-5)


def test_spectrum_csv_reports_merges():
    meta, _, rows = parse_csv("".join(cmd_spectrum(15, "quantum", 0.5, CSV)))
    assert meta["merges"] == "1"
    assert len(rows) == 175


def test_spectrum_table_merge_footer():
    text = "".join(cmd_spectrum(15, "quantum", 0.5, TABLE))
    assert "merged 8+4+2+1 into 7+6+1+1 (same intensity)" in text


def test_spectrum_json_schema():
    payload = json.loads("".join(cmd_spectrum(3, "quantum", 0.5, JSON)))
    assert payload["n"] == 3
    assert payload["kind"] == "quantum"
    assert payload["entropy_bits"] == 1.5
    assert payload["merges"] == []
    first = payload["classes"][0]
    assert first == {
        "label": [1, 1, 1],
        "intensity": 0.421875,
        "count": 2,
        "probability": "2/2^3",
        "probability_float": 0.25,
    }


def test_spectrum_classical():
    payload = json.loads("".join(cmd_spectrum(3, "classical", 0.5, JSON)))
    assert [c["label"] for c in payload["classes"]] == [0, 1, 2, 3]
    assert [c["count"] for c in payload["classes"]] == [1, 3, 3, 1]
    assert payload["entropy_bits"] == pytest.approx(1.81128, abs=1e-5)
    text = "".join(cmd_spectrum(3, "classical", 0.25, CSV))
    _, _, rows = parse_csv(text)
    assert [row[1] for row in rows] == ["1", "0.25", "0.0625", "0.015625"]


@pytest.mark.parametrize("out", [TABLE, CSV, JSON], ids=lambda out: out.format)
def test_spectrum_classical_takes_an_exact_alpha(out):
    # a Fraction or Decimal alpha gives the float intensities, so the bytes, of 0.5
    expected = "".join(cmd_spectrum(3, "classical", 0.5, out))
    for alpha in (Fraction(1, 2), Decimal("0.5")):
        assert "".join(cmd_spectrum(3, "classical", alpha, out)) == expected


def test_spectrum_precision_flag():
    text = "".join(cmd_spectrum(3, "quantum", 0.5, OutputSpec(format="csv", precision=3)))
    _, _, rows = parse_csv(text)
    assert rows[0][1] == "0.422"
    full = "".join(cmd_spectrum(3, "quantum", 0.5, OutputSpec(format="csv", precision=17)))
    _, _, rows17 = parse_csv(full)
    assert float(rows17[0][1]) == spectrum.quantum_spectrum(3).classes[0].intensity


def test_compare_series():
    meta_free = "".join(cmd_compare(1, 10, CSV))
    _, header, rows = parse_csv(meta_free)
    assert header == [
        "n",
        "entropy_classical_bits",
        "entropy_quantum_bits",
        "classical_bound_bits",
        "quantum_bound_bits",
        "quantum_classical_ratio",
    ]
    assert len(rows) == 10
    at3 = rows[2]
    assert at3[0] == "3"
    assert float(at3[2]) == pytest.approx(1.5, abs=1e-12)
    assert float(at3[1]) == pytest.approx(1.81128, abs=1e-5)
    # quantum passes classical at n = 4
    assert float(rows[2][2]) < float(rows[2][1])
    assert float(rows[3][2]) > float(rows[3][1])


def test_compare_json():
    payload = json.loads("".join(cmd_compare(2, 4, JSON)))
    assert [row["n"] for row in payload["rows"]] == [2, 3, 4]
    assert payload["rows"][1]["entropy_quantum_bits"] == 1.5


def test_zeno_output():
    meta, header, rows = parse_csv("".join(cmd_zeno([1, 3, 10_000], CSV)))
    assert header == ["n", "survival", "lower_bound"]
    assert rows[0][0] == "1" and float(rows[0][1]) == 0.0
    assert float(rows[0][2]) < 0.0
    assert float(rows[1][1]) == pytest.approx(27 / 64, abs=1e-6)
    assert float(rows[2][1]) >= 0.999753
    for row in rows[1:]:
        assert float(row[1]) >= float(row[2])


def test_zeno_table_flags_small_n():
    text = "".join(cmd_zeno([1, 3], TABLE))
    assert "*" in text
    assert "bound applies for n >= 2 only" in text
    clean = "".join(cmd_zeno([3, 4], TABLE))
    assert "*" not in clean


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_zeno_checks_n_before_its_bound(fmt, capsys):
    # 1 - pi^2/(4n) at n = 0 would divide by zero; zeno_survival refuses n = 0 first
    assert main(["zeno", "--n", "2", "0", "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: n must be >= 1, got 0\n"


def test_cli_exit_codes(capsys, tmp_path):
    assert main(["partitions", "--n-max", "6"]) == 0
    capsys.readouterr()
    assert main(["partitions", "--n-max", "10001"]) == 1
    err = capsys.readouterr().err
    assert "10000" in err
    assert main(["spectrum", "--n", "65"]) == 1
    capsys.readouterr()
    assert main(["zeno", "--n", str(10 ** 400)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    with pytest.raises(SystemExit) as excinfo:
        main(["spectrum", "--n", "3", "--kind", "sideways"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["spectrum", "--n", "3", "--precision", "0"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as excinfo:
        main(["nonsense"])
    assert excinfo.value.code == 2
    capsys.readouterr()
    for target in (tmp_path / "missing" / "x.txt", tmp_path):
        assert main(["spectrum", "--n", "5", "--out", str(target)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: cannot write {target}: ")
        assert captured.err.count("\n") == 1


def test_partitions_cap_checked_before_work(monkeypatch, capsys):
    calls = []
    real = partitions.count_partitions

    def counted(n):
        calls.append(n)
        return real(n)

    monkeypatch.setattr(partitions, "count_partitions", counted)
    assert main(["partitions", "--n-max", str(partitions.COUNT_CAP + 1)]) == 1
    assert len(calls) <= 1
    assert capsys.readouterr().err.startswith("error: ")


class FailingStdout(io.StringIO):
    """Stdout whose ``write`` or ``flush`` raises, like a full disk or a closed pipe.

    ``write`` succeeds ``writes`` times before it starts to raise.
    """

    def __init__(self, method, exc, writes=0):
        super().__init__()
        self.method = method
        self.exc = exc
        self.writes = writes

    def write(self, text):
        if self.method == "write":
            if self.writes <= 0:
                raise self.exc
            self.writes -= 1
        return super().write(text)

    def flush(self):
        if self.method == "flush":
            raise self.exc


DISK_FULL = OSError(errno.ENOSPC, "No space left on device")
PIPE_CLOSED = BrokenPipeError(errno.EPIPE, "Broken pipe")


@pytest.mark.parametrize(
    "argv,method,exc",
    [
        (["spectrum", "--n", "5"], "flush", DISK_FULL),
        (["spectrum", "--n", "5"], "write", DISK_FULL),
        (["spectrum", "--n", "5"], "write", PIPE_CLOSED),
        (["verify"], "flush", DISK_FULL),
        (["verify"], "write", PIPE_CLOSED),
    ],
)
def test_cli_stdout_write_failure(argv, method, exc, monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdout", FailingStdout(method, exc))
    assert main(argv) == 1
    assert capsys.readouterr().err == f"error: cannot write stdout: {exc.strerror}\n"


@pytest.mark.parametrize("exc", [DISK_FULL, PIPE_CLOSED])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_cli_stdout_fails_mid_stream(fmt, exc, monkeypatch, capsys):
    stdout = FailingStdout("write", exc, writes=3)
    monkeypatch.setattr(sys, "stdout", stdout)
    assert main(["spectrum", "--n", "12", "--format", fmt]) == 1
    assert capsys.readouterr().err == f"error: cannot write stdout: {exc.strerror}\n"
    full = "".join(cmd_spectrum(12, "quantum", 0.5, OutputSpec(format=fmt)))
    partial = stdout.getvalue()
    assert partial and full.startswith(partial) and len(partial) < len(full)


def test_cli_failed_computation_leaves_out_untouched(capsys, tmp_path):
    target = tmp_path / "spectrum.txt"
    assert main(["spectrum", "--n", "65", "--out", str(target)]) == 1
    assert not target.exists()
    target.write_text("kept\n", encoding="utf-8")
    assert main(["spectrum", "--n", "65", "--out", str(target)]) == 1
    assert target.read_text(encoding="utf-8") == "kept\n"
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: ") for line in err)


def test_cli_writes_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    assert main(["spectrum", "--n", "4", "--format", "csv", "--out", str(target)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    text = target.read_text(encoding="utf-8")
    assert text == "".join(cmd_spectrum(4, "quantum", 0.5, CSV))


def test_cli_stdout_matches_cmd(capsys):
    assert main(["zeno", "--n", "2", "8", "--format", "json", "--precision", "9"]) == 0
    out = capsys.readouterr().out
    assert out == "".join(cmd_zeno([2, 8], OutputSpec(format="json", precision=9)))


@pytest.mark.parametrize(
    "argv",
    [
        ["partitions", "--n-max", "30", "--format", "csv"],
        ["spectrum", "--n", "12", "--format", "json", "--precision", "12"],
        ["compare", "--n-min", "1", "--n-max", "12", "--format", "csv"],
        ["zeno", "--n", "1", "2", "3", "500", "--format", "table"],
    ],
)
def test_cli_output_deterministic(argv, capsys):
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.endswith("\n")


# sha256 of main(argv) stdout, recorded from the release before the table
# renderer was unified; any change to the output bytes shows up here.
PINNED_OUTPUT = [
    ("partitions --n-max 30 --format table", "9ea4a5c6d94be5d1c6c44d78e228f7d46f7fa8ad03dc8421aa1d59e4d4b85763"),
    ("partitions --n-max 30 --format csv", "fdbe13b47565a4dc6a2c80c88de86357d344fbbb6b28e8a4363b40b64011da2c"),
    ("partitions --n-max 30 --format json", "3210ddabded5a903ac6b30f18b9d7805ba910fdbfec31e1ddd5919ca26dd71a1"),
    ("spectrum --n 15 --format table", "ec38f3ac30dfc24a5291ba8ac06f2140151853732f42ceb7225eed2fa05a21a7"),
    ("spectrum --n 15 --format csv", "d7ff6f211873220d6de7e82506e4b363743339f0d4d5f07a73ed2ce91c9ee0ed"),
    ("spectrum --n 15 --format json", "7be5e6d898d41dda09458dbf6f1c35f2dcb0e7ca42bfabfaee14007a3e39121e"),
    ("spectrum --n 6 --kind classical --format table", "c0d65151688eadbfd0d4caa0cb52150d042bd9e7525a91a083dd81b903a7c8ca"),
    ("spectrum --n 6 --kind classical --format csv", "1a0ebe881871acb58c9fb7f6aa2bda4a65d1c3fe4e73cace8593cf2f1b1a912d"),
    ("spectrum --n 6 --kind classical --format json", "9e85d99d627f88e52f68719798577b1c75fe0a93e6b5a10e220590abb7a21e6f"),
    ("compare --n-max 12 --format table", "d76d467516f9815d2346cec15ebc06c9ea8035d70e1e923159d53acfbcf89fde"),
    ("compare --n-max 12 --format csv", "0c45e40abc5a20089930a7be56034e0c21a03c0be611f7adc4a3a46acddeea1c"),
    ("compare --n-max 12 --format json", "752d8f6c3113dad5ba5bd5280de88b285b5c13bf95cb41a7271371f9dd21aabe"),
    ("zeno --n 1 2 10 --format table", "0fd43d92e289721cbae81f4519788028c9ec46662d1d4e6428ba22a77b79e46e"),
    ("zeno --n 1 2 10 --format csv", "7d7c75a3a7ffdc7856019805eb4eb1608c16140176b819ba974e310dc5c34df3"),
    ("zeno --n 1 2 10 --format json", "e1f173cb849fd79d46dee8290e74c777b3ee6207f3b2239df189249a83f0acc2"),
    ("spectrum --n 15 --format json --precision 17", "f562aedc63bc008556a9d81ccc6e24475d0c0165eb18098f3e043fa051dd0a6c"),
    ("compare --n-max 12 --format table --precision 17", "e444ce00787b16ba20af3b62960240619f636b28f3165f57cc688a272d9b0e50"),
]


@pytest.mark.parametrize("command, digest", PINNED_OUTPUT)
def test_cli_output_bytes_pinned(command, digest, capsys):
    assert main(command.split()) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


# sha256 of `spectrum --n 38` stdout (26,015 classes), the size the benchmark's
# spectrum-large workload renders; the same digests as perfbench/reference.json.
PINNED_OUTPUT_38 = [
    ("table", "53c429fa99c3514a3273684a1dec496813495e53bf371966bfad65036c02d6de"),
    ("csv", "bd6a8ec772f10abb8b4641f5415ed2572a8aa61025c6977a5917f402ce04778d"),
    ("json", "d46bbaf014d9b03ecb6b3185dd5d8715b68415950cc13576ff4619f3c52285d2"),
]


@pytest.mark.parametrize("fmt, digest", PINNED_OUTPUT_38)
def test_cli_output_bytes_pinned_n38(fmt, digest, capsys):
    assert main(["spectrum", "--n", "38", "--format", fmt]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "command",
    [command for command, _ in PINNED_OUTPUT if "--format json" in command]
    + ["spectrum --n 15 --kind classical --format json", "spectrum --n 3 --format json"],
)
def test_cli_json_layout_is_json_dumps(command, capsys):
    # the JSON renderer writes row by row; its bytes must be those of
    # json.dumps(indent=2) of the same document ("merges": [] at n = 3)
    assert main(command.split()) == 0
    out = capsys.readouterr().out
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


def test_render_json_spells_values_as_json_does():
    # values no subcommand emits today: non-finite floats, a non-ASCII string,
    # an empty tail table
    rows = [(1, math.nan, 'a\u00e9"'), (2, math.inf, "x"), (3, -math.inf, "y"), (4, 1e-320, "z")]
    text = "".join(_render(JSON, ("n", "v", "s"), columns(rows, 3), lead=[("k", 0.1)],
                           tail=[("empty", ("a",), columns([], 1))]))
    payload = {
        "k": 0.1,
        "rows": [{"n": n, "v": float(f"{v:.6g}"), "s": s} for n, v, s in rows],
        "empty": [],
    }
    assert text == json.dumps(payload, indent=2) + "\n"


def columns(rows, width):
    """The renderer's input for ``rows``: one tuple per header, empty ones for no rows."""
    return list(zip(*rows)) or [()] * width


def reference_render(out, headers, rows, key="rows", lead=(), tail=(), footers=()):
    """The renderer's text, built one cell at a time with the rules of its docstring."""
    spec = f".{out.precision}g"

    def text(value):
        if isinstance(value, bytes):
            return str(partitions.Partition(value))
        return format(value, spec) if isinstance(value, float) else str(value)

    def json_text(value):
        if isinstance(value, float):
            value = float(format(value, spec))
            return float.__repr__(value) if math.isfinite(value) else json.dumps(value)
        if isinstance(value, bytes):
            return "[\n        " + ",\n        ".join(map(str, value)) + "\n      ]"
        if isinstance(value, str):
            return encode_basestring_ascii(value)
        return int.__repr__(value)

    if out.format == "json":
        def records(names, table):
            fields = [f"\n      {encode_basestring_ascii(h)}: " for h in names]
            items = [",".join(f + json_text(v) for f, v in zip(fields, row)) for row in table]
            return "[\n    {" + "\n    },\n    {".join(items) + "\n    }\n  ]" if items else "[]"

        members = [f"{encode_basestring_ascii(k)}: {json_text(v)}" for k, v in lead] + [
            f"{encode_basestring_ascii(k)}: {records(names, table)}"
            for k, names, table in ((key, headers, rows), *tail)
        ]
        return "{\n  " + ",\n  ".join(members) + "\n}\n"
    cells = [tuple(map(text, row)) for row in rows]
    if out.format == "csv":
        buffer = io.StringIO()
        buffer.writelines(f"# {k}={text(v)}\n" for k, v in lead)
        csv.writer(buffer, lineterminator="\n").writerows([headers, *cells])
        return buffer.getvalue()
    widths = [max(map(len, column)) for column in zip(headers, *cells)]
    lines = ["  ".join(c.rjust(w) for c, w in zip(row, widths)) for row in [headers, *cells]]
    return "".join(line.rstrip() + "\n" for line in lines) + "".join(f + "\n" for f in footers)


# Cell values the subcommands emit and some they never do, one type per
# column: each column of a block runs the one converter of its type. The
# strings that csv must quote, or that hold the table's separator, come
# in odd blocks only, so that even blocks take the paths that need neither.
ODD_FLOATS = (0.1, math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e-310, 1 / 3, 1e300)
ODD_STRINGS = ("a,b", 'say "x"', "two\nlines", f"pa{_SEP}cked", "\u00e9", "", " pad ", "cr\r")
BIG = bytes((255, 65, 1))  # parts past those of n <= ENUMERATION_CAP, up to a byte's largest


def odd_rows(count):
    # partitions are cells as the bytes of their parts
    labels = [bytes((3,)), bytes((2, 1)), bytes((64, 64)), bytes((1,) * 9)]
    for i in range(count):
        yield (
            labels[i % 4],
            BIG if i % 700 == 699 else labels[i % 3],
            ODD_FLOATS[i % 9],
            2.0 ** -i + i,
            i * 7919 - 5 * (i % 3) * 10 ** 30,
            ODD_STRINGS[i % 8] if i // _BLOCK % 2 else f"s{i % 8}",
        )


@pytest.mark.parametrize("count", [0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 3 * _BLOCK])
@pytest.mark.parametrize("precision", [1, 6, 17])
@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_render_matches_per_cell_reference(fmt, precision, count):
    out = OutputSpec(format=fmt, precision=precision)
    headers = ("label", "big{0}", "odd", "float", "int", "text")
    more = [("q", 1.5), ("r", math.inf)]
    args = dict(key="rows", lead=[("n", 5), ("x", math.nan), ("s", "a,b")], footers=["end = 1"])
    tail = [("empty", ("a",), columns([], 1)), ("more", ("s", "v"), columns(more, 2))]
    text = "".join(_render(out, headers, columns(odd_rows(count), len(headers)), **args, tail=tail))
    assert text == reference_render(out, headers, odd_rows(count), **args,
                                    tail=[("empty", ("a",), []), ("more", ("s", "v"), more)])


@pytest.mark.parametrize("fmt", ["table", "csv", "json"])
def test_render_rejects_a_column_of_mixed_or_unknown_type(fmt):
    # no subcommand emits a bool or mixes types in a column; the renderer has
    # one converter per type and refuses both, a mixed column also when its
    # str cell is alone in a later block
    out = OutputSpec(format=fmt)
    floats = [i / 7 for i in range(2 * _BLOCK)]
    for mixed in (floats[:3] + ["flag *"] + floats[4:], floats[:_BLOCK] + ["flag *"]):
        with pytest.raises(TypeError):
            "".join(_render(out, ("n", "v"), (range(len(mixed)), mixed)))
    with pytest.raises(TypeError):
        "".join(_render(out, ("n", "b"), (range(5), [i % 2 == 0 for i in range(5)])))


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_render_streams_each_column_a_block_at_a_time(fmt):
    size = 3 * _BLOCK + 1
    read = [0, 0, 0]

    def counted(j, cells):
        for cell in cells:
            read[j] += 1
            yield cell

    cells = (range(size), map(float, range(size)), map(str, range(size)))
    chunks = _render(OutputSpec(format=fmt), ("n", "v", "s"), list(map(counted, range(3), cells)))
    next(chunks)  # the csv header line, or json's opening key
    first = next(chunks)
    assert first.count('"n": ' if fmt == "json" else "\n") == _BLOCK
    assert max(read) <= _BLOCK
    "".join(chunks)
    assert read == [size] * 3


@pytest.mark.parametrize("cell", [",", '"', "\r", "\n", ""])
@pytest.mark.parametrize("headers", [("h",), ("h", "i")])
def test_render_csv_quotes_what_csv_quotes(headers, cell):
    # one cell csv must quote (an empty one only as a row's lone cell), among plain ones
    rows = [tuple(f"{cell}{j}" if cell else "" for j in range(len(headers))), ("a",) * len(headers)]
    text = "".join(_render(CSV, headers, columns(rows, len(headers))))
    assert text == reference_render(CSV, headers, rows)


@pytest.mark.parametrize("value", [2.0, -0.0, 1234567.5, 1e300, 1.5e-323, 1e-310, 0.1, 1 / 3])
@pytest.mark.parametrize("precision", [6, 15, 16, 17])
def test_render_json_floats_as_json_does(precision, value):
    # one value whose %g text is not its JSON text (integer-looking, an e+
    # exponent, subnormal, more digits than a float holds), among plain ones
    out = OutputSpec(format="json", precision=precision)
    rows = [(value,), (0.25,), (1.5e-5,)]
    assert "".join(_render(out, ("v",), columns(rows, 1))) == reference_render(out, ("v",), rows)


def test_render_table_holds_no_cells(monkeypatch):
    # The table once held every row's cells to size its columns: a tuple and
    # five str objects per row, a 14 MiB peak at n = 40 (37,338 rows). It now
    # holds each block's columns joined into one string each, less text than
    # the padded output, plus the block in hand: about 3.3 MiB, below the
    # 5.2 MB of its own output, which the cells exceeded almost threefold.
    report = spectrum.quantum_spectrum(40)
    monkeypatch.setattr(spectrum, "quantum_spectrum", lambda n: report)
    chunks = cmd_spectrum(40, "quantum", 0.5, TABLE)
    size = 0
    tracemalloc.start()
    try:
        for chunk in chunks:
            size += len(chunk)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= size


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "p(100)=190569292: ok" in out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_fractions_loaded_only_when_a_fraction_is_made():
    # a fresh interpreter: fractions, which imports decimal and numbers, is
    # left unloaded by the CLI until a probability or verify needs it
    code = (
        "import sys\n"
        "import zenochain.cli\n"
        "print('fractions' in sys.modules)\n"
        "print(zenochain.quantum_spectrum(3).classes[1].probability)\n"
        "print('fractions' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["False", "1/2", "True"]


def test_verify_catches_tampering(monkeypatch, capsys):
    # a broken intensity rule must be caught, proving the checks exercise
    # the real implementation rather than stored constants
    real = apparatus.quantum_intensity

    def crooked(config):
        value = real(config)
        return value * 0.999 if value > 0 else value

    with monkeypatch.context() as patch:
        patch.setattr(apparatus, "quantum_intensity", crooked)
        assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "some checks FAILED" in out

    # an oracle that returns NaN passes no tolerance check
    monkeypatch.setattr(apparatus, "simulate_intensity", lambda config: math.nan)
    assert main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert "oracle max |difference| (n<=16)=nan (expected <= 1e-12): FAIL" in lines
    assert lines[-1] == "some checks FAILED"


def test_output_spec_validation():
    with pytest.raises(ValueError):
        OutputSpec(format="yaml")
    with pytest.raises(ValueError):
        OutputSpec(precision=0)
    with pytest.raises(ValueError):
        OutputSpec(precision=18)


def test_output_spec_takes_an_integer_precision():
    # a float or a string precision once passed here and failed mid-render
    for precision in (6.0, 6.5, "6"):
        with pytest.raises(TypeError):
            OutputSpec(format="csv", precision=precision)
    spec = OutputSpec(format="csv", precision=True)
    assert spec.precision == 1 and type(spec.precision) is int


def test_cmd_verify_text_is_line_per_check():
    text, ok = cmd_verify()
    assert ok
    lines = text.splitlines()
    assert lines[-1] == "all checks passed"
    for line in lines[:-1]:
        assert line.endswith(": ok")
