import csv
import hashlib
import io
import json
import math

import pytest

from zenochain import apparatus, spectrum
from zenochain.cli import (
    OutputSpec,
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
    text = cmd_partitions(10, TABLE)
    lines = text.splitlines()
    assert lines[0].split() == ["n", "p_n"]
    assert len(lines) == 11
    assert lines[1].split() == ["1", "1"]
    assert lines[10].split() == ["10", "42"]


def test_partitions_csv_roundtrip():
    _, header, rows = parse_csv(cmd_partitions(100, CSV))
    assert header == ["n", "p_n"]
    assert len(rows) == 100
    assert rows[99] == ["100", "190569292"]
    # full decimal digits, never scientific notation
    assert all("e" not in cell and "E" not in cell for row in rows for cell in row)


def test_partitions_json():
    payload = json.loads(cmd_partitions(10, JSON))
    assert payload["rows"][2] == {"n": 3, "p_n": 3}
    assert payload["rows"][9] == {"n": 10, "p_n": 42}


def test_partitions_rejects_zero():
    with pytest.raises(ValueError):
        cmd_partitions(0, TABLE)


def test_spectrum_table_n3():
    text = cmd_spectrum(3, "quantum", 0.5, TABLE)
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
    meta, header, rows = parse_csv(cmd_spectrum(5, "quantum", 0.5, CSV))
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
    meta, _, rows = parse_csv(cmd_spectrum(15, "quantum", 0.5, CSV))
    assert meta["merges"] == "1"
    assert len(rows) == 175


def test_spectrum_table_merge_footer():
    text = cmd_spectrum(15, "quantum", 0.5, TABLE)
    assert "merged 8+4+2+1 into 7+6+1+1 (same intensity)" in text


def test_spectrum_json_schema():
    payload = json.loads(cmd_spectrum(3, "quantum", 0.5, JSON))
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
    payload = json.loads(cmd_spectrum(3, "classical", 0.5, JSON))
    assert [c["label"] for c in payload["classes"]] == [0, 1, 2, 3]
    assert [c["count"] for c in payload["classes"]] == [1, 3, 3, 1]
    assert payload["entropy_bits"] == pytest.approx(1.81128, abs=1e-5)
    text = cmd_spectrum(3, "classical", 0.25, CSV)
    _, _, rows = parse_csv(text)
    assert [row[1] for row in rows] == ["1", "0.25", "0.0625", "0.015625"]


def test_spectrum_precision_flag():
    text = cmd_spectrum(3, "quantum", 0.5, OutputSpec(format="csv", precision=3))
    _, _, rows = parse_csv(text)
    assert rows[0][1] == "0.422"
    full = cmd_spectrum(3, "quantum", 0.5, OutputSpec(format="csv", precision=17))
    _, _, rows17 = parse_csv(full)
    assert float(rows17[0][1]) == spectrum.quantum_spectrum(3).classes[0].intensity


def test_compare_series():
    meta_free = cmd_compare(1, 10, CSV)
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
    payload = json.loads(cmd_compare(2, 4, JSON))
    assert [row["n"] for row in payload["rows"]] == [2, 3, 4]
    assert payload["rows"][1]["entropy_quantum_bits"] == 1.5


def test_zeno_output():
    meta, header, rows = parse_csv(cmd_zeno([1, 3, 10_000], CSV))
    assert header == ["n", "survival", "lower_bound"]
    assert rows[0][0] == "1" and float(rows[0][1]) == 0.0
    assert float(rows[0][2]) < 0.0
    assert float(rows[1][1]) == pytest.approx(27 / 64, abs=1e-6)
    assert float(rows[2][1]) >= 0.999753
    for row in rows[1:]:
        assert float(row[1]) >= float(row[2])


def test_zeno_table_flags_small_n():
    text = cmd_zeno([1, 3], TABLE)
    assert "*" in text
    assert "bound applies for n >= 2 only" in text
    clean = cmd_zeno([3, 4], TABLE)
    assert "*" not in clean


def test_cli_exit_codes(capsys, tmp_path):
    assert main(["partitions", "--n-max", "6"]) == 0
    capsys.readouterr()
    assert main(["partitions", "--n-max", "10001"]) == 1
    err = capsys.readouterr().err
    assert "10000" in err
    assert main(["spectrum", "--n", "65"]) == 1
    capsys.readouterr()
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


def test_cli_writes_file(capsys, tmp_path):
    target = tmp_path / "out.csv"
    assert main(["spectrum", "--n", "4", "--format", "csv", "--out", str(target)]) == 0
    captured = capsys.readouterr()
    assert captured.out == ""
    text = target.read_text(encoding="utf-8")
    assert text == cmd_spectrum(4, "quantum", 0.5, CSV)


def test_cli_stdout_matches_cmd(capsys):
    assert main(["zeno", "--n", "2", "8", "--format", "json", "--precision", "9"]) == 0
    out = capsys.readouterr().out
    assert out == cmd_zeno([2, 8], OutputSpec(format="json", precision=9))


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


def test_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "p(100)=190569292: ok" in out
    assert "all checks passed" in out
    assert "FAIL" not in out


def test_verify_catches_tampering(monkeypatch, capsys):
    # a broken intensity rule must be caught, proving the checks exercise
    # the real implementation rather than stored constants
    real = apparatus.quantum_intensity

    def crooked(config):
        value = real(config)
        return value * 0.999 if value > 0 else value

    monkeypatch.setattr(apparatus, "quantum_intensity", crooked)
    assert main(["verify"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "some checks FAILED" in out


def test_output_spec_validation():
    with pytest.raises(ValueError):
        OutputSpec(format="yaml")
    with pytest.raises(ValueError):
        OutputSpec(precision=0)
    with pytest.raises(ValueError):
        OutputSpec(precision=18)


def test_cmd_verify_text_is_line_per_check():
    text, ok = cmd_verify()
    assert ok
    lines = text.splitlines()
    assert lines[-1] == "all checks passed"
    for line in lines[:-1]:
        assert line.endswith(": ok")
