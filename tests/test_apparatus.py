import hashlib
import math
import random
import tracemalloc

import pytest

from zenochain import apparatus, spectrum
from zenochain.apparatus import (
    ApparatusConfig,
    classical_intensity,
    gaps,
    quantum_intensity,
    simulate_intensity,
    zeno_survival,
)
from zenochain.partitions import ENUMERATION_CAP, _partition_columns
from zenochain.spectrum import brute_force_spectrum

# exact transmitted intensities for every 3-slot configuration, in
# slot-string order 000..111
N3_EXPECTED = (0.0, 0.0, 3 / 16, 3 / 16, 3 / 16, 3 / 16, 27 / 64, 27 / 64)


def all_configs(n):
    return (ApparatusConfig.from_index(n, index) for index in range(2 ** n))


def test_config_from_bits():
    config = ApparatusConfig.from_bits("010")
    assert config.n == 3
    assert config.present == (0, 1, 0)
    assert config.installed == 1
    assert config.bits() == "010"


@pytest.mark.parametrize("bits", ["\uff11\u0660", " 1", "1_", "2", "0x1", "1\n"])
def test_config_from_bits_takes_ascii_bits_only(bits):
    # a fullwidth 1 and an Arabic-Indic 0 are digits to int(), but no bits
    with pytest.raises(ValueError, match="presence bits must be 0 or 1"):
        ApparatusConfig.from_bits(bits)


def test_config_from_bits_rejects_empty_string():
    with pytest.raises(ValueError, match="n must be >= 1"):
        ApparatusConfig.from_bits("")


def test_config_from_index_bit_order():
    assert ApparatusConfig.from_index(3, 1).present == (1, 0, 0)
    assert ApparatusConfig.from_index(3, 4).present == (0, 0, 1)


def test_config_from_index_equals_validated_constructor():
    for n in range(1, 13):
        for index in range(2 ** n):
            built = ApparatusConfig.from_index(n, index)
            bits = tuple((index >> i) & 1 for i in range(n))  # slot 1 is bit 0
            validated = ApparatusConfig(n, bits)
            assert built == validated
            assert hash(built) == hash(validated)
            assert repr(built) == repr(validated)
            assert all(type(b) is int for b in built.present)
            assert type(built.n) is int


@pytest.mark.parametrize(
    "n,index,error",
    [
        (0, 0, ValueError),
        (-1, 0, ValueError),
        (3, -1, ValueError),
        (3, 8, ValueError),
        (3, 1.5, TypeError),
        (2.0, 1, TypeError),
        ("3", 1, TypeError),
    ],
)
def test_config_from_index_rejects(n, index, error):
    with pytest.raises(error):
        ApparatusConfig.from_index(n, index)


def test_config_validation():
    with pytest.raises(ValueError):
        ApparatusConfig(0, ())
    with pytest.raises(ValueError):
        ApparatusConfig(2, (1,))
    # bits are checked as given, never truncated or parsed; strings go
    # through from_bits
    for present in ((1, 2), (-1, 0), (0.5, 1), (1.9, 0), ("0", "1"), (float("nan"), 1), ([1], 0)):
        with pytest.raises(ValueError):
            ApparatusConfig(2, present)
    assert ApparatusConfig(2, (True, False)).present == (1, 0)
    assert type(ApparatusConfig(2, (True, 1.0)).present[0]) is int
    with pytest.raises(ValueError):
        ApparatusConfig.from_index(3, 8)
    # a bool n counts as its int and is stored as one, by the constructor
    # too; any other non-integer n raises, as in from_index
    assert type(ApparatusConfig.from_index(True, 1).n) is int
    assert repr(ApparatusConfig(True, (1,))) == "ApparatusConfig(n=1, present=(1,))"
    with pytest.raises(TypeError):
        ApparatusConfig(2.0, (1, 0))
    with pytest.raises(ValueError):
        ApparatusConfig.from_bits("0x1")


@pytest.mark.parametrize(
    "bits,expected",
    [
        ("000", (3,)),
        ("001", (3,)),
        ("010", (2, 1)),
        ("100", (1, 2)),
        ("101", (1, 2)),
        ("111", (1, 1, 1)),
        ("0100", (2, 2)),
        ("1", (1,)),
        ("0", (1,)),
    ],
)
def test_gaps_examples(bits, expected):
    assert gaps(ApparatusConfig.from_bits(bits)) == expected


def test_gaps_drop_redundant_final_projection():
    # slot n installed: the detector's own projection adds no gap
    with_last = gaps(ApparatusConfig.from_bits("011"))
    without_last = gaps(ApparatusConfig.from_bits("010"))
    assert with_last == without_last


@pytest.mark.parametrize("n", range(1, 11))
def test_gaps_always_sum_to_n(n):
    for config in all_configs(n):
        composition = gaps(config)
        assert type(composition) is tuple
        assert sum(composition) == n
        assert all(type(part) is int and part >= 1 for part in composition)


def test_n3_intensities_exact_table():
    for index, expected in enumerate(N3_EXPECTED):
        config = ApparatusConfig.from_bits(format(index, "03b"))
        assert quantum_intensity(config) == pytest.approx(expected, abs=1e-12)


def test_exact_zero_only_for_full_span():
    # a gap covering the whole chain delivers the beam fully vertical;
    # quantum_intensity reports that as an exact 0.0 and nothing else
    for n in range(1, 11):
        for config in all_configs(n):
            value = quantum_intensity(config)
            if gaps(config) == (n,):
                assert value == 0.0
            else:
                assert value > 0.0


def test_single_slot_chain():
    assert quantum_intensity(ApparatusConfig.from_bits("0")) == 0.0
    assert quantum_intensity(ApparatusConfig.from_bits("1")) == 0.0
    assert simulate_intensity(ApparatusConfig.from_bits("0")) == pytest.approx(0.0, abs=1e-12)


def test_intensity_depends_only_on_gap_multiset():
    # pairs whose gap compositions are permutations of each other
    pairs = [("100", "010"), ("10000", "00010"), ("1001000", "0011000")]
    for left, right in pairs:
        a = ApparatusConfig.from_bits(left)
        b = ApparatusConfig.from_bits(right)
        assert sorted(gaps(a)) == sorted(gaps(b))
        assert quantum_intensity(a) == pytest.approx(quantum_intensity(b), abs=1e-15)


@pytest.mark.parametrize("n", range(1, 13))
def test_simulation_agrees_exhaustively(n):
    for config in all_configs(n):
        assert abs(quantum_intensity(config) - simulate_intensity(config)) <= 1e-12


def test_simulation_agrees_on_random_large_configs():
    rng = random.Random(1905)
    worst = 0.0
    for _ in range(100_000):
        n = rng.randint(17, 64)
        config = ApparatusConfig.from_index(n, rng.getrandbits(n))
        worst = max(worst, abs(quantum_intensity(config) - simulate_intensity(config)))
    assert worst <= 1e-12


def test_oracle_bits_pinned():
    # sha256 of the exact float reprs: a change to the oracle's float
    # operations or their order shows here, where the tests above only see
    # differences beyond 1e-12
    sims = "\n".join(
        repr(simulate_intensity(config)) for n in range(1, 13) for config in all_configs(n)
    )
    assert hashlib.sha256(sims.encode()).hexdigest() == (
        "c41dd1a1e9db200b73bd33a6ee52227d71444b7ed0fb1868ae96ac0b8f1aed41"
    )
    closed = "\n".join(
        f"{quantum_intensity(config)!r}|{gaps(config)!r}"
        for n in range(1, 13)
        for config in all_configs(n)
    )
    assert hashlib.sha256(closed.encode()).hexdigest() == (
        "3d2ffb472bf19d2ccb68782d2732713b62e1f596cd19d7543faba12e0b7ed631"
    )
    # n = 1..15 includes the first merged collision, at n = 15
    reports = "\n".join(repr(brute_force_spectrum(n)) for n in range(1, 16))
    assert hashlib.sha256(reports.encode()).hexdigest() == (
        "f2929a25240d61e9ad9e62139bef4b2e61d418e5d9d90eeea16154ecef6edf6e"
    )


def _per_gap_cos_product(config):
    # the gap-product rule evaluated factor by factor, one math.cos per gap
    n = config.n
    result = 1.0
    for g in gaps(config):
        if g == n:
            return 0.0
        c = math.cos(g * math.pi / (2.0 * n))
        result *= c * c
    return result


def test_quantum_intensity_bits_equal_per_gap_cos_product():
    # the memoized table must change no bit of the rule evaluated per gap
    for n in range(1, 17):
        for config in all_configs(n):
            assert quantum_intensity(config) == _per_gap_cos_product(config)
    rng = random.Random(2718)
    sizes = [rng.randint(17, 64) for _ in range(5_000)] + [200] * 500
    for n in sizes:
        config = ApparatusConfig.from_index(n, rng.getrandbits(n))
        assert quantum_intensity(config) == _per_gap_cos_product(config)


def test_cos_sq_memo_stays_bounded():
    limit = apparatus._cos_sq.cache_info().maxsize
    assert ENUMERATION_CAP <= limit  # every spectrum size fits at once
    for n in range(1, 301):
        quantum_intensity(ApparatusConfig.from_index(n, (1 << n) - 1))
        assert apparatus._cos_sq.cache_info().currsize <= limit
    table = apparatus._cos_sq(300)
    assert type(table) is tuple and len(table) == 301
    assert table[0] == table[300] == 0.0


def test_cos_sq_memo_keeps_no_table_past_its_cap():
    rng = random.Random(100_000)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for n in range(100_000, 100_010):
            config = ApparatusConfig.from_index(n, rng.getrandbits(n))
            assert 0.0 <= quantum_intensity(config) < 1.0
        del config
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20  # a table per chain held 30.5 MiB here
    # past the cap each factor is evaluated alone, with the table's bits
    for n in (65, 200):
        config = ApparatusConfig.from_index(n, rng.getrandbits(n))
        assert quantum_intensity(config) == math.prod(apparatus._cos_sq(n)[g] for g in gaps(config))


def test_quantum_spectrum_weights_are_the_memo_table(monkeypatch):
    seen = []

    def recording_walk(n, weights):
        seen.append(weights)
        return _partition_columns(n, weights)

    monkeypatch.setattr(spectrum, "_partition_columns", recording_walk)
    monkeypatch.setattr(spectrum, "_quantum_cache", {})
    for n in (1, 7, 40):
        spectrum.quantum_spectrum(n)
        assert seen[-1] is apparatus._cos_sq(n)


def test_last_slot_polarizer_is_redundant():
    # flipping slot n never changes the intensity: the detector projects anyway
    for n in range(1, 11):
        for index in range(2 ** (n - 1)):
            low = ApparatusConfig.from_index(n, index)
            high = ApparatusConfig.from_index(n, index | (1 << (n - 1)))
            assert quantum_intensity(low) == quantum_intensity(high)
            assert simulate_intensity(low) == pytest.approx(
                simulate_intensity(high), abs=1e-12
            )


def test_classical_intensity():
    config = ApparatusConfig.from_bits("111")
    assert classical_intensity(config, 0.75) == pytest.approx(27 / 64)
    assert classical_intensity(ApparatusConfig.from_bits("000"), 0.3) == 1.0
    assert classical_intensity(ApparatusConfig.from_bits("010"), 0.5) == 0.5


def test_classical_intensity_position_blind():
    for bits in ("0011", "0101", "1100", "1010"):
        assert classical_intensity(ApparatusConfig.from_bits(bits), 0.6) == pytest.approx(0.36)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.1, 1.5])
def test_classical_intensity_rejects_bad_alpha(alpha):
    with pytest.raises(ValueError):
        classical_intensity(ApparatusConfig.from_bits("01"), alpha)


def test_zeno_survival_values():
    assert zeno_survival(1) == 0.0
    assert zeno_survival(2) == pytest.approx(0.25, abs=1e-15)
    assert zeno_survival(3) == pytest.approx(27 / 64, abs=1e-12)
    assert zeno_survival(10_000) >= 0.999753


def test_zeno_survival_rejects_zero():
    with pytest.raises(ValueError):
        zeno_survival(0)
    # too large to convert to a float: a ValueError, not an OverflowError
    with pytest.raises(ValueError, match="largest float"):
        zeno_survival(10 ** 400)


def test_zeno_survival_takes_integers_only():
    # the size rule of every entry point: a bool counts as its int
    for bad in (2.5, 2.0, "2"):
        with pytest.raises(TypeError):
            zeno_survival(bad)
    assert zeno_survival(True) == zeno_survival(1) == 0.0


def test_zeno_survival_nondecreasing():
    values = [zeno_survival(n) for n in range(1, 501)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_zeno_survival_lower_bound():
    for n in range(2, 501):
        assert zeno_survival(n) >= 1.0 - math.pi ** 2 / (4.0 * n)


def test_zeno_survival_matches_full_configuration():
    for n in (1, 2, 5, 17, 33, 64):
        full = ApparatusConfig(n, (1,) * n)
        assert zeno_survival(n) == pytest.approx(quantum_intensity(full), abs=1e-15)
