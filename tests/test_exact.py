"""Exact rational / p-adic digit arithmetic."""

import cmath
import math
import random
import time
from fractions import Fraction as F

import pytest

from hydramaps import (
    INFINITY,
    Frequency,
    NotPIntegralError,
    PAdicTrunc,
    Place,
    abs_at_place,
    abs_finite,
    character_angle,
    character_eval,
    crt_split,
    digit_expansion,
    drop_lowest_digit,
    format_rational,
    fractional_part,
    frequencies_through_level,
    parse_rational,
    residue_mod,
    unit_factorization,
    unit_part,
    unit_root,
    valuation,
)
from hydramaps import exact
from hydramaps.errors import MapSpecError, ResourceLimitError, _guard_size


def _random_rational(rng, span=400):
    num = rng.randint(-span, span)
    den = rng.randint(1, span)
    return F(num, den)


# ---------------------------------------------------------------------------
# primality

# the least strong pseudoprimes to the first 12 and 13 prime bases
PSI_12 = 399165290221 * 798330580441
PSI_13 = 1287836182261 * 2575672364521


def test_is_prime_at_the_pseudoprimes():
    assert PSI_12 == 318665857834031151167461
    assert not exact.is_prime(PSI_12)
    assert exact.is_prime(798330580441)
    with pytest.raises(ValueError, match="prime"):
        Place.finite(PSI_12)
    # Miller-Rabin on the 13 bases cannot tell psi_13 from a prime, so
    # no place is built from it on
    assert PSI_13 == 3317044064679887385961981
    with pytest.raises(ValueError, match="cannot prove"):
        Place.finite(PSI_13)


# ---------------------------------------------------------------------------
# valuations

def test_valuation_examples():
    assert valuation(12, 2) == 2
    assert valuation(F(1, 6), 3) == -1
    assert valuation(0, 5) is INFINITY


def test_valuation_requires_prime():
    with pytest.raises(ValueError):
        valuation(5, 6)


def test_infinite_valuation_is_a_sentinel_not_a_float():
    v = valuation(0, 5)
    assert not isinstance(v, float)
    assert v > 10 ** 100
    assert v + 17 is INFINITY
    assert v == INFINITY and not v < INFINITY


def test_valuation_is_additive():
    rng = random.Random(11)
    for _ in range(300):
        r, s = _random_rational(rng), _random_rational(rng)
        for p in (2, 3, 5):
            lhs = valuation(r * s, p)
            rhs = valuation(r, p) + valuation(s, p)
            assert lhs == rhs


# ---------------------------------------------------------------------------
# absolute values

def test_abs_at_place_examples():
    assert abs_at_place(F(1, 2), Place.finite(3)) == 1
    for q in (2, 3, 5):
        assert abs_at_place(q, Place.finite(q)) == F(1, q)
    assert abs_at_place(F(-3, 2), Place.archimedean()) == F(3, 2)


def test_prime_power_exact_and_float_views():
    v = abs_finite(F(1, 2), 2)
    assert type(v) is F
    assert v == 2
    assert float(v) == 2.0
    zero = abs_finite(0, 7)
    assert type(zero) is F
    assert zero == 0 and float(zero) == 0.0


def test_abs_multiplicative_1000_pairs():
    rng = random.Random(7)
    places = [Place.finite(2), Place.finite(3), Place.archimedean()]
    for _ in range(1000):
        r, s = _random_rational(rng), _random_rational(rng)
        for place in places:
            lhs = abs_at_place(r * s, place)
            rhs = abs_at_place(r, place) * abs_at_place(s, place)
            assert type(lhs) is F and lhs == rhs


def test_ultrametric_inequality():
    rng = random.Random(13)
    for _ in range(500):
        r, s = _random_rational(rng), _random_rational(rng)
        for q in (2, 3, 5):
            ar = abs_finite(r, q)
            as_ = abs_finite(s, q)
            total = abs_finite(r + s, q)
            assert total <= max(ar, as_)
            if ar != as_:
                assert total == max(ar, as_)


# ---------------------------------------------------------------------------
# residues

def test_residue_mod_examples():
    assert residue_mod(-1, 2, 3) == 7
    assert residue_mod(F(-1, 3), 2, 2) == 1
    assert residue_mod(34, 3, 3) == 7


def test_residue_mod_against_brute_force():
    # solve den*x == num (mod p^n) by scanning all residues
    rng = random.Random(17)
    for _ in range(100):
        r = _random_rational(rng, 60)
        for p, n in ((2, 3), (3, 2), (5, 2)):
            if math.gcd(r.denominator, p) != 1:
                continue
            got = residue_mod(r, p, n)
            size = p ** n
            matches = [x for x in range(size)
                       if (r.denominator * x - r.numerator) % size == 0]
            assert matches == [got]


def test_residue_mod_compatibility_down_levels():
    rng = random.Random(19)
    for _ in range(200):
        r = _random_rational(rng)
        for p in (2, 3):
            if math.gcd(r.denominator, p) != 1:
                continue
            for n in range(5):
                for m in range(n + 1):
                    assert (residue_mod(r, p, n) - residue_mod(r, p, m)) \
                        % p ** m == 0


def test_residue_mod_rejects_non_integral():
    with pytest.raises(NotPIntegralError):
        residue_mod(F(1, 2), 2, 3)


# ---------------------------------------------------------------------------
# digit expansions

def test_digit_expansion_examples():
    e = digit_expansion(-1, 2)
    assert e.preperiod == () and e.period == (1,)
    e = digit_expansion(F(-1, 3), 2)
    assert e.preperiod == () and e.period == (1, 0)
    e = digit_expansion(6, 2)
    assert e.preperiod == (0, 1, 1) and e.period == (0,)


def test_digit_expansion_rejects_non_integral():
    # the integer loop makes this check itself, at prime and composite bases
    with pytest.raises(NotPIntegralError, match="1/2 is not 2-integral"):
        digit_expansion(F(1, 2), 2)
    with pytest.raises(NotPIntegralError, match="1/3 is not 6-integral"):
        digit_expansion(F(1, 3), 6)
    with pytest.raises(NotPIntegralError):
        digit_expansion(F(-5, 12), 6)


def test_guard_size_decides_without_the_power():
    # 3**(5 * 10**6) took about 1.5 s to build before the comparison
    start = time.perf_counter()
    with pytest.raises(ResourceLimitError,
                       match=r"3\*\*5000000 frequencies exceed"):
        _guard_size(3, 5 * 10 ** 6, "frequencies")
    assert time.perf_counter() - start < 0.05


def test_digit_expansion_cap(monkeypatch):
    # with the cap lowered to 18 digits, -1/19 (period 18) still fits and
    # 1/19 (one more digit before the period) is refused
    monkeypatch.setattr(exact, "ENUMERATION_CAP", 18)
    assert len(digit_expansion(F(-1, 19), 2).period) == 18
    with pytest.raises(ResourceLimitError, match="18-digit cap"):
        digit_expansion(F(1, 19), 2)


def test_digit_expansion_digits_match_residues():
    # digit k = (residue at k+1 - residue at k) / p^k
    for r in (F(-1, 3), F(5, 7), F(-22, 9), F(6)):
        e = digit_expansion(r, 2)
        for k in range(10):
            want = (residue_mod(r, 2, k + 1) - residue_mod(r, 2, k)) // 2 ** k
            assert e.digit(k) == want


def test_digit_expansion_roundtrip_200_samples():
    rng = random.Random(23)
    done = 0
    while done < 200:
        r = _random_rational(rng)
        p = rng.choice((2, 3, 5))
        if math.gcd(r.denominator, p) != 1:
            continue
        e = digit_expansion(r, p)
        assert e.to_rational() == r
        done += 1


def test_truncate_agrees_with_residue_mod():
    for r in (F(-1, 3), F(-3, 7), F(21, 5)):
        e = digit_expansion(r, 2)
        for depth in range(12):
            assert e.truncate(depth).value == residue_mod(r, 2, depth)


# ---------------------------------------------------------------------------
# the shift map

def test_shift_examples():
    assert drop_lowest_digit(F(-1, 3), 2) == F(-2, 3)
    t = PAdicTrunc(2, (1, 0, 1))
    assert drop_lowest_digit(t) == PAdicTrunc(2, (0, 1))
    assert drop_lowest_digit(F(-1), 2) == F(-1)


def test_shift_zero_depth_rejected():
    with pytest.raises(ValueError):
        drop_lowest_digit(PAdicTrunc(2, ()))


def test_shift_on_expansions():
    e = digit_expansion(F(-1, 3), 2)
    assert drop_lowest_digit(e).to_rational() == F(-2, 3)


# ---------------------------------------------------------------------------
# fractional part

def test_fractional_part_examples():
    assert fractional_part(F(27, 4), 2) == F(3, 4)
    assert fractional_part(F(1, 3), 2) == 0
    assert fractional_part(F(1, 6), 6) == F(1, 6)
    # the composite case really is the sum of the prime parts mod 1
    assert (fractional_part(F(1, 6), 2) + fractional_part(F(1, 6), 3)) % 1 \
        == F(1, 6)


def test_fractional_part_leaves_an_integral_difference():
    rng = random.Random(29)
    for _ in range(300):
        x = _random_rational(rng)
        for q in (2, 3, 5):
            diff = x - fractional_part(x, q)
            assert valuation(diff, q) >= 0


# ---------------------------------------------------------------------------
# characters

def test_character_examples():
    assert abs(character_eval(Frequency(2, F(1, 2)), 3) - (-1)) < 1e-12
    assert character_eval(Frequency(3, F(0)), F(5, 7)) == 1
    # t*x = 1/6 and 1/6 - 2/3 = -1/2 is 3-integral, so the angle is 2/3
    want = cmath.exp(2j * cmath.pi * F(2, 3))
    assert abs(character_eval(Frequency(3, F(1, 3)), F(1, 2)) - want) < 1e-12


def test_character_angle_is_exact_homomorphism():
    # angles are exact rationals, so the homomorphism law is testable
    # without any float tolerance
    rng = random.Random(31)
    for q in (2, 3):
        for n in range(4):
            for t in frequencies_through_level(q, n):
                for _ in range(5):
                    z1 = rng.randint(-50, 50)
                    z2 = rng.randint(-50, 50)
                    lhs = character_angle(t, z1 + z2)
                    rhs = (character_angle(t, z1)
                           + character_angle(t, z2)) % 1
                    assert lhs == rhs


def test_character_needs_deep_enough_truncation():
    t = Frequency(2, F(1, 4))
    with pytest.raises(ValueError):
        character_eval(t, PAdicTrunc(2, (1,)))
    assert abs(character_eval(t, PAdicTrunc(2, (1, 0)))
               - unit_root(F(1, 4))) < 1e-12


# ---------------------------------------------------------------------------
# unit parts and factorization

def test_unit_part_examples():
    assert unit_part(12, 2) == 3
    assert unit_part(F(1, 6), 3) == F(1, 2)
    assert unit_part(0, 7) == 0


def test_unit_factorization_examples():
    assert unit_factorization(F(3, 2), {3}) == (3, F(1, 2))
    assert unit_factorization(6, {2, 3}) == (6, 1)
    assert unit_factorization(F(5, 4), {3}) == (1, F(5, 4))


def test_unit_factorization_properties():
    rng = random.Random(37)
    for _ in range(200):
        r = _random_rational(rng)
        if r == 0:
            continue
        mu, u = unit_factorization(r, {2, 3})
        assert mu * u == r
        for q in (2, 3):
            assert valuation(u, q) == 0
            z = _random_rational(rng)
            if z == 0:
                continue
            assert valuation(r * z, q) == valuation(mu * z, q)


def test_unit_factorization_rejects_zero():
    with pytest.raises(ValueError):
        unit_factorization(0, {2})


# ---------------------------------------------------------------------------
# CRT splitting

def test_crt_split_examples():
    x = PAdicTrunc.from_int(7, 12, 1)
    assert crt_split(x, 3).value == 1 and crt_split(x, 3).base == 3
    assert crt_split(x, 2).value == 3 and crt_split(x, 2).base == 4
    y = PAdicTrunc.from_int(34, 12, 2)
    three_part = crt_split(y, 3)
    assert (three_part.value, three_part.base, three_part.depth) == (7, 3, 2)
    two_part = crt_split(y, 2)
    assert (two_part.value, two_part.base, two_part.depth) == (2, 4, 2)


def test_crt_split_reassembles():
    for value in (0, 7, 34, 100, 143):
        x = PAdicTrunc.from_int(value % 144, 12, 2)
        a = crt_split(x, 2)   # mod 16
        b = crt_split(x, 3)   # mod 9
        rec = next(z for z in range(144)
                   if z % 16 == a.value and z % 9 == b.value)
        assert rec == x.value


def test_crt_split_requires_dividing_prime():
    with pytest.raises(ValueError):
        crt_split(PAdicTrunc.from_int(7, 12, 1), 5)


# ---------------------------------------------------------------------------
# frequencies

def test_frequency_levels_and_count():
    assert Frequency(3, F(0)).level == 0
    assert Frequency(3, F(2, 9)).level == 2
    for q, n in ((2, 3), (3, 2)):
        freqs = frequencies_through_level(q, n)
        assert len(freqs) == q ** n
        assert len(set(f.value for f in freqs)) == q ** n


def test_frequency_addition_mod_one():
    a = Frequency(3, F(2, 3))
    b = Frequency(3, F(2, 3))
    assert (a + b).value == F(1, 3)
    assert (-a).value == F(1, 3)


def test_frequency_rejects_bad_values():
    with pytest.raises(ValueError):
        Frequency(4, F(1, 4))      # composite base
    with pytest.raises(ValueError):
        Frequency(3, F(1, 2))      # denominator not a power of 3


# ---------------------------------------------------------------------------
# serialization

def test_rational_strings_roundtrip():
    for text in ("3/4", "-3/4", "0", "17", "-1/1000"):
        assert format_rational(parse_rational(text)) == \
            format_rational(F(text))
    assert parse_rational("6/4") == F(3, 2)
    assert parse_rational("+3/4") == F(3, 4)
    assert parse_rational("\u22123/4") == F(-3, 4)
    assert parse_rational(" 17 ") == 17
    # only a/b and a: decimal and exponent forms are refused before any
    # power of ten is built
    for text in ("three halves", "0.5", "1e3", "1e-3", "1_000",
                 "3 / 4", "1/-2", "3/0"):
        with pytest.raises(MapSpecError):
            parse_rational(text)


def test_trunc_roundtrip():
    t = PAdicTrunc.from_int(21, 2, 6)
    assert t.digits == (1, 0, 1, 0, 1, 0)
    assert t.value == 21
    assert t.depth == 6
