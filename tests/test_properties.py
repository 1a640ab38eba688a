"""Property tests over random integer-closed hydra maps.

Branch j of a drawn map is z -> (a_j/p)*z + c_j with p in {2, 3, 5},
a_j a nonzero integer of either sign, and c_j chosen so that
H_j(j) = r_j*j + c_j is an integer, which makes the map integer-closed.
Budgets and bounds are drawn small, so orbits stop at the step budget,
at the escape bound, and at starts that lie past the bound.  The Fourier
properties draw maps with p in {2, 3}, a prime q not dividing p, one
multiplier +-q and the others prime to q, so that the level solve's
preconditions hold at q.  The runs are derandomized, so every run checks
the same examples.
"""

import cmath
import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hydramaps import (
    STATUS_ESCAPED,
    AffineMap,
    DigitString,
    NotPIntegralError,
    PAdicTrunc,
    Place,
    PreconditionError,
    build_hydra,
    charfn_solve,
    charfn_table_estimate,
    compose_branches,
    digit_expansion,
    find_cycles,
    numen_of_nat,
    numen_of_rational,
    numen_of_trunc,
    orbit,
    orbit_class_partition,
    periodic_word_value,
    prob_empirical,
    prob_inversion,
    reverse_scan,
)
from hydramaps.fourier import _series_values

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None,
                    database=None)


@st.composite
def hydra_maps(draw):
    p = draw(st.sampled_from([2, 3, 5]))
    specs = []
    for j in range(p):
        a = draw(st.integers(-12, 12).filter(bool))
        k = draw(st.integers(-3, 3))
        specs.append((Fraction(a, p), Fraction(-a * j, p) + k))
    return build_hydra(p, specs)


@st.composite
def censuses(draw):
    """(map, lo, hi, max_steps, escape_bound)."""
    H = draw(hydra_maps())
    lo = draw(st.integers(-1500, 1500))
    hi = lo + draw(st.integers(0, 60))
    max_steps = draw(st.integers(1, 60))
    escape_bound = draw(st.integers(0, 60) | st.integers(10 ** 3, 10 ** 6))
    return H, lo, hi, max_steps, escape_bound


@PROPERTY
@given(hydra_maps(), st.lists(st.integers(-10 ** 40, 10 ** 40), min_size=1,
                              max_size=20))
def test_apply_is_the_exact_branch_value(H, zs):
    for z in zs:
        image = H.apply(z)
        assert type(image) is int
        assert image == H.branches[z % H.modulus](z)


@PROPERTY
@given(censuses())
def test_find_cycles_is_the_union_of_orbit_cycles(census):
    H, lo, hi, max_steps, escape_bound = census
    expected = {orbit(H, s, max_steps, escape_bound).cycle
                for s in range(lo, hi + 1)} - {()}
    assert find_cycles(H, lo, hi, max_steps, escape_bound) == expected


@PROPERTY
@given(censuses())
def test_partition_labels_are_orbit_fates(census):
    H, lo, hi, max_steps, escape_bound = census
    classes = orbit_class_partition(H, lo, hi, max_steps, escape_bound)
    members = [m for block in classes for m in block.members]
    assert sorted(members) == list(range(lo, hi + 1))
    for block in classes:
        for m in block.members:
            report = orbit(H, m, max_steps, escape_bound)
            assert block.label == (report.cycle or STATUS_ESCAPED)
    assert _blocks(classes) == _shared_iterate_blocks(
        H, lo, hi, max_steps, escape_bound)


def _blocks(classes):
    return sorted(((block.label, block.members) for block in classes),
                  key=lambda block: block[1])


def _shared_iterate_blocks(H, lo, hi, max_steps, escape_bound):
    """One block per cycle, and the escaped starts joined when their
    orbits, up to and including the first value past the bound, are
    chained by shared elements; built from orbit alone."""
    reports = [orbit(H, s, max_steps, escape_bound) for s in range(lo, hi + 1)]
    parent = {}

    def find(x):
        parent.setdefault(x, x)
        while parent[x] != x:
            x = parent[x]
        return x

    for r in reports:
        if r.cycle:
            continue
        elements = list(r.elements)
        if len(r.tail) == r.steps:      # stopped at the bound, not the budget
            elements.append(H.apply(r.tail[-1]))
        for x in elements:
            parent[find(x)] = find(r.start)
    groups = {}
    for r in reports:
        key = r.cycle or ("escaped", find(r.start))
        groups.setdefault(key, []).append(r.start)
    return sorted(((key if key[0] != "escaped" else STATUS_ESCAPED,
                    tuple(members)) for key, members in groups.items()),
                  key=lambda block: block[1])


# ---------------------------------------------------------------------------
# the reverse scan over random maps

SCAN = settings(derandomize=True, max_examples=40, deadline=None,
                database=None)
# longest drawn scan per modulus; every drawn length scans both odd and
# even levels, so both shapes of the half split (outer half one shorter
# than the inner, or equal) are joined
SCAN_LENGTHS = {2: 13, 3: 8, 5: 5}


@st.composite
def scans(draw):
    """(p, branch (r, c) pairs, length); the multipliers favour +-1,
    +-p and +-p**2, so scale-1 words and shared fixed points are common,
    and the lengths shrink towards the longest."""
    p = draw(st.sampled_from(sorted(SCAN_LENGTHS)))
    specs = []
    for j in range(p):
        a = draw(st.sampled_from([1, -1, p, -p, p * p, -p * p])
                 | st.integers(-12, 12).filter(bool))
        k = draw(st.integers(-3, 3))
        specs.append((Fraction(a, p), Fraction(-a * j, p) + k))
    longest = SCAN_LENGTHS[p]
    return p, specs, longest - draw(st.integers(0, longest - 1))


def _scan_by_fractions(specs, max_length):
    """Words scanned, words of scale 1, and each integer fixed point's
    witness: depth first over the word tree with digits pushed from 0
    up (so popped from p - 1 down), extending (scale, shift) on the
    inside, and keeping the first word met among the shortest."""
    witnesses = {}
    scanned = skipped = 0
    stack = [(Fraction(1), Fraction(0), ())]
    while stack:
        scale, shift, word = stack.pop()
        if word:
            scanned += 1
            if scale == 1:
                skipped += 1
            else:
                x = shift / (1 - scale)
                v = x.numerator
                if x.denominator == 1 and (
                        v not in witnesses or len(word) < len(witnesses[v])):
                    witnesses[v] = word
        if len(word) < max_length:
            for j, (r, c) in enumerate(specs):
                stack.append((scale * r, scale * c + shift, word + (j,)))
    return scanned, skipped, witnesses


@SCAN
@given(scans())
def test_scan_is_the_fraction_fold(scan):
    p, specs, length = scan
    H = build_hydra(p, specs)
    scanned, skipped, witnesses = _scan_by_fractions(specs, length)
    report = reverse_scan(H, length)
    # ScanReport equality ignores witness_words, so each field is
    # compared on its own
    assert report.words_scanned == scanned
    assert report.skipped == skipped
    assert report.integer_values == tuple(sorted(witnesses))
    assert {v: w.entries for v, w in report.witness_words.items()} \
        == witnesses


# ---------------------------------------------------------------------------
# the Fourier layer over random maps

SPECTRAL = settings(derandomize=True, max_examples=50, deadline=None,
                    database=None)


@st.composite
def solvable_maps(draw):
    """(map, q) with max_j |r_j|_q <= 1 and rho < 1 at q."""
    p = draw(st.sampled_from([2, 3]))
    q = draw(st.sampled_from([r for r in (2, 3, 5, 7) if r != p]))
    carrier = draw(st.integers(0, p - 1))
    specs = []
    for j in range(p):
        if j == carrier:
            a = draw(st.sampled_from([-q, q]))
        else:
            # prime to q, and r_0 != 1 keeps the map proper
            a = draw(st.integers(-12, 12).filter(lambda a: a % q and a != p))
        k = draw(st.integers(-3, 3))
        specs.append((Fraction(a, p), Fraction(-a * j, p) + k))
    return build_hydra(p, specs), q


@SPECTRAL
@given(solvable_maps(), st.integers(1, 4))
def test_solve_restricts_to_the_lower_level(map_and_place, level):
    H, q = map_and_place
    upper = charfn_solve(H, q, level).values
    lower = charfn_solve(H, q, level - 1).values
    assert len(upper) == q ** level and len(lower) == q ** (level - 1)
    for t, value in lower.items():
        assert abs(upper[t] - value) <= 1e-12


@SPECTRAL
@given(solvable_maps(), st.integers(1, 4))
def test_inversion_sums_to_the_lower_exponent(map_and_place, n):
    H, q = map_and_place
    upper = prob_inversion(H, q, n).probabilities
    lower = prob_inversion(H, q, n - 1).probabilities
    folded = {}
    for w, prob in upper.items():
        key = Fraction(int(w) % q ** (n - 1))
        folded[key] = folded.get(key, 0.0) + prob
    assert folded.keys() == lower.keys()
    for w, prob in lower.items():
        assert abs(folded[w] - prob) <= 1e-12


@SPECTRAL
@given(solvable_maps(), st.integers(0, 3), st.integers(3, 6))
def test_table_estimate_is_the_character_sum_of_the_histogram(
        map_and_place, level, depth):
    """mu-hat(k / q**L) = sum over w of P(X = w mod q**L) e(-k w / q**L),
    summed term by term over prob_empirical's exact histogram."""
    H, q = map_and_place
    N = q ** level
    table = charfn_table_estimate(H, Place.finite(q), depth, level=level)
    hist = prob_empirical(H, q, level, depth).probabilities
    assert len(table.values) == N
    for t, value in table.values.items():
        k = int(t.value * N)
        # w lies in q**-B * Z, so k*w/N is reduced mod 1 exactly
        expected = sum(prob * cmath.exp(-2j * cmath.pi * float(k * w / N % 1))
                       for w, prob in hist.items())
        assert abs(value - expected) <= 1e-12


# ---------------------------------------------------------------------------
# the word fold, the numen and digit expansions over random proper maps

FOLD = settings(derandomize=True, max_examples=100, deadline=None,
                database=None)


@st.composite
def proper_maps(draw):
    """Integer-closed maps with r_0 != 1 and p in {2, 3, 5}; a branch may
    carry an integer scale and shift, so the common denominator D of the
    integer branch form need not be any one branch's denominator."""
    p = draw(st.sampled_from([2, 3, 5]))
    specs = []
    for j in range(p):
        a = draw(st.integers(-12, 12).filter(bool))
        if draw(st.booleans()):
            a *= p
        k = draw(st.integers(-3, 3))
        specs.append((Fraction(a, p), Fraction(-a * j, p) + k))
    if specs[0][0] == 1:
        specs[0] = (Fraction(-1), specs[0][1])
    return build_hydra(p, specs)


def _fold(H, word, x=None):
    """(scale, shift) of the composite along word, entry 0 outermost, on
    Fractions; or that composite applied to x."""
    scale, shift = Fraction(1), Fraction(0)
    for j in word:
        branch = H.branches[j]
        scale, shift = scale * branch.scale, scale * branch.shift + shift
    return (scale, shift) if x is None else scale * x + shift


def _anchor(H):
    r0, c0 = H.branches[0].scale, H.branches[0].shift
    return c0 / (1 - r0)


def _base_digits(n, p):
    digits = []
    while n:
        digits.append(n % p)
        n //= p
    return digits


@FOLD
@given(proper_maps(), st.lists(st.lists(st.integers(0, 4), max_size=12),
                               min_size=1, max_size=6))
def test_compose_and_periodic_value_are_the_fraction_fold(H, words):
    p = H.modulus
    for word in words:
        word = tuple(j % p for j in word)
        scale, shift = _fold(H, word)
        string = DigitString(p, word)
        assert compose_branches(H, string) == AffineMap(scale, shift)
        if scale == 1:
            with pytest.raises(PreconditionError):
                periodic_word_value(H, string)
        else:
            assert periodic_word_value(H, string) == shift / (1 - scale)


@FOLD
@given(proper_maps(), st.lists(st.integers(0, 2 ** 80), min_size=1,
                               max_size=8))
def test_numen_recursion_and_truncations(H, ns):
    p = H.modulus
    for n in ns:
        digits = _base_digits(n, p)
        x = numen_of_nat(H, n)
        assert x == _fold(H, digits, _anchor(H))
        for j in range(p):
            branch = H.branches[j]
            assert numen_of_nat(H, p * n + j) == branch.scale * x + branch.shift
        for depth in range(len(digits), len(digits) + 3):
            z = PAdicTrunc.from_int(n, p, depth)
            assert z.digits == tuple(digits) + (0,) * (depth - len(digits))
            assert numen_of_trunc(H, z) == x


@st.composite
def maps_and_depths(draw):
    H = draw(proper_maps())
    # at most 3**7 words, so p = 5 stops at depth 4
    return H, draw(st.integers(0, 7).filter(lambda d: H.modulus ** d <= 3 ** 7))


@settings(derandomize=True, max_examples=40, deadline=None, database=None)
@given(maps_and_depths())
def test_series_values_are_the_words_in_descending_order(case):
    """The archimedean sums add the values in this order, so it is part
    of their floats."""
    H, depth = case
    digits = range(H.modulus - 1, -1, -1)
    expected = [_fold(H, word, _anchor(H))
                for word in itertools.product(digits, repeat=depth)]
    assert list(_series_values(H, depth)) == expected


@st.composite
def maps_and_rationals(draw):
    H = draw(proper_maps())
    p = H.modulus
    dens = st.integers(1, 300).filter(lambda b: math.gcd(b, p) == 1)
    rs = st.builds(Fraction, st.integers(-10 ** 4, 10 ** 4), dens)
    return H, draw(st.lists(rs, min_size=1, max_size=6))


@FOLD
@given(maps_and_rationals())
def test_numen_of_rational_is_the_preperiod_over_the_fixed_point(case):
    H, rs = case
    for r in rs:
        z = digit_expansion(r, H.modulus)
        scale, shift = _fold(H, z.period)
        contracts = abs(scale.numerator) > 1 or abs(scale) < 1
        if any(z.period) and not contracts:
            with pytest.raises(PreconditionError):
                numen_of_rational(H, r)
            continue
        fixed = _anchor(H) if not any(z.period) else shift / (1 - scale)
        assert numen_of_rational(H, r) == _fold(H, z.preperiod, fixed)


@FOLD
@given(st.sampled_from([2, 3, 5, 6, 10]), st.integers(-10 ** 6, 10 ** 6),
       st.integers(1, 10 ** 4))
def test_digit_expansion_roundtrips_and_is_canonical(p, a, b):
    r = Fraction(a, b)
    if math.gcd(r.denominator, p) != 1:
        with pytest.raises(NotPIntegralError):
            digit_expansion(r, p)
        return
    z = digit_expansion(r, p)
    pre, per = z.preperiod, z.period
    head = sum(d * p ** k for k, d in enumerate(pre))
    block = sum(d * p ** k for k, d in enumerate(per))
    assert head + Fraction(p ** len(pre) * block, 1 - p ** len(per)) == r
    assert z.to_rational() == r
    assert z.canonical() == z
    # canonical: the period is no repetition of a shorter block, and the
    # preperiod cannot give up its last digit to the period
    t = len(per)
    assert all(per != per[:s] * (t // s) for s in range(1, t) if t % s == 0)
    assert not (pre and pre[-1] == per[-1])
