"""Tests for orbits, cycle censuses, and the periodic-point correspondence."""

from fractions import Fraction as F

import pytest

from hydramaps import (
    DigitString,
    OrbitClass,
    Place,
    PreconditionError,
    ResourceLimitError,
    STATUS_ESCAPED,
    STATUS_PERIODIC,
    STATUS_PREPERIODIC,
    build_hydra,
    correspondence_roundtrip,
    cycle_string,
    digit_value,
    find_cycles,
    numen_of_rational,
    orbit,
    orbit_class_partition,
    reverse_scan,
)

# the full census of integer cycles of the halved 3z+1 map on
# [-1000, 1000]: 0, the positive loop, and three negative loops
T3_CYCLES = {
    (0,),
    (1, 2),
    (-1,),
    (-10, -5, -7),
    (-136, -68, -34, -17, -25, -37, -55, -82, -41, -61, -91),
}

T5_CYCLES = {
    (1, 3, 8, 4, 2),
    (13, 33, 83, 208, 104, 52, 26),
    (17, 43, 108, 54, 27, 68, 34),
}

T3_CYCLES_FLAT = sorted(v for cycle in T3_CYCLES for v in cycle)


# ---------------------------------------------------------------------------
# orbits

class TestOrbit:
    def test_preperiodic_example(self, t3):
        report = orbit(t3, 7)
        assert report.status == STATUS_PREPERIODIC
        assert report.tail == (7, 11, 17, 26, 13, 20, 10, 5, 8, 4)
        assert report.cycle == (1, 2)
        assert report.steps == 12
        assert report.elements == report.tail + (1, 2)

    def test_periodic_example(self, t3):
        report = orbit(t3, -5)
        assert report.status == STATUS_PERIODIC
        assert report.tail == ()
        assert report.cycle == (-10, -5, -7)

    def test_fixed_points(self, t3):
        assert orbit(t3, 0).cycle == (0,)
        assert orbit(t3, -1).cycle == (-1,)

    def test_escape_example(self, t5):
        report = orbit(t5, 7)
        assert report.status == STATUS_ESCAPED
        assert report.cycle == ()
        assert report.tail[0] == 7

    def test_escape_by_magnitude(self, t3):
        report = orbit(t3, 7, escape_bound=20)
        assert report.status == STATUS_ESCAPED
        assert report.tail == (7, 11, 17)
        assert report.steps == 3
        assert report.escape_bound == 20

    def test_escape_by_step_budget(self, t3):
        report = orbit(t3, 27, max_steps=5)
        assert report.status == STATUS_ESCAPED
        assert report.tail == (27, 41, 62, 31, 47, 71)
        assert report.steps == 5

    def test_chain_structure(self, t3):
        # consecutive tail entries map one to the next, the last tail
        # entry maps into the cycle, and the cycle closes up
        for start in range(-60, 60):
            report = orbit(t3, start)
            chain = report.tail
            for a, b in zip(chain, chain[1:]):
                assert t3.apply(a) == b
            if report.cycle:
                if chain:
                    assert t3.apply(chain[-1]) in report.cycle
                n = len(report.cycle)
                for i, v in enumerate(report.cycle):
                    assert t3.apply(v) == report.cycle[(i + 1) % n]


# ---------------------------------------------------------------------------
# cycle census

class TestFindCycles:
    def test_census_3z1(self, t3):
        assert find_cycles(t3, -1000, 1000) == T3_CYCLES

    def test_census_5z1_positive(self, t5):
        assert find_cycles(t5, 1, 1000) == T5_CYCLES

    def test_single_start(self, t3):
        assert find_cycles(t3, 4, 4) == {(1, 2)}

    def test_empty_range(self, t3):
        with pytest.raises(ValueError):
            find_cycles(t3, 5, 4)

    def test_canonical_rotation_starts_at_minimum(self, t3):
        for cycle in find_cycles(t3, -1000, 1000):
            assert cycle[0] == min(cycle)


# ---------------------------------------------------------------------------
# cycle words

class TestCycleString:
    def test_examples(self, t3):
        assert cycle_string(t3, (1, 2)) == DigitString(2, (0, 1))
        assert cycle_string(t3, (-1,)) == DigitString(2, (1,))
        # a non-canonical rotation keys the word to its own start element
        assert cycle_string(t3, (-5, -7, -10)) == DigitString(2, (0, 1, 1))
        assert cycle_string(t3, (-10, -5, -7)) == DigitString(2, (1, 1, 0))

    def test_rejects_non_cycles(self, t3):
        with pytest.raises(AssertionError):
            cycle_string(t3, (1, 3))

    def test_word_fixes_start_via_numen(self, t3):
        # z built from the word of the rotation starting at -5 evaluates
        # to -5 itself, and likewise for the canonical rotation
        word = cycle_string(t3, (-5, -7, -10))
        n = digit_value(word)
        assert n == 6
        z = F(n, 1 - 2 ** 3)
        assert numen_of_rational(t3, z) == -5
        word = cycle_string(t3, (-10, -5, -7))
        assert digit_value(word) == 3
        assert numen_of_rational(t3, F(3, 1 - 8)) == -10


# ---------------------------------------------------------------------------
# reverse scan

class TestReverseScan:
    def test_length_10(self, t3):
        report = reverse_scan(t3, 10)
        assert report.integer_values == (-10, -7, -5, -1, 0, 1, 2)
        assert report.words_scanned == 2 ** 11 - 2
        assert report.skipped == 0

    def test_length_12_reaches_the_long_cycle(self, t3):
        report = reverse_scan(t3, 12)
        assert set(report.integer_values) == (
            set(T3_CYCLES_FLAT))

    def test_witness_words_evaluate_back(self, t3):
        # each witness is decoded from its index in the join of two half
        # words; at length 16 both halves have length 8
        for length in (10, 16):
            report = reverse_scan(t3, length)
            assert tuple(report.witness_words) == report.integer_values
            for v, word in report.witness_words.items():
                n = digit_value(word)
                L = len(word.entries)
                if n == 0:
                    assert v == 0
                    continue
                assert numen_of_rational(t3, F(n, 1 - 2 ** L)) == v

    @pytest.mark.parametrize("p,length", [(2, 24), (5, 11)])
    def test_word_cap(self, p, length):
        # sum of p**k for k <= length: 2**25 - 2 and (5**12 - 5) / 4,
        # both above 2**24; refused before any word is scanned
        H = build_hydra(p, [(F(1, p), F(-j, p)) for j in range(p)])
        with pytest.raises(ResourceLimitError, match="cap"):
            reverse_scan(H, length)

    def test_scale_one_words_are_skipped(self):
        # scales 2 and 1/2 compose to scale 1 on balanced words
        H = build_hydra(2, [(2, 0), (F(1, 2), F(1, 2))])
        report = reverse_scan(H, 2)
        assert report.words_scanned == 6
        assert report.skipped == 2  # the words (0, 1) and (1, 0)
        assert report.integer_values == (0, 1)

    def test_witness_is_the_largest_shortest_word(self):
        # -3 and 4 each have two length-5 words on this map, so the join
        # must keep the lexicographically largest of each pair
        specs = [(F(2), F(0)), (F(1, 2), F(1, 2))]
        report = reverse_scan(build_hydra(2, specs), 8)
        assert report.witness_words[-3].entries == (0, 1, 0, 0, 1)
        assert report.witness_words[4].entries == (1, 0, 0, 1, 1)
        # the same rule by a Fraction fold of every word up to length 5,
        # entry 0 outermost
        fixing = {-3: [], 4: []}
        words = [()]
        for _ in range(5):
            words = [w + (j,) for w in words for j in range(2)]
            for word in words:
                scale, shift = F(1), F(0)
                for j in word:
                    r, c = specs[j]
                    scale, shift = scale * r, scale * c + shift
                if scale != 1 and shift / (1 - scale) in fixing:
                    fixing[shift / (1 - scale)].append(word)
        assert fixing == {-3: [(0, 0, 1, 1, 0), (0, 1, 0, 0, 1)],
                          4: [(0, 1, 1, 0, 1), (1, 0, 0, 1, 1)]}

    def test_length_must_be_positive(self, t3):
        with pytest.raises(ValueError):
            reverse_scan(t3, 0)

    def test_t5_short_scan(self, t5):
        report = reverse_scan(t5, 5)
        assert report.integer_values == (-2, -1, 0, 1, 2, 3, 4, 8)


# ---------------------------------------------------------------------------
# the full correspondence

class TestCorrespondence:
    def test_full_census_roundtrip(self, t3):
        result = correspondence_roundtrip(t3, Place.finite(3), -1000, 1000,
                                          scan_length=10)
        assert len(result.certificates) == 5
        assert all(cert.verified for cert in result.certificates)
        assert result.scan_consistent
        assert result.stray_values == ()
        by_cycle = {cert.cycle: cert for cert in result.certificates}
        assert set(by_cycle) == T3_CYCLES

        zero = by_cycle[(0,)]
        assert zero.z == 0 and zero.x_value == 0 and zero.note

        pos = by_cycle[(1, 2)]
        assert (pos.n, pos.z, pos.x_value) == (2, F(-2, 3), 1)

        neg1 = by_cycle[(-1,)]
        assert (neg1.n, neg1.z, neg1.x_value) == (1, F(-1), -1)

        neg3 = by_cycle[(-10, -5, -7)]
        assert (neg3.n, neg3.z, neg3.x_value) == (3, F(-3, 7), -10)

        long = by_cycle[max(T3_CYCLES, key=len)]
        assert (long.n, long.z, long.x_value) == (
            247, F(-247, 2047), -136)

    def test_certificate_invariants(self, t3):
        result = correspondence_roundtrip(t3, None, -1000, 1000,
                                          scan_length=10)
        p = t3.modulus
        for cert in result.certificates:
            if cert.cycle == (0,):
                continue
            assert cert.z == F(cert.n, 1 - p ** len(cert.string.entries))
            assert cert.x_value in cert.cycle
            # z is a p-integral rational outside the nonnegative integers
            assert cert.z.denominator % 2 == 1
            assert not (cert.z.denominator == 1 and cert.z >= 0)

    def test_stray_values_flag_unreached_cycles(self, t3):
        # starts in [-10, 10] never reach the eleven-element cycle, but a
        # depth-12 scan still finds its members as integer fixed points
        result = correspondence_roundtrip(t3, None, -10, 10, scan_length=12)
        assert not result.scan_consistent
        long = max(T3_CYCLES, key=len)
        assert result.stray_values == tuple(sorted(long))

    def test_t5_roundtrip(self, t5):
        result = correspondence_roundtrip(t5, Place.finite(5), 1, 1000,
                                          scan_length=5)
        assert len(result.certificates) == 3
        assert all(cert.verified for cert in result.certificates)
        # the scan sees 0 and the negative two-cycle, which no positive
        # start reaches
        assert result.stray_values == (-2, -1, 0)
        assert not result.scan_consistent

    def test_requires_normalized_map(self):
        H = build_hydra(2, [(1, 0), (F(3, 2), F(1, 2))], initial_value=7)
        with pytest.raises(PreconditionError):
            correspondence_roundtrip(H, None, -10, 10)


# ---------------------------------------------------------------------------
# orbit classes

class TestPartition:
    def test_positive_window_is_one_class(self, t3):
        classes = orbit_class_partition(t3, 1, 20)
        assert len(classes) == 1
        assert classes[0].label == (1, 2)
        assert classes[0].members == tuple(range(1, 21))

    def test_negative_window_splits_by_cycle(self, t3):
        classes = orbit_class_partition(t3, -10, -1)
        assert len(classes) == 2
        assert classes[0].label == (-10, -5, -7)
        assert classes[0].members == (-10, -9, -7, -5)
        assert classes[1].label == (-1,)
        assert classes[1].members == (-8, -6, -4, -3, -2, -1)

    def test_escaped_class(self, t5):
        classes = orbit_class_partition(t5, 7, 7)
        assert classes == [OrbitClass(STATUS_ESCAPED, (7,))]

    def test_blocks_partition_the_window(self, t3):
        lo, hi = -120, 120
        classes = orbit_class_partition(t3, lo, hi)
        seen = [m for c in classes for m in c.members]
        assert sorted(seen) == list(range(lo, hi + 1))
        assert len(seen) == len(set(seen))

    def test_labels_match_member_orbits(self, t3):
        for block in orbit_class_partition(t3, -50, 50):
            for member in block.members:
                report = orbit(t3, member)
                if block.label == STATUS_ESCAPED:
                    assert report.status == STATUS_ESCAPED
                else:
                    assert report.cycle == block.label

    def test_empty_range(self, t3):
        with pytest.raises(ValueError):
            orbit_class_partition(t3, 3, 2)

    # small budgets: each label is the member's own orbit fate

    def test_label_reached_in_exactly_the_budget(self, t3):
        # 4 -> 2 -> 1 -> 2 closes (1, 2) at step 3
        labels = _labels(orbit_class_partition(t3, 1, 60, max_steps=3))
        assert orbit(t3, 4, max_steps=3).cycle == (1, 2)
        assert labels[4] == (1, 2)

    def test_label_one_step_short_of_the_budget(self, t3):
        labels = _labels(orbit_class_partition(t3, 1, 60, max_steps=2))
        assert orbit(t3, 4, max_steps=2).status == STATUS_ESCAPED
        assert labels[4] == STATUS_ESCAPED
        assert labels[1] == labels[2] == (1, 2)

    def test_fixed_point_found_in_one_step(self, t3):
        assert find_cycles(t3, -200, -1, max_steps=1) == {(-1,)}
        labels = _labels(orbit_class_partition(t3, -200, -1, max_steps=1))
        assert labels[-1] == (-1,)

    # starts past the escape bound: orbit never checks its start

    def test_start_past_the_bound_closes_its_cycle(self, t3):
        # 2 > 1 escapes from 1, but the orbit of 2 returns to 2
        assert orbit(t3, 1, escape_bound=1).status == STATUS_ESCAPED
        assert orbit(t3, 2, escape_bound=1).cycle == (1, 2)
        assert find_cycles(t3, 1, 2, escape_bound=1) == {(1, 2)}
        assert orbit_class_partition(t3, 1, 2, escape_bound=1) == [
            OrbitClass(STATUS_ESCAPED, (1,)), OrbitClass((1, 2), (2,))]

    def test_cycle_members_escape_through_a_start_past_the_bound(self, t3):
        # -10 is past the bound 8; -5 and -7 reach it as an iterate
        assert find_cycles(t3, -10, -1, escape_bound=8) == {
            (-10, -5, -7), (-1,)}
        labels = _labels(orbit_class_partition(t3, -10, -1, escape_bound=8))
        for start in range(-10, 0):
            report = orbit(t3, start, escape_bound=8)
            assert labels[start] == (report.cycle or STATUS_ESCAPED)
        assert labels[-10] == (-10, -5, -7)
        assert labels[-7] == labels[-5] == STATUS_ESCAPED


def _labels(classes):
    return {m: block.label for block in classes for m in block.members}


# ---------------------------------------------------------------------------
# orbit controls

@pytest.mark.parametrize("call", [
    lambda H, **kw: orbit(H, 7, **kw),
    lambda H, **kw: find_cycles(H, -5, 5, **kw),
    lambda H, **kw: orbit_class_partition(H, -5, 5, **kw),
    lambda H, **kw: correspondence_roundtrip(H, None, -5, 5, **kw),
], ids=["orbit", "find_cycles", "orbit_class_partition",
        "correspondence_roundtrip"])
@pytest.mark.parametrize("controls", [
    {"max_steps": 0}, {"max_steps": -3}, {"escape_bound": -1},
])
def test_rejects_nonsensical_controls(t3, call, controls):
    with pytest.raises(ValueError, match="max_steps|escape_bound"):
        call(t3, **controls)
