"""Tests for branch-map construction, closure checks, and digit strings."""

import random
import time
from fractions import Fraction as F

import pytest

from hydramaps import (
    AffineMap,
    Branch,
    DigitString,
    MapSpecError,
    build_hydra,
    center_map,
    classify,
    compose_branches,
    concat,
    digit_value,
    digits_of,
    shortened_collatz,
)


# ---------------------------------------------------------------------------
# construction and closure validation

class TestBuild:
    def test_shortened_collatz_3(self, t3):
        assert t3.modulus == 2
        assert t3.branches[0] == Branch(F(1, 2), F(0))
        assert t3.branches[1] == Branch(F(3, 2), F(1, 2))

    def test_shortened_collatz_5(self, t5):
        assert t5.branches[1] == Branch(F(5, 2), F(1, 2))

    def test_factory_rejects_even_multiplier(self):
        with pytest.raises(MapSpecError):
            shortened_collatz(4)

    def test_not_closed_on_integers(self):
        # branch 0 scales by 1/3, so z = 2 (the witness j + p) leaves Z
        with pytest.raises(MapSpecError) as exc:
            build_hydra(2, [(F(1, 3), 0), (3, 1)])
        assert "z = 2" in str(exc.value)

    def test_branch_count_must_match_modulus(self):
        with pytest.raises(MapSpecError):
            build_hydra(3, [(F(1, 3), 0), (F(2, 3), F(1, 3))])

    def test_zero_scale_rejected(self):
        with pytest.raises(MapSpecError):
            build_hydra(2, [(0, 0), (F(3, 2), F(1, 2))])

    def test_modulus_must_exceed_one(self):
        with pytest.raises(MapSpecError):
            build_hydra(1, [(F(1, 2), 0)])

    def test_closure_witnesses_cover_both_failure_modes(self):
        # H_0(0) not an integer: witness is j itself
        with pytest.raises(MapSpecError) as exc:
            build_hydra(2, [(F(1, 2), F(1, 4)), (F(3, 2), F(1, 2))])
        assert "z = 0" in str(exc.value)
        # H_0(0) = 0 is fine but den(r_0) = 3 does not divide 2, so the
        # second representative j + p = 2 is the witness
        with pytest.raises(MapSpecError) as exc:
            build_hydra(2, [(F(1, 3), 0), (F(3, 2), F(1, 2))])
        assert "z = 2" in str(exc.value)

    def test_initial_value_must_solve_fixed_point_equation(self):
        build_hydra(2, [(F(1, 2), 0), (F(3, 2), F(1, 2))], initial_value=0)
        with pytest.raises(MapSpecError):
            build_hydra(2, [(F(1, 2), 0), (F(3, 2), F(1, 2))],
                        initial_value=1)


# ---------------------------------------------------------------------------
# applying the map

class TestApply:
    def test_examples(self, t3, t5):
        assert t3.apply(7) == 11
        assert t3.apply(6) == 3
        assert t3.apply(0) == 0
        assert t5.apply(13) == 33

    def test_negative_inputs_use_python_residue(self, t3):
        assert t3.branch_index(-5) == 1
        assert t3.apply(-5) == -7
        assert t3.apply(-10) == -5

    def test_apply_branch_skips_coset_check(self, t3):
        assert t3.apply_branch(1, F(7, 3)) == F(3, 2) * F(7, 3) + F(1, 2)
        assert t3.apply_branch(0, 7) == F(7, 2)

    def test_integral_iff_matching_residue(self, t3, t5):
        for H in (t3, t5):
            p = H.modulus
            for z in range(-500, 501):
                for j in range(p):
                    value = H.apply_branch(j, z)
                    assert (value.denominator == 1) == (j == z % p)

    def test_iteration_matches_branch_selection(self, t3):
        rng = random.Random(7)
        for _ in range(200):
            z = rng.randrange(-10_000, 10_000)
            assert t3.apply(z) == t3.apply_branch(z % 2, z)


# ---------------------------------------------------------------------------
# classification of map shapes

class TestClassify:
    def test_shortened_collatz_has_all_properties(self, t3):
        report = classify(t3)
        assert report.integral and report.proper and report.centered

    def test_unhalved_collatz_form_not_integral(self):
        # z -> 3z + 1 on odds hits the integers on both residue classes
        H = build_hydra(2, [(F(1, 2), 0), (3, 1)])
        report = classify(H)
        assert not report.integral
        assert report.proper
        assert report.centered

    def test_unit_first_branch_not_proper(self):
        # z -> z + 4 sends *every* integer to an integer, not just its
        # own coset, so the exactly-on-coset integrality test fails too
        H = build_hydra(2, [(1, 4), (F(3, 2), F(1, 2))])
        report = classify(H)
        assert not report.integral
        assert not report.proper

    def test_uncentered(self):
        H = build_hydra(2, [(F(1, 2), 3), (F(3, 2), F(1, 2))])
        assert not classify(H).centered


# ---------------------------------------------------------------------------
# conjugation to a centered map

class TestCenterMap:
    def test_already_centered_found_at_zero(self, t3):
        result = center_map(t3, 5)
        assert result == (t3, 0)

    def test_uncentered_raw_data(self):
        # the raw pair list is not integer-closed as given (H_0(0) = 1/2),
        # which is exactly why raw tuples are accepted here
        result = center_map((2, [(F(1, 2), F(1, 2)), (F(3, 2), 1)]), 5)
        assert result is not None
        candidate, a = result
        assert a == 1
        assert candidate.branches[0] == Branch(F(1, 2), F(0))
        assert candidate.branches[1] == Branch(F(3, 2), F(3, 2))

    def test_no_center_when_first_branch_is_unit_translation(self):
        # r_0 = 1 with c_0 != 0: the centering equation (1 - r_0)a = c_0
        # has no solution at all
        assert center_map((2, [(1, 2), (F(3, 2), F(1, 2))]), 20) is None

    def test_recovers_conjugated_collatz(self, t3):
        # de-center t3 by a0 = 3 (shift c_j -> c_j - r_j*a0 + a0), then
        # ask center_map to undo it; the solution is unique so the
        # search must land exactly on a = 3
        a0 = 3
        raw = [(b.scale, b.shift - b.scale * a0 + a0) for b in t3.branches]
        result = center_map((2, raw), 5)
        assert result == (t3, a0)
        # and a bound that excludes a0 finds nothing
        assert center_map((2, raw), 2) is None

    def test_bound_must_be_nonnegative(self, t3):
        with pytest.raises(ValueError):
            center_map(t3, -1)

    def test_matches_the_linear_search(self):
        def linear(p, raw, bound):
            # every |a| <= bound in the order 0, 1, -1, 2, -2, ...
            data = [(F(r), F(c)) for r, c in raw]
            r0, c0 = data[0]
            for a in [0] + [s * m for m in range(1, bound + 1)
                            for s in (1, -1)]:
                if r0 * a + c0 - a != 0:
                    continue
                try:
                    return build_hydra(
                        p, [(r, r * a + c - a) for r, c in data]), a
                except MapSpecError:
                    continue
            return None

        rng = random.Random(26)
        found = unit = 0
        for _ in range(600):
            p = rng.randint(2, 6)
            raw = [(F(rng.choice([-3, -1, 1, 3, 5, 7]), rng.choice([1, p])),
                    F(rng.randint(-6, 6), rng.choice([1, 2, 3, p])))
                   for _ in range(p)]
            mode = rng.random()
            if mode < 0.3:      # every shift centers
                raw[0] = (F(1), F(0))
            elif mode < 0.6:    # the one candidate is an integer
                r0 = raw[0][0]
                raw[0] = (r0, (1 - r0) * rng.randint(-30, 30))
            bound = rng.randint(0, 25)
            want = linear(p, raw, bound)
            assert center_map((p, raw), bound) == want, (p, raw, bound)
            found += want is not None
            unit += want is not None and raw[0][0] == 1
        assert unit > 40 and found - unit > 15

    def test_large_bound_is_not_walked(self):
        # r_0 != 1 leaves the one candidate c_0/(1 - r_0) = 2/3; a walk
        # over |a| <= 10**5 took about a second
        start = time.perf_counter()
        assert center_map((2, [(F(1, 2), F(1, 3)), (F(3, 2), F(1, 2))]),
                          10 ** 5) is None
        assert time.perf_counter() - start < 0.05


# ---------------------------------------------------------------------------
# digit strings

class TestDigits:
    def test_digit_value_examples(self):
        assert digit_value(DigitString(3, (1, 2, 0, 1))) == 1 + 2 * 3 + 27
        assert digit_value(DigitString(3, ())) == 0
        assert digit_value(DigitString(2, (0, 0, 1))) == 4

    def test_digits_of_examples(self):
        assert digits_of(6, 2) == DigitString(2, (0, 1, 1))
        assert digits_of(0, 2) == DigitString(2, ())
        assert digits_of(34, 3) == DigitString(3, (1, 2, 0, 1))

    def test_validation(self):
        with pytest.raises(ValueError):
            DigitString(2, (0, 2))
        with pytest.raises(ValueError):
            DigitString(1, (0,))
        with pytest.raises(ValueError):
            digits_of(-1, 2)

    def test_roundtrip(self):
        rng = random.Random(11)
        for _ in range(300):
            p = rng.choice([2, 3, 5])
            value = rng.randrange(0, p ** 10)
            assert digit_value(digits_of(value, p)) == value

    def test_concat_weights_second_string_by_first_length(self):
        rng = random.Random(13)
        for _ in range(300):
            p = rng.choice([2, 3])
            left = DigitString(p, tuple(
                rng.randrange(p) for _ in range(rng.randrange(0, 6))))
            right = DigitString(p, tuple(
                rng.randrange(p) for _ in range(rng.randrange(0, 6))))
            joined = concat(left, right)
            assert joined == left + right
            assert joined.entries == left.entries + right.entries
            assert digit_value(joined) == (
                digit_value(left) + p ** len(left) * digit_value(right))

    def test_concat_base_mismatch(self):
        with pytest.raises(ValueError):
            concat(DigitString(2, (1,)), DigitString(3, (1,)))


# ---------------------------------------------------------------------------
# branch composition along a string

class TestCompose:
    def test_examples(self, t3):
        assert compose_branches(t3, DigitString(2, (1,))) == (
            AffineMap(F(3, 2), F(1, 2)))
        # entry 0 is the outermost map: H_(1,0) sends z to H_1(H_0(z))
        assert compose_branches(t3, DigitString(2, (1, 0))) == (
            AffineMap(F(3, 4), F(1, 2)))
        assert compose_branches(t3, DigitString(2, ())) == AffineMap.identity()

    def test_base_must_match_modulus(self, t3):
        with pytest.raises(ValueError):
            compose_branches(t3, DigitString(3, (1,)))

    def test_composite_acts_branch_by_branch(self, t3):
        # the composite's action agrees with applying branches from the
        # last entry (innermost) to entry 0 (outermost)
        rng = random.Random(17)
        for _ in range(200):
            word = DigitString(2, tuple(
                rng.randrange(2) for _ in range(rng.randrange(0, 8))))
            composite = compose_branches(t3, word)
            z = F(rng.randrange(-40, 40), rng.choice([1, 3, 5]))
            by_hand = z
            for digit in reversed(word.entries):
                by_hand = t3.apply_branch(digit, by_hand)
            assert by_hand == composite(z)

    def test_scale_is_product_of_branch_scales(self, t3):
        word = DigitString(2, (0, 1, 1))
        assert compose_branches(t3, word).scale == F(1, 2) * F(3, 2) * F(3, 2)

    def test_scale_multiplicative_under_concat(self, t3, t5):
        rng = random.Random(19)
        for H in (t3, t5):
            for _ in range(250):
                i = DigitString(2, tuple(
                    rng.randrange(2) for _ in range(rng.randrange(0, 7))))
                j = DigitString(2, tuple(
                    rng.randrange(2) for _ in range(rng.randrange(0, 7))))
                assert compose_branches(H, concat(i, j)).scale == (
                    compose_branches(H, i).scale
                    * compose_branches(H, j).scale)

    def test_composition_respects_concat(self, t3, t5):
        # H_(i ^ j) = H_i o H_j: the word i sits at the low-weight end
        # and therefore acts outermost
        rng = random.Random(23)
        for H in (t3, t5):
            for _ in range(250):
                i = DigitString(2, tuple(
                    rng.randrange(2) for _ in range(rng.randrange(0, 7))))
                j = DigitString(2, tuple(
                    rng.randrange(2) for _ in range(rng.randrange(0, 7))))
                assert compose_branches(H, concat(i, j)) == (
                    compose_branches(H, i).compose(compose_branches(H, j)))

    def test_centered_map_ignores_high_end_zeros(self, t3):
        # padding the high-weight (innermost) end with zeros changes the
        # named integer not at all, and for a centered map the composite
        # shift -- the word's value at 0 -- is unchanged too
        word = DigitString(2, (1, 1))
        padded = concat(word, DigitString(2, (0, 0, 0)))
        assert digit_value(padded) == digit_value(word)
        assert compose_branches(t3, padded).shift == (
            compose_branches(t3, word).shift)
        assert compose_branches(t3, padded).scale == (
            compose_branches(t3, word).scale * F(1, 2) ** 3)


# ---------------------------------------------------------------------------
# dataclass hygiene

class TestTypes:
    def test_hydra_map_is_hashable_and_frozen(self, t3):
        assert isinstance(hash(t3), int)
        with pytest.raises(AttributeError):
            t3.modulus = 3

    def test_equality(self, t3):
        assert build_hydra(2, [(F(1, 2), 0), (F(3, 2), F(1, 2))]) == t3

    def test_affine_map_composition_is_associative(self):
        rng = random.Random(29)
        for _ in range(100):
            maps = [AffineMap(F(rng.randrange(1, 9), rng.randrange(1, 9)),
                              F(rng.randrange(-9, 9), rng.randrange(1, 9)))
                    for _ in range(3)]
            f, g, h = maps
            assert f.compose(g.compose(h)) == f.compose(g).compose(h)
