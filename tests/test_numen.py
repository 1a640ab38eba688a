"""Tests for numen evaluation: naturals, truncations, rational p-adic inputs."""

import math
import random
from fractions import Fraction as F

import pytest

from hydramaps import (
    GUARANTEE_AE,
    GUARANTEE_NONE,
    GUARANTEE_UNIFORM,
    DensityProfile,
    DigitString,
    PAdicTrunc,
    Place,
    PreconditionError,
    ResourceLimitError,
    base_value,
    build_hydra,
    compose_branches,
    convergence_report,
    density_criterion,
    digit_densities,
    digit_expansion,
    digits_of,
    ell_bound_check,
    find_contracting_place,
    numen_of_nat,
    numen_of_rational,
    numen_of_trunc,
    periodic_word_value,
    repeating_digits_rational,
    residue_mod,
    valuation,
)
from hydramaps import numen

INF = Place.archimedean()
P2, P3, P5 = Place.finite(2), Place.finite(3), Place.finite(5)


# ---------------------------------------------------------------------------
# values on the natural numbers

class TestNat:
    def test_examples(self, t3, t5):
        assert numen_of_nat(t3, 0) == 0
        assert numen_of_nat(t3, 1) == F(1, 2)
        assert numen_of_nat(t3, 3) == F(5, 4)
        assert numen_of_nat(t3, 7) == F(19, 8)
        assert numen_of_nat(t3, 27) == F(85, 32)
        assert numen_of_nat(t5, 1) == F(1, 2)

    def test_negative_rejected(self, t3):
        with pytest.raises(ValueError):
            numen_of_nat(t3, -1)

    def test_against_recursive_oracle(self, t3, t5):
        # independent oracle: memoized use of the defining recursion
        # X(p*n + j) = r_j*X(n) + c_j, no digit fold involved
        for H in (t3, t5):
            x0 = base_value(H)
            memo = {0: x0}

            def oracle(n, H=H, memo=memo):
                if n not in memo:
                    q, j = divmod(n, H.modulus)
                    b = H.branches[j]
                    memo[n] = b.scale * oracle(q) + b.shift
                return memo[n]

            for n in range(4096):
                assert numen_of_nat(H, n) == oracle(n)

    def test_recursion_identity_spot_checks(self, t3):
        rng = random.Random(31)
        for _ in range(300):
            n = rng.randrange(0, 1 << 30)
            j = rng.randrange(2)
            b = t3.branches[j]
            assert numen_of_nat(t3, 2 * n + j) == (
                b.scale * numen_of_nat(t3, n) + b.shift)


# ---------------------------------------------------------------------------
# the anchor X(0)

class TestBaseValue:
    def test_proper_maps_solve_fixed_point(self, t3, t5):
        assert base_value(t3) == 0
        assert base_value(t5) == 0
        H = build_hydra(2, [(F(1, 2), 3), (F(3, 2), F(1, 2))])
        assert base_value(H) == 6  # 3 / (1 - 1/2)

    def test_non_proper_needs_initial_value(self):
        H = build_hydra(2, [(1, 0), (F(3, 2), F(1, 2))])
        with pytest.raises(PreconditionError):
            base_value(H)
        with pytest.raises(PreconditionError):
            numen_of_nat(H, 3)

    def test_non_proper_with_initial_value(self):
        H = build_hydra(2, [(1, 0), (F(3, 2), F(1, 2))], initial_value=5)
        assert base_value(H) == 5
        assert numen_of_nat(H, 0) == 5
        assert numen_of_nat(H, 1) == F(3, 2) * 5 + F(1, 2)


# ---------------------------------------------------------------------------
# truncations

class TestTrunc:
    def test_example(self, t3):
        assert numen_of_trunc(t3, PAdicTrunc(2, (1, 1, 1))) == F(19, 8)

    def test_depth_zero_is_anchor(self, t3):
        assert numen_of_trunc(t3, PAdicTrunc(2, ())) == 0

    def test_agrees_with_nat_exhaustively(self, t3):
        for depth in range(13):
            for n in range(1 << depth):
                z = PAdicTrunc.from_int(n, 2, depth)
                assert numen_of_trunc(t3, z) == numen_of_nat(t3, n)

    def test_base_mismatch(self, t3):
        with pytest.raises(ValueError):
            numen_of_trunc(t3, PAdicTrunc(3, (1,)))

    def test_on_rational_truncation(self, t3):
        # the depth-6 truncation of -1/3 is the integer 21 = 0b10101
        k = residue_mod(F(-1, 3), 2, 6)
        assert k == 21
        z = PAdicTrunc.from_int(k, 2, 6)
        assert numen_of_trunc(t3, z) == F(37, 32)
        # and 37/32 is already close to X(-1/3) = 2 in the 3-adic metric
        assert valuation(F(37, 32) - 2, 3) >= 3


# ---------------------------------------------------------------------------
# convergence classification

class TestConvergence:
    def test_collatz_at_2(self, t3):
        report = convergence_report(t3, P2)
        assert report.rho == 4
        assert report.max_branch_norm == 2
        assert report.guarantee == GUARANTEE_NONE
        assert report.ell_bound == 2

    def test_collatz_at_3(self, t3):
        report = convergence_report(t3, P3)
        assert report.rho == F(1, 3)
        assert report.max_branch_norm == 1
        assert report.guarantee == GUARANTEE_AE
        assert report.ell_bound == 1

    def test_collatz_at_infinity(self, t3):
        report = convergence_report(t3, INF)
        assert report.rho == F(3, 4)
        assert report.max_branch_norm == F(3, 2)
        assert report.guarantee == GUARANTEE_AE
        assert report.ell_bound is None

    def test_t5_at_5(self, t5):
        report = convergence_report(t5, P5)
        assert report.rho == F(1, 5)
        assert report.max_branch_norm == 1
        assert report.guarantee == GUARANTEE_AE

    def test_uniform_case(self):
        # both scales strictly below 1 in norm at 2: 2z and 2z - 1 ... use
        # scales 2 and 6 (norms 1/2, 1/2): rho = 1/4 < 1 and max < 1
        H = build_hydra(2, [(2, 0), (6, 1)])
        report = convergence_report(H, P2)
        assert report.guarantee == GUARANTEE_UNIFORM
        assert report.rho == F(1, 4)


# ---------------------------------------------------------------------------
# digit densities and the pointwise convergence criterion

class TestDensity:
    def test_densities_of_third(self):
        z = digit_expansion(F(-1, 3), 2)
        profile = digit_densities(z)
        assert profile.densities == (F(1, 2), F(1, 2))

    def test_densities_of_minus_one(self):
        z = digit_expansion(F(-1), 2)
        assert digit_densities(z).densities == (F(0), F(1))

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            DensityProfile(2, (F(1, 2), F(1, 3)))

    def test_criterion_examples(self, t3):
        third = digit_expansion(F(-1, 3), 2)
        ones = digit_expansion(F(-1), 2)

        value, converges = density_criterion(t3, INF, third)
        assert math.isclose(value, math.log(3 / 4) / 2, abs_tol=1e-12)
        assert converges

        value, converges = density_criterion(t3, P3, ones)
        assert math.isclose(value, -math.log(3), abs_tol=1e-12)
        assert converges

        value, converges = density_criterion(t3, INF, ones)
        assert math.isclose(value, math.log(3 / 2), abs_tol=1e-12)
        assert not converges

    def test_criterion_sign_is_exact_not_float(self, t3):
        # all-ones input at 2: branch-1 norm is 2, so value = ln 2 > 0
        ones = digit_expansion(F(-1), 2)
        value, converges = density_criterion(t3, P2, ones)
        assert value > 0 and not converges

    def test_base_mismatch(self, t3):
        with pytest.raises(ValueError):
            density_criterion(t3, INF, digit_expansion(F(1, 2), 3))


# ---------------------------------------------------------------------------
# rational p-adic inputs

class TestRational:
    def test_examples(self, t3, t5):
        assert numen_of_rational(t3, F(-1, 3)) == 2
        assert numen_of_rational(t3, F(-1)) == -1
        assert numen_of_rational(t3, F(-2, 3)) == 1
        assert numen_of_rational(t3, F(-3, 7)) == -10
        assert numen_of_rational(t5, F(-1)) == F(-1, 3)

    def test_nonnegative_integers_reduce_to_nat(self, t3):
        assert numen_of_rational(t3, 27) == F(85, 32)
        assert numen_of_rational(t3, 0) == 0

    def test_value_is_place_independent(self, t3):
        assert numen_of_rational(t3, F(-1, 3), place=P3) == 2
        assert numen_of_rational(t3, F(-1, 3), place=INF) == 2

    def test_non_contracting_place_rejected(self, t3):
        # the block (1, 0) composes to scale 3/4, which has norm 4 at 2
        with pytest.raises(PreconditionError):
            numen_of_rational(t3, F(-1, 3), place=P2)

    def test_no_contracting_place_exists(self):
        # scales 2 and 1/2: the block of -2/3 composes to scale exactly 1
        H = build_hydra(2, [(2, 0), (F(1, 2), F(1, 2))])
        with pytest.raises(PreconditionError):
            numen_of_rational(H, F(-2, 3))

    def test_period_cap(self, t3, monkeypatch):
        # with the cap lowered to 2**4 digits, period 8 folds and period
        # 18 is refused
        value = numen_of_rational(t3, F(-1, 17))
        monkeypatch.setattr(numen, "_PERIOD_CAP", 2 ** 4)
        assert numen_of_rational(t3, F(-1, 17)) == value
        with pytest.raises(ResourceLimitError, match="18 digits"):
            numen_of_rational(t3, F(-1, 19))

    def test_shift_identity(self, t3, t5):
        # X(z) = H_{d_0}(X((z - d_0)/p)) with d_0 the lowest digit of z
        rng = random.Random(37)
        for H in (t3, t5):
            for _ in range(60):
                z = F(rng.randrange(-400, 400),
                      rng.choice([1, 3, 5, 7, 9, 11]))
                d0 = residue_mod(z, 2, 1)
                shifted = (z - d0) / 2
                assert numen_of_rational(H, z) == H.apply_branch(
                    d0, numen_of_rational(H, shifted))

    def test_periodic_word_value_examples(self, t3):
        assert periodic_word_value(t3, DigitString(2, (1,))) == -1
        assert periodic_word_value(t3, DigitString(2, (1, 1, 0))) == -10
        with pytest.raises(PreconditionError):
            # scale-1 block has no unique fixed point
            H = build_hydra(2, [(2, 0), (F(1, 2), F(1, 2))])
            periodic_word_value(H, DigitString(2, (0, 1)))

    def test_repeating_digits_rational(self):
        assert repeating_digits_rational(1, 2) == (F(-1), 1)
        assert repeating_digits_rational(2, 2) == (F(-2, 3), 2)
        assert repeating_digits_rational(5, 3) == (F(-5, 8), 2)
        with pytest.raises(ValueError):
            repeating_digits_rational(0, 2)

    def test_repeating_block_identity(self, t3, t5):
        # X of the number whose digits repeat the digits of n equals
        # X(n) / (1 - M) with M the scale of the digit word of n --
        # for centered maps, where X(n) is the word's offset
        rng = random.Random(41)
        for H in (t3, t5):
            for _ in range(80):
                n = rng.randrange(1, 5000)
                z, lam = repeating_digits_rational(n, 2)
                word = digits_of(n, 2)
                assert lam == len(word)
                M = compose_branches(H, word).scale
                assert numen_of_rational(H, z) == numen_of_nat(H, n) / (1 - M)

    def test_find_contracting_place(self):
        assert find_contracting_place(F(3, 4)) == P3
        assert find_contracting_place(F(1, 2)) == INF
        assert find_contracting_place(F(1)) is None
        assert find_contracting_place(F(-5, 2)) == P5


# ---------------------------------------------------------------------------
# convergence along truncations (the limit is a genuine 3-adic limit)

class TestCauchy:
    def test_three_adic_distance_is_monotone(self, t3):
        z = digit_expansion(F(-1, 3), 2)
        limit = numen_of_rational(t3, F(-1, 3))
        last = -(10 ** 9)
        for depth in range(2, 41, 2):
            x = numen_of_trunc(t3, z.truncate(depth))
            v = valuation(x - limit, 3)
            assert v >= last
            last = v
        assert last >= 12


# ---------------------------------------------------------------------------
# the ultrametric series bound

class TestEllBound:
    def test_satisfied_where_scales_are_integral(self, t3, t5):
        assert ell_bound_check(t3, P3, samples=300)
        assert ell_bound_check(t5, P5, samples=300)

    def test_requires_bounded_scales(self, t3):
        with pytest.raises(PreconditionError):
            ell_bound_check(t3, P2)

    def test_finite_places_only(self, t3):
        with pytest.raises(PreconditionError):
            ell_bound_check(t3, INF)
