"""Tests for Haar integration, SB-function Fourier analysis, and the
characteristic function / residue distributions of the numen."""

import cmath
import math
import random
from fractions import Fraction as F

import pytest

from hydramaps import (
    CharFnTable,
    Distribution,
    Frequency,
    NotPIntegralError,
    PAdicTrunc,
    Place,
    PreconditionError,
    ResourceLimitError,
    SBFunction,
    additive_character,
    b_constant,
    build_hydra,
    character_eval,
    charfn_estimate,
    charfn_solve,
    charfn_table_estimate,
    errors,
    fourier_sb,
    frequencies_through_level,
    haar_integral_riemann,
    haar_integral_sb,
    inverse_fourier_sb,
    numen_of_trunc,
    orthogonality_sum,
    prob_empirical,
    prob_inversion,
    residue_mod,
    selfsim_residual,
    total_variation,
    unit_root,
)

INF = Place.archimedean()
P2, P3, P5 = Place.finite(2), Place.finite(3), Place.finite(5)

# exact solution of the level-1 self-similarity system for the halved
# 3z+1 map at the place 3: mu-hat(1/3) = (-3 + i*sqrt(3)) / 6
MU_THIRD = complex(-0.5, math.sqrt(3) / 6)


def _random_sb(rng, base, max_level):
    level = rng.randrange(0, max_level + 1)
    coeffs = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                   for _ in range(base ** level))
    return SBFunction(base, level, coeffs)


# ---------------------------------------------------------------------------
# SB functions

class TestSBFunction:
    def test_indicator_and_constant(self):
        ball = SBFunction.indicator(3, 2, 3)
        assert ball.value_at(3) == 1
        assert ball.value_at(12) == 1  # 12 = 3 mod 9
        assert ball.value_at(4) == 0
        one = SBFunction.constant(1, 3)
        assert one.value_at(F(7, 2)) == 1

    def test_value_at_truncation(self):
        ball = SBFunction.indicator(1, 1, 2)
        assert ball.value_at(PAdicTrunc(2, (1, 0, 1))) == 1
        assert ball.value_at(PAdicTrunc(2, (0, 1))) == 0
        with pytest.raises(ValueError):
            ball.value_at(PAdicTrunc(2, ()))  # depth below level
        with pytest.raises(ValueError):
            ball.value_at(PAdicTrunc(3, (1,)))

    def test_value_at_non_integral_rational(self):
        ball = SBFunction.indicator(0, 1, 2)
        with pytest.raises(NotPIntegralError):
            ball.value_at(F(1, 2))

    def test_algebra_refines_to_common_level(self):
        f = SBFunction.indicator(0, 1, 2)   # evens
        g = SBFunction.indicator(3, 2, 2)   # 3 mod 4
        h = f + g
        assert h.level == 2
        assert h.value_at(4) == 1
        assert h.value_at(3) == 1
        assert h.value_at(1) == 0
        assert (f * g).isclose(SBFunction.constant(0, 2))
        assert (2 * f - f - f).isclose(SBFunction.constant(0, 2))
        assert (-f).value_at(0) == -1

    def test_from_terms_accumulates(self):
        f = SBFunction.from_terms(2, [(0, 1, 2.0), (1, 1, -1.0)])
        assert f.value_at(6) == 2
        assert f.value_at(3) == -1
        # decomposition: any SB function is the sum of its ball terms
        rng = random.Random(3)
        g = _random_sb(rng, 3, 2)
        rebuilt = SBFunction.from_terms(
            3, [(k, g.level, c) for k, c in enumerate(g.coeffs)])
        assert rebuilt.isclose(g)

    def test_coefficient_count_validated(self):
        with pytest.raises(ValueError):
            SBFunction(2, 1, (1 + 0j,))
        with pytest.raises(ValueError):
            SBFunction(2, -1, (1 + 0j,))

    def test_refine_preserves_values(self):
        f = SBFunction.indicator(1, 1, 2)
        g = f.refine(3)
        for z in range(8):
            assert g.value_at(z) == f.value_at(z)
        with pytest.raises(ValueError):
            g.refine(1)

    def test_coefficient_cap(self):
        # 2**25 coefficients are refused before any is built
        with pytest.raises(ResourceLimitError):
            SBFunction.indicator(0, 25, 2)
        with pytest.raises(ResourceLimitError):
            SBFunction.from_terms(2, [(0, 1, 1.0), (1, 25, 2.0)])
        with pytest.raises(ResourceLimitError):
            SBFunction.indicator(1, 1, 2).refine(25)


# ---------------------------------------------------------------------------
# Haar integration

class TestHaar:
    def test_ball_mass(self):
        got = haar_integral_sb(SBFunction.indicator(3, 2, 3))
        assert abs(got - F(1, 9)) < 1e-15
        assert haar_integral_sb(SBFunction.constant(1, 5)) == 1

    def test_signed_combination(self):
        f = 2 * SBFunction.indicator(0, 1, 2) - SBFunction.indicator(1, 1, 2)
        assert haar_integral_sb(f) == pytest.approx(0.5)

    def test_riemann_sum_is_exact_at_matching_depth(self):
        rng = random.Random(5)
        for _ in range(10):
            f = _random_sb(rng, 2, 3)
            for depth in (f.level, f.level + 1):
                got = haar_integral_riemann(f.value_at, 2, depth)
                assert got == pytest.approx(haar_integral_sb(f), abs=1e-12)

    def test_riemann_of_character_vanishes(self):
        t = Frequency(2, F(1, 4))
        got = haar_integral_riemann(
            lambda z: character_eval(t, z.value), 2, 4)
        assert abs(got) < 1e-12

    def test_riemann_of_constant(self):
        assert haar_integral_riemann(lambda z: 1.0, 2, 5) == pytest.approx(1)

    def test_riemann_guard(self):
        with pytest.raises(ResourceLimitError):
            haar_integral_riemann(lambda z: 1.0, 2, 25)

    def test_change_of_variables(self):
        # averaging f(a*z + b) over Z_2 equals the conditional average of
        # f over the coset b + a*Z_2
        rng = random.Random(9)
        f = _random_sb(rng, 2, 3).refine(3)
        for a in (2, 4):
            for b in (0, 1):
                lhs = haar_integral_riemann(
                    lambda z: f.value_at(a * z.value + b), 2, f.level)
                size = 2 ** f.level
                members = [f.coeffs[k] for k in range(size) if k % a == b % a]
                rhs = sum(members) / len(members)
                assert lhs == pytest.approx(rhs, abs=1e-12)


# ---------------------------------------------------------------------------
# Fourier transforms

class TestFourier:
    def test_constant_concentrates_at_zero(self):
        table = fourier_sb(SBFunction.constant(1, 2))
        assert table == {Frequency(2, F(0)): pytest.approx(1)}

    def test_odd_ball(self):
        table = fourier_sb(SBFunction.indicator(1, 1, 2))
        assert table[Frequency(2, F(0))] == pytest.approx(0.5)
        assert table[Frequency(2, F(1, 2))] == pytest.approx(-0.5)

    def test_indicator_formula(self):
        # the transform of the ball k + p**n Z_p is p**-n e(-t k) on
        # every frequency of level <= n
        k, n, p = 3, 2, 3
        table = fourier_sb(SBFunction.indicator(k, n, p))
        assert len(table) == p ** n
        for t, val in table.items():
            expected = unit_root((-t.value * k) % 1) / p ** n
            assert val == pytest.approx(expected, abs=1e-12)

    def test_roundtrip_exact_ball(self):
        f = SBFunction.indicator(3, 2, 3)
        back = inverse_fourier_sb(fourier_sb(f), 3)
        assert back.isclose(f)

    def test_roundtrip_random(self):
        rng = random.Random(13)
        for base in (2, 3):
            for _ in range(8):
                f = _random_sb(rng, base, 3)
                back = inverse_fourier_sb(fourier_sb(f), base, level=f.level)
                assert back.isclose(f)

    def test_prime_base_required(self):
        with pytest.raises(PreconditionError):
            fourier_sb(SBFunction.constant(1, 4))
        with pytest.raises(PreconditionError):
            inverse_fourier_sb({}, 6)

    def test_parseval(self):
        rng = random.Random(17)
        for _ in range(30):
            base = rng.choice([2, 3])
            f = _random_sb(rng, base, 3)
            table = fourier_sb(f)
            lhs = sum(abs(v) ** 2 for v in table.values())
            rhs = sum(abs(c) ** 2 for c in f.coeffs) / base ** f.level
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_inverse_rejects_frequencies_above_level(self):
        t = Frequency(2, F(1, 4))
        with pytest.raises(ValueError):
            inverse_fourier_sb({t: 1.0}, 2, level=1)

    def test_inverse_coefficient_cap(self, monkeypatch):
        # with the cap lowered to 2**10, a missing guard would allocate
        # only 2**11 coefficients before the test fails
        monkeypatch.setattr(errors, "ENUMERATION_CAP", 2 ** 10)
        with pytest.raises(ResourceLimitError):
            inverse_fourier_sb({Frequency(2, F(1, 2 ** 11)): 1.0}, 2)
        with pytest.raises(ResourceLimitError):
            inverse_fourier_sb({Frequency(2, F(1, 2)): 1.0}, 2, level=11)


# ---------------------------------------------------------------------------
# character orthogonality

class TestOrthogonality:
    def test_examples(self):
        assert orthogonality_sum(3, 2, 0, 0) == pytest.approx(9)
        assert orthogonality_sum(3, 2, 1, 10) == pytest.approx(9)
        assert abs(orthogonality_sum(3, 2, 0, 1)) < 1e-12

    def test_random_pairs(self):
        rng = random.Random(19)
        for _ in range(120):
            q = rng.choice([2, 3])
            n = rng.randrange(0, 4)
            x = F(rng.randrange(-50, 50),
                  rng.choice([1, 1 + q, 1 + 2 * q]))
            y = F(rng.randrange(-50, 50),
                  rng.choice([1, 1 + q, 1 + 2 * q]))
            got = orthogonality_sum(q, n, x, y)
            same = residue_mod(x, q, n) == residue_mod(y, q, n)
            expected = q ** n if same else 0
            assert got == pytest.approx(expected, abs=1e-9)

    def test_frequency_cap(self):
        with pytest.raises(ResourceLimitError):
            frequencies_through_level(2, 25)
        with pytest.raises(ResourceLimitError):
            orthogonality_sum(2, 25, 0, 1)

    def test_additive_character(self):
        assert additive_character(P3, F(1, 3)) == pytest.approx(
            cmath.exp(2j * cmath.pi / 3))
        assert additive_character(P3, F(1, 2)) == pytest.approx(1)
        assert additive_character(P2, F(1, 2)) == pytest.approx(-1)
        assert additive_character(P2, F(3, 4)) == pytest.approx(-1j)
        assert additive_character(INF, F(1, 2)) == pytest.approx(-1)


# ---------------------------------------------------------------------------
# characteristic function: estimator

class TestCharFnEstimate:
    def test_zero_frequency(self, t3):
        got = charfn_estimate(t3, P3, Frequency(3, F(0)), depth=10)
        assert got == pytest.approx(1, abs=1e-12)

    def test_third_matches_closed_form(self, t3):
        got = charfn_estimate(t3, P3, Frequency(3, F(1, 3)), depth=18)
        assert abs(got - MU_THIRD) < 1e-2

    def test_hermitian_at_archimedean_place(self, t3):
        plus = charfn_estimate(t3, INF, F(1, 2), depth=14)
        minus = charfn_estimate(t3, INF, F(-1, 2), depth=14)
        assert minus == pytest.approx(plus.conjugate(), abs=1e-12)
        assert abs(plus) <= 1 + 1e-9

    def test_input_type_enforced_per_place(self, t3):
        with pytest.raises(ValueError):
            charfn_estimate(t3, P3, F(1, 3), depth=6)
        with pytest.raises(ValueError):
            charfn_estimate(t3, P3, Frequency(2, F(1, 2)), depth=6)
        with pytest.raises(ValueError):
            charfn_estimate(t3, INF, Frequency(2, F(1, 2)), depth=6)

    def test_divergent_place_needs_force(self, t3):
        with pytest.raises(PreconditionError):
            charfn_estimate(t3, P2, Frequency(2, F(1, 2)), depth=10)
        # forcing cannot rescue place 2: the halving branch keeps the
        # truncation values from ever becoming 2-integral
        with pytest.raises(NotPIntegralError):
            charfn_estimate(t3, P2, Frequency(2, F(1, 2)), depth=10,
                            force=True)

    def test_neutral_place_force(self, t3):
        # at place 5 both scales are units, so the contraction mean is
        # exactly 1: refused by default, computable when forced
        with pytest.raises(PreconditionError):
            charfn_estimate(t3, P5, Frequency(5, F(1, 5)), depth=10)
        got = charfn_estimate(t3, P5, Frequency(5, F(1, 5)), depth=10,
                              force=True)
        assert abs(got) <= 1 + 1e-9

    def test_resource_guard(self, t3):
        with pytest.raises(ResourceLimitError):
            charfn_estimate(t3, P3, Frequency(3, F(1, 3)), depth=25)
        with pytest.raises(ResourceLimitError):
            charfn_table_estimate(t3, P3, depth=4, level=16)

    def test_table_estimate(self, t3):
        table = charfn_table_estimate(t3, P3, depth=16, level=1)
        assert table.method == "estimate"
        assert set(table.values) == set(frequencies_through_level(3, 1))
        assert table.values[Frequency(3, F(0))] == pytest.approx(1, abs=1e-12)
        single = charfn_estimate(t3, P3, Frequency(3, F(1, 3)), depth=16)
        assert table.values[Frequency(3, F(1, 3))] == pytest.approx(single)

    def test_table_estimate_needs_level_or_grid(self, t3):
        with pytest.raises(ValueError):
            charfn_table_estimate(t3, P3, depth=8)
        with pytest.raises(ValueError):
            charfn_table_estimate(t3, INF, depth=8)

    def test_archimedean_grid_table(self, t3):
        table = charfn_table_estimate(t3, INF, depth=12,
                                      grid=[F(1, 2), F(-1, 2)])
        assert table.level is None
        assert table.values[F(0)] == 1 + 0j
        assert table.values[F(1, 2)] == pytest.approx(
            table.values[F(-1, 2)].conjugate(), abs=1e-12)

    def test_archimedean_grid_equals_point_estimates(self, t3):
        # one shared enumeration sums each point's values in the same
        # order as a lone estimate, so the floats agree exactly
        grid = [F(1, 3), F(-2, 5), F(7, 4)]
        table = charfn_table_estimate(t3, INF, depth=8, grid=grid)
        for t in grid:
            assert table.values[t] == charfn_estimate(t3, INF, t, depth=8)


# ---------------------------------------------------------------------------
# characteristic function: exact solve

class TestCharFnSolve:
    def test_level_one_closed_form(self, t3):
        table = charfn_solve(t3, 3, 1)
        assert table.method == "solve"
        assert table.residual is not None and table.residual < 1e-12
        assert table.values[Frequency(3, F(0))] == 1
        assert table.values[Frequency(3, F(1, 3))] == pytest.approx(
            MU_THIRD, abs=1e-12)
        assert table.values[Frequency(3, F(2, 3))] == pytest.approx(
            MU_THIRD.conjugate(), abs=1e-12)

    def test_level_zero(self, t3):
        table = charfn_solve(t3, 3, 0)
        assert table.values == {Frequency(3, F(0)): 1 + 0j}

    def test_hermitian_symmetry(self, t3):
        table = charfn_solve(t3, 3, 2)
        for t, val in table.values.items():
            assert table.values[-t] == pytest.approx(val.conjugate(),
                                                     abs=1e-12)

    def test_estimator_approaches_solution(self, t3):
        solved = charfn_solve(t3, 3, 1)
        estimated = charfn_table_estimate(t3, P3, depth=18, level=1)
        for t, val in solved.values.items():
            assert abs(estimated.values[t] - val) < 2e-2

    def test_t5_solution_vs_estimate(self, t5):
        solved = charfn_solve(t5, 5, 1)
        estimated = charfn_table_estimate(t5, P5, depth=18, level=1)
        for t, val in solved.values.items():
            assert abs(estimated.values[t] - val) < 2e-2
        one = Frequency(5, F(1, 5))
        assert solved.values[-one] == pytest.approx(
            solved.values[one].conjugate(), abs=1e-12)

    def test_preconditions(self, t3):
        with pytest.raises(PreconditionError):
            charfn_solve(t3, 2, 1)  # max branch norm 2 at the place 2
        with pytest.raises(PreconditionError):
            charfn_solve(t3, 6, 1)  # composite place
        H = build_hydra(2, [(1, 0), (F(3, 2), F(1, 2))])
        with pytest.raises(PreconditionError):
            charfn_solve(H, 3, 1)  # not proper
        with pytest.raises(ValueError):
            charfn_solve(t3, 3, -1)

    def test_every_branch_contracting(self):
        # no unit branch at 3: the sweeps settle after `level` steps, and
        # residues mod 3**3 are exact from depth 3 on, so the exhaustive
        # estimate equals the solution
        H = build_hydra(2, [(F(3, 2), 0), (F(-3, 2), F(3, 2))])
        solved = charfn_solve(H, 3, 3)
        estimated = charfn_table_estimate(H, P3, depth=4, level=3)
        for t, val in solved.values.items():
            assert abs(estimated.values[t] - val) < 1e-12

    def test_frequency_cap(self, t3):
        # 3**16 frequencies exceed the 2**24 cap: refused before the
        # frequency vectors are allocated
        with pytest.raises(ResourceLimitError):
            charfn_solve(t3, 3, 16)
        with pytest.raises(ResourceLimitError):
            prob_inversion(t3, 3, 16)
        deep = CharFnTable(P3, None, {Frequency(3, F(0)): 1 + 0j,
                                      Frequency(3, F(1, 3 ** 16)): 0.5 + 0j})
        with pytest.raises(ResourceLimitError):
            selfsim_residual(t3, P3, deep)

    def test_self_similarity_residuals(self, t3):
        solved = charfn_solve(t3, 3, 2)
        assert selfsim_residual(t3, P3, solved) < 1e-12
        # entries whose images are missing are skipped, not read as 0
        gap = Frequency(3, F(1, 9))
        partial = {t: v for t, v in solved.values.items() if t != gap}
        assert selfsim_residual(t3, P3, CharFnTable(P3, 2, partial)) < 1e-12
        estimated = charfn_table_estimate(t3, P3, depth=18, level=1)
        assert selfsim_residual(t3, P3, estimated) < 2e-2

    def test_trivial_table_has_zero_residual(self, t3):
        table = CharFnTable(P3, 0, {Frequency(3, F(0)): 1 + 0j})
        assert selfsim_residual(t3, P3, table) == 0

    def test_residual_needs_closed_table(self, t3):
        lonely = CharFnTable(INF, None, {F(1, 2): 0.5 + 0j})
        with pytest.raises(ValueError):
            selfsim_residual(t3, INF, lonely)

    def test_archimedean_residual_on_closed_grid(self, t3):
        # grid {0} is closed under t -> r_j t, so the residual at the
        # archimedean place is evaluable and zero
        table = CharFnTable(INF, None, {F(0): 1 + 0j})
        assert selfsim_residual(t3, INF, table) == 0


# ---------------------------------------------------------------------------
# table validation

class TestTables:
    def test_charfn_table_validation(self):
        with pytest.raises(ValueError):
            CharFnTable(P3, 0, {Frequency(3, F(0)): 1.2 + 0j})
        with pytest.raises(ValueError):
            CharFnTable(P3, 1, {Frequency(3, F(1, 3)): 1.5 + 0j})

    def test_distribution_validation(self):
        with pytest.raises(ValueError):
            Distribution(3, 1, 0, {F(0): 0.5, F(1): 0.6, F(2): -0.1})
        with pytest.raises(ValueError):
            Distribution(3, 1, 0, {F(0): 0.5, F(1): 0.4})

    def test_distribution_total_is_summed_exactly(self):
        # a running float sum of 3**12 equal masses drifts to
        # 0.9999999999917075, outside the 1e-12 tolerance
        size = 3 ** 12
        uniform = Distribution(3, 12, 0, {F(k): 1 / size for k in range(size)})
        assert len(uniform.probabilities) == size

    def test_b_constant(self, t3, t5):
        assert b_constant(t3, 3) == 0
        assert b_constant(t3, 2) == 1
        assert b_constant(t5, 5) == 0
        specs = [(F(1, 9), 0), (F(8, 9), F(1, 9)), (F(2, 3), F(2, 3))]
        specs += [(F(1), F(0))] * 6
        H9 = build_hydra(9, specs)
        assert b_constant(H9, 3) == 2
        flat = build_hydra(2, [(2, 0), (6, 0)])
        assert b_constant(flat, 3) == 0


# ---------------------------------------------------------------------------
# residue distributions

class TestDistributions:
    def test_inversion_exact_level_one(self, t3):
        dist = prob_inversion(t3, 3, 1)
        assert dist.method == "inversion"
        assert (dist.base, dist.exponent, dist.b) == (3, 1, 0)
        expected = {F(0): 0.0, F(1): F(1, 3), F(2): F(2, 3)}
        assert set(dist.probabilities) == set(expected)
        for w, p in expected.items():
            assert dist.probabilities[w] == pytest.approx(float(p),
                                                          abs=1e-12)

    def test_inversion_level_zero_is_trivial(self, t3):
        dist = prob_inversion(t3, 3, 0)
        assert dist.probabilities == {F(0): pytest.approx(1)}

    def test_inversion_t5(self, t5):
        dist = prob_inversion(t5, 5, 1)
        expected = {F(0): 0, F(1): F(1, 15), F(2): F(2, 15),
                    F(3): F(8, 15), F(4): F(4, 15)}
        for w, p in expected.items():
            assert dist.probabilities[w] == pytest.approx(float(p),
                                                          abs=1e-12)

    def test_inversion_preconditions(self, t3):
        with pytest.raises(PreconditionError):
            prob_inversion(t3, 2, 1)
        with pytest.raises(PreconditionError):
            prob_inversion(t3, 4, 1)
        with pytest.raises(ValueError):
            prob_inversion(t3, 3, -1)

    def test_empirical_shallow_depth_exact(self, t3):
        # the four depth-2 truncations have numen values 0, 1/2, 1/4,
        # 5/4, whose residues mod 3 are 0, 2, 1, 2
        dist = prob_empirical(t3, 3, 1, depth=2)
        assert dist.probabilities == {
            F(0): pytest.approx(0.25),
            F(1): pytest.approx(0.25),
            F(2): pytest.approx(0.5),
        }

    def test_empirical_exponent_zero(self, t3):
        dist = prob_empirical(t3, 3, 0, depth=4)
        assert dist.probabilities == {F(0): pytest.approx(1)}

    def test_empirical_resource_guard(self, t3):
        with pytest.raises(ResourceLimitError):
            prob_empirical(t3, 3, 1, depth=25)

    def test_empirical_matches_bruteforce(self, t3):
        # independent oracle: enumerate every depth-8 truncation through
        # numen_of_trunc and build the exact histogram
        depth, q, n = 8, 3, 2
        counts = {}
        for i in range(2 ** depth):
            x = numen_of_trunc(t3, PAdicTrunc.from_int(i, 2, depth))
            k = residue_mod(x, q, n)
            counts[k] = counts.get(k, 0) + 1
        dist = prob_empirical(t3, q, n, depth=depth)
        assert set(dist.probabilities) == {F(k) for k in counts}
        for k, c in counts.items():
            assert dist.probabilities[F(k)] == c / 2 ** depth

    def test_scaled_offsets_have_no_residue_law(self):
        # a 3-denominator offset forces b = 1, but any such offset on an
        # integer-closed map also forces an expanding scale (here all
        # |r|_3 = 3): the inversion preconditions refuse it outright,
        # and the exhaustive histogram cannot reduce the values mod 3
        # at any depth, scaled or not
        H = build_hydra(3, [(F(1, 3), 0), (F(1, 3), F(2, 3)),
                            (F(1, 3), F(1, 3))])
        assert b_constant(H, 3) == 1
        with pytest.raises(PreconditionError, match="max"):
            prob_inversion(H, 3, 1)
        with pytest.raises(NotPIntegralError):
            prob_empirical(H, 3, 1, depth=4)

    def test_inversion_vs_empirical_total_variation(self, t3, t5):
        exact = prob_inversion(t3, 3, 1)
        sampled = prob_empirical(t3, 3, 1, depth=20)
        assert total_variation(exact, sampled) < 1e-2
        exact5 = prob_inversion(t5, 5, 1)
        sampled5 = prob_empirical(t5, 5, 1, depth=16)
        assert total_variation(exact5, sampled5) < 1e-2

    def test_total_variation_basics(self, t3):
        d = prob_inversion(t3, 3, 1)
        assert total_variation(d, d) == 0
        other = prob_inversion(t3, 3, 2)
        with pytest.raises(ValueError):
            total_variation(d, other)
