"""The numen of a hydra map: the solution of X(p*n + j) = r_j*X(n) + c_j.

X of a natural number or a finite truncation is the branch word of its
digits applied to X(0), one integer fold (hydra._word_form).  On p-adic
inputs the numen is a limit; convergence_report classifies, per place,
whether that limit exists almost everywhere or uniformly, and
numen_of_rational evaluates it in closed form on eventually periodic
inputs wherever some place contracts the periodic block.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import PreconditionError, ResourceLimitError
from .exact import (
    PAdicTrunc,
    Place,
    RationalDigitExpansion,
    RationalLike,
    _digits,
    abs_at_place,
    digit_expansion,
    valuation,
)
from .hydra import DigitString, HydraMap, _word_form, _word_image, digits_of

# the longest period numen_of_rational folds: the fold and its truncation
# check grow with the square of the period (t3 at 1/b, 2 vCPU: 0.14 s at
# a period of 8,218, 2.2 s at 32,770, 7.7 s at 65,538, 125 s at 262,146)
_PERIOD_CAP = 2 ** 16

GUARANTEE_UNIFORM = "uniform-continuous"
GUARANTEE_AE = "almost-everywhere"
GUARANTEE_NONE = "none"


def base_value(H: HydraMap) -> Fraction:
    """X(0), the anchor of the recursion.

    For proper maps (r_0 != 1) this is the unique solution c_0/(1 - r_0)
    of X(0) = r_0*X(0) + c_0; non-proper maps need an explicit
    initial_value on the map (any value works only when c_0 = 0, and
    there is no canonical default).
    """
    r0, c0 = H.branches[0].scale, H.branches[0].shift
    if r0 != 1:
        return c0 / (1 - r0)
    if H.initial_value is None:
        raise PreconditionError(
            "map is not proper (r_0 = 1) and carries no initial value: "
            "X(0) is underdetermined")
    return H.initial_value


def numen_of_nat(H: HydraMap, n: int) -> Fraction:
    """Exact X(n) for n >= 0: the branch word of n's base-p digits
    (lowest digit outermost) applied to X(0)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    return _word_image(H, _digits(n, H.modulus), base_value(H))


def numen_of_trunc(H: HydraMap, z: PAdicTrunc) -> Fraction:
    """X of a depth-N truncation: the partial-product series

        sum_m (r_{d_0} * ... * r_{d_{m-1}}) * c_{d_m}  +  (prod r) * X(0)

    over the digits d of z.  Agrees exactly with numen_of_nat(value).
    """
    if z.base != H.modulus:
        raise ValueError(f"truncation base {z.base} != map modulus {H.modulus}")
    return _word_image(H, z.digits, base_value(H))


@dataclass(frozen=True)
class ConvergenceReport:
    """Per-place convergence classification of the numen limit.

    rho is the product of the branch-scale norms at the place and
    max_branch_norm their maximum, both exact.  guarantee is
    uniform-continuous when rho < 1 and every branch norm is < 1,
    almost-everywhere when only rho < 1, and none when rho >= 1 (which
    asserts nothing about divergence).  ell_bound is max_j |c_j| at
    finite places: when max_branch_norm <= 1 it bounds |X| everywhere.
    """

    place: Place
    rho: Fraction
    max_branch_norm: Fraction
    guarantee: str
    ell_bound: Fraction | None


def convergence_report(H: HydraMap, place: Place) -> ConvergenceReport:
    norms = [abs_at_place(b.scale, place) for b in H.branches]
    rho = math.prod(norms, start=Fraction(1))
    max_norm = max(norms)
    if rho < 1 and max_norm < 1:
        guarantee = GUARANTEE_UNIFORM
    elif rho < 1:
        guarantee = GUARANTEE_AE
    else:
        guarantee = GUARANTEE_NONE
    ell_bound = None
    if place.is_finite:
        ell_bound = max(abs_at_place(b.shift, place) for b in H.branches)
    return ConvergenceReport(place, rho, max_norm, guarantee, ell_bound)


@dataclass(frozen=True)
class DensityProfile:
    """Exact digit frequencies over one period of an expansion."""

    base: int
    densities: tuple[Fraction, ...]

    def __post_init__(self):
        if sum(self.densities) != 1:
            raise ValueError("densities must sum to 1")


def digit_densities(z: RationalDigitExpansion) -> DensityProfile:
    """Per-digit densities of the periodic tail (the preperiod has
    density zero; limsup and liminf coincide for periodic input)."""
    counts = [0] * z.base
    for d in z.period:
        counts[d] += 1
    total = len(z.period)
    return DensityProfile(z.base, tuple(Fraction(c, total) for c in counts))


def density_criterion(
    H: HydraMap, place: Place, z: RationalDigitExpansion,
) -> tuple[float, bool]:
    """The weighted log-norm sum  sum_j d_j * ln ||r_j||  at the place,
    with d_j the exact digit densities of z.

    Returns (float value, converges) where converges decides value < 0
    exactly: with common denominator L, value < 0 iff the product of
    ||r_j||**(d_j*L) is < 1, a pure rational comparison.  Branches of
    norm 1 contribute nothing either way.
    """
    if z.base != H.modulus:
        raise ValueError(f"expansion base {z.base} != map modulus {H.modulus}")
    profile = digit_densities(z)
    norms = [abs_at_place(b.scale, place) for b in H.branches]
    value = 0.0
    for d, norm in zip(profile.densities, norms):
        if d and norm != 1:
            value += float(d) * (math.log(norm.numerator)
                                 - math.log(norm.denominator))
    L = math.lcm(*(d.denominator for d in profile.densities))
    product = Fraction(1)
    for d, norm in zip(profile.densities, norms):
        product *= norm ** int(d * L)
    return value, product < 1


def find_contracting_place(scale: Fraction) -> Place | None:
    """A place where |scale| < 1: finite candidates are the primes
    dividing the numerator, then the archimedean place."""
    num = abs(scale.numerator)
    if num > 1:
        from .exact import prime_factors

        for q in prime_factors(num):
            return Place.finite(q)
    if abs(scale) < 1:
        return Place.archimedean()
    return None


def periodic_word_value(H: HydraMap, word: DigitString) -> Fraction:
    """Fixed point of the composite along word: X of the p-adic number
    whose digits repeat word.  Requires the composite scale != 1."""
    if word.base != H.modulus:
        raise ValueError(f"string base {word.base} != map modulus {H.modulus}")
    A, B, Dn = _word_form(H, word.entries)
    if A == Dn:
        raise PreconditionError(
            "periodic block composes to scale 1: no unique fixed point")
    return Fraction(B, Dn - A)


def numen_of_rational(
    H: HydraMap,
    z: RationalDigitExpansion | RationalLike,
    place: Place | None = None,
) -> Fraction:
    """Exact numen value at an eventually periodic p-adic input.

    The periodic tail contributes the fixed point of its branch word;
    the preperiod folds over it.  Requires a place where the word's
    composite scale has norm < 1 (auto-searched when place is None);
    the value itself does not depend on which place certifies it.
    Inputs that are plain nonnegative integers (all-zero period) reduce
    to numen_of_nat and need no contracting place.

    Before returning, the value is cross-checked against truncations at
    two period-aligned depths (around 32 and 64 digits): the place-norm
    distance to the truncation series must strictly shrink.  Refuses a
    period longer than 2**16 digits.
    """
    if not isinstance(z, RationalDigitExpansion):
        z = digit_expansion(Fraction(z), H.modulus)
    if z.base != H.modulus:
        raise ValueError(f"expansion base {z.base} != map modulus {H.modulus}")
    if len(z.period) > _PERIOD_CAP:
        raise ResourceLimitError(
            f"a period of {len(z.period)} digits is above the "
            f"{_PERIOD_CAP}-digit cap")

    if all(d == 0 for d in z.period):
        return numen_of_nat(H, int(z.to_rational()))

    A, B, Dn = _word_form(H, z.period)
    scale = Fraction(A, Dn)
    if place is None:
        place = find_contracting_place(scale)
        if place is None:
            raise PreconditionError(
                f"no place contracts the periodic block (scale {scale})")
    if not abs_at_place(scale, place) < 1:
        raise PreconditionError(
            f"requires |scale| < 1 at the place: block scale {scale} "
            f"has norm >= 1 at {place}")

    # the block's fixed point B / (D**n - A), then the preperiod over it
    x = _word_image(H, z.preperiod, Fraction(B, Dn - A))
    _verify_against_truncations(H, z, x, place)
    return x


def _verify_against_truncations(
    H: HydraMap, z: RationalDigitExpansion, x: Fraction, place: Place,
) -> None:
    # depths aligned to the period so the truncation tails repeat
    s, tau = len(z.preperiod), len(z.period)
    reps = max(2, -(-(64 - s) // tau))
    n1 = s + (reps // 2) * tau
    n2 = s + reps * tau
    d1 = x - numen_of_trunc(H, z.truncate(n1))
    d2 = x - numen_of_trunc(H, z.truncate(n2))
    if d1 == 0 and d2 == 0:
        return
    n1_abs = abs_at_place(d1, place)
    n2_abs = abs_at_place(d2, place)
    if not n2_abs < n1_abs:
        raise PreconditionError(
            f"truncation cross-check failed at {place}: |x - T{n2}| = "
            f"{n2_abs} is not below |x - T{n1}| = {n1_abs}")


def repeating_digits_rational(n: int, p: int) -> tuple[Fraction, int]:
    """The rational n / (1 - p**lam) with lam the base-p digit count of
    n >= 1: the p-adic integer whose digits repeat the digits of n."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    lam = len(digits_of(n, p))
    return Fraction(n, 1 - p ** lam), lam


def ell_bound_check(
    H: HydraMap,
    place: Place,
    samples: int = 1000,
    depth: int = 30,
    seed: int = 0,
) -> bool:
    """Sample random depth-N truncations and test the ultrametric bound
    |X| <= max_j |c_j| at the finite place, exactly.

    Requires max_j |r_j| <= 1 there; under that hypothesis every term of
    the truncation series has norm <= max_j |c_j| and the ultrametric
    inequality makes violations impossible, so False indicates a bug or
    a non-centered anchor leaking into the series.
    """
    if not place.is_finite:
        raise PreconditionError("the series bound is non-archimedean only")
    report = convergence_report(H, place)
    if not report.max_branch_norm <= 1:
        raise PreconditionError(
            f"requires max_j |r_j| <= 1 at {place}, got "
            f"{report.max_branch_norm}")
    bound = report.ell_bound
    rng = random.Random(seed)
    p = H.modulus
    for _ in range(samples):
        digits = tuple(rng.randrange(p) for _ in range(depth))
        value = numen_of_trunc(H, PAdicTrunc(p, digits))
        if not abs_at_place(value, place) <= bound:
            return False
    return True
