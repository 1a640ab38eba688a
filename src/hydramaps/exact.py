"""Exact arithmetic over the rationals and their completions.

Valuations and absolute values at finite and archimedean places,
residues of p-integral rationals, eventually periodic digit expansions,
p-adic fractional parts, additive characters, and unit/prime-power
factorizations.  All computations are exact: rationals are
`fractions.Fraction`, absolute values are Fractions at every place,
and the valuation of zero is a tagged sentinel rather than a float
infinity.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .errors import (ENUMERATION_CAP, MapSpecError, NotPIntegralError,
                     ResourceLimitError, _guard_size)

RationalLike = Union[int, Fraction]


# ---------------------------------------------------------------------------
# small number-theory helpers

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# psi_13, the least strong pseudoprime to all of _SMALL_PRIMES
_PRIME_PROOF_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; exact for every n below
    _PRIME_PROOF_BOUND, and only 'probable' from it on."""
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = (d & -d).bit_length() - 1
    d >>= s
    for a in _SMALL_PRIMES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    """Distinct prime divisors of n >= 2, ascending."""
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    out = []
    m = n
    d = 2
    while d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out.append(m)
    return out


def _digits(n: int, p: int) -> list[int]:
    """Base-p digits of n >= 0, lowest first: the one divmod loop."""
    digits = []
    while n:
        n, d = divmod(n, p)
        digits.append(d)
    return digits


def _horner(digits, p: int) -> int:
    """sum(digits[k] * p**k): the one Horner loop."""
    total = 0
    for d in reversed(digits):
        total = total * p + d
    return total


def _int_valuation(n: int, p: int) -> int:
    # exponent of p in a nonzero integer
    n = abs(n)
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


# ---------------------------------------------------------------------------
# valuations

class _InfiniteValuation:
    """Tagged sentinel for the valuation of zero.

    Compares strictly above every integer and absorbs addition, so code
    like ``valuation(x, p) >= n`` works uniformly without floats.
    """

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __add__(self, other):
        return self

    __radd__ = __add__

    def __repr__(self):
        return "+Infinity"


INFINITY = _InfiniteValuation()

Valuation = Union[int, _InfiniteValuation]


def valuation(r: RationalLike, p: int) -> Valuation:
    """p-adic valuation v_p(r); v_p(0) is the INFINITY sentinel."""
    if not is_prime(p):
        raise ValueError(f"valuation needs a prime, got {p}")
    r = Fraction(r)
    if r == 0:
        return INFINITY
    return _int_valuation(r.numerator, p) - _int_valuation(r.denominator, p)


# ---------------------------------------------------------------------------
# places and absolute values

@dataclass(frozen=True)
class Place:
    """A place of the rationals: a prime q, or None for the archimedean one."""

    prime: int | None

    def __post_init__(self):
        if self.prime is None:
            return
        if self.prime >= _PRIME_PROOF_BOUND:
            raise ValueError(
                f"cannot prove {self.prime} prime: a finite place must be "
                f"below {_PRIME_PROOF_BOUND}")
        if not is_prime(self.prime):
            raise ValueError(f"finite place needs a prime, got {self.prime}")

    @classmethod
    def finite(cls, q: int) -> "Place":
        return cls(prime=q)

    @classmethod
    def archimedean(cls) -> "Place":
        return cls(prime=None)

    @classmethod
    def parse(cls, text: str) -> "Place":
        text = text.strip().lower()
        if text in ("inf", "infinity", "oo", "real"):
            return cls.archimedean()
        try:
            q = int(text)
        except ValueError:
            raise ValueError(f"cannot parse place {text!r}") from None
        return cls.finite(q)

    @property
    def is_finite(self) -> bool:
        return self.prime is not None

    def __str__(self) -> str:
        return "inf" if self.prime is None else str(self.prime)


def abs_finite(r: RationalLike, q: int) -> Fraction:
    """|r|_q = q**(-v_q(r)) as an exact Fraction; |0|_q = 0."""
    v = valuation(r, q)
    if v is INFINITY:
        return Fraction(0)
    return Fraction(q) ** -v


def abs_at_place(r: RationalLike, place: Place) -> Fraction:
    """Absolute value of r at a place, as an exact Fraction."""
    if place.is_finite:
        return abs_finite(r, place.prime)
    return abs(Fraction(r))


# ---------------------------------------------------------------------------
# residues and digit expansions

def residue_mod(r: RationalLike, p: int, n: int) -> int:
    """Residue [r] mod p**n of a p-integral rational, in [0, p**n).

    Defined by den(r) * x = num(r) (mod p**n); requires den(r) coprime
    to p.  p may be composite.
    """
    if p < 2:
        raise ValueError(f"need base >= 2, got {p}")
    if n < 0:
        raise ValueError(f"need exponent >= 0, got {n}")
    r = Fraction(r)
    if math.gcd(r.denominator, p) != 1:
        raise NotPIntegralError(
            f"{r} is not {p}-integral (denominator {r.denominator})")
    modulus = p ** n
    if modulus == 1:
        return 0
    return r.numerator * pow(r.denominator, -1, modulus) % modulus


@dataclass(frozen=True)
class PAdicTrunc:
    """Finite-depth truncation of a base-p expansion.

    digits[k] is the coefficient of p**k, so the represented residue is
    sum(digits[k] * p**k) mod p**depth.  The base may be composite; the
    component-wise splitting for composite bases is crt_split below.
    """

    base: int
    digits: tuple[int, ...]

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"need base >= 2, got {self.base}")
        if any(not (0 <= d < self.base) for d in self.digits):
            raise ValueError(f"digits out of range for base {self.base}")

    @classmethod
    def from_int(cls, value: int, base: int, depth: int) -> "PAdicTrunc":
        if depth < 0:
            raise ValueError(f"need depth >= 0, got {depth}")
        digits = _digits(value % base ** depth, base)
        return cls(base, tuple(digits) + (0,) * (depth - len(digits)))

    @property
    def depth(self) -> int:
        return len(self.digits)

    @property
    def value(self) -> int:
        return _horner(self.digits, self.base)

    def shift(self) -> "PAdicTrunc":
        """Drop the lowest digit: the shift map at one less depth."""
        if not self.digits:
            raise ValueError("cannot shift a depth-0 truncation")
        return PAdicTrunc(self.base, self.digits[1:])


@dataclass(frozen=True)
class RationalDigitExpansion:
    """Eventually periodic base-p digit stream of a p-integral rational.

    The canonical form produced by digit_expansion has the shortest
    period and then the shortest preperiod; constructors accept any
    eventually periodic presentation and canonical() re-derives the
    minimal one.
    """

    base: int
    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"need base >= 2, got {self.base}")
        if not self.period:
            raise ValueError("period must be nonempty")
        for d in self.preperiod + self.period:
            if not (0 <= d < self.base):
                raise ValueError(f"digit {d} out of range for base {self.base}")

    def digit(self, k: int) -> int:
        if k < len(self.preperiod):
            return self.preperiod[k]
        return self.period[(k - len(self.preperiod)) % len(self.period)]

    def digits(self, n: int) -> tuple[int, ...]:
        return tuple(self.digit(k) for k in range(n))

    def truncate(self, depth: int) -> PAdicTrunc:
        return PAdicTrunc(self.base, self.digits(depth))

    def to_rational(self) -> Fraction:
        p = self.base
        den = 1 - p ** len(self.period)
        return Fraction(_horner(self.preperiod, p) * den
                        + p ** len(self.preperiod) * _horner(self.period, p),
                        den)

    def canonical(self) -> "RationalDigitExpansion":
        return digit_expansion(self.to_rational(), self.base)


def digit_expansion(r: RationalLike, p: int) -> RationalDigitExpansion:
    """Canonical eventually periodic base-p expansion of a p-integral r.

    With r = a / b and b fixed, the shift z -> (z - [z]_p) / p sends a to
    (a - d*b) / p, d = a * b**-1 mod p.  States biject with digit tails,
    so the first repeat gives the minimal period, then preperiod.
    Refuses an expansion with no repeat in its first ENUMERATION_CAP
    digits.
    """
    if p < 2:
        raise ValueError(f"need base >= 2, got {p}")
    r = Fraction(r)
    a, b = r.as_integer_ratio()
    if math.gcd(b, p) != 1:
        raise NotPIntegralError(f"{r} is not {p}-integral (denominator {b})")
    inverse = pow(b, -1, p)
    seen: dict[int, int] = {}
    digits: list[int] = []
    while a not in seen:
        if len(digits) == ENUMERATION_CAP:
            raise ResourceLimitError(
                f"the base-{p} expansion of {r} does not repeat within "
                f"the {ENUMERATION_CAP}-digit cap")
        seen[a] = len(digits)
        d = a * inverse % p
        digits.append(d)
        a = (a - d * b) // p
    start = seen[a]
    return RationalDigitExpansion(p, tuple(digits[:start]), tuple(digits[start:]))


def drop_lowest_digit(
    x: PAdicTrunc | RationalDigitExpansion | RationalLike, p: int | None = None,
):
    """Shift map: remove digit 0 and divide by the base.

    On rationals this is (r - [r]_p) / p and needs p; on truncations and
    expansions the base is intrinsic.  Expansions are re-canonicalized.
    """
    if isinstance(x, PAdicTrunc):
        return x.shift()
    if isinstance(x, RationalDigitExpansion):
        d = x.digit(0)
        shifted = (x.to_rational() - d) / x.base
        return digit_expansion(shifted, x.base)
    if p is None:
        raise ValueError("shifting a rational needs the base p")
    r = Fraction(x)
    return (r - residue_mod(r, p, 1)) / p


# ---------------------------------------------------------------------------
# fractional parts and characters

def fractional_part(x: RationalLike, q: int) -> Fraction:
    """q-adic fractional part {x}_q, a rational in [0, 1).

    For prime q and x = a / (q**m * b) with gcd(b, q) = 1, m >= 1 this
    is (a * b^{-1} mod q**m) / q**m; q-integral x give 0.  For composite
    q it is the sum over prime divisors l of q of {x}_l, reduced mod 1.
    x - {x}_q is always q-integral.
    """
    if q < 2:
        raise ValueError(f"need base >= 2, got {q}")
    x = Fraction(x)
    if is_prime(q):
        den = x.denominator
        m = _int_valuation(den, q)
        if m == 0:
            return Fraction(0)
        b = den // q ** m
        k = x.numerator * pow(b, -1, q ** m) % q ** m
        return Fraction(k, q ** m)
    total = Fraction(0)
    for ell in prime_factors(q):
        total += fractional_part(x, ell)
    return total % 1


@dataclass(frozen=True)
class Frequency:
    """A frequency k / q**n mod 1 with prime base q.

    value lies in [0, 1) and has a q-power denominator; level is the
    exponent n of the reduced denominator (0 for the zero frequency).
    """

    base: int
    value: Fraction

    def __post_init__(self):
        if not is_prime(self.base):
            raise ValueError(f"frequency base must be prime, got {self.base}")
        if not (0 <= self.value < 1):
            raise ValueError(f"frequency value {self.value} not in [0, 1)")
        den = self.value.denominator
        if den != self.base ** _int_valuation(den, self.base):
            raise ValueError(
                f"denominator {den} is not a power of {self.base}")

    @property
    def level(self) -> int:
        return _int_valuation(self.value.denominator, self.base)

    def __add__(self, other: "Frequency") -> "Frequency":
        if other.base != self.base:
            raise ValueError("frequency bases differ")
        return Frequency(self.base, (self.value + other.value) % 1)

    def __neg__(self) -> "Frequency":
        return Frequency(self.base, -self.value % 1)

    def __str__(self) -> str:
        return str(self.value)


def frequencies_through_level(q: int, n: int) -> list[Frequency]:
    """All q**n frequencies of level <= n: j / q**n for 0 <= j < q**n.
    Refuses more than ENUMERATION_CAP of them."""
    _guard_size(q, n, "frequencies")
    N = q ** n
    return [Frequency(q, Fraction(j, N)) for j in range(N)]


def unit_root(angle: RationalLike) -> complex:
    """exp(2*pi*i*angle) for an exact rational angle."""
    a = Fraction(angle) % 1
    return cmath.exp(complex(0.0, 2.0 * math.pi * (a.numerator / a.denominator)))


def character_angle(t: Frequency, z: PAdicTrunc | RationalLike) -> Fraction:
    """Exact angle a in [0, 1) with character value exp(2*pi*i*a).

    The character of t = k/q**n at a q-integral z depends only on the
    residue [z] mod q**n: the angle is k*[z]/q**n mod 1.  Truncations
    must have base q and depth >= the level of t.
    """
    q, n = t.base, t.level
    if t.value == 0:
        return Fraction(0)
    if isinstance(z, PAdicTrunc):
        if z.base != q:
            raise ValueError(f"truncation base {z.base} != frequency base {q}")
        if z.depth < n:
            raise ValueError(f"truncation depth {z.depth} below level {n}")
        rz = z.value % q ** n
    else:
        rz = residue_mod(z, q, n)
    return (t.value * rz) % 1


def character_eval(t: Frequency, z: PAdicTrunc | RationalLike) -> complex:
    """Unit-magnitude character value exp(2*pi*i * t * [z])."""
    return unit_root(character_angle(t, z))


# ---------------------------------------------------------------------------
# unit parts and factorizations

def unit_part(y: RationalLike, p: int) -> Fraction:
    """u_p(y) = y * |y|_p = y * p**(-v_p(y)); u_p(0) = 0."""
    y = Fraction(y)
    if y == 0:
        return Fraction(0)
    return y * Fraction(p) ** (-valuation(y, p))


def unit_factorization(
    r: RationalLike, primes: set[int] | frozenset[int],
) -> tuple[Fraction, Fraction]:
    """Split nonzero r as (mu, u) with mu = prod(q**v_q(r)) over the
    given primes and u = r / mu a unit at each of them."""
    r = Fraction(r)
    if r == 0:
        raise ValueError("cannot factor zero")
    mu = Fraction(1)
    for q in sorted(primes):
        mu *= Fraction(q) ** valuation(r, q)
    return mu, r / mu


def crt_split(x: PAdicTrunc, ell: int) -> PAdicTrunc:
    """Component of a composite-base truncation at the prime ell | base.

    The base-p residue ring mod p**N splits into coprime factors
    (l**v_l(p))**N; the ell-component is the value reduced mod that
    factor, re-expressed in base l**v_l(p) at the same depth.
    """
    if not is_prime(ell):
        raise ValueError(f"need a prime, got {ell}")
    if x.base % ell != 0:
        raise ValueError(f"{ell} does not divide base {x.base}")
    local_base = ell ** _int_valuation(x.base, ell)
    return PAdicTrunc.from_int(x.value, local_base, x.depth)


# ---------------------------------------------------------------------------
# serialization

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def parse_rational(text: str) -> Fraction:
    """Parse 'a/b' or 'a' (ASCII or unicode minus) into a Fraction.
    Decimal and exponent forms are refused: their exponent is unbounded."""
    cleaned = text.strip().replace("−", "-")
    try:
        if not _RATIONAL.fullmatch(cleaned):
            raise ValueError("expected a/b or a in decimal digits")
        return Fraction(cleaned)
    except (ValueError, ZeroDivisionError) as exc:
        raise MapSpecError(f"invalid rational {text!r}: {exc}") from None


def format_rational(r: RationalLike) -> str:
    """Canonical 'a/b' (or 'a' for integers), lowest terms, '-' sign."""
    return str(Fraction(r))
