"""Haar integration, Schwartz-Bruhat functions, and numen distributions.

The Haar probability measure on the base-p integers gives each ball of
radius p**-n mass p**-n.  Schwartz-Bruhat (SB) functions are finite
complex combinations of ball indicators, stored densely at a common
refinement level; their Fourier transforms live on frequencies k/q**n
mod 1.  Inside this module a function on the frequencies of level <= n
is one complex numpy vector indexed by the numerator k mod q**n, and
every character sum over such a vector is an FFT; the public tables
keep Frequency keys and are converted once per call.

The characteristic function of a hydra map's numen satisfies a
self-similarity equation that can either be solved by fixed-point
sweeps over that vector (charfn_solve) or estimated by exhaustive
Riemann sums over truncations (charfn_estimate); residue distributions
come from Fourier inversion of the solved table (prob_inversion) or from
the same exhaustive enumeration (prob_empirical).  The two routes are
kept independent so each can check the other.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    NotPIntegralError,
    NumericalCheckError,
    PreconditionError,
    _guard_size,
)
from .exact import (
    Frequency,
    PAdicTrunc,
    Place,
    RationalLike,
    character_eval,
    fractional_part,
    frequencies_through_level,
    is_prime,
    residue_mod,
    unit_root,
    valuation,
)
from .hydra import HydraMap, _word_tables
from .numen import base_value, convergence_report

# the level sweeps stop once the self-similarity defect is this small
_SWEEP_STOP = 1e-15


# ---------------------------------------------------------------------------
# Schwartz-Bruhat functions

@dataclass(frozen=True)
class SBFunction:
    """A locally constant function with compact level: a complex
    coefficient per residue class mod base**level.

    coeffs[k] is the value on the ball k + base**level * Z_base.  Sums,
    differences, and pointwise products refine both operands to a common
    level first, so the representation is always canonical (one term per
    residue at a single level).
    """

    base: int
    level: int
    coeffs: tuple[complex, ...]

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"need base >= 2, got {self.base}")
        if self.level < 0:
            raise ValueError(f"need level >= 0, got {self.level}")
        if len(self.coeffs) != self.base ** self.level:
            raise ValueError(
                f"need {self.base ** self.level} coefficients, "
                f"got {len(self.coeffs)}")

    @classmethod
    def constant(cls, value: complex, base: int) -> "SBFunction":
        return cls(base, 0, (complex(value),))

    @classmethod
    def indicator(cls, k: int, n: int, base: int) -> "SBFunction":
        """The indicator of the ball k + base**n * Z_base."""
        _guard_size(base, n, "coefficients")
        size = base ** n
        k %= size
        return cls(base, n,
                   tuple(1.0 + 0j if i == k else 0j for i in range(size)))

    @classmethod
    def from_terms(
        cls, base: int, terms: Iterable[tuple[int, int, complex]],
    ) -> "SBFunction":
        """Sum of coeff * indicator(k mod base**n) over (k, n, coeff)."""
        terms = list(terms)
        level = max((n for _, n, _ in terms), default=0)
        _guard_size(base, level, "coefficients")
        size = base ** level
        coeffs = [0j] * size
        for k, n, coeff in terms:
            if n < 0:
                raise ValueError(f"need n >= 0, got {n}")
            step = base ** n
            for i in range(k % step, size, step):
                coeffs[i] += complex(coeff)
        return cls(base, level, tuple(coeffs))

    def refine(self, level: int) -> "SBFunction":
        if level < self.level:
            raise ValueError(f"cannot coarsen level {self.level} to {level}")
        if level == self.level:
            return self
        _guard_size(self.base, level, "coefficients")
        step = self.base ** self.level
        size = self.base ** level
        return SBFunction(self.base, level,
                          tuple(self.coeffs[i % step] for i in range(size)))

    def _common(self, other: "SBFunction") -> tuple["SBFunction", "SBFunction"]:
        if other.base != self.base:
            raise ValueError(f"bases differ: {self.base} != {other.base}")
        level = max(self.level, other.level)
        return self.refine(level), other.refine(level)

    def __add__(self, other: "SBFunction") -> "SBFunction":
        a, b = self._common(other)
        return SBFunction(a.base, a.level,
                          tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    def __sub__(self, other: "SBFunction") -> "SBFunction":
        a, b = self._common(other)
        return SBFunction(a.base, a.level,
                          tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))

    def __mul__(self, other):
        if isinstance(other, SBFunction):
            a, b = self._common(other)
            return SBFunction(a.base, a.level,
                              tuple(x * y for x, y in zip(a.coeffs, b.coeffs)))
        if isinstance(other, numbers.Number):
            return SBFunction(self.base, self.level,
                              tuple(complex(other) * x for x in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __neg__(self) -> "SBFunction":
        return self * (-1)

    def value_at(self, z: PAdicTrunc | RationalLike) -> complex:
        """Evaluate at a base-integral rational or a truncation of
        depth >= level."""
        size = self.base ** self.level
        if isinstance(z, PAdicTrunc):
            if z.base != self.base:
                raise ValueError(
                    f"truncation base {z.base} != function base {self.base}")
            if z.depth < self.level:
                raise ValueError(
                    f"depth {z.depth} below function level {self.level}")
            return self.coeffs[z.value % size]
        return self.coeffs[residue_mod(z, self.base, self.level)]

    def isclose(self, other: "SBFunction", tol: float = 1e-12) -> bool:
        a, b = self._common(other)
        return all(abs(x - y) <= tol for x, y in zip(a.coeffs, b.coeffs))


# ---------------------------------------------------------------------------
# Haar integration

def haar_integral_sb(f: SBFunction) -> complex:
    """Exact integral against the Haar probability measure: each ball at
    the function's level has mass base**-level."""
    return sum(f.coeffs) / f.base ** f.level


def haar_integral_riemann(
    g: Callable[[PAdicTrunc], complex],
    base: int,
    depth: int,
    allow_large: bool = False,
) -> complex:
    """Depth-N Riemann sum: the average of g over all base**N
    truncations.  Exact for functions that only depend on the residue
    mod base**N (in particular any SB function of level <= N)."""
    _guard_size(base, depth, "truncations", allow_large)
    total = 0j
    size = base ** depth
    for i in range(size):
        total += g(PAdicTrunc.from_int(i, base, depth))
    return total / size


# ---------------------------------------------------------------------------
# Fourier transforms on SB functions

def _frequency_table(x: np.ndarray, q: int) -> dict[Frequency, complex]:
    """The Frequency-keyed form of a vector over k / q**level."""
    N = len(x)
    return {Frequency(q, Fraction(k, N)): v for k, v in enumerate(x.tolist())}


def _frequency_vector(
    values: Mapping[Frequency, complex], q: int, level: int,
) -> tuple[np.ndarray, np.ndarray]:
    """A Frequency-keyed table as a vector over k / q**level, and the
    mask of the tabulated k."""
    N = q ** level
    x = np.zeros(N, dtype=complex)
    present = np.zeros(N, dtype=bool)
    for t, val in values.items():
        if t.base != q:
            raise ValueError(f"frequency base {t.base} != {q}")
        if t.level > level:
            raise ValueError(
                f"frequency {t} has level above the target {level}")
        k = t.value.numerator * (N // t.value.denominator)
        x[k] = val
        present[k] = True
    return x, present


def fourier_sb(f: SBFunction) -> dict[Frequency, complex]:
    """Transform f-hat(t) = integral of f(z) * e(-t z): supported on the
    frequencies of level <= the function's level, where it equals a
    scaled discrete Fourier transform of the coefficient vector."""
    if not is_prime(f.base):
        raise PreconditionError(
            f"Fourier transform needs a prime base, got {f.base}; "
            "split composite bases with crt_split first")
    return _frequency_table(np.fft.fft(f.coeffs) / f.base ** f.level, f.base)


def inverse_fourier_sb(
    table: Mapping[Frequency, complex],
    base: int,
    level: int | None = None,
) -> SBFunction:
    """Fourier series sum_t table[t] * e(t z) as an SB function at the
    table's maximal level (or an explicit finer one)."""
    if not is_prime(base):
        raise PreconditionError(f"need a prime base, got {base}")
    if level is None:
        level = max((t.level for t in table), default=0)
    _guard_size(base, level, "coefficients")
    x, _ = _frequency_vector(table, base, level)
    return SBFunction(base, level, tuple((np.fft.ifft(x) * x.size).tolist()))


def orthogonality_sum(q: int, n: int, x: RationalLike, y: RationalLike) -> complex:
    """sum over |t| <= q**n of e(t (y - x)): equals q**n when x = y mod
    q**n and 0 otherwise (up to roundoff in the root-of-unity sums)."""
    z = Fraction(y) - Fraction(x)
    return sum(character_eval(t, z) for t in frequencies_through_level(q, n))


# ---------------------------------------------------------------------------
# additive characters at places

def additive_character(place: Place, x: RationalLike) -> complex:
    """e_l(x): exp(2 pi i {x}_q) at a finite place, exp(2 pi i x) at the
    archimedean place.  The angle is reduced mod 1 exactly before any
    float enters."""
    x = Fraction(x)
    if place.is_finite:
        return unit_root(fractional_part(x, place.prime))
    return unit_root(x % 1)


# ---------------------------------------------------------------------------
# characteristic function of the numen

@dataclass
class CharFnTable:
    """Tabulated characteristic-function values.

    Finite-place tables map every Frequency of level <= level; an
    archimedean table maps the sample grid points (exact rationals)
    that were requested.  residual records the worst self-similarity
    defect the producer measured, when it measured one.
    """

    place: Place
    level: int | None
    values: dict
    method: str = ""
    residual: float | None = None

    def __post_init__(self):
        zero = Frequency(self.place.prime, Fraction(0)) \
            if self.place.is_finite else Fraction(0)
        if zero in self.values and abs(self.values[zero] - 1) > 1e-9:
            raise ValueError("characteristic function must be 1 at t = 0")
        for t, val in self.values.items():
            if abs(val) > 1 + 1e-9:
                raise ValueError(f"|table[{t}]| = {abs(val)} exceeds 1")


def b_constant(H: HydraMap, q: int) -> int:
    """max_j log_q |c_j|_q over nonzero branch offsets (0 when every
    offset vanishes): the numen's values lie in q**-B * Z_q."""
    exps = [-valuation(b.shift, q) for b in H.branches if b.shift != 0]
    return max(exps) if exps else 0


def _lattice_exponent(H: HydraMap, q: int) -> int:
    """The least B >= b_constant(H, q), B >= 0, with X(0) in
    q**-B * Z_q: every truncation value adds X(0) times its product of
    scales to the offsets' series, so with q-integral scales all of
    them lie in q**-B * Z_q."""
    anchor = base_value(H)
    return max(b_constant(H, q), -valuation(anchor, q) if anchor else 0, 0)


def _series_values(H: HydraMap, depth: int) -> Iterable[Fraction]:
    """Exact numen values of all modulus**depth truncations, their digit
    words in descending order (hydra._word_tables, halves of length
    depth - k and k = ceil(depth/2) joined), each applied to X(0)."""
    anchor = base_value(H)
    x, y = anchor.numerator, anchor.denominator
    k = (depth + 1) // 2
    tables = _word_tables(H, k)
    D = H._steps[0][2]
    Dk, Dny = D ** k, D ** depth * y
    for Au, Bu in tables[depth - k]:
        c = Dk * Bu
        for A, B in tables[k]:
            yield Fraction(Au * A * x + (Au * B + c) * y, Dny)


def _scaled_residue_histogram(
    H: HydraMap, q: int, exponent: int, scale_power: int, depth: int,
) -> dict[int, int]:
    """Counts of [q**scale_power * X]_{q**exponent} over all
    modulus**depth truncations.

    When the (scaled) branch data is q-integral the enumeration is
    regrouped as a dynamic program over (product, partial-sum) residue
    pairs; this is an exact reorganization of the same sum, not an
    approximation.  Otherwise every truncation is evaluated exactly.
    """
    M = q ** exponent
    scale = Fraction(q) ** scale_power
    try:
        pairs = [(residue_mod(b.scale, q, exponent),
                  residue_mod(b.shift * scale, q, exponent))
                 for b in H.branches]
        anchor = residue_mod(base_value(H) * scale, q, exponent)
    except NotPIntegralError:
        hist: dict[int, int] = {}
        for x in _series_values(H, depth):
            k = residue_mod(x * scale, q, exponent)
            hist[k] = hist.get(k, 0) + 1
        return hist

    states: dict[tuple[int, int], int] = {(1 % M, 0): 1}
    for _ in range(depth):
        nxt: dict[tuple[int, int], int] = {}
        for (prod, partial), count in states.items():
            for R, C in pairs:
                key = (prod * R % M, (partial + prod * C) % M)
                nxt[key] = nxt.get(key, 0) + count
        states = nxt
    hist = {}
    for (prod, partial), count in states.items():
        k = (partial + prod * anchor) % M
        hist[k] = hist.get(k, 0) + count
    return hist


def _require_contracting(H: HydraMap, place: Place, force: bool) -> None:
    report = convergence_report(H, place)
    if not report.rho < 1 and not force:
        raise PreconditionError(
            f"requires rho < 1 at {place} for the numen to converge "
            f"almost everywhere; got rho = {report.rho} (force to override)")


def _estimate_vector(
    H: HydraMap, q: int, level: int, depth: int, allow_large: bool,
) -> np.ndarray:
    """Riemann estimate of mu-hat at every k / q**level from the exact
    histogram of [q**B * X] mod q**(level + B) over all modulus**depth
    truncations: the value at k is sum_w count(w) e(-k w / q**(level+B))
    divided by the number of truncations, the first q**level bins of one
    FFT of the histogram."""
    B = _lattice_exponent(H, q)
    _guard_size(q, level + B, "frequencies", allow_large)
    hist = _scaled_residue_histogram(H, q, level + B, B, depth)
    counts = np.zeros(q ** (level + B))
    counts[list(hist)] = list(hist.values())
    return np.fft.fft(counts)[:q ** level] / H.modulus ** depth


def charfn_estimate(
    H: HydraMap,
    place: Place,
    t: Frequency | RationalLike,
    depth: int,
    force: bool = False,
    allow_large: bool = False,
) -> complex:
    """Depth-N Riemann estimate of the characteristic function

        mu-hat(t) = integral of e_l(-t X(z)) dz

    as the exact average of e_l(-t X) over all modulus**N truncations.
    Requires rho < 1 at the place unless force is set.
    """
    _require_contracting(H, place, force)
    _guard_size(H.modulus, depth, "truncations", allow_large)

    if place.is_finite:
        q = place.prime
        if not isinstance(t, Frequency) or t.base != q:
            raise ValueError(f"need a base-{q} Frequency at the finite place")
        values = _estimate_vector(H, q, t.level, depth, allow_large)
        return complex(values[t.value.numerator])

    if isinstance(t, Frequency):
        raise ValueError("archimedean estimates take a real t, not a Frequency")
    return _archimedean_estimates(H, [Fraction(t)], depth)[0]


def _archimedean_estimates(
    H: HydraMap, grid: Sequence[Fraction], depth: int,
) -> list[complex]:
    """The average of e(-t X) over all modulus**depth truncations at every
    t of the grid, from one streamed enumeration of the values X (each
    t's sum runs over the values in the same order as a lone estimate)."""
    totals = [0j] * len(grid)
    for x in _series_values(H, depth):
        for i, t in enumerate(grid):
            totals[i] += unit_root((-t * x) % 1)
    return [total / H.modulus ** depth for total in totals]


def charfn_table_estimate(
    H: HydraMap,
    place: Place,
    depth: int,
    level: int | None = None,
    grid: Sequence[RationalLike] | None = None,
    force: bool = False,
    allow_large: bool = False,
) -> CharFnTable:
    """Estimator table: all frequencies of level <= level at a finite
    place (one shared enumeration), or an explicit sample grid at the
    archimedean place."""
    _require_contracting(H, place, force)
    if place.is_finite:
        if level is None:
            raise ValueError("finite-place tables need a level")
        q = place.prime
        _guard_size(H.modulus, depth, "truncations", allow_large)
        values = _estimate_vector(H, q, level, depth, allow_large)
        return CharFnTable(place, level, _frequency_table(values, q),
                           method="estimate")
    if grid is None:
        raise ValueError("archimedean tables need an explicit grid")
    _guard_size(H.modulus, depth, "truncations", allow_large)
    points = [Fraction(t) for t in grid]
    values = dict(zip(points, _archimedean_estimates(H, points, depth)))
    values.setdefault(Fraction(0), 1 + 0j)
    return CharFnTable(place, None, values, method="estimate")


def _branch_maps(
    H: HydraMap, q: int, level: int,
) -> tuple[np.ndarray, np.ndarray]:
    """For t = k / q**level and each branch j: the numerator of {r_j t}_q
    at the same level (-1 when it lies higher) and the weight e_q(-c_j t),
    as (p, q**level) arrays.  {x t}_q = m / q**(level + s) exactly, with
    q**s the q-part of den(x) (at most p, which den(x) divides) and
    m = k * [x q**s] mod q**(level + s); floats enter only at the exp."""
    k = np.arange(q ** level, dtype=np.int64)

    def numerators(x: Fraction) -> tuple[np.ndarray, int]:
        s = max(0, -valuation(x, q)) if x else 0
        return k * residue_mod(x * q ** s, q, level + s) % q ** (level + s), s

    images, weights = [], []
    for b in H.branches:
        m, s = numerators(b.scale)
        images.append(np.where(m % q ** s == 0, m // q ** s, -1))
        m, s = numerators(-b.shift)
        weights.append(np.exp(2j * np.pi * m / q ** (level + s)))
    return np.array(images), np.array(weights)


def _selfsim_defect(
    x: np.ndarray,
    images: np.ndarray,
    weights: np.ndarray,
    p: int,
    present: np.ndarray,
) -> tuple[float | None, np.ndarray]:
    """(worst |x - T x|, T x) for the self-similarity map
    (T x)[k] = (1/p) sum_j weights[j, k] * x[images[j, k]], over the
    present entries whose images are all present (None if there are none)."""
    swept = np.sum(weights * x[images], axis=0) / p
    ok = present & np.all((images >= 0) & present[images], axis=0)
    gap = np.abs(x - swept)[ok]
    return (float(gap.max()) if gap.size else None), swept


def _solve(H: HydraMap, q: int, level: int) -> tuple[np.ndarray, float]:
    """mu-hat at every t = k / q**level, and its defect, by the sweeps
    x <- T x from x = [t = 0]; index 0 is its own image with weight 1 on
    every branch, so they hold x[0] = 1.  The preconditions of
    charfn_solve and prob_inversion: q prime, the map proper, and at the
    place q both max_j |r_j| <= 1 (so scales never raise a frequency's
    level) and rho < 1; q**level at most ENUMERATION_CAP.
    """
    if level < 0:
        raise ValueError(f"need level >= 0, got {level}")
    if not is_prime(q):
        raise PreconditionError(f"need a prime place, got {q}")
    if H.branches[0].scale == 1:
        raise PreconditionError(
            "requires a proper map (r_0 != 1): the normalization "
            "mu-hat(0) = 1 anchors the recursion only then")
    report = convergence_report(H, Place.finite(q))
    if not report.max_branch_norm <= 1:
        raise PreconditionError(
            f"requires max_j |r_j|_{q} <= 1, got {report.max_branch_norm}")
    if not report.rho < 1:
        raise PreconditionError(
            f"requires rho < 1 at the place {q}, got rho = {report.rho}")
    _guard_size(q, level, "frequencies")

    images, weights = _branch_maps(H, q, level)
    present = np.ones(q ** level, dtype=bool)
    x = np.zeros(q ** level, dtype=complex)
    x[0] = 1
    # The u unit branches (|r_j|_q = 1) keep a frequency's level and the
    # others lower it, so a sweep leaves the error at a level at most
    # a = u/p times its own plus 1 - a times the lower levels', and level
    # 0 is exact: after level * T sweeps the error is at most level * a**T
    # (some block of T sweeps never stepped down), the defect twice that.
    units = sum(valuation(b.scale, q) == 0 for b in H.branches)
    ceiling = level
    if units and level:
        ceiling *= math.ceil(math.log(_SWEEP_STOP / (2 * level))
                             / math.log(units / H.modulus))
    residual, swept = _selfsim_defect(x, images, weights, H.modulus, present)
    for _ in range(ceiling):
        if residual <= _SWEEP_STOP:
            break
        x = swept
        residual, swept = _selfsim_defect(x, images, weights, H.modulus,
                                          present)
    if residual > 1e-12:
        raise NumericalCheckError(
            f"solver residual {residual} exceeds 1e-12 after {ceiling} sweeps")
    return x, residual


def charfn_solve(H: HydraMap, q: int, level: int) -> CharFnTable:
    """Solve the self-similarity equation for all |t| <= q**level.

    Requires q prime, the map proper, and at the place q both
    max_j |r_j| <= 1 and rho < 1; refuses q**level above
    ENUMERATION_CAP.  Residuals of all fixed-point equations are
    verified below 1e-12 before returning.
    """
    values, residual = _solve(H, q, level)
    return CharFnTable(Place.finite(q), level, _frequency_table(values, q),
                       method="solve", residual=residual)


def selfsim_residual(H: HydraMap, place: Place, table: CharFnTable) -> float:
    """Worst defect of the self-similarity equation over the table.

    Frequencies whose image points {r_j t} (or r_j t at the archimedean
    place) are missing from the table are skipped; at least one entry
    must be evaluable.
    """
    if place.is_finite:
        q = place.prime
        level = max((t.level for t in table.values), default=0)
        _guard_size(q, level, "frequencies")
        x, present = _frequency_vector(table.values, q, level)
        images, weights = _branch_maps(H, q, level)
    else:
        keys = list(table.values)
        index = {t: i for i, t in enumerate(keys)}
        x = np.array([table.values[t] for t in keys], dtype=complex)
        present = np.ones(len(keys), dtype=bool)
        images = np.array([[index.get(b.scale * t, -1) for t in keys]
                           for b in H.branches], dtype=np.int64)
        weights = np.array([[unit_root((-b.shift * t) % 1) for t in keys]
                            for b in H.branches], dtype=complex)
    worst, _ = _selfsim_defect(x, images, weights, H.modulus, present)
    if worst is None:
        raise ValueError("no table entry has all its images tabulated")
    return worst


# ---------------------------------------------------------------------------
# residue distributions of the numen

@dataclass
class Distribution:
    """P(X = w mod q**exponent) for w over the lattice q**-b * Z_q.

    Residues are rationals k / q**b for 0 <= k < q**(exponent + b).
    Probabilities are real, within 1e-12 of [0, 1], and sum to 1 within
    1e-12.
    """

    base: int
    exponent: int
    b: int
    probabilities: dict[Fraction, float]
    method: str = ""

    def __post_init__(self):
        for w, prob in self.probabilities.items():
            if not -1e-12 <= prob <= 1 + 1e-12:
                raise ValueError(f"probability {prob} at {w} out of range")
        total = math.fsum(self.probabilities.values())
        if abs(total - 1) > 1e-12:
            raise ValueError(f"probabilities sum to {total}, not 1")

    def sorted_items(self) -> list[tuple[Fraction, float]]:
        return sorted(self.probabilities.items())


def prob_inversion(H: HydraMap, q: int, n: int) -> Distribution:
    """Residue distribution by Fourier inversion of the solved table:

        P(X = k mod q**n) = q**-n sum over |t| <= q**n of mu-hat(t) e_q(t k),

    one inverse FFT of the solved vector.  The solve's preconditions make
    X q-integral, so b = 0: on an integer-closed map den(c_j) divides
    den(r_j), which |r_j|_q <= 1 keeps prime to q.  Refuses q**n above
    ENUMERATION_CAP.
    """
    values, _ = _solve(H, q, n)
    probs = np.fft.ifft(values)
    k = int(np.argmax(np.abs(probs.imag)))
    if abs(probs.imag[k]) > 1e-12:
        raise NumericalCheckError(
            f"inversion produced imaginary mass {probs.imag[k]} at k = {k}")
    return Distribution(
        q, n, 0, {Fraction(k): p for k, p in enumerate(probs.real.tolist())},
        method="inversion")


def prob_empirical(
    H: HydraMap,
    q: int,
    n: int,
    depth: int,
    allow_large: bool = False,
) -> Distribution:
    """Exhaustive residue histogram of the numen over all
    modulus**depth truncations, weighted uniformly."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if not is_prime(q):
        raise PreconditionError(f"need a prime place, got {q}")
    _guard_size(H.modulus, depth, "truncations", allow_large)
    B = _lattice_exponent(H, q)
    scale = Fraction(q) ** B
    hist = _scaled_residue_histogram(H, q, n + B, B, depth)
    size = H.modulus ** depth
    probs = {Fraction(k) / scale: count / size for k, count in hist.items()}
    return Distribution(q, n, B, probs, method="empirical")


def total_variation(a: Distribution, b: Distribution) -> float:
    """Total-variation distance (half the l1 difference over all
    residues of the common lattice)."""
    if (a.base, a.exponent) != (b.base, b.exponent):
        raise ValueError("distributions live on different residue systems")
    keys = set(a.probabilities) | set(b.probabilities)
    return 0.5 * math.fsum(abs(a.probabilities.get(w, 0.0)
                               - b.probabilities.get(w, 0.0)) for w in keys)
