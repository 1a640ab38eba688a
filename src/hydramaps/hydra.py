"""Hydra maps: p-branch affine maps on the integers, and their string algebra.

A hydra map has modulus p and one affine branch z -> r_j*z + c_j per
residue class j mod p.  Branch words (digit strings) compose to affine
maps; the scale of a composite is the product of the branch scales and
the offset is the word evaluated at 0.  digit_value / digits_of convert
between strings and the natural numbers they enumerate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

from .errors import MapSpecError
from .exact import RationalLike, _digits, _horner


@dataclass(frozen=True)
class Branch:
    """One affine branch z -> scale*z + shift with nonzero scale."""

    scale: Fraction
    shift: Fraction

    def __post_init__(self):
        if self.scale == 0:
            raise MapSpecError("branch scale must be nonzero")

    def __call__(self, z: RationalLike) -> Fraction:
        return self.scale * z + self.shift


@dataclass(frozen=True)
class AffineMap:
    """z -> scale*z + shift; closed under composition."""

    scale: Fraction
    shift: Fraction

    @classmethod
    def identity(cls) -> "AffineMap":
        return cls(Fraction(1), Fraction(0))

    def __call__(self, z: RationalLike) -> Fraction:
        return self.scale * z + self.shift

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """self after inner: z -> self(inner(z))."""
        return AffineMap(self.scale * inner.scale,
                         self.scale * inner.shift + self.shift)


@dataclass(frozen=True)
class DigitString:
    """A finite word over {0, ..., base-1}.

    entries[0] is the innermost-weight digit: it carries weight base**0
    in digit_value and selects the outermost map in compose_branches.
    """

    base: int
    entries: tuple[int, ...]

    def __post_init__(self):
        if self.base < 2:
            raise ValueError(f"need base >= 2, got {self.base}")
        if any(not (0 <= e < self.base) for e in self.entries):
            raise ValueError(f"entries out of range for base {self.base}")

    def __len__(self) -> int:
        return len(self.entries)

    def __add__(self, other: "DigitString") -> "DigitString":
        return concat(self, other)


def concat(i: DigitString, j: DigitString) -> DigitString:
    """Concatenation i ^ j (entries of i first)."""
    if i.base != j.base:
        raise ValueError(f"bases differ: {i.base} != {j.base}")
    return DigitString(i.base, i.entries + j.entries)


def digit_value(s: DigitString) -> int:
    """sum(entries[k] * base**k): the natural number the string names."""
    return _horner(s.entries, s.base)


def digits_of(n: int, p: int) -> DigitString:
    """Shortest base-p digit string of n >= 0 (empty for 0)."""
    if n < 0:
        raise ValueError(f"need n >= 0, got {n}")
    if p < 2:
        raise ValueError(f"need base >= 2, got {p}")
    return DigitString(p, tuple(_digits(n, p)))


@dataclass(frozen=True)
class HydraMap:
    """p affine branches, branch j serving the residue class j mod p.

    Construction validates that each branch maps its own class into the
    integers (it is enough that den(r_j) | p and r_j*j + c_j is an
    integer).  initial_value optionally pins the map's value at 0 for
    the numen recursion; it must satisfy (1 - r_0)*x = c_0.

    The branches are also held in one integer form: with D the lcm of
    every branch denominator, _steps[j] = (a_j, b_j, D) where a_j = D*r_j
    and b_j = D*c_j.  The step reads it, and so does the one word fold
    _word_form behind every composite, periodic point and numen value: a
    word of length n composes to x -> (A*x + B) / D**n, and appending
    digit j on the inside sends (A, B) to (A*a_j, A*b_j + D*B).
    """

    modulus: int
    branches: tuple[Branch, ...]
    initial_value: Fraction | None = None

    def __post_init__(self):
        p = self.modulus
        if p < 2:
            raise MapSpecError(f"modulus must be >= 2, got {p}")
        if len(self.branches) != p:
            raise MapSpecError(
                f"expected {p} branches, got {len(self.branches)}")
        for j, branch in enumerate(self.branches):
            witness = self._closure_witness(j, branch)
            if witness is not None:
                raise MapSpecError(
                    f"branch {j} maps z = {witness} to the non-integer "
                    f"{branch(witness)}")
        D = math.lcm(*(x.denominator for b in self.branches
                       for x in (b.scale, b.shift)))
        object.__setattr__(self, "_steps", tuple(
            (int(b.scale * D), int(b.shift * D), D) for b in self.branches))
        if self.initial_value is not None:
            r0, c0 = self.branches[0].scale, self.branches[0].shift
            if (1 - r0) * self.initial_value != c0:
                raise MapSpecError(
                    f"initial value {self.initial_value} does not satisfy "
                    f"(1 - r_0)*x = c_0 with r_0 = {r0}, c_0 = {c0}")

    def _closure_witness(self, j: int, branch: Branch) -> int | None:
        # H_j(j + p*k) = H_j(j) + r_j*p*k is integral for all k iff
        # H_j(j) is an integer and den(r_j) divides p.
        if branch(j).denominator != 1:
            return j
        if self.modulus % branch.scale.denominator != 0:
            return j + self.modulus
        return None

    def branch_index(self, z: int) -> int:
        return z % self.modulus

    def apply(self, z: int) -> int:
        """One step of the map on an integer, in integer arithmetic only.

        z in class j goes to (a_j*z + b_j) // D.  The division is exact
        because branch j maps its own class into the integers, which
        construction checks; no Fraction is built.
        """
        a, b, d = self._steps[z % self.modulus]
        return (a * z + b) // d

    def apply_branch(self, j: int, z: RationalLike) -> Fraction:
        """Branch j applied to an arbitrary rational (no coset check)."""
        return self.branches[j](z)


def build_hydra(
    p: int,
    branch_specs: Iterable[tuple[RationalLike, RationalLike]],
    initial_value: RationalLike | None = None,
) -> HydraMap:
    """Construct a validated HydraMap from (scale, shift) pairs."""
    branches = tuple(Branch(Fraction(r), Fraction(c)) for r, c in branch_specs)
    init = None if initial_value is None else Fraction(initial_value)
    return HydraMap(p, branches, init)


def shortened_collatz(multiplier: int = 3) -> HydraMap:
    """The 2-branch map z -> z/2 on evens, (m*z + 1)/2 on odds (m odd)."""
    if multiplier % 2 == 0:
        raise MapSpecError("multiplier must be odd")
    return build_hydra(2, [(Fraction(1, 2), 0),
                           (Fraction(multiplier, 2), Fraction(1, 2))])


@dataclass(frozen=True)
class MapProperties:
    """integral: branch j hits the integers exactly on class j;
    proper: r_0 != 1; centered: c_0 = 0."""

    integral: bool
    proper: bool
    centered: bool


def classify(H: HydraMap) -> MapProperties:
    """Decide integrality, properness, centeredness exactly.

    Integrality is decided per branch over a full period of the
    predicate 'H_j(z) is an integer': the predicate has period den(r_j),
    so checking all residues mod lcm(p, den(r_j)) is exhaustive.
    """
    p = H.modulus
    integral = True
    for j, branch in enumerate(H.branches):
        span = math.lcm(p, branch.scale.denominator)
        for z in range(span):
            if (branch(z).denominator == 1) != (z % p == j):
                integral = False
                break
        if not integral:
            break
    proper = H.branches[0].scale != 1
    centered = H.branches[0].shift == 0
    return MapProperties(integral=integral, proper=proper, centered=centered)


def center_map(
    H: HydraMap | tuple[int, "Iterable[tuple[RationalLike, RationalLike]]"],
    bound: int,
) -> tuple[HydraMap, int] | None:
    """Search |a| <= bound for an integer shift whose conjugate map
    (branch j becomes (r_j, r_j*a + c_j - a)) is centered.

    Accepts either a validated HydraMap or raw (p, branch_specs) data —
    conjugation is useful precisely for normalizing maps that are not
    integer-closed as given, so the input is not required to validate.
    Branch 0 becomes pure scaling exactly when (1 - r_0)*a = c_0; shifts
    are tried in the order 0, 1, -1, 2, -2, ... and candidates whose
    conjugate fails integer closure are skipped.  Returns the first
    (centered validated map, a), or None when no admissible shift exists
    (e.g. r_0 = 1 with c_0 != 0).

    With r_0 != 1 the only candidate is c_0/(1 - r_0).  With r_0 = 1
    and c_0 = 0 every shift centers, and closure of the conjugate
    depends only on a mod lcm(den r_j), so |a| <= that lcm meets every
    class: the search is O(lcm) however large the bound.
    """
    if bound < 0:
        raise ValueError(f"need bound >= 0, got {bound}")
    if isinstance(H, HydraMap):
        p = H.modulus
        data = [(b.scale, b.shift) for b in H.branches]
    else:
        p, raw = H
        data = [(Fraction(r), Fraction(c)) for r, c in raw]
    r0, c0 = data[0]
    if r0 != 1:
        a = c0 / (1 - r0)
        shifts = [int(a)] if a.denominator == 1 and abs(a) <= bound else []
    elif c0 != 0:
        shifts = []
    else:
        period = math.lcm(*(r.denominator for r, _ in data))
        shifts = _by_magnitude(min(bound, period))
    for a in shifts:
        specs = [(r, r * a + c - a) for r, c in data]
        try:
            candidate = build_hydra(p, specs)
        except MapSpecError:
            continue
        return candidate, a
    return None


def _by_magnitude(bound: int):
    yield 0
    for a in range(1, bound + 1):
        yield a
        yield -a


def compose_branches(H: HydraMap, s: DigitString) -> AffineMap:
    """Affine composite H_{s_1} o H_{s_2} o ... o H_{s_n} (entry 0 outermost).

    The empty string gives the identity.  The composite's scale is the
    product of the branch scales along the word and its shift is the
    word applied to 0.
    """
    if s.base != H.modulus:
        raise ValueError(f"string base {s.base} != map modulus {H.modulus}")
    A, B, Dn = _word_form(H, s.entries)
    return AffineMap(Fraction(A, Dn), Fraction(B, Dn))


def _word_form(H: HydraMap, digits) -> tuple[int, int, int]:
    """(A, B, D**n) with x -> (A*x + B) / D**n the composite of the
    length-n word, entry 0 outermost (see HydraMap)."""
    steps = H._steps
    D = steps[0][2]
    A, B = 1, 0
    for j in digits:
        a, b, _ = steps[j]
        A, B = A * a, A * b + D * B
    return A, B, D ** len(digits)


def _word_tables(H: HydraMap, n: int) -> list[list[tuple[int, int]]]:
    """tables[m] holds the (A, B) of every length-m word, m <= n, in
    descending order of entries (entry 0 most significant), so index i
    is the word whose base-p code is p**m - 1 - i.  Each length extends
    the last on the inside, _word_form's step.  An outer word u of
    length m and an inner v of length k join to u*v, whose form is
    (A_u*A_v, A_u*B_v + D**k*B_u) and whose index is i_u*p**k + i_v."""
    steps = H._steps
    D = steps[0][2]
    digits = [(a, b) for a, b, _ in reversed(steps)]
    tables = [[(1, 0)]]
    for _ in range(n):
        tables.append([(A * a, A * b + D * B)
                       for A, B in tables[-1] for a, b in digits])
    return tables


def _word_image(H: HydraMap, digits, x: Fraction) -> Fraction:
    """The word's composite applied to x, as one Fraction."""
    A, B, Dn = _word_form(H, digits)
    return Fraction(A * x.numerator + B * x.denominator, Dn * x.denominator)
