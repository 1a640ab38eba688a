"""The benchmark's own exact arithmetic, used to check answers.

Nothing here calls into hydramaps: maps are read as integer triples
(A_j, B_j, D) with H_j(z) = (A_j*z + B_j) / D, and orbits, digit
expansions, truncation folds, q-adic fractional parts and characters are
recomputed from those, so a check does not share code with the answer
it checks.
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

MAX_STEPS = 10_000          # the library's default orbit budget
ESCAPE_BOUND = 10 ** 18     # the library's default escape bound


class Branches:
    """Integer form of a map's branches: H_j(z) = (A_j*z + B_j) / D."""

    def __init__(self, H):
        self.p = H.modulus
        self.scales = [b.scale for b in H.branches]
        self.shifts = [b.shift for b in H.branches]
        self.D = math.lcm(*(x.denominator for x in self.scales + self.shifts))
        self.A = [int(r * self.D) for r in self.scales]
        self.B = [int(c * self.D) for c in self.shifts]

    def step(self, z: int) -> int:
        j = z % self.p
        num = self.A[j] * z + self.B[j]
        if num % self.D:
            raise ArithmeticError(f"branch {j} sends {z} off the integers")
        return num // self.D

    def anchor(self) -> Fraction:
        """X(0) = c_0 / (1 - r_0)."""
        return self.shifts[0] / (1 - self.scales[0])


def canonical(cycle) -> tuple[int, ...]:
    cycle = tuple(cycle)
    i = cycle.index(min(cycle))
    return cycle[i:] + cycle[:i]


def census(br: Branches, lo: int, hi: int) -> dict[int, tuple | None]:
    """Fate of every integer on the orbits of [lo, hi]: its canonical
    cycle, or None when the orbit passes ESCAPE_BOUND or MAX_STEPS.

    Walks share visited values, so each integer is stepped once; the
    keys are exactly the distinct integers on the window's orbits.
    """
    fate: dict[int, tuple | None] = {}
    for start in range(lo, hi + 1):
        if start in fate:
            continue
        path, pos, v = [start], {start: 0}, start
        while True:
            v = br.step(v)
            if v in fate:
                result = fate[v]
                break
            if v in pos:
                result = canonical(path[pos[v]:])
                break
            if abs(v) > ESCAPE_BOUND or len(path) > MAX_STEPS:
                result = None
                break
            pos[v] = len(path)
            path.append(v)
        for u in path:
            fate[u] = result
    return fate


def window_cycles(fate: dict, lo: int, hi: int) -> set[tuple[int, ...]]:
    return {fate[s] for s in range(lo, hi + 1) if fate[s] is not None}


def is_periodic_point(br: Branches, v: int, max_period: int) -> bool:
    u = v
    for _ in range(max_period):
        u = br.step(u)
        if u == v:
            return True
    return False


# ---------------------------------------------------------------------------
# p-adic digits and the numen

def expansion(x: Fraction, p: int) -> tuple[list[int], list[int]]:
    """(preperiod, period) of the base-p digits of a p-integral rational."""
    seen: dict[Fraction, int] = {}
    out: list[int] = []
    while x not in seen:
        seen[x] = len(out)
        d = x.numerator * pow(x.denominator, -1, p) % p
        out.append(d)
        x = (x - d) / p
    start = seen[x]
    return out[:start], out[start:]


def digits(x: Fraction, p: int, n: int) -> list[int]:
    """The first n base-p digits of a p-integral rational."""
    out, period = expansion(x, p)
    while len(out) < n:
        out += period
    return out[:n]


def fold(br: Branches, word, inner: Fraction) -> Fraction:
    """H_{word[0]} o ... o H_{word[-1]} applied to inner."""
    x = inner
    for d in reversed(word):
        x = br.scales[d] * x + br.shifts[d]
    return x


def numen_nat(br: Branches, n: int) -> Fraction:
    word = []
    while n:
        n, d = divmod(n, br.p)
        word.append(d)
    return fold(br, word, br.anchor())


def numen_rational(br: Branches, x: Fraction) -> Fraction:
    """Closed form: the fixed point of the period's composite, folded
    through the preperiod."""
    pre, period = expansion(x, br.p)
    scale = math.prod((br.scales[d] for d in period), start=Fraction(1))
    shift = fold(br, period, Fraction(0))
    if scale == 1:
        raise ArithmeticError("period composes to scale 1")
    return fold(br, pre, shift / (1 - scale))


def valuation(x: Fraction, q: int) -> int | None:
    """v_q(x), or None for x = 0."""
    if x == 0:
        return None
    v, num, den = 0, x.numerator, x.denominator
    while num % q == 0:
        num //= q
        v += 1
    while den % q == 0:
        den //= q
        v -= 1
    return v


# ---------------------------------------------------------------------------
# characters and distributions

def frac_part(x: Fraction, q: int) -> Fraction:
    """q-adic fractional part {x}_q in [0, 1) for a prime q."""
    den, m = x.denominator, 0
    while den % q == 0:
        den //= q
        m += 1
    if m == 0:
        return Fraction(0)
    return Fraction(x.numerator * pow(den, -1, q ** m) % q ** m, q ** m)


def root(angle: Fraction) -> complex:
    a = angle % 1
    return cmath.exp(2j * math.pi * a.numerator / a.denominator)


def selfsim_defect(br: Branches, q: int, values: dict[Fraction, complex]) -> float:
    """Worst |mu(t) - (1/p) sum_j e_q(-c_j t) mu({r_j t}_q)| over a table
    keyed by the frequency value t in [0, 1)."""
    worst = 0.0
    for t, val in values.items():
        rhs = 0j
        for r, c in zip(br.scales, br.shifts):
            rhs += root(frac_part(-c * t, q)) * values[frac_part(r * t, q)]
        worst = max(worst, abs(val - rhs / br.p))
    return worst


def total_variation(a: dict, b: dict) -> float:
    keys = set(a) | set(b)
    return 0.5 * sum(abs(a.get(k, 0.0) - b.get(k, 0.0)) for k in keys)
