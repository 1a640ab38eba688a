"""Seeded generator of integer-closed, proper, centered hydra maps.

Branch j of a generated map is z -> (a_j*z + b_j)/p with gcd(a_j, p) = 1,
so den(r_j) = p, and b_j = -a_j*j (mod p), so H_j(j) is an integer.
b_0 = 0 makes the map centered, and a_0, being prime to p, is never p,
so the map is proper.  One branch multiplier is +-q for a prime q that
does not divide p, so the product of the branch norms at q is below 1
and the numen converges almost everywhere there.  Maps are built with build_hydra and validated
with classify before they are returned.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

from hydramaps.hydra import HydraMap, build_hydra, classify

MAX_MULTIPLIER = 12   # |a_j| for the branches that do not carry q
TRIES = 10_000        # draws before a drift band is given up as empty


def seeded_map(
    rng: random.Random,
    p: int,
    q: int,
    drift_band: tuple[float, float] | None = None,
) -> HydraMap:
    """A random integer-closed, proper, centered map with modulus p whose
    branch norms at the prime q multiply to less than 1.

    drift_band, when given, restricts the mean log-growth per step,
    (1/p) * sum_j log|r_j|, to [lo, hi]: negative for maps whose orbits
    mostly converge, positive for maps whose orbits mostly escape.  It
    keeps the length of integer orbits, and so the cost of a census, in
    a known range.
    """
    if q % p == 0 or p % q == 0:
        raise ValueError(f"need a prime q not dividing p, got p={p}, q={q}")
    units = [a for a in range(-MAX_MULTIPLIER, MAX_MULTIPLIER + 1)
             if a and math.gcd(a, p) == 1]
    for _ in range(TRIES):
        carrier = rng.randrange(p)
        multipliers = []
        for j in range(p):
            if j == carrier:
                multipliers.append(rng.choice((-1, 1)) * q)
            else:
                multipliers.append(rng.choice(units))
        if drift_band is not None:
            growth = sum(math.log(abs(a) / p) for a in multipliers) / p
            if not drift_band[0] <= growth <= drift_band[1]:
                continue
        specs = []
        for j, a in enumerate(multipliers):
            b = 0 if j == 0 else -a * j + p * rng.randrange(-2, 3)
            specs.append((Fraction(a, p), Fraction(b, p)))
        H = build_hydra(p, specs)
        props = classify(H)
        if not (props.integral and props.proper and props.centered):
            raise AssertionError(f"generated map fails classify: {specs}")
        return H
    raise RuntimeError(f"no map with p={p}, q={q} in the drift band "
                       f"{drift_band} after {TRIES} tries")


def map_document(H: HydraMap) -> dict:
    """The JSON map spec that `hydra --map` reads for H."""
    return {"p": H.modulus,
            "branches": [{"r": str(b.scale), "c": str(b.shift)}
                         for b in H.branches]}
