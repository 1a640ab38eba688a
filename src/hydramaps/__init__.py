"""Exact arithmetic for hydra maps and their numens.

Hydra maps generalize the Collatz map: p affine branches with rational
coefficients, selected by the input's residue mod p, constrained to send
integers to integers.  The numen X_H solves X(pn + j) = r_j X(n) + c_j
and extends from the nonnegative integers to p-adic integers; this
package evaluates it exactly on integers, truncations, and rational
p-adic integers, runs cycle censuses and the cycle/periodic-point
correspondence, and computes its characteristic function and residue
distributions by non-archimedean Fourier analysis.
"""

from importlib import import_module as _import_module

from .errors import (
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_PRECONDITION,
    EXIT_RESOURCE,
    EXIT_SPEC_ERROR,
    HydraError,
    MapSpecError,
    NotPIntegralError,
    NumericalCheckError,
    PreconditionError,
    ResourceLimitError,
)
from .exact import (
    INFINITY,
    Frequency,
    PAdicTrunc,
    Place,
    RationalDigitExpansion,
    abs_at_place,
    abs_finite,
    character_angle,
    character_eval,
    crt_split,
    digit_expansion,
    drop_lowest_digit,
    format_rational,
    fractional_part,
    frequencies_through_level,
    is_prime,
    parse_rational,
    prime_factors,
    residue_mod,
    unit_factorization,
    unit_part,
    unit_root,
    valuation,
)
from .hydra import (
    AffineMap,
    Branch,
    DigitString,
    HydraMap,
    MapProperties,
    build_hydra,
    center_map,
    classify,
    compose_branches,
    concat,
    digit_value,
    digits_of,
    shortened_collatz,
)
from .numen import (
    GUARANTEE_AE,
    GUARANTEE_NONE,
    GUARANTEE_UNIFORM,
    ConvergenceReport,
    DensityProfile,
    base_value,
    convergence_report,
    density_criterion,
    digit_densities,
    ell_bound_check,
    find_contracting_place,
    numen_of_nat,
    numen_of_rational,
    numen_of_trunc,
    periodic_word_value,
    repeating_digits_rational,
)
from .dynamics import (
    CorrespondenceCertificate,
    CorrespondenceResult,
    OrbitClass,
    OrbitReport,
    ScanReport,
    STATUS_ESCAPED,
    STATUS_PERIODIC,
    STATUS_PREPERIODIC,
    correspondence_roundtrip,
    cycle_string,
    find_cycles,
    orbit,
    orbit_class_partition,
    reverse_scan,
)
from .cli import format_report, main, parse_map_spec

__version__ = "0.1.0"

# The Fourier layer is the only one that needs numpy, so it loads on the
# first use of one of these names (PEP 562).  Each access is looked up in
# the fourier module again rather than cached here, so rebinding a name
# inside fourier stays visible through the package.
_FOURIER_NAMES = (
    "CharFnTable", "Distribution", "SBFunction", "additive_character",
    "b_constant", "charfn_estimate", "charfn_solve", "charfn_table_estimate",
    "fourier_sb", "haar_integral_riemann", "haar_integral_sb",
    "inverse_fourier_sb", "orthogonality_sum", "prob_empirical",
    "prob_inversion", "selfsim_residual", "total_variation",
)

__all__ = sorted(
    [name for name in dir() if not name.startswith("_")]
    + ["fourier", *_FOURIER_NAMES])


def __getattr__(name: str):
    if name == "fourier" or name in _FOURIER_NAMES:
        # import_module, not `from . import fourier`: the latter asks this
        # module for the attribute first and would recurse
        fourier = _import_module(f"{__name__}.fourier")
        return fourier if name == "fourier" else getattr(fourier, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
