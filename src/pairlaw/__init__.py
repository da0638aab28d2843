"""Pair-color laws of matching experiments.

Two natural procedures stop at the first same-color pair: drawing pairs
memorylessly until one matches, and drawing one object at a time until
some color repeats.  They induce different laws on colors, and this
package computes both exactly, the total variation discrepancy between
them, the one-heavy-color family extremizing it at every finite size, the
universal limit constants of both the single-sequence and the alternating
left/right settings, and seeded Monte Carlo verification of everything.
"""

__version__ = "0.1.0"

from .dist_core import Distribution, RngSeed, validate
from .errors import (BadSum, DomainError, Empty, ExcessTruncation,
                     IndexMismatch, InputError, InternalFault, InvalidPair,
                     NegativeEntry, NoSignChange, NonPositiveC,
                     NonPositiveParameter, NTooSmall, PairLawError,
                     ToleranceNotMet, TooManyColors, UnimodalityError)
from .family_opt import (THREE_COLOR_ARGMAX, THREE_COLOR_DOUBLED_MAX,
                         TWO_COLOR_STATIONARY, FamilyCurveRow, FamilyPoint,
                         OptResult, PolySpec, exact_two_color_extreme,
                         family_argmax, family_discrepancy,
                         figure_family_curves, simplex_search, solve_poly)
from .limit_laws import (ConvergenceRow, QuadratureResult, convergence_check,
                         ell, ell_argmax, ell_shoes, ell_shoes_diag_argmax,
                         ell_shoes_value, ell_value)
from .pair_laws import (DrawStats, PairLaw, SimReport, derive_m1, derive_m2,
                        discrepancy, draw_stats, m2_oracle_exact, m2_simulate,
                        match_probability, tvd)
from .shoes import (ShoePair, TrendRow, ValueWithError, shoes_discrepancy,
                    shoes_m1, shoes_m2_exact, shoes_m2_simulate,
                    shoes_match_probability, sup_one_demo, witness_family)

__all__ = [
    "__version__",
    # validated vectors and seeds
    "Distribution", "RngSeed", "validate",
    # the two laws and their discrepancy
    "PairLaw", "DrawStats", "SimReport", "match_probability", "derive_m1",
    "derive_m2", "m2_oracle_exact", "m2_simulate", "tvd", "discrepancy",
    "draw_stats",
    # the one-heavy-color family and finite extrema
    "FamilyPoint", "FamilyCurveRow", "OptResult", "PolySpec",
    "TWO_COLOR_STATIONARY", "THREE_COLOR_ARGMAX", "THREE_COLOR_DOUBLED_MAX",
    "family_discrepancy", "family_argmax", "solve_poly",
    "exact_two_color_extreme", "simplex_search", "figure_family_curves",
    # limit curves and constants
    "QuadratureResult", "ConvergenceRow", "ell", "ell_value",
    "ell_argmax", "ell_shoes", "ell_shoes_value", "ell_shoes_diag_argmax",
    "convergence_check",
    # alternating left/right collection
    "ShoePair", "ValueWithError", "TrendRow",
    "shoes_match_probability", "shoes_m1", "shoes_m2_exact",
    "shoes_m2_simulate", "shoes_discrepancy", "witness_family",
    "sup_one_demo",
    # errors
    "PairLawError", "InputError", "NegativeEntry", "BadSum", "Empty",
    "TooManyColors", "IndexMismatch", "DomainError",
    "NoSignChange", "NonPositiveC", "NonPositiveParameter", "InvalidPair",
    "NTooSmall", "ToleranceNotMet", "ExcessTruncation", "UnimodalityError",
    "InternalFault",
]
