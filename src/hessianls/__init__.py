"""hessianls: entire solutions of radial k-Hessian equations.

Cauchy solver for sigma_k(lambda(D^2 u)) = b(r) u^gamma in the sublinear
regime 0 < gamma < k, growth classification (Large versus Bounded) through
tail-exponent criteria, sub/supersolution sandwiches for non-radial
coefficients, and verification of the exact power-law growth rates.
"""

from .asymptotics import (FitResult, PowerSolution, RatesReport,
                          exact_power_solution, expected_rate, fit_exponent,
                          verify_rates)
from .coefficients import (AnisotropicPowerField, QuadraticRootField,
                           RadializedTriple, RadialProfile, load_profile_csv,
                           make_builtin_field, radialize, ray_directions,
                           save_profile_csv, sphere_points, triple_from_radial)
from .core import (OVERFLOW_GUARD, ProblemParams, RadialCurve, RadialGrid,
                   binomial, gamma_k_membership, sigma_j_radial)
from .criteria import (BOUNDED, INCONCLUSIVE, LARGE, CriterionVerdict,
                       JensenReport, OscillationReport, TailEstimate,
                       bounded_solution_bound, classify_existence,
                       existence_verdict, growth_primitive, jensen_conditions,
                       keller_osserman_integrand, oscillation_condition,
                       oscillation_threshold, oscillation_verdict,
                       tail_exponent_of)
from .envelope import EnvelopeTables, compute_b_tilde
from .errors import (BlowupGuardError, CoefficientError, DomainTooLargeError,
                     IntegrationError, OrderingError, OscillationError,
                     ParameterError, ProfileRangeError)
from .sandwich import (SandwichReport, bounded_dominance_bound, build_sandwich,
                       supersolution_envelope)
from .solver import (BreakLine, breakline_defect, conservation_defect,
                     euler_polyline, read_curve_csv, residual_max,
                     solve_cauchy, solve_linear_rhs, write_curve_csv)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
