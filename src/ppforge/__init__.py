"""Permutation-polynomial criteria over small finite fields.

Decision procedures for coset-respecting permutation families (both the
multiplicative d-th power form and the additive kernel/image form), family
generators, and a brute-force oracle harness that exhaustively verifies
every criterion against direct evaluation.
"""

from .additive import (AdditiveTriple, SubgroupData, TraceTheoremParams,
                       commuting_criterion_check, example_family, gamma_search,
                       necessary_conditions_check, proposition_check,
                       subgroup_data, trace_theorem_check, trace_theorem_poly,
                       triple_poly)
from .cyclotomic import (HermiteFamily, HermiteParams, Theorem1Params,
                         cofactor_of, fhat_on_mu_d, hermite_family,
                         hermite_sufficient, lemma_check, theorem1_check,
                         theorem1_generate, theorem1_poly)
from .errors import (ExpansionTooLargeError, FieldError, OracleBoundError,
                     PPForgeError, PolyParseError, ScopeError,
                     UnknownSuiteError)
from .field import Field, divisors, is_prime, make_field, parse_field
from .oracle import (DEFAULT_MAX_Q, SAMPLE_SEED, SUITE_NAMES,
                     EquivalenceReport, is_permutation, run_equivalence_suite,
                     value_table)
from .poly import (AdditivePoly, CyclotomicForm, FqPoly, additive_commutes,
                   expand_cyclotomic, format_poly, h_d_poly, parse_additive,
                   parse_poly, to_additive, trace_poly)
from .report import Condition, ConditionReport

__version__ = "0.1.0"
