"""Exact verification of symbol maps into differential forms, Cech
cohomology of small projective covers, and the tangent-space comparisons
built from both.

Everything computes over explicit field towers with rational arithmetic;
nothing is numerical.  See the README for a tour and the ``ktangent``
command for the runnable check suites.
"""

from .scalars import make_tower, Algebraic, Transcendental, Scalar
from .funcrings import FunctionRing, RingElem, DualElem
from .differentials import (DiffForm, d, dlog, wedge, base_q, base_level,
                            base_top, dual_relative, base_change,
                            base_change_kernel_letters, pullback)
from .milnor import (SymbolWord, EpsSymbol, eps_split, beta,
                     beta_via_truncation, tilde_dlog, eps_to_absolute,
                     check_codifferential, relation_check)
from .complexes import tangent_deligne, cone_partner, alpha_delta_diagram
from .cech import (TruncationPolicy, Sheaf, cover_pn, cover_plane_curve,
                   weierstrass_cubic, extend_cover, sheaf_cohomology,
                   hypercohomology, verify_splitting)
from .cycletangent import (formal_tangent_chow, delta_r,
                           composed_infinitesimal, complex_model,
                           lambda_factorization_check)
from .parser import parse, evaluate, load_instance, SuiteConfig

__all__ = [
    "make_tower", "Algebraic", "Transcendental", "Scalar",
    "FunctionRing", "RingElem", "DualElem",
    "DiffForm", "d", "dlog", "wedge", "base_q", "base_level", "base_top",
    "dual_relative", "base_change", "base_change_kernel_letters", "pullback",
    "SymbolWord", "EpsSymbol", "eps_split", "beta", "beta_via_truncation",
    "tilde_dlog", "eps_to_absolute", "check_codifferential", "relation_check",
    "tangent_deligne", "cone_partner", "alpha_delta_diagram",
    "TruncationPolicy", "Sheaf", "cover_pn", "cover_plane_curve",
    "weierstrass_cubic", "extend_cover", "sheaf_cohomology",
    "hypercohomology", "verify_splitting",
    "formal_tangent_chow", "delta_r", "composed_infinitesimal",
    "complex_model", "lambda_factorization_check",
    "parse", "evaluate", "load_instance", "SuiteConfig",
]
