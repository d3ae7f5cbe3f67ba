"""multiwp: multiple Weierstrass wp-functions, multiple Eisenstein series,
multiple zeta values, and the exact relation counting they induce."""

from .core import (DEFAULT_CONFIG, EvalConfig, Index, Partition, TruncatedSeries,
                   bernoulli, beta, beta_prime, compositions_ge2, partition_trace,
                   partitions, phi_log, stuffle)
from .mzv import MzvValue, hurwitz_mzv, mzv, zeta_even_exact
from .weier import (eisenstein_G, repeated_index_closed_form, sigma, weier_zeta,
                    wp, wp_deriv_poly, wp_deriv_trace_form, wp_k, wp_prime)
from .meisen import (g_function, meis_direct, meis_direct_error, meis_qexp,
                     monotangent, multitangent_reduce)
from .multip import (QFactor, ReducedForm, antipode_residual,
                     modular_transform_check, multiwp22_fourier, multiwp_direct,
                     multiwp_multivar, multiwp_reduce, multiwp_tilde,
                     multiwp_tilde_fourier)
from .relations import (SymbolicCombination, antipode_relation, conjectured_dim,
                        conjectured_rel, eisenstein_relation_residual,
                        mzv_relation_residual, relation_rank, relation_table)

__all__ = [
    "DEFAULT_CONFIG", "EvalConfig", "Index", "Partition", "TruncatedSeries",
    "bernoulli", "beta", "beta_prime", "compositions_ge2", "partition_trace",
    "partitions", "phi_log", "stuffle",
    "MzvValue", "hurwitz_mzv", "mzv", "zeta_even_exact",
    "eisenstein_G", "repeated_index_closed_form", "sigma", "weier_zeta",
    "wp", "wp_deriv_poly", "wp_deriv_trace_form", "wp_k", "wp_prime",
    "g_function", "meis_direct", "meis_direct_error", "meis_qexp",
    "monotangent", "multitangent_reduce",
    "QFactor", "ReducedForm", "antipode_residual", "modular_transform_check",
    "multiwp22_fourier", "multiwp_direct", "multiwp_multivar",
    "multiwp_reduce", "multiwp_tilde", "multiwp_tilde_fourier",
    "SymbolicCombination", "antipode_relation", "conjectured_dim",
    "conjectured_rel", "eisenstein_relation_residual",
    "mzv_relation_residual", "relation_rank", "relation_table",
]

__version__ = "0.1.0"
