"""Exact combinatorics of the Euler graph: generalized Eulerian path
counts, good-path bijections, and the adic transformation."""

from .adic import (IncomingEdge, compare, cylinder_frequency, cylinder_measure,
                   incoming_order, maximal_path, minimal_path, orbit, successor)
from .encoding import (EncodingSequence, EncodingSymbol, decode, encode,
                       format_code, parse_code, transport, unmarked_counts,
                       unmarked_trail)
from .errors import (BudgetError, DecodeError, MaximalPathError,
                     PathValidationError)
from .eulerian import (CountTable, Offset, ORIGIN, Vertex,
                       classical_eulerian_oracle, closed_form, closed_form_sym,
                       coefficient_identity_check, comtet_a00, dim_between,
                       generalized_binomial, recurrence_table)
from .goodpaths import (LabelScheme, bad_path_bound, count_good_dp,
                        count_good_enumeration, edge_label, good_count_table,
                        good_fraction, is_good)
from .paths import (EulerPath, HORIZONTAL, Step, VERTICAL,
                    count_paths_enumeration, enumerate_paths, format_path,
                    multiplicity, parse_path, path_sort_key, validate)
from .ratios import (ConvergenceRecord, check_monotonicity, convergence_report,
                     directional_limit_q, divergence_threshold,
                     monotonicity_violations, normalized_dim_ratio,
                     ratio_down_p, ratio_down_q)

__all__ = [
    "BudgetError", "ConvergenceRecord", "CountTable", "DecodeError",
    "EncodingSequence", "EncodingSymbol", "EulerPath", "HORIZONTAL",
    "IncomingEdge", "LabelScheme", "MaximalPathError", "ORIGIN", "Offset",
    "PathValidationError", "Step", "VERTICAL", "Vertex", "bad_path_bound",
    "check_monotonicity", "classical_eulerian_oracle", "closed_form",
    "closed_form_sym", "coefficient_identity_check", "compare", "comtet_a00",
    "convergence_report", "count_good_dp", "count_good_enumeration",
    "count_paths_enumeration", "cylinder_frequency", "cylinder_measure",
    "decode", "dim_between", "directional_limit_q", "divergence_threshold",
    "edge_label", "encode", "enumerate_paths", "format_code", "format_path",
    "generalized_binomial", "good_count_table", "good_fraction",
    "incoming_order", "is_good", "maximal_path", "minimal_path",
    "monotonicity_violations", "multiplicity", "normalized_dim_ratio",
    "orbit", "parse_code", "parse_path", "path_sort_key", "ratio_down_p",
    "ratio_down_q", "recurrence_table", "successor", "transport",
    "unmarked_counts", "unmarked_trail", "validate",
]
