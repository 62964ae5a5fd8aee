"""Exact combinatorics of the Euler graph: generalized Eulerian path
counts, good-path bijections, and the adic transformation.

Importing the package loads no submodule.  Each public name is imported
from its submodule on first access (PEP 562), so a caller pays only for
the modules it uses."""

from importlib import import_module

#: Each public name and the submodule that defines it.
_SUBMODULE = {name: module for module, names in {
    "adic": "IncomingEdge compare cylinder_frequency cylinder_measure "
            "incoming_order maximal_path minimal_path orbit successor",
    "encoding": "EncodingSequence decode encode format_code "
                "parse_code transport unmarked_trail",
    "errors": "BudgetError DecodeError MaximalPathError PathValidationError",
    "eulerian": "CountTable Offset ORIGIN Vertex classical_eulerian_oracle "
                "closed_form closed_form_sym closed_form_table "
                "coefficient_identity_check comtet_a00 dim_between recurrence_table",
    "goodpaths": "LabelScheme bad_path_bound count_good_dp "
                 "count_good_enumeration edge_label good_count_table "
                 "good_fraction is_good",
    "paths": "EncodingSymbol EulerPath HORIZONTAL Step VERTICAL count_paths_enumeration "
             "enumerate_paths format_path parse_path validate",
    "ratios": "ConvergenceRecord check_monotonicity convergence_report "
              "directional_limit_q divergence_threshold "
              "monotonicity_violations normalized_dim_ratio ratio_down_q",
}.items() for name in names.split()}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    # The value is returned, not stored here, so the package namespace
    # holds only what the import system puts in it: its submodules.
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f"{__name__}.{module}"), name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
