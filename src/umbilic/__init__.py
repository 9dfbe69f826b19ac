"""Numerical verification of totally umbilical submanifolds in
indefinite space forms: indefinite linear algebra, order-3 jets,
an executable catalog of immersion families, curvature analysis,
congruence testing and a verification CLI.
"""

from .bilinear import Signature, signature_of
from .catalog import family_ids, get_family, instantiate
from .charts import AmbientSpace, CompositeChart, ExprChart, compose
from .analysis import (analyze_point, analyze_points, fullness,
                       reduction_report, verify_family)
from .congruence import classify, congruence_test, moduli_demo
from .errors import DegenerateMetricError, DomainError, InputError

__version__ = "0.1.0"

__all__ = [
    "AmbientSpace", "CompositeChart", "DegenerateMetricError", "DomainError",
    "ExprChart", "InputError", "Signature", "analyze_point",
    "analyze_points", "classify", "compose", "congruence_test", "family_ids",
    "fullness", "get_family", "instantiate", "moduli_demo", "reduction_report",
    "signature_of", "verify_family",
]
