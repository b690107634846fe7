"""Exact verification engine for graded BV bialgebra and Frobenius
structures: Koszul-sign linear algebra, an expression evaluator, the
full relation catalog, the double construction and the erase/mark layer.
"""

from .core import (Element, EngineError, FiniteSpace, GradedMap, GradedSpace,
                   PrimeField, QQ, Rationals, basis_element, field_by_name,
                   koszul_sign, permute, scalar_element, zero_element)
from .checks import CheckReport, RelationSpec, Window, sign_mutations
from .expr import (OpContext, compile_expr, evaluate, infer_degree, parse,
                   parse_element, print_expr)
from .structures import (BVUI_FULL, BVUIInstance, CONSEQUENCES,
                         FROBENIUS_FULL, FrobeniusInstance, builtin_relation,
                         check_consequences, check_structure, derived_bracket,
                         derived_cobracket, forget_frobenius_to_bvui)
from .double import (DoubleError, build_double, build_double_data,
                     build_ev_coev, double_dual_identification, dual_map,
                     dual_space)
from .models import (builtin_model, finite_bvui_examples, mutate,
                     sphere_frobenius_model, sphere_model)
from .gysin import (GysinData, canonical_gysin, check_lie_bialgebra,
                    string_bracket, string_cobracket)

__version__ = "0.1.0"
