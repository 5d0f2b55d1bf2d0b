"""Exact-arithmetic toolkit for the Rogers-Ramanujan-Gordon circle of identities.

Four computation routes to the same graded dimensions, kept deliberately
independent so they can verify one another coefficient-by-coefficient:

* ``selberg.solve`` constructs the unique solution of the Rogers-Selberg
  q-difference system at a truncation window;
* ``qcombinat.andrews_gordon_multisum`` evaluates the closed multisum form;
* ``qcombinat.count_gordon_partitions`` / ``count_congruence_partitions``
  count, with no generating function, the partitions both sides of
  Gordon's identities count;
* ``ideal_quotient.hilbert_table`` recomputes the dimensions from the
  generators of a polynomial ideal by exact linear algebra.

Everything is integer-exact: comparisons are equalities, never tolerances.
"""

from .series import (
    BiSeries,
    from_terms,
    invert_one_minus_q_power,
    monomial,
    one,
    specialize_x,
    zero,
)
from .qcombinat import (
    GordonCondition,
    andrews_gordon_multisum,
    count_congruence_partitions,
    count_gordon_partitions,
    count_gordon_partitions_refined,
    gordon_product,
    inverse_pochhammer,
    min_gordon_weight,
    pochhammer,
)
from .selberg import (
    RecursionFamily,
    WeightData,
    check_recursions,
    check_rr_recursion,
    solve,
    weight_data,
)
from .ideal_quotient import (
    DimensionTable,
    hilbert_table,
    integer_matrix_rank,
    partitions_exact,
    r_polynomial,
)

__version__ = "0.1.0"

__all__ = [
    "BiSeries",
    "DimensionTable",
    "GordonCondition",
    "RecursionFamily",
    "WeightData",
    "andrews_gordon_multisum",
    "check_recursions",
    "check_rr_recursion",
    "count_congruence_partitions",
    "count_gordon_partitions",
    "count_gordon_partitions_refined",
    "from_terms",
    "gordon_product",
    "hilbert_table",
    "integer_matrix_rank",
    "inverse_pochhammer",
    "invert_one_minus_q_power",
    "min_gordon_weight",
    "monomial",
    "one",
    "partitions_exact",
    "pochhammer",
    "r_polynomial",
    "solve",
    "specialize_x",
    "weight_data",
    "zero",
]
