"""Exact-arithmetic toolkit for the Rogers-Ramanujan-Gordon circle of identities.

Four computation routes to the same graded dimensions, kept deliberately
independent so they can verify one another coefficient-by-coefficient:

* ``selberg.solve`` constructs the unique solution of the Rogers-Selberg
  q-difference system at a truncation window;
* ``qcombinat.andrews_gordon_multisum`` evaluates the closed multisum form;
* ``qcombinat.count_gordon_partitions`` / ``count_congruence_partitions``
  count, with no generating function, the partitions both sides of
  Gordon's identities count, and ``gordon_partition_table`` counts the
  Gordon side by number of parts, cell for cell against the multisum;
* ``ideal_quotient.hilbert_table`` recomputes the dimensions from the
  generators of a polynomial ideal by exact linear algebra.

The solver, the multisum and the product share one truncated-row kernel,
``series.shift_row`` and ``series.div_one_minus_q_power``; the counts and
the oracle use none of it, so they stay an independent check on it.

Everything is integer-exact: comparisons are equalities, never tolerances.
"""

from .series import (
    BiSeries,
    from_terms,
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
    gordon_partition_table,
    gordon_product,
    min_gordon_weight,
)
from .selberg import (
    RecursionFamily,
    WeightData,
    check_recursions,
    check_rr_recursion,
    member_decoder,
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
    "from_terms",
    "gordon_partition_table",
    "gordon_product",
    "hilbert_table",
    "integer_matrix_rank",
    "member_decoder",
    "min_gordon_weight",
    "monomial",
    "one",
    "partitions_exact",
    "r_polynomial",
    "solve",
    "specialize_x",
    "weight_data",
    "zero",
]
