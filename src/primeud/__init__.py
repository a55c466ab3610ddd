"""primeud: a numerical laboratory for equidistribution mod 1 along primes.

Exposes the symbolic term-class engine, prime sieves and arithmetic tables,
exponential-sum and discrepancy machinery, and the finite recurrence models.
"""

from .ddarith import DD
from .hardy import (
    Coefficient,
    GrowthType,
    HardyExpr,
    boshernitzan_condition,
    classify_growth,
    differentiate,
    evaluate,
    family_combination_check,
    is_in_bold_H,
    verify_differential_inequalities,
)
from .literals import ExprSyntaxError, format_expr, parse_expr
from .primes import (
    ArithTables,
    PrimeTable,
    ap_balance_report,
    arith_tables,
    partial_summation_check,
    primes_in_ap,
    sieve,
    vaughan_decompose,
)
from .expsums import (
    BoundReport,
    ExpSumResult,
    composite_bound_eval,
    erdos_turan_bound,
    kusmin_landau_check,
    vdc_inequality_check,
    weyl_sum_integers,
    weyl_sum_primes,
)
from .discrepancy import (
    DiscrepancyReport,
    equidistribution_report,
    extreme_discrepancy,
    fractional_parts,
    joint_weyl_test,
    star_discrepancy,
)
from .ergodic import (
    Box,
    DiagonalUnitarySystem,
    LatticeSet,
    SequenceSpec,
    SpectralMeasure,
    TorusSystem,
    ergodic_average,
    fcplus_probe,
    filtered_recurrence,
    lattice_recurrence_scan,
    residue_indicator_check,
    torus_recurrence_average,
)

__version__ = "0.1.0"
