"""sumways: exact counting of the ways sums can be formed.

How many ordered throws of n dice with faces 1..m total N; the same for
pools of unlike or oddly marked dice; how many ways a number is a sum of k
polygonal numbers; and how many nonnegative solutions two simultaneous
linear equations admit. Everything is exact integer arithmetic, every
counting question has at least two independent routes to the answer, and
brute-force oracles keep the clever routes honest.

Quick use:

    >>> from sumways import HomoQuery, count_closed_form
    >>> count_closed_form(HomoQuery(n=6, m=6, N=25))
    2856
"""

from .heterogeneous import (
    DicePool,
    MarkedDie,
    consecutive_pool,
    hetero_count_closed_form,
    hetero_count_product,
    hetero_distribution,
)
from .homogeneous import (
    DivisibilityError,
    HomoQuery,
    count_add_die,
    count_closed_form,
    count_lambda_recurrence,
    count_poly,
    count_table_add_die,
    lambda_recurrence_trace,
)
from .oracle import (
    DEFAULT_BUDGET,
    BudgetExceededError,
    brute_dice,
    brute_partitions,
    brute_regula,
)
from .polygonal import (
    PartSet,
    check_all_positive,
    count_partitions_with_parts,
    ordered_representation_counts,
    polygonal_number,
    polygonal_parts,
)
from .regula import LinearSystem2, rv_count_solutions, rv_enumerate_solutions
from .golden import GOLDEN_TABLE_IDS, load_golden, verify_against_paper

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError",
    "DEFAULT_BUDGET",
    "DicePool",
    "DivisibilityError",
    "GOLDEN_TABLE_IDS",
    "HomoQuery",
    "LinearSystem2",
    "MarkedDie",
    "PartSet",
    "brute_dice",
    "brute_partitions",
    "brute_regula",
    "check_all_positive",
    "consecutive_pool",
    "count_add_die",
    "count_closed_form",
    "count_lambda_recurrence",
    "count_partitions_with_parts",
    "count_poly",
    "count_table_add_die",
    "hetero_count_closed_form",
    "hetero_count_product",
    "hetero_distribution",
    "lambda_recurrence_trace",
    "load_golden",
    "ordered_representation_counts",
    "polygonal_number",
    "polygonal_parts",
    "rv_count_solutions",
    "rv_enumerate_solutions",
    "verify_against_paper",
]
