"""opnlab: necessary-condition toolkit for odd perfect numbers.

Exact rational arithmetic throughout; real constants enter only as
certified rational enclosures, so every verdict and table entry is an
exact statement, not a floating-point approximation.
"""

from .abundancy import (
    AbundancyReport,
    Classification,
    abundancy_report,
    geometric_split_check,
    sigma,
    sigma_minus_one,
    truncated_product,
)
from .bound_tables import (
    BoundTableRow,
    find_I,
    generate_table,
    perisastri_bound,
    rho,
    rho_limit,
)
from .constants import (
    DEFAULT_WIDTH,
    pi_enclosure,
    threshold_enclosure,
    zeta_enclosure,
)
from .errors import (
    InvalidArgument,
    OpnlabError,
    ParseError,
    PrecisionCapExceeded,
    ResourceLimit,
)
from .exact_arith import RatInterval
from .primes import (
    Factorization,
    factorize,
    is_prime,
    nth_prime,
    prime_cap,
    primes_window,
    set_prime_cap,
)
from .screener import (
    Condition,
    EulerForm,
    Mode,
    Outcome,
    ScreenVerdict,
    euler_form_check,
    full_screen,
    perfect_check,
    radical_screen,
    to_euler_form,
)

__version__ = "0.1.0"

__all__ = [
    "AbundancyReport",
    "BoundTableRow",
    "Classification",
    "Condition",
    "DEFAULT_WIDTH",
    "EulerForm",
    "Factorization",
    "InvalidArgument",
    "Mode",
    "OpnlabError",
    "Outcome",
    "ParseError",
    "PrecisionCapExceeded",
    "RatInterval",
    "ResourceLimit",
    "ScreenVerdict",
    "abundancy_report",
    "euler_form_check",
    "factorize",
    "find_I",
    "full_screen",
    "generate_table",
    "geometric_split_check",
    "is_prime",
    "nth_prime",
    "perfect_check",
    "perisastri_bound",
    "pi_enclosure",
    "prime_cap",
    "primes_window",
    "radical_screen",
    "rho",
    "rho_limit",
    "set_prime_cap",
    "sigma",
    "sigma_minus_one",
    "threshold_enclosure",
    "to_euler_form",
    "truncated_product",
    "zeta_enclosure",
]
