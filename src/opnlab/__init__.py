"""opnlab: necessary-condition toolkit for odd perfect numbers.

Exact rational arithmetic throughout; real constants enter only as
certified rational enclosures, so every verdict and table entry is an
exact statement, not a floating-point approximation.

Importing the package loads none of its modules: each public name below
imports its home module on first access (PEP 562).
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names it exports
_EXPORTS = {
    "abundancy": "AbundancyReport Classification abundancy_report sigma sigma_minus_one "
    "truncated_product",
    "bound_tables": "BoundTableRow find_I generate_table perisastri_bound rho rho_limit",
    "constants": "DEFAULT_WIDTH pi_enclosure threshold_enclosure zeta_enclosure",
    "errors": "InvalidArgument OpnlabError ParseError PrecisionCapExceeded ResourceLimit",
    "exact_arith": "RatInterval",
    "primes": "Factorization factorize is_prime nth_prime prime_cap primes_window set_prime_cap",
    "screener": "Condition Mode Outcome ScreenVerdict euler_form_check full_screen "
    "perfect_check radical_screen",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
