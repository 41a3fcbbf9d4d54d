"""Exact workbench for the multiple caching search game.

Everything numeric is a ``fractions.Fraction``: game values, plan weights,
bounds, and probabilities are computed and compared exactly.
"""

__version__ = "0.11.0"

from .core import (
    GameSpec,
    Variant,
    enumerate_allocations,
    lower_bound_infinite_d,
    upper_bound_combinatorial,
    upper_bound_first_query,
)
from .rational import Rational, format_rational, parse_rational
from .solver import (
    AccuracyResult,
    BestResponse,
    BudgetExceededError,
    SolveResult,
    best_response_value,
    build_tree,
    check_accuracy,
    hider_strategy_value,
    solve,
)
from .strategies import (
    StrategyTree,
    builtin_family,
    family_332,
    family_d2,
    family_d3,
    family_infinite_d,
    fig432,
    fig542,
    joint_verify_cooperative,
    least_treasures_rule,
    single_query,
    verify,
)

__all__ = [
    "AccuracyResult",
    "BestResponse",
    "BudgetExceededError",
    "GameSpec",
    "Rational",
    "SolveResult",
    "StrategyTree",
    "Variant",
    "best_response_value",
    "build_tree",
    "builtin_family",
    "check_accuracy",
    "enumerate_allocations",
    "family_332",
    "family_d2",
    "family_d3",
    "family_infinite_d",
    "fig432",
    "fig542",
    "format_rational",
    "hider_strategy_value",
    "joint_verify_cooperative",
    "least_treasures_rule",
    "lower_bound_infinite_d",
    "parse_rational",
    "single_query",
    "solve",
    "upper_bound_combinatorial",
    "upper_bound_first_query",
    "verify",
]
