"""Square roots modulo primes p = 2^k * n + 1 (n odd).

One evaluator of the class formula for every k (tagged f1..f4 or synth), a
general-k synthesizer with sign normalization, rendering, and sparse
expansion, classical oracles (iterative refinement, class-index direct
method, brute force), exact order-class statistics, and a CLI for sweeps and
benchmarks.
"""

from .analysis import DensityReport, multiplier_coverage, order_census
from .formulas import (
    NotAResidue,
    SqrtOutcome,
    WrongClass,
    sqrt_auto,
    sqrt_f1,
    sqrt_f2,
    sqrt_f3,
    sqrt_f4,
)
from .modarith import (
    MulCounter,
    PrimeContext,
    decompose,
    is_prime,
    legendre,
    make_context,
    mod_pow,
    primes_in_range,
)
from .oracles import (
    brute_force_sqrt,
    direct_sqrt,
    tonelli_shanks,
)
from .synthesis import (
    ExpandedPolynomial,
    Factor,
    RenderedTerm,
    SignedFactor,
    SymbolicFormula,
    Term,
    degree_check,
    expand,
    normalize_signs,
    render_math,
    render_text,
    sqrt_synth,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "DensityReport",
    "ExpandedPolynomial",
    "Factor",
    "MulCounter",
    "NotAResidue",
    "PrimeContext",
    "RenderedTerm",
    "SignedFactor",
    "SqrtOutcome",
    "SymbolicFormula",
    "Term",
    "WrongClass",
    "brute_force_sqrt",
    "decompose",
    "degree_check",
    "direct_sqrt",
    "expand",
    "is_prime",
    "legendre",
    "make_context",
    "mod_pow",
    "multiplier_coverage",
    "normalize_signs",
    "order_census",
    "primes_in_range",
    "render_math",
    "render_text",
    "sqrt_auto",
    "sqrt_f1",
    "sqrt_f2",
    "sqrt_f3",
    "sqrt_f4",
    "sqrt_synth",
    "synthesize",
    "tonelli_shanks",
]
