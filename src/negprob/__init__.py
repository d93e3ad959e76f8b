"""Negation of discrete probability distributions, the uncertainty
measures it interacts with, and a seeded engine that confirms or refutes
structural claims about that interaction.

The claim engine's names (``check_all``, ``CLAIMS``, ``ClaimReport`` and
the rest from ``negprob.claims``) are resolved on first access, through
the module ``__getattr__`` (PEP 562), so ``import negprob`` and the CLI's
commands other than ``check`` do not load the engine. ``from negprob
import check_all`` works as before, and each name, once resolved, is an
attribute of the package like any other.
"""

from .measures import (
    MeasureSet,
    entropy,
    extropy,
    gini_entropy,
    measure_all,
    uniform_varextropy,
    varentropy,
    varextropy,
)
from .negation import NegationTrace, TraceStep, negate, negate_k, trace_negation
from .simplex import (
    SUM_TOLERANCE,
    DimensionMismatch,
    Distribution,
    NotADistribution,
    SimplexSamplerConfig,
    TooFewOutcomes,
    majorizes,
    make_distribution,
    sample_uniform_simplex,
    uniform,
)

__version__ = "0.1.0"

__all__ = [
    "CLAIMS",
    "CONFIRMED",
    "REFUTED",
    "Claim",
    "ClaimReport",
    "Counterexample",
    "DimensionMismatch",
    "Distribution",
    "MeasureSet",
    "NegationTrace",
    "NotADistribution",
    "SUM_TOLERANCE",
    "SimplexSamplerConfig",
    "TooFewOutcomes",
    "TraceStep",
    "UnknownClaim",
    "check_all",
    "check_claim",
    "claim_by_id",
    "entropy",
    "extropy",
    "gini_entropy",
    "majorizes",
    "make_distribution",
    "measure_all",
    "negate",
    "negate_k",
    "reports_to_json",
    "sample_uniform_simplex",
    "trace_negation",
    "uniform",
    "uniform_varextropy",
    "varentropy",
    "varextropy",
]

# Names of negprob.claims, imported on first access by __getattr__: the
# exported names that the imports above do not bind.
_CLAIM_NAMES = frozenset(__all__) - globals().keys()


def __getattr__(name: str):
    if name not in _CLAIM_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import claims

    globals().update({n: getattr(claims, n) for n in _CLAIM_NAMES})
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(globals().keys() | _CLAIM_NAMES)
