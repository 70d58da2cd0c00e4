"""Multifraction reduction and word-problem tools for Artin-Tits monoids."""

from .errors import BudgetExhausted, PresentationError, StructuralError
from .presentation import ArtinPresentation, Relation, parse_presentation
from .monoid import Monoid, MonoidElement
from .multifraction import (
    Multifraction,
    ReductionStep,
    SearchResult,
    apply_reduction,
    reduces_to_trivial,
    reduction_step_candidates,
    search_reduction,
)
from .split import (
    SplitStep,
    TrimStep,
    apply_split,
    apply_trim,
    simulate_reduction_by_splits,
    simulate_splits_by_padded_reduction,
    split_reduces_to_trivial,
)
from .transforms import WordStep, apply_word_step, search_empty_word, special_neighbors
from .dihedral import Dihedral, FractionPair, padding_bound
from .solver import PaddingStrategy, Verdict, decide, equal_in_group_fc, verdict_json

__version__ = "0.1.0"


def kernel_backend() -> str:
    """Name of the monoid kernels in use; there is only the pure-Python one.

    The quotient, key and divisor kernels of `multifrac.monoid` are plain
    Python; no compiled kernel is built or selected.
    """
    return "python"


__all__ = [
    "ArtinPresentation",
    "BudgetExhausted",
    "Dihedral",
    "FractionPair",
    "Monoid",
    "MonoidElement",
    "Multifraction",
    "PaddingStrategy",
    "PresentationError",
    "ReductionStep",
    "Relation",
    "SearchResult",
    "SplitStep",
    "StructuralError",
    "TrimStep",
    "Verdict",
    "WordStep",
    "apply_reduction",
    "apply_split",
    "apply_trim",
    "apply_word_step",
    "decide",
    "equal_in_group_fc",
    "kernel_backend",
    "padding_bound",
    "parse_presentation",
    "reduces_to_trivial",
    "reduction_step_candidates",
    "search_empty_word",
    "search_reduction",
    "simulate_reduction_by_splits",
    "simulate_splits_by_padded_reduction",
    "special_neighbors",
    "split_reduces_to_trivial",
    "verdict_json",
    "__version__",
]
