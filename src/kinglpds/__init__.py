"""Locating-paired-dominating sets on the infinite king grid.

Exact tools for periodic patterns: construction catalog, verification of the
domination/locating/pairing properties, charge-redistribution pipelines with
rational arithmetic, exhaustive local-lemma checks, and minimum-cardinality
search over fundamental domains.
"""

from .discharge import (
    DischargeError,
    combined_lower_bound,
    first_pipeline,
    inequality_values,
    minority_thresholds,
    run_pipeline,
    second_pipeline,
    single_type_bounds,
)
from .grid import (
    chebyshev,
    closed_neighborhood,
    common_neighbors,
    neighbors,
)
from .lemmas import (
    LemmaVerdict,
    check_adjacent_sum,
    check_all,
    check_lemma1,
    check_r_claims,
)
from .pattern import (
    FiniteWindow,
    LatticeBasis,
    PatternFormatError,
    PeriodicPattern,
    XDescriptor,
    canonicalize,
    catalog,
    lx_member,
    lx_pattern,
    lx_window,
    parse_text,
    serialize_pattern,
    serialize_window,
    translation_canonical,
    truncate,
    window_count,
    window_density,
)
from .search import (
    SearchConfig,
    SearchResult,
    minimum_lpds,
)
from .verify import (
    Classification,
    Matching,
    check_domination,
    check_locating,
    classify,
    find_perfect_matching,
    verify_lpds,
    verify_window,
)

__version__ = "0.1.0"

__all__ = [
    "chebyshev",
    "neighbors",
    "closed_neighborhood",
    "common_neighbors",
    "LatticeBasis",
    "PeriodicPattern",
    "FiniteWindow",
    "XDescriptor",
    "PatternFormatError",
    "catalog",
    "lx_member",
    "lx_pattern",
    "lx_window",
    "canonicalize",
    "translation_canonical",
    "truncate",
    "window_count",
    "window_density",
    "parse_text",
    "serialize_pattern",
    "serialize_window",
    "Matching",
    "Classification",
    "check_domination",
    "check_locating",
    "classify",
    "find_perfect_matching",
    "verify_lpds",
    "verify_window",
    "DischargeError",
    "first_pipeline",
    "second_pipeline",
    "run_pipeline",
    "inequality_values",
    "combined_lower_bound",
    "minority_thresholds",
    "single_type_bounds",
    "LemmaVerdict",
    "check_lemma1",
    "check_r_claims",
    "check_adjacent_sum",
    "check_all",
    "SearchConfig",
    "SearchResult",
    "minimum_lpds",
]
