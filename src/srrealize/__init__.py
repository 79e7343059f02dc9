"""Realizability of graded Stanley-Reisner rings as integral cohomology.

Given a simplicial complex whose vertices carry positive even degrees, this
package decides whether the associated Stanley-Reisner ring is the integral
cohomology ring of a space, constructs a witnessing homotopy colimit diagram
of classifying spaces over the facet-intersection poset, and verifies the
construction degree by degree through Hilbert functions.

The names below are the ones the README documents; everything else is
imported from the module that defines it.
"""

from .admissible import classify
from .complexes import complex_from_json, make_complex
from .decide import (
    HypothesisViolated,
    NotRealizable,
    Realizable,
    SufficientOnly,
    Unknown,
    full_report,
)
from .diagram import build_diagram
from .verify import verify_construction

__version__ = "0.1.0"
