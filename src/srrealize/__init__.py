"""Realizability of graded Stanley-Reisner rings as integral cohomology.

Given a simplicial complex whose vertices carry positive even degrees, this
package decides whether the associated Stanley-Reisner ring is the integral
cohomology ring of a space, constructs a witnessing homotopy colimit diagram
of classifying spaces over the facet-intersection poset, and verifies the
construction degree by degree through Hilbert functions.
"""

from .admissible import (
    CONSTRUCTIBLE,
    AdemP3,
    AdmissibleClass,
    Exceptional,
    Inadmissible,
    MultipleDegree4,
    ObstructionReason,
    SpType,
    SUType,
    TableMiss,
    ThomasRank,
    Torus,
    adem_p3_check,
    aguade_table_member,
    class_degrees,
    classify,
    dirichlet_prime,
    exceptional_degrees,
    sp_degrees,
    su_degrees,
    thomas_rank_check,
)
from .complexes import (
    ComplexError,
    ComplexWithDegrees,
    DegreeMultiset,
    DuplicateVertex,
    MalformedInput,
    MaxIntersectionPoset,
    NonMaximalFacet,
    NotAFace,
    OddOrNonpositiveDegree,
    OrphanVertex,
    Simplex,
    UnknownVertex,
    UnknownVertexInFacet,
    VertexDecl,
    all_faces,
    complex_from_json,
    make_complex,
    pmax,
    simplex_key,
)
from .decide import (
    HypothesisViolated,
    HypothesisViolatedError,
    NotRealizable,
    Partition,
    Realizable,
    SufficientOnly,
    Unknown,
    Verdict,
    check_main_hypothesis,
    decide_main,
    find_partition,
    full_report,
    necessary_condition,
)
from .diagram import (
    BSp,
    BSU,
    BlockLabel,
    BlockMap,
    ColimitDiagram,
    CPInclusion,
    CPInfPower,
    DiagramEdge,
    DiagramNode,
    EdgeLabel,
    FromPoint,
    InadmissibleSimplex,
    Iota1Power,
    Iota2Power,
    NoCanonicalMap,
    Point,
    build_diagram,
    diagram_from_json,
    emit_dot,
    emit_json,
    expected_block_maps,
    label_node,
    node_name,
)
from .hilbert import (
    HilbertFunction,
    free_hilbert,
    sr_hilbert,
)
from .verify import (
    VerificationReport,
    pushout_recurrence_check,
    verify_construction,
)

__version__ = "0.1.0"
