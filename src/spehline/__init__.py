"""Symbolic multisegment algebra, (r, i) support diagrams and the
congruence-separation engine for Speh/Steinberg bookkeeping."""

from .congruence import (
    AutomorphicDatum,
    ContributionSet,
    Dataset,
    DimensionTable,
    InconsistentDataError,
    InconsistentTableError,
    Verdict,
    d_sequence,
    expected_contributions,
    generate_dataset,
    infer_B,
    members,
    modl_key,
    substitute_cuspidal,
    theorem_check,
)
from .diagrams import (
    ConstituentLabel,
    Diagram,
    DiagramPoint,
    LocalComponent,
    constituent,
    constituent_sum,
    diagram,
    m_indicator,
    superpose,
    trace_back,
)
from .formal import GrothSum
from .ledger import (
    GlobalContext,
    InvariantViolation,
    LedgerTerm,
    adjunction_labels,
    expand_resolution,
    filtration_graded,
    generic_infinitesimal,
    group_by_stratum,
    resolution_terms,
    strip_adjunction_core,
)
from .torsion import (
    NoTorsionError,
    TorsionProfile,
    i_of_t,
    torsion_dimension,
    torsion_transfer_label,
)
from .zline import (
    HalfInt,
    InertialCuspidal,
    LadderShape,
    Multisegment,
    Segment,
    Wildcard,
    ZERO,
    jacquet_cuts,
    make_speh,
    make_steinberg,
    normalized_product,
    ordered_product,
    reduced_label,
    speh_tower,
)

__version__ = "0.1.0"
