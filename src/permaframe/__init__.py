"""Tight spectral Parseval frame transform for ranked data on the
permutahedron.

A vote tally over the n! complete rankings of n candidates is a signal on the
permutahedron.  This package decomposes such signals into analysis
coefficients indexed by (symmetry type, Laplacian eigenvalue, candidate
grouping), supports exact reconstruction and energy decomposition, and
projects signals onto the much smaller Schreier quotient graphs for
inspection.
"""

from .ballots import BallotFile, parse_ballots, read_ballot_file, tally
from .cache import FrameCache, SchreierBundle, build_cache, load_cache, save_cache, verify_cache
from .combinatorics import (
    IntegerPartition,
    OrderedSetPartition,
    Permutation,
    dominates,
    enumerate_ordered_set_partitions,
    h_shapes,
    hook_dimension,
    lex_rank,
    multiplicity_constants,
    partitions_of,
    reduced_representatives,
    sign,
)
from .errors import (
    CacheFormatError,
    NumericalError,
    PermaframeError,
    ResourceLimitError,
    ValidationError,
)
from .frame import (
    AtomId,
    CoefficientTable,
    EnergyTable,
    Signal,
    analyze,
    analyze_with_conjugates,
    atom,
    conjugate_energy_rows,
    energy_table,
    graph_fourier,
    isotypic_project,
    reconstruct,
    schreier_projection,
    sign_flip,
    synthesize,
)
from .schreier import (
    CharacteristicMatrix,
    LiftingPath,
    SchreierGraph,
    build_characteristic,
    build_schreier,
    minimal_paths,
)
from .spectral import (
    ShapeSpectrum,
    hook_wedge_eigenvectors,
    path_eigenpairs,
    specht_spectrum,
    verify_dominance_conjecture,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
