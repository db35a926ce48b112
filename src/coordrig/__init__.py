"""Generic rigidity of coordinated bar-joint frameworks.

Coloured graphs partition their edges into coordination classes whose
lengths may change in unison; rigidity of such frameworks reduces to
redundancy questions in the ordinary rigidity matroid.  The package
provides exact randomized deciders for any dimension, deterministic
combinatorial deciders for the plane, the supporting pebble-game and
matroid-union machinery, and a CLI with replayable certificates.
"""

from .cgraph import (
    ColouredGraph,
    GraphError,
    build,
    parse_coloured_graph,
    serialize,
    subgraph_by_colours,
)
from .generic import (
    BackendError,
    OracleParams,
    RigidityVerdict,
    decide_generic_coordinated_rigidity,
    find_rainbow_redundant_tuple,
    generic_rank,
    is_redundant_set,
    rainbow_stress_certificates,
    rank_summary,
)
from .laman import (
    UnionRankReport,
    check_k1,
    check_k2,
    check_union,
    decide_plane,
    henneberg_k1_sample,
    transversal_rank,
    union_rank_d2,
)
from .linalg import (
    MotionReport,
    check_equivalent,
    colour_class_load,
    coordinated_matrix,
    coordination_gram,
    edge_load,
    equilibrium_stresses,
    infinitesimal_motions,
    resolve_load,
    rigidity_matrix,
)
from .pebble import (
    SparsityParams,
    redundant_edges_d2,
    sparsity_rank,
)

__version__ = "0.1.0"
