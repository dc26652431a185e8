"""Multi-property bounded model checking with reusable cluster knowledge.

Offline, a corpus of designs is verified property by property and in
clusters of functionally similar properties; what each cluster did for
each property is distilled into three small text databases.  Online, an
unseen design is matched against the corpus and verified through the
clusters borrowed from its closest relative.
"""

from .netlist import (  # noqa: F401
    Latch,
    Netlist,
    extract_coi,
    parse_aiger,
    restrict_to_coi,
    serialize_aiger,
)
from .bmc import BmcConfig, check_cluster, check_single, replay_cex  # noqa: F401
from .satcore import SolverSession, new_solver  # noqa: F401
from .embed import EmbeddingTensor, PcaModel, fit_pca, project, simulate_signature  # noqa: F401
from .clusterer import Cluster, ClusterFamily, build_family, kmeans, kmedoids  # noqa: F401
from .gain import build_influencing_map, classify, compute_gain, influencing_cluster  # noqa: F401
from .store import read_db, write_db  # noqa: F401
from .online import associate_properties, build_diff_matrix, convert_clusters, select_similar_design, verify_unknown  # noqa: F401

__version__ = "0.1.0"
