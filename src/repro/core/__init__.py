"""The paper's core contribution: LEC-feature-accelerated partial evaluation.

This package contains everything Sections IV-VI of the paper describe:

* :mod:`partial_match` — local partial matches (Definition 5),
* :mod:`partial_eval` — per-fragment enumeration of local partial matches,
* :mod:`lec` — LEC features (Definition 8, Algorithm 1),
* :mod:`joins` — joinability (Definition 9) and the hash-indexed join both
  coordinator algorithms run on,
* :mod:`pruning` — LEC feature-based pruning (Algorithm 2),
* :mod:`assembly` — LEC feature-based assembly (Algorithm 3) and the
  ungrouped baseline join,
* :mod:`candidate_exchange` — assembling variables' internal candidates
  (Algorithm 4), and
* :mod:`engine` — the gStoreD engine orchestrating all stages over a
  simulated cluster.
"""

from .assembly import AssemblyOutcome, BasicAssembler, LECAssembler, assemble_matches
from .candidate_exchange import (
    CandidateBitVector,
    DEFAULT_BIT_VECTOR_BITS,
    GlobalCandidateFilter,
    build_site_vectors,
    union_site_vectors,
)
from .config import ABLATION_CONFIGS, EngineConfig, OptimizationLevel
from .engine import (
    GStoreDEngine,
    STAGE_ASSEMBLY,
    STAGE_CANDIDATES,
    STAGE_PARTIAL_EVAL,
    STAGE_PLANNING,
    STAGE_PRUNING,
)
from .lec import LECFeature, compute_lec_features, lec_feature_of
from .partial_eval import PartialEvaluationResult, PartialEvaluator, evaluate_fragment
from .partial_match import LocalPartialMatch, check_local_partial_match
from .pruning import LECFeaturePruner, PruningOutcome, prune_features

__all__ = [
    "ABLATION_CONFIGS",
    "AssemblyOutcome",
    "BasicAssembler",
    "CandidateBitVector",
    "DEFAULT_BIT_VECTOR_BITS",
    "EngineConfig",
    "GStoreDEngine",
    "GlobalCandidateFilter",
    "LECAssembler",
    "LECFeature",
    "LECFeaturePruner",
    "LocalPartialMatch",
    "OptimizationLevel",
    "PartialEvaluationResult",
    "PartialEvaluator",
    "PruningOutcome",
    "STAGE_ASSEMBLY",
    "STAGE_CANDIDATES",
    "STAGE_PARTIAL_EVAL",
    "STAGE_PLANNING",
    "STAGE_PRUNING",
    "assemble_matches",
    "build_site_vectors",
    "check_local_partial_match",
    "compute_lec_features",
    "evaluate_fragment",
    "lec_feature_of",
    "prune_features",
    "union_site_vectors",
]
