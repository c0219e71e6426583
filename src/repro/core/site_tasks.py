"""The gStoreD engine's per-site stage bodies as site tasks.

Every per-site stage body of :class:`~repro.core.engine.GStoreDEngine` is a
*module-level* handler taking exactly ``(site, payload)`` and returning a
plain value.  No handler touches the cluster, the message bus, the stage
timers or the statistics — those live in the coordinator, which builds the
:class:`~repro.exec.tasks.SiteTask` descriptors (via the ``*_tasks`` helpers
below, each putting its handler on the task) and folds the returned values
into shared state in its deterministic ``site_id``-ordered merge.

Payload and result types are deliberately explicit: what a stage needs goes
*in* through the payload (query, query graph, planner edge order, candidate
filter, config knobs), and what the coordinator accounts for comes *out*
through small result dataclasses — the same objects whose shipment the
message bus then charges, so ``shipped_bytes``/``messages`` depend only on
what the handlers return.

The stage bodies run on ids: every site reads the query's one compiled form
(:func:`repro.store.kernel.compile_query`) and computes its candidate pools
once (:func:`repro.store.kernel.query_pools`), which stage 1 sets bits from
and stage 2 reuses; only complete matches decode to terms.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence

from ..exec.tasks import SiteTask
from ..sparql.algebra import SelectQuery
from ..sparql.bindings import ResultSet
from ..sparql.query_graph import QueryGraph
from ..store.kernel import KERNEL_PYTHON
from .candidate_exchange import CandidateBitVector, GlobalCandidateFilter, build_site_vectors
from .lec import LECClasses, compute_lec_features
from .partial_eval import PartialEvaluator
from .partial_match import LocalPartialMatch, LPMList

#: Task names of the engine's per-site stage bodies.
TASK_LOCAL_EVAL = "engine.local_eval"
TASK_CANDIDATE_VECTORS = "engine.candidate_vectors"
TASK_PARTIAL_EVAL = "engine.partial_eval"
TASK_LEC_FEATURES = "engine.lec_features"
TASK_LEC_FILTER = "engine.lec_filter"


# ----------------------------------------------------------------------
# Result payloads (explicit stage outputs)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CandidateVectorsOutput:
    """One site's Algorithm 4 step: candidate count + compressed vectors."""

    #: Total internal candidates over all query vertices (a stage counter;
    #: the raw candidate sets themselves never leave the site).
    internal_candidates: int
    #: Per-variable fixed-width bit vectors, the only thing shipped.
    vectors: Dict[object, CandidateBitVector]


@dataclass(frozen=True)
class LocalEvalOutput:
    """One site's star-shortcut step: local matches plus the work they cost.

    Only ``matches`` is shipped to the coordinator (the engine charges the
    bus with the result set's rows);
    ``search_steps`` is a work counter folded into
    :attr:`~repro.distributed.QueryStatistics.work` in the serial merge.
    """

    #: The site's fragment-local matches as projected rows (the shipped payload).
    matches: ResultSet
    #: Matcher search steps the local evaluation cost (never shipped).
    search_steps: int = 0
    #: Matching kernel the evaluation ran with (observability).
    kernel: str = KERNEL_PYTHON
    #: Candidate-column intersections the kernel performed (observability).
    kernel_intersections: int = 0


@dataclass(frozen=True)
class PartialEvalOutput:
    """One site's partial-evaluation step: complete + partial local matches."""

    #: Fragment-local complete matches as projected rows (shipped as-is).
    local_matches: ResultSet
    #: The site's local partial matches (Definition 5), kept for pruning.
    local_partial_matches: LPMList
    #: Extended-candidate branches cut by the stage-1 bit-vector filter.
    branches_pruned_by_filter: int
    #: Matcher search steps of the fragment-local complete evaluation
    #: (the same deterministic work counter the kernel benchmarks report).
    search_steps: int = 0
    #: Matching kernel the local evaluation ran with (observability).
    kernel: str = KERNEL_PYTHON
    #: Candidate-column intersections the kernel performed (observability).
    kernel_intersections: int = 0


# ----------------------------------------------------------------------
# Stage handlers (module-level, so a task pickles by reference)
# ----------------------------------------------------------------------
def run_local_eval(site, payload: Mapping[str, object]) -> LocalEvalOutput:
    """Evaluate the query entirely inside the site's fragment.

    The star-query shortcut: every match of a star query is contained in a
    single fragment because crossing edges are replicated.
    """
    matches = site.local_evaluate(payload["query"])
    matcher = site.store.matcher
    return LocalEvalOutput(
        matches=matches,
        search_steps=matcher.search_steps,
        kernel_intersections=matcher.kernel_intersections,
    )


def run_candidate_vectors(site, payload: Mapping[str, object]) -> CandidateVectorsOutput:
    """Compute the site's internal candidates and compress them to bit vectors."""
    query_graph: QueryGraph = payload["query_graph"]
    candidates = site.internal_candidates(query_graph)
    vectors = build_site_vectors(candidates, payload["bit_vector_bits"])
    total = sum(len(values) for values in candidates.values())
    return CandidateVectorsOutput(internal_candidates=total, vectors=vectors)


def run_partial_eval(site, payload: Mapping[str, object]) -> PartialEvalOutput:
    """Enumerate the site's complete local matches and local partial matches."""
    query: SelectQuery = payload["query"]
    query_graph: QueryGraph = payload["query_graph"]
    candidate_filter: Optional[GlobalCandidateFilter] = payload["candidate_filter"]
    evaluator = PartialEvaluator(
        site.fragment,
        graph=site.graph,
        paranoid=payload["paranoid"],
        edge_order=payload["edge_order"],
    )
    # First, so the local search below reuses the candidate pools it builds.
    # An all-zero union vector proves the answer empty: then it builds none,
    # and the search reads its pools from the signature cache on its own.
    outcome = evaluator.evaluate(query_graph, candidate_filter=candidate_filter)
    local_results = site.local_evaluate(query)
    matcher = site.store.matcher
    return PartialEvalOutput(
        local_matches=local_results,
        local_partial_matches=outcome.local_partial_matches,
        branches_pruned_by_filter=outcome.branches_pruned_by_filter,
        search_steps=matcher.search_steps,
        kernel_intersections=matcher.kernel_intersections,
    )


def run_lec_features(site, payload: Mapping[str, object]) -> LECClasses:
    """Group the site's local partial matches into LEC equivalence classes.

    The LPMs arrive through the payload (the coordinator collected them in
    the partial-evaluation merge), so this handler is site-resident only for
    scheduling symmetry — it reads nothing from the fragment.
    """
    del site
    return compute_lec_features(payload["lpms"])


def run_lec_filter(site, payload: Mapping[str, object]) -> LPMList:
    """Keep the LPMs of the classes the coordinator kept, in class order.

    ``surviving`` holds the ascending positions of the surviving features in
    the site's own ``lec_features`` message, which is ``list(classes)``.  The
    kept LPMs refer to that message's key table instead of resending its keys.
    """
    del site
    classes = payload["classes"]
    members = list(classes.values())
    kept = LPMList(known_keys=classes.key_table)
    for position in payload["surviving"]:
        kept.extend(members[position])
    return kept


# ----------------------------------------------------------------------
# Descriptor builders (what the engine's stages submit)
# ----------------------------------------------------------------------
def local_eval_tasks(
    site_ids: Sequence[int], query: SelectQuery, shards_per_site: int = 1
) -> List[SiteTask]:
    """Star-shortcut fan-out: evaluate ``query`` locally at every site.

    ``shards_per_site`` must be 1, the only value
    :attr:`~repro.core.config.EngineConfig.shards_per_site` takes.
    """
    if shards_per_site != 1:
        raise ValueError(f"shards_per_site must be 1, got {shards_per_site!r}")
    return [
        SiteTask(site_id, TASK_LOCAL_EVAL, run_local_eval, {"query": query})
        for site_id in site_ids
    ]


def candidate_vector_tasks(
    site_ids: Sequence[int], query_graph: QueryGraph, bit_vector_bits: int
) -> List[SiteTask]:
    """Algorithm 4 fan-out: per-site candidate bit-vector compression."""
    payload = {"query_graph": query_graph, "bit_vector_bits": bit_vector_bits}
    return [
        SiteTask(site_id, TASK_CANDIDATE_VECTORS, run_candidate_vectors, payload)
        for site_id in site_ids
    ]


def partial_eval_tasks(
    site_ids: Sequence[int],
    query: SelectQuery,
    query_graph: QueryGraph,
    edge_order: Optional[Sequence[int]],
    candidate_filter: Optional[GlobalCandidateFilter],
    paranoid: bool,
) -> List[SiteTask]:
    """Partial-evaluation fan-out with every input made explicit."""
    payload = {
        "query": query,
        "query_graph": query_graph,
        "edge_order": tuple(edge_order) if edge_order is not None else None,
        "candidate_filter": candidate_filter,
        "paranoid": paranoid,
    }
    return [
        SiteTask(site_id, TASK_PARTIAL_EVAL, run_partial_eval, payload) for site_id in site_ids
    ]


def lec_feature_tasks(
    lpms_by_site: Mapping[int, List[LocalPartialMatch]]
) -> List[SiteTask]:
    """LEC compression fan-out, one task per site in ``site_id`` order."""
    return [
        SiteTask(site_id, TASK_LEC_FEATURES, run_lec_features, {"lpms": lpms_by_site[site_id]})
        for site_id in sorted(lpms_by_site)
    ]


def lec_filter_tasks(
    classes_by_site: Mapping[int, LECClasses],
    surviving_by_site: Mapping[int, Sequence[int]],
) -> List[SiteTask]:
    """LEC filtering fan-out: each site keeps the classes at its survivor positions."""
    return [
        SiteTask(
            site_id,
            TASK_LEC_FILTER,
            run_lec_filter,
            {"classes": classes_by_site[site_id], "surviving": surviving_by_site[site_id]},
        )
        for site_id in sorted(classes_by_site)
    ]
