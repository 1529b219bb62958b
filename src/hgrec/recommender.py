"""End-to-end recommendation: graft a target PR, seed a query, rank, filter.

A fit builds the base graph and everything every query reads: its ranking
system (degrees, S and the factor of S, which every fit makes) and the
candidate developers. A recommendation never mutates that state: the target
PR (and its contributor, when new) is added in an overlay that holds only
those vertices and their edges: one contributor edge plus the target's top-m
strongest similar-PR edges. They update the base system, which is solved
against the base factor. The developer vertices are ranked
by ``rank_developers``, the one ranking rule every recommender shares.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from . import kernels, ranker
from .config import HyperParams
from .corpus import ReviewCorpus, TargetPR
from .errors import HgrecError
from .hypergraph import (
    _CONTRIBUTOR,
    _PR_PR,
    EdgeKind,
    EdgeTable,
    Hypergraph,
    VertexKind,
    contributor_raw,
    pr_pr_raw_row,
    scale_into_range,
    _span,
)


@dataclass
class Recommendation:
    target: str
    k: int
    candidates: list[tuple[str, float]]

    @property
    def short(self) -> bool:
        """True when fewer than the requested k candidates were available."""
        return len(self.candidates) < self.k

    def ids(self) -> list[str]:
        return [dev for dev, _ in self.candidates]


@dataclass(frozen=True)
class FitState:
    """Everything a query reads and none changes: the base graph, its ranking
    system, assembled with S and its factor, the developer vertices (ids and
    indices) and the corpus's historical comment counts."""

    graph: Hypergraph
    system: ranker.RankingSystem
    developer_ids: tuple[str, ...]
    developer_vertices: np.ndarray
    comment_counts: dict[str, int]


def prepare(base: Hypergraph, corpus: ReviewCorpus, params: HyperParams) -> FitState:
    """Per-fit state of a base graph built from ``corpus`` with ``params``."""
    if base.params != params:
        raise HgrecError("params differ from the ones the base graph was built with")
    if base.pr_index is None:
        raise HgrecError("base graph carries no PR index; rebuild it from a corpus")
    system = ranker.assemble(base, params.alpha)
    return FitState(
        graph=base,
        system=system,
        developer_ids=tuple(base.developers),
        developer_vertices=np.fromiter(
            base.developers.values(), dtype=np.int64, count=len(base.developers)
        ),
        comment_counts=corpus.comment_counts(),
    )


def graft(state: FitState, target: TargetPR) -> Hypergraph:
    """Overlay the target PR onto the base graph.

    The overlay holds only what the target adds: a new PR vertex after the
    base vertices (and its contributor, when new), one contributor edge and
    the target's top-m pr_pr edges, strongest first. The dataset end bound is
    extended to the target's creation time when it postdates the corpus,
    keeping every time ratio in range. New edge weights are projected onto
    the base graph's per-family normalization scale so they are comparable
    with existing weights.
    """
    base = state.graph
    if not target.files:
        raise HgrecError(f"target PR {target.id!r} has no files")
    if target.id in base.prs:
        raise HgrecError(f"target id {target.id!r} is already a PR of the corpus")

    t_start = base.bounds[0]
    t_end = max(base.bounds[1], target.created_at)

    pr_v = base.n_vertices
    developers = {}
    contributor_v = base.developers.get(target.contributor)
    if contributor_v is None:
        contributor_v = developers[target.contributor] = pr_v + 1

    index = base.pr_index
    pack = index.pack
    sims = kernels.mean_similarity_row(
        *pack.pack_one(target.files), pack.tokens, pack.file_off, pack.set_off,
        grouping=pack.grouping(),
    )
    # Only positive entries can be chosen, so only they are damped and ranked.
    similar = np.flatnonzero(sims)
    raw = pr_pr_raw_row(
        sims[similar], index.times[similar], _span(t_start, t_end), target.created_at
    )
    # The top m positive raw weights, strongest first, ties to the older
    # partner: ``_top_entries``' order of one row.
    top = np.flatnonzero(raw > 0.0)
    top = top[np.lexsort((index.chronology[similar[top]], -raw[top]))]
    top = top[: base.params.top_m]
    partners = similar[top]
    # Every appended edge pairs the target with one vertex: first its
    # contributor, then each partner PR, which as a base vertex precedes it.
    n_edges = 1 + len(partners)
    kind = np.full(n_edges, _PR_PR, dtype=np.int8)
    kind[0] = _CONTRIBUTOR
    members = np.empty(2 * n_edges, dtype=np.int64)
    members[:2] = sorted((pr_v, contributor_v))
    members[2::2] = index.vertices[partners]
    members[3::2] = pr_v
    raws = np.empty(n_edges)
    raws[0] = contributor_raw(target.created_at, t_start, t_end)
    raws[1:] = raw[top]
    ranges = base.raw_range
    weights = np.empty(n_edges)
    weights[0] = scale_into_range(raws[0], ranges.get(EdgeKind.PR_CONTRIBUTOR))
    weights[1:] = scale_into_range(raws[1:], ranges.get(EdgeKind.PR_PR))
    return Hypergraph(
        prs={target.id: pr_v},
        developers=developers,
        edges=EdgeTable(
            kind=kind,
            offsets=np.arange(0, 2 * n_edges + 1, 2, dtype=np.int64),
            members=members,
            raw=raws,
            weight=weights,
        ),
        bounds=(t_start, t_end),
        raw_range=base.raw_range,
        params=base.params,
        base=base,
    )


def query_vector(graph: Hypergraph, target: TargetPR) -> np.ndarray:
    """Indicator vector: 1 at the target PR and its contributor, 0 elsewhere."""
    query = np.zeros(graph.n_vertices, dtype=np.float64)
    pr_v = graph.vertex_index(VertexKind.PR, target.id)
    contributor_v = graph.vertex_index(VertexKind.DEVELOPER, target.contributor)
    if pr_v is None or contributor_v is None:
        raise HgrecError(f"target PR {target.id!r} is not grafted onto this graph")
    query[pr_v] = 1.0
    query[contributor_v] = 1.0
    return query


def rank_developers(
    scores: Iterable[tuple[str, float]],
    counts: Mapping[str, int],
    target: TargetPR,
    k: int,
) -> Recommendation:
    """The ranking rule of every recommender, over (developer, score) pairs
    with distinct developers: the target's contributor is dropped, the rest
    sorted by score, ties broken by historical comment count (more first)
    then id, and the first ``k`` kept; ``k`` must be at least 1."""
    if k < 1:
        raise HgrecError(f"k must be >= 1, got {k}")
    rows = [(dev, float(score)) for dev, score in scores if dev != target.contributor]
    rows.sort(key=lambda row: (-row[1], -counts.get(row[0], 0), row[0]))
    return Recommendation(target=target.id, k=k, candidates=rows[:k])


def rank(state: FitState, target: TargetPR, k: int) -> Recommendation:
    """Algorithmic pipeline: graft, seed, update the base system and solve,
    filter and sort, truncate."""
    graph = graft(state, target)
    system = ranker.assemble(graph, state.graph.params.alpha, base=state.system)
    scores = ranker.solve(system, query_vector(graph, target))[state.developer_vertices]
    ids = state.developer_ids
    if 0 < k < len(scores) - 1:
        # A developer below the (k+1)-th score trails at least k others even
        # once the contributor is dropped, so it cannot make the list. A k
        # below 1 skips this and is rejected by rank_developers.
        kept = np.flatnonzero(scores >= np.partition(scores, -(k + 1))[-(k + 1)])
        ids = [ids[i] for i in kept.tolist()]
        scores = scores[kept]
    return rank_developers(zip(ids, scores), state.comment_counts, target, k)


def recommend(
    base: Hypergraph,
    corpus: ReviewCorpus,
    target: TargetPR,
    params: HyperParams,
    k: int,
) -> Recommendation:
    """One query against a base graph; fit-and-recommend in one call."""
    return rank(prepare(base, corpus, params), target, k)


class HypergraphRecommender:
    """fit/recommend wrapper caching the per-fit state of a training corpus."""

    def __init__(self, params: HyperParams | None = None):
        self.params = params or HyperParams()
        self._state: FitState | None = None

    def fit(self, corpus: ReviewCorpus) -> "HypergraphRecommender":
        from .hypergraph import build

        self._state = prepare(build(corpus, self.params), corpus, self.params)
        return self

    @property
    def state(self) -> FitState:
        if self._state is None:
            raise HgrecError("recommender is not fitted")
        return self._state

    @property
    def base_graph(self) -> Hypergraph:
        return self.state.graph

    def recommend(self, target: TargetPR, k: int) -> Recommendation:
        return rank(self.state, target, k)
